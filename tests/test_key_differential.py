"""The branch-and-bound canonical key against the permutation loop.

``canonical_key`` must return exactly the oracle's tuple (the least
encoding over the same labellings), so the order of obstacles, pieces and
classes is unchanged.  Structures of at most 7 vertices over a unary, a
binary and a ternary symbol are drawn with loops and 0-3 pinned roots;
half of them are closed under a vertex permutation, so that they have
automorphisms for the search to find and use.  Symbols that every
relabelling maps onto themselves, such as a complete E, are left out of
the search's bound but not out of the key; structures with such symbols
are drawn separately.
"""

import itertools
import random

from hypothesis import given, settings, strategies as st
import pytest

from ramseyforge import structures
from ramseyforge.build import complete_graph, cycle_graph, graph
from ramseyforge.errors import CapError
from ramseyforge.structures import Language, Structure, _relabelling_invariant, are_isomorphic, canonical_key

from key_oracle import oracle_canonical_key

LANG = Language((("U", 1), ("E", 2), ("T", 3)))


@st.composite
def keyed_structures(draw, max_vertices=7):
    """A structure and a tuple of pinned roots."""
    n = draw(st.integers(0, max_vertices))
    verts = [f"v{i}" for i in range(n)]
    if not verts:
        return Structure(LANG, [], {}), ()
    vertex = st.sampled_from(verts)
    rels = {
        "U": set(draw(st.lists(st.tuples(vertex), max_size=3))),
        "E": set(draw(st.lists(st.tuples(vertex, vertex), max_size=8))),
        "T": set(draw(st.lists(st.tuples(vertex, vertex, vertex), max_size=3))),
    }
    if draw(st.booleans()):
        rels["E"] |= {(v, u) for u, v in rels["E"]}
    if draw(st.booleans()):
        # close every relation under a permutation, an automorphism then
        sigma = dict(zip(verts, draw(st.permutations(verts))))
        for ts in rels.values():
            frontier = list(ts)
            while frontier:
                t = tuple(sigma[v] for v in frontier.pop())
                if t not in ts:
                    ts.add(t)
                    frontier.append(t)
    roots = draw(st.permutations(verts))[: draw(st.integers(0, min(3, n)))]
    return Structure(LANG, verts, rels), tuple(roots)


@st.composite
def structure_pairs(draw):
    """Two unpinned structures on one vertex set: the second is the first
    renamed, or the first with one tuple added or removed and renamed."""
    A, _ = draw(keyed_structures())
    B = A
    if A.vertices and draw(st.booleans()):
        vertex = st.sampled_from(A.vertices)
        t = draw(st.tuples(vertex, vertex))
        edges = set(A.tuples("E")) ^ {t}
        B = A.replace({"E": edges})
    renaming = dict(zip(A.vertices, draw(st.permutations(A.vertices))))
    return A, B.rename(renaming)


@settings(max_examples=400, deadline=None)
@given(keyed_structures())
def test_key_equals_oracle(case):
    A, roots = case
    assert canonical_key(A, roots) == oracle_canonical_key(A, roots)


@settings(max_examples=300, deadline=None)
@given(structure_pairs())
def test_equal_keys_iff_isomorphic(pair):
    A, B = pair
    assert (canonical_key(A) == canonical_key(B)) == (are_isomorphic(A, B) is not None)


@settings(max_examples=300, deadline=None)
@given(keyed_structures(), st.data())
def test_key_invariant_under_renaming(case, data):
    A, roots = case
    names = data.draw(st.permutations([f"w{i}" for i in range(len(A.vertices))]))
    renaming = dict(zip(A.vertices, names))
    renamed = A.rename(renaming)
    assert canonical_key(renamed, [renaming[v] for v in roots]) == canonical_key(A, roots)


def petersen():
    outer = [(f"o{i}", f"o{(i + 1) % 5}") for i in range(5)]
    spokes = [(f"o{i}", f"i{i}") for i in range(5)]
    inner = [(f"i{i}", f"i{(i + 2) % 5}") for i in range(5)]
    return graph([f"o{i}" for i in range(5)] + [f"i{i}" for i in range(5)], outer + spokes + inner)


@pytest.mark.parametrize(
    "A",
    [complete_graph(12), graph([f"x{i}" for i in range(12)], []), cycle_graph(15), petersen()],
    ids=["K12", "empty12", "C15", "Petersen"],
)
def test_symmetric_structures_need_few_nodes(A, monkeypatch):
    # Every labelling of K12 has the same encoding, so only the
    # automorphisms found at equal leaves keep the search small; each of
    # these keys takes a few hundred nodes.
    monkeypatch.setattr(structures, "KEY_NODE_BUDGET", 1000)
    key = canonical_key(A)
    renamed = A.rename({v: f"r{v}" for v in A.vertices})
    assert canonical_key(renamed) == key


def test_large_cycles_are_keyed_and_told_apart():
    C10 = cycle_graph(10)
    two_C5 = graph(
        [f"c{i}" for i in range(10)],
        [(f"c{i}", f"c{(i + 1) % 5}") for i in range(5)]
        + [(f"c{5 + i}", f"c{5 + (i + 1) % 5}") for i in range(5)],
    )
    assert canonical_key(C10) != canonical_key(two_C5)
    assert canonical_key(C10) == canonical_key(C10.rename({v: v + "'" for v in C10.vertices}))


def test_automorphisms_must_fix_the_labelled_vertices():
    # Two copies of the regular tournament on five vertices (i -> i+1,
    # i+2), all vertices but a0 marked by U.  The rotations of the b copy
    # are found early; used at a node whose labelled vertices include a b
    # vertex they move, they merge choices that are not equivalent there,
    # and the key then depends on the vertex names.
    a, b = [f"a{i}" for i in range(5)], [f"b{i}" for i in range(5)]
    arcs = [(c[i], c[(i + d) % 5]) for c in (a, b) for i in range(5) for d in (1, 2)]
    A = Structure(LANG, a + b, {"U": [(v,) for v in a[1:] + b], "E": arcs})
    key = canonical_key(A)
    rng = random.Random(0)
    for _ in range(30):
        names = [f"x{i}" for i in range(10)]
        rng.shuffle(names)
        assert canonical_key(A.rename(dict(zip(A.vertices, names)))) == key


def test_node_budget_raises_cap_error(monkeypatch):
    monkeypatch.setattr(structures, "KEY_NODE_BUDGET", 5)
    with pytest.raises(CapError):
        canonical_key(cycle_graph(8))
    # no branching at all: every free vertex is alone in its group
    path = graph(["a", "b", "c"], [("a", "b"), ("b", "c")])
    assert canonical_key(path, ["a"]) == oracle_canonical_key(path, ["a"])


@st.composite
def invariant_symbol_structures(draw):
    """Structures on at most 7 vertices in which some symbols hold every
    tuple of some equality patterns (all distinct pairs, all loops, all
    distinct triples, every vertex), next to random tuples of the others,
    with 0-3 pinned roots."""
    n = draw(st.integers(1, 7))
    verts = [f"v{i}" for i in range(n)]
    vertex = st.sampled_from(verts)
    full = {
        "U": [(v,) for v in verts],
        "E": list(itertools.permutations(verts, 2)) + ([(v, v) for v in verts] if draw(st.booleans()) else []),
        "T": list(itertools.permutations(verts, 3)),
    }
    random_tuples = {
        "U": st.lists(st.tuples(vertex), max_size=3),
        "E": st.lists(st.tuples(vertex, vertex), max_size=8),
        "T": st.lists(st.tuples(vertex, vertex, vertex), max_size=6),
    }
    invariant = draw(st.lists(st.sampled_from(sorted(full)), min_size=1, max_size=2, unique=True))
    rels = {name: full[name] if name in invariant else draw(random_tuples[name]) for name in full}
    roots = draw(st.permutations(verts))[: draw(st.integers(0, min(3, n)))]
    return Structure(LANG, verts, rels), tuple(roots)


@settings(max_examples=200, deadline=None)
@given(invariant_symbol_structures())
def test_key_with_invariant_symbols_equals_oracle(case):
    A, roots = case
    assert canonical_key(A, roots) == oracle_canonical_key(A, roots)


def test_relabelling_invariant_symbols():
    abc = ("a", "b", "c")
    pairs = set(itertools.permutations(abc, 2))
    loops = {(v, v) for v in abc}
    assert _relabelling_invariant(frozenset(pairs), abc)
    assert _relabelling_invariant(frozenset(pairs | loops), abc)
    assert _relabelling_invariant(frozenset(loops), abc)
    assert _relabelling_invariant(frozenset({("a", "a", "b"), ("a", "a", "c"), ("b", "b", "a"),
                                             ("b", "b", "c"), ("c", "c", "a"), ("c", "c", "b")}), abc)
    assert not _relabelling_invariant(frozenset(pairs - {("a", "b")}), abc)
    assert not _relabelling_invariant(frozenset(pairs), abc + ("d",))  # d is left out
    # closed under the cycle a -> b -> c -> a, not under swapping a and b
    assert not _relabelling_invariant(frozenset({("a", "b"), ("b", "c"), ("c", "a")}), abc)
    # closed under swapping a and b, not under the cycle
    assert not _relabelling_invariant(frozenset({("a", "b"), ("b", "a")}), abc)
    assert _relabelling_invariant(frozenset({("a",)}), ("a",))


def test_complete_binary_symbol_does_not_weaken_the_bound(monkeypatch):
    # Complete E on ten vertices and a ternary T closed under the rotation
    # i -> i + 1: E encodes alike under every labelling, so a bound that
    # read it stayed below the best leaf and T never pruned (the search ran
    # past 200,000 nodes).  Without it the key takes a few hundred.
    verts = [f"v{i}" for i in range(10)]
    T = [tuple(f"v{(x + s) % 10}" for x in t) for t in ((0, 1, 3), (0, 2, 7)) for s in range(10)]
    A = Structure(LANG, verts, {"E": list(itertools.permutations(verts, 2)), "T": T})
    monkeypatch.setattr(structures, "KEY_NODE_BUDGET", 2000)
    key = canonical_key(A)
    assert len(key[3][0][1]) == 90  # the key still reads E
    names = [f"x{i}" for i in range(10)]
    random.Random(0).shuffle(names)
    assert canonical_key(A.rename(dict(zip(verts, names)))) == key
