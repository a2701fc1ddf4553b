"""The automorphism-broken copy search against every embedding, grouped.

``copies_of`` and ``copy_images`` search for one embedding per copy and
rebuild the witnesses from Aut(A).  Both must agree with the oracle that
groups all embeddings found by the unindexed search by their images: equal
dicts, equal key order and equal witness order, and the copy search must
yield the assignment vector of each copy's first embedding, in order.  The
patterns are chosen for large automorphism groups, where the bounds cut the
most.  The empty source yields the empty vector, once.  The bounds
themselves, read off one projected search per depth, must equal those of
one first-witness run per later vertex.
"""

import pytest
from hypothesis import given, settings, strategies as st

from ramseyforge.build import ORDERED_GRAPH
from ramseyforge.errors import LanguageMismatchError
from ramseyforge.structures import (
    MORPHISM_KINDS,
    Morphism,
    Structure,
    _copy_search,
    _orbit_bounds,
    are_isomorphic,
    compile_search,
    copies_of,
    copy_images,
    language,
    search_morphisms,
)

from search_oracle import oracle_copies_of, oracle_orbit_bounds, oracle_search

MIXED = language(("U", 1), ("E", 2), ("T", 3))
# Names whose sorted order differs from their numeric order.
NAMES = ("a", "b", "c", "v1", "v10", "v2", "x")


def symmetric(pairs):
    return [(u, v) for u, v in pairs] + [(v, u) for u, v in pairs]


@st.composite
def patterns(draw):
    """Edgeless structures, K_n, C_n (both directions or one), K_{m,n},
    and random structures with tuples of arity 1-3 and loops closed under
    a random permutation of their vertices."""
    shape = draw(st.sampled_from(("edgeless", "complete", "cycle", "bipartite", "closed")))
    names = draw(st.permutations(NAMES))
    rels = {}
    if shape == "edgeless":
        verts = names[: draw(st.integers(0, 4))]
    elif shape == "complete":
        verts = names[: draw(st.integers(1, 4))]
        rels["E"] = [(u, v) for u in verts for v in verts if u != v]
    elif shape == "cycle":
        verts = names[: draw(st.integers(3, 5))]
        ring = [(verts[i], verts[(i + 1) % len(verts)]) for i in range(len(verts))]
        rels["E"] = symmetric(ring) if draw(st.booleans()) else ring
    elif shape == "bipartite":
        m, n = draw(st.integers(1, 3)), draw(st.integers(1, 3))
        verts = names[: m + n]
        rels["E"] = symmetric([(u, v) for u in verts[:m] for v in verts[m:]])
    else:
        verts = names[: draw(st.integers(1, 4))]
        vertex = st.sampled_from(verts)
        step = dict(zip(verts, draw(st.permutations(verts))))
        for name, arity in MIXED.symbols:
            closed = set()
            for t in draw(st.lists(st.tuples(*[vertex] * arity), max_size=2)):
                while t not in closed:
                    closed.add(t)
                    t = tuple(step[v] for v in t)
            rels[name] = closed
    if verts and shape != "closed" and draw(st.booleans()):
        # unary marks or loops on every vertex keep the symmetry
        if draw(st.booleans()):
            rels["U"] = [(v,) for v in verts]
        else:
            rels["T"] = [(v, v, v) for v in verts]
    return Structure(MIXED, verts, rels)


@st.composite
def copy_searches(draw):
    A = draw(patterns())
    verts = draw(st.lists(st.sampled_from(NAMES + ("w", "y", "z")), max_size=7, unique=True))
    rels = {name: set() for name in MIXED.names()}
    if verts:
        vertex = st.sampled_from(verts)
        for name, arity in MIXED.symbols:
            rels[name] = set(draw(st.lists(st.tuples(*[vertex] * arity), max_size=len(verts))))
    if A.vertices and len(A.vertices) <= len(verts):
        # Plant a few images of A, some of them induced copies.
        for _ in range(draw(st.integers(0, 3))):
            f = dict(zip(A.vertices, draw(st.permutations(verts))))
            image = set(f.values())
            if draw(st.booleans()):
                rels = {name: {t for t in ts if not image.issuperset(t)} for name, ts in rels.items()}
            for name in MIXED.names():
                rels[name] |= {tuple(f[v] for v in t) for t in A.tuples(name)}
    return A, Structure(MIXED, verts, rels)


def first_per_image(found):
    """The assignment vector of the first map with each image."""
    seen, out = set(), []
    for m in found:
        if m.image_vertices() not in seen:
            seen.add(m.image_vertices())
            out.append(tuple(w for _, w in m.map))
    return out


@settings(max_examples=500, deadline=None)
@given(copy_searches())
def test_copies_match_grouped_oracle(case):
    A, B = case
    expected = oracle_copies_of(A, B)
    found = copies_of(A, B)
    assert found == expected
    assert list(found) == list(expected)
    assert all(found[image] == ms for image, ms in expected.items())
    assert copy_images(A, B) == list(expected)
    # the search itself yields exactly the first embedding of each copy, as a vector
    assert list(_copy_search(A, B)) == first_per_image(oracle_search(A, B, "embedding"))


@st.composite
def ordered_graphs(draw):
    """Graphs on up to six vertices with a random ``leq``: some loops, and
    each edge in one, both or neither direction."""
    verts = draw(st.lists(st.sampled_from(NAMES), max_size=6, unique=True))
    pairs = [(u, v) for i, u in enumerate(verts) for v in verts[i + 1:]]
    edges = symmetric(sorted(draw(st.sets(st.sampled_from(pairs)))) if pairs else [])
    arcs = draw(st.sets(st.sampled_from(edges))) if edges else set()
    loops = draw(st.sets(st.sampled_from(verts))) if verts else set()
    return Structure(ORDERED_GRAPH, verts, {"E": edges, "leq": arcs | {(v, v) for v in loops}})


@settings(max_examples=300, deadline=None)
@given(st.one_of(copy_searches(), ordered_graphs().map(lambda G: (G,))))
def test_orbit_bounds_match_first_witness_runs(case):
    for A in case:
        assert _orbit_bounds(A) == oracle_orbit_bounds(A)


def test_copies_of_the_empty_structure():
    empty = Structure(MIXED, [], {})
    B = Structure(MIXED, ["a", "b"], {"E": [("a", "b")]})
    assert copies_of(empty, B) == {frozenset(): [Morphism(empty, B, (), "embedding")]} == oracle_copies_of(empty, B)
    assert copy_images(empty, B) == [frozenset()]
    assert copies_of(empty, empty) == {frozenset(): [Morphism(empty, empty, (), "embedding")]}
    assert copy_images(empty, empty) == [frozenset()]


def test_the_empty_source_yields_the_empty_vector():
    # ``()`` is falsy, so a first vector is asked ``is not None``
    empty = Structure(MIXED, [], {})
    B = Structure(MIXED, ["a", "b"], {"E": [("a", "b")]})
    assert list(_copy_search(empty, B)) == [()]
    for kind in MORPHISM_KINDS:
        assert list(compile_search(empty, B, kind)(())) == [()]
        assert list(search_morphisms(empty, B, kind)) == [Morphism(empty, B, (), kind)]
    assert are_isomorphic(empty, Structure(MIXED, [], {})) == Morphism(empty, empty, (), "embedding")


def test_no_copies_of_a_larger_pattern():
    K3 = Structure(MIXED, ["a", "b", "c"], {"E": symmetric([("a", "b"), ("b", "c"), ("a", "c")])})
    B = Structure(MIXED, ["x", "y"], {"E": symmetric([("x", "y")])})
    assert copies_of(K3, B) == {} == oracle_copies_of(K3, B)
    assert copy_images(K3, B) == []


def test_witnesses_cover_the_automorphism_group():
    # K_{2,2} has 8 automorphisms; one planted copy gives 8 witnesses
    A = Structure(MIXED, ["a", "b", "c", "x"], {"E": symmetric([(u, v) for u in "ab" for v in ("c", "x")])})
    B = Structure(MIXED, ["p", "q", "r", "s", "t"], {"E": symmetric([(u, v) for u in "pq" for v in "rs"])})
    copies = copies_of(A, B)
    assert list(copies) == [frozenset("pqrs")]
    assert len(copies[frozenset("pqrs")]) == 8
    assert copies == oracle_copies_of(A, B)


def test_copy_searches_require_a_shared_language():
    A = Structure(MIXED, ["a"], {})
    B = Structure(language(("E", 2)), ["a"], {})
    with pytest.raises(LanguageMismatchError):
        copies_of(A, B)
    with pytest.raises(LanguageMismatchError):
        copy_images(A, B)
