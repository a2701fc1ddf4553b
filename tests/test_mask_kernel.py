"""The bitmask search kernel against the unindexed oracles.

``compile_search`` runs each search as one flat loop over int masks of
target vertex indices: bit j stands for ``B.vertices[j]``, candidates are
taken lowest bit first, and each depth keeps its remaining candidates on a
stack.  The properties below are the ones that representation could get
wrong, each checked map for map and in order against ``oracle_search``,
``oracle_projection`` and ``oracle_copies_of``:

- two runs of one compiled search share nothing, whether interleaved or
  one abandoned part way;
- projections with a fixed prefix of images;
- ``require_injective`` on plain homomorphisms;
- unary and ternary symbols;
- vertex names whose sorted order is not their numeric order, so bit
  order must follow the sorted names;
- targets of more than 64 vertices, whose masks are wider than a machine
  word;
- embedding and copy searches into targets whose masks a Gaifman reader
  built first, without the tuples filed for the reflection count;
- the rows and marks that check tuples of arity at most 2: over a language
  with two binary symbols, asymmetric and with loops, between a unary and
  a ternary one, every kind pinned, projected and copy-bounded, one source
  compiled into two targets with the runs interleaved, and
  ``verify_morphism`` of homomorphism-embeddings, whose binary obligations
  are complemented rows;
- step tables, cached per search shape on the source's plans, that hold
  neither the source nor any target.
"""

import gc
import itertools

from hypothesis import given, settings, strategies as st

from ramseyforge.build import complete_graph
from ramseyforge.structures import (
    MORPHISM_KINDS,
    Morphism,
    Structure,
    _is_homomorphism,
    compile_search,
    connected_components,
    copies_of,
    language,
    verify_morphism,
)

from search_oracle import oracle_copies_of, oracle_is_hom_embedding, oracle_projection, oracle_search

MIXED = language(("U", 1), ("E", 2), ("T", 3))
# Sorted: v1 < v10 < v2 < v9, not numeric order.
NAMES = ("a", "v1", "v10", "v2", "v9", "x")


def vectors(A, B, kind, fixed=None, injective=False):
    return [
        tuple(m.as_dict()[v] for v in A.vertices)
        for m in oracle_search(A, B, kind, fixed=fixed, require_injective=injective)
    ]


def projected(A, B, kind, pinned, prefix=(), injective=False):
    """The pinned image tuples of the oracle's maps that start with
    ``prefix`` and have pairwise distinct entries, in sorted order."""
    return sorted({
        t for t in (tuple(m.as_dict()[v] for v in pinned)
                    for m in oracle_search(A, B, kind, require_injective=injective))
        if t[:len(prefix)] == prefix and len(set(t)) == len(t)
    })


@st.composite
def structures(draw, names, min_vertices, max_vertices, max_tuples):
    verts = draw(st.lists(st.sampled_from(names), min_size=min_vertices, max_size=max_vertices, unique=True))
    rels = {}
    if verts:
        vertex = st.sampled_from(verts)
        for name, arity in MIXED.symbols:
            rels[name] = draw(st.lists(st.tuples(*[vertex] * arity), max_size=max_tuples))
    return Structure(MIXED, verts, rels)


def plant(draw, A, B):
    """B with A's image under a drawn map added: injective when B is large
    enough and a drawn flag says so.  Returns B and the map ({} when B is
    empty)."""
    if not A.vertices or not B.vertices:
        return B, {}
    if len(A.vertices) <= len(B.vertices) and draw(st.booleans()):
        f = dict(zip(A.vertices, draw(st.permutations(B.vertices))))
    else:
        f = {v: draw(st.sampled_from(B.vertices)) for v in A.vertices}
    return Structure(MIXED, B.vertices, {
        name: set(B.tuples(name)) | {tuple(f[v] for v in t) for t in A.tuples(name)}
        for name in MIXED.names()
    }), f


@st.composite
def small_searches(draw):
    A = draw(structures(NAMES, 0, 4, 4))
    B, f = plant(draw, A, draw(structures(NAMES, 0, 6, 6)))
    kind = draw(st.sampled_from(MORPHISM_KINDS))
    pinned = ()
    if A.vertices and B.vertices:
        pinned = tuple(sorted(draw(st.lists(st.sampled_from(A.vertices), max_size=2, unique=True))))
    values = tuple(f[v] if draw(st.booleans()) else draw(st.sampled_from(B.vertices)) for v in pinned)
    return A, B, kind, pinned, values, draw(st.booleans())


@settings(max_examples=200, deadline=None)
@given(small_searches(), st.data())
def test_interleaved_and_abandoned_runs(case, data):
    A, B, kind, pinned, values, injective = case
    other = tuple(data.draw(st.sampled_from(B.vertices)) for _ in pinned)
    expected = {vals: vectors(A, B, kind, dict(zip(pinned, vals)), injective) for vals in (values, other)}
    run = compile_search(A, B, kind, pinned, injective)
    # one run abandoned part way
    stop = data.draw(st.integers(0, 3))
    assert list(itertools.islice(run(values), stop)) == expected[values][:stop]
    # one run goes ahead, then another, pinned elsewhere, takes turns with it
    first = run(values)
    got = {True: list(itertools.islice(first, data.draw(st.integers(0, 8)))), False: []}
    second = run(other)
    for turn in data.draw(st.lists(st.booleans(), max_size=40)):
        v = next(first if turn else second, None)
        if v is not None:
            got[turn].append(v)
    got[True].extend(first)
    got[False].extend(second)
    assert got[True] == expected[values]
    assert got[False] == expected[other]


def test_runs_pinned_elsewhere_take_turns():
    # After the second run has placed k0 on k3, the first goes back to k1
    # and down to k2 again: k2's candidates must come from the first
    # run's own images of k0 and k1.
    K3, K4 = complete_graph(3), complete_graph(4)
    run = compile_search(K3, K4, "embedding", ("k0",))
    first, second = run(("k0",)), run(("k3",))
    heads = next(first), next(second)
    assert [heads[0], *first] == vectors(K3, K4, "embedding", {"k0": "k0"})
    assert [heads[1], *second] == vectors(K3, K4, "embedding", {"k0": "k3"})


@settings(max_examples=150, deadline=None)
@given(small_searches())
def test_copies(case):
    A, B = case[:2]
    assert copies_of(A, B) == oracle_copies_of(A, B)


@settings(max_examples=150, deadline=None)
@given(small_searches())
def test_embeddings_into_targets_masked_without_filing(case):
    # A Gaifman reader builds B's masks without the tuples filed for the
    # reflection count; the first embedding search into B files them.
    A, B, _, pinned, values, _ = case
    connected_components(B)
    assert B._nbhd[3] is None and B._nbhd[4] is None
    run = compile_search(A, B, "embedding", pinned)
    assert list(run(values)) == vectors(A, B, "embedding", dict(zip(pinned, values)))
    # a source larger than B is refused before any mask is read
    assert (B._nbhd[3] is not None) == (len(A.vertices) <= len(B.vertices))
    C = Structure(MIXED, B.vertices, B.relations)
    connected_components(C)
    assert copies_of(A, C) == oracle_copies_of(A, C)


@st.composite
def small_projections(draw):
    A = draw(structures(NAMES, 1, 5, 4))
    B, f = plant(draw, A, draw(structures(NAMES, 1, 6, 6)))
    kind = draw(st.sampled_from(MORPHISM_KINDS))
    pinned = tuple(sorted(draw(st.lists(st.sampled_from(A.vertices), min_size=1, max_size=3, unique=True))))
    size = draw(st.integers(1, len(pinned)))
    prefix = tuple(f[v] for v in pinned[:size])
    if len(set(prefix)) < size or draw(st.booleans()):
        prefix = tuple(draw(st.lists(st.sampled_from(B.vertices), min_size=size, max_size=size)))
    return A, B, kind, pinned, prefix, draw(st.booleans())


@settings(max_examples=200, deadline=None)
@given(small_projections())
def test_projections_with_a_prefix(case):
    A, B, kind, pinned, prefix, injective = case
    run = compile_search(A, B, kind, pinned, injective, project=True)
    expected = projected(A, B, kind, pinned, prefix, injective)
    assert list(run(prefix)) == expected
    if len(set(prefix)) == len(prefix):
        assert expected == oracle_projection(A, B, kind, pinned, prefix, injective)
    else:
        # a prefix that repeats an image leaves no tuple
        assert expected == []
    # two projected runs interleaved, the first abandoned after one tuple
    first, second = run(prefix), run(())
    assert next(first, None) == (expected[0] if expected else None)
    assert list(second) == projected(A, B, kind, pinned, (), injective)


@settings(max_examples=150, deadline=None)
@given(small_searches())
def test_injective_homomorphisms(case):
    A, B, _, pinned, values, _ = case
    run = compile_search(A, B, "homomorphism", pinned, require_injective=True)
    expected = vectors(A, B, "homomorphism", dict(zip(pinned, values)), injective=True)
    assert list(run(values)) == expected
    assert all(len(set(vec)) == len(vec) for vec in expected)


def test_ternary_and_unary_symbols_with_non_numeric_names():
    # T holds the triple in one orientation, U marks two of its vertices;
    # bit order is the sorted order v1 < v10 < v2 < v9.
    B = Structure(MIXED, ["v1", "v10", "v2", "v9"], {
        "U": [("v10",), ("v9",)],
        "T": [("v1", "v10", "v2"), ("v9", "v10", "v2"), ("v2", "v9", "v1")],
    })
    A = Structure(MIXED, ["a", "b", "c"], {"U": [("b",)], "T": [("a", "b", "c")]})
    for kind in MORPHISM_KINDS:
        assert list(compile_search(A, B, kind)(())) == vectors(A, B, kind)
    # (v9, v10, v2) would send a, which lacks U, onto v9, which has it
    assert list(compile_search(A, B, "embedding")(())) == [("v1", "v10", "v2"), ("v2", "v9", "v1")]


# Sorted: v0 < v1 < v10 < ... < v19 < v2 < ... < v9, so the highest bits
# stand for v7, v8 and v9.
WIDE = tuple(f"v{i}" for i in range(80))


@st.composite
def wide_cases(draw):
    """A target on 65-80 vertices with sparse random tuples, and a source
    on 1-3 vertices whose consecutive vertices share an E tuple (so the
    oracle prunes at every depth), planted in it at drawn vertices, often
    among the last bits."""
    n = draw(st.integers(65, 80))
    verts = sorted(WIDE[:n])
    vertex = st.sampled_from(verts)
    B = Structure(MIXED, verts, {
        "U": draw(st.lists(st.tuples(vertex), max_size=8)),
        "E": draw(st.lists(st.tuples(vertex, vertex), max_size=120)),
        "T": draw(st.lists(st.tuples(vertex, vertex, vertex), max_size=12)),
    })
    A = draw(structures(NAMES, 1, 3, 2))
    chain = list(zip(A.vertices, A.vertices[1:]))
    if draw(st.booleans()):
        chain += [(v, u) for u, v in chain]
    A = Structure(MIXED, A.vertices, {
        "U": A.tuples("U"), "E": set(A.tuples("E")) | set(chain), "T": A.tuples("T"),
    })
    high = st.sampled_from(verts[-12:])
    image = draw(st.lists(st.one_of(high, vertex), min_size=len(A.vertices),
                          max_size=len(A.vertices), unique=True))
    f = dict(zip(A.vertices, image))
    B = Structure(MIXED, verts, {
        name: set(B.tuples(name)) | {tuple(f[v] for v in t) for t in A.tuples(name)}
        for name in MIXED.names()
    })
    return A, B, f


@settings(max_examples=40, deadline=None)
@given(wide_cases(), st.sampled_from(MORPHISM_KINDS), st.booleans())
def test_targets_wider_than_a_machine_word(case, kind, injective):
    A, B, f = case
    assert len(B.vertices) > 64
    assert list(compile_search(A, B, kind, (), injective)(())) == vectors(A, B, kind, None, injective)
    # the planted map is found when pinned, and its images project
    pinned = A.vertices[:2]
    values = tuple(map(f.__getitem__, pinned))
    run = compile_search(A, B, kind, pinned, injective)
    assert list(run(values)) == vectors(A, B, kind, dict(zip(pinned, values)), injective)
    run = compile_search(A, B, kind, pinned, injective, project=True)
    assert list(run(values[:1])) == projected(A, B, kind, pinned, values[:1], injective)


@settings(max_examples=25, deadline=None)
@given(wide_cases())
def test_copies_in_targets_wider_than_a_machine_word(case):
    A, B, _ = case
    assert copies_of(A, B) == oracle_copies_of(A, B)


# Two binary symbols at places 0 and 3, so their rows sit at different
# offsets, around a unary and a ternary symbol.
ROWS = language(("R", 2), ("U", 1), ("T", 3), ("S", 2))


@st.composite
def row_structures(draw, min_vertices, max_vertices):
    """Structures over ``ROWS`` whose R holds each ordered pair, loops
    included, with probability about a half, so it is rarely symmetric."""
    verts = draw(st.lists(st.sampled_from(NAMES), min_size=min_vertices, max_size=max_vertices, unique=True))
    rels = {}
    if verts:
        vertex = st.sampled_from(verts)
        pairs = [(u, v) for u in verts for v in verts]
        rels["R"] = [p for p, keep in zip(pairs, draw(st.lists(st.booleans(), min_size=len(pairs),
                                                               max_size=len(pairs)))) if keep]
        rels["U"] = draw(st.lists(st.tuples(vertex), max_size=3))
        rels["S"] = draw(st.lists(st.tuples(vertex, vertex), max_size=3))
        rels["T"] = draw(st.lists(st.tuples(vertex, vertex, vertex), max_size=2))
    return Structure(ROWS, verts, rels)


def planted(draw, A, B, injective=None):
    """B with A's image under a drawn map added, and the map ({} when B
    is empty): injective when B is large enough and ``injective`` or a
    drawn flag says so."""
    if not A.vertices or not B.vertices:
        return B, {}
    if injective is None:
        injective = draw(st.booleans())
    if len(A.vertices) <= len(B.vertices) and injective:
        f = dict(zip(A.vertices, draw(st.permutations(B.vertices))))
    else:
        f = {v: draw(st.sampled_from(B.vertices)) for v in A.vertices}
    return Structure(ROWS, B.vertices, {
        name: set(B.tuples(name)) | {tuple(f[v] for v in t) for t in A.tuples(name)}
        for name in ROWS.names()
    }), f


@st.composite
def row_searches(draw):
    A = draw(row_structures(0, 4))
    B, f = planted(draw, A, draw(row_structures(0, 6)))
    pinned = ()
    if A.vertices and B.vertices:
        pinned = tuple(sorted(draw(st.lists(st.sampled_from(A.vertices), max_size=3, unique=True))))
    values = tuple(f[v] if draw(st.booleans()) else draw(st.sampled_from(B.vertices)) for v in pinned)
    return A, B, draw(st.sampled_from(MORPHISM_KINDS)), pinned, values, draw(st.booleans())


@settings(max_examples=300, deadline=None)
@given(row_searches(), st.integers(0, 3))
def test_rows_pinned_projected_and_bounded(case, size):
    A, B, kind, pinned, values, injective = case
    run = compile_search(A, B, kind, pinned, injective)
    assert list(run(values)) == vectors(A, B, kind, dict(zip(pinned, values)), injective)
    if pinned:
        prefix = values[:min(size, len(pinned))]
        run = compile_search(A, B, kind, pinned, injective, project=True)
        expected = oracle_projection(A, B, kind, pinned, prefix, injective) if len(set(prefix)) == len(prefix) else []
        assert list(run(prefix)) == expected
    assert copies_of(A, B) == oracle_copies_of(A, B)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_one_source_compiled_into_two_targets(data):
    # A's step tables are cached on A and shared by both compiles; the two
    # runs, taking turns, must each read only their own target's rows.
    A = data.draw(row_structures(1, 4))
    kind = data.draw(st.sampled_from(MORPHISM_KINDS))
    injective = data.draw(st.booleans())
    targets = [planted(data.draw, A, data.draw(row_structures(1, 6)))[0] for _ in range(2)]
    pinned = A.vertices[:data.draw(st.integers(0, 1))]
    values = [tuple(data.draw(st.sampled_from(B.vertices)) for _ in pinned) for B in targets]
    runs = [compile_search(A, B, kind, pinned, injective)(vals) for B, vals in zip(targets, values)]
    got = [[], []]
    for turn in data.draw(st.lists(st.integers(0, 1), max_size=30)):
        vec = next(runs[turn], None)
        if vec is not None:
            got[turn].append(vec)
    for turn in (0, 1):
        got[turn].extend(runs[turn])
        B = targets[turn]
        assert got[turn] == vectors(A, B, kind, dict(zip(pinned, values[turn])), injective)


@st.composite
def hom_embedding_certificates(draw):
    """A source whose R is often one-way on a pair, a binary obligation,
    and a homomorphism of it into a target with extra tuples drawn inside
    the image, loops and reversed pairs included."""
    A = draw(row_structures(1, 4))
    B, f = planted(draw, A, draw(row_structures(1, 5)))
    image = sorted(set(f.values()))
    inside = st.sampled_from(image)
    B = Structure(ROWS, B.vertices, {
        name: set(B.tuples(name)) | set(draw(st.lists(st.tuples(*[inside] * arity), max_size=3)))
        for name, arity in ROWS.symbols
    })
    return A, B, f


@settings(max_examples=300, deadline=None)
@given(hom_embedding_certificates())
def test_verify_hom_embedding_reads_rows_and_marks(case):
    A, B, f = case
    assert _is_homomorphism(A, B, f)
    m = Morphism.make(A, B, f, "homomorphism-embedding")
    assert verify_morphism(m) == oracle_is_hom_embedding(A, B, f)


def test_binary_obligations_refuse_reversed_and_looped_images():
    # R runs a -> b only: (b, a) and both loops are obligations.  The
    # target edge x -> y admits a -> x, b -> y; adding y -> x or a loop at
    # x makes the map no homomorphism-embedding.
    A = Structure(ROWS, ["a", "b"], {"R": [("a", "b")]})
    B = Structure(ROWS, ["x", "y"], {"R": [("x", "y")]})
    f = {"a": "x", "b": "y"}
    kind = "homomorphism-embedding"
    assert verify_morphism(Morphism.make(A, B, f, kind))
    for extra in ([("y", "x")], [("x", "x")]):
        C = B.replace({"R": B.tuples("R") | set(extra)})
        assert not verify_morphism(Morphism.make(A, C, f, kind))
        assert list(compile_search(A, C, kind)(())) == vectors(A, C, kind) == []
        assert list(compile_search(A, C, "embedding")(())) == vectors(A, C, "embedding") == []


def test_hom_embeddings_separate_neighbours_whose_rows_admit_a_loop():
    # u and v hold every R pair, loops included, so no binary obligation
    # joins them: only the neighbourhood row keeps v off u's looped image.
    A = Structure(ROWS, ["u", "v"], {"R": [("u", "u"), ("u", "v"), ("v", "u"), ("v", "v")]})
    B = Structure(ROWS, ["x", "y"], {"R": [("x", "x"), ("x", "y"), ("y", "x"), ("y", "y")]})
    kind = "homomorphism-embedding"
    for fixed in ({}, {"u": "x"}):
        pinned = tuple(fixed)
        assert list(compile_search(A, B, kind, pinned)(tuple(fixed.values()))) == vectors(A, B, kind, fixed)
    assert vectors(A, B, kind) == [("x", "y"), ("y", "x")]
    assert list(compile_search(A, B, "homomorphism")(())) == vectors(A, B, "homomorphism")


def reachable(roots):
    """Every object reachable from ``roots`` through ``gc.get_referents``,
    types and modules left out."""
    seen, stack = {}, list(roots)
    while stack:
        x = stack.pop()
        if id(x) in seen or isinstance(x, type) or type(x).__name__ == "module":
            continue
        seen[id(x)] = x
        stack.extend(gc.get_referents(x))
    return seen.values()


def test_step_tables_hold_no_structure():
    A = Structure(ROWS, ["a", "b", "c"], {
        "R": [("a", "b"), ("b", "b")], "U": [("c",)], "T": [("a", "b", "c")], "S": [("c", "a")],
    })
    targets = [
        Structure(ROWS, ["x", "y", "z", "w"], {
            "R": [("x", "y"), ("y", "y"), ("z", "w")], "U": [("z",)], "T": [("x", "y", "z")],
            "S": [("z", "x")],
        }),
        Structure(ROWS, ["p", "q"], {"R": [("p", "q")]}),
    ]
    for B in targets:
        for kind in MORPHISM_KINDS:
            list(compile_search(A, B, kind)(()))
            list(compile_search(A, B, kind, ("a",), True, project=True)(()))
        copies_of(A, B)
    tables = [table for plan in A._plans.values() for table in plan.steps.values()]
    assert len(A._plans[()].steps) >= 5
    found = [x for x in reachable(tables) if isinstance(x, Structure)]
    assert found == []
