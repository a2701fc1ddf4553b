"""The indexed morphism search against the unindexed reference backtracker.

Both must produce the same maps in the same order, for every kind, with and
without pinned vertices and forced injectivity.  An unprojected compiled
run must yield those maps as assignment vectors in the source's vertex
order, nothing else and in the same order.  A projected search must
yield the image tuples that runs pinned at each tuple find a map for, in
the same order.  ``verify_morphism`` of a homomorphism-embedding, which
reads the span obligations the search files, must agree with the check
over every irreducible substructure.
"""

import gc

from hypothesis import given, settings, strategies as st

from ramseyforge.build import cycle_graph, graph
from ramseyforge.structures import (
    MORPHISM_KINDS,
    Morphism,
    Structure,
    _orbit_bounds,
    _span_obligations,
    _walk_pairs,
    compile_search,
    copy_images,
    language,
    search_morphisms,
    verify_morphism,
)

from search_oracle import hom_embedding_oracle, oracle_projection, oracle_search

MIXED = language(("U", 1), ("E", 2), ("T", 3))
# Names whose sorted order differs from their numeric order.
NAMES = ("a", "b", "c", "v1", "v10", "v2", "x")


@st.composite
def structures(draw, max_vertices, min_vertices=0):
    verts = draw(st.lists(st.sampled_from(NAMES), min_size=min_vertices, max_size=max_vertices, unique=True))
    rels = {}
    if verts:
        vertex = st.sampled_from(verts)
        for name, arity in MIXED.symbols:
            # Tuples are drawn with repetition, so loops such as (v, v) and
            # tuples like (u, v, u) occur.
            rels[name] = draw(
                st.lists(st.tuples(*[vertex] * arity), max_size=len(verts))
            )
    return Structure(MIXED, verts, rels)


def planted(draw, A, B):
    """B with the image of A under a drawn map f added, so that searches
    often succeed, sometimes many times over: any map, an injective map, or
    an injective map whose image carries no other tuples of B (an
    embedding).  Returns B and f, which is empty when nothing is planted."""
    plant = draw(st.sampled_from(("none", "image", "injective image", "induced copy")))
    if plant != "none" and len(A.vertices) > len(B.vertices) > 0:
        plant = "image"
    f = {}
    if plant != "none" and A.vertices and B.vertices:
        if plant == "image":
            f = {v: draw(st.sampled_from(B.vertices)) for v in A.vertices}
        else:
            f = dict(zip(A.vertices, draw(st.permutations(B.vertices))))
        image = set(f.values())
        B = Structure(MIXED, B.vertices, {
            name: {t for t in B.tuples(name) if plant != "induced copy" or not image.issuperset(t)}
            | {tuple(f[v] for v in t) for t in A.tuples(name)}
            for name in MIXED.names()
        })
    return B, f


@st.composite
def searches(draw):
    A = draw(structures(4))
    B, f = planted(draw, A, draw(structures(6)))
    kind = draw(st.sampled_from(MORPHISM_KINDS))
    fixed = {}
    if A.vertices and B.vertices:
        pinned = draw(st.lists(st.sampled_from(A.vertices), max_size=2, unique=True))
        fixed = {
            v: f[v] if f and draw(st.integers(0, 3)) else draw(st.sampled_from(B.vertices))
            for v in pinned
        }
    return A, B, kind, fixed, draw(st.booleans())


@st.composite
def projections(draw):
    """A projected search: 1-3 pinned source vertices, and a fixed prefix
    of their images, shorter than the pinned tuple, often taken from the
    planted map."""
    A = draw(structures(6, min_vertices=1))
    B, f = planted(draw, A, draw(structures(6)))
    kind = draw(st.sampled_from(MORPHISM_KINDS))
    pinned = tuple(sorted(draw(st.lists(st.sampled_from(A.vertices), min_size=1, max_size=3, unique=True))))
    size = draw(st.integers(0, min(len(pinned) - 1, len(B.vertices))))
    prefix = tuple(f[v] for v in pinned[:size]) if f else ()
    if len(set(prefix)) < size or draw(st.booleans()):
        prefix = tuple(draw(st.permutations(B.vertices))[:size])
    return A, B, kind, pinned, prefix, draw(st.booleans())


def maps(found):
    return [(m.kind, m.map) for m in found]


@settings(max_examples=400, deadline=None)
@given(searches())
def test_indexed_search_matches_oracle(case):
    A, B, kind, fixed, injective = case
    assert maps(search_morphisms(A, B, kind, fixed=fixed, require_injective=injective)) == maps(
        oracle_search(A, B, kind, fixed=fixed, require_injective=injective)
    )


@settings(max_examples=300, deadline=None)
@given(searches())
def test_unprojected_runs_yield_assignment_vectors(case):
    A, B, kind, fixed, injective = case
    pinned = tuple(sorted(fixed))
    run = compile_search(A, B, kind, pinned, injective)
    assert list(run(tuple(map(fixed.__getitem__, pinned)))) == [
        tuple(w for _, w in m.map)
        for m in oracle_search(A, B, kind, fixed=fixed, require_injective=injective)
    ]


@settings(max_examples=300, deadline=None)
@given(projections())
def test_projected_search_matches_runs_per_tuple(case):
    A, B, kind, pinned, prefix, injective = case
    run = compile_search(A, B, kind, pinned, injective, project=True)
    assert list(run(prefix)) == oracle_projection(A, B, kind, pinned, prefix, injective)
    # the compiled run is reused, with the prefix dropped
    assert list(run(())) == oracle_projection(A, B, kind, pinned, (), injective)


@settings(max_examples=100, deadline=None)
@given(structures(4), structures(5))
def test_repeated_searches_reuse_cached_plans(A, B):
    # The second search of each pair runs on plans and indexes cached by the
    # first, including plans for a different set of pinned vertices.
    for kind in MORPHISM_KINDS:
        first = maps(search_morphisms(A, B, kind))
        assert maps(search_morphisms(A, B, kind)) == first == maps(oracle_search(A, B, kind))
        if A.vertices and B.vertices:
            fixed = {A.vertices[-1]: B.vertices[0]}
            assert maps(search_morphisms(A, B, kind, fixed=fixed)) == maps(
                oracle_search(A, B, kind, fixed=fixed)
            )


def test_one_plan_per_source_holds_every_table():
    # A path searched four ways fills the tables of its plans; called
    # again, the builders hand back the very objects the plans hold.  The
    # orbit bounds add plans pinned at a, at a, b and at a, b, c.
    A = graph(["a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("c", "d")])
    C6 = cycle_graph(6)
    f = next(search_morphisms(A, C6, "homomorphism-embedding"))
    assert list(compile_search(A, C6, "homomorphism-embedding", ("a", "d"), project=True)(()))
    assert len(copy_images(A, C6)) == 6
    assert verify_morphism(Morphism(A, C6, f.map, "homomorphism-embedding"))
    plans = A._plans
    assert set(plans) == {(), ("a",), ("a", "b"), ("a", "b", "c"), ("a", "d")}
    for pinned in ((), ("a", "d")):
        obligations, walks = plans[pinned].obligations, plans[pinned].walks
        assert obligations is not None and walks is not None
        assert _span_obligations(A, pinned) is obligations
        assert _walk_pairs(A, pinned) is walks
    bounds = plans[()].bounds
    assert _orbit_bounds(A) is bounds
    for pinned, plan in plans.items():
        assert (plan.bounds is None) == (pinned != ())
        # the plan holds no reference to its source, so A makes no cycle
        assert not any(x is A for x in gc.get_referents(plan))
    # walks and bounds name earlier depths of the plan's order
    assert plans[("a", "d")].order == ("a", "d", "b", "c")
    assert plans[("a", "d")].walks == ((), ((0, 3),), ((1, 2),), ())
    assert bounds == ((), (), (), (0,))
    assert len(Structure.__slots__) == 11


@st.composite
def spanned_sources(draw):
    """Sources on up to four vertices whose binary tuples often cover every
    pair of three vertices with no ternary tuple on them: irreducible spans
    that are not tuples."""
    verts = draw(st.lists(st.sampled_from(NAMES), min_size=1, max_size=4, unique=True))
    pairs = [(u, v) for u in verts for v in verts]
    return Structure(MIXED, verts, {
        "U": draw(st.sets(st.tuples(st.sampled_from(verts)))),
        "E": draw(st.sets(st.sampled_from(pairs))),
        "T": draw(st.sets(st.tuples(*[st.sampled_from(verts)] * 3), max_size=2)),
    })


@st.composite
def spanned_images(draw):
    """A spanned source A, a target B and a map f from A to B's vertices
    (empty when B is).  A's image under f is planted in B, then random
    tuples are added inside the image, loops and ternary tuples included:
    exactly the tuples that span reflection must refuse to pull back."""
    A = draw(spanned_sources())
    B = draw(structures(5))
    f = {}
    if B.vertices:
        if draw(st.booleans()) and len(A.vertices) <= len(B.vertices):
            f = dict(zip(A.vertices, draw(st.permutations(B.vertices))))
        else:
            f = {v: draw(st.sampled_from(B.vertices)) for v in A.vertices}
        image = sorted(set(f.values()))
        inside = st.sampled_from(image)
        B = Structure(MIXED, B.vertices, {
            name: set(B.tuples(name))
            | {tuple(f[v] for v in t) for t in A.tuples(name)}
            | set(draw(st.lists(st.tuples(*[inside] * arity), max_size=2)))
            for name, arity in MIXED.symbols
        })
    return A, B, f


@st.composite
def hom_embedding_searches(draw):
    A, B, f = draw(spanned_images())
    if B.vertices:
        pinned = draw(st.lists(st.sampled_from(A.vertices), max_size=2, unique=True))
        fixed = {v: f[v] if draw(st.integers(0, 3)) else draw(st.sampled_from(B.vertices)) for v in pinned}
    else:
        fixed = {}
    return A, B, fixed, draw(st.booleans())


@settings(max_examples=400, deadline=None)
@given(hom_embedding_searches())
def test_hom_embedding_search_matches_oracle(case):
    A, B, fixed, injective = case
    kind = "homomorphism-embedding"
    assert maps(search_morphisms(A, B, kind, fixed=fixed, require_injective=injective)) == maps(
        oracle_search(A, B, kind, fixed=fixed, require_injective=injective)
    )


@settings(max_examples=400, deadline=None)
@given(spanned_images())
def test_verify_hom_embedding_matches_exhaustive_oracle(case):
    # verify_morphism reads the span obligations cached for the search;
    # the oracle checks every irreducible substructure of the source.
    A, B, f = case
    if B.vertices:
        m = Morphism.make(A, B, f, "homomorphism-embedding")
        assert verify_morphism(m) == hom_embedding_oracle(m)


def test_span_without_a_tuple_is_reflected():
    # a, b, c are pairwise covered by E tuples, so {a, b, c} spans an
    # irreducible substructure, but no T tuple sits on it: a target T tuple
    # on the image does not pull back.
    pairs = [("a", "b"), ("b", "c"), ("a", "c")]
    A = Structure(MIXED, ["a", "b", "c"], {"E": pairs})
    plain = Structure(MIXED, ["x", "y", "z"], {"E": [("x", "y"), ("y", "z"), ("x", "z")]})
    with_t = plain.replace({"T": [("x", "y", "z")]})
    kind = "homomorphism-embedding"
    assert maps(search_morphisms(A, plain, kind)) == maps(oracle_search(A, plain, kind))
    assert len(maps(search_morphisms(A, plain, kind))) == 1
    assert maps(search_morphisms(A, with_t, kind)) == [] == maps(oracle_search(A, with_t, kind))
    # the same search pinned at the first vertex, and forced injective
    assert maps(search_morphisms(A, with_t, kind, fixed={"a": "x"}, require_injective=True)) == []
