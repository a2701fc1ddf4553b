"""The indexed morphism search against the unindexed reference backtracker.

Both must produce the same maps in the same order, for every kind, with and
without pinned vertices and forced injectivity.
"""

from hypothesis import given, settings, strategies as st

from ramseyforge.structures import MORPHISM_KINDS, Structure, language, search_morphisms

from search_oracle import oracle_search

MIXED = language(("U", 1), ("E", 2), ("T", 3))
# Names whose sorted order differs from their numeric order.
NAMES = ("a", "b", "c", "v1", "v10", "v2", "x")


@st.composite
def structures(draw, max_vertices):
    verts = draw(st.lists(st.sampled_from(NAMES), max_size=max_vertices, unique=True))
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


@st.composite
def searches(draw):
    A = draw(structures(4))
    B = draw(structures(6))
    kind = draw(st.sampled_from(MORPHISM_KINDS))
    # Plant the image of A under some map f, so that searches often succeed,
    # sometimes many times over: any map, an injective map, or an injective
    # map whose image carries no other tuples of B (an embedding).
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
    fixed = {}
    if A.vertices and B.vertices:
        pinned = draw(st.lists(st.sampled_from(A.vertices), max_size=2, unique=True))
        fixed = {
            v: f[v] if f and draw(st.integers(0, 3)) else draw(st.sampled_from(B.vertices))
            for v in pinned
        }
    return A, B, kind, fixed, draw(st.booleans())


def maps(found):
    return [(m.kind, m.map) for m in found]


@settings(max_examples=400, deadline=None)
@given(searches())
def test_indexed_search_matches_oracle(case):
    A, B, kind, fixed, injective = case
    assert maps(search_morphisms(A, B, kind, fixed=fixed, require_injective=injective)) == maps(
        oracle_search(A, B, kind, fixed=fixed, require_injective=injective)
    )


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
