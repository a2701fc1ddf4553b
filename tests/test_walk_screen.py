"""Walk-length screens in projected searches, against unscreened runs.

A projection of a kind that separates Gaifman neighbours drops a candidate
at source distance L from a placed vertex u unless it ends a walk of
exactly L steps from u's image.  The oracles never screen: one compiled
run per tuple of pinned images (``oracle_projection``) and one unindexed
search per root tuple (``oracle_canonical_lift``).  The inputs are the
ones the screen cuts hardest: sparse sources whose pinned vertices lie far
apart, dense bipartite targets where half the root tuples have the wrong
parity, and disconnected sources and bases, where no walk joins two
components.
"""

import itertools

from hypothesis import given, settings, strategies as st

from ramseyforge.build import GRAPH, cycle_graph, graph, path_graph
from ramseyforge.pieces import PieceFamily, canonical_lift
from ramseyforge.structures import (
    MORPHISM_KINDS,
    Structure,
    _walk_ends,
    _walk_pairs,
    compile_search,
    language,
)

from conftest import gaifman_adjacency
from search_oracle import oracle_canonical_lift, oracle_projection

MIXED = language(("U", 1), ("E", 2), ("T", 3))
NAMES = ("a", "b", "c", "v1", "v10", "v2", "x")


def complete_bipartite(m, n, language=GRAPH):
    left, right = [f"l{i}" for i in range(m)], [f"r{i}" for i in range(n)]
    edges = [e for u in left for v in right for e in ((u, v), (v, u))]
    return Structure(language, left + right, {"E": edges})


@st.composite
def sparse_sources(draw):
    """Sources on 1-6 vertices with no more E pairs than vertices, often
    stored both ways, so that many pairs lie two or more steps apart and
    some in other components; a few unary tuples and at most one ternary
    one."""
    verts = draw(st.lists(st.sampled_from(NAMES), min_size=1, max_size=6, unique=True))
    vertex = st.sampled_from(verts)
    edges = draw(st.lists(st.tuples(vertex, vertex), max_size=len(verts)))
    if draw(st.booleans()):
        edges += [(v, u) for u, v in edges]
    return Structure(MIXED, verts, {
        "U": draw(st.lists(st.tuples(vertex), max_size=2)),
        "E": edges,
        "T": draw(st.lists(st.tuples(vertex, vertex, vertex), max_size=1)),
    })


@st.composite
def targets(draw):
    """K4,4 or K5,5 with a few edges removed and maybe one added inside a
    side; two disjoint random parts; or a random graph.  Every E tuple is
    stored both ways, and some vertices carry U."""
    shape = draw(st.sampled_from(("K4,4", "K5,5", "two parts", "random")))
    if shape.startswith("K"):
        B = complete_bipartite(int(shape[1]), int(shape[1]), MIXED)
        verts, edges = list(B.vertices), set(B.tuples("E"))
        for u, v in draw(st.lists(st.sampled_from(sorted(edges)), max_size=3)):
            edges -= {(u, v), (v, u)}
        if draw(st.booleans()):
            u, v = draw(st.sampled_from(list(itertools.combinations(verts[:len(verts) // 2], 2))))
            edges |= {(u, v), (v, u)}
    else:
        n = draw(st.integers(2, 7))
        verts = [f"w{i}" for i in range(n)]
        pairs = list(itertools.combinations(verts, 2))
        if shape == "two parts":
            cut = draw(st.integers(1, n - 1))
            pairs = [(u, v) for u, v in pairs if (u in verts[:cut]) == (v in verts[:cut])]
        chosen = draw(st.lists(st.sampled_from(pairs), max_size=10)) if pairs else []
        edges = {e for u, v in chosen for e in ((u, v), (v, u))}
    return Structure(MIXED, verts, {
        "U": draw(st.lists(st.tuples(st.sampled_from(verts)), max_size=4)),
        "E": edges,
    })


@st.composite
def screened_projections(draw):
    """A projected search of a sparse source into a dense or disconnected
    target, with 1-3 pinned vertices (at most 2 into 10 vertices) and a
    prefix of their images."""
    A = draw(sparse_sources())
    B = draw(targets())
    # the kinds that are screened come up twice as often as plain homomorphisms
    kind = draw(st.sampled_from(MORPHISM_KINDS + ("homomorphism-embedding", "monomorphism")))
    most = 2 if len(B.vertices) > 8 else 3
    pinned = tuple(sorted(draw(st.lists(st.sampled_from(A.vertices), min_size=1, max_size=most, unique=True))))
    size = draw(st.integers(0, min(len(pinned) - 1, len(B.vertices))))
    prefix = tuple(draw(st.permutations(B.vertices))[:size])
    return A, B, kind, pinned, prefix, draw(st.booleans())


@settings(max_examples=250, deadline=None)
@given(screened_projections())
def test_screened_projection_matches_runs_per_tuple(case):
    A, B, kind, pinned, prefix, injective = case
    run = compile_search(A, B, kind, pinned, injective, project=True)
    assert list(run(prefix)) == oracle_projection(A, B, kind, pinned, prefix, injective)
    assert list(run(())) == oracle_projection(A, B, kind, pinned, (), injective)


def disjoint_union(G, H):
    return graph(
        [f"g.{v}" for v in G.vertices] + [f"h.{v}" for v in H.vertices],
        [(f"g.{u}", f"g.{v}") for u, v in G.tuples("E")] + [(f"h.{u}", f"h.{v}") for u, v in H.tuples("E")],
    )


@st.composite
def lift_bases(draw):
    """Bases for lifts: K4,4 or K5,5 with a few edges removed, the
    disjoint union of two paths or cycles, or a random graph."""
    shape = draw(st.sampled_from(("K4,4", "K5,5", "two parts", "random")))
    if shape.startswith("K"):
        B = complete_bipartite(int(shape[1]), int(shape[1]))
        edges = set(B.tuples("E"))
        for u, v in draw(st.lists(st.sampled_from(sorted(edges)), max_size=3)):
            edges -= {(u, v), (v, u)}
        return graph(B.vertices, edges)
    if shape == "two parts":
        parts = [
            draw(st.sampled_from((path_graph, cycle_graph)))(draw(st.integers(3, 5)))
            for _ in range(2)
        ]
        return disjoint_union(*parts)
    n = draw(st.integers(3, 8))
    verts = [f"g{i}" for i in range(n)]
    return graph(verts, draw(st.lists(st.sampled_from(list(itertools.combinations(verts, 2))), max_size=12)))


FAMILIES = {
    "C5": PieceFamily([cycle_graph(5)]),
    "C7": PieceFamily([cycle_graph(7)]),
    "C5+C7": PieceFamily([cycle_graph(5), cycle_graph(7)]),
    # a member with a chord: pieces whose roots are joined inside the piece
    "C6+chord": PieceFamily([graph(cycle_graph(6).vertices, list(cycle_graph(6).tuples("E")) + [("c0", "c3")])]),
}


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(FAMILIES)), lift_bases())
def test_screened_lift_matches_search_per_root_tuple(name, A):
    family = FAMILIES[name]
    assert canonical_lift(A, family).ext == oracle_canonical_lift(A, family).ext


@settings(max_examples=100, deadline=None)
@given(targets(), st.integers(1, 5))
def test_walk_ends_are_the_ends_of_walks(B, length):
    # ends[j] is a mask with bit i for B.vertices[i], one per vertex
    adj = gaifman_adjacency(B)
    ends = _walk_ends(B, length)
    assert len(ends) == len(B.vertices)
    for j, x in enumerate(B.vertices):
        reached = {x}
        for _ in range(length):
            reached = {y for w in reached for y in adj[w]}
        assert ends[j] == sum(1 << B.vertices.index(w) for w in reached)


def test_walk_pairs_of_a_path_pinned_at_its_ends():
    # a - b - c - d with a and d pinned: d is three steps from a, b two
    # from d; c's earlier vertices are a neighbour and a vertex whose
    # distance the placed path a - b - c already gives.
    A = graph(["a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("c", "d")])
    # the order is a, d, b, c; each pair names an earlier depth
    assert _walk_pairs(A, ("a", "d")) == ((), ((0, 3),), ((1, 2),), ())
    # unpinned, the sorted order walks along the path: nothing to screen
    assert _walk_pairs(A, ()) == ((), (), (), ())
    # vertices in different components are joined by no walk
    B = graph(["a", "b", "c", "d"], [("a", "b"), ("c", "d")])
    assert _walk_pairs(B, ("a", "d")) == ((), (), (), ())


def test_c9_lift_of_k88_is_fast_and_exact():
    # Half the root pairs of K8,8 have the wrong parity for each piece; an
    # unscreened projection walks every path below each before it fails
    # (about 18 s here).  Every class relation is the pairs at odd or at
    # even distance.
    A = complete_bipartite(8, 8)
    lift = canonical_lift(A, PieceFamily([cycle_graph(9)]))
    assert [len(ts) for _, ts in lift.ext] == [112, 128, 112, 128, 112, 128]
    same_side = {(u, v) for u, v in itertools.permutations(A.vertices, 2) if u[0] == v[0]}
    for _, ts in lift.ext:
        assert ts == same_side or ts == set(A.tuples("E"))
