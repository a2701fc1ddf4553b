"""Walk-length and parity screens in homomorphism-embedding searches.

A homomorphism-embedding separates Gaifman neighbours, so it sends a
shortest u-v path of L steps onto a walk of exactly L steps, and an odd
closed walk onto an odd closed walk.  Every homomorphism-embedding search,
projected or not, drops candidates that end no such walk, and a vertex
placed with no earlier neighbour whose component is not bipartite may only
go to a non-bipartite component of the target.  The reference is the
unindexed backtracker ``oracle_search``, which screens nothing.  The
targets are the ones the screens cut hardest: bipartite graphs, graphs of
odd girth above the source's odd cycles, and disjoint unions of the two;
the sources often have one bipartite and one odd component.
"""

import itertools

from hypothesis import given, settings, strategies as st

from ramseyforge.build import GRAPH, cycle_graph, graph
from ramseyforge.pieces import forb_membership
from ramseyforge.structures import (
    Structure,
    language,
    search_morphisms,
    verify_morphism,
)

from conftest import gaifman_adjacency, odd_vertices
from search_oracle import oracle_search

MIXED = language(("U", 1), ("E", 2), ("T", 3))


def both_ways(edges):
    return {e for u, v in edges for e in ((u, v), (v, u))}


def cycle_edges(names):
    return [(names[i], names[(i + 1) % len(names)]) for i in range(len(names))]


@st.composite
def sources(draw):
    """Sources on 1-7 vertices: one bipartite component (a path or an even
    cycle) next to one odd component (an odd cycle, or a triangle spanned
    by a ternary tuple), or a random sparse structure; E mostly stored
    both ways, a few unary tuples."""
    if draw(st.booleans()):
        even = [f"p{i}" for i in range(draw(st.integers(1, 4)))]
        even_edges = cycle_edges(even) if len(even) == 4 and draw(st.booleans()) else list(zip(even, even[1:]))
        odd = [f"q{i}" for i in range(draw(st.sampled_from((3, 3, 5))))]
        edges, ternary = both_ways(even_edges), []
        if len(odd) == 3 and draw(st.booleans()):
            ternary = [tuple(draw(st.permutations(odd)))]
        else:
            edges |= both_ways(cycle_edges(odd))
        verts = even + odd
    else:
        verts = [f"s{i}" for i in range(draw(st.integers(1, 6)))]
        vertex = st.sampled_from(verts)
        edges = set(draw(st.lists(st.tuples(vertex, vertex), max_size=len(verts) + 1)))
        if draw(st.integers(0, 3)):
            edges = both_ways(edges)
        ternary = draw(st.lists(st.tuples(vertex, vertex, vertex), max_size=1))
    unary = draw(st.lists(st.tuples(st.sampled_from(verts)), max_size=2))
    return Structure(MIXED, verts, {"U": unary, "E": edges, "T": ternary})


@st.composite
def targets(draw):
    """A bipartite graph (K_{m,n} less a few edges, or an even cycle), a
    graph of odd girth 5-9 (an odd cycle, perhaps with one vertex doubled),
    or a disjoint union of a bipartite and an odd part; E both ways, a few
    unary tuples and maybe one ternary tuple inside the odd part."""
    shape = draw(st.sampled_from(("bipartite", "odd girth", "disconnected")))
    verts, edges, odd = [], set(), []
    if shape in ("bipartite", "disconnected"):
        if draw(st.booleans()):
            m, n = draw(st.integers(1, 3)), draw(st.integers(1, 3))
            left, right = [f"l{i}" for i in range(m)], [f"r{i}" for i in range(n)]
            pairs = [(u, v) for u in left for v in right]
            gone = draw(st.lists(st.sampled_from(pairs), max_size=2))
            verts += left + right
            edges |= both_ways(set(pairs) - set(gone))
        else:
            ring = [f"e{i}" for i in range(draw(st.sampled_from((4, 6))))]
            verts += ring
            edges |= both_ways(cycle_edges(ring))
    if shape in ("odd girth", "disconnected"):
        odd = [f"o{i}" for i in range(draw(st.sampled_from((3, 5, 7) if shape == "disconnected" else (5, 7, 9))))]
        verts += odd
        edges |= both_ways(cycle_edges(odd))
        if len(odd) < 9 and draw(st.booleans()):
            # o0 doubled: a twin with o0's neighbours keeps the odd girth
            verts.append("o0'")
            edges |= both_ways([("o0'", odd[1]), ("o0'", odd[-1])])
    ternary = []
    if odd and len(odd) == 3 and draw(st.booleans()):
        ternary = [tuple(odd)]
    unary = draw(st.lists(st.tuples(st.sampled_from(verts)), max_size=3))
    return Structure(MIXED, verts, {"U": unary, "E": edges, "T": ternary})


@st.composite
def searches(draw):
    """A source, a target, 0-2 pinned source vertices and forced
    injectivity or not."""
    A, B = draw(sources()), draw(targets())
    pins = draw(st.lists(st.sampled_from(A.vertices), max_size=min(2, len(A.vertices)), unique=True))
    fixed = {v: draw(st.sampled_from(B.vertices)) for v in pins}
    return A, B, fixed, draw(st.booleans())


@settings(max_examples=250, deadline=None)
@given(searches())
def test_screened_hom_embedding_search_matches_oracle(case):
    A, B, fixed, injective = case
    got = [m.map for m in search_morphisms(A, B, "homomorphism-embedding", fixed, injective)]
    assert got == [m.map for m in oracle_search(A, B, "homomorphism-embedding", fixed, injective)]


def odd_closed_walk_through(A, v):
    """Does an odd closed walk of at most 2|A| + 1 steps start at v?  By
    stepping along the Gaifman graph, one length at a time."""
    adj = gaifman_adjacency(A)
    reached = {v}
    for steps in range(1, 2 * len(A.vertices) + 2):
        reached = {y for x in reached for y in adj[x]}
        if steps % 2 and v in reached:
            return True
    return False


@settings(max_examples=200, deadline=None)
@given(st.one_of(sources(), targets()))
def test_odd_vertices_lie_on_odd_closed_walks(A):
    assert odd_vertices(A) == {v for v in A.vertices if odd_closed_walk_through(A, v)}


def test_parity_screen_is_not_applied_to_homomorphisms():
    # A ternary tuple spans a triangle in the source's Gaifman graph, and
    # the target's Gaifman graph is one edge, bipartite.  A homomorphism
    # may merge a and b, so it exists; a homomorphism-embedding may not.
    T = language(("R", 3))
    A = Structure(T, ["a", "b", "c"], {"R": [("a", "b", "c")]})
    B = Structure(T, ["x", "y"], {"R": [("x", "x", "y")]})
    homs = [m.map for m in search_morphisms(A, B, "homomorphism")]
    assert homs == [(("a", "x"), ("b", "x"), ("c", "y"))]
    assert homs == [m.map for m in oracle_search(A, B, "homomorphism")]
    assert list(search_morphisms(A, B, "homomorphism-embedding")) == []


def complete_bipartite(m):
    return graph([f"a{i}" for i in range(m)] + [f"b{i}" for i in range(m)],
                 [(f"a{i}", f"b{j}") for i in range(m) for j in range(m)])


def blow_up(n, t):
    """The n-cycle with every vertex replaced by t independent copies."""
    return graph([f"c{i}.{a}" for i in range(n) for a in range(t)],
                 [(f"c{i}.{a}", f"c{(i + 1) % n}.{b}") for i in range(n) for a in range(t) for b in range(t)])


def test_c9_membership_of_k66_is_refuted_at_the_first_vertex():
    # K6,6 is bipartite: no C9 vertex has a target.  Walking every path
    # below each image of the first vertex took about 7-12 s.
    assert forb_membership(complete_bipartite(6), [cycle_graph(9)])


def test_c9_membership_of_tripled_c11():
    # Odd girth 11: the walk-length screen refutes a path of C9 once it is
    # five steps long, where walking every path took about 20-30 s.  C11
    # itself maps in.
    G = blow_up(11, 3)
    assert forb_membership(G, [cycle_graph(9)])
    report = forb_membership(G, [cycle_graph(9), cycle_graph(11)])
    assert not report and report.forbidden == cycle_graph(11)
    assert verify_morphism(report.witness)


def test_odd_vertices_of_mixed_components():
    G = graph([f"v{i}" for i in range(9)],
              cycle_edges(["v0", "v1", "v2", "v3", "v4"]) + [("v5", "v6"), ("v6", "v7")])
    assert odd_vertices(G) == {"v0", "v1", "v2", "v3", "v4"}
    assert odd_vertices(complete_bipartite(3)) == frozenset()
    assert odd_vertices(Structure(GRAPH, [], {})) == frozenset()
    # loops lie outside the Gaifman graph
    assert odd_vertices(Structure(GRAPH, ["x", "y"], {"E": [("x", "x"), ("x", "y"), ("y", "x")]})) == frozenset()
    assert list(itertools.islice(search_morphisms(cycle_graph(5), G, "homomorphism-embedding"), 1))
