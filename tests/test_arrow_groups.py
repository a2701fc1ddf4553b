"""The groups of an arrow C -> (B)^A_k against the subset scan.

``ramsey._mono_sets`` finds the copies of A in B once and maps them
through each copy of B in C; ``colouring_oracle.oracle_mono_sets`` tests
every copy of A against every copy of B.  On small graphs and ordered
graphs, with B often induced in C and A often induced in B, both must give
the same copies in the same order and the same groups, each ascending.
"""

from hypothesis import given, settings, strategies as st

from ramseyforge.build import complete_graph, graph, ordered_graph
from ramseyforge.ramsey import _mono_sets, verify_arrow
from ramseyforge.structures import induced_substructure

from colouring_oracle import oracle_mono_sets

# Names whose sorted order differs from their numeric order.
NAMES = ("a", "b", "c", "v1", "v10", "v2", "x", "y")


@st.composite
def drawn_graphs(draw, names, ordered, max_vertices, min_vertices=0):
    verts = draw(st.lists(st.sampled_from(names), min_size=min_vertices, max_size=max_vertices, unique=True))
    pairs = [(u, v) for i, u in enumerate(verts) for v in verts[i + 1:]]
    edges = sorted(draw(st.sets(st.sampled_from(pairs)))) if pairs else []
    if ordered:
        return ordered_graph(verts, edges, draw(st.permutations(verts)))
    return graph(verts, edges)


def part(draw, S, min_vertices, max_vertices):
    """An induced substructure of S on a drawn set of its vertices."""
    if not S.vertices or len(S.vertices) < min_vertices:
        return S
    verts = draw(st.lists(st.sampled_from(S.vertices), min_size=min_vertices, max_size=max_vertices, unique=True))
    return induced_substructure(S, verts)


@st.composite
def arrows(draw):
    """C with up to seven vertices, mostly three or more; B mostly induced
    in C, on two to five vertices, so that it has copies; A mostly induced
    in B and smaller, so that a copy of B holds several copies of A."""
    ordered = draw(st.booleans())
    C = draw(drawn_graphs(NAMES, ordered, 7, draw(st.sampled_from((3, 3, 3, 0)))))
    if draw(st.integers(0, 3)) < 3:
        B = part(draw, C, 2, 5)
    else:
        B = draw(drawn_graphs(("p", "q", "r", "s"), ordered, 4))
    if draw(st.integers(0, 3)) < 3:
        A = part(draw, B, 1, max(len(B.vertices) - 1, 1))
    else:
        A = draw(drawn_graphs(("i", "j", "k"), ordered, 3))
    return C, A, B


@settings(max_examples=300, deadline=None)
@given(arrows())
def test_groups_match_subset_scan(case):
    C, A, B = case
    a_images, b_images, groups = _mono_sets(C, A, B)
    assert (a_images, b_images, groups) == oracle_mono_sets(C, A, B)
    assert all(list(g) == sorted(set(g)) for g in groups)


def test_edge_groups_in_k6_are_triangles():
    # K6 -> (K3)^edge_2: 20 triangles, each grouping its three edges
    C, A, B = complete_graph(6), complete_graph(2), complete_graph(3)
    a_images, b_images, groups = _mono_sets(C, A, B)
    assert (len(a_images), len(b_images)) == (15, 20)
    assert all(len(g) == 3 for g in groups)
    assert (a_images, b_images, groups) == oracle_mono_sets(C, A, B)
    assert verify_arrow(C, A, B, 2, mode="exhaustive").holds == "proved"
