"""Cuts on bitmasks and piece families keyed once, against their oracles.

``minimal_separating_cuts`` finds the components of V - R from the vertex
masks of the tuples that avoid R; the oracle builds the induced structure
on V - R for every R.  ``PieceFamily`` keys each (vertex set, root order)
of a member once; the oracle keys every piece and complement afresh.  Both
must agree exactly, order included.  The last tests build families of
longer odd cycles, which the permutation-loop key could not reach.
"""

from hypothesis import given, settings, strategies as st
import pytest

from ramseyforge.build import cycle_graph, graph
from ramseyforge.pieces import (
    PieceFamily,
    canonical_lift,
    forb_membership,
    minimal_separating_cuts,
)
from ramseyforge.structures import Language, Structure, is_connected

from conftest import gaifman_adjacency
from piece_oracle import oracle_family, oracle_minimal_separating_cuts

LANG = Language((("U", 1), ("E", 2), ("T", 3)))


@st.composite
def structures(draw, max_vertices=7):
    """Sparse structures over a unary, a binary and a ternary symbol, often
    with isolated vertices."""
    n = draw(st.integers(1, max_vertices))
    verts = [f"v{i}" for i in range(n)]
    vertex = st.sampled_from(verts)
    return Structure(LANG, verts, {
        "U": draw(st.lists(st.tuples(vertex), max_size=2)),
        "E": draw(st.lists(st.tuples(vertex, vertex), max_size=7)),
        "T": draw(st.lists(st.tuples(vertex, vertex, vertex), max_size=3)),
    })


@settings(max_examples=400, deadline=None)
@given(structures())
def test_cuts_match_oracle(A):
    assert minimal_separating_cuts(A) == oracle_minimal_separating_cuts(A)


def test_ternary_tuple_through_the_cut_joins_nothing():
    # T(a, r, b) runs through r, so A - r has the components {a}, {b} and
    # {c}; a and b are Gaifman neighbours, so neither is a full side.
    # Joining a and b in A - r would make ({r}; {a, b}, {c}) a cut.
    A = Structure(LANG, ["a", "b", "c", "r"], {
        "E": [("a", "r"), ("b", "r"), ("c", "r")],
        "T": [("a", "r", "b")],
    })
    assert minimal_separating_cuts(A) == [] == oracle_minimal_separating_cuts(A)


def assert_family_matches_oracle(members):
    family, oracle = PieceFamily(members), oracle_family(members)
    assert family.pieces == oracle["pieces"]
    assert family.complements == oracle["complements"]
    assert family._complement_keys == oracle["complement_keys"]
    assert [(cls.width, cls.pieces) for cls in family.classes] == oracle["classes"]


@pytest.mark.parametrize("n", [5, 6, 7, 8, 9])
def test_cycle_families_match_oracle(n):
    assert_family_matches_oracle([cycle_graph(n)])


@st.composite
def connected_families(draw):
    """One or two connected structures on at most 6 vertices."""
    members = []
    for _ in range(draw(st.integers(1, 2))):
        A = draw(structures(max_vertices=6))
        if not is_connected(A):
            # chain the vertices with E so the member is connected
            verts = A.vertices
            A = A.replace({"E": set(A.tuples("E")) | set(zip(verts, verts[1:]))})
        members.append(A)
    return members


@settings(max_examples=60, deadline=None)
@given(connected_families())
def test_random_families_match_oracle(members):
    assert_family_matches_oracle(members)


@pytest.fixture(scope="module")
def c11_family():
    return PieceFamily([cycle_graph(11)])


def test_c11_family_builds(c11_family):
    assert len(c11_family.classes) == 8
    assert {cls.width for cls in c11_family.classes} == {2}


def test_lift_equality_through_member_keys(c11_family):
    # a second family of a renamed C11 is a different object with the
    # same member keys, which needs the key of an 11-vertex cycle
    C11 = cycle_graph(11)
    renamed = PieceFamily([C11.rename({v: v + "'" for v in C11.vertices})])
    G = cycle_graph(13)
    L1, L2 = canonical_lift(G, c11_family), canonical_lift(G, renamed)
    assert c11_family.member_keys == renamed.member_keys
    assert L1 == L2
    assert L1 != canonical_lift(G, PieceFamily([cycle_graph(9)]))


def test_c15_free_graph_lifts_with_the_c15_family():
    family = PieceFamily([cycle_graph(15)])
    assert len(family.classes) == 12
    # odd girth 17: no closed walk of length 15, so C15-free
    n = 17
    G = graph([f"g{i}" for i in range(n)], [(f"g{i}", f"g{(i + 1) % n}") for i in range(n)])
    assert forb_membership(G, family.members)
    lift = canonical_lift(G, family).ext_map()
    # Every piece of C15 is a path with its roots at the ends, and a
    # homomorphism-embedding of a path is a walk, so (x, y) is in a class
    # exactly when x != y and some piece's length is the length of a walk
    # from x to y.
    adj = gaifman_adjacency(G)
    for cls in family.classes:
        lengths = {len(piece.body.vertices) - 1 for piece in cls.pieces}
        expected = set()
        for x in G.vertices:
            reach = {x}
            for length in range(1, max(lengths) + 1):
                reach = set().union(*(adj[v] for v in reach))
                if length in lengths:
                    expected |= {(x, y) for y in reach if y != x}
        assert lift[cls.index] == expected
