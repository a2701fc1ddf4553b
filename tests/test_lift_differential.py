"""The canonical lift against the lift by one fresh search per root tuple.

``canonical_lift`` runs one projected search per class piece, which
enumerates the root images and stops below each at the first map; the
oracle starts a new unindexed search for every root tuple and piece.  Both
must give the same ext sets, on sparse random bases, on dense bases, and
for a family whose pieces carry an order symbol.
"""

import random

import pytest

from ramseyforge.build import ORDERED_GRAPH, complete_graph, cycle_graph, graph
from ramseyforge.pieces import PieceFamily, canonical_lift
from ramseyforge.structures import Structure

from conftest import random_graph
from search_oracle import oracle_canonical_lift

C5_EDGES = [("c0", "c1"), ("c1", "c2"), ("c2", "c3"), ("c3", "c4"), ("c4", "c0")]


def complete_bipartite(m, n):
    left, right = [f"a{i}" for i in range(m)], [f"b{i}" for i in range(n)]
    return graph(left + right, [(u, v) for u in left for v in right])


def weak_orderings_of_c5():
    """The family of ``test_pieces``' weak-ordering test: the 5-cycle with
    every acyclic orientation, as a reflexive ``leq`` over its edges."""
    members = []
    for mask in range(32):
        arcs = [(u, v) if mask >> i & 1 else (v, u) for i, (u, v) in enumerate(C5_EDGES)]
        if mask in (0, 31):  # the two orientations that close a directed cycle
            continue
        members.append(Structure(ORDERED_GRAPH, cycle_graph(5).vertices, {
            "E": [e for p in C5_EDGES for e in (p, p[::-1])],
            "leq": [(v, v) for v in cycle_graph(5).vertices] + arcs,
        }))
    return PieceFamily(members)


def ordered(G, rng, p=0.5):
    """G over the ordered-graph language with a random ``leq``: some loops,
    and each edge in one, both or neither direction."""
    leq = [(v, v) for v in G.vertices if rng.random() < 0.7]
    leq += [e for e in G.tuples("E") if rng.random() < p]
    return Structure(ORDERED_GRAPH, G.vertices, {"E": G.tuples("E"), "leq": leq})


FAMILIES = {
    "C5": lambda: PieceFamily([cycle_graph(5)]),
    "C7": lambda: PieceFamily([cycle_graph(7)]),
    "C5+C7": lambda: PieceFamily([cycle_graph(5), cycle_graph(7)]),
}
DENSE = {"K5,5": complete_bipartite(5, 5), "K6,6": complete_bipartite(6, 6), "K8": complete_graph(8)}


def assert_same_lift(A, family):
    assert canonical_lift(A, family).ext == oracle_canonical_lift(A, family).ext


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_random_sparse_graphs(name):
    family = FAMILIES[name]()
    rng = random.Random(43)
    for _ in range(6):
        assert_same_lift(random_graph(rng, rng.randint(3, 6), p=0.3), family)


@pytest.mark.parametrize("base", sorted(DENSE))
@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_dense_graphs(name, base):
    assert_same_lift(DENSE[base], FAMILIES[name]())


def test_weak_ordering_family():
    family = weak_orderings_of_c5()
    rng = random.Random(47)
    for _ in range(6):
        assert_same_lift(ordered(random_graph(rng, rng.randint(3, 6), p=0.4), rng), family)
    for base in sorted(DENSE):
        assert_same_lift(ordered(DENSE[base], rng), family)
