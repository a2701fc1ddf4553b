import random

import pytest

from ramseyforge.build import complete_graph, cycle_graph, graph, pointed_equivalence
from ramseyforge.structures import Structure, _odd_mask


@pytest.fixture
def k3():
    return complete_graph(3)


@pytest.fixture
def p3():
    return graph(["u", "v", "w"], [("u", "v"), ("v", "w")])


@pytest.fixture
def k2():
    return graph(["a", "b"], [("a", "b")])


@pytest.fixture
def c5():
    return cycle_graph(5)


def gaifman_adjacency(A: Structure) -> dict[str, set[str]]:
    """Gaifman adjacency read straight off A's tuples: u ~ v iff u != v and
    some tuple holds both.  It shares no code with the library's
    neighbourhood masks, so tests can check those against it."""
    adj: dict[str, set[str]] = {v: set() for v in A.vertices}
    for ts in A.relations.values():
        for t in ts:
            for u in t:
                adj[u].update(w for w in t if w != u)
    return adj


def odd_vertices(A: Structure) -> frozenset:
    """The vertices of A whose Gaifman component is not bipartite: the
    library's ``_odd_mask`` as names."""
    odd = _odd_mask(A)
    return frozenset(v for j, v in enumerate(A.vertices) if odd >> j & 1)


def random_graph(rng: random.Random, n: int, p: float = 0.4) -> Structure:
    verts = [f"g{i}" for i in range(n)]
    edges = [
        (verts[i], verts[j])
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < p
    ]
    return graph(verts, edges)


def random_pointed(rng: random.Random, max_classes: int = 3, max_size: int = 3,
                   ordered: bool = False) -> Structure:
    classes = []
    counter = 0
    for _ in range(rng.randint(1, max_classes)):
        size = rng.randint(1, max_size)
        cls = [f"e{counter + i}" for i in range(size)]
        counter += size
        classes.append(cls)
    return pointed_equivalence(classes, ordered=ordered)
