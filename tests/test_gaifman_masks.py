"""Every Gaifman reader against adjacency read straight off the tuples.

Components, distances, irreducibility, the Gaifman graph, holes and the
non-bipartite components all read the neighbourhood masks of
``_vertex_masks``.  Each is compared here with a plain set-based version
over ``conftest.gaifman_adjacency``, on random structures with unary,
binary and ternary symbols, tuples that repeat a vertex, isolated
vertices, names whose sorted order is not numeric (v1, v10, v2) and,
once, more than 64 vertices, so that the masks are wider than a machine
word.
"""

import itertools
import random

from hypothesis import given, settings, strategies as st

from ramseyforge.completion import holes
from ramseyforge.structures import (
    GAIFMAN_LANGUAGE,
    Structure,
    connected_components,
    gaifman_distances,
    gaifman_graph,
    is_connected,
    is_irreducible,
    language,
)

from conftest import gaifman_adjacency, odd_vertices

MIXED = language(("U", 1), ("E", 2), ("T", 3))
NAMES = ("a", "b", "v1", "v10", "v11", "v2", "v20", "v3", "x")


def random_structure(rng: random.Random, names, edges: int, triples: int) -> Structure:
    """Tuples drawn with replacement from the names, so vertices repeat
    inside tuples and some names stay isolated."""
    names = list(names)
    return Structure(MIXED, names, {
        "U": [(rng.choice(names),) for _ in range(2)],
        "E": [(rng.choice(names), rng.choice(names)) for _ in range(edges)],
        "T": [tuple(rng.choice(names) for _ in range(3)) for _ in range(triples)],
    })


@st.composite
def structures(draw):
    verts = draw(st.lists(st.sampled_from(NAMES), min_size=0, max_size=len(NAMES), unique=True))
    if not verts:
        return Structure(MIXED, [], {})
    vertex = st.sampled_from(verts)
    return Structure(MIXED, verts, {
        "U": draw(st.lists(st.tuples(vertex), max_size=2)),
        "E": draw(st.lists(st.tuples(vertex, vertex), max_size=len(verts) + 2)),
        "T": draw(st.lists(st.tuples(vertex, vertex, vertex), max_size=3)),
    })


# Seeded structures on 65-72 vertices: a sparse one with many components
# and a denser one, connected with odd cycles.
WIDE = [
    random_structure(random.Random(seed), [f"w{i}" for i in range(n)], edges, triples)
    for seed, n, edges, triples in ((1, 65, 30, 6), (2, 72, 90, 20))
]


def oracle_components(A: Structure) -> list[frozenset]:
    """Components by depth-first search on name sets, least vertex first."""
    adj = gaifman_adjacency(A)
    seen, comps = set(), []
    for v in A.vertices:
        if v not in seen:
            comp, stack = {v}, [v]
            while stack:
                for w in adj[stack.pop()] - comp:
                    comp.add(w)
                    stack.append(w)
            seen |= comp
            comps.append(frozenset(comp))
    return comps


def oracle_distances(A: Structure, v: str, inside=None) -> list[tuple[str, int]]:
    """Breadth-first distances from v, layer by layer, sorted in a layer."""
    adj = gaifman_adjacency(A)
    dist, layer, L = [(v, 0)], {v}, 0
    seen = {v}
    while layer:
        L += 1
        layer = {w for u in layer for w in adj[u]} - seen
        if inside is not None:
            layer &= set(inside)
        seen |= layer
        dist += [(w, L) for w in sorted(layer)]
    return dist


def oracle_odd_vertices(A: Structure) -> frozenset:
    """Vertices of components that admit no 2-colouring."""
    adj = gaifman_adjacency(A)
    odd = set()
    for comp in oracle_components(A):
        first = min(comp)
        colour, stack = {first: 0}, [first]
        clash = False
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if w not in colour:
                    colour[w] = 1 - colour[u]
                    stack.append(w)
                elif colour[w] == colour[u]:
                    clash = True
        if clash:
            odd |= comp
    return frozenset(odd)


def check_against_tuples(A: Structure, inside) -> None:
    adj = gaifman_adjacency(A)
    comps = oracle_components(A)
    assert connected_components(A) == comps
    assert is_connected(A) == (len(comps) <= 1)
    for v in A.vertices:
        assert list(gaifman_distances(A, v).items()) == oracle_distances(A, v)
        assert list(gaifman_distances(A, v, inside).items()) == oracle_distances(A, v, inside)
    assert is_irreducible(A) == all(v in adj[u] for u, v in itertools.combinations(A.vertices, 2))
    edges = [(u, v) for u in A.vertices for v in adj[u]]
    assert gaifman_graph(A) == Structure(GAIFMAN_LANGUAGE, A.vertices, {"E": edges})
    assert holes(A) == [(u, v) for u, v in itertools.combinations(A.vertices, 2) if v not in adj[u]]
    assert odd_vertices(A) == oracle_odd_vertices(A)


@settings(max_examples=150, deadline=None)
@given(structures(), st.data())
def test_gaifman_readers_match_tuples(A, data):
    inside = data.draw(st.sets(st.sampled_from(A.vertices))) if A.vertices else set()
    check_against_tuples(A, inside)


def test_wide_structures_match_tuples():
    for A in WIDE:
        assert len(A.vertices) > 64
        check_against_tuples(A, set(A.vertices[::2]))
    # the wide ones have both kinds of component, several of them
    assert len(connected_components(WIDE[0])) > 1
    assert odd_vertices(WIDE[1])
