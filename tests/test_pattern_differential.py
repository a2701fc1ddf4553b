"""Orderly pattern generation, obstacle search and rank-based metric
completion against the reference versions in ``pattern_oracle``.

The orderly generator must yield the same canonical vectors in the same
order as the full walk; ``obstacles_up_to`` must list the same obstacles in
the same order; ``complete_metric_graph`` must give the same status, space
and certificate as Floyd-Warshall on ``Fraction`` distances; the distance
set's cached tables must agree with the ``Fraction`` computations, and its
blocks with the search over all subsets.
"""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ramseyforge.completion import _canonical_pair_vectors, get_plugin, kfree_plugin
from ramseyforge.metric import (
    DistanceSet,
    SGraph,
    blocks,
    complete_metric_graph,
    four_values,
    jump_numbers,
    oplus,
)

import pattern_oracle as oracle


@st.composite
def flip_tables(draw, min_states=2, max_states=5):
    """A random involution on 0..m-1: consecutive entries of a shuffled
    list are swapped in pairs or left fixed."""
    m = draw(st.integers(min_states, max_states))
    order = draw(st.permutations(range(m)))
    flip = list(range(m))
    i = 0
    while i + 1 < m:
        if draw(st.booleans()):
            a, b = order[i], order[i + 1]
            flip[a], flip[b] = b, a
            i += 2
        else:
            i += 1
    return tuple(flip)


@settings(max_examples=60, deadline=None)
@given(k=st.integers(0, 4), flip=flip_tables())
def test_orderly_generation_matches_oracle(k, flip):
    fast = list(_canonical_pair_vectors(k, len(flip), flip))
    assert fast == list(oracle.canonical_pair_vectors(k, len(flip), flip))


@pytest.mark.parametrize("flip", [(0, 1), (1, 0)])
def test_orderly_generation_matches_oracle_on_five_vertices(flip):
    fast = list(_canonical_pair_vectors(5, 2, flip))
    assert fast == list(oracle.canonical_pair_vectors(5, 2, flip))


@pytest.mark.parametrize("flip", [(0, 2, 1, 4, 3), (0, 1, 2, 3, 4)])
def test_orderly_generation_matches_oracle_on_plugin_flips(flip):
    fast = list(_canonical_pair_vectors(4, 5, flip))
    assert fast == list(oracle.canonical_pair_vectors(4, 5, flip))


PLUGINS = {
    "posets": lambda: get_plugin("posets"),
    "metric:1,2,3,4": lambda: get_plugin("metric:1,2,3,4"),
    "metric:1,3": lambda: get_plugin("metric:1,3"),
    "metric:1,2": lambda: get_plugin("metric:1,2"),
    "forbidden:K3": lambda: kfree_plugin(3),
    "forbidden:K4": lambda: kfree_plugin(4),
}


def _relations(P):
    return P.vertices, [(name, sorted(P.tuples(name))) for name in P.language.names()]


@pytest.mark.parametrize("name", sorted(PLUGINS))
def test_obstacles_match_oracle(name):
    plugin = PLUGINS[name]()
    for n in range(5):
        fast = [_relations(P) for P in plugin.obstacles_up_to(n)]
        assert fast == [_relations(P) for P in oracle.obstacles_up_to(plugin, n)]


@pytest.mark.parametrize("name", ["posets", "metric:1,3", "forbidden:K3"])
def test_patterns_are_built_from_oracle_vectors(name):
    plugin = PLUGINS[name]()
    flip = plugin.pair_flip
    for k in range(5):
        vectors = oracle.canonical_pair_vectors(k, len(flip), flip)
        assert list(plugin.patterns(k)) == [plugin._pattern(k, vec) for vec in vectors]


DISTANCE_SETS = [
    DistanceSet(values)
    for values in (
        (1, 2, 3, 4),
        (1, 3),
        (1, 2),
        (2, 3, 4, 5),
        (Fraction(1, 2), 1, Fraction(3, 2), 2),
        (Fraction(1, 3), Fraction(2, 3), 1),
        (1, 2, 5),
    )
]


# random sets of up to five rationals that satisfy the 4-values condition
RANDOM_FOUR_VALUES_SETS = st.sets(
    st.builds(Fraction, st.integers(1, 24), st.integers(1, 4)), min_size=1, max_size=5
).map(DistanceSet).filter(lambda S: four_values(S)[0])


@st.composite
def partial_sgraphs(draw):
    S = draw(st.one_of(st.sampled_from(DISTANCE_SETS), RANDOM_FOUR_VALUES_SETS))
    n = draw(st.integers(0, 7))
    verts = [f"x{i}" for i in range(n)]
    vals = S.sorted()
    dist = {}
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.integers(0, 9)) < 6:
                dist[(verts[i], verts[j])] = draw(st.sampled_from(vals))
    return S, SGraph(verts, dist)


@settings(max_examples=300, deadline=None)
@given(case=partial_sgraphs())
def test_rank_completion_matches_fraction_completion(case):
    S, G = case
    assert four_values(S)[0]
    fast = complete_metric_graph(G, S)
    slow = oracle.complete_metric_graph(G, S)
    assert fast.status == slow.status
    assert fast.space == slow.space
    # pair, recorded and shortest distance, walk
    assert fast.certificate == slow.certificate


@settings(max_examples=150, deadline=None)
@given(
    values=st.sets(
        st.builds(Fraction, st.integers(1, 24), st.integers(1, 4)), min_size=1, max_size=5
    )
)
def test_distance_set_tables_match_fraction_tables(values):
    S = DistanceSet(values)
    assert four_values(S) == oracle.four_values(S)
    assert jump_numbers(S) == oracle.jump_numbers(S)
    table = oracle.oplus_table(S)
    for (a, b), c in table.items():
        assert oplus(S, a, b) == c


def test_four_values_matches_fraction_scan():
    """Verdict and witness on every subset of {1..8} with at most five
    elements (66 of the 218 fail), and on sets with fractional distances."""
    subsets = [c for r in range(1, 6) for c in itertools.combinations(range(1, 9), r)]
    fractional = [
        (Fraction(1, 2), 1, Fraction(3, 2), 2),
        (Fraction(1, 3), Fraction(1, 2), 1, Fraction(5, 2)),
        (Fraction(2, 3), 1, Fraction(7, 3), 5, Fraction(11, 2)),
    ]
    for combo in subsets + fractional:
        S = DistanceSet(combo)
        assert four_values(S) == oracle.four_values(S), combo


def test_blocks_match_subset_search():
    checked = 0
    for r in range(1, 6):
        for combo in itertools.combinations(range(1, 11), r):
            S = DistanceSet(combo)
            if four_values(S)[0]:
                assert [b.sorted() for b in blocks(S)] == oracle.oracle_blocks(S), combo
                checked += 1
    assert checked == 415
