"""The S-metric routines on ranks against the ``Fraction`` versions in
``pattern_oracle``.

``SGraph.is_metric`` must agree with the triangle loop on ``Fraction``
sums on partial graphs, total graphs, metric spaces and graphs with a
distance outside S; ``s_length``, ``fold_violates``, ``unimportant_paths``
and ``is_associative`` with the folds through the ``Fraction``-keyed
table, witnesses and reductions included, also on sets that fail the
4-values condition.  A distance outside S is refused, and strings are read
as rationals.
"""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ramseyforge.errors import PreconditionError
from ramseyforge.metric import (
    CycleCertificate,
    DistanceSet,
    SGraph,
    complete_metric_graph,
    distance_set,
    fold_violates,
    four_values,
    is_associative,
    s_length,
    unimportant_paths,
)
from ramseyforge.rsf import format_rational

import pattern_oracle as oracle

distance_sets = st.sets(
    st.builds(Fraction, st.integers(1, 24), st.integers(1, 4)), min_size=1, max_size=5
).map(DistanceSet)


def outside(S: DistanceSet) -> Fraction:
    """A positive rational that is not in S."""
    return next(q for q in (S.min / 2, S.max + 1) if q not in S.distances)


@st.composite
def sgraphs(draw):
    """A distance set and a graph on up to six vertices: partial, total,
    a completed metric space (4-values sets only), or one of these with a
    single distance moved outside S; metric spaces may get one pair
    changed."""
    S = draw(distance_sets)
    n = draw(st.integers(0, 6))
    verts = [f"x{i}" for i in range(n)]
    pairs = list(itertools.combinations(verts, 2))
    kind = draw(st.sampled_from(("partial", "total", "metric")))
    holes = kind == "partial"
    dist = {
        p: draw(st.sampled_from(S.sorted()))
        for p in pairs
        if not holes or draw(st.integers(0, 9)) < 6
    }
    if kind == "metric" and four_values(S)[0]:
        result = complete_metric_graph(SGraph(verts, dist), S)
        if result.completed:
            dist = dict(result.space.dist)
    if dist and draw(st.booleans()):
        p = draw(st.sampled_from(sorted(dist)))
        dist[p] = outside(S) if draw(st.booleans()) else draw(st.sampled_from(S.sorted()))
    return S, SGraph(verts, dist)


@settings(max_examples=400, deadline=None)
@given(case=sgraphs())
def test_is_metric_matches_fraction_triangles(case):
    S, G = case
    assert G.is_metric(S) == oracle.sgraph_is_metric(G, S)


def test_is_metric_on_every_total_graph_on_four_vertices():
    # 3^6 total graphs over {1, 2, 4}, some metric and some not, and each
    # with one distance outside the set
    S = distance_set(1, 2, 4)
    pairs = list(itertools.combinations("abcd", 2))
    verdicts = set()
    for values in itertools.product(S.sorted(), repeat=len(pairs)):
        G = SGraph("abcd", dict(zip(pairs, values)))
        verdict = G.is_metric(S)
        assert verdict == oracle.sgraph_is_metric(G, S), values
        verdicts.add(verdict)
        bad = SGraph("abcd", dict(zip(pairs, (3,) + values[1:])))
        assert not bad.is_metric(S) and not oracle.sgraph_is_metric(bad, S)
    assert verdicts == {True, False}


@settings(max_examples=300, deadline=None)
@given(data=st.data(), S=distance_sets)
def test_folds_match_fraction_folds(data, S):
    vals = st.sampled_from(S.sorted())
    walk = data.draw(st.lists(vals, min_size=1, max_size=8))
    assert s_length(S, walk) == oracle.s_length(S, walk)
    # strings are read as rationals
    assert s_length(S, [format_rational(q) for q in walk]) == oracle.s_length(S, walk)
    cycle = data.draw(st.lists(vals, min_size=3, max_size=9))
    assert fold_violates(S, cycle) == oracle.fold_violates(S, cycle)
    assert fold_violates(S, [format_rational(q) for q in cycle]) == oracle.fold_violates(S, cycle)
    assert unimportant_paths(cycle, S) == oracle.unimportant_paths(cycle, S)


@settings(max_examples=300, deadline=None)
@given(S=distance_sets)
def test_associativity_matches_fraction_table(S):
    assert is_associative(S) == oracle.is_associative(S)


def test_associativity_witnesses_on_small_sets():
    # every subset of {1..8} with at most four elements, 4-values or not
    failed = 0
    for r in range(1, 5):
        for combo in itertools.combinations(range(1, 9), r):
            S = DistanceSet(combo)
            ok, witness = is_associative(S)
            assert (ok, witness) == oracle.is_associative(S), combo
            failed += not ok
    assert failed > 0


S13 = distance_set(1, 3)


class TestCycleDistancesOutsideTheSet:
    def test_fold_violates_refuses(self):
        with pytest.raises(PreconditionError, match="distance set"):
            fold_violates(S13, [1, 1, 5])

    def test_certificate_does_not_verify(self):
        with pytest.raises(PreconditionError):
            CycleCertificate((Fraction(1), Fraction(1), Fraction(5)), None).verify(S13)
        assert CycleCertificate((Fraction(1), Fraction(1), Fraction(3)), None).verify(S13)

    @pytest.mark.parametrize("distances", [[1, 1, 5], [5, 1, 1, 1], [1, 2, 3]])
    def test_unimportant_paths_refuses(self, distances):
        with pytest.raises(PreconditionError):
            unimportant_paths(distances, S13)

    def test_s_length_refuses_a_later_distance(self):
        with pytest.raises(PreconditionError):
            s_length(S13, [1, 2])

    def test_strings_are_read(self):
        assert fold_violates(S13, ["1", "1", "3"])
        assert not fold_violates(S13, ["3", "1", "3"])
        assert unimportant_paths(["3", "1", "1", "1"], S13) == unimportant_paths([3, 1, 1, 1], S13)

    def test_short_cycles_still_refused_first(self):
        with pytest.raises(PreconditionError, match="three edges"):
            fold_violates(S13, [1, 5])
        with pytest.raises(PreconditionError, match="three edges"):
            unimportant_paths([1, 5], S13)
