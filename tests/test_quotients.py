"""The lazy, pruned quotient generator against the sorted partition list.

``completion._quotients`` grows set partitions as restricted growth strings,
most blocks first, and drops a partial partition as soon as a vertex would
join a block over a non-hole pair or two blocks would show two states.  On
the all-holes vector nothing is dropped, and the partitions must come in
the order of the oracle's ``partitions`` (the whole list sorted by block
count, the identity first).  On random vectors the generator must yield
exactly the partitions the collapse rule keeps, in that order, with the
quotient vectors the rule reads: states oriented from the lower block
(by least member) to the higher.
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from ramseyforge.completion import _quotients

import completion_oracle as oracle
from test_completion_differential import PLUGINS


def labels_of(blocks, k):
    labels = [0] * k
    for b, block in enumerate(blocks):
        for i in block:
            labels[i] = b
    return tuple(labels)


def kept_by_rule(vec, k, flip):
    """Every partition whose blocks hold only holes and whose block pairs
    show one state besides holes, with its quotient vector."""
    index = {pair: p for p, pair in enumerate(itertools.combinations(range(k), 2))}
    out = []
    for blocks in oracle.partitions(range(k)):
        if any(vec[index[pair]] for b in blocks for pair in itertools.combinations(b, 2)):
            continue
        qvec = []
        for lower, higher in itertools.combinations(blocks, 2):
            states = {
                vec[index[i, j]] if i < j else flip[vec[index[j, i]]]
                for i in lower for j in higher
            } - {0}
            if len(states) > 1:
                break
            qvec.append(states.pop() if states else 0)
        else:
            out.append((labels_of(blocks, k), qvec))
    return out


@pytest.mark.parametrize("k", range(8))
def test_unpruned_order_is_the_sorted_partition_order(k):
    holes = [0] * (k * (k - 1) // 2)
    got = [labels for labels, _ in _quotients(holes, k, (0,))]
    assert got == [labels_of(blocks, k) for blocks in oracle.partitions(range(k))]


FLIPS = sorted({plugin.pair_flip for plugin in PLUGINS.values()})


@settings(max_examples=300, deadline=None)
@given(data=st.data(), k=st.integers(0, 6), flip=st.sampled_from(FLIPS))
def test_pruned_partitions_match_the_collapse_rule(data, k, flip):
    # holes weighted up, so that blocks of several vertices survive
    state = st.sampled_from([0] * len(flip) + list(range(1, len(flip))))
    vec = data.draw(st.lists(state, min_size=k * (k - 1) // 2, max_size=k * (k - 1) // 2))
    assert list(_quotients(vec, k, flip)) == kept_by_rule(vec, k, flip)
