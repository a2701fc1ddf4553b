"""The forward-checking colouring kernel against the plain backtracker.

Both colour copies in index order with colours ascending and the first copy
pinned to 0, and forward checking only prunes branches that hold no good
colouring, so both must return the same colouring, and the kernel's nodes
are a subset of the backtracker's.
"""

import pytest
from hypothesis import given, settings, strategies as st

from ramseyforge.errors import CapError
from ramseyforge.ramsey import colouring_search

from colouring_oracle import oracle_search


@st.composite
def hypergraphs(draw):
    n = draw(st.integers(0, 14))
    k = draw(st.integers(1, 3))
    groups = []
    if n:
        # A group with one distinct member settles a search at once, so few
        # examples allow them; examples with small groups only are often
        # proved after a real search.  Some members are repeated, giving
        # groups such as (3, 1, 3) or, with one distinct member, (3, 3).
        smallest = min(n, draw(st.sampled_from((1, 2, 2, 2))))
        largest = min(n, draw(st.integers(max(smallest, 2), 4)))
        for _ in range(draw(st.integers(0, 3 * n))):
            members = draw(
                st.lists(
                    st.integers(0, n - 1), min_size=smallest, max_size=largest, unique=True
                )
            )
            members += draw(st.lists(st.sampled_from(members), max_size=4 - len(members)))
            groups.append(tuple(draw(st.permutations(members))))
    return n, k, groups


@settings(max_examples=300, deadline=None)
@given(hypergraphs())
def test_kernel_matches_oracle(case):
    n, k, groups = case
    colouring, nodes = colouring_search(n, k, groups)
    expected, oracle_nodes = oracle_search(n, k, groups)
    if n == 0:
        # The oracle never starts on an empty list of copies; the empty
        # colouring leaves no group monochromatic (there are none).
        assert groups == [] and colouring == [] and expected is None
        return
    assert colouring == expected
    assert nodes <= oracle_nodes
    if nodes:
        assert colouring_search(n, k, groups, node_budget=nodes) == (colouring, nodes)
        with pytest.raises(CapError):
            colouring_search(n, k, groups, node_budget=nodes - 1)
