import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lesionloss.reduction import case_sums, exact_sum, pairwise_sum

from oracles import _tree_sum

# empty, single, odd, power-of-two and criterion-7 (24^3) case sizes
_SIZES = st.sampled_from([0, 1, 2, 3, 7, 8, 64, 343, 1000, 13824])


@st.composite
def _layouts(draw):
    """Case sizes with runs of equal sizes, e.g. [n, n, m, n], and the
    values of a batch laid out case after case."""
    pool = draw(st.lists(_SIZES, min_size=1, max_size=3))
    sizes = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=6))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    scale = draw(st.sampled_from([1.0, 1e-300, 1e300]))
    return sizes, rng.standard_normal(sum(sizes)) * scale


@given(layout=_layouts())
@settings(max_examples=60, deadline=None)
def test_batch_reduction_is_case_by_case_tree_then_exact_sum(layout):
    sizes, values = layout
    stops = np.cumsum(sizes)
    cases = np.split(values, stops[:-1])
    want = exact_sum(pairwise_sum(c) for c in cases)
    assert exact_sum(case_sums(values, sizes)).hex() == want.hex()


@given(layout=_layouts())
@settings(max_examples=60, deadline=None)
def test_case_sums_are_the_per_case_trees(layout):
    sizes, values = layout
    cases = np.split(values, np.cumsum(sizes)[:-1])
    got = case_sums(values, sizes)
    assert [s.hex() for s in got] == [pairwise_sum(c).hex() for c in cases]


@given(layout=_layouts())
@settings(max_examples=30, deadline=None)
def test_pairwise_sum_matches_reference_tree(layout):
    _, values = layout
    assert pairwise_sum(values).hex() == _tree_sum(values).hex()


def test_case_sums_rejects_a_layout_that_does_not_fill_the_values():
    with pytest.raises(ValueError, match="do not fill"):
        case_sums(np.ones(5), [2, 2])
