import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lesionloss import reduction
from lesionloss.reduction import (
    case_sums,
    chunk_table,
    exact_sum,
    pairwise_sum,
)

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


@st.composite
def _chunked_layouts(draw):
    """A chunk size (4, 8 or 64) and a layout of cases at and around its
    multiples (k chunks -1, +0 and +1, and k and a half chunks -1, +0 and
    +1, where a last piece's tree starts to stop below the chunk level),
    in runs of equal sizes; the values mixed, mixed with zeros of both
    signs, or all -0.0."""
    chunk = draw(st.sampled_from([4, 8, 64]))
    near = st.builds(lambda k, half, d: max(0, k * chunk + half * chunk // 2 + d),
                     st.integers(0, 4), st.integers(0, 1), st.integers(-1, 1))
    pool = draw(st.lists(st.one_of(near, st.integers(0, 3 * chunk)),
                         min_size=1, max_size=3))
    sizes = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=6))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    values = rng.standard_normal(sum(sizes)) * draw(st.sampled_from([1.0, 1e300]))
    leaves = draw(st.sampled_from(["mixed", "signed zeros", "all -0.0"]))
    if leaves == "signed zeros":
        zeros = rng.random(values.size) < 0.8
        values[zeros] = rng.choice([0.0, -0.0], values.size)[zeros]
    elif leaves == "all -0.0":
        values[:] = -0.0
    return chunk, sizes, values


@given(layout=_chunked_layouts())
@settings(max_examples=300, deadline=None)
def test_streamed_case_sums_are_each_case_alone(layout):
    chunk, sizes, values = layout
    cases = np.split(values, np.cumsum(sizes)[:-1])
    want = [pairwise_sum(c).hex() for c in cases]    # one tree per case
    assert want == [_tree_sum(c).hex() for c in cases]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(reduction, "_CHUNK", chunk)
        table = chunk_table(sizes)
        got = case_sums(values, sizes)
    # a padded last piece keeps a zero sum's sign where the dense tree
    # adds 0.0; + 0.0 changes nothing but that sign, which no value reads
    assert [(s + 0.0).hex() for s in got] == [(float.fromhex(s) + 0.0).hex()
                                             for s in want]
    # the chunks tile the layout, and each holds at most a chunk
    assert [c.start for c in table[1:]] == [c.stop for c in table[:-1]]
    assert table[0].start == 0 and table[-1].stop == sum(sizes)
    assert all(c.stop - c.start <= chunk for c in table)


def test_case_sums_rejects_a_layout_that_does_not_fill_the_values():
    with pytest.raises(ValueError, match="do not fill"):
        case_sums(np.ones(5), [2, 2])


def test_exact_sum_of_zeros_is_positive_zero():
    # every case sum reaches a value through exact_sum, so a zero case
    # sum's sign never reaches one
    for zeros in ([-0.0], [-0.0, -0.0], [0.0, -0.0], []):
        assert exact_sum(zeros).hex() == "0x0.0p+0"


@st.composite
def _leaf_changes(draw):
    """One case's values (mixed, mixed with zeros of both signs, or all
    -0.0; its size empty-free, odd, a power of two or neither), some of
    its positions and a new value for each, drawn the same way."""
    n = draw(st.sampled_from([1, 2, 3, 4, 7, 8, 9, 13, 64, 100, 343]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    scale = draw(st.sampled_from([1.0, 1e-300, 1e300]))
    zeros = draw(st.sampled_from([0.0, 0.8, 1.0]))

    def values(size):
        v = rng.standard_normal(size) * scale
        z = rng.random(size) < zeros
        v[z] = rng.choice([0.0, -0.0], size)[z]
        return v

    positions = rng.integers(0, n, draw(st.integers(1, 12)))
    return values(n), positions, values(positions.size)


@given(change=_leaf_changes())
@settings(max_examples=200, deadline=None)
def test_path_sums_are_the_trees_of_each_changed_case(change):
    values, positions, leaves = change
    levels = reduction.tree_levels(values)
    assert levels[0] is values and levels[-1].size == 1
    assert float(levels[-1][0]).hex() == pairwise_sum(values).hex()
    want = []
    for j, x in zip(positions, leaves):
        changed = values.copy()
        changed[j] = x
        want.append(pairwise_sum(changed))
    got = reduction.path_sums(levels, positions, leaves)
    assert got.tobytes() == np.array(want).tobytes()
    assert float(levels[-1][0]).hex() == pairwise_sum(values).hex()
