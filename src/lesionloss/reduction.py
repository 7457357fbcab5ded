"""Deterministic reductions shared by the loss engine and trainer."""

import itertools
import math

import numpy as np


def _tree_rows(block: np.ndarray) -> np.ndarray:
    """Sum each row of a (k, n) block with the fixed-shape pairwise tree:
    pad odd levels with a zero column, then add neighbouring columns."""
    if block.shape[1] == 0:
        return np.zeros(block.shape[0])
    while block.shape[1] > 1:
        if block.shape[1] & 1:
            block = np.concatenate([block, np.zeros((block.shape[0], 1))], axis=1)
        block = block[:, 0::2] + block[:, 1::2]
    return block[:, 0]


def pairwise_sum(values) -> float:
    """Sum an array with a fixed-shape pairwise tree.

    The tree depends only on element order, never on chunking or thread
    count, so the result is bit-reproducible for a given input order.
    """
    v = np.asarray(values, dtype=np.float64).ravel()
    return float(_tree_rows(v.reshape(1, -1))[0])


def exact_sum(values) -> float:
    """Exactly rounded float sum; invariant to input ordering."""
    return math.fsum(float(x) for x in values)


def batch_sum(values, sizes) -> float:
    """The loss reduction over a batch laid out case after case in one flat
    array (case i holds sizes[i] values): each case summed by the pairwise
    tree of pairwise_sum, then the case sums combined by exact_sum.

    Each run of consecutive equal-size cases goes through the tree as one
    (k, n) block, which adds the same pairs as k separate trees, so the
    result is bit-identical to summing case by case: reproducible and
    independent of case order.
    """
    v = np.asarray(values, dtype=np.float64).ravel()
    if v.size != sum(sizes):
        raise ValueError(f"{v.size} values do not fill cases of sizes {sizes}")
    sums = []
    start = 0
    for n, run in itertools.groupby(sizes):
        k = len(list(run))
        sums.extend(_tree_rows(v[start:start + k * n].reshape(k, n)))
        start += k * n
    return exact_sum(sums)
