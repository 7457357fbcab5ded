"""Deterministic reductions shared by the loss engine and trainer.

A batch's loss sums are exact_sum(case_sums(values, sizes)): each case by
its own fixed pairwise tree, then the case sums by one exactly rounded
sum, so a sum is reproducible and independent of case order and of how
the cases are split into contiguous shards.
"""

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


def case_sums(values, sizes) -> list[float]:
    """The per-case sums of a batch laid out case after case in one flat
    array (case i holds sizes[i] values), each by the pairwise tree of
    pairwise_sum.

    Each run of consecutive equal-size cases goes through the tree as one
    (k, n) block, which adds the same pairs as k separate trees, so every
    case sum is bit-identical to pairwise_sum of that case alone.
    """
    v = np.asarray(values, dtype=np.float64).ravel()
    if v.size != sum(sizes):
        raise ValueError(f"{v.size} values do not fill cases of sizes {sizes}")
    sums = []
    start = 0
    for n, run in itertools.groupby(sizes):
        k = len(list(run))
        sums.extend(_tree_rows(v[start:start + k * n].reshape(k, n)).tolist())
        start += k * n
    return sums
