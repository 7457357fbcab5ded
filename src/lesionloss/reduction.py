"""Deterministic reductions shared by the loss engine and trainer."""

import math

import numpy as np


def pairwise_sum(values) -> float:
    """Sum an array with a fixed-shape pairwise tree.

    The tree depends only on element order, never on chunking or thread
    count, so the result is bit-reproducible for a given input order.
    """
    v = np.asarray(values, dtype=np.float64).ravel()
    if v.size == 0:
        return 0.0
    while v.size > 1:
        if v.size & 1:
            v = np.concatenate([v, [0.0]])
        v = v[0::2] + v[1::2]
    return float(v[0])


def exact_sum(values) -> float:
    """Exactly rounded float sum; invariant to input ordering."""
    return math.fsum(float(x) for x in values)


def batch_sum(cases) -> float:
    """The loss reduction: each case's terms summed by the pairwise tree,
    then the case sums combined exactly, so the result is reproducible and
    independent of case order."""
    return exact_sum(pairwise_sum(terms) for terms in cases)
