"""Deterministic reductions shared by the loss engine and trainer.

A batch's loss sums are exact_sum(case_sums(values, sizes)): each case by
its own fixed pairwise tree, then the case sums by one exactly rounded
sum, so a sum is reproducible and independent of case order and of how
the cases are split into contiguous shards.

A sum whose terms are zero outside a few known positions (the lesion
voxels) need not visit the zeros: sparse_case_sums runs the same trees
over the nonzero positions only, following a merge schedule built once
per layout, and returns the same bits as case_sums over the full layout.
"""

import itertools
import math
from dataclasses import dataclass

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


@dataclass(frozen=True)
class MergeSchedule:
    """Where the pairwise trees of a batch's cases meet a set of positions.

    levels holds, for each tree level at which some pair of nodes meets,
    the np.add.reduceat starts that add each such pair (a node whose
    sibling subtree holds no position passes through alone).  cases is
    the number of cases, roots the case of each node left at the top (one
    per case that holds a position) and pad marks the leaves that get
    "+ 0.0" first (see merge_schedule).
    """

    cases: int
    levels: tuple[np.ndarray, ...]
    roots: np.ndarray
    pad: np.ndarray


def merge_schedule(positions, sizes) -> MergeSchedule:
    """The merge schedule of ascending flat positions in a layout of cases
    of the given sizes.

    Each level halves the in-case node ids, as the tree does; a node's key
    is case * stride + id with a power-of-two stride of at least every
    size, so halving the key halves the id and keeps cases apart.

    The dense tree adds a zero (of padding or of a position outside the
    set) to every node whose sibling holds no position; the schedule
    leaves that node alone instead.  x + 0.0 is x except that -0.0 turns
    into +0.0, and a sum is -0.0 only when both addends are, so adding
    0.0 to each leaf first gives the dense bits, except in a case whose
    every voxel is a position and whose size is a power of two: there no
    zero is ever added, the tree is the dense one, and its leaves keep
    their sign.
    """
    pos = np.asarray(positions, dtype=np.int64)
    size = np.asarray(sizes, dtype=np.int64)
    stops = np.cumsum(size)
    case = np.searchsorted(stops, pos, side="right")
    stride = 1 << (int(size.max(initial=1)) - 1).bit_length()
    key = pos - (stops - size)[case] + case * stride
    whole = ((np.bincount(case, minlength=size.size) == size) & (size > 0)
             & ((size & (size - 1)) == 0))
    pad = ~whole[case]
    levels = []
    for _ in range(stride.bit_length() - 1):
        key >>= 1
        first = np.ones(key.size, dtype=bool)
        np.not_equal(key[1:], key[:-1], out=first[1:])
        if not first.all():
            starts = np.flatnonzero(first)
            levels.append(starts)
            key = key[starts]
    return MergeSchedule(size.size, tuple(levels), key, pad)


def sparse_case_sums(terms, schedule: MergeSchedule) -> np.ndarray:
    """The per-case sums of k rows of terms, one term per position of
    schedule, as a (k, cases) array: row j, case i is case_sums of the
    layout that holds row j's terms at the positions and +0.0 elsewhere,
    bit for bit."""
    v = np.array(terms, dtype=np.float64, ndmin=2)
    if v.shape[1] != schedule.pad.size:
        raise ValueError(f"{v.shape[1]} terms for {schedule.pad.size} positions")
    np.add(v, 0.0, out=v, where=schedule.pad)
    for starts in schedule.levels:
        v = np.add.reduceat(v, starts, axis=1)
    sums = np.zeros((v.shape[0], schedule.cases))
    sums[:, schedule.roots] = v
    return sums
