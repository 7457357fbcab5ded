"""Deterministic reductions shared by the loss engine and trainer.

A batch's loss sums are exact_sum(case_sums(values, sizes)): each case by
its own fixed pairwise tree, then the case sums by one exactly rounded
sum, so a sum is reproducible and independent of case order and of how
the cases are split into contiguous shards.  The trees run chunk by chunk
(chunk_table: runs of whole cases, or pieces of one large case, of at
most _CHUNK values) in two chunk-sized buffers, by steps laid out once
per layout (ChunkTrees), and give the same bits as one tree per case.
The loss phases drive ChunkTrees directly; case_sums and pairwise_sum
stay here as the public form of these sums, which the tests check and
the benchmark's probes time (bench/probes.py times pairwise_sum).

A sum whose terms are zero outside a few known positions (the lesion
voxels) need not visit the zeros: sparse_case_sums runs the same trees
over the nonzero positions only, following a merge schedule built once
per layout, and returns the same bits as case_sums over the full layout.

A case sum with one leaf changed need not run its whole tree again:
tree_levels keeps every level of a case's tree, and path_sums rebuilds
only the changed leaf's path to the root, for many single-leaf changes
at once.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np


_CHUNK = 1 << 16    # voxels of a chunk, a power of two: 512 KiB of float64


def _tree_steps(k: int, m: int, src: np.ndarray, dst: np.ndarray):
    """The steps of the fixed-shape pairwise tree of each row of a
    C-contiguous (k, m) block held at the front of the flat buffer src:
    pad odd levels with a zero column, then add neighbouring columns.
    Each step is an np.add(a, b, out=out) triple of views, and each level
    goes into the other of src's and dst's memory (dst holds at least
    k * m values).  Returns the steps and the view that holds the k sums
    once they have run."""
    if m == 0:
        return [], np.zeros(k)
    steps = []
    while m > 1:
        half, odd = m // 2, m & 1
        level = src[:k * m].reshape(k, m)
        out = dst[:k * (half + odd)].reshape(k, half + odd)
        steps.append((level[:, 0:2 * half:2], level[:, 1:2 * half:2], out[:, :half]))
        if odd:    # the padded pair: x + 0.0
            steps.append((level[:, m - 1], 0.0, out[:, half]))
        src, dst, m = dst, src, half + odd
    return steps, src[:k]


@dataclass(frozen=True)
class Chunk:
    """A contiguous run [start, stop) of a batch laid out case after case.

    With parts == 0 it holds rows whole cases of equal size; otherwise it
    is one of the parts _CHUNK-aligned pieces of a case larger than
    _CHUNK (rows == 1).  Its tree nodes are then the nodes of that case's
    tree at level log2(_CHUNK), where the dense tree adds 0.0 to the node
    of a last piece of at most _CHUNK / 2 voxels (pad): its own tree
    stops below that level, the case's keeps pairing it with padding.
    """

    start: int
    stop: int
    rows: int
    parts: int = 0
    pad: bool = False

    @property
    def shape(self) -> tuple[int, int]:
        return self.rows, (self.stop - self.start) // self.rows


def chunk_table(sizes) -> tuple[Chunk, ...]:
    """The chunks of a layout of cases of the given sizes: each run of
    equal-size cases of at most _CHUNK voxels in runs of at most _CHUNK
    voxels, and each larger case in _CHUNK-aligned pieces.  The table
    depends on the sizes alone."""
    chunks, start = [], 0
    for n, run in itertools.groupby(sizes):
        k = len(list(run))
        if n <= _CHUNK:
            per = _CHUNK // n if n else k
            for first in range(0, k, per):
                rows = min(per, k - first)
                chunks.append(Chunk(start, start + rows * n, rows))
                start += rows * n
            continue
        parts = -(-n // _CHUNK)
        for _ in range(k):
            for a in range(0, n, _CHUNK):
                b = min(a + _CHUNK, n)
                chunks.append(Chunk(start + a, start + b, 1, parts,
                                    b == n and b - a <= _CHUNK // 2))
            start += n
    return tuple(chunks)


class ChunkTrees:
    """The chunk table of a layout of cases (chunk_table(sizes)), two
    chunk-sized buffers, and for each shape of its chunks the steps of the
    pairwise tree over those buffers, laid out once: a chunk's values go
    into the front of leaves, nodes(chunk) runs their tree (overwriting
    leaves and spare), and join turns every chunk's nodes into case sums."""

    def __init__(self, sizes):
        self.chunks = chunk_table(sizes)
        width = max((c.stop - c.start for c in self.chunks), default=0)
        self.leaves, self.spare = np.empty(width), np.empty(width)
        self._trees = {}
        for c in self.chunks:
            if c.shape not in self._trees:
                self._trees[c.shape] = _tree_steps(*c.shape, self.leaves, self.spare)

    def nodes(self, chunk: Chunk) -> list[float]:
        """The tree nodes of chunk's values in leaves: one sum per whole
        case, or the piece's node."""
        steps, sums = self._trees[chunk.shape]
        for a, b, out in steps:
            np.add(a, b, out=out)
        nodes = sums.tolist()
        return [x + 0.0 for x in nodes] if chunk.pad else nodes

    def join(self, nodes) -> list[float]:
        """The case sums from each chunk's nodes, in table order: a whole
        case's node is its sum, and the nodes of a case's pieces go
        through the same tree above the pieces' level (tree_levels)."""
        sums, parts = [], []
        for chunk, got in zip(self.chunks, nodes):
            if not chunk.parts:
                sums.extend(got)
                continue
            parts += got
            if len(parts) == chunk.parts:
                sums.append(float(tree_levels(np.array(parts))[-1][0]))
                parts = []
        return sums


def tree_levels(leaves: np.ndarray) -> list[np.ndarray]:
    """Every level of the pairwise tree of one case's float64 leaves, from
    the leaves themselves (level 0, kept as given) up to the root's level
    of one node: about 2 * leaves.size values in all.  The root is the
    case's sum from case_sums, bit for bit: its chunks' trees are this
    tree's subtrees."""
    levels = [leaves]
    while levels[-1].size > 1:
        v = levels[-1]
        half, odd = divmod(v.size, 2)
        up = np.empty(half + odd)
        np.add(v[0:2 * half:2], v[1:2 * half:2], out=up[:half])
        if odd:    # the padded pair: x + 0.0
            np.add(v[-1:], 0.0, out=up[half:])
        levels.append(up)
    return levels


def path_sums(levels, positions, leaves) -> np.ndarray:
    """The root of the tree of levels (tree_levels) with the leaf at
    positions[i] replaced by leaves[i], for each i on its own, in
    O(len(levels)) per leaf: each path is rebuilt from its new leaf up as
    new child + old sibling, or + 0.0 where the child is a level's odd
    last node.  IEEE addition commutes, so each root has the bits of the
    whole tree laid out again over its changed leaf."""
    node = np.array(leaves, dtype=np.float64)
    pos = np.array(positions, dtype=np.int64)
    for level in levels[:-1]:
        sibling = pos ^ 1
        lone = sibling == level.size
        other = level[np.minimum(sibling, level.size - 1)]
        other[lone] = 0.0
        node += other
        pos >>= 1
    return node


def pairwise_sum(values) -> float:
    """Sum an array with a fixed-shape pairwise tree.

    The tree depends only on element order, never on chunking or thread
    count, so the result is bit-reproducible for a given input order.
    """
    v = np.asarray(values, dtype=np.float64).ravel()
    return case_sums(v, [v.size])[0]


def exact_sum(values) -> float:
    """Exactly rounded float sum; invariant to input ordering."""
    return math.fsum(values)


def case_sums(values, sizes) -> list[float]:
    """The per-case sums of a batch laid out case after case in one flat
    array (case i holds sizes[i] values), each by the pairwise tree of
    pairwise_sum.

    The batch goes through the tree chunk by chunk (ChunkTrees): a chunk
    of k equal-size cases is one (k, n) block, which adds the same pairs
    as k separate trees, and a larger case's pieces are the subtrees
    below one level of its tree, so every case sum is bit-identical to
    pairwise_sum of that case alone.
    """
    v = np.asarray(values, dtype=np.float64).ravel()
    if v.size != sum(sizes):
        raise ValueError(f"{v.size} values do not fill cases of sizes {sizes}")
    trees = ChunkTrees(sizes)
    nodes = []
    for c in trees.chunks:
        np.copyto(trees.leaves[:c.stop - c.start], v[c.start:c.stop])
        nodes.append(trees.nodes(c))
    return trees.join(nodes)


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
