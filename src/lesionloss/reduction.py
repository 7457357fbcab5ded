"""Deterministic reductions shared by the loss engine and trainer.

A batch's full-grid loss sums (FP and CE; a lesion-voxel sum is each
case's exact_sum) are exact_sum(case_sums(values, sizes)): each case by
its own fixed pairwise tree, then the case sums by one exactly rounded
sum, so a sum is reproducible and independent of case order and of how
the cases are split into contiguous shards.  The trees run chunk by chunk
(chunk_table: runs of whole cases, or pieces of one large case, of at
most _CHUNK values) in two chunk-sized buffers, by steps laid out once
per layout (ChunkTrees), and give one tree per case's bits, but for a
zero sum's sign, which follows the chunk table (the case sizes alone,
never case order, shards or threads) and which no value reads, since
exact_sum (math.fsum) of zeros is +0.0.  The loss phases drive
ChunkTrees directly; case_sums and pairwise_sum stay here as the public
form of these sums, which the tests check and bench/probes.py times
(pairwise_sum).

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
    _CHUNK (rows == 1), whose tree nodes are those of that case's tree at
    level log2(_CHUNK), but for a zero node's sign: the tree of a last
    piece of at most _CHUNK / 2 voxels stops below that level, where the
    case's tree adds the padding's 0.0 to it.
    """

    start: int
    stop: int
    rows: int
    parts: int = 0

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
                chunks.append(Chunk(start + a, start + b, 1, parts))
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
        return sums.tolist()

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
    case's sum from case_sums, bit for bit but for a zero sum's sign: its
    chunks' trees are this tree's subtrees (see Chunk)."""
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
