"""Connected-lesion labeling and per-lesion volume measurement.

_lesion_ids is the one lesion labeling, read by every stage: the ids of
a mask's foreground voxels, taken at their flat x-fastest positions.  Its
id order, the x-fastest scan rank of each lesion's first voxel, is scipy's
own scan-order numbering of the (z, y, x) grid; the Hypothesis tests
against the flood-fill oracle and scipy in tests/test_components.py pin it.

It works on the foreground positions alone (He, Chao & Suzuki, IEEE TIP
2008), so its cost follows the lesions' runs, not the grid.  It splits the
positions into x-runs, breaking at every gap and row start; joins each run
to the runs within an x reach of 0 or 1 (set by the connectivity) of its
span in its forward neighbour rows, (dy, dz) in (1, 0), (0, 1), (-1, 1),
(1, 1), which two searchsorted calls over the runs' start and end positions
find (positions in a grid padded with an empty x column and y row, so that
nothing wraps into the next row or plane); merges the run graph by
min-label hooking and pointer jumping; and numbers the components in the
order of their first runs, which is the scan order of their first voxels.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .volume import GridShape, Mask, Volume, _adopt, _flat, _grid, _store


class Connectivity(enum.Enum):
    SIX = 6
    EIGHTEEN = 18
    TWENTY_SIX = 26


DEFAULT_CONNECTIVITY = Connectivity.TWENTY_SIX


@dataclass(frozen=True)
class LesionLabeling:
    """Per-voxel component ids (0 = background) plus per-lesion voxel
    counts, which it counts from the labels."""

    shape: GridShape
    labels: np.ndarray
    volumes: tuple[int, ...] = field(init=False)

    def __post_init__(self):
        labels = np.asarray(self.labels)
        if labels.dtype.kind not in "biu":
            raise ValueError(f"labels must be integer ids, got {labels.dtype}")
        if not np.can_cast(labels.dtype, np.int32) and not (    # the cast would wrap
                0 <= labels.min(initial=0) and labels.max(initial=0) < 2**31):
            raise ValueError("label ids must lie in 0..2**31 - 1")
        labels = _store(labels, np.int32, self.shape.dims)
        flat = _flat(labels)
        counts = np.bincount(flat[flat > 0])[1:]    # labels are mostly 0
        if labels.min(initial=0) < 0 or not counts.all():
            raise ValueError("labels must cover the contiguous range 0..L")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "volumes", tuple(counts.tolist()))

    @property
    def lesion_count(self) -> int:
        return len(self.volumes)


# The forward neighbour rows of a run, (dy, dz, reach): the row at y + dy,
# z + dz holds a neighbour of the run where one of its runs comes within
# reach of the run's x span.  The other four rows are the backward ones,
# whose runs find this run as a forward neighbour.
_FORWARD = {
    Connectivity.SIX: np.array([(1, 0, 0), (0, 1, 0)]).T,
    Connectivity.EIGHTEEN: np.array([(1, 0, 1), (0, 1, 1), (-1, 1, 0), (1, 1, 0)]).T,
    Connectivity.TWENTY_SIX: np.array([(1, 0, 1), (0, 1, 1), (-1, 1, 1), (1, 1, 1)]).T,
}


def _lesion_ids(pos, dims, connectivity: Connectivity) -> np.ndarray:
    """Lesion ids 1..n of the foreground voxels at the ascending flat
    x-fastest positions pos of a grid of dims: the runs of consecutive
    positions within a row, joined to their forward neighbours and merged
    (see the module docstring).  connectivity is a Connectivity or its
    value; anything else raises ValueError."""
    dy, dz, reach = _FORWARD[Connectivity(connectivity)]
    nx, ny, _ = dims
    k = pos.size
    new = np.empty(k, dtype=bool)    # a run starts at each gap and row start
    new[:1] = True
    np.not_equal(pos[1:], pos[:-1] + 1, out=new[1:])
    new |= pos % nx == 0
    first = np.flatnonzero(new)
    size = np.diff(first, append=k)
    # positions in the grid padded with an empty x column and an empty y
    # row, so that no neighbour row or x reach wraps onto a run
    row = pos[first] // nx
    start = pos[first] + row + row // ny * (nx + 1)
    end = start + size - 1
    shift = (dy + dz * (ny + 1)) * (nx + 1)
    # for each direction in turn (so the queries come sorted), the runs of
    # the neighbour row that overlap a run's x span widened by reach: count
    # runs from nbr, the first to end at or after the span's lo.  They give
    # the edges a -> b, a < b.
    lo = (start + (shift - reach)[:, None]).ravel()
    nbr = np.searchsorted(end, lo)
    count = np.searchsorted(start, (end + (shift + reach)[:, None]).ravel(),
                            side="right") - nbr
    a = np.repeat(np.arange(lo.size) % start.size, count)
    b = np.repeat(nbr - np.cumsum(count) + count, count)
    b += np.arange(b.size)
    # min-label hooking: every root hooks to the smallest root it shares an
    # edge with, pointer jumping takes each run to its root, and the edges
    # between two roots are left for the next round.  Runs only point to
    # earlier runs, so a component's root is its first run.
    root = np.arange(start.size)
    while a.size:
        np.minimum.at(root, b, a)    # a < b
        up = root[root]
        while not (up == root).all():
            root, up = up, up[up]
        a, b = root[a], root[b]
        keep = a != b
        a, b = np.minimum(a[keep], b[keep]), np.maximum(a[keep], b[keep])
    ids = np.cumsum(root == np.arange(root.size))[root]
    return np.repeat(ids, size)


def label_components(
    mask: Mask, connectivity: Connectivity = DEFAULT_CONNECTIVITY
) -> LesionLabeling:
    """Label connected foreground components of a mask.

    Component ids are assigned by the x-fastest scan position of each
    component's first voxel (_lesion_ids), and scattered into a new grid,
    which is handed over as it is (volume._adopt) with the ids' counts.
    """
    dims = mask.shape.dims
    pos = np.flatnonzero(_flat(mask.data))
    ids = _lesion_ids(pos, dims, connectivity)
    labels = np.zeros(mask.shape.voxel_count, dtype=np.int32)
    labels[pos] = ids
    return _adopt(LesionLabeling, shape=mask.shape, labels=_grid(labels, dims),
                  volumes=tuple(np.bincount(ids)[1:].tolist()))


def lesion_volume_mm3(labeling: LesionLabeling, lesion_id: int) -> float:
    """Physical volume of one lesion: voxel count times voxel volume."""
    if not 1 <= lesion_id <= labeling.lesion_count:
        raise ValueError(
            f"lesion id {lesion_id} out of range 1..{labeling.lesion_count}"
        )
    return labeling.volumes[lesion_id - 1] * labeling.shape.voxel_volume_mm3


def labeling_to_volume(labeling: LesionLabeling) -> Volume:
    """Export label ids as a float32 volume for inspection."""
    return Volume(labeling.shape, labeling.labels)
