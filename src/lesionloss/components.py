"""Connected-lesion labeling and per-lesion volume measurement.

_flat_labels is the one lesion labeling, read by every stage.  Its id
order, the x-fastest scan rank of each lesion's first voxel, is scipy's own
scan-order numbering of the (z, y, x) grid; the Hypothesis test against the
flood-fill oracle in tests/test_components.py pins it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .volume import GridShape, Mask, Volume, _flat, _grid, _store, _zyx


class Connectivity(enum.Enum):
    SIX = 6
    EIGHTEEN = 18
    TWENTY_SIX = 26


_STRUCTURES = {
    Connectivity.SIX: ndimage.generate_binary_structure(3, 1),
    Connectivity.EIGHTEEN: ndimage.generate_binary_structure(3, 2),
    Connectivity.TWENTY_SIX: ndimage.generate_binary_structure(3, 3),
}

DEFAULT_CONNECTIVITY = Connectivity.TWENTY_SIX


@dataclass(frozen=True)
class LesionLabeling:
    """Per-voxel component ids (0 = background) plus per-lesion voxel counts."""

    shape: GridShape
    labels: np.ndarray
    volumes: tuple[int, ...]

    def __post_init__(self):
        labels = _store(self.labels, np.int32)
        if labels.shape != self.shape.dims:
            raise ValueError("labels grid does not match shape dims")
        n = len(self.volumes)
        if labels.min(initial=0) < 0 or labels.max(initial=0) != n:
            raise ValueError("labels must cover the contiguous range 0..L")
        counts = np.bincount(_flat(labels), minlength=n + 1)
        if n and (counts[1:] == 0).any():
            raise ValueError("labels must cover the contiguous range 0..L")
        if tuple(int(c) for c in counts[1:]) != tuple(int(v) for v in self.volumes):
            raise ValueError("volumes do not match label counts")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "volumes", tuple(int(v) for v in self.volumes))

    @property
    def lesion_count(self) -> int:
        return len(self.volumes)


def _flat_labels(fg, dims, connectivity: Connectivity) -> np.ndarray:
    """Lesion ids 1..n (int32, 0 = background) of the foreground fg of a
    grid of dims, both flat in x-fastest order: scipy labels fg as the
    C-ordered (z, y, x) grid (_zyx).  connectivity is a Connectivity or its
    value; anything else raises ValueError."""
    ids, _ = ndimage.label(_zyx(fg, dims),
                           structure=_STRUCTURES[Connectivity(connectivity)])
    return ids.ravel()


def label_components(
    mask: Mask, connectivity: Connectivity = DEFAULT_CONNECTIVITY
) -> LesionLabeling:
    """Label connected foreground components of a mask.

    Component ids are assigned by the x-fastest scan position of each
    component's first voxel (_flat_labels).
    """
    dims = mask.shape.dims
    ids = _flat_labels(_flat(mask.data), dims, connectivity)
    return LesionLabeling(mask.shape, _grid(ids, dims),
                          tuple(np.bincount(ids)[1:].tolist()))


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
