"""Connected-lesion labeling and per-lesion volume measurement."""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .volume import GridShape, Mask, Volume, _freeze


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
        labels = np.asarray(self.labels, dtype=np.int32)
        if labels.shape != self.shape.dims:
            raise ValueError("labels grid does not match shape dims")
        n = len(self.volumes)
        if labels.min(initial=0) < 0 or labels.max(initial=0) != n:
            raise ValueError("labels must cover the contiguous range 0..L")
        counts = np.bincount(labels.ravel(), minlength=n + 1)
        if n and (counts[1:] == 0).any():
            raise ValueError("labels must cover the contiguous range 0..L")
        if tuple(int(c) for c in counts[1:]) != tuple(int(v) for v in self.volumes):
            raise ValueError("volumes do not match label counts")
        object.__setattr__(self, "labels", _freeze(labels.copy()))
        object.__setattr__(self, "volumes", tuple(int(v) for v in self.volumes))

    @property
    def lesion_count(self) -> int:
        return len(self.volumes)


def _raw_labels(mask: Mask, connectivity: Connectivity) -> tuple[np.ndarray, int]:
    """scipy's labeling of a mask's foreground: int32 ids 1..n in the
    labeling pass's own order (0 = background) and the count n."""
    return ndimage.label(mask.data, structure=_STRUCTURES[connectivity])


def label_components(
    mask: Mask, connectivity: Connectivity = DEFAULT_CONNECTIVITY
) -> LesionLabeling:
    """Label connected foreground components of a mask.

    Component ids are assigned by the x-fastest scan position of each
    component's first voxel, so labels are reproducible regardless of
    the underlying labeling pass.
    """
    raw, n = _raw_labels(mask, connectivity)
    if n == 0:
        return LesionLabeling(mask.shape, np.zeros(mask.shape.dims, np.int32), ())
    flat = raw.ravel(order="F")
    nonzero = np.flatnonzero(flat)
    uniq, first_pos = np.unique(flat[nonzero], return_index=True)
    remap = np.zeros(n + 1, dtype=np.int32)
    remap[uniq[np.argsort(first_pos, kind="stable")]] = np.arange(1, n + 1)
    labels = remap[raw]
    volumes = np.bincount(labels.ravel(), minlength=n + 1)[1:]
    return LesionLabeling(mask.shape, labels, tuple(int(v) for v in volumes))


def lesion_volume_mm3(labeling: LesionLabeling, lesion_id: int) -> float:
    """Physical volume of one lesion: voxel count times voxel volume."""
    if not 1 <= lesion_id <= labeling.lesion_count:
        raise ValueError(
            f"lesion id {lesion_id} out of range 1..{labeling.lesion_count}"
        )
    return labeling.volumes[lesion_id - 1] * labeling.shape.voxel_volume_mm3


def labeling_to_volume(labeling: LesionLabeling) -> Volume:
    """Export label ids as a float32 volume for inspection."""
    return Volume(labeling.shape, labeling.labels.astype(np.float32))
