"""Size-adaptive lesion weight curve and per-voxel weight maps.

The weight for a lesion of volume v is

    omega(v) = w_max - (w_max - w_min) / (1 + a_shift * exp(-k * v / vrange))

a falling logistic running from just under w_max at v = 0 toward w_min
as v grows.  With a_shift = exp(k/2) the midpoint (w_max + w_min)/2 sits
at v = vrange/2.  Voxels of a lesion all carry the weight of that
lesion's volume; background voxels carry w_min.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .components import LesionLabeling
from .volume import GridShape, Volume, _adopt, _flat, _grid, _store

# default curve shift: sqrt(e^7) = e^3.5
DEFAULT_A_SHIFT = math.exp(3.5)


@dataclass(frozen=True)
class WeightCurveParams:
    w_max: float = 10.0
    w_min: float = 1.0
    vrange: float = 350.0
    k: float = 7.0
    a_shift: float = DEFAULT_A_SHIFT

    def __post_init__(self):
        names = ("w_max", "w_min", "vrange", "k", "a_shift")
        for name in names:    # each message leads with its parameter
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if not self.w_min > 0.0:
            raise ValueError("w_min must be positive")
        if not self.w_max >= self.w_min:
            raise ValueError("w_max must be >= w_min")
        for name in names[2:]:
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive")


@dataclass(frozen=True)
class WeightMap:
    """Per-voxel positive weights, float64, indexed [x, y, z]."""

    shape: GridShape
    weights: np.ndarray

    def __post_init__(self):
        w = _store(self.weights, np.float64, self.shape.dims)
        if not np.isfinite(w).all() or (w <= 0.0).any():
            raise ValueError("weights must be positive and finite")
        object.__setattr__(self, "weights", w)


def omega(v: float, params: WeightCurveParams | None = None) -> float:
    """Weight for a lesion of volume v (same units as vrange)."""
    p = params if params is not None else WeightCurveParams()
    v = float(v)
    if not v >= 0.0:
        raise ValueError(f"lesion volume must be >= 0, got {v}")
    return p.w_max - (p.w_max - p.w_min) / (1.0 + p.a_shift * math.exp(-p.k * v / p.vrange))


def build_weight_map(
    labeling: LesionLabeling,
    params: WeightCurveParams | None = None,
    volume_scale: float = 1.0,
) -> WeightMap:
    """Per-voxel weight map: omega of the enclosing lesion's volume.

    volume_scale converts voxel counts before the curve is applied (pass
    the voxel volume in mm^3 for physical units); background stays w_min.
    The map's grid, new and read from a checked lut, is handed over as it
    is (volume._adopt).
    """
    if not volume_scale > 0.0:
        raise ValueError("volume_scale must be positive")
    lut = _omega_lut(labeling.volumes, params, volume_scale)
    weights = _grid(lut[_flat(labeling.labels)], labeling.shape.dims)
    return _adopt(WeightMap, shape=labeling.shape, weights=weights)


def _omega_lut(volumes, params: WeightCurveParams | None = None,
               volume_scale: float = 1.0) -> np.ndarray:
    """Weight by label: w_min at 0, then omega of each lesion's voxel count
    times volume_scale, taken once per distinct count.  Every entry is
    checked positive and finite, as a WeightMap's weights are."""
    p = params if params is not None else WeightCurveParams()
    counts = [int(c) for c in volumes]
    by_count = {c: omega(c * volume_scale, p) for c in set(counts)}
    lut = np.array([p.w_min] + [by_count[c] for c in counts], dtype=np.float64)
    if not np.isfinite(lut).all() or (lut <= 0.0).any():
        raise ValueError("weights must be positive and finite")
    return lut


def weight_map_to_volume(w: WeightMap) -> Volume:
    """Export a weight map as a float32 volume."""
    return Volume(w.shape, w.weights)
