"""Core 3D grid types, validation and bit-exact detached-header file I/O.

A grid on disk is a pair of files: ``<name>.vhdr``, a UTF-8 text header
with one ``key=value`` pair per line, and ``<name>.vraw``, the raw voxel
stream.  Header fields:

    dims=X Y Z            three positive voxel counts
    spacing=SX SY SZ      mm per voxel along each axis
    dtype=f32|u8          float32 scalar data or uint8 mask data
    order=x-fastest-le    fixed: x varies fastest, little-endian

The raw stream is laid out x-fastest (linear index = x + X*(y + Y*z)).
Masks are stored as u8 with values {0,1}.  Save followed by load
reproduces every bit, and vice versa.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

HEADER_SUFFIX = ".vhdr"
RAW_SUFFIX = ".vraw"
STORAGE_ORDER = "x-fastest-le"

# total voxel count must stay indexable on 64-bit platforms
_MAX_VOXELS = 2**62


class ShapeMismatchError(ValueError):
    """Two grids that must share a GridShape do not."""


class VolumeFormatError(ValueError):
    """A .vhdr/.vraw pair is malformed or inconsistent."""


@dataclass(frozen=True)
class GridShape:
    """Voxel counts per axis plus physical spacing in mm per voxel."""

    dims: tuple[int, int, int]
    spacing: tuple[float, float, float] = (1.0, 1.0, 1.0)

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        spacing = tuple(float(s) for s in self.spacing)
        if len(dims) != 3 or len(spacing) != 3:
            raise ValueError("dims and spacing must each have three entries")
        if any(d < 1 for d in dims):
            raise ValueError(f"dims must be positive, got {dims}")
        if any(not math.isfinite(s) or s <= 0.0 for s in spacing):
            raise ValueError(f"spacing must be positive and finite, got {spacing}")
        if dims[0] * dims[1] * dims[2] > _MAX_VOXELS:
            raise ValueError("voxel count exceeds the supported index range")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "spacing", spacing)

    @property
    def voxel_count(self) -> int:
        return self.dims[0] * self.dims[1] * self.dims[2]

    @property
    def voxel_volume_mm3(self) -> float:
        return self.spacing[0] * self.spacing[1] * self.spacing[2]


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class Volume:
    """Dense scalar grid, stored at float32 precision, indexed [x, y, z]."""

    shape: GridShape
    data: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.data, dtype=np.float32)
        if arr.shape != self.shape.dims:
            raise ShapeMismatchError(
                f"data shape {arr.shape} does not match dims {self.shape.dims}"
            )
        if not np.isfinite(arr).all():
            raise ValueError("volume contains non-finite values")
        object.__setattr__(self, "data", _freeze(arr.copy()))

    @classmethod
    def from_array(cls, arr, spacing=(1.0, 1.0, 1.0)) -> "Volume":
        arr = np.asarray(arr)
        return cls(GridShape(arr.shape, spacing), arr)

    @property
    def is_probability(self) -> bool:
        return bool((self.data >= 0.0).all() and (self.data <= 1.0).all())

    def require_probability(self) -> None:
        if not self.is_probability:
            raise ValueError("volume values must lie in [0, 1]")


@dataclass(frozen=True)
class Mask:
    """Dense binary grid, indexed [x, y, z]."""

    shape: GridShape
    data: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.data)
        if arr.dtype != np.bool_:
            if not np.isin(arr, (0, 1)).all():
                raise ValueError("mask values must be 0 or 1")
            arr = arr.astype(bool)
        if arr.shape != self.shape.dims:
            raise ShapeMismatchError(
                f"data shape {arr.shape} does not match dims {self.shape.dims}"
            )
        object.__setattr__(self, "data", _freeze(arr.copy()))

    @classmethod
    def from_array(cls, arr, spacing=(1.0, 1.0, 1.0)) -> "Mask":
        arr = np.asarray(arr)
        return cls(GridShape(arr.shape, spacing), arr)

    @property
    def foreground_count(self) -> int:
        return int(np.count_nonzero(self.data))


def require_same_shape(a, b) -> None:
    if a.shape != b.shape:
        raise ShapeMismatchError(f"grid shapes differ: {a.shape} vs {b.shape}")


def threshold(v: Volume, t: float) -> Mask:
    """Binarize a probability volume; a bit is set iff value >= t.

    The comparison runs at float32 storage precision so that thresholds
    equal to stored values behave inclusively.
    """
    v.require_probability()
    t = float(t)
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"threshold must lie in [0, 1], got {t}")
    return Mask(v.shape, v.data >= np.float32(t))


# ---------------------------------------------------------------------------
# Detached-header file pairs
# ---------------------------------------------------------------------------

def _pair_paths(path) -> tuple[Path, Path]:
    p = Path(path)
    if p.suffix == HEADER_SUFFIX:
        return p, p.with_suffix(RAW_SUFFIX)
    if p.suffix == RAW_SUFFIX:
        return p.with_suffix(HEADER_SUFFIX), p
    return p.with_name(p.name + HEADER_SUFFIX), p.with_name(p.name + RAW_SUFFIX)


def _repr_floats(vals) -> str:
    return " ".join(repr(float(v)) for v in vals)


def _write_pair(shape: GridShape, dtype_token: str, payload: bytes, path) -> None:
    hdr_path, raw_path = _pair_paths(path)
    header = (
        f"dims={shape.dims[0]} {shape.dims[1]} {shape.dims[2]}\n"
        f"spacing={_repr_floats(shape.spacing)}\n"
        f"dtype={dtype_token}\n"
        f"order={STORAGE_ORDER}\n"
    )
    hdr_path.write_text(header, encoding="utf-8")
    raw_path.write_bytes(payload)


def read_fields(path, what: str, *, comments: bool = False,
                error: type[ValueError] = ValueError) -> dict[str, str]:
    """The ``key=value`` lines of a UTF-8 text file as a dict.

    Blank lines are skipped, and with ``comments`` so is everything after
    a ``#``.  A line without ``=`` or a repeated key raises ``error``.
    Headers, phantom sidecars and CLI config files all read through here.
    """
    fields: dict[str, str] = {}
    for raw in Path(path).read_text(encoding="utf-8").splitlines():
        line = raw.split("#", 1)[0] if comments else raw
        if not line.strip():
            continue
        if "=" not in line:
            raise error(f"malformed {what} line: {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if key in fields:
            raise error(f"duplicate {what} field: {key}")
        fields[key] = value.strip()
    return fields


def _read_header(hdr_path: Path) -> tuple[GridShape, str]:
    fields = read_fields(hdr_path, "header", error=VolumeFormatError)
    required = {"dims", "spacing", "dtype", "order"}
    missing = required - fields.keys()
    if missing:
        raise VolumeFormatError(f"missing header fields: {sorted(missing)}")
    unknown = fields.keys() - required
    if unknown:
        raise VolumeFormatError(f"unknown header fields: {sorted(unknown)}")
    if fields["order"] != STORAGE_ORDER:
        raise VolumeFormatError(f"unsupported storage order: {fields['order']!r}")
    dtype = fields["dtype"]
    if dtype not in ("f32", "u8"):
        raise VolumeFormatError(f"unknown dtype: {dtype!r}")
    try:
        dims = tuple(int(x) for x in fields["dims"].split())
        spacing = tuple(float(x) for x in fields["spacing"].split())
        shape = GridShape(dims, spacing)
    except ValueError as exc:
        raise VolumeFormatError(f"invalid header geometry: {exc}") from exc
    return shape, dtype


def _read_payload(shape: GridShape, dtype: str, raw_path: Path) -> np.ndarray:
    itemsize = 4 if dtype == "f32" else 1
    expected = shape.voxel_count * itemsize
    payload = raw_path.read_bytes()
    if len(payload) != expected:
        raise VolumeFormatError(
            f"raw size mismatch: header implies {expected} bytes, "
            f"file holds {len(payload)}"
        )
    np_dtype = "<f4" if dtype == "f32" else np.uint8
    flat = np.frombuffer(payload, dtype=np_dtype)
    return flat.reshape(shape.dims, order="F")


def save_volume(v: Volume, path) -> None:
    """Write a float32 header+raw pair that load_volume inverts exactly."""
    payload = np.ascontiguousarray(v.data.ravel(order="F"), dtype="<f4").tobytes()
    _write_pair(v.shape, "f32", payload, path)


def load_volume(path) -> Volume:
    hdr_path, raw_path = _pair_paths(path)
    shape, dtype = _read_header(hdr_path)
    if dtype != "f32":
        raise VolumeFormatError("file stores u8 mask data; use load_mask")
    data = _read_payload(shape, dtype, raw_path)
    if not np.isfinite(data).all():
        raise VolumeFormatError("raw data contains non-finite values")
    return Volume(shape, data)


def save_mask(m: Mask, path) -> None:
    """Write a u8 header+raw pair holding {0,1} voxel values."""
    payload = np.ascontiguousarray(
        m.data.ravel(order="F").astype(np.uint8)
    ).tobytes()
    _write_pair(m.shape, "u8", payload, path)


def load_mask(path) -> Mask:
    hdr_path, raw_path = _pair_paths(path)
    shape, dtype = _read_header(hdr_path)
    if dtype != "u8":
        raise VolumeFormatError("file stores f32 scalar data; use load_volume")
    data = _read_payload(shape, dtype, raw_path)
    if data.max(initial=0) > 1:
        raise VolumeFormatError("mask raw data contains values outside {0,1}")
    return Mask(shape, data.astype(bool))
