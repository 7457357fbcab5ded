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

Memory order is the file order: every grid the package hands out (a
Volume's or Mask's data, a lesion labeling's ids, a weight map's weights)
holds its [x, y, z] array x-fastest, that is F-contiguous.  Its flat
x-fastest view, the order of the files and of every flat array the loss
engine and the trainer work on, is then free, and so is the grid view of
such a flat array.  The layout is spelled in this module alone: _store
keeps a copy of a grid's array and checks its shape, for every grid type's
constructor, _adopt hands a grid that the package has just made and
checked to its type without a copy or a second check, _flat takes its
flat view, _grid builds a grid from a flat array and _zyx gives scipy's
view of one.

A file that does not read raises VolumeFormatError naming the file, from
_read_pair alone; the parsers and checks it runs raise plain ValueError.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
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


def _store(arr, dtype, dims) -> np.ndarray:
    """A read-only x-fastest copy of the grid arr, cast to dtype; the shape
    check of every grid type raises ShapeMismatchError unless it is dims."""
    arr = np.array(arr, dtype=dtype, order="F")
    if arr.shape != dims:
        raise ShapeMismatchError(f"data shape {arr.shape} does not match dims {dims}")
    return _freeze(arr)


def _adopt(cls, **fields):
    """An instance of the grid type cls with the given field values, made
    without cls's constructor: no _store copy and none of its checks.  For
    grids that the package has just made x-fastest, of cls's dtype and
    shape, and checked as the constructor would, and that nothing else
    holds; each array is frozen in place."""
    obj = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(obj, name, _freeze(value)
                           if isinstance(value, np.ndarray) else value)
    return obj


def _flat(grid: np.ndarray) -> np.ndarray:
    """The x-fastest flat view of a grid; no copy for a stored grid."""
    return grid.ravel(order="F")


def _grid(flat: np.ndarray, dims) -> np.ndarray:
    """The [x, y, z] grid view of dims over an x-fastest flat array."""
    return flat.reshape(dims, order="F")


def _zyx(flat: np.ndarray, dims) -> np.ndarray:
    """The C-ordered (z, y, x) grid view of dims over an x-fastest flat
    array: scipy.ndimage walks an array's lines in C order, so on this
    view every line it copies is contiguous memory."""
    return flat.reshape(dims[::-1])


@dataclass(frozen=True)
class Volume:
    """Dense scalar grid, stored at float32 precision, indexed [x, y, z]."""

    shape: GridShape
    data: np.ndarray

    def __post_init__(self):
        arr = _store(self.data, np.float32, self.shape.dims)
        if not np.isfinite(arr).all():
            raise ValueError("volume contains non-finite values")
        object.__setattr__(self, "data", arr)

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
        if arr.dtype != np.bool_ and not np.isin(arr, (0, 1)).all():
            raise ValueError("mask values must be 0 or 1")
        object.__setattr__(self, "data", _store(arr, bool, self.shape.dims))

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
    return Mask(v.shape, v.data >= np.float32(check_threshold(t)))


def check_threshold(t) -> float:
    """t as a float, rejected unless it lies in [0, 1]."""
    t = float(t)
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"threshold must lie in [0, 1], got {t}")
    return t


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


def _write_pair(shape: GridShape, dtype_token: str, payload: bytes, path) -> None:
    hdr_path, raw_path = _pair_paths(path)
    write_fields(hdr_path, {"dims": shape.dims, "spacing": shape.spacing,
                            "dtype": dtype_token, "order": STORAGE_ORDER})
    raw_path.write_bytes(payload)


@contextmanager
def _naming(name, error: type[ValueError] = ValueError):
    """Put name in front of the message of a ValueError (re-raised as
    error), a RuntimeError or a MemoryError raised in the block: the file
    being read, or the key or row of the value being parsed."""
    try:
        yield
    except ValueError as exc:
        raise error(f"{name}: {exc}") from exc
    except RuntimeError as exc:
        raise RuntimeError(f"{name}: {exc}") from exc
    except MemoryError as exc:
        raise MemoryError(f"{name}: {exc or 'out of memory'}") from exc


def _field(fields: dict[str, str], key: str, parse):
    """parse(fields[key]); a value that does not parse names its key."""
    with _naming(key):
        return parse(fields[key])


def _values(parse, count: int | None = None):
    """The parser of a number tuple's text form: whitespace-separated
    values, each through parse; with count, exactly count of them.  Its
    __name__ states the count, for argparse's message."""
    def values(text: str) -> tuple:
        parts = tuple(parse(x) for x in text.split())
        if count is not None and len(parts) != count:
            raise ValueError(f"expected {count} values, got {text!r}")
        return parts
    values.__name__ = f"{count or 'any'}-{parse.__name__}"
    return values


def _join(values) -> str:
    """The text form of a tuple of Python numbers, which _values reads."""
    return " ".join(map(str, values))


def write_fields(path, fields: dict) -> None:
    """Write the ``key=value`` lines that read_fields reads back; a tuple
    value is written in its _join text form."""
    Path(path).write_text(
        "".join(f"{key}={_join(v) if isinstance(v, tuple) else v}\n"
                for key, v in fields.items()),
        encoding="utf-8",
    )


def read_fields(path, what: str, keys=None, *, comments: bool = False) -> dict[str, str]:
    """The ``key=value`` lines of a UTF-8 text file as a dict.

    Blank lines are skipped, and with ``comments`` so is everything after
    a ``#``.  A line without ``=``, a repeated key and, given ``keys``, a
    missing or unknown key raise ValueError; _read_pair turns a header's
    into a VolumeFormatError naming the file.  Headers, phantom sidecars and
    CLI config files all read through here.
    """
    fields: dict[str, str] = {}
    for raw in Path(path).read_text(encoding="utf-8").splitlines():
        line = raw.split("#", 1)[0] if comments else raw
        if not line.strip():
            continue
        if "=" not in line:
            raise ValueError(f"malformed {what} line: {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if key in fields:
            raise ValueError(f"duplicate {what} field: {key}")
        fields[key] = value.strip()
    if keys is not None:
        for problem, names in (("missing", keys - fields.keys()),
                               ("unknown", fields.keys() - keys)):
            if names:
                raise ValueError(f"{problem} {what} fields: {sorted(names)}")
    return fields


def _read_header(hdr_path: Path) -> tuple[GridShape, str]:
    fields = read_fields(hdr_path, "header",
                         {"dims", "spacing", "dtype", "order"})
    if fields["order"] != STORAGE_ORDER:
        raise ValueError(f"unsupported storage order: {fields['order']!r}")
    dtype = fields["dtype"]
    if dtype not in ("f32", "u8"):
        raise ValueError(f"unknown dtype: {dtype!r}")
    with _naming("invalid header geometry"):
        shape = GridShape(_field(fields, "dims", _values(int, 3)),
                          _field(fields, "spacing", _values(float, 3)))
    return shape, dtype


def _read_payload(shape: GridShape, dtype: str, raw_path: Path) -> np.ndarray:
    """The raw stream as a read-only [x, y, z] grid: float32 values, or
    mask bits (the Volume built from it checks that values are finite)."""
    itemsize = 4 if dtype == "f32" else 1
    expected = shape.voxel_count * itemsize
    payload = raw_path.read_bytes()
    if len(payload) != expected:
        raise ValueError(
            f"raw size mismatch: header implies {expected} bytes, "
            f"file holds {len(payload)}"
        )
    if dtype == "f32":
        flat = np.frombuffer(payload, dtype="<f4")
    else:
        flat = np.frombuffer(payload, dtype=np.uint8)
        if flat.max(initial=0) > 1:
            raise ValueError("mask raw data contains values outside {0,1}")
        flat = flat.view(bool)
    return _grid(flat, shape.dims)


_OTHER_LOADER = {"f32": "file stores f32 scalar data; use load_volume",
                 "u8": "file stores u8 mask data; use load_mask"}


def _read_pair(path, dtype: str, kind):
    """The kind (Volume or Mask) of a header+raw pair that must store
    dtype; an error names the file it is found in, and an error of the
    grid's own checks names the raw file."""
    hdr_path, raw_path = _pair_paths(path)
    with _naming(hdr_path, VolumeFormatError):
        shape, stored = _read_header(hdr_path)
        if stored != dtype:
            raise ValueError(_OTHER_LOADER[stored])
    with _naming(raw_path, VolumeFormatError):
        return kind(shape, _read_payload(shape, dtype, raw_path))


def save_volume(v: Volume, path) -> None:
    """Write a float32 header+raw pair that load_volume inverts exactly."""
    payload = _flat(v.data).astype("<f4", copy=False).tobytes()
    _write_pair(v.shape, "f32", payload, path)


def load_volume(path) -> Volume:
    return _read_pair(path, "f32", Volume)


def save_mask(m: Mask, path) -> None:
    """Write a u8 header+raw pair holding {0,1} voxel values."""
    _write_pair(m.shape, "u8", _flat(m.data).view(np.uint8).tobytes(), path)


def load_mask(path) -> Mask:
    return _read_pair(path, "u8", Mask)
