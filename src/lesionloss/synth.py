"""Reproducible 3D phantoms: ellipsoid lesions, cluster break-up, shrinkage.

A phantom is fully determined by its spec.  Randomness comes from PCG64
generators keyed off numpy SeedSequence streams of the spec seed:

    spawn_key (0,)    lesion placement (radii, centers, retries)
    spawn_key (1,)    background noise (drawn flat, x-fastest order)
    spawn_key (2, i)  break-up of lesion i (decision, cluster count,
                      seed voxels, growth choices)

Lesions are ellipsoids voxelized at voxel centers, placed so that no two
lesions touch even diagonally.  A lesion that breaks up is replaced by k
separated blobs grown voxel-by-voxel to equal target sizes whose total
exactly matches the intact lesion's voxel count; blobs grow inside a
search box about the lesion, each step drawing uniformly from the blob's
frontier in sorted (x, y, z) order, an order the determinism contract
fixes.  The image is Gaussian background noise plus a constant contrast
on the lesion support.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .volume import (GridShape, Mask, Volume, _field, _freeze, _grid, _naming,
                     _values, check_integer, check_real, read_fields, save_mask,
                     save_volume, write_fields)

_PLACEMENT_STREAM = (0,)
_NOISE_STREAM = (1,)
_FRAGMENT_STREAM = 2

_MAX_PLACE_TRIES = 200
_SEED_PICK_TRIES = 60
_MIN_SEED_SEPARATION = 3

_HALO = ndimage.generate_binary_structure(3, 3)  # 26-neighborhood


def _stream(seed: int, spawn_key) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=spawn_key))


@dataclass(frozen=True)
class PhantomSpec:
    shape: GridShape
    n_lesions: int
    radius_range_vox: tuple[float, float]
    fragmentation_prob: float = 0.0
    fragments_per_lesion: tuple[int, int] = (2, 4)
    noise_sigma: float = 0.1
    contrast: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if len(self.radius_range_vox) != 2 or len(self.fragments_per_lesion) != 2:
            raise ValueError("radius_range_vox and fragments_per_lesion take "
                             "two values each")
        object.__setattr__(
            self, "radius_range_vox",
            tuple(check_real(r, f"radius_range_vox[{i}]")
                  for i, r in enumerate(self.radius_range_vox)),
        )
        for name in ("fragmentation_prob", "noise_sigma", "contrast"):
            object.__setattr__(self, name, check_real(getattr(self, name), name))
        object.__setattr__(
            self, "fragments_per_lesion",
            tuple(check_integer(f, f"fragments_per_lesion[{i}]")
                  for i, f in enumerate(self.fragments_per_lesion)),
        )
        for name in ("n_lesions", "seed"):
            object.__setattr__(self, name,
                               check_integer(getattr(self, name), name))
        rmin, rmax = self.radius_range_vox
        if self.n_lesions < 0:
            raise ValueError("n_lesions must be >= 0")
        if not 0.0 < rmin <= rmax:
            raise ValueError(f"radius_range_vox must satisfy 0 < min <= max, "
                             f"got {rmin}, {rmax}")
        if rmax > (min(self.shape.dims) - 1) / 2.0:
            raise ValueError("radius_range_vox does not fit inside the grid")
        if not 0.0 <= self.fragmentation_prob <= 1.0:
            raise ValueError("fragmentation_prob must lie in [0, 1]")
        fmin, fmax = self.fragments_per_lesion
        if not 1 <= fmin <= fmax:
            raise ValueError("fragments_per_lesion must satisfy 1 <= min <= max")
        if not 0.0 <= self.noise_sigma < np.inf:
            raise ValueError("noise_sigma must be >= 0 and finite")
        if not 0.0 < self.contrast < np.inf:
            raise ValueError("contrast must be positive and finite")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must be a 64-bit unsigned integer")


@dataclass(frozen=True)
class LesionGeometry:
    """Generating geometry of one lesion; fragments carry explicit voxels."""

    center: tuple[float, float, float]
    radii: tuple[float, float, float]
    fragments: tuple[np.ndarray, ...] | None = None

    def support_voxels(self, dims) -> np.ndarray:
        if self.fragments is None:
            return _ellipsoid_voxels(dims, self.center, self.radii)
        if not self.fragments:
            return np.empty((0, 3), dtype=np.int64)
        return np.concatenate(self.fragments, axis=0)


@dataclass(frozen=True)
class Phantom:
    image: Volume
    truth: Mask
    spec: PhantomSpec
    lesions: tuple[LesionGeometry, ...] = ()
    shrink_factors: tuple[float, ...] = ()


def _ellipsoid_voxels(dims, center, radii) -> np.ndarray:
    """Integer voxel coordinates whose centers fall inside the ellipsoid."""
    los = [max(0, int(np.floor(c - r))) for c, r in zip(center, radii)]
    his = [min(d - 1, int(np.ceil(c + r))) for c, r, d in zip(center, radii, dims)]
    ax = [np.arange(lo, hi + 1, dtype=np.int64) for lo, hi in zip(los, his)]
    gx, gy, gz = np.meshgrid(*ax, indexing="ij")
    quad = (
        ((gx - center[0]) / radii[0]) ** 2
        + ((gy - center[1]) / radii[1]) ** 2
        + ((gz - center[2]) / radii[2]) ** 2
    )
    sel = quad <= 1.0
    return np.stack([gx[sel], gy[sel], gz[sel]], axis=1)


def _scan_sorted(coords: np.ndarray) -> np.ndarray:
    """Sort voxel coordinates into x-fastest scan order."""
    order = np.lexsort((coords[:, 0], coords[:, 1], coords[:, 2]))
    return np.ascontiguousarray(coords[order], dtype=np.int64)


def _halo(dims, coords):
    """The voxels at coords dilated by the 26-neighborhood, as (box, mask):
    mask is the dilation on box, the coordinates' bounding box grown by one
    voxel and clipped to the grid.  The dilation is empty outside box and
    the grid's own faces bound it, so `grid[box] |= mask` applies the
    full-grid dilation.  No coordinates give an empty box.
    """
    if len(coords) == 0:
        return (slice(0, 0),) * 3, np.zeros((0, 0, 0), dtype=bool)
    lo = np.maximum(coords.min(axis=0) - 1, 0)
    hi = np.minimum(coords.max(axis=0) + 2, dims)
    seeds = np.zeros(hi - lo, dtype=bool)
    seeds[tuple((coords - lo).T)] = True
    return (tuple(slice(a, b) for a, b in zip(lo, hi)),
            ndimage.binary_dilation(seeds, _HALO))


def _pick_seeds(rng, support, k):
    """k rows of support at pairwise Chebyshev distance >= 3, or None: the
    greedy pick along each of up to 60 random permutations of support."""
    for _ in range(_SEED_PICK_TRIES):
        cand = support[rng.permutation(len(support))]
        free = np.ones(len(cand), dtype=bool)
        seeds: list[np.ndarray] = []
        while free.any():
            c = cand[np.argmax(free)]
            seeds.append(c)
            if len(seeds) == k:
                return seeds
            free &= np.abs(cand - c).max(axis=1) >= _MIN_SEED_SEPARATION
    return None


_FACE_OFFSETS = ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1))


def _grow_blob(rng, seed_vox, target, allowed):
    """Grow a connected blob of exactly `target` voxels by random accretion.

    Each step takes a uniform draw from the sorted pool of allowed face
    neighbours of the blob.  A voxel leaves `allowed` (in place) when it
    joins the pool, so the pool holds it once.  Returns None if the blob
    gets boxed in before reaching its target size.
    """
    dims = allowed.shape
    taken, pool = [], []
    vox = seed_vox
    allowed[vox] = False
    while True:
        taken.append(vox)
        for dx, dy, dz in _FACE_OFFSETS:
            n = (vox[0] + dx, vox[1] + dy, vox[2] + dz)
            if (0 <= n[0] < dims[0] and 0 <= n[1] < dims[1]
                    and 0 <= n[2] < dims[2] and allowed[n]):
                allowed[n] = False
                bisect.insort(pool, n)
        if len(taken) == target:
            return _scan_sorted(np.array(taken, dtype=np.int64))
        if not pool:
            return None
        vox = pool.pop(int(rng.integers(len(pool))))


def _grow_fragments(rng, dims, support, radii, blocked, k):
    """Split a lesion's voxel budget into k separated equal-size blobs,
    grown inside a search box about the lesion that holds its support."""
    volume = len(support)
    k = max(1, min(k, volume))
    targets = [volume // k + (1 if j < volume % k else 0) for j in range(k)]
    seeds = _pick_seeds(rng, support, k)
    if seeds is None:
        return None
    margin = int(np.ceil(2.0 * max(radii))) + 2
    center = support.mean(axis=0)
    box = tuple(
        slice(max(0, int(c - max(radii) - margin)),
              min(d, int(c + max(radii) + margin) + 1))
        for c, d in zip(center, dims)
    )
    origin = np.array([s.start for s in box], dtype=np.int64)
    allowed = ~blocked[box]    # in box coordinates
    fragments = []
    for seed_vox, target in zip(seeds, targets):
        seed = tuple(int(v) for v in seed_vox - origin)
        if not allowed[seed]:
            return None
        blob = _grow_blob(rng, seed, target, allowed)
        if blob is None:
            return None
        fragments.append(blob + origin)
        # keep later fragments from touching this one, even diagonally
        halo_box, halo = _halo(allowed.shape, blob)
        allowed[halo_box] &= ~halo
    return tuple(_freeze(f) for f in fragments)


def _render_image(spec: PhantomSpec, truth: np.ndarray) -> Volume:
    rng = _stream(spec.seed, _NOISE_STREAM)
    flat = rng.normal(0.0, spec.noise_sigma, size=spec.shape.voxel_count)
    return Volume(spec.shape,
                  _grid(flat, spec.shape.dims) + spec.contrast * truth)


def generate(spec: PhantomSpec) -> Phantom:
    """Generate a phantom; identical spec gives a bit-identical phantom."""
    dims = spec.shape.dims
    place_rng = _stream(spec.seed, _PLACEMENT_STREAM)
    truth = _grid(np.zeros(spec.shape.voxel_count, dtype=bool), dims)
    blocked = np.zeros(dims, dtype=bool)
    lesions: list[LesionGeometry] = []

    for i in range(spec.n_lesions):
        frag_rng = _stream(spec.seed, (_FRAGMENT_STREAM, i))
        placed = False
        for _attempt in range(_MAX_PLACE_TRIES):
            radii = place_rng.uniform(*spec.radius_range_vox, size=3)
            lo = radii
            hi = np.array(dims, dtype=np.float64) - 1.0 - radii
            center = place_rng.uniform(lo, hi)
            support = _ellipsoid_voxels(dims, center, radii)
            if len(support) == 0:
                continue
            if blocked[support[:, 0], support[:, 1], support[:, 2]].any():
                continue

            fragments = None
            if spec.fragmentation_prob > 0.0 and (
                frag_rng.uniform() < spec.fragmentation_prob
            ):
                fmin, fmax = spec.fragments_per_lesion
                k = int(frag_rng.integers(fmin, fmax + 1))
                if k >= 2:
                    fragments = _grow_fragments(
                        frag_rng, dims, support, radii, blocked, k
                    )
                    if fragments is None:
                        continue

            geom = LesionGeometry(
                tuple(float(c) for c in center),
                tuple(float(r) for r in radii),
                fragments,
            )
            occupied = support if fragments is None else np.concatenate(fragments)
            truth[tuple(occupied.T)] = True
            halo_box, halo = _halo(dims, occupied)
            blocked[halo_box] |= halo
            lesions.append(geom)
            placed = True
            break
        if not placed:
            raise RuntimeError(
                f"could not place lesion {i + 1}/{spec.n_lesions} without "
                f"overlap after {_MAX_PLACE_TRIES} attempts"
            )

    return Phantom(_render_image(spec, truth), Mask(spec.shape, truth),
                   spec, tuple(lesions))


def shrink(ph: Phantom, factor: float) -> Phantom:
    """Scale every lesion about its own center by `factor` in (0, 1].

    Ellipsoid lesions are re-voxelized with scaled radii; broken-up
    lesions keep the round(factor^3 * n) voxels nearest each blob's
    centroid.  The image is re-rendered with the same noise stream.
    """
    factor = float(factor)
    if not 0.0 < factor <= 1.0:
        raise ValueError(f"factor must lie in (0, 1], got {factor}")
    dims = ph.spec.shape.dims
    truth = _grid(np.zeros(ph.spec.shape.voxel_count, dtype=bool), dims)
    new_lesions = []
    for geom in ph.lesions:
        if geom.fragments is None:
            new_geom = LesionGeometry(
                geom.center, tuple(r * factor for r in geom.radii), None
            )
        else:
            kept = []
            for frag in geom.fragments:
                n = len(frag)
                target = int(np.floor(factor**3 * n + 0.5))
                if target <= 0:
                    kept.append(_freeze(np.empty((0, 3), dtype=np.int64)))
                    continue
                centroid = frag.mean(axis=0)
                d2 = ((frag - centroid) ** 2).sum(axis=1)
                # nearest first, ties in x-fastest scan order
                order = np.lexsort((frag[:, 0], frag[:, 1], frag[:, 2], d2))
                kept.append(_freeze(_scan_sorted(frag[order[:target]])))
            new_geom = LesionGeometry(geom.center, geom.radii, tuple(kept))
        truth[tuple(new_geom.support_voxels(dims).T)] = True
        new_lesions.append(new_geom)
    return Phantom(
        _render_image(ph.spec, truth),
        Mask(ph.spec.shape, truth),
        ph.spec,
        tuple(new_lesions),
        ph.shrink_factors + (factor,),
    )


# ---------------------------------------------------------------------------
# Phantom files: image/truth volume pairs plus a flat key=value sidecar
# ---------------------------------------------------------------------------

# sidecar key -> parser of its value
_SIDECAR = {
    "dims": _values(int, 3),
    "spacing": _values(float, 3),
    "n_lesions": int,
    "radius_range_vox": _values(float, 2),
    "fragmentation_prob": float,
    "fragments_per_lesion": _values(int, 2),
    "noise_sigma": float,
    "contrast": float,
    "seed": int,
    "shrink_factors": _values(float),
}


def save_phantom(ph: Phantom, prefix) -> None:
    """Write the image and truth volumes and the .spec sidecar, whose
    lines are the keys of _SIDECAR in its order: dims and spacing are the
    spec's grid's, shrink_factors the phantom's, the rest the spec's."""
    prefix = str(prefix)
    save_volume(ph.image, prefix + ".image")
    save_mask(ph.truth, prefix + ".truth")
    owners = (ph.spec.shape, ph.spec, ph)
    write_fields(prefix + ".spec", {
        key: getattr(next(o for o in owners if hasattr(o, key)), key)
        for key in _SIDECAR
    })


def read_phantom_sidecar(path) -> tuple[PhantomSpec, tuple[float, ...]]:
    """Read a .spec sidecar; a duplicate, missing or unknown key is an
    error, and every error names the file."""
    with _naming(path):
        fields = read_fields(path, "sidecar", _SIDECAR.keys())
        values = {key: _field(fields, key, parse)
                  for key, parse in _SIDECAR.items()}
        shape = GridShape(values.pop("dims"), values.pop("spacing"))
        factors = values.pop("shrink_factors")
        return PhantomSpec(shape=shape, **values), factors


def regenerate_phantom(spec: PhantomSpec,
                       shrink_factors=()) -> Phantom:
    """Replay generation plus any recorded shrink chain."""
    ph = generate(spec)
    for f in shrink_factors:
        ph = shrink(ph, f)
    return ph
