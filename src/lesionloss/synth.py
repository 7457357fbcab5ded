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
exactly matches the intact lesion's voxel count.  The image is Gaussian
background noise plus a constant contrast on the lesion support.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .volume import GridShape, Mask, Volume, _freeze, read_fields

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
        object.__setattr__(
            self, "radius_range_vox",
            (float(self.radius_range_vox[0]), float(self.radius_range_vox[1])),
        )
        object.__setattr__(
            self, "fragments_per_lesion",
            (int(self.fragments_per_lesion[0]), int(self.fragments_per_lesion[1])),
        )
        rmin, rmax = self.radius_range_vox
        if self.n_lesions < 0:
            raise ValueError("n_lesions must be >= 0")
        if not 0.0 < rmin <= rmax:
            raise ValueError(f"need 0 < radius min <= max, got {rmin}, {rmax}")
        if rmax > (min(self.shape.dims) - 1) / 2.0:
            raise ValueError("radius range does not fit inside the grid")
        if not 0.0 <= self.fragmentation_prob <= 1.0:
            raise ValueError("fragmentation_prob must lie in [0, 1]")
        fmin, fmax = self.fragments_per_lesion
        if not 1 <= fmin <= fmax:
            raise ValueError("fragments_per_lesion must satisfy 1 <= min <= max")
        if not self.noise_sigma >= 0.0:
            raise ValueError("noise_sigma must be >= 0")
        if not self.contrast > 0.0:
            raise ValueError("contrast must be positive")
        if not 0 <= int(self.seed) < 2**64:
            raise ValueError("seed must be a 64-bit unsigned integer")
        object.__setattr__(self, "seed", int(self.seed))
        object.__setattr__(self, "n_lesions", int(self.n_lesions))


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
    if any(lo > hi for lo, hi in zip(los, his)):
        return np.empty((0, 3), dtype=np.int64)
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
    if len(coords) == 0:
        return coords.astype(np.int64)
    order = np.lexsort((coords[:, 0], coords[:, 1], coords[:, 2]))
    return np.ascontiguousarray(coords[order], dtype=np.int64)


def _coords_to_mask(dims, coords) -> np.ndarray:
    m = np.zeros(dims, dtype=bool)
    if len(coords):
        m[coords[:, 0], coords[:, 1], coords[:, 2]] = True
    return m


def _halo(dims, coords) -> np.ndarray:
    """The voxels at coords dilated by the 26-neighborhood, as a grid mask.

    The dilation runs on the coordinates' bounding box grown by one voxel
    and clipped to the grid; it is empty outside that box, and the grid's
    own faces bound it as before, so the result equals the full-grid
    dilation.
    """
    out = np.zeros(dims, dtype=bool)
    if len(coords) == 0:
        return out
    lo = np.maximum(coords.min(axis=0) - 1, 0)
    hi = np.minimum(coords.max(axis=0) + 2, dims)
    box = tuple(slice(a, b) for a, b in zip(lo, hi))
    out[box] = ndimage.binary_dilation(_coords_to_mask(hi - lo, coords - lo), _HALO)
    return out


def _pick_seeds(rng, support, k):
    for _ in range(_SEED_PICK_TRIES):
        perm = rng.permutation(len(support))
        seeds: list[np.ndarray] = []
        for i in perm:
            c = support[i]
            if all(np.abs(c - s).max() >= _MIN_SEED_SEPARATION for s in seeds):
                seeds.append(c)
                if len(seeds) == k:
                    return seeds
    return None


_FACE_OFFSETS = np.array(
    [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]],
    dtype=np.int64,
)


def _grow_blob(rng, seed_vox, target, allowed):
    """Grow a connected blob of exactly `target` voxels by random accretion.

    Consumes voxels from `allowed` in place; returns None if the blob gets
    boxed in before reaching its target size.
    """
    dims = allowed.shape
    taken = [tuple(int(v) for v in seed_vox)]
    allowed[taken[0]] = False
    candidates = set()

    def extend(vox):
        for off in _FACE_OFFSETS:
            n = (vox[0] + off[0], vox[1] + off[1], vox[2] + off[2])
            if (
                0 <= n[0] < dims[0]
                and 0 <= n[1] < dims[1]
                and 0 <= n[2] < dims[2]
                and allowed[n]
            ):
                candidates.add(n)

    extend(taken[0])
    while len(taken) < target:
        if not candidates:
            return None
        pool = sorted(candidates)
        pick = pool[int(rng.integers(len(pool)))]
        candidates.discard(pick)
        allowed[pick] = False
        taken.append(pick)
        extend(pick)
    return _scan_sorted(np.array(taken, dtype=np.int64))


def _grow_fragments(rng, dims, support, radii, blocked, k):
    """Split a lesion's voxel budget into k separated equal-size blobs."""
    volume = len(support)
    k = max(1, min(k, volume))
    targets = [volume // k + (1 if j < volume % k else 0) for j in range(k)]
    seeds = _pick_seeds(rng, support, k)
    if seeds is None:
        return None
    margin = int(np.ceil(2.0 * max(radii))) + 2
    center = support.mean(axis=0)
    allowed = np.zeros(dims, dtype=bool)
    sl = tuple(
        slice(max(0, int(c - max(radii) - margin)),
              min(d, int(c + max(radii) + margin) + 1))
        for c, d in zip(center, dims)
    )
    allowed[sl] = True
    allowed &= ~blocked
    fragments = []
    for seed_vox, target in zip(seeds, targets):
        if not allowed[tuple(int(v) for v in seed_vox)]:
            return None
        blob = _grow_blob(rng, seed_vox, target, allowed)
        if blob is None:
            return None
        fragments.append(blob)
        # keep later fragments from touching this one, even diagonally
        allowed &= ~_halo(dims, blob)
    return tuple(_freeze(f) for f in fragments)


def _render_image(spec: PhantomSpec, truth: np.ndarray) -> Volume:
    rng = _stream(spec.seed, _NOISE_STREAM)
    flat = rng.normal(0.0, spec.noise_sigma, size=spec.shape.voxel_count)
    img = flat.reshape(spec.shape.dims, order="F") + spec.contrast * truth
    return Volume(spec.shape, img.astype(np.float32))


def generate(spec: PhantomSpec) -> Phantom:
    """Generate a phantom; identical spec gives a bit-identical phantom."""
    dims = spec.shape.dims
    place_rng = _stream(spec.seed, _PLACEMENT_STREAM)
    truth = np.zeros(dims, dtype=bool)
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
            occupied = geom.support_voxels(dims)
            truth |= _coords_to_mask(dims, occupied)
            blocked |= _halo(dims, occupied)
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
        raise ValueError(f"shrink factor must lie in (0, 1], got {factor}")
    dims = ph.spec.shape.dims
    truth = np.zeros(dims, dtype=bool)
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
                flat = frag[:, 0] + dims[0] * (frag[:, 1] + dims[1] * frag[:, 2])
                order = np.lexsort((flat, d2))
                kept.append(_freeze(_scan_sorted(frag[order[:target]])))
            new_geom = LesionGeometry(geom.center, geom.radii, tuple(kept))
        coords = new_geom.support_voxels(dims)
        truth |= _coords_to_mask(dims, coords)
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

def save_phantom(ph: Phantom, prefix) -> None:
    from .volume import save_mask, save_volume

    prefix = str(prefix)
    save_volume(ph.image, prefix + ".image")
    save_mask(ph.truth, prefix + ".truth")
    s = ph.spec
    lines = [
        f"dims={s.shape.dims[0]} {s.shape.dims[1]} {s.shape.dims[2]}",
        "spacing=" + " ".join(repr(v) for v in s.shape.spacing),
        f"n_lesions={s.n_lesions}",
        "radius_range_vox=" + " ".join(repr(v) for v in s.radius_range_vox),
        f"fragmentation_prob={s.fragmentation_prob!r}",
        f"fragments_per_lesion={s.fragments_per_lesion[0]} {s.fragments_per_lesion[1]}",
        f"noise_sigma={s.noise_sigma!r}",
        f"contrast={s.contrast!r}",
        f"seed={s.seed}",
        "shrink_factors=" + " ".join(repr(f) for f in ph.shrink_factors),
    ]
    with open(prefix + ".spec", "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def read_phantom_sidecar(path) -> tuple[PhantomSpec, tuple[float, ...]]:
    """Read a .spec sidecar; a duplicate, missing or unknown key is an error."""
    fields = read_fields(path, "sidecar")
    required = {
        "dims", "spacing", "n_lesions", "radius_range_vox",
        "fragmentation_prob", "fragments_per_lesion", "noise_sigma",
        "contrast", "seed", "shrink_factors",
    }
    missing = required - fields.keys()
    if missing:
        raise ValueError(f"sidecar missing fields: {sorted(missing)}")
    unknown = fields.keys() - required
    if unknown:
        raise ValueError(f"sidecar unknown fields: {sorted(unknown)}")
    spec = PhantomSpec(
        shape=GridShape(
            tuple(int(x) for x in fields["dims"].split()),
            tuple(float(x) for x in fields["spacing"].split()),
        ),
        n_lesions=int(fields["n_lesions"]),
        radius_range_vox=tuple(float(x) for x in fields["radius_range_vox"].split()),
        fragmentation_prob=float(fields["fragmentation_prob"]),
        fragments_per_lesion=tuple(
            int(x) for x in fields["fragments_per_lesion"].split()
        ),
        noise_sigma=float(fields["noise_sigma"]),
        contrast=float(fields["contrast"]),
        seed=int(fields["seed"]),
    )
    factors = tuple(float(x) for x in fields["shrink_factors"].split())
    return spec, factors


def regenerate_phantom(spec: PhantomSpec,
                       shrink_factors=()) -> Phantom:
    """Replay generation plus any recorded shrink chain."""
    ph = generate(spec)
    for f in shrink_factors:
        ph = shrink(ph, f)
    return ph
