"""Desk-scale training harness: a linear-logistic voxel scorer driven by
the loss engine, plus lesion-wise recall evaluation by size bucket.

The scorer maps five fixed per-voxel features (raw intensity, 3^3 mean,
5^3 mean, 3^3 variance, constant bias) through a logistic unit.  Full
batch gradient descent composes the loss gradients with the logistic
Jacobian; runs are deterministic for a fixed seed and invariant to the
order of the training phantoms.  The box filters run on each feature
row's C-ordered (z, y, x) view and give uniform_filter's bits (_box):
scipy filters along x and y, whose lines are contiguous, and along z,
whose lines are a plane apart, a running sum of whole planes repeats
scipy's recurrence.

The batch is split once into min(threads, cases) contiguous case shards of
about equal case count, each (features, plan): its cases' feature
matrices (5 x n each, as extract_features wrote them) and its plan, which
holds the cases' bounds and chunk table, the scores q (the shard's one
batch-sized buffer) and two chunks of scratch.  Each epoch runs them in
the loss engine's two phases: phase 1 scores each case with _scores, the
one scorer score_volume also applies, into q and reduces the shard to
per-case loss sums chunk by chunk; the value comes from the global sums;
phase 2 yields each chunk's loss gradient, over which the chain rule
writes g * q * (1 - q) into q, and one X @ q per case forms the partials,
which an exact sum combines.  The calling thread runs shard 0 and a pool
opened for the run takes the rest.  The calling thread also builds every
plan, and so its buffers, once per batch, and the workers write into them:
arrays a worker allocates stay in its own malloc arena and raise peak
memory, and shard-sized buffers freed every epoch can be handed back to
the system and faulted in again the next.  No sum crosses a case before
the exact sum, so the trained weights and curve are bit-identical for
every thread count.
"""

from __future__ import annotations

from collections.abc import Sequence
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, fields

import numpy as np
from scipy import ndimage
from scipy.special import expit

from .components import Connectivity, DEFAULT_CONNECTIVITY, _lesion_ids
from .loss import (
    CE_CLAMP_DEFAULT,
    TRAIN_LOSS_KINDS,
    Objective,
    TverskyParams,
    _case_sums,
    _gradient,
    _quiet,
    _totals,
    _truth,
    objective,
)
from .reduction import exact_sum
from .synth import Phantom, PhantomSpec, generate
from .volume import (GridShape, Mask, Volume, _flat, _freeze, _grid, _naming,
                     _zyx, check_threshold, require_same_shape, threshold)
from .weighting import WeightCurveParams

FEATURE_NAMES = ("raw", "mean3", "mean5", "var3", "bias")

SMALL_BUCKET_MAX = 20    # lesion is small when voxels < 20
LARGE_BUCKET_MIN = 200   # lesion is large when voxels > 200


def _reflected(j, n):
    """The index scipy's reflect mode reads at position j of a line of n
    (d c b a | a b c d | d c b a): the line and its mirror image repeat
    with period 2n, also past the ends of a line shorter than the window."""
    j %= 2 * n
    return j if j < n else 2 * n - 1 - j


def _plane_sums(grid, size, scratch):
    """The size-wide box mean along axis 0 of the (z, y, x) grid, in place,
    bit for bit as ndimage.uniform_filter1d (reflect mode) gives it: scipy
    1.17.1's recurrence, run over whole (y, x) planes into scratch (a grid
    of grid's shape).  Over each line e extended by reflect, the unscaled
    sum t_0 = ((0.0 + e_0) + e_1) + ... + e_{size-1}, then t_z = t_{z-1} +
    (e_{z+size-1} - e_{z-1}), and out_z = t_z / size."""
    n, before = len(grid), size // 2
    after = size - 1 - before
    np.add(grid[_reflected(-before, n)], 0.0, out=scratch[0])
    for j in range(1 - before, after + 1):
        scratch[0] += grid[_reflected(j, n)]
    # the differences: planes before < z < n - after read inside the
    # grid, all in one subtract; the rest reach past an end, one at a time
    if n > size:
        np.subtract(grid[size:], grid[:n - size], out=scratch[before + 1:n - after])
    for z in range(1, n):
        if not before < z < n - after:
            np.subtract(grid[_reflected(z + after, n)],
                        grid[_reflected(z - before - 1, n)], out=scratch[z])
    for z in range(1, n):
        np.add(scratch[z - 1], scratch[z], out=scratch[z])
    np.divide(scratch, size, out=grid)


def _box(src, size, out, scratch):
    """The size^3 box mean of the (z, y, x) grid view src into out, which
    are ndimage.uniform_filter's passes on the [x, y, z] grid, bit for bit.

    uniform_filter1d runs along x, then y, on contiguous lines.  Along z,
    where scipy would copy each line out at a stride of one plane, whole
    planes are summed (_plane_sums, with scratch a grid of out's shape)."""
    for axis in (2, 1):
        ndimage.uniform_filter1d(src, size, axis, output=out, mode="reflect")
        src = out
    _plane_sums(out, size, scratch)


def extract_features(image: Volume) -> np.ndarray:
    """Per-voxel feature matrix (voxels x 5), rows in x-fastest order.

    The features are the rows of one C-ordered 5 x n matrix, the trainer's
    X; each filter writes its row through the row's C-ordered (z, y, x)
    grid view (_box), with the bias row, filled last, as its scratch.  The
    (n, 5) view of X is returned, so .T gives X back with no copy.
    """
    dims = image.shape.dims
    X = np.empty((len(FEATURE_NAMES), image.shape.voxel_count))
    raw, m3, m5, v3, bias = (_zyx(row, dims) for row in X)
    X[0] = _flat(image.data)
    _box(raw, 3, m3, bias)
    _box(raw, 5, m5, bias)
    np.multiply(raw, raw, out=v3)
    _box(v3, 3, v3, bias)
    v3 -= np.multiply(m3, m3, out=bias)
    np.clip(v3, 0.0, None, out=v3)
    bias[...] = 1.0
    return X.T


def _scores(theta, x, out=None):
    """The logistic scores expit(theta @ x) of one case's 5 x n features,
    written to out when given: the trainer scores with it and so does
    score_volume, so a scorer applies bit for bit what training optimized.
    expit runs in place, so no second n-vector is live beside x."""
    z = np.matmul(theta, x, out=out)
    return expit(z, out=z)


@dataclass(frozen=True)
class VoxelScorer:
    """Logistic scorer over the fixed feature set."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        if w.shape != (len(FEATURE_NAMES),):
            raise ValueError(f"expected {len(FEATURE_NAMES)} weights, got {w.shape}")
        if not np.isfinite(w).all():
            raise ValueError("scorer weights must be finite")
        object.__setattr__(self, "weights", _freeze(w.copy()))

    def score_volume(self, image: Volume) -> Volume:
        q = _scores(self.weights, extract_features(image).T)
        return Volume(image.shape, _grid(q, image.shape.dims))


def initial_scorer(seed: int) -> VoxelScorer:
    rng = np.random.default_rng(seed)
    return VoxelScorer(rng.normal(0.0, 0.01, size=len(FEATURE_NAMES)))


@dataclass(frozen=True)
class TrainConfig:
    loss_kind: str = "wlt-combined"
    tversky: TverskyParams | None = None
    curve: WeightCurveParams = WeightCurveParams()
    ce_weight: float = 0.5
    learning_rate: float = 3.0
    epochs: int = 300
    seed: int = 0
    train_specs: tuple[PhantomSpec, ...] = ()
    clamp: float = CE_CLAMP_DEFAULT
    connectivity: Connectivity = DEFAULT_CONNECTIVITY
    threads: int = 1

    def __post_init__(self):
        self.objective()    # rejects an unknown loss_kind, ce_weight or clamp
        if not 0.0 < self.learning_rate < np.inf:
            raise ValueError("learning_rate must be positive and finite")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.threads < 1:
            raise ValueError("threads must be >= 1")

    def objective(self) -> Objective:
        return objective(self.loss_kind, TRAIN_LOSS_KINDS, tversky=self.tversky,
                         ce_weight=self.ce_weight, clamp=self.clamp,
                         curve=self.curve, connectivity=self.connectivity)


def _shard_bounds(cases: int, k: int) -> list[tuple[int, int]]:
    """(first, stop) case bounds of k contiguous shards of cases; cut j is
    j * cases / k rounded half up, so each shard is nonempty for k <= cases."""
    cuts = [(2 * j * cases + k) // (2 * k) for j in range(k + 1)]
    return list(zip(cuts[:-1], cuts[1:]))


@contextmanager
def _prepare_batch(cfg: TrainConfig, phantoms):
    """The batch of phantoms as (cfg's objective, shards, pool):
    min(cfg.threads, cases) contiguous shards, each (features, plan) with one
    5 x n matrix per case as extract_features wrote it, and the pool that runs
    shards 1 onwards, shut down when the block exits, on return or on error."""
    obj, n = cfg.objective(), len(phantoms)
    shards = []
    for first, stop in _shard_bounds(n, min(cfg.threads, n)):
        cases = phantoms[first:stop]
        plan = _truth(obj, [ph.truth for ph in cases])
        shards.append(([extract_features(ph.image).T for ph in cases], plan))
    # the pool starts no thread until a second shard is submitted
    with ThreadPoolExecutor(max(1, len(shards) - 1)) as pool:
        yield obj, shards, pool


def _run(pool: ThreadPoolExecutor, fn, k: int) -> list:
    """[fn(0), ..., fn(k - 1)], fn(0) on the calling thread and the rest
    on pool, each in an errstate of its own (numpy keeps one per thread):
    train reports a non-finite result, no thread warns of it."""
    def quiet(i):
        with _quiet():
            return fn(i)
    futures = [pool.submit(quiet, i) for i in range(1, k)]
    return [quiet(0)] + [f.result() for f in futures]


def _batch_eval(prep, theta, want_grad):
    """Loss (and gradient) at theta over prep, a _prepare_batch."""
    obj, shards, pool = prep

    def forward(i):
        xs, plan = shards[i]
        # one matmul per case: each voxel's score then depends on its own
        # case only, never on where the case sits in the batch or shard
        for x, (a, b) in zip(xs, plan.bounds):
            _scores(theta, x, out=plan.q[a:b])
        return _case_sums(obj, plan)

    n = sum(plan.n for _, plan in shards)
    with _quiet():    # the value's np.divide warns where float / did not
        totals = _totals(obj, _run(pool, forward, len(shards)), n)
    if not want_grad:
        return totals.value, None

    def backward(i):
        xs, plan = shards[i]
        # chain rule through the logistic unit, g * q * (1 - q), chunk by
        # chunk over q (its scores are spent), then one X @ g per case
        for c, g in _gradient(obj, plan, totals):
            q = plan.q[c.start:c.stop]
            g *= q
            np.multiply(g, np.subtract(1.0, q, out=q), out=q)
        return [x @ plan.q[a:b] for x, (a, b) in zip(xs, plan.bounds)]

    partials = [c for part in _run(pool, backward, len(shards)) for c in part]
    gtheta = np.array(
        [exact_sum(c[j] for c in partials) for j in range(len(FEATURE_NAMES))]
    )
    return totals.value, gtheta


def scorer_loss(cfg: TrainConfig, weights, phantoms, want_grad=False):
    """Batch loss of a weight vector over phantoms under cfg (and its
    gradient).

    Used to cross-check the end-to-end analytic gradient against finite
    differences.
    """
    theta = np.asarray(weights, dtype=np.float64)
    with _prepare_batch(cfg, phantoms) as prep:
        return _batch_eval(prep, theta, want_grad)


def train(cfg: TrainConfig) -> tuple[VoxelScorer, list[float]]:
    """Full-batch gradient descent over the configured phantom corpus.

    Returns the trained scorer and the loss curve: entry e is the batch
    loss after e updates (entry 0 is the loss at initialization).
    """
    if not cfg.train_specs:
        raise ValueError("train_specs must not be empty")
    phantoms = [generate(s) for s in cfg.train_specs]
    theta = initial_scorer(cfg.seed).weights.copy()
    curve: list[float] = []
    with _prepare_batch(cfg, phantoms) as prep:
        for epoch in range(cfg.epochs):
            value, gtheta = _batch_eval(prep, theta, True)
            if not (np.isfinite(value) and np.isfinite(gtheta).all()):
                raise RuntimeError(
                    f"training diverged at epoch {epoch}: loss={value}"
                    + (", gradient is non-finite" if np.isfinite(value) else "")
                )
            curve.append(value)
            theta = theta - cfg.learning_rate * gtheta
        final_value, _ = _batch_eval(prep, theta, False)
    if not np.isfinite(final_value):
        raise RuntimeError(f"training diverged after final update: loss={final_value}")
    curve.append(final_value)
    return VoxelScorer(theta), curve


# ---------------------------------------------------------------------------
# Lesion-wise recall by size bucket
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BucketRecall:
    lesions_total: int
    lesions_detected: int

    def __post_init__(self):
        if not 0 <= self.lesions_detected <= self.lesions_total:
            raise ValueError("detected count must lie in [0, total]")

    @property
    def recall(self) -> float:
        if self.lesions_total == 0:
            return 0.0
        return self.lesions_detected / self.lesions_total


@dataclass(frozen=True)
class LesionRecallReport:
    small: BucketRecall
    medium: BucketRecall
    large: BucketRecall

    def to_text(self) -> str:
        lines = []
        for f in fields(self):
            b = getattr(self, f.name)
            lines.append(
                f"{f.name}_total={b.lesions_total} "
                f"{f.name}_detected={b.lesions_detected} "
                f"{f.name}_recall={b.recall:.6g}"
            )
        return "\n".join(lines) + "\n"


def _bucket_of(voxels: int) -> int:
    """The index of a lesion's bucket among LesionRecallReport's fields."""
    if voxels < SMALL_BUCKET_MAX:
        return 0
    if voxels > LARGE_BUCKET_MIN:
        return 2
    return 1


def evaluate_lesionwise(model: VoxelScorer, cases, thresh: float = 0.5,
                        connectivity: Connectivity = DEFAULT_CONNECTIVITY
                        ) -> LesionRecallReport:
    """Recall per size bucket; a truth lesion counts as detected when one
    predicted component covers at least half of its voxels.  A case whose
    scores and truth differ in grid raises ShapeMismatchError.  Both
    labelings are read at the truth voxels only, the predicted one by
    position."""
    thresh = check_threshold(thresh)    # also when cases is empty
    connectivity = Connectivity(connectivity)
    tally = [[0, 0] for _ in fields(LesionRecallReport)]    # [lesions, detected]
    for case in cases:
        if isinstance(case, Phantom):
            case = case.image, case.truth
        if not (isinstance(case, Sequence) and len(case) == 2
                and isinstance(case[0], Volume) and isinstance(case[1], Mask)):
            raise TypeError("cases must be Phantoms or (Volume, Mask) pairs")
        image, truth = case
        pred = model.score_volume(image)
        require_same_shape(pred, truth)
        dims = truth.shape.dims
        fg, hit = _flat(truth.data), _flat(threshold(pred, thresh).data)
        at, hit_at = np.flatnonzero(fg), np.flatnonzero(hit)
        t = _lesion_ids(at, dims, connectivity)
        # the predicted id of each truth voxel, by its rank among the
        # predicted voxels; 0 where the prediction misses it
        on = hit[at]
        p = np.zeros(at.size, dtype=np.intp)
        p[on] = _lesion_ids(hit_at, dims, connectivity)[
            np.searchsorted(hit_at, at[on])]
        for lesion_id, vol in enumerate(np.bincount(t)[1:].tolist(), start=1):
            counts = np.bincount(p[t == lesion_id])
            best = int(counts[1:].max()) if counts.size > 1 else 0
            bucket = tally[_bucket_of(vol)]
            bucket[0] += 1
            if 2 * best >= vol:
                bucket[1] += 1
    return LesionRecallReport(*(BucketRecall(n, d) for n, d in tally))


# ---------------------------------------------------------------------------
# Corpus builder and scorer files
# ---------------------------------------------------------------------------

# the PhantomSpec fields that make_corpus sets by size class, each with the
# stem of its two parameters (small_<stem> and large_<stem>)
_BY_SIZE = {"n_lesions": "lesions", "radius_range_vox": "radius"}


def make_corpus(count: int, start_seed: int, dims=(24, 24, 24), *,
                small_radius=(1.3, 1.7), large_radius=(3.8, 4.4),
                small_lesions: int = 3, large_lesions: int = 1,
                noise_sigma: float = 0.6, contrast: float = 1.0,
                spacing=(1.0, 1.0, 1.0)) -> tuple[PhantomSpec, ...]:
    """Alternating small-lesion / large-lesion phantom specs.

    Phantom i gets seed start_seed + i, which must lie in [0, 2**64); even
    indices draw lesions from the small radius range, odd from the large one.
    A spec's rejection of a size class's value leads with that class's
    parameter ("large_lesions: n_lesions must be >= 0").
    """
    if count < 0:
        raise ValueError(f"corpus count must be >= 0, got {count}")
    if count and not (start_seed >= 0 and start_seed + count <= 2**64):
        raise ValueError(f"corpus seeds {start_seed}..{start_seed + count - 1} "
                         f"must lie in [0, 2**64)")
    specs = []
    for i in range(count):
        small = i % 2 == 0
        try:
            specs.append(
                PhantomSpec(
                    shape=GridShape(dims, spacing),
                    n_lesions=small_lesions if small else large_lesions,
                    radius_range_vox=small_radius if small else large_radius,
                    noise_sigma=noise_sigma,
                    contrast=contrast,
                    seed=start_seed + i,
                )
            )
        except ValueError as exc:
            stem = _BY_SIZE.get(str(exc).partition(" ")[0])
            if stem is None:
                raise
            size = "small" if small else "large"
            raise ValueError(f"{size}_{stem}: {exc}") from exc
    return tuple(specs)


_SCORER_MAGIC = b"f32vec"


def save_scorer(model: VoxelScorer, path) -> None:
    """Write weights as a little-endian float32 vector with a text header.

    The weights are rounded to float32, so a loaded scorer applies the
    trained weights so rounded, not bit for bit the ones training optimized.
    """
    payload = np.asarray(model.weights, dtype="<f4").tobytes()
    with open(path, "wb") as fh:
        fh.write(_SCORER_MAGIC + b" %d\n" % len(model.weights))
        fh.write(payload)


def load_scorer(path) -> VoxelScorer:
    """Read a save_scorer file; every error names the file."""
    with open(path, "rb") as fh:
        header = fh.readline()
        payload = fh.read()
    with _naming(path):
        parts = header.split()
        if len(parts) != 2 or parts[0] != _SCORER_MAGIC:
            raise ValueError("not a f32vec scorer file")
        if len(payload) != 4 * int(parts[1]):
            raise ValueError("vector payload size mismatch")
        # widening a signalling NaN warns; VoxelScorer rejects it as non-finite
        with np.errstate(invalid="ignore"):
            weights = np.frombuffer(payload, dtype="<f4").astype(np.float64)
        return VoxelScorer(weights)
