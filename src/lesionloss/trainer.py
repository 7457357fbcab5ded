"""Desk-scale training harness: a linear-logistic voxel scorer driven by
the loss engine, plus lesion-wise recall evaluation by size bucket.

The scorer maps five fixed per-voxel features (raw intensity, 3^3 mean,
5^3 mean, 3^3 variance, constant bias) through a logistic unit.  Full
batch gradient descent composes the loss gradients with the logistic
Jacobian; runs are deterministic for a fixed seed and invariant to the
order of the training phantoms.

The batch is split once into min(threads, cases) contiguous case shards of
about equal case count, each (features, plan): its cases' feature
matrices (5 x n each, as extract_features wrote them) and its plan, which
holds the cases' bounds and the buffers (scores, CE true-class
probabilities, ratio scratch).  Each epoch runs them in the loss engine's
two phases: phase 1 scores each case with _scores, the one scorer
score_volume also applies, and reduces the shard to per-case loss sums;
the value comes from the global sums; phase 2 turns the global sums into
each shard's loss gradient, applies the chain rule and forms the per-case
X @ g partials, which an exact sum combines.  The calling thread runs
shard 0 and a pool opened for the run takes the rest.  The calling thread
also builds every plan, and so its buffers, once per batch, and the
workers write into them: arrays a worker allocates stay in its own malloc
arena and raise peak memory, and shard-sized buffers freed every epoch
can be handed back to the system and faulted in again the next.  No
sum crosses a case before the exact sum, so the trained weights and curve
are bit-identical for every thread count.
"""

from __future__ import annotations

from collections.abc import Sequence
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
from scipy import ndimage
from scipy.special import expit

from .components import Connectivity, DEFAULT_CONNECTIVITY, _flat_labels
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
                     require_same_shape, threshold)
from .weighting import WeightCurveParams

FEATURE_NAMES = ("raw", "mean3", "mean5", "var3", "bias")

SMALL_BUCKET_MAX = 20    # lesion is small when voxels < 20
LARGE_BUCKET_MIN = 200   # lesion is large when voxels > 200


def extract_features(image: Volume) -> np.ndarray:
    """Per-voxel feature matrix (voxels x 5), rows in x-fastest order.

    The features are the rows of one C-ordered 5 x n matrix, the trainer's
    X; each filter writes its row through the row's [x, y, z] grid view.
    The (n, 5) view of X is returned, so .T gives X back with no copy.
    """
    X = np.empty((len(FEATURE_NAMES), image.shape.voxel_count))
    raw, m3, m5, v3, bias = (_grid(row, image.shape.dims) for row in X)
    raw[...] = image.data
    ndimage.uniform_filter(raw, size=3, mode="reflect", output=m3)
    ndimage.uniform_filter(raw, size=5, mode="reflect", output=m5)
    np.multiply(raw, raw, out=v3)
    ndimage.uniform_filter(v3, size=3, mode="reflect", output=v3)
    v3 -= np.multiply(m3, m3, out=bias)    # the bias row as scratch
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
        q = _scores(self.weights, extract_features(image).T).astype(np.float32)
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
    totals = _totals(obj, _run(pool, forward, len(shards)), n)
    if not want_grad:
        return totals.value, None

    def backward(i):
        xs, plan = shards[i]
        g, q = _gradient(obj, plan, totals), plan.q
        # chain rule through the logistic unit, g * q * (1 - q) in place
        # (q is spent as scratch), then the per-case partials
        g *= q
        g *= np.subtract(1.0, q, out=q)
        return [x @ g[a:b] for x, (a, b) in zip(xs, plan.bounds)]

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
        for name in ("small", "medium", "large"):
            b = getattr(self, name)
            lines.append(
                f"{name}_total={b.lesions_total} "
                f"{name}_detected={b.lesions_detected} "
                f"{name}_recall={b.recall:.6g}"
            )
        return "\n".join(lines) + "\n"


def _bucket_of(voxels: int) -> str:
    if voxels < SMALL_BUCKET_MAX:
        return "small"
    if voxels > LARGE_BUCKET_MIN:
        return "large"
    return "medium"


def evaluate_lesionwise(model: VoxelScorer, cases, thresh: float = 0.5,
                        connectivity: Connectivity = DEFAULT_CONNECTIVITY
                        ) -> LesionRecallReport:
    """Recall per size bucket; a truth lesion counts as detected when one
    predicted component covers at least half of its voxels.  A case whose
    scores and truth differ in grid raises ShapeMismatchError.  Both
    labelings are read at the truth voxels only."""
    totals = {"small": 0, "medium": 0, "large": 0}
    detected = {"small": 0, "medium": 0, "large": 0}
    for case in cases:
        if isinstance(case, Phantom):
            case = case.image, case.truth
        if not (isinstance(case, Sequence) and len(case) == 2
                and isinstance(case[0], Volume) and isinstance(case[1], Mask)):
            raise TypeError("cases must be Phantoms or (Volume, Mask) pairs")
        image, truth = case
        pred = model.score_volume(image)
        require_same_shape(pred, truth)
        fg = _flat(truth.data)
        hit = _flat(threshold(pred, thresh).data)
        t = _flat_labels(fg, truth.shape.dims, connectivity)[0][fg]
        p = _flat_labels(hit, truth.shape.dims, connectivity)[0][fg]
        for lesion_id, vol in enumerate(np.bincount(t)[1:].tolist(), start=1):
            counts = np.bincount(p[t == lesion_id])
            best = int(counts[1:].max()) if counts.size > 1 else 0
            bucket = _bucket_of(vol)
            totals[bucket] += 1
            if 2 * best >= vol:
                detected[bucket] += 1
    return LesionRecallReport(
        small=BucketRecall(totals["small"], detected["small"]),
        medium=BucketRecall(totals["medium"], detected["medium"]),
        large=BucketRecall(totals["large"], detected["large"]),
    )


# ---------------------------------------------------------------------------
# Corpus builder and scorer files
# ---------------------------------------------------------------------------

def make_corpus(count: int, start_seed: int, dims=(24, 24, 24), *,
                small_radius=(1.3, 1.7), large_radius=(3.8, 4.4),
                small_lesions: int = 3, large_lesions: int = 1,
                noise_sigma: float = 0.6, contrast: float = 1.0,
                spacing=(1.0, 1.0, 1.0)) -> tuple[PhantomSpec, ...]:
    """Alternating small-lesion / large-lesion phantom specs.

    Phantom i gets seed start_seed + i; even indices draw lesions from
    the small radius range, odd from the large one.
    """
    if count < 0:
        raise ValueError(f"corpus count must be >= 0, got {count}")
    specs = []
    for i in range(count):
        small = i % 2 == 0
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
        return VoxelScorer(np.frombuffer(payload, dtype="<f4").astype(np.float64))
