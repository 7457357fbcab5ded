"""Desk-scale training harness: a linear-logistic voxel scorer driven by
the loss engine, plus lesion-wise recall evaluation by size bucket.

The scorer maps five fixed per-voxel features (raw intensity, 3^3 mean,
5^3 mean, 3^3 variance, constant bias) through a logistic unit.  Full
batch gradient descent composes the loss gradients with the logistic
Jacobian; runs are deterministic for a fixed seed and invariant to the
order of the training phantoms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage
from scipy.special import expit

from .components import Connectivity, DEFAULT_CONNECTIVITY, label_components
from .loss import (
    CE_CLAMP_DEFAULT,
    TRAIN_LOSS_KINDS,
    Objective,
    TverskyParams,
    _bounds,
    _objective_core,
    _truth,
    objective,
)
from .reduction import exact_sum
from .synth import Phantom, PhantomSpec, generate
from .volume import GridShape, Mask, Volume, _freeze, threshold
from .weighting import WeightCurveParams

FEATURE_NAMES = ("raw", "mean3", "mean5", "var3", "bias")

SMALL_BUCKET_MAX = 20    # lesion is small when voxels < 20
LARGE_BUCKET_MIN = 200   # lesion is large when voxels > 200


def extract_features(image: Volume) -> np.ndarray:
    """Per-voxel feature matrix (voxels x 5), rows in x-fastest order."""
    img = image.data.astype(np.float64)
    m3 = ndimage.uniform_filter(img, size=3, mode="reflect")
    m5 = ndimage.uniform_filter(img, size=5, mode="reflect")
    v3 = np.clip(ndimage.uniform_filter(img * img, size=3, mode="reflect")
                 - m3 * m3, 0.0, None)
    cols = (img, m3, m5, v3, np.ones_like(img))
    return np.stack([c.ravel(order="F") for c in cols], axis=1)


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
        q = expit(extract_features(image) @ self.weights)
        return Volume(
            image.shape,
            q.reshape(image.shape.dims, order="F").astype(np.float32),
        )


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

    def __post_init__(self):
        self.objective()    # rejects an unknown loss_kind, ce_weight or clamp
        if not self.learning_rate > 0.0:
            raise ValueError("learning_rate must be positive")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")

    def objective(self) -> Objective:
        return objective(self.loss_kind, TRAIN_LOSS_KINDS, tversky=self.tversky,
                         ce_weight=self.ce_weight, clamp=self.clamp)


def _prepare_batch(cfg: TrainConfig, phantoms):
    """The batch's stacked features (5 x voxels, cases in plan order) and
    its ground-truth plan."""
    plan = _truth(cfg.objective(), [ph.truth for ph in phantoms],
                  cfg.curve, cfg.connectivity)
    X = np.empty((len(FEATURE_NAMES), plan.n))
    for ph, (start, stop) in zip(phantoms, _bounds(plan.sizes)):
        X[:, start:stop] = extract_features(ph.image).T
    return X, plan


def _batch_eval(cfg: TrainConfig, prep, theta, want_grad):
    X, plan = prep
    # one matmul per case: each voxel's score then depends on its own case
    # only, never on where the case sits in the batch
    cases = _bounds(plan.sizes)
    z = np.empty(plan.n)
    for start, stop in cases:
        np.matmul(theta, X[:, start:stop], out=z[start:stop])
    q = expit(z, out=z)
    value, g = _objective_core(cfg.objective(), plan, q, want_grad)
    if not want_grad:
        return value, None
    # chain rule through the logistic unit, g * q * (1 - q) in place, then
    # per-case partials and an order-free case sum
    g *= q
    g *= np.subtract(1.0, q, out=q)
    partials = [X[:, start:stop] @ g[start:stop] for start, stop in cases]
    gtheta = np.array(
        [exact_sum(c[j] for c in partials) for j in range(len(FEATURE_NAMES))]
    )
    return value, gtheta


def scorer_loss(cfg: TrainConfig, weights, phantoms=None, want_grad=False):
    """Batch loss of a weight vector under cfg's corpus (and its gradient).

    Used to cross-check the end-to-end analytic gradient against finite
    differences; pass phantoms to skip regenerating them from the specs.
    """
    if phantoms is None:
        phantoms = [generate(s) for s in cfg.train_specs]
    prep = _prepare_batch(cfg, phantoms)
    theta = np.asarray(weights, dtype=np.float64)
    return _batch_eval(cfg, prep, theta, want_grad)


def train(cfg: TrainConfig) -> tuple[VoxelScorer, list[float]]:
    """Full-batch gradient descent over the configured phantom corpus.

    Returns the trained scorer and the loss curve: entry e is the batch
    loss after e updates (entry 0 is the loss at initialization).
    """
    if not cfg.train_specs:
        raise ValueError("train_specs must not be empty")
    phantoms = [generate(s) for s in cfg.train_specs]
    prep = _prepare_batch(cfg, phantoms)

    theta = initial_scorer(cfg.seed).weights.copy()
    curve: list[float] = []
    for epoch in range(cfg.epochs):
        value, gtheta = _batch_eval(cfg, prep, theta, True)
        if not (np.isfinite(value) and np.isfinite(gtheta).all()):
            raise RuntimeError(
                f"training diverged at epoch {epoch}: loss={value}"
            )
        curve.append(value)
        theta = theta - cfg.learning_rate * gtheta
    final_value, _ = _batch_eval(cfg, prep, theta, False)
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
    predicted component covers at least half of its voxels."""
    totals = {"small": 0, "medium": 0, "large": 0}
    detected = {"small": 0, "medium": 0, "large": 0}
    for case in cases:
        if isinstance(case, Phantom):
            image, truth = case.image, case.truth
        else:
            image, truth = case
        if not isinstance(image, Volume) or not isinstance(truth, Mask):
            raise TypeError("cases must be Phantoms or (Volume, Mask) pairs")
        pred_mask = threshold(model.score_volume(image), thresh)
        pred_lab = label_components(pred_mask, connectivity).labels
        truth_lab = label_components(truth, connectivity)
        for lesion_id, vol in enumerate(truth_lab.volumes, start=1):
            overlap = pred_lab[truth_lab.labels == lesion_id]
            counts = np.bincount(overlap)
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
    """Write weights as a little-endian float32 vector with a text header."""
    payload = np.asarray(model.weights, dtype="<f4").tobytes()
    with open(path, "wb") as fh:
        fh.write(_SCORER_MAGIC + b" %d\n" % len(model.weights))
        fh.write(payload)


def load_scorer(path) -> VoxelScorer:
    with open(path, "rb") as fh:
        header = fh.readline()
        payload = fh.read()
    parts = header.split()
    if len(parts) != 2 or parts[0] != _SCORER_MAGIC:
        raise ValueError(f"{path}: not a f32vec scorer file")
    count = int(parts[1])
    if len(payload) != 4 * count:
        raise ValueError(f"{path}: vector payload size mismatch")
    return VoxelScorer(np.frombuffer(payload, dtype="<f4").astype(np.float64))
