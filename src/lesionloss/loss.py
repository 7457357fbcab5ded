"""Tversky, cross-entropy, lesion-weighted Tversky and combined losses.

All losses reduce over every voxel of every case in a batch (a batch is
a list of same-purpose grids; a single Mask/Volume pair is a batch of
one).  Ground truth is a boolean mask, so the per-voxel confusion terms
of a prediction q are selections, not products:

    TP = q on lesion voxels    FN = 1 - q on lesion voxels
    FP = q on background voxels, and each term is 0 elsewhere

For p in {0, 1} they are the values of p*q, p*(1 - q) and (1 - p)*q.
Cross entropy reads the probability of each voxel's true class, q on
lesion voxels and 1 - q on background, and takes one log of it.

Every loss kind, of this API and of the trainer, is a row of one table
(_TERMS): a cross-entropy term, a ratio term of global sums, or both,
mixed as ce_weight * CE + (1 - ce_weight) * ratio.  The ratio term is
plain Tversky, 1 - (s + TP) / (s + TP + a*FP + b*FN), or its
lesion-weighted form (WLT), whose numerator TP sum and denominator FN sum
carry the per-voxel weight map while the denominator TP sum stays
unweighted; that asymmetry is deliberate and preserved as published (a
keyword flag weights both for sensitivity studies).  WLT's value is a
negated ratio in roughly [-w_max, 0], unlike the "1 - ratio" form.  One
core (_objective_core) evaluates any row for the public loss functions,
evaluate_loss, grad_check and the trainer.

Gradients are analytic (quotient rule over the three global sums); the
grad_check harness cross-checks them against central finite differences.
Every sum goes through reduction.batch_sum: a fixed-order pairwise tree
within each case, then an exactly rounded sum across cases, so values
are reproducible and case-order free.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .components import Connectivity, DEFAULT_CONNECTIVITY, label_components
from .reduction import batch_sum
from .volume import Mask, ShapeMismatchError, Volume, require_same_shape
from .weighting import WeightCurveParams, WeightMap, build_weight_map

CE_CLAMP_DEFAULT = 1e-7
WLT_SMOOTH_DEFAULT = 1e-6

LOSS_KINDS = ("tversky", "ce", "wlt", "combined")
TRAIN_LOSS_KINDS = ("tversky", "tversky+ce", "wlt-combined")


@dataclass(frozen=True)
class TverskyParams:
    """False-positive weight alpha, false-negative weight beta, smoothing."""

    alpha: float = 0.3
    beta: float = 1.0
    smooth: float = 1.0

    def __post_init__(self):
        if not (np.isfinite(self.alpha) and self.alpha >= 0.0):
            raise ValueError("alpha must be >= 0")
        if not (np.isfinite(self.beta) and self.beta >= 0.0):
            raise ValueError("beta must be >= 0")
        if self.alpha + self.beta <= 0.0:
            raise ValueError("alpha + beta must be positive")
        if not (np.isfinite(self.smooth) and self.smooth > 0.0):
            raise ValueError("smooth must be positive")


def default_wlt_params() -> TverskyParams:
    return TverskyParams(smooth=WLT_SMOOTH_DEFAULT)


@dataclass(frozen=True)
class CombinedParams:
    """Mix of cross-entropy (weight ce_weight) and lesion-weighted Tversky."""

    ce_weight: float = 0.5
    tversky: TverskyParams = TverskyParams(smooth=WLT_SMOOTH_DEFAULT)
    curve: WeightCurveParams = WeightCurveParams()

    def __post_init__(self):
        if not 0.0 <= self.ce_weight <= 1.0:
            raise ValueError("ce_weight must lie in [0, 1]")


@dataclass(frozen=True)
class LossReport:
    value: float
    gradient: Volume | list[Volume] | None = None

    def __post_init__(self):
        if not np.isfinite(self.value):
            raise ValueError("loss value is non-finite")


# ---------------------------------------------------------------------------
# The loss table: every kind of the loss API and of the trainer
# ---------------------------------------------------------------------------

# kind -> (has a CE term, ratio term, default ratio parameters); the ratio
# term is None, "tversky" (unit weights, 1 - ratio) or "wlt" (-ratio)
_TERMS = {
    "tversky": (False, "tversky", TverskyParams()),
    "ce": (True, None, default_wlt_params()),
    "wlt": (False, "wlt", default_wlt_params()),
    "combined": (True, "wlt", default_wlt_params()),
    "tversky+ce": (True, "tversky", default_wlt_params()),
    "wlt-combined": (True, "wlt", default_wlt_params()),
}


@dataclass(frozen=True)
class Objective:
    """A row of the loss table with the parameters of one evaluation."""

    ce: bool
    ratio: str | None
    tversky: TverskyParams
    ce_weight: float
    clamp: float
    weight_tp_denominator: bool

    def __post_init__(self):
        if not 0.0 <= self.ce_weight <= 1.0:
            raise ValueError("ce_weight must lie in [0, 1]")
        if not 0.0 < self.clamp < 0.5:
            raise ValueError("clamp must lie in (0, 0.5)")

    @property
    def weighted(self) -> bool:
        return self.ratio == "wlt"


def objective(kind: str, kinds=LOSS_KINDS, *, tversky: TverskyParams | None = None,
              ce_weight: float = 0.5, clamp: float = CE_CLAMP_DEFAULT,
              weight_tp_denominator: bool = False) -> Objective:
    """Look kind up in the table (it must be one of kinds) and validate."""
    if kind not in kinds:
        raise ValueError(f"unknown loss kind: {kind!r} (choose from {kinds})")
    ce, ratio, default = _TERMS[kind]
    return Objective(ce, ratio, tversky if tversky is not None else default,
                     ce_weight, clamp, weight_tp_denominator)


# ---------------------------------------------------------------------------
# Batch preparation: public ops accept one case or a batch list
# ---------------------------------------------------------------------------

def _as_list(x, kind):
    if isinstance(x, kind):
        return [x], True
    items = list(x)
    if not items or not all(isinstance(i, kind) for i in items):
        raise TypeError(f"expected {kind.__name__} or a nonempty sequence of them")
    return items, False


def _truth(obj: Objective, gts, curve: WeightCurveParams | None,
           connectivity: Connectivity, omega=None):
    """Flat x-fastest boolean foreground of each ground-truth mask and, when
    obj's ratio term is weighted, each flat weight map: omega's maps, else
    maps built from the masks' lesion labelings (None when unweighted)."""
    fgs = [g.data.ravel(order="F") for g in gts]
    if not obj.weighted:
        return fgs, None
    if omega is None:
        maps = [build_weight_map(label_components(g, connectivity), curve)
                for g in gts]
    else:
        maps, _ = _as_list(omega, WeightMap)
        if len(maps) != len(gts):
            raise ShapeMismatchError("batch lengths differ between gt and omega")
        for g, w in zip(gts, maps):
            require_same_shape(g, w)
    return fgs, [w.weights.ravel(order="F") for w in maps]


def _prepare(kind, gt, pred, tversky, curve, ce_weight, connectivity, clamp,
             weight_tp_denominator, omega=None):
    obj = objective(kind, tversky=tversky, ce_weight=ce_weight, clamp=clamp,
                    weight_tp_denominator=weight_tp_denominator)
    gts, single = _as_list(gt, Mask)
    preds, _ = _as_list(pred, Volume)
    if len(gts) != len(preds):
        raise ShapeMismatchError("batch lengths differ between gt and pred")
    for g, q in zip(gts, preds):
        require_same_shape(g, q)
        q.require_probability()
    fgs, omegas = _truth(obj, gts, curve, connectivity, omega)
    qs = [q.data.ravel(order="F").astype(np.float64) for q in preds]
    return obj, fgs, qs, omegas, preds, single


def _wrap(value, grads, preds, single) -> LossReport:
    if grads is None:
        return LossReport(float(value))
    vols = [
        Volume(p.shape, g.reshape(p.shape.dims, order="F").astype(np.float32))
        for p, g in zip(preds, grads)
    ]
    return LossReport(float(value), vols[0] if single else vols)


# ---------------------------------------------------------------------------
# Array-level cores: boolean foregrounds and float64 predictions in, float64
# out; also used by the trainer
# ---------------------------------------------------------------------------

def _ce_core(fgs, qs, clamp: float, want_grad: bool):
    n_total = sum(q.size for q in qs)
    lo, hi = clamp, 1.0 - clamp
    # the clamped probability of each voxel's true class
    ts = [np.clip(np.where(fg, q, 1.0 - q), lo, hi) for fg, q in zip(fgs, qs)]
    value = batch_sum(-np.log(t) for t in ts) / n_total
    if not want_grad:
        return value, None
    grads = []
    for fg, q, t in zip(fgs, qs, ts):
        inside = (q >= lo) & (q <= hi)      # the clamp is flat outside
        grads.append(np.where(fg, -1.0, 1.0) / t * inside / n_total)
    return value, grads


def _ratio_core(fgs, qs, omegas, params: TverskyParams, want_grad: bool,
                weight_tp_denominator: bool):
    """Tversky ratio over global sums.

    omegas None means unit weights and the "1 - ratio" form; the
    denominator TP sum then equals the numerator one and is not summed
    again.  With weight maps the value is the negated WLT ratio.
    """
    a, b, s = params.alpha, params.beta, params.smooth
    ws = omegas if omegas is not None else [1.0] * len(fgs)
    cases = list(zip(fgs, qs, ws))
    tp_w = batch_sum(np.where(fg, q * w, 0.0) for fg, q, w in cases)
    fp = batch_sum(np.where(fg, 0.0, q) for fg, q, _ in cases)
    fn_w = batch_sum(np.where(fg, (1.0 - q) * w, 0.0) for fg, q, w in cases)
    plain_tp_den = omegas is not None and not weight_tp_denominator
    tp_den = (batch_sum(np.where(fg, q, 0.0) for fg, q, _ in cases)
              if plain_tp_den else tp_w)
    num = s + tp_w
    den = s + tp_den + a * fp + b * fn_w
    ratio = num / den
    value = 1.0 - ratio if omegas is None else -ratio
    if not want_grad:
        return value, None
    # a background voxel moves FP only (d num = 0, d den = a; "0.0 +" keeps
    # alpha = -0.0 from signing the zero gradient); a lesion voxel of
    # weight w moves TP.W, the denominator TP sum and FN.W
    bg = num * (0.0 + a) / (den * den)
    grads = []
    for fg, _q, w in cases:
        dden = (1.0 if plain_tp_den else w) - b * w
        grads.append(np.where(fg, (num * dden - w * den) / (den * den), bg))
    return value, grads


def _objective_core(obj: Objective, fgs, qs, omegas, want_grad: bool):
    """Value (and per-case gradients) of obj over boolean foregrounds fgs
    and float64 predictions qs.

    omegas holds the flat weight maps when obj's ratio term is weighted.
    """
    ce = _ce_core(fgs, qs, obj.clamp, want_grad) if obj.ce else None
    if obj.ratio is None:
        return ce
    ratio = _ratio_core(fgs, qs, omegas if obj.weighted else None, obj.tversky,
                        want_grad, obj.weight_tp_denominator)
    if ce is None:
        return ratio
    lam = obj.ce_weight
    (ce_v, ce_g), (r_v, r_g) = ce, ratio
    value = lam * ce_v + (1.0 - lam) * r_v
    if not want_grad:
        return value, None
    return value, [lam * g1 + (1.0 - lam) * g2 for g1, g2 in zip(ce_g, r_g)]


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------

def confusion_terms(gt: Mask, pred: Volume) -> tuple[Volume, Volume, Volume]:
    """Per-voxel soft (TP, FP, FN) fields for one case."""
    require_same_shape(gt, pred)
    pred.require_probability()
    fg, q = gt.data, pred.data
    return (
        Volume(gt.shape, np.where(fg, q, 0.0)),
        Volume(gt.shape, np.where(fg, 0.0, q)),
        Volume(gt.shape, np.where(fg, 1.0 - q, 0.0)),
    )


def tversky_loss(gt, pred, params: TverskyParams | None = None,
                 want_grad: bool = False) -> LossReport:
    """1 - (smooth + TP) / (smooth + TP + alpha*FP + beta*FN) over global sums."""
    return evaluate_loss("tversky", gt, pred, tversky=params, want_grad=want_grad)


def cross_entropy_loss(gt, pred, want_grad: bool = False,
                       clamp: float = CE_CLAMP_DEFAULT) -> LossReport:
    """Voxel-mean binary cross entropy with probabilities clamped away from 0/1."""
    return evaluate_loss("ce", gt, pred, want_grad=want_grad, clamp=clamp)


def wlt_loss(gt, pred, omega, params: TverskyParams | None = None,
             want_grad: bool = False,
             weight_tp_denominator: bool = False) -> LossReport:
    """Lesion-weighted Tversky: -(eps + TP.W) / (eps + TP + alpha*FP + beta*FN.W).

    The weight map must come from the ground truth's lesion labeling.
    eps is params.smooth (default 1e-6 here, not the plain-Tversky 1).
    """
    return evaluate_loss("wlt", gt, pred, tversky=params, want_grad=want_grad,
                         weight_tp_denominator=weight_tp_denominator, omega=omega)


def combined_loss(gt, pred, params: CombinedParams | None = None,
                  want_grad: bool = False,
                  connectivity: Connectivity = DEFAULT_CONNECTIVITY,
                  clamp: float = CE_CLAMP_DEFAULT,
                  weight_tp_denominator: bool = False) -> LossReport:
    """ce_weight * CE + (1 - ce_weight) * WLT, weight maps built internally."""
    params = params if params is not None else CombinedParams()
    return evaluate_loss("combined", gt, pred, tversky=params.tversky,
                         curve=params.curve, ce_weight=params.ce_weight,
                         want_grad=want_grad, connectivity=connectivity,
                         clamp=clamp, weight_tp_denominator=weight_tp_denominator)


def evaluate_loss(kind: str, gt, pred, *, tversky: TverskyParams | None = None,
                  curve: WeightCurveParams | None = None, ce_weight: float = 0.5,
                  want_grad: bool = False,
                  connectivity: Connectivity = DEFAULT_CONNECTIVITY,
                  clamp: float = CE_CLAMP_DEFAULT,
                  weight_tp_denominator: bool = False,
                  omega=None) -> LossReport:
    """Evaluate a loss by name: tversky | ce | wlt | combined.

    For wlt and combined the weight map is built from the ground-truth
    labeling unless one is passed explicitly.
    """
    obj, fgs, qs, omegas, preds, single = _prepare(
        kind, gt, pred, tversky, curve, ce_weight, connectivity, clamp,
        weight_tp_denominator, omega)
    value, grads = _objective_core(obj, fgs, qs, omegas, want_grad)
    return _wrap(value, grads, preds, single)


def grad_check(kind: str, gt, pred, step: float = 1e-4, *,
               tversky: TverskyParams | None = None,
               curve: WeightCurveParams | None = None, ce_weight: float = 0.5,
               connectivity: Connectivity = DEFAULT_CONNECTIVITY,
               clamp: float = CE_CLAMP_DEFAULT,
               weight_tp_denominator: bool = False,
               max_voxels: int | None = None, seed: int = 0) -> float:
    """Max relative error between analytic and central-difference gradients.

    Error per voxel is |analytic - fd| / max(1, |analytic|).  Predictions
    must sit far enough inside (0, 1) for the +/- step to stay valid.
    """
    if not (np.isfinite(step) and step > 0.0):
        raise ValueError(f"degenerate step: {step}")
    obj, fgs, qs, omegas, _preds, _single = _prepare(
        kind, gt, pred, tversky, curve, ce_weight, connectivity, clamp,
        weight_tp_denominator)
    _, grads = _objective_core(obj, fgs, qs, omegas, True)

    rng = np.random.default_rng(seed)
    worst = 0.0
    for q, grad in zip(qs, grads):
        idx = np.arange(q.size)
        if max_voxels is not None and q.size > max_voxels:
            idx = np.sort(rng.choice(q.size, size=max_voxels, replace=False))
        for j in idx:
            q0 = q[j]       # qs is this call's own copy: perturb in place
            q[j] = q0 + step
            up = _objective_core(obj, fgs, qs, omegas, False)[0]
            q[j] = q0 - step
            down = _objective_core(obj, fgs, qs, omegas, False)[0]
            q[j] = q0
            fd = (up - down) / (2.0 * step)
            a = grad[j]
            err = abs(a - fd) / max(1.0, abs(a))
            if err > worst:
                worst = err
    return worst
