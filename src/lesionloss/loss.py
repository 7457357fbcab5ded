"""Tversky, cross-entropy, lesion-weighted Tversky and combined losses.

All losses reduce over every voxel of every case in a batch (a batch is
a list of same-purpose grids; a single Mask/Volume pair is a batch of
one).  Per-voxel confusion terms for ground truth p and prediction q:

    TP = p * q        FN = p * (1 - q)        FP = (1 - p) * q

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
Per-case sums use a fixed-order pairwise tree and cases combine with an
exactly rounded sum, so values are reproducible and case-order free.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .components import Connectivity, DEFAULT_CONNECTIVITY, label_components
from .reduction import exact_sum, pairwise_sum
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
# Case normalization: public ops accept one case or a batch list
# ---------------------------------------------------------------------------

def _as_list(x, kind):
    if isinstance(x, kind):
        return [x], True
    items = list(x)
    if not items or not all(isinstance(i, kind) for i in items):
        raise TypeError(f"expected {kind.__name__} or a nonempty sequence of them")
    return items, False


def _case_arrays(gt, pred):
    gts, single = _as_list(gt, Mask)
    preds, _ = _as_list(pred, Volume)
    if len(gts) != len(preds):
        raise ShapeMismatchError("batch lengths differ between gt and pred")
    cases = []
    for g, q in zip(gts, preds):
        require_same_shape(g, q)
        q.require_probability()
        cases.append(
            (
                g.data.ravel(order="F").astype(np.float64),
                q.data.ravel(order="F").astype(np.float64),
            )
        )
    return cases, gts, preds, single


def _omega_arrays(omega, gts):
    maps, _ = _as_list(omega, WeightMap)
    if len(maps) != len(gts):
        raise ShapeMismatchError("batch lengths differ between gt and omega")
    out = []
    for g, w in zip(gts, maps):
        require_same_shape(g, w)
        out.append(w.weights.ravel(order="F"))
    return out


def _weight_arrays(gts, curve: WeightCurveParams, connectivity: Connectivity):
    """Flat weight map of each ground-truth mask's lesion labeling."""
    return [
        build_weight_map(label_components(g, connectivity), curve)
        .weights.ravel(order="F")
        for g in gts
    ]


def _wrap(value, grads, preds, single) -> LossReport:
    if grads is None:
        return LossReport(float(value))
    vols = [
        Volume(p.shape, g.reshape(p.shape.dims, order="F").astype(np.float32))
        for p, g in zip(preds, grads)
    ]
    return LossReport(float(value), vols[0] if single else vols)


# ---------------------------------------------------------------------------
# Array-level cores (float64 in, float64 out); also used by the trainer
# ---------------------------------------------------------------------------

def _ce_core(cases, clamp: float, want_grad: bool):
    n_total = sum(p.size for p, _ in cases)
    lo, hi = clamp, 1.0 - clamp
    parts = []
    for p, q in cases:
        c1 = np.clip(q, lo, hi)
        c2 = np.clip(1.0 - q, lo, hi)
        parts.append(pairwise_sum(-(p * np.log(c1) + (1.0 - p) * np.log(c2))))
    value = exact_sum(parts) / n_total
    if not want_grad:
        return value, None
    grads = []
    for p, q in cases:
        inside = ((q >= lo) & (q <= hi)).astype(np.float64)
        c1 = np.clip(q, lo, hi)
        c2 = np.clip(1.0 - q, lo, hi)
        grads.append(inside * (-p / c1 + (1.0 - p) / c2) / n_total)
    return value, grads


def _weigh(x, w):
    return x if w is None else x * w


def _ratio_core(cases, omegas, params: TverskyParams, want_grad: bool,
                weight_tp_denominator: bool):
    """Tversky ratio over global sums.

    omegas None means unit weights and the "1 - ratio" form; the
    denominator TP sum then equals the numerator one and is not summed
    again.  With weight maps the value is the negated WLT ratio.
    """
    a, b, s = params.alpha, params.beta, params.smooth
    ws = omegas if omegas is not None else [None] * len(cases)
    tp_w = exact_sum(pairwise_sum(_weigh(p * q, w)) for (p, q), w in zip(cases, ws))
    fp = exact_sum(pairwise_sum((1.0 - p) * q) for p, q in cases)
    fn_w = exact_sum(
        pairwise_sum(_weigh(p * (1.0 - q), w)) for (p, q), w in zip(cases, ws)
    )
    plain_tp_den = omegas is not None and not weight_tp_denominator
    tp_den = (exact_sum(pairwise_sum(p * q) for p, q in cases)
              if plain_tp_den else tp_w)
    num = s + tp_w
    den = s + tp_den + a * fp + b * fn_w
    ratio = num / den
    value = 1.0 - ratio if omegas is None else -ratio
    if not want_grad:
        return value, None
    grads = []
    for (p, _q), w in zip(cases, ws):
        dnum = _weigh(p, w)
        dtp_den = p if plain_tp_den else dnum
        dden = dtp_den + a * (1.0 - p) - _weigh(b * p, w)
        grads.append((num * dden - dnum * den) / (den * den))
    return value, grads


def _objective_core(obj: Objective, cases, omegas, want_grad: bool):
    """Value (and per-case gradients) of obj over float64 (p, q) cases.

    omegas holds the flat weight maps when obj's ratio term is weighted.
    """
    ce = _ce_core(cases, obj.clamp, want_grad) if obj.ce else None
    if obj.ratio is None:
        return ce
    ratio = _ratio_core(cases, omegas if obj.weighted else None, obj.tversky,
                        want_grad, obj.weight_tp_denominator)
    if ce is None:
        return ratio
    lam = obj.ce_weight
    (ce_v, ce_g), (r_v, r_g) = ce, ratio
    value = lam * ce_v + (1.0 - lam) * r_v
    if not want_grad:
        return value, None
    return value, [lam * g1 + (1.0 - lam) * g2 for g1, g2 in zip(ce_g, r_g)]


def _prepare(kind, gt, pred, tversky, curve, ce_weight, connectivity, clamp,
             weight_tp_denominator, omega=None):
    obj = objective(kind, tversky=tversky, ce_weight=ce_weight, clamp=clamp,
                    weight_tp_denominator=weight_tp_denominator)
    cases, gts, preds, single = _case_arrays(gt, pred)
    omegas = None
    if obj.weighted:
        if omega is not None:
            omegas = _omega_arrays(omega, gts)
        else:
            curve = curve if curve is not None else WeightCurveParams()
            omegas = _weight_arrays(gts, curve, connectivity)
    return obj, cases, omegas, preds, single


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------

def confusion_terms(gt: Mask, pred: Volume) -> tuple[Volume, Volume, Volume]:
    """Per-voxel soft (TP, FP, FN) fields for one case."""
    require_same_shape(gt, pred)
    pred.require_probability()
    p = gt.data.astype(np.float32)
    q = pred.data
    return (
        Volume(gt.shape, p * q),
        Volume(gt.shape, (1.0 - p) * q),
        Volume(gt.shape, p * (1.0 - q)),
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
    obj, cases, omegas, preds, single = _prepare(
        kind, gt, pred, tversky, curve, ce_weight, connectivity, clamp,
        weight_tp_denominator, omega)
    value, grads = _objective_core(obj, cases, omegas, want_grad)
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
    obj, cases, omegas, _preds, _single = _prepare(
        kind, gt, pred, tversky, curve, ce_weight, connectivity, clamp,
        weight_tp_denominator)

    def value_at(qs):
        c = [(p, q) for (p, _), q in zip(cases, qs)]
        return _objective_core(obj, c, omegas, False)[0]

    _, grads = _objective_core(obj, cases, omegas, True)

    qs0 = [q for _, q in cases]
    rng = np.random.default_rng(seed)
    worst = 0.0
    for ci, q0 in enumerate(qs0):
        idx = np.arange(q0.size)
        if max_voxels is not None and q0.size > max_voxels:
            idx = np.sort(rng.choice(q0.size, size=max_voxels, replace=False))
        for j in idx:
            qp = [q.copy() if k == ci else q for k, q in enumerate(qs0)]
            qp[ci][j] = q0[j] + step
            up = value_at(qp)
            qp[ci][j] = q0[j] - step
            down = value_at(qp)
            fd = (up - down) / (2.0 * step)
            a = grads[ci][j]
            err = abs(a - fd) / max(1.0, abs(a))
            if err > worst:
                worst = err
    return worst
