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

A batch is laid out once, as a plan (_truth): the cases one after another
in x-fastest order, the flat positions of the lesion voxels (the
foreground index set) and the weights at those positions only; background
weights are never read.  Predictions arrive as one flat float64 array in
the same order.  Each lesion-voxel sum (TP, TP.W, FN.W) computes its
terms at the foreground positions only and scatters them into a zero
grid, so the reduction adds exactly the terms, zeros included, that a
full-grid selection would; FP zeroes the lesion voxels of a copy of the
predictions.

Gradients are analytic (quotient rule over the three global sums); the
grad_check harness cross-checks them against central finite differences.
Every sum goes through reduction.batch_sum(values, sizes): a fixed-order
pairwise tree within each case (one (k, n) tree pass per run of k
consecutive cases of n voxels, bit-identical to k separate trees), then
an exactly rounded sum across cases, so values are reproducible and
case-order free.
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


@dataclass(frozen=True)
class _Plan:
    """A batch's ground truth, laid out once for every evaluation.

    The cases sit one after another in x-fastest order (case i holds
    sizes[i] voxels); idx holds the ascending flat positions of the lesion
    voxels and w their weights (None when the objective is unweighted).
    Background weights are never kept, so they cannot reach the loss.
    """

    sizes: tuple[int, ...]
    idx: np.ndarray
    w: np.ndarray | None

    @property
    def n(self) -> int:
        return sum(self.sizes)


def _truth(obj: Objective, gts, curve: WeightCurveParams | None,
           connectivity: Connectivity, omega=None) -> _Plan:
    """The plan of ground-truth masks gts; when obj's ratio term is
    weighted, its weights come from omega's maps, else from maps built
    from the masks' lesion labelings."""
    fgs = [g.data.ravel(order="F") for g in gts]
    sizes = tuple(fg.size for fg in fgs)
    idx = np.flatnonzero(np.concatenate(fgs))
    if not obj.weighted:
        return _Plan(sizes, idx, None)
    if omega is None:
        maps = (build_weight_map(label_components(g, connectivity), curve)
                for g in gts)
    else:
        maps, _ = _as_list(omega, WeightMap)
        if len(maps) != len(gts):
            raise ShapeMismatchError("batch lengths differ between gt and omega")
        for g, w in zip(gts, maps):
            require_same_shape(g, w)
    w = np.concatenate([m.weights.ravel(order="F")[fg] for m, fg in zip(maps, fgs)])
    return _Plan(sizes, idx, w)


def _bounds(sizes):
    """(start, stop) of each case in the flat layout."""
    stops = np.cumsum(sizes).tolist()
    return list(zip([0] + stops[:-1], stops))


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
    plan = _truth(obj, gts, curve, connectivity, omega)
    q = np.empty(plan.n)    # the predictions, flat float64, in plan order
    for p, (start, stop) in zip(preds, _bounds(plan.sizes)):
        q[start:stop].reshape(p.shape.dims, order="F")[...] = p.data
    return obj, plan, q, preds, single


def _wrap(value, grad, plan: _Plan, preds, single) -> LossReport:
    if grad is None:
        return LossReport(float(value))
    vols = [
        Volume(p.shape, grad[start:stop].reshape(p.shape.dims, order="F")
               .astype(np.float32))
        for p, (start, stop) in zip(preds, _bounds(plan.sizes))
    ]
    return LossReport(float(value), vols[0] if single else vols)


# ---------------------------------------------------------------------------
# Flat cores: a plan and flat float64 predictions q in, float64 out; also
# used by the trainer
# ---------------------------------------------------------------------------

def _ce_core(plan: _Plan, q, clamp: float, want_grad: bool):
    n, idx = q.size, plan.idx
    lo, hi = clamp, 1.0 - clamp
    t = 1.0 - q             # the clamped probability of each voxel's true class
    t[idx] = q[idx]
    np.clip(t, lo, hi, out=t)
    # -log commutes exactly with the tree and the exact case sum
    value = -batch_sum(np.log(t), plan.sizes) / n
    if not want_grad:
        return value, None
    inside = (q >= lo) & (q <= hi)          # the clamp is flat outside
    np.divide(1.0, t, out=t)
    t[idx] = -t[idx]
    t *= inside
    t /= n
    return value, t


def _ratio_core(plan: _Plan, q, params: TverskyParams, want_grad: bool,
                weight_tp_denominator: bool):
    """Tversky ratio over global sums.

    An unweighted plan means unit weights and the "1 - ratio" form; the
    denominator TP sum then equals the numerator one and is not summed
    again.  With weights the value is the negated WLT ratio.
    """
    a, b, s = params.alpha, params.beta, params.smooth
    idx, w, sizes = plan.idx, plan.w, plan.sizes
    q_fg = q[idx]
    buf = np.zeros(q.size)

    def fg_sum(terms):
        # lesion-voxel terms at their places in a zero grid: the tree adds
        # the same zeros as a full-grid selection would
        buf[idx] = terms
        return batch_sum(buf, sizes)

    plain_tp_den = w is not None and not weight_tp_denominator
    tp_w = fg_sum(q_fg if w is None else q_fg * w)
    fn_w = fg_sum(1.0 - q_fg if w is None else (1.0 - q_fg) * w)
    tp_den = fg_sum(q_fg) if plain_tp_den else tp_w
    np.copyto(buf, q)
    buf[idx] = 0.0
    fp = batch_sum(buf, sizes)
    num = s + tp_w
    den = s + tp_den + a * fp + b * fn_w
    ratio = num / den
    value = 1.0 - ratio if w is None else -ratio
    if not want_grad:
        return value, None
    # a background voxel moves FP only (d num = 0, d den = a; "0.0 +" keeps
    # alpha = -0.0 from signing the zero gradient); a lesion voxel of
    # weight w moves TP.W, the denominator TP sum and FN.W
    w = 1.0 if w is None else w
    dden = (1.0 if plain_tp_den else w) - b * w
    buf.fill(num * (0.0 + a) / (den * den))
    buf[idx] = (num * dden - w * den) / (den * den)
    return value, buf


def _objective_core(obj: Objective, plan: _Plan, q, want_grad: bool):
    """Value (and flat gradient) of obj over a plan and flat float64
    predictions q."""
    ce = _ce_core(plan, q, obj.clamp, want_grad) if obj.ce else None
    if obj.ratio is None:
        return ce
    ratio = _ratio_core(plan, q, obj.tversky, want_grad, obj.weight_tp_denominator)
    if ce is None:
        return ratio
    lam = obj.ce_weight
    (ce_v, ce_g), (r_v, r_g) = ce, ratio
    value = lam * ce_v + (1.0 - lam) * r_v
    if not want_grad:
        return value, None
    ce_g *= lam
    r_g *= 1.0 - lam
    ce_g += r_g
    return value, ce_g


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
    obj, plan, q, preds, single = _prepare(
        kind, gt, pred, tversky, curve, ce_weight, connectivity, clamp,
        weight_tp_denominator, omega)
    value, grad = _objective_core(obj, plan, q, want_grad)
    return _wrap(value, grad, plan, preds, single)


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
    max_voxels (at least 1) caps the voxels checked per case, drawn with
    seed; None checks every voxel.
    """
    if not (np.isfinite(step) and step > 0.0):
        raise ValueError(f"degenerate step: {step}")
    if max_voxels is not None and max_voxels < 1:
        raise ValueError(f"max_voxels must be >= 1, got {max_voxels}")
    obj, plan, q, _preds, _single = _prepare(
        kind, gt, pred, tversky, curve, ce_weight, connectivity, clamp,
        weight_tp_denominator)
    _, grad = _objective_core(obj, plan, q, True)

    rng = np.random.default_rng(seed)
    worst = 0.0
    for start, stop in _bounds(plan.sizes):
        js = np.arange(stop - start)
        if max_voxels is not None and js.size > max_voxels:
            js = np.sort(rng.choice(js.size, size=max_voxels, replace=False))
        for j in start + js:
            q0 = q[j]       # q is this call's own copy: perturb in place
            q[j] = q0 + step
            up = _objective_core(obj, plan, q, False)[0]
            q[j] = q0 - step
            down = _objective_core(obj, plan, q, False)[0]
            q[j] = q0
            fd = (up - down) / (2.0 * step)
            a = grad[j]
            err = abs(a - fd) / max(1.0, abs(a))
            if err > worst:
                worst = err
    return worst
