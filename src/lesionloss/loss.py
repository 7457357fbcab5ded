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
set of phase functions evaluates any row for the public loss functions,
evaluate_loss, grad_check and the trainer.

A batch is laid out once, as a plan (_truth; once per loss or grad_check
call and once per shard of a train run): the cases one after another in
x-fastest order, the ascending batch positions of the lesion voxels (the
foreground index set) and the weights at those positions only;
background weights are never read.  A plan always carries weights:
plain Tversky is WLT's unit-weight case, so an unweighted ratio term gets
unit weights and every ratio term runs one formula (x * 1.0 == x, so they
move no bit).
A weighted plan's weights come from the lesion labeling, one omega per
lesion volume read at the lesion voxels; no full-grid weight map is
built.  A plan also holds its cases' bounds, their chunks
(reduction.ChunkTrees: runs of whole cases, or pieces of one large case,
of at most reduction._CHUNK voxels), the predictions q (one flat float64
array in the same order, the plan's only batch-sized buffer) and two
chunks of scratch, through which both phases stream the full-grid terms
chunk by chunk.
The lesion-voxel sums (TP, TP.W, FN.W) take their terms at the foreground
positions only, in one gather of q per evaluation, and each case's sum of
them is exactly rounded (reduction.exact_sum), the same bits in any order
of its terms; only the terms that live on every voxel, FP and CE, are
full-grid tree sums.

Gradients are analytic (quotient rule over the three global sums); the
grad_check harness cross-checks them against central finite differences.
Moving one voxel's prediction changes one leaf of each full-grid term's
case tree, so grad_check lays out every level of a case's CE and FP trees
once, one term at a time (O(n) extra memory for a case of n voxels),
rebuilds each checked voxel's leaf-to-root path (O(log n) per voxel and
term) with the leaf writers of _case_sums, replaces a lesion voxel's term
in each exact lesion-voxel case sum (_expansion), and runs the value
formula of every evaluation (_value) once per case over the arrays of
perturbed global sums: the bits of a full evaluation of each perturbed
batch.

An evaluation runs in two phases over contiguous case shards, each with a
plan of its own built by _truth:

    phase 1 (_case_sums)   each shard's per-case sums of every term
    value (_totals)        the exact global sums, then the value (_value)
    phase 2 (_gradient)    each shard's gradient from the global sums,
                           yielded chunk by chunk (the ratio term's
                           lesion gradient taken once, from the weights)

Each FP and CE case sum is the fixed-order pairwise tree of
reduction.pairwise_sum over that case alone (one (k, n) tree pass per chunk
of k consecutive cases of n voxels, bit-identical to k separate trees; a
larger case's pieces are subtrees of its tree), and the exactly rounded
sum across cases is order-free, so values are reproducible, case-order
free and the same for any split into shards or chunks.  Each phase reads
an Objective, every parameter of the loss, and writes into its plan's
chunk scratch only.  The loss API and grad_check run the whole batch as
one shard (_objective_core), and neither holds a batch-sized gradient:
the API casts each chunk's gradient into the float32 grids it returns,
one per case (_gradient_grids), and grad_check gathers it at the voxels
it checks (_gradient_at); both check each chunk for non-finite values
while it is in cache.  The trainer runs one shard per thread and writes
its chain rule over q.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .components import Connectivity, DEFAULT_CONNECTIVITY, _lesion_ids
from .reduction import ChunkTrees, exact_sum, path_sums, tree_levels
from .volume import (Mask, ShapeMismatchError, Volume, _adopt, _flat,
                     check_integer, require_same_shape)
from .weighting import WeightCurveParams, WeightMap, _omega_lut

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
        # rejects a ce_weight outside [0, 1], as TrainConfig does
        objective("combined", ce_weight=self.ce_weight, tversky=self.tversky,
                  curve=self.curve)


@dataclass(frozen=True)
class LossReport:
    value: float
    gradient: Volume | list[Volume] | None = None


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
    curve: WeightCurveParams | None
    connectivity: Connectivity

    def __post_init__(self):
        if not 0.0 <= self.ce_weight <= 1.0:
            raise ValueError("ce_weight must lie in [0, 1]")
        if not 0.0 < self.clamp < 0.5:
            raise ValueError("clamp must lie in (0, 0.5)")
        # an int means its member; anything else raises ValueError
        object.__setattr__(self, "connectivity", Connectivity(self.connectivity))

    @property
    def weighted(self) -> bool:
        return self.ratio == "wlt"


def objective(kind: str, kinds=LOSS_KINDS, *, tversky: TverskyParams | None = None,
              ce_weight: float = 0.5, clamp: float = CE_CLAMP_DEFAULT,
              weight_tp_denominator: bool = False,
              curve: WeightCurveParams | None = None,
              connectivity: Connectivity = DEFAULT_CONNECTIVITY) -> Objective:
    """Look kind up in the table (it must be one of kinds) and validate.

    The keyword options, with their defaults, are declared here alone:
    evaluate_loss and grad_check forward theirs.
    """
    if kind not in kinds:
        raise ValueError(f"unknown loss kind: {kind!r} (choose from {kinds})")
    ce, ratio, default = _TERMS[kind]
    return Objective(ce, ratio, tversky if tversky is not None else default,
                     ce_weight, clamp, weight_tp_denominator, curve, connectivity)


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
    """A batch's ground truth, laid out once, and the buffers of every
    evaluation of it.

    The cases sit one after another in x-fastest order (case i at
    bounds[i] = (start, stop)), cut into the chunks of trees
    (reduction.ChunkTrees of the case sizes).  fg holds the batch positions
    of the lesion voxels in ascending order and w their weights (ones when
    the ratio term is unweighted); fg[lesions[j]] are the ones in chunk j
    and fg[a:b] for (a, b) = spans[i] the ones in case i, over which the
    lesion-voxel sums run.  Background weights are never kept, so they
    cannot reach the loss.

    q, the predictions, is the one batch-sized buffer: the caller writes
    them and the phases only read them.  trees holds two chunks of float64
    scratch (leaves: a chunk's terms or gradient; spare: the tree's other
    level), which every evaluation reuses; the trainer's backward writes
    its chain rule over q.
    """

    bounds: tuple[tuple[int, int], ...]
    trees: ChunkTrees
    lesions: tuple[slice, ...]
    fg: np.ndarray
    w: np.ndarray
    spans: tuple[tuple[int, int], ...]
    q: np.ndarray

    @property
    def n(self) -> int:
        return self.q.size


def _truth(obj: Objective, gts, omega=None) -> _Plan:
    """The plan of ground-truth masks gts for obj; when obj's ratio term is
    weighted, its weights come from omega's maps, else from the masks'
    lesion labelings, and otherwise they are ones (no labeling is done).
    Given omega must match gts in batch length and shapes for every kind,
    used or not.  The buffers come last, after the labelings are freed."""
    fgs = [_flat(g.data) for g in gts]
    sizes = tuple(fg.size for fg in fgs)
    stops = np.cumsum(sizes).tolist()
    bounds = tuple(zip([0] + stops[:-1], stops))
    fg = np.flatnonzero(np.concatenate(fgs))
    edges = [0] + np.searchsorted(fg, stops).tolist()
    spans = tuple(zip(edges, edges[1:]))
    if omega is not None:
        maps, _ = _as_list(omega, WeightMap)
        if len(maps) != len(gts):
            raise ShapeMismatchError("batch lengths differ between gt and omega")
        for g, w in zip(gts, maps):
            require_same_shape(g, w)
    if not obj.weighted:
        w = np.ones(fg.size)
    elif omega is not None:
        w = np.concatenate([_flat(m.weights)[g] for m, g in zip(maps, fgs)])
    else:
        w = np.concatenate([_lesion_weights(obj, g, fg[a:b] - start)
                            for g, (a, b), (start, _) in zip(gts, spans, bounds)])
    trees = ChunkTrees(sizes)
    cuts = np.searchsorted(fg, [c.start for c in trees.chunks] + [stops[-1]]).tolist()
    lesions = tuple(slice(lo, hi) for lo, hi in zip(cuts, cuts[1:]))
    return _Plan(bounds, trees, lesions, fg, w, spans, np.empty(sum(sizes)))


def _lesion_weights(obj: Objective, g: Mask, pos) -> np.ndarray:
    """omega of each lesion voxel's lesion volume, in x-fastest order (pos
    are the flat positions of g's foreground), without a full-grid weight
    map."""
    ids = _lesion_ids(pos, g.shape.dims, obj.connectivity)
    return _omega_lut(np.bincount(ids)[1:], obj.curve)[ids]


def _prepare(obj: Objective, gt, pred, omega=None):
    gts, single = _as_list(gt, Mask)
    preds, _ = _as_list(pred, Volume)
    if len(gts) != len(preds):
        raise ShapeMismatchError("batch lengths differ between gt and pred")
    for g, q in zip(gts, preds):
        require_same_shape(g, q)
        q.require_probability()
    plan = _truth(obj, gts, omega)
    for p, (start, stop) in zip(preds, plan.bounds):
        plan.q[start:stop] = _flat(p.data)
    return plan, preds, single


# ---------------------------------------------------------------------------
# The objective in two phases over contiguous case shards, each with a
# _Plan of its own; flat float64 predictions q in, float64 out
# ---------------------------------------------------------------------------

def _plain_tp_den(obj: Objective) -> bool:
    return obj.weighted and not obj.weight_tp_denominator


def _true_class(obj: Objective, q, loc, out):
    """The clamped true-class probability of a chunk's predictions q,
    whose lesion voxels sit at loc, into out: q there and 1 - q on the
    background."""
    np.subtract(1.0, q, out=out)
    out[loc] = q[loc]
    return np.clip(out, obj.clamp, 1.0 - obj.clamp, out=out)


def _grid_leaves(obj: Objective, key: str, q, loc, out):
    """The leaves of the full-grid term key at predictions q, whose lesion
    voxels sit at loc, into out: for "ce" the logs of the clamped
    true-class probabilities, for "fp" q with its lesion voxels zeroed."""
    if key == "ce":
        return np.log(_true_class(obj, q, loc, out), out=out)
    np.copyto(out, q)
    out[loc] = 0.0
    return out


def _lesion_terms(obj: Objective, q_fg, w):
    """The terms of obj that live on the lesion voxels, at their
    predictions q_fg of weights w: their keys, "tp_w", "fn_w" and "tp" for
    an unweighted denominator TP sum, and one row of terms per key."""
    keys = ("tp_w", "fn_w", "tp") if _plain_tp_den(obj) else ("tp_w", "fn_w")
    terms = np.empty((len(keys), q_fg.size))
    np.multiply(q_fg, w, out=terms[0])
    np.subtract(1.0, q_fg, out=terms[1])
    terms[1] *= w
    terms[2:] = q_fg    # the denominator TP, when it is a sum of its own
    return keys, terms


def _case_sums(obj: Objective, plan: _Plan) -> dict[str, list[float]]:
    """Phase 1: the per-case sums of each term of obj at plan.q (kept).

    Each chunk's full-grid terms (_grid_leaves) go one at a time through
    plan.trees, whose nodes join into case sums.  The lesion-voxel terms
    (_lesion_terms), at the predictions of every lesion voxel at once,
    are summed exactly case by case, each case's a run of its term row
    read through a memoryview (no list of floats)."""
    trees = plan.trees
    nodes = {key: [] for key, on in (("ce", obj.ce), ("fp", obj.ratio is not None))
             if on}
    for c, s in zip(trees.chunks, plan.lesions):
        q, loc = plan.q[c.start:c.stop], plan.fg[s] - c.start
        for key, got in nodes.items():
            _grid_leaves(obj, key, q, loc, trees.leaves[:q.size])
            got.append(trees.nodes(c))
    sums = {key: trees.join(got) for key, got in nodes.items()}
    if obj.ratio is not None:
        keys, terms = _lesion_terms(obj, plan.q[plan.fg], plan.w)
        for key, row in zip(keys, terms):
            sums[key] = [_global_sum(memoryview(row[a:b])) for a, b in plan.spans]
    return sums


@dataclass(frozen=True)
class _Totals:
    """A batch's value with what phase 2 needs of its global sums: the
    voxel count n (the CE mean's divisor) and the ratio's numerator and
    denominator (None without a ratio term)."""

    value: float
    n: int
    num: float | None
    den: float | None


def _global_sum(sums) -> float:
    """exact_sum of values of one sign (one term's case sums, or one case's
    lesion-voxel terms), so a sum that overflows (OverflowError) is that
    sign's infinity, as sum() gives."""
    try:
        return exact_sum(sums)
    except OverflowError:
        return sum(sums)


def _value(obj: Objective, total, n: int):
    """The value of obj over n voxels from its global sums total (floats,
    or arrays of them: the same bits), with the ratio's numerator and
    denominator (None without a ratio term); a zero denominator gives
    inf or NaN, never ZeroDivisionError."""
    # -log commutes exactly with the tree and the exact case sum
    ce = -total["ce"] / n if obj.ce else None
    if obj.ratio is None:
        return ce, None, None
    # Tversky over global sums: unit weights give the "1 - ratio" form,
    # whose denominator TP sum is the numerator one; WLT is the -ratio
    a, b, s = obj.tversky.alpha, obj.tversky.beta, obj.tversky.smooth
    num = s + total["tp_w"]
    den = s + total.get("tp", total["tp_w"]) + a * total["fp"] + b * total["fn_w"]
    ratio = np.divide(num, den)
    value = -ratio if obj.weighted else 1.0 - ratio
    if ce is not None:
        lam = obj.ce_weight
        value = lam * ce + (1.0 - lam) * value
    return value, num, den


def _totals(obj: Objective, parts, n: int) -> _Totals:
    """The value of obj, a float, from the case sums of every shard of a
    batch of n voxels, under the caller's _quiet.  exact_sum is order-free,
    so the shards' split and order never change a bit."""
    total = {key: _global_sum([c for part in parts for c in part[key]])
             for key in parts[0]}
    value, num, den = _value(obj, total, n)
    return _Totals(float(value), n, num, den)


def _gradient(obj: Objective, plan: _Plan, totals: _Totals):
    """Phase 2: the gradient at plan.q, after its _case_sums, from the global
    sums: yields (chunk, g) for each chunk of plan in order, g the chunk's
    gradient in plan.trees' leaves, which the next chunk overwrites.  The
    ratio term's gradient depends on the weights and the global sums
    alone, so its lesion-voxel values are taken once, before the chunks."""
    if obj.ratio is not None:
        # a background voxel moves FP only (d num = 0, d den = a; "0.0 +"
        # keeps alpha = -0.0 from signing the zero gradient); a lesion voxel
        # of weight w moves TP.W, the denominator TP sum and FN.W
        a, b = obj.tversky.alpha, obj.tversky.beta
        num, den, w = totals.num, totals.den, plan.w
        background = np.divide(num * (0.0 + a), den * den)
        dden = (1.0 if _plain_tp_den(obj) else w) - b * w
        lesion = (num * dden - w * den) / (den * den)
        if obj.ce:
            # lam * CE + (1 - lam) * ratio, the ratio's background term a
            # scalar
            lam = obj.ce_weight
            background, lesion = background * (1.0 - lam), lesion * (1.0 - lam)
    for c, s in zip(plan.trees.chunks, plan.lesions):
        q, loc = plan.q[c.start:c.stop], plan.fg[s] - c.start
        g = plan.trees.leaves[:q.size]
        if obj.ce:
            np.divide(1.0, _true_class(obj, q, loc, g), out=g)
            g[loc] = -g[loc]
            # the clamp is flat outside [clamp, 1 - clamp]
            g *= (q >= obj.clamp) & (q <= 1.0 - obj.clamp)
            g /= totals.n
        if obj.ratio is not None:
            if obj.ce:
                g *= lam
                ce_fg = g[loc]
                g += background
                g[loc] = ce_fg + lesion[s]
            else:
                g.fill(background)
                g[loc] = lesion[s]
        yield c, g


def _quiet():
    """A fresh errstate without numpy's overflow, invalid and divide
    warnings (under numpy 1.x an instance keeps its saved state, so none is
    shared), for a caller that checks its results for non-finite values."""
    return np.errstate(over="ignore", invalid="ignore", divide="ignore")


def _objective_core(obj: Objective, plan: _Plan):
    """The _totals and the case sums (_case_sums) of obj at plan.q (left as
    it is), the whole batch as one shard.  A value that is not finite
    (lesion sums that overflow under a huge w_max) raises ValueError
    instead of numpy's warnings and a NaN result, before any gradient is
    taken."""
    with _quiet():
        sums = _case_sums(obj, plan)
        totals = _totals(obj, [sums], plan.n)
    if not np.isfinite(totals.value):
        raise ValueError("loss value is non-finite")
    return totals, sums


def _gradient_grids(obj: Objective, plan: _Plan, totals: _Totals, preds):
    """Phase 2 cast into the gradient that the loss API returns: one new
    float32 x-fastest grid per case of preds.  Each chunk's float64
    gradient is cast into the case slices it covers (whole cases, or a
    piece of one) and checked there while in cache: a value that is not
    finite, or past float32's range, raises ValueError."""
    grids = [np.empty(p.shape.dims, np.float32, order="F") for p in preds]
    flats = [_flat(a) for a in grids]
    i = 0
    with _quiet():    # the check below, not the cast's warning, reports
        for c, g in _gradient(obj, plan, totals):
            at = c.start
            while at < c.stop:
                start, stop = plan.bounds[i]
                end = min(stop, c.stop)
                out = flats[i][at - start:end - start]
                out[...] = g[at - c.start:end - c.start]
                if not np.isfinite(out).all():
                    raise ValueError("loss gradient is non-finite")
                i, at = i + (end == stop), end
    return grids


def _gradient_at(obj: Objective, plan: _Plan, totals: _Totals, pos) -> np.ndarray:
    """The float64 gradient at the ascending flat batch positions pos, each
    value gathered from the phase-2 chunk that holds it.  Every chunk is
    checked: a value that is not finite raises ValueError."""
    out = np.empty(pos.size)
    cuts = np.searchsorted(pos, [c.start for c in plan.trees.chunks] + [plan.n])
    with _quiet():
        for (c, g), lo, hi in zip(_gradient(obj, plan, totals), cuts, cuts[1:]):
            if not np.isfinite(g).all():
                raise ValueError("loss gradient is non-finite")
            out[lo:hi] = g[pos[lo:hi] - c.start]
    return out


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------

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
    """ce_weight * CE + (1 - ce_weight) * WLT, weights from the truth's labeling."""
    params = params if params is not None else CombinedParams()
    return evaluate_loss("combined", gt, pred, tversky=params.tversky,
                         curve=params.curve, ce_weight=params.ce_weight,
                         want_grad=want_grad, connectivity=connectivity,
                         clamp=clamp, weight_tp_denominator=weight_tp_denominator)


def evaluate_loss(kind: str, gt, pred, *, want_grad: bool = False, omega=None,
                  **options) -> LossReport:
    """Evaluate a loss by name: tversky | ce | wlt | combined.

    options are objective()'s keyword options (tversky, curve, ce_weight,
    clamp, weight_tp_denominator, connectivity), with its defaults.  For
    wlt and combined the lesion weights come from the ground-truth
    labeling unless weight maps are passed as omega.
    """
    obj = objective(kind, LOSS_KINDS, **options)
    plan, preds, single = _prepare(obj, gt, pred, omega)
    totals, _sums = _objective_core(obj, plan)
    if not want_grad:
        return LossReport(totals.value)
    vols = [_adopt(Volume, shape=p.shape, data=grid)
            for p, grid in zip(preds, _gradient_grids(obj, plan, totals, preds))]
    return LossReport(totals.value, vols[0] if single else vols)


def _expansion(terms) -> list[float]:
    """Floats whose exact sum is that of terms (one case's lesion-voxel
    terms, of one sign), each the exactly rounded rest of the ones before,
    so _global_sum([*expansion, -old, new]) is their exact sum with one
    term old replaced by new, rounded once, as a full evaluation rounds
    it.  A sum that overflows is its infinity alone."""
    rest, parts = list(memoryview(terms)), []
    while (s := _global_sum(rest)) != 0.0 and math.isfinite(s):
        parts.append(s)
        rest.append(-s)
    return parts if math.isfinite(s) else [s]


def _swapped(got, i, roots) -> np.ndarray:
    """The global sums (as in _totals) of case sums got with case i's
    replaced by each of roots, rows of perturbed case sums."""
    before, after = got[:i], got[i + 1:]
    return np.array([[_global_sum([*before, r, *after]) for r in side]
                     for side in roots])


def _sample(plan: _Plan, max_voxels: int | None, seed: int) -> list[np.ndarray]:
    """The voxels grad_check checks: for each case in order, the ascending
    positions in the case of all its voxels, or of max_voxels of them drawn
    with seed where the case has more."""
    rng = np.random.default_rng(seed)
    samples = []
    for start, stop in plan.bounds:
        js = np.arange(stop - start)
        if max_voxels is not None and js.size > max_voxels:
            js = np.sort(rng.choice(js.size, size=max_voxels, replace=False))
        samples.append(js)
    return samples


def _perturbed_values(obj: Objective, plan: _Plan, step: float, samples, sums):
    """Yield, case by case, the flat batch positions of the voxels of
    samples (_sample) and obj's values with each one's prediction moved to
    q + step (up) and to q - step (down), the rest at plan.q (left as it
    is): the bits of a full evaluation of each perturbed batch.

    A voxel is one leaf of each full-grid term's case tree (CE, FP).  So
    each such tree over the case is laid out once, one term at a time
    (reduction.tree_levels), and every perturbed leaf's path to the root
    rebuilt (reduction.path_sums).  A lesion voxel also replaces its term
    in each exact lesion-voxel case sum (_expansion).  Each new case sum
    and the other cases' sums, in batch order, make the term's global sum
    as in _totals, and one _value over these arrays gives the case's
    values.  A value that is not finite raises ValueError, as
    _objective_core's does.  sums are the batch's case sums at plan.q
    (_objective_core's second value)."""
    for i, ((start, stop), (lo, hi), js) in enumerate(zip(plan.bounds, plan.spans,
                                                          samples)):
        loc, w, q = plan.fg[lo:hi] - start, plan.w[lo:hi], plan.q[start:stop]
        hit = np.flatnonzero(np.isin(js, loc))
        at = np.searchsorted(loc, js[hit])
        moved = (q[js] + step, q[js] - step)
        total = {}
        with _quiet():
            for key in [k for k in ("ce", "fp") if k in sums]:    # one tree at a time
                levels = tree_levels(_grid_leaves(obj, key, q, loc, np.empty(q.size)))
                roots = [path_sums(levels, js, _grid_leaves(obj, key, m, hit,
                                                            np.empty(m.size)))
                         for m in moved]
                del levels
                total[key] = _swapped(sums[key], i, [r.tolist() for r in roots])
            if obj.ratio is not None:
                keys, terms = _lesion_terms(obj, q[loc], w)
                up, down = (_lesion_terms(obj, m[hit], w[at])[1] for m in moved)
                for key, row, *new in zip(keys, terms, up, down):
                    parts, old = _expansion(row), (-row[at]).tolist()
                    roots = [[_global_sum([*parts, o, x])
                              for o, x in zip(old, side.tolist())] for side in new]
                    total[key] = np.full((2, js.size), _global_sum(sums[key]))
                    total[key][:, hit] = _swapped(sums[key], i, roots)
            values = _value(obj, total, plan.n)[0]
        if not np.isfinite(values).all():
            raise ValueError("loss value is non-finite")
        yield start + js, values[0], values[1]


def grad_check(kind: str, gt, pred, step: float = 1e-4, *,
               max_voxels: int | None = None, seed: int = 0, **options) -> float:
    """Max relative error between analytic and central-difference gradients.

    Error per voxel is |analytic - fd| / max(1, |analytic|).  Predictions
    must sit far enough inside (0, 1) for the +/- step to stay valid.
    max_voxels (at least 1) caps the voxels checked per case, drawn with
    seed (at least 0); None checks every voxel.  options are objective()'s
    keyword options, as for evaluate_loss.

    Each perturbed value is the bits of a full evaluation, from the one
    leaf-to-root path that the voxel changes in each CE and FP case tree,
    its term replaced in each lesion-voxel case sum, and one value formula
    per case over the new sums (_perturbed_values): O(m log n) time per
    term for m checked voxels of a case of n.  Extra memory: one term's
    tree levels at a time (about 2n values), and the analytic gradient and
    two sums per checked voxel and term.  A non-finite analytic gradient
    at any voxel, checked or not, raises ValueError, and so does a
    non-finite perturbed value (a denominator that cancels to
    zero) raises ValueError."""
    if not (np.isfinite(step) and step > 0.0):
        raise ValueError(f"step must be positive and finite, got {step}")
    if max_voxels is not None:
        max_voxels = check_integer(max_voxels, "max_voxels")
    seed = check_integer(seed, "seed")
    if max_voxels is not None and max_voxels < 1:
        raise ValueError(f"max_voxels must be >= 1, got {max_voxels}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    obj = objective(kind, LOSS_KINDS, **options)
    plan, _preds, _single = _prepare(obj, gt, pred)
    totals, sums = _objective_core(obj, plan)
    samples = _sample(plan, max_voxels, seed)
    a = _gradient_at(obj, plan, totals, np.concatenate(
        [start + js for (start, _), js in zip(plan.bounds, samples)]))
    _, up, down = map(np.concatenate, zip(
        *_perturbed_values(obj, plan, step, samples, sums)))
    with _quiet():
        fd = (up - down) / (2.0 * step)
        err = np.abs(a - fd) / np.maximum(1.0, np.abs(a))
    # a NaN error never compares greater
    return float(np.max(err, where=err > 0.0, initial=0.0))
