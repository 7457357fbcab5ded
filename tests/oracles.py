"""Brute-force reference implementations used as independent oracles.

These deliberately avoid the library's code paths (scipy labeling,
KD-trees, vectorized counting) so that agreement is a genuine
cross-check rather than a tautology.
"""

import math
from fractions import Fraction

import numpy as np

from lesionloss.components import Connectivity

OFFSETS = {
    Connectivity.SIX: [
        (dx, dy, dz)
        for dx in (-1, 0, 1) for dy in (-1, 0, 1) for dz in (-1, 0, 1)
        if abs(dx) + abs(dy) + abs(dz) == 1
    ],
    Connectivity.EIGHTEEN: [
        (dx, dy, dz)
        for dx in (-1, 0, 1) for dy in (-1, 0, 1) for dz in (-1, 0, 1)
        if 1 <= abs(dx) + abs(dy) + abs(dz) <= 2
    ],
    Connectivity.TWENTY_SIX: [
        (dx, dy, dz)
        for dx in (-1, 0, 1) for dy in (-1, 0, 1) for dz in (-1, 0, 1)
        if (dx, dy, dz) != (0, 0, 0)
    ],
}


def flood_fill_labels(data: np.ndarray, connectivity: Connectivity) -> np.ndarray:
    """Reference labeling: BFS flood fill in x-fastest scan order."""
    dims = data.shape
    labels = np.zeros(dims, dtype=np.int32)
    offsets = OFFSETS[connectivity]
    next_label = 0
    for z in range(dims[2]):
        for y in range(dims[1]):
            for x in range(dims[0]):
                if not data[x, y, z] or labels[x, y, z]:
                    continue
                next_label += 1
                queue = [(x, y, z)]
                labels[x, y, z] = next_label
                while queue:
                    cx, cy, cz = queue.pop()
                    for dx, dy, dz in offsets:
                        nx, ny, nz = cx + dx, cy + dy, cz + dz
                        if (
                            0 <= nx < dims[0]
                            and 0 <= ny < dims[1]
                            and 0 <= nz < dims[2]
                            and data[nx, ny, nz]
                            and not labels[nx, ny, nz]
                        ):
                            labels[nx, ny, nz] = next_label
                            queue.append((nx, ny, nz))
    return labels


def halo_reference(dims, coords) -> np.ndarray:
    """Reference 26-neighborhood dilation over the whole grid: every voxel
    of coords marks itself and each in-grid neighbour."""
    out = np.zeros(dims, dtype=bool)
    for x, y, z in coords:
        for dx, dy, dz in OFFSETS[Connectivity.TWENTY_SIX] + [(0, 0, 0)]:
            nx, ny, nz = x + dx, y + dy, z + dz
            if 0 <= nx < dims[0] and 0 <= ny < dims[1] and 0 <= nz < dims[2]:
                out[nx, ny, nz] = True
    return out


def omega_reference(v, w_max=10.0, w_min=1.0, vrange=350.0, k=7.0,
                    a_shift=math.sqrt(math.exp(7.0))):
    """Direct evaluation of the lesion weight curve."""
    return w_max - (w_max - w_min) / (1.0 + a_shift * math.exp(-k * v / vrange))


def dice_reference(a: np.ndarray, b: np.ndarray) -> float:
    na = int(a.sum())
    nb = int(b.sum())
    if na == 0 and nb == 0:
        return 1.0
    inter = int((a & b).sum())
    return float(Fraction(2 * inter, na + nb))


def hausdorff_reference(a: np.ndarray, b: np.ndarray, spacing) -> float:
    pa = np.argwhere(a) * np.asarray(spacing)
    pb = np.argwhere(b) * np.asarray(spacing)
    d_ab = max(min(math.dist(p, q) for q in pb) for p in pa)
    d_ba = max(min(math.dist(p, q) for q in pa) for p in pb)
    return max(d_ab, d_ba)


def auc_reference(scores, labels) -> float:
    pos = [s for s, l in zip(scores, labels) if l == 1]
    neg = [s for s, l in zip(scores, labels) if l == 0]
    total = Fraction(0)
    for sp in pos:
        for sn in neg:
            if sp > sn:
                total += 1
            elif sp == sn:
                total += Fraction(1, 2)
    return float(total / (len(pos) * len(neg)))


def kappa_reference(scores, labels, threshold) -> float:
    tp = sum(1 for s, l in zip(scores, labels) if s >= threshold and l == 1)
    fp = sum(1 for s, l in zip(scores, labels) if s >= threshold and l == 0)
    fn = sum(1 for s, l in zip(scores, labels) if s < threshold and l == 1)
    tn = sum(1 for s, l in zip(scores, labels) if s < threshold and l == 0)
    # algebraically identical to (po - pe) / (1 - pe) on the 2x2 table
    num = 2 * (tp * tn - fp * fn)
    den = (tp + fp) * (fp + tn) + (tp + fn) * (fn + tn)
    if den == 0:
        return 0.0
    return float(Fraction(num, den))


# ---------------------------------------------------------------------------
# Float-product loss cores: ground truth p as a float 0/1 array, every
# confusion term a product, cross entropy as two clipped logs
# ---------------------------------------------------------------------------

def _tree_sum(values) -> float:
    """Pairwise tree over the array: pad odd levels with 0, add neighbours."""
    v = np.asarray(values, dtype=np.float64).ravel()
    if v.size == 0:
        return 0.0
    while v.size > 1:
        if v.size & 1:
            v = np.concatenate([v, [0.0]])
        v = v[0::2] + v[1::2]
    return float(v[0])


def _case_sum(per_case) -> float:
    return math.fsum(_tree_sum(x) for x in per_case)


def _weigh(x, w):
    return x if w is None else x * w


def _ce_reference(ps, qs, clamp):
    n_total = sum(p.size for p in ps)
    lo, hi = clamp, 1.0 - clamp
    terms = []
    grads = []
    for p, q in zip(ps, qs):
        c1 = np.clip(q, lo, hi)
        c2 = np.clip(1.0 - q, lo, hi)
        terms.append(-(p * np.log(c1) + (1.0 - p) * np.log(c2)))
        inside = ((q >= lo) & (q <= hi)).astype(np.float64)
        grads.append(inside * (-p / c1 + (1.0 - p) / c2) / n_total)
    return _case_sum(terms) / n_total, grads


def _ratio_reference(ps, qs, ws, alpha, beta, smooth, weight_tp_denominator):
    """ws None: unit weights and 1 - ratio; else the negated WLT ratio."""
    ws_ = ws if ws is not None else [None] * len(ps)
    tp_w = _case_sum(_weigh(p * q, w) for p, q, w in zip(ps, qs, ws_))
    fp = _case_sum((1.0 - p) * q for p, q in zip(ps, qs))
    fn_w = _case_sum(_weigh(p * (1.0 - q), w) for p, q, w in zip(ps, qs, ws_))
    plain_tp_den = ws is not None and not weight_tp_denominator
    tp_den = _case_sum(p * q for p, q in zip(ps, qs)) if plain_tp_den else tp_w
    num = smooth + tp_w
    den = smooth + tp_den + alpha * fp + beta * fn_w
    value = 1.0 - num / den if ws is None else -(num / den)
    grads = []
    for p, w in zip(ps, ws_):
        dnum = _weigh(p, w)
        dtp_den = p if plain_tp_den else dnum
        dden = dtp_den + alpha * (1.0 - p) - _weigh(beta * p, w)
        grads.append((num * dden - dnum * den) / (den * den))
    return value, grads


# loss kind -> (cross-entropy term, ratio term: None, "tversky" or "wlt")
LOSS_TERMS = {
    "tversky": (False, "tversky"),
    "ce": (True, None),
    "wlt": (False, "wlt"),
    "combined": (True, "wlt"),
}


def loss_reference(kind, ps, qs, ws, *, alpha, beta, smooth, ce_weight, clamp,
                   weight_tp_denominator):
    """Value and per-case flat gradients of a loss kind over float64 truth
    ps and predictions qs (x-fastest), with weight maps ws for "wlt"."""
    ce, ratio = LOSS_TERMS[kind]
    parts = []
    if ce:
        parts.append(_ce_reference(ps, qs, clamp))
    if ratio is not None:
        parts.append(_ratio_reference(ps, qs, ws if ratio == "wlt" else None,
                                      alpha, beta, smooth, weight_tp_denominator))
    if len(parts) == 1:
        return parts[0]
    (ce_v, ce_g), (r_v, r_g) = parts
    lam = ce_weight
    return (lam * ce_v + (1.0 - lam) * r_v,
            [lam * g1 + (1.0 - lam) * g2 for g1, g2 in zip(ce_g, r_g)])
