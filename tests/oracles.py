"""Brute-force reference implementations used as independent oracles.

These deliberately avoid the library's code paths (scipy labeling,
KD-trees, vectorized counting) so that agreement is a genuine
cross-check rather than a tautology.  grad_check_reference alone runs the
library's evaluation: it is the brute-force loop that grad_check's
leaf-path values must match bit for bit.  hausdorff_default_trees alone
builds KD-trees: it is hausdorff with scipy's default trees over every
voxel, whose bits the cheaper boundary trees hausdorff builds must give.
boundary_reference checks each voxel's six face neighbours one by one.
walk and serpentine draw the thin, winding masks that the labeling tests
feed both sides.
"""

import math
from fractions import Fraction

import numpy as np
from scipy import ndimage

from lesionloss import loss
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


def features_reference(grid) -> np.ndarray:
    """Reference feature matrix (voxels x 5) of a float32 [x, y, z] grid:
    ndimage.uniform_filter on the F-ordered float64 grid for the 3^3 and
    5^3 means and the 3^3 variance, clipped at 0, and a bias of ones; rows
    in x-fastest order."""
    raw = np.asfortranarray(grid, dtype=np.float64)
    m3 = ndimage.uniform_filter(raw, size=3, mode="reflect")
    m5 = ndimage.uniform_filter(raw, size=5, mode="reflect")
    v3 = ndimage.uniform_filter(raw * raw, size=3, mode="reflect") - m3 * m3
    columns = (raw, m3, m5, np.clip(v3, 0.0, None), np.ones_like(raw))
    return np.stack([c.ravel(order="F") for c in columns], axis=1)


def recall_reference(cases, connectivity: Connectivity) -> dict:
    """Reference lesion-wise recall over (truth, prediction) boolean grid
    pairs: {bucket: (lesions, detected)}.  Lesions of both grids come from
    flood_fill_labels; voxel by voxel, each truth lesion counts its volume
    and its overlap with every predicted lesion, and it is detected when
    one overlap reaches half its volume.  Small is below 20 voxels, large
    above 200."""
    out = {"small": [0, 0], "medium": [0, 0], "large": [0, 0]}
    for truth, pred in cases:
        t = flood_fill_labels(truth, connectivity)
        p = flood_fill_labels(pred, connectivity)
        volume, overlap = {}, {}
        for pos in np.ndindex(truth.shape):
            lesion, hit = int(t[pos]), int(p[pos])
            if lesion:
                volume[lesion] = volume.get(lesion, 0) + 1
                if hit:
                    counts = overlap.setdefault(lesion, {})
                    counts[hit] = counts.get(hit, 0) + 1
        for lesion, vol in volume.items():
            bucket = "small" if vol < 20 else "large" if vol > 200 else "medium"
            out[bucket][0] += 1
            if 2 * max(overlap.get(lesion, {0: 0}).values()) >= vol:
                out[bucket][1] += 1
    return {name: tuple(v) for name, v in out.items()}


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


def boundary_reference(data: np.ndarray) -> np.ndarray:
    """The 6-boundary of a binary grid: its voxels with a face neighbour
    off the grid or not in it, checked one voxel and offset at a time."""
    out = np.zeros(data.shape, bool)
    for p in np.argwhere(data):
        for off in OFFSETS[Connectivity.SIX]:
            q = tuple(p + off)
            if not all(0 <= c < n for c, n in zip(q, data.shape)) or not data[q]:
                out[tuple(p)] = True
    return out


def hausdorff_reference(a: np.ndarray, b: np.ndarray, spacing,
                        percentile: float = 100.0) -> float:
    """Every point's distance to its nearest in the other set, by brute
    force; the larger of the two directions' maxima, or their given
    percentiles."""
    pa = np.argwhere(a) * np.asarray(spacing)
    pb = np.argwhere(b) * np.asarray(spacing)
    d_ab = [min(math.dist(p, q) for q in pb) for p in pa]
    d_ba = [min(math.dist(p, q) for q in pa) for p in pb]
    if percentile == 100.0:
        return max(max(d_ab), max(d_ba))
    return float(max(np.percentile(d_ab, percentile),
                     np.percentile(d_ba, percentile)))


def hausdorff_default_trees(a, b, percentile: float = 100.0) -> float:
    """metrics.hausdorff of two Masks with scipy's default KD-trees
    (balanced, with shrunk node boxes) over every voxel center of each
    mask, index times spacing in float64 as hausdorff computes them."""
    from scipy.spatial import cKDTree

    pa, pb = (np.argwhere(m.data) * np.asarray(m.shape.spacing, np.float64)
              for m in (a, b))
    d_ab = cKDTree(pb).query(pa)[0]
    d_ba = cKDTree(pa).query(pb)[0]
    if percentile == 100.0:
        return float(max(d_ab.max(), d_ba.max()))
    return float(max(np.percentile(d_ab, percentile),
                     np.percentile(d_ba, percentile)))


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


def _exact_case_sum(per_case) -> float:
    """The lesion-voxel sums: each case's exactly rounded, then theirs."""
    return math.fsum(math.fsum(x.tolist()) for x in per_case)


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
    tp_w = _exact_case_sum(_weigh(p * q, w) for p, q, w in zip(ps, qs, ws_))
    fp = _case_sum((1.0 - p) * q for p, q in zip(ps, qs))
    fn_w = _exact_case_sum(_weigh(p * (1.0 - q), w) for p, q, w in zip(ps, qs, ws_))
    plain_tp_den = ws is not None and not weight_tp_denominator
    tp_den = (_exact_case_sum(p * q for p, q in zip(ps, qs)) if plain_tp_den
              else tp_w)
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


def grad_check_reference(kind, gt, pred, step=1e-4, *, max_voxels=None, seed=0,
                         **options):
    """grad_check by brute force, with the library's own evaluation: two
    full evaluations of the batch per checked voxel, its prediction moved
    by +step and -step in the plan in place.  The voxels are drawn as
    grad_check draws them.  Returns the max relative error and, per
    checked voxel in order, its flat position and its two values."""
    obj = loss.objective(kind, loss.LOSS_KINDS, **options)
    plan, _preds, _single = loss._prepare(obj, gt, pred)
    # the whole gradient, gathered from the checked chunk stream before q
    # is perturbed
    totals = loss._objective_core(obj, plan)[0]
    grad = loss._gradient_at(obj, plan, totals, np.arange(plan.n))

    rng = np.random.default_rng(seed)
    worst = 0.0
    checked, ups, downs = [], [], []
    for start, stop in plan.bounds:
        js = np.arange(stop - start)
        if max_voxels is not None and js.size > max_voxels:
            js = np.sort(rng.choice(js.size, size=max_voxels, replace=False))
        for j in start + js:
            q0 = plan.q[j]      # the plan's own copy: perturb in place
            plan.q[j] = q0 + step
            up = loss._objective_core(obj, plan)[0].value
            plan.q[j] = q0 - step
            down = loss._objective_core(obj, plan)[0].value
            plan.q[j] = q0
            fd = (up - down) / (2.0 * step)
            a = grad[j]
            err = abs(a - fd) / max(1.0, abs(a))
            if err > worst:
                worst = err
            checked.append(j)
            ups.append(up)
            downs.append(down)
    return worst, np.array(checked, dtype=np.int64), np.array(ups), np.array(downs)


def pick_seeds_reference(rng, support, k, tries=60, separation=3):
    """Reference seed picking: up to `tries` random permutations of support,
    each walked voxel by voxel, keeping a voxel when its Chebyshev distance
    to every kept one is at least `separation`; the first k kept, or None."""
    for _ in range(tries):
        perm = rng.permutation(len(support))
        seeds = []
        for i in perm:
            c = support[i]
            if all(np.abs(c - s).max() >= separation for s in seeds):
                seeds.append(c)
                if len(seeds) == k:
                    return seeds
    return None


def walk(dims, rng, steps, restart=0.0):
    """A random walk of unit steps along the axes, clipped to the grid:
    thin, winding lesions that touch themselves along edges and corners.
    After the first voxel, each step starts the walk again at a random
    voxel with probability restart."""
    data = np.zeros(dims, bool)
    for i in range(steps):
        if i == 0 or (restart and rng.random() < restart):
            at = np.array([rng.integers(0, d) for d in dims])
        data[tuple(at)] = True
        axis = rng.integers(0, 3)
        at[axis] = np.clip(at[axis] + rng.choice((-1, 1)), 0, dims[axis] - 1)
    return data


def serpentine(dims):
    """One thin lesion winding through the grid: every other row of every
    other plane, rows joined at alternate x ends, planes at alternate y
    ends.  Its runs chain from one end to the other, a deep run graph for
    pointer jumping."""
    nx, ny, nz = dims
    data = np.zeros(dims, bool)
    for i, z in enumerate(range(0, nz, 2)):
        for j, y in enumerate(range(0, ny, 2)):
            data[:, y, z] = True
            if y + 2 < ny:
                data[nx - 1 if j % 2 == 0 else 0, y + 1, z] = True
        if z + 2 < nz:
            y_end = (ny - 1) // 2 * 2 if i % 2 == 0 else 0
            data[:, y_end, z + 1] = True
    return data
