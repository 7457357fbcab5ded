"""Segmentation and case-level metrics with an empty-segmentation fallback.

dice, auc and kappa are evaluated in exact rational arithmetic from
integer counts and rounded to float once, so they agree bit-for-bit with
any exact reference.  hausdorff measures voxel-center point sets in mm.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, fields, replace
from fractions import Fraction

import numpy as np

from .volume import Mask, _flat, _naming, check_threshold, require_same_shape


class UndefinedMetricError(ValueError):
    """The metric has no defined value on these inputs."""


@dataclass(frozen=True)
class CaseOutcome:
    """One case's predicted responder score, true label and fallback flag."""

    case_id: str
    score: float
    label: int
    empty_segmentation: bool = False

    def __post_init__(self):
        if not (math.isfinite(self.score) and 0.0 <= self.score <= 1.0):
            raise ValueError(f"score must lie in [0, 1], got {self.score}")
        if self.label not in (0, 1):
            raise ValueError(f"label must be 0 or 1, got {self.label}")
        if self.empty_segmentation and self.score != 0.0:
            raise ValueError("empty-segmentation outcomes must carry score 0")


@dataclass(frozen=True)
class MetricReport:
    dice: float | None = None
    hausdorff_mm: float | None = None
    auc: float | None = None
    kappa: float | None = None

    def __post_init__(self):
        for name, lo, hi in (("dice", 0.0, 1.0), ("auc", 0.0, 1.0),
                             ("kappa", -1.0, 1.0)):
            v = getattr(self, name)
            if v is not None and not (math.isfinite(v) and lo <= v <= hi):
                raise ValueError(f"{name} out of range: {v}")
        h = self.hausdorff_mm
        if h is not None and not (math.isfinite(h) and h >= 0.0):
            raise ValueError(f"hausdorff_mm out of range: {h}")

    def _computed(self) -> dict:
        """The metrics that are set, by name, in field order."""
        return {f.name: getattr(self, f.name) for f in fields(self)
                if getattr(self, f.name) is not None}

    def to_text(self) -> str:
        lines = [f"{name}={v:.6g}" for name, v in self._computed().items()]
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        return json.dumps(self._computed(), sort_keys=True)


def dice(a: Mask, b: Mask) -> float:
    """2|A.B| / (|A| + |B|); defined as 1.0 when both masks are empty."""
    require_same_shape(a, b)
    na = a.foreground_count
    nb = b.foreground_count
    if na == 0 and nb == 0:
        return 1.0
    inter = int(np.count_nonzero(a.data & b.data))
    return float(Fraction(2 * inter, na + nb))


def _centers(m: Mask) -> np.ndarray:
    """The mm [x, y, z] centers of m's foreground voxels, in x-fastest
    order: positions from the flat view, split by divmod."""
    nx, ny, _ = m.shape.dims
    z, rest = np.divmod(np.flatnonzero(_flat(m.data)), nx * ny)
    y, x = np.divmod(rest, nx)
    return np.stack((x, y, z), axis=1) * np.asarray(m.shape.spacing, np.float64)


def hausdorff(a: Mask, b: Mask, percentile: float = 100.0) -> float:
    """Symmetric Hausdorff distance between foreground voxel centers, in mm.

    percentile < 100 gives the robust variant (e.g. 95 for HD95): the
    max over both directions of that percentile of directed distances.
    """
    require_same_shape(a, b)
    if not 0.0 < percentile <= 100.0:
        raise ValueError("percentile must lie in (0, 100]")
    if a.foreground_count == 0 or b.foreground_count == 0:
        raise UndefinedMetricError("hausdorff is undefined for an empty mask")
    # imported here: scipy.spatial costs ~12 MB and ~0.1 s at import, and
    # no other stage needs it
    from scipy.spatial import cKDTree

    pa, pb = _centers(a), _centers(b)
    d_ab = cKDTree(pb).query(pa)[0]
    d_ba = cKDTree(pa).query(pb)[0]
    if percentile == 100.0:
        return float(max(d_ab.max(), d_ba.max()))
    return float(max(np.percentile(d_ab, percentile),
                     np.percentile(d_ba, percentile)))


def auc(outcomes) -> float:
    """Probability a random positive outscores a random negative; ties 0.5."""
    outcomes = list(outcomes)
    pos = np.array([o.score for o in outcomes if o.label == 1], np.float64)
    neg = np.array([o.score for o in outcomes if o.label == 0], np.float64)
    if pos.size == 0 or neg.size == 0:
        raise UndefinedMetricError("auc needs at least one case of each class")
    wins = int((pos[:, None] > neg[None, :]).sum())
    ties = int((pos[:, None] == neg[None, :]).sum())
    return float(Fraction(2 * wins + ties, 2 * pos.size * neg.size))


def kappa(outcomes, threshold: float = 0.5) -> float:
    """Chance-corrected agreement of thresholded scores (>= rule) vs labels;
    the threshold must lie in [0, 1]."""
    threshold = check_threshold(threshold)
    outcomes = list(outcomes)
    if not outcomes:
        raise UndefinedMetricError("kappa needs at least one case")
    tp = tn = fp = fn = 0
    for o in outcomes:
        predicted = o.score >= threshold
        if predicted and o.label == 1:
            tp += 1
        elif predicted:
            fp += 1
        elif o.label == 1:
            fn += 1
        else:
            tn += 1
    n = tp + tn + fp + fn
    po = Fraction(tp + tn, n)
    pe = Fraction((tp + fp) * (tp + fn) + (fn + tn) * (fp + tn), n * n)
    if pe == 1:
        return 0.0
    return float((po - pe) / (1 - pe))


def apply_empty_fallback(seg: Mask, outcome: CaseOutcome) -> CaseOutcome:
    """Force score 0 (non-responder) when the segmentation found nothing."""
    if seg.foreground_count > 0:
        return outcome
    return replace(outcome, score=0.0, empty_segmentation=True)


# ---------------------------------------------------------------------------
# Outcome CSV: case_id,score,label,empty_seg with a header row
# ---------------------------------------------------------------------------

def write_outcomes(outcomes, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["case_id", "score", "label", "empty_seg"])
        for o in outcomes:
            writer.writerow(
                [o.case_id, repr(o.score), o.label, int(o.empty_segmentation)]
            )


def read_outcomes(path) -> list[CaseOutcome]:
    """Read an outcome CSV; label and empty_seg must be exactly 0 or 1.
    Every error names the file, and a bad row's the row too (the header is
    row 1)."""
    with _naming(path), open(path, newline="", encoding="utf-8") as fh:
        try:
            rows = list(csv.reader(fh))
        except csv.Error as exc:
            raise ValueError(exc) from exc
        if not rows or rows[0] != ["case_id", "score", "label", "empty_seg"]:
            raise ValueError("expected header case_id,score,label,empty_seg")
        out = []
        for number, row in enumerate(rows[1:], start=2):
            with _naming(f"row {number}"):
                out.append(_outcome(row))
        return out


def _outcome(row) -> CaseOutcome:
    """The outcome of one CSV row of four fields."""
    if len(row) != 4:
        raise ValueError(f"malformed row {row!r}")
    case_id, score, label, empty_seg = row
    try:
        value = float(score)
    except ValueError:
        raise ValueError(f"score must be a number, got {score!r}") from None
    for name, flag in (("label", label), ("empty_seg", empty_seg)):
        if flag not in ("0", "1"):
            raise ValueError(f"{name} must be 0 or 1, got {flag!r}")
    return CaseOutcome(case_id, value, int(label), empty_seg == "1")
