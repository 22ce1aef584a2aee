"""Comparison machinery: IoU overlap, ROC/AUC, and accuracy-versus-yield.

Scores are treated purely ordinally: every metric here is invariant under
strictly monotonic transforms of the scores (yield additionally relies on
|score| as the confidence ranking). Yield q means a decision is issued on
the ceil(q*N) most confident samples and accuracy is reported over those
decided samples only.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DataError

# A detection counts as a true positive only when IoU is strictly larger
# than this.
TRUE_POSITIVE_IOU = 0.6


@dataclass(frozen=True)
class Rect:
    """Axis-aligned rectangle in finite pixel coordinates with non-negative extents."""

    x: float
    y: float
    w: float
    h: float

    def __post_init__(self):
        if not np.isfinite((self.x, self.y, self.w, self.h)).all():
            raise DataError("rectangle coordinates must be finite")
        if self.w < 0 or self.h < 0:
            raise DataError("rectangle extents must be non-negative")

    @property
    def area(self) -> float:
        return self.w * self.h


@dataclass(frozen=True)
class ScoredSample:
    """One classifier output: opaque id, raw score, true label in {-1, +1}."""

    id: str
    score: float
    label: int

    def __post_init__(self):
        if not np.isfinite(self.score):
            raise DataError("sample score must be finite")
        if self.label not in (-1, 1):
            raise DataError("label must be -1 or +1")


@dataclass(frozen=True)
class EvalCurve:
    points: tuple[tuple[float, float], ...]
    kind: str  # "roc" or "accuracy_vs_yield"

    def __post_init__(self):
        if self.kind not in ("roc", "accuracy_vs_yield"):
            raise DataError(f"unknown curve kind {self.kind!r}")
        xs = [p[0] for p in self.points]
        if self.kind == "roc" and any(b < a for a, b in zip(xs, xs[1:])):
            raise DataError("ROC x values must be non-decreasing")
        if self.kind == "accuracy_vs_yield" and any(not (0.0 < x <= 1.0) for x in xs):
            raise DataError("yield values must lie in (0, 1]")
        object.__setattr__(self, "points", tuple((float(x), float(y)) for x, y in self.points))


def overlap(a: Rect, b: Rect) -> float:
    """Intersection-over-union. Two zero-area rectangles overlap 0 by convention."""
    ix = max(0.0, min(a.x + a.w, b.x + b.w) - max(a.x, b.x))
    iy = max(0.0, min(a.y + a.h, b.y + b.h) - max(a.y, b.y))
    inter = ix * iy
    union = a.area + b.area - inter
    if union == 0.0:
        return 0.0
    return inter / union


def is_true_positive(det: Rect, gt: Rect) -> bool:
    return overlap(det, gt) > TRUE_POSITIVE_IOU


def _threshold_sweep(samples: Sequence[ScoredSample]):
    """Sort once; at each distinct score, descending, count the positives and
    negatives scoring >= it. Returns (thresholds, tp, fp, n_pos, n_neg)."""
    scores = np.array([s.score for s in samples], dtype=np.float64)
    positive = np.array([s.label == 1 for s in samples], dtype=bool)
    order = np.argsort(-scores, kind="stable")
    scores, positive = scores[order], positive[order]
    last = np.ones(len(scores), dtype=bool)  # last row of each distinct score
    last[:-1] = scores[1:] != scores[:-1]
    n_pos = int(positive.sum())
    return scores[last], np.cumsum(positive)[last], np.cumsum(~positive)[last], n_pos, len(samples) - n_pos


def roc_curve(samples: Sequence[ScoredSample]) -> tuple[EvalCurve, float]:
    """Threshold sweep over distinct scores, descending; predict positive when
    score >= threshold. Returns the (FPR, TPR) curve and its trapezoidal AUC."""
    _, tp, fp, n_pos, n_neg = _threshold_sweep(samples)
    if n_pos == 0 or n_neg == 0:
        raise DataError("ROC needs both labels present")

    points = [(0.0, 0.0)] + list(zip((fp / n_neg).tolist(), (tp / n_pos).tolist()))
    auc = 0.0
    for (x0, y0), (x1, y1) in zip(points, points[1:]):
        auc += (x1 - x0) * (y0 + y1) / 2.0
    return EvalCurve(points=tuple(points), kind="roc"), float(auc)


def accuracy_vs_yield(
    samples: Sequence[ScoredSample], grid: Sequence[float]
) -> EvalCurve:
    """Accuracy over the ceil(q*N) most confident samples, for each yield q.

    Confidence is |score|; ties break on sample id. Predicted label is +1
    when the score is >= 0.
    """
    if not samples:
        raise DataError("accuracy_vs_yield needs at least one sample")
    if any(not (0.0 < q <= 1.0) for q in grid):
        raise DataError("yields must lie in (0, 1]")
    ranked = sorted(samples, key=lambda s: (-abs(s.score), s.id))
    correct = np.array([(1 if s.score >= 0 else -1) == s.label for s in ranked])
    n = len(ranked)
    points = []
    for q in grid:
        take = int(np.ceil(q * n))
        points.append((float(q), float(correct[:take].sum()) / take))
    return EvalCurve(points=tuple(points), kind="accuracy_vs_yield")


def accuracy(samples: Sequence[ScoredSample]) -> float:
    """Plain accuracy of sign(score) against labels (score >= 0 reads as +1)."""
    if not samples:
        raise DataError("accuracy needs at least one sample")
    good = sum(1 for s in samples if (1 if s.score >= 0 else -1) == s.label)
    return good / len(samples)


def best_threshold(samples: Sequence[ScoredSample]) -> tuple[float, float]:
    """Threshold maximizing accuracy of (score >= threshold -> +1).

    Sweeps the distinct scores descending plus a reject-all sentinel; the
    highest threshold achieving the maximum wins.
    """
    if not samples:
        raise DataError("best_threshold needs at least one sample")
    thresholds, tp, fp, _, n_neg = _threshold_sweep(samples)
    candidates = np.append(thresholds[0] + 1.0, thresholds)
    correct = np.append(n_neg, tp + (n_neg - fp))
    best = int(np.argmax(correct))  # first maximum: the highest threshold
    return float(candidates[best]), int(correct[best]) / len(samples)


def accuracy_table(runs: Sequence[tuple[str, int, float]]) -> str:
    """CSV grid of accuracies: one row per method, one column per K.

    Unrun (method, K) combinations are left blank. Methods appear in the
    canonical bow/vlad/fisher order, then any others in first-seen order.
    """
    ks = sorted({k for _, k, _ in runs})
    methods: list[str] = [m for m in ("bow", "vlad", "fisher") if any(r[0] == m for r in runs)]
    for m, _, _ in runs:
        if m not in methods:
            methods.append(m)
    cells = {(m, k): acc for m, k, acc in runs}
    buf = io.StringIO()
    buf.write("method" + "".join(f",{k}" for k in ks) + "\n")
    for m in methods:
        row = [m]
        for k in ks:
            row.append(repr(float(cells[(m, k)])) if (m, k) in cells else "")
        buf.write(",".join(row) + "\n")
    return buf.getvalue()


def curve_to_csv(curve: EvalCurve) -> str:
    """Two-column CSV with semantic headers for external plotting."""
    header = "fpr,tpr" if curve.kind == "roc" else "yield,accuracy"
    buf = io.StringIO()
    buf.write(header + "\n")
    for x, y in curve.points:
        buf.write(f"{x!r},{y!r}\n")
    return buf.getvalue()
