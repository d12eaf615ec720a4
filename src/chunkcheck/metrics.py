"""Evaluation and calibration metrics.

Conventions, pinned once here:
- roc_auc follows the Mann-Whitney convention: ties get half credit, so the
  result is permutation-invariant.
- kendall_tau is tau-b (tie-corrected); binary labels make ties pervasive.
- f1_macro_optimal scans midpoints between adjacent sorted unique scores
  plus below-min / above-max sentinels and returns the lowest threshold
  attaining the best macro F1.
- ece bins scores into K equal widths over [0, 1], top bin right-closed.
  Accuracy in a bin is the rate at which the thresholded prediction matches
  the label; confidence is the mean score. `calibration_curve` is the
  companion positive-fraction view of the same binning: the two disagree on
  purpose for bins below the decision threshold.
- Every float input must be finite: NaN or an infinity raises
  ValidationError.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError


def _as_float_array(x, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1:
        raise ValidationError(f"{name} must be one-dimensional")
    if not np.isfinite(arr).all():
        raise ValidationError(f"{name} must be finite (no NaN or infinity)")
    return arr


def _as_label_array(labels) -> np.ndarray:
    if isinstance(labels, np.ndarray) and labels.dtype == bool and labels.ndim == 1:
        return labels
    return np.asarray([bool(v) for v in labels], dtype=bool)


def _scores_and_labels(scores, labels) -> tuple[np.ndarray, np.ndarray]:
    """Scores and boolean labels of equal length, both classes present."""
    s = _as_float_array(scores, "scores")
    y = _as_label_array(labels)
    if len(s) != len(y):
        raise ValidationError(f"length mismatch: {len(s)} scores, {len(y)} labels")
    if y.all() or (~y).all():
        raise ValidationError("both classes must be present")
    return s, y


def _paired(x, y) -> tuple[np.ndarray, np.ndarray]:
    """Two float samples of equal length, at least 2 points."""
    xa = _as_float_array(x, "x")
    ya = _as_float_array(y, "y")
    if len(xa) != len(ya):
        raise ValidationError(f"length mismatch: {len(xa)} vs {len(ya)}")
    if len(xa) < 2:
        raise ValidationError("need at least 2 points")
    return xa, ya


# ---------------------------------------------------------------------------
# Ranking and correlation


def roc_auc(scores, labels) -> float:
    """Probability that a random positive outranks a random negative."""
    s, y = _scores_and_labels(scores, labels)
    _, group, counts = np.unique(s, return_inverse=True, return_counts=True)
    starts = np.cumsum(counts) - counts
    ranks = ((2 * starts + counts - 1) / 2.0 + 1.0)[group]  # midrank, 1-based
    n_pos = int(y.sum())
    n_neg = len(y) - n_pos
    rank_sum = float(ranks[y].sum())
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def pearson(x, y) -> float:
    """Product-moment correlation."""
    xa, ya = _paired(x, y)
    dx = xa - xa.mean()
    dy = ya - ya.mean()
    sx = float(np.sqrt((dx * dx).sum()))
    sy = float(np.sqrt((dy * dy).sum()))
    if sx == 0.0 or sy == 0.0:
        raise ValidationError("constant input has undefined correlation")
    return float((dx * dy).sum()) / (sx * sy)


def _tied_pairs(counts: np.ndarray) -> int:
    return int((counts * (counts - 1) // 2).sum())


def _inversions(r: np.ndarray, m: int) -> int:
    """Pairs i < j with r[i] > r[j], for integer ranks 0 <= r < m.

    Bottom-up merge sort: at width w every block of 2w holds two sorted
    halves, and each element of a right half counts the left-half elements
    above it. Offsetting ranks by block id (pid * m + r) makes all left
    halves one sorted array, so one searchsorted serves every block.
    """
    n = len(r)
    idx = np.arange(n)
    total = 0
    w = 1
    while w < n:
        pid = idx // (2 * w)
        keys = pid * m + r
        left = (idx % (2 * w)) < w
        left_keys = keys[left]
        right_pid = pid[~left]
        block_end = np.searchsorted(left_keys, (right_pid + 1) * m, "left")
        at_most = np.searchsorted(left_keys, keys[~left], "right")
        total += int((block_end - at_most).sum())
        r = np.sort(keys, kind="stable") - pid * m  # merge each block
        w *= 2
    return total


def kendall_tau(x, y) -> float:
    """Tau-b: (concordant - discordant) / sqrt((n0 - tx) * (n0 - ty)).

    Knight's algorithm: order by (x, y), count discordant pairs as the
    inversions of y in that order, and take the tie terms from runs of
    equal x, equal y and equal (x, y).
    """
    xa, ya = _paired(x, y)
    n = len(xa)
    _, rx, cx = np.unique(xa, return_inverse=True, return_counts=True)
    _, ry, cy = np.unique(ya, return_inverse=True, return_counts=True)
    rxy = rx * len(cy) + ry
    _, cxy = np.unique(rxy, return_counts=True)
    discordant = _inversions(ry[np.argsort(rxy, kind="stable")], len(cy))
    tx, ty, txy = _tied_pairs(cx), _tied_pairs(cy), _tied_pairs(cxy)
    n0 = n * (n - 1) / 2.0
    concordant = n0 - tx - ty + txy - discordant
    denom = np.sqrt((n0 - tx) * (n0 - ty))
    if denom == 0.0:
        raise ValidationError("constant input has undefined tau")
    return float((concordant - discordant) / denom)


# ---------------------------------------------------------------------------
# Thresholded classification


def _f1(tp, fp, fn):
    """Per-class F1 from integer counts, elementwise; an empty denominator
    gives 0.0, never NaN."""
    with np.errstate(divide="ignore", invalid="ignore"):
        precision = np.where(tp + fp > 0, tp / (tp + fp), 0.0)
        recall = np.where(tp + fn > 0, tp / (tp + fn), 0.0)
        total = precision + recall
        return np.where(total == 0.0, 0.0, 2.0 * precision * recall / total)


def _macro_f1(tp, fp, fn, tn):
    return (_f1(tp, fp, fn) + _f1(tn, fn, fp)) / 2.0


def macro_f1(predictions, labels) -> float:
    """Unweighted mean of the per-class F1 scores."""
    pred = _as_label_array(predictions)
    y = _as_label_array(labels)
    if len(pred) != len(y):
        raise ValidationError(f"length mismatch: {len(pred)} vs {len(y)}")
    tp = (pred & y).sum()
    fp = (pred & ~y).sum()
    fn = (~pred & y).sum()
    tn = (~pred & ~y).sum()
    return float(_macro_f1(tp, fp, fn, tn))


def _thresholds(ordered: np.ndarray) -> np.ndarray:
    """``candidate_thresholds`` of sorted float64 scores, as an array."""
    # Which of two equal zeros is kept cannot show: z - 0.5, z + 0.5 and
    # (z + b) / 2 for b != 0 are the same for z = +0.0 and z = -0.0.
    uniq = ordered[np.concatenate(([True], ordered[1:] != ordered[:-1]))]
    with np.errstate(over="ignore"):  # a midpoint of two huge scores is inf, as in floats
        mids = (uniq[:-1] + uniq[1:]) / 2.0
    return np.concatenate(([uniq[0] - 0.5], mids, [uniq[-1] + 0.5]))


def candidate_thresholds(scores) -> list[float]:
    """Midpoints between adjacent sorted unique scores, plus sentinels below
    the minimum and above the maximum."""
    return _thresholds(np.sort(np.asarray(scores, dtype=np.float64))).tolist()


def f1_macro_optimal(scores, labels) -> tuple[float, float]:
    """Best macro F1 over all thresholds and the lowest threshold attaining it.

    One sort: the scores below a threshold t are a prefix of the sorted
    scores, of length searchsorted(t, "left"), so `s >= t` is the rest
    even where a midpoint rounds onto a score.
    """
    s, y = _scores_and_labels(scores, labels)
    order = np.argsort(s, kind="stable")
    ordered = s[order]
    positives_below = np.concatenate(([0], np.cumsum(y[order])))
    thresholds = _thresholds(ordered)
    n_below = np.searchsorted(ordered, thresholds, "left")
    fn = positives_below[n_below]
    tn = n_below - fn
    tp = int(positives_below[-1]) - fn
    fp = (len(s) - n_below) - tp
    f1s = _macro_f1(tp, fp, fn, tn)
    best = int(np.argmax(f1s))  # the first maximum: the lowest threshold on ties
    return float(f1s[best]), float(thresholds[best])


# ---------------------------------------------------------------------------
# Calibration


@dataclass(frozen=True)
class CalibrationBin:
    lo: float
    hi: float
    size: int
    acc: float  # prediction-label agreement rate; 0.0 for empty bins
    conf: float  # mean score; 0.0 for empty bins


@dataclass(frozen=True)
class CalibrationReport:
    bins: tuple[CalibrationBin, ...]
    ece: float
    n: int
    decision_threshold: float

    def to_dict(self) -> dict:
        return {
            "ece": self.ece,
            "n": self.n,
            "decision_threshold": self.decision_threshold,
            "bins": [
                {"lo": b.lo, "hi": b.hi, "size": b.size, "acc": b.acc, "conf": b.conf}
                for b in self.bins
            ],
        }


def _binned(probs, labels, bins: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Checked probabilities in [0, 1], labels, and each probability's bin
    among `bins` equal widths."""
    p = _as_float_array(probs, "probs")
    y = _as_label_array(labels)
    if len(p) != len(y):
        raise ValidationError(f"length mismatch: {len(p)} probs, {len(y)} labels")
    if bins < 1:
        raise ValidationError(f"bin count must be >= 1, got {bins}")
    if len(p) and (p.min() < 0.0 or p.max() > 1.0):
        raise ValidationError("probabilities must lie in [0, 1]")
    idx = np.clip(np.floor(p * bins).astype(int), 0, bins - 1)  # 1.0: top bin, right-closed
    return p, y, idx


def ece(probs, labels, bins: int = 10, decision_threshold: float = 0.5) -> CalibrationReport:
    """Expected calibration error over K equal-width bins.

    Per bin: acc = mean agreement between [p >= decision_threshold] and the
    label, conf = mean p. ECE is the bin-size-weighted mean absolute gap.
    """
    p, y, idx = _binned(probs, labels, bins)
    predicted = p >= decision_threshold
    out = []
    total = 0.0
    n = len(p)
    for b in range(bins):
        members = idx == b
        size = int(members.sum())
        if size:
            acc = float((predicted[members] == y[members]).mean())
            conf = float(p[members].mean())
            total += (size / n) * abs(acc - conf)
        else:
            acc = conf = 0.0
        out.append(CalibrationBin(lo=b / bins, hi=(b + 1) / bins, size=size, acc=acc, conf=conf))
    return CalibrationReport(
        bins=tuple(out), ece=total, n=n, decision_threshold=decision_threshold
    )


@dataclass(frozen=True)
class CurvePoint:
    mean_prob: float
    frac_positive: float
    size: int


def calibration_curve(probs, labels, bins: int = 10) -> list[CurvePoint]:
    """Reliability curve: per non-empty bin, (mean score, fraction of
    positive labels, bin size). Diagonal means calibrated."""
    p, y, idx = _binned(probs, labels, bins)
    points = []
    for b in range(bins):
        members = idx == b
        size = int(members.sum())
        if size:
            points.append(
                CurvePoint(
                    mean_prob=float(p[members].mean()),
                    frac_positive=float(y[members].mean()),
                    size=size,
                )
            )
    return points


# ---------------------------------------------------------------------------
# Retrieval and report assembly


def retrieval_recall(hits) -> float:
    """Fraction of claims whose retrieved unit was annotated relevant."""
    hits = list(hits)
    if not hits:
        raise ValidationError("need at least one retrieval outcome")
    return sum(bool(h) for h in hits) / len(hits)


@dataclass
class EvalReport:
    n: int
    roc_auc: float
    pearson: float
    kendall_tau: float
    f1_macro: float
    optimal_threshold: float
    wall_clock_s: float
    scorer_calls_total: int

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "roc_auc": self.roc_auc,
            "pearson": self.pearson,
            "kendall_tau": self.kendall_tau,
            "f1_macro": self.f1_macro,
            "optimal_threshold": self.optimal_threshold,
            "wall_clock_s": self.wall_clock_s,
            "scorer_calls_total": self.scorer_calls_total,
        }


def evaluate_scores(
    scores, labels, wall_clock_s: float = 0.0, scorer_calls_total: int = 0
) -> EvalReport:
    """Assemble the full accuracy report for scored, labeled claims, converting
    the inputs to arrays once for every metric."""
    s = _as_float_array(scores, "scores")
    y = _as_label_array(labels)
    y_float = y.astype(float)
    f1, threshold = f1_macro_optimal(s, y)
    return EvalReport(
        n=len(s),
        roc_auc=roc_auc(s, y),
        pearson=pearson(s, y_float),
        kendall_tau=kendall_tau(s, y_float),
        f1_macro=f1,
        optimal_threshold=threshold,
        wall_clock_s=wall_clock_s,
        scorer_calls_total=scorer_calls_total,
    )
