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
- Labels are one-dimensional, and each element is read by its truthiness.

numpy is imported when a metric first needs it, so commands that compute no
metric, such as `score` and `retrieve`, never load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .errors import ValidationError


class _DeferredNumpy:
    """Stands in for numpy until its first attribute read, which imports numpy
    and rebinds this module's `np` to it, so later reads cost nothing."""

    def __getattr__(self, name: str):
        global np
        import numpy

        np = numpy
        return getattr(numpy, name)


np = _DeferredNumpy()


def _as_float_array(x, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1:
        raise ValidationError(f"{name} must be one-dimensional")
    if not np.isfinite(arr).all():
        raise ValidationError(f"{name} must be finite (no NaN or infinity)")
    return arr


def _as_label_array(labels) -> np.ndarray:
    """A one-dimensional boolean array. One C pass checks the shape and reads
    each element by its truthiness, as ``bool(v)`` does."""
    try:
        y = np.asarray(labels, dtype=bool)
    except ValueError:  # ragged nesting, such as [[1], []]
        y = None
    if y is None or y.ndim != 1:
        raise ValidationError("labels must be one-dimensional")
    return y


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


def _runs(ordered: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """True at the first element of each run of equal values, and the run lengths."""
    first = np.empty(len(ordered), dtype=bool)
    first[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    return first, np.diff(np.flatnonzero(first), append=len(first))


class _Ranked(NamedTuple):
    order: np.ndarray  # indices that sort the values
    ordered: np.ndarray  # the sorted values
    rank: np.ndarray  # dense rank of each value: np.unique's inverse
    counts: np.ndarray  # size of each run of equal values: np.unique's counts


def _ranks(values: np.ndarray) -> _Ranked:
    """Every rank fact the rank metrics need, from one sort of `values`.

    -0.0 and 0.0 share a run, as in np.unique. No metric depends on the order
    within a run of equal values.
    """
    order = np.argsort(values)
    ordered = values[order]
    first, counts = _runs(ordered)
    rank = np.empty(len(values), dtype=np.intp)
    rank[order] = np.cumsum(first) - 1
    return _Ranked(order, ordered, rank, counts)


def _auc(x: _Ranked, y: np.ndarray) -> float:
    starts = np.cumsum(x.counts) - x.counts
    midranks = (2 * starts + x.counts - 1) / 2.0 + 1.0  # 1-based
    n_pos = int(y.sum())
    n_neg = len(y) - n_pos
    rank_sum = float(midranks[x.rank[y]].sum())
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def roc_auc(scores, labels) -> float:
    """Probability that a random positive outranks a random negative."""
    s, y = _scores_and_labels(scores, labels)
    return _auc(_ranks(s), y)


def _correlation(xa: np.ndarray, ya: np.ndarray) -> float | None:
    """Pearson's r of two checked samples; None where either is constant."""
    dx = xa - xa.mean()
    dy = ya - ya.mean()
    sx = float(np.sqrt((dx * dx).sum()))
    sy = float(np.sqrt((dy * dy).sum()))
    if sx == 0.0 or sy == 0.0:
        return None
    return float((dx * dy).sum()) / (sx * sy)


def pearson(x, y) -> float:
    """Product-moment correlation."""
    r = _correlation(*_paired(x, y))
    if r is None:
        raise ValidationError("constant input has undefined correlation")
    return r


def _tied_pairs(counts: np.ndarray) -> int:
    return int((counts * (counts - 1) // 2).sum())


def _inversions(r: np.ndarray, m: int) -> int:
    """Pairs i < j with r[i] > r[j], for integer ranks 0 <= r < m.

    MSD radix over the bits of m - 1, highest first. Before round b, r is
    stably ordered by r >> (b + 1), so each run of equal high bits keeps
    its original order, and a pair inside a run that differs at bit b is
    an inversion when its 1 comes first: each 0 counts the 1-bits before
    it in its run. A stable sort by r >> b then splits every run in two.
    Binary ranks take one round and no sort.
    """
    # numpy's stable sort is a radix sort on keys of 16 bits or fewer
    r = r.astype(np.min_scalar_type(m - 1))
    total = 0
    starts = np.ones(len(r), dtype=bool)
    for b in reversed(range((m - 1).bit_length())):
        high = r >> (b + 1)
        ones = (r >> b) & 1
        before = np.cumsum(ones) - ones  # 1-bits before each element
        np.not_equal(high[1:], high[:-1], out=starts[1:])
        base = np.maximum.accumulate(np.where(starts, before, 0))  # at its run's start
        total += int((before - base)[ones == 0].sum())
        if b:
            r = r[np.argsort(r >> b, kind="stable")]
    return total


def _tau(x: _Ranked, ry: np.ndarray, cy: np.ndarray) -> float | None:
    """Tau-b of x's ranks against y's dense ranks `ry` with run sizes `cy`;
    None where either sample is constant."""
    n = len(ry)
    ry = ry[x.order]
    key = x.rank[x.order] * len(cy) + ry  # the (x, y) rank, already sorted by x
    by_key = np.argsort(key, kind="stable")  # timsort merges the sorted x runs
    _, cxy = _runs(key[by_key])
    discordant = _inversions(ry[by_key], len(cy))
    tx, ty, txy = _tied_pairs(x.counts), _tied_pairs(cy), _tied_pairs(cxy)
    n0 = n * (n - 1) / 2.0
    concordant = n0 - tx - ty + txy - discordant
    denom = np.sqrt((n0 - tx) * (n0 - ty))
    if denom == 0.0:
        return None
    return float((concordant - discordant) / denom)


def kendall_tau(x, y) -> float:
    """Tau-b: (concordant - discordant) / sqrt((n0 - tx) * (n0 - ty)).

    Knight's algorithm: order by (x, y), count discordant pairs as the
    inversions of y in that order, and take the tie terms from runs of
    equal x, equal y and equal (x, y).
    """
    xa, ya = _paired(x, y)
    ranked_y = _ranks(ya)
    tau = _tau(_ranks(xa), ranked_y.rank, ranked_y.counts)
    if tau is None:
        raise ValidationError("constant input has undefined tau")
    return tau


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


def _thresholds(x: _Ranked) -> np.ndarray:
    """Candidate F1 thresholds of ranked float64 scores: the midpoints between
    adjacent sorted unique scores, plus sentinels 0.5 below and above them."""
    # Which of two equal zeros is kept cannot show: z - 0.5, z + 0.5 and
    # (z + b) / 2 for b != 0 are the same for z = +0.0 and z = -0.0.
    uniq = x.ordered[np.cumsum(x.counts) - x.counts]
    with np.errstate(over="ignore"):  # a midpoint of two huge scores is inf, as in floats
        mids = (uniq[:-1] + uniq[1:]) / 2.0
    return np.concatenate(([uniq[0] - 0.5], mids, [uniq[-1] + 0.5]))


def f1_macro_optimal(scores, labels) -> tuple[float, float]:
    """Best macro F1 over all thresholds and the lowest threshold attaining it.

    One sort: the scores below a threshold t are a prefix of the sorted
    scores, of length searchsorted(t, "left"), so `s >= t` is the rest
    even where a midpoint rounds onto a score.
    """
    s, y = _scores_and_labels(scores, labels)
    return _f1_optimal(_ranks(s), y)


def _f1_optimal(x: _Ranked, y: np.ndarray) -> tuple[float, float]:
    positives_below = np.concatenate(([0], np.cumsum(y[x.order])))
    thresholds = _thresholds(x)
    n_below = np.searchsorted(x.ordered, thresholds, "left")
    fn = positives_below[n_below]
    tn = n_below - fn
    tp = int(positives_below[-1]) - fn
    fp = (len(y) - n_below) - tp
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


def _binned(probs, labels, bins: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Checked probabilities in [0, 1], labels, each probability's bin among
    `bins` equal widths, and the bin sizes."""
    p = _as_float_array(probs, "probs")
    y = _as_label_array(labels)
    if len(p) != len(y):
        raise ValidationError(f"length mismatch: {len(p)} probs, {len(y)} labels")
    if isinstance(bins, bool) or not isinstance(bins, (int, np.integer)) or bins < 1:
        raise ValidationError(f"bin count must be an int >= 1, got {bins!r}")
    if len(p) and (p.min() < 0.0 or p.max() > 1.0):
        raise ValidationError("probabilities must lie in [0, 1]")
    idx = np.clip(np.floor(p * bins).astype(int), 0, bins - 1)  # 1.0: top bin, right-closed
    return p, y, idx, np.bincount(idx, minlength=bins)


def _bin_means(p: np.ndarray, idx: np.ndarray, sizes: np.ndarray) -> list[float]:
    """Mean probability per bin, 0.0 for an empty bin.

    Sorted stably by bin, bin b's slice holds its members in their original
    order, so its (pairwise) sum is the one ``p[idx == b].mean()`` takes.
    """
    narrow = idx.astype(np.min_scalar_type(len(sizes) - 1))  # radix-sorted, as in _inversions
    by_bin = p[np.argsort(narrow, kind="stable")]
    ends = np.cumsum(sizes).tolist()
    starts = [0] + ends[:-1]
    return [float(by_bin[s:e].sum() / (e - s)) if e > s else 0.0 for s, e in zip(starts, ends)]


def ece(probs, labels, bins: int = 10, decision_threshold: float = 0.5) -> CalibrationReport:
    """Expected calibration error over K equal-width bins.

    Per bin: acc = mean agreement between [p >= decision_threshold] and the
    label, conf = mean p. ECE is the bin-size-weighted mean absolute gap.
    """
    if not math.isfinite(decision_threshold):
        raise ValidationError(f"decision_threshold must be finite, got {decision_threshold}")
    p, y, idx, sizes = _binned(probs, labels, bins)
    agree = np.bincount(idx, weights=(p >= decision_threshold) == y, minlength=bins)
    out = []
    total = 0.0
    n = len(p)
    means = _bin_means(p, idx, sizes)
    for b, (size, agreed, conf) in enumerate(zip(sizes.tolist(), agree.tolist(), means)):
        if size:
            acc = agreed / size
            total += (size / n) * abs(acc - conf)
        else:
            acc = 0.0
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
    p, y, idx, sizes = _binned(probs, labels, bins)
    positives = np.bincount(idx, weights=y, minlength=bins)
    return [
        CurvePoint(mean_prob=mean, frac_positive=pos / size, size=size)
        for size, pos, mean in zip(sizes.tolist(), positives.tolist(), _bin_means(p, idx, sizes))
        if size
    ]


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
    pearson: float | None  # None where the scores are constant
    kendall_tau: float | None
    f1_macro: float
    optimal_threshold: float

    def to_dict(self) -> dict:
        return dict(vars(self))


def evaluate_scores(scores, labels) -> EvalReport:
    """Assemble the full accuracy report for scored, labeled claims: the
    inputs are checked once, and one sort of the scores serves every rank
    metric. Binary labels are their own dense ranks. Where the scores are
    constant, ``pearson`` and ``kendall_tau`` are undefined and reported as
    None; AUC and F1 are still defined."""
    s, y = _scores_and_labels(scores, labels)
    x = _ranks(s)
    n_pos = int(y.sum())
    f1, threshold = _f1_optimal(x, y)
    return EvalReport(
        n=len(s),
        roc_auc=_auc(x, y),
        pearson=_correlation(s, y.astype(float)),
        kendall_tau=_tau(x, y.astype(np.intp), np.array([len(y) - n_pos, n_pos])),
        f1_macro=f1,
        optimal_threshold=threshold,
    )
