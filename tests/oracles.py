"""Independent naive-formula oracles for the metrics module, and reference
versions of the retrieval splitters.

Pure-python, loop-based, written directly from the defining formulas so
they share no code path with the implementations they check.
"""

from __future__ import annotations

from bisect import bisect_left
from math import ceil, sqrt


def auc_pair_counting(scores, labels) -> float:
    """Count positive-negative pairs ordered correctly; ties get half credit."""
    pos = [s for s, y in zip(scores, labels) if y]
    neg = [s for s, y in zip(scores, labels) if not y]
    total = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                total += 1.0
            elif p == q:
                total += 0.5
    return total / (len(pos) * len(neg))


def pearson_naive(x, y) -> float:
    n = len(x)
    mx = sum(x) / n
    my = sum(y) / n
    cov = sum((a - mx) * (b - my) for a, b in zip(x, y))
    vx = sum((a - mx) ** 2 for a in x)
    vy = sum((b - my) ** 2 for b in y)
    return cov / sqrt(vx * vy)


def tau_b_enumeration(x, y) -> float:
    """Explicit concordant/discordant/tie counting over all pairs."""
    n = len(x)
    concordant = discordant = ties_x = ties_y = 0
    for i in range(n):
        for j in range(i + 1, n):
            dx = x[i] - x[j]
            dy = y[i] - y[j]
            if dx == 0 and dy == 0:
                ties_x += 1
                ties_y += 1
            elif dx == 0:
                ties_x += 1
            elif dy == 0:
                ties_y += 1
            elif (dx > 0) == (dy > 0):
                concordant += 1
            else:
                discordant += 1
    n0 = n * (n - 1) / 2
    return (concordant - discordant) / sqrt((n0 - ties_x) * (n0 - ties_y))


def _f1_one_class(predictions, labels, positive) -> float:
    tp = sum(1 for p, y in zip(predictions, labels) if p == positive and y == positive)
    fp = sum(1 for p, y in zip(predictions, labels) if p == positive and y != positive)
    fn = sum(1 for p, y in zip(predictions, labels) if p != positive and y == positive)
    if tp == 0:
        return 0.0
    precision = tp / (tp + fp)
    recall = tp / (tp + fn)
    return 2 * precision * recall / (precision + recall)


def macro_f1_naive(predictions, labels) -> float:
    return (
        _f1_one_class(predictions, labels, True)
        + _f1_one_class(predictions, labels, False)
    ) / 2


def best_macro_f1_by_cuts(scores, labels) -> float:
    """Enumerate every thresholding-reachable prediction vector directly and
    take the best naive macro F1."""
    best = -1.0
    uniq = sorted(set(scores))
    cuts = [uniq[0] - 1.0] + uniq + [uniq[-1] + 1.0]
    for t in cuts:
        preds = [s >= t for s in scores]
        best = max(best, macro_f1_naive(preds, labels))
    return best


def ece_by_hand(probs, labels, bins, decision_threshold=0.5) -> float:
    """Direct application of the bin accuracy/confidence definitions."""
    n = len(probs)
    total = 0.0
    for b in range(bins):
        lo = b / bins
        hi = (b + 1) / bins
        member = [
            i
            for i, p in enumerate(probs)
            if (lo <= p < hi) or (b == bins - 1 and p == 1.0)
        ]
        if not member:
            continue
        acc = sum(
            1 for i in member if (probs[i] >= decision_threshold) == bool(labels[i])
        ) / len(member)
        conf = sum(probs[i] for i in member) / len(member)
        total += (len(member) / n) * abs(acc - conf)
    return total


def curve_by_hand(probs, labels, bins):
    """Per non-empty bin: (mean prob, positive fraction, size)."""
    points = []
    for b in range(bins):
        lo = b / bins
        hi = (b + 1) / bins
        member = [
            i
            for i, p in enumerate(probs)
            if (lo <= p < hi) or (b == bins - 1 and p == 1.0)
        ]
        if member:
            mean_p = sum(probs[i] for i in member) / len(member)
            frac = sum(1 for i in member if labels[i]) / len(member)
            points.append((mean_p, frac, len(member)))
    return points


def split_range_reference(doc, start, end, k, counter):
    """``split_range`` on a cumulative list rebuilt for the range on every call."""
    m = end - start
    if m <= k:
        return [(i, i + 1) for i in range(start, end)]
    counts = doc.unit_token_counts(counter)[start:end]
    total = sum(counts)
    if total == 0:
        boundaries = [start + ceil(i * m / k) for i in range(1, k)]
    else:
        cum = [0] * (m + 1)
        for i, c in enumerate(counts):
            cum[i + 1] = cum[i] + c
        boundaries = []
        prev = 0
        for i in range(1, k):
            cut = bisect_left(cum, total * i / k)
            cut = max(cut, prev + 1)
            cut = min(cut, m - (k - i))
            boundaries.append(start + cut)
            prev = cut
    edges = [start] + boundaries + [end]
    return [(a, b) for a, b in zip(edges, edges[1:])]


def split_under_cap_reference(doc, start, end, k, counter, cap):
    """Premise-cap widening that scans the branching factor up from k one
    step at a time, re-splitting and re-summing the parts at every step."""
    parts = split_range_reference(doc, start, end, k, counter)
    if cap is None:
        return parts
    counts = doc.unit_token_counts(counter)
    kk = k
    while kk < end - start:
        if not any(b - a > 1 and sum(counts[a:b]) > cap for a, b in parts):
            break
        kk += 1
        parts = split_range_reference(doc, start, end, kk, counter)
    return parts


def check_pairs_reference(backend, pairs) -> None:
    """Input checks pair by pair, with nothing skipped: empty premise, empty
    hypothesis, then the premise cap."""
    from chunkcheck.errors import PremiseTooLargeError, ValidationError

    for premise, hypothesis in pairs:
        if not premise.strip():
            raise ValidationError("premise must be non-empty")
        if not hypothesis.strip():
            raise ValidationError("hypothesis must be non-empty")
        cap = backend.max_premise_tokens
        if cap is not None:
            n = backend.budget_counter.count(premise)
            if n > cap:
                raise PremiseTooLargeError(
                    f"premise has {n} tokens, backend {backend.name!r} admits {cap}"
                )
