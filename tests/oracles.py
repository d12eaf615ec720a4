"""Independent naive-formula oracles for the metrics module; reference
versions of the rank-metric kernels, the inversion count, the calibration
bins, the candidate F1 thresholds (``metrics._thresholds``), the chunk
packer, the retrieval splitters, the corpus loader, document-by-document
scoring, claim-by-claim greedy and exhaustive retrieval, and the overlap
backend's words; and a replay check for retrieval traces.

The oracles are pure-python, loop-based, written directly from the defining
formulas so they share no code path with the implementations they check.
The references keep earlier, slower implementations, whose floats the
current ones must reproduce exactly.
"""

from __future__ import annotations

import hashlib
import json
import re
from bisect import bisect_left
from math import ceil, sqrt
from pathlib import Path

import numpy as np

from chunkcheck.backends import _words
from chunkcheck.chunking import Chunk, ChunkPlan, premise_text
from chunkcheck.corpus import (
    Corpus,
    Document,
    Unit,
    WhitespaceCounter,
    _not_utf8,
    claim_from_record,
    claim_to_record,
    document_to_record,
)
from chunkcheck.engine import score_text
from chunkcheck.errors import CorpusError, ScoringError, ValidationError
from chunkcheck.metrics import CalibrationBin, CalibrationReport, CurvePoint
from chunkcheck.retrieval import BruteForceResult, RetrievalTrace, TraceLevel, _split_under_cap
from chunkcheck.scoring import check_cap, first_max, score_batch


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


def roc_auc_reference(scores, labels) -> float:
    """Midranks assigned run by run over the stably sorted scores."""
    s = np.asarray(scores, dtype=float)
    y = np.asarray([bool(v) for v in labels], dtype=bool)
    order = np.argsort(s, kind="stable")
    sorted_scores = s[order]
    ranks = np.empty(len(s), dtype=float)
    i = 0
    while i < len(s):
        j = i
        while j + 1 < len(s) and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0  # midrank, 1-based
        i = j + 1
    n_pos = int(y.sum())
    n_neg = len(y) - n_pos
    rank_sum = float(ranks[y].sum())
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def kendall_tau_reference(x, y) -> float:
    """Tau-b from the n x n sign matrices (quadratic time and memory)."""
    xa = np.asarray(x, dtype=float)
    ya = np.asarray(y, dtype=float)
    n = len(xa)
    sx = np.sign(xa[:, None] - xa[None, :])
    sy = np.sign(ya[:, None] - ya[None, :])
    iu = np.triu_indices(n, k=1)
    prod = sx[iu] * sy[iu]
    concordant_minus_discordant = float(prod.sum())
    n0 = n * (n - 1) / 2.0
    ties_x = n0 - float(np.count_nonzero(sx[iu]))
    ties_y = n0 - float(np.count_nonzero(sy[iu]))
    denom = np.sqrt((n0 - ties_x) * (n0 - ties_y))
    return concordant_minus_discordant / denom


def candidate_thresholds_reference(scores) -> list[float]:
    """``metrics._thresholds``: midpoints over a Python set of the scores,
    sorted, plus the sentinels."""
    uniq = sorted(set(float(v) for v in scores))
    cands = [uniq[0] - 0.5]
    cands.extend((a + b) / 2.0 for a, b in zip(uniq, uniq[1:]))
    cands.append(uniq[-1] + 0.5)
    return cands


def _f1_reference(tp: int, fp: int, fn: int) -> float:
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def f1_macro_optimal_reference(scores, labels) -> tuple[float, float]:
    """One full macro-F1 pass per candidate threshold, keeping the first best."""
    s = np.asarray(scores, dtype=float)
    y = np.asarray([bool(v) for v in labels], dtype=bool)
    uniq = sorted(set(float(v) for v in s))
    cands = [uniq[0] - 0.5]
    cands.extend((a + b) / 2.0 for a, b in zip(uniq, uniq[1:]))
    cands.append(uniq[-1] + 0.5)
    best_f1 = -1.0
    best_threshold = 0.0
    for t in cands:
        pred = s >= t
        tp = int((pred & y).sum())
        fp = int((pred & ~y).sum())
        fn = int((~pred & y).sum())
        tn = int((~pred & ~y).sum())
        f1 = (_f1_reference(tp, fp, fn) + _f1_reference(tn, fn, fp)) / 2.0
        if f1 > best_f1:  # strict: keep the lowest threshold on ties
            best_f1 = f1
            best_threshold = t
    return best_f1, best_threshold


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


def inversions_reference(r, m: int) -> int:
    """Pairs i < j with r[i] > r[j], for integer ranks 0 <= r < m.

    Bottom-up merge sort: at width w every block of 2w holds two sorted
    halves, and each element of a right half counts the left-half elements
    above it. Offsetting ranks by block id (pid * m + r) makes all left
    halves one sorted array, so one searchsorted serves every block.
    """
    r = np.asarray(r, dtype=np.int64)
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


def _bins_reference(probs, labels, bins):
    p = np.asarray(probs, dtype=float)
    y = np.asarray([bool(v) for v in labels], dtype=bool)
    return p, y, np.clip(np.floor(p * bins).astype(int), 0, bins - 1)


def ece_reference(probs, labels, bins=10, decision_threshold=0.5) -> CalibrationReport:
    """One boolean member mask per bin, means by ``ndarray.mean``."""
    p, y, idx = _bins_reference(probs, labels, bins)
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


def calibration_curve_reference(probs, labels, bins=10) -> list[CurvePoint]:
    """One boolean member mask per non-empty bin, means by ``ndarray.mean``."""
    p, y, idx = _bins_reference(probs, labels, bins)
    points = []
    for b in range(bins):
        members = idx == b
        size = int(members.sum())
        if size:
            points.append(CurvePoint(mean_prob=float(p[members].mean()),
                                     frac_positive=float(y[members].mean()), size=size))
    return points


def make_chunks_reference(doc, budget, counter) -> ChunkPlan:
    """Greedy packing unit by unit: extend the chunk while the next unit fits."""
    if budget < 1:
        raise ValidationError(f"budget must be >= 1, got {budget}")
    counts = doc.unit_token_counts(counter)
    n = len(doc.units)
    chunks = []
    i = 0
    while i < n:
        total = counts[i]
        j = i + 1
        while j < n and total + counts[j] <= budget:
            total += counts[j]
            j += 1
        chunks.append(Chunk(doc_id=doc.id, start=i, end=j, text=premise_text(doc, i, j),
                            token_count=total, oversized=(j == i + 1 and total > budget)))
        i = j
    return ChunkPlan(doc_id=doc.id, budget=budget, chunks=chunks)


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


def score_corpus_reference(corpus, budget, backend, counter, aggregation="min", max_workers=1,
                           explain=False, cap=None) -> tuple[list, list]:
    """``cli._score_corpus`` one document after another: each document's
    claims scored alone by ``score_text``, one batch per document, so the
    first failing document's error is the one raised. With a backend that
    never fails, that is the first invalid document's, which one batch over
    every document raises too. Returns (text scores, sentence scores in claim
    order)."""
    text_scores = [
        score_text(corpus.document(doc_id), claims, budget, backend, counter, aggregation,
                   max_workers, explain, cap)
        for doc_id, claims in corpus.grouped_texts().items()
    ]
    by_claim = {s.claim_id: s for ts in text_scores for s in ts.sentences}
    return text_scores, [by_claim[c.id] for c in corpus.claims]


def retrieve_reference(doc, claim, backend, k=2, budget=None, counter=None,
                       max_workers=1) -> RetrievalTrace:
    """Greedy descent of one claim on its own: one ``score_batch`` of the
    claim's parts per level, each part split and joined for this claim."""
    if not doc.units:
        raise ValidationError(f"document {doc.id!r} has no units")
    if k < 2:
        raise ValidationError(f"branching factor must be >= 2, got {k}")
    counter = WhitespaceCounter() if counter is None else counter
    levels = []
    start, end = 0, len(doc.units)
    while True:
        parts = _split_under_cap(doc, start, end, k, counter, budget)
        pairs = [(premise_text(doc, a, b), claim.text) for a, b in parts]
        if budget is not None:
            prefix = doc._token_prefix_sums(counter)
            check_cap(pairs, (prefix[b] - prefix[a] for a, b in parts), budget)
        batch = score_batch(backend, pairs, max_workers=max_workers)
        if not batch.ok:
            raise ScoringError(
                f"claim {claim.id!r}: retrieval scoring failed at ranges {parts} "
                f"({batch.failures[0].error})"
            )
        chosen = first_max(batch.scores)
        levels.append(TraceLevel(candidate_ranges=parts, scores=batch.scores, chosen=chosen))
        start, end = parts[chosen]
        if end - start == 1:
            return RetrievalTrace(
                claim_id=claim.id,
                levels=levels,
                result_unit=start,
                result_score=batch.scores[chosen],
                scorer_calls=sum(len(lvl.scores) for lvl in levels),
            )


def call_count_bound(n: int, k: int) -> int:
    """Upper bound on greedy scorer calls: k * ceil(log_k n) + k."""
    depth = 0
    reach = 1
    while reach < n:  # ceil(log_k n) without float fuzz
        reach *= k
        depth += 1
    return k * depth + k


def check_first_levels_reference(claims, corpus, ks, cap=None, counter=None) -> None:
    """The input checks of every claim's first level, before any claim is
    retrieved: claim by claim in order, and for each claim a level per
    branching factor of ``ks`` in order (``None`` for the document's unit
    count, brute force's), its parts split by ``split_under_cap_reference``
    and checked pair by pair by ``check_pairs_reference``. A corpus without
    blank units fails its input checks, if at all, at the first level: a unit
    over the cap is a one-unit part there, since any larger part holding it
    is over the cap too."""
    counter = WhitespaceCounter() if counter is None else counter
    for claim in claims:
        doc = corpus.document(claim.doc_id)
        n = len(doc.units)
        for k in ks:
            parts = split_under_cap_reference(doc, 0, n, k or max(2, n), counter, cap)
            check_pairs_reference(
                [(premise_text(doc, a, b), claim.text) for a, b in parts], cap, counter
            )


def retrievals_reference(claims, corpus, backend, k=2, budget=None, counter=None,
                         max_workers=1) -> list[tuple]:
    """(claim, document, trace) per claim: every claim's first level is
    checked first (``check_first_levels_reference``), so bad input raises
    before any claim is scored; then claims are retrieved one after another
    in order, so the first failing claim's error is the one raised."""
    check_first_levels_reference(claims, corpus, [k], budget, counter)
    out = []
    for claim in claims:
        doc = corpus.document(claim.doc_id)
        out.append((claim, doc, retrieve_reference(
            doc, claim, backend, k, budget, counter, max_workers
        )))
    return out


def brute_force_reference(doc, claim, backend, budget=None, counter=None) -> BruteForceResult:
    """Exhaustive retrieval of one claim on its own: one ``score_batch`` of
    the claim against every unit, each unit joined for this claim."""
    if not doc.units:
        raise ValidationError(f"document {doc.id!r} has no units")
    counter = WhitespaceCounter() if counter is None else counter
    ranges = [(i, i + 1) for i in range(len(doc.units))]
    pairs = [(premise_text(doc, a, b), claim.text) for a, b in ranges]
    if budget is not None:
        check_cap(pairs, doc.unit_token_counts(counter), budget)
    batch = score_batch(backend, pairs)
    if not batch.ok:
        raise ScoringError(
            f"claim {claim.id!r}: retrieval scoring failed at ranges {ranges} "
            f"({batch.failures[0].error})"
        )
    best = first_max(batch.scores)
    return BruteForceResult(unit=best, score=batch.scores[best], scorer_calls=len(ranges))


def verify_trace(doc, claim, backend, trace) -> None:
    """Replay a trace: re-score each recorded level's ranges, joined with
    ``premise_text`` and scored with ``score_batch``, and check that every
    recorded score, choice and call count reproduces and that the chosen
    ranges nest down to the result unit. Raises AssertionError on any
    mismatch."""
    calls = 0
    lo, hi = 0, len(doc.units)
    for depth, level in enumerate(trace.levels):
        ranges = level.candidate_ranges
        assert all(lo <= a < b <= hi for a, b in ranges), f"level {depth} leaves {(lo, hi)}"
        batch = score_batch(backend, [(premise_text(doc, a, b), claim.text) for a, b in ranges])
        assert batch.ok, f"replay failed at level {depth}: {batch.failures}"
        assert batch.scores == level.scores, f"level {depth}: {batch.scores} != {level.scores}"
        assert batch.scores.index(max(batch.scores)) == level.chosen, f"level {depth} choice"
        calls += len(ranges)
        lo, hi = ranges[level.chosen]
    assert calls == trace.scorer_calls, f"{trace.scorer_calls} calls recorded, {calls} replayed"
    assert (lo, hi) == (trace.result_unit, trace.result_unit + 1), "trace ends off its unit"
    assert trace.levels[-1].scores[trace.levels[-1].chosen] == trace.result_score


def check_pairs_reference(pairs, cap, counter) -> None:
    """Input checks pair by pair, with nothing skipped: empty premise, empty
    hypothesis, then the premise cap, counted with ``counter``."""
    from chunkcheck.errors import PremiseTooLargeError, ValidationError

    for premise, hypothesis in pairs:
        if not premise.strip():
            raise ValidationError("premise must be non-empty")
        if not hypothesis.strip():
            raise ValidationError("hypothesis must be non-empty")
        if cap is not None:
            n = counter.count(premise)
            if n > cap:
                raise PremiseTooLargeError(f"premise has {n} tokens, over the premise cap of {cap}")


def overlap_words_reference(text: str) -> frozenset[bytes]:
    """The overlap backend's words as a regex finds them: the maximal runs of
    ``[a-z0-9']`` in ``text.lower()``, each encoded to bytes."""
    return frozenset(word.encode("ascii") for word in re.findall(r"[a-z0-9']+", text.lower()))


def check_overlap_words_every_code_point() -> None:
    """``backends._words`` equals ``overlap_words_reference`` on every code
    point, alone and between two letters, under this Python's Unicode tables.
    Takes seconds; run from the repository root as
    ``python3 -c 'import sys; sys.path.insert(0, "tests"); import oracles;
    oracles.check_overlap_words_every_code_point()'``."""
    for code in range(0x110000):
        for text in (chr(code), "a" + chr(code) + "b"):
            got, want = _words(text), overlap_words_reference(text)
            assert got == want, f"U+{code:04X} in {text!r}: {sorted(got)} != {sorted(want)}"


def _unit_reference(rec, pos) -> Unit:
    if isinstance(rec, dict):
        text, speaker = rec.get("text"), rec.get("speaker")
        if isinstance(text, str) and (speaker is None or isinstance(speaker, str)):
            extra = {k: v for k, v in rec.items() if k not in ("speaker", "text")}
            return Unit(text=text, speaker=speaker, extra=extra)
    raise ValidationError(
        f"unit {pos} must be an object with a string 'text' and a string or null "
        f"'speaker', got {rec!r:.60}"
    )


def _document_reference(rec) -> Document:
    doc_id, units = rec["id"], rec["units"]
    if not isinstance(doc_id, str):
        raise ValidationError(f"document 'id' must be a string, got {doc_id!r:.40}")
    if not isinstance(units, list):
        raise ValidationError(f"document {doc_id!r} 'units' must be an array, got {units!r:.40}")
    extra = {k: v for k, v in rec.items() if k not in ("id", "units")}
    return Document(id=doc_id, units=[_unit_reference(u, i) for i, u in enumerate(units)],
                    extra=extra)


def _read_jsonl_reference(path, build, required):
    out = []
    path = Path(path)
    try:
        with path.open(encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                try:
                    rec = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise CorpusError(
                        f"invalid JSON ({exc.msg})", path=str(path), line=lineno
                    ) from exc
                if not isinstance(rec, dict):
                    raise CorpusError("record is not an object", path=str(path), line=lineno)
                if not required <= rec.keys():
                    raise CorpusError(
                        f"missing required fields {sorted(required - rec.keys())}",
                        path=str(path), line=lineno,
                    )
                try:
                    out.append(build(rec))
                except (TypeError, ValueError, ValidationError) as exc:
                    raise CorpusError(str(exc), path=str(path), line=lineno) from exc
    except FileNotFoundError as exc:
        raise CorpusError("file not found", path=str(path)) from exc
    except OSError as exc:
        raise CorpusError(f"cannot read file ({exc.strerror})", path=str(path)) from exc
    except UnicodeDecodeError as exc:
        raise _not_utf8(path) from exc
    return out


def load_corpus_reference(documents_path, claims_path) -> Corpus:
    """The loader record by record: ``json.loads`` on each line, each unit
    through the general builder, and every unit's text checked on its own.
    Claims and the not-UTF-8 error go through the library's own
    ``claim_from_record`` and ``_not_utf8``, which the fast path leaves as
    they were."""
    corpus = Corpus(
        documents=_read_jsonl_reference(documents_path, _document_reference, {"id", "units"}),
        claims=_read_jsonl_reference(claims_path, claim_from_record, {"id", "doc_id", "text"}),
    )
    seen = set()
    for doc in corpus.documents:
        if not doc.id:
            raise ValidationError("document id must be non-empty")
        if not doc.units:
            raise ValidationError(f"document {doc.id!r} has no units")
        for pos, unit in enumerate(doc.units):
            if not unit.text.strip():
                raise ValidationError(f"document {doc.id!r}: unit {pos} has empty text")
        if doc.id in seen:
            raise ValidationError(f"duplicate document id {doc.id!r}")
        seen.add(doc.id)
    by_id = {doc.id: doc for doc in corpus.documents}
    seen = set()
    for claim in corpus.claims:
        if claim.id in seen:
            raise ValidationError(f"duplicate claim id {claim.id!r}")
        seen.add(claim.id)
        if claim.doc_id not in by_id:
            raise CorpusError(f"claim {claim.id!r} references unknown document {claim.doc_id!r}")
        if not claim.id:
            raise ValidationError("claim id must be non-empty")
        if not claim.text.strip():
            raise ValidationError(f"claim {claim.id!r} has empty text")
        n = len(by_id[claim.doc_id].units)
        bad = sorted(i for i in claim.relevant_units or () if not 0 <= i < n)
        if bad:
            raise ValidationError(f"claim {claim.id!r}: relevant unit indices {bad} out of range "
                                  f"for document {claim.doc_id!r} with {n} units")
    return corpus


def content_hash_reference(corpus: Corpus) -> str:
    """``Corpus.content_hash`` in one shot: every record in one payload, one
    canonical ``json.dumps`` and one sha256 over its UTF-8 bytes."""
    payload = {
        "documents": [document_to_record(d) for d in corpus.documents],
        "claims": [claim_to_record(c) for c in corpus.claims],
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"), ensure_ascii=False)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()
