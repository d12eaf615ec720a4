"""Locate the source unit that best supports a claim.

Greedy search-tree descent: split the current unit range into at most k
token-balanced parts, score each part against the claim, descend into the
best one, stop at a single unit. Needs O(log n) scorer calls where the
exhaustive baseline needs n.

The claims of one document descend together (``descend``): each level is
one ``score_batch`` over the parts of every claim still descending, so the
``max_workers`` threads are shared across the document's claims, and a
claim that reaches a single unit drops out of later batches. Each distinct
range is split, and each distinct part joined, once per level. Claims with
the same text on one document share their pairs through the batch's
deduplication. Every claim's trace is the one it would get descending
alone; a failure is the error of the first failing claim in claim order,
though other claims' pairs may have been scored by then. The exhaustive
baseline, ``brute_force_all``, likewise scores every claim of a document
against all of its units in one batch, each unit joined once.

Exactness caveat: descent is provably equal to the exhaustive argmax when
the scorer is max-composable (a range scores the max of its units), as the
UnitRelevanceBackend is by construction. Real entailment scorers are not,
so the greedy result can diverge; see the regression fixtures in tests.
Keeping several branches alive per level (a beam) would trade calls for
robustness against that, but the trace format and all defaults here are
single-branch greedy.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate

from .chunking import premise_text, split_range
from .corpus import Claim, Document, TokenCounter, WhitespaceCounter
from .errors import ChunkcheckError, ScoringError, ValidationError
from .scoring import (
    BatchFailure,
    ScorerBackend,
    check_cap,
    first_max,
    score_batch,
)

_WHITESPACE = WhitespaceCounter()  # one default instance: a document caches counts per counter


@dataclass
class TraceLevel:
    candidate_ranges: list[tuple[int, int]]
    scores: list[float]
    chosen: int  # index into candidate_ranges

    def to_dict(self) -> dict:
        return {
            "candidate_ranges": [list(r) for r in self.candidate_ranges],
            "scores": self.scores,
            "chosen": self.chosen,
        }


@dataclass
class RetrievalTrace:
    claim_id: str
    levels: list[TraceLevel]
    result_unit: int
    result_score: float
    scorer_calls: int

    def to_dict(self) -> dict:
        return {
            "claim_id": self.claim_id,
            "result_unit": self.result_unit,
            "result_score": self.result_score,
            "scorer_calls": self.scorer_calls,
            "levels": [lvl.to_dict() for lvl in self.levels],
        }


@dataclass
class BruteForceResult:
    unit: int
    score: float
    scorer_calls: int


def _score_level(doc, claims, parts, backend, cap, counter, max_workers, levels):
    """Score every claim's parts (``parts[i]`` for ``claims[i]``, whose levels
    so far are ``levels[i]``) in one batch, rejecting first any part of more
    than ``cap`` tokens, counted from the prefix sums. Returns the scores of
    the claims before the first whose scoring fails, and the error that
    claim's parts raise when scored alone (None if no claim fails)."""
    texts = {r: premise_text(doc, *r) for r in dict.fromkeys(r for ps in parts for r in ps)}
    pairs = [(texts[r], claim.text) for claim, ps in zip(claims, parts) for r in ps]
    try:
        if cap is not None:
            prefix = doc._token_prefix_sums(counter)
            check_cap(backend, pairs, (prefix[b] - prefix[a] for ps in parts for a, b in ps), cap)
        batch = score_batch(backend, pairs, max_workers=max_workers)
    except ValidationError as exc:
        if len(claims) == 1:
            return [], exc
        # Some claim's pairs fail the input checks: score claim by claim to
        # find the first such claim.
        out = []
        for claim, ps, partial in zip(claims, parts, levels):
            scores, error = _score_level(
                doc, [claim], [ps], backend, cap, counter, max_workers, [partial]
            )
            out += scores
            if error is not None:
                return out, error
        return out, None
    offsets = list(accumulate((len(ps) for ps in parts), initial=0))
    scores = [batch.scores[a:b] for a, b in zip(offsets, offsets[1:])]
    if batch.ok:
        return scores, None
    i = bisect_right(offsets, batch.failures[0].index) - 1
    lo, hi = offsets[i], offsets[i + 1]
    failures = [
        BatchFailure(index=f.index - lo, error=f.error) for f in batch.failures if f.index < hi
    ]
    return scores[:i], ScoringError(
        f"claim {claims[i].id!r}: retrieval scoring failed at ranges {parts[i]} "
        f"({failures[0].error})",
        claim_id=claims[i].id,
        partial=levels[i],
        failures=failures,
    )


def descend(
    doc: Document,
    claims: list[Claim],
    backend: ScorerBackend,
    k: int = 2,
    budget: int | None = None,
    counter: TokenCounter = _WHITESPACE,
    max_workers: int = 1,
) -> tuple[list[RetrievalTrace], ChunkcheckError | None]:
    """``retrieve`` for every claim on ``doc``, descending together: one
    batch per level over the parts of every claim still descending.

    Returns the traces of the claims before the first one, in order, whose
    descent fails, and that claim's error (None when every claim reaches a
    unit). Claims after a failing one stop descending; the ones before it
    go on, since one of them may fail later.
    """
    if not doc.units:
        raise ValidationError(f"document {doc.id!r} has no units")
    if k < 2:
        raise ValidationError(f"branching factor must be >= 2, got {k}")

    ranges = {i: (0, len(doc.units)) for i in range(len(claims))}  # still descending
    levels: list[list[TraceLevel]] = [[] for _ in claims]
    traces: list[RetrievalTrace | None] = [None] * len(claims)
    failed, error = len(claims), None
    while ranges:
        active = list(ranges)
        splits = {
            r: _split_under_cap(doc, *r, k, counter, budget)
            for r in dict.fromkeys(ranges.values())
        }
        parts = [splits[ranges[i]] for i in active]
        scores, exc = _score_level(
            doc, [claims[i] for i in active], parts, backend, budget, counter, max_workers,
            [levels[i] for i in active],
        )
        if exc is not None:
            failed, error = active[len(scores)], exc
            for i in active[len(scores):]:
                del ranges[i]
        for i, ps, sc in zip(active, parts, scores):
            chosen = first_max(sc)
            levels[i].append(TraceLevel(candidate_ranges=ps, scores=sc, chosen=chosen))
            start, end = ranges[i] = ps[chosen]
            if end - start == 1:
                del ranges[i]
                traces[i] = RetrievalTrace(
                    claim_id=claims[i].id,
                    levels=levels[i],
                    result_unit=start,
                    result_score=sc[chosen],
                    scorer_calls=sum(len(lvl.scores) for lvl in levels[i]),
                )
    return traces[:failed], error


def retrieve(
    doc: Document,
    claim: Claim,
    backend: ScorerBackend,
    k: int = 2,
    budget: int | None = None,
    counter: TokenCounter = _WHITESPACE,
    max_workers: int = 1,
) -> RetrievalTrace:
    """Greedy descent to the single best-supporting unit, with a full trace.

    ``budget`` is the premise cap: when a multi-unit part would exceed it, the
    level's branching factor grows until every part fits, mirroring how one
    would split further to fit memory, and a single unit over it raises
    PremiseTooLargeError before its level is scored. Parts are measured with
    ``counter`` (whitespace by default). A one-unit document yields one level
    that scores its lone unit.
    """
    traces, error = descend(doc, [claim], backend, k, budget, counter, max_workers)
    if error is not None:
        raise error
    return traces[0]


def _split_under_cap(doc, start, end, k, counter, cap):
    """Split [start, end) with the smallest branching factor, at least k,
    under which every multi-unit part fits the cap; singletons if none does.

    Widening starts at the smallest branching factor that could fit: a
    multi-unit part holds at most ``cap`` tokens and a single unit at most
    ``cap`` plus its own excess over it, so fewer than
    ceil((range tokens - total excess) / cap) parts never fit.
    """
    if cap is None:
        return split_range(doc, start, end, k, counter)
    prefix = doc._token_prefix_sums(counter)
    excess = sum(c - cap for c in doc.unit_token_counts(counter)[start:end] if c > cap)
    fit_floor = -(-(prefix[end] - prefix[start] - excess) // cap)
    kk = max(k, min(fit_floor, end - start))
    while True:
        parts = split_range(doc, start, end, kk, counter)
        if kk >= end - start or all(
            b - a == 1 or prefix[b] - prefix[a] <= cap for a, b in parts
        ):
            return parts
        kk += 1


def brute_force_all(
    doc: Document,
    claims: list[Claim],
    backend: ScorerBackend,
    budget: int | None = None,
    counter: TokenCounter = _WHITESPACE,
    max_workers: int = 1,
) -> tuple[list[BruteForceResult], ChunkcheckError | None]:
    """``brute_force_retrieve`` for every claim on ``doc``: one batch of every
    claim against every unit, each unit joined once.

    Returns the results of the claims before the first one, in order, whose
    scoring fails, and that claim's error (None when none fails); the other
    claims' pairs may have been scored by then.
    """
    if not doc.units:
        raise ValidationError(f"document {doc.id!r} has no units")
    ranges = [(i, i + 1) for i in range(len(doc.units))]
    scored, exc = _score_level(
        doc, claims, [ranges] * len(claims), backend, budget, counter, max_workers,
        [[] for _ in claims],
    )
    results = []
    for scores in scored:
        best = first_max(scores)
        results.append(BruteForceResult(unit=best, score=scores[best], scorer_calls=len(ranges)))
    return results, exc


def brute_force_retrieve(
    doc: Document,
    claim: Claim,
    backend: ScorerBackend,
    budget: int | None = None,
    counter: TokenCounter = _WHITESPACE,
    max_workers: int = 1,
) -> BruteForceResult:
    """Score every unit individually; argmax with ties to the lowest index.
    A unit over the premise cap ``budget`` raises as in ``retrieve``."""
    results, error = brute_force_all(doc, [claim], backend, budget, counter, max_workers)
    if error is not None:
        raise error
    return results[0]


def retrieval_hit(trace: RetrievalTrace, relevant_units: frozenset[int] | set[int]) -> bool:
    """Whether the retrieved unit belongs to the annotated relevant set."""
    if not relevant_units:
        raise ValidationError("relevant_units must be non-empty")
    return trace.result_unit in relevant_units


def call_count_bound(n: int, k: int) -> int:
    """Upper bound on greedy scorer calls: k * ceil(log_k n) + k."""
    depth = 0
    reach = 1
    while reach < n:  # ceil(log_k n) without float fuzz
        reach *= k
        depth += 1
    return k * depth + k

