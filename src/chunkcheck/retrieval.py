"""Locate the source unit that best supports a claim.

Greedy search-tree descent: split the current unit range into at most k
token-balanced parts, score each part against the claim, descend into the
best one, stop at a single unit. Needs O(log n) scorer calls where the
exhaustive baseline needs n.

All the claims of a run descend together (``descend``), each on its own
document with its own branching factor: each level is one ``score_batch``
over the parts of every claim still descending, across all the documents, so
the ``max_workers`` threads are shared by every claim, and a claim that
reaches a single unit drops out of later batches. Each distinct (document,
range, k) is split, and each of its parts joined, once per level. Claims with
the same text share their pairs through the batch's deduplication. Every
claim's trace is the one it would get descending alone; a failure raises the
error of the first failing claim in claim order, though other claims' pairs
may have been scored by then. The exhaustive baseline,
``brute_force_retrieve``, is the one-level descent: a branching factor of the
document's unit count splits it into its units at once.

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
from .errors import ScoringError, ValidationError
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

    # Not ``asdict``: it deep-copies every score and range one by one, several
    # times the cost of these shallow copies on a traced run of many claims.
    def to_dict(self) -> dict:
        return dict(vars(self))


@dataclass
class RetrievalTrace:
    claim_id: str
    levels: list[TraceLevel]
    result_unit: int
    result_score: float
    scorer_calls: int

    def to_dict(self) -> dict:
        return {**vars(self), "levels": [lvl.to_dict() for lvl in self.levels]}


@dataclass
class BruteForceResult:
    unit: int
    score: float
    scorer_calls: int


def _score_level(claims, splits, backend, cap, max_workers, levels):
    """Score every claim against its split in one batch: ``splits[i]`` is
    (parts, their premise texts, their token counts) for ``claims[i]``, whose
    levels so far are ``levels[i]``. A part of more than ``cap`` tokens is
    rejected before any pair is scored. Returns the scores of the claims
    before the first whose scoring fails, and the error that claim's parts
    raise when scored alone (None if no claim fails)."""
    pairs = [(text, claim.text) for claim, (_, texts, _) in zip(claims, splits) for text in texts]
    try:
        check_cap(backend, pairs, (n for _, _, sizes in splits for n in sizes), cap)
        batch = score_batch(backend, pairs, max_workers=max_workers)
    except ValidationError as exc:
        if len(claims) == 1:
            return [], exc
        # Some claim's pairs fail the input checks: score claim by claim to
        # find the first such claim.
        out = []
        for claim, split, partial in zip(claims, splits, levels):
            scores, error = _score_level([claim], [split], backend, cap, max_workers, [partial])
            out += scores
            if error is not None:
                return out, error
        return out, None
    offsets = list(accumulate((len(parts) for parts, _, _ in splits), initial=0))
    scores = [batch.scores[a:b] for a, b in zip(offsets, offsets[1:])]
    if batch.ok:
        return scores, None
    i = bisect_right(offsets, batch.failures[0].index) - 1
    lo, hi = offsets[i], offsets[i + 1]
    failures = [
        BatchFailure(index=f.index - lo, error=f.error) for f in batch.failures if f.index < hi
    ]
    return scores[:i], ScoringError(
        f"claim {claims[i].id!r}: retrieval scoring failed at ranges {splits[i][0]} "
        f"({failures[0].error})",
        claim_id=claims[i].id,
        partial=levels[i],
        failures=failures,
    )


def descend(
    docs: list[Document],
    claims: list[Claim],
    backend: ScorerBackend,
    ks: list[int],
    budget: int | None = None,
    counter: TokenCounter = _WHITESPACE,
    max_workers: int = 1,
) -> list[RetrievalTrace]:
    """``retrieve`` for every claim, ``docs[i]`` and ``ks[i]`` being
    ``claims[i]``'s document and branching factor, descending together: one
    batch per level over the parts of every claim still descending, across
    all the documents.

    Raises the error of the first claim, in order, whose descent fails.
    Claims after a failing one stop descending; the ones before it go on,
    since one of them may fail later.
    """
    for doc in docs:
        if not doc.units:
            raise ValidationError(f"document {doc.id!r} has no units")
    for k in ks:
        if k < 2:
            raise ValidationError(f"branching factor must be >= 2, got {k}")

    ranges = {i: (0, len(doc.units)) for i, doc in enumerate(docs)}  # still descending
    levels: list[list[TraceLevel]] = [[] for _ in claims]
    traces: list[RetrievalTrace | None] = [None] * len(claims)
    error = None
    while ranges:
        active = list(ranges)
        # Each distinct (document, range, k) is split, and its parts joined
        # and counted, once. Documents are keyed by identity.
        splits, level = {}, []
        for i in active:
            doc = docs[i]
            key = id(doc), ranges[i], ks[i]
            if key not in splits:
                parts = _split_under_cap(doc, *ranges[i], ks[i], counter, budget)
                prefix = doc._token_prefix_sums(counter)
                splits[key] = (parts, [premise_text(doc, *r) for r in parts],
                               [prefix[b] - prefix[a] for a, b in parts])
            level.append(splits[key])
        scores, exc = _score_level(
            [claims[i] for i in active], level, backend, budget, max_workers,
            [levels[i] for i in active],
        )
        if exc is not None:
            error = exc
            for i in active[len(scores):]:
                del ranges[i]
        for i, (ps, _, _), sc in zip(active, level, scores):
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
    if error is not None:
        raise error
    return traces


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
    return descend([doc], [claim], backend, [k], budget, counter, max_workers)[0]


def _split_under_cap(doc, start, end, k, counter, cap):
    """Split [start, end) with the smallest branching factor, at least k,
    under which every multi-unit part fits the cap; singletons if none does.

    Widening starts at the smallest branching factor that could fit: a
    multi-unit part holds at most ``cap`` tokens and a single unit at most
    ``cap`` plus its own excess over it, so fewer than
    ceil((range tokens - total excess) / cap) parts never fit.
    """
    prefix = doc._token_prefix_sums(counter)
    if cap is None or prefix[end] - prefix[start] <= cap:  # every part fits at k
        return split_range(doc, start, end, k, counter)
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


def brute_force_retrieve(
    doc: Document,
    claim: Claim,
    backend: ScorerBackend,
    budget: int | None = None,
    counter: TokenCounter = _WHITESPACE,
    max_workers: int = 1,
) -> BruteForceResult:
    """Score every unit individually; argmax with ties to the lowest index.
    A unit over the premise cap ``budget`` raises as in ``retrieve``. This is
    the one-level descent: its branching factor splits the document into its
    units at once."""
    t = retrieve(doc, claim, backend, max(2, len(doc.units)), budget, counter, max_workers)
    return BruteForceResult(t.result_unit, t.result_score, t.scorer_calls)


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

