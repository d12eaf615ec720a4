"""Locate the source unit that best supports a claim.

Greedy search-tree descent: split the current unit range into at most k
token-balanced parts, score each part against the claim, descend into the
best one, stop at a single unit. Needs O(log n) scorer calls where the
exhaustive baseline needs n.

Exactness caveat: descent is provably equal to the exhaustive argmax when
the scorer is max-composable (a range scores the max of its units), as the
UnitRelevanceBackend is by construction. Real entailment scorers are not,
so the greedy result can diverge; see the regression fixtures in tests.
Keeping several branches alive per level (a beam) would trade calls for
robustness against that, but the trace format and all defaults here are
single-branch greedy.
"""

from __future__ import annotations

from dataclasses import dataclass

from .chunking import premise_text, split_range
from .corpus import Claim, Document, TokenCounter, WhitespaceCounter
from .errors import ScoringError, ValidationError
from .scoring import ScoreCache, ScorerBackend, check_cap, first_max, score_batch

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


def _score_ranges(doc, claim, backend, ranges, cap, counter, cache, max_workers, partial_levels):
    """Score each unit range against the claim, rejecting first any range of
    more than ``cap`` tokens, counted from the prefix sums."""
    pairs = [(premise_text(doc, a, b), claim.text) for a, b in ranges]
    if cap is not None:
        prefix = doc._token_prefix_sums(counter)
        check_cap(backend, pairs, (prefix[b] - prefix[a] for a, b in ranges), cap)
    batch = score_batch(backend, pairs, cache=cache, max_workers=max_workers)
    if not batch.ok:
        raise ScoringError(
            f"claim {claim.id!r}: retrieval scoring failed at ranges {ranges} "
            f"({batch.failures[0].error})",
            claim_id=claim.id,
            partial=partial_levels,
            failures=batch.failures,
        )
    return batch.scores


def retrieve(
    doc: Document,
    claim: Claim,
    backend: ScorerBackend,
    k: int = 2,
    budget: int | None = None,
    counter: TokenCounter = _WHITESPACE,
    cache: ScoreCache | None = None,
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
    if not doc.units:
        raise ValidationError(f"document {doc.id!r} has no units")
    if k < 2:
        raise ValidationError(f"branching factor must be >= 2, got {k}")

    levels: list[TraceLevel] = []
    calls = 0
    start, end = 0, len(doc.units)
    while True:
        parts = _split_under_cap(doc, start, end, k, counter, budget)
        scores = _score_ranges(
            doc, claim, backend, parts, budget, counter, cache, max_workers, levels
        )
        calls += len(parts)
        chosen = first_max(scores)
        levels.append(TraceLevel(candidate_ranges=parts, scores=scores, chosen=chosen))
        start, end = parts[chosen]
        if end - start == 1:
            return RetrievalTrace(
                claim_id=claim.id,
                levels=levels,
                result_unit=start,
                result_score=scores[chosen],
                scorer_calls=calls,
            )


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


def brute_force_retrieve(
    doc: Document,
    claim: Claim,
    backend: ScorerBackend,
    budget: int | None = None,
    counter: TokenCounter = _WHITESPACE,
    cache: ScoreCache | None = None,
    max_workers: int = 1,
) -> BruteForceResult:
    """Score every unit individually; argmax with ties to the lowest index.
    A unit over the premise cap ``budget`` raises as in ``retrieve``."""
    if not doc.units:
        raise ValidationError(f"document {doc.id!r} has no units")
    ranges = [(i, i + 1) for i in range(len(doc.units))]
    scores = _score_ranges(doc, claim, backend, ranges, budget, counter, cache, max_workers, [])
    best = first_max(scores)
    return BruteForceResult(unit=best, score=scores[best], scorer_calls=len(ranges))


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


def verify_trace(
    doc: Document,
    claim: Claim,
    backend: ScorerBackend,
    trace: RetrievalTrace,
    cache: ScoreCache | None = None,
) -> None:
    """Replay a trace: re-score its recorded ranges and check every recorded
    score and choice reproduces. Raises ValidationError on any mismatch."""
    calls = 0
    for depth, level in enumerate(trace.levels):
        scores = _score_ranges(
            doc, claim, backend, level.candidate_ranges, None, None, cache, 1, trace.levels
        )
        calls += len(scores)
        if scores != level.scores:
            raise ValidationError(
                f"trace replay mismatch at level {depth}: {scores} != {level.scores}"
            )
        if first_max(scores) != level.chosen:
            raise ValidationError(f"trace replay picked a different branch at level {depth}")
    if calls != trace.scorer_calls:
        raise ValidationError(
            f"trace records {trace.scorer_calls} scorer calls, replay used {calls}"
        )
    last = trace.levels[-1]
    a, b = last.candidate_ranges[last.chosen]
    if (b - a) != 1 or a != trace.result_unit:
        raise ValidationError("trace does not terminate at its result unit")
