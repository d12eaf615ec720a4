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
claim's trace is the one it would get descending alone. Every input check of
a level (an empty claim, or a single unit over the premise cap) runs before
any pair of the level is scored, and raises the first invalid claim's error.
A scoring failure raises the error of the first failing claim in claim
order, and once a pair has failed no pair first met in a later claim's parts
is started. The exhaustive baseline,
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
from operator import sub

from .chunking import premise_text, split_range
from .corpus import Claim, Document, TokenCounter, WhitespaceCounter
from .errors import ScoringError, ValidationError
from .scoring import ScorerBackend, check_cap, first_max, score_batch

_WHITESPACE = WhitespaceCounter()  # one default instance: a document caches counts per counter


@dataclass
class TraceLevel:
    candidate_ranges: list[tuple[int, int]]
    scores: list[float]
    chosen: int  # index into candidate_ranges


@dataclass
class RetrievalTrace:
    claim_id: str
    levels: list[TraceLevel]
    result_unit: int
    result_score: float
    scorer_calls: int


@dataclass
class BruteForceResult:
    unit: int
    score: float
    scorer_calls: int


def descend(
    docs: list[Document],
    claims: list[Claim],
    backend: ScorerBackend,
    ks: list[int],
    budget: int | None = None,
    counter: TokenCounter = _WHITESPACE,
    max_workers: int = 1,
    keep_levels: bool = True,
) -> list[RetrievalTrace]:
    """``retrieve`` for every claim, ``docs[i]`` and ``ks[i]`` being
    ``claims[i]``'s document and branching factor, descending together: one
    batch per level over the parts of every claim still descending, across
    all the documents.

    Each claim's trace is made before the first level. Each level adds its
    calls and, with ``keep_levels``, itself; the level that reaches one unit
    sets the result. Only ``retrieve`` and ``retrieve --trace``, the one
    report that writes levels, keep them; a trace without them has the same
    result and scorer calls.

    A level's input checks raise before its batch; otherwise the error is
    that of the first failing claim, in order. Claims after a failing one stop
    descending; the ones before it go on, since one of them may fail later.
    """
    for doc in docs:
        if not doc.units:
            raise ValidationError(f"document {doc.id!r} has no units")
    for k in ks:
        if k < 2:
            raise ValidationError(f"branching factor must be >= 2, got {k}")

    ranges = {i: (0, len(doc.units)) for i, doc in enumerate(docs)}  # still descending
    traces = [RetrievalTrace(claim.id, [], 0, 0.0, 0) for claim in claims]
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
        offsets = list(accumulate((len(parts) for parts, _, _ in level), initial=0))
        pairs = [
            (text, claims[i].text) for i, (_, texts, _) in zip(active, level) for text in texts
        ]
        check_cap(pairs, (n for _, _, sizes in level for n in sizes), budget)
        batch = score_batch(backend, pairs, max_workers=max_workers, ends=offsets[1:])
        cut = len(active)  # the claims from active[cut] on stop descending
        if not batch.ok:
            cut = bisect_right(offsets, batch.failures[0].index) - 1
            error = ScoringError(
                f"claim {claims[active[cut]].id!r}: retrieval scoring failed at ranges "
                f"{level[cut][0]} ({batch.failures[0].error})"
            )
        for i in active[cut:]:
            del ranges[i]
        for i, (ps, _, _), a, b in zip(active[:cut], level, offsets, offsets[1:]):
            trace, sc = traces[i], batch.scores[a:b]
            chosen = first_max(sc)
            trace.scorer_calls += b - a
            if keep_levels:
                trace.levels.append(TraceLevel(candidate_ranges=ps, scores=sc, chosen=chosen))
            start, end = ranges[i] = ps[chosen]
            if end - start == 1:
                del ranges[i]
                trace.result_unit, trace.result_score = start, sc[chosen]
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
    counts = map(sub, prefix[start + 1:end + 1], prefix[start:end])
    excess = sum(c - cap for c in counts if c > cap)
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

