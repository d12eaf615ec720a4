"""Consistency scoring: a sentence's score is the maximum entailment
probability over all chunks of its source document.

A text-level aggregate (min or mean over sentence scores) is provided for
multi-sentence generations; min is the default on the grounds that a text
is only as consistent as its weakest sentence. The choice is a convention
of this artifact, not an empirical claim.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .chunking import Chunk, ChunkPlan, make_chunks
from .corpus import Claim, Document, GeneratedText, TokenCounter
from .errors import ScoringError, ValidationError
from .scoring import BatchFailure, ScorerBackend, check_cap, first_max, score_batch

AGGREGATIONS = ("min", "mean")


@dataclass
class SentenceScore:
    claim_id: str
    score: float
    argmax_chunk: tuple[int, int]  # unit range of the first chunk attaining the max
    scorer_calls: int
    per_chunk: list[tuple[Chunk, float]] | None = None  # retained only when explaining
    elapsed_ms: float = field(default=0.0, compare=False)

    def to_dict(self) -> dict:
        out = {
            "claim_id": self.claim_id,
            "score": self.score,
            "argmax_chunk": list(self.argmax_chunk),
            "scorer_calls": self.scorer_calls,
        }
        if self.per_chunk is not None:
            out["per_chunk"] = [
                {"unit_range": [c.start, c.end], "probability": p} for c, p in self.per_chunk
            ]
        return out


@dataclass
class TextScore:
    doc_id: str
    sentence_scores: list[SentenceScore]
    aggregate: float
    aggregation: str

    def to_dict(self) -> dict:
        return {
            "doc_id": self.doc_id,
            "aggregate": self.aggregate,
            "aggregation": self.aggregation,
            "sentences": [s.to_dict() for s in self.sentence_scores],
        }


def _score_claims(
    plan: ChunkPlan,
    claims: list[Claim],
    backend: ScorerBackend,
    max_workers: int,
    explain: bool,
    cap: int | None = None,
) -> list[SentenceScore]:
    """Score every claim against every chunk of the plan in one batch.

    A failure raises the ScoringError of the first failing claim in order,
    with ``partial`` and ``failures`` indexed by chunk within that claim;
    the other claims' pairs have been scored by then.
    """
    for claim in claims:
        if plan.doc_id != claim.doc_id:
            raise ValidationError(
                f"chunk plan is for {plan.doc_id!r} but claim {claim.id!r} "
                f"targets {claim.doc_id!r}"
            )
    t0 = time.perf_counter()
    n = len(plan.chunks)
    pairs = [(chunk.text, claim.text) for claim in claims for chunk in plan.chunks]
    check_cap(backend, pairs, (chunk.token_count for chunk in plan.chunks), cap)
    batch = score_batch(backend, pairs, max_workers=max_workers)
    if not batch.ok:
        i = batch.failures[0].index // n
        claim, lo, hi = claims[i], i * n, (i + 1) * n
        failures = [
            BatchFailure(index=f.index - lo, error=f.error)
            for f in batch.failures
            if lo <= f.index < hi
        ]
        partial = list(zip(plan.chunks, batch.scores[lo:hi]))
        raise ScoringError(
            f"claim {claim.id!r}: {len(failures)} of {n} chunk "
            f"scorings failed ({failures[0].error})",
            claim_id=claim.id,
            partial=partial,
            failures=failures,
        )
    elapsed_ms = (time.perf_counter() - t0) * 1000.0 / len(claims)
    out = []
    for i, claim in enumerate(claims):
        probs = batch.scores[i * n : (i + 1) * n]
        best = first_max(probs)
        out.append(
            SentenceScore(
                claim_id=claim.id,
                score=probs[best],
                argmax_chunk=plan.chunks[best].unit_range,
                scorer_calls=n,
                per_chunk=list(zip(plan.chunks, probs)) if explain else None,
                elapsed_ms=elapsed_ms,
            )
        )
    return out


def score_sentence(
    plan: ChunkPlan,
    claim: Claim,
    backend: ScorerBackend,
    max_workers: int = 1,
    explain: bool = False,
) -> SentenceScore:
    """Max entailment probability of the claim over the plan's chunks.

    Issues one scorer call per chunk (batched); any chunk failure after the
    backend's retries fails the sentence with partial results attached.
    """
    return _score_claims(plan, [claim], backend, max_workers, explain)[0]


def aggregate_scores(values: list[float], aggregation: str) -> float:
    if aggregation == "min":
        return min(values)
    if aggregation == "mean":
        return sum(values) / len(values)
    raise ValidationError(f"unknown aggregation {aggregation!r}; choose from {AGGREGATIONS}")


def score_text(
    doc: Document,
    text: GeneratedText,
    budget: int,
    backend: ScorerBackend,
    counter: TokenCounter,
    aggregation: str = "min",
    max_workers: int = 1,
    explain: bool = False,
    cap: int | None = None,
) -> TextScore:
    """Score every sentence of a generated text, as one batch, and aggregate.

    A chunk over ``cap`` tokens, counted with ``counter`` like the budget,
    raises PremiseTooLargeError before any pair is scored. On failure,
    raises the ScoringError that ``score_sentence`` would raise for the
    first failing sentence.
    """
    if text.doc_id != doc.id:
        raise ValidationError(f"text targets {text.doc_id!r}, document is {doc.id!r}")
    text.validate()
    plan = make_chunks(doc, budget, counter)
    sentence_scores = _score_claims(plan, text.sentences, backend, max_workers, explain, cap)
    agg = aggregate_scores([s.score for s in sentence_scores], aggregation)
    return TextScore(
        doc_id=doc.id,
        sentence_scores=sentence_scores,
        aggregate=agg,
        aggregation=aggregation,
    )
