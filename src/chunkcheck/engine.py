"""Consistency scoring: a sentence's score is the maximum entailment
probability over all chunks of its source document.

A text-level aggregate (min or mean over sentence scores) is provided for
multi-sentence generations; min is the default on the grounds that a text
is only as consistent as its weakest sentence. The choice is a convention
of this artifact, not an empirical claim.
"""

from __future__ import annotations

from dataclasses import dataclass

from .chunking import Chunk, ChunkPlan, make_chunks
from .corpus import Claim, Document, TokenCounter
from .errors import ScoringError, ValidationError
from .scoring import ScorerBackend, check_cap, first_max, score_batch

AGGREGATIONS = ("min", "mean")


@dataclass
class SentenceScore:
    claim_id: str
    score: float
    argmax_chunk: tuple[int, int]  # unit range of the first chunk attaining the max
    scorer_calls: int
    per_chunk: list[tuple[Chunk, float]] | None = None  # retained only when explaining

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
    sentences: list[SentenceScore]
    aggregate: float
    aggregation: str


def _pairs(plan: ChunkPlan, claims: list[Claim]) -> list[tuple[str, str]]:
    """Every (chunk, claim) pair of the claims against the plan, claim by claim."""
    for claim in claims:
        if plan.doc_id != claim.doc_id:
            raise ValidationError(
                f"chunk plan is for {plan.doc_id!r} but claim {claim.id!r} "
                f"targets {claim.doc_id!r}"
            )
    return [(chunk.text, claim.text) for claim in claims for chunk in plan.chunks]


def _score_claims(items, pairs, ends, backend, max_workers, explain):
    """Score every (plan, claims) item in one batch, item i's ``_pairs``
    ending at ``ends[i]`` in ``pairs``: each item's sentence scores.

    A failure raises the ScoringError of the first failing claim in order;
    the pairs of its item and of the items before it have been scored by
    then, and no pair first met in a later item has been started since.
    """
    batch = score_batch(backend, pairs, max_workers=max_workers, ends=ends)
    first_failure = batch.failures[0].index if batch.failures else len(pairs)
    out, lo = [], 0
    for plan, claims in items:
        n = len(plan.chunks)
        sentences = []
        for claim in claims:
            hi = lo + n
            probs = batch.scores[lo:hi]
            if first_failure < hi:
                failed = sum(f.index < hi for f in batch.failures)
                raise ScoringError(f"claim {claim.id!r}: {failed} of {n} chunk scorings "
                                   f"failed ({batch.failures[0].error})")
            best = first_max(probs)
            sentences.append(
                SentenceScore(
                    claim_id=claim.id,
                    score=probs[best],
                    argmax_chunk=plan.chunks[best].unit_range,
                    scorer_calls=n,
                    per_chunk=list(zip(plan.chunks, probs)) if explain else None,
                )
            )
            lo = hi
        out.append(sentences)
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
    backend's retries fails the sentence with a ScoringError.
    """
    pairs = _pairs(plan, [claim])
    scored = _score_claims([(plan, [claim])], pairs, [len(pairs)], backend, max_workers, explain)
    return scored[0][0]


def check_aggregation(aggregation: str) -> None:
    if aggregation not in AGGREGATIONS:
        raise ValidationError(f"unknown aggregation {aggregation!r}; choose from {AGGREGATIONS}")


def aggregate_scores(values: list[float], aggregation: str) -> float:
    check_aggregation(aggregation)
    return min(values) if aggregation == "min" else sum(values) / len(values)


def score_texts(
    texts: list[tuple[Document, list[Claim]]],
    budget: int,
    backend: ScorerBackend,
    counter: TokenCounter,
    aggregation: str = "min",
    max_workers: int = 1,
    explain: bool = False,
    cap: int | None = None,
) -> list[TextScore]:
    """Score each text, a document and its claims (the sentences of its
    generated text), and aggregate it. Every pair of every text goes in one
    batch, so the ``max_workers`` threads are shared by all the texts, and a
    pair repeated in two texts is scored once.

    Every input check runs before any pair is scored: an unknown
    ``aggregation``, a text without claims, a claim of another document, an
    empty claim or chunk, or a chunk over ``cap`` tokens (counted with
    ``counter`` like the budget: PremiseTooLargeError) raises the first
    invalid text's error, and no pair is scored. A failed pair raises the
    ScoringError that ``score_sentence`` would raise for the first failing
    sentence of the first failing text; once a pair has failed, no pair first
    met in a later text is started.
    """
    check_aggregation(aggregation)
    items, pairs, ends = [], [], []
    for doc, claims in texts:
        if not claims:
            raise ValidationError(f"no claims to score for document {doc.id!r}")
        plan = make_chunks(doc, budget, counter)
        text_pairs = _pairs(plan, claims)
        check_cap(text_pairs, (chunk.token_count for chunk in plan.chunks), cap)
        items.append((plan, claims))
        pairs += text_pairs
        ends.append(len(pairs))
    scored = _score_claims(items, pairs, ends, backend, max_workers, explain)
    return [
        TextScore(
            doc_id=plan.doc_id,
            sentences=sentences,
            aggregate=aggregate_scores([s.score for s in sentences], aggregation),
            aggregation=aggregation,
        )
        for (plan, _), sentences in zip(items, scored)
    ]


def score_text(
    doc: Document,
    claims: list[Claim],
    budget: int,
    backend: ScorerBackend,
    counter: TokenCounter,
    aggregation: str = "min",
    max_workers: int = 1,
    explain: bool = False,
    cap: int | None = None,
) -> TextScore:
    """``score_texts`` for one document's claims, scored as one batch."""
    return score_texts(
        [(doc, claims)], budget, backend, counter, aggregation, max_workers, explain, cap
    )[0]
