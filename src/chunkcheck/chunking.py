"""Decompose documents into contiguous, unit-aligned chunks.

Two modes. Scoring mode (`make_chunks`) packs units greedily left to right
under a token budget, so together the chunks cover the document exactly.
Retrieval mode (`split_range`) cuts a unit range into at most k contiguous,
token-balanced sub-ranges for search-tree descent.

Token accounting is per formatted unit line and sums over a range; the
newline separator is not charged (exact for the whitespace counter, an
approximation for subword counters).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from math import ceil

from .corpus import Document, TokenCounter
from .errors import ValidationError

UNIT_SEPARATOR = "\n"


def premise_text(doc: Document, start: int, end: int) -> str:
    """The premise string for units [start, end): formatted lines, one per unit."""
    return UNIT_SEPARATOR.join(doc._unit_lines[start:end])


@dataclass(frozen=True)
class Chunk:
    doc_id: str
    start: int
    end: int  # half-open: units [start, end)
    text: str
    token_count: int
    oversized: bool = False  # single unit exceeding the budget

    @property
    def unit_range(self) -> tuple[int, int]:
        return (self.start, self.end)

    def to_dict(self) -> dict:
        return {
            "doc_id": self.doc_id,
            "unit_range": [self.start, self.end],
            "token_count": self.token_count,
            "oversized": self.oversized,
        }


@dataclass
class ChunkPlan:
    doc_id: str
    budget: int
    chunks: list[Chunk] = field(default_factory=list)

    def validate(self, n_units: int) -> None:
        if not self.chunks:
            raise ValidationError(f"empty chunk plan for {self.doc_id!r}")
        if self.chunks[0].start != 0 or self.chunks[-1].end != n_units:
            raise ValidationError("chunk plan does not cover the document")
        for a, b in zip(self.chunks, self.chunks[1:]):
            if a.end != b.start:
                raise ValidationError(f"chunks not contiguous at unit {a.end}")
        for c in self.chunks:
            if c.start >= c.end:
                raise ValidationError("empty chunk")
            if c.end - c.start > 1 and c.token_count > self.budget:
                raise ValidationError("multi-unit chunk exceeds budget")

    def to_dict(self) -> dict:
        return {
            "doc_id": self.doc_id,
            "budget": self.budget,
            "chunks": [c.to_dict() for c in self.chunks],
        }


def make_chunks(doc: Document, budget: int, counter: TokenCounter) -> ChunkPlan:
    """Greedy left-to-right packing: each chunk takes the maximal prefix of
    remaining units that fits the budget. A single unit larger than the
    budget becomes its own chunk, flagged oversized.
    """
    if budget < 1:
        raise ValidationError(f"budget must be >= 1, got {budget}")
    prefix = doc._token_prefix_sums(counter)
    n = len(doc.units)
    chunks = []
    i = 0
    while i < n:
        # The last j with units [i, j) inside the budget, and at least i + 1.
        j = max(bisect_right(prefix, prefix[i] + budget, i + 1, n + 1) - 1, i + 1)
        total = prefix[j] - prefix[i]
        chunks.append(
            Chunk(
                doc_id=doc.id,
                start=i,
                end=j,
                text=premise_text(doc, i, j),
                token_count=total,
                oversized=(j == i + 1 and total > budget),
            )
        )
        i = j
    plan = ChunkPlan(doc_id=doc.id, budget=budget, chunks=chunks)
    plan.validate(n)
    return plan


def split_range(
    doc: Document, start: int, end: int, k: int, counter: TokenCounter
) -> list[tuple[int, int]]:
    """Partition units [start, end) into <= k contiguous token-balanced parts.

    Boundaries are placed where the cumulative token count first reaches each
    ideal cut point i*total/k, then nudged just enough to keep every part
    non-empty. Each part's token count then differs from total/k by at most
    the largest single-unit count in the range. Ranges with fewer than k
    units split into singletons.
    """
    m = end - start
    if m <= 0:
        raise ValidationError(f"cannot split empty range [{start}, {end})")
    if k < 2:
        raise ValidationError(f"branching factor must be >= 2, got {k}")
    if m <= k:
        return [(i, i + 1) for i in range(start, end)]

    prefix = doc._token_prefix_sums(counter)
    base = prefix[start]
    total = prefix[end] - base
    if total == 0:
        boundaries = [start + ceil(i * m / k) for i in range(1, k)]
    else:
        boundaries = []
        prev = 0
        for i in range(1, k):
            # First j in [0, m] whose units [start, start + j) hold >= total*i/k
            # tokens: prefix sums are integers, so compare with the exact ceiling.
            cut = bisect_left(prefix, base - (-total * i // k), start, end + 1) - start
            cut = max(cut, prev + 1)
            cut = min(cut, m - (k - i))
            boundaries.append(start + cut)
            prev = cut
    edges = [start] + boundaries + [end]
    return [(a, b) for a, b in zip(edges, edges[1:])]
