"""Shared test utilities: synthetic documents and scripted backends."""

from __future__ import annotations

import json
import random
from pathlib import Path

import numpy as np
from hypothesis import strategies as st

from chunkcheck.backends import UnitRelevanceBackend
from chunkcheck.corpus import (
    Claim,
    Corpus,
    Document,
    Unit,
    claim_to_record,
    document_to_record,
)
from chunkcheck.scoring import ScorerBackend


def make_doc(doc_id: str, n_units: int, words_per_unit: int = 3) -> Document:
    """Uniform-size document with unique, newline-free unit texts."""
    return make_sized_doc(doc_id, [words_per_unit] * n_units)


def make_sized_doc(doc_id: str, unit_token_counts: list[int]) -> Document:
    """Document whose units have exactly the given whitespace token counts:
    unit i holds the words ``{doc_id}u{i}w{j}`` for j = 0, 1, ..."""
    numbers = [str(j) for j in range(max(unit_token_counts, default=0))]
    units = []
    for i, c in enumerate(unit_token_counts):
        word = f"{doc_id}u{i}w"
        units.append(Unit(word + f" {word}".join(numbers[:c]) if c else ""))
    return Document(id=doc_id, units=units)


def write_corpus_jsonl(corpus: Corpus, documents_path: Path, claims_path: Path) -> None:
    """Write a corpus as the documents and claims JSONL files ``load_corpus`` reads."""
    for path, records in ((documents_path, map(document_to_record, corpus.documents)),
                          (claims_path, map(claim_to_record, corpus.claims))):
        path.write_text("".join(json.dumps(r, ensure_ascii=False) + "\n" for r in records),
                        encoding="utf-8")


def probe_corpus(n_docs: int = 2000, units_per_doc: int = 20, claims_per_doc: int = 50,
                 seed: int = 0) -> Corpus:
    """The 10^5-claim probe corpus: ``n_docs`` documents of ``units_per_doc``
    units of 6-14 words, each with ``claims_per_doc`` labelled claims that
    name one relevant unit. A true claim quotes four of that unit's words, a
    false one four words found in no unit. The same arguments give the same
    corpus."""
    rng = random.Random(seed)
    words = [f"w{i}" for i in range(500)]
    absent = [f"x{i}" for i in range(100)]
    docs, claims = [], []
    for d in range(n_docs):
        doc = Document(id=f"p{d:04d}", units=[
            Unit(" ".join(rng.choices(words, k=rng.randint(6, 14))))
            for _ in range(units_per_doc)
        ])
        docs.append(doc)
        for c in range(claims_per_doc):
            unit = rng.randrange(units_per_doc)
            label = rng.random() < 0.5
            quoted = doc.units[unit].text.split() if label else absent
            claims.append(Claim(id=f"{doc.id}-{c:02d}", doc_id=doc.id,
                                text=" ".join(rng.sample(quoted, 4)), gold_label=label,
                                relevant_units=frozenset([unit])))
    return Corpus(documents=docs, claims=claims)


def write_probe_corpus(directory, **sizes) -> tuple[Path, Path]:
    """Write ``probe_corpus(**sizes)`` as probe-documents.jsonl and
    probe-claims.jsonl in ``directory``; returns the two paths. Run from the
    repository root as
    ``python3 -c 'import sys; sys.path.insert(0, "tests"); import helpers;
    helpers.write_probe_corpus(sys.argv[1])' <directory>``."""
    paths = Path(directory) / "probe-documents.jsonl", Path(directory) / "probe-claims.jsonl"
    write_corpus_jsonl(probe_corpus(**sizes), *paths)
    return paths


def relevance_fixture(doc_id: str, base_scores: list[float], words_per_unit: int = 3):
    """(document, max-composable backend) for the given per-unit base scores."""
    doc = make_doc(doc_id, len(base_scores), words_per_unit)
    backend = UnitRelevanceBackend({doc_id: list(base_scores)}, [doc])
    return doc, backend


def random_scores(n: int, rng: random.Random) -> list[float]:
    return [round(rng.random(), 6) for _ in range(n)]


class ScriptedBackend(ScorerBackend):
    """Returns a fixed probability per premise; counts evaluate calls."""

    name = "scripted"

    def __init__(self, by_premise: dict[str, float], default: float | None = None):
        self.by_premise = dict(by_premise)
        self.default = default
        self.calls = 0

    def evaluate(self, premise, hypothesis):
        self.calls += 1
        if premise in self.by_premise:
            return self.by_premise[premise]
        if self.default is None:
            raise KeyError(f"unscripted premise: {premise!r}")
        return self.default


class FlakyBackend(ScorerBackend):
    """Raises on hypotheses containing a marker; otherwise a fixed score."""

    name = "flaky"

    def __init__(self, marker: str = "BOOM", score: float = 0.5):
        self.marker = marker
        self.score = score
        self.calls = 0

    def evaluate(self, premise, hypothesis):
        self.calls += 1
        if self.marker in hypothesis or self.marker in premise:
            raise RuntimeError("scripted failure")
        return self.score


def drawn_ints(draw, n: int, dtype: str) -> np.ndarray:
    """n unsigned integers: one byte draw XOR a seeded pseudo-random stream.
    The bytes can be any, so every sequence can come out; the stream keeps
    the values spread where hypothesis draws degenerate bytes (all zero,
    repeated) that would make most of them equal. One draw of n values costs
    about what one ``st.integers`` draw does."""
    size = np.dtype(dtype).itemsize * n
    drawn = np.frombuffer(draw(st.binary(min_size=size, max_size=size)), dtype=dtype)
    stream = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).bytes(size)
    return drawn ^ np.frombuffer(stream, dtype=dtype)


def drawn_picks(draw, pool, n: int) -> list:
    """n draws from a pool of at most 256 values; every sequence can come out."""
    return np.asarray(pool)[drawn_ints(draw, n, "u1").astype(np.intp) % len(pool)].tolist()
