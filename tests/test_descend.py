"""The claims of one document descend together: every trace, every error
and the backend's call count are those of retrieving one claim after
another, while each level is one batch and each range is split once."""

import random
from pathlib import Path
from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

import chunkcheck.retrieval as retrieval
from chunkcheck.backends import LexicalOverlapBackend
from chunkcheck.cli import _retrievals
from chunkcheck.corpus import Claim, Corpus, Document, Unit, VocabCounter, WhitespaceCounter
from chunkcheck.errors import ChunkcheckError
from chunkcheck.retrieval import descend, retrieve
from chunkcheck.scoring import ScoreCache

from helpers import make_sized_doc
from oracles import retrievals_reference, retrieve_reference

WC = WhitespaceCounter()
MINI_VOCAB = VocabCounter(Path(__file__).parents[1] / "data" / "vocab" / "mini_vocab.txt")
_WORDS = ["alpha", "beta", "gamma", "delta", "unbelievable", "tokens", "zap"]


class FailingOverlap(LexicalOverlapBackend):
    """Word overlap that fails every premise holding the word 'zap' for the
    chosen claim texts; counts evaluate calls."""

    name = "failing-overlap"

    def __init__(self, failing_texts=()):
        super().__init__()
        self.failing_texts = frozenset(failing_texts)
        self.calls = 0

    def evaluate(self, premise, hypothesis):
        self.calls += 1
        if hypothesis in self.failing_texts and "zap" in premise.split():
            raise RuntimeError(f"scripted failure for {hypothesis!r}")
        return super().evaluate(premise, hypothesis)


def _outcome(run):
    """('ok', rows) or ('error', what identifies the raised error)."""
    try:
        rows = run()
    except ChunkcheckError as exc:
        return "error", (
            type(exc),
            str(exc),
            getattr(exc, "claim_id", None),
            getattr(exc, "partial", None),
            getattr(exc, "failures", None),
        )
    return "ok", [(claim.id, doc.id, trace.to_dict()) for claim, doc, trace in rows]


_unit = st.lists(st.sampled_from(_WORDS), min_size=1, max_size=12).map(" ".join)
_claim_text = st.one_of(
    st.lists(st.sampled_from(_WORDS), min_size=1, max_size=3).map(" ".join), st.just(" ")
)


@given(
    st.lists(st.lists(_unit, min_size=1, max_size=30), min_size=1, max_size=3),
    st.lists(_claim_text, min_size=1, max_size=4, unique=True),
    st.data(),
)
@settings(max_examples=250, deadline=None)
def test_lockstep_matches_claim_by_claim(docs_units, texts, data):
    docs = [
        Document(id=f"d{j}", units=[Unit(index=i, text=t) for i, t in enumerate(units)])
        for j, units in enumerate(docs_units)
    ]
    picks = data.draw(st.lists(
        st.tuples(st.integers(0, len(docs) - 1), st.sampled_from(texts)),
        min_size=1, max_size=12,
    ), label="claims")
    claims = [Claim(id=f"c{i}", doc_id=f"d{j}", text=t) for i, (j, t) in enumerate(picks)]
    corpus = Corpus(documents=docs, claims=claims)
    k = data.draw(st.integers(2, 4), label="k")
    cap = data.draw(st.one_of(st.none(), st.integers(4, 30)), label="cap")
    counter = data.draw(st.sampled_from([WC, MINI_VOCAB]), label="counter")
    failing = data.draw(st.sets(st.sampled_from(texts)), label="failing texts")
    cache_size = data.draw(st.sampled_from([None, 64]), label="cache")
    workers = data.draw(st.sampled_from([1, 2]), label="workers")

    def cache():
        return None if cache_size is None else ScoreCache(cache_size)

    want = _outcome(lambda: retrievals_reference(
        claims, corpus, FailingOverlap(failing), k, cap, counter, cache(), workers
    ))
    config = SimpleNamespace(k=k, premise_cap=cap, concurrency=workers)
    got = _outcome(lambda: list(_retrievals(
        claims, corpus, config, counter, FailingOverlap(failing), cache()
    )))
    assert got == want


def _counted(monkeypatch, name):
    calls = []
    original = getattr(retrieval, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(retrieval, name, counted)
    return calls


def test_one_batch_per_level_one_split_per_range(monkeypatch):
    rng = random.Random(7)
    doc = make_sized_doc("d", [rng.randint(8, 18) for _ in range(600)])
    units = rng.sample(range(600), 40)
    units += rng.sample(units, 10)  # ten claim texts repeat
    claims = [
        Claim(id=f"c{i}", doc_id="d", text=" ".join(doc.units[u].text.split()[:5]))
        for i, u in enumerate(units)
    ]
    batches = _counted(monkeypatch, "score_batch")
    splits = _counted(monkeypatch, "split_range")
    joins = _counted(monkeypatch, "premise_text")
    backend = FailingOverlap()
    traces, error = descend(doc, claims, backend, k=2, budget=512, counter=WC)
    assert error is None

    assert len(batches) == max(len(t.levels) for t in traces)
    descended = {
        (depth, r)
        for t in traces
        for depth, r in enumerate(
            [(0, 600)] + [lvl.candidate_ranges[lvl.chosen] for lvl in t.levels[:-1]]
        )
    }
    assert sorted(args[1:3] for args in splits) == sorted(r for _, r in descended)
    parts = {
        (depth, part)
        for t in traces
        for depth, lvl in enumerate(t.levels)
        for part in lvl.candidate_ranges
    }
    assert len(joins) == len(parts)
    assert [t.result_unit for t in traces] == units

    # Claim by claim, a repeated text's second retrieval is served by the
    # cache; descending together, by the batch's deduplication.
    alone = FailingOverlap()
    cache = ScoreCache(4096)
    want = [retrieve_reference(doc, c, alone, 2, 512, WC, cache) for c in claims]
    assert [t.to_dict() for t in traces] == [t.to_dict() for t in want]
    assert backend.calls == alone.calls


def test_retrieve_is_the_one_claim_case():
    rng = random.Random(5)
    doc = make_sized_doc("d", [rng.randint(1, 9) for _ in range(90)])
    claims = [
        Claim(id=f"c{i}", doc_id="d", text=" ".join(doc.units[u].text.split()[:3]))
        for i, u in enumerate(rng.sample(range(90), 12))
    ]
    backend = LexicalOverlapBackend()
    together = descend(doc, claims, backend, k=3, budget=20, counter=WC)
    alone = [retrieve(doc, c, backend, k=3, budget=20, counter=WC) for c in claims]
    assert together == (alone, None)
    assert descend(doc, [], backend) == ([], None)
