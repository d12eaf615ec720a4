"""All the claims of a run descend together, across documents: every trace
and every error are those of retrieving one claim after another, and a run
that succeeds calls the backend once per distinct pair that retrieving one
claim after another scores, while each level is one batch and each range is
split once."""

import random
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chunkcheck.retrieval as retrieval
from chunkcheck.backends import LexicalOverlapBackend
from chunkcheck.chunking import UNIT_SEPARATOR
from chunkcheck.cli import _retrievals, cmd_retrieve
from chunkcheck.corpus import Claim, Corpus, Document, Unit, VocabCounter, WhitespaceCounter
from chunkcheck.errors import ChunkcheckError
from chunkcheck.retrieval import descend, retrieve

from helpers import FlakyBackend, drawn_picks, make_sized_doc
from oracles import brute_force_reference, retrievals_reference, retrieve_reference

WC = WhitespaceCounter()
MINI_VOCAB = VocabCounter(Path(__file__).parents[1] / "data" / "vocab" / "mini_vocab.txt")
_WORDS = ["alpha", "beta", "gamma", "delta", "unbelievable", "tokens", "zap"]


class FailingOverlap(LexicalOverlapBackend):
    """Word overlap that fails every premise holding the word 'zap' for the
    chosen claim texts, or with ``units_only`` every such one-unit premise,
    so that brute force can fail on a claim whose descent succeeds; counts
    evaluate calls and records the pairs evaluated."""

    name = "failing-overlap"

    def __init__(self, failing_texts=(), units_only=False):
        super().__init__()
        self.failing_texts = frozenset(failing_texts)
        self.units_only = units_only
        self.calls = 0
        self.pairs = set()

    def evaluate(self, premise, hypothesis):
        self.calls += 1
        self.pairs.add((premise, hypothesis))
        if (hypothesis in self.failing_texts and "zap" in premise.split()
                and not (self.units_only and UNIT_SEPARATOR in premise)):
            raise RuntimeError(f"scripted failure for {hypothesis!r}")
        return super().evaluate(premise, hypothesis)


def _outcome(run):
    """('ok', what ``run`` returns) or ('error', what identifies the raised error)."""
    try:
        return "ok", run()
    except ChunkcheckError as exc:
        return "error", (
            type(exc),
            str(exc),
            getattr(exc, "claim_id", None),
            getattr(exc, "partial", None),
            getattr(exc, "failures", None),
        )


# Examples are drawn in bulk: each list of units, words or picks below is one
# byte draw (``drawn_picks``), where ``st.lists`` would draw every element on
# its own. Every corpus, claim list and failing set can still come out.


def _joined(draw, lengths) -> list[str]:
    """Texts of the given word counts over ``_WORDS``; 0 words is a blank " "."""
    words = iter(drawn_picks(draw, _WORDS, sum(lengths)))
    return [" ".join(next(words) for _ in range(n)) or " " for n in lengths]


@st.composite
def _corpus_units(draw):
    """1-3 documents of 1-30 units, each unit 1-12 words."""
    return [
        _joined(draw, drawn_picks(draw, range(1, 13), draw(st.integers(1, 30))))
        for _ in range(draw(st.integers(1, 3)))
    ]


@st.composite
def _texts(draw):
    """1-4 distinct claim texts, each 1-3 words or a blank " "."""
    lengths = drawn_picks(draw, range(4), draw(st.integers(1, 4)))
    return list(dict.fromkeys(_joined(draw, lengths)))


@st.composite
def _picks(draw, pool, n):
    return drawn_picks(draw, pool, n)


def _draw_case(docs_units, texts, data):
    """(corpus, k, cap, counter, failing claim texts, workers)."""
    docs = [
        Document(id=f"d{j}", units=[Unit(index=i, text=t) for i, t in enumerate(units)])
        for j, units in enumerate(docs_units)
    ]
    n_claims = data.draw(st.integers(1, 12), label="claims")
    picks = zip(data.draw(_picks(range(len(docs)), n_claims), label="claim documents"),
                data.draw(_picks(texts, n_claims), label="claim texts"))
    claims = [Claim(id=f"c{i}", doc_id=f"d{j}", text=t) for i, (j, t) in enumerate(picks)]
    failing = data.draw(_picks([False, True], len(texts)), label="failing texts")
    return (
        Corpus(documents=docs, claims=claims),
        data.draw(st.integers(2, 4), label="k"),
        data.draw(st.one_of(st.none(), st.integers(4, 30)), label="cap"),
        data.draw(st.sampled_from([WC, MINI_VOCAB]), label="counter"),
        {t for t, fails in zip(texts, failing) if fails},
        data.draw(st.sampled_from([1, 2]), label="workers"),
    )


@given(_corpus_units(), _texts(), st.data())
@settings(max_examples=250, deadline=None)
def test_lockstep_matches_claim_by_claim(docs_units, texts, data):
    corpus, k, cap, counter, failing, workers = _draw_case(docs_units, texts, data)
    claims = corpus.claims
    want = _outcome(lambda: [
        (claim.id, doc.id, trace.to_dict())
        for claim, doc, trace in retrievals_reference(
            claims, corpus, FailingOverlap(failing), k, cap, counter, workers
        )
    ])
    config = SimpleNamespace(k=k, premise_cap=cap, concurrency=workers)

    def together():
        traces = _retrievals(claims, corpus, config, counter, FailingOverlap(failing))
        return [(c.id, c.doc_id, t.to_dict()) for c, t in zip(claims, traces, strict=True)]

    assert _outcome(together) == want


def _cli_retrieve(corpus, backend, k, cap, counter, workers, brute_force=True):
    """``retrieve --trace`` entries, through the CLI's command."""
    args = SimpleNamespace(trace=True, brute_force=brute_force)
    config = SimpleNamespace(k=k, premise_cap=cap, concurrency=workers)
    results, _ = cmd_retrieve(args, config, corpus, counter, backend)
    return results["retrievals"]


@given(_corpus_units(), _texts(), st.data())
@settings(max_examples=150, deadline=None)
def test_brute_force_per_document_matches_claim_by_claim(docs_units, texts, data):
    """``retrieve --brute-force`` scores every claim's units in the greedy
    descent's first batch, yet reports, and raises, what retrieving one claim
    after another, greedy then brute force, does; it makes no more backend
    calls."""
    corpus, k, cap, counter, failing, workers = _draw_case(docs_units, texts, data)
    units_only = data.draw(st.booleans(), label="units only")
    alone = FailingOverlap(failing, units_only)

    def by_claim():
        rows = []
        for claim in corpus.claims:
            doc = corpus.document(claim.doc_id)
            trace = retrieve_reference(doc, claim, alone, k, cap, counter)
            bf = brute_force_reference(doc, claim, alone, cap, counter)
            rows.append((trace.to_dict(), (bf.unit, bf.score, bf.scorer_calls,
                                           bf.unit == trace.result_unit)))
        return rows

    together = FailingOverlap(failing, units_only)

    def batched():
        return [
            ({"claim_id": e["claim_id"], "result_unit": e["result_unit"],
              "result_score": e["result_score"], "scorer_calls": e["scorer_calls"],
              "levels": e["trace"]},
             tuple(e["brute_force"][key] for key in ("unit", "score", "scorer_calls", "agrees")))
            for e in _cli_retrieve(corpus, together, k, cap, counter, workers)
        ]

    want = _outcome(by_claim)
    assert _outcome(batched) == want
    if want[0] == "ok":
        assert together.calls <= alone.calls


def test_brute_force_error_before_a_later_claims_descent_error():
    doc = Document(id="d", units=[
        Unit(index=i, text=t) for i, t in enumerate(["alpha", "beta", "gamma", "delta", "zap"])
    ])
    claims = [Claim(id="c0", doc_id="d", text="alpha"), Claim(id="c1", doc_id="d", text="zap")]
    corpus = Corpus(documents=[doc], claims=claims)
    backend = FailingOverlap({"alpha", "zap"}, units_only=True)
    # c0 descends without meeting the 'zap' unit, c1 ends on it, and brute
    # force meets it for both: c0's brute-force error is the first.
    assert _outcome(lambda: retrieve_reference(doc, claims[0], backend))[0] == "ok"
    assert _outcome(lambda: retrieve_reference(doc, claims[1], backend))[0] == "error"
    kind, (_, message, claim_id, _, _) = _outcome(
        lambda: _cli_retrieve(corpus, backend, 2, None, WC, 1)
    )
    assert (kind, claim_id) == ("error", "c0")
    assert "(4, 5)]" in message


def test_brute_force_joins_each_unit_once_per_document(monkeypatch):
    rng = random.Random(11)
    docs = [make_sized_doc(d, [rng.randint(4, 12) for _ in range(n)])
            for d, n in (("a", 300), ("b", 120))]
    claims = [
        Claim(id=f"c{i}", doc_id=doc.id, text=" ".join(doc.units[u].text.split()[:4]))
        for i, (doc, u) in enumerate(
            (doc, rng.randrange(len(doc.units))) for doc in docs for _ in range(15)
        )
    ]
    corpus = Corpus(documents=docs, claims=claims)
    counts = {}
    for brute_force in (False, True):
        batches = _counted(monkeypatch, "score_batch")
        joins = _counted(monkeypatch, "premise_text")
        entries = _cli_retrieve(corpus, FailingOverlap(), 2, 64, WC, 1, brute_force)
        counts[brute_force] = len(batches), len(joins)
        monkeypatch.undo()
    # Brute force shares the first level's batch with the greedy descent,
    # joining each unit once per document.
    assert counts[True][0] - counts[False][0] == 0
    assert counts[True][1] - counts[False][1] == sum(len(doc.units) for doc in docs)
    for claim, entry in zip(claims, entries):
        bf = brute_force_reference(corpus.document(claim.doc_id), claim, FailingOverlap(), 64)
        assert entry["brute_force"]["unit"] == bf.unit
        assert entry["brute_force"]["score"] == bf.score


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
    traces = descend([doc] * len(claims), claims, backend, [2] * len(claims), budget=512,
                     counter=WC)

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

    # Claim by claim, a repeated text's retrieval scores its pairs again;
    # descending together, the batch's deduplication scores each pair once.
    alone = FailingOverlap()
    want = [retrieve_reference(doc, c, alone, 2, 512, WC) for c in claims]
    assert [t.to_dict() for t in traces] == [t.to_dict() for t in want]
    assert alone.calls > len(alone.pairs)
    assert backend.calls == len(alone.pairs)


@pytest.mark.parametrize("invalid", ["blank claim", "unit over the cap"])
def test_one_batch_per_level_when_a_claim_fails_its_input_checks(monkeypatch, invalid):
    rng = random.Random(3)
    doc = make_sized_doc("d", [rng.randint(2, 6) for _ in range(40)])
    big = make_sized_doc("big", [3, 3, 50, 3])
    claims = [
        Claim(id=f"c{i}", doc_id="d", text=" ".join(doc.units[u].text.split()[:2]))
        for i, u in enumerate(rng.sample(range(40), 3))
    ]
    claims.append(Claim(id="bad", doc_id="d", text=" ") if invalid == "blank claim"
                  else Claim(id="bad", doc_id="big", text="bigu2w0"))
    claims.append(Claim(id="after", doc_id="d", text=doc.units[0].text))
    corpus = Corpus(documents=[doc, big], claims=claims)
    want = _outcome(lambda: retrievals_reference(claims, corpus, FailingOverlap(), 2, 20, WC))
    batches = _counted(monkeypatch, "score_batch")
    got = _outcome(lambda: descend([corpus.document(c.doc_id) for c in claims], claims,
                                   FailingOverlap(), [2] * len(claims), budget=20, counter=WC))
    monkeypatch.undo()

    assert got[0] == "error"
    assert got == want
    # The valid claims before the invalid one descend to the end, one batch
    # per level; none is scored on its own to find the invalid claim.
    depth = max(len(retrieve_reference(doc, c, FailingOverlap(), 2, 20, WC).levels)
                for c in claims[:3])
    assert len(batches) == depth


def test_a_failing_claim_stops_its_level_before_the_claims_after_it():
    """One 512-unit document, a first claim whose every pair fails and 100
    valid claims after it, one worker: the level scores the failing claim's
    two pairs and starts none of the 200 after them, and the error is the
    one claim-by-claim retrieval raises."""
    doc = make_sized_doc("d", [3] * 512)
    claims = [Claim(id="bad", doc_id="d", text="BOOM"),
              *(Claim(id=f"c{i}", doc_id="d", text=doc.units[i].text) for i in range(100))]
    corpus = Corpus(documents=[doc], claims=claims)
    want = _outcome(lambda: retrievals_reference(claims, corpus, FlakyBackend(), 2, None, WC))
    backend = FlakyBackend()
    got = _outcome(lambda: descend([doc] * len(claims), claims, backend, [2] * len(claims),
                                   counter=WC))
    assert got[0] == "error"
    assert got == want
    assert backend.calls == 2


def test_retrieve_is_the_one_claim_case():
    rng = random.Random(5)
    doc = make_sized_doc("d", [rng.randint(1, 9) for _ in range(90)])
    claims = [
        Claim(id=f"c{i}", doc_id="d", text=" ".join(doc.units[u].text.split()[:3]))
        for i, u in enumerate(rng.sample(range(90), 12))
    ]
    backend = LexicalOverlapBackend()
    together = descend([doc] * len(claims), claims, backend, [3] * len(claims), budget=20,
                       counter=WC)
    alone = [retrieve(doc, c, backend, k=3, budget=20, counter=WC) for c in claims]
    assert together == alone
    assert descend([], [], backend, []) == []
