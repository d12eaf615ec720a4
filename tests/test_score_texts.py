"""Every text of a run is scored in one batch: reports, scorer calls and
scoring errors are those of scoring one document after another, bad input in
any document raises before any pair is scored, the ``--concurrency`` workers
are shared by the documents, and a pair repeated in two documents reaches the
backend once."""

import io
import json
import threading
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chunkcheck.backends import LexicalOverlapBackend
from chunkcheck.cli import _write_json, cmd_score, main
from chunkcheck.corpus import Claim, Corpus, Document, Unit, WhitespaceCounter
from chunkcheck.engine import score_texts
from chunkcheck.errors import ChunkcheckError, ValidationError

from helpers import FlakyBackend
from oracles import score_corpus_reference

WC = WhitespaceCounter()
_WORDS = ["ant", "bee", "cat", "dog", "elk"]
_unit_text = st.lists(st.sampled_from(_WORDS), min_size=1, max_size=5).map(" ".join)


class CountingOverlap(LexicalOverlapBackend):
    """Word overlap that records every pair it is asked to score."""

    def __init__(self):
        super().__init__()
        self.pairs = []

    def evaluate(self, premise, hypothesis):
        self.pairs.append((premise, hypothesis))
        return super().evaluate(premise, hypothesis)


@st.composite
def _corpora(draw):
    """Up to five documents, some repeating an earlier one's units under
    another id, and claims in interleaved file order whose texts repeat
    within and across documents."""
    docs = []
    for d in range(draw(st.integers(1, 5))):
        if docs and draw(st.booleans()):
            units = draw(st.sampled_from(docs)).units
        else:
            texts = draw(st.lists(_unit_text, min_size=1, max_size=6))
            units = [Unit(t) for t in texts]
        docs.append(Document(id=f"d{d}", units=list(units)))
    claim_texts = draw(st.lists(_unit_text, min_size=1, max_size=4))
    owners = draw(st.permutations([d for d in range(len(docs))
                                   for _ in range(draw(st.integers(1, 3)))]))
    claims = [Claim(id=f"c{i}", doc_id=f"d{d}", text=draw(st.sampled_from(claim_texts)))
              for i, d in enumerate(owners)]
    return Corpus(documents=docs, claims=claims)


def _written(results) -> str:
    """``cmd_score``'s results as the report writer writes them."""
    sink = io.StringIO()
    _write_json(results, sink)
    return sink.getvalue()


def _results(text_scores, sentences) -> str:
    """The results ``cmd_score`` reports for these scores, as ``json.dumps``
    writes them in a report."""
    return json.dumps({
        "claims": [s.to_dict() for s in sentences],
        "texts": [{"doc_id": ts.doc_id, "aggregate": ts.aggregate, "aggregation": ts.aggregation,
                   "sentences": [s.to_dict() for s in ts.sentences]} for ts in text_scores],
        "scorer_calls_total": sum(s.scorer_calls for s in sentences),
    }, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def _outcome(run):
    try:
        return run(), None
    except ChunkcheckError as exc:
        return None, (type(exc), str(exc))


@given(_corpora(), st.lists(st.sampled_from([1, 3, 8, 40]), min_size=1, max_size=3, unique=True),
       st.booleans(), st.sampled_from(["min", "mean"]), st.sampled_from([1, 3]),
       st.sampled_from([None, 4, 40]))
@settings(max_examples=150, deadline=None)
def test_run_batch_reports_equal_document_by_document(corpus, budgets, explain, aggregation,
                                                      workers, cap):
    """At every budget, ``score``'s results equal those built from each
    document scored alone, or both raise the same error; the run's backend
    calls are its distinct pairs, each scored once across documents."""
    for budget in budgets:
        config = SimpleNamespace(budget=budget, aggregation=aggregation, concurrency=workers,
                                 premise_cap=cap)
        args = SimpleNamespace(explain=explain, dump_chunks=False)
        backend = CountingOverlap()
        got, got_error = _outcome(
            lambda: _written(cmd_score(args, config, corpus, WC, backend)[0]))
        want, want_error = _outcome(lambda: _results(*score_corpus_reference(
            corpus, budget, LexicalOverlapBackend(), WC, aggregation, workers, explain, cap)))
        assert got_error == want_error
        assert got == want
        assert len(backend.pairs) == len(set(backend.pairs))


# ---------------------------------------------------------------------------
# Through the CLI: error order, fail-fast, a shared pool, cross-document dedup


def _write_corpus(tmp_path, docs, claims):
    """docs: [(doc id, [unit text])]; claims: [(claim id, doc id, text)]."""
    documents, claims_file = tmp_path / "documents.jsonl", tmp_path / "claims.jsonl"
    documents.write_text("".join(
        json.dumps({"id": d, "units": [{"text": t} for t in units]}) + "\n" for d, units in docs
    ))
    claims_file.write_text("".join(
        json.dumps({"id": c, "doc_id": d, "text": t}) + "\n" for c, d, t in claims
    ))
    return ["--documents", str(documents), "--claims", str(claims_file)]


@pytest.fixture()
def backend_calls(monkeypatch):
    """Pairs reaching the overlap backend, which fails a hypothesis holding BOOM."""
    calls = []
    lock = threading.Lock()

    def evaluate(self, premise, hypothesis):
        with lock:
            calls.append((premise, hypothesis))
        if "BOOM" in hypothesis:
            raise RuntimeError("scripted failure")
        return 0.5

    monkeypatch.setattr(LexicalOverlapBackend, "evaluate", evaluate)
    return calls


_FAILING = ("fail", ["alpha beta"]), ("c-fail", "fail", "BOOM here")
_OVER_CAP = ("big", ["one two three four five six"]), ("c-big", "big", "one two")
_FINE = ("ok", ["gamma delta"]), ("c-ok", "ok", "gamma")


@pytest.mark.parametrize("workers", ["1", "4"])
@pytest.mark.parametrize(("texts", "code", "error", "scored"), [
    ([_FAILING, _OVER_CAP, _FINE], 1,
     {"type": "validation", "message": "premise has 6 tokens, over the premise cap of 5"},
     []),
    ([_OVER_CAP, _FAILING, _FINE], 1,
     {"type": "validation", "message": "premise has 6 tokens, over the premise cap of 5"},
     []),
])
def test_first_failing_document_names_the_error(tmp_path, capsys, backend_calls, workers, texts,
                                                code, error, scored):
    """An over-cap chunk exits 1 before any pair reaches the backend, whether
    a document with a failing pair comes before it or after it."""
    argv = _write_corpus(tmp_path, [doc for doc, _ in texts], [claim for _, claim in texts])
    assert main(["score", *argv, "--premise-cap", "5", "--concurrency", workers]) == code
    assert json.loads(capsys.readouterr().err)["error"] == error
    assert backend_calls == scored


def test_a_failed_pair_starts_no_pair_of_a_later_document(tmp_path, capsys, monkeypatch):
    """A backend that fails every pair is called for the first document's
    distinct pairs only, as when each document was its own batch."""
    calls = []

    def dead(self, premise, hypothesis):
        calls.append((premise, hypothesis))
        raise RuntimeError("endpoint down")

    monkeypatch.setattr(LexicalOverlapBackend, "evaluate", dead)
    docs = [(f"d{i}", [f"u{i} one", f"u{i} two"]) for i in range(5)]
    claims = [(f"d{i}-{j}", f"d{i}", text)
              for i in range(5) for j, text in enumerate(["x y", "x y", "z"])]
    argv = _write_corpus(tmp_path, docs, claims)
    assert main(["score", *argv, "--budget", "1", "--concurrency", "1"]) == 2
    assert json.loads(capsys.readouterr().err)["error"]["message"] == (
        "claim 'd0-0': 2 of 2 chunk scorings failed (RuntimeError: endpoint down)"
    )
    assert sorted(calls) == sorted(
        (premise, text) for text in ("x y", "z") for premise in ("u0 one", "u0 two")
    )


def test_concurrency_workers_are_shared_across_documents(tmp_path, capsys, monkeypatch):
    """Four workers score four one-pair documents at once: a backend that
    waits for four concurrent calls completes, which a batch per document,
    one pair at a time, cannot do."""
    barrier = threading.Barrier(4, timeout=10)
    calls = []

    def rendezvous(self, premise, hypothesis):
        calls.append(hypothesis)
        barrier.wait()
        return 0.5

    monkeypatch.setattr(LexicalOverlapBackend, "evaluate", rendezvous)
    docs = [(f"d{i}", [f"unit {i}"]) for i in range(8)]
    claims = [(f"c{i}", f"d{i}", f"claim {i}") for i in range(8)]
    argv = _write_corpus(tmp_path, docs, claims)
    assert main(["score", *argv, "--concurrency", "4", "--out", str(tmp_path / "r.json")]) == 0
    assert capsys.readouterr().err == ""
    assert sorted(calls) == sorted(f"claim {i}" for i in range(8))


def test_a_pair_repeated_across_documents_is_scored_once(tmp_path, backend_calls):
    docs = [("a", ["same unit text"]), ("b", ["same unit text"])]
    claims = [("ca", "a", "same claim"), ("cb", "b", "same claim")]
    out = tmp_path / "r.json"
    assert main(["score", *_write_corpus(tmp_path, docs, claims), "--out", str(out)]) == 0
    assert backend_calls == [("same unit text", "same claim")]
    report = json.loads(out.read_text())["results"]
    assert [c["score"] for c in report["claims"]] == [0.5, 0.5]
    assert report["scorer_calls_total"] == 2  # scorer calls count chunks, not backend calls


# ---------------------------------------------------------------------------
# The library call: input checks before any pair


def test_a_blank_text_raises_before_any_pair_is_scored():
    """A pair failing the input checks raises before any pair of any document
    is scored, whether a document with a failing or a valid pair comes
    before it or after it."""
    backend = FlakyBackend(marker="BOOM", score=0.5)
    ok = Document(id="ok", units=[Unit("alpha beta")])
    blank = Document(id="blank", units=[Unit("gamma")])
    texts = [(ok, [Claim(id="c0", doc_id="ok", text="BOOM")]),
             (blank, [Claim(id="c1", doc_id="blank", text="   ")])]
    fine = (ok, [Claim(id="c2", doc_id="ok", text="alpha")])
    for run in (texts, texts[::-1], [fine, texts[1]], [texts[1], fine]):
        with pytest.raises(ValidationError, match="hypothesis must be non-empty"):
            score_texts(run, 10, backend, WC)
    assert backend.calls == 0


def test_an_unknown_aggregation_raises_before_any_pair_is_scored():
    backend = FlakyBackend()
    doc = Document(id="d", units=[Unit("alpha")])
    with pytest.raises(ValidationError, match="unknown aggregation 'median'"):
        score_texts([(doc, [Claim(id="c", doc_id="d", text="alpha")])], 10, backend, WC,
                    aggregation="median")
    assert backend.calls == 0
