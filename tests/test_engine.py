import random

import pytest

from chunkcheck.chunking import make_chunks, premise_text
from chunkcheck.corpus import Claim, Document, Unit, WhitespaceCounter
from chunkcheck.engine import aggregate_scores, score_sentence, score_text
from chunkcheck.errors import ScoringError, ValidationError
from chunkcheck.scoring import score_pair
from helpers import FlakyBackend, ScriptedBackend, make_doc, relevance_fixture

WC = WhitespaceCounter()


def _single_unit_plan(doc):
    # budget of one token per unit forces single-unit chunks for these docs
    return make_chunks(doc, 1, WC)


def _claim(doc_id, text, cid="c0"):
    return Claim(id=cid, doc_id=doc_id, text=text)


# ---------------------------------------------------------------------------
# score_sentence


def test_max_over_chunks():
    doc = make_doc("d", 3, words_per_unit=1)
    plan = _single_unit_plan(doc)
    probs = {premise_text(doc, i, i + 1): p for i, p in enumerate([0.2, 0.9, 0.4])}
    backend = ScriptedBackend(probs)
    got = score_sentence(plan, _claim("d", "whatever"), backend)
    assert got.score == 0.9
    assert got.argmax_chunk == (1, 2)
    assert got.scorer_calls == 3


def test_single_chunk_reduces_to_score_pair(overlap_backend):
    doc = Document(id="d", units=[Unit(index=0, text="alpha beta gamma")])
    plan = make_chunks(doc, 100, WC)
    got = score_sentence(plan, _claim("d", "beta gamma"), overlap_backend)
    direct = score_pair(overlap_backend, plan.chunks[0].text, "beta gamma")
    assert got.score == direct
    assert got.scorer_calls == 1


def test_overlap_three_single_unit_chunks(overlap_backend):
    doc = Document(
        id="d",
        units=[Unit(index=0, text="a b"), Unit(index=1, text="c d"), Unit(index=2, text="e f")],
    )
    plan = make_chunks(doc, 2, WC)
    assert len(plan.chunks) == 3
    got = score_sentence(plan, _claim("d", "c d"), overlap_backend)
    assert got.score == 1.0
    assert got.argmax_chunk == (1, 2)
    # oracle: exhaustive score_pair over the chunks
    exhaustive = [
        score_pair(overlap_backend, chunk.text, "c d") for chunk in plan.chunks
    ]
    assert got.score == max(exhaustive)


def test_argmax_tie_breaks_to_lowest_chunk():
    doc = make_doc("d", 4, words_per_unit=1)
    plan = _single_unit_plan(doc)
    probs = {premise_text(doc, i, i + 1): p for i, p in enumerate([0.3, 0.8, 0.8, 0.1])}
    backend = ScriptedBackend(probs)
    for _ in range(3):  # deterministic across repeated runs
        got = score_sentence(plan, _claim("d", "x"), backend)
        assert got.argmax_chunk == (1, 2)


def test_explain_retains_per_chunk():
    doc = make_doc("d", 2, words_per_unit=1)
    plan = _single_unit_plan(doc)
    backend = ScriptedBackend({}, default=0.5)
    got = score_sentence(plan, _claim("d", "x"), backend, explain=True)
    assert got.per_chunk is not None
    assert [p for _, p in got.per_chunk] == [0.5, 0.5]
    bare = score_sentence(plan, _claim("d", "x"), backend)
    assert bare.per_chunk is None


def test_plan_claim_document_mismatch():
    doc = make_doc("d", 2)
    plan = make_chunks(doc, 100, WC)
    with pytest.raises(ValidationError):
        score_sentence(plan, _claim("other", "x"), ScriptedBackend({}, default=0.5))


def test_chunk_failure_fails_sentence_with_partials():
    doc = Document(
        id="d",
        units=[Unit(index=0, text="fine one"), Unit(index=1, text="has BOOM inside")],
    )
    plan = make_chunks(doc, 3, WC)
    assert len(plan.chunks) == 2
    backend = FlakyBackend(marker="BOOM", score=0.7)
    with pytest.raises(ScoringError) as err:
        score_sentence(plan, _claim("d", "hello"), backend)
    partial = err.value.partial
    assert partial[0][1] == 0.7
    assert partial[1][1] is None
    assert err.value.claim_id == "c0"


# ---------------------------------------------------------------------------
# score_text and aggregation


def _text(doc_id, texts):
    return [Claim(id=f"s{i}", doc_id=doc_id, text=t) for i, t in enumerate(texts)]


def test_single_sentence_text_equal_under_both_aggregations(overlap_backend):
    doc = Document(id="d", units=[Unit(index=0, text="p q r")])
    for agg in ("min", "mean"):
        ts = score_text(doc, _text("d", ["p q"]), 100, overlap_backend, WC, aggregation=agg)
        assert ts.aggregate == ts.sentence_scores[0].score


def test_aggregation_arithmetic():
    assert aggregate_scores([1.0, 0.2], "min") == 0.2
    assert aggregate_scores([1.0, 0.2], "mean") == pytest.approx(0.6)
    with pytest.raises(ValidationError):
        aggregate_scores([0.5], "median")


def test_text_equals_sentence_loop(overlap_backend):
    doc = Document(
        id="d",
        units=[
            Unit(index=0, text="the tide rose fast"),
            Unit(index=1, text="boats left the harbor"),
            Unit(index=2, text="nets dried on deck"),
        ],
    )
    texts = ["the tide rose", "boats left", "nets dried on deck quickly"]
    ts = score_text(doc, _text("d", texts), 4, overlap_backend, WC)
    plan = make_chunks(doc, 4, WC)
    loop = [
        score_sentence(plan, Claim(id=f"s{i}", doc_id="d", text=t), overlap_backend).score
        for i, t in enumerate(texts)
    ]
    assert [s.score for s in ts.sentence_scores] == loop
    assert ts.aggregate == min(loop)


def test_text_scorer_call_accounting(overlap_backend):
    doc = make_doc("d", 6, words_per_unit=2)
    plan = make_chunks(doc, 4, WC)  # 2 units per chunk -> 3 chunks
    n_chunks = len(plan.chunks)
    texts = ["du0w0", "du2w1 du3w0", "du5w1"]
    ts = score_text(doc, _text("d", texts), 4, overlap_backend, WC)
    assert all(s.scorer_calls == n_chunks for s in ts.sentence_scores)
    assert sum(s.scorer_calls for s in ts.sentence_scores) == n_chunks * len(texts)


def test_text_is_scored_as_one_batch(overlap_backend, monkeypatch):
    import chunkcheck.engine as engine

    batches = []
    score_batch = engine.score_batch

    def counted(backend, pairs, **kw):
        batches.append(pairs)
        return score_batch(backend, pairs, **kw)

    monkeypatch.setattr(engine, "score_batch", counted)
    doc = make_doc("d", 6, words_per_unit=2)
    texts = ["du0w0", "du2w1 du3w0", "du5w1", "du0w0"]
    score_text(doc, _text("d", texts), 4, overlap_backend, WC)
    n_chunks = len(make_chunks(doc, 4, WC).chunks)
    assert len(batches) == 1
    assert len(batches[0]) == n_chunks * len(texts)


def test_text_failure_is_first_failing_claims_error():
    doc = make_doc("d", 6, words_per_unit=2)
    plan = make_chunks(doc, 4, WC)
    n_chunks = len(plan.chunks)
    texts = ["du0w0", "du2w1 BOOM", "BOOM again"]
    backend = FlakyBackend(marker="BOOM", score=0.7)
    with pytest.raises(ScoringError) as err:
        score_text(doc, _text("d", texts), 4, backend, WC)
    assert backend.calls == n_chunks * len(texts)  # the whole text was scored
    assert err.value.claim_id == "s1"
    assert [f.index for f in err.value.failures] == list(range(n_chunks))
    assert [c for c, _ in err.value.partial] == plan.chunks
    assert all(p is None for _, p in err.value.partial)
    with pytest.raises(ScoringError) as alone:
        score_sentence(plan, Claim(id="s1", doc_id="d", text=texts[1]), backend)
    assert str(err.value) == str(alone.value)
    assert err.value.failures == alone.value.failures
    assert err.value.partial == alone.value.partial


def test_text_doc_mismatch(overlap_backend):
    doc = make_doc("d", 2)
    with pytest.raises(ValidationError):
        score_text(doc, _text("other", ["x"]), 10, overlap_backend, WC)


def test_text_without_claims_is_rejected(overlap_backend):
    with pytest.raises(ValidationError, match="no claims to score for document 'd'"):
        score_text(make_doc("d", 2), [], 10, overlap_backend, WC)


# ---------------------------------------------------------------------------
# Monotonicity and budget invariance under the max-composable mock


def test_appending_chunks_never_decreases_score():
    rng = random.Random(5)
    for trial in range(60):
        n = rng.randint(1, 14)
        scores = [round(rng.random(), 3) for _ in range(n)]
        doc, backend = relevance_fixture(f"d{trial}", scores)
        full = make_chunks(doc, rng.choice([1, 3, 7, 100]), WC)
        claim = _claim(f"d{trial}", "x")
        prev = 0.0
        for upto in range(1, len(full.chunks) + 1):
            prefix = make_chunks(doc, full.budget, WC)
            prefix.chunks = full.chunks[:upto]
            got = score_sentence(prefix, claim, backend).score
            assert got >= prev
            prev = got


def test_budget_invariance_with_max_composable_mock():
    rng = random.Random(9)
    scores = [round(rng.random(), 3) for _ in range(10)]
    doc, backend = relevance_fixture("d", scores)
    claim = _claim("d", "x")
    results = set()
    for budget in (1, 2, 5, 9, 100):
        ts = score_sentence(make_chunks(doc, budget, WC), claim, backend)
        results.add(ts.score)
    assert results == {max(scores)}


def test_determinism_with_cache_and_workers():
    rng = random.Random(13)
    scores = [round(rng.random(), 3) for _ in range(9)]
    doc, backend = relevance_fixture("d", scores)
    claim = _claim("d", "x")
    plan = make_chunks(doc, 2, WC)
    baseline = score_sentence(plan, claim, backend)
    for workers in (1, 4):
        again = score_sentence(plan, claim, backend, max_workers=workers)
        assert again.score == baseline.score
        assert again.argmax_chunk == baseline.argmax_chunk

