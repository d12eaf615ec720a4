import json
import random

import pytest

from chunkcheck.backends import LexicalOverlapBackend
from chunkcheck.chunking import premise_text
from chunkcheck.cli import main
from chunkcheck.corpus import (
    Claim,
    Document,
    Unit,
    VocabCounter,
    WhitespaceCounter,
    load_corpus,
)
from chunkcheck.errors import PremiseTooLargeError, ValidationError
from chunkcheck.retrieval import (
    brute_force_retrieve,
    retrieval_hit,
    retrieve,
)
from helpers import ScriptedBackend, make_doc, relevance_fixture
from oracles import call_count_bound, verify_trace

WC = WhitespaceCounter()


def _claim(doc_id, text="probe", cid="c"):
    return Claim(id=cid, doc_id=doc_id, text=text)


# ---------------------------------------------------------------------------
# Worked descent


def test_binary_descent_worked_example():
    doc, backend = relevance_fixture("d", [0.1, 0.9, 0.3, 0.2], words_per_unit=1)
    trace = retrieve(doc, _claim("d"), backend, k=2)
    assert [lvl.candidate_ranges for lvl in trace.levels] == [
        [(0, 2), (2, 4)],
        [(0, 1), (1, 2)],
    ]
    assert trace.levels[0].scores == [0.9, 0.3]
    assert trace.levels[0].chosen == 0
    assert trace.levels[1].scores == [0.1, 0.9]
    assert trace.levels[1].chosen == 1
    assert trace.result_unit == 1
    assert trace.result_score == 0.9
    assert trace.scorer_calls == 4
    bf = brute_force_retrieve(doc, _claim("d"), backend)
    assert bf.unit == trace.result_unit


def test_single_unit_document():
    doc, backend = relevance_fixture("d", [0.4])
    trace = retrieve(doc, _claim("d"), backend, k=2)
    assert trace.result_unit == 0
    assert trace.scorer_calls <= 1
    assert trace.result_score == 0.4


def test_binary_search_call_count_on_256_units():
    doc, backend = relevance_fixture("d", [0.0] * 255 + [1.0], words_per_unit=1)
    trace = retrieve(doc, _claim("d"), backend, k=2)
    assert trace.scorer_calls == 16  # 2 per level, 8 levels
    assert trace.result_unit == 255
    bf = brute_force_retrieve(doc, _claim("d"), backend)
    assert bf.scorer_calls == 256


def test_tie_breaks_to_lowest_start():
    doc, backend = relevance_fixture("d", [0.5, 0.5, 0.5, 0.5])
    trace = retrieve(doc, _claim("d"), backend, k=2)
    assert trace.result_unit == 0
    bf = brute_force_retrieve(doc, _claim("d"), backend)
    assert bf.unit == 0


def test_brute_force_examples():
    doc, backend = relevance_fixture("d", [0.1, 0.9, 0.3])
    bf = brute_force_retrieve(doc, _claim("d"), backend)
    assert (bf.unit, bf.score, bf.scorer_calls) == (1, 0.9, 3)


def test_brute_force_matches_independent_loop():
    rng = random.Random(21)
    vocab = ["ant", "bee", "cat", "dog", "elk", "fox", "gnu", "hen"]
    units = [
        Unit(text=" ".join(rng.choices(vocab, k=rng.randint(2, 5))))
        for _ in range(50)
    ]
    doc = Document(id="d", units=units)
    claim = _claim("d", "cat dog elk")
    backend = LexicalOverlapBackend()
    bf = brute_force_retrieve(doc, claim, backend)
    probs = [
        backend.evaluate(premise_text(doc, i, i + 1), claim.text)
        for i in range(50)
    ]
    best = max(range(50), key=lambda i: (probs[i], -i))
    assert bf.unit == best
    assert bf.score == probs[best]


# ---------------------------------------------------------------------------
# Exactness and call bound under the max-composable mock


def test_greedy_equals_brute_force_randomized():
    rng = random.Random(42)
    for trial in range(150):
        n = rng.randint(1, 120)
        k = rng.choice([2, 3, 5])
        scores = [round(rng.random(), 4) for _ in range(n)]
        doc, backend = relevance_fixture(f"d{trial}", scores, words_per_unit=1)
        trace = retrieve(doc, _claim(f"d{trial}"), backend, k=k)
        bf = brute_force_retrieve(doc, _claim(f"d{trial}"), backend)
        assert trace.result_unit == bf.unit, (n, k, scores)
        assert trace.scorer_calls <= call_count_bound(n, k)
        assert bf.scorer_calls == n


def test_trace_replays_deterministically():
    rng = random.Random(3)
    for trial in range(20):
        n = rng.randint(2, 60)
        scores = [round(rng.random(), 4) for _ in range(n)]
        doc, backend = relevance_fixture(f"d{trial}", scores)
        trace = retrieve(doc, _claim(f"d{trial}"), backend, k=3)
        verify_trace(doc, _claim(f"d{trial}"), backend, trace)


@pytest.mark.parametrize("field", ["score", "chosen", "range", "calls", "unit"])
def test_trace_replay_rejects_a_tampered_trace(field):
    doc, backend = relevance_fixture("d", [0.2, 0.8, 0.5, 0.1, 0.9, 0.3])
    trace = retrieve(doc, _claim("d"), backend, k=2)
    level = trace.levels[0]
    if field == "score":
        level.scores[1] += 0.01
    elif field == "chosen":
        level.chosen = 1 - level.chosen
    elif field == "range":
        level.candidate_ranges[0] = (0, 1)
    elif field == "calls":
        trace.scorer_calls += 1
    else:
        trace.result_unit = (trace.result_unit + 1) % len(doc.units)
    with pytest.raises(AssertionError):
        verify_trace(doc, _claim("d"), backend, trace)


def test_trace_shape_invariants():
    doc, backend = relevance_fixture("d", [0.2, 0.8, 0.5, 0.1, 0.9, 0.3], words_per_unit=1)
    trace = retrieve(doc, _claim("d"), backend, k=2)
    assert trace.scorer_calls == sum(len(lvl.scores) for lvl in trace.levels)
    for parent, child in zip(trace.levels, trace.levels[1:]):
        lo, hi = parent.candidate_ranges[parent.chosen]
        for a, b in child.candidate_ranges:
            assert lo <= a < b <= hi
    last = trace.levels[-1]
    a, b = last.candidate_ranges[last.chosen]
    assert (a, b) == (trace.result_unit, trace.result_unit + 1)


# ---------------------------------------------------------------------------
# Premise-cap widening


def test_branching_widens_until_parts_fit():
    doc, backend = relevance_fixture("d", [0.1] * 7 + [0.9], words_per_unit=10)
    # halves are 40 tokens; cap 25 forces k to widen to 4 at the top level
    trace = retrieve(doc, _claim("d"), backend, k=2, budget=25, counter=WC)
    assert len(trace.levels[0].candidate_ranges) == 4
    assert trace.result_unit == 7
    for lvl in trace.levels:
        for a, b in lvl.candidate_ranges:
            if b - a > 1:
                assert sum(doc.unit_token_counts(WC)[a:b]) <= 25


def test_premise_cap_flag_triggers_widening(fixture_dir, tmp_path):
    docs, claims = fixture_dir / "documents.jsonl", fixture_dir / "claims.jsonl"
    out = tmp_path / "r.json"
    assert main(["retrieve", "--documents", str(docs), "--claims", str(claims),
                 "--premise-cap", "20", "--trace", "--out", str(out)]) == 0
    corpus = load_corpus(docs, claims)
    doc_of = {c.id: corpus.document(c.doc_id) for c in corpus.claims}
    retrievals = json.loads(out.read_text())["results"]["retrievals"]
    assert any(len(e["trace"][0]["candidate_ranges"]) > 2 for e in retrievals)
    for entry in retrievals:
        counts = doc_of[entry["claim_id"]].unit_token_counts(WC)
        for level in entry["trace"]:
            for a, b in level["candidate_ranges"]:
                assert b - a == 1 or sum(counts[a:b]) <= 20


def test_units_at_the_cap_still_descend():
    # pairs of 10-token units exceed a cap of 10, so the root widens to singletons
    doc, backend = relevance_fixture("d", [0.3, 0.9, 0.5], words_per_unit=10)
    trace = retrieve(doc, _claim("d"), backend, k=2, budget=10, counter=WC)
    assert trace.levels[0].candidate_ranges == [(0, 1), (1, 2), (2, 3)]
    assert trace.result_unit == 1


def test_oversized_single_unit_is_rejected_before_scoring():
    doc = make_doc("d", 2, words_per_unit=50)
    backend = ScriptedBackend({}, default=0.5)
    for run in (
        lambda: retrieve(doc, _claim("d"), backend, k=2, budget=10, counter=WC),
        lambda: brute_force_retrieve(doc, _claim("d"), backend, budget=10, counter=WC),
    ):
        with pytest.raises(PremiseTooLargeError, match="premise has 50 tokens"):
            run()
    assert backend.calls == 0
    assert retrieve(doc, _claim("d"), backend, k=2, budget=50, counter=WC).scorer_calls == 2


def test_parts_default_to_the_counter_that_enforces_the_cap(data_dir):
    # Each unit is 4 whitespace tokens but 9 mini_vocab tokens.
    units = [Unit(text=f"unbelievable tokens number{i} unbelievable") for i in range(8)]
    doc = Document(id="d", units=units)
    vocab = VocabCounter(data_dir / "vocab" / "mini_vocab.txt")
    backend = LexicalOverlapBackend()
    claim = _claim("d", "number3 unbelievable")
    # whitespace by default: 4-token units fit a cap of 8, and so do their pairs
    implicit = retrieve(doc, claim, backend, budget=8)
    assert implicit == retrieve(doc, claim, backend, budget=8, counter=WC)
    assert len(implicit.levels[-1].candidate_ranges) == 2
    with pytest.raises(PremiseTooLargeError, match="premise has 9 tokens"):
        retrieve(doc, claim, backend, budget=8, counter=vocab)
    explicit = retrieve(doc, claim, backend, budget=12, counter=vocab)
    assert explicit.result_unit == 3
    assert all(
        b - a == 1 or sum(doc.unit_token_counts(vocab)[a:b]) <= 12
        for lvl in explicit.levels
        for a, b in lvl.candidate_ranges
    )


# ---------------------------------------------------------------------------
# Greedy suboptimality with a non-composable scorer (known limitation)


def test_overlap_scorer_can_mislead_greedy_descent():
    doc = Document(
        id="d",
        units=[
            Unit(text="alpha beta"),
            Unit(text="gamma delta"),
            Unit(text="alpha gamma"),
        ],
    )
    claim = _claim("d", "alpha gamma")
    backend = LexicalOverlapBackend()
    bf = brute_force_retrieve(doc, claim, backend)
    assert (bf.unit, bf.score) == (2, 1.0)
    trace = retrieve(doc, claim, backend, k=2)
    # the [0, 2) chunk pools words from two units and scores 1.0, tying the
    # true best and winning on the lower start index
    assert trace.result_unit == 0
    assert trace.result_unit != bf.unit


# ---------------------------------------------------------------------------
# retrieval_hit


def test_retrieval_hit_membership():
    doc, backend = relevance_fixture("d", [0.1] * 8)
    trace = retrieve(doc, _claim("d"), backend, k=2)
    trace.result_unit = 7
    assert retrieval_hit(trace, {3, 7, 9}) is True
    trace.result_unit = 2
    assert retrieval_hit(trace, {3}) is False
    trace.result_unit = 5
    assert retrieval_hit(trace, {5}) is True
    with pytest.raises(ValidationError):
        retrieval_hit(trace, set())


def test_retrieve_rejects_bad_inputs():
    doc, backend = relevance_fixture("d", [0.5, 0.5])
    with pytest.raises(ValidationError):
        retrieve(doc, _claim("d"), backend, k=1)
    with pytest.raises(ValidationError):
        retrieve(Document(id="e", units=[]), _claim("e"), backend, k=2)
