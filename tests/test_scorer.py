import json
import math
import random
import sys
import threading

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chunkcheck.backends import UnitRelevanceBackend
from chunkcheck.chunking import premise_text
from chunkcheck.corpus import Claim, Document, Unit, WhitespaceCounter
from chunkcheck.engine import score_text
from chunkcheck.errors import PremiseTooLargeError, ValidationError
from chunkcheck.scoring import (
    BatchFailure,
    ScorerBackend,
    build_prompt,
    entail_prob,
    score_batch,
    score_pair,
)
from helpers import FlakyBackend, ScriptedBackend, relevance_fixture

WC = WhitespaceCounter()

# ---------------------------------------------------------------------------
# Prompt template


def test_prompt_template_verbatim():
    got = build_prompt("The sky is blue.", "The sky has a color.")
    assert got == "The sky is blue. Question: does this imply 'The sky has a color.'? Yes or no?"


def test_prompt_golden_file(fixture_dir):
    cases = json.loads((fixture_dir / "prompt_golden.json").read_text())
    assert len(cases) == 10
    for case in cases:
        assert build_prompt(case["premise"], case["hypothesis"]) == case["expected"]


def test_prompt_apostrophe_not_escaped():
    got = build_prompt("He left.", "He's gone.")
    assert got == "He left. Question: does this imply 'He's gone.'? Yes or no?"


def test_prompt_rejects_empty():
    with pytest.raises(ValidationError):
        build_prompt("", "x")
    with pytest.raises(ValidationError):
        build_prompt("x", "   ")


# ---------------------------------------------------------------------------
# entail_prob


def test_entail_prob_symmetry_point():
    assert entail_prob(0.0, 0.0) == 0.5


def test_entail_prob_logistic_two():
    # sigma(2) to high precision
    assert abs(entail_prob(2.0, 0.0) - 0.8807970779778823) < 1e-12


def test_entail_prob_extreme_logits_stable():
    assert abs(entail_prob(1000.0, 0.0) - 1.0) < 1e-12
    assert abs(entail_prob(0.0, 1000.0) - 0.0) < 1e-12
    assert abs(entail_prob(10000.0, -10000.0) - 1.0) < 1e-12


def test_entail_prob_rejects_nonfinite():
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValidationError):
            entail_prob(bad, 0.0)
        with pytest.raises(ValidationError):
            entail_prob(0.0, bad)


@given(
    st.floats(min_value=-1e4, max_value=1e4, allow_nan=False),
    st.floats(min_value=-1e4, max_value=1e4, allow_nan=False),
)
@settings(max_examples=300, deadline=None)
def test_entail_prob_complement(a, b):
    assert abs(entail_prob(a, b) + entail_prob(b, a) - 1.0) < 1e-12


@given(
    st.floats(min_value=-8, max_value=4, allow_nan=False),
    st.floats(min_value=1e-6, max_value=4, allow_nan=False),
)
@settings(max_examples=200, deadline=None)
def test_entail_prob_strictly_increasing_in_margin(d, gap):
    # strict where float64 resolves the difference; the saturated tails are
    # covered by the non-decreasing check below
    assert entail_prob(d + gap, 0.0) > entail_prob(d, 0.0)


@given(
    st.floats(min_value=-1e4, max_value=1e4, allow_nan=False),
    st.floats(min_value=0, max_value=1e4, allow_nan=False),
)
@settings(max_examples=200, deadline=None)
def test_entail_prob_monotone_over_full_range(d, gap):
    assert entail_prob(d + gap, 0.0) >= entail_prob(d, 0.0)


def test_entail_prob_matches_high_precision_reference():
    rng = random.Random(0)
    mpmath.mp.dps = 40
    for _ in range(500):
        a = rng.uniform(-1e4, 1e4)
        b = rng.uniform(-1e4, 1e4)
        expected = float(1 / (1 + mpmath.exp(mpmath.mpf(b) - mpmath.mpf(a))))
        assert abs(entail_prob(a, b) - expected) < 1e-12


# ---------------------------------------------------------------------------
# score_pair


def test_overlap_oracle_full_containment(overlap_backend):
    assert score_pair(overlap_backend, "a b c d", "b c") == 1.0


def test_overlap_oracle_disjoint(overlap_backend):
    assert score_pair(overlap_backend, "a b", "x y") == 0.0


def test_overlap_oracle_partial(overlap_backend):
    assert score_pair(overlap_backend, "a b c d", "a b x y") == 0.5


def test_score_pair_deterministic(overlap_backend):
    pairs = [("alpha beta gamma", "beta gamma"), ("p q", "q r s")]
    for premise, hyp in pairs:
        first = score_pair(overlap_backend, premise, hyp)
        second = score_pair(overlap_backend, premise, hyp)
        assert first == second


def _capped_doc():
    """Two single-unit chunks at budget 1: 1 token, then 4 tokens."""
    units = [Unit(index=0, text="one"), Unit(index=1, text="one two three four")]
    return Document(id="d", units=units)


def _text(*sentences):
    return [Claim(id=f"c{i}", doc_id="d", text=t) for i, t in enumerate(sentences)]


def test_score_text_rejects_oversized_chunk():
    backend = ScriptedBackend({}, default=0.5)
    message = "premise has 4 tokens, backend 'scripted' admits 3"
    with pytest.raises(PremiseTooLargeError, match=message):
        score_text(_capped_doc(), _text("h"), 1, backend, WC, cap=3)
    assert backend.calls == 0
    # at the cap is fine
    assert score_text(_capped_doc(), _text("h"), 1, backend, WC, cap=4).aggregate == 0.5


# ---------------------------------------------------------------------------
# score_batch


def test_batch_empty():
    backend = ScriptedBackend({})
    out = score_batch(backend, [])
    assert out.scores == [] and out.failures == []


def test_batch_identical_pairs_hit_cache_once():
    backend = ScriptedBackend({"p": 0.9})
    out = score_batch(backend, [("p", "h")] * 3)
    assert out.scores == [0.9, 0.9, 0.9]
    assert backend.calls == 1


def test_batch_matches_sequential_loop(overlap_backend):
    rng = random.Random(3)
    vocab = ["ant", "bee", "cat", "dog", "elk", "fox"]
    pairs = [
        (
            " ".join(rng.choices(vocab, k=rng.randint(1, 6))),
            " ".join(rng.choices(vocab, k=rng.randint(1, 4))),
        )
        for _ in range(100)
    ]
    sequential = [score_pair(overlap_backend, p, h) for p, h in pairs]
    for workers in (1, 4):
        batch = score_batch(overlap_backend, pairs, max_workers=workers)
        assert batch.ok
        assert batch.scores == sequential


def test_batch_isolates_per_item_failures():
    backend = FlakyBackend(marker="BOOM", score=0.4)
    pairs = [("a", "ok"), ("a", "BOOM"), ("b", "ok2")]
    out = score_batch(backend, pairs)
    assert out.scores == [0.4, None, 0.4]
    assert [f.index for f in out.failures] == [1]
    assert "RuntimeError" in out.failures[0].error


def test_batch_starts_no_pair_of_a_later_group_after_a_failure():
    """With ``ends``, a failure stops the pairs first met in later groups:
    their scores are None and they are no failures. A later group's pair
    first met in the failing group is still scored there."""
    pairs = [("a", "ok"), ("a", "BOOM"), ("b", "ok"),  # group 0
             ("c", "ok"), ("a", "ok"),  # group 1
             ("d", "BOOM")]  # group 2
    backend = FlakyBackend(marker="BOOM", score=0.4)
    out = score_batch(backend, pairs, ends=[3, 5, 6])
    assert backend.calls == 3
    assert out.scores == [0.4, None, 0.4, None, 0.4, None]
    assert out.failures == [BatchFailure(index=1, error="RuntimeError: scripted failure")]
    for workers in (1, 3):
        scores = score_batch(backend, pairs[2:5], max_workers=workers, ends=[1, 2, 3]).scores
        assert scores == score_batch(backend, pairs[2:5]).scores == [0.4, 0.4, 0.4]


class _RecordingFlaky(ScorerBackend):
    """Fails a hypothesis holding BOOM; records every pair, under a lock."""

    name = "recording-flaky"

    def __init__(self):
        self.pairs = []
        self._lock = threading.Lock()

    def evaluate(self, premise, hypothesis):
        with self._lock:
            self.pairs.append((premise, hypothesis))
        if "BOOM" in hypothesis:
            raise RuntimeError("scripted failure")
        return 0.5


def test_grouped_batch_under_thread_stress():
    """More workers than cores, a short switch interval and failures in many
    groups: each distinct pair reaches the backend at most once, every pair
    of the groups up to the first failing one is scored, and each pair's
    score or failure agrees with what the backend did with it."""
    pairs = [(f"p{g}-{i % 7}", "BOOM" if g >= 5 and i == 3 else f"h{i}")
             for g in range(40) for i in range(10)]
    ends = list(range(10, 401, 10))
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            backend = _RecordingFlaky()
            out = score_batch(backend, pairs, max_workers=16, ends=ends)
            assert len(backend.pairs) == len(set(backend.pairs))
            assert out.failures[0].index == 53
            failed = {f.index for f in out.failures}
            for i, (pair, score) in enumerate(zip(pairs, out.scores)):
                if pair not in backend.pairs:
                    assert i >= 60 and score is None and i not in failed
                elif "BOOM" in pair[1]:
                    assert score is None and i in failed
                else:
                    assert score == 0.5 and i not in failed
    finally:
        sys.setswitchinterval(switch)


def test_repeated_failing_pair_fails_at_every_index():
    pairs = [("a", "BOOM"), ("a", "ok"), ("a", "BOOM"), ("b", "ok"), ("a", "BOOM")]
    for workers in (1, 2):
        backend = FlakyBackend(marker="BOOM", score=0.4)
        out = score_batch(backend, pairs, max_workers=workers)
        assert backend.calls == 3
        assert out.scores == [None, 0.4, None, 0.4, None]
        assert out.failures == [BatchFailure(index=i, error="RuntimeError: scripted failure")
                                for i in (0, 2, 4)]


def test_repeated_pairs_keep_their_own_outcomes_by_index():
    """Repeats that are not adjacent, one distinct pair failing: every index
    gets its own pair's score or failure, each distinct pair scored once."""
    pairs = [("a", "h"), ("b", "h"), ("x", "h"), ("a", "h"), ("c", "h"),
             ("b", "h"), ("x", "h"), ("c", "h"), ("a", "h")]
    for workers in (1, 3):
        backend = ScriptedBackend({"a": 0.1, "b": 0.2, "c": 0.3})
        out = score_batch(backend, pairs, max_workers=workers)
        assert backend.calls == 4
        assert out.scores == [0.1, 0.2, None, 0.1, 0.3, 0.2, None, 0.3, 0.1]
        assert out.failures == [BatchFailure(index=i, error="KeyError: \"unscripted premise: 'x'\"")
                                for i in (2, 6)]


def test_batch_raises_on_invalid_inputs_before_scoring():
    backend = ScriptedBackend({}, default=0.5)
    with pytest.raises(PremiseTooLargeError):
        score_text(_capped_doc(), _text("h", "g"), 1, backend, WC, cap=3)
    with pytest.raises(ValidationError):
        score_batch(backend, [("a", "h"), ("a", "   ")])
    assert backend.calls == 0


def test_shared_cache_safe_under_concurrent_batches(overlap_backend):
    rng = random.Random(8)
    vocab = ["ant", "bee", "cat", "dog"]
    pairs = [
        (
            " ".join(rng.choices(vocab, k=rng.randint(1, 5))),
            " ".join(rng.choices(vocab, k=rng.randint(1, 3))),
        )
        for _ in range(200)
    ]
    want = [score_pair(overlap_backend, p, h) for p, h in pairs]
    for _ in range(3):  # repeated concurrent passes over one backend
        out = score_batch(overlap_backend, pairs, max_workers=8)
        assert out.ok
        assert out.scores == want


# ---------------------------------------------------------------------------
# Max-composable diagnostic backend


def test_unit_relevance_backend_is_max_composable():
    rng = random.Random(11)
    scores = [round(rng.random(), 3) for _ in range(12)]
    doc, backend = relevance_fixture("d", scores)
    for _ in range(40):
        a = rng.randrange(0, 12)
        b = rng.randrange(a + 1, 13)
        got = score_pair(backend, premise_text(doc, a, b), "anything")
        assert got == max(scores[a:b])


def test_unit_relevance_backend_rejects_unknown_lines():
    doc, backend = relevance_fixture("d", [0.5, 0.6])
    with pytest.raises(Exception, match="relevance table"):
        backend.evaluate("never seen this line", "h")


def test_unit_relevance_backend_validates_scores():
    doc, _ = relevance_fixture("d", [0.5])
    with pytest.raises(ValidationError):
        UnitRelevanceBackend({"d": [1.5]}, [doc])
    with pytest.raises(ValidationError):
        UnitRelevanceBackend({"d": [0.1, 0.2]}, [doc])
    with pytest.raises(ValidationError):
        UnitRelevanceBackend({"other": [0.1]}, [doc])
