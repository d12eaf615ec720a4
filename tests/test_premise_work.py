"""Premise-side work is done once: prefix-sum splitting and exact-start
widening return what their scan-based references return, the overlap
backend's words are the regex's and its word memo is per instance and changes
no score, input checks and
the premise cap raise what pair-by-pair checks raise, and call counts show
each piece of work happening once."""

import random
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import chunkcheck.backends as backends
import chunkcheck.engine as engine
import chunkcheck.retrieval as retrieval
from chunkcheck.backends import LexicalOverlapBackend, _words
from chunkcheck.chunking import make_chunks, premise_text, split_range
from chunkcheck.cli import main
from chunkcheck.corpus import (
    Claim,
    Document,
    Unit,
    VocabCounter,
    WhitespaceCounter,
    load_corpus,
)
from chunkcheck.engine import score_text
from chunkcheck.errors import ValidationError
from chunkcheck.retrieval import _split_under_cap, brute_force_retrieve, retrieve
from chunkcheck.scoring import score_batch

from helpers import make_sized_doc
from oracles import (
    check_pairs_reference,
    overlap_words_reference,
    split_range_reference,
    split_under_cap_reference,
)

WC = WhitespaceCounter()
_VOCAB = Path(__file__).parents[1] / "data" / "vocab" / "mini_vocab.txt"
MINI_VOCAB = VocabCounter(_VOCAB)

# Zero-token units included; sizes up to 40 against caps from 1 put single
# units over the cap and caps below the largest unit.
_counts = st.lists(st.integers(0, 40), min_size=1, max_size=80)


def _subrange(data, n):
    start = data.draw(st.integers(0, n - 1), label="start")
    end = data.draw(st.integers(start + 1, n), label="end")
    return start, end


@given(_counts, st.integers(2, 5), st.data())
@settings(max_examples=300, deadline=None)
@example([0, 0, 0, 0, 0], 2, None)
def test_split_range_matches_reference(counts, k, data):
    doc = make_sized_doc("d", counts)
    start, end = (0, len(counts)) if data is None else _subrange(data, len(counts))
    assert split_range(doc, start, end, k, WC) == split_range_reference(doc, start, end, k, WC)


@given(_counts, st.integers(2, 5), st.one_of(st.none(), st.integers(1, 120)), st.data())
@settings(max_examples=400, deadline=None)
@example([50, 1, 1, 1, 50, 1], 2, 10, None)
@example([0, 0, 3, 0, 0, 0, 0], 2, 1, None)
@example([7] * 60, 2, 6, None)
def test_split_under_cap_matches_scan_from_k(counts, k, cap, data):
    doc = make_sized_doc("d", counts)
    start, end = (0, len(counts)) if data is None else _subrange(data, len(counts))
    got = _split_under_cap(doc, start, end, k, WC, cap)
    assert got == split_under_cap_reference(doc, start, end, k, WC, cap)


@given(_counts, st.integers(2, 5), st.integers(-20, 40), st.data())
@settings(max_examples=300, deadline=None)
def test_a_range_within_the_cap_is_split_at_k(counts, k, slack, data):
    """A range whose tokens fit the cap returns its split at k at once; the
    widening scan from k returns the same parts. Caps around the range's
    token count reach both sides of the shortcut."""
    doc = make_sized_doc("d", counts)
    start, end = _subrange(data, len(counts))
    cap = max(1, sum(counts[start:end]) + slack)
    got = _split_under_cap(doc, start, end, k, WC, cap)
    assert got == split_under_cap_reference(doc, start, end, k, WC, cap)
    if sum(counts[start:end]) <= cap:
        assert got == split_range(doc, start, end, k, WC)


_text = st.lists(
    st.sampled_from(["alpha", "Beta", "beta", "gamma's", "x1", "--", "delta."]), max_size=10
).map(" ".join)


@given(st.lists(st.tuples(_text, _text), min_size=1, max_size=20))
@settings(max_examples=100, deadline=None)
def test_overlap_memo_scores_as_unmemoised_formula(pairs):
    first, second = LexicalOverlapBackend(), LexicalOverlapBackend()
    for premise, hypothesis in pairs:
        hyp = overlap_words_reference(hypothesis)
        want = len(hyp & overlap_words_reference(premise)) / len(hyp) if hyp else 0.0
        assert first.evaluate(premise, hypothesis) == want
        assert second.evaluate(premise, hypothesis) == want


# ASCII letters, digits and separators; characters whose lower case holds ASCII
# (U+0130 İ lowers to i + U+0307, the Kelvin sign to k), capital and final
# sigma, a letter that does not lower (ß), fullwidth letters, Arabic-Indic
# digits, an emoji and lone surrogates.
_mixed = st.text(st.one_of(
    st.sampled_from("abcxyzABCXYZ0189"),
    st.sampled_from("' \n\r\t.-İ\u212aΣσςßＡａ٣😀\ud800\udc80\udfff"),
))


@given(_mixed, _mixed)
@settings(max_examples=500, deadline=None)
@example("odos ΟΔΟΣ", "ΟΔΟΣ odos")
@example("İ\u212aa", "i\u212a")
def test_overlap_words_match_the_regex(premise, hypothesis):
    assert _words(premise) == overlap_words_reference(premise)
    hyp = overlap_words_reference(hypothesis)
    want = len(hyp & overlap_words_reference(premise)) / len(hyp) if hyp else 0.0
    assert LexicalOverlapBackend().evaluate(premise, hypothesis) == want


@pytest.mark.parametrize("chars", [
    [chr(code) for code in range(128)],
    ["\u0130", "\u212a", "Σ", "σ", "ς"],  # the only non-ASCII lowering to ASCII; sigma's forms
], ids=["ascii", "lowering-and-sigma"])
def test_overlap_words_on_single_characters(chars):
    """Each character alone and between two letters, and capital sigma at a
    word's end, where it lowers to final sigma."""
    for c in chars:
        for text in (c, "a" + c + "b", "ΑΣ" + c, "x" + c + "Σ y"):
            assert _words(text) == overlap_words_reference(text), repr(text)


def _count_words(monkeypatch) -> Counter:
    seen = Counter()

    def counting(text):
        seen[text] += 1
        return _words(text)

    monkeypatch.setattr(backends, "_words", counting)
    return seen


def test_overlap_instances_share_no_memo(monkeypatch):
    seen = _count_words(monkeypatch)
    first, second = LexicalOverlapBackend(), LexicalOverlapBackend()
    for backend in (first, first, second, second):
        backend.evaluate("the cat sat on the mat", "a cat")
    assert seen["the cat sat on the mat"] == 2  # once per instance
    assert seen["a cat"] == 2  # hypotheses share the memo


def test_score_run_tokenises_each_premise_once(fixture_dir, tmp_path, monkeypatch):
    seen = _count_words(monkeypatch)
    docs, claims = fixture_dir / "documents.jsonl", fixture_dir / "claims.jsonl"
    out = tmp_path / "r.json"
    assert main(["score", "--documents", str(docs), "--claims", str(claims),
                 "--budget", "16", "--out", str(out)]) == 0
    corpus = load_corpus(docs, claims)
    premises = {c.text for d in corpus.documents for c in make_chunks(d, 16, WC).chunks}
    texts = premises | {c.text for c in corpus.claims}
    assert seen == Counter(texts)  # each distinct premise and hypothesis once


def test_capped_retrieval_splits_once_per_level(monkeypatch):
    rng = random.Random(7)
    doc = make_sized_doc("d", [rng.randint(8, 18) for _ in range(600)])
    claim = Claim(id="c", doc_id="d", text=" ".join(doc.units[417].text.split()[:5]))
    calls = []
    split = retrieval.split_range

    def counted(*args):
        calls.append(args)
        return split(*args)

    monkeypatch.setattr(retrieval, "split_range", counted)
    trace = retrieve(doc, claim, LexicalOverlapBackend(), k=2, budget=512, counter=WC)
    assert len(trace.levels[0].candidate_ranges) > 2  # the cap widened the root
    assert len(calls) == len(trace.levels)
    assert trace.result_unit == 417

    monkeypatch.setattr(retrieval, "_split_under_cap", split_under_cap_reference)
    reference = retrieve(doc, claim, LexicalOverlapBackend(), k=2, budget=512, counter=WC)
    assert reference.to_dict() == trace.to_dict()


def _first_error(check, *args):
    try:
        check(*args)
    except ValidationError as exc:
        return type(exc), str(exc)
    return None


def _reference_backend(backend, cap):
    """What ``check_pairs_reference`` reads: a name, a cap and its counter."""
    return SimpleNamespace(name=backend.name, max_premise_tokens=cap, budget_counter=WC)


_check_text = st.sampled_from(["", " ", "a", "a b", "a b c", "a b c d e"])


@given(st.lists(st.tuples(_check_text, _check_text), max_size=12))
@settings(max_examples=400, deadline=None)
def test_batch_checks_raise_the_pairwise_first_error(pairs):
    backend = LexicalOverlapBackend()
    reference = _reference_backend(backend, None)
    want = _first_error(check_pairs_reference, reference, list(dict.fromkeys(pairs)))
    assert _first_error(score_batch, backend, pairs) == want


_unit_text = st.sampled_from([" ", "a", "a b", "a b c", "a b c d e", "a b c d e f g h"])


@given(
    st.lists(_unit_text, min_size=1, max_size=10),
    st.lists(_check_text, min_size=1, max_size=3),
    st.integers(1, 8),
    st.integers(1, 12),
)
@settings(max_examples=300, deadline=None)
def test_cap_checks_raise_the_pairwise_first_error(unit_texts, claim_texts, budget, cap):
    """score_text, retrieve and brute force raise what the pair-by-pair
    reference raises on the pairs of the batch that fails, or nothing."""
    doc = Document(id="d", units=[Unit(index=i, text=t) for i, t in enumerate(unit_texts)])
    claims = [Claim(id=f"c{i}", doc_id="d", text=t) for i, t in enumerate(claim_texts)]
    backend = LexicalOverlapBackend()
    runs = [
        (engine, lambda: score_text(doc, claims, budget, backend, WC, cap=cap)),
        (retrieval, lambda: retrieve(doc, claims[0], backend, budget=cap, counter=WC)),
        (retrieval, lambda: brute_force_retrieve(doc, claims[0], backend, budget=cap, counter=WC)),
    ]
    for module, run in runs:
        got = _first_error(run)
        # The reference checks each batch's pairs where the batch is scored,
        # with the cap check under test switched off.
        score = module.score_batch

        def checked(backend, pairs, **kwargs):
            check_pairs_reference(_reference_backend(backend, cap), pairs)
            return score(backend, pairs, **kwargs)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(module, "score_batch", checked)
            mp.setattr(module, "check_cap", lambda *args: None)
            want = _first_error(run)
        assert got == want


_WORDS = ["the", "The", "cat", "unbelievable", "Unbelievable", "tokens", "Tokens",
          "hello,", "world.", "xyz", "ümlaut", "a-b", "12"]
_unit = st.tuples(
    st.one_of(st.none(), st.sampled_from(["Mara", "Dr. Who", "ANNA"])),
    st.lists(st.sampled_from(_WORDS), min_size=1, max_size=6),
    st.sampled_from([" ", "  ", "\t"]),
)


@given(st.lists(_unit, min_size=1, max_size=12),
       st.sampled_from([WC, MINI_VOCAB]), st.data())
@settings(max_examples=300, deadline=None)
def test_shipped_counters_count_a_premise_as_its_unit_sum(units, counter, data):
    """The cap check reads P[b] - P[a] from the prefix sums instead of
    counting the joined premise; both shipped counters agree, because the
    newline between unit lines is whitespace to ``str.split``."""
    doc = Document(id="d", units=[
        Unit(index=i, text=sep.join(words), speaker=speaker)
        for i, (speaker, words, sep) in enumerate(units)
    ])
    start, end = _subrange(data, len(units))
    prefix = doc._token_prefix_sums(counter)
    assert counter.count(premise_text(doc, start, end)) == prefix[end] - prefix[start]


def test_capped_runs_count_unit_lines_only(monkeypatch):
    rng = random.Random(11)
    doc = make_sized_doc("d", [rng.randint(8, 18) for _ in range(600)])
    claim = Claim(id="c", doc_id="d", text=" ".join(doc.units[417].text.split()[:5]))
    counted = Counter()
    count = WhitespaceCounter.count

    def counting(self, text):
        counted[text] += 1
        return count(self, text)

    monkeypatch.setattr(WhitespaceCounter, "count", counting)
    counter, backend = WhitespaceCounter(), LexicalOverlapBackend()
    assert score_text(doc, [claim], 512, backend, counter, cap=512).aggregate > 0
    assert retrieve(doc, claim, backend, budget=512, counter=counter).result_unit == 417
    assert brute_force_retrieve(doc, claim, backend, budget=512, counter=counter).unit == 417
    assert counted == Counter(doc._unit_lines)  # once per unit line, never a premise
