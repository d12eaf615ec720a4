import json
import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chunkcheck.chunking import UNIT_SEPARATOR, make_chunks, premise_text, split_range
from chunkcheck.corpus import Document, Unit, WhitespaceCounter
from chunkcheck.errors import ValidationError
from helpers import make_doc, make_sized_doc
from oracles import make_chunks_reference

WC = WhitespaceCounter()


def test_synthetic_documents_keep_their_texts():
    def word_by_word(doc_id, counts):
        return [" ".join(f"{doc_id}u{i}w{j}" for j in range(c)) for i, c in enumerate(counts)]

    for n, words in ((1, 1), (7, 3), (300, 1), (12, 0), (3, 12)):
        doc = make_doc("d5", n, words)
        assert [u.text for u in doc.units] == word_by_word("d5", [words] * n)
        assert [u.index for u in doc.units] == list(range(n))
    counts = [0, 1, 11, 2, 0, 3]
    doc = make_sized_doc("x", counts)
    assert doc == Document(id="x", units=[Unit(index=i, text=t)
                                          for i, t in enumerate(word_by_word("x", counts))])
    assert doc.unit_token_counts(WC) == counts


# ---------------------------------------------------------------------------
# make_chunks


def test_greedy_packing_example():
    doc = make_sized_doc("d", [200, 200, 200])
    plan = make_chunks(doc, 512, WC)
    assert [(c.start, c.end) for c in plan.chunks] == [(0, 2), (2, 3)]
    assert [c.token_count for c in plan.chunks] == [400, 200]
    assert not any(c.oversized for c in plan.chunks)


def test_whole_document_fits():
    doc = make_sized_doc("d", [10, 20, 30])
    plan = make_chunks(doc, 60, WC)
    assert len(plan.chunks) == 1
    assert plan.chunks[0].unit_range == (0, 3)


def test_oversized_single_unit():
    doc = make_sized_doc("d", [600])
    plan = make_chunks(doc, 512, WC)
    assert len(plan.chunks) == 1
    assert plan.chunks[0].oversized
    assert plan.chunks[0].token_count == 600


def test_budget_below_one_rejected():
    doc = make_sized_doc("d", [2, 2])
    with pytest.raises(ValidationError):
        make_chunks(doc, 0, WC)


def test_chunk_text_matches_premise():
    doc = make_sized_doc("d", [3, 4, 5])
    plan = make_chunks(doc, 7, WC)
    for chunk in plan.chunks:
        assert chunk.text == premise_text(doc, chunk.start, chunk.end)


def test_plan_serializes_to_json():
    doc = make_sized_doc("d", [5, 5])
    plan = make_chunks(doc, 6, WC)
    payload = json.loads(json.dumps(plan.to_dict()))
    assert payload["budget"] == 6
    assert payload["chunks"][0]["unit_range"] == [0, 1]


_sizes = st.lists(st.integers(1, 40), min_size=1, max_size=60)


@given(_sizes, st.integers(1, 120))
@settings(max_examples=150, deadline=None)
def test_chunks_partition_and_reconstruct(sizes, budget):
    doc = make_sized_doc("d", sizes)
    plan = make_chunks(doc, budget, WC)
    assert plan.chunks[0].start == 0
    assert plan.chunks[-1].end == len(sizes)
    for a, b in zip(plan.chunks, plan.chunks[1:]):
        assert a.end == b.start
    rebuilt = UNIT_SEPARATOR.join(c.text for c in plan.chunks)
    assert rebuilt == premise_text(doc, 0, len(sizes))
    for c in plan.chunks:
        assert c.token_count == sum(sizes[c.start : c.end])
        if c.end - c.start > 1:
            assert c.token_count <= budget


@given(_sizes, st.integers(1, 80), st.integers(0, 80))
@settings(max_examples=150, deadline=None)
def test_budget_monotonicity(sizes, budget, extra):
    doc = make_sized_doc("d", sizes)
    n_small = len(make_chunks(doc, budget, WC).chunks)
    n_large = len(make_chunks(doc, budget + extra, WC).chunks)
    assert n_large <= n_small


@given(st.lists(st.integers(0, 40), min_size=1, max_size=60), st.integers(1, 60))
@settings(max_examples=300, deadline=None)
@example([0, 0, 50, 0, 3, 60, 0], 5)
@example([10, 0], 5)
def test_make_chunks_matches_unit_by_unit_packing(sizes, budget):
    # Zero-token units, and units over the budget (budget < 40).
    doc = make_sized_doc("d", sizes)
    assert make_chunks(doc, budget, WC) == make_chunks_reference(doc, budget, WC)


# ---------------------------------------------------------------------------
# split_range


def test_split_uniform_halves():
    doc = make_sized_doc("d", [4] * 8)
    assert split_range(doc, 0, 8, 2, WC) == [(0, 4), (4, 8)]


def test_split_single_unit_terminates():
    doc = make_sized_doc("d", [4])
    assert split_range(doc, 0, 1, 2, WC) == [(0, 1)]


def test_split_fewer_units_than_branches():
    doc = make_sized_doc("d", [1, 1, 1])
    assert split_range(doc, 0, 3, 5, WC) == [(0, 1), (1, 2), (2, 3)]


def test_split_skewed_sizes_matches_imbalance_oracle():
    sizes = [100, 100, 100, 700]
    doc = make_sized_doc("d", sizes)
    got = split_range(doc, 0, 4, 2, WC)
    # oracle: exhaustive search over the split point minimizing the larger
    # side's deviation from total/2
    total = sum(sizes)
    best_cut = min(
        range(1, 4),
        key=lambda cut: max(abs(sum(sizes[:cut]) - total / 2), abs(sum(sizes[cut:]) - total / 2)),
    )
    assert got == [(0, best_cut), (best_cut, 4)]
    assert got == [(0, 3), (3, 4)]


def test_split_rejects_bad_inputs():
    doc = make_sized_doc("d", [1, 1])
    with pytest.raises(ValidationError):
        split_range(doc, 0, 0, 2, WC)
    with pytest.raises(ValidationError):
        split_range(doc, 0, 2, 1, WC)


@given(_sizes, st.integers(2, 6))
@settings(max_examples=200, deadline=None)
def test_split_partitions_with_balance_bound(sizes, k):
    doc = make_sized_doc("d", sizes)
    parts = split_range(doc, 0, len(sizes), k, WC)
    assert len(parts) <= k
    assert parts[0][0] == 0 and parts[-1][1] == len(sizes)
    for (a1, b1), (a2, b2) in zip(parts, parts[1:]):
        assert b1 == a2
    assert all(b > a for a, b in parts)
    if len(sizes) > k:
        total = sum(sizes)
        biggest_unit = max(sizes)
        for a, b in parts:
            assert abs(sum(sizes[a:b]) - total / k) <= biggest_unit


@given(st.integers(1, 400), st.sampled_from([2, 3, 5]))
@settings(max_examples=120, deadline=None)
def test_recursive_split_depth_on_uniform_units(n, k):
    doc = make_doc("d", n, words_per_unit=2)
    depth = 0
    start, end = 0, n
    while end - start > 1:
        parts = split_range(doc, start, end, k, WC)
        assert len(parts) >= 2
        start, end = max(parts, key=lambda r: r[1] - r[0])
        depth += 1
    limit = math.ceil(math.log(n, k)) + 1 if n > 1 else 0
    assert depth <= limit


def test_recursive_split_terminates_on_random_sizes():
    rng = random.Random(7)
    for _ in range(50):
        sizes = [rng.randint(1, 50) for _ in range(rng.randint(1, 80))]
        doc = make_sized_doc("d", sizes)
        frontier = [(0, len(sizes))]
        rounds = 0
        while frontier:
            rounds += 1
            assert rounds <= len(sizes) + 1
            nxt = []
            for a, b in frontier:
                if b - a <= 1:
                    continue
                parts = split_range(doc, a, b, 2, WC)
                assert len(parts) == 2
                nxt.extend(parts)
            frontier = nxt
