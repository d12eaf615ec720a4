import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chunkcheck.metrics as metrics
from chunkcheck.errors import ValidationError
from chunkcheck.metrics import (
    EvalReport,
    _inversions,
    _ranks,
    calibration_curve,
    candidate_thresholds,
    ece,
    evaluate_scores,
    f1_macro_optimal,
    kendall_tau,
    macro_f1,
    pearson,
    retrieval_recall,
    roc_auc,
)
from helpers import drawn_ints, drawn_picks
from oracles import (
    auc_pair_counting,
    best_macro_f1_by_cuts,
    calibration_curve_reference,
    candidate_thresholds_reference,
    curve_by_hand,
    ece_by_hand,
    ece_reference,
    f1_macro_optimal_reference,
    inversions_reference,
    kendall_tau_reference,
    macro_f1_naive,
    pearson_naive,
    roc_auc_reference,
    tau_b_enumeration,
)

# ---------------------------------------------------------------------------
# roc_auc


def test_roc_auc_worked_example():
    # pair counting by hand: 3 of the 4 positive-negative pairs are ordered
    assert roc_auc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1]) == pytest.approx(0.75)


def test_roc_auc_perfect_separation():
    assert roc_auc([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == 1.0


def test_roc_auc_random_labels_near_half():
    rng = random.Random(17)
    n = 10_000
    scores = [rng.random() for _ in range(n)]
    labels = [rng.random() < 0.5 for _ in range(n)]
    assert abs(roc_auc(scores, labels) - 0.5) < 0.02


def test_roc_auc_tie_handling():
    assert roc_auc([0.5, 0.5], [0, 1]) == 0.5
    assert roc_auc([0.5, 0.5, 0.9], [0, 1, 1]) == pytest.approx(0.75)


def test_roc_auc_complement_symmetry():
    rng = random.Random(4)
    scores = [rng.random() for _ in range(40)]
    labels = [rng.random() < 0.4 for _ in range(40)]
    if all(labels) or not any(labels):
        labels[0] = not labels[0]
    flipped = [not y for y in labels]
    assert roc_auc(scores, labels) == pytest.approx(1.0 - roc_auc(scores, flipped))


def test_roc_auc_single_class_rejected():
    with pytest.raises(ValidationError):
        roc_auc([0.1, 0.2], [1, 1])


# ---------------------------------------------------------------------------
# Correlations


def test_correlations_on_identity_and_negation():
    x = [1.0, 2.0, 3.0, 4.0]
    assert pearson(x, x) == pytest.approx(1.0)
    assert pearson(x, [-v for v in x]) == pytest.approx(-1.0)
    assert kendall_tau(x, x) == pytest.approx(1.0)
    assert kendall_tau(x, [-v for v in x]) == pytest.approx(-1.0)


def test_kendall_tau_worked_example():
    # one discordant pair out of six: (5 - 1) / 6
    assert kendall_tau([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(2 * (5 - 1) / (4 * 3))


def test_correlation_input_validation():
    with pytest.raises(ValidationError):
        pearson([1.0, 1.0], [0.0, 1.0])
    with pytest.raises(ValidationError):
        pearson([1.0], [0.0])
    with pytest.raises(ValidationError):
        kendall_tau([2.0, 2.0], [0.0, 1.0])


@given(
    st.lists(st.floats(0, 1, allow_nan=False), min_size=3, max_size=30),
    st.sampled_from([math.sqrt, lambda v: v**3, lambda v: 2 * v + 1, math.exp]),
)
@settings(max_examples=80, deadline=None)
def test_rank_metrics_invariant_under_monotone_transforms(scores, transform):
    labels = [i % 2 == 0 for i in range(len(scores))]
    mapped = [transform(s) for s in scores]
    if len(set(scores)) != len(set(mapped)):
        return  # transform collapsed distinct values through rounding
    assert roc_auc(mapped, labels) == pytest.approx(roc_auc(scores, labels), abs=1e-12)
    if len(set(scores)) > 1 and len(set(labels)) > 1:
        assert kendall_tau(mapped, [float(v) for v in labels]) == pytest.approx(
            kendall_tau(scores, [float(v) for v in labels]), abs=1e-9
        )


@given(
    st.lists(st.integers(-50, 50).map(float), min_size=3, max_size=30),
    st.floats(0.1, 4, allow_nan=False),
    st.floats(-3, 3, allow_nan=False),
)
@settings(max_examples=80, deadline=None)
def test_pearson_invariant_under_positive_affine(x, a, b):
    if len(set(x)) < 2:
        return
    y = [i + (1 if i % 3 == 0 else -1) * 0.5 for i in range(len(x))]
    assert pearson([a * v + b for v in x], y) == pytest.approx(pearson(x, y), abs=1e-9)


# ---------------------------------------------------------------------------
# Optimal-threshold macro F1


def test_f1_macro_optimal_worked_example():
    f1, threshold = f1_macro_optimal([0.2, 0.6, 0.9], [0, 1, 1])
    assert f1 == pytest.approx(1.0)
    assert threshold == pytest.approx(0.4)


def test_f1_macro_optimal_identical_scores():
    scores = [0.5, 0.5, 0.5, 0.5]
    labels = [0, 1, 1, 1]
    f1, _ = f1_macro_optimal(scores, labels)
    assert f1 == pytest.approx(best_macro_f1_by_cuts(scores, labels))


def test_f1_macro_optimal_separable():
    f1, threshold = f1_macro_optimal([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1])
    assert f1 == 1.0
    assert threshold == pytest.approx(0.5)


def test_f1_threshold_is_lowest_attaining_max():
    # anti-correlated scores: predicting all-positive (below-min sentinel) and
    # all-negative (above-max sentinel) tie at macro F1 = 1/3; the lower
    # threshold must win
    scores = [0.2, 0.8]
    labels = [1, 0]
    f1, threshold = f1_macro_optimal(scores, labels)
    assert f1 == pytest.approx(1 / 3)
    assert threshold == pytest.approx(0.2 - 0.5)


def test_candidate_thresholds_cover_all_cuts():
    cands = candidate_thresholds([0.2, 0.6, 0.9])
    assert cands == [pytest.approx(-0.3), pytest.approx(0.4), pytest.approx(0.75),
                     pytest.approx(1.4)]


_EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.0, 0.5,
                float(np.nextafter(0.5, 1.0)), 1.7976931348623157e308, -1.7976931348623157e308]
_finite = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.sampled_from(_EDGE_FLOATS))


@given(st.one_of(
    st.lists(_finite, min_size=1, max_size=60),
    st.lists(st.sampled_from(_EDGE_FLOATS), min_size=1, max_size=12),  # duplicates, both zeros
))
@settings(max_examples=500, deadline=None)
def test_candidate_thresholds_equal_the_set_based_reference(scores):
    got = candidate_thresholds(scores)
    want = candidate_thresholds_reference(scores)
    assert all(type(v) is float for v in got)
    assert [v.hex() for v in got] == [v.hex() for v in want]  # signed zeros included


def test_f1_value_invariant_under_monotone_transform():
    scores = [0.05, 0.3, 0.32, 0.7, 0.71, 0.9]
    labels = [0, 0, 1, 0, 1, 1]
    f1_raw, t_raw = f1_macro_optimal(scores, labels)
    mapped = [math.sqrt(s) for s in scores]
    f1_mapped, t_mapped = f1_macro_optimal(mapped, labels)
    assert f1_raw == pytest.approx(f1_mapped)
    # the chosen thresholds induce the same prediction vector
    assert [s >= t_raw for s in scores] == [m >= t_mapped for m in mapped]


# ---------------------------------------------------------------------------
# Calibration


def test_ece_worked_example():
    report = ece([0.9, 0.8, 0.3, 0.1], [1, 1, 0, 0], bins=2)
    assert report.ece == pytest.approx(0.475)
    lo, hi = report.bins
    assert (lo.size, hi.size) == (2, 2)
    assert lo.conf == pytest.approx(0.2)
    assert lo.acc == pytest.approx(1.0)
    assert hi.conf == pytest.approx(0.85)
    assert hi.acc == pytest.approx(1.0)


def test_ece_perfect_confident_classifier():
    report = ece([1.0, 1.0, 1.0], [1, 1, 1], bins=10)
    assert report.ece == 0.0


def test_ece_empty_bins_contribute_zero():
    report = ece([0.05, 0.95], [0, 1], bins=10)
    assert sum(b.size for b in report.bins) == 2
    assert sum(1 for b in report.bins if b.size) == 2
    # bin [0,.1): acc 1 (correct negative), conf .05 -> gap .95, weight 1/2
    # bin [.9,1]: acc 1, conf .95 -> gap .05, weight 1/2
    assert report.ece == pytest.approx(0.95 / 2 + 0.05 / 2)
    assert all(b.acc == 0.0 and b.conf == 0.0 for b in report.bins if b.size == 0)


def test_ece_validates_inputs():
    with pytest.raises(ValidationError):
        ece([1.2], [1], bins=10)
    with pytest.raises(ValidationError):
        ece([0.5], [1], bins=0)


def test_ece_rejects_a_non_finite_decision_threshold():
    for threshold in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValidationError, match="decision_threshold must be finite"):
            ece([0.1, 0.9], [True, False], decision_threshold=threshold)


@pytest.mark.parametrize("bins", [2.5, True, 2.0, "2"], ids=["float", "bool", "whole-float", "str"])
def test_bin_count_must_be_an_int(bins):
    for calibration in (ece, calibration_curve):
        with pytest.raises(ValidationError, match="bin count must be an int >= 1"):
            calibration([0.1, 0.9], [True, False], bins=bins)


def test_top_bin_right_closed():
    report = ece([1.0], [1], bins=10)
    assert report.bins[-1].size == 1


def test_calibration_curve_basics():
    pts = calibration_curve([0.1, 0.2, 0.8], [0, 0, 0], bins=2)
    assert all(p.frac_positive == 0.0 for p in pts)
    pts = calibration_curve([0.1, 0.9, 0.4], [0, 1, 1], bins=1)
    assert len(pts) == 1
    assert pts[0].mean_prob == pytest.approx((0.1 + 0.9 + 0.4) / 3)
    assert pts[0].frac_positive == pytest.approx(2 / 3)
    assert pts[0].size == 3


def test_calibration_curve_on_calibrated_synthetic_data():
    rng = np.random.default_rng(1234)
    n = 100_000
    probs = rng.uniform(0.0, 1.0, size=n)
    labels = rng.uniform(size=n) < probs
    for point in calibration_curve(probs, labels, bins=10):
        assert abs(point.mean_prob - point.frac_positive) < 0.02


# ---------------------------------------------------------------------------
# Oracle battery: implementations vs naive formulas


def test_metrics_match_naive_oracles_on_random_instances():
    rng = random.Random(99)
    for _ in range(300):
        n = rng.randint(2, 50)
        scores = [round(rng.random(), rng.choice([1, 2, 6])) for _ in range(n)]
        labels = [rng.random() < 0.5 for _ in range(n)]
        if all(labels) or not any(labels):
            labels[0] = not labels[0]
        y = [1.0 if v else 0.0 for v in labels]

        assert roc_auc(scores, labels) == pytest.approx(
            auc_pair_counting(scores, labels), abs=1e-9
        )
        if len(set(scores)) > 1:
            assert pearson(scores, y) == pytest.approx(pearson_naive(scores, y), abs=1e-9)
            assert kendall_tau(scores, y) == pytest.approx(
                tau_b_enumeration(scores, y), abs=1e-9
            )
        f1, threshold = f1_macro_optimal(scores, labels)
        assert f1 == pytest.approx(best_macro_f1_by_cuts(scores, labels), abs=1e-9)
        preds = [s >= threshold for s in scores]
        assert macro_f1(preds, labels) == pytest.approx(f1, abs=1e-9)

        bins = rng.choice([1, 2, 5, 10])
        report = ece(scores, labels, bins=bins)
        assert report.ece == pytest.approx(ece_by_hand(scores, labels, bins), abs=1e-9)
        got_curve = [
            (p.mean_prob, p.frac_positive, p.size)
            for p in calibration_curve(scores, labels, bins=bins)
        ]
        want_curve = curve_by_hand(scores, labels, bins)
        assert len(got_curve) == len(want_curve)
        for got, want in zip(got_curve, want_curve):
            assert got[0] == pytest.approx(want[0], abs=1e-9)
            assert got[1] == pytest.approx(want[1], abs=1e-9)
            assert got[2] == want[2]


def test_macro_f1_against_naive():
    rng = random.Random(31)
    for _ in range(100):
        n = rng.randint(1, 30)
        preds = [rng.random() < 0.5 for _ in range(n)]
        labels = [rng.random() < 0.5 for _ in range(n)]
        assert macro_f1(preds, labels) == pytest.approx(
            macro_f1_naive(preds, labels), abs=1e-12
        )


# ---------------------------------------------------------------------------
# O(n log n) kernels vs the quadratic reference kernels, float for float


_UNIT = st.floats(0, 1, allow_nan=False)
_ONE_BITS = int(np.float64(1.0).view(np.uint64))  # bit patterns 0 .. this: the floats in [0, 1]
_UNIT_EDGES = [v for v in _EDGE_FLOATS if 0.0 <= v <= 1.0]


def _unit_floats(draw, n: int) -> list[float]:
    """n floats in [0, 1] from one ``drawn_ints`` draw, where ``st.floats(0, 1)``
    would take n draws, one per float. The top 4 bits of each word
    pick: (14 of 16) a uniform double in [0, 1), as distinct as continuous
    scores are; (1 of 16) the float whose bit pattern is the word modulo
    1.0's, so that every float in [0, 1] can come out, subnormals and 1.0
    included; (1 of 16) one of the edge floats in [0, 1] or of up to four
    values of ``st.floats(0, 1)``."""
    pool = np.array(_UNIT_EDGES + draw(st.lists(_UNIT, min_size=1, max_size=4)))
    words = drawn_ints(draw, n, "<u8")
    kind = words >> np.uint64(60)
    uniform = (words & np.uint64(2**53 - 1)) * 2.0**-53
    any_float = (words % np.uint64(_ONE_BITS + 1)).view(np.float64)
    pooled = pool[words % np.uint64(len(pool))]
    return np.select([kind < 14, kind == 14], [uniform, any_float], pooled).tolist()


def _bools(draw, n: int) -> list[bool]:
    return (drawn_ints(draw, n, "u1") & 1).astype(bool).tolist()


@st.composite
def rank_inputs(draw):
    """Scores, binary labels (both classes) and a y for tau: heavy ties,
    repeated values, adjacent doubles, or continuous values."""
    n = draw(st.sampled_from(range(2, 201)))  # st.integers draws n = 2 far more often
    shape = draw(st.sampled_from(["1dp", "2dp", "repeated", "adjacent", "continuous"]))
    if shape in ("1dp", "2dp"):
        digits = 1 if shape == "1dp" else 2
        scores = [round(v, digits) for v in _unit_floats(draw, n)]
    elif shape == "repeated":
        scores = drawn_picks(draw, draw(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=5)), n)
    elif shape == "adjacent":  # (a + b) / 2 rounds onto a or b
        run = [draw(_UNIT)]
        while len(run) < 4:
            run.append(float(np.nextafter(run[-1], np.inf)))
        scores = drawn_picks(draw, run, n)
    else:
        scores = _unit_floats(draw, n)
    labels = _bools(draw, n)
    if all(labels) or not any(labels):
        labels[0] = not labels[0]
    y_kind = draw(st.sampled_from(["binary", "1dp", "continuous"]))
    if y_kind == "binary":
        y = [1.0 if v else 0.0 for v in labels]
    else:
        y = _unit_floats(draw, n)
        if y_kind == "1dp":
            y = [round(v, 1) for v in y]
    return scores, labels, y


@given(rank_inputs())
@settings(max_examples=300, deadline=None)
def test_rank_kernels_equal_the_reference_kernels(case):
    scores, labels, y = case
    assert roc_auc(scores, labels) == roc_auc_reference(scores, labels)
    assert f1_macro_optimal(scores, labels) == f1_macro_optimal_reference(scores, labels)
    if len(set(scores)) > 1 and len(set(y)) > 1:
        assert kendall_tau(scores, y) == kendall_tau_reference(scores, y)
    else:
        with pytest.raises(ValidationError):
            kendall_tau(scores, y)


@st.composite
def ranks(draw):
    """Ranks 0 <= r < m, with m one, two (binary labels), small, or n."""
    n = draw(st.sampled_from(range(301)))
    kind = draw(st.sampled_from(["one", "two", "small", "n"]))
    m = {"one": 1, "two": 2, "n": max(n, 1)}.get(kind) or draw(st.integers(3, 17))
    return (drawn_ints(draw, n, "<u2") % m).astype(np.intp), m


@given(ranks())
@settings(max_examples=300, deadline=None)
def test_inversions_equal_the_merge_sort_reference(case):
    r, m = case
    got = _inversions(r, m)
    assert type(got) is int
    assert got == inversions_reference(r, m) == int(np.triu(r[:, None] > r[None, :]).sum())


@st.composite
def calibration_inputs(draw):
    """Probabilities, labels, 1-20 bins and any decision threshold. The
    probabilities are continuous, on and beside bin edges (0.0 and 1.0
    included), or a few values that leave most bins empty."""
    n = draw(st.sampled_from(range(301)))
    bins = draw(st.integers(1, 20))
    shape = draw(st.sampled_from(["continuous", "edges", "few"]))
    if shape == "continuous":
        probs = _unit_floats(draw, n)
    elif shape == "edges":
        edges = [k / bins for k in range(bins + 1)]
        beside = [float(np.nextafter(v, t)) for v in edges for t in (0, 1)]
        probs = drawn_picks(draw, edges + beside, n)
    else:
        probs = drawn_picks(draw, draw(st.lists(_UNIT, min_size=1, max_size=3)), n)
    threshold = draw(st.one_of(st.floats(), st.sampled_from([0.0, 0.5, 1.0])))
    return probs, _bools(draw, n), bins, threshold


@given(calibration_inputs())
@settings(max_examples=300, deadline=None)
def test_calibration_equals_the_per_bin_mask_reference(case):
    probs, labels, bins, threshold = case
    if math.isfinite(threshold):
        assert ece(probs, labels, bins, threshold) == ece_reference(probs, labels, bins, threshold)
    else:
        with pytest.raises(ValidationError, match="decision_threshold"):
            ece(probs, labels, bins, threshold)
    assert calibration_curve(probs, labels, bins) == calibration_curve_reference(
        probs, labels, bins
    )


def test_f1_threshold_when_a_midpoint_rounds_onto_a_score():
    a = 0.1
    b = float(np.nextafter(a, 1.0))
    assert (a + b) / 2.0 in (a, b)
    scores = [a, b, b, a, 0.9]
    labels = [0, 1, 1, 0, 1]
    assert f1_macro_optimal(scores, labels) == f1_macro_optimal_reference(scores, labels)
    # the candidate between a and b is a score itself, so `s >= t` takes in
    # every score equal to it; the reported F1 is that of those predictions
    f1, threshold = f1_macro_optimal(scores, labels)
    assert macro_f1([s >= threshold for s in scores], labels) == f1


def test_rank_metrics_at_1e5_claims_stay_small_and_agree_with_oracles():
    rng = np.random.default_rng(100_000)
    n = 100_000
    scores = np.round(rng.random(n), 4)
    labels = rng.random(n) < scores
    y = labels.astype(float)
    tracemalloc.start()
    try:
        auc = roc_auc(scores, labels)
        tau = kendall_tau(scores, y)
        f1, threshold = f1_macro_optimal(scores, labels)
        calibration = ece(scores, labels)
        curve = calibration_curve(scores, labels)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20  # one n x n sign matrix would take 80 GB
    assert calibration == ece_reference(scores, labels)
    assert curve == calibration_curve_reference(scores, labels)

    # with binary y, tau-b's numerator is n_pos * n_neg * (2 AUC - 1) and
    # its y-side factor is n_pos * n_neg
    n_pos = int(labels.sum())
    n_neg = n - n_pos
    _, counts = np.unique(scores, return_counts=True)
    untied_x = n * (n - 1) / 2 - float((counts * (counts - 1) // 2).sum())
    assert tau == pytest.approx(
        n_pos * n_neg * (2 * auc - 1) / math.sqrt(untied_x * n_pos * n_neg), abs=1e-9
    )
    assert macro_f1(scores >= threshold, labels) == f1

    for _ in range(3):
        pick = rng.choice(n, size=300, replace=False)
        s, lab = scores[pick].tolist(), labels[pick].tolist()
        yy = [1.0 if v else 0.0 for v in lab]
        assert roc_auc(s, lab) == pytest.approx(auc_pair_counting(s, lab), abs=1e-9)
        assert kendall_tau(s, yy) == pytest.approx(tau_b_enumeration(s, yy), abs=1e-9)
        assert f1_macro_optimal(s, lab)[0] == pytest.approx(
            best_macro_f1_by_cuts(s, lab), abs=1e-9
        )


@given(rank_inputs())
@settings(max_examples=300, deadline=None)
def test_ranks_equal_np_unique(case):
    scores, _, y = case
    for values in (scores, y, [-v for v in scores]):  # -v swaps 0.0 and -0.0
        values = np.asarray(values, dtype=float)
        ranked = _ranks(values)
        _, rank, counts = np.unique(values, return_inverse=True, return_counts=True)
        assert np.array_equal(ranked.rank, rank.reshape(-1))
        assert np.array_equal(ranked.counts, counts)
        assert np.array_equal(ranked.ordered, values[ranked.order])
        assert np.all(ranked.ordered[1:] >= ranked.ordered[:-1])


def test_evaluate_scores_sorts_the_scores_once(monkeypatch):
    calls = []

    def counted(values):
        calls.append(len(values))
        return _ranks(values)

    monkeypatch.setattr(metrics, "_ranks", counted)
    scores, labels = [0.1, 0.4, 0.35, 0.8, 0.9], [0, 0, 1, 1, 1]
    y = [float(v) for v in labels]
    for call, sorts in [
        (lambda: evaluate_scores(scores, labels), 1),
        (lambda: roc_auc(scores, labels), 1),
        (lambda: f1_macro_optimal(scores, labels), 1),
        (lambda: kendall_tau(scores, y), 2),  # x and y
    ]:
        calls.clear()
        call()
        assert calls == [5] * sorts


# ---------------------------------------------------------------------------
# Labels: one-dimensional, each element read by its truthiness


def _auc_of_labels(labels):
    return roc_auc([0.1, 0.9], labels)


def test_a_label_column_is_rejected():
    with pytest.raises(ValidationError, match="labels must be one-dimensional"):
        _auc_of_labels(np.array([[True], [False]]))


def test_a_label_matrix_is_rejected():
    with pytest.raises(ValidationError, match="labels must be one-dimensional"):
        roc_auc([0.1, 0.9], np.array([[True, False], [False, True]]))


def test_a_bare_label_is_rejected():
    with pytest.raises(ValidationError, match="labels must be one-dimensional"):
        _auc_of_labels(True)


def test_ragged_labels_are_rejected():
    with pytest.raises(ValidationError, match="labels must be one-dimensional"):
        _auc_of_labels([[1], []])


def test_label_elements_are_read_by_truthiness():
    for labels in ([0, 1], [0.0, 2.5], [None, "x"], ["", "0"], np.array([0, 7]),
                   np.array([-0.0, np.nan]), np.array([None, 1], dtype=object)):
        assert _auc_of_labels(labels) == 1.0, labels
    with pytest.raises(ValidationError, match="predictions must be one-dimensional"):
        macro_f1([[True]], [True])


# ---------------------------------------------------------------------------
# Non-finite input


NON_FINITE_CALLS = {
    "roc_auc": lambda v: roc_auc([0.2, v, 0.9], [0, 1, 1]),
    "pearson": lambda v: pearson([0.2, 0.5, 0.9], [0.0, v, 1.0]),
    "kendall_tau": lambda v: kendall_tau([0.2, v, 0.9], [0.0, 1.0, 1.0]),
    "f1_macro_optimal": lambda v: f1_macro_optimal([0.2, v, 0.9], [0, 1, 1]),
    "ece": lambda v: ece([0.2, v, 0.9], [0, 1, 1]),
    "calibration_curve": lambda v: calibration_curve([0.2, v, 0.9], [0, 1, 1]),
    "evaluate_scores": lambda v: evaluate_scores([0.2, v, 0.9, 0.4], [0, 1, 1, 0]),
}


@pytest.mark.parametrize("metric", sorted(NON_FINITE_CALLS))
def test_nan_input_is_rejected(metric):
    with pytest.raises(ValidationError, match="finite"):
        NON_FINITE_CALLS[metric](math.nan)


@pytest.mark.parametrize("metric", sorted(NON_FINITE_CALLS))
def test_infinite_input_is_rejected(metric):
    for v in (math.inf, -math.inf):
        with pytest.raises(ValidationError, match="finite"):
            NON_FINITE_CALLS[metric](v)


# ---------------------------------------------------------------------------
# Retrieval recall and report assembly


def test_retrieval_recall_examples():
    assert retrieval_recall([True, True, False, False]) == 0.5
    assert retrieval_recall([True] * 5) == 1.0
    with pytest.raises(ValidationError):
        retrieval_recall([])


def test_retrieval_recall_hand_counted_fixture():
    hits = [True, False, True, True, False, True, True, True, False, True,
            False, True, True, True, False, True, False, True, True, True]
    assert len(hits) == 20
    assert retrieval_recall(hits) == pytest.approx(14 / 20)


def test_evaluate_scores_assembles_report():
    scores = [0.1, 0.4, 0.35, 0.8, 0.9]
    labels = [0, 0, 1, 1, 1]
    report = evaluate_scores(scores, labels, wall_clock_s=1.5, scorer_calls_total=25)
    assert report.n == 5
    assert report.roc_auc == pytest.approx(auc_pair_counting(scores, labels))
    assert 0.0 <= report.f1_macro <= 1.0
    assert -1.0 <= report.kendall_tau <= 1.0
    assert report.wall_clock_s == 1.5
    assert report.scorer_calls_total == 25


def _report_or_error(build):
    try:
        return build()
    except ValidationError as exc:
        return str(exc)


def _none_if_constant(metric, *args):
    """The metric's value; None only where it raises for constant input."""
    try:
        return metric(*args)
    except ValidationError as exc:
        if str(exc).startswith("constant input "):
            return None
        raise


@given(rank_inputs())
@settings(max_examples=300, deadline=None)
def test_evaluate_scores_equals_the_per_metric_calls_on_lists(case):
    scores, labels, _ = case
    y = [1.0 if v else 0.0 for v in labels]

    def per_metric():
        f1, threshold = f1_macro_optimal(scores, labels)
        return EvalReport(
            n=len(scores),
            roc_auc=roc_auc(scores, labels),
            pearson=_none_if_constant(pearson, scores, y),
            kendall_tau=_none_if_constant(kendall_tau, scores, y),
            f1_macro=f1,
            optimal_threshold=threshold,
            wall_clock_s=0.0,
            scorer_calls_total=0,
        )

    want = _report_or_error(per_metric)
    ints = [int(v) for v in labels]
    for label_input in (labels, np.array(labels), ints, np.array(ints)):
        got = _report_or_error(lambda: evaluate_scores(scores, label_input))
        assert got == want
        if isinstance(got, EvalReport):
            assert type(got.n) is int
            for value in (got.roc_auc, got.f1_macro, got.optimal_threshold):
                assert type(value) is float
            for value in (got.pearson, got.kendall_tau):
                assert value is None or type(value) is float
