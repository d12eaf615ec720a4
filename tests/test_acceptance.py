"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines inline.
"""

import csv
import json
import math
import random
import time
from pathlib import Path

import mpmath
import numpy as np
import pytest

from chunkcheck.backends import RemoteBackend
from chunkcheck.chunking import UNIT_SEPARATOR, make_chunks, premise_text
from chunkcheck.cli import main
from chunkcheck.corpus import Claim, WhitespaceCounter
from chunkcheck.engine import score_sentence
from chunkcheck.metrics import (
    calibration_curve,
    ece,
    f1_macro_optimal,
    kendall_tau,
    pearson,
    roc_auc,
)
from chunkcheck.retrieval import brute_force_retrieve, call_count_bound, retrieve
from chunkcheck.scoring import build_prompt, entail_prob, score_batch, score_pair
from helpers import make_sized_doc, relevance_fixture
from oracles import (
    auc_pair_counting,
    best_macro_f1_by_cuts,
    ece_by_hand,
    pearson_naive,
    tau_b_enumeration,
)
from test_backends_http import FixtureServer

FIXTURE = Path(__file__).resolve().parents[1] / "data" / "fixture"
WC = WhitespaceCounter()


def _check(number, description, fn):
    try:
        fn()
    except BaseException:
        print(f"[criterion {number:02d}] FAIL - {description}")
        raise
    print(f"[criterion {number:02d}] PASS - {description}")


def _claim(doc_id, text="probe"):
    return Claim(id="c", doc_id=doc_id, text=text)


# ---------------------------------------------------------------------------
# Criteria 1 + 2: greedy retrieval exactness and call efficiency


@pytest.fixture(scope="module")
def retrieval_sweep():
    rng = random.Random(20240817)
    sizes = [1, 2, 3, 255, 256, 1000] + [rng.randint(1, 1000) for _ in range(994)]
    t0 = time.perf_counter()
    instances = []
    for trial, n in enumerate(sizes):
        k = (2, 3, 5)[trial % 3]
        scores = [rng.random() for _ in range(n)]
        doc, backend = relevance_fixture(f"d{trial}", scores, words_per_unit=1)
        trace = retrieve(doc, _claim(doc.id), backend, k=k)
        bf = brute_force_retrieve(doc, _claim(doc.id), backend)
        instances.append((n, k, trace, bf))
    return instances, time.perf_counter() - t0


def test_criterion_01_retrieval_exactness(retrieval_sweep):
    def run():
        instances, elapsed = retrieval_sweep
        assert len(instances) == 1000
        agreements = sum(1 for _, _, trace, bf in instances if trace.result_unit == bf.unit)
        assert agreements == 1000, f"only {agreements}/1000 agreed"
        assert elapsed < 30.0, f"sweep took {elapsed:.1f}s"

    _check(1, "greedy retrieval equals brute force on 1000 random documents", run)


def test_criterion_02_retrieval_efficiency(retrieval_sweep):
    def run():
        doc, backend = relevance_fixture("eff", [0.0] * 255 + [1.0], words_per_unit=1)
        trace = retrieve(doc, _claim("eff"), backend, k=2)
        bf = brute_force_retrieve(doc, _claim("eff"), backend)
        assert trace.scorer_calls <= 16, trace.scorer_calls
        assert bf.scorer_calls == 256
        instances, _ = retrieval_sweep
        for n, k, tr, bf_res in instances:
            assert tr.scorer_calls <= call_count_bound(n, k), (n, k, tr.scorer_calls)
            assert bf_res.scorer_calls == n

    _check(2, "O(log n) scorer calls: 16 vs 256 at n=256, bound holds on sweep", run)


# ---------------------------------------------------------------------------
# Criterion 3: chunk cover invariant


def test_criterion_03_chunk_cover():
    def run():
        rng = random.Random(31337)
        for trial in range(1000):
            sizes = [rng.randint(1, 30) for _ in range(rng.randint(1, 60))]
            budget = rng.randint(1, 90)
            doc = make_sized_doc(f"d{trial}", sizes)
            plan = make_chunks(doc, budget, WC)
            assert plan.chunks[0].start == 0
            assert plan.chunks[-1].end == len(sizes)
            assert all(a.end == b.start for a, b in zip(plan.chunks, plan.chunks[1:]))
            rebuilt = UNIT_SEPARATOR.join(c.text for c in plan.chunks)
            assert rebuilt == premise_text(doc, 0, len(sizes))
            wider = make_chunks(doc, budget + rng.randint(0, 60), WC)
            assert len(wider.chunks) <= len(plan.chunks)

    _check(3, "chunks partition and reconstruct 1000 random documents", run)


# ---------------------------------------------------------------------------
# Criterion 4: entailment probability


def test_criterion_04_entail_prob():
    def run():
        mpmath.mp.dps = 30
        rng = random.Random(424242)
        for _ in range(100_000):
            a = rng.uniform(-1e4, 1e4)
            b = rng.uniform(-1e4, 1e4)
            got = entail_prob(a, b)
            ref = float(1 / (1 + mpmath.exp(mpmath.mpf(b) - mpmath.mpf(a))))
            assert abs(got - ref) < 1e-12, (a, b, got, ref)
            assert abs(got + entail_prob(b, a) - 1.0) < 1e-12, (a, b)
            assert math.isfinite(got)

    _check(4, "two-way softmax matches high-precision logistic on 1e5 pairs", run)


# ---------------------------------------------------------------------------
# Criterion 5: prompt fidelity


def test_criterion_05_prompt_fidelity():
    def run():
        cases = json.loads((FIXTURE / "prompt_golden.json").read_text())
        assert len(cases) == 10
        for case in cases:
            got = build_prompt(case["premise"], case["hypothesis"])
            assert got.encode("utf-8") == case["expected"].encode("utf-8")

    _check(5, "prompt template byte-identical on the 10-case golden file", run)


# ---------------------------------------------------------------------------
# Criterion 6: metric oracles


def test_criterion_06_metric_oracles():
    def run():
        assert roc_auc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1]) == pytest.approx(0.75, abs=1e-12)
        worked = ece([0.9, 0.8, 0.3, 0.1], [1, 1, 0, 0], bins=2)
        assert worked.ece == pytest.approx(0.475, abs=1e-12)

        rng = random.Random(606060)
        for _ in range(1000):
            n = rng.randint(2, 50)
            scores = [round(rng.random(), rng.choice([1, 2, 6])) for _ in range(n)]
            labels = [rng.random() < 0.5 for _ in range(n)]
            if all(labels) or not any(labels):
                labels[0] = not labels[0]
            y = [1.0 if v else 0.0 for v in labels]
            assert abs(roc_auc(scores, labels) - auc_pair_counting(scores, labels)) < 1e-9
            if len(set(scores)) > 1:
                assert abs(pearson(scores, y) - pearson_naive(scores, y)) < 1e-9
                assert abs(kendall_tau(scores, y) - tau_b_enumeration(scores, y)) < 1e-9
            f1, _ = f1_macro_optimal(scores, labels)
            assert abs(f1 - best_macro_f1_by_cuts(scores, labels)) < 1e-9
            bins = rng.choice([1, 2, 5, 10])
            assert abs(ece(scores, labels, bins=bins).ece
                       - ece_by_hand(scores, labels, bins)) < 1e-9

    _check(6, "all metrics match naive oracles to 1e-9 on 1000 instances", run)


# ---------------------------------------------------------------------------
# Criterion 7: calibration statistical check


def test_criterion_07_calibration_statistics():
    def run():
        t0 = time.perf_counter()
        rng = np.random.default_rng(20240817)
        n = 100_000
        # perfectly calibrated scores supported at/above the 0.5 decision
        # threshold: P(y=1 | p) = p, so bin accuracy (prediction agreement)
        # coincides with bin confidence
        probs = rng.uniform(0.5, 1.0, size=n)
        labels = rng.uniform(size=n) < probs
        report = ece(probs, labels, bins=10)
        assert report.ece < 0.01, report.ece
        for point in calibration_curve(probs, labels, bins=10):
            assert abs(point.mean_prob - point.frac_positive) < 0.02
        assert time.perf_counter() - t0 < 5.0

    _check(7, "calibrated synthetic data: ece < 0.01, curve on the diagonal", run)


# ---------------------------------------------------------------------------
# Criterion 8: max-aggregation monotonicity


def test_criterion_08_max_aggregation_monotonicity():
    def run():
        rng = random.Random(808080)
        for trial in range(1000):
            n = rng.randint(1, 12)
            # coarse scores so argmax ties are common
            base = [round(rng.random(), 1) for _ in range(n)]
            doc, backend = relevance_fixture(f"d{trial}", base)
            plan = make_chunks(doc, rng.choice([1, 2, 5, 100]), WC)
            claim = _claim(doc.id)
            prev = 0.0
            for upto in range(1, len(plan.chunks) + 1):
                partial = make_chunks(doc, plan.budget, WC)
                partial.chunks = plan.chunks[:upto]
                got = score_sentence(partial, claim, backend)
                assert got.score >= prev
                prev = got.score
            first = score_sentence(plan, claim, backend)
            second = score_sentence(plan, claim, backend)
            assert first.argmax_chunk == second.argmax_chunk
            assert first.score == second.score

    _check(8, "appending chunks never lowers the max; argmax ties stable", run)


# ---------------------------------------------------------------------------
# Criterion 9: end-to-end reproducibility


def test_criterion_09_end_to_end_reproducibility(tmp_path):
    def run():
        args = [
            "evaluate",
            "--documents", str(FIXTURE / "documents.jsonl"),
            "--claims", str(FIXTURE / "claims.jsonl"),
        ]
        t0 = time.perf_counter()
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert time.perf_counter() - t0 < 5.0
        r1, r2 = json.loads(out1.read_text()), json.loads(out2.read_text())
        r1.pop("meta")
        r2.pop("meta")
        blob1 = json.dumps(r1, sort_keys=True).encode()
        blob2 = json.dumps(r2, sort_keys=True).encode()
        assert blob1 == blob2

        bench_csv = tmp_path / "bench.csv"
        code = main([
            "bench",
            "--documents", str(FIXTURE / "documents.jsonl"),
            "--claims", str(FIXTURE / "claims.jsonl"),
            "--budgets", "64,128,512",
            "--csv", str(bench_csv),
            "--out", str(tmp_path / "bench.json"),
        ])
        assert code == 0
        with bench_csv.open() as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["budget", "roc_auc", "wall_clock_s", "scorer_calls"]
        assert [int(r[0]) for r in rows[1:]] == [64, 128, 512]
        calls = [int(r[3]) for r in rows[1:]]
        assert calls == sorted(calls, reverse=True)

    _check(9, "evaluate is byte-stable and fast; bench CSV calls non-increasing", run)


# ---------------------------------------------------------------------------
# Criterion 10: remote backend contract


def test_criterion_10_remote_backend_contract():
    def run():
        server = FixtureServer()
        try:
            backend = RemoteBackend(
                server.url, timeout=2.0, max_retries=2, backoff_base=0.05
            )
            got = score_pair(backend, "a recorded premise", "a hypothesis")
            assert abs(got - 0.8807970779778823) < 1e-12

            server.transient_failures = 1
            t0 = time.perf_counter()
            before = len(server.requests)
            again = score_pair(backend, "premise after hiccup", "h")
            assert abs(again - 0.8807970779778823) < 1e-12
            assert len(server.requests) - before == 2  # failed once, retried once
            assert time.perf_counter() - t0 >= 0.05  # waited out the backoff

            pairs = [("ok one", "h"), ("p ALWAYS_FAIL", "h"), ("ok two", "h")]
            batch = score_batch(backend, pairs)
            assert batch.scores[1] is None
            assert [f.index for f in batch.failures] == [1]
            assert batch.scores[0] is not None and batch.scores[2] is not None
        finally:
            server.close()

    _check(10, "remote backend: wire format, retry with backoff, isolated failures", run)
