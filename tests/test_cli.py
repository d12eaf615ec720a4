import argparse
import csv
import io
import json
import os
import subprocess
import sys
from dataclasses import asdict, fields
from pathlib import Path

import pytest

import chunkcheck.cli as cli
from chunkcheck.backends import LexicalOverlapBackend, UnitRelevanceBackend
from chunkcheck.chunking import make_chunks
from chunkcheck.cli import build_parser, main
from chunkcheck.config import BACKENDS, RunConfig, resolve_config
from chunkcheck.corpus import WhitespaceCounter, load_corpus
from chunkcheck.errors import BackendError, ChunkcheckError, ScoringError, ValidationError
from chunkcheck.metrics import calibration_curve
from chunkcheck.metrics import ece as ece_op
from chunkcheck.metrics import evaluate_scores, f1_macro_optimal, kendall_tau, pearson, roc_auc

from helpers import write_probe_corpus

GOLDEN = Path(__file__).parent / "data" / "golden_score_report.json"
GOLDEN_RETRIEVE = Path(__file__).parent / "data" / "golden_retrieve_report.json"
GOLDEN_CALIBRATE = Path(__file__).parent / "data" / "golden_calibrate_report.json"
GOLDEN_EVALUATE = Path(__file__).parent / "data" / "golden_evaluate_report.json"
GOLDEN_BENCH = Path(__file__).parent / "data" / "golden_bench_report.json"


def _fixture_args(fixture_dir):
    return [
        "--documents", str(fixture_dir / "documents.jsonl"),
        "--claims", str(fixture_dir / "claims.jsonl"),
    ]


def _run(argv):
    return main([str(a) for a in argv])


def _load_report(path):
    return json.loads(Path(path).read_text())


def _sans_meta(report):
    report = dict(report)
    report.pop("meta")
    return json.dumps(report, sort_keys=True)


# ---------------------------------------------------------------------------
# score


def test_score_matches_recorded_golden(fixture_dir, tmp_path):
    out = tmp_path / "report.json"
    assert _run(["score", *_fixture_args(fixture_dir), "--out", out]) == 0
    got = _load_report(out)
    got.pop("meta")
    want = json.loads(GOLDEN.read_text())
    assert got == want


def test_retrieve_matches_recorded_golden(fixture_dir, tmp_path):
    out = tmp_path / "report.json"
    assert _run(["retrieve", *_fixture_args(fixture_dir), "--premise-cap", "40", "--trace",
                 "--brute-force", "--out", out]) == 0
    got = _load_report(out)
    got.pop("meta")
    assert got == json.loads(GOLDEN_RETRIEVE.read_text())


def test_calibrate_matches_recorded_golden(fixture_dir, tmp_path):
    out = tmp_path / "report.json"
    assert _run(["calibrate", *_fixture_args(fixture_dir), "--budgets", "16,64,512",
                 "--out", out]) == 0
    got = _load_report(out)
    got.pop("meta")
    assert got == json.loads(GOLDEN_CALIBRATE.read_text())


def test_evaluate_matches_recorded_golden(fixture_dir, tmp_path):
    out = tmp_path / "report.json"
    assert _run(["evaluate", *_fixture_args(fixture_dir), "--retrieval-recall",
                 "--out", out]) == 0
    got = _load_report(out)
    got.pop("meta")
    assert got == json.loads(GOLDEN_EVALUATE.read_text())


def test_bench_matches_recorded_golden(fixture_dir, tmp_path):
    out = tmp_path / "report.json"
    assert _run(["bench", *_fixture_args(fixture_dir), "--budgets", "16,64,512",
                 "--out", out]) == 0
    got = _load_report(out)
    got.pop("meta")
    assert got == json.loads(GOLDEN_BENCH.read_text())


def test_score_byte_identical_across_runs(fixture_dir, tmp_path):
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert _run(["score", *_fixture_args(fixture_dir), "--out", out1]) == 0
    assert _run(["score", *_fixture_args(fixture_dir), "--out", out2]) == 0
    assert _sans_meta(_load_report(out1)) == _sans_meta(_load_report(out2))


def test_score_report_embeds_provenance(fixture_dir, tmp_path):
    out = tmp_path / "report.json"
    _run(["score", *_fixture_args(fixture_dir), "--out", out])
    report = _load_report(out)
    assert report["version"]
    assert report["config"]["budget"] == 512
    assert len(report["corpus_hash"]) == 64
    assert "created_at" in report["meta"]


def test_score_explain_includes_per_chunk(fixture_dir, tmp_path):
    out = tmp_path / "report.json"
    _run(["score", *_fixture_args(fixture_dir), "--explain", "--budget", "16", "--out", out])
    claims = _load_report(out)["results"]["claims"]
    assert all("per_chunk" in c for c in claims)
    first = claims[0]
    assert first["score"] == max(p["probability"] for p in first["per_chunk"])


def test_score_dump_chunks(fixture_dir, tmp_path):
    out = tmp_path / "report.json"
    _run(["score", *_fixture_args(fixture_dir), "--dump-chunks", "--budget", "32", "--out", out])
    plans = _load_report(out)["results"]["chunk_plans"]
    assert len(plans) == 3
    corpus = load_corpus(fixture_dir / "documents.jsonl", fixture_dir / "claims.jsonl")
    for plan, doc in zip(plans, corpus.documents):
        assert plan["chunks"][0]["unit_range"][0] == 0
        assert plan["chunks"][-1]["unit_range"][1] == len(doc.units)


# ---------------------------------------------------------------------------
# retrieve


def test_retrieve_trace_on_fixture(fixture_dir, tmp_path):
    out = tmp_path / "report.json"
    code = _run([
        "retrieve", *_fixture_args(fixture_dir),
        "--backend", "unit-relevance",
        "--relevance-file", fixture_dir / "relevance.json",
        "--trace", "--brute-force", "--out", out,
    ])
    assert code == 0
    entries = _load_report(out)["results"]["retrievals"]
    assert len(entries) == 13
    relevance = json.loads((fixture_dir / "relevance.json").read_text())
    corpus = load_corpus(fixture_dir / "documents.jsonl", fixture_dir / "claims.jsonl")
    doc_of = {c.id: c.doc_id for c in corpus.claims}
    for entry in entries:
        scores = relevance[doc_of[entry["claim_id"]]]
        assert entry["brute_force"]["agrees"] is True
        assert entry["result_unit"] == scores.index(max(scores))
        assert entry["trace"]
        assert entry["scorer_calls"] <= entry["brute_force"]["scorer_calls"]


def test_retrieve_empty_claims_gives_empty_report(fixture_dir, tmp_path):
    empty = tmp_path / "claims.jsonl"
    empty.write_text("")
    out = tmp_path / "report.json"
    code = _run([
        "retrieve", "--documents", fixture_dir / "documents.jsonl",
        "--claims", empty, "--out", out,
    ])
    assert code == 0
    assert _load_report(out)["results"]["retrievals"] == []


def test_retrieve_k3_nine_units_two_levels(tmp_path):
    docs = tmp_path / "docs.jsonl"
    units = [{"speaker": None, "text": f"unit {i} text"} for i in range(9)]
    docs.write_text(json.dumps({"id": "d9", "units": units}) + "\n")
    claims = tmp_path / "claims.jsonl"
    claims.write_text(json.dumps({"id": "c", "doc_id": "d9", "text": "unit 4 text"}) + "\n")
    out = tmp_path / "report.json"
    code = _run([
        "retrieve", "--documents", docs, "--claims", claims,
        "--k", "3", "--trace", "--out", out,
    ])
    assert code == 0
    entry = _load_report(out)["results"]["retrievals"][0]
    assert len(entry["trace"]) <= 2


# ---------------------------------------------------------------------------
# evaluate


def test_evaluate_matches_metric_oracles(fixture_dir, tmp_path):
    out = tmp_path / "report.json"
    assert _run(["evaluate", *_fixture_args(fixture_dir), "--out", out]) == 0
    results = _load_report(out)["results"]
    scores = [c["score"] for c in results["claims"]]
    labels = [c["label"] for c in results["claims"]]
    y = [1.0 if v else 0.0 for v in labels]
    assert results["roc_auc"] == pytest.approx(roc_auc(scores, labels))
    assert results["pearson"] == pytest.approx(pearson(scores, y))
    assert results["kendall_tau"] == pytest.approx(kendall_tau(scores, y))
    f1, threshold = f1_macro_optimal(scores, labels)
    assert results["f1_macro"] == pytest.approx(f1)
    assert results["optimal_threshold"] == pytest.approx(threshold)
    assert results["n"] == 13


def test_evaluate_reports_null_correlations_for_constant_scores(fixture_dir, tmp_path):
    claims = tmp_path / "claims.jsonl"
    lines = (fixture_dir / "claims.jsonl").read_text().splitlines()
    claims.write_text("".join(json.dumps({**json.loads(line), "text": "zzyzx"}) + "\n"
                              for line in lines))
    out = tmp_path / "report.json"
    code = _run(["evaluate", "--documents", fixture_dir / "documents.jsonl",
                 "--claims", claims, "--out", out])
    assert code == 0
    results = _load_report(out)["results"]
    scores = [c["score"] for c in results["claims"]]
    labels = [c["label"] for c in results["claims"]]
    assert set(scores) == {0.0} and set(labels) == {True, False}
    assert results["pearson"] is None and results["kendall_tau"] is None
    assert results["roc_auc"] == roc_auc(scores, labels) == 0.5
    assert (results["f1_macro"], results["optimal_threshold"]) == f1_macro_optimal(scores, labels)


@pytest.mark.parametrize(("command", "stages"), [
    (["score"], set()),
    (["retrieve"], set()),
    (["evaluate"], set()),
    (["evaluate", "--retrieval-recall"], {"retrieval_wall_clock_s"}),
    (["calibrate", "--budgets", "16,64"], set()),
    (["bench", "--budgets", "16,64"], {"wall_clock_s_by_budget"}),
], ids=["score", "retrieve", "evaluate", "evaluate-recall", "calibrate", "bench"])
def test_every_command_reports_positive_wall_clock(fixture_dir, tmp_path, command, stages):
    out = tmp_path / "report.json"
    assert _run([*command, *_fixture_args(fixture_dir), "--out", out]) == 0
    meta = _load_report(out)["meta"]
    assert set(meta) == {"created_at", "wall_clock_s"} | stages  # no claim_ms
    assert meta["wall_clock_s"] > 0


def test_evaluate_missing_labels_is_actionable(fixture_dir, tmp_path, capsys):
    claims = tmp_path / "claims.jsonl"
    claims.write_text(
        json.dumps({"id": "nolabel", "doc_id": "reef-survey", "text": "x", "label": None})
        + "\n"
    )
    code = _run([
        "evaluate", "--documents", fixture_dir / "documents.jsonl",
        "--claims", claims, "--out", tmp_path / "r.json",
    ])
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert "nolabel" in err["error"]["message"]
    assert "label" in err["error"]["message"]


def test_evaluate_retrieval_recall_on_annotated_claims(fixture_dir, tmp_path):
    out = tmp_path / "report.json"
    code = _run(["evaluate", *_fixture_args(fixture_dir), "--retrieval-recall", "--out", out])
    assert code == 0
    retrieval = _load_report(out)["results"]["retrieval"]
    assert retrieval["n"] == 8  # labeled-consistent claims carry annotations
    assert 0.0 <= retrieval["recall"] <= 1.0


def test_evaluate_retrieval_recall_without_annotations_exits_before_scoring(
    fixture_dir, tmp_path, monkeypatch, capsys
):
    claims = tmp_path / "claims.jsonl"
    records = map(json.loads, (fixture_dir / "claims.jsonl").read_text().splitlines())
    claims.write_text("".join(
        json.dumps({k: v for k, v in r.items() if k != "relevant_units"}) + "\n" for r in records
    ))
    backend_calls = []
    evaluate = LexicalOverlapBackend.evaluate

    def counted(self, premise, hypothesis):
        backend_calls.append(premise)
        return evaluate(self, premise, hypothesis)

    monkeypatch.setattr(LexicalOverlapBackend, "evaluate", counted)
    out = tmp_path / "r.json"
    code = _run(["evaluate", "--documents", fixture_dir / "documents.jsonl", "--claims", claims,
                 "--retrieval-recall", "--out", out])
    assert code == 1
    err = json.loads(capsys.readouterr().err)["error"]
    assert err == {"type": "validation", "message": "no claims carry relevant_units annotations"}
    assert backend_calls == []
    assert not out.exists()


# ---------------------------------------------------------------------------
# calibrate / bench


def test_calibrate_sweep(fixture_dir, tmp_path, monkeypatch):
    backend_calls = []
    evaluate = LexicalOverlapBackend.evaluate

    def counted(self, premise, hypothesis):
        backend_calls.append(premise)
        return evaluate(self, premise, hypothesis)

    monkeypatch.setattr(LexicalOverlapBackend, "evaluate", counted)
    out = tmp_path / "report.json"
    sweep_csv = tmp_path / "sweep.csv"
    curve_csv = tmp_path / "curve.csv"
    code = _run([
        "calibrate", *_fixture_args(fixture_dir), "--budgets", "64,512",
        "--csv", sweep_csv, "--curve-csv", curve_csv, "--out", out,
    ])
    assert code == 0
    cli_calls = len(backend_calls)
    with sweep_csv.open() as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["budget", "ece", "scorer_calls"]
    assert len(rows) == 3
    report = _load_report(out)
    assert [entry["budget"] for entry in report["results"]["sweep"]] == [64, 512]

    # the JSON ece must equal recomputing from the corpus at that budget
    corpus = load_corpus(fixture_dir / "documents.jsonl", fixture_dir / "claims.jsonl")
    cfg = resolve_config(None, {})
    from chunkcheck.engine import score_sentence

    counter = WhitespaceCounter()
    backend = LexicalOverlapBackend()
    for entry in report["results"]["sweep"]:
        probs, labels = [], []
        for claim in corpus.claims:
            doc = corpus.document(claim.doc_id)
            plan = make_chunks(doc, entry["budget"], counter)
            probs.append(score_sentence(plan, claim, backend).score)
            labels.append(bool(claim.gold_label))
        want = ece_op(probs, labels, bins=cfg.ece_bins,
                      decision_threshold=cfg.decision_threshold)
        assert entry["ece"] == pytest.approx(want.ece)

    # the configured budget (512) is in the sweep, so the curve reuses its
    # scores: no scoring beyond the sweep's own calls
    assert cli_calls == sum(e["scorer_calls"] for e in report["results"]["sweep"])
    probs, labels = [], []
    for claim in corpus.claims:
        plan = make_chunks(corpus.document(claim.doc_id), cfg.budget, counter)
        probs.append(score_sentence(plan, claim, backend).score)
        labels.append(bool(claim.gold_label))
    points = calibration_curve(probs, labels, bins=cfg.ece_bins)
    with curve_csv.open() as f:
        curve_rows = list(csv.reader(f))
    assert curve_rows[0] == ["x", "y", "bin_size"]
    assert curve_rows[1:] == [[str(p.mean_prob), str(p.frac_positive), str(p.size)]
                              for p in points]


def test_bench_sweep_csv_and_monotone_calls(fixture_dir, tmp_path):
    out = tmp_path / "report.json"
    bench_csv = tmp_path / "bench.csv"
    code = _run([
        "bench", *_fixture_args(fixture_dir), "--budgets", "64,128,512",
        "--csv", bench_csv, "--out", out,
    ])
    assert code == 0
    with bench_csv.open() as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["budget", "roc_auc", "wall_clock_s", "scorer_calls"]
    assert len(rows) == 4
    calls = [int(r[3]) for r in rows[1:]]
    assert calls == sorted(calls, reverse=True)
    for r in rows[1:]:
        assert 0.0 <= float(r[1]) <= 1.0
        assert float(r[2]) >= 0.0


def test_bad_budgets_rejected(fixture_dir, tmp_path, capsys):
    code = _run(["bench", *_fixture_args(fixture_dir), "--budgets", "64,zero"])
    assert code == 1


@pytest.mark.parametrize("command", ["calibrate", "bench"])
def test_repeated_budget_exits_one_before_scoring(fixture_dir, monkeypatch, capsys, command):
    backend_calls = []
    monkeypatch.setattr(LexicalOverlapBackend, "evaluate",
                        lambda self, premise, hypothesis: backend_calls.append(premise))
    code = _run([command, *_fixture_args(fixture_dir), "--budgets", "16,64,064"])
    assert code == 1
    err = json.loads(capsys.readouterr().err)["error"]
    assert err == {"type": "validation", "message": "budget 64 is repeated in '16,64,064'"}
    assert backend_calls == []


@pytest.mark.parametrize("command", [
    ["evaluate"], ["evaluate", "--retrieval-recall"], ["bench", "--budgets", "16,64"],
])
def test_single_class_labels_cost_no_scorer_call(fixture_dir, tmp_path, monkeypatch, capsys,
                                                  command):
    claims = tmp_path / "claims.jsonl"
    lines = (fixture_dir / "claims.jsonl").read_text().splitlines()
    claims.write_text("".join(json.dumps({**json.loads(line), "label": True}) + "\n"
                              for line in lines))
    backend_calls = []
    monkeypatch.setattr(LexicalOverlapBackend, "evaluate",
                        lambda self, premise, hypothesis: backend_calls.append(premise))
    code = _run([*command, "--documents", fixture_dir / "documents.jsonl",
                 "--claims", claims, "--out", tmp_path / "r.json"])
    assert code == 1
    err = json.loads(capsys.readouterr().err)["error"]
    assert err == {"type": "validation",
                   "message": "both classes must be present (every gold label is true)"}
    assert backend_calls == []


def test_calibrate_accepts_single_class_labels(fixture_dir, tmp_path):
    claims = tmp_path / "claims.jsonl"
    lines = (fixture_dir / "claims.jsonl").read_text().splitlines()
    claims.write_text("".join(json.dumps({**json.loads(line), "label": False}) + "\n"
                              for line in lines))
    out = tmp_path / "r.json"
    code = _run(["calibrate", "--documents", fixture_dir / "documents.jsonl",
                 "--claims", claims, "--budgets", "16,64", "--out", out])
    assert code == 0
    assert [e["budget"] for e in _load_report(out)["results"]["sweep"]] == [16, 64]


def test_calibrate_uses_the_decision_threshold(fixture_dir, tmp_path):
    out = tmp_path / "report.json"
    code = _run(["calibrate", *_fixture_args(fixture_dir), "--budgets", "64,512",
                 "--decision-threshold", "0.3", "--out", out])
    assert code == 0
    corpus = load_corpus(fixture_dir / "documents.jsonl", fixture_dir / "claims.jsonl")
    from chunkcheck.engine import score_sentence

    labels = [bool(claim.gold_label) for claim in corpus.claims]
    for entry in _load_report(out)["results"]["sweep"]:
        assert entry["calibration"]["decision_threshold"] == 0.3
        probs = [
            score_sentence(make_chunks(corpus.document(claim.doc_id), entry["budget"],
                                       WhitespaceCounter()), claim, LexicalOverlapBackend()).score
            for claim in corpus.claims
        ]
        want = ece_op(probs, labels, decision_threshold=0.3)
        assert entry["ece"] == want.ece
        assert entry["calibration"] == json.loads(json.dumps(asdict(want)))


def test_decision_threshold_outside_the_unit_interval_exits_one_before_scoring(
        fixture_dir, monkeypatch, capsys):
    backend_calls = []
    monkeypatch.setattr(LexicalOverlapBackend, "evaluate",
                        lambda self, premise, hypothesis: backend_calls.append(premise))
    code = _run(["calibrate", *_fixture_args(fixture_dir), "--budgets", "64",
                 "--decision-threshold", "1.5"])
    assert code == 1
    err = json.loads(capsys.readouterr().err)["error"]
    assert err == {"type": "validation", "message": "decision_threshold 1.5 outside [0, 1]"}
    assert backend_calls == []


# ---------------------------------------------------------------------------
# config and errors


def test_concurrency_above_the_bound_exits_one_before_scoring(fixture_dir, monkeypatch, capsys):
    backend_calls = []
    monkeypatch.setattr(LexicalOverlapBackend, "evaluate",
                        lambda self, premise, hypothesis: backend_calls.append(premise))
    assert _run(["score", *_fixture_args(fixture_dir), "--concurrency", "257"]) == 1
    err = json.loads(capsys.readouterr().err)["error"]
    assert err == {"type": "validation",
                   "message": "concurrency must be between 1 and 256, got 257"}
    assert backend_calls == []


@pytest.mark.parametrize("bins", [10_001, 2**62])
def test_ece_bins_above_the_bound_exits_one_before_loading(tmp_path, capsys, bins):
    missing = tmp_path / "absent.jsonl"  # loading it would fail differently
    code = _run(["calibrate", "--documents", missing, "--claims", missing,
                 "--budgets", "16", "--ece-bins", bins])
    assert code == 1
    err = json.loads(capsys.readouterr().err)["error"]
    assert err == {"type": "validation",
                   "message": f"ece_bins must be between 1 and 10000, got {bins}"}


def test_config_file_with_flag_override(fixture_dir, tmp_path):
    cfg_path = tmp_path / "cfg.json"
    # null suits an optional field, and an int a float field
    cfg_path.write_text(json.dumps({"budget": 64, "aggregation": "mean",
                                    "premise_cap": None, "timeout": 5}))
    out = tmp_path / "report.json"
    assert _run(["score", *_fixture_args(fixture_dir), "--config", cfg_path,
                 "--budget", "128", "--out", out]) == 0
    config = _load_report(out)["config"]
    assert config["budget"] == 128  # flag wins
    assert config["aggregation"] == "mean"  # file survives
    assert config["premise_cap"] is None
    assert config["timeout"] == 5


def test_endpoint_from_environment(fixture_dir, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("CHUNKCHECK_ENDPOINT", "http://127.0.0.1:9/unreach")
    code = _run([
        "score", *_fixture_args(fixture_dir), "--backend", "remote",
        "--retries", "0", "--timeout", "0.2", "--out", tmp_path / "r.json",
    ])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert "http://127.0.0.1:9/unreach" in err["error"]["message"]


def test_unknown_config_key_rejected(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    for key in ("budgett", "cache_size"):  # a typo, and a deleted knob
        cfg_path.write_text(json.dumps({key: 64}))
        with pytest.raises(ValidationError, match=f"unknown config keys: .*{key}"):
            resolve_config(str(cfg_path), {})


@pytest.mark.parametrize(
    ("command", "content", "named"),
    [
        ("score", '{"budget": "512"}', "budget"),
        ("score", '{"concurrency": "4"}', "concurrency"),
        ("score", "null", "JSON object"),
        ("retrieve", '{"k": 2.5}', "'k'"),
        ("retrieve", '{"premise_cap": true}', "premise_cap"),
        ("score", '{"budget": 64.0}', "budget"),
    ],
)
def test_wrong_typed_config_exits_one(fixture_dir, tmp_path, capsys, command, content, named):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(content)
    out = tmp_path / "r.json"
    code = _run([command, *_fixture_args(fixture_dir), "--config", cfg_path, "--out", out])
    assert code == 1
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["type"] == "validation"
    assert named in err["message"]
    assert not out.exists()


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("flag", ["--timeout", "--backoff"])
def test_non_finite_timeout_or_backoff_exits_one(fixture_dir, tmp_path, capsys, flag, value):
    # Rejected before the remote backend is built, so nothing is sent.
    remote = ["--backend", "remote", "--endpoint", "http://127.0.0.1:9/x", "--retries", "1"]
    out = tmp_path / "r.json"
    code = _run(["score", *_fixture_args(fixture_dir), *remote, flag, value, "--out", out])
    assert code == 1
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["type"] == "validation"
    assert flag[2:] in err["message"]
    assert not out.exists()


def test_non_finite_config_value_exits_one(fixture_dir, tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text('{"timeout": NaN}')  # Python's json module reads NaN
    out = tmp_path / "r.json"
    assert _run(["score", *_fixture_args(fixture_dir), "--config", cfg_path, "--out", out]) == 1
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["type"] == "validation"
    assert "timeout" in err["message"]
    assert not out.exists()


@pytest.mark.parametrize("key", ["timeout", "backoff"])
def test_integer_too_large_for_a_float_exits_one(fixture_dir, tmp_path, capsys, key):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(f'{{"{key}": 1{"0" * 400}}}')
    out = tmp_path / "r.json"
    assert _run(["score", *_fixture_args(fixture_dir), "--config", cfg_path, "--out", out]) == 1
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["type"] == "validation"
    assert f"{key} must be finite" in err["message"]
    assert not out.exists()


def test_integer_over_the_digit_limit_exits_one(fixture_dir, tmp_path, capsys):
    # Where Python limits int-to-str digits, json rejects this number; elsewhere
    # the finite check does.
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(f'{{"timeout": 1{"0" * 5000}}}')
    out = tmp_path / "r.json"
    assert _run(["score", *_fixture_args(fixture_dir), "--config", cfg_path, "--out", out]) == 1
    assert json.loads(capsys.readouterr().err)["error"]["type"] == "validation"
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--documents", "--claims", "--config", "--relevance-file"])
def test_deeply_nested_json_exits_one_before_scoring(fixture_dir, tmp_path, monkeypatch, capsys,
                                                     flag):
    deep = tmp_path / "deep.jsonl"
    deep.write_text("[" * 100_000 + "\n")
    backend_calls = []
    monkeypatch.setattr(UnitRelevanceBackend, "evaluate",
                        lambda self, premise, hypothesis: backend_calls.append(premise))
    files = {"--documents": fixture_dir / "documents.jsonl",
             "--claims": fixture_dir / "claims.jsonl",
             "--relevance-file": fixture_dir / "relevance.json", flag: deep}
    code = _run(["retrieve", *[a for pair in files.items() for a in pair],
                 "--backend", "unit-relevance", "--out", tmp_path / "r.json"])
    assert code == 1
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["type"] == "validation"
    where = f"{deep}:1: invalid JSON" if flag in ("--documents", "--claims") else str(deep)
    assert where in err["message"]
    assert backend_calls == []


def _json_nesting_limit() -> int:
    """The least depth of nested JSON arrays that ``json.loads`` rejects
    from this stack."""
    lo, hi = 1, 1 << 17
    while lo < hi:
        mid = (lo + hi) // 2
        try:
            json.loads("[" * mid + "]" * mid)
            lo = mid + 1
        except RecursionError:
            hi = mid
    return lo


def test_a_corpus_nested_too_deeply_to_hash_exits_one_before_scoring(fixture_dir, tmp_path,
                                                                      monkeypatch, capsys):
    """An unknown claim field nested just under the loader's limit can still
    be too deep to hash: every depth across that window exits 0 or 1, never
    3, and a run that exits 1 makes no backend call. The window moves with
    the stack depth, so the sweep starts from the limit measured here."""
    calls = []
    monkeypatch.setattr(LexicalOverlapBackend, "evaluate",
                        lambda self, premise, hypothesis: calls.append(premise) or 0.5)
    base = (fixture_dir / "claims.jsonl").read_text(encoding="utf-8")
    claims = tmp_path / "claims.jsonl"
    limit = _json_nesting_limit()
    codes = set()
    for depth in range(limit - 40, limit + 3):
        nested = "[" * depth + "]" * depth
        claims.write_text(base + json.dumps({"id": "deep", "doc_id": "ops-briefing",
                                             "text": "The convoy leaves."})[:-1]
                          + f', "x": {nested}}}\n', encoding="utf-8")
        calls.clear()
        code = _run(["score", "--documents", fixture_dir / "documents.jsonl", "--claims", claims,
                     "--out", tmp_path / "r.json"])
        err = capsys.readouterr().err
        assert code in (0, 1), (depth, err)
        if code == 1:
            assert json.loads(err)["error"]["type"] == "validation"
            assert calls == []
        codes.add(code)
    assert codes == {0, 1}


@pytest.mark.parametrize("source", ["flag", "env"])
def test_report_masks_auth_header_value(fixture_dir, tmp_path, monkeypatch, source):
    header = "Authorization: Bearer sk-secret"
    flags = []
    if source == "flag":
        flags = ["--auth-header", header]
    else:
        monkeypatch.setenv("CHUNKCHECK_AUTH_HEADER", header)
    out = tmp_path / "r.json"
    assert _run(["score", *_fixture_args(fixture_dir), *flags, "--out", out]) == 0
    raw = out.read_bytes()
    assert b"sk-secret" not in raw
    assert b"Bearer" not in raw
    assert json.loads(raw)["config"]["auth_header"] == "Authorization: ***"


@pytest.mark.parametrize(("header", "masked"), [
    (None, None),
    ("Authorization: Bearer sk-secret", "Authorization: ***"),
    ("  X-Key :a:b", "X-Key: ***"),
    ("no-colon-token", "***"),
])
def test_report_dicts_equal_asdict(header, masked):
    """The config's and the evaluation report's ``to_dict`` build what
    ``dataclasses.asdict`` builds, the config with its auth header's value
    masked, and the report writer writes a calibration report, which has no
    ``to_dict``, as ``json.dumps`` writes its ``asdict``."""
    config = RunConfig(auth_header=header, endpoint="http://localhost/x", premise_cap=64,
                       relevance_file="rel.json", decision_threshold=0.25)
    assert config.to_dict() == {**asdict(config), "auth_header": masked}
    scores, labels = [0.1, 0.4, 0.4, 0.8, 0.95, 1.0], [False, True, False, True, True, False]
    for report in (ece_op(scores, labels, bins=4, decision_threshold=0.3),
                   ece_op([], [], bins=10)):
        sink = io.StringIO()
        cli._write_json({"calibration": report}, sink)
        assert sink.getvalue() == json.dumps({"calibration": asdict(report)}, sort_keys=True,
                                             indent=2, ensure_ascii=False) + "\n"
    for report in (evaluate_scores(scores, labels),
                   evaluate_scores([0.5] * 4, [True, False, True, False])):  # null correlations
        got, want = report.to_dict(), asdict(report)
        assert got == want
        assert [type(v) for v in got.values()] == [type(v) for v in want.values()]
        assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)


def test_invalid_flag_combo_exits_one(fixture_dir, tmp_path, capsys):
    code = _run(["score", *_fixture_args(fixture_dir), "--backend", "unit-relevance",
                 "--out", tmp_path / "r.json"])
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert "relevance-file" in err["error"]["message"]


def test_usage_error_maps_to_validation_exit(fixture_dir, capsys):
    assert main(["score"]) == 1  # missing required flags
    assert main(["score", *_fixture_args(fixture_dir), "--cache-size", "64"]) == 1  # a deleted flag


@pytest.mark.parametrize(("error", "code", "kind", "message"), [
    (ValidationError("bad input"), 1, "validation", "bad input"),
    (ScoringError("claim 'c0' failed"), 2, "scoring", "claim 'c0' failed"),
    (BackendError("endpoint down"), 2, "backend", "endpoint down"),
    (ChunkcheckError("broken invariant"), 3, "internal", "broken invariant"),
    (RuntimeError("unexpected"), 3, "internal", "RuntimeError: unexpected"),
], ids=["validation", "scoring", "backend", "chunkcheck", "runtime"])
def test_each_error_maps_to_its_exit_code_and_type(fixture_dir, tmp_path, monkeypatch, capsys,
                                                   error, code, kind, message):
    def failing(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli, "score_texts", failing)
    out = tmp_path / "r.json"
    assert _run(["score", *_fixture_args(fixture_dir), "--out", out]) == code
    assert json.loads(capsys.readouterr().err) == {"error": {"type": kind, "message": message}}
    assert not out.exists()


def test_oversized_premise_exits_one(fixture_dir, tmp_path, capsys):
    code = _run(["score", *_fixture_args(fixture_dir), "--premise-cap", "3",
                 "--out", tmp_path / "r.json"])
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "validation"
    assert "admits 3" in err["error"]["message"]


def test_missing_vocab_file_exits_one(fixture_dir, tmp_path, capsys):
    missing = tmp_path / "absent" / "v.txt"
    code = _run(["score", *_fixture_args(fixture_dir), "--counter", f"vocab:{missing}",
                 "--out", tmp_path / "r.json"])
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "validation"
    assert str(missing) in err["error"]["message"]


@pytest.mark.parametrize("flags", [
    ["--config", "{dir}"],
    ["--config", "{bad}"],
    ["--counter", "vocab:{bad}"],
    ["--backend", "unit-relevance", "--relevance-file", "{bad}"],
], ids=["config-directory", "config-not-utf8", "vocab-not-utf8", "relevance-not-utf8"])
def test_unreadable_input_file_exits_one_before_scoring(fixture_dir, tmp_path, monkeypatch,
                                                         capsys, flags):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b'{"budget": 64}\xff\n')
    backend_calls = []
    for backend in (LexicalOverlapBackend, UnitRelevanceBackend):
        monkeypatch.setattr(backend, "evaluate",
                            lambda self, premise, hypothesis: backend_calls.append(premise))
    flags = [f.format(dir=tmp_path, bad=bad) for f in flags]
    code = _run(["score", *_fixture_args(fixture_dir), *flags, "--out", tmp_path / "r.json"])
    assert code == 1
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["type"] == "validation"
    assert flags[-1].removeprefix("vocab:") in err["message"]
    assert backend_calls == []


def test_missing_relevance_file_exits_one(fixture_dir, tmp_path, capsys):
    missing = tmp_path / "absent.json"
    code = _run(["retrieve", *_fixture_args(fixture_dir), "--backend", "unit-relevance",
                 "--relevance-file", missing, "--out", tmp_path / "r.json"])
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "validation"
    assert str(missing) in err["error"]["message"]


@pytest.mark.parametrize(("content", "named"), [
    ("[0.5, 0.5]", "must hold a JSON object"),
    ('"reef-survey"', "must hold a JSON object"),
    ('{"reef-survey": "0.2"}', "'reef-survey' needs an array of numbers"),
    ('{"reef-survey": [0.2, "0.8", 0.1, 0.3, 0.5, 0.7]}', "'reef-survey' needs an array"),
    ('{"reef-survey": [0.2, true, 0.1, 0.3, 0.5, 0.7]}', "'reef-survey' needs an array"),
    ("{}", "has no scores for document 'ops-briefing'"),
], ids=["list", "string", "string-scores", "string-score", "true-score", "no-documents"])
def test_wrong_shaped_relevance_file_exits_one(fixture_dir, tmp_path, capsys, content, named):
    relevance = tmp_path / "relevance.json"
    relevance.write_text(content)
    code = _run(["retrieve", *_fixture_args(fixture_dir), "--backend", "unit-relevance",
                 "--relevance-file", relevance, "--out", tmp_path / "r.json"])
    assert code == 1
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["type"] == "validation"
    assert named in err["message"]


def test_premise_cap_counts_with_configured_counter(data_dir, tmp_path, capsys):
    vocab = data_dir / "vocab" / "mini_vocab.txt"
    unit = "unbelievable tokens unbelievable tokens"  # 4 words, 10 vocab tokens
    docs, claims = tmp_path / "docs.jsonl", tmp_path / "claims.jsonl"
    docs.write_text(json.dumps({"id": "d", "units": [{"text": unit}]}) + "\n")
    claims.write_text(json.dumps({"id": "c", "doc_id": "d", "text": "tokens"}) + "\n")
    args = ["--documents", docs, "--claims", claims, "--premise-cap", 4, "--out", tmp_path / "r"]
    assert _run(["score", *args]) == 0  # whitespace: 4 tokens, at the cap
    for command in ("score", "retrieve"):
        assert _run([command, *args, "--counter", f"vocab:{vocab}"]) == 1
        err = json.loads(capsys.readouterr().err)["error"]
        assert err == {"type": "validation",
                       "message": "premise has 10 tokens, backend 'overlap' admits 4"}


def test_every_subcommand_takes_every_config_field():
    parser = build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert set(subparsers.choices) == {"score", "retrieve", "evaluate", "calibrate", "bench"}
    for name, sub in subparsers.choices.items():
        actions = {a.dest: a for a in sub._actions}
        assert {f.name for f in fields(RunConfig)} <= set(actions), name
        assert tuple(actions["backend"].choices) == BACKENDS


def test_parser_is_built_once_and_reused(fixture_dir, tmp_path, capsys):
    """Parsing leaves the cached parser unchanged: each command gives the
    same report, and a usage error the same message, as a fresh parser."""
    commands = [
        ["score", "--explain"],
        ["score"],
        ["score", "--budget"],  # usage error: a flag without its value
        ["retrieve", "--trace", "--brute-force"],
        ["retrieve"],
    ]

    def run_all(fresh):
        outputs = []
        for i, command in enumerate(commands):
            if fresh:
                build_parser.cache_clear()
            out = tmp_path / f"{fresh}-{i}.json"
            code = _run([*command, *_fixture_args(fixture_dir), "--out", out])
            outputs.append((code, capsys.readouterr().err,
                            _sans_meta(_load_report(out)) if code == 0 else None))
        return outputs

    build_parser.cache_clear()
    reused = run_all(fresh=False)
    assert build_parser() is build_parser()
    assert [code for code, _, _ in reused] == [0, 0, 1, 0, 0]
    assert "expected one argument" in reused[2][1]
    assert reused == run_all(fresh=True)


def _corpus_files(tmp_path, doc=None, unit=None, claim=None):
    """A two-line documents file and a two-line claims file, with ``doc``,
    ``unit`` and ``claim`` merged into the records on line 2."""
    docs, claims = tmp_path / "docs.jsonl", tmp_path / "claims.jsonl"
    units = [{"text": "The ferry docked."},
             {"speaker": "Mara", "text": "It rained.", **(unit or {})}]
    docs.write_text(json.dumps({"id": "d0", "units": [{"text": "x"}]}) + "\n"
                    + json.dumps({"id": "d", "units": units, **(doc or {})}) + "\n")
    claims.write_text(json.dumps({"id": "c0", "doc_id": "d", "text": "x"}) + "\n"
                      + json.dumps({"id": "c", "doc_id": "d", "text": "A ferry.", **(claim or {})})
                      + "\n")
    return docs, claims


_UNIT_TYPES = "unit 1 must be an object with a string 'text' and a string or null 'speaker'"
_RELEVANT_TYPES = "'relevant_units' must be null or an array of integers"


@pytest.mark.parametrize(("which", "record", "named"), [
    ("doc", {"id": 7}, "document 'id' must be a string"),
    ("doc", {"units": {"text": "x"}}, "'units' must be an array"),
    ("doc", {"units": [{"text": "x"}, "y"]}, "unit 1 must be an object"),
    ("unit", {"text": 5}, _UNIT_TYPES),
    ("unit", {"text": None}, _UNIT_TYPES),
    ("unit", {"speaker": 3}, _UNIT_TYPES),
    ("claim", {"doc_id": ["d"]}, "claim 'doc_id' must be a string"),
    ("claim", {"id": 7}, "claim 'id' must be a string"),
    ("claim", {"text": None}, "claim 'text' must be a string"),
    ("claim", {"relevant_units": ["1"]}, _RELEVANT_TYPES),
    ("claim", {"relevant_units": [True]}, _RELEVANT_TYPES),
    ("claim", {"relevant_units": [1.5]}, _RELEVANT_TYPES),
    ("claim", {"relevant_units": 1}, _RELEVANT_TYPES),
    ("claim", {"label": "no"}, "'label' must be true, false or null"),
    ("claim", {"label": 1}, "'label' must be true, false or null"),
])
def test_wrong_typed_record_field_exits_one_at_its_line(tmp_path, capsys, which, record, named):
    docs, claims = _corpus_files(tmp_path, **{which: record})
    out = tmp_path / "r.json"
    assert _run(["score", "--documents", docs, "--claims", claims, "--out", out]) == 1
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["type"] == "validation"
    assert err["message"].startswith(f"{claims if which == 'claim' else docs}:2: ")
    assert named in err["message"]
    assert not out.exists()


@pytest.mark.parametrize(("which", "record", "named"), [
    ("claim", {"id": "c\ud800"}, "claim 'c\\ud800'"),
    ("claim", {"text": "A ferry\udfff."}, "claim 'c'"),
    ("claim", {"note": {"by": ["w\ud800"]}}, "claim 'c'"),
    ("doc", {"source": "wiki\ud800"}, "document 'd'"),
    ("unit", {"text": "It rained\ud800."}, "document 'd'"),
    ("unit", {"speaker": "M\udc00"}, "document 'd'"),
    ("unit", {"scene": "\ud800"}, "document 'd'"),
])
def test_a_corpus_string_that_cannot_be_written_as_utf8_exits_one_before_scoring(
    tmp_path, monkeypatch, capsys, which, record, named
):
    """A lone surrogate, from a \\ud800 escape, loads but cannot be written
    as UTF-8: the corpus hash names its record and no pair is scored."""
    calls = []
    monkeypatch.setattr(LexicalOverlapBackend, "evaluate",
                        lambda self, premise, hypothesis: calls.append(premise) or 0.5)
    docs, claims = _corpus_files(tmp_path, **{which: record})
    out = tmp_path / "r.json"
    assert _run(["score", "--documents", docs, "--claims", claims, "--out", out]) == 1
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["type"] == "validation"
    assert err["message"].startswith(f"{named} holds a string that cannot be written as UTF-8")
    assert calls == []
    assert not out.exists()


@pytest.mark.parametrize(("flag", "value", "key"), [
    ("--endpoint", "http://localhost/\ud800", "endpoint"),
    ("--auth-header", "X-K\udcff: secret", "auth_header"),
    ("--relevance-file", "rel-\udcff.json", "relevance_file"),
    ("--counter", "vocab:vocab-\udcff.txt", "counter"),
    ("--config", '{"endpoint": "http://localhost/\\ud800"}', "endpoint"),
])
def test_a_config_string_that_cannot_be_written_as_utf8_exits_one_before_loading(
    fixture_dir, tmp_path, monkeypatch, capsys, flag, value, key
):
    """A config or flag string that reports carry, holding a lone surrogate
    (a \\ud800 escape, or a path byte that is not UTF-8 as ``sys.argv``
    decodes it), exits 1 before the corpus is loaded."""
    def no_loading(*args, **kwargs):
        raise AssertionError("loaded the corpus")

    monkeypatch.setattr(cli, "load_corpus", no_loading)
    if flag == "--config":  # the value is the config file's text
        path = tmp_path / "config.json"
        path.write_text(value, encoding="utf-8")
        value = path
    out = tmp_path / "r.json"
    assert _run(["score", *_fixture_args(fixture_dir), flag, value, "--out", out]) == 1
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["type"] == "validation"
    assert err["message"].startswith(f"config key {key!r} cannot be written as UTF-8")
    assert "secret" not in err["message"]
    assert not out.exists()


@pytest.mark.parametrize(("unit", "claim"), [
    ({"speaker": None}, {"label": None, "relevant_units": None}),
    ({"speaker": "Mara"}, {"label": False, "relevant_units": [1, 0, 1]}),
    ({"text": "Rain.", "scene": [1]}, {"relevant_units": [], "annotator": "w7"}),
])
def test_well_typed_record_fields_load(tmp_path, unit, claim):
    docs, claims = _corpus_files(tmp_path, unit=unit, claim=claim)
    assert _run(["score", "--documents", docs, "--claims", claims,
                 "--out", tmp_path / "r.json"]) == 0


@pytest.mark.parametrize("which", ["documents", "claims"])
def test_unreadable_corpus_file_exits_one(fixture_dir, tmp_path, capsys, which):
    args = dict(zip(("documents", "claims"), _fixture_args(fixture_dir)[1::2]))
    args[which] = tmp_path  # a directory
    out = tmp_path / "r.json"
    assert _run(["score", "--documents", args["documents"], "--claims", args["claims"],
                 "--out", out]) == 1
    err = json.loads(capsys.readouterr().err)["error"]
    assert err == {"type": "validation",
                   "message": f"{tmp_path}: cannot read file (Is a directory)"}

    bad = tmp_path / "latin1.jsonl"
    first = (fixture_dir / f"{which}.jsonl").read_bytes().splitlines(keepends=True)[0]
    bad.write_bytes(first + '{"id": "café"}\n'.encode("latin-1"))
    args[which] = bad
    assert _run(["score", "--documents", args["documents"], "--claims", args["claims"],
                 "--out", out]) == 1
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["type"] == "validation"
    assert err["message"].startswith(f"{bad}:2: not UTF-8 text")
    assert not out.exists()

    loop = tmp_path / "loop"
    loop.symlink_to(loop)  # a path that cannot be resolved
    args[which] = loop
    assert _run(["score", "--documents", args["documents"], "--claims", args["claims"],
                 "--out", out]) == 1
    err = json.loads(capsys.readouterr().err)["error"]
    assert err == {"type": "validation",
                   "message": f"{loop}: cannot read file (Too many levels of symbolic links)"}


@pytest.mark.parametrize(("command", "flag"), [
    (["score"], "--out"),
    (["calibrate", "--budgets", "16,64"], "--csv"),
    (["calibrate", "--budgets", "16,64"], "--curve-csv"),
    (["bench", "--budgets", "16,64"], "--csv"),
])
def test_missing_output_directory_fails_before_scoring(
    fixture_dir, tmp_path, monkeypatch, capsys, command, flag
):
    def no_scoring(*args, **kwargs):
        raise AssertionError("scored before checking the output directory")

    monkeypatch.setattr(cli, "score_texts", no_scoring)
    target = tmp_path / "missing" / "out.file"
    assert _run([*command, *_fixture_args(fixture_dir), flag, target]) == 1
    err = json.loads(capsys.readouterr().err)["error"]
    assert err == {"type": "validation", "message": (
        f"cannot write {target}: {target.parent} is not a directory"
    )}


@pytest.mark.parametrize(("command", "flag"), [
    (["score"], "--out"),
    (["calibrate", "--budgets", "16,64"], "--csv"),
    (["calibrate", "--budgets", "16,64"], "--curve-csv"),
])
def test_output_path_that_is_a_directory_fails_before_loading(
    fixture_dir, tmp_path, monkeypatch, capsys, command, flag
):
    def no_loading(*args, **kwargs):
        raise AssertionError("loaded the corpus before checking the output path")

    monkeypatch.setattr(cli, "load_corpus", no_loading)
    assert _run([*command, *_fixture_args(fixture_dir), flag, tmp_path]) == 1
    err = json.loads(capsys.readouterr().err)["error"]
    assert err == {"type": "validation", "message": f"cannot write {tmp_path}: it is a directory"}


@pytest.mark.parametrize(("command", "flag"), [
    (["score"], "--out"),
    (["calibrate", "--budgets", "16,64"], "--csv"),
    (["calibrate", "--budgets", "16,64"], "--curve-csv"),
])
def test_output_path_that_cannot_be_stat_ed_fails_before_loading(
    fixture_dir, tmp_path, monkeypatch, capsys, command, flag
):
    def no_loading(*args, **kwargs):
        raise AssertionError("loaded the corpus before checking the output path")

    monkeypatch.setattr(cli, "load_corpus", no_loading)
    loop = tmp_path / "loop"
    loop.symlink_to(loop)
    assert _run([*command, *_fixture_args(fixture_dir), flag, loop]) == 1
    err = json.loads(capsys.readouterr().err)["error"]
    assert err == {"type": "validation",
                   "message": f"cannot write {loop}: Too many levels of symbolic links"}


@pytest.mark.parametrize(("command", "outputs", "message"), [
    (["calibrate", "--budgets", "16,64"], ["--csv", "r.csv", "--out", "r.csv"],
     "cannot write r.csv: --csv and --out name the same file"),
    (["calibrate", "--budgets", "16,64"], ["--csv", "r.csv", "--curve-csv", "sub/../r.csv"],
     "cannot write sub/../r.csv: --curve-csv and --csv name the same file"),
    (["score"], ["--out", "./documents.jsonl"],
     "cannot write ./documents.jsonl: --out and --documents name the same file"),
    (["bench", "--budgets", "16,64"], ["--csv", "claims.jsonl"],
     "cannot write claims.jsonl: --csv and --claims name the same file"),
    (["score"], ["--out", "sub/../config.json"],
     "cannot write sub/../config.json: --out and --config name the same file"),
    (["score"], ["--out", "hard-link.jsonl"],
     "cannot write hard-link.jsonl: --out and --documents name the same file"),
    (["calibrate", "--budgets", "16,64"], ["--out", "sub/new.json", "--curve-csv",
                                           "sub-link/new.json"],
     "cannot write sub-link/new.json: --curve-csv and --out name the same file"),
    (["score"], ["--backend", "unit-relevance", "--relevance-file", "rel.json",
                 "--out", "rel.json"],
     "cannot write rel.json: --out and --relevance-file name the same file"),
    (["score"], ["--counter", "vocab:v.txt", "--out", "v.txt"],
     "cannot write v.txt: --out and --counter name the same file"),
], ids=["csv-out", "csv-curve-csv", "out-documents", "csv-claims", "out-config", "hard-link",
        "symlinked-directory", "out-relevance-file", "out-vocab"])
def test_output_naming_another_output_or_an_input_fails_before_scoring(
    fixture_dir, tmp_path, monkeypatch, capsys, command, outputs, message
):
    """Output paths are compared with each other and with the input files,
    through links, and a collision exits 1 before any file is written or any
    pair is scored. The relevance and vocab files named in the config are
    inputs too."""
    calls = []
    for backend in (LexicalOverlapBackend, UnitRelevanceBackend):
        monkeypatch.setattr(backend, "evaluate",
                            lambda self, premise, hypothesis: calls.append(premise) or 0.5)
    for name in ("documents.jsonl", "claims.jsonl"):
        (tmp_path / name).write_bytes((fixture_dir / name).read_bytes())
    (tmp_path / "rel.json").write_bytes((fixture_dir / "relevance.json").read_bytes())
    vocab = fixture_dir.parent / "vocab" / "mini_vocab.txt"
    (tmp_path / "v.txt").write_bytes(vocab.read_bytes())
    (tmp_path / "config.json").write_text("{}")
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub-link").symlink_to("sub")
    os.link(tmp_path / "documents.jsonl", tmp_path / "hard-link.jsonl")
    before = {p: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()}
    monkeypatch.chdir(tmp_path)
    assert _run([*command, "--documents", "documents.jsonl", "--claims", "claims.jsonl",
                 "--config", "config.json", *outputs]) == 1
    assert json.loads(capsys.readouterr().err)["error"] == {"type": "validation",
                                                           "message": message}
    assert calls == []
    assert {p: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()} == before


def test_duplicate_claim_id_exits_one(tmp_path, capsys):
    docs, claims = tmp_path / "docs.jsonl", tmp_path / "claims.jsonl"
    docs.write_text(json.dumps({"id": "d1", "units": [{"text": "the cat sat"}]}) + "\n"
                    + json.dumps({"id": "d2", "units": [{"text": "a dog ran"}]}) + "\n")
    claims.write_text(json.dumps({"id": "c", "doc_id": "d1", "text": "the cat sat"}) + "\n"
                      + json.dumps({"id": "c", "doc_id": "d2", "text": "the cat sat"}) + "\n")
    out = tmp_path / "r.json"
    assert _run(["score", "--documents", docs, "--claims", claims, "--out", out]) == 1
    err = json.loads(capsys.readouterr().err)["error"]
    assert err == {"type": "validation", "message": "duplicate claim id 'c'"}
    assert not out.exists()


def test_probe_corpus_runs_every_probed_command(tmp_path):
    """A small probe corpus, written as CI writes the 10^5-claim one, is the
    same on every write and runs each command the probe measures."""
    sizes = {"n_docs": 6, "units_per_doc": 5, "claims_per_doc": 4}
    (tmp_path / "again").mkdir()
    docs, claims = write_probe_corpus(tmp_path, **sizes)
    again = write_probe_corpus(tmp_path / "again", **sizes)
    assert [docs.read_bytes(), claims.read_bytes()] == [p.read_bytes() for p in again]
    corpus = load_corpus(docs, claims)
    assert [len(d.units) for d in corpus.documents] == [5] * 6
    assert len(corpus.claims) == 24
    assert all(len(c.relevant_units) == 1 for c in corpus.claims)
    assert {c.gold_label for c in corpus.claims} == {True, False}
    for command in (["retrieve"], ["retrieve", "--brute-force"],
                    ["evaluate", "--retrieval-recall"]):
        assert _run([*command, "--documents", docs, "--claims", claims,
                     "--out", tmp_path / "r.json"]) == 0


# ---------------------------------------------------------------------------
# start-up

_HTTP_STACK_PROBE = """
import socket, sys
import chunkcheck, chunkcheck.cli
fixture, out = sys.argv[1:]
for command in ("score", "retrieve"):
    code = chunkcheck.cli.main([command, "--documents", f"{fixture}/documents.jsonl",
                                "--claims", f"{fixture}/claims.jsonl",
                                "--backend", "overlap", "--out", out])
    assert code == 0, (command, code)
print(sorted(m for m in ("requests", "urllib3") if m in sys.modules))
def no_connection(self, address):
    raise AssertionError(f"connected to {address}")
socket.socket.connect = no_connection
from chunkcheck.backends import RemoteBackend
RemoteBackend("http://127.0.0.1:9/score")
print(sorted(m for m in ("requests", "urllib3") if m in sys.modules))
"""


def test_only_a_remote_backend_loads_the_http_stack(fixture_dir, tmp_path):
    """Offline commands never import requests or urllib3; building a
    RemoteBackend imports both and opens no connection. A subprocess, since
    this one has imported requests already."""
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", _HTTP_STACK_PROBE, str(fixture_dir), str(tmp_path / "r.json")],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "['requests', 'urllib3']"]


def test_importing_the_package_loads_no_heavy_module():
    """``import chunkcheck`` loads neither numpy, the HTTP stack nor the
    metrics module. A subprocess, since this one has imported them already."""
    src = Path(__file__).resolve().parents[1] / "src"
    probe = ("import sys, chunkcheck; print(sorted(m for m in "
             "('numpy', 'requests', 'chunkcheck.metrics') if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]"]


def test_python_dash_m_runs_the_cli(fixture_dir, tmp_path):
    """``python -m chunkcheck`` is the same CLI: version, a golden score
    report and the exit code of a usage error."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}

    def run(*argv):
        return subprocess.run([sys.executable, "-m", "chunkcheck", *map(str, argv)], env=env,
                              capture_output=True, text=True, timeout=60)

    version = run("--version")
    assert version.returncode == 0
    assert "0.1.0" in version.stdout
    out = tmp_path / "score.json"
    assert run("score", *_fixture_args(fixture_dir), "--out", out).returncode == 0
    got = _load_report(out)
    got.pop("meta")
    assert got == json.loads(GOLDEN.read_text())
    assert run().returncode == 1
