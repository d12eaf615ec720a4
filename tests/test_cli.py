import argparse
import csv
import io
import json
import os
import re
import shlex
import shutil
import subprocess
import sys
from dataclasses import asdict, fields
from pathlib import Path
from threading import TIMEOUT_MAX

import pytest

import chunkcheck.cli as cli
from chunkcheck.backends import LexicalOverlapBackend, RemoteBackend, UnitRelevanceBackend
from chunkcheck.chunking import make_chunks
from chunkcheck.cli import build_parser, main
from chunkcheck.config import (
    AUTH_ENV,
    BACKENDS,
    ENDPOINT_ENV,
    RunConfig,
    build_backend,
    resolve_config,
)
from chunkcheck.corpus import WhitespaceCounter, load_corpus
from chunkcheck.errors import BackendError, ChunkcheckError, ScoringError, ValidationError
from chunkcheck.metrics import calibration_curve
from chunkcheck.metrics import ece as ece_op
from chunkcheck.metrics import evaluate_scores, f1_macro_optimal, kendall_tau, pearson, roc_auc

from helpers import write_probe_corpus

FIXTURE = Path(__file__).resolve().parents[1] / "data" / "fixture"
DATA = Path(__file__).parent / "data"
# (flags after the fixture's files, recorded report): each report, "meta"
# dropped, must equal its golden file. CI's console-script step checks the
# same rows against the installed entry point.
GOLDEN_REPORTS = [
    ("score", "golden_score_report.json"),
    ("score --explain --dump-chunks --budget 16", "golden_score_explain_report.json"),
    ("retrieve --premise-cap 40 --trace --brute-force", "golden_retrieve_report.json"),
    ("calibrate --budgets 16,64,512", "golden_calibrate_report.json"),
    ("evaluate --retrieval-recall", "golden_evaluate_report.json"),
    ("bench --budgets 16,64,512", "golden_bench_report.json"),
]


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


@pytest.mark.parametrize(("argv", "golden"), GOLDEN_REPORTS,
                         ids=["score", "score-explain", "retrieve", "calibrate", "evaluate",
                              "bench"])
def test_report_matches_recorded_golden(fixture_dir, tmp_path, argv, golden):
    command, *flags = argv.split()
    out = tmp_path / "report.json"
    assert _run([command, *_fixture_args(fixture_dir), *flags, "--out", out]) == 0
    got = _load_report(out)
    got.pop("meta")
    assert got == json.loads((DATA / golden).read_text())


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


def test_loaded_records_share_equal_values_and_untraced_retrieve_keeps_results(tmp_path):
    """Identities counted on a loaded probe corpus, with no unknown fields:
    every record shares one ``extra`` and claims naming the same relevant
    units share one set. ``retrieve --brute-force`` without ``--trace``, which
    keeps no levels, reports what it reports with ``--trace``, less the trace."""
    paths = write_probe_corpus(tmp_path, n_docs=4, units_per_doc=6, claims_per_doc=10)
    corpus = load_corpus(*paths)
    units = [u for doc in corpus.documents for u in doc.units]
    assert len({id(r.extra) for r in [*corpus.documents, *units, *corpus.claims]}) == 1
    sets = {c.relevant_units for c in corpus.claims}
    assert len(sets) <= 6 < len(corpus.claims)
    assert len({id(c.relevant_units) for c in corpus.claims}) == len(sets)
    reports = []
    for flags in ([], ["--trace"]):
        out = tmp_path / f"retrieve{len(flags)}.json"
        assert _run(["retrieve", "--documents", paths[0], "--claims", paths[1],
                     "--brute-force", *flags, "--out", out]) == 0
        reports.append(_load_report(out)["results"]["retrievals"])
    untraced, traced = reports
    assert len(untraced) == 40 and all(entry.pop("trace") for entry in traced)
    assert untraced == traced


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


def test_evaluate_retrieval_recall_on_annotated_claims(fixture_dir, tmp_path):
    out = tmp_path / "report.json"
    code = _run(["evaluate", *_fixture_args(fixture_dir), "--retrieval-recall", "--out", out])
    assert code == 0
    retrieval = _load_report(out)["results"]["retrieval"]
    assert retrieval["n"] == 8  # labeled-consistent claims carry annotations
    assert 0.0 <= retrieval["recall"] <= 1.0


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


# ---------------------------------------------------------------------------
# config and errors


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


def test_build_backend_without_a_relevance_file_is_a_validation_error(fixture_dir):
    """A hand-built config that ``validate`` never saw gets the error that
    ``validate`` gives, not a ``TypeError`` from opening ``None``."""
    corpus = load_corpus(fixture_dir / "documents.jsonl", fixture_dir / "claims.jsonl")
    config = RunConfig(backend="unit-relevance")
    with pytest.raises(ValidationError) as validated:
        config.validate()
    with pytest.raises(ValidationError) as built:
        build_backend(config, corpus)
    assert str(built.value) == str(validated.value)
    assert "--relevance-file" in str(built.value)


def test_endpoint_from_environment(fixture_dir, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("CHUNKCHECK_ENDPOINT", "http://127.0.0.1:9/unreach")
    code = _run([
        "score", *_fixture_args(fixture_dir), "--backend", "remote",
        "--retries", "0", "--timeout", "0.2", "--out", tmp_path / "r.json",
    ])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert "http://127.0.0.1:9/unreach" in err["error"]["message"]


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
# bad input: every case is a row of BAD_INPUT, and one harness checks them all


def _jsonl(*records) -> str:
    return "".join(json.dumps(r) + "\n" for r in records)


_DOCUMENTS, _CLAIMS = ([json.loads(line) for line in (FIXTURE / name).read_text().splitlines()]
                       for name in ("documents.jsonl", "claims.jsonl"))


def _claims(drop=(), **fields) -> dict:
    """The fixture's claims file with ``drop`` taken out of every record and
    ``fields`` set in it."""
    return {"claims.jsonl": _jsonl(*({**{k: v for k, v in r.items() if k not in drop}, **fields}
                                     for r in _CLAIMS))}


def _two_records(doc=None, unit=None, claim=None) -> dict:
    """A two-line documents file and a two-line claims file, with ``doc``,
    ``unit`` and ``claim`` merged into the records on line 2."""
    units = [{"text": "The ferry docked."},
             {"speaker": "Mara", "text": "It rained.", **(unit or {})}]
    return {"documents.jsonl": _jsonl({"id": "d0", "units": [{"text": "x"}]},
                                      {"id": "d", "units": units, **(doc or {})}),
            "claims.jsonl": _jsonl({"id": "c0", "doc_id": "d", "text": "x"},
                                   {"id": "c", "doc_id": "d", "text": "A ferry.", **(claim or {})})}


def _not_utf8_second_line(name: str) -> dict:
    first = (FIXTURE / name).read_bytes().splitlines(keepends=True)[0]
    return {"latin1.jsonl": first + '{"id": "café"}\n'.encode("latin-1")}


def _out_of_range(key: str, value) -> str:
    low = "> 0" if key == "timeout" else ">= 0"
    return f"{key} must be finite, {low} and <= {TIMEOUT_MAX}, got {value}"


def _surrogate(key: str, shown: str) -> str:
    return (f"config key {key!r} cannot be written as UTF-8: {shown!r} holds a lone surrogate "
            "(a \\ud800 escape, or a path byte that is not UTF-8)")


def _record_surrogate(named: str) -> str:
    return (f"{named} holds a string that cannot be written as UTF-8 (a lone surrogate, "
            "such as a \\ud800 escape)")


LOADING, SCORING = "before loading", "before scoring"
_REMOTE = "--backend remote --endpoint http://127.0.0.1:9/x --retries 1"
_RELEVANCE = "--backend unit-relevance --relevance-file"
_DEEP = {"deep.jsonl": "[" * 100_000 + "\n"}  # deeper than json can decode
_NOT_UTF8 = {"bad.txt": b'{"budget": 64}\xff\n'}
_UNIT_TYPES = "unit 1 must be an object with a string 'text' and a string or null 'speaker'"
_RELEVANT_TYPES = "claim 'c' 'relevant_units' must be null or an array of integers"
# One unit of 4 words, which the mini vocabulary (v.txt) counts as 10 tokens.
_CAPPED = {"documents.jsonl": _jsonl({"id": "d", "units": [{"text": "unbelievable tokens " * 2}]}),
           "claims.jsonl": _jsonl({"id": "c", "doc_id": "d", "text": "tokens"})}
# The fixture, then a document "late" whose one unit is 100 words and a
# labelled, annotated claim on it: the only premise over a cap of 90 comes
# after every pair of the fixture.
_LATE_OVER_CAP = {
    "documents.jsonl": _jsonl(*_DOCUMENTS, {"id": "late", "units": [
        {"text": " ".join(f"w{i}" for i in range(100))}]}),
    "claims.jsonl": _jsonl(*_CLAIMS, {"id": "c-late", "doc_id": "late", "text": "w0 w1",
                                      "label": True, "relevant_units": [0]}),
}
_SAME_FILE = "cannot write {}: {} and {} name the same file"
_TYPED_CONFIG = "test_wrong_typed_config_exits_one"
_CONFIG_UTF8 = "test_a_config_string_that_cannot_be_written_as_utf8_exits_one_before_loading"

# (test, argv, edits, message, stage). The test is the name the row runs
# under, with a case id in brackets where the test has several cases; rows
# with the same name and id run in turn in one case. The argv follows
# "--documents documents.jsonl --claims claims.jsonl", which a later flag
# overrides; the edits are files written into the working directory first;
# in the message, "…" stands for any text, such as Python's or the OS's wording.
BAD_INPUT = [
    # flags and config
    ("test_concurrency_above_the_bound_exits_one_before_scoring", "score --concurrency 257", {},
     "concurrency must be between 1 and 256, got 257", LOADING),
    *[(f"test_ece_bins_above_the_bound_exits_one_before_loading[{bins}]",
       f"calibrate --budgets 16 --ece-bins {bins}", {},
       f"ece_bins must be between 1 and 10000, got {bins}", LOADING) for bins in (10_001, 2**62)],
    ("test_decision_threshold_outside_the_unit_interval_exits_one_before_scoring",
     "calibrate --budgets 64 --decision-threshold 1.5", {},
     "decision_threshold 1.5 outside [0, 1]", LOADING),
    *[(f"{test}[--{key}-{value}]", f"score {_REMOTE} --{key} {value}", {},
       _out_of_range(key, float(value)), LOADING)
      for test, values in [("test_non_finite_timeout_or_backoff_exits_one", ("nan", "inf")),
                           ("test_timeout_or_backoff_too_long_to_sleep_exits_one", ("1e10",))]
      for key in ("timeout", "backoff") for value in values],
    *[(test, f"{command} --config config.json", {"config.json": text}, message, LOADING)
      for test, command, text, message in [
          ("test_unknown_config_key_rejected", "score", '{"budgett": 64}',
           "unknown config keys: ['budgett']"),
          ("test_unknown_config_key_rejected", "score", '{"cache_size": 64}',
           "unknown config keys: ['cache_size']"),
          (_TYPED_CONFIG + '[score-{"budget": "512"}-budget]', "score", '{"budget": "512"}',
           "config key 'budget' must be int, got '512'"),
          (_TYPED_CONFIG + '[score-{"concurrency": "4"}-concurrency]', "score",
           '{"concurrency": "4"}', "config key 'concurrency' must be int, got '4'"),
          (_TYPED_CONFIG + "[score-null-JSON object]", "score", "null",
           "config file config.json must hold a JSON object"),
          (_TYPED_CONFIG + "[retrieve-{\"k\": 2.5}-'k']", "retrieve", '{"k": 2.5}',
           "config key 'k' must be int, got 2.5"),
          (_TYPED_CONFIG + '[retrieve-{"premise_cap": true}-premise_cap]', "retrieve",
           '{"premise_cap": true}', "config key 'premise_cap' must be int | None, got True"),
          (_TYPED_CONFIG + '[score-{"budget": 64.0}-budget]', "score", '{"budget": 64.0}',
           "config key 'budget' must be int, got 64.0"),
          ("test_non_finite_config_value_exits_one", "score", '{"timeout": NaN}',
           _out_of_range("timeout", float("nan"))),
          ("test_integer_too_large_for_a_float_exits_one[timeout]", "score",
           f'{{"timeout": {10**400}}}', _out_of_range("timeout", 10**400)),
          ("test_integer_too_large_for_a_float_exits_one[backoff]", "score",
           f'{{"backoff": {10**400}}}', _out_of_range("backoff", 10**400)),
          # json's digit limit rejects it, or the finite check where Python has no limit
          ("test_integer_over_the_digit_limit_exits_one", "score",
           f'{{"timeout": 1{"0" * 5000}}}', "…"),
          (_CONFIG_UTF8 + '[--config-{"endpoint": "http://localhost/\\ud800"}-endpoint]', "score",
           '{"endpoint": "http://localhost/\\ud800"}',
           _surrogate("endpoint", "http://localhost/\ud800")),
      ]],
    ("test_deeply_nested_json_exits_one_before_scoring[--config]",
     f"retrieve {_RELEVANCE} relevance.json --config deep.jsonl", _DEEP,
     "config file deep.jsonl is not valid JSON: …", LOADING),
    ("test_unreadable_input_file_exits_one_before_scoring[config-directory]",
     "score --config sub", {}, "cannot read config file sub: …", LOADING),
    ("test_unreadable_input_file_exits_one_before_scoring[config-not-utf8]",
     "score --config bad.txt", _NOT_UTF8, "config file bad.txt is not UTF-8 text (…)", LOADING),
    (_CONFIG_UTF8 + "[--endpoint-http://localhost/\ud800-endpoint]",
     "score --endpoint http://localhost/\ud800", {},
     _surrogate("endpoint", "http://localhost/\ud800"), LOADING),
    (_CONFIG_UTF8 + "[--auth-header-X-K\udcff: secret-auth_header]",
     "score --auth-header 'X-K\udcff: secret'", {},
     _surrogate("auth_header", "X-K\udcff: ***"), LOADING),
    (_CONFIG_UTF8 + "[--relevance-file-rel-\udcff.json-relevance_file]",
     "score --relevance-file rel-\udcff.json", {},
     _surrogate("relevance_file", "rel-\udcff.json"), LOADING),
    (_CONFIG_UTF8 + "[--counter-vocab:vocab-\udcff.txt-counter]",
     "score --counter vocab:vocab-\udcff.txt", {},
     _surrogate("counter", "vocab:vocab-\udcff.txt"), LOADING),
    ("test_invalid_flag_combo_exits_one", "score --backend unit-relevance", {},
     "unit-relevance backend needs --relevance-file", LOADING),
    ("test_remote_backend_without_an_endpoint_exits_one_before_loading", "score --backend remote",
     {}, "remote backend needs an endpoint (flag, config file, or $CHUNKCHECK_ENDPOINT)", LOADING),
    ("test_unknown_counter_exits_one_before_loading", "score --counter bogus", {},
     "unknown token counter 'bogus'; use 'whitespace' or 'vocab:<path>'", LOADING),
    # corpus files
    *[(test.format(name), f"{command} --{name} {path}", edits, message, SCORING)
      for name in ("documents", "claims")
      for test, command, path, edits, message in [
          ("test_deeply_nested_json_exits_one_before_scoring[--{}]",
           f"retrieve {_RELEVANCE} relevance.json", "deep.jsonl", _DEEP,
           "deep.jsonl:1: invalid JSON (…)"),
          ("test_unreadable_corpus_file_exits_one[{}]", "score", "sub", {},
           "sub: cannot read file (Is a directory)"),
          ("test_unreadable_corpus_file_exits_one[{}]", "score", "latin1.jsonl",
           _not_utf8_second_line(f"{name}.jsonl"), "latin1.jsonl:2: not UTF-8 text…"),
          ("test_unreadable_corpus_file_exits_one[{}]", "score", "loop", {},
           "loop: cannot read file (Too many levels of symbolic links)"),
      ]],
    # the case id holds the part of the message its old test asserted
    *[(f"test_wrong_typed_record_field_exits_one_at_its_line[{which}-record{i}-{part}]", "score",
       _two_records(**{which: record}),
       f"{'claims' if which == 'claim' else 'documents'}.jsonl:2: {message}", SCORING)
      for i, (part, which, record, message) in enumerate([
          ("document 'id' must be a string", "doc", {"id": 7},
           "document 'id' must be a string, got 7"),
          ("'units' must be an array", "doc", {"units": {"text": "x"}},
           "document 'd' 'units' must be an array, got {'text': 'x'}"),
          ("unit 1 must be an object", "doc", {"units": [{"text": "x"}, "y"]},
           f"{_UNIT_TYPES}, got 'y'"),
          (_UNIT_TYPES, "unit", {"text": 5},
           f"{_UNIT_TYPES}, got {{'speaker': 'Mara', 'text': 5}}"),
          (_UNIT_TYPES, "unit", {"text": None},
           f"{_UNIT_TYPES}, got {{'speaker': 'Mara', 'text': None}}"),
          (_UNIT_TYPES, "unit", {"speaker": 3},
           f"{_UNIT_TYPES}, got {{'speaker': 3, 'text': 'It rained.'}}"),
          ("claim 'doc_id' must be a string", "claim", {"doc_id": ["d"]},
           "claim 'doc_id' must be a string, got ['d']"),
          ("claim 'id' must be a string", "claim", {"id": 7},
           "claim 'id' must be a string, got 7"),
          ("claim 'text' must be a string", "claim", {"text": None},
           "claim 'text' must be a string, got None"),
          *[("'relevant_units' must be null or an array of integers", "claim",
             {"relevant_units": units}, f"{_RELEVANT_TYPES}, got {units!r}")
            for units in (["1"], [True], [1.5], 1)],
          *[("'label' must be true, false or null", "claim", {"label": label},
             f"claim 'c' 'label' must be true, false or null, got {label!r}")
            for label in ("no", 1)],
      ])],
    # a lone surrogate, from a \ud800 escape, loads but cannot be written as UTF-8
    *[("test_a_corpus_string_that_cannot_be_written_as_utf8_exits_one_before_scoring"
       f"[{which}-record{i}-{named}]", "score", _two_records(**{which: record}),
       _record_surrogate(named), SCORING)
      for i, (which, record, named) in enumerate([
          ("claim", {"id": "c\ud800"}, "claim 'c\\ud800'"),
          ("claim", {"text": "A ferry\udfff."}, "claim 'c'"),
          ("claim", {"note": {"by": ["w\ud800"]}}, "claim 'c'"),
          ("doc", {"source": "wiki\ud800"}, "document 'd'"),
          ("unit", {"text": "It rained\ud800."}, "document 'd'"),
          ("unit", {"speaker": "M\udc00"}, "document 'd'"),
          ("unit", {"scene": "\ud800"}, "document 'd'"),
      ])],
    ("test_duplicate_claim_id_exits_one", "score",
     {"claims.jsonl": _jsonl(*_CLAIMS, {**_CLAIMS[0], "doc_id": "reef-survey"})},
     "duplicate claim id 'c01'", SCORING),
    # values that load but break an invariant, named by id rather than by line
    *[(f"test_corpus_value_error_exits_one_before_scoring[{name}]", "score", edits, message,
       SCORING)
      for name, edits, message in [
          ("empty-document-id", _two_records(doc={"id": ""}), "document id must be non-empty"),
          ("no-units", _two_records(doc={"units": []}), "document 'd' has no units"),
          ("blank-unit", _two_records(unit={"text": " \t"}),
           "document 'd': unit 1 has empty text"),
          ("duplicate-document-id",
           {"documents.jsonl": _jsonl(*[{"id": "d", "units": [{"text": "x"}]}] * 2)},
           "duplicate document id 'd'"),
          ("unknown-document", _two_records(claim={"doc_id": "zz"}),
           "claim 'c' references unknown document 'zz'"),
          ("empty-claim-id", _two_records(claim={"id": ""}), "claim id must be non-empty"),
          ("blank-claim", _two_records(claim={"text": "  "}), "claim 'c' has empty text"),
          ("relevant-unit-out-of-range", _two_records(claim={"relevant_units": [2, 0, -1]}),
           "claim 'c': relevant unit indices [-1, 2] out of range for document 'd' with 2 units"),
      ]],
    # relevance and vocab files
    *[(f"test_wrong_shaped_relevance_file_exits_one[{name}]",
       f"retrieve {_RELEVANCE} relevance.json", {"relevance.json": text},
       f"relevance file relevance.json{message}", SCORING)
      for name, text, message in [
          ("list", "[0.5, 0.5]", " must hold a JSON object {doc_id: [unit scores]}"),
          ("string", '"reef-survey"', " must hold a JSON object {doc_id: [unit scores]}"),
          ("string-scores", '{"reef-survey": "0.2"}',
           ": document 'reef-survey' needs an array of numbers"),
          ("string-score", '{"reef-survey": [0.2, "0.8", 0.1, 0.3, 0.5, 0.7]}',
           ": document 'reef-survey' needs an array of numbers"),
          ("true-score", '{"reef-survey": [0.2, true, 0.1, 0.3, 0.5, 0.7]}',
           ": document 'reef-survey' needs an array of numbers"),
          ("no-documents", "{}", " has no scores for document 'ops-briefing'"),
      ]],
    ("test_unit_text_with_a_newline_exits_one_under_unit_relevance",
     f"retrieve {_RELEVANCE} relevance.json",
     {"documents.jsonl": _jsonl({**_DOCUMENTS[0], "units": [*_DOCUMENTS[0]["units"][:7],
                                                             {"text": "Rain\nfell."}]},
                                *_DOCUMENTS[1:])},
     "document 'ops-briefing' unit 7: text contains a newline", SCORING),
    ("test_unit_speaker_with_a_newline_exits_one_under_unit_relevance",
     f"retrieve {_RELEVANCE} relevance.json",
     {"documents.jsonl": _jsonl({**_DOCUMENTS[0], "units": [*_DOCUMENTS[0]["units"][:7],
                                                             {"speaker": "Ve\nga",
                                                              "text": "Rain fell."}]},
                                *_DOCUMENTS[1:])},
     "document 'ops-briefing' unit 7: speaker contains a newline", SCORING),
    ("test_deeply_nested_json_exits_one_before_scoring[--relevance-file]",
     f"retrieve {_RELEVANCE} deep.jsonl", _DEEP,
     "relevance file deep.jsonl is not valid JSON: …", SCORING),
    ("test_missing_relevance_file_exits_one", f"retrieve {_RELEVANCE} absent.json", {},
     "cannot read relevance file absent.json: …", SCORING),
    ("test_unreadable_input_file_exits_one_before_scoring[relevance-not-utf8]",
     f"score {_RELEVANCE} bad.txt", _NOT_UTF8,
     "relevance file bad.txt is not UTF-8 text (…)", SCORING),
    ("test_missing_vocab_file_exits_one", "score --counter vocab:absent/v.txt", {},
     "cannot read vocabulary file absent/v.txt: …", SCORING),
    ("test_unreadable_input_file_exits_one_before_scoring[vocab-not-utf8]",
     "score --counter vocab:bad.txt", _NOT_UTF8,
     "vocabulary file bad.txt is not UTF-8 text (…)", SCORING),
    # output paths, compared with each other and with the inputs through links
    *[(f"{test}[command{i}---{flag}]", f"{command} --{flag} {path}", {},
       f"cannot write {path}: {message}", LOADING)
      for i, (command, flag) in enumerate([("score", "out"), ("calibrate --budgets 16,64", "csv"),
                                           ("calibrate --budgets 16,64", "curve-csv"),
                                           ("bench --budgets 16,64", "csv")])
      for test, path, message in [
          ("test_missing_output_directory_fails_before_scoring", "missing/out.file",
           "missing is not a directory"),
          ("test_output_path_that_is_a_directory_fails_before_loading", "sub",
           "it is a directory"),
          ("test_output_path_that_cannot_be_stat_ed_fails_before_loading", "loop",
           "Too many levels of symbolic links"),
      ]],
    *[(f"test_output_naming_another_output_or_an_input_fails_before_scoring[{name}]",
       f"{command} {outputs}", edits, _SAME_FILE.format(*named), LOADING)
      for name, command, outputs, edits, named in [
          ("csv-out", "calibrate --budgets 16,64", "--csv r.csv --out r.csv", {},
           ("r.csv", "--csv", "--out")),
          ("csv-curve-csv", "calibrate --budgets 16,64", "--csv r.csv --curve-csv sub/../r.csv",
           {}, ("sub/../r.csv", "--curve-csv", "--csv")),
          ("out-documents", "score", "--out ./documents.jsonl", {},
           ("./documents.jsonl", "--out", "--documents")),
          ("csv-claims", "bench --budgets 16,64", "--csv claims.jsonl", {},
           ("claims.jsonl", "--csv", "--claims")),
          ("out-config", "score", "--config config.json --out sub/../config.json",
           {"config.json": "{}"}, ("sub/../config.json", "--out", "--config")),
          ("hard-link", "score", "--out hard-link.jsonl", {},
           ("hard-link.jsonl", "--out", "--documents")),
          ("symlinked-directory", "calibrate --budgets 16,64",
           "--out sub/new.json --curve-csv sub-link/new.json", {},
           ("sub-link/new.json", "--curve-csv", "--out")),
          ("out-relevance-file", "score", f"{_RELEVANCE} relevance.json --out relevance.json", {},
           ("relevance.json", "--out", "--relevance-file")),
          ("out-vocab", "score", "--counter vocab:v.txt --out v.txt", {},
           ("v.txt", "--out", "--counter")),
      ]],
    # labels, budgets and annotations
    ("test_evaluate_missing_labels_is_actionable", "evaluate",
     {"claims.jsonl": _jsonl({"id": "nolabel", "doc_id": "reef-survey", "text": "x",
                              "label": None})},
     "1 claims have no gold label (first: 'nolabel'); evaluation needs 'label' set on every claim",
     SCORING),
    ("test_evaluate_retrieval_recall_without_annotations_exits_before_scoring",
     "evaluate --retrieval-recall", _claims(drop=("relevant_units",)),
     "no claims carry relevant_units annotations", SCORING),
    *[(f"test_single_class_labels_cost_no_scorer_call[command{i}]", command, _claims(label=True),
       "both classes must be present (every gold label is true)", SCORING)
      for i, command in enumerate(["evaluate", "evaluate --retrieval-recall",
                                   "bench --budgets 16,64"])],
    ("test_bad_budgets_rejected", "bench --budgets 64,zero", {},
     "bad --budgets value '64,zero': …", SCORING),
    *[(f"test_repeated_budget_exits_one_before_scoring[{command}]",
       f"{command} --budgets 16,64,064", {}, "budget 64 is repeated in '16,64,064'", SCORING)
      for command in ("calibrate", "bench")],
    # premises over the cap
    ("test_oversized_premise_exits_one", "score --premise-cap 3", {},
     "premise has 69 tokens, over the premise cap of 3", SCORING),
    *[(f"test_premise_over_the_cap_of_the_configured_counter_exits_one[{command}]",
       f"{command} --premise-cap 4 --counter vocab:v.txt",
       _CAPPED, "premise has 10 tokens, over the premise cap of 4", SCORING)
      for command in ("score", "retrieve")],
    *[(f"test_a_late_premise_over_the_cap_costs_no_backend_call[{command}]",
       f"{command} --premise-cap 90", _LATE_OVER_CAP,
       "premise has 100 tokens, over the premise cap of 90", SCORING)
      for command in ("score", "retrieve", "retrieve --brute-force",
                      "evaluate --retrieval-recall")],
]


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    """A copy of data/fixture as the working directory, with the mini
    vocabulary as v.txt, a directory sub, a symbolic link sub-link to it, a
    symbolic link loop to itself, and hard-link.jsonl, a hard link to
    documents.jsonl."""
    for name in ("documents.jsonl", "claims.jsonl", "relevance.json"):
        shutil.copy(FIXTURE / name, tmp_path)
    shutil.copy(FIXTURE.parent / "vocab" / "mini_vocab.txt", tmp_path / "v.txt")
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub-link").symlink_to("sub")
    (tmp_path / "loop").symlink_to("loop")
    os.link(tmp_path / "documents.jsonl", tmp_path / "hard-link.jsonl")
    monkeypatch.chdir(tmp_path)
    return tmp_path


def _write(edits: dict) -> None:
    for name, content in edits.items():
        if isinstance(content, bytes):
            Path(name).write_bytes(content)
        else:
            Path(name).write_text(content, encoding="utf-8")


def _tree() -> dict:
    """Every path under the working directory: a file's bytes, a symbolic
    link's target, None for a directory."""
    out = {}
    for parent, dirs, files in os.walk("."):
        for path in (os.path.join(parent, name) for name in dirs + files):
            out[path] = (os.readlink(path) if os.path.islink(path)
                         else None if os.path.isdir(path) else Path(path).read_bytes())
    return out


def _check_bad_input(monkeypatch, capsys, argv, edits, message, stage):
    """Exit 1 with one JSON line of type validation on stderr and the row's
    message, no backend call, the corpus not loaded for a row checked before
    loading, and no file made or changed. The row's flags and files are its
    only config: the endpoint and auth header variables are unset."""
    for name in (ENDPOINT_ENV, AUTH_ENV):
        monkeypatch.delenv(name, raising=False)
    _write(edits)
    before = _tree()
    calls, loads = [], []
    for backend in (LexicalOverlapBackend, UnitRelevanceBackend, RemoteBackend):
        monkeypatch.setattr(backend, "evaluate",
                            lambda self, premise, hypothesis: calls.append(premise) or 0.5)
    monkeypatch.setattr(cli, "load_corpus",
                        lambda *paths: loads.append(paths) or load_corpus(*paths))
    command, *flags = shlex.split(argv)
    code = main([command, "--documents", "documents.jsonl", "--claims", "claims.jsonl", *flags])
    out, err = capsys.readouterr()
    assert (code, out, err.count("\n"), err[-1:]) == (1, "", 1, "\n"), err
    error = json.loads(err)["error"]
    assert error["type"] == "validation"
    pattern = ".*".join(map(re.escape, message.split("…")))
    assert re.fullmatch(pattern, error["message"], re.DOTALL), error["message"]
    assert calls == []
    if stage == LOADING:
        assert loads == []
    assert _tree() == before


def _bad_input_test(cases: dict):
    """A test that checks each case's rows in turn, from ``cases``, {id:
    rows}; a test whose one case has no id takes no parameter."""
    def test(workdir, monkeypatch, capsys, rows):
        for row in rows:
            _check_bad_input(monkeypatch, capsys, *row)
    if list(cases) == [""]:
        return lambda workdir, monkeypatch, capsys: test(workdir, monkeypatch, capsys, cases[""])
    return pytest.mark.parametrize("rows", list(cases.values()), ids=list(cases))(test)


def _bad_input_tests() -> dict:
    cases = {}
    for test, *row in BAD_INPUT:
        name, _, case = test.partition("[")
        cases.setdefault(name, {}).setdefault(case[:-1], []).append(row)
    return {name: _bad_input_test(rows) for name, rows in cases.items()}


globals().update(_bad_input_tests())


def test_premise_cap_counts_with_configured_counter(workdir):
    """The whitespace counter counts ``_CAPPED``'s unit as 4 tokens, at the
    cap; the vocabulary's 10 are over it (rows of
    ``test_premise_over_the_cap_of_the_configured_counter_exits_one``)."""
    _write(_CAPPED)
    assert _run(["score", "--documents", "documents.jsonl", "--claims", "claims.jsonl",
                 "--premise-cap", 4, "--out", "r.json"]) == 0


def test_a_sweep_scores_the_budgets_before_one_over_the_cap(workdir, monkeypatch, capsys):
    """``calibrate`` and ``bench`` score their budgets in order: a chunk over
    the cap only at budget 64 exits 1 once budget 16's pairs are scored, and
    before any pair of budget 64 is."""
    calls = []
    monkeypatch.setattr(LexicalOverlapBackend, "evaluate",
                        lambda self, *pair: calls.append(pair) or 0.5)
    assert _run(["calibrate", "--documents", "documents.jsonl", "--claims", "claims.jsonl",
                 "--budgets", "16,64", "--premise-cap", 20]) == 1
    assert json.loads(capsys.readouterr().err)["error"] == {
        "type": "validation", "message": "premise has 60 tokens, over the premise cap of 20"}
    corpus, wc = load_corpus("documents.jsonl", "claims.jsonl"), WhitespaceCounter()
    budget_16 = {(chunk.text, claim.text) for claim in corpus.claims
                 for chunk in make_chunks(corpus.document(claim.doc_id), 16, wc).chunks}
    assert len(calls) == len(budget_16) == 76
    assert set(calls) == budget_16


@pytest.mark.parametrize(("unit", "claim"), [
    ({"speaker": None}, {"label": None, "relevant_units": None}),
    ({"speaker": "Mara"}, {"label": False, "relevant_units": [1, 0, 1]}),
    ({"text": "Rain.", "scene": [1]}, {"relevant_units": [], "annotator": "w7"}),
])
def test_well_typed_record_fields_load(workdir, unit, claim):
    _write(_two_records(unit=unit, claim=claim))
    assert _run(["score", "--documents", "documents.jsonl", "--claims", "claims.jsonl",
                 "--out", "r.json"]) == 0


# ---------------------------------------------------------------------------
# start-up

_HEAVY_MODULE_PROBE = """
import socket, sys
import chunkcheck, chunkcheck.cli, chunkcheck.metrics
fixture, out = sys.argv[1:]
def run(*argv):
    code = chunkcheck.cli.main([*argv, "--documents", f"{fixture}/documents.jsonl",
                                "--claims", f"{fixture}/claims.jsonl",
                                "--backend", "overlap", "--out", out])
    assert code == 0, (argv, code)
def loaded():
    print(sorted(m for m in ("numpy", "requests", "urllib3") if m in sys.modules))
run("score")
run("retrieve")
run("retrieve", "--brute-force")
loaded()
run("evaluate")
loaded()
def no_connection(self, address):
    raise AssertionError(f"connected to {address}")
socket.socket.connect = no_connection
from chunkcheck.backends import RemoteBackend
RemoteBackend("http://127.0.0.1:9/score")
loaded()
"""


def test_only_metrics_load_numpy_and_only_remote_loads_the_http_stack(fixture_dir, tmp_path):
    """``score`` and ``retrieve``, brute force included, import neither numpy
    nor the HTTP stack, even with ``chunkcheck.metrics`` imported; ``evaluate``
    imports numpy, and building a RemoteBackend imports urllib3, never
    requests, and opens no connection. A subprocess, since this one has
    imported all three already."""
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", _HEAVY_MODULE_PROBE, str(fixture_dir), str(tmp_path / "r.json")],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "[]", "['numpy']", "['numpy', 'urllib3']",
    ]


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
    assert got == json.loads((DATA / "golden_score_report.json").read_text())
    assert run().returncode == 1
