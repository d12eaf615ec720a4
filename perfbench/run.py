"""chunkcheck benchmark.

    python3 perfbench/run.py --workload long-docs --seed 1 --seconds 25 --trace 0

Generates the workload's inputs from the seed, then runs rounds until the
time is up: each round runs every phase of the workload on one shard of the
corpus, calling ``chunkcheck.cli.main`` in-process with the argv a user
would type (and the public ``chunkcheck.metrics`` API for the metrics
phase). One process, one claim after another: a closed loop whose only
parallelism is chunkcheck's own ``--concurrency``.

With ``--trace 0`` the rounds are untraced and the end-to-end metrics are
reported. With ``--trace 1`` each shard runs twice, untraced then traced,
and the per-layer metrics come from the traced rounds (spans.py,
layers.py). Times are adjusted for machine speed (speed.py). Outputs are
checked outside the timed regions. Human-readable lines come first; the
last line of stdout is one JSON object. The chunkcheck sources
are taken from ``src/`` next to this directory; without them the run fails.
See perfbench/README.md for the metrics and the workloads.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path

import checks
import workloads
from speed import NOMINAL_S, adjusted, reference_s

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_EVERY = 3  # one set-up measurement per this many rounds, so both see the same machine
CHECK_ROUNDS = 3  # the first timed rounds, whose reports are checked and digested
SAMPLE_CLAIMS = 30  # claims per report whose score is recomputed
SAMPLE_RETRIEVALS = 12  # claims for the greedy-versus-brute-force comparisons
METRICS_SUBSAMPLE = 300


def import_chunkcheck():
    pkg = ROOT / "src" / "chunkcheck"
    if not (pkg / "__init__.py").is_file():
        raise SystemExit(f"perfbench: chunkcheck sources not found at {pkg}")
    sys.path.insert(0, str(ROOT / "src"))
    import chunkcheck

    if Path(chunkcheck.__file__).resolve().parent != pkg.resolve():
        raise SystemExit(f"perfbench: imported chunkcheck from {chunkcheck.__file__}, not {pkg}")
    return chunkcheck


class StandIn:
    """The stand-in model server, one process per benchmark run."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, str(HERE / "standin.py")],
                                     stdout=subprocess.PIPE, text=True)
        line = self.proc.stdout.readline()
        if not line.strip().isdigit():
            self.close()
            raise RuntimeError("stand-in server did not start")
        self.base = f"http://127.0.0.1:{int(line)}"
        self.url = self.base + "/score"

    def _call(self, path: str, data: bytes | None = None) -> dict:
        with urllib.request.urlopen(self.base + path, data=data, timeout=10) as resp:
            return json.loads(resp.read())

    def reset(self) -> None:
        self._call("/reset", b"{}")

    def stats(self) -> dict:
        return self._call("/stats")

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


@dataclass
class Round:
    shard: int
    traced: bool
    phase_s: dict[str, float] = field(default_factory=dict)  # wall
    phase_fixed: dict[str, float] = field(default_factory=dict)  # see speed.adjusted
    reference: float = 0.0  # speed.reference_s, mean of before and after the round
    phase_claims: dict[str, int] = field(default_factory=dict)
    phase_failed: dict[str, int] = field(default_factory=dict)
    phase_calls: dict[str, int] = field(default_factory=dict)
    reports: dict[str, dict] = field(default_factory=dict)
    metrics_out: tuple | None = None
    server: dict | None = None
    layers: dict[str, float] | None = None
    errors: list[str] = field(default_factory=list)

    @property
    def wall(self) -> float:
        return sum(self.phase_s.values())

    def adjusted(self, phase: str) -> float:
        """Wall time of one phase at the nominal machine speed."""
        return adjusted(self.phase_s[phase], self.phase_fixed.get(phase, 0.0), self.reference)

    @property
    def claims(self) -> int:
        return sum(self.phase_claims.values())


def corpus_rate(rounds, claims, seconds) -> float:
    """Claims per second over one pass of every shard that ran, each shard's
    time being its median over its rounds: shards differ in work, so this
    keeps the mix of shards a run happened to cover out of the result."""
    by_shard: dict[int, list[Round]] = {}
    for r in rounds:
        by_shard.setdefault(r.shard, []).append(r)
    return (sum(claims(rs[0]) for rs in by_shard.values())
            / sum(statistics.median(seconds(r) for r in rs) for rs in by_shard.values()))


def quartiles(values) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


class Bench:
    def __init__(self, args, chunkcheck):
        self.args = args
        self.cc = chunkcheck
        from chunkcheck import cli, metrics
        self.cli, self.metrics = cli, metrics
        self.lines: list[str] = []
        self.last_spans: list[tuple] = []

    def say(self, line: str) -> None:
        self.lines.append(line)
        print(line, flush=True)

    # --- set-up ------------------------------------------------------------

    def setup_once(self, wl) -> tuple[float, float]:
        """Raw and speed-adjusted seconds of one set-up."""
        ref_before = reference_s()
        wall = self._setup(wl)
        return wall, adjusted(wall, 0.0, (ref_before + reference_s()) / 2)

    def _setup(self, wl) -> float:
        from chunkcheck.config import build_backend, build_cache, build_counter, resolve_config
        flags = dict(zip(wl.backend_flags[::2], wl.backend_flags[1::2]))
        overrides = {"backend": flags["--backend"], "endpoint": flags.get("--endpoint"),
                     "concurrency": wl.concurrency}
        t0 = time.perf_counter()
        config = resolve_config(None, overrides)
        corpus = self.cc.load_corpus(wl.docs_path, wl.claims_path)
        build_counter(config)
        build_backend(config, corpus)
        build_cache(config)
        return time.perf_counter() - t0

    # --- rounds ------------------------------------------------------------

    def run_round(self, wl, index: int, traced: bool, keep_reports: bool,
                  counter, server) -> Round:
        from spans import Tracer
        shard = wl.shards[index % len(wl.shards)]
        rnd = Round(shard=index % len(wl.shards), traced=traced)
        tracer = Tracer() if traced else None
        if server:
            server.reset()
        ref_before = reference_s()
        if tracer:
            tracer.install()
        try:
            for phase in shard.phases:
                calls0 = counter.calls() if counter else 0
                failed = 0
                t0 = time.perf_counter()
                if phase.commands:
                    for cmd in phase.commands:
                        if self.cli.main(cmd.argv) != 0:
                            failed += cmd.claims
                else:
                    try:
                        rnd.metrics_out = self.metrics_phase(phase)
                    except Exception as exc:  # a failed phase is counted, not fatal
                        failed += phase.claims
                        rnd.errors.append(f"metrics phase: {type(exc).__name__}: {exc}")
                rnd.phase_s[phase.name] = time.perf_counter() - t0
                rnd.phase_claims[phase.name] = phase.claims
                rnd.phase_failed[phase.name] = failed
                rnd.phase_calls[phase.name] = (counter.calls() if counter else 0) - calls0
        finally:
            if tracer:
                tracer.remove()
        rnd.reference = (ref_before + reference_s()) / 2
        if server:
            rnd.server = server.stats()
            rnd.phase_calls["score"] = rnd.server["requests"] - rnd.server["errors_503"]
            rnd.phase_fixed["score"] = rnd.server["sleep_s"]
        report_files = [c.report for p in shard.phases for c in p.commands]
        if keep_reports:
            for path in report_files:
                if path.exists():
                    rnd.reports[path.name] = json.loads(path.read_text(encoding="utf-8"))
        if tracer:
            from layers import layer_metrics
            rnd.layers = layer_metrics(tracer.spans, rnd,
                                       sum(p.stat().st_size for p in report_files if p.exists()))
            self.last_spans = tracer.spans
        return rnd

    def metrics_phase(self, phase):
        m = self.metrics
        report = m.evaluate_scores(phase.metric_scores, phase.metric_labels)
        cal = m.ece(phase.metric_scores, phase.metric_labels)
        m.calibration_curve(phase.metric_scores, phase.metric_labels)
        return report, cal

    # --- whole run ---------------------------------------------------------

    def run(self) -> int:
        from chunkcheck.backends import LexicalOverlapBackend
        from spans import CallCounter

        a = self.args
        work = ROOT / ".perfbench_work" / f"{a.workload}-seed{a.seed}-{os.getpid()}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        concurrency = min(os.cpu_count() or 1, 2) if a.workload == "remote-latency" else 1
        server = counter = None
        try:
            if a.workload == "remote-latency":
                server = StandIn()
            wl = workloads.generate(a.workload, a.seed, work,
                                    endpoint=server.url if server else "",
                                    concurrency=concurrency)
            self.say(f"perfbench workload={a.workload} seed={a.seed} seconds={a.seconds} "
                     f"trace={a.trace} python={sys.version.split()[0]} cpus={os.cpu_count()} "
                     f"concurrency={concurrency} shards={len(wl.shards)}")
            if not server:
                counter = CallCounter(LexicalOverlapBackend, "evaluate")
            self.run_round(wl, 0, False, False, counter, server)  # warm-up, not reported
            # Keep the collector from rescanning the benchmark's own inputs in
            # every collection; a user's process does not hold them.
            gc.collect()
            gc.freeze()

            rounds: list[Round] = []
            setups: list[tuple[float, float]] = []
            min_rounds = CHECK_ROUNDS * 2 if a.trace else max(CHECK_ROUNDS, len(wl.shards))
            deadline = time.perf_counter() + a.seconds
            i = 0
            while len(rounds) < min_rounds or time.perf_counter() < deadline:
                keep = i < CHECK_ROUNDS
                rounds.append(self.run_round(wl, i, False, keep, counter, server))
                if a.trace:
                    rounds.append(self.run_round(wl, i, True, False, counter, server))
                elif i % SETUP_EVERY == 0:
                    setups.append(self.setup_once(wl))
                i += 1
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            if counter:
                counter.remove()
                counter = None

            ok = self.check(wl, rounds, work)
            untraced = [r for r in rounds if not r.traced]
            attempted = sum(r.claims for r in rounds)
            failed = sum(sum(r.phase_failed.values()) for r in rounds)
            for r in rounds:
                for err in r.errors:
                    self.say(f"error round={r.shard}: {err}")
            self.report_inputs(wl, rounds)
            rates = self.report_phases(wl, untraced)
            if a.trace:
                metrics = self.per_layer(wl, rounds)
            else:
                metrics = self.end_to_end(wl, untraced, setups, peak_rss_mb, rates)
            self.say(f"failed_share {failed / attempted:.6f} (failed {failed} of {attempted} "
                     f"attempted claims)")
            result = {"correct": bool(ok and failed == 0), "attempted": attempted,
                      "failed": failed, "metrics": metrics}
            out = ROOT / ".perfbench_work" / f"result-{a.workload}-trace{a.trace}.txt"
            rounds_line = json.dumps([{"shard": r.shard, "traced": r.traced, "phase_s": r.phase_s,
                                       "phase_fixed": r.phase_fixed, "reference": r.reference}
                                      for r in rounds])
            out.write_text("\n".join(self.lines) + f"\nrounds {rounds_line}\n"
                           + json.dumps(result) + "\n", encoding="utf-8")
            print(json.dumps(result), flush=True)
            return 0
        finally:
            if counter:
                counter.remove()
            if server:
                server.close()
            shutil.rmtree(work, ignore_errors=True)

    # --- reporting ---------------------------------------------------------

    def report_inputs(self, wl, rounds) -> None:
        docs = {d["id"]: d for d in wl.documents}
        budgets = workloads.SWEEP_BUDGETS if wl.name == "eval-sweep" else (workloads.BUDGET,)
        tokens = sum(len(checks.unit_line(u).split()) for d in wl.documents for u in d["units"])
        self.say(f"input documents={len(wl.documents)} "
                 f"units={sum(len(d['units']) for d in wl.documents)} claims={len(wl.claims)} "
                 f"total_tokens={tokens} "
                 f"repeated_claim_share={workloads.repeated_claim_share(wl.claims):.4f}")
        for budget in budgets:
            per_doc = {i: len(checks.pack(d["units"], budget)) for i, d in docs.items()}
            hist = workloads.histogram(per_doc[c["doc_id"]] for c in wl.claims)
            self.say(f"input chunks_per_claim budget={budget} histogram={json.dumps(hist)}")
        scores = set()
        for r in rounds:
            for name in ("score.json", "evaluate.json"):
                for row in r.reports.get(name, {}).get("results", {}).get("claims", []):
                    scores.add(row["score"])
        line = f"input distinct_scores={len(scores)} (checked rounds)"
        metric_n = [len(set(p.metric_scores)) for s in wl.shards for p in s.phases
                    if p.name == "metrics"]
        if metric_n:
            line += f" metrics_phase_distinct_scores={metric_n[0]}"
        self.say(line)

    def report_phases(self, wl, untraced) -> dict[str, tuple[float, float]]:
        """Print each phase's rate; return {phase: (adjusted, unadjusted) rate}."""
        out = {}
        for name in [p.name for p in wl.shards[0].phases]:
            rates = [r.phase_claims[name] / r.adjusted(name) for r in untraced]
            q1, _, q3 = quartiles(rates)
            rate = corpus_rate(untraced, lambda r: r.phase_claims[name], lambda r: r.adjusted(name))
            raw = corpus_rate(untraced, lambda r: r.phase_claims[name], lambda r: r.phase_s[name])
            out[name] = rate, raw
            claims = sum(r.phase_claims[name] for r in untraced)
            failed = sum(r.phase_failed[name] for r in untraced)
            self.say(f"phase {name}.claims_per_s {rate:.4f} 1/s (rounds: q1 {q1:.4f}, "
                     f"q3 {q3:.4f}, n {len(rates)}; unadjusted {raw:.4f}) attempted={claims} "
                     f"succeeded={claims - failed} failed={failed}")
            if name == "retrieve":
                calls = sum(r.phase_calls[name] for r in untraced)
                self.say(f"phase retrieve.calls_per_claim {calls / claims:.4f} calls/claim")
        return out

    def end_to_end(self, wl, untraced, setups, peak_rss_mb, rates) -> dict:
        # The geometric mean of the phase rates weighs every phase alike,
        # whatever its share of the round's time.
        gmean = statistics.geometric_mean
        q1, _, q3 = quartiles([gmean([r.phase_claims[n] / r.adjusted(n) for n in rates])
                               for r in untraced])
        rate = gmean([adj for adj, _ in rates.values()])
        raw = gmean([raw for _, raw in rates.values()])
        setup = statistics.median(adj for _, adj in setups)
        setup_raw = statistics.median(wall for wall, _ in setups)
        speed = statistics.median(NOMINAL_S / r.reference for r in untraced)
        cycle = untraced[:len(wl.shards)]  # every shard once: an exact count
        calls = sum(sum(r.phase_calls.values()) for r in cycle)
        claims = sum(r.claims for r in cycle)
        metrics = {
            "claims_per_s": {"value": rate, "unit": "1/s"},
            "setup_s": {"value": setup, "unit": "s"},
            "backend_calls_per_claim": {"value": calls / claims, "unit": "calls/claim"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
        self.say(f"machine speed {speed:.4f} of nominal (median over rounds of "
                 f"{NOMINAL_S} s / reference time)")
        self.say(f"metric claims_per_s {rate:.4f} 1/s (geometric mean of the {len(rates)} "
                 f"phase rates; rounds: q1 {q1:.4f}, q3 {q3:.4f}, n {len(untraced)}; "
                 f"unadjusted {raw:.4f})")
        self.say(f"metric setup_s {setup:.6f} s (median of {len(setups)}, interleaved with "
                 f"the rounds; unadjusted {setup_raw:.6f})")
        for name in ("backend_calls_per_claim", "peak_rss_mb"):
            self.say(f"metric {name} {metrics[name]['value']:.6f} {metrics[name]['unit']}")
        return metrics

    def per_layer(self, wl, rounds) -> dict:
        from layers import COMMON, UNITS, greedy_agreement
        from spans import write_spans
        traced = [r for r in rounds if r.traced]
        pairs = [(u, t) for u, t in zip(rounds[::2], rounds[1::2])]
        names = sorted({k for r in traced for k in r.layers})
        values = {k: statistics.median(r.layers[k] for r in traced if k in r.layers)
                  for k in names}
        values["trace.overhead_share"] = statistics.median(t.wall / u.wall - 1 for u, t in pairs)
        if any(p.name == "retrieve" or p.name == "evaluate" for p in wl.shards[0].phases):
            values["retrieval.greedy_agreement"] = greedy_agreement(
                self.cc, wl, SAMPLE_RETRIEVALS, random.Random(self.args.seed))
        for k in sorted(values):
            tag = "" if k in COMMON else "  (workload-specific, not in the JSON line)"
            self.say(f"layer {k} {values[k]:.6g} {UNITS.get(k, 'share')}{tag}")
        spans_path = ROOT / ".perfbench_work" / f"spans-{wl.name}.jsonl"
        write_spans(self.last_spans, spans_path)
        self.say(f"spans of the last traced round written to {spans_path.relative_to(ROOT)}")
        return {k: {"value": values[k], "unit": UNITS[k]} for k in COMMON}

    # --- checks ------------------------------------------------------------

    def check(self, wl, rounds, work) -> bool:
        ok = True
        rng = random.Random(f"check:{self.args.seed}")
        docs = {d["id"]: d for d in wl.documents}
        claims = {c["id"]: c for c in wl.claims}
        sample = lambda rows: rows[:: max(1, len(rows) // SAMPLE_CLAIMS)]  # noqa: E731
        prob = checks.standin_prob if wl.name == "remote-latency" else checks.overlap_prob
        checked = [r for r in rounds if r.reports][:CHECK_ROUNDS]
        digests: dict[str, list[str]] = {}

        def run(name, fn):
            nonlocal ok
            try:
                detail = fn()
                self.say(f"check {name} ok{f' ({detail})' if detail else ''}")
            except (checks.CheckFailed, KeyError, TypeError, ValueError) as exc:
                ok = False
                self.say(f"check {name} FAILED: {type(exc).__name__}: {exc}")

        for r in checked:
            shard = wl.shards[r.shard]
            for name, report in sorted(r.reports.items()):
                digests.setdefault(name, []).append(checks.digest(report))
                res = report["results"]
                if name in ("score.json", "evaluate.json"):
                    run(f"{name}:shard{r.shard}:max_over_chunks", lambda: "%d claims" % (
                        checks.check_claim_scores(res["claims"], docs, claims, workloads.BUDGET,
                                                  prob, sample)))
                    run(f"{name}:shard{r.shard}:scorer_calls_total", lambda: checks.require(
                        res["scorer_calls_total"] == checks.expected_calls(
                            shard.claims, docs, workloads.BUDGET),
                        f"scorer_calls_total {res['scorer_calls_total']}"))
                if name == "evaluate.json":
                    run(f"{name}:shard{r.shard}:metrics_by_definition",
                        lambda: checks.check_eval_results(
                            res, [row["score"] for row in res["claims"]],
                            [row["label"] for row in res["claims"]]) or f"n={res['n']}")
                if name in ("calibrate.json", "bench.json"):
                    run(f"{name}:shard{r.shard}:scorer_calls_per_budget", lambda: checks.require(
                        all(row["scorer_calls"] == checks.expected_calls(
                            shard.claims, docs, row["budget"]) for row in res["sweep"]),
                        "sweep scorer_calls differ from the chunk counts"))
                if name == "retrieve.json":
                    run(f"{name}:shard{r.shard}:one_result_per_claim", lambda: checks.require(
                        len(res["retrievals"]) == len(shard.claims),
                        "retrieval count differs from claim count"))
            if r.metrics_out:
                phase = next(p for p in shard.phases if p.name == "metrics")
                run(f"metrics:shard{r.shard}:subsample_by_definition",
                    lambda: self.check_metrics(phase, r.metrics_out, rng))
        for name, ds in sorted(digests.items()):
            combined = checks.digest({"reports": ds})[:16]
            self.say(f"digest {name} {combined} (meta stripped, shards "
                     f"{','.join(str(r.shard) for r in checked)})")
        if any(p.name in ("retrieve", "evaluate") for p in wl.shards[0].phases):
            run("retrieve:unit-relevance:greedy_equals_brute_force",
                lambda: self.check_unit_relevance(wl, work, rng))
        return ok

    def check_metrics(self, phase, out, rng) -> str:
        report, cal = out
        n = len(phase.metric_scores)
        checks.require(report.n == n, f"report n {report.n} != {n}")
        want = checks.naive_ece(phase.metric_scores, phase.metric_labels, 10, 0.5)
        checks.require(abs(cal.ece - want) <= checks.TOL, f"ece {cal.ece} != {want}")
        idx = sorted(rng.sample(range(n), METRICS_SUBSAMPLE))
        s = [phase.metric_scores[i] for i in idx]
        y = [phase.metric_labels[i] for i in idx]
        checks.check_eval_results(self.metrics.evaluate_scores(s, y).to_dict(), s, y)
        return f"n={METRICS_SUBSAMPLE} of {n}; ece on all {n}"

    def check_unit_relevance(self, wl, work, rng) -> str:
        """chunkcheck retrieve --brute-force under unit-relevance on a sample."""
        shard = wl.shards[0]
        sample = rng.sample(shard.claims, min(SAMPLE_RETRIEVALS, len(shard.claims)))
        claims_path = work / "relevance-claims.jsonl"
        claims_path.write_text("".join(json.dumps(c) + "\n" for c in sample), encoding="utf-8")
        rel_path = work / "relevance.json"
        rel_path.write_text(json.dumps({d["id"]: [rng.random() for _ in d["units"]]
                                        for d in shard.documents}), encoding="utf-8")
        out = work / "relevance-retrieve.json"
        rc = self.cli.main(["retrieve", "--documents", str(shard.docs_path),
                            "--claims", str(claims_path), "--backend", "unit-relevance",
                            "--relevance-file", str(rel_path), "--brute-force",
                            "--premise-cap", str(workloads.BUDGET), "--out", str(out)])
        checks.require(rc == 0, f"retrieve exited {rc}")
        rows = json.loads(out.read_text(encoding="utf-8"))["results"]["retrievals"]
        bad = [r["claim_id"] for r in rows if not r["brute_force"]["agrees"]]
        checks.require(not bad and len(rows) == len(sample), f"disagree on {bad}")
        return f"{len(rows)} claims"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="chunkcheck benchmark")
    parser.add_argument("--workload", required=True,
                        choices=("long-docs", "remote-latency", "eval-sweep", "all"),
                        help="'all' runs the three workloads one after another")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        failed = 0
        for name in ("long-docs", "remote-latency", "eval-sweep"):
            failed |= subprocess.run([sys.executable, __file__, "--workload", name,
                                      "--seed", str(args.seed), "--seconds", str(args.seconds),
                                      "--trace", str(args.trace)]).returncode
        return failed
    chunkcheck = import_chunkcheck()
    return Bench(args, chunkcheck).run()


if __name__ == "__main__":
    sys.exit(main())
