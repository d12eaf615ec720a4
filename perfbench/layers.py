"""Per-layer metrics of one traced round, computed from its spans.

Layers are the modules of ``src/chunkcheck``; a span's layer is the part of
its name before the first dot. ``COMMON`` are the metrics every workload
measures, which go in the JSON result line; the others (retrieval, metrics,
the remote server) exist only on the workloads that run that code and are
printed.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from spans import self_times
from workloads import BUDGET

UNITS = {
    "corpus.load_calls": "count",
    "corpus.load_s": "s",
    "corpus.self_s": "s",
    "chunking.make_chunks_calls": "count",
    "chunking.make_chunks_s": "s",
    "chunking.chunks_per_doc": "count",
    "chunking.oversized_chunks": "count",
    "chunking.self_s": "s",
    "scoring.score_batch_calls": "count",
    "scoring.pairs_per_batch": "count",
    "scoring.self_s": "s",
    "scoring.distinct_pair_share": "share",
    "scoring.cache_hit_share": "share",
    "backends.busy_s": "s",
    "backends.evaluate_calls": "count",
    "backends.premise_tokens": "count",
    "backends.call_ms_p50": "ms",
    "backends.call_ms_p99": "ms",
    "backends.call_samples": "count",
    "engine.self_s": "s",
    "cli.self_s": "s",
    "cli.report_bytes": "bytes",
    "trace.overhead_share": "share",
    # workload-specific
    "chunking.split_range_calls": "count",
    "chunking.split_range_s": "s",
    "retrieval.retrieve_s": "s",
    "retrieval.self_s": "s",
    "retrieval.levels_per_claim": "count",
    "retrieval.greedy_agreement": "share",
    "metrics.f1_macro_optimal_s": "s",
    "metrics.kendall_tau_s": "s",
    "metrics.roc_auc_s": "s",
    "metrics.calibration_s": "s",
    "metrics.self_s": "s",
    "metrics.distinct_scores": "count",
    "backends.remote.inflight_mean": "count",
    "backends.remote.requests": "count",
    "backends.remote.retries": "count",
    "backends.remote.request_ms_p50": "ms",
    "backends.remote.request_ms_p99": "ms",
    "backends.remote.request_samples": "count",
}
COMMON = list(UNITS)[: list(UNITS).index("trace.overhead_share") + 1]


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = -(-q * len(ordered) // 100)  # ceil
    return ordered[max(0, min(len(ordered) - 1, int(rank) - 1))]


def layer_metrics(spans: list[tuple], rnd, report_bytes: int) -> dict[str, float]:
    selfs = self_times(spans)
    by_id = {s[0]: s for s in spans}
    named = defaultdict(list)
    layer_self = defaultdict(float)
    for s in spans:
        named[s[2]].append(s)
        layer_self[s[2].split(".", 1)[0]] += selfs[s[0]]

    def total(name: str) -> float:
        return sum(s[4] - s[3] for s in named[name])

    roots: dict[int, tuple] = {}

    def root_of(span) -> tuple:
        sid = span[0]
        if sid not in roots:
            roots[sid] = root_of(by_id[span[1]]) if span[1] else span
        return roots[sid]

    def command_of(span) -> str:
        """argv[0] of the cli.main call the span ran under, or '' outside one."""
        root = root_of(span)
        return root[5][0][0][0] if root[2] == "cli.main" else ""

    out = {
        "corpus.load_calls": len(named["corpus.load"]),
        "corpus.load_s": total("corpus.load"),
        "corpus.self_s": layer_self["corpus"],
        "chunking.self_s": layer_self["chunking"],
        "scoring.self_s": layer_self["scoring"],
        "engine.self_s": layer_self["engine"],
        "cli.self_s": layer_self["cli"],
        "cli.report_bytes": report_bytes,
    }

    plans = [s[6] for s in named["chunking.make_chunks"]]
    out["chunking.make_chunks_calls"] = len(plans)
    out["chunking.make_chunks_s"] = total("chunking.make_chunks")
    out["chunking.chunks_per_doc"] = sum(len(p.chunks) for p in plans) / max(1, len(plans))
    out["chunking.oversized_chunks"] = sum(c.oversized for p in plans for c in p.chunks)

    batches = named["scoring.score_batch"]
    pairs_total = sum(len(s[5][0][1]) for s in batches)
    out["scoring.score_batch_calls"] = len(batches)
    out["scoring.pairs_per_batch"] = pairs_total / max(1, len(batches))
    # Distinct (premise, hypothesis) pairs within each command, over all pairs.
    per_command = defaultdict(set)
    for s in batches:
        per_command[root_of(s)[0]].update(s[5][0][1])
    out["scoring.distinct_pair_share"] = (
        sum(len(v) for v in per_command.values()) / max(1, pairs_total))
    caches = [s[6] for s in named["config.build_cache"] if s[6] is not None]
    lookups = sum(c.hits + c.misses for c in caches)
    out["scoring.cache_hit_share"] = sum(c.hits for c in caches) / lookups if lookups else 0.0

    calls = [s for name, group in named.items() if name.startswith("backends.") for s in group]
    durations = [(s[4] - s[3]) * 1000.0 for s in calls]
    out["backends.busy_s"] = sum(durations) / 1000.0
    out["backends.evaluate_calls"] = len(calls)
    out["backends.premise_tokens"] = sum(len(s[5][0][1].split()) for s in calls)
    out["backends.call_ms_p50"] = percentile(durations, 50) if durations else 0.0
    out["backends.call_ms_p99"] = percentile(durations, 99) if durations else 0.0
    out["backends.call_samples"] = len(durations)
    busy, wall = defaultdict(float), defaultdict(float)
    for s in calls:
        busy[command_of(s)] += s[4] - s[3]
    for s in named["cli.main"]:
        wall[command_of(s)] += s[4] - s[3]
    for command in wall:
        out[f"backends.busy_share.{command}"] = busy[command] / wall[command]

    if named["chunking.split_range"]:
        out["chunking.split_range_calls"] = len(named["chunking.split_range"])
        out["chunking.split_range_s"] = total("chunking.split_range")
    traces = [s[6] for s in named["retrieval.retrieve"]]
    if traces:
        out["retrieval.retrieve_s"] = total("retrieval.retrieve")
        out["retrieval.self_s"] = layer_self["retrieval"]
        out["retrieval.levels_per_claim"] = statistics.fmean(len(t.levels) for t in traces)
    if named["metrics.evaluate_scores"]:
        out["metrics.f1_macro_optimal_s"] = total("metrics.f1_macro_optimal")
        out["metrics.kendall_tau_s"] = total("metrics.kendall_tau")
        out["metrics.roc_auc_s"] = total("metrics.roc_auc")
        out["metrics.calibration_s"] = total("metrics.ece") + total("metrics.calibration_curve")
        out["metrics.self_s"] = layer_self["metrics"]
        under_cli = [s for s in named["metrics.evaluate_scores"] if command_of(s)]
        if under_cli:
            out["metrics.distinct_scores"] = len(set(under_cli[0][5][0][0]))
    if rnd.server:
        srv = rnd.server
        out["backends.remote.inflight_mean"] = srv["inflight_mean"]
        out["backends.remote.requests"] = srv["requests"]
        out["backends.remote.retries"] = srv["errors_503"]
        out["backends.remote.request_ms_p50"] = percentile(srv["request_ms"], 50)
        out["backends.remote.request_ms_p99"] = percentile(srv["request_ms"], 99)
        out["backends.remote.request_samples"] = len(srv["request_ms"])
    return out


def greedy_agreement(cc, wl, n: int, rng) -> float:
    """Share of sampled claims where greedy retrieval (capped at the budget,
    as long-docs retrieves) finds the unit brute force finds, under the
    overlap backend; run outside the timed rounds."""
    from chunkcheck.backends import LexicalOverlapBackend

    corpus = cc.load_corpus(wl.shards[0].docs_path, wl.shards[0].claims_path)
    docs = {d.id: d for d in corpus.documents}
    backend = LexicalOverlapBackend()
    agree = 0
    sample = rng.sample(corpus.claims, min(n, len(corpus.claims)))
    for claim in sample:
        doc = docs[claim.doc_id]
        greedy = cc.retrieve(doc, claim, backend, budget=BUDGET)
        agree += cc.brute_force_retrieve(doc, claim, backend).unit == greedy.result_unit
    return agree / len(sample)
