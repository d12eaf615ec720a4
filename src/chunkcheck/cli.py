"""Command-line surface: score, retrieve, evaluate, calibrate, bench.

Reports are JSON with sorted keys. Everything nondeterministic (timestamps,
wall-clock timings) lives under the top-level "meta" key so that the rest of
the report is byte-identical across runs; golden comparisons drop "meta".

Exit codes: 0 success, or the failing error's ``exit_code``, which each class
in ``errors`` declares next to the ``kind`` reported on stderr: 1 validation,
2 scoring or backend, 3 internal (any other exception too).
"""

from __future__ import annotations

import argparse
import csv
import gc
import json
import os
import stat
import sys
import time
from dataclasses import fields, is_dataclass
from datetime import datetime, timezone
from functools import cache
from json.encoder import encode_basestring
from pathlib import Path

from . import __version__
from .chunking import make_chunks
# ``build_cache``, ``score_text``, ``retrieve`` and ``brute_force_retrieve`` are
# not called here; they stay importable from ``cli`` only because
# perfbench/spans.py wraps them and perfbench's run.py and layers.py call them.
# Since ``cli`` scores through ``score_texts``, the ``score_text`` span reads 0;
# ROADMAP names the fix, a span on ``score_texts``.
from .config import (  # noqa: F401
    BACKENDS,
    RunConfig,
    build_backend,
    build_cache,
    build_counter,
    resolve_config,
)
from .corpus import Corpus, load_corpus
from .engine import score_text  # noqa: F401
from .engine import AGGREGATIONS, score_texts
from .errors import ChunkcheckError, ValidationError
from .metrics import calibration_curve, ece, evaluate_scores, retrieval_recall, roc_auc
from .retrieval import brute_force_retrieve, descend, retrieval_hit, retrieve  # noqa: F401


def _common_flags() -> argparse.ArgumentParser:
    """The flags every subcommand takes, as a parent parser."""
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--documents", required=True, help="documents JSONL path")
    p.add_argument("--claims", required=True, help="claims JSONL path")
    p.add_argument("--out", help="report path (default: stdout)")
    p.add_argument("--config", help="JSON config file; flags override it")
    p.add_argument("--backend", choices=BACKENDS)
    p.add_argument("--endpoint", help="remote backend URL (or $CHUNKCHECK_ENDPOINT)")
    p.add_argument("--auth-header", dest="auth_header", help="'Name: value' forwarded verbatim")
    p.add_argument("--relevance-file", dest="relevance_file", help="unit relevance JSON")
    p.add_argument("--counter", help="'whitespace' or 'vocab:<path>'")
    p.add_argument("--budget", type=int, help="chunk token budget (default 512)")
    p.add_argument("--k", type=int, help="retrieval branching factor (default 2)")
    p.add_argument("--aggregation", choices=AGGREGATIONS)
    p.add_argument("--ece-bins", dest="ece_bins", type=int)
    p.add_argument("--decision-threshold", dest="decision_threshold", type=float)
    p.add_argument("--concurrency", type=int)
    p.add_argument("--premise-cap", dest="premise_cap", type=int)
    p.add_argument("--timeout", type=float)
    p.add_argument("--retries", type=int)
    p.add_argument("--backoff", type=float)
    return p


def _setup(args: argparse.Namespace):
    """Config, corpus, counter, backend and the corpus hash: the set-up every
    subcommand shares, done before any scorer call."""
    overrides = {f.name: getattr(args, f.name) for f in fields(RunConfig)}
    config = resolve_config(args.config, overrides)
    _check_outputs(args, config)
    corpus = load_corpus(args.documents, args.claims)
    counter = build_counter(config)
    backend = build_backend(config, corpus)
    try:
        corpus_hash = corpus.content_hash()
    except RecursionError as exc:  # an unknown field nested too deeply to encode
        raise ValidationError(
            f"corpus ({args.documents}, {args.claims}) is nested too deeply to hash: {exc}"
        ) from exc
    return config, corpus, counter, backend, corpus_hash


def _check_outputs(args: argparse.Namespace, config: RunConfig) -> None:
    """Fail before loading when an output file's directory does not exist, the
    file is a directory or cannot be stat'ed, or it is another output or an
    input file: the corpus, the config file, or the relevance or vocab file."""
    paths = [("--documents", args.documents), ("--claims", args.claims),
             ("--config", args.config), ("--relevance-file", config.relevance_file),
             ("--counter", config.vocab_path()), ("--out", args.out),
             ("--csv", getattr(args, "csv", None)),
             ("--curve-csv", getattr(args, "curve_csv", None))]
    named: dict = {}  # each file's key and the first flag naming it
    for flag, path in paths:
        if not path:
            continue
        output = flag in ("--out", "--csv", "--curve-csv")
        if output and not Path(path).parent.is_dir():
            raise ValidationError(f"cannot write {path}: {Path(path).parent} is not a directory")
        # A file's key is what all paths to it share: its device and inode
        # (one stat, where resolving stats every component), or the real path
        # of a file not made yet. An input that cannot be stat'ed is left to
        # its reader's message.
        try:
            st = os.stat(path)
        except OSError as exc:
            if output and not isinstance(exc, FileNotFoundError):
                raise ValidationError(f"cannot write {path}: {exc.strerror}") from exc
            key = os.path.realpath(path)
        else:
            if output and stat.S_ISDIR(st.st_mode):
                raise ValidationError(f"cannot write {path}: it is a directory")
            key = st.st_dev, st.st_ino
        if output and key in named:
            raise ValidationError(
                f"cannot write {path}: {flag} and {named[key]} name the same file")
        named.setdefault(key, flag)


# Parts held before one write: memory is bounded by a batch, not by the report.
_BATCH = 4096
_FLOATS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _float(v: float) -> str:
    r = float.__repr__(v)
    return _FLOATS.get(r, r)


# Each scalar type's JSON text, as json writes it.
_SCALARS = {
    str: encode_basestring,
    int: int.__repr__,
    float: _float,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}


def _write_json(value, fh) -> None:
    """Write ``json.dumps(value, sort_keys=True, indent=2, ensure_ascii=False)``
    and a newline to ``fh`` in one pass, ``_BATCH`` parts per write. Scalars
    must be of the exact types in ``_SCALARS`` and keys strings; tuples are
    written as lists, and a dataclass as its ``to_dict()`` if its class
    defines one, or else as the dict of its fields. That view is built when
    the writer reaches the object and dropped once it is written."""
    parts: list[str] = []
    put = parts.append
    quote = encode_basestring
    scalar = _SCALARS.get

    def flush() -> None:
        fh.write("".join(parts))
        parts.clear()

    # ``write`` is handed itself rather than closing over its own name, which
    # would make a reference cycle that only the cyclic collector frees.
    def write(v, nl: str, write) -> None:  # ``nl``: a newline and the indent of v's line
        if isinstance(v, dict):
            if not v:
                put("{}")
                return
            inner = nl + "  "
            sep, comma = "{" + inner, "," + inner
            for k in sorted(v):
                x = v[k]
                f = scalar(type(x))
                if f is None:
                    put(sep + quote(k) + ": ")
                    write(x, inner, write)
                else:
                    put(sep + quote(k) + ": " + f(x))
                sep = comma
                if len(parts) >= _BATCH:
                    flush()
            put(nl + "}")
        elif isinstance(v, (list, tuple)):
            if not v:
                put("[]")
                return
            inner = nl + "  "
            sep, comma = "[" + inner, "," + inner
            for x in v:
                f = scalar(type(x))
                if f is None:
                    put(sep)
                    write(x, inner, write)
                else:
                    put(sep + f(x))
                sep = comma
                if len(parts) >= _BATCH:
                    flush()
            put(nl + "]")
        elif is_dataclass(type(v)):
            view = getattr(v, "to_dict", None)
            write(vars(v) if view is None else view(), nl, write)
        else:
            f = scalar(type(v))
            if f is None:
                raise TypeError(f"Object of type {type(v).__name__} is not JSON serializable")
            put(f(v))

    write(value, "\n", write)
    put("\n")
    flush()


def _emit(payload: dict, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            _write_json(payload, fh)
    else:
        _write_json(payload, sys.stdout)


def _write_csv(path: str, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _report(command: str, config: RunConfig, corpus_hash: str, results: dict, meta: dict) -> dict:
    return {
        "version": __version__,
        "command": command,
        "config": config,
        "corpus_hash": corpus_hash,
        "results": results,
        "meta": {**meta, "created_at": datetime.now(timezone.utc).isoformat()},
    }


def _score_corpus(corpus, config, counter, backend, budget, explain=False):
    """Score every claim at ``budget`` under the premise cap, every text in
    one batch: (text scores, sentence scores in claim order)."""
    texts = [(corpus.document(d), claims) for d, claims in corpus.grouped_texts().items()]
    text_scores = score_texts(
        texts, budget, backend, counter, aggregation=config.aggregation,
        max_workers=config.concurrency, explain=explain, cap=config.premise_cap,
    )
    by_claim = {s.claim_id: s for ts in text_scores for s in ts.sentences}
    return text_scores, [by_claim[c.id] for c in corpus.claims]


def _retrievals(claims, corpus, config, counter, backend, brute_force=False, keep_levels=False):
    """Greedy traces under the premise cap, every claim descending together,
    holding their levels only with ``keep_levels`` (``retrieve --trace``).
    With ``brute_force`` each claim's trace is followed by its exhaustive one:
    the one-level descent, whose branching factor splits the document into
    its units, so it shares the first level's batch with the greedy descent,
    and a claim's greedy error comes before its brute-force error."""
    docs = [corpus.document(c.doc_id) for c in claims]
    ks = [config.k] * len(claims)
    if brute_force:
        claims = [c for c in claims for _ in (0, 1)]
        ks = [k for doc in docs for k in (config.k, max(2, len(doc.units)))]
        docs = [doc for doc in docs for _ in (0, 1)]
    return descend(
        docs, claims, backend, ks,
        budget=config.premise_cap, counter=counter, max_workers=config.concurrency,
        keep_levels=keep_levels,
    )


# Each cmd_* gets the set-up ``main`` built once and returns (results, meta),
# which ``main`` times and turns into the one report it emits.


def cmd_score(args, config, corpus, counter, backend):
    text_scores, sentences = _score_corpus(
        corpus, config, counter, backend, config.budget, explain=args.explain
    )
    results = {
        "claims": sentences,
        "texts": text_scores,
        "scorer_calls_total": sum(s.scorer_calls for s in sentences),
    }
    if args.dump_chunks:
        results["chunk_plans"] = [
            make_chunks(doc, config.budget, counter).to_dict() for doc in corpus.documents
        ]
    return results, {}


def cmd_retrieve(args, config, corpus, counter, backend):
    claims = corpus.claims
    traces = _retrievals(claims, corpus, config, counter, backend, args.brute_force, args.trace)
    if args.brute_force:
        traces, brute = traces[::2], traces[1::2]
    entries = []
    for i, (claim, trace) in enumerate(zip(claims, traces)):
        entry = dict(vars(trace))  # claim_id, result_unit, result_score and scorer_calls
        levels = entry.pop("levels")
        if args.trace:
            entry["trace"] = levels
        if args.brute_force:
            bf = brute[i]
            entry["brute_force"] = {
                "unit": bf.result_unit,
                "score": bf.result_score,
                "scorer_calls": bf.scorer_calls,
                "agrees": bf.result_unit == trace.result_unit,
            }
        if claim.relevant_units:
            entry["hit"] = retrieval_hit(trace, claim.relevant_units)
        entries.append(entry)
    return {"retrievals": entries}, {}


def _require_labels(corpus: Corpus, both_classes: bool = True) -> list[bool]:
    """Every claim's gold label, checked before any scoring. ``evaluate`` and
    ``bench`` need both classes; ``calibrate`` does not."""
    missing = [c.id for c in corpus.claims if c.gold_label is None]
    if missing:
        raise ValidationError(
            f"{len(missing)} claims have no gold label (first: {missing[0]!r}); "
            "evaluation needs 'label' set on every claim"
        )
    labels = [bool(c.gold_label) for c in corpus.claims]
    if both_classes and len(set(labels)) < 2:
        found = f"every gold label is {str(labels[0]).lower()}" if labels else "no claims"
        raise ValidationError(f"both classes must be present ({found})")
    return labels


def cmd_evaluate(args, config, corpus, counter, backend):
    labels = _require_labels(corpus)
    annotated = [c for c in corpus.claims if c.relevant_units]
    if args.retrieval_recall and not annotated:
        raise ValidationError("no claims carry relevant_units annotations")
    _, sentences = _score_corpus(corpus, config, counter, backend, config.budget)
    results = evaluate_scores([s.score for s in sentences], labels).to_dict()
    results["scorer_calls_total"] = sum(s.scorer_calls for s in sentences)
    results["claims"] = [
        {"claim_id": c.id, "score": s.score, "label": bool(c.gold_label)}
        for c, s in zip(corpus.claims, sentences)
    ]
    meta = {}
    if args.retrieval_recall:
        r0 = time.perf_counter()
        traces = _retrievals(annotated, corpus, config, counter, backend)
        hits = [retrieval_hit(t, c.relevant_units) for c, t in zip(annotated, traces)]
        results["retrieval"] = {
            "n": len(hits),
            "recall": retrieval_recall(hits),
            "scorer_calls": sum(t.scorer_calls for t in traces),
        }
        meta["retrieval_wall_clock_s"] = time.perf_counter() - r0
    return results, meta


def _parse_budgets(raw: str) -> list[int]:
    try:
        budgets = [int(tok) for tok in raw.replace(",", " ").split()]
    except ValueError as exc:
        raise ValidationError(f"bad --budgets value {raw!r}: {exc}") from exc
    if not budgets or any(b < 1 for b in budgets):
        raise ValidationError(f"budgets must be positive integers, got {raw!r}")
    repeated = [b for b in budgets if budgets.count(b) > 1]
    if repeated:
        raise ValidationError(f"budget {repeated[0]} is repeated in {raw!r}")
    return budgets


def _sweep(corpus, config, counter, backend, budgets):
    """Score the corpus at each budget: [(budget, claim-ordered scores,
    scorer calls, wall s)]."""
    out = []
    for budget in budgets:
        t0 = time.perf_counter()
        _, sentences = _score_corpus(corpus, config, counter, backend, budget)
        calls = sum(s.scorer_calls for s in sentences)
        out.append((budget, [s.score for s in sentences], calls, time.perf_counter() - t0))
    return out


def cmd_calibrate(args, config, corpus, counter, backend):
    labels = _require_labels(corpus, both_classes=False)
    budgets = _parse_budgets(args.budgets)
    sweep = _sweep(corpus, config, counter, backend, budgets)
    entries = []
    for budget, probs, calls, _ in sweep:
        cal = ece(probs, labels, bins=config.ece_bins,
                  decision_threshold=config.decision_threshold)
        entries.append({"budget": budget, "ece": cal.ece, "scorer_calls": calls,
                        "calibration": cal})
    if args.csv:
        rows = [[e["budget"], e["ece"], e["scorer_calls"]] for e in entries]
        _write_csv(args.csv, ["budget", "ece", "scorer_calls"], rows)
    if args.curve_csv:
        # The curve is at the configured budget; score again only if the sweep missed it.
        probs = next((p for budget, p, _, _ in sweep if budget == config.budget), None)
        if probs is None:
            _, probs, _, _ = _sweep(corpus, config, counter, backend, [config.budget])[0]
        points = calibration_curve(probs, labels, bins=config.ece_bins)
        _write_csv(
            args.curve_csv,
            ["x", "y", "bin_size"],
            [[p.mean_prob, p.frac_positive, p.size] for p in points],
        )
    return {"sweep": entries, "budgets": budgets}, {}


def cmd_bench(args, config, corpus, counter, backend):
    labels = _require_labels(corpus)
    budgets = _parse_budgets(args.budgets)
    entries = []
    rows = []
    timing = {}
    for budget, scores, calls, wall in _sweep(corpus, config, counter, backend, budgets):
        auc = roc_auc(scores, labels)
        entries.append({"budget": budget, "roc_auc": auc, "scorer_calls": calls})
        timing[str(budget)] = wall
        rows.append([budget, auc, wall, calls])
    if args.csv:
        _write_csv(args.csv, ["budget", "roc_auc", "wall_clock_s", "scorer_calls"], rows)
    return {"sweep": entries, "budgets": budgets}, {"wall_clock_s_by_budget": timing}


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and shared by every call:
    parsing leaves it unchanged, and callers must not add to it."""
    parser = argparse.ArgumentParser(
        prog="chunkcheck",
        description="Factual-consistency scoring over chunked long documents",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    common = [_common_flags()]

    p = sub.add_parser("score", parents=common,
                       help="score every claim against its source document")
    p.add_argument("--explain", action="store_true", help="retain per-chunk probabilities")
    p.add_argument("--dump-chunks", dest="dump_chunks", action="store_true",
                   help="embed chunk plans in the report")
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("retrieve", parents=common,
                       help="find the best-supporting unit per claim")
    p.add_argument("--trace", action="store_true", help="include full descent traces")
    p.add_argument("--brute-force", dest="brute_force", action="store_true",
                   help="also run the exhaustive baseline and report agreement")
    p.set_defaults(func=cmd_retrieve)

    p = sub.add_parser("evaluate", parents=common,
                       help="accuracy metrics against gold labels")
    p.add_argument("--retrieval-recall", dest="retrieval_recall", action="store_true",
                   help="also compute retrieval recall on annotated claims")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("calibrate", parents=common,
                       help="ECE across a chunk-budget sweep")
    p.add_argument("--budgets", required=True, help="comma-separated budgets, e.g. 64,128,512")
    p.add_argument("--csv", help="write budget,ece,scorer_calls rows")
    p.add_argument("--curve-csv", dest="curve_csv",
                   help="write the calibration curve (x,y,bin_size) at the configured budget")
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("bench", parents=common,
                       help="ROC-AUC and wall clock across a chunk-budget sweep")
    p.add_argument("--budgets", required=True, help="comma-separated budgets, e.g. 64,128,512")
    p.add_argument("--csv", help="write budget,roc_auc,wall_clock_s,scorer_calls rows")
    p.set_defaults(func=cmd_bench)

    return parser


def _error_report(kind: str, message: str) -> None:
    sys.stderr.write(
        json.dumps({"error": {"type": kind, "message": message}}, sort_keys=True) + "\n"
    )


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; that slot is reserved for
        # scoring and backend failures here.
        return 0 if exc.code in (0, None) else 1
    # The command's data holds no reference cycles, so the cyclic collector
    # would only re-traverse it; it is paused for the command and the
    # caller's setting restored.
    enabled = gc.isenabled()
    gc.disable()
    try:
        config, corpus, counter, backend, corpus_hash = _setup(args)
        t0 = time.perf_counter()
        results, meta = args.func(args, config, corpus, counter, backend)
        meta["wall_clock_s"] = time.perf_counter() - t0
        _emit(_report(args.command, config, corpus_hash, results, meta), args.out)
        return 0
    except ChunkcheckError as exc:
        _error_report(exc.kind, str(exc))
        return exc.exit_code
    except Exception as exc:  # last resort
        _error_report("internal", f"{type(exc).__name__}: {exc}")
        return 3
    finally:
        if enabled:
            gc.enable()


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
