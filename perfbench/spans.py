"""In-memory spans around chunkcheck's layer boundaries.

The tracer replaces each layer's public functions at the names the calling
modules import them under (``chunkcheck.cli.load_corpus``,
``chunkcheck.engine.score_batch``, a backend class's ``evaluate`` ...), so
``src/chunkcheck`` stays untouched and a traced run drives the same code as
an untraced one. ``remove`` puts every original back.

A span is (id, parent id, name, start, end, args, result). Spans started in
the worker threads of ``score_batch``'s thread pool get the dispatching
``score_batch`` span as parent. A span's self time is its duration minus
the union of its children's intervals (children in pool threads overlap).
"""

from __future__ import annotations

import itertools
import json
import threading
from concurrent.futures import ThreadPoolExecutor
from time import perf_counter

import chunkcheck.backends as backends
import chunkcheck.cli as cli
import chunkcheck.corpus as corpus
import chunkcheck.engine as engine
import chunkcheck.metrics as metrics
import chunkcheck.retrieval as retrieval
import chunkcheck.scoring as scoring

# (owner, attribute, span name, keep the call's args and result)
BOUNDARIES = [
    (cli, "main", "cli.main", True),
    (cli, "resolve_config", "config.resolve", False),
    (cli, "build_counter", "config.build_counter", False),
    (cli, "build_backend", "config.build_backend", False),
    (cli, "build_cache", "config.build_cache", True),
    (cli, "load_corpus", "corpus.load", False),
    (corpus.Corpus, "document", "corpus.document", False),
    (corpus.Corpus, "content_hash", "corpus.content_hash", False),
    (corpus.Document, "unit_token_counts", "corpus.token_counts", False),
    (cli, "make_chunks", "chunking.make_chunks", True),
    (engine, "make_chunks", "chunking.make_chunks", True),
    (retrieval, "split_range", "chunking.split_range", False),
    (retrieval, "premise_text", "chunking.premise_text", False),
    (cli, "score_text", "engine.score_text", False),
    (engine, "score_sentence", "engine.score_sentence", False),
    (engine, "score_batch", "scoring.score_batch", True),
    (retrieval, "score_batch", "scoring.score_batch", True),
    (backends.LexicalOverlapBackend, "evaluate", "backends.overlap", True),
    (backends.UnitRelevanceBackend, "evaluate", "backends.unit-relevance", True),
    (backends.RemoteBackend, "evaluate", "backends.remote", True),
    (cli, "retrieve", "retrieval.retrieve", True),
    (cli, "brute_force_retrieve", "retrieval.brute_force", False),
    (cli, "evaluate_scores", "metrics.evaluate_scores", True),
    (cli, "ece", "metrics.ece", False),
    (cli, "calibration_curve", "metrics.calibration_curve", False),
    (cli, "roc_auc", "metrics.roc_auc", False),
    (cli, "retrieval_recall", "metrics.retrieval_recall", False),
    (metrics, "evaluate_scores", "metrics.evaluate_scores", True),
    (metrics, "ece", "metrics.ece", False),
    (metrics, "calibration_curve", "metrics.calibration_curve", False),
    (metrics, "roc_auc", "metrics.roc_auc", False),
    (metrics, "pearson", "metrics.pearson", False),
    (metrics, "kendall_tau", "metrics.kendall_tau", False),
    (metrics, "f1_macro_optimal", "metrics.f1_macro_optimal", False),
]


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._patches: list[tuple] = []

    def _current(self) -> int:
        return getattr(self._local, "span", 0)

    def _wrap(self, owner, attr: str, name: str, keep: bool) -> None:
        orig = owner.__dict__[attr]
        local, ids, spans = self._local, self._ids, self.spans

        def traced(*args, **kwargs):
            parent = getattr(local, "span", 0)
            sid = next(ids)
            local.span = sid
            result = None
            t0 = perf_counter()
            try:
                result = orig(*args, **kwargs)
                return result
            finally:
                t1 = perf_counter()
                local.span = parent
                spans.append((sid, parent, name, t0, t1,
                              (args, kwargs) if keep else None, result if keep else None))

        traced.__wrapped__ = orig
        setattr(owner, attr, traced)
        self._patches.append((owner, attr, orig))

    def install(self) -> None:
        for owner, attr, name, keep in BOUNDARIES:
            self._wrap(owner, attr, name, keep)
        tracer = self

        class TracedPool(ThreadPoolExecutor):
            """Runs each task with the submitting thread's span as parent."""

            def submit(self, fn, /, *args, **kwargs):
                parent = tracer._current()

                def run(*a, **kw):
                    tracer._local.span = parent
                    try:
                        return fn(*a, **kw)
                    finally:
                        tracer._local.span = 0

                return super().submit(run, *args, **kwargs)

        self._patches.append((scoring, "ThreadPoolExecutor", scoring.ThreadPoolExecutor))
        scoring.ThreadPoolExecutor = TracedPool

    def remove(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)


def self_times(spans: list[tuple]) -> dict[int, float]:
    """Duration minus the union of child intervals, per span id."""
    children: dict[int, list[tuple[float, float]]] = {}
    for sid, parent, _name, t0, t1, _a, _r in spans:
        children.setdefault(parent, []).append((t0, t1))
    out = {}
    for sid, _parent, _name, t0, t1, _a, _r in spans:
        covered = 0.0
        end = t0
        for c0, c1 in sorted(children.get(sid, ())):
            c0, c1 = max(c0, end), min(c1, t1)
            if c1 > c0:
                covered += c1 - c0
                end = c1
        out[sid] = (t1 - t0) - covered
    return out


def write_spans(spans: list[tuple], path) -> None:
    """One JSON object per line: id, parent, name, start and end in seconds."""
    with open(path, "w", encoding="utf-8") as fh:
        for sid, parent, name, t0, t1, _a, _r in spans:
            fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                 "start": t0, "end": t1}) + "\n")


class CallCounter:
    """Counts calls to a class's method, for the untraced rounds."""

    def __init__(self, owner, attr: str):
        self.owner, self.attr = owner, attr
        self.orig = owner.__dict__[attr]
        self._count = itertools.count()
        self._reads = 0
        orig, count = self.orig, self._count

        def counted(*args, **kwargs):
            next(count)
            return orig(*args, **kwargs)

        counted.__wrapped__ = orig
        setattr(owner, attr, counted)

    def calls(self) -> int:
        """Calls so far. Reading draws one value from the counter, so the
        reads are subtracted; next() on a count is atomic under the GIL."""
        n = next(self._count) - self._reads
        self._reads += 1
        return n

    def remove(self) -> None:
        setattr(self.owner, self.attr, self.orig)
