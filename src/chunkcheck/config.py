"""Run configuration: one dataclass, resolved from defaults, a JSON config
file, environment variables, and command-line flags (highest wins).
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import dataclass, fields
from pathlib import Path

from .backends import LexicalOverlapBackend, RemoteBackend, UnitRelevanceBackend
from .corpus import Corpus, TokenCounter, VocabCounter, WhitespaceCounter, read_text_file
from .engine import AGGREGATIONS
from .errors import ValidationError
from .scoring import ScorerBackend

ENDPOINT_ENV = "CHUNKCHECK_ENDPOINT"
AUTH_ENV = "CHUNKCHECK_AUTH_HEADER"

BACKENDS = ("overlap", "remote", "unit-relevance")
# Scoring starts up to this many worker threads, one per distinct pair at most.
MAX_CONCURRENCY = 256
# ece allocates arrays of this many bins, so a mistyped huge count fails here, before scoring.
MAX_ECE_BINS = 10_000
# The bound of a finite float; an int over it fails the finite checks as inf does.
FLOAT_MAX = sys.float_info.max


@dataclass
class RunConfig:
    backend: str = "overlap"
    endpoint: str | None = None
    auth_header: str | None = None
    relevance_file: str | None = None
    counter: str = "whitespace"
    budget: int = 512
    k: int = 2
    aggregation: str = "min"
    ece_bins: int = 10
    decision_threshold: float = 0.5
    concurrency: int = 1
    premise_cap: int | None = None
    timeout: float = 10.0
    retries: int = 3
    backoff: float = 0.25

    def validate(self) -> None:
        if self.backend not in BACKENDS:
            raise ValidationError(f"unknown backend {self.backend!r}; choose from {BACKENDS}")
        if self.budget < 1:
            raise ValidationError(f"budget must be >= 1, got {self.budget}")
        if self.k < 2:
            raise ValidationError(f"branching factor must be >= 2, got {self.k}")
        if self.aggregation not in AGGREGATIONS:
            raise ValidationError(
                f"unknown aggregation {self.aggregation!r}; choose from {AGGREGATIONS}"
            )
        if not (1 <= self.ece_bins <= MAX_ECE_BINS):
            raise ValidationError(
                f"ece_bins must be between 1 and {MAX_ECE_BINS}, got {self.ece_bins}"
            )
        if not (0.0 <= self.decision_threshold <= 1.0):
            raise ValidationError(f"decision_threshold {self.decision_threshold} outside [0, 1]")
        if not (1 <= self.concurrency <= MAX_CONCURRENCY):
            raise ValidationError(
                f"concurrency must be between 1 and {MAX_CONCURRENCY}, got {self.concurrency}"
            )
        if self.premise_cap is not None and self.premise_cap < 1:
            raise ValidationError(f"premise_cap must be >= 1, got {self.premise_cap}")
        if not (0 < self.timeout <= FLOAT_MAX):
            raise ValidationError(f"timeout must be finite and > 0, got {self.timeout}")
        if self.retries < 0:
            raise ValidationError(f"retries must be >= 0, got {self.retries}")
        if not (0 <= self.backoff <= FLOAT_MAX):
            raise ValidationError(f"backoff must be finite and >= 0, got {self.backoff}")
        # Reports carry these strings, and are written as UTF-8 only after scoring.
        for key, value in self.to_dict().items():
            try:
                if isinstance(value, str):
                    value.encode("utf-8")
            except UnicodeEncodeError as exc:
                raise ValidationError(
                    f"config key {key!r} cannot be written as UTF-8: {value!r} holds a lone "
                    "surrogate (a \\ud800 escape, or a path byte that is not UTF-8)"
                ) from exc

    def to_dict(self) -> dict:
        """The config as reports embed it, with the auth header's value masked."""
        out = dict(vars(self))  # not ``asdict``, which deep-copies every value
        if self.auth_header is not None:
            name, sep, _ = self.auth_header.partition(":")
            out["auth_header"] = f"{name.strip()}: ***" if sep else "***"
        return out


_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}
_ADMITS = {"str": str, "int": int, "float": (int, float)}


def _check_types(values: dict) -> None:
    """Reject a value of the wrong type: a bool anywhere, a float for an
    int field, a str for a number; only the "| None" fields take None."""
    for key, value in values.items():
        base, _, optional = _FIELD_TYPES[key].partition(" | ")
        if value is None and optional:
            continue
        if isinstance(value, bool) or not isinstance(value, _ADMITS[base]):
            raise ValidationError(f"config key {key!r} must be {_FIELD_TYPES[key]}, got {value!r}")


def resolve_config(config_path: str | None = None, overrides: dict | None = None) -> RunConfig:
    """defaults < config file < environment (endpoint/auth only) < flags."""
    values: dict = {}
    if config_path:
        path = Path(config_path)
        if not path.exists():
            raise ValidationError(f"config file not found: {path}")
        try:
            loaded = json.loads(read_text_file(path, "config file"))
        except (ValueError, RecursionError) as exc:  # ValueError: also an int over the digit limit
            raise ValidationError(f"config file {path} is not valid JSON: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ValidationError(f"config file {path} must hold a JSON object")
        unknown = set(loaded) - _FIELD_TYPES.keys()
        if unknown:
            raise ValidationError(f"unknown config keys: {sorted(unknown)}")
        values.update(loaded)
    if os.environ.get(ENDPOINT_ENV):
        values["endpoint"] = os.environ[ENDPOINT_ENV]
    if os.environ.get(AUTH_ENV):
        values["auth_header"] = os.environ[AUTH_ENV]
    for key, val in (overrides or {}).items():
        if val is not None:
            values[key] = val
    _check_types(values)
    cfg = RunConfig(**values)
    cfg.validate()
    return cfg


def build_counter(config: RunConfig) -> TokenCounter:
    """The configured counter: ``whitespace`` or ``vocab:<path>``."""
    kind = config.counter
    if kind == "whitespace":
        return WhitespaceCounter()
    if kind.startswith("vocab:"):
        return VocabCounter(kind.split(":", 1)[1])
    raise ValidationError(f"unknown token counter {kind!r}; use 'whitespace' or 'vocab:<path>'")


def build_backend(config: RunConfig, corpus: Corpus | None = None) -> ScorerBackend:
    """The configured backend."""
    if config.backend == "overlap":
        return LexicalOverlapBackend()
    if config.backend == "unit-relevance":
        if not config.relevance_file:
            raise ValidationError("unit-relevance backend needs --relevance-file")
        if corpus is None:
            raise ValidationError("unit-relevance backend needs a loaded corpus")
        return UnitRelevanceBackend.from_file(config.relevance_file, corpus)
    if config.backend == "remote":
        if not config.endpoint:
            raise ValidationError(
                f"remote backend needs an endpoint (flag, config file, or ${ENDPOINT_ENV})"
            )
        return RemoteBackend(
            endpoint=config.endpoint,
            auth_header=config.auth_header,
            timeout=config.timeout,
            max_retries=config.retries,
            backoff_base=config.backoff,
            concurrency=config.concurrency,
        )
    raise ValidationError(f"unknown backend {config.backend!r}")


def build_cache(config: RunConfig) -> None:
    """A stub that returns None. Only the benchmark harness in ``perfbench/``
    uses it; chunkcheck has no score cache."""
    return None
