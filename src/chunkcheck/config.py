"""Run configuration: one dataclass, resolved from defaults, a JSON config
file, environment variables, and command-line flags (highest wins).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, fields
from pathlib import Path
from threading import TIMEOUT_MAX

from .backends import LexicalOverlapBackend, RemoteBackend, UnitRelevanceBackend, mask_password
from .corpus import Corpus, TokenCounter, VocabCounter, WhitespaceCounter, read_text_file
from .engine import check_aggregation
from .errors import ValidationError
from .scoring import ScorerBackend

ENDPOINT_ENV = "CHUNKCHECK_ENDPOINT"
AUTH_ENV = "CHUNKCHECK_AUTH_HEADER"

BACKENDS = ("overlap", "remote", "unit-relevance")
_NO_RELEVANCE_FILE = "unit-relevance backend needs --relevance-file"
# Scoring starts up to this many worker threads, one per distinct pair at most.
MAX_CONCURRENCY = 256
# ece allocates arrays of this many bins, so a mistyped huge count fails here, before scoring.
MAX_ECE_BINS = 10_000


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
        if self.backend == "remote" and not self.endpoint:
            raise ValidationError(
                f"remote backend needs an endpoint (flag, config file, or ${ENDPOINT_ENV})"
            )
        if self.backend == "unit-relevance" and not self.relevance_file:
            raise ValidationError(_NO_RELEVANCE_FILE)
        self.vocab_path()  # an unknown counter raises
        if self.budget < 1:
            raise ValidationError(f"budget must be >= 1, got {self.budget}")
        if self.k < 2:
            raise ValidationError(f"branching factor must be >= 2, got {self.k}")
        check_aggregation(self.aggregation)
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
        # TIMEOUT_MAX: the longest wait sockets and ``time.sleep`` take; nan fails too.
        if not (0 < self.timeout <= TIMEOUT_MAX):
            raise ValidationError(
                f"timeout must be finite, > 0 and <= {TIMEOUT_MAX}, got {self.timeout}"
            )
        if self.retries < 0:
            raise ValidationError(f"retries must be >= 0, got {self.retries}")
        if not (0 <= self.backoff <= TIMEOUT_MAX):
            raise ValidationError(
                f"backoff must be finite, >= 0 and <= {TIMEOUT_MAX}, got {self.backoff}"
            )
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

    def vocab_path(self) -> str | None:
        """The vocabulary file of the ``vocab:<path>`` counter, None for the
        ``whitespace`` counter; any other counter raises."""
        if self.counter == "whitespace":
            return None
        if self.counter.startswith("vocab:"):
            return self.counter.removeprefix("vocab:")
        raise ValidationError(
            f"unknown token counter {self.counter!r}; use 'whitespace' or 'vocab:<path>'"
        )

    def to_dict(self) -> dict:
        """The config as reports embed it, with the auth header's value and
        the endpoint's password masked."""
        out = dict(vars(self))  # not ``asdict``, which deep-copies every value
        if self.endpoint is not None:
            out["endpoint"] = mask_password(self.endpoint)
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
    path = config.vocab_path()
    return WhitespaceCounter() if path is None else VocabCounter(path)


def build_backend(config: RunConfig, corpus: Corpus | None = None) -> ScorerBackend:
    """The configured backend, of a config that ``RunConfig.validate`` passed."""
    if config.backend == "overlap":
        return LexicalOverlapBackend()
    if config.backend == "unit-relevance":
        if corpus is None:
            raise ValidationError("unit-relevance backend needs a loaded corpus")
        if not config.relevance_file:  # a config that never went through validate
            raise ValidationError(_NO_RELEVANCE_FILE)
        return UnitRelevanceBackend.from_file(config.relevance_file, corpus)
    if config.backend == "remote":
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
