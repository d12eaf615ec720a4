"""Entailment scorer contract: prompt construction, logit-to-probability
conversion, caching, and batch dispatch over interchangeable backends.
A backend returns the entailment probability of a pair as a float.
"""

from __future__ import annotations

import hashlib
import math
import threading
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache, partial

from .errors import BackendError, PremiseTooLargeError, ValidationError

PROMPT_TEMPLATE = "{premise} Question: does this imply '{hypothesis}'? Yes or no?"


def _require_text(text: str, what: str) -> None:
    if not text.strip():
        raise ValidationError(f"{what} must be non-empty")


def build_prompt(premise: str, hypothesis: str) -> str:
    """Render the scoring prompt. The template is fixed verbatim: no escaping,
    no whitespace adjustment."""
    _require_text(premise, "premise")
    _require_text(hypothesis, "hypothesis")
    return PROMPT_TEMPLATE.format(premise=premise, hypothesis=hypothesis)


def entail_prob(logit_yes: float, logit_no: float) -> float:
    """Two-way softmax probability of the yes logit, computed stably."""
    if not (math.isfinite(logit_yes) and math.isfinite(logit_no)):
        raise ValidationError(f"logits must be finite, got ({logit_yes}, {logit_no})")
    m = max(logit_yes, logit_no)
    ey = math.exp(logit_yes - m)
    en = math.exp(logit_no - m)
    return ey / (ey + en)


class ScorerBackend:
    """Deterministic entailment scorer (temperature-zero semantics): a ``name``
    and an ``evaluate`` method, safe for concurrent calls."""

    name: str = "abstract"

    def evaluate(self, premise: str, hypothesis: str) -> float:
        """The probability in [0, 1] that the premise entails the hypothesis."""
        raise NotImplementedError


def first_max(values: list[float]) -> int:
    """Index of the maximum; ties keep the lowest index."""
    return max(range(len(values)), key=values.__getitem__)


def _sha256(text: str) -> bytes:
    return hashlib.sha256(text.encode("utf-8")).digest()


class ScoreCache:
    """Thread-safe LRU keyed on (backend, premise hash, hypothesis hash).

    Off by default: the CLI builds one only for ``--cache-size N`` with
    N >= 1; without one, no pair is hashed and no lock is taken. Keys
    include the hypothesis, so an entry is reused only when the same claim
    text meets the same premise in a later batch. Within one batch identical
    pairs are deduplicated before the cache is consulted. Scoring sends all
    claims of a text in one batch, and retrieval all claims of a document at
    each level, so reuse is rare: a retrieval part of ``evaluate
    --retrieval-recall`` equal to a chunk the same run has scored.
    """

    def __init__(self, capacity: int = 4096):
        if capacity < 1:
            raise ValidationError(f"cache capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._data: OrderedDict = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    @staticmethod
    def key(backend_name: str, premise: str, hypothesis: str, digest=_sha256) -> tuple:
        """The cache key; ``digest`` may be a memoised ``_sha256``."""
        return (backend_name, digest(premise), digest(hypothesis))

    def get(self, key) -> float | None:
        with self._lock:
            if key in self._data:
                self._data.move_to_end(key)
                self.hits += 1
                return self._data[key]
            self.misses += 1
            return None

    def put(self, key, probability: float) -> None:
        with self._lock:
            self._data[key] = probability
            self._data.move_to_end(key)
            while len(self._data) > self.capacity:
                self._data.popitem(last=False)


def _check_pairs(pairs) -> None:
    """Raise ValidationError for the first pair, in order, with an empty premise
    or hypothesis (in ``build_prompt``'s order), checking each distinct text once."""
    checked: set[str] = set()
    for premise, hypothesis in pairs:
        if premise not in checked:
            _require_text(premise, "premise")
            checked.add(premise)
        if hypothesis not in checked:
            _require_text(hypothesis, "hypothesis")
            checked.add(hypothesis)


def check_cap(backend: ScorerBackend, pairs, token_counts, cap: int | None) -> None:
    """Reject a premise over ``cap`` tokens before any pair is scored, from the
    counts the caller holds (``token_counts[i]`` counts ``pairs[i]``'s premise),
    raising what a pair-by-pair check (empty texts, then the cap) raises first."""
    if cap is None:
        return
    for i, n in enumerate(token_counts):
        if n > cap:
            _check_pairs(pairs[: i + 1])
            raise PremiseTooLargeError(
                f"premise has {n} tokens, backend {backend.name!r} admits {cap}"
            )


def _score_one(
    backend: ScorerBackend,
    cache: ScoreCache | None,
    pair: tuple[str, str],
    key: tuple | None,
) -> float | Exception:
    """Score a checked pair: a cache hit, or one backend call (``key`` is its
    cache key when there is a cache). A failure is returned, not raised, so
    one pair's error leaves the rest of a batch to complete."""
    try:
        if cache is not None:
            hit = cache.get(key)
            if hit is not None:
                return hit
        prob = backend.evaluate(*pair)
        if not (0.0 <= prob <= 1.0):
            raise BackendError(f"backend {backend.name!r} returned probability {prob}")
        if cache is not None:
            cache.put(key, prob)
        return prob
    except Exception as exc:  # per-item isolation
        return exc


def score_pair(
    backend: ScorerBackend,
    premise: str,
    hypothesis: str,
    cache: ScoreCache | None = None,
) -> float:
    """Score one (premise, hypothesis) pair through the backend."""
    _check_pairs([(premise, hypothesis)])
    key = ScoreCache.key(backend.name, premise, hypothesis) if cache is not None else None
    result = _score_one(backend, cache, (premise, hypothesis), key)
    if isinstance(result, Exception):
        raise result
    return result


@dataclass(frozen=True)
class BatchFailure:
    index: int
    error: str


@dataclass
class BatchResult:
    """Order-preserving batch outcome; failed items are None in ``scores``."""

    scores: list[float | None]
    failures: list[BatchFailure]

    @property
    def ok(self) -> bool:
        return not self.failures


def score_batch(
    backend: ScorerBackend,
    pairs: list[tuple[str, str]],
    cache: ScoreCache | None = None,
    max_workers: int = 1,
) -> BatchResult:
    """Score pairs in order with bounded concurrency, each distinct pair once.

    Invalid inputs raise ValidationError before anything is scored; backend
    errors are collected per item, so the rest of the batch still completes.
    """
    distinct = list(dict.fromkeys(pairs))
    _check_pairs(distinct)
    if cache is not None:
        digest = lru_cache(maxsize=None)(_sha256)  # each distinct text hashed once
        keys = [ScoreCache.key(backend.name, p, h, digest) for p, h in distinct]
    else:
        keys = [None] * len(distinct)

    score_one = partial(_score_one, backend, cache)
    if max_workers > 1:
        with ThreadPoolExecutor(max_workers=max_workers) as pool:
            results = list(pool.map(score_one, distinct, keys))
    else:
        results = list(map(score_one, distinct, keys))
    if len(distinct) < len(pairs):
        outcomes = dict(zip(distinct, results))
        results = [outcomes[pair] for pair in pairs]

    failures = [BatchFailure(index=i, error=f"{type(res).__name__}: {res}")
                for i, res in enumerate(results) if isinstance(res, Exception)]
    if failures:
        results = [None if isinstance(res, Exception) else res for res in results]
    return BatchResult(scores=results, failures=failures)
