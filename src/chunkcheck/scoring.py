"""Entailment scorer contract: prompt construction, logit-to-probability
conversion, caching, and batch dispatch over interchangeable backends.
"""

from __future__ import annotations

import hashlib
import math
import threading
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from .corpus import TokenCounter, WhitespaceCounter
from .errors import BackendError, PremiseTooLargeError, ValidationError

PROMPT_TEMPLATE = "{premise} Question: does this imply '{hypothesis}'? Yes or no?"


def build_prompt(premise: str, hypothesis: str) -> str:
    """Render the scoring prompt. The template is fixed verbatim: no escaping,
    no whitespace adjustment."""
    if not premise.strip():
        raise ValidationError("premise must be non-empty")
    if not hypothesis.strip():
        raise ValidationError("hypothesis must be non-empty")
    return PROMPT_TEMPLATE.format(premise=premise, hypothesis=hypothesis)


def entail_prob(logit_yes: float, logit_no: float) -> float:
    """Two-way softmax probability of the yes logit, computed stably."""
    if not (math.isfinite(logit_yes) and math.isfinite(logit_no)):
        raise ValidationError(f"logits must be finite, got ({logit_yes}, {logit_no})")
    m = max(logit_yes, logit_no)
    ey = math.exp(logit_yes - m)
    en = math.exp(logit_no - m)
    return ey / (ey + en)


@dataclass(frozen=True)
class BackendOutput:
    """A backend returns either a raw yes/no logit pair or a direct probability."""

    logits: tuple[float, float] | None = None
    probability: float | None = None

    def __post_init__(self):
        if (self.logits is None) == (self.probability is None):
            raise ValidationError("backend output needs exactly one of logits/probability")


@dataclass(frozen=True)
class EntailmentScore:
    probability: float
    backend: str


class ScorerBackend:
    """Deterministic entailment scorer (temperature-zero semantics).

    ``max_premise_tokens``, when set, is a hard cap: oversized premises are
    rejected, never truncated. ``budget_counter`` is the counter used to
    enforce it. Implementations must be safe for concurrent evaluate calls.
    """

    name: str = "abstract"
    max_premise_tokens: int | None = None
    budget_counter: TokenCounter = WhitespaceCounter()

    def evaluate(self, premise: str, hypothesis: str) -> BackendOutput:
        raise NotImplementedError


class ScoreCache:
    """Thread-safe LRU keyed on (backend, premise hash, hypothesis hash).

    Retrieval re-scores overlapping ranges across claims on the same
    document, so repeats are common.
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
    def key(backend_name: str, premise: str, hypothesis: str) -> tuple:
        hp = hashlib.sha256(premise.encode("utf-8")).digest()
        hh = hashlib.sha256(hypothesis.encode("utf-8")).digest()
        return (backend_name, hp, hh)

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


def _check_pair(backend: ScorerBackend, premise: str, hypothesis: str) -> None:
    """Raise ValidationError for an empty premise or hypothesis, or a premise over the cap."""
    build_prompt(premise, hypothesis)
    if backend.max_premise_tokens is not None:
        n = backend.budget_counter.count(premise)
        if n > backend.max_premise_tokens:
            raise PremiseTooLargeError(
                f"premise has {n} tokens, backend {backend.name!r} admits "
                f"{backend.max_premise_tokens}"
            )


def _evaluate(
    backend: ScorerBackend, premise: str, hypothesis: str, cache: ScoreCache | None
) -> EntailmentScore:
    """Score a checked pair: a cache hit, or one backend call."""
    key = None
    if cache is not None:
        key = ScoreCache.key(backend.name, premise, hypothesis)
        hit = cache.get(key)
        if hit is not None:
            return EntailmentScore(probability=hit, backend=backend.name)
    out = backend.evaluate(premise, hypothesis)
    if out.logits is not None:
        prob = entail_prob(*out.logits)
    else:
        prob = out.probability
        if not (0.0 <= prob <= 1.0):
            raise BackendError(f"backend {backend.name!r} returned probability {prob}")
    if cache is not None:
        cache.put(key, prob)
    return EntailmentScore(probability=prob, backend=backend.name)


def score_pair(
    backend: ScorerBackend,
    premise: str,
    hypothesis: str,
    cache: ScoreCache | None = None,
) -> EntailmentScore:
    """Score one (premise, hypothesis) pair through the backend."""
    _check_pair(backend, premise, hypothesis)
    return _evaluate(backend, premise, hypothesis, cache)


@dataclass(frozen=True)
class BatchFailure:
    index: int
    error: str


@dataclass
class BatchResult:
    """Order-preserving batch outcome; failed items are None in ``scores``."""

    scores: list[EntailmentScore | None]
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
    for premise, hypothesis in distinct:
        _check_pair(backend, premise, hypothesis)

    def evaluate_one(pair):
        try:
            return _evaluate(backend, pair[0], pair[1], cache)
        except Exception as exc:  # per-item isolation
            return exc

    if max_workers > 1:
        with ThreadPoolExecutor(max_workers=max_workers) as pool:
            results = list(pool.map(evaluate_one, distinct))
    else:
        results = [evaluate_one(p) for p in distinct]
    outcomes = dict(zip(distinct, results))

    scores: list[EntailmentScore | None] = []
    failures: list[BatchFailure] = []
    for i, pair in enumerate(pairs):
        res = outcomes[pair]
        if isinstance(res, Exception):
            scores.append(None)
            failures.append(BatchFailure(index=i, error=f"{type(res).__name__}: {res}"))
        else:
            scores.append(res)
    return BatchResult(scores=scores, failures=failures)
