"""Entailment scorer contract: prompt construction, logit-to-probability
conversion, and batch dispatch over interchangeable backends.
A backend returns the entailment probability of a pair as a float.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from threading import Lock

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
    return values.index(max(values))


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
    """Reject an empty premise or hypothesis, or a premise over ``cap`` tokens,
    before any pair is scored, from the counts the caller holds
    (``token_counts[i]`` counts ``pairs[i]``'s premise), raising what a
    pair-by-pair check (empty texts, then the cap) raises first."""
    if cap is not None:
        for i, n in enumerate(token_counts):
            if n > cap:
                _check_pairs(pairs[: i + 1])
                raise PremiseTooLargeError(
                    f"premise has {n} tokens, backend {backend.name!r} admits {cap}"
                )
    _check_pairs(pairs)


def _scorer(backend: ScorerBackend, pairs: list[tuple[str, str]], ends: list[int]):
    """``score_one(j, pair)`` scores the ``j``-th distinct checked pair of
    ``pairs`` with one backend call. A failure is returned, not raised, so one
    pair's error leaves the rest of the batch to complete. ``ends`` are the
    indices where groups of ``pairs`` end: once a pair has failed, a pair
    first met in a later group is not started and returns None. The distinct
    pairs met by the end of each group are counted only once a pair fails."""
    stop = len(pairs)  # distinct pairs from this index on are not started
    bounds: list[int] = []  # distinct pairs met by the end of each group
    lock = Lock()

    def score_one(j: int, pair: tuple[str, str]) -> float | Exception | None:
        nonlocal stop
        if j >= stop:
            return None
        try:
            prob = backend.evaluate(*pair)
            if not (0.0 <= prob <= 1.0):
                raise BackendError(f"backend {backend.name!r} returned probability {prob}")
            return prob
        except Exception as exc:  # per-item isolation
            with lock:
                if not bounds:
                    met: set[tuple[str, str]] = set()
                    for start, end in zip([0, *ends], ends):
                        met.update(pairs[start:end])
                        bounds.append(len(met))
                stop = min(stop, bounds[bisect_right(bounds, j)])
            return exc

    return score_one


def score_pair(backend: ScorerBackend, premise: str, hypothesis: str) -> float:
    """Score one (premise, hypothesis) pair through the backend."""
    _check_pairs([(premise, hypothesis)])
    result = _scorer(backend, [(premise, hypothesis)], [1])(0, (premise, hypothesis))
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
    max_workers: int = 1,
    ends: list[int] | None = None,
) -> BatchResult:
    """Score pairs in order with bounded concurrency, each distinct pair once.

    Invalid inputs raise ValidationError before anything is scored; backend
    errors are collected per item, so the rest of the batch still completes.
    ``ends``, ascending, are the indices where groups of pairs end (the last
    is ``len(pairs)``): once a pair has failed, no pair first met in a later
    group is started, and such a pair's score is None without a failure.
    """
    seen = dict.fromkeys(pairs)
    _check_pairs(seen)
    score_one = _scorer(backend, pairs, ends or [len(pairs)])
    if max_workers > 1:
        with ThreadPoolExecutor(max_workers=max_workers) as pool:
            results = list(pool.map(score_one, range(len(seen)), seen))
    else:
        results = list(map(score_one, range(len(seen)), seen))
    if len(seen) < len(pairs):
        # Each distinct pair's outcome, written into ``seen`` in place so that
        # no second dict over every distinct pair is built. CPython allows
        # updating values while iterating, because the dict's size does not change.
        seen.update(zip(seen, results))
        results = [seen[pair] for pair in pairs]

    failures = [BatchFailure(index=i, error=f"{type(res).__name__}: {res}")
                for i, res in enumerate(results) if isinstance(res, Exception)]
    if failures:
        results = [None if isinstance(res, Exception) else res for res in results]
    return BatchResult(scores=results, failures=failures)
