"""Scorer backend implementations.

- LexicalOverlapBackend: dependency-free word-overlap oracle, handy for
  deterministic offline runs and as an independent reference in tests.
- UnitRelevanceBackend: diagnostic backend scoring a premise as the max of
  per-unit base relevance scores it contains. By construction a range's
  score equals the max over its units, which makes greedy descent provably
  agree with exhaustive search; retrieval verification relies on it.
- RemoteBackend: HTTP POST to an inference endpoint that returns yes/no
  logits or a ready probability, with retry and exponential backoff.
"""

from __future__ import annotations

import json
import math
import time
import traceback
from functools import lru_cache
from pathlib import Path
from threading import TIMEOUT_MAX
from urllib.parse import urlsplit

from .corpus import Corpus, Document, format_unit, read_text_file
from .errors import BackendError, ValidationError
from .scoring import ScorerBackend, build_prompt, entail_prob

# Every byte outside ASCII a-z, 0-9 and ' becomes a space. UTF-8 writes each
# non-ASCII code point, a lone surrogate included, as bytes >= 0x80, so each
# separates words, as it does for the regex [a-z0-9']+ over the lowered text.
_SEPARATORS = bytes(b if chr(b) in "abcdefghijklmnopqrstuvwxyz0123456789'" else 32
                    for b in range(256))


def _words(text: str) -> frozenset[bytes]:
    return frozenset(text.lower().encode("utf-8", "surrogatepass").translate(_SEPARATORS).split())


class LexicalOverlapBackend(ScorerBackend):
    """probability = |hypothesis words ∩ premise words| / |hypothesis words|.

    A word is a maximal run of ASCII a-z, 0-9 and ' after ``str.lower()``;
    every other character separates words."""

    name = "overlap"

    def __init__(self):
        # Chunks recur across the claims of a document and claims across its
        # chunks, so word sets are memoised, per instance: for the backend's life.
        self._words = lru_cache(maxsize=4096)(_words)

    def evaluate(self, premise: str, hypothesis: str) -> float:
        hyp = self._words(hypothesis)
        if not hyp:
            return 0.0
        return len(hyp & self._words(premise)) / len(hyp)


class UnitRelevanceBackend(ScorerBackend):
    """Max-composable mock: each source unit carries a base relevance score in
    [0, 1]; a premise scores the max over the units it is built from.

    Premises must be newline-joined formatted unit lines (the chunker's
    format); unknown lines raise, which catches formatting drift early.
    """

    name = "unit-relevance"

    def __init__(self, scores_by_doc: dict[str, list[float]], documents: list[Document]):
        self._line_scores: dict[str, float] = {}
        docs = {d.id: d for d in documents}
        for doc_id, scores in scores_by_doc.items():
            doc = docs.get(doc_id)
            if doc is None:
                raise ValidationError(f"relevance scores for unknown document {doc_id!r}")
            if len(scores) != len(doc.units):
                raise ValidationError(
                    f"document {doc_id!r}: {len(scores)} scores for {len(doc.units)} units"
                )
            for pos, (unit, s) in enumerate(zip(doc.units, scores)):
                if not (0.0 <= s <= 1.0):
                    raise ValidationError(f"relevance score {s} outside [0, 1]")
                line = format_unit(unit)
                if "\n" in line:
                    where = "text" if "\n" in unit.text else "speaker"
                    raise ValidationError(
                        f"document {doc_id!r} unit {pos}: {where} contains a newline"
                    )
                prev = self._line_scores.get(line)
                self._line_scores[line] = s if prev is None else max(prev, s)

    @classmethod
    def from_file(cls, path: str | Path, corpus: Corpus) -> "UnitRelevanceBackend":
        """Load a JSON mapping {doc_id: [unit scores]}."""
        text = read_text_file(Path(path), "relevance file")
        try:
            scores_by_doc = json.loads(text)
        except (ValueError, RecursionError) as exc:
            raise ValidationError(f"relevance file {path} is not valid JSON: {exc}") from exc
        if not isinstance(scores_by_doc, dict):
            raise ValidationError(
                f"relevance file {path} must hold a JSON object {{doc_id: [unit scores]}}"
            )
        for doc_id, scores in scores_by_doc.items():
            if not isinstance(scores, list) or any(_json_number(s) is None for s in scores):
                raise ValidationError(
                    f"relevance file {path}: document {doc_id!r} needs an array of numbers"
                )
        missing = next((c.doc_id for c in corpus.claims if c.doc_id not in scores_by_doc), None)
        if missing is not None:
            raise ValidationError(f"relevance file {path} has no scores for document {missing!r}")
        return cls(scores_by_doc, corpus.documents)

    def evaluate(self, premise: str, hypothesis: str) -> float:
        best = 0.0
        for line in premise.split("\n"):
            score = self._line_scores.get(line)
            if score is None:
                raise BackendError(f"premise line not in relevance table: {line!r}")
            if score > best:
                best = score
        return best


def _retry_after_seconds(value: str | None) -> float | None:
    """A numeric Retry-After value in seconds; None for a date, garbage, or a
    wait longer than ``time.sleep`` accepts."""
    try:
        seconds = float(value)
    except (TypeError, ValueError):
        return None
    return seconds if 0.0 <= seconds <= TIMEOUT_MAX else None


def _json_number(value) -> float | None:
    """A JSON number (an int or a float, not a bool) as a float, None for any
    other value. An int too large for a float is infinite, as 1e999 parses."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _clear_frames(exc: BaseException) -> None:
    """Clear the locals of the finished frames in the tracebacks of ``exc``,
    its cause and its context. urllib3's frames there form reference cycles,
    which only the cyclic collector would free. A function of its own, so
    that no local of the caller keeps one of these errors alive."""
    for error in (exc, exc.__cause__, exc.__context__):
        if error is not None:
            traceback.clear_frames(error.__traceback__)


class RemoteBackend(ScorerBackend):
    """Scores pairs against an HTTP endpoint.

    Request:  POST {"prompt": str, "target_tokens": ["Yes", "No"]}
    Response: {"logits": [yes, no]} or {"probability": p}; logits are
    converted here with ``entail_prob``, so callers only see probabilities.

    Transient failures (connection errors, timeouts, 5xx, 429) are retried
    with exponential backoff, or after a 429's numeric Retry-After; other
    client errors and malformed responses are fatal.

    ``requests`` resolves the request once, here: proxies, the CA bundle and
    netrc credentials from the environment, the headers (auth included), the
    proxy route and the urllib3 connection pool, which holds ``concurrency``
    connections (at least 10). Each call then goes straight to that pool,
    without ``requests``' per-call session layer. So a redirect is not
    followed (a 3xx is fatal), and cookies the endpoint sets are not sent back.

    ``requests`` and ``urllib3`` are imported here, once the endpoint checks
    pass, so that the offline backends never load the HTTP stack.
    """

    def __init__(
        self,
        endpoint: str,
        auth_header: str | None = None,
        timeout: float = 10.0,
        max_retries: int = 3,
        backoff_base: float = 0.25,
        concurrency: int = 1,
    ):
        if not endpoint:
            raise ValidationError("remote backend requires an endpoint URL")
        try:
            parts = urlsplit(endpoint)
            valid = parts.scheme in ("http", "https") and bool(parts.hostname)
        except ValueError:
            valid = False
        if not valid:
            raise ValidationError(
                f"remote endpoint {endpoint!r} is not an http:// or https:// URL with a host"
            )
        headers = {"Content-Type": "application/json"}
        if auth_header:
            if ":" not in auth_header:
                raise ValidationError("auth header must look like 'Name: value'")
            name, value = auth_header.split(":", 1)
            headers[name.strip()] = value.strip()
        import requests
        import urllib3
        from requests.adapters import HTTPAdapter
        from requests.utils import get_netrc_auth

        self.endpoint = endpoint
        self.name = f"remote:{endpoint}"
        self.timeout = timeout
        self.max_retries = max_retries
        self.backoff_base = backoff_base
        self._session = requests.Session()
        env = self._session.merge_environment_settings(endpoint, {}, None, None, None)
        self._session.proxies = env["proxies"]
        self._session.verify = env["verify"]
        self._session.auth = get_netrc_auth(endpoint)
        self._session.trust_env = False
        adapter = HTTPAdapter(pool_maxsize=max(10, concurrency))
        self._session.mount("http://", adapter)
        self._session.mount("https://", adapter)
        try:
            prepared = self._session.prepare_request(
                requests.Request("POST", endpoint, headers=headers)
            )
            proxies, verify = self._session.proxies, self._session.verify
            self._pool = adapter.get_connection_with_tls_context(prepared, verify, proxies)
            adapter.cert_verify(self._pool, endpoint, verify, None)
            self._url = adapter.request_url(prepared, proxies)
        except (requests.RequestException, urllib3.exceptions.HTTPError, OSError) as exc:
            raise ValidationError(f"remote endpoint {endpoint!r}: {exc}") from exc
        # The body is set per call; urllib3 counts its length.
        prepared.headers.pop("Content-Length", None)
        self._headers = dict(prepared.headers)
        self._timeout = urllib3.Timeout(connect=timeout, read=timeout)
        self._transport_errors = (urllib3.exceptions.HTTPError, OSError)

    def evaluate(self, premise: str, hypothesis: str) -> float:
        body = json.dumps({
            "prompt": build_prompt(premise, hypothesis),
            "target_tokens": ["Yes", "No"],
        }).encode()
        attempts = 0
        last_error = "no attempt made"
        while attempts <= self.max_retries:
            if attempts:
                backoff = self.backoff_base * 2 ** (attempts - 1)
                time.sleep(backoff if retry_after is None else retry_after)
            attempts += 1
            retry_after = None
            try:
                resp = self._pool.urlopen(
                    "POST", self._url, body=body, headers=self._headers, redirect=False,
                    assert_same_host=False, retries=False, timeout=self._timeout,
                )
            except self._transport_errors as exc:
                last_error = f"transport error: {exc}"
                _clear_frames(exc)
                continue
            if resp.status >= 500:
                last_error = f"server error HTTP {resp.status}"
                continue
            if resp.status == 429:
                last_error = "rate limited HTTP 429"
                retry_after = _retry_after_seconds(resp.headers.get("Retry-After"))
                continue
            if resp.status != 200:
                raise BackendError(f"endpoint {self.endpoint} answered HTTP {resp.status}")
            return self._parse(resp)
        raise BackendError(
            f"endpoint {self.endpoint} unreachable after {attempts} attempts: {last_error}"
        )

    def _parse(self, resp) -> float:
        try:
            body = json.loads(resp.data)
        except ValueError as exc:
            raise BackendError(f"endpoint {self.endpoint} returned invalid JSON: {exc}") from exc
        if isinstance(body, dict) and "logits" in body:
            logits = body["logits"]
            values = [_json_number(v) for v in logits] if isinstance(logits, list) else []
            if len(values) != 2 or None in values:
                raise BackendError(f"expected two numeric logits, got {logits!r}")
            return entail_prob(*values)
        if isinstance(body, dict) and "probability" in body:
            probability = _json_number(body["probability"])
            if probability is None:
                raise BackendError(f"expected a numeric probability, got {body['probability']!r}")
            return probability
        raise BackendError(f"response missing 'logits' or 'probability': {body!r}")
