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
from urllib.parse import unquote, urlsplit

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


def mask_password(url: str) -> str:
    """``url`` with the password of its userinfo, if it has one, written as
    ``***``: the endpoint as reports and error messages show it."""
    head, sep, rest = url.partition("://")
    netloc = rest
    for stop in "/?#":
        netloc = netloc.partition(stop)[0]
    userinfo, _, host = netloc.rpartition("@")
    user, colon, _ = userinfo.partition(":")
    if not colon:
        return url
    return f"{head}{sep}{user}:***@{host}{rest[len(netloc):]}"


def _basic_auth(user: str, password: str) -> str:
    from base64 import b64encode

    return "Basic " + b64encode(f"{user}:{password}".encode("latin-1")).decode("ascii")


def _userinfo(parts) -> tuple[str, str] | None:
    """The user and password of a split URL, unquoted, when it has a password."""
    if parts.password is None:
        return None
    return unquote(parts.username), unquote(parts.password)


def _proxy_url(parts) -> str | None:
    """The proxy for a split endpoint URL, as ``requests`` picks it:
    ``getproxies()``' entry for its scheme, else for ``all``, as an
    ``http://`` URL when it has no scheme. None when there is none, or when
    ``no_proxy`` (else ``NO_PROXY``) exempts the host: an IPv4 host matches an
    equal address or a CIDR network holding it; a name, alone or with its
    ``:port``, matches an entry equal to it or to one of its dot-suffixes, a
    leading dot ignored; and ``*`` matches every host."""
    import os
    import urllib.request

    proxies = urllib.request.getproxies()
    proxy = proxies.get(parts.scheme, proxies.get("all"))
    host, port = parts.hostname, parts.port
    if not proxy or urllib.request.proxy_bypass(host):  # ``*``; names without case
        return None
    import ipaddress

    try:
        ip = ipaddress.IPv4Address(host)
    except ValueError:
        ip = None
    names = (host, f"{host}:{port}") if port else (host,)
    no_proxy = os.environ.get("no_proxy") or os.environ.get("NO_PROXY") or ""
    for entry in filter(None, no_proxy.replace(" ", "").split(",")):
        if ip is None:
            entry = entry.lstrip(".")
            if any(name == entry or name.endswith("." + entry) for name in names):
                return None
        elif "/" in entry:
            try:
                network = ipaddress.IPv4Network(entry, strict=False)
            except ValueError:
                continue
            if network.prefixlen and ip in network:
                return None
        elif entry == host:
            return None
    return proxy if "://" in proxy else f"http://{proxy}"


def _netrc_credentials(hostname: str) -> tuple[str, str] | None:
    """The login (or account) and password of the first netrc file found,
    ``$NETRC`` alone when set, else ``~/.netrc`` then ``~/_netrc``, for the
    host or its ``default`` entry. A file that does not parse gives None."""
    import os

    path = os.environ.get("NETRC")
    for location in (path,) if path is not None else ("~/.netrc", "~/_netrc"):
        location = os.path.expanduser(location)
        if os.path.exists(location):
            import netrc

            try:
                entry = netrc.netrc(location).authenticators(hostname)
            except (netrc.NetrcParseError, OSError):
                return None
            if not entry or not any(entry):
                return None
            login, account, password = entry
            return login or account or "", password or ""
    return None


class RemoteBackend(ScorerBackend):
    """Scores pairs against an HTTP endpoint.

    Request:  POST {"prompt": str, "target_tokens": ["Yes", "No"]}
    Response: {"logits": [yes, no]} or {"probability": p}; logits are
    converted here with ``entail_prob``, so callers only see probabilities.

    Transient failures (connection errors, timeouts, 5xx, 429) are retried
    with exponential backoff, or after a 429's numeric Retry-After; other
    client errors and malformed responses are fatal.

    The environment is read once, here, as ``requests`` reads it: the proxy
    (``_proxy_url``), whose URL credentials go out as Proxy-Authorization;
    the CA bundle, from REQUESTS_CA_BUNDLE, then CURL_CA_BUNDLE, else
    certifi's; and Basic credentials from netrc, then from the endpoint URL,
    unless the auth header is an Authorization header. The headers, the
    request target and the urllib3 connection pool, which holds
    ``concurrency`` connections (at least 10), are fixed here too, and each
    call goes straight to that pool. So a redirect is not followed (a 3xx is
    fatal), and cookies the endpoint sets are not sent back. ``endpoint``
    and ``name`` hold the URL with its password masked.

    ``urllib3`` and the modules that read the environment are imported here,
    once the endpoint checks pass, so that the offline backends never load
    them.
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
        self.endpoint = mask_password(endpoint)
        self.name = f"remote:{self.endpoint}"
        try:
            parts = urlsplit(endpoint)
            valid = parts.scheme in ("http", "https") and bool(parts.hostname)
        except ValueError:
            valid = False
        if not valid:
            raise ValidationError(
                f"remote endpoint {self.endpoint!r} is not an http:// or https:// URL with a host"
            )
        from . import __version__

        headers = {"Content-Type": "application/json", "User-Agent": f"chunkcheck/{__version__}"}
        if auth_header:
            if ":" not in auth_header:
                raise ValidationError("auth header must look like 'Name: value'")
            name, value = (part.strip() for part in auth_header.split(":", 1))
            headers = {k: v for k, v in headers.items() if k.lower() != name.lower()}
            headers[name] = value
        import os

        import urllib3

        self.timeout = timeout
        self.max_retries = max_retries
        self.backoff_base = backoff_base
        try:
            if not any(k.lower() == "authorization" for k in headers):
                credentials = _netrc_credentials(parts.hostname) or _userinfo(parts)
                if credentials and any(credentials):
                    headers["Authorization"] = _basic_auth(*credentials)
            pool_kw = {"maxsize": max(10, concurrency)}
            proxy = _proxy_url(parts)
            if "https" in (parts.scheme, urlsplit(proxy or "").scheme):
                bundle = os.environ.get("REQUESTS_CA_BUNDLE") or os.environ.get("CURL_CA_BUNDLE")
                if not bundle:
                    import certifi

                    bundle = certifi.where()
                if not os.path.exists(bundle):
                    raise FileNotFoundError(
                        f"could not find a TLS CA certificate bundle, invalid path: {bundle}"
                    )
                pool_kw["ca_cert_dir" if os.path.isdir(bundle) else "ca_certs"] = bundle
            if proxy:
                user, password = _userinfo(urlsplit(proxy)) or ("", "")
                auth = {"Proxy-Authorization": _basic_auth(user, password)} if user else {}
                manager = urllib3.ProxyManager(proxy, proxy_headers=auth, **pool_kw)
            else:
                manager = urllib3.PoolManager(**pool_kw)
            self._pool = manager.connection_from_url(endpoint)
            target = urllib3.util.parse_url(endpoint)
        except (ValueError, OSError, urllib3.exceptions.HTTPError) as exc:
            raise ValidationError(f"remote endpoint {self.endpoint!r}: {exc}") from exc
        # The target is in absolute form only for an http endpoint behind a proxy.
        self._url = target.request_uri
        if proxy and parts.scheme == "http":
            self._url = f"http://{target.netloc}{self._url}"
        self._headers = headers
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
