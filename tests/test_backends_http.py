"""RemoteBackend contract tests against a local scripted HTTP server."""

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest
import requests
import requests.sessions
import requests.utils
import urllib3

from chunkcheck.backends import RemoteBackend
from chunkcheck.cli import main
from chunkcheck.config import RunConfig, build_backend
from chunkcheck.errors import BackendError, ValidationError
from chunkcheck.scoring import score_batch, score_pair


class _Handler(BaseHTTPRequestHandler):
    server_version = "fixture/0"

    def log_message(self, *args):  # keep test output clean
        pass

    def setup(self):
        super().setup()
        with self.server.lock:
            self.server.connections += 1

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        body = json.loads(self.rfile.read(length)) if length else {}
        record = {
            "path": self.path,
            "prompt": body.get("prompt", ""),
            "target_tokens": body.get("target_tokens"),
            "headers": {k: v for k, v in self.headers.items()},
        }
        self.server.requests.append(record)
        status, payload, *extra = self.server.respond(record)
        data = payload if isinstance(payload, bytes) else json.dumps(payload).encode()
        self.send_response(status)
        for name, value in (extra[0] if extra else {}).items():
            self.send_header(name, value)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)


class _KeepAliveHandler(_Handler):
    protocol_version = "HTTP/1.1"


class FixtureServer:
    """Scripted responses: transient-failure and rate-limit budgets plus
    prompt-keyed rules. Counts accepted connections."""

    def __init__(self, handler=_Handler):
        self.httpd = ThreadingHTTPServer(("127.0.0.1", 0), handler)
        self.httpd.requests = []
        self.httpd.respond = self._respond
        self.httpd.lock = threading.Lock()
        self.httpd.connections = 0
        self.transient_failures = 0
        self.rate_limited = 0
        self.retry_after = None
        self.default = (200, {"logits": [2.0, 0.0]})
        # A short poll keeps shutdown() from waiting out the default 0.5 s.
        self.thread = threading.Thread(
            target=self.httpd.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True
        )
        self.thread.start()

    @property
    def url(self):
        host, port = self.httpd.server_address
        return f"http://{host}:{port}/score"

    @property
    def requests(self):
        return self.httpd.requests

    def _respond(self, record):
        prompt = record["prompt"]
        if "ALWAYS_FAIL" in prompt:
            return 500, {"error": "scripted permanent failure"}
        if "CLIENT_ERROR" in prompt:
            return 400, {"error": "scripted client error"}
        if "REDIRECT" in prompt:
            return 301, {"error": "moved"}, {"Location": self.url}
        if "BAD_JSON" in prompt:
            return 200, b"{not json"
        if "DIRECT_PROB" in prompt:
            return 200, {"probability": 0.42}
        if "NO_PAYLOAD" in prompt:
            return 200, {"something": "else"}
        if "INF_LOGITS" in prompt:
            return 200, b'{"logits": [1e999, 0]}'
        if "PROB_ABOVE_ONE" in prompt:
            return 200, {"probability": 1.5}
        if "PROB_NAN" in prompt:
            return 200, b'{"probability": NaN}'
        if "BODY:" in prompt:  # the response body is the prompt's text after the marker
            return 200, prompt.split("BODY:", 1)[1].split(" Question:", 1)[0].encode()
        if "ALWAYS_429" in prompt or self.rate_limited > 0:
            self.rate_limited -= 1
            headers = {} if self.retry_after is None else {"Retry-After": self.retry_after}
            return 429, {"error": "scripted rate limit"}, headers
        if self.transient_failures > 0:
            self.transient_failures -= 1
            return 503, {"error": "scripted transient failure"}
        return self.default

    def close(self):
        self.httpd.shutdown()
        self.httpd.server_close()


@pytest.fixture()
def server():
    srv = FixtureServer()
    yield srv
    srv.close()


def _backend(server, **kw):
    kw.setdefault("timeout", 2.0)
    kw.setdefault("max_retries", 2)
    kw.setdefault("backoff_base", 0.01)
    return RemoteBackend(server.url, **kw)


def test_logits_response_becomes_probability(server):
    backend = _backend(server)
    got = score_pair(backend, "a premise", "a hypothesis")
    assert abs(got - 0.8807970779778823) < 1e-12


def test_request_wire_format(server):
    backend = _backend(server)
    score_pair(backend, "the premise text", "the hypothesis")
    req = server.requests[-1]
    assert req["prompt"] == (
        "the premise text Question: does this imply 'the hypothesis'? Yes or no?"
    )
    assert req["target_tokens"] == ["Yes", "No"]


def test_direct_probability_response(server):
    backend = _backend(server)
    got = score_pair(backend, "p DIRECT_PROB", "h")
    assert got == 0.42


def test_transient_failure_is_retried_with_backoff(server):
    server.transient_failures = 1
    backend = _backend(server, backoff_base=0.05)
    t0 = time.perf_counter()
    got = score_pair(backend, "needs a retry", "h")
    elapsed = time.perf_counter() - t0
    assert abs(got - 0.8807970779778823) < 1e-12
    assert len(server.requests) == 2
    assert elapsed >= 0.05  # waited at least one backoff interval


def test_persistent_failure_reports_attempts_and_endpoint(server):
    backend = _backend(server, max_retries=2)
    with pytest.raises(BackendError) as err:
        score_pair(backend, "p ALWAYS_FAIL", "h")
    assert err.value.attempts == 3  # initial try + 2 retries
    assert server.url in str(err.value)
    assert len(server.requests) == 3


def test_client_error_is_not_retried(server):
    backend = _backend(server)
    with pytest.raises(BackendError):
        score_pair(backend, "p CLIENT_ERROR", "h")
    assert len(server.requests) == 1


def test_redirect_is_fatal_and_not_followed(server):
    backend = _backend(server)
    with pytest.raises(BackendError, match="answered HTTP 301") as err:
        score_pair(backend, "p REDIRECT", "h")
    assert err.value.attempts == 1
    assert len(server.requests) == 1


def test_malformed_json_is_fatal(server):
    backend = _backend(server)
    with pytest.raises(BackendError, match="invalid JSON"):
        score_pair(backend, "p BAD_JSON", "h")


def test_missing_payload_is_fatal(server):
    backend = _backend(server)
    with pytest.raises(BackendError, match="logits"):
        score_pair(backend, "p NO_PAYLOAD", "h")


@pytest.mark.parametrize(
    "body",
    [
        '{"probability": "0.7"}',
        '{"probability": true}',
        '{"probability": null}',
        '{"logits": ["2", "0"]}',
        '{"logits": [null, 0]}',
        '{"logits": [true, false]}',
    ],
)
def test_non_numeric_values_are_fatal(server, body):
    backend = _backend(server)
    with pytest.raises(BackendError, match="numeric") as err:
        score_pair(backend, f"p BODY:{body}", "h")
    assert err.value.attempts == 1
    assert err.value.endpoint == server.url


def test_integer_values_are_numbers(server):
    backend = _backend(server)
    assert score_pair(backend, 'p BODY:{"probability": 1}', "h") == 1.0
    assert abs(score_pair(backend, 'p BODY:{"logits": [2, 0]}', "h") - 0.8807970779778823) < 1e-12


def test_unreachable_endpoint(tmp_path):
    backend = RemoteBackend(
        "http://127.0.0.1:1/score", timeout=0.2, max_retries=1, backoff_base=0.01
    )
    with pytest.raises(BackendError) as err:
        score_pair(backend, "p", "h")
    assert err.value.attempts == 2
    assert "127.0.0.1:1" in str(err.value)


def test_batch_items_fail_independently(server):
    backend = _backend(server)
    pairs = [("fine one", "h"), ("p ALWAYS_FAIL", "h"), ("fine two", "h")]
    out = score_batch(backend, pairs)
    assert out.scores[1] is None
    assert [f.index for f in out.failures] == [1]
    assert abs(out.scores[0] - 0.8807970779778823) < 1e-12
    assert abs(out.scores[2] - 0.8807970779778823) < 1e-12


@pytest.mark.parametrize(
    "marker, error",
    [
        ("INF_LOGITS", "ValidationError: logits must be finite, got (inf, 0.0)"),
        ("PROB_ABOVE_ONE", "BackendError: backend 'remote:{url}' returned probability 1.5"),
        ("PROB_NAN", "BackendError: backend 'remote:{url}' returned probability nan"),
        # integers too large for a float are infinite, as 1e999 is
        (f'BODY:{{"logits": [{10**400}, 0]}}',
         "ValidationError: logits must be finite, got (inf, 0.0)"),
        (f'BODY:{{"probability": {-10**400}}}',
         "BackendError: backend 'remote:{url}' returned probability -inf"),
    ],
    ids=["infinite-logits", "probability-above-one", "nan-probability", "huge-int-logits",
         "huge-int-probability"],
)
def test_batch_isolates_bad_probability_bodies(server, marker, error):
    backend = _backend(server)
    pairs = [("fine one", "h"), (f"p {marker}", "h"), ("fine two", "h")]
    out = score_batch(backend, pairs)
    assert out.scores[1] is None
    assert [(f.index, f.error) for f in out.failures] == [(1, error.format(url=server.url))]
    assert abs(out.scores[0] - 0.8807970779778823) < 1e-12
    assert abs(out.scores[2] - 0.8807970779778823) < 1e-12


def test_auth_header_forwarded(server):
    backend = _backend(server, auth_header="Authorization: Bearer sekrit")
    score_pair(backend, "p", "h")
    assert server.requests[-1]["headers"].get("Authorization") == "Bearer sekrit"


def test_concurrent_batch_matches_sequential(server):
    backend = _backend(server)
    pairs = [(f"premise {i}", "h") for i in range(12)]
    seq = score_batch(backend, pairs, max_workers=1)
    par = score_batch(backend, pairs, max_workers=4)
    assert seq.scores == par.scores


def test_rate_limit_is_retried_after_retry_after(server):
    server.rate_limited, server.retry_after = 1, "0.2"
    backend = _backend(server, backoff_base=0.01)
    t0 = time.perf_counter()
    got = score_pair(backend, "rate limited once", "h")
    elapsed = time.perf_counter() - t0
    assert abs(got - 0.8807970779778823) < 1e-12
    assert len(server.requests) == 2  # attempts == 2
    assert elapsed >= 0.2  # slept for Retry-After, not the 0.01 s backoff


@pytest.mark.parametrize("retry_after", [None, "Wed, 21 Oct 2015 07:28:00 GMT"])
def test_persistent_rate_limit_fails_after_retries(server, retry_after):
    server.retry_after = retry_after  # absent or a date: the usual backoff
    backend = _backend(server, max_retries=2, backoff_base=0.01)
    t0 = time.perf_counter()
    with pytest.raises(BackendError) as err:
        score_pair(backend, "p ALWAYS_429", "h")
    assert err.value.attempts == 3
    assert "429" in str(err.value)
    assert len(server.requests) == 3
    assert time.perf_counter() - t0 < 1.0


def test_environment_is_not_read_per_call(server, monkeypatch):
    backend = _backend(server)
    lookups = []
    for module in (requests.utils, requests.sessions):
        for name in ("get_environ_proxies", "get_netrc_auth"):
            orig = getattr(module, name)

            def counted(*args, _orig=orig, _name=name, **kwargs):
                lookups.append(_name)
                return _orig(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
    score_batch(backend, [(f"premise {i}", "h") for i in range(4)], max_workers=2)
    assert len(server.requests) == 4
    assert lookups == []


def _per_request_settings(url):
    return requests.Session().merge_environment_settings(url, {}, None, None, None)


def test_environment_settings_match_per_request_resolution(server, monkeypatch, tmp_path):
    for var in ("HTTP_PROXY", "HTTPS_PROXY", "ALL_PROXY", "NO_PROXY",
                "http_proxy", "https_proxy", "all_proxy", "no_proxy"):
        monkeypatch.delenv(var, raising=False)
    monkeypatch.setenv("HTTP_PROXY", "http://proxy.invalid:3128")
    monkeypatch.setenv("NO_PROXY", "127.0.0.1")
    monkeypatch.setenv("REQUESTS_CA_BUNDLE", str(tmp_path / "bundle.pem"))
    netrc = tmp_path / "netrc"
    netrc.write_text("machine 127.0.0.1 login user password secret\n")
    monkeypatch.setenv("NETRC", str(netrc))
    for url in (server.url, "http://example.invalid/score"):
        session = RemoteBackend(url)._session
        want = _per_request_settings(url)
        assert session.proxies == want["proxies"]
        assert session.verify == want["verify"] == str(tmp_path / "bundle.pem")
        assert session.auth == requests.utils.get_netrc_auth(url)
    assert RemoteBackend(server.url)._session.proxies.get("http") is None  # NO_PROXY
    assert RemoteBackend("http://example.invalid/s")._session.proxies["http"] == (
        "http://proxy.invalid:3128"
    )
    score_pair(_backend(server), "p", "h")  # bypasses the proxy, sends netrc credentials
    assert server.requests[-1]["headers"]["Authorization"].startswith("Basic ")


def test_pool_holds_every_concurrent_connection(caplog):
    srv = FixtureServer(_KeepAliveHandler)
    try:
        backend = build_backend(RunConfig(backend="remote", endpoint=srv.url, concurrency=16))
        for batch in range(3):
            pairs = [(f"premise {batch} {i}", "h") for i in range(64)]
            assert score_batch(backend, pairs, max_workers=16).ok
        backend._session.close()
        assert len(srv.requests) == 3 * 64
        assert srv.httpd.connections <= 16
        assert not [r for r in caplog.records if "pool is full" in r.getMessage()]
    finally:
        srv.close()


def test_evaluate_bypasses_the_session_layer(server, monkeypatch):
    backend = _backend(server)
    calls = []
    for name in ("request", "prepare_request", "send"):
        orig = getattr(requests.Session, name)

        def counted(*args, _orig=orig, _name=name, **kwargs):
            calls.append(_name)
            return _orig(*args, **kwargs)

        monkeypatch.setattr(requests.Session, name, counted)
    out = score_batch(backend, [(f"premise {i}", "h") for i in range(4)], max_workers=2)
    assert out.ok
    assert len(server.requests) == 4
    assert calls == []


_PROXY_VARS = ("HTTP_PROXY", "HTTPS_PROXY", "ALL_PROXY", "NO_PROXY",
               "http_proxy", "https_proxy", "all_proxy", "no_proxy")


def test_http_proxy_receives_absolute_form_target(server, monkeypatch):
    for var in _PROXY_VARS:
        monkeypatch.delenv(var, raising=False)
    host, port = server.httpd.server_address
    monkeypatch.setenv("HTTP_PROXY", f"http://{host}:{port}")
    backend = RemoteBackend("http://model.invalid:8080/v1/score?x=1", timeout=2.0, max_retries=0)
    assert abs(score_pair(backend, "p", "h") - 0.8807970779778823) < 1e-12
    assert len(server.requests) == 1
    assert server.requests[0]["path"] == "http://model.invalid:8080/v1/score?x=1"
    assert server.requests[0]["headers"]["Host"] == "model.invalid:8080"


def test_missing_ca_bundle_is_a_validation_error(monkeypatch, tmp_path):
    missing = tmp_path / "absent.pem"
    monkeypatch.setenv("REQUESTS_CA_BUNDLE", str(missing))
    with pytest.raises(ValidationError, match="CA certificate bundle"):
        RemoteBackend("https://model.invalid/score")


@pytest.mark.parametrize("endpoint", ["not a url", "ftp://x", "http://"])
def test_malformed_endpoint_exits_one_before_any_request(
    fixture_dir, tmp_path, monkeypatch, capsys, endpoint
):
    opened = []
    orig = urllib3.connectionpool.HTTPConnectionPool.urlopen

    def counted(*args, **kwargs):
        opened.append(args)
        return orig(*args, **kwargs)

    monkeypatch.setattr(urllib3.connectionpool.HTTPConnectionPool, "urlopen", counted)
    code = main([
        "score", "--documents", str(fixture_dir / "documents.jsonl"),
        "--claims", str(fixture_dir / "claims.jsonl"), "--backend", "remote",
        "--endpoint", endpoint, "--out", str(tmp_path / "r.json"),
    ])
    assert code == 1
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["type"] == "validation"
    assert repr(endpoint) in err["message"]
    assert opened == []
