"""Stand-in model server for the remote-latency workload.

Speaks chunkcheck's remote wire format (README "Backends"): a POST with
{"prompt": "<premise> Question: does this imply '<hypothesis>'? Yes or no?",
"target_tokens": ["Yes", "No"]} answered by {"logits": [yes, no]}. Each
answer waits a fixed service delay, and the logits are a deterministic,
continuous function of the prompt (``logits_for``), so ROC-AUC over its
scores means something. A fixed hashed share of prompts is answered once
with 503 and then served normally; that memory is cleared by POST /reset,
so every round sees the same retries. GET /stats (and POST /reset) return
request, 503 and in-flight counts, and how long at least one request was
in its service delay.

Run: python3 perfbench/standin.py  (delay and 503 share: workloads.py)
It prints the port it listens on (127.0.0.1) as its first line.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import socket
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from workloads import FAIL_SHARE, SERVICE_DELAY_MS

_PROMPT = re.compile(r"^(.*) Question: does this imply '(.*)'\? Yes or no\?$", re.DOTALL)
_WORD = re.compile(r"[a-z0-9']+")


def _hash_unit(text: str) -> float:
    """A stable value in [0, 1) derived from text."""
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


def logits_for(premise: str, hypothesis: str) -> tuple[float, float]:
    """Yes/no logits: word overlap of the hypothesis with the premise, spread
    by a hashed offset so that scores are continuous."""
    hyp = set(_WORD.findall(hypothesis.lower()))
    prem = set(_WORD.findall(premise.lower()))
    overlap = len(hyp & prem) / len(hyp) if hyp else 0.0
    jitter = _hash_unit(premise + "\x00" + hypothesis) - 0.5
    return (6.0 * (overlap - 0.6) + jitter, 0.0)


def fails_once(prompt: str) -> bool:
    return _hash_unit("503:" + prompt) < FAIL_SHARE


class _State:
    def __init__(self):
        self.lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        self.failed: set[str] = set()
        self.requests = 0
        self.errors_503 = 0
        self.inflight = 0
        self.inflight_area = 0.0  # integral of in-flight count over time
        self.sleeping = 0
        self.sleep_since = 0.0
        self.sleep_s = 0.0  # time during which at least one request was in its delay
        self.first = None
        self.last = None
        self.request_ms: list[float] = []

    def _advance(self, now: float, delta: int) -> None:
        if self.last is not None:
            self.inflight_area += self.inflight * (now - self.last)
        if self.first is None:
            self.first = now
        self.last = now
        self.inflight += delta

    def stats(self) -> dict:
        span = (self.last - self.first) if self.first is not None else 0.0
        return {
            "requests": self.requests,
            "errors_503": self.errors_503,
            "inflight_mean": self.inflight_area / span if span > 0 else 0.0,
            "request_ms": self.request_ms,
            "sleep_s": self.sleep_s,
        }


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"  # keep-alive, so the client reuses connections

    def setup(self):
        super().setup()
        # Without this, delayed ACK stalls each small response by ~40 ms.
        self.connection.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def log_message(self, *args):
        pass

    def _send(self, status: int, payload: dict) -> None:
        body = json.dumps(payload).encode("utf-8")
        head = (
            f"HTTP/1.1 {status} {self.responses[status][0]}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        ).encode("ascii")
        self.wfile.write(head + body)  # headers and body in one send

    @staticmethod
    def _delay(state: _State) -> None:
        with state.lock:
            if not state.sleeping:
                state.sleep_since = time.perf_counter()
            state.sleeping += 1
        time.sleep(SERVICE_DELAY_MS / 1000.0)
        with state.lock:
            state.sleeping -= 1
            if not state.sleeping:
                state.sleep_s += time.perf_counter() - state.sleep_since

    def do_GET(self):
        state = self.server.state
        if self.path == "/stats":
            with state.lock:
                self._send(200, state.stats())
        else:
            self._send(404, {"error": "not found"})

    def do_POST(self):
        state = self.server.state
        body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
        if self.path == "/reset":
            with state.lock:
                state.reset()
                self._send(200, state.stats())
            return
        t0 = time.perf_counter()
        with state.lock:
            state.requests += 1
            state._advance(t0, +1)
        try:
            prompt = json.loads(body)["prompt"]
            match = _PROMPT.match(prompt)
            if match is None:
                status, payload = 400, {"error": "prompt does not follow the template"}
            else:
                with state.lock:
                    first_time = prompt not in state.failed
                    retry_me = first_time and fails_once(prompt)
                    if retry_me:
                        state.failed.add(prompt)
                        state.errors_503 += 1
                if retry_me:
                    status, payload = 503, {"error": "busy, retry"}
                else:
                    self._delay(state)
                    status, payload = 200, {"logits": list(logits_for(*match.groups()))}
            self._send(status, payload)
        finally:
            t1 = time.perf_counter()
            with state.lock:
                state._advance(t1, -1)
                state.request_ms.append((t1 - t0) * 1000.0)


def main() -> int:
    server = ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
    server.daemon_threads = True
    server.state = _State()
    parent = os.getppid()

    def exit_with_parent():
        # Stop serving if the benchmark process dies without closing us.
        while os.getppid() == parent:
            time.sleep(0.5)
        server.shutdown()

    threading.Thread(target=exit_with_parent, daemon=True).start()
    print(server.server_address[1], flush=True)
    try:
        server.serve_forever(poll_interval=0.1)
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
