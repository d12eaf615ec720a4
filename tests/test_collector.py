"""Each command runs with CPython's cyclic collector paused, and its data
holds no reference cycles, so a successful command leaves the collector
nothing to find. ``main`` restores the caller's collector setting on every
exit. These tests assert counts only."""

import gc
import json
import re
import socket

import pytest

import chunkcheck.cli as cli
from chunkcheck.backends import RemoteBackend
from chunkcheck.cli import main
from chunkcheck.errors import BackendError
from chunkcheck.scoring import ScorerBackend

from test_backends_http import FixtureServer


def _fixture_args(fixture_dir):
    return ["--documents", str(fixture_dir / "documents.jsonl"),
            "--claims", str(fixture_dir / "claims.jsonl")]


def _commands(tmp_path):
    return [
        ["score", "--explain", "--dump-chunks"],
        ["retrieve", "--trace", "--brute-force", "--premise-cap", "40"],
        ["evaluate", "--retrieval-recall"],
        ["calibrate", "--budgets", "16,64,512", "--csv", str(tmp_path / "cal.csv"),
         "--curve-csv", str(tmp_path / "curve.csv")],
        ["bench", "--budgets", "16,64", "--csv", str(tmp_path / "bench.csv")],
    ]


def _closed_port_url() -> str:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
    return f"http://127.0.0.1:{port}/score"


@pytest.fixture()
def collector():
    """Restores the collector's setting after the test, once it has
    collected what the test left: an error exit may leave its exception's
    frames in cycles."""
    enabled = gc.isenabled()
    yield
    gc.collect()
    (gc.enable if enabled else gc.disable)()


def _assert_acyclic(argv):
    """With the collector disabled, ``main(argv)`` exits 0 and leaves no
    object in a reference cycle."""
    gc.disable()
    # Each of these leaves cycles, once per process: argparse's formatters,
    # importing numpy (a metric's first call does) and importing the HTTP
    # stack and the environment readers (building a RemoteBackend does).
    cli.build_parser()
    import numpy  # noqa: F401
    RemoteBackend(_closed_port_url())
    gc.collect()
    assert main(argv) == 0, argv
    assert gc.collect() == 0, argv


def test_overlap_commands_leave_no_cyclic_garbage(collector, fixture_dir, tmp_path):
    for command in _commands(tmp_path):
        _assert_acyclic([*command, *_fixture_args(fixture_dir),
                         "--out", str(tmp_path / "report.json")])


def test_unit_relevance_retrieve_leaves_no_cyclic_garbage(collector, fixture_dir, tmp_path):
    _assert_acyclic([
        "retrieve", "--trace", "--brute-force", "--premise-cap", "40",
        *_fixture_args(fixture_dir), "--backend", "unit-relevance",
        "--relevance-file", str(fixture_dir / "relevance.json"),
        "--out", str(tmp_path / "report.json"),
    ])


def test_remote_commands_with_retries_leave_no_cyclic_garbage(collector, fixture_dir, tmp_path):
    server = FixtureServer()
    try:
        server.transient_failures = 1
        server.rate_limited = 1
        for command in _commands(tmp_path):
            _assert_acyclic([*command, *_fixture_args(fixture_dir), "--backend", "remote",
                             "--endpoint", server.url, "--backoff", "0.001",
                             "--out", str(tmp_path / "report.json")])
        assert server.transient_failures == 0 and server.rate_limited == 0  # both were met
    finally:
        server.close()


def _attempts_on_closed_port() -> int:
    """The attempt count the closed port's error message gives."""
    backend = RemoteBackend(_closed_port_url(), timeout=2.0, max_retries=3,
                            backoff_base=0.001)
    try:
        backend.evaluate("a premise", "a hypothesis")
    except BackendError as exc:
        return int(re.search(r"unreachable after (\d+) attempts", str(exc))[1])
    return 0


def test_transport_errors_leave_no_cyclic_garbage(collector):
    gc.disable()
    gc.collect()
    assert _attempts_on_closed_port() == 4
    assert gc.collect() == 0


class _RecordingBackend(ScorerBackend):
    """Records whether the collector is enabled at each call."""

    name = "recording"

    def __init__(self):
        self.enabled = []

    def evaluate(self, premise, hypothesis):
        self.enabled.append(gc.isenabled())
        return 0.5


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize(
    ("extra", "code"),
    [
        ([], 0),
        (["--premise-cap", "3"], 1),
        (["--backend", "remote", "--retries", "0", "--timeout", "0.2"], 2),
        (["--out", "/dev/full"], 3),
    ],
    ids=["exit0", "exit1", "exit2", "exit3"],
)
def test_main_restores_the_collector_setting(collector, fixture_dir, tmp_path, capsys,
                                             enabled, extra, code):
    argv = ["score", *_fixture_args(fixture_dir), "--out", str(tmp_path / "report.json"),
            *extra]
    if "remote" in extra:
        argv += ["--endpoint", _closed_port_url()]
    (gc.enable if enabled else gc.disable)()
    assert main(argv) == code
    assert gc.isenabled() is enabled
    if code:
        assert json.loads(capsys.readouterr().err)["error"]


def test_usage_error_leaves_the_collector_setting(collector, capsys):
    for enabled in (True, False):
        (gc.enable if enabled else gc.disable)()
        assert main(["score"]) == 1
        assert gc.isenabled() is enabled


def test_the_backend_runs_with_the_collector_paused(collector, fixture_dir, tmp_path,
                                                     monkeypatch):
    backend = _RecordingBackend()
    monkeypatch.setattr(cli, "build_backend", lambda config, corpus: backend)
    gc.enable()
    assert main(["score", *_fixture_args(fixture_dir),
                 "--out", str(tmp_path / "report.json")]) == 0
    assert backend.enabled and not any(backend.enabled)
    assert gc.isenabled()
