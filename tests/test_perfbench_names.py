"""The names the benchmark harness in ``perfbench/`` wraps or imports stay
resolvable, so a rename in the package fails here, offline, and not only in
a traced benchmark run."""

import ast
import importlib
import sys
from pathlib import Path

import chunkcheck
import chunkcheck.scoring as scoring

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_traced_boundary_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    try:
        spans = importlib.import_module("spans")
        missing = [
            name for owner, attr, name, _keep in spans.BOUNDARIES if attr not in owner.__dict__
        ]
    finally:
        sys.modules.pop("spans", None)
    assert missing == []
    assert "ThreadPoolExecutor" in scoring.__dict__  # the tracer swaps in its pool here


def _imported_names(path: Path) -> set[tuple[str, str]]:
    """(module, name) for every ``from chunkcheck... import name`` in a file."""
    return {
        (node.module, alias.name)
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("chunkcheck")
        for alias in node.names
    }


def test_every_imported_name_resolves():
    imported = set().union(*(_imported_names(p) for p in PERFBENCH.glob("*.py")))
    assert {("chunkcheck.config", n) for n in (
        "resolve_config", "build_counter", "build_backend", "build_cache"
    )} <= imported
    for module, name in sorted(imported):
        assert hasattr(importlib.import_module(module), name), f"{module}.{name}"
    # layers.py calls these on the package itself
    assert callable(chunkcheck.retrieve)
    assert callable(chunkcheck.brute_force_retrieve)
    assert callable(chunkcheck.load_corpus)
