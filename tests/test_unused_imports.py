"""No module of the package imports a name it never uses.

A stdlib stand-in for a linter's unused-import rule (F401): each module under
``src/chunkcheck`` is parsed with ``ast``, and every name an import binds must
be read somewhere in the module as a plain name (``json`` in ``json.dumps``
counts). ``from __future__`` imports, and import statements whose first line
carries ``# noqa: F401``, are skipped, as a linter would skip them.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).parents[1] / "src" / "chunkcheck"
MODULES = sorted(SRC.glob("*.py"))


def _unused_imports(source: str) -> list[tuple[int, str]]:
    tree = ast.parse(source)
    lines = source.splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if "# noqa: F401" in lines[node.lineno - 1]:
            continue
        for alias in node.names:
            # ``import a.b`` binds ``a``; ``import a.b as c`` and ``from a import b as c`` bind ``c``.
            bound = alias.asname or alias.name.split(".")[0]
            if bound not in used:
                unused.append((node.lineno, bound))
    return unused


def test_the_check_finds_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import json, os.path\n"
        "from .errors import ChunkcheckError, ScoringError as SE\n"
        "from .kept import name  # noqa: F401\n"
        "def f() -> SE:\n"
        "    return json.dumps(os.path.sep)\n"
    )
    assert _unused_imports(source) == [(3, "ChunkcheckError")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_import(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []
