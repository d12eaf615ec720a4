"""Bad input is a property: one change to one of the four inputs a command
reads (the documents, the claims, the relevance file or the config file)
exits 0 with a report or 1 with a validation error and no report, never 3.
A rejected label set costs no backend call. The cases written out one by
one, with their messages, are the rows of ``test_cli.BAD_INPUT``."""

import contextlib
import copy
import functools
import io
import json
import math
import operator
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chunkcheck.cli as cli
from chunkcheck.backends import LexicalOverlapBackend, UnitRelevanceBackend

from helpers import drawn_picks

FIXTURE = Path(__file__).resolve().parents[1] / "data" / "fixture"
# Each input as the values of its lines: one per record of a JSONL file, one
# for a JSON file.
INPUTS = {
    **{name: [json.loads(line) for line in (FIXTURE / name).read_text().splitlines()]
       for name in ("documents.jsonl", "claims.jsonl")},
    "relevance.json": [json.loads((FIXTURE / "relevance.json").read_text())],
    "config.json": [{"budget": 64, "k": 2, "aggregation": "min", "ece_bins": 10,
                     "decision_threshold": 0.5, "concurrency": 1, "premise_cap": None,
                     "timeout": 10.0, "retries": 3, "backoff": 0.25, "counter": "whitespace"}],
}
DELETE = "<deleted>"
DEEP = "<nested deeper than json decodes>"  # written as 100,000 nested arrays
CHANGES = [DELETE, "wrong type", math.nan, math.inf, -math.inf, 10**400, "\x00", "\ud800", DEEP]
WRONG_TYPES = ["x", 7, 0.5, True, None, [], {}]
COMMANDS = [["score"], ["retrieve"], ["evaluate"], ["calibrate", "--budgets", "16,64"],
            ["bench", "--budgets", "16,64"]]
BACKENDS = ["overlap", "unit-relevance"]
LABELS_REJECTED = ("claims have no gold label", "both classes must be present")


def _paths(value, path=()):
    """The path of every value inside ``value``, each before those inside it."""
    items = value.items() if isinstance(value, dict) else enumerate(value)
    for key, inner in items:
        yield path + (key,)
        if isinstance(inner, (list, dict)):
            yield from _paths(inner, path + (key,))


PATHS = {name: list(_paths(lines)) for name, lines in INPUTS.items()}


@st.composite
def _cases(draw):
    """(input, path, change, command, backend), every choice from one byte
    draw: the path is one place in the input's lines, the change deletes it
    or puts a value in."""
    name, place, change, wrong, command, backend = drawn_picks(draw, range(256), 6)
    name = list(INPUTS)[name % len(INPUTS)]
    change = CHANGES[change % len(CHANGES)]
    if change == "wrong type":
        change = WRONG_TYPES[wrong % len(WRONG_TYPES)]
    return (name, PATHS[name][place % len(PATHS[name])], change,
            COMMANDS[command % len(COMMANDS)], BACKENDS[backend % len(BACKENDS)])


def _text(name: str, path=(), change=None) -> str:
    """The input's file text, with ``change`` made at ``path``."""
    lines = copy.deepcopy(INPUTS[name])
    if path:
        *outer, key = path
        container = functools.reduce(operator.getitem, outer, lines)
        if change == DELETE:
            del container[key]
        else:
            container[key] = change
    text = "".join(json.dumps(line) + "\n" for line in lines)
    return text.replace(json.dumps(DEEP), "[" * 100_000 + "]" * 100_000)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("bad-input")


@given(_cases())
@settings(max_examples=200, deadline=None)
def test_one_bad_input_exits_zero_or_one(workdir, case):
    name, path, change, command, backend = case
    for each in INPUTS:
        text = _text(each, path, change) if each == name else _text(each)
        (workdir / each).write_text(text, encoding="utf-8")
    (workdir / "r.json").unlink(missing_ok=True)
    calls = []
    err = io.StringIO()
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stderr(err):
        mp.chdir(workdir)
        for cls in (LexicalOverlapBackend, UnitRelevanceBackend):
            mp.setattr(cls, "evaluate", lambda self, premise, hypothesis, evaluate=cls.evaluate:
                       calls.append(premise) or evaluate(self, premise, hypothesis))
        code = cli.main([*command, "--documents", "documents.jsonl", "--claims", "claims.jsonl",
                         "--relevance-file", "relevance.json", "--config", "config.json",
                         "--backend", backend, "--out", "r.json"])
    assert code in (0, 1), err.getvalue()
    if code == 0:
        json.loads((workdir / "r.json").read_text(encoding="utf-8"))
        return
    error = json.loads(err.getvalue())["error"]
    assert error["type"] == "validation"
    assert not (workdir / "r.json").exists()
    if any(part in error["message"] for part in LABELS_REJECTED):
        assert calls == []
