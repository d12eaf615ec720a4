"""The report writer streams, in batches, exactly the text of
``json.dumps(report, sort_keys=True, indent=2, ensure_ascii=False)`` plus a
newline, a dataclass written as its ``to_dict()`` or its fields; a write
that fails partway exits 3."""

import io
import json
import sys
from dataclasses import asdict, dataclass

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import chunkcheck.cli as cli
from chunkcheck.cli import _write_json, main
from chunkcheck.retrieval import TraceLevel

from helpers import write_probe_corpus


def _dumps(value) -> str:
    return json.dumps(value, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


class _Sink(io.StringIO):
    """A text stream that records the length of every write; with
    ``fail_at``, that write raises as a full disk would."""

    def __init__(self, fail_at: int | None = None):
        super().__init__()
        self.sizes: list[int] = []
        self.fail_at = fail_at

    def write(self, text):
        if len(self.sizes) == self.fail_at:
            raise OSError(28, "No space left on device")
        self.sizes.append(len(text))
        return super().write(text)


_EDGE_FLOATS = [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e16, 1e-7, 123456789.125,
                float("nan"), float("inf"), float("-inf")]
_EDGE_STRINGS = ['"', "\\", '\\"', "\x00\x1f\x7f", "\b\f\n\r\t", "é ü ß", "  ",
                 "中文", "😀", ""]
_JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(10**40), max_value=10**40),
    st.floats(),
    st.sampled_from(_EDGE_FLOATS),
    st.text(),
    st.sampled_from(_EDGE_STRINGS),
)
_KEYS = st.one_of(st.text(max_size=6), st.sampled_from(_EDGE_STRINGS))
_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(_KEYS, children, max_size=4),
    ),
    max_leaves=40,
)


@given(_VALUES)
@settings(max_examples=400, deadline=None)
@example({})
@example([])
@example(())
@example({"b": [], "a": {}, "c": ((1, 2), [3.5, None])})
@example([[[[{"x": [True, False, None]}]]]])
def test_writer_matches_json_dumps(value):
    sink = _Sink()
    _write_json(value, sink)
    assert sink.getvalue() == _dumps(value)


@dataclass
class _Fields:
    name: str
    values: tuple
    extra: object = None


@dataclass
class _View:
    """A dataclass whose ``to_dict`` reshapes its fields."""

    start: int
    end: int

    def to_dict(self) -> dict:
        return {"range": [self.start, self.end], "width": self.end - self.start}


def test_a_dataclass_is_written_as_its_to_dict_or_its_fields():
    plain = _Fields(name="é", values=(1.5, None, "x"), extra={"k": [True]})
    view = _View(2, 5)
    value = {"a": [plain, (view, {"b": plain})], "c": (view,), "d": plain, "e": view}
    want = {"a": [asdict(plain), [view.to_dict(), {"b": asdict(plain)}]],
            "c": [view.to_dict()], "d": asdict(plain), "e": view.to_dict()}
    sink = _Sink()
    _write_json(value, sink)
    assert sink.getvalue() == _dumps(want)
    sink = _Sink()
    _write_json([view, plain], sink)
    assert sink.getvalue() == _dumps([view.to_dict(), asdict(plain)])


@pytest.mark.parametrize("value", [
    {"a": {1, 2}}, [object()], b"bytes", [np.float64(0.5)], {"x": _Fields("s", (1,), {2})},
])
def test_a_value_json_cannot_write_raises_type_error(value):
    with pytest.raises(TypeError, match="is not JSON serializable"):
        _write_json(value, _Sink())


def test_a_trace_level_is_written_as_its_fields():
    level = TraceLevel(candidate_ranges=[(0, 2), (2, 5)], scores=[0.25, 0.5], chosen=1)
    sink = _Sink()
    _write_json({"trace": [level, level]}, sink)
    assert sink.getvalue() == _dumps({"trace": [vars(level), vars(level)]})


def _probe_args(tmp_path):
    docs, claims = write_probe_corpus(tmp_path, n_docs=20, units_per_doc=20, claims_per_doc=20)
    return ["retrieve", "--trace", "--documents", str(docs), "--claims", str(claims)]


def test_a_report_spanning_several_batches_is_written_whole(tmp_path, monkeypatch):
    """A traced retrieve report of 400 claims spans several batches on stdout,
    no write holds the whole report, and its bytes are those of json.dumps,
    the same as the report written to --out, ``meta`` aside."""
    args = _probe_args(tmp_path)
    sink = _Sink()
    monkeypatch.setattr(sys, "stdout", sink)
    assert main(args) == 0
    monkeypatch.undo()
    text = sink.getvalue()
    report = json.loads(text)
    assert len(report["results"]["retrievals"]) == 400
    assert len(sink.sizes) >= 3
    assert max(sink.sizes) < len(text) / 2
    assert text == _dumps(report)

    out = tmp_path / "report.json"
    assert main([*args, "--out", str(out)]) == 0
    written = json.loads(out.read_text(encoding="utf-8"))
    written["meta"] = report["meta"]
    assert _dumps(written) == text


def test_a_write_that_fails_partway_exits_three(tmp_path, monkeypatch, capsys):
    args = _probe_args(tmp_path)
    sink = _Sink(fail_at=1)
    monkeypatch.setattr(sys, "stdout", sink)
    code = main(args)
    monkeypatch.undo()
    assert code == 3
    assert len(sink.sizes) == 1  # the first batch went out; the second failed
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["type"] == "internal"
    assert "No space left on device" in err["message"]


def test_a_failed_out_write_leaves_a_partial_file(tmp_path, monkeypatch, capsys):
    out = tmp_path / "report.json"
    real_open = open

    def failing_open(*args, **kwargs):
        fh = real_open(*args, **kwargs)
        write, calls = fh.write, []

        def write_once(text):
            if calls:
                raise OSError(28, "No space left on device")
            calls.append(text)
            return write(text)

        fh.write = write_once
        return fh

    monkeypatch.setattr(cli, "open", failing_open, raising=False)
    assert main([*_probe_args(tmp_path), "--out", str(out)]) == 3
    assert json.loads(capsys.readouterr().err)["error"]["type"] == "internal"
    partial = out.read_text(encoding="utf-8")
    assert partial.startswith('{\n  "command": "retrieve",')
    assert not partial.endswith("}\n")
