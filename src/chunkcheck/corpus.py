"""Data model and ingestion for source documents, claims, and annotations.

A document is an ordered list of atomic units: one sentence for prose, one
speaker turn for dialogue. A claim is a single generated sentence, already
split, to be verified against one document; it may carry a gold
consistency label and the set of source-unit indices annotated as relevant
evidence. Unknown fields of a record are kept on load and counted in the
corpus hash.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate
from json.encoder import encode_basestring
from pathlib import Path
from typing import NamedTuple

from .errors import CorpusError, ValidationError

# ---------------------------------------------------------------------------
# Token counting


class TokenCounter:
    """Counts tokens for chunk budgets.

    Implementations must be deterministic, count("") == 0, and at most one
    extra token may appear when two texts are joined with a separator.
    """

    name: str = "abstract"

    def count(self, text: str) -> int:
        raise NotImplementedError


class WhitespaceCounter(TokenCounter):
    """Zero-dependency approximation: one token per whitespace-separated word."""

    name = "whitespace"

    def count(self, text: str) -> int:
        return len(text.split())


def read_text_file(path: Path, what: str) -> str:
    """The text of a UTF-8 input file; a ValidationError naming ``what`` and
    the path when it cannot be read (a directory, say) or is not UTF-8."""
    try:
        return path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ValidationError(f"cannot read {what} {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise ValidationError(
            f"{what} {path} is not UTF-8 text ({exc.reason} at byte {exc.start})"
        ) from exc


class VocabCounter(TokenCounter):
    """Greedy longest-match subword counter over a plain-text vocabulary file.

    One piece per line; continuation pieces start with ``##``. A word that
    cannot be fully tokenized counts as a single unknown token. Matching is
    case-insensitive.
    """

    def __init__(self, vocab_path: str | Path):
        path = Path(vocab_path)
        text = read_text_file(path, "vocabulary file")
        pieces = [ln.strip() for ln in text.splitlines() if ln.strip()]
        if not pieces:
            raise ValidationError(f"empty vocabulary file: {path}")
        self._starts = frozenset(p for p in pieces if not p.startswith("##"))
        self._continuations = frozenset(p[2:] for p in pieces if p.startswith("##"))
        self._max_piece = max(len(p) for p in self._starts | self._continuations)
        self.name = f"vocab:{path.name}"

    def _word_tokens(self, word: str) -> int:
        n = 0
        i = 0
        table = self._starts
        while i < len(word):
            for j in range(min(len(word), i + self._max_piece), i, -1):
                if word[i:j] in table:
                    n += 1
                    i = j
                    table = self._continuations
                    break
            else:
                return 1  # untokenizable word counts as one unknown token
        return n

    def count(self, text: str) -> int:
        return sum(self._word_tokens(w) for w in text.lower().split())


# ---------------------------------------------------------------------------
# Domain types


class _UnitFields(NamedTuple):
    index: int
    text: str
    speaker: str | None
    extra: dict


class Unit(_UnitFields):
    """One atomic unit of a document: a sentence or a speaker turn. Immutable;
    each unit holds its own ``extra`` dict."""

    __slots__ = ()

    def __new__(cls, index, text, speaker=None, extra=None):
        return tuple.__new__(cls, (index, text, speaker, {} if extra is None else extra))

    def validate(self) -> None:
        if not self.text.strip():
            raise ValidationError(f"unit {self.index} has empty text")
        if self.index < 0:
            raise ValidationError(f"unit index must be >= 0, got {self.index}")


def format_unit(unit: Unit) -> str:
    """Render a unit as one premise line; speakers stay attached to their turns."""
    if unit.speaker:
        return f"{unit.speaker}: {unit.text}"
    return unit.text


@dataclass
class Document:
    id: str
    units: list[Unit]
    extra: dict = field(default_factory=dict)
    _token_cache: dict = field(default_factory=dict, repr=False, compare=False)
    _prefix_cache: dict = field(default_factory=dict, repr=False, compare=False)

    def validate(self) -> None:
        if not self.id:
            raise ValidationError("document id must be non-empty")
        if not self.units:
            raise ValidationError(f"document {self.id!r} has no units")
        for pos, unit in enumerate(self.units):
            if unit.index != pos or not unit.text.strip():
                unit.validate()  # raises for blank text or a negative index
                raise ValidationError(
                    f"document {self.id!r}: unit index {unit.index} at position {pos}"
                )

    @cached_property
    def _unit_lines(self) -> list[str]:
        """The formatted premise line of each unit (``format_unit``), computed once."""
        return [format_unit(u) for u in self.units]

    def unit_token_counts(self, counter: TokenCounter) -> list[int]:
        """Per-unit token counts of the formatted premise lines, cached per
        counter object: names do not tell counters apart (two vocabularies
        with one file name)."""
        cached = self._token_cache.get(counter)
        if cached is None:
            cached = [counter.count(line) for line in self._unit_lines]
            self._token_cache[counter] = cached
        return cached

    def _token_prefix_sums(self, counter: TokenCounter) -> list[int]:
        """``P`` with ``P[i]`` the tokens in units [0, i), cached per counter:
        units [a, b) hold ``P[b] - P[a]`` tokens."""
        cached = self._prefix_cache.get(counter)
        if cached is None:
            cached = list(accumulate(self.unit_token_counts(counter), initial=0))
            self._prefix_cache[counter] = cached
        return cached


@dataclass
class Claim:
    """One generated sentence to verify against its source document."""

    id: str
    doc_id: str
    text: str
    gold_label: bool | None = None
    relevant_units: frozenset[int] | None = None
    extra: dict = field(default_factory=dict)

    def validate(self, document: Document | None = None) -> None:
        if not self.id:
            raise ValidationError("claim id must be non-empty")
        if not self.text.strip():
            raise ValidationError(f"claim {self.id!r} has empty text")
        if document is not None and self.relevant_units:
            n = len(document.units)
            bad = sorted(i for i in self.relevant_units if i < 0 or i >= n)
            if bad:
                raise ValidationError(
                    f"claim {self.id!r}: relevant unit indices {bad} out of range "
                    f"for document {document.id!r} with {n} units"
                )


@dataclass
class Corpus:
    documents: list[Document]
    claims: list[Claim]

    def validate(self) -> None:
        seen = set()
        for doc in self.documents:
            doc.validate()
            if doc.id in seen:
                raise ValidationError(f"duplicate document id {doc.id!r}")
            seen.add(doc.id)
        seen = set()
        for claim in self.claims:
            if claim.id in seen:
                raise ValidationError(f"duplicate claim id {claim.id!r}")
            seen.add(claim.id)
            if claim.doc_id not in self._by_id:
                raise CorpusError(
                    f"claim {claim.id!r} references unknown document {claim.doc_id!r}"
                )
            claim.validate(self._by_id[claim.doc_id])

    @cached_property
    def _by_id(self) -> dict[str, Document]:
        return {doc.id: doc for doc in self.documents}

    def document(self, doc_id: str) -> Document:
        doc = self._by_id.get(doc_id)
        if doc is None:
            raise ValidationError(f"no document with id {doc_id!r}")
        return doc

    def grouped_texts(self) -> dict[str, list[Claim]]:
        """{doc_id: its claims}, documents and claims in file order."""
        groups: dict[str, list[Claim]] = {}
        for claim in self.claims:
            groups.setdefault(claim.doc_id, []).append(claim)
        return groups

    def content_hash(self) -> str:
        """sha256 over the canonical serialized corpus, ``{"claims":[…],
        "documents":[…]}`` in compact sorted-key JSON; stable across runs.
        The text is fed in pieces, a slice of claims or one document at a
        time, so no corpus-sized string is built. A string that cannot be
        written as UTF-8 (a lone surrogate) raises ValidationError naming its
        record."""
        h = hashlib.sha256(b'{"claims":[')
        for i in range(0, len(self.claims), _CLAIMS_PER_HASH):
            claims = self.claims[i:i + _CLAIMS_PER_HASH]
            text = _canonical([claim_to_record(c) for c in claims])[1:-1]
            try:
                h.update((text if i == 0 else "," + text).encode("utf-8"))
            except UnicodeEncodeError:
                bad = next(c for c in claims if _SURROGATE.search(_canonical(claim_to_record(c))))
                raise _not_utf8_record(f"claim {bad.id!r}") from None
        h.update(b'],"documents":[')
        for i, doc in enumerate(self.documents):
            text = _document_json(doc)
            try:
                h.update((text if i == 0 else "," + text).encode("utf-8"))
            except UnicodeEncodeError:
                raise _not_utf8_record(f"document {doc.id!r}") from None
        h.update(b"]}")
        return h.hexdigest()


# The records are fresh containers over loaded JSON values: they hold no cycle.
_canonical = json.JSONEncoder(sort_keys=True, separators=(",", ":"), ensure_ascii=False,
                              check_circular=False).encode
_CLAIMS_PER_HASH = 1024  # claim records built and encoded at a time
_SURROGATE = re.compile("[\ud800-\udfff]")  # the only code points UTF-8 cannot encode


def _document_json(doc: Document) -> str:
    """``_canonical(document_to_record(doc))``, built from the quoted strings
    of the units that have no extras when the document has none."""
    if doc.extra:
        return _canonical(document_to_record(doc))
    quote = encode_basestring
    units = ",".join(
        _canonical({"speaker": speaker, "text": text, **extra}) if extra
        else f'{{"speaker":{"null" if speaker is None else quote(speaker)},"text":{quote(text)}}}'
        for _, text, speaker, extra in doc.units
    )
    return f'{{"id":{quote(doc.id)},"units":[{units}]}}'


def _not_utf8_record(what: str) -> ValidationError:
    return ValidationError(
        f"{what} holds a string that cannot be written as UTF-8 (a lone surrogate, "
        "such as a \\ud800 escape)"
    )


# ---------------------------------------------------------------------------
# JSONL records (unknown fields are kept in ``extra``)

_UNIT_KEYS = frozenset({"speaker", "text"})
_DOC_KEYS = frozenset({"id", "units"})
_CLAIM_KEYS = frozenset({"id", "doc_id", "text", "label", "relevant_units"})
_CLAIM_REQUIRED = frozenset({"id", "doc_id", "text"})
_INT_ONLY = frozenset({int})


def _unit_from_record(rec: dict, pos: int) -> Unit:
    if isinstance(rec, dict):
        text, speaker = rec.get("text"), rec.get("speaker")
        if isinstance(text, str) and (speaker is None or isinstance(speaker, str)):
            extra = {} if rec.keys() <= _UNIT_KEYS else {
                k: v for k, v in rec.items() if k not in _UNIT_KEYS
            }
            return Unit(index=pos, text=text, speaker=speaker, extra=extra)
    raise ValidationError(
        f"unit {pos} must be an object with a string 'text' and a string or null "
        f"'speaker', got {rec!r:.60}"
    )


def document_from_record(rec: dict) -> Document:
    doc_id, units = rec["id"], rec["units"]
    if not isinstance(doc_id, str):
        raise ValidationError(f"document 'id' must be a string, got {doc_id!r:.40}")
    if not isinstance(units, list):
        raise ValidationError(f"document {doc_id!r} 'units' must be an array, got {units!r:.40}")
    extra = {} if rec.keys() <= _DOC_KEYS else {
        k: v for k, v in rec.items() if k not in _DOC_KEYS
    }
    # The common shape is built inline: only a string "text" and a string or null "speaker".
    built = [tuple.__new__(Unit, (pos, text, speaker, {}))
             if (type(u) is dict and type(text := u.get("text")) is str
                 and ((speaker := u.get("speaker")) is None or type(speaker) is str)
                 and len(u) == 1 + ("speaker" in u))
             else _unit_from_record(u, pos) for pos, u in enumerate(units)]
    return Document(id=doc_id, units=built, extra=extra)


def document_to_record(doc: Document) -> dict:
    return {
        "id": doc.id,
        "units": [{"speaker": u.speaker, "text": u.text, **u.extra} for u in doc.units],
        **doc.extra,
    }


def claim_from_record(rec: dict) -> Claim:
    claim_id, doc_id, text = rec["id"], rec["doc_id"], rec["text"]
    if not (isinstance(claim_id, str) and isinstance(doc_id, str) and isinstance(text, str)):
        key = next(k for k in ("id", "doc_id", "text") if not isinstance(rec[k], str))
        raise ValidationError(f"claim '{key}' must be a string, got {rec[key]!r:.40}")
    label, relevant = rec.get("label"), rec.get("relevant_units")
    if label is not None and not isinstance(label, bool):
        raise ValidationError(
            f"claim {claim_id!r} 'label' must be true, false or null, got {label!r:.40}"
        )
    if relevant is not None:
        # Element types, not isinstance: a JSON true is not unit 1.
        if not isinstance(relevant, list) or not {*map(type, relevant)} <= _INT_ONLY:
            raise ValidationError(
                f"claim {claim_id!r} 'relevant_units' must be null or an array of integers, "
                f"got {relevant!r:.40}"
            )
        relevant = frozenset(relevant)
    extra = {} if rec.keys() <= _CLAIM_KEYS else {
        k: v for k, v in rec.items() if k not in _CLAIM_KEYS
    }
    return Claim(id=claim_id, doc_id=doc_id, text=text, gold_label=label,
                 relevant_units=relevant, extra=extra)


def claim_to_record(claim: Claim) -> dict:
    return {
        "id": claim.id,
        "doc_id": claim.doc_id,
        "text": claim.text,
        "label": claim.gold_label,
        "relevant_units": None
        if claim.relevant_units is None
        else sorted(claim.relevant_units),
        **claim.extra,
    }


# A line decodes as json.loads decodes it: one value, with only JSON whitespace around it.
_JSON_SPACE = " \t\n\r"
_raw_decode = json.JSONDecoder().raw_decode
_BOM_MSG = "Unexpected UTF-8 BOM (decode using utf-8-sig)"


def _read_jsonl(path: str | Path, build, required: frozenset[str]):
    out = []
    path = Path(path)
    try:
        with path.open(encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                text = line.strip(_JSON_SPACE)
                if not text or text.isspace():
                    continue
                try:
                    rec, end = _raw_decode(text)
                    if end != len(text):
                        raise json.JSONDecodeError("Extra data", text, end)
                except (ValueError, RecursionError) as exc:
                    # json.loads rejects a leading byte-order mark before decoding.
                    # Only a JSONDecodeError has a msg: the others are nesting
                    # too deep and an integer over the digit limit.
                    msg = _BOM_MSG if line.startswith("\ufeff") else getattr(exc, "msg", str(exc))
                    raise CorpusError(
                        f"invalid JSON ({msg})", path=str(path), line=lineno
                    ) from exc
                if not isinstance(rec, dict):
                    raise CorpusError("record is not an object", path=str(path), line=lineno)
                if not required <= rec.keys():
                    raise CorpusError(
                        f"missing required fields {sorted(required - rec.keys())}",
                        path=str(path), line=lineno,
                    )
                try:
                    out.append(build(rec))
                except (TypeError, ValueError, ValidationError) as exc:
                    raise CorpusError(str(exc), path=str(path), line=lineno) from exc
    except FileNotFoundError as exc:
        raise CorpusError("file not found", path=str(path)) from exc
    except OSError as exc:
        raise CorpusError(f"cannot read file ({exc.strerror})", path=str(path)) from exc
    except UnicodeDecodeError as exc:
        raise _not_utf8(path) from exc
    return out


def _not_utf8(path: Path) -> CorpusError:
    """The error for a file that is not UTF-8, at the physical line of its
    first bad byte (the streaming decoder reports only an offset in a chunk)."""
    data = path.read_bytes()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        return CorpusError(f"not UTF-8 text ({exc.reason} at byte {exc.start})",
                           path=str(path), line=data.count(b"\n", 0, exc.start) + 1)
    return CorpusError("not UTF-8 text", path=str(path))


def read_documents_jsonl(path: str | Path) -> list[Document]:
    return _read_jsonl(path, document_from_record, _DOC_KEYS)


def read_claims_jsonl(path: str | Path) -> list[Claim]:
    return _read_jsonl(path, claim_from_record, _CLAIM_REQUIRED)


def load_corpus(documents_path: str | Path, claims_path: str | Path) -> Corpus:
    """Load and cross-validate a documents file plus a claims file.

    Raises CorpusError with the offending line number for malformed records,
    dangling doc_id references, or out-of-range relevant-unit indices.
    """
    corpus = Corpus(
        documents=read_documents_jsonl(documents_path),
        claims=read_claims_jsonl(claims_path),
    )
    corpus.validate()
    return corpus

