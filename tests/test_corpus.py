import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chunkcheck.config import RunConfig, build_counter
from chunkcheck.corpus import (
    _CLAIMS_PER_HASH,
    Claim,
    Corpus,
    Document,
    Unit,
    VocabCounter,
    WhitespaceCounter,
    claim_from_record,
    claim_to_record,
    document_from_record,
    document_to_record,
    load_corpus,
    read_claims_jsonl,
)
from chunkcheck.errors import CorpusError, ValidationError
from helpers import drawn_ints, write_corpus_jsonl
from oracles import content_hash_reference, load_corpus_reference

# ---------------------------------------------------------------------------
# Loading and validation


def test_minimal_corpus_loads(tmp_path):
    docs = tmp_path / "docs.jsonl"
    claims = tmp_path / "claims.jsonl"
    units = [{"speaker": None, "text": f"sentence {i} here."} for i in range(4)]
    docs.write_text(json.dumps({"id": "d1", "units": units}) + "\n")
    claims.write_text(
        json.dumps(
            {"id": "a", "doc_id": "d1", "text": "sentence one.", "label": True,
             "relevant_units": [1, 3]}
        )
        + "\n"
        + json.dumps({"id": "b", "doc_id": "d1", "text": "another.", "label": None,
                      "relevant_units": None})
        + "\n"
    )
    corpus = load_corpus(docs, claims)
    assert len(corpus.documents) == 1
    assert len(corpus.claims) == 2
    assert corpus.claims[0].relevant_units == frozenset({1, 3})
    assert corpus.claims[0].gold_label is True
    assert corpus.claims[1].gold_label is None


def test_dangling_doc_id_names_the_claim(tmp_path, fixture_dir):
    claims = tmp_path / "claims.jsonl"
    claims.write_text(
        json.dumps({"id": "orphan", "doc_id": "missing", "text": "x."}) + "\n"
    )
    with pytest.raises(CorpusError, match="orphan"):
        load_corpus(fixture_dir / "documents.jsonl", claims)


def test_relevant_unit_out_of_range(tmp_path, fixture_dir):
    claims = tmp_path / "claims.jsonl"
    claims.write_text(
        json.dumps(
            {"id": "c", "doc_id": "reef-survey", "text": "x.", "relevant_units": [99]}
        )
        + "\n"
    )
    with pytest.raises(ValidationError, match="99"):
        load_corpus(fixture_dir / "documents.jsonl", claims)


def test_malformed_line_reports_line_number(tmp_path):
    bad = tmp_path / "claims.jsonl"
    bad.write_text('{"id": "ok", "doc_id": "d", "text": "t"}\n{not json}\n')
    with pytest.raises(CorpusError) as err:
        read_claims_jsonl(bad)
    assert str(err.value).startswith(f"{bad}:2: ")


def test_missing_field_reports_line(tmp_path):
    bad = tmp_path / "claims.jsonl"
    bad.write_text('{"id": "x", "text": "no doc id"}\n')
    with pytest.raises(CorpusError, match="doc_id"):
        read_claims_jsonl(bad)


def test_document_invariants():
    for units, message in [([], "document 'd' has no units"),
                           ([Unit("x"), Unit("   ")], "document 'd': unit 1 has empty text")]:
        with pytest.raises(ValidationError, match=f"^{message}$"):
            Corpus(documents=[Document(id="d", units=units)], claims=[]).validate()


def test_duplicate_document_id_rejected():
    d1 = Document(id="d", units=[Unit(text="a")])
    d2 = Document(id="d", units=[Unit(text="b")])
    with pytest.raises(ValidationError, match="duplicate"):
        Corpus(documents=[d1, d2], claims=[]).validate()


def test_duplicate_claim_id_rejected():
    docs = [Document(id=d, units=[Unit(text="a")]) for d in ("d1", "d2")]
    claims = [Claim(id="c", doc_id="d1", text="x"), Claim(id="c", doc_id="d2", text="y")]
    with pytest.raises(ValidationError, match="duplicate claim id 'c'"):
        Corpus(documents=docs, claims=claims).validate()


# ---------------------------------------------------------------------------
# Fixture statistics (hand counts)


def test_fixture_stats_match_hand_counts(fixture_corpus, whitespace_counter):
    docs = fixture_corpus.documents
    assert len(docs) == 3
    assert len(fixture_corpus.claims) == 13
    assert [len(d.units) for d in docs] == [8, 6, 10]
    # hand-counted whitespace tokens of the formatted lines
    assert [sum(d.unit_token_counts(whitespace_counter)) for d in docs] == [69, 45, 85]


def test_stats_on_large_synthetic_dialogue_corpus(tmp_path):
    # 52 dialogues averaging 309 utterances each, 12 claims per dialogue.
    docs = []
    claims = []
    for d in range(52):
        n_units = 309 + (1 if d % 2 == 0 else -1)  # alternate 310/308: mean 309
        units = [
            {"speaker": f"S{u % 3}", "text": f"doc {d} turn {u} filler words"}
            for u in range(n_units)
        ]
        docs.append({"id": f"dlg{d}", "units": units})
        for c in range(12):
            claims.append(
                {"id": f"dlg{d}-c{c}", "doc_id": f"dlg{d}", "text": f"claim {c} about doc {d}",
                 "label": c % 3 != 0}
            )
    docs_path = tmp_path / "docs.jsonl"
    claims_path = tmp_path / "claims.jsonl"
    docs_path.write_text("".join(json.dumps(r) + "\n" for r in docs))
    claims_path.write_text("".join(json.dumps(r) + "\n" for r in claims))

    corpus = load_corpus(docs_path, claims_path)
    assert len(corpus.documents) == 52
    assert len(corpus.claims) == 624
    assert sum(len(d.units) for d in corpus.documents) == 52 * 309


# ---------------------------------------------------------------------------
# Round-trip serialization

_EXTRA_VALUES = st.recursive(
    st.one_of(st.integers(-1000, 1000), st.booleans(), st.none(), st.text(max_size=8),
              st.floats(allow_nan=False, allow_infinity=False)),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=5,
)
_EXTRA = st.dictionaries(
    st.text(alphabet="abcdefgh_", min_size=1, max_size=6).filter(
        lambda k: k not in {"id", "doc_id", "text", "label", "relevant_units",
                            "speaker", "units"}
    ),
    _EXTRA_VALUES,
    max_size=3,
)
_TEXT = st.text(min_size=1, max_size=30).filter(lambda s: bool(s.strip()))


@st.composite
def corpora(draw):
    n_docs = draw(st.integers(1, 4))
    documents = []
    for d in range(n_docs):
        n_units = draw(st.integers(1, 6))
        units = [
            Unit(
                text=draw(_TEXT),
                speaker=draw(st.one_of(st.none(),
                                       st.sampled_from(["A", "B", "Cee", "Zoë", "話者", ""]))),
                extra=draw(_EXTRA),
            )
            for _ in range(n_units)
        ]
        documents.append(Document(id=f"doc{d}", units=units, extra=draw(_EXTRA)))
    claims = []
    for c in range(draw(st.integers(0, 6))):
        doc = documents[draw(st.integers(0, n_docs - 1))]
        relevant = draw(
            st.one_of(
                st.none(),
                st.sets(st.integers(0, len(doc.units) - 1), min_size=1).map(frozenset),
            )
        )
        claims.append(
            Claim(
                id=f"claim{c}",
                doc_id=doc.id,
                text=draw(_TEXT),
                gold_label=draw(st.one_of(st.none(), st.booleans())),
                relevant_units=relevant,
                extra=draw(_EXTRA),
            )
        )
    return Corpus(documents=documents, claims=claims)


@given(corpora())
@settings(max_examples=60, deadline=None)
def test_round_trip_is_lossless(tmp_path_factory, corpus):
    tmp = tmp_path_factory.mktemp("rt")
    docs_path = tmp / "docs.jsonl"
    claims_path = tmp / "claims.jsonl"
    write_corpus_jsonl(corpus, docs_path, claims_path)
    loaded = load_corpus(docs_path, claims_path)
    assert loaded.documents == corpus.documents
    assert loaded.claims == corpus.claims
    assert loaded.content_hash() == corpus.content_hash()


@given(corpora())
@settings(max_examples=150, deadline=None)
def test_content_hash_matches_the_one_shot_reference(corpus):
    """Hashed record by record, the corpus keeps the digest of one canonical
    ``json.dumps`` over every record: extras on units, documents and claims,
    non-ASCII text, null and string speakers."""
    assert corpus.content_hash() == content_hash_reference(corpus)


def test_content_hash_across_claim_slices():
    """Claims are encoded a slice at a time: runs that end on, just after and
    well past a slice boundary keep the one-shot digest."""
    doc = Document(id="d", units=[Unit(text="Der Fährmann wartet.", speaker=None)])
    for n in (_CLAIMS_PER_HASH, _CLAIMS_PER_HASH + 1, 2 * _CLAIMS_PER_HASH + 7):
        claims = [Claim(id=f"c{i}", doc_id="d", text=f"Claim {i} — ok.",
                        gold_label=bool(i % 2) if i % 3 else None,
                        extra={"n": i} if i % 5 == 0 else {}) for i in range(n)]
        corpus = Corpus(documents=[doc], claims=claims)
        assert corpus.content_hash() == content_hash_reference(corpus)


def test_unknown_fields_survive_record_round_trip():
    rec = {"id": "c", "doc_id": "d", "text": "t", "label": True,
           "relevant_units": [2, 0], "annotator": "w7", "round": 3}
    back = claim_to_record(claim_from_record(rec))
    assert back["annotator"] == "w7"
    assert back["round"] == 3
    assert back["relevant_units"] == [0, 2]

    doc_rec = {"id": "d", "units": [{"speaker": None, "text": "x", "scene": 4}],
               "show": "harbor"}
    back_doc = document_to_record(document_from_record(doc_rec))
    assert back_doc["show"] == "harbor"
    assert back_doc["units"][0]["scene"] == 4



def test_content_hash_is_pinned(tmp_path):
    """Unknown fields at every level, a unit without speaker, a claim without
    label and unsorted duplicate relevant units: the hash keeps its value."""
    docs = [
        {"id": "d1", "source": "wiki", "units": [
            {"speaker": "Mara", "text": "The ferry docked at noon.", "turn": 1},
            {"text": "Rain fell on the pier — café closed."},
            {"speaker": None, "text": "Everyone went home.", "tags": ["x", {"k": 2}]},
        ]},
        {"id": "d2", "units": [{"text": "Only one unit."}]},
    ]
    claims = [
        {"id": "c1", "doc_id": "d1", "text": "A ferry arrived.", "label": True,
         "relevant_units": [2, 0, 2], "model": "m1"},
        {"id": "c2", "doc_id": "d2", "text": "One unit only."},
        {"id": "c3", "doc_id": "d1", "text": "It rained.", "label": False,
         "relevant_units": None},
    ]
    paths = tmp_path / "docs.jsonl", tmp_path / "claims.jsonl"
    for path, records in zip(paths, (docs, claims)):
        path.write_text("".join(json.dumps(r, ensure_ascii=False) + "\n" for r in records),
                        encoding="utf-8")
    assert load_corpus(*paths).content_hash() == (
        "27511f434b6067f8b8ee9a0cd89b578ce822db8a77077ee5f060c43d3b51b64d"
    )


def test_loaded_records_share_one_read_only_empty_extra():
    """Records without unknown fields share one empty ``extra``; a record
    with them gets its own. No record's ``extra`` can be written."""
    doc = document_from_record(
        {"id": "d", "units": [{"text": "a"}, {"text": "b"}, {"text": "c", "scene": 2}]}
    )
    claims = [claim_from_record({"id": c, "doc_id": "d", "text": "t"}) for c in "ab"]
    claims.append(claim_from_record({"id": "c", "doc_id": "d", "text": "t", "model": "m"}))
    empty = [doc.extra, *(u.extra for u in doc.units[:2]), *(c.extra for c in claims[:2])]
    assert empty == [{}] * 5
    assert len({id(e) for e in empty}) == 1
    assert (doc.units[2].extra, claims[2].extra) == ({"scene": 2}, {"model": "m"})
    for extra in (*empty, doc.units[2].extra, claims[2].extra):
        with pytest.raises(TypeError):
            extra["k"] = 1


def test_unit_is_an_immutable_record():
    assert Unit._fields == ("text", "speaker", "extra")
    unit = Unit(text="a")
    assert unit == Unit("a", None, {}) == Unit(text="a", speaker=None, extra={})
    assert unit != Unit(text="a", speaker="S")
    assert unit != Unit(text="a", extra={"k": 1})
    assert (unit.text, unit.speaker, unit.extra) == ("a", None, {})
    assert unit.extra is Unit(text="b").extra
    for extra in (unit.extra, Unit(text="a", extra={"k": 1}).extra):
        with pytest.raises(TypeError):
            extra["k"] = 2
    for name in Unit._fields:
        with pytest.raises(AttributeError):
            setattr(unit, name, None)


# Lines as a writer might leave them: JSON whitespace around a record is
# allowed; a no-break space or a byte-order mark before it, or anything after
# it, is an error; lines of only whitespace (Unicode's included) are skipped.
_SPACE_AROUND = ["", "", " ", "\t", "  \t ", "\r"]
_BEFORE = _SPACE_AROUND + ["\u00a0", "\ufeff", " \ufeff"]
_AFTER = _SPACE_AROUND + [" x", "{}", " 1", "\u00a0", "\x85"]
_BLANK = ["", " ", "\t", "\r", " \u00a0 ", "\u2003", "\x1c", "\x85"]
_GOOD_TEXTS = ["alpha beta", "Mara said so.", "café\tau lait", "x", " padded ", "a\u2028b"]
_TEXTS = _GOOD_TEXTS + ["", " ", "\t\u00a0"]
_SPEAKERS = [None, "A", "Bee", ""]


def _bad(pick, valid):
    """Whether to break this record: never in a valid corpus, one time in four otherwise."""
    return not valid and pick(range(4)) == 0


def _unit_record(pick, valid):
    text, speaker = pick(_GOOD_TEXTS if valid else _TEXTS), pick(_SPEAKERS)
    if _bad(pick, valid):
        return pick([
            {"speaker": speaker, "text": None}, {"text": 3}, {"text": ["x"]}, {"speaker": "A"},
            {"text": text, "speaker": 1}, {"text": text, "speaker": True},
            {"text": text, "speaker": ["A"]}, "text", 3, None, ["x"], True,
        ])
    kind = pick(range(5))
    if kind == 0:  # the common shape without a speaker key
        return {"text": text}
    if kind == 1:  # extra keys
        return {"text": text, "speaker": speaker, pick(["scene", "text "]): 4}
    return {"speaker": speaker, "text": text}


def _document_record(pick, pos, valid):
    rec = {"id": f"d{pos}" if valid else pick(["d0", "d1", "d2"]),
           "units": [_unit_record(pick, valid) for _ in range(pick(range(1, 6)))]}
    if pick((True, False)):
        rec["genre"] = "dialogue"
    if _bad(pick, valid):
        key, value = pick([("id", ""), ("id", 7), ("units", None), ("units", {"text": "x"}),
                           ("units", [])])
        rec[key] = value
    return rec


def _claim_record(pick, pos, docs, valid):
    doc = pick(docs)
    n_units = len(doc["units"]) if isinstance(doc["units"], list) else 1
    rec = {"id": f"c{pos}" if valid else pick(["c0", "c1", "c2"]),
           "doc_id": doc["id"], "text": pick(_GOOD_TEXTS)}
    if pick((True, False)):
        rec["label"] = pick([True, False, None])
    if pick((True, False)):
        rec["relevant_units"] = pick([None, sorted({pick(range(max(n_units, 1))), 0})])
    if pick((True, False)):
        rec["model"] = "m1"
    if _bad(pick, valid):
        key, value = pick([
            ("doc_id", "nowhere"), ("id", 4), ("text", " "), ("label", "yes"),
            ("relevant_units", [n_units]), ("relevant_units", [True]), ("doc_id", None)])
        rec[key] = value
    return rec


def _jsonl(pick, records, valid):
    """One line per record, some framed by whitespace (or, when not valid,
    by junk), with blank lines in between."""
    lines = []
    for rec in records:
        if pick(range(5)) == 0:
            lines.append(pick(_BLANK))
        body = json.dumps(rec, ensure_ascii=pick((True, False)))
        if pick(range(3)) == 0:
            around = _SPACE_AROUND if not _bad(pick, valid) else None
            body = pick(around or _BEFORE) + body + pick(around or _AFTER)
        lines.append(body)
    return "".join(line + "\n" for line in lines)


@st.composite
def _corpus_files(draw):
    """A documents file and a claims file: valid, or with malformed records,
    lines and references mixed in. Every choice is taken from one bulk draw."""
    choices = iter(drawn_ints(draw, 1024, "u1").tolist())

    def pick(options):
        return options[next(choices) % len(options)]

    valid = pick((True, False))
    docs = [_document_record(pick, i, valid) for i in range(pick(range(1, 4)))]
    claims = [_claim_record(pick, i, docs, valid) for i in range(pick(range(5)))]
    return _jsonl(pick, docs, valid), _jsonl(pick, claims, valid)


_DOC = '{"id": "d0", "units": [{"speaker": "A", "text": "a b"}, {"text": "c"}]}'
_CLAIM = '{"id": "c0", "doc_id": "d0", "text": "a", "relevant_units": [1]}'


@given(_corpus_files())
@settings(max_examples=300, deadline=None)
@example((f" \t{_DOC}\t \r\n\n \u00a0\n\u2003\n", f"\r{_CLAIM} \n\t\n"))  # allowed
@example((f"\u00a0{_DOC}\n", ""))  # a no-break space is not JSON whitespace
@example((f"{_DOC}\n{_DOC} x\n", ""))  # data after the record, on line 2
@example((f"{_DOC}\u0085\n", ""))  # a Unicode space that is not JSON whitespace
@example((f"\ufeff{_DOC}\n", ""))  # a byte-order mark
@example((f"{_DOC[:-1]}, \"genre\": 1}}\n", f"{_CLAIM[:-1]}, \"model\": null}}\n"))
@example(('{"id": "d0", "units": [{"text": "a", "speaker": "A", "scene": 2}, {"text": "b"}]}\n',
          ""))
@example(('{"id": "d0", "units": [{"text": "a"}, ["b"]]}\n', ""))
@example(('{"id": "d0", "units": [{"text": "a", "speaker": 1}]}\n', ""))
@example(('{"id": "d0", "units": [{"text": 1, "speaker": "A"}]}\n', ""))
@example(('{"id": "d0", "units": [{"text": "a"}, {"text": " \\u00a0"}]}\n', ""))
def test_load_corpus_matches_reference_loader(tmp_path_factory, files):
    tmp = tmp_path_factory.mktemp("ingest")
    paths = tmp / "docs.jsonl", tmp / "claims.jsonl"
    for path, text in zip(paths, files):
        path.write_bytes(text.encode("utf-8"))
    try:
        want = load_corpus_reference(*paths)
    except Exception as exc:
        with pytest.raises(Exception) as err:
            load_corpus(*paths)
        assert type(err.value) is type(exc)
        assert str(err.value) == str(exc)
        return
    got = load_corpus(*paths)
    assert got.documents == want.documents
    assert [d.extra for d in got.documents] == [d.extra for d in want.documents]
    units = [u for d in got.documents for u in d.units]
    assert all(type(u) is Unit for u in units)
    assert [u.extra for u in units] == [u.extra for d in want.documents for u in d.units]
    with_extra = [u for u in units if u.extra]
    assert len({id(u.extra) for u in with_extra}) == len(with_extra)
    assert len({id(u.extra) for u in units if not u.extra}) <= 1
    assert got.claims == want.claims
    assert got.content_hash() == want.content_hash()


def test_undecodable_byte_reports_its_line(tmp_path):
    bad = tmp_path / "claims.jsonl"
    line = json.dumps({"id": "ok", "doc_id": "d", "text": "t" * 50}) + "\n"
    bad.write_bytes(line.encode() * 500 + b'{"id": "caf\xe9"}\n')
    with pytest.raises(CorpusError, match="not UTF-8") as err:
        read_claims_jsonl(bad)
    assert str(err.value).startswith(f"{bad}:501: ")


# ---------------------------------------------------------------------------
# Token counters


def test_whitespace_counter_basics(whitespace_counter):
    assert whitespace_counter.count("") == 0
    assert whitespace_counter.count("hello world") == 2
    assert whitespace_counter.count("  padded   text  ") == 2


def test_vocab_counter_golden(data_dir):
    counter = VocabCounter(data_dir / "vocab" / "mini_vocab.txt")
    # by hand: the(1) cat(1) sat(1) on(1) the(1) un+##believ+##able(3)
    #          mat(1) zzz->unknown(1) = 10
    assert counter.count("The cat sat on the unbelievable mat zzz") == 10
    # hello(1) world(1) token+##s(2) = 4
    assert counter.count("hello world tokens") == 4
    assert counter.count("") == 0


@given(st.text(alphabet="abcdefgh ", max_size=40), st.text(alphabet="abcdefgh ", max_size=40))
@settings(max_examples=100, deadline=None)
def test_counter_separator_subadditivity(data_dir, a, b):
    for counter in (WhitespaceCounter(), VocabCounter(data_dir / "vocab" / "mini_vocab.txt")):
        assert counter.count(a + " " + b) <= counter.count(a) + counter.count(b) + 1


def test_token_count_caches_keep_counters_apart(tmp_path):
    # Both vocabularies are named vocab.txt, so the counters share a name.
    (tmp_path / "v1").mkdir()
    (tmp_path / "v2").mkdir()
    (tmp_path / "v1" / "vocab.txt").write_text("un\n##believ\n##able\ntokens\n")
    (tmp_path / "v2" / "vocab.txt").write_text("unbelievable\ntokens\n")
    units = [Unit(text="unbelievable tokens"), Unit(text="Unbelievable tokens")]
    doc = Document(id="d", units=units)
    v1 = VocabCounter(tmp_path / "v1" / "vocab.txt")
    v2 = VocabCounter(tmp_path / "v2" / "vocab.txt")
    assert v1.name == v2.name
    assert doc.unit_token_counts(v1) == [4, 4]
    assert doc.unit_token_counts(v2) == [2, 2]
    assert doc._token_prefix_sums(v2) == [0, 2, 4]


def test_build_counter(data_dir):
    assert build_counter(RunConfig(counter="whitespace")).name == "whitespace"
    vc = build_counter(RunConfig(counter=f"vocab:{data_dir / 'vocab' / 'mini_vocab.txt'}"))
    assert vc.name == "vocab:mini_vocab.txt"
    with pytest.raises(ValidationError):
        build_counter(RunConfig(counter="bpe"))
