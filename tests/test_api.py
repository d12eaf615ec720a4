"""The package's public names: every export resolves, and deleted API stays gone."""

import importlib

import pytest

import chunkcheck

# (defining module, name) of API that was deleted because nothing outside
# the tests called it; a "Class.attr" name is looked up on the class.
DELETED = [
    ("corpus", "split_sentences"),
    ("corpus", "text_to_claims"),
    ("corpus", "_ABBREVIATIONS"),
    ("corpus", "_BOUNDARY"),
    ("corpus", "_is_abbreviation"),
    ("corpus", "CorpusStats"),
    ("corpus", "Corpus.stats"),
    ("corpus", "Document.total_tokens"),
    ("corpus", "Document.granularity"),
    ("corpus", "write_documents_jsonl"),
    ("corpus", "write_claims_jsonl"),
    ("engine", "classify"),
    ("retrieval", "verify_trace"),
    ("retrieval", "_score_ranges"),
    ("scoring", "ScoreCache"),
    ("scoring", "_sha256"),
    ("config", "RunConfig.cache_size"),
]


def test_every_export_resolves_once():
    assert len(chunkcheck.__all__) == len(set(chunkcheck.__all__))
    for name in chunkcheck.__all__:
        assert hasattr(chunkcheck, name), name


@pytest.mark.parametrize(("module", "name"), DELETED)
def test_deleted_api_is_gone(module, name):
    owner = importlib.import_module(f"chunkcheck.{module}")
    *classes, attr = name.split(".")
    for cls in classes:
        owner = getattr(owner, cls)
    assert not hasattr(owner, attr)
    assert not hasattr(chunkcheck, attr)
    assert attr not in chunkcheck.__all__
