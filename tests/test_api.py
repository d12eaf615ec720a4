"""Deleted API stays gone, from its defining module and from the package."""

import importlib

import pytest

import chunkcheck

# (defining module, name) of API that was deleted because nothing outside
# the tests needed it; a "Class.attr" name is looked up on the class.
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
    ("corpus", "make_counter"),
    ("corpus", "GeneratedText"),
    ("corpus", "Unit.validate"),
    ("corpus", "Document.validate"),
    ("corpus", "Claim.validate"),
    ("chunking", "ChunkPlan.validate"),
    ("engine", "classify"),
    ("engine", "SentenceScore.elapsed_ms"),
    ("engine", "TextScore.to_dict"),
    ("metrics", "macro_f1"),
    ("metrics", "candidate_thresholds"),
    ("retrieval", "verify_trace"),
    ("retrieval", "_score_ranges"),
    ("retrieval", "brute_force_all"),
    ("retrieval", "call_count_bound"),
    ("scoring", "ScoreCache"),
    ("scoring", "_sha256"),
    ("config", "RunConfig.cache_size"),
]


@pytest.mark.parametrize(("module", "name"), DELETED)
def test_deleted_api_is_gone(module, name):
    owner = importlib.import_module(f"chunkcheck.{module}")
    *classes, attr = name.split(".")
    for cls in classes:
        owner = getattr(owner, cls)
    assert not hasattr(owner, attr)
    assert not hasattr(chunkcheck, attr)
