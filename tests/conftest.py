import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from chunkcheck.backends import LexicalOverlapBackend, UnitRelevanceBackend
from chunkcheck.corpus import WhitespaceCounter, load_corpus

DATA_DIR = Path(__file__).resolve().parents[1] / "data"
FIXTURE_DIR = DATA_DIR / "fixture"


@pytest.fixture(scope="session")
def data_dir() -> Path:
    return DATA_DIR


@pytest.fixture(scope="session")
def fixture_dir() -> Path:
    return FIXTURE_DIR


@pytest.fixture()
def clean_env(monkeypatch, tmp_path):
    """No proxy, CA bundle or netrc setting, and a home without a netrc file:
    the environment the remote backend reads."""
    for var in ("HTTP_PROXY", "HTTPS_PROXY", "ALL_PROXY", "NO_PROXY", "http_proxy",
                "https_proxy", "all_proxy", "no_proxy", "REQUESTS_CA_BUNDLE",
                "CURL_CA_BUNDLE", "NETRC"):
        monkeypatch.delenv(var, raising=False)
    monkeypatch.setenv("HOME", str(tmp_path))


@pytest.fixture()
def fixture_corpus():
    return load_corpus(FIXTURE_DIR / "documents.jsonl", FIXTURE_DIR / "claims.jsonl")


@pytest.fixture()
def whitespace_counter():
    return WhitespaceCounter()


@pytest.fixture()
def overlap_backend():
    return LexicalOverlapBackend()


@pytest.fixture()
def fixture_relevance_backend(fixture_corpus):
    return UnitRelevanceBackend.from_file(FIXTURE_DIR / "relevance.json", fixture_corpus)
