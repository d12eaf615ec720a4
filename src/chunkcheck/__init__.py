"""Factual-inconsistency detection for long documents.

Scores generated sentences against chunked source text with a pluggable
entailment scorer, explains scores by retrieving the best-supporting source
unit via greedy search-tree descent, and ships the evaluation/calibration
harness used to measure both.
"""

__version__ = "0.1.0"

from .chunking import Chunk, ChunkPlan, make_chunks, premise_text, split_range
from .config import RunConfig, resolve_config
from .corpus import (
    Claim,
    Corpus,
    Document,
    GeneratedText,
    TokenCounter,
    Unit,
    VocabCounter,
    WhitespaceCounter,
    load_corpus,
)
from .engine import SentenceScore, TextScore, score_sentence, score_text
from .errors import (
    BackendError,
    ChunkcheckError,
    CorpusError,
    PremiseTooLargeError,
    ScoringError,
    ValidationError,
)
from .metrics import (
    CalibrationReport,
    EvalReport,
    calibration_curve,
    ece,
    evaluate_scores,
    f1_macro_optimal,
    kendall_tau,
    pearson,
    retrieval_recall,
    roc_auc,
)
from .retrieval import (
    BruteForceResult,
    RetrievalTrace,
    brute_force_retrieve,
    retrieval_hit,
    retrieve,
)
from .scoring import (
    BatchResult,
    ScorerBackend,
    build_prompt,
    entail_prob,
    score_batch,
    score_pair,
)

__all__ = [
    "__version__",
    "Chunk",
    "ChunkPlan",
    "make_chunks",
    "premise_text",
    "split_range",
    "RunConfig",
    "resolve_config",
    "Claim",
    "Corpus",
    "Document",
    "GeneratedText",
    "TokenCounter",
    "Unit",
    "VocabCounter",
    "WhitespaceCounter",
    "load_corpus",
    "SentenceScore",
    "TextScore",
    "score_sentence",
    "score_text",
    "BackendError",
    "ChunkcheckError",
    "CorpusError",
    "PremiseTooLargeError",
    "ScoringError",
    "ValidationError",
    "CalibrationReport",
    "EvalReport",
    "calibration_curve",
    "ece",
    "evaluate_scores",
    "f1_macro_optimal",
    "kendall_tau",
    "pearson",
    "retrieval_recall",
    "roc_auc",
    "BruteForceResult",
    "RetrievalTrace",
    "brute_force_retrieve",
    "retrieval_hit",
    "retrieve",
    "BatchResult",
    "ScorerBackend",
    "build_prompt",
    "entail_prob",
    "score_batch",
    "score_pair",
]
