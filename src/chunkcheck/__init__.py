"""Factual-inconsistency detection for long documents.

Scores generated sentences against chunked source text with a pluggable
entailment scorer, explains scores by retrieving the best-supporting source
unit via greedy search-tree descent, and ships the evaluation/calibration
harness used to measure both. Import each name from the module that defines
it, e.g. ``chunkcheck.engine.score_text``.
"""

__version__ = "0.1.0"

# perfbench/run.py and perfbench/layers.py call these three on the package.
from .corpus import load_corpus  # noqa: F401
from .retrieval import brute_force_retrieve, retrieve  # noqa: F401
