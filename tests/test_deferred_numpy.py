"""Each metric works as a process's first metric call, when numpy is not yet
loaded: ``chunkcheck.metrics`` imports it on first use."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from chunkcheck import metrics

SCORES = [0.1, 0.4, 0.35, 0.8, 0.8, 0.65]
LABELS = [0, 0, 1, 1, 1, 0]
OTHER = [0.2, 0.1, 0.5, 0.9, 0.7, 0.7]

_FIRST_CALL = """
import json, sys
from chunkcheck import metrics
assert "numpy" not in sys.modules
print(repr(getattr(metrics, sys.argv[1])(*json.loads(sys.argv[2]))))
assert "numpy" in sys.modules
"""


@pytest.mark.parametrize(("name", "args"), [
    ("roc_auc", (SCORES, LABELS)),
    ("pearson", (SCORES, OTHER)),
    ("kendall_tau", (SCORES, OTHER)),
    ("f1_macro_optimal", (SCORES, LABELS)),
    ("ece", (SCORES, LABELS, 4)),
    ("calibration_curve", (SCORES, LABELS, 4)),
    ("evaluate_scores", (SCORES, LABELS)),
])
def test_each_metric_works_as_the_first_metric_call(name, args):
    """One subprocess per metric, since this one has loaded numpy: its result
    prints as the in-process result does, so every float is bit-equal."""
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", _FIRST_CALL, name, json.dumps(args)],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == repr(getattr(metrics, name)(*args)) + "\n"
