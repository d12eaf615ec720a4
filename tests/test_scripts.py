"""The experiment scripts under scripts/ run end to end on the fixture."""

import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize(
    ("script", "args", "outputs"),
    [
        ("run_fixture_eval.py", [], ["score.json", "evaluate.json", "retrieve.json"]),
        (
            "sweep_chunk_budgets.py",
            ["--budgets", "16", "64"],
            ["bench.json", "bench.csv", "calibrate.json", "calibrate.csv",
             "calibration_curve.csv"],
        ),
    ],
)
def test_script_writes_its_reports(tmp_path, script, args, outputs):
    out_dir = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / script), "--out-dir", str(out_dir), *args],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    for name in outputs:
        assert (out_dir / name).stat().st_size > 0, name
