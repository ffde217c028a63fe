"""The numbers EXPERIMENTS.md reports cannot move silently.

``python -m repro.experiments all --fast`` prints every experiment's
table, and its stdout is byte-identical from run to run (no timings, no
hash-order dependence). ``all_fast.stdout`` beside this file is that
stdout. A change that moves it regenerates the file and says why::

    PYTHONPATH=src python -m repro.experiments all --fast \\
        > tests/experiments/all_fast.stdout
"""

import os
import subprocess
import sys
from pathlib import Path

SNAPSHOT = Path(__file__).with_name("all_fast.stdout")
SRC = Path(__file__).resolve().parents[2] / "src"


def test_all_fast_stdout_equals_the_snapshot():
    completed = subprocess.run(
        [sys.executable, "-m", "repro.experiments", "all", "--fast"],
        capture_output=True, text=True, timeout=300, check=True,
        env={**os.environ, "PYTHONPATH": str(SRC),
             "PYTHONDONTWRITEBYTECODE": "1"},
    )
    expected = SNAPSHOT.read_text(encoding="utf-8")
    assert completed.stdout == expected
