"""Importing countreg has no side effects.

``bench/run.py`` imports countreg in the process whose last stdout line must
be its JSON result, so the import prints nothing, registers no exit hook and
starts no thread.  The import runs in a fresh interpreter after numpy's, so
that only countreg's own effects are counted.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

PROBE = """
import atexit, json, sys, threading
import numpy
before = [atexit._ncallbacks(), threading.active_count()]
import countreg, countreg.cli
after = [atexit._ncallbacks(), threading.active_count()]
with open(sys.argv[1], "w") as handle:
    json.dump({"before": before, "after": after}, handle)
"""


def test_importing_countreg_prints_nothing_and_adds_no_exit_hook_or_thread(tmp_path):
    counts = tmp_path / "counts.json"
    result = subprocess.run(
        [sys.executable, "-c", PROBE, str(counts)],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, timeout=120,
    )
    assert (result.returncode, result.stdout, result.stderr) == (0, "", "")
    counts = json.loads(counts.read_text())
    assert counts["after"] == counts["before"]
