"""The demos run end to end."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_csv_workflow_demo_runs(tmp_path):
    # The demo writes its files under tempfile.mkdtemp(), which honours TMPDIR.
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "TMPDIR": str(tmp_path)}
    result = subprocess.run(
        [sys.executable, str(ROOT / "demos" / "05_csv_workflow.py")],
        env=env, cwd=tmp_path, capture_output=True, encoding="utf-8",
    )
    assert result.returncode == 0, result.stderr
    assert "compare  -> 0" in result.stdout
