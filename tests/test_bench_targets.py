"""The traced benchmark wraps countreg functions by name.

``bench/spantrace.py`` looks up every name in its ``TARGETS`` with
``getattr`` on the countreg module of that layer, so renaming or deleting one
of them under ``src/`` would break the traced run.  The file is loaded by
path; it imports only the standard library at module level.  A traced fit
must also pass the checks that ``bench/run.py`` makes of every traced run.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

from countreg.cli import main

SPANTRACE = Path(__file__).resolve().parents[1] / "bench" / "spantrace.py"


def load_spantrace():
    spec = importlib.util.spec_from_file_location("countreg_bench_spantrace", SPANTRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_is_defined():
    spantrace = load_spantrace()
    names = [(layer, name) for layer, functions in spantrace.TARGETS.items() for name in functions]
    names.append(tuple(spantrace.ROOT.split(".")))
    missing = [
        f"countreg.{layer}.{name}"
        for layer, name in names
        if not callable(getattr(importlib.import_module(f"countreg.{layer}"), name, None))
    ]
    assert missing == []


def test_a_traced_fit_passes_the_checks_that_void_a_traced_run(tmp_path):
    """``bench/run.py`` voids a traced run unless its spans have one
    ``cli.main`` root, the layers' self times add up to it, and the traced
    fit iterations equal report.json's; a traced command prints nothing."""
    spantrace = load_spantrace()
    design = {"family": "NB", "n": 400, "seed": 3, "r": 0.5, "response": "cites",
              "covariates": [{"name": "x1", "kind": "normal"}], "beta": {"intercept": 1.0, "x1": 0.4}}
    (tmp_path / "design.json").write_text(json.dumps(design), encoding="utf-8")
    assert main(["simulate", "--config", str(tmp_path / "design.json"), "--out", str(tmp_path)]) == 0
    encoding = json.loads((tmp_path / "truth.json").read_text())["encoding_config"]
    (tmp_path / "run.json").write_text(json.dumps({**encoding, "family": "NB"}), encoding="utf-8")
    spans, out = tmp_path / "spans.json", tmp_path / "fit"
    result = subprocess.run(
        [sys.executable, str(SPANTRACE), str(spans), "--", "fit", "--data", str(tmp_path / "dataset.csv"),
         "--config", str(tmp_path / "run.json"), "--out", str(out)],
        env={**os.environ, "PYTHONPATH": str(SPANTRACE.parents[1] / "src")},
        capture_output=True, text=True, timeout=120,
    )
    assert (result.returncode, result.stdout, result.stderr) == (0, "", "")
    layers = spantrace.layer_metrics(json.loads(spans.read_text()))  # raises unless one cli.main root
    total = sum(layers[f"{layer}.self_s"] for layer in spantrace.LAYERS)
    assert abs(total - layers["trace.main_s"]) <= 1e-6 * max(1.0, layers["trace.main_s"])
    report = json.loads((out / "report.json").read_text())
    assert layers["fit.calls"] == 1
    assert layers["fit.iterations"] == report["iterations"] > 0
