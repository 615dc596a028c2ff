"""The traced benchmark wraps countreg functions by name.

``bench/spantrace.py`` looks up every name in its ``TARGETS`` with
``getattr`` on the countreg module of that layer, so renaming or deleting one
of them under ``src/`` would break the traced run.  The file is loaded by
path; it imports only the standard library at module level.
"""

import importlib
import importlib.util
from pathlib import Path

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
