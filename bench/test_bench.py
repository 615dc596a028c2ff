"""Tests of the benchmark itself.

    python3 -m pytest bench

The smoke tests run every workload, untraced and traced, through the same
code path as a full run but at a size that takes seconds.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run as bench_run  # noqa: E402
import spantrace  # noqa: E402

SMOKE = bench_run.Scale(citation_n=3000, recovery_n=1000, replications=4)
SPEC = json.loads((bench_run.REPO / "BENCHMARK.json").read_text())


def _spans(rows, attrs=None):
    """Spans dict from (name, start, end, parent) rows."""
    names = sorted({row[0] for row in rows})
    return {
        "names": names,
        "name": [names.index(row[0]) for row in rows],
        "start": [row[1] for row in rows],
        "end": [row[2] for row in rows],
        "parent": [row[3] for row in rows],
        "attrs": attrs or {},
    }


def test_self_time_is_duration_minus_child_coverage():
    start = [0.0, 1.0, 2.0, 5.0, 8.0, 9.8]
    end = [10.0, 4.0, 3.0, 9.0, 9.5, 11.0]
    parent = [-1, 0, 1, 0, 0, 0]
    # Root children cover [1, 4], [5, 9.5] (two overlapping spans) and
    # [9.8, 10] (clipped to the root's end).
    expected = [10.0 - 3.0 - 4.5 - 0.2, 2.0, 1.0, 4.0, 1.5, 1.2]
    assert spantrace.self_times(start, end, parent) == pytest.approx(expected)


def test_layer_metrics_on_a_synthetic_tree():
    rows = [
        ("cli.main", 0.0, 10.0, -1),
        ("data.read_csv", 0.5, 1.5, 0),
        ("fit.fit_nb", 2.0, 8.0, 0),
        ("fit.fit_poisson", 2.1, 3.0, 2),
        ("likelihood.poisson_score", 2.5, 2.9, 3),
        ("likelihood.nb_loglik", 3.0, 4.0, 2),
        ("special.ln_gamma", 3.2, 3.6, 5),
        ("likelihood.nb_score", 4.0, 6.0, 2),
        ("special.digamma", 4.5, 5.5, 7),
        ("inference.wald_table", 8.5, 9.0, 0),
    ]
    m = spantrace.layer_metrics(_spans(rows, {"2": {"iterations": 4, "warnings": 1}}))
    assert m["fit.calls"] == 1
    assert m["fit.iterations"] == 4
    assert m["fit.warnings"] == 1
    assert m["likelihood.evals"] == 3
    assert m["likelihood.evals_per_iteration"] == pytest.approx(0.75)
    assert m["special.digamma.calls"] == 1
    assert m["special.digamma.s"] == pytest.approx(1.0)
    assert m["special.ln_gamma.s"] == pytest.approx(0.4)
    assert m["data.read_csv.s"] == pytest.approx(1.0)
    assert m["inference.s"] == pytest.approx(0.5)
    assert m["cli.self_s"] == pytest.approx(10.0 - 1.0 - 6.0 - 0.5)
    assert m["fit.self_s"] == pytest.approx((6.0 - 0.9 - 1.0 - 2.0) + (0.9 - 0.4))
    assert m["likelihood.self_s"] == pytest.approx(0.4 + 0.6 + 1.0)
    assert sum(m[f"{layer}.self_s"] for layer in spantrace.LAYERS) == pytest.approx(m["trace.main_s"])


def test_layer_metrics_need_one_main_root():
    with pytest.raises(ValueError):
        spantrace.layer_metrics(_spans([("fit.fit_nb", 0.0, 1.0, -1)]))


def test_install_wraps_the_callers_namespaces_and_restores():
    import countreg.cli
    import countreg.fit
    import countreg.likelihood

    original = countreg.fit.fit_nb
    recorder = spantrace.SpanRecorder()
    restore = spantrace.install(recorder)
    try:
        assert countreg.cli.fit_nb is countreg.fit.fit_nb is not original
        assert countreg.fit.nb_score is countreg.likelihood.nb_score
        rng = np.random.default_rng(0)
        X = np.column_stack([np.ones(300), rng.normal(size=300)])
        y = rng.poisson(np.exp(1.0 + 0.3 * X[:, 1]) * rng.gamma(2.0, 0.5, 300))
        model = countreg.cli.fit_nb(X, y)
    finally:
        restore()
    assert countreg.cli.fit_nb is original
    spans = recorder.to_dict()
    names = [spans["names"][i] for i in spans["name"]]
    assert names[0] == "fit.fit_nb" and spans["parent"][0] == -1
    assert names[1] == "fit.fit_poisson" and spans["parent"][1] == 0
    assert "likelihood.nb_score" in names and "special.digamma" in names
    assert spans["attrs"]["0"]["iterations"] == model.iterations


def test_benchmark_json_matches_what_run_prints():
    assert SPEC["command"] == ["python3", "bench/run.py"]
    workloads = bench_run.workloads()
    assert [(w["name"], w["why"]) for w in SPEC["workloads"]] == [
        (w.name, w.why) for w in workloads.values()
    ]
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == bench_run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == {
        name: unit for name, (unit, _) in bench_run.PER_LAYER.items()
    }


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("workload", sorted(bench_run.workloads()))
def test_smoke_run(workload, trace):
    record = bench_run.execute(workload, seed=3, seconds=1.0, trace=trace, scale=SMOKE)
    result = record["result"]
    assert record["failures"] == []
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 5
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    assert set(record["output_sha256"]["outputs"][0]) == set(
        bench_run.workloads(SMOKE)[workload].outputs
    )
    if trace:
        metrics = {name: m["value"] for name, m in result["metrics"].items()}
        assert metrics["fit.calls"] == (SMOKE.replications if workload.startswith("rec") else 1)
        assert metrics["fit.iterations"] > 0 and metrics["likelihood.evals"] > 0
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_exits_nonzero_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(bench_run.REPO / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "fit-nb-citation", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
