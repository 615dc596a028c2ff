"""The CLI runs BLAS on one thread, and only the CLI does.

``cli.main`` sets the OpenBLAS that numpy loaded to one thread for the
command and restores the caller's count afterwards.  So a ``countreg fit``
writes the same bytes whatever ``OPENBLAS_NUM_THREADS`` the host starts it
with, while a library caller keeps numpy's default.
"""

import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import pytest

from countreg import cli, citation_scale_design
from countreg.simulate import _pool_map

SRC = Path(__file__).resolve().parents[1] / "src"
BLAS = cli._openblas_threads()
needs_openblas = pytest.mark.skipif(BLAS is None, reason="numpy's BLAS is not OpenBLAS")


def _countreg(args, cwd, threads):
    env = {**os.environ, "PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": str(threads)}
    result = subprocess.run(
        [sys.executable, "-m", "countreg", *args], cwd=cwd, env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr


@needs_openblas
def test_fit_writes_the_same_bytes_on_one_two_and_four_blas_threads(tmp_path):
    (tmp_path / "design.json").write_text(json.dumps(citation_scale_design(n=2000).to_dict()))
    _countreg(["simulate", "--config", "design.json", "--out", "data"], tmp_path, 1)
    sidecar = json.loads((tmp_path / "data" / "truth.json").read_text())
    (tmp_path / "run.json").write_text(json.dumps(dict(sidecar["encoding_config"], family="NB")))
    outputs = {}
    for threads in (1, 2, 4):
        out = f"out{threads}"
        _countreg(["fit", "--data", "data/dataset.csv", "--config", "run.json", "--out", out],
                  tmp_path, threads)
        outputs[threads] = {p.name: p.read_bytes() for p in sorted((tmp_path / out).iterdir())}
    assert sorted(outputs[1]) == [
        "deviance_residuals.csv", "frequency.csv", "pearson_residuals.csv", "report.json"
    ]
    for threads in (2, 4):
        differing = [name for name in outputs[1] if outputs[threads][name] != outputs[1][name]]
        assert differing == [], f"OPENBLAS_NUM_THREADS={threads}"


IMPORT_PROBE = """
import json
import numpy as np
from countreg.cli import _openblas_threads
get = _openblas_threads()[0]
seen = [get()]
import countreg
rng = np.random.default_rng(0)
X = np.column_stack([np.ones(300), rng.normal(size=300)])
countreg.fit_nb(X, rng.poisson(np.exp(0.5 + 0.3 * X[:, 1])))
seen.append(get())
print(json.dumps(seen))
"""


@needs_openblas
def test_importing_countreg_and_fitting_keep_numpys_blas_thread_count():
    # Two threads, so that keeping numpy's count is not keeping 1.
    env = {**os.environ, "PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": "2"}
    result = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == [2, 2]


@pytest.fixture
def two_blas_threads():
    get, set_ = BLAS
    before = get()
    set_(2)
    yield get
    set_(before)


@needs_openblas
@pytest.mark.parametrize("exit_code", [0, 2])
def test_a_command_runs_on_one_blas_thread_and_main_restores_the_count(
    two_blas_threads, monkeypatch, exit_code
):
    seen = []

    def command(args):
        seen.append(two_blas_threads())
        return exit_code

    monkeypatch.setattr(cli, "cmd_fit", command)
    assert cli.main(["fit", "--config", "unused.json"]) == exit_code
    assert (seen, two_blas_threads()) == ([1], 2)


@needs_openblas
def test_main_restores_the_count_when_the_command_fails(two_blas_threads, tmp_path):
    assert cli.main(["fit", "--config", str(tmp_path / "missing.json")]) == 1
    assert two_blas_threads() == 2


def _worker_blas_threads(_):
    return BLAS[0]()


@needs_openblas
@pytest.mark.skipif(multiprocessing.get_start_method() != "fork", reason="workers start afresh")
def test_forked_workers_inherit_the_one_thread(two_blas_threads):
    with cli._one_blas_thread():
        assert list(_pool_map(_worker_blas_threads, range(4), 2)) == [1, 1, 1, 1]


def test_main_runs_as_before_where_no_openblas_is_found(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "_openblas_threads", lambda: None)
    (tmp_path / "design.json").write_text(json.dumps(citation_scale_design(n=300).to_dict()))
    assert cli.main(["simulate", "--config", str(tmp_path / "design.json"),
                     "--out", str(tmp_path / "data")]) == 0
    assert (tmp_path / "data" / "dataset.csv").exists()
    assert cli.main(["fit", "--config", str(tmp_path / "missing.json")]) == 1
    assert "no such file" in capsys.readouterr().err
