"""The CLI runs BLAS on one thread, and only the CLI does.

``cli.main`` sets the OpenBLAS that numpy loaded to one thread for the
command and restores the caller's count afterwards.  So a ``countreg fit``
writes the same bytes whatever ``OPENBLAS_NUM_THREADS`` the host starts it
with, while a library caller keeps numpy's default.  Where the process is the
countreg command, ``import countreg`` also sets ``OPENBLAS_NUM_THREADS=1``
before numpy loads, unless the caller set it, so OpenBLAS starts on one thread.
"""

import ctypes
import io
import json
import multiprocessing
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

from countreg import _parallel, cli, citation_scale_design
from countreg._parallel import _pool_map

SRC = Path(__file__).resolve().parents[1] / "src"
BLAS = _parallel._openblas_threads()
needs_openblas = pytest.mark.skipif(BLAS is None, reason="numpy's BLAS is not OpenBLAS")


def _countreg(args, cwd, threads):
    env = {**os.environ, "PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": str(threads)}
    result = subprocess.run(
        [sys.executable, "-m", "countreg", *args], cwd=cwd, env=env,
        capture_output=True, encoding="utf-8", timeout=300,
    )
    assert result.returncode == 0, result.stderr


def _run_python(args, env):
    result = subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, encoding="utf-8", timeout=120
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


@needs_openblas
def test_fit_writes_the_same_bytes_on_one_two_and_four_blas_threads(tmp_path):
    design = json.dumps(citation_scale_design(n=2000).to_dict())
    (tmp_path / "design.json").write_text(design, encoding="utf-8")
    _countreg(["simulate", "--config", "design.json", "--out", "data"], tmp_path, 1)
    sidecar = json.loads((tmp_path / "data" / "truth.json").read_text(encoding="utf-8"))
    run = json.dumps(dict(sidecar["encoding_config"], family="NB"))
    (tmp_path / "run.json").write_text(run, encoding="utf-8")
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
from countreg._parallel import _openblas_threads
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
    assert json.loads(_run_python(["-c", IMPORT_PROBE], env)) == [2, 2]


LIBRARY_PROBE = """
import json, os
import countreg
from countreg._parallel import _openblas_threads
print(json.dumps([os.environ.get("OPENBLAS_NUM_THREADS"), _openblas_threads()[0]()]))
"""
NUMPY_PROBE = """
import numpy
from countreg._parallel import _openblas_threads
print(_openblas_threads()[0]())
"""


@needs_openblas
def test_importing_countreg_with_the_variable_unset_leaves_it_unset():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    env.pop("OPENBLAS_NUM_THREADS", None)
    numpys = int(_run_python(["-c", NUMPY_PROBE], env))
    assert json.loads(_run_python(["-c", LIBRARY_PROBE], env)) == [None, numpys]


@pytest.mark.parametrize("argv, orig_argv", [
    (["-m", "fit"], ["python", "-m", "countreg", "fit"]),
    (["-m", "fit"], ["python", "-X", "importtime", "-m", "countreg", "fit"]),
    (["-m", "fit"], ["python", "-m", "countreg.cli", "fit"]),
    (["/usr/local/bin/countreg", "fit"], ["python3", "/usr/local/bin/countreg", "fit"]),
])
def test_the_countreg_command_starts_openblas_on_one_thread(argv, orig_argv):
    environ = {"LANG": "C.UTF-8"}
    _parallel._one_blas_thread_for_the_command(argv, orig_argv, environ)
    assert environ == {"LANG": "C.UTF-8", "OPENBLAS_NUM_THREADS": "1"}


def test_the_countreg_command_keeps_the_callers_thread_count():
    environ = {"OPENBLAS_NUM_THREADS": "4"}
    _parallel._one_blas_thread_for_the_command(["-m"], ["python", "-m", "countreg"], environ)
    assert environ == {"OPENBLAS_NUM_THREADS": "4"}


@pytest.mark.parametrize("argv, orig_argv", [
    (["-m", "-q"], ["python", "-m", "pytest", "-q"]),
    (["-m"], ["python", "-m", "countreg_tools"]),
    (["-c"], ["python", "-c", "import countreg"]),
    (["demos/01_distributions.py"], ["python", "demos/01_distributions.py"]),
    ([], ["python"]),
])
def test_a_library_import_leaves_the_environment_alone(argv, orig_argv):
    environ = {"LANG": "C.UTF-8"}
    _parallel._one_blas_thread_for_the_command(argv, orig_argv, environ)
    assert environ == {"LANG": "C.UTF-8"}


# ``__init__`` loads _parallel before numpy, so the command's rule can set the
# variable before OpenBLAS starts; the module must load with numpy blocked.
NO_NUMPY_PROBE = """
import importlib.util, json, sys
sys.modules["numpy"] = None
spec = importlib.util.spec_from_file_location("_parallel", sys.argv[1])
module = importlib.util.module_from_spec(spec)
spec.loader.exec_module(module)
environ = {}
module._one_blas_thread_for_the_command(["-m"], ["python", "-m", "countreg"], environ)
print(json.dumps(environ))
"""


def test_the_policy_module_loads_without_numpy():
    probe = ["-c", NO_NUMPY_PROBE, str(SRC / "countreg" / "_parallel.py")]
    assert json.loads(_run_python(probe, dict(os.environ))) == {"OPENBLAS_NUM_THREADS": "1"}


# pip's console-script wrapper for ``countreg = "countreg.cli:main"``.
CONSOLE_SCRIPT = """\
# -*- coding: utf-8 -*-
import re
import sys
from countreg.cli import main
if __name__ == '__main__':
    sys.argv[0] = re.sub(r'(-script\\.pyw|\\.exe)?$', '', sys.argv[0])
    sys.exit(main())
"""
# Imported at start-up from PYTHONPATH: prints OpenBLAS's thread count at exit.
# ``--help`` returns before ``main`` pins a thread, so that is the count
# OpenBLAS started on.
SITECUSTOMIZE = """\
import atexit


@atexit.register
def print_blas_threads():
    from countreg._parallel import _openblas_threads
    print(_openblas_threads()[0]())
"""


@needs_openblas
@pytest.mark.skipif(os.cpu_count() == 1, reason="OpenBLAS starts on one thread anyway")
@pytest.mark.parametrize("how", ["console-script", "-m"])
@pytest.mark.parametrize("variable, threads", [(None, "1"), ("2", "2")])
def test_the_command_starts_openblas_on_one_thread_unless_told(tmp_path, how, variable, threads):
    (tmp_path / "countreg").write_text(CONSOLE_SCRIPT, encoding="utf-8")
    (tmp_path / "sitecustomize.py").write_text(SITECUSTOMIZE, encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(tmp_path), str(SRC)])}
    env.pop("OPENBLAS_NUM_THREADS", None)
    if variable is not None:
        env["OPENBLAS_NUM_THREADS"] = variable
    command = [str(tmp_path / "countreg")] if how == "console-script" else ["-m", "countreg"]
    assert _run_python([*command, "--help"], env).splitlines()[-1] == threads


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
    with _parallel._one_blas_thread():
        assert list(_pool_map(_worker_blas_threads, range(4), 2)) == [1, 1, 1, 1]


def test_main_runs_as_before_where_no_openblas_is_found(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(_parallel, "_openblas_threads", lambda: None)
    design = json.dumps(citation_scale_design(n=300).to_dict())
    (tmp_path / "design.json").write_text(design, encoding="utf-8")
    assert cli.main(["simulate", "--config", str(tmp_path / "design.json"),
                     "--out", str(tmp_path / "data")]) == 0
    assert (tmp_path / "data" / "dataset.csv").exists()
    assert cli.main(["fit", "--config", str(tmp_path / "missing.json")]) == 1
    assert "no such file" in capsys.readouterr().err


# One line of /proc/self/maps that maps an OpenBLAS.
MAPS = "7f1c2a000000-7f1c2c000000 r-xp 00000000 08:01 4242 /opt/lib/libopenblas.so.0\n"


def _maps(monkeypatch, text):
    """Let _parallel read ``text`` as /proc/self/maps."""
    monkeypatch.setattr(_parallel, "open", lambda path, *args, **kwargs: io.StringIO(text), raising=False)


def test_no_openblas_is_found_where_the_maps_cannot_be_read(monkeypatch):
    def unreadable(path, *args, **kwargs):
        raise PermissionError(13, "Permission denied", path)

    monkeypatch.setattr(_parallel, "open", unreadable, raising=False)
    assert _parallel._openblas_threads() is None


def test_a_mapped_openblas_that_cannot_be_loaded_is_skipped(monkeypatch):
    def cannot_load(path):
        raise OSError(f"{path}: cannot open shared object file")

    _maps(monkeypatch, MAPS)
    monkeypatch.setattr(ctypes, "CDLL", cannot_load)
    assert _parallel._openblas_threads() is None


def test_a_mapped_openblas_without_both_thread_symbols_is_skipped(monkeypatch):
    # A getter alone cannot restore the caller's count.
    _maps(monkeypatch, MAPS)
    monkeypatch.setattr(ctypes, "CDLL", lambda path: types.SimpleNamespace(openblas_get_num_threads=lambda: 4))
    assert _parallel._openblas_threads() is None
