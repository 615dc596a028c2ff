"""Inputs too large to run are refused, not killed or left hanging.

Each case runs `python -m countreg` in a child process whose address space
is bounded (RLIMIT_AS, set in the child only), on one OpenBLAS thread and
under a wall timeout.  The child must exit 1 soon, with one line on stderr,
no traceback and no signal; an input countreg can fit must instead be
fitted within the timeout.  These runs are not traced by tests/reach.py;
tests/test_cli.py and tests/test_simulate.py run the same refusals in
process.
"""

import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
ADDRESS_SPACE = 2 * 1024**3
# The refusals come within about 0.5 s of start-up; the bound leaves room
# for a loaded host.
TIMEOUT_S = 5.0

NB_CONFIG = {"family": "NB", "response": "y", "predictors": [{"name": "x1", "kind": "numeric"}]}
DESIGN = {
    "family": "NB",
    "n": 50,
    "seed": 3,
    "r": 0.7,
    "covariates": [{"name": "x1", "kind": "normal", "mean": 0, "sd": 1}],
    "beta": {"intercept": 1.0, "x1": 0.3},
}


def bounded_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))


def run_countreg(args):
    env = {**os.environ, "PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": "1"}
    return subprocess.run(
        [sys.executable, "-m", "countreg", *args],
        env=env,
        capture_output=True,
        encoding="utf-8",
        timeout=TIMEOUT_S,
        preexec_fn=bounded_address_space,
    )


def nb_csv(path, n):
    rng = np.random.default_rng(n)
    x1 = rng.normal(size=n)
    y = rng.poisson(rng.gamma(1 / 0.7, 0.7 * np.exp(1.0 + 0.3 * x1)))
    path.write_text("y,x1\n" + "".join(f"{c},{x!r}\n" for c, x in zip(y.tolist(), x1.tolist())), encoding="utf-8")
    return path


def write_json(path, doc):
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def fit_args(tmp_path, n, y_max):
    data = nb_csv(tmp_path / "d.csv", n)
    config = write_json(tmp_path / "run.json", {**NB_CONFIG, "y_max": y_max})
    return ["fit", "--data", str(data), "--config", str(config), "--out", str(tmp_path / "o")]


def simulate_args(tmp_path, design, *flags):
    config = write_json(tmp_path / "design.json", design)
    return ["simulate", "--config", str(config), "--out", str(tmp_path / "o"), *flags]


@pytest.mark.parametrize(
    "case, expected",
    [
        pytest.param(lambda tmp: fit_args(tmp, 300, 10**9), "countreg: 'y_max' must be at most 1,000,000",
                     id="y_max-above-limit"),
        pytest.param(lambda tmp: fit_args(tmp, 1001, 10**6), "countreg: 'y_max' = 1000000 asks for a frequency table",
                     id="table-above-cell-limit"),
        pytest.param(lambda tmp: simulate_args(tmp, {**DESIGN, "recovery": {"replications": 10**15}}, "--threads", "1"),
                     "countreg: 'recovery.replications' must be at most 100,000", id="replications-above-limit"),
        pytest.param(lambda tmp: simulate_args(tmp, {**DESIGN, "n": 10**12}),
                     "countreg: 'n' must be at most 100,000,000, not 1000000000000", id="simulate-n-too-large"),
    ],
)
def test_refused_with_one_line(tmp_path, case, expected):
    result = run_countreg(case(tmp_path))
    assert result.returncode == 1, result.stderr
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith(expected), result.stderr
    assert not (tmp_path / "o").exists()


# One case only: until item 6 lands it runs for the full TIMEOUT_S.
@pytest.mark.xfail(
    raises=subprocess.TimeoutExpired,
    strict=True,
    reason="ROADMAP item 6: the NB dispersion sums grid every value up to max(y),"
    " so one count of 2**62 runs far past the timeout",
)
def test_a_count_of_2_pow_62_is_fitted_or_refused_in_time(tmp_path):
    data = nb_csv(tmp_path / "d.csv", 200)
    header, first, *rest = data.read_text(encoding="utf-8").splitlines(keepends=True)
    data.write_text("".join([header, f"{2**62},{first.split(',', 1)[1]}", *rest]), encoding="utf-8")
    config = write_json(tmp_path / "run.json", NB_CONFIG)
    result = run_countreg(["fit", "--data", str(data), "--config", str(config), "--out", str(tmp_path / "o")])
    refused = result.returncode == 1 and len(result.stderr.splitlines()) == 1
    assert result.returncode in (0, 2) or refused, result.stderr
