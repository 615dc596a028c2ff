"""Every JSON document the CLI reads, mutated at one key path.

Each property starts from a valid document, then replaces the value at one
random key path with a random JSON value, or deletes that key (or list
entry).  For every example ``main`` returns 0, 1 or 2 and never raises.  On
exit 1 ``--out`` does not exist and the message names what is wrong: a key
of the document (the key path of the getters' ``'<key path>' must be ...``
form, or a schema key such as ``beta`` in a cross-check), an entry by the
name or path the document gives it, or a CSV row or column.  A design that
``simulate`` accepts records each changed value unchanged in ``truth.json``.

Generated integers stay in [-3, 300] and lists at 3 items or fewer; designs
keep n <= 200 and recovery studies 3 replications or fewer, and every
command runs in-process (``simulate --threads 1``), so no example starts a
worker process or runs many fits.
"""

import contextlib
import copy
import csv
import io
import json
import math
import re
import tempfile
from functools import reduce
from operator import getitem
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from countreg.cli import main

RUN = {
    "family": "NB",
    "families": ["P", "NB"],
    "level": 0.2,
    "y_max": 6,
    "response": "cites",
    "predictors": [
        {"name": "oa", "kind": "categorical", "base": "closed", "levels": ["closed", "green", "gold"]},
        {"name": "x1", "kind": "numeric", "transform": {"type": "offset", "origin": 0.5}},
        {"name": "size", "kind": "numeric", "transform": "log"},
        {"name": "funded", "kind": "binary"},
    ],
    "hurdle_predictors": ["oa", "x1"],
    "fit_options": {"max_iterations": 200, "gradient_tolerance": 1e-6,
                    "step_halving_limit": 30, "hessian_step": 1e-5},
}

LABELS = ("intercept", "x1", "u", "age", "funded", "mentions", "g=b")
DESIGN = {
    "family": "HNB",
    "n": 120,
    "seed": 3,
    "r": 0.6,
    "response": "cites",
    "covariates": [
        {"name": "x1", "kind": "normal", "mean": 0, "sd": 1},
        {"name": "u", "kind": "uniform", "low": -1, "high": 1},
        {"name": "age", "kind": "integer", "low": 0, "high": 3},
        {"name": "funded", "kind": "bernoulli", "p": 0.3},
        {"name": "mentions", "kind": "poisson", "lam": 0.5},
        {"name": "g", "kind": "categorical", "levels": ["a", "b"], "probs": [0.6, 0.4], "base": "a"},
    ],
    "beta": dict(zip(LABELS, (1.0, 0.3, -0.2, 0.1, 0.2, 0.1, -0.3))),
    "delta": dict(zip(LABELS, (-0.5, 0.4, 0.0, -0.1, 0.3, 0.0, 0.2))),
    "recovery": {"replications": 2},
}

# Keys whose entries are labels or names, not schema keys.
MAPS = ("beta", "delta")
# Strings of valid documents, so that a replaced value often reads further.
WORDS = ["P", "NB", "HNB", "numeric", "categorical", "binary", "log", "offset", "none", "normal",
         "uniform", "integer", "bernoulli", "poisson", "oa", "x1", "g", "a", "b", "closed", "gold"]

scalars = (
    st.none()
    | st.booleans()
    | st.integers(-3, 300)
    | st.floats(-300, 300)
    | st.sampled_from([math.nan, math.inf, -math.inf])
    | st.text(max_size=4)
    | st.sampled_from(WORDS)
)
# Mostly scalars, which reach the checks past a key's type more often.
json_values = scalars | st.recursive(
    scalars,
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4) | st.sampled_from(WORDS), children, max_size=3),
    max_leaves=6,
)


def key_paths(doc, prefix=()):
    """The key path (a tuple of keys and indices) of every entry of ``doc``."""
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return []
    paths = []
    for key, value in items:
        paths.append(prefix + (key,))
        paths += key_paths(value, prefix + (key,))
    return paths


def rendered(path):
    """``path`` as countreg names it, such as ``covariates[2].sd``."""
    text = ""
    for key in path:
        text += f"[{key}]" if isinstance(key, int) else f".{key}" if text else key
    return text


@st.composite
def mutations(draw, doc):
    """(mutated document, key path, new value or None for a deletion)."""
    path = draw(st.sampled_from(key_paths(doc)))
    mutated = copy.deepcopy(doc)
    parent = reduce(getitem, path[:-1], mutated)
    if draw(st.booleans()):
        del parent[path[-1]]
        return mutated, path, None
    value = draw(json_values)
    parent[path[-1]] = value
    return mutated, path, value


def names_what_is_wrong(err, doc, mutated, path, data_errors):
    """Whether ``err`` names ``path``, a key of the valid ``doc``, an entry's
    name or path in either document, or (``data_errors``) a CSV row or column."""
    words = {rendered(path)}
    for p in key_paths(doc):
        if isinstance(p[-1], str) and not (len(p) > 1 and p[-2] in MAPS):
            words.add(p[-1])
    names = set()
    for document in (doc, mutated):
        for p in key_paths(document):
            value = reduce(getitem, p, document)
            if p[-1] in ("name", "response", "data") and isinstance(value, str):
                names.add(repr(value))
    if any(re.search(rf"(?<!\w){re.escape(word)}(?!\w)", err) for word in words):
        return True
    return any(name in err for name in names) or (data_errors and re.search(r"\(row \d+|column '", err))


def run_main(argv):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def check_outcome(code, err, out, doc, mutated, path, data_errors=False):
    assert code in (0, 1, 2), (code, err)
    if code == 1:
        assert err.startswith("countreg: ") and err.count("\n") == 1, err
        assert names_what_is_wrong(err, doc, mutated, path, data_errors), (rendered(path), err)
        assert not out.exists(), (rendered(path), err)


@pytest.fixture(scope="module")
def run_csv(tmp_path_factory):
    rng = np.random.default_rng(8)
    n = 200
    oa = rng.choice(["closed", "green", "gold"], size=n, p=[0.5, 0.3, 0.2])
    x1, size, funded = rng.normal(size=n), rng.uniform(0.5, 4.0, n), rng.binomial(1, 0.4, n)
    theta = np.exp(0.8 + 0.3 * (oa == "green") + 0.4 * x1 + 0.2 * np.log(size) + 0.3 * funded)
    y = rng.poisson(rng.gamma(1 / 0.6, 0.6 * theta))
    path = tmp_path_factory.mktemp("documents") / "d.csv"
    rows = "".join(f"{y[i]},{oa[i]},{float(x1[i])!r},{float(size[i])!r},{funded[i]}\n" for i in range(n))
    path.write_text("cites,oa,x1,size,funded\n" + rows, encoding="utf-8")
    return path


class TestRunConfig:
    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(["fit", "compare", "restrict"]), st.data())
    def test_a_mutated_run_config_exits_cleanly(self, run_csv, command, data):
        doc = {**RUN, "data": str(run_csv)}
        mutated, path, _ = data.draw(mutations(doc))
        with tempfile.TemporaryDirectory() as tmp:
            config, out = Path(tmp) / "run.json", Path(tmp) / "o"
            config.write_text(json.dumps(mutated), encoding="utf-8")
            code, err = run_main([command, "--config", str(config), "--out", str(out)])
        check_outcome(code, err, out, doc, mutated, path, data_errors=True)


def lookup(doc, path):
    """The entry at ``path`` of ``doc``, or None where there is none."""
    try:
        return (reduce(getitem, path, doc),)
    except (KeyError, IndexError, TypeError):
        return None


def holds_an_object(value):
    if isinstance(value, dict):
        return True
    return isinstance(value, list) and any(map(holds_an_object, value))


def simulate(directory, design):
    """(exit code, stderr, --out) of ``countreg simulate`` of ``design``."""
    directory.mkdir()
    config, out = directory / "design.json", directory / "o"
    config.write_text(json.dumps(design), encoding="utf-8")
    code, err = run_main(["simulate", "--config", str(config), "--out", str(out), "--threads", "1"])
    return code, err, out


# A fit's cost grows with the largest count (the NB dispersion sums run over
# every count up to it), so the recovery study runs only where the design's
# own dataset keeps its counts below this.
REFIT_COUNTS = 10_000


class TestSimulationDesign:
    @settings(max_examples=150, deadline=None)
    @given(mutations(DESIGN))
    def test_a_mutated_design_exits_cleanly(self, mutation):
        """The design is simulated without its recovery block, and then, with
        counts below REFIT_COUNTS, with it."""
        mutated, path, value = mutation
        n, recovery = mutated.get("n"), mutated.get("recovery")
        assume(not (type(n) is int and n > 200))
        if isinstance(recovery, dict):
            replications = recovery.get("replications")
            assume(not (type(replications) is int and replications > 3))
        with tempfile.TemporaryDirectory() as tmp:
            design = {key: entry for key, entry in mutated.items() if key != "recovery"}
            code, err, out = simulate(Path(tmp) / "design", design)
            check_outcome(code, err, out, DESIGN, mutated, path)
            if code != 0:
                return
            if value is not None and (path in (("beta",), ("delta",)) or not holds_an_object(value)):
                truth = json.loads((out / "truth.json").read_text(encoding="utf-8"))
                recorded = lookup(truth["design"], path)
                if recorded is not None:
                    assert recorded[0] == value, (rendered(path), recorded[0], value)
            with open(out / "dataset.csv", newline="", encoding="utf-8") as fh:
                largest = max(int(row[0]) for row in list(csv.reader(fh))[1:])
            if "recovery" in mutated and largest < REFIT_COUNTS:
                code, err, out = simulate(Path(tmp) / "study", mutated)
                check_outcome(code, err, out, DESIGN, mutated, path)
