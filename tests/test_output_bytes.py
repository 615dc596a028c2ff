"""Every file the CLI writes, pinned by its sha256 on small designs.

The digests were recorded with the row-by-row CSV writer (``repr`` of every
float cell, one process), before the writer formatted row chunks in worker
processes.  A change that is meant to be a pure speed-up must leave them as
they are.  They also pin every floating-point result in the reports, so a
numpy or BLAS build that moves a last bit changes them too; rerun
``python tests/test_output_bytes.py`` there to print the digests of that build.

Reports name their data file, so every command runs inside its output
directory with relative paths.
"""

import concurrent.futures
import contextlib
import hashlib
import json
import os
import sys
from pathlib import Path

import pytest

from countreg import cli
from countreg.cli import main

DESIGN = {
    "family": "HNB",
    "n": 2000,
    "seed": 31,
    "r": 0.6,
    "response": "cites",
    "covariates": [
        {"name": "oa", "kind": "categorical", "levels": ["closed", "green", "gold, open"],
         "probs": [0.6, 0.3, 0.1], "base": "closed"},
        {"name": "funded", "kind": "bernoulli", "p": 0.3},
        {"name": "age", "kind": "integer", "low": 0, "high": 7},
        {"name": "mentions", "kind": "poisson", "lam": 0.6},
        {"name": "readers", "kind": "normal", "mean": 0, "sd": 1},
        {"name": "share", "kind": "uniform", "low": -1, "high": 1},
    ],
    "beta": {"intercept": 1.2, "oa=green": 0.2, "oa=gold, open": -0.1, "funded": 0.3,
             "age": -0.05, "mentions": 0.1, "readers": 0.4, "share": 0.0},
    "delta": {"intercept": -1.0, "oa=green": -0.3, "oa=gold, open": 0.1, "funded": 0.0,
              "age": 0.1, "mentions": -0.2, "readers": -0.5, "share": 0.0},
    "recovery": {"replications": 6},
}

PINNED = {
    "compare": {
        "exit": 0,
        "comparison.json": "5b014f41e9fc7198a7021aa6147c894c31f772faccba881ca62a7b938fc2c407",
    },
    "fit-HNB": {
        "exit": 0,
        "frequency.csv": "50526f732f908ac57da2a11fa5b1535d5cece24a0bdd01f270a733ed87a4651d",
        "pearson_residuals.csv": "4a76b956a5b75ef8ec92269a3d1a2abfb29af3cb21a672f6e3c2d859eea30608",
        "report.json": "a1f3613d2c1ce3adf74f7e818474f621c382a3e40fa5fc6feacd6ba962598fdf",
    },
    "fit-NB": {
        "exit": 0,
        "deviance_residuals.csv": "16a62dc4d7c3adc1b36848e1ede08f8dc7ffcb6b4bd0308ad7b0ac9896d94773",
        "frequency.csv": "d89fa9029cb0065897e2d4b3907f301395bf79a829711acf5279e282606e6c0f",
        "pearson_residuals.csv": "cf3ace14e4f312b44180612ae8dc6b87779c845f0bcd9a3a9f87fe2f21182a80",
        "report.json": "be1b85b380a2c3aaf8cc8e5743c328e0cb0a5dd38b916b3575b1c605c3383533",
    },
    "fit-P": {
        "exit": 0,
        "frequency.csv": "a0fe877d2c23f834df473b6f1280cd6b039cdbfba6cbd1baf2755e2d782b667f",
        "pearson_residuals.csv": "c80f00e29fe4e2ffcfc0a5bdedf9c9810ea8122a60f9c022609204a59197543d",
        "report.json": "7070be0f07a7967cda1d9a760a070cace58ee5296caa2d17a1e0461258ce06d4",
    },
    "restrict-HNB": {
        "exit": 0,
        "full_report.json": "02b3e750144181a1188aabdeac96e34fa05c180f3ceb2b2549d53e9479d161bb",
        "restricted_report.json": "b1ac3ce72397f2eba40773f718b2950f065e312601f2d6359daa68659efbd6eb",
    },
    "simulate-threads1": {
        "exit": 0,
        "dataset.csv": "d217759e982de2ac16ee78f6af440999eaa81bd97c2ad605d7259eb61521d466",
        "recovery.json": "84582a20b441fe2d57684d3cc4acdcf4760a6b51e79b0577d1e1ab09111934ed",
        "truth.json": "8427ef050cb21368e8466c79f8dab5bfd7b301db6ab41aac2fd6b87fd5ee320a",
    },
    "simulate-threads2": {
        "exit": 0,
        "dataset.csv": "d217759e982de2ac16ee78f6af440999eaa81bd97c2ad605d7259eb61521d466",
        "recovery.json": "84582a20b441fe2d57684d3cc4acdcf4760a6b51e79b0577d1e1ab09111934ed",
        "truth.json": "8427ef050cb21368e8466c79f8dab5bfd7b301db6ab41aac2fd6b87fd5ee320a",
    },
}


@contextlib.contextmanager
def _inside(directory):
    before = os.getcwd()
    os.chdir(directory)
    try:
        yield
    finally:
        os.chdir(before)


def _digests(directory, inputs):
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(Path(directory).iterdir())
        if path.name not in inputs
    }


def _simulate(out, threads):
    out.mkdir()
    (out / "design.json").write_text(json.dumps(DESIGN), encoding="utf-8")
    with _inside(out):
        code = main(["simulate", "--config", "design.json", "--threads", threads, "--out", "."])
    return {"exit": code, **_digests(out, {"design.json"})}


def run_all(root):
    """Run every command on ``DESIGN`` under ``root``; {run: {file: sha256}}."""
    root = Path(root)
    runs = {}
    for threads in ("1", "2"):
        runs[f"simulate-threads{threads}"] = _simulate(root / f"simulate-threads{threads}", threads)
    data = root / "simulate-threads1" / "dataset.csv"
    truth = json.loads((data.parent / "truth.json").read_text(encoding="utf-8"))
    commands = [(f"fit-{family}", family, ["fit"]) for family in ("P", "NB", "HNB")]
    commands += [
        ("compare", "NB", ["compare", "--families", "P,NB,HNB"]),
        ("restrict-HNB", "HNB", ["restrict", "--level", "0.10"]),
    ]
    for name, family, argv in commands:
        out = root / name
        out.mkdir()
        (out / "dataset.csv").write_bytes(data.read_bytes())
        config = dict(truth["encoding_config"], family=family)
        (out / "run.json").write_text(json.dumps(config), encoding="utf-8")
        with _inside(out):
            code = main([*argv, "--data", "dataset.csv", "--config", "run.json", "--out", "."])
        runs[name] = {"exit": code, **_digests(out, {"dataset.csv", "run.json"})}
    return runs


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    return run_all(tmp_path_factory.mktemp("outputs"))


@pytest.mark.parametrize("run", sorted(PINNED))
def test_output_bytes_are_pinned(runs, run):
    assert runs[run] == PINNED[run]


def test_every_run_is_pinned(runs):
    assert sorted(runs) == sorted(PINNED)


def test_threads_1_starts_no_process(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a worker process was started")

    monkeypatch.setattr(cli, "_CELLS_PER_WORKER", 1)
    monkeypatch.setattr(cli, "_BLOCK_ROWS", 150)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
    assert _simulate(tmp_path / "o", "1") == PINNED["simulate-threads1"]


def test_dataset_csv_from_worker_processes_has_the_pinned_bytes(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "_CELLS_PER_WORKER", 1)
    monkeypatch.setattr(cli, "_BLOCK_ROWS", 150)
    assert _simulate(tmp_path / "o", "2") == PINNED["simulate-threads2"]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as root:
        json.dump(run_all(root), sys.stdout, indent=4, sort_keys=True)
        print()
