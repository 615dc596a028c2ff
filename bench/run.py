"""countreg benchmark: end-to-end CLI runs with a per-layer trace.

    python3 bench/run.py --workload fit-nb-citation --seed 1 --seconds 30 --trace 0

Run from the repository root.  Each workload runs fresh ``python -m countreg``
processes (``PYTHONPATH=src``, no install) in a closed loop: one client, one
command at a time, each started when the previous one has ended.  Inputs come
from ``--seed``, which is handed to ``countreg simulate --seed``; the fit
commands see only the generated files.

Set-up runs ``countreg simulate`` three times; ``setup_s`` is the median.
The fit workloads draw three datasets from sub-seeds of ``--seed``; the
recovery workload generates its one dataset three times, and the copies must
be byte-identical.  The measured command then cycles over the datasets, at
least once per dataset and at least twice, for as long as another command is
expected to end within ``--seconds``.  Every command's outputs are checked
(exit code, convergence, estimates against the simulation truth, and
byte-identical outputs whenever a dataset is run again) and any failure
counts against ``error_rate``.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the command
on the first dataset once untraced and then under ``bench/spantrace.py``, and
prints the per-layer metrics; ``trace.overhead_s`` is traced minus untraced
wall time.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full record (host,
provenance, output digests, every sample) is written under ``bench/.work/``.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
REPO = BENCH.parent
WORK = BENCH / ".work"
sys.path.insert(0, str(BENCH))

import spantrace  # noqa: E402

# A run must end within 180 s; commands still running at this point are
# killed and counted as failed.
RUN_BUDGET_S = 170.0
SETUP_REPEATS = 3
# Untraced commands per run, at least; a median of two or more damps the
# noise of a shared host.
MIN_COMMANDS = 2
STARTUP_REPEATS = 3
# Estimates must lie within Z_LIMIT standard errors of the simulation truth.
# At 4 SE a correct fit of the 32 NB parameters fails on about 1 seed in
# 500; at 5 SE on about 1 in 50,000, and a biased estimator still fails.
Z_LIMIT = 5.0
COVERAGE_FLOOR = 0.85
# ps/df must be within 5 % of 1 at n = 43,190 (acceptance criterion 8); the
# tolerance scales with its standard error, 1/sqrt(n), at other sizes.
PS_TOLERANCE_AT_CITATION_N = 0.05
CITATION_N = 43190


@dataclass(frozen=True)
class Scale:
    """Input sizes; the benchmark's own tests run the workloads smaller."""

    citation_n: int = CITATION_N
    recovery_n: int = 2500
    replications: int = 150


FULL = Scale()

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "rows_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# Layer metric -> (unit, the end-to-end metric it should move and where).
PER_LAYER = {
    "cli.startup_s": ("s", "wall_s on every workload, by the same fixed amount"),
    "cli.self_s": ("s", "wall_s on the fit workloads; setup_s through the dataset.csv write"),
    "data.self_s": ("s", "wall_s on the fit workloads"),
    "data.read_csv.s": ("s", "wall_s on both fit workloads; no change on recovery"),
    "data.encode.s": ("s", "wall_s on both fit workloads; no change on recovery"),
    "simulate.self_s": ("s", "setup_s on the fit workloads; wall_s on recovery"),
    "simulate.generate.s": ("s", "setup_s on the fit workloads; wall_s on recovery"),
    "simulate.generate.calls": ("count", "setup_s on the fit workloads; wall_s on recovery"),
    "simulate.recovery_study.self_s": ("s", "wall_s on recovery"),
    "fit.calls": ("count", "wall_s everywhere"),
    "fit.iterations": ("count", "wall_s everywhere; recovery most per-fit sensitive"),
    "fit.self_s": ("s", "wall_s everywhere; recovery most per-fit sensitive"),
    "fit.warnings": ("count", "wall_s everywhere"),
    "likelihood.evals": ("count", "wall_s everywhere"),
    "likelihood.self_s": ("s", "wall_s everywhere"),
    "likelihood.evals_per_iteration": ("ratio", "wall_s everywhere"),
    "special.self_s": ("s", "wall_s everywhere"),
    "special.digamma.calls": ("count", "wall_s everywhere"),
    "special.digamma.s": ("s", "wall_s everywhere"),
    "special.ln_gamma.calls": ("count", "wall_s everywhere"),
    "special.ln_gamma.s": ("s", "wall_s everywhere"),
    "distributions.self_s": ("s", "wall_s and peak_rss_mb on fit-hnb-large only"),
    "distributions.hnb_mean_var.calls": ("count", "wall_s and peak_rss_mb on fit-hnb-large only"),
    "distributions.hnb_mean_var.s": ("s", "wall_s and peak_rss_mb on fit-hnb-large only"),
    "diagnostics.self_s": ("s", "wall_s and peak_rss_mb on the fit workloads"),
    "diagnostics.pearson.s": ("s", "wall_s and peak_rss_mb on fit-hnb-large only"),
    "diagnostics.deviance_residuals.s": ("s", "wall_s on fit-nb-citation"),
    "diagnostics.frequency_table.s": ("s", "wall_s on the fit workloads"),
    "inference.self_s": ("s", "wall_s; negligible today"),
    "inference.s": ("s", "wall_s; negligible today"),
    "trace.main_s": ("s", "wall_s minus start-up, traced"),
    "trace.overhead_s": ("s", "none: traced minus untraced wall_s"),
    "trace.spans": ("count", "none: number of spans recorded"),
}

# The demos/05 hurdle design: oa with 3 levels plus readers, k = 4 per equation.
HURDLE_DESIGN = {
    "family": "HNB",
    "r": 0.6,
    "response": "cites",
    "covariates": [
        {"name": "oa", "kind": "categorical", "levels": ["closed", "green", "gold"],
         "probs": [0.6, 0.3, 0.1], "base": "closed"},
        {"name": "readers", "kind": "normal"},
    ],
    "beta": {"intercept": 1.5, "oa=green": 0.13, "oa=gold": 0.06, "readers": 0.4},
    "delta": {"intercept": -1.2, "oa=green": -0.3, "oa=gold": 0.1, "readers": -0.5},
}


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _digests(directory: Path, names) -> dict:
    return {name: _sha256(directory / name) for name in names if (directory / name).is_file()}


def _load(path: Path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _write_json(path: Path, doc) -> None:
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


@dataclass
class Sample:
    """One child process: its own wall time and rusage."""

    label: str
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    exit_code: int


class Runner:
    """Starts one child at a time and accounts each by its own rusage.

    ``os.wait4`` returns the rusage of that child alone; ``RUSAGE_CHILDREN``
    would carry the peak RSS of every earlier child into later ones.
    """

    def __init__(self, workdir: Path, deadline: float):
        self.workdir = workdir
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(REPO / "src"), os.environ.get("PYTHONPATH")) if p
        )
        self.samples: list[Sample] = []

    def run(self, label: str, argv: list[str]) -> Sample:
        timeout = max(self.deadline - time.monotonic(), 1.0)
        log = self.workdir / f"{label}.log"
        with open(log, "wb") as out:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                argv, cwd=self.workdir, env=self.env, stdout=out, stderr=subprocess.STDOUT
            )
            killer = threading.Timer(timeout, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        sample = Sample(
            label=label,
            wall_s=wall,
            cpu_s=usage.ru_utime + usage.ru_stime,
            peak_rss_mb=usage.ru_maxrss / 1024.0,
            exit_code=proc.returncode,
        )
        self.samples.append(sample)
        return sample

    def countreg(self, label: str, args: list[str]) -> Sample:
        return self.run(label, [sys.executable, "-m", "countreg", *args])


def _within(name, row, truth, problems):
    estimate, std_err = float(row["estimate"]), float(row["std_err"])
    if not std_err > 0.0 or abs(estimate - truth) > Z_LIMIT * std_err:
        problems.append(f"{name}: estimate {estimate} (SE {std_err}) vs truth {truth}")


def _truth(workdir: Path, dataset: int) -> dict:
    return _load(workdir / f"data{dataset}" / "truth.json")["truth"]


class FitWorkload:
    """``countreg fit`` on CSVs written by ``countreg simulate``.

    The BFGS iteration count, and so the fit time, differs from one dataset
    to the next (by up to a fifth for NB on the citation design), so a run
    fits ``datasets`` inputs drawn from sub-seeds of the run's seed and
    reports the median.
    """

    datasets = 3

    def __init__(self, name: str, family: str, design: dict, why: str, scale: Scale):
        self.name = name
        self.family = family
        self.design = design
        self.why = why
        self.scale = scale
        self.outputs = ("report.json", "frequency.csv", "pearson_residuals.csv")
        if family == "NB":
            self.outputs += ("deviance_residuals.csv",)

    def write_inputs(self, workdir: Path) -> None:
        _write_json(workdir / "design.json", self.design)

    def setup_args(self, seed: int, out: str) -> list[str]:
        return ["simulate", "--config", "design.json", "--seed", str(seed), "--out", out]

    def prepare(self, workdir: Path) -> None:
        sidecar = _load(workdir / "data0" / "truth.json")
        config = dict(sidecar["encoding_config"], family=self.family)
        _write_json(workdir / "run.json", config)

    def command_args(self, dataset: int, seed: int, out: str) -> list[str]:
        return ["fit", "--data", f"data{dataset}/dataset.csv", "--config", "run.json", "--out", out]

    def rows(self) -> int:
        return self.scale.citation_n

    def check(self, workdir: Path, dataset: int, out: Path) -> list[str]:
        missing = [name for name in self.outputs if not (out / name).is_file()]
        if missing:
            return [f"missing outputs {missing}"]
        report = _load(out / "report.json")
        truth = _truth(workdir, dataset)
        problems = []
        if report.get("converged") is not True:
            problems.append("report says converged is not true")
        if report.get("n") != self.scale.citation_n:
            problems.append(f"report n = {report.get('n')}, expected {self.scale.citation_n}")
        expected = dict(truth["beta"])
        rows = report["coefficients"] if self.family == "NB" else report["positives"]
        if self.family == "HNB":
            expected.update({f"zero:{k}": v for k, v in truth["delta"].items()})
            rows = rows + report["zeros"]
        by_name = {row["name"]: row for row in rows}
        if set(by_name) != set(expected):
            problems.append(f"coefficient names {sorted(by_name)} differ from the truth")
        for name, value in expected.items():
            if name in by_name:
                _within(name, by_name[name], value, problems)
        _within("r", report["dispersion"], truth["r"], problems)
        if self.family == "NB":
            ps = report["residuals"]["ps_over_df"]
            tolerance = PS_TOLERANCE_AT_CITATION_N * math.sqrt(CITATION_N / self.scale.citation_n)
            if not abs(ps - 1.0) <= tolerance:
                problems.append(f"ps_over_df {ps} is not within {tolerance:.3g} of 1")
        return problems


class RecoveryWorkload:
    """``countreg simulate`` with a recovery block: many small HNB fits.

    Each command already averages over its replications, so every command of
    a run uses the run's seed and set-up generates the same dataset each time.
    """

    name = "recovery-hnb-small"
    why = ("many small HNB fits (n = 2,500, k = 4 + 4) in one process: per-fit fixed "
           "costs and simulate.generate carry the run; no CSV read, no diagnostics")
    outputs = ("recovery.json",)
    datasets = 1

    def __init__(self, scale: Scale):
        self.scale = scale

    def write_inputs(self, workdir: Path) -> None:
        design = dict(HURDLE_DESIGN, n=self.scale.recovery_n, seed=0)
        _write_json(workdir / "design.json", design)
        recovery = dict(design, recovery={"replications": self.scale.replications})
        _write_json(workdir / "recovery_design.json", recovery)

    def setup_args(self, seed: int, out: str) -> list[str]:
        return ["simulate", "--config", "design.json", "--seed", str(seed), "--out", out]

    def prepare(self, workdir: Path) -> None:
        pass

    def command_args(self, dataset: int, seed: int, out: str) -> list[str]:
        return ["simulate", "--config", "recovery_design.json", "--seed", str(seed), "--out", out]

    def rows(self) -> int:
        return self.scale.recovery_n * self.scale.replications

    def check(self, workdir: Path, dataset: int, out: Path) -> list[str]:
        if not (out / "recovery.json").is_file():
            return ["missing outputs ['recovery.json']"]
        summary = _load(out / "recovery.json")
        truth = _truth(workdir, dataset)
        expected = dict(truth["beta"], r=truth["r"])
        expected.update({f"zero:{k}": v for k, v in truth["delta"].items()})
        problems = []
        if summary["completed"] != self.scale.replications:
            problems.append(f"completed {summary['completed']} of {self.scale.replications}")
        if summary["failures"]:
            problems.append(f"failures: {summary['failures'][:3]}")
        if set(summary["parameters"]) != set(expected):
            problems.append(f"parameters {sorted(summary['parameters'])} differ from the truth")
        for name, stats in summary["parameters"].items():
            if name in expected and stats["truth"] != expected[name]:
                problems.append(f"{name}: truth {stats['truth']} vs design {expected[name]}")
            coverage = stats["coverage_95"]
            if coverage is None or coverage < COVERAGE_FLOOR:
                problems.append(f"{name}: coverage_95 {coverage} < {COVERAGE_FLOOR}")
        return problems


Workload = FitWorkload | RecoveryWorkload


def workloads(scale: Scale = FULL) -> dict[str, Workload]:
    from countreg import citation_scale_design

    citation = citation_scale_design(n=scale.citation_n).to_dict()
    items = (
        FitWorkload(
            "fit-nb-citation", "NB", citation,
            "citation-scale NB fit (n = 43,190, k = 31): fit/likelihood/special carry the "
            "run, data.read_csv second, diagnostics near zero",
            scale,
        ),
        FitWorkload(
            "fit-hnb-large", "HNB", dict(HURDLE_DESIGN, n=scale.citation_n, seed=0),
            "HNB fit on n = 43,190 hurdle data (k = 4 + 4): the per-row diagnostics.pearson "
            "-> hnb_mean_var loop carries the run, which the NB fit never enters",
            scale,
        ),
        RecoveryWorkload(scale),
    )
    return {w.name: w for w in items}


class Bench:
    """One benchmark run of one workload."""

    def __init__(self, workload: Workload, seed: int, seconds: float, workdir: Path):
        self.workload = workload
        self.seeds = [seed * workload.datasets + i for i in range(workload.datasets)]
        self.seconds = seconds
        self.workdir = workdir
        self.runner = Runner(workdir, time.monotonic() + RUN_BUDGET_S)
        self.attempted = 0
        self.failures: list[dict] = []
        self.digests: dict[str, dict] = {"setup": {}, "outputs": {}}

    def _record(self, sample: Sample, problems: list[str]) -> None:
        self.attempted += 1
        if sample.exit_code != 0:
            problems = [f"exit code {sample.exit_code}"] + problems
        if problems:
            self.failures.append({"command": sample.label, "problems": problems})

    def _same_as_first(self, kind: str, dataset: int, digests: dict) -> list[str]:
        first = self.digests[kind].setdefault(dataset, digests)
        return [] if digests == first else [f"{kind} differ from the first for dataset {dataset}"]

    def setup(self) -> list[Sample]:
        """Generate the inputs; a dataset generated twice must be byte-identical."""
        w = self.workload
        w.write_inputs(self.workdir)
        samples = []
        for i in range(SETUP_REPEATS):
            dataset = i % w.datasets
            out = self.workdir / f"setup{i}"
            sample = self.runner.countreg(out.name, w.setup_args(self.seeds[dataset], out.name))
            digests = _digests(out, ("dataset.csv", "truth.json"))
            problems = [] if len(digests) == 2 else ["set-up outputs missing"]
            problems += self._same_as_first("setup", dataset, digests)
            self._record(sample, problems)
            samples.append(sample)
            if i < w.datasets:
                out.rename(self.workdir / f"data{dataset}")
            else:
                shutil.rmtree(out, ignore_errors=True)
        if not self.failures:
            w.prepare(self.workdir)
        return samples

    def command(self, label: str, dataset: int, traced: bool) -> tuple[Sample, dict | None]:
        w = self.workload
        args = w.command_args(dataset, self.seeds[dataset], label)
        if traced:
            spans_path = self.workdir / f"{label}.spans.json"
            argv = [sys.executable, str(BENCH / "spantrace.py"), str(spans_path), "--", *args]
            sample = self.runner.run(label, argv)
        else:
            sample = self.runner.countreg(label, args)
        out = self.workdir / label
        problems = w.check(self.workdir, dataset, out) if sample.exit_code == 0 else []
        if not problems:
            problems = self._same_as_first("outputs", dataset, _digests(out, w.outputs))
        layers = None
        if traced and sample.exit_code == 0:
            layers = spantrace.layer_metrics(_load(spans_path))
            problems += _trace_problems(layers, out)
            spans_path.unlink()
        self._record(sample, problems)
        shutil.rmtree(out, ignore_errors=True)
        return sample, layers

    def loop(self, traced: bool, prefix: str, datasets: int, at_least: int):
        """Closed loop over the datasets: repeat while another command should end in time."""
        results = []
        t0 = time.monotonic()
        while True:
            n = len(results)
            results.append(self.command(f"{prefix}{n}", n % datasets, traced))
            elapsed = time.monotonic() - t0
            typical = statistics.median(s.wall_s for s, _ in results)
            if len(results) >= at_least and elapsed + typical > self.seconds:
                break
            if self.failures or time.monotonic() + typical > self.runner.deadline:
                break
        return results

    def end_to_end(self) -> dict:
        setups = self.setup()
        if self.failures:
            return {}
        w = self.workload
        at_least = max(w.datasets, MIN_COMMANDS)
        samples = [s for s, _ in self.loop(False, "run", w.datasets, at_least)]
        wall = statistics.median(s.wall_s for s in samples)
        return {
            "wall_s": wall,
            "cpu_s": statistics.median(s.cpu_s for s in samples),
            "rows_per_s": w.rows() / wall,
            "peak_rss_mb": max(s.peak_rss_mb for s in samples),
            "setup_s": statistics.median(s.wall_s for s in setups),
        }

    def per_layer(self) -> dict:
        startup = [
            self.runner.run(f"startup{i}", [sys.executable, "-c", "import countreg"])
            for i in range(STARTUP_REPEATS)
        ]
        for sample in startup:
            self._record(sample, [])
        self.setup()
        if self.failures:
            return {}
        reference, _ = self.command("untraced", 0, traced=False)
        traced = self.loop(True, "traced", datasets=1, at_least=1)
        layers = [m for _, m in traced if m is not None]
        if not layers or self.failures:
            return {}
        metrics = {key: statistics.median(m[key] for m in layers) for key in layers[0]}
        metrics["cli.startup_s"] = statistics.median(s.wall_s for s in startup)
        metrics["trace.overhead_s"] = statistics.median(s.wall_s for s, _ in traced) - reference.wall_s
        return {name: metrics[name] for name in PER_LAYER}


def _trace_problems(layers: dict, out: Path) -> list[str]:
    problems = []
    total = sum(layers[f"{layer}.self_s"] for layer in spantrace.LAYERS)
    if abs(total - layers["trace.main_s"]) > 1e-6 * max(1.0, layers["trace.main_s"]):
        problems.append(f"layer self times sum to {total}, main took {layers['trace.main_s']}")
    report = out / "report.json"
    if report.is_file() and _load(report)["iterations"] != layers["fit.iterations"]:
        problems.append("traced fit iterations differ from report.json")
    return problems


def _blas_threads():
    """OpenBLAS thread count, read from the library numpy loaded."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _cache_sizes():
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    sizes = {}
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            sizes[f"L{level} {kind}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    return sizes


def _git_commit():
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=REPO, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((REPO / "src").rglob("*.py")):
        digest.update(path.relative_to(REPO).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(workload: Workload, seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "host": {
            "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu_model": _cpu_model(),
            "caches": _cache_sizes(),
            "platform": platform.platform(),
        },
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": _blas_threads()},
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "workload": workload.name,
        "why": workload.why,
        "seed": seed,
        "scale": dataclasses.asdict(workload.scale),
    }


def execute(name: str, seed: int, seconds: float, trace: bool, scale: Scale = FULL) -> dict:
    """Run one workload; return the result line plus the full record."""
    workload = workloads(scale)[name]
    WORK.mkdir(parents=True, exist_ok=True)
    workdir = WORK / f"{name}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir()
    bench = Bench(workload, seed, seconds, workdir)
    try:
        metrics = bench.per_layer() if trace else bench.end_to_end()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    units = {k: v[0] for k, v in PER_LAYER.items()} if trace else END_TO_END
    result = {
        "correct": not bench.failures and bool(metrics),
        "attempted": bench.attempted,
        "failed": len(bench.failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    record = {
        "result": result,
        "error_rate": len(bench.failures) / max(bench.attempted, 1),
        "failures": bench.failures,
        "output_sha256": bench.digests,
        "samples": [vars(s) for s in bench.runner.samples],
        "metric_layers": {k: v[1] for k, v in PER_LAYER.items()},
        "provenance": provenance(workload, seed),
    }
    return record


def main(argv=None) -> int:
    # Turn SIGTERM into SystemExit, so the running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (REPO / "src" / "countreg" / "__init__.py").is_file():
        print(f"bench: no countreg sources under {REPO / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(REPO / "src"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads()))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    record = execute(args.workload, args.seed, args.seconds, bool(args.trace))
    WORK.mkdir(parents=True, exist_ok=True)
    record_path = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    _write_json(record_path, record)
    result = record["result"]
    for name, metric in result["metrics"].items():
        print(f"{args.workload} {name} {metric['value']:.6g} {metric['unit']}")
    print(f"{args.workload} error_rate {record['error_rate']:.6g} "
          f"({result['failed']} of {result['attempted']} commands)")
    for failure in record["failures"]:
        print(f"FAILED {failure['command']}: {'; '.join(failure['problems'])}")
    print(f"outputs sha256: {json.dumps(record['output_sha256'], sort_keys=True)}")
    print(f"provenance: {json.dumps(record['provenance'], sort_keys=True)}")
    print(f"record: {record_path.relative_to(REPO)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
