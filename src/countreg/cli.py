"""Command-line front end.

Subcommands::

    countreg fit       --data d.csv --config run.json --out outdir
    countreg compare   --data d.csv --config run.json --families P,NB,HNB --out outdir
    countreg simulate  --config design.json --out outdir [--seed N] [--threads N]
    countreg restrict  --data d.csv --config run.json --level 0.10 --out outdir

``simulate`` runs a design's recovery study on one worker process per usable
CPU (its affinity set, else ``os.cpu_count()``), at most one per replication.
A CSV of at least twice ``_CELLS_PER_WORKER`` cells (a large ``dataset.csv``,
or the residuals of a fit of 166,667 rows or more) is formatted in row blocks
on one worker per ``_CELLS_PER_WORKER`` cells when workers start by fork, and
written in row order.  ``--threads N`` sets the count for both, and
``--threads 1`` keeps the whole command in the calling process.  The files
are byte-identical whatever the count.

Every command runs its BLAS on one thread: ``main`` sets the OpenBLAS that
numpy loaded to one thread and restores the caller's count when the command
returns, and forked workers inherit the one thread.  The worker processes are
the one level of parallelism, products such as ``X @ beta`` round the same
way on any host, and no idle BLAS thread spins between calls.  Where numpy's
BLAS is not an OpenBLAS found in ``/proc/self/maps``, nothing is changed.

The run configuration is a JSON document with the encoding fields
(``response``, ``predictors``, optional ``hurdle_predictors``) plus optional
``family`` (fit/restrict, default NB), ``families`` (compare), ``level``
(restrict), ``fit_options``, ``y_max`` (frequency table) and ``data``.
``_run_config`` reads them all through ``data.ConfigDoc`` before the CSV is
read, and ``SimDesign.from_dict`` reads a design the same way, so a malformed
value exits 1 with ``'<key path>' must be <what>, not <value>`` and any other
key with ``has unknown keys``.  ``fit_options`` may carry the schema-1 key
``hessian_step``, which is accepted and ignored.  An output directory is
created only once there is something to write.  Reports are JSON with
``schema_version`` 1; tabulated estimates are fixed to 4 decimals while
machine fields carry 6 significant digits.  Plot data (frequency table,
Pearson residual scatter, NB deviance residuals) is written as RFC 4180 CSV;
an NB fit's two residual CSVs share their means, so both are written in one
pass that formats each block of means once.

Exit codes: 0 success, 1 configuration or I/O errors, 2 statistical
non-convergence (the report is still written, flagged).
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import csv
import ctypes
import dataclasses
import functools
import io
import json
import math
import sys
from pathlib import Path

import numpy as np

from .data import _BLOCK_ROWS, NONNEGATIVE_INTEGER, OBJECT, PATH, POSITIVE, POSITIVE_INTEGER, PROBABILITY
from .data import STRING, ConfigDoc, DesignMatrix, EncodingConfig, encode, read_csv
from .diagnostics import deviance_residuals, frequency_table, pearson
from .exceptions import ConfigError, CountregError, SeparationError
from .fit import FitOptions, _require_family, fit_family
from .inference import aic, compare, irr, wald_table
from .simulate import SimDesign, _pool_map, _usable_cpus, _workers, generate, recovery_study

SCHEMA_VERSION = 1


def _fmt4(value: float) -> str:
    return f"{value:.4f}"


def _sig6(value: float):
    if value is None or not math.isfinite(value):
        return str(value)
    return float(f"{value:.6g}")


def _load_json(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"no such file: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in {path}: {exc}") from None


def _coefficient_row(report) -> dict:
    return {
        "name": report.name,
        "estimate": _fmt4(report.estimate),
        "std_err": _fmt4(report.std_err),
        "stars": report.stars,
        "ci_low": _fmt4(report.ci_low),
        "ci_high": _fmt4(report.ci_high),
        "z": _sig6(report.z),
        "p_value": _sig6(report.p_value),
    }


def _irr_row(report) -> dict:
    return {
        "name": report.name,
        "irr": _fmt4(report.irr),
        "std_err": _fmt4(report.irr_std_err),
        "ci_low": _fmt4(report.ci_low),
        "ci_high": _fmt4(report.ci_high),
    }


def _model_report(model, data_path):
    rows = wald_table(model)
    by_name = {row.name: row for row in rows}
    mean_rows = [_coefficient_row(by_name[name]) for name in model.mean_names]
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "fit",
        "family": model.family,
        "data": str(data_path),
        "n": model.n,
        "n_parameters": model.n_params,
        "converged": model.converged,
        "iterations": model.iterations,
        "gradient_norm": _sig6(model.gradient_norm),
        "loglik": _sig6(model.loglik),
        "aic": _sig6(aic(model)),
        "aic_int": int(round(aic(model))),
        "warnings": list(model.warnings),
    }
    if model.family == "HNB":
        report["positives"] = mean_rows
        report["zeros"] = [_coefficient_row(by_name[name]) for name in model.hurdle_names]
    else:
        report["coefficients"] = mean_rows
    if model.family != "P":
        report["dispersion"] = _coefficient_row(by_name["r"])
    irr_names = model.mean_names[1:]  # every CLI design leads with its intercept
    if irr_names:
        report["irr"] = [_irr_row(row) for row in irr(rows, irr_names)]
    return report


def _residuals(model, X, X_h, y):
    """(Pearson set, NB deviance set or None) of a fitted model."""
    res = pearson(model, X, y, X_h=X_h)
    return res, deviance_residuals(model, X, y) if model.family == "NB" else None


def _residual_section(res, dev):
    section = {}
    section["pearson_ps"] = _sig6(res.ps)
    section["df"] = res.df
    section["ps_over_df"] = _sig6(res.ps / res.df) if res.df > 0 else None
    if dev is not None:
        section["deviance_signed_sum"] = _sig6(dev.deviance_sum_signed)
        section["deviance_sum_squared"] = _sig6(dev.deviance_sum_squared)
        if dev.df > 0:
            section["deviance_signed_over_df"] = _sig6(dev.deviance_sum_signed / dev.df)
            section["deviance_squared_over_df"] = _sig6(dev.deviance_sum_squared / dev.df)
    return section


# A CSV is formatted on one worker process per this many cells, up to one
# per usable CPU, so a table of fewer than twice as many stays in the calling
# process.  On 2 CPUs a fresh `countreg simulate` of the citation-scale
# design gains from 2 workers from about 500,000 cells on; below that the
# pool's start-up (importing concurrent.futures, forking, moving the blocks:
# 50-70 ms) costs more than it saves.
_CELLS_PER_WORKER = 250_000


def _float_cells(values):
    """Each value as ``repr(float)``, the shortest text that reads back exactly.

    A column of integer-valued floats (finite, integral, |v| < 2**53, no
    -0.0) whose range spans fewer values than it has rows takes its text from
    a table of ``repr`` of each value in that range.
    """
    a = np.asarray(values, dtype=float)
    if a.size:
        lo, hi = float(a.min()), float(a.max())
        # NaN fails every comparison; infinities fail the magnitude bound.
        if (
            -(2.0**53) < lo
            and hi < 2.0**53
            and hi - lo < a.size
            and np.array_equal(a, np.trunc(a))
            and not np.any(np.signbit(a) & (a == 0.0))
        ):
            table = np.array([repr(float(v)) for v in range(int(lo), int(hi) + 1)], dtype=object)
            return table[(a - lo).astype(np.intp)].tolist()
    return list(map(repr, a.tolist()))


def _cells(kind, values):
    """CSV cell text of one column: ``count`` (integers), ``float``, or
    ``text`` (cells that are already CSV text, written as given)."""
    if kind == "count":
        return list(map(str, np.asarray(values).tolist()))
    if kind == "float":
        return _float_cells(values)
    return values


def _format_tables(tables, columns):
    """The CSV records of each table of equal-length ``(kind, values)``
    columns, UTF-8 encoded, one text per table.

    A table is a tuple of column indices; each column is formatted once,
    however many tables carry it.  Records end in ``\r\n``, as csv.writer ends
    them.
    """
    cells = [_cells(kind, values) for kind, values in columns]
    texts = []
    for table in tables:
        rows = list(map(",".join, zip(*(cells[i] for i in table))))
        rows.append("")
        texts.append("\r\n".join(rows).encode("utf-8"))
    return texts


def _write_tables(files, columns, threads=None):
    """Write CSVs over shared equal-length ``(kind, values)`` columns; each
    of ``files`` is a ``(path, header, column indices)``.

    Only the headers are written by the csv module; ``text`` cells must
    already be CSV text (strings go through ``_quoted``), and numbers need no
    quoting.  Rows are formatted in blocks of ``_BLOCK_ROWS``, the reader's
    block, each column once per block, so the text of one block at a time is
    held.  The blocks go to one worker process per ``_CELLS_PER_WORKER``
    cells of ``columns``, at most ``threads`` (None: one per usable CPU),
    when workers start by fork, and are written in row order, so the bytes do
    not depend on the count.
    """
    n = len(columns[0][1])
    workers = _workers(threads, n * len(columns) // _CELLS_PER_WORKER, _usable_cpus())
    if workers > 1:
        import multiprocessing

        # A spawned or forkserver worker imports numpy and countreg afresh
        # (about 0.3 s), which costs the citation-scale dataset.csv more than
        # its pool saves; only forked workers start as a copy of this process.
        if multiprocessing.get_start_method() != "fork":
            workers = 1
    blocks = [
        [(kind, values[start : start + _BLOCK_ROWS]) for kind, values in columns]
        for start in range(0, n, _BLOCK_ROWS)
    ]
    tables = tuple(tuple(indices) for _, _, indices in files)
    with contextlib.ExitStack() as stack:
        handles = [stack.enter_context(open(path, "wb")) for path, _, _ in files]
        for fh, (_, header, _) in zip(handles, files):
            head = io.StringIO()
            csv.writer(head).writerow(header)
            fh.write(head.getvalue().encode("utf-8"))
        for texts in _pool_map(functools.partial(_format_tables, tables), blocks, workers):
            for fh, text in zip(handles, texts):
                fh.write(text)


def _write_columns(path, header, columns, threads=None):
    """Write equal-length ``(kind, values)`` columns as one CSV under ``header``."""
    _write_tables([(path, header, range(len(columns)))], columns, threads)


def _quoted(values):
    """Each string as csv.writer writes it inside a record; each level once."""
    text = {}
    for value in set(values):
        buf = io.StringIO()
        csv.writer(buf).writerow([value, ""])
        text[value] = buf.getvalue()[: -len(",\r\n")]
    return list(map(text.__getitem__, values))


def _write_plot_data(out_dir, model, X, X_h, y, res, dev, y_max):
    empirical, fitted = frequency_table(y, model, y_max=y_max, X=X, X_h=X_h)
    values = [str(v) for v in range(y_max + 1)] + [f">{y_max}"]
    _write_columns(
        out_dir / "frequency.csv",
        ["value", "empirical", "fitted"],
        [("text", values), ("count", empirical), ("float", fitted)],
    )
    columns = [("float", res.mu), ("float", res.pearson)]
    files = [(out_dir / "pearson_residuals.csv", ["predicted_mean", "pearson_residual"], (0, 1))]
    if dev is not None:
        # Both residual sets take their means from diagnostics._rows: the two
        # CSVs are written in one pass, which formats each block of means once.
        columns.append(("float", dev.deviance))
        files.append((out_dir / "deviance_residuals.csv", ["predicted_mean", "deviance_residual"], (0, 2)))
    _write_tables(files, columns)


def _write_report(path, report):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")


# The kind of each fit option; a schema-1 "hessian_step" is accepted and ignored.
_FIT_OPTIONS = {
    "max_iterations": POSITIVE_INTEGER, "gradient_tolerance": POSITIVE, "step_halving_limit": POSITIVE_INTEGER
}


_Run = collections.namedtuple("_Run", "config data options family families level y_max")


def _run_config(args):
    """The checked run configuration of ``fit``, ``compare`` or ``restrict``,
    read before the data; ``--data``, ``--families`` and ``--level`` override
    the config's ``data``, ``families`` and ``level``."""
    raw = _load_json(args.config)
    config = EncodingConfig.from_dict(raw)
    run_keys = ("family", "families", "level", "fit_options", "y_max", "data")
    doc = ConfigDoc(raw).only(("response", "predictors", "hurdle_predictors", *run_keys), "the configuration")
    family = doc.get("family", STRING, "NB")
    families = doc.each("families", STRING, ())
    if getattr(args, "families", None):
        families = [f.strip() for f in args.families.split(",") if f.strip()]
    for name in [family, *families]:
        _require_family(name)
    level = doc.get("level", PROBABILITY, 0.10)
    if getattr(args, "level", None) is not None:
        if not 0.0 <= args.level <= 1.0:
            raise ConfigError(f"--level must be in [0, 1], not {args.level!r}")
        level = args.level
    options = doc.get("fit_options", OBJECT, None)
    if options is not None:
        options = FitOptions(**options.only((*_FIT_OPTIONS, "hessian_step")).entries(_FIT_OPTIONS))
    y_max = doc.get("y_max", NONNEGATIVE_INTEGER, None)
    data = doc.get("data", PATH, None)
    data = args.data or data
    if not data:
        raise ConfigError("no data file given (use --data or the config 'data' field)")
    return _Run(config, data, options, family, families, float(level), y_max)


def _prepare(run):
    """Read and encode the run's data; the raw columns are not returned, so
    one encoded copy of the data outlives this call."""
    dataset = read_csv(run.data, run.config)
    X = encode(dataset, run.config, equation="mean")
    # The hurdle equation shares X unless hurdle_predictors narrows it.
    shared = run.config.hurdle_specs() == run.config.predictors
    X_h = X if shared else encode(dataset, run.config, equation="hurdle")
    y_max = run.y_max if run.y_max is not None else min(int(dataset.y.max()), 200)
    return dataset.y, X, X_h, y_max


def cmd_fit(args) -> int:
    run = _run_config(args)
    y, X, X_h, y_max = _prepare(run)
    model = fit_family(run.family, X.X, y, X_h.X, run.options, X.labels, X_h.labels)
    report = _model_report(model, run.data)
    res, dev = _residuals(model, X.X, X_h.X, y)
    report["residuals"] = _residual_section(res, dev)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_report(out_dir / "report.json", report)
    _write_plot_data(out_dir, model, X.X, X_h.X, y, res, dev, y_max)
    return 0 if model.converged else 2


def cmd_compare(args) -> int:
    run = _run_config(args)
    if len(run.families) < 2:
        raise ConfigError("compare needs at least two families")
    y, X, X_h, _ = _prepare(run)
    models = [
        fit_family(family, X.X, y, X_h.X, run.options, X.labels, X_h.labels)
        for family in run.families
    ]
    ranking = compare(models)
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "compare",
        "data": str(run.data),
        "n": X.n,
        "best": ranking[0].family,
        "ranking": [
            {
                "family": row.family,
                "aic": _sig6(row.aic),
                "aic_int": int(round(row.aic)),
                "delta": _sig6(row.delta),
                "loglik": _sig6(row.loglik),
                "n_parameters": row.n_params,
                "converged": row.model.converged,
            }
            for row in ranking
        ],
    }
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_report(out_dir / "comparison.json", report)
    return 0 if all(m.converged for m in models) else 2


def _write_dataset_csv(path, dataset, threads=None):
    header = [dataset.response_name] + [col.name for col in dataset.columns]
    columns = [("count", dataset.y)] + [
        ("text", _quoted(list(map(str, col.values.tolist())))) if col.kind == "categorical"
        else ("float", col.values)
        for col in dataset.columns
    ]
    _write_columns(path, header, columns, threads)


def cmd_simulate(args) -> int:
    if args.threads is not None and args.threads < 1:
        raise ConfigError(f"--threads must be a positive integer, not {args.threads}")
    if args.seed is not None and args.seed < 0:
        raise ConfigError(f"--seed must be a nonnegative integer, not {args.seed}")
    design = SimDesign.from_dict(_load_json(args.config))
    if args.seed is not None:
        design = dataclasses.replace(design, seed=args.seed)
    dataset, truth = generate(design)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_dataset_csv(out_dir / "dataset.csv", dataset, args.threads)
    sidecar = {
        "schema_version": SCHEMA_VERSION,
        "command": "simulate",
        "design": design.to_dict(),
        "truth": truth,
        "encoding_config": {
            "response": design.response_name,
            "predictors": [
                {
                    "name": spec.name,
                    "kind": spec.kind,
                    **({"base": spec.base, "levels": list(spec.levels)} if spec.kind == "categorical" else {}),
                }
                for spec in design.encoding_config().predictors
            ],
        },
    }
    _write_report(out_dir / "truth.json", sidecar)
    if design.replications is not None:
        summary = recovery_study(design, design.replications, threads=args.threads)
        summary_report = {
            "schema_version": SCHEMA_VERSION,
            "command": "simulate/recovery",
            "design": design.to_dict(),
            "replications": summary["replications"],
            "completed": summary["completed"],
            "failures": summary["failures"],
            "parameters": {
                name: {key: _sig6(val) if isinstance(val, float) else val for key, val in stats.items()}
                for name, stats in summary["parameters"].items()
            },
        }
        _write_report(out_dir / "recovery.json", summary_report)
    return 0


def _prune(design, rows, level):
    """(positions, labels) of the covariate columns of ``design`` whose Wald
    ``rows`` have p <= level (or no p), and of the others."""
    kept, dropped = [], []
    for j, (predictor, row) in enumerate(zip(design.predictors, rows, strict=True)):
        if predictor is None:
            continue
        if not math.isnan(row.p_value) and row.p_value > level:
            dropped.append(design.labels[j])
        else:
            kept.append(j)
    return kept, dropped


def _narrowed(design, kept):
    """The intercept and every column of ``design`` whose predictor keeps a
    column at a position in ``kept``, in order: the layout ``encode_columns``
    gives those predictors (C order); ``design``'s array when every column
    survives."""
    names = {None} | {design.predictors[j] for j in kept}
    cols = [j for j, predictor in enumerate(design.predictors) if predictor in names]
    return DesignMatrix(
        X=design.X if len(cols) == design.k else design.X.take(cols, axis=1),
        labels=tuple(design.labels[j] for j in cols),
        predictors=tuple(design.predictors[j] for j in cols),
    )


def cmd_restrict(args) -> int:
    run = _run_config(args)
    y, X, X_h, _ = _prepare(run)
    full_model = fit_family(run.family, X.X, y, X_h.X, run.options, X.labels, X_h.labels)
    rows = wald_table(full_model)

    kept_mean, dropped_mean = _prune(X, rows[: X.k], run.level)
    warnings = []
    if not kept_mean:
        warnings.append("all mean-equation covariates dropped; intercept-only")
    Xr = Xr_h = _narrowed(X, kept_mean)

    dropped_zero = []
    if run.family == "HNB":
        kept_zero, dropped_zero = _prune(X_h, rows[-X_h.k :], run.level)
        if not kept_zero:
            warnings.append("all hurdle-equation covariates dropped; intercept-only")
        # Each equation keeps its own predictors: one may survive in the
        # hurdle equation only.
        Xr_h = _narrowed(X_h, kept_zero)

    restricted = fit_family(run.family, Xr.X, y, Xr_h.X, run.options, Xr.labels, Xr_h.labels)

    report = _model_report(restricted, run.data)
    report["command"] = "restrict"
    report["level"] = run.level
    report["dropped"] = {"mean": dropped_mean, "zeros": dropped_zero}
    report["restriction_warnings"] = warnings
    report["residuals"] = _residual_section(*_residuals(restricted, Xr.X, Xr_h.X, y))
    full_report = _model_report(full_model, run.data)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_report(out_dir / "restricted_report.json", report)
    _write_report(out_dir / "full_report.json", full_report)
    return 0 if restricted.converged else 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="countreg",
        description="Count-data regression: Poisson, negative binomial, and hurdle NB models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, data=True):
        if data:
            p.add_argument("--data", help="CSV data file (overrides the config 'data' field)")
        p.add_argument("--config", required=True, help="JSON configuration document")
        p.add_argument("--out", default="countreg_out", help="output directory")

    p_fit = sub.add_parser("fit", help="fit one model family and write reports")
    common(p_fit)
    p_fit.set_defaults(func=cmd_fit)

    p_cmp = sub.add_parser("compare", help="fit several families and rank by AIC")
    common(p_cmp)
    p_cmp.add_argument("--families", help="comma-separated families, e.g. P,NB,HNB")
    p_cmp.set_defaults(func=cmd_compare)

    p_sim = sub.add_parser("simulate", help="generate data from a simulation design")
    common(p_sim, data=False)
    p_sim.add_argument("--seed", type=int, help="override the design seed")
    p_sim.add_argument(
        "--threads",
        type=int,
        help="worker processes for the recovery study and the dataset.csv writer "
        "(default: one per usable CPU)",
    )
    p_sim.set_defaults(func=cmd_simulate)

    p_res = sub.add_parser("restrict", help="drop insignificant covariates and refit")
    common(p_res)
    p_res.add_argument("--level", type=float, help="significance level for pruning (default 0.10)")
    p_res.set_defaults(func=cmd_restrict)
    return parser


# (get, set) symbol pairs by which OpenBLAS builds export their thread count.
_OPENBLAS_THREADS = [
    (f"{prefix}_get_num_threads{suffix}", f"{prefix}_set_num_threads{suffix}")
    for prefix in ("openblas", "scipy_openblas")
    for suffix in ("", "64_")
]


def _openblas_threads():
    """(get, set) of the thread count of the OpenBLAS mapped into this
    process, or None where none is found."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _OPENBLAS_THREADS:
            get, set_ = getattr(lib, get_name, None), getattr(lib, set_name, None)
            if get is not None and set_ is not None:
                get.restype, get.argtypes, set_.argtypes = ctypes.c_int, [], [ctypes.c_int]
                return get, set_
    return None


@contextlib.contextmanager
def _one_blas_thread():
    """Run the body with OpenBLAS on one thread; the caller's count after."""
    blas = _openblas_threads()
    if blas is None:
        yield
        return
    get, set_ = blas
    threads = get()
    set_(1)
    try:
        yield
    finally:
        set_(threads)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse uses exit code 2 for usage errors; 2 is reserved here for
        # statistical non-convergence, so usage problems map to 1.
        return 0 if exc.code in (0, None) else 1
    try:
        with _one_blas_thread():
            return args.func(args)
    except (CountregError, ValueError, OSError) as exc:
        print(f"countreg: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, SeparationError) else 1


if __name__ == "__main__":
    sys.exit(main())
