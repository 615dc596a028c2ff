"""Command-line front end.

Subcommands::

    countreg fit       --data d.csv --config run.json --out outdir
    countreg compare   --data d.csv --config run.json --families P,NB,HNB --out outdir
    countreg simulate  --config design.json --out outdir [--seed N] [--threads N]
    countreg restrict  --data d.csv --config run.json --level 0.10 --out outdir

Threads and worker processes follow the policy that ``_parallel`` describes.

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
Pearson residual scatter, NB deviance residuals) and ``simulate``'s
``dataset.csv`` are CSVs in the format that ``data`` describes and writes.

Exit codes: 0 success, 1 configuration or I/O errors or out of memory, 2
statistical non-convergence (the report is still written, flagged).
"""

from __future__ import annotations

import argparse
import collections
import dataclasses
import json
import math
import sys
from pathlib import Path

from ._parallel import _one_blas_thread
from .data import NONNEGATIVE_INTEGER, OBJECT, PATH, PROBABILITY, STRING, ConfigDoc, DesignMatrix
from .data import EncodingConfig, _write_dataset_csv, _write_tables, encode, read_csv
from .diagnostics import deviance_residuals, frequency_table, pearson
from .exceptions import ConfigError, CountregError, SeparationError
from .fit import _OPTION_KINDS, FitOptions, _require_family, fit_family
from .inference import aic, compare, irr, wald_table
from .simulate import SimDesign, generate, recovery_study

SCHEMA_VERSION = 1
# A frequency table builds a grid of y_max + 1 values and takes time in
# proportion to its n * (y_max + 1) cells: 10**9 cells take 5-9 s on a
# 2-core host, and a grid of 10**9 values would take 7.5 GiB.
_Y_MAX_LIMIT = 10**6
_TABLE_CELLS = 10**9


def _fmt4(value: float) -> str:
    return f"{value:.4f}"


def _sig6(value: float):
    if not math.isfinite(value):
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


def _write_plot_data(out_dir, table, res, dev, y_max):
    """Write a fit's frequency ``table`` and residual CSVs; after a non-NB fit,
    remove the ``deviance_residuals.csv`` an earlier NB fit left."""
    empirical, fitted = table
    values = [str(v) for v in range(y_max + 1)] + [f">{y_max}"]
    columns = [("text", values), ("count", empirical), ("float", fitted)]
    _write_tables([(out_dir / "frequency.csv", ["value", "empirical", "fitted"], range(len(columns)))], columns)
    columns = [("float", res.mu), ("float", res.pearson)]
    files = [(out_dir / "pearson_residuals.csv", ["predicted_mean", "pearson_residual"], (0, 1))]
    if dev is not None:
        # Both residual sets take their means from diagnostics._rows: the two
        # CSVs are written in one pass, which formats each block of means once.
        columns.append(("float", dev.deviance))
        files.append((out_dir / "deviance_residuals.csv", ["predicted_mean", "deviance_residual"], (0, 2)))
    else:
        (out_dir / "deviance_residuals.csv").unlink(missing_ok=True)
    _write_tables(files, columns)


def _write_report(path, report):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")


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
        # A schema-1 "hessian_step" is accepted and ignored.
        options = FitOptions(**options.only((*_OPTION_KINDS, "hessian_step")).entries(_OPTION_KINDS))
    y_max = doc.get("y_max", NONNEGATIVE_INTEGER, None)
    if y_max is not None and y_max > _Y_MAX_LIMIT:
        raise ConfigError(f"'y_max' must be at most {_Y_MAX_LIMIT:,}, not {y_max}")
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
    if y.size * (y_max + 1) > _TABLE_CELLS:
        raise ConfigError(
            f"'y_max' = {y_max} asks for a frequency table of {y.size:,} rows x {y_max + 1:,} values,"
            f" above the limit of {_TABLE_CELLS:,} cells; set a smaller 'y_max'"
        )
    model = fit_family(run.family, X.X, y, X_h.X, run.options, X.labels, X_h.labels)
    report = _model_report(model, run.data)
    res, dev = _residuals(model, X.X, X_h.X, y)
    report["residuals"] = _residual_section(res, dev)
    # Every output is computed before the first file is written.
    table = frequency_table(y, model, y_max=y_max, X=X.X, X_h=X_h.X)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_report(out_dir / "report.json", report)
    _write_plot_data(out_dir, table, res, dev, y_max)
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


def cmd_simulate(args) -> int:
    if args.threads is not None and args.threads < 1:
        raise ConfigError(f"--threads must be a positive integer, not {args.threads}")
    if args.seed is not None and args.seed < 0:
        raise ConfigError(f"--seed must be a nonnegative integer, not {args.seed}")
    design = SimDesign.from_dict(_load_json(args.config))
    if args.seed is not None:
        design = dataclasses.replace(design, seed=args.seed)
    dataset, truth = generate(design)
    sidecar = {
        "schema_version": SCHEMA_VERSION,
        "command": "simulate",
        "design": design.to_dict(),
        "truth": truth,
        "encoding_config": design.encoding_config().to_dict(),
    }
    # The study runs before the first write: one that fails writes nothing.
    summary_report = None
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
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_dataset_csv(out_dir / "dataset.csv", dataset, args.threads)
    _write_report(out_dir / "truth.json", sidecar)
    if summary_report is None:
        (out_dir / "recovery.json").unlink(missing_ok=True)
    else:
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
    except MemoryError as exc:
        print("countreg: out of memory" + (f": {exc}" if str(exc) else ""), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
