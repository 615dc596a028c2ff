"""Dataset ingestion and design-matrix assembly.

A dataset holds one nonnegative-integer count response plus raw predictor
columns.  Encoding produces an n x k design matrix with a leading intercept
column, numeric columns (optionally transformed), binary columns, and one
dummy column per non-base categorical level, named ``"<var>=<level>"``.
Column order follows declaration order; categorical levels follow declared
order with the base level omitted.

The encoding configuration is a declarative JSON document::

    {
      "response": "cites",
      "predictors": [
        {"name": "oa", "kind": "categorical", "base": "closed",
         "levels": ["closed", "green", "bronze", "gold", "hybrid"]},
        {"name": "year", "kind": "numeric",
         "transform": {"type": "offset", "origin": 2014}},
        {"name": "age", "kind": "numeric", "transform": "log"},
        {"name": "funded", "kind": "binary"}
      ],
      "hurdle_predictors": ["oa", "funded"]
    }

``hurdle_predictors`` lists which predictors enter the hurdle equation;
omitted, the hurdle equation uses the same predictors as the mean equation.
Empty, unparsable and non-finite (``nan``, ``inf``) cells are rejected with
their coordinates; a log transform requires strictly positive values.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .exceptions import ConfigError, DataError

__all__ = [
    "Column",
    "Dataset",
    "DesignMatrix",
    "EncodingConfig",
    "PredictorSpec",
    "read_csv",
    "encode",
]

_KINDS = ("numeric", "categorical", "binary")
_TRANSFORMS = ("none", "log", "offset")


@dataclass(frozen=True)
class PredictorSpec:
    name: str
    kind: str = "numeric"
    transform: str = "none"
    origin: float = 0.0
    base: str | None = None
    levels: tuple[str, ...] | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ConfigError(f"unknown predictor kind {self.kind!r} for {self.name!r}")
        if self.transform not in _TRANSFORMS:
            raise ConfigError(
                f"unknown transform {self.transform!r} for {self.name!r}"
            )
        if self.kind == "categorical" and self.base is None:
            raise ConfigError(f"categorical predictor {self.name!r} needs a base level")
        if self.kind != "numeric" and self.transform != "none":
            raise ConfigError(f"transforms apply to numeric predictors only ({self.name!r})")


@dataclass(frozen=True)
class EncodingConfig:
    response: str
    predictors: tuple[PredictorSpec, ...]
    hurdle_predictors: tuple[str, ...] | None = None

    def __post_init__(self):
        names = [p.name for p in self.predictors]
        if len(set(names)) != len(names):
            raise ConfigError("duplicate predictor names")
        if self.hurdle_predictors is not None:
            unknown = set(self.hurdle_predictors) - set(names)
            if unknown:
                raise ConfigError(f"hurdle predictors not declared: {sorted(unknown)}")

    def hurdle_specs(self):
        if self.hurdle_predictors is None:
            return self.predictors
        keep = set(self.hurdle_predictors)
        return tuple(p for p in self.predictors if p.name in keep)

    @classmethod
    def from_dict(cls, doc: dict) -> "EncodingConfig":
        try:
            response = doc["response"]
            raw_predictors = doc["predictors"]
        except KeyError as exc:
            raise ConfigError(f"encoding config is missing {exc.args[0]!r}") from None
        specs = []
        for entry in raw_predictors:
            transform = entry.get("transform", "none")
            origin = 0.0
            if isinstance(transform, dict):
                if transform.get("type") != "offset" or "origin" not in transform:
                    raise ConfigError(f"bad transform spec for {entry.get('name')!r}")
                origin = float(transform["origin"])
                transform = "offset"
            levels = entry.get("levels")
            specs.append(
                PredictorSpec(
                    name=entry["name"],
                    kind=entry.get("kind", "numeric"),
                    transform=transform,
                    origin=origin,
                    base=entry.get("base"),
                    levels=tuple(levels) if levels is not None else None,
                )
            )
        hurdle = doc.get("hurdle_predictors")
        return cls(
            response=response,
            predictors=tuple(specs),
            hurdle_predictors=tuple(hurdle) if hurdle is not None else None,
        )

    @classmethod
    def from_json(cls, path) -> "EncodingConfig":
        with open(path, encoding="utf-8") as fh:
            try:
                doc = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"invalid JSON in {path}: {exc}") from None
        return cls.from_dict(doc)


@dataclass(frozen=True)
class Column:
    """One raw data column; values are floats or strings depending on kind."""

    name: str
    kind: str
    values: np.ndarray
    transform: str = "none"
    origin: float = 0.0


@dataclass(frozen=True)
class Dataset:
    """Response counts plus raw predictor columns, all of equal length."""

    y: np.ndarray
    columns: tuple[Column, ...]
    response_name: str = "y"

    def __post_init__(self):
        if self.y.ndim != 1:
            raise DataError("response must be one-dimensional")
        if np.any(self.y < 0):
            raise DataError("response counts must be nonnegative")
        for col in self.columns:
            if len(col.values) != self.n:
                raise DataError(f"column {col.name!r} length differs from response")

    @property
    def n(self) -> int:
        return int(self.y.shape[0])

    def column(self, name: str) -> Column:
        for col in self.columns:
            if col.name == name:
                return col
        raise KeyError(name)


@dataclass(frozen=True)
class DesignMatrix:
    """Intercept-leading design matrix with stable column labels."""

    X: np.ndarray
    labels: tuple[str, ...]
    base_levels: dict = field(default_factory=dict)

    @property
    def n(self) -> int:
        return int(self.X.shape[0])

    @property
    def k(self) -> int:
        return int(self.X.shape[1])


def _parse_count(raw, row, column):
    try:
        value = float(raw)
    except ValueError:
        raise DataError(f"unparsable count {raw!r}", row=row, column=column) from None
    if value < 0 or not value.is_integer():
        if not math.isfinite(value):
            problem = "non-finite"
        elif value < 0:
            problem = "negative"
        else:
            problem = "non-integer"
        raise DataError(f"{problem} count {raw!r}", row=row, column=column)
    return int(value)


def _parse_float(raw, row, column):
    try:
        return float(raw)
    except ValueError:
        raise DataError(f"unparsable numeric value {raw!r}", row=row, column=column) from None


def read_csv(path, config: EncodingConfig) -> Dataset:
    """Read an RFC 4180 CSV with a header row into a typed Dataset.

    Every declared column must exist; empty, unparsable and non-finite
    cells, and negative counts, are rejected with 1-based data-row
    coordinates.  Numeric columns are checked for finiteness once each,
    after parsing.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"empty file: {path}") from None
        index = {name: i for i, name in enumerate(header)}
        needed = [config.response] + [p.name for p in config.predictors]
        for name in needed:
            if name not in index:
                raise DataError(f"missing column {name!r} in {path}")
        y_vals = []
        raw_cols = {p.name: [] for p in config.predictors}
        for row_number, row in enumerate(reader, start=1):
            if len(row) != len(header):
                raise DataError("wrong field count", row=row_number, column=None)
            for name in needed:
                if row[index[name]].strip() == "":
                    raise DataError("empty cell", row=row_number, column=name)
            y_vals.append(_parse_count(row[index[config.response]], row_number, config.response))
            for spec in config.predictors:
                raw = row[index[spec.name]]
                if spec.kind == "categorical":
                    raw_cols[spec.name].append(raw)
                else:
                    value = _parse_float(raw, row_number, spec.name)
                    if spec.kind == "binary" and value not in (0.0, 1.0):
                        raise DataError(
                            f"binary column value {raw!r} not in {{0, 1}}",
                            row=row_number,
                            column=spec.name,
                        )
                    if spec.transform == "log" and value <= 0.0:
                        raise DataError(
                            f"log transform requires positive values, got {raw!r}",
                            row=row_number,
                            column=spec.name,
                        )
                    raw_cols[spec.name].append(value)
    if not y_vals:
        raise DataError(f"no data rows in {path}")
    columns = []
    for spec in config.predictors:
        values = raw_cols[spec.name]
        if spec.kind == "categorical":
            arr = np.array(values, dtype=object)
        else:
            arr = np.array(values, dtype=float)
            bad = np.flatnonzero(~np.isfinite(arr))
            if bad.size:
                raise DataError(
                    f"non-finite numeric value {arr[bad[0]]}",
                    row=int(bad[0]) + 1,
                    column=spec.name,
                )
        columns.append(
            Column(
                name=spec.name,
                kind=spec.kind,
                values=arr,
                transform=spec.transform,
                origin=spec.origin,
            )
        )
    return Dataset(
        y=np.array(y_vals, dtype=np.int64),
        columns=tuple(columns),
        response_name=config.response,
    )


def _encode_numeric(col_values, spec: PredictorSpec):
    values = np.asarray(col_values, dtype=float)
    if spec.transform == "log":
        if np.any(values <= 0.0):
            bad = int(np.flatnonzero(values <= 0.0)[0]) + 1
            raise DataError(
                "log transform requires strictly positive values",
                row=bad,
                column=spec.name,
            )
        return np.log(values)
    if spec.transform == "offset":
        return values - spec.origin
    return values


def encode_columns(columns, specs, n) -> DesignMatrix:
    """Encode raw columns for the given predictor specs (intercept first)."""
    by_name = {c.name: c for c in columns}
    blocks = [np.ones((n, 1))]
    labels = ["intercept"]
    base_levels = {}
    for spec in specs:
        if spec.name not in by_name:
            raise ConfigError(f"predictor {spec.name!r} not present in the data")
        col = by_name[spec.name]
        if spec.kind == "categorical":
            values = np.asarray(col.values, dtype=object)
            levels = list(spec.levels) if spec.levels is not None else list(dict.fromkeys(values))
            present = set(values.tolist())
            if spec.base not in levels:
                raise ConfigError(
                    f"base level {spec.base!r} of {spec.name!r} is not a declared level"
                )
            if spec.base not in present:
                raise ConfigError(
                    f"base level {spec.base!r} of {spec.name!r} does not occur in the data"
                )
            unseen = present - set(levels)
            if unseen:
                raise ConfigError(
                    f"values {sorted(unseen)} of {spec.name!r} are not declared levels"
                )
            base_levels[spec.name] = spec.base
            for level in levels:
                if level == spec.base:
                    continue
                blocks.append((values == level).astype(float).reshape(-1, 1))
                labels.append(f"{spec.name}={level}")
        elif spec.kind == "binary":
            values = np.asarray(col.values, dtype=float)
            if not np.isin(values, (0.0, 1.0)).all():
                raise DataError(f"binary column {spec.name!r} has values outside {{0, 1}}")
            blocks.append(values.reshape(-1, 1))
            labels.append(spec.name)
        else:
            blocks.append(_encode_numeric(col.values, spec).reshape(-1, 1))
            labels.append(spec.name)
    X = np.hstack(blocks)
    return DesignMatrix(X=X, labels=tuple(labels), base_levels=base_levels)


def encode(ds: Dataset, config: EncodingConfig, equation: str = "mean") -> DesignMatrix:
    """Assemble the design matrix for the mean or hurdle equation."""
    if equation == "mean":
        specs = config.predictors
    elif equation == "hurdle":
        specs = config.hurdle_specs()
    else:
        raise ConfigError(f"unknown equation {equation!r}")
    return encode_columns(ds.columns, specs, ds.n)
