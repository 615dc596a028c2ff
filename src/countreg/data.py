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
A key that no reader lists is refused.  A ``Column`` holds the raw name,
kind and values; transform, origin and base live on the ``PredictorSpec``.

A countreg CSV is UTF-8 text: a header, then one record per row, each ended
by CR LF.  The writers (``_write_tables``, and ``_write_dataset_csv``,
``read_csv``'s inverse) quote text as ``csv.writer`` does (``_quoted``) and
write counts with ``str`` and floats with ``repr``, which ``read_csv`` reads
back bit for bit (``_float_cells``), in blocks of ``_BLOCK_ROWS`` rows, the
exact reader's block, on ``_parallel._csv_workers`` worker processes.

``read_csv`` reads one handle, whose ``utf-8-sig`` codec skips a UTF-8
byte-order mark, as Excel's "CSV UTF-8" files carry one.  It refuses a
header that lacks a column the configuration reads or names such a column
twice; a column it does not read may be named twice.  Its exact reader
reads the data records in blocks: it accepts each block's columns (``_accepted``), else reports its
first bad record (``_row_problem``).  Empty, unparsable and non-finite
(``nan``, ``inf``) cells are rejected with their coordinates, and a record
that ``csv`` cannot read or that holds bytes that are not UTF-8 with its
row; a log transform requires strictly positive values.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import numbers
import re
import sys
from collections import deque
from dataclasses import dataclass
from functools import partial
from itertools import chain, islice

import numpy as np

from ._parallel import _csv_workers, _pool_map
from .distributions import _bad_counts
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
# Rows per block, read or written.  On a 43,190 x 32 CSV (2-core Xeon)
# blocks of 1,024 rows read in 0.55 s, 256 in 0.59 s, 4,096 in 0.65 s and
# 16,384 in 0.77 s.  Only one block's cell strings are alive at a time.
_BLOCK_ROWS = 1024
# Bytes that loadtxt strips from a number as whitespace and float() rejects:
# a file holding any of them is left to the exact reader.
_SEPARATORS = b"\x1c\x1d\x1e\x1f"
_LINE_ENDS = ("\n", "\r\n", "\r")
# An undecodable byte b, read with errors="surrogateescape", is the lone
# surrogate U+DC00 + b; UTF-8 never decodes to one nor encodes any.
_UNDECODABLE = re.compile("[\udc80-\udcff]")
_SURROGATE = re.compile("[\ud800-\udfff]")
_REQUIRED = object()


def _integer(value) -> bool:
    """Whether ``value`` is an integer (not a bool), as numpy's are."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _finite(value) -> bool:
    """Whether ``value`` is a real number (not a bool) that is finite as a float."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and abs(value) <= sys.float_info.max


# (what, test) of each kind of value a JSON configuration document holds.
STRING = ("a string", lambda v: isinstance(v, str))
PATH = ("a file path", lambda v: isinstance(v, str) and "\0" not in v)
NUMBER = ("a finite number", _finite)
POSITIVE = ("a positive finite number", lambda v: _finite(v) and v > 0)
NONNEGATIVE = ("a nonnegative finite number", lambda v: _finite(v) and v >= 0)
PROBABILITY = ("a number in [0, 1]", lambda v: _finite(v) and 0 <= v <= 1)
POSITIVE_INTEGER = ("a positive integer", lambda v: _integer(v) and v >= 1)
NONNEGATIVE_INTEGER = ("a nonnegative integer", lambda v: _integer(v) and v >= 0)
LIST = ("a list", lambda v: isinstance(v, list))
OBJECT = ("an object", lambda v: isinstance(v, dict))
_TRANSFORM = ("a string or an object", lambda v: isinstance(v, (str, dict)))
_OFFSET = ("'offset'", lambda v: v == "offset")


class ConfigDoc:
    """A JSON object or list of a configuration document at key path
    ``path`` (such as ``covariates[2]``), read through typed getters.

    A key that is missing, or null where the default is None, reads as the
    default, and as None without one.  A value that is not of its kind
    raises ``ConfigError("'<key path>' must be <what>, not <repr>")``, and
    ``only`` refuses a key its reader does not list as ``has unknown keys``.
    """

    def __init__(self, value, path=""):
        self.value = value
        self.path = path

    def get(self, key, kind, default=_REQUIRED):
        """The entry at ``key`` (an object key or a list index), checked as
        ``kind``; an object or a list comes back as a ConfigDoc."""
        missing = isinstance(key, str) and key not in self.value
        value = None if missing else self.value[key]
        if default is not _REQUIRED and (missing or (value is None and default is None)):
            return default
        path = f"{self.path}[{key}]" if isinstance(key, int) else f"{self.path}.{key}" if self.path else key
        what, test = kind
        if not test(value):
            raise ConfigError(f"'{path}' must be {what}, not {value!r}")
        if kind is STRING and _SURROGATE.search(value):
            raise ConfigError(f"'{path}' must be a string that UTF-8 can encode, not {value!r}")
        return ConfigDoc(value, path) if isinstance(value, (dict, list)) else value

    def only(self, keys, name=None) -> "ConfigDoc":
        """This object, once ``keys`` lists each of its keys; ``name`` names a whole document."""
        unknown = sorted(set(self.value) - set(keys))
        if unknown:
            where = name or f"'{self.path}'"
            raise ConfigError(f"{where} has unknown keys {unknown}")
        return self

    def each(self, key, kind, default=_REQUIRED):
        """The entries of the list at ``key`` as a tuple, each checked as ``kind``."""
        items = self.get(key, LIST, default)
        return default if items is default else tuple(items.get(i, kind) for i in range(len(items.value)))

    def entries(self, kinds) -> dict:
        """The entries of this object that the dict ``kinds`` names, each
        checked as its kind, or, given one kind, every entry checked as it."""
        kinds = kinds if isinstance(kinds, dict) else dict.fromkeys(self.value, kinds)
        return {key: self.get(key, kind) for key, kind in kinds.items() if key in self.value}


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
            raise ConfigError(f"unknown transform {self.transform!r} for {self.name!r}")
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
            raise ConfigError(f"duplicate predictor names in {names}")
        if self.response in names:
            raise ConfigError(f"response {self.response!r} is also a predictor")
        unknown = set(self.hurdle_predictors or ()) - set(names)
        if unknown:
            raise ConfigError(f"hurdle predictors not declared: {sorted(unknown)}")

    def hurdle_specs(self):
        if self.hurdle_predictors is None:
            return self.predictors
        keep = set(self.hurdle_predictors)
        return tuple(p for p in self.predictors if p.name in keep)

    @classmethod
    def from_dict(cls, doc: dict) -> "EncodingConfig":
        if not isinstance(doc, dict):
            raise ConfigError(f"the configuration must be a JSON object, not {type(doc).__name__}")
        doc = ConfigDoc(doc)
        response = doc.get("response", STRING)
        specs = []
        for entry in doc.each("predictors", OBJECT):
            entry.only(("name", "kind", "transform", "base", "levels"))
            name = entry.get("name", STRING)
            transform = entry.get("transform", _TRANSFORM, "none")
            origin = 0.0
            if isinstance(transform, ConfigDoc):
                transform.only(("type", "origin")).get("type", _OFFSET)
                origin = float(transform.get("origin", NUMBER))
                transform = "offset"
            specs.append(
                PredictorSpec(
                    name=name,
                    kind=entry.get("kind", STRING, "numeric"),
                    transform=transform,
                    origin=origin,
                    base=entry.get("base", STRING, None),
                    levels=entry.each("levels", STRING, None),
                )
            )
        return cls(response, tuple(specs), doc.each("hurdle_predictors", STRING, None))

    def to_dict(self) -> dict:
        """The document ``from_dict`` reads back as this configuration; a
        predictor's ``transform``, ``base`` and ``levels`` and the
        ``hurdle_predictors`` are written only when set."""
        predictors = []
        for spec in self.predictors:
            entry = {"name": spec.name, "kind": spec.kind}
            if spec.transform == "offset":
                entry["transform"] = {"type": "offset", "origin": spec.origin}
            elif spec.transform != "none":
                entry["transform"] = spec.transform
            if spec.base is not None:
                entry["base"] = spec.base
            if spec.levels is not None:
                entry["levels"] = list(spec.levels)
            predictors.append(entry)
        doc = {"response": self.response, "predictors": predictors}
        if self.hurdle_predictors is not None:
            doc["hurdle_predictors"] = list(self.hurdle_predictors)
        return doc


@dataclass(frozen=True)
class Column:
    """One raw data column; values are floats or strings depending on kind."""

    name: str
    kind: str
    values: np.ndarray


@dataclass(frozen=True)
class Dataset:
    """Response counts plus raw predictor columns, all of equal length."""

    y: np.ndarray
    columns: tuple[Column, ...]
    response_name: str = "y"

    def __post_init__(self):
        if self.y.ndim != 1:
            raise DataError("response must be one-dimensional")
        if np.any(_bad_counts(self.y)):
            raise DataError("response counts must be nonnegative integers")
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
    predictors: tuple[str | None, ...]  # each column's predictor; None for the intercept

    @property
    def n(self) -> int:
        return int(self.X.shape[0])

    @property
    def k(self) -> int:
        return int(self.X.shape[1])


def _bad_values(values, kind):
    """Mask of parsed cells that fail the column's value check."""
    if kind == "count":
        return _bad_counts(values)
    if kind == "binary":
        return (values != 0.0) & (values != 1.0)
    if kind == "log":
        return ~(np.isfinite(values) & (values > 0.0))
    return ~np.isfinite(values)


def _accepted(values, kind):
    """The array of a parsed column whose every cell passes its check, or None."""
    if kind == "categorical":
        return values if all(map(str.strip, values)) else None
    if _bad_values(values, kind).any():
        return None
    return values.astype(np.int64) if kind == "count" else values


def _cell_problem(raw, kind):
    """Error message for one non-empty cell, or None if it passes its column's check."""
    if kind == "categorical":
        return None
    try:
        value = float(raw)
    except ValueError:
        return f"unparsable {'count' if kind == 'count' else 'numeric value'} {raw!r}"
    if not _bad_values(np.float64(value), kind):
        return None
    if kind == "count":
        if not math.isfinite(value):
            problem = "non-finite"
        elif value < 0.0:
            problem = "negative"
        elif not value.is_integer():
            problem = "non-integer"
        else:
            return f"count too large {raw!r}"
        return f"{problem} count {raw!r}"
    if not math.isfinite(value):
        return f"non-finite numeric value {value}"
    if kind == "binary":
        return f"binary column value {raw!r} not in {{0, 1}}"
    return f"log transform requires positive values, got {raw!r}"


def _row_problem(record, width, fields):
    """(message, column) of the first check that ``record`` fails, or None.

    The checks run in this order: a record that could not be read (its
    problem text, see ``_records``), the field count, empty cells in field
    order, then each field's own check in field order.
    """
    if isinstance(record, str):
        return record, None
    if len(record) != width:
        return "wrong field count", None
    for position, name, _ in fields:
        if not record[position].strip():
            return "empty cell", name
    for position, name, kind in fields:
        problem = _cell_problem(record[position], kind)
        if problem:
            return problem, name
    return None


def _block_column(cells, kind):
    """One block column, numbers parsed as ``float()`` parses them, if accepted; else None."""
    if kind == "categorical":
        return _accepted(np.array(cells, dtype=object), kind)
    try:
        values = np.fromiter(map(float, cells), float, len(cells))
    except ValueError:
        return None
    return _accepted(values, kind)


def _read_block(rows, first_row, width, fields):
    """Parse one block of records into one array per (position, name, kind) field.

    Accepts the block's columns whole (``_accepted``), else raises the
    DataError of the block's first bad record (``_row_problem``).
    """
    # An unreadable record can only be the last one: ``_records`` ends there.
    if not isinstance(rows[-1], str) and set(map(len, rows)) == {width}:
        table = list(zip(*rows))
        arrays = [_block_column(table[position], kind) for position, _, kind in fields]
        if all(values is not None for values in arrays):
            return arrays
    for offset, record in enumerate(rows):
        problem = _row_problem(record, width, fields)
        if problem:
            raise DataError(problem[0], row=first_row + offset, column=problem[1])


def _records(reader, rescan):
    """The records of ``reader``, ending with the problem text of the first
    one that csv.reader cannot read (a field over ``csv.field_size_limit()``)
    or, on a ``rescan``, that holds an undecodable byte, in its place."""
    try:
        for record in reader:
            bad = _UNDECODABLE.search("".join(record)) if rescan else None
            if bad:
                yield f"undecodable byte 0x{ord(bad.group()) - 0xDC00:02x}"
                return
            yield record
    except csv.Error as exc:
        yield str(exc)


def _read_blocks(records, width, fields, path):
    """Parse ``records`` (see ``_records``) block by block (see ``_read_block``)."""
    blocks = []
    n = 0
    while rows := list(islice(records, _BLOCK_ROWS)):
        blocks.append(_read_block(rows, n + 1, width, fields))
        n += len(rows)
    if not blocks:
        raise DataError(f"no data rows in {path}")
    return [np.concatenate(parts) for parts in zip(*blocks)]


def _has_separators(fh):
    """Whether ``fh``'s bytes, read 1 MiB at a time, hold any of ``_SEPARATORS``."""
    chunks = iter(partial(fh.buffer.read, 1 << 20), b"")
    found = any(byte in chunk for chunk in chunks for byte in _SEPARATORS)
    fh.seek(0)
    return found


def _csv_reads(fh):
    """Whether csv.reader reads every record of ``fh`` from its start."""
    fh.seek(0)
    try:
        deque(csv.reader(fh), maxlen=0)
    except csv.Error:
        return False
    return True


def _loadtxt_fields(fh, width, fields):
    """Arrays of a clean file from numpy's C tokenizer, or None to decline.

    ``fh``, just past the header, yields the records split into lines as
    csv.reader splits them, so quoting and line ends tokenize alike.  Every
    header column is parsed into one table, which checks each row's field
    count: read numbers are views of that table (counts are converted to
    int64), read text columns hold ``str`` objects, and unread columns are
    one-character fields, so an unread cell costs 4 bytes; no column is read
    twice, as the configuration names each column once.  Any doubt declines:
    no data line, any ValueError (undecodable bytes, a cell loadtxt cannot
    parse, a wrong field count, a blank line, even one inside quotes, a line
    longer than csv's field limit), a quoted cell spread over lines that
    csv.reader cannot read from ``fh``'s start (it may pass the line check,
    yet be longer than the limit), a failed value check or an empty
    categorical cell.  A decline may leave ``fh`` anywhere.
    """
    numeric = {position for position, _, kind in fields if kind != "categorical"}
    text = {position for position, _, kind in fields if kind == "categorical"}
    # A column that is not read is still tokenized, so every row's field
    # count is checked, but keeps one character of each cell.
    dtype = [(f"f{i}", float if i in numeric else object if i in text else "U1") for i in range(width)]
    limit = csv.field_size_limit()
    read = [0]  # lines

    def checked(line):
        # loadtxt skips a blank line and reads a line over csv's field limit;
        # csv.reader returns an empty record for one and raises for the other.
        if line in _LINE_ENDS or len(line) > limit:
            raise ValueError("blank or long line")
        read[0] += 1
        return line

    try:
        first = next(fh, None)
        if first is None:
            return None
        table = np.loadtxt(
            map(checked, chain([first], fh)),
            dtype=dtype, delimiter=",", quotechar='"', comments=None, ndmin=1,
        )
    except ValueError:
        return None
    # Fewer records than lines: a quoted cell spans lines that each passed.
    if table.size < read[0] and not _csv_reads(fh):
        return None
    arrays = [_accepted(table[f"f{position}"], kind) for position, _, kind in fields]
    return None if any(values is None for values in arrays) else arrays


def _read_fields(fh, path, config, rescan):
    """The arrays of the response and the predictors read from ``fh`` at 0;
    the fast path is tried unless ``rescan`` or the file holds a separator."""
    fast = not rescan and not _has_separators(fh)
    header = next(_records(csv.reader(fh), rescan), None)
    if header is None:
        raise DataError(f"empty file: {path}")
    if isinstance(header, str):
        raise DataError(f"{header} in the header of {path}")
    index = {name: i for i, name in enumerate(header)}
    # (column, check): the response is a count, a log-transformed numeric
    # column must also be positive.
    needed = [(config.response, "count")]
    needed += [(p.name, "log" if p.transform == "log" else p.kind) for p in config.predictors]
    for name, _ in needed:
        if name not in index:
            raise DataError(f"missing column {name!r} in {path}")
        if header.count(name) > 1:
            raise DataError(f"column {name!r} appears more than once in the header of {path}")
    fields = [(index[name], name, kind) for name, kind in needed]
    arrays = _loadtxt_fields(fh, len(header), fields) if fast else None
    if arrays is None:
        fh.seek(0)
        records = _records(csv.reader(fh), rescan)
        next(records)
        arrays = _read_blocks(records, len(header), fields, path)
    return arrays


def read_csv(path, config: EncodingConfig) -> Dataset:
    """Read an RFC 4180 CSV with a header row into a typed Dataset.

    The header is parsed by ``csv.reader``.  The data records are first
    tried in one ``np.loadtxt`` call (numpy's C tokenizer; ``quotechar``
    needs numpy >= 1.23) over every header column: read numbers are views of
    one parsed table, unread columns are one-character fields, and a read
    categorical column holds ``str`` objects.  That fast path only accepts:
    it returns the Dataset the exact reader would return, or declines (see
    ``_loadtxt_fields``), and the exact reader reads the handle again from
    its start.  The numeric columns of a Dataset it returns are therefore
    strided views that keep the whole table alive.  loadtxt parses numbers as
    ``float()`` does wherever both accept a cell, and rejects ``1_000`` and
    non-ASCII digits, which ``float()`` accepts.

    The exact reader reads the records in blocks of ``_BLOCK_ROWS``.  It
    accepts each block's columns (``_accepted``), each needed column parsed
    with ``float`` in one pass and checked with one vectorized mask, else
    reports its first bad record (``_row_problem``); the blocks are
    concatenated.  Every error about a data record comes from it and names
    the first bad data row in file order (1-based).  Every declared column
    must occur in the header exactly once.  Within a record the checks run
    as: a record that csv.reader cannot read (a field longer than
    ``csv.field_size_limit()``) or that holds bytes that are not UTF-8; the
    field count; empty cells (response first, then predictors in config
    order); the response count (unparsable, non-finite, negative,
    non-integer, too large for int64); then each predictor in config order
    (unparsable, non-finite, binary value outside {0, 1}, log-transformed
    value <= 0).  The file is opened once: the byte scan for separators, the
    parse, the csv check and the rescan all read one ``utf-8-sig`` handle,
    whose codec skips a byte-order mark after each seek to 0.  A decoding
    error alone starts the rescan, which locates the undecodable byte by
    decoding the handle again with each such byte kept as a lone surrogate.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        try:
            arrays = _read_fields(fh, path, config, rescan=False)
        except UnicodeDecodeError:
            fh.seek(0)
            fh.reconfigure(errors="surrogateescape")
            arrays = _read_fields(fh, path, config, rescan=True)
    y, *values = arrays
    columns = tuple(Column(spec.name, spec.kind, arr) for spec, arr in zip(config.predictors, values))
    return Dataset(y=y, columns=columns, response_name=config.response)


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
    however many tables carry it.
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

    Only the headers go through the csv module: ``text`` cells must already
    be CSV text (``_quoted``).  Each block formats each column once, one
    block's text at a time is held, and the blocks are written in row order,
    so the bytes do not depend on the worker count.
    """
    n = len(columns[0][1])
    workers = _csv_workers(threads, n * len(columns))
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
        for texts in _pool_map(partial(_format_tables, tables), blocks, workers):
            for fh, text in zip(handles, texts):
                fh.write(text)


def _quoted(values):
    """Each string as csv.writer writes it inside a record; each level once."""
    text = {}
    for value in set(values):
        buf = io.StringIO()
        csv.writer(buf).writerow([value, ""])
        text[value] = buf.getvalue()[: -len(",\r\n")]
    return list(map(text.__getitem__, values))


def _write_dataset_csv(path, dataset, threads=None):
    """Write ``dataset`` as the CSV that ``read_csv`` reads back as it."""
    header = [dataset.response_name] + [col.name for col in dataset.columns]
    columns = [("count", dataset.y)] + [
        ("text", _quoted(list(map(str, col.values.tolist())))) if col.kind == "categorical"
        else ("float", col.values)
        for col in dataset.columns
    ]
    _write_tables([(path, header, range(len(columns)))], columns, threads)


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
    owners = {"intercept": None}  # label -> the predictor that gave it
    for spec in specs:
        start = len(labels)
        if spec.name not in by_name:
            raise ConfigError(f"predictor {spec.name!r} not present in the data")
        col = by_name[spec.name]
        if spec.kind == "categorical":
            values = np.asarray(col.values, dtype=object)
            levels = list(spec.levels) if spec.levels is not None else list(dict.fromkeys(values))
            present = set(values.tolist())
            if spec.base not in levels:
                raise ConfigError(f"base level {spec.base!r} of {spec.name!r} is not a declared level")
            if spec.base not in present:
                raise ConfigError(f"base level {spec.base!r} of {spec.name!r} does not occur in the data")
            unseen = present - set(levels)
            if unseen:
                raise ConfigError(f"values {sorted(unseen)} of {spec.name!r} are not declared levels")
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
        for label in labels[start:]:
            if label in owners:
                first = "the intercept" if owners[label] is None else f"predictor {owners[label]!r}"
                raise ConfigError(f"design column {label!r} is given by both {first} and predictor {spec.name!r}")
            owners[label] = spec.name
    X = np.hstack(blocks)
    return DesignMatrix(X=X, labels=tuple(labels), predictors=tuple(owners.values()))


def encode(ds: Dataset, config: EncodingConfig, equation: str = "mean") -> DesignMatrix:
    """Assemble the design matrix for the mean or hurdle equation."""
    if equation not in ("mean", "hurdle"):
        raise ConfigError(f"unknown equation {equation!r}")
    specs = config.predictors if equation == "mean" else config.hurdle_specs()
    return encode_columns(ds.columns, specs, ds.n)
