"""Block-wise CSV reading and column-wise CSV writing against row-by-row oracles."""

import concurrent.futures
import csv
import math
import multiprocessing
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from countreg import cli
from countreg import data as data_module
from countreg.data import _BLOCK_ROWS, Column, Dataset, EncodingConfig, PredictorSpec, read_csv
from countreg.exceptions import DataError
from countreg.fit import fit_family


def _oracle_count(raw, row, column):
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
    if value >= 2**63:
        raise DataError(f"count too large {raw!r}", row=row, column=column)
    return int(value)


def _oracle_records(reader, path):
    """(row number, record) pairs, the header as row 0.  A record csv.reader
    cannot read, or one holding an undecodable byte (a lone surrogate under
    errors="surrogateescape"), raises a DataError naming its row."""
    row = 0
    while True:
        try:
            record = next(reader)
        except StopIteration:
            return
        except csv.Error as exc:
            problem = str(exc)
        else:
            # Decoding never yields a surrogate, so the first character that
            # UTF-8 cannot encode is the first undecodable byte.
            try:
                "".join(record).encode("utf-8")
            except UnicodeEncodeError as exc:
                problem = f"undecodable byte 0x{ord(exc.object[exc.start]) - 0xDC00:02x}"
            else:
                yield row, record
                row += 1
                continue
        if row == 0:
            raise DataError(f"{problem} in the header of {path}")
        raise DataError(problem, row=row)


def oracle_read_csv(path, config):
    """The row-by-row reader: every check on one row before the next row."""
    with open(path, newline="", encoding="utf-8", errors="surrogateescape") as fh:
        records = _oracle_records(csv.reader(fh), path)
        first = next(records, None)
        if first is None:
            raise DataError(f"empty file: {path}")
        header = first[1]
        index = {name: i for i, name in enumerate(header)}
        needed = [config.response] + [p.name for p in config.predictors]
        for name in needed:
            if name not in index:
                raise DataError(f"missing column {name!r} in {path}")
        y_vals = []
        raw_cols = {p.name: [] for p in config.predictors}
        for row_number, row in records:
            if len(row) != len(header):
                raise DataError("wrong field count", row=row_number, column=None)
            for name in needed:
                if row[index[name]].strip() == "":
                    raise DataError("empty cell", row=row_number, column=name)
            y_vals.append(_oracle_count(row[index[config.response]], row_number, config.response))
            for spec in config.predictors:
                raw = row[index[spec.name]]
                if spec.kind == "categorical":
                    raw_cols[spec.name].append(raw)
                    continue
                try:
                    value = float(raw)
                except ValueError:
                    raise DataError(
                        f"unparsable numeric value {raw!r}", row=row_number, column=spec.name
                    ) from None
                if not math.isfinite(value):
                    raise DataError(
                        f"non-finite numeric value {value}", row=row_number, column=spec.name
                    )
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
    columns = tuple(
        Column(
            name=spec.name,
            kind=spec.kind,
            values=np.array(
                raw_cols[spec.name], dtype=object if spec.kind == "categorical" else float
            ),
        )
        for spec in config.predictors
    )
    return Dataset(y=np.array(y_vals, dtype=np.int64), columns=columns, response_name=config.response)


# Header order differs from config order, so the error ranking must follow
# the config; "skip" is never read and may hold anything.
HEADER = ["x", "skip", "cites", "s", "oa", "d"]
LEVELS = ["plain", "a,b", 'say "hi"', "two\nlines", " padded "]
CONFIG = EncodingConfig(
    response="cites",
    predictors=(
        PredictorSpec(name="oa", kind="categorical", base="plain", levels=tuple(LEVELS)),
        PredictorSpec(name="x", kind="numeric", transform="offset", origin=2.0),
        PredictorSpec(name="d", kind="binary"),
        PredictorSpec(name="s", kind="numeric", transform="log"),
    ),
)
CLEAN = {
    "cites": ["0", "3", "17", "2.0", "1e2", " 4 ", "-0", "+5", "9223372036854774784"],
    "x": ["0.1", "-2.5", "1e-05", "1e+16", "-0.0", "5e-324", "1_000", " 7", "3E2"],
    "d": ["0", "1", "0.0", "1.0", "1e0", "-0"],
    "s": ["0.5", "2", "5e-324", "1e300", "3.25"],
    "oa": LEVELS,
    # An unread column keeps one character of each cell on the fast path.
    "skip": [
        "", "junk", "1", "nan",
        ("An abstract, with \"quotes\" and more words. " * 90)[:4000],
        'say "hi", then\r\nbye\nand\rgo',
        "\U0001F600 outside the BMP",
    ],
}
# Defect kind -> (columns it may hit, cell values).
DEFECTS = {
    "empty": (["cites", "x", "d", "s", "oa"], ["", "  "]),
    "count_unparsable": (["cites"], ["abc", "1..2", "0x1", "1,5"]),
    "count_non_finite": (["cites"], ["nan", "inf", "-inf", "1e999"]),
    "count_negative": (["cites"], ["-3", "-1e3"]),
    "count_non_integer": (["cites"], ["2.5", "1e-3"]),
    "count_too_large": (["cites"], ["1e19", "9223372036854775808", "1e300"]),
    "numeric_unparsable": (["x", "d", "s"], ["abc", "--1", "1,5"]),
    "numeric_non_finite": (["x", "d", "s"], ["nan", "inf", "-inf", "NaN", "1e999"]),
    "binary": (["d"], ["2", "0.5", "-1"]),
    "log": (["s"], ["0", "-0.0", "-2.5", "-1e-300"]),
}


def _row_index(n):
    near_boundary = [b + d for b in (_BLOCK_ROWS, 2 * _BLOCK_ROWS) for d in (-2, -1, 0, 1)]
    return st.one_of(
        st.sampled_from([i for i in near_boundary if i < n] or [0]),
        st.integers(0, n - 1),
    )


def _quote(cell, force):
    if force or any(ch in cell for ch in ',"\n\r'):
        return '"' + cell.replace('"', '""') + '"'
    return cell


def _clean_rows(rng, n):
    picks = [rng.integers(len(CLEAN[name]), size=n).tolist() for name in HEADER]
    return [[CLEAN[name][k] for name, k in zip(HEADER, row)] for row in zip(*picks)]


def _render(rows, rng, quote_share=0.3, newline="\n"):
    force = iter((rng.random(sum(map(len, rows))) < quote_share).tolist())
    lines = [",".join(HEADER)] + [
        ",".join(_quote(cell, next(force)) for cell in row) for row in rows
    ]
    return newline.join(lines) + newline


@st.composite
def csv_texts(draw):
    n = draw(
        st.one_of(
            st.integers(0, 30),
            st.sampled_from([_BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1, 2 * _BLOCK_ROWS + 1]),
            st.integers(_BLOCK_ROWS + 2, 2 * _BLOCK_ROWS + 60),
        )
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = _clean_rows(rng, n)
    if n:
        for kind, (targets, values) in DEFECTS.items():
            for _ in range(draw(st.integers(0, 2))):
                i = draw(_row_index(n))
                rows[i][HEADER.index(draw(st.sampled_from(targets)))] = draw(st.sampled_from(values))
        for _ in range(draw(st.integers(0, 2))):
            i = draw(_row_index(n))
            rows[i] = draw(st.sampled_from([rows[i][:-1], rows[i] + ["9"], []]))
    quote_share = draw(st.sampled_from([0.0, 0.3, 1.0]))
    return _render(rows, rng, quote_share, draw(st.sampled_from(["\n", "\r\n"])))


def _outcome(reader, path):
    try:
        return reader(path, CONFIG)
    except DataError as exc:
        return (str(exc), exc.row, exc.column)


def assert_same_dataset(got, want):
    assert got.response_name == want.response_name
    assert got.y.dtype == want.y.dtype == np.int64
    assert got.y.tobytes() == want.y.tobytes()
    assert len(got.columns) == len(want.columns)
    for a, b in zip(got.columns, want.columns):
        assert (a.name, a.kind) == (b.name, b.kind)
        assert a.values.dtype == b.values.dtype
        if b.kind == "categorical":
            assert a.values.dtype == object
            assert a.values.tolist() == b.values.tolist()
        else:
            assert a.values.tobytes() == b.values.tobytes()


# Every single-cell defect: (column, value).
CELL_DEFECTS = [(column, value) for targets, values in DEFECTS.values()
                for column in targets for value in values]


class TestReaderMatchesRowOracle:
    def check(self, path):
        got = _outcome(read_csv, path)
        want = _outcome(oracle_read_csv, path)
        if isinstance(want, tuple):
            assert got == want
        else:
            assert not isinstance(got, tuple), got
            assert_same_dataset(got, want)
        return want

    @settings(max_examples=200, deadline=None)
    @given(csv_texts())
    def test_same_dataset_or_same_error(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("csv") / "data.csv"
        path.write_bytes(text.encode("utf-8"))
        self.check(path)

    def test_every_cell_defect_on_both_sides_of_a_block_boundary(self, tmp_path):
        rng = np.random.default_rng(0)
        clean = _clean_rows(rng, _BLOCK_ROWS + 2)
        path = tmp_path / "data.csv"
        for row in (_BLOCK_ROWS - 1, _BLOCK_ROWS):
            for column, value in CELL_DEFECTS:
                rows = [list(r) for r in clean]
                rows[row][HEADER.index(column)] = value
                path.write_text(_render(rows, rng), encoding="utf-8")
                error = self.check(path)
                assert error[1:] == (row + 1, column)

    def test_every_pair_of_cell_defects_in_one_row(self, tmp_path):
        rng = np.random.default_rng(1)
        clean = _clean_rows(rng, 3)
        path = tmp_path / "data.csv"
        for i, (first, a) in enumerate(CELL_DEFECTS):
            for second, b in CELL_DEFECTS[i + 1:]:
                if first == second:
                    continue
                rows = [list(r) for r in clean]
                rows[1][HEADER.index(first)] = a
                rows[1][HEADER.index(second)] = b
                path.write_text(_render(rows, rng), encoding="utf-8")
                assert self.check(path)[1] == 2


def _same_as_oracle(path, config=CONFIG):
    """read_csv and the oracle give the same Dataset or raise alike."""
    def outcome(reader):
        try:
            return reader(path, config)
        except Exception as exc:  # DataError, or anything else a reader raises
            return (type(exc), str(exc), getattr(exc, "row", None), getattr(exc, "column", None))

    got, want = outcome(read_csv), outcome(oracle_read_csv)
    if isinstance(want, tuple):
        assert got == want
    else:
        assert not isinstance(got, tuple), got
        assert_same_dataset(got, want)


# Cells that float() and numpy's loadtxt read differently, or that break a
# record when written unquoted.
ODD_CELLS = [
    "1_000", "１", "١", "0x10", "nan(1)", "  1", '"1"2', "1e400", "-1e400", "\x1c1", "1\x1f",
    "\ufeff1", "1\xa0", "\u20031", "Infinity", "-0", "5e-324", 'a"b', '""', '"', "a\nb",
    "a\r\nb", "\r", "\n", ",", "1,5", " ", "", "\x00",
]


@st.composite
def odd_csv_texts(draw):
    """A few clean rows with odd text cells, some unquoted, and odd lines."""
    n = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    force = draw(st.sampled_from([0.0, 0.3, 1.0]))
    rows = [[_quote(cell, rng.random() < force) for cell in row] for row in _clean_rows(rng, n)]
    for _ in range(draw(st.integers(1, 3))):
        cell = draw(st.one_of(st.text(), st.sampled_from(ODD_CELLS)))
        i = draw(st.integers(0, n - 1))
        j = draw(st.integers(0, len(HEADER) - 1))
        rows[i][j] = cell if draw(st.booleans()) else _quote(cell, draw(st.booleans()))
    lines = [",".join(HEADER)] + [",".join(row) for row in rows]
    for _ in range(draw(st.integers(0, 1))):
        lines.insert(draw(st.integers(1, len(lines))), draw(st.sampled_from(["", " ", "\r"])))
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return newline.join(lines) + draw(st.sampled_from([newline, ""]))


def citation_shaped_csv(path, n=2500, seed=5):
    """Count, binary, integer, numeric and positive columns as in a citation
    dataset, plus a categorical and an unread text column that need quoting."""
    rng = np.random.default_rng(seed)
    levels = ["closed", "green", "a,b", 'say "hi"', "two\nlines"]
    columns = {
        "cites": [str(v) for v in rng.negative_binomial(1.6, 0.1, size=n)],
        **{f"flag{i}": [repr(float(v)) for v in rng.integers(0, 2, size=n)] for i in range(1, 13)},
        "age": [repr(float(v)) for v in rng.integers(0, 8, size=n)],
        "mentions": [repr(float(v)) for v in rng.poisson(0.6, size=n)],
        **{f"metric{i}": [repr(float(v)) for v in rng.normal(size=n)] for i in range(1, 4)},
        "impact": [repr(float(v)) for v in rng.lognormal(size=n)],
        "oa": [levels[k] for k in rng.integers(0, len(levels), size=n)],
        "title": [f'Paper {k}, "part" {k % 7}' for k in range(n)],
    }
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows(zip(*columns.values()))
    return EncodingConfig(
        response="cites",
        predictors=(
            PredictorSpec(name="oa", kind="categorical", base="closed", levels=tuple(levels)),
            *(PredictorSpec(name=f"flag{i}", kind="binary") for i in range(1, 13)),
            PredictorSpec(name="age", kind="numeric", transform="offset", origin=3.0),
            PredictorSpec(name="mentions", kind="numeric"),
            *(PredictorSpec(name=f"metric{i}", kind="numeric") for i in range(1, 4)),
            PredictorSpec(name="impact", kind="numeric", transform="log"),
        ),
    )


HEAD = ",".join(HEADER)
ROW = '0.5,junk,3,2,"a,b",1'
# Files the loadtxt fast path must decline, one per reason; each is read by
# the exact reader, which accepts it or raises its error.
DECLINES = {
    "undecodable byte": (HEAD + "\n" + (ROW + "\n") * 600).encode() + b"\xff,j,3,2,plain,1\n",
    # The header line fills the reader's first 8,192-byte chunk exactly, so
    # the first data line is the first to be decoded after it.
    "undecodable first record": (HEAD.replace("skip", "skip" + "p" * (8191 - len(HEAD))) + "\n").encode()
    + b"\xff,j,3,2,plain,1\n",
    "underscore digits": f"{HEAD}\n{ROW}\n1_000,j,3,2,plain,1\n",
    "full-width digit": f"{HEAD}\n{ROW}\n１,j,3,2,plain,1\n",
    "empty cell": f"{HEAD}\n{ROW}\n,j,3,2,plain,1\n",
    "too many fields": f"{HEAD}\n{ROW}\n{ROW},9\n",
    "too few fields": f"{HEAD}\n{ROW}\n0.5,j,3,2,plain\n",
    "whitespace line": f"{HEAD}\n{ROW}\n  \n{ROW}\n",
    "blank line LF": f"{HEAD}\n{ROW}\n\n{ROW}\n",
    "blank line CRLF": f"{HEAD}\r\n{ROW}\r\n\r\n{ROW}\r\n",
    "blank line CR": f"{HEAD}\r{ROW}\r\r{ROW}\r",
    "blank CR line after LF": f"{HEAD}\n{ROW}\n\r{ROW}\n",
    "blank line at the end": f"{HEAD}\n{ROW}\n\n",
    "blank first record": f"{HEAD}\n\n{ROW}\n",
    "field over csv's size limit": f"{HEAD}\n{ROW}\n0.5,{'j' * 131073},3,2,plain,1\n",
    "quoted text over csv's size limit across short lines": f"{HEAD}\n{ROW}\n0.5,"
    + '"' + ("j" * 999 + "\n") * 132 + '",3,2,plain,1\n',
    "quoted number over csv's size limit across short lines": f"{HEAD}\n{ROW}\n"
    + '"' + (" " * 1000 + "\n") * 140 + '1",j,3,2,plain,1\n',
    # An earlier bad row is reported first, also inside the undecodable chunk.
    "undecodable byte after a bad row": f"{HEAD}\n{ROW}\n,j,3,2,plain,1\n".encode()
    + b"0.5,j,3,2,pl\xe9ain,1\n",
    "over-long field after a bad row": f"{HEAD}\n,j,3,2,plain,1\n0.5,{'j' * 131073},3,2,plain,1\n",
    "header only": f"{HEAD}\n",
    "header only, no line end": HEAD,
    "separator byte in a number": f"{HEAD}\n{ROW}\n\x1c0.5,j,3,2,plain,1\n",
    "separator byte in text": f"{HEAD}\n{ROW}\n0.5,j,3,2,pl\x1dain,1\n",
    "count check": f"{HEAD}\n{ROW}\n0.5,j,2.5,2,plain,1\n",
    "binary check": f"{HEAD}\n{ROW}\n0.5,j,3,2,plain,2\n",
    "log check": f"{HEAD}\n{ROW}\n0.5,j,3,0,plain,1\n",
    "non-finite check": f"{HEAD}\n{ROW}\n1e400,j,3,2,plain,1\n",
    "empty categorical cell": f"{HEAD}\n{ROW}\n0.5,j,3,2, ,1\n",
}
# Files the fast path reads itself: csv.reader and loadtxt see the same lines.
ACCEPTS = {
    "LF": f"{HEAD}\n{ROW}\n{ROW}\n",
    "CRLF, no final line end": f"{HEAD}\r\n{ROW}\r\n{ROW}",
    "CR line ends": f"{HEAD}\r{ROW}\r{ROW}\r",
    "quoted header across lines": f'x,"sk\r\nip",cites,s,"oa",d\n{ROW}\n',
    "quoted line ends in text": f'{HEAD}\n0.5,"a\r\nb",3,2,"two\r\nlines",1\n0.5,"\r",3,2,"x\ry",0\n',
    "text after a closing quote": f'{HEAD}\n"0".5,j,"1"2,2,"a"b,1\n',
    "spaces around numbers": f"{HEAD}\n 0.5 ,j,\t3 ,2\xa0,plain,\u20031\n",
    "unread column holds anything": f'{HEAD}\n0.5,"1_000,\x00""",3,2,plain,1\n',
    "long quoted unread cell": f'{HEAD}\n{ROW}\n0.5,"'
    + 'a ""quoted"", comma-separated line\r\n' * 2000 + '",3,2,plain,1\n',
}


def _read(tmp_path, monkeypatch, content, config=CONFIG):
    """Compare with the oracle, warnings as errors; True if the file fell back."""
    path = tmp_path / "data.csv"
    path.write_bytes(content if isinstance(content, bytes) else content.encode("utf-8"))
    calls = []
    exact = data_module._read_blocks
    monkeypatch.setattr(
        data_module, "_read_blocks", lambda *args: calls.append(args) or exact(*args)
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _same_as_oracle(path, config)
    return bool(calls)


def _fast_read(path, config, monkeypatch):
    """read_csv's Dataset and its tracemalloc peak in bytes; the exact
    reader must not run."""

    def fail(*args):
        raise AssertionError("the exact reader ran")

    with monkeypatch.context() as patched:
        patched.setattr(data_module, "_read_block", fail)
        tracemalloc.start()
        try:
            got = read_csv(path, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return got, peak


class TestLoadtxtFastPath:
    @settings(max_examples=300, deadline=None)
    @given(odd_csv_texts())
    def test_odd_cells_give_the_oracle_outcome(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("csv") / "data.csv"
        path.write_bytes(text.encode("utf-8"))
        _same_as_oracle(path)

    def test_clean_citation_shaped_file_takes_the_fast_path(self, tmp_path, monkeypatch):
        path = tmp_path / "data.csv"
        config = citation_shaped_csv(path)
        got, _ = _fast_read(path, config, monkeypatch)
        assert_same_dataset(got, oracle_read_csv(path, config))
        assert got.n == 2500

    # tracemalloc counts numpy's buffers.  With numpy 2.4.6 the first file
    # peaks at 1.16 n*31*8 bytes and the second at 2.0 MB.  A reader that
    # copied each read column out of the parsed table would peak at 2.00
    # n*31*8 bytes, and one that kept each unread cell as a str at 10.0 MB.
    def test_read_numbers_are_views_of_one_parsed_table(self, tmp_path, monkeypatch):
        n, k = 20_000, 30
        rng = np.random.default_rng(21)
        y = rng.poisson(3.0, n)
        X = np.round(rng.normal(size=(n, k)), 3)
        path = tmp_path / "data.csv"
        lines = [",".join(["y", *(f"x{j}" for j in range(k))])]
        lines += [f"{count},{','.join(map(repr, row))}" for count, row in zip(y.tolist(), X.tolist())]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        config = EncodingConfig("y", tuple(PredictorSpec(f"x{j}") for j in range(k)))
        got, peak = _fast_read(path, config, monkeypatch)
        np.testing.assert_array_equal(got.y, y)
        np.testing.assert_array_equal(np.column_stack([c.values for c in got.columns]), X)
        assert peak <= 1.3 * n * (k + 1) * 8

    def test_unread_text_is_not_kept(self, tmp_path, monkeypatch):
        n = 5_000
        path = tmp_path / "data.csv"
        abstract = ("An abstract, with \"\"quotes\"\" and words. " * 50)[:1_900]
        lines = ["cites,x,abstract"]
        lines += [f'{i % 7},{i / 2},"{abstract} {i}"' for i in range(n)]
        path.write_text("\r\n".join(lines) + "\r\n", encoding="utf-8")
        assert path.stat().st_size > 9_000_000
        config = EncodingConfig("cites", (PredictorSpec("x"),))
        got, peak = _fast_read(path, config, monkeypatch)
        np.testing.assert_array_equal(got.y, np.arange(n) % 7)
        np.testing.assert_array_equal(got.columns[0].values, np.arange(n) / 2)
        assert peak < 4_000_000

    @pytest.mark.parametrize("content", DECLINES.values(), ids=DECLINES.keys())
    def test_declines(self, tmp_path, monkeypatch, content):
        assert _read(tmp_path, monkeypatch, content)

    def test_declines_a_column_read_as_text_and_as_a_count(self, tmp_path, monkeypatch):
        config = EncodingConfig(
            response="cites",
            predictors=(PredictorSpec(name="cites", kind="categorical", base="3"),),
        )
        assert _read(tmp_path, monkeypatch, f"{HEAD}\n{ROW}\n{ROW}\n", config)

    @pytest.mark.parametrize(
        "case, message",
        [
            ("undecodable byte", "undecodable byte 0xff (row 601)"),
            ("undecodable first record", "undecodable byte 0xff (row 1)"),
            ("field over csv's size limit", "field larger than field limit (131072) (row 2)"),
        ],
    )
    def test_unreadable_record_is_named_by_its_row(self, tmp_path, monkeypatch, case, message):
        assert _read(tmp_path, monkeypatch, DECLINES[case])
        with pytest.raises(DataError) as info:
            read_csv(tmp_path / "data.csv", CONFIG)
        assert (str(info.value), info.value.column) == (message, None)

    @pytest.mark.parametrize(
        "header",
        [HEAD.encode() + b"\xfe", f"{HEAD},{'h' * 131073}".encode()],
        ids=["undecodable", "over-long"],
    )
    def test_unreadable_header_matches_the_oracle(self, tmp_path, header):
        path = tmp_path / "data.csv"
        path.write_bytes(header + f"\n{ROW}\n".encode())
        _same_as_oracle(path)
        with pytest.raises(DataError, match="in the header of"):
            read_csv(path, CONFIG)

    @pytest.mark.parametrize("content", ACCEPTS.values(), ids=ACCEPTS.keys())
    def test_accepts(self, tmp_path, monkeypatch, content):
        assert not _read(tmp_path, monkeypatch, content)


BOM = "\ufeff".encode("utf-8")


class TestByteOrderMark:
    """A file that starts with a UTF-8 byte-order mark, as Excel's "CSV UTF-8"
    files do, reads as the same file without it."""

    @pytest.mark.parametrize("exact", [False, True], ids=["fast-path", "exact-reader"])
    def test_same_dataset(self, tmp_path, monkeypatch, exact):
        plain = tmp_path / "plain.csv"
        config = citation_shaped_csv(plain, n=300)
        marked = tmp_path / "marked.csv"
        marked.write_bytes(BOM + plain.read_bytes())
        if exact:
            monkeypatch.setattr(data_module, "_loadtxt_fields", lambda *args: None)
        assert_same_dataset(read_csv(marked, config), read_csv(plain, config))

    @pytest.mark.parametrize(
        "cell, column", [(b"abc", "metric2"), (b"nan", "metric2"), (b"\xff", None)],
        ids=["unparsable", "non-finite", "undecodable"],
    )
    def test_same_error(self, tmp_path, cell, column):
        plain = tmp_path / "plain.csv"
        config = citation_shaped_csv(plain, n=300)
        records = plain.read_bytes().split(b"\r\n")
        # Row 7's metric2 cell; no earlier cell of a record holds a comma.
        fields = records[7].split(b",")
        fields[16] = cell
        records[7] = b",".join(fields)
        plain.write_bytes(b"\r\n".join(records))
        marked = tmp_path / "marked.csv"
        marked.write_bytes(BOM + plain.read_bytes())
        outcomes = []
        for path in (plain, marked):
            with pytest.raises(DataError) as info:
                read_csv(path, config)
            outcomes.append((str(info.value), info.value.row, info.value.column))
        assert outcomes[0][1:] == (7, column)
        assert outcomes[1] == outcomes[0]

    def test_quoted_first_name(self, tmp_path):
        plain = tmp_path / "plain.csv"
        plain.write_text(f'"x",skip,cites,s,oa,d\n{ROW}\n', encoding="utf-8")
        marked = tmp_path / "marked.csv"
        marked.write_bytes(BOM + plain.read_bytes())
        assert_same_dataset(read_csv(marked, CONFIG), read_csv(plain, CONFIG))


def _exact_outcome(path, block_rows):
    """read_csv's exact reader (the fast path declines) in blocks of ``block_rows``."""
    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(data_module, "_BLOCK_ROWS", block_rows)
        patched.setattr(data_module, "_loadtxt_fields", lambda *args: None)
        return _outcome(read_csv, path)


class TestBlockSizeDoesNotMatter:
    """Accepting a block's columns or explaining its first bad record gives
    the same Dataset or the same error wherever the blocks split."""

    def check(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("csv") / "data.csv"
        path.write_bytes(text.encode("utf-8"))
        want = _exact_outcome(path, 1024)
        for block_rows in (1, 2, 3):
            got = _exact_outcome(path, block_rows)
            if isinstance(want, tuple):
                assert got == want
            else:
                assert not isinstance(got, tuple), got
                assert_same_dataset(got, want)

    @settings(max_examples=100, deadline=None)
    @given(csv_texts())
    def test_csv_texts(self, tmp_path_factory, text):
        self.check(tmp_path_factory, text)

    @settings(max_examples=300, deadline=None)
    @given(odd_csv_texts())
    def test_odd_csv_texts(self, tmp_path_factory, text):
        self.check(tmp_path_factory, text)


def oracle_write_csv(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def oracle_write_dataset_csv(path, dataset):
    header = [dataset.response_name] + [col.name for col in dataset.columns]
    rows = []
    for i in range(dataset.n):
        row = [str(int(dataset.y[i]))]
        for col in dataset.columns:
            value = col.values[i]
            row.append(str(value) if col.kind == "categorical" else repr(float(value)))
        rows.append(row)
    oracle_write_csv(path, header, rows)


def oracle_write_plot_data(out_dir, model, X, X_h, y, res, dev, y_max):
    empirical, fitted = cli.frequency_table(y, model, y_max=y_max, X=X, X_h=X_h)
    values = [str(v) for v in range(y_max + 1)] + [f">{y_max}"]
    oracle_write_csv(
        out_dir / "frequency.csv",
        ["value", "empirical", "fitted"],
        [(v, int(e), repr(float(f))) for v, e, f in zip(values, empirical, fitted)],
    )
    oracle_write_csv(
        out_dir / "pearson_residuals.csv",
        ["predicted_mean", "pearson_residual"],
        [(repr(float(m)), repr(float(r))) for m, r in zip(res.mu, res.pearson)],
    )
    if dev is not None:
        oracle_write_csv(
            out_dir / "deviance_residuals.csv",
            ["predicted_mean", "deviance_residual"],
            [(repr(float(m)), repr(float(d))) for m, d in zip(dev.mu, dev.deviance)],
        )


FLOATS = np.array([1e-05, 1e16, -0.0, 5e-324, 0.1, 2.5, -1.0, 123456789.0, 1e300, 1 / 3])
PLOT_FILES = ("frequency.csv", "pearson_residuals.csv", "deviance_residuals.csv")


def _same_bytes(a, b, names):
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


class TestWritersMatchRowOracle:
    def test_dataset_csv(self, tmp_path):
        n = FLOATS.size
        levels = np.array(["a,b", 'say "hi"', "plain"] * 4, dtype=object)[:n]
        dataset = Dataset(
            y=np.arange(n, dtype=np.int64) * 7,
            columns=(
                Column(name="oa", kind="categorical", values=levels),
                Column(name="funded", kind="binary", values=np.arange(n) % 2 * 1.0),
                Column(name="x", kind="numeric", values=FLOATS),
            ),
            response_name="cites",
        )
        cli._write_dataset_csv(tmp_path / "new.csv", dataset)
        oracle_write_dataset_csv(tmp_path / "old.csv", dataset)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
        config = EncodingConfig(
            response="cites",
            predictors=(
                PredictorSpec(name="oa", kind="categorical", base="plain"),
                PredictorSpec(name="funded", kind="binary"),
                PredictorSpec(name="x", kind="numeric"),
            ),
        )
        assert_same_dataset(read_csv(tmp_path / "new.csv", config), dataset)

    def test_levels_are_quoted_as_csv_writer_quotes_them(self, tmp_path):
        levels = ["", " padded ", "two\nlines", "cr\rlf\r\n", '"', "a,b", "plain", "é"]
        n = 3 * len(levels)
        dataset = Dataset(
            y=np.arange(n, dtype=np.int64),
            columns=(
                Column(name="oa", kind="categorical", values=np.array(levels * 3, dtype=object)),
                Column(name="x", kind="numeric", values=np.linspace(-1.0, 1.0, n)),
            ),
            response_name="a,b",
        )
        cli._write_dataset_csv(tmp_path / "new.csv", dataset)
        oracle_write_dataset_csv(tmp_path / "old.csv", dataset)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    def test_residual_and_frequency_csvs(self, tmp_path):
        rng = np.random.default_rng(11)
        n = 400
        X = np.column_stack([np.ones(n), rng.normal(size=n)])
        y = rng.poisson(rng.gamma(2.0, 0.5 * np.exp(0.8 + 0.3 * X[:, 1])))
        model = fit_family("NB", X, y)
        res, dev = cli._residuals(model, X, None, y)
        special = (
            SimpleNamespace(mu=FLOATS, pearson=FLOATS[::-1]),
            SimpleNamespace(mu=FLOATS, deviance=FLOATS * 3),
        )
        for case, (r, d) in enumerate([(res, dev), special, (res, None)]):
            new, old = tmp_path / f"new{case}", tmp_path / f"old{case}"
            new.mkdir()
            old.mkdir()
            cli._write_plot_data(new, model, X, None, y, r, d, int(y.max()))
            oracle_write_plot_data(old, model, X, None, y, r, d, int(y.max()))
            _same_bytes(new, old, PLOT_FILES if d is not None else PLOT_FILES[:2])
            assert (new / "deviance_residuals.csv").exists() == (d is not None)


SPECIAL_FLOATS = [-0.0, 0.0, 2.0**53, -(2.0**53), 1e15, 1e16, -7.0, 5e-324, math.nan, math.inf,
                  -math.inf]


def _odd_dataset(n=37):
    """Every cell kind the dataset writer has, with special floats among integers."""
    rng = np.random.default_rng(3)
    specials = np.array(SPECIAL_FLOATS * (n // len(SPECIAL_FLOATS) + 1))[:n]
    mixed = rng.integers(-3, 4, n).astype(float)
    mixed[::5] = specials[::5]
    return Dataset(
        y=rng.integers(0, 40, n),
        columns=(
            Column(name="oa", kind="categorical",
                   values=np.array(["a,b", 'say "hi"', "plain", "é"] * n, dtype=object)[:n]),
            Column(name="funded", kind="binary", values=rng.integers(0, 2, n).astype(float)),
            Column(name="age", kind="numeric", values=rng.integers(0, 8, n).astype(float)),
            Column(name="mixed", kind="numeric", values=mixed),
            Column(name="x", kind="numeric", values=np.resize(FLOATS, n) * rng.normal(size=n)),
        ),
        response_name="cites",
    )


class TestPoolPathMatchesRowOracle:
    """The worker-process path, run on small tables with block boundaries inside."""

    @pytest.fixture(autouse=True)
    def every_table_goes_to_the_pool(self, monkeypatch):
        monkeypatch.setattr(cli, "_CELLS_PER_WORKER", 1)
        monkeypatch.setattr(cli, "_BLOCK_ROWS", 5)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_dataset_csv(self, tmp_path, workers):
        dataset = _odd_dataset()
        cli._write_dataset_csv(tmp_path / "new.csv", dataset, threads=workers)
        oracle_write_dataset_csv(tmp_path / "old.csv", dataset)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    def test_no_pool_unless_workers_fork(self, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a worker process was started")

        monkeypatch.setattr(multiprocessing, "get_start_method", lambda: "spawn")
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
        dataset = _odd_dataset()
        cli._write_dataset_csv(tmp_path / "new.csv", dataset, threads=2)
        oracle_write_dataset_csv(tmp_path / "old.csv", dataset)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_residual_and_frequency_csvs(self, tmp_path, monkeypatch, workers):
        monkeypatch.setattr(cli, "_usable_cpus", lambda: workers)
        rng = np.random.default_rng(12)
        n = 150
        X = np.column_stack([np.ones(n), rng.normal(size=n)])
        y = rng.poisson(rng.gamma(2.0, 0.5 * np.exp(0.8 + 0.3 * X[:, 1])))
        model = fit_family("NB", X, y)
        res, dev = cli._residuals(model, X, None, y)
        new, old = tmp_path / "new", tmp_path / "old"
        new.mkdir()
        old.mkdir()
        cli._write_plot_data(new, model, X, None, y, res, dev, int(y.max()))
        oracle_write_plot_data(old, model, X, None, y, res, dev, int(y.max()))
        _same_bytes(new, old, PLOT_FILES)


class TestFloatCells:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(st.integers(-20, 20).map(float), st.sampled_from(SPECIAL_FLOATS)),
                    min_size=1, max_size=80))
    def test_text_is_repr(self, values):
        a = np.array(values)
        assert cli._float_cells(a) == list(map(repr, a.tolist()))

    def test_an_integer_valued_column_formats_each_distinct_value_once(self, monkeypatch):
        calls = []

        def counting_repr(value):
            calls.append(value)
            return repr(value)

        monkeypatch.setattr(cli, "repr", counting_repr, raising=False)
        a = np.arange(1000) % 8 - 3.0
        assert cli._float_cells(a) == list(map(repr, a.tolist()))
        assert len(calls) == 8
