"""CSV ingestion and design-matrix encoding."""

import math
import re

import numpy as np
import pytest

from countreg.data import (
    Column,
    Dataset,
    EncodingConfig,
    PredictorSpec,
    encode,
    encode_columns,
    read_csv,
)
from countreg.data import _bad_values
from countreg.distributions import _bad_counts
from countreg.exceptions import ConfigError, DataError


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


BASIC_CONFIG = EncodingConfig(
    response="cites",
    predictors=(
        PredictorSpec(name="oa", kind="categorical", base="closed"),
        PredictorSpec(name="authors", kind="numeric"),
    ),
)


class TestReadCsv:
    def test_reads_typed_dataset(self, tmp_path):
        path = write(tmp_path, "cites,oa,authors\n3,closed,2\n0,green,1\n11,gold,4\n")
        ds = read_csv(path, BASIC_CONFIG)
        assert ds.n == 3
        np.testing.assert_array_equal(ds.y, [3, 0, 11])
        assert list(ds.column("oa").values) == ["closed", "green", "gold"]
        np.testing.assert_array_equal(ds.column("authors").values, [2.0, 1.0, 4.0])

    def test_unparsable_cell_names_coordinates(self, tmp_path):
        path = write(tmp_path, "cites,oa,authors\n3,closed,2\n1,green,abc\n")
        with pytest.raises(DataError, match=r"row 2.*'authors'"):
            read_csv(path, BASIC_CONFIG)

    def test_negative_count_rejected(self, tmp_path):
        path = write(tmp_path, "cites,oa,authors\n-1,closed,2\n")
        with pytest.raises(DataError, match="negative count"):
            read_csv(path, BASIC_CONFIG)

    def test_empty_cell_rejected(self, tmp_path):
        path = write(tmp_path, "cites,oa,authors\n3,,2\n")
        with pytest.raises(DataError, match=r"empty cell.*row 1.*'oa'"):
            read_csv(path, BASIC_CONFIG)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "NaN", "1e999"])
    def test_non_finite_numeric_cell_rejected(self, tmp_path, cell):
        path = write(tmp_path, f"cites,oa,authors\n3,closed,2\n1,green,3\n2,gold,{cell}\n")
        with pytest.raises(DataError, match=r"non-finite.*row 3.*'authors'") as info:
            read_csv(path, BASIC_CONFIG)
        assert (info.value.row, info.value.column) == (3, "authors")

    def test_first_non_finite_row_is_reported(self, tmp_path):
        path = write(tmp_path, "cites,oa,authors\n3,closed,2\n1,green,inf\n2,gold,nan\n")
        with pytest.raises(DataError, match=r"non-finite numeric value inf.*row 2"):
            read_csv(path, BASIC_CONFIG)

    def test_non_finite_cell_in_log_column_rejected(self, tmp_path):
        config = EncodingConfig(
            response="cites",
            predictors=(PredictorSpec(name="sjr", kind="numeric", transform="log"),),
        )
        path = write(tmp_path, "cites,sjr\n3,0.5\n4,nan\n")
        with pytest.raises(DataError, match=r"non-finite.*row 2.*'sjr'"):
            read_csv(path, config)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_count_rejected(self, tmp_path, cell):
        path = write(tmp_path, f"cites,oa,authors\n3,closed,2\n{cell},green,1\n")
        with pytest.raises(DataError, match=r"non-finite count.*row 2.*'cites'"):
            read_csv(path, BASIC_CONFIG)

    def test_non_integer_count_rejected(self, tmp_path):
        path = write(tmp_path, "cites,oa,authors\n2.5,closed,2\n")
        with pytest.raises(DataError, match=r"non-integer count.*row 1.*'cites'"):
            read_csv(path, BASIC_CONFIG)

    @pytest.mark.parametrize("cell", ["1e19", "9223372036854775808"])
    def test_count_too_large_for_int64_rejected(self, tmp_path, cell):
        path = write(tmp_path, f"cites,oa,authors\n3,closed,2\n{cell},green,1\n")
        with pytest.raises(DataError, match=r"count too large.*row 2.*'cites'"):
            read_csv(path, BASIC_CONFIG)

    def test_largest_int64_float_count_accepted(self, tmp_path):
        path = write(tmp_path, "cites,oa,authors\n9223372036854774784,closed,2\n")
        assert read_csv(path, BASIC_CONFIG).y.tolist() == [2**63 - 1024]

    def test_non_finite_cell_precedes_later_unparsable_row(self, tmp_path):
        path = write(tmp_path, "cites,oa,authors\n3,closed,inf\n1,green,abc\n")
        with pytest.raises(DataError, match=r"non-finite numeric value inf.*row 1"):
            read_csv(path, BASIC_CONFIG)

    def test_cell_over_csv_field_limit_names_its_row(self, tmp_path):
        path = write(tmp_path, f"cites,oa,authors\n3,closed,2\n1,green,{'1' * 131073}\n")
        with pytest.raises(DataError) as info:
            read_csv(path, BASIC_CONFIG)
        assert str(info.value) == "field larger than field limit (131072) (row 2)"
        assert (info.value.row, info.value.column) == (2, None)

    def test_earlier_bad_row_precedes_an_over_long_cell(self, tmp_path):
        path = write(tmp_path, f"cites,oa,authors\n3,,2\n1,green,{'1' * 131073}\n")
        with pytest.raises(DataError, match=r"empty cell \(row 1, column 'oa'\)"):
            read_csv(path, BASIC_CONFIG)

    def test_undecodable_byte_names_its_row(self, tmp_path):
        # 5,001 rows: the bad byte lies beyond the decoder's first chunks.
        path = tmp_path / "data.csv"
        rows = "".join(f"{i % 7},closed,{i}.5\n" for i in range(5000))
        path.write_bytes(f"cites,oa,authors\n{rows}".encode() + b"3,closed,\xff\n")
        with pytest.raises(DataError) as info:
            read_csv(path, BASIC_CONFIG)
        assert str(info.value) == "undecodable byte 0xff (row 5001)"
        assert (info.value.row, info.value.column) == (5001, None)

    def test_earlier_bad_row_in_the_same_chunk_precedes_an_undecodable_byte(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_bytes(b"cites,oa,authors\n3,closed,2\n1,green,abc\n2,gold,\xc3\n")
        with pytest.raises(DataError, match=r"unparsable numeric value 'abc' \(row 2"):
            read_csv(path, BASIC_CONFIG)

    @pytest.mark.parametrize(
        "header, message",
        [
            (b"cites,oa,auth\xffors", "undecodable byte 0xff in the header of"),
            (b"cites,oa,authors," + b"h" * 131073, "field larger than field limit (131072) in the header of"),
        ],
        ids=["undecodable", "over-long"],
    )
    def test_unreadable_header_is_named(self, tmp_path, header, message):
        path = tmp_path / "data.csv"
        path.write_bytes(header + b"\n3,closed,2\n")
        with pytest.raises(DataError, match=re.escape(message)):
            read_csv(path, BASIC_CONFIG)

    def test_missing_column(self, tmp_path):
        path = write(tmp_path, "cites,oa\n3,closed\n")
        with pytest.raises(DataError, match="'authors'"):
            read_csv(path, BASIC_CONFIG)

    @pytest.mark.parametrize("header, name", [("y,x1,x1", "x1"), ("y,y,x1", "y")])
    def test_a_needed_column_named_twice_is_refused(self, tmp_path, header, name):
        path = write(tmp_path, f"{header}\n1,2,3\n")
        config = EncodingConfig(response="y", predictors=(PredictorSpec(name="x1"),))
        with pytest.raises(DataError) as info:
            read_csv(path, config)
        assert str(info.value) == f"column {name!r} appears more than once in the header of {path}"

    def test_a_column_that_is_not_read_may_be_named_twice(self, tmp_path):
        path = write(tmp_path, "y,z,x1,z\n1,2,3,4\n")
        config = EncodingConfig(response="y", predictors=(PredictorSpec(name="x1"),))
        assert read_csv(path, config).column("x1").values.tolist() == [3.0]

    def test_empty_file(self, tmp_path):
        path = write(tmp_path, "")
        with pytest.raises(DataError, match="empty file"):
            read_csv(path, BASIC_CONFIG)

    def test_log_transform_positivity_checked_at_ingest(self, tmp_path):
        config = EncodingConfig(
            response="cites",
            predictors=(PredictorSpec(name="sjr", kind="numeric", transform="log"),),
        )
        path = write(tmp_path, "cites,sjr\n3,0.5\n4,0\n")
        with pytest.raises(DataError, match=r"positive.*row 2.*'sjr'"):
            read_csv(path, config)

    def test_binary_column_validated(self, tmp_path):
        config = EncodingConfig(
            response="cites",
            predictors=(PredictorSpec(name="funded", kind="binary"),),
        )
        path = write(tmp_path, "cites,funded\n3,2\n")
        with pytest.raises(DataError, match="binary"):
            read_csv(path, config)


def make_dataset():
    oa = Column(
        name="oa",
        kind="categorical",
        values=np.array(["closed", "green", "gold"], dtype=object),
    )
    year = Column(name="year", kind="numeric", values=np.array([2014.0, 2017.0, 2021.0]))
    founded = Column(name="founded", kind="numeric", values=np.array([1985.0, 2000.0, 1900.0]))
    return Dataset(y=np.array([0, 5, 2]), columns=(oa, year, founded), response_name="cites")


FULL_CONFIG = EncodingConfig(
    response="cites",
    predictors=(
        PredictorSpec(
            name="oa",
            kind="categorical",
            base="closed",
            levels=("closed", "green", "bronze", "gold", "hybrid"),
        ),
        PredictorSpec(name="year", kind="numeric", transform="offset", origin=2014.0),
        PredictorSpec(name="founded", kind="numeric", transform="log"),
    ),
    hurdle_predictors=("oa", "year"),
)


class TestEncode:
    def test_dummy_block_and_labels(self):
        dm = encode(make_dataset(), FULL_CONFIG)
        assert dm.labels == (
            "intercept",
            "oa=green",
            "oa=bronze",
            "oa=gold",
            "oa=hybrid",
            "year",
            "founded",
        )
        np.testing.assert_array_equal(dm.X[:, 0], [1.0, 1.0, 1.0])
        # rows: closed, green, gold -> base row all zero.
        np.testing.assert_array_equal(dm.X[0, 1:5], [0, 0, 0, 0])
        np.testing.assert_array_equal(dm.X[1, 1:5], [1, 0, 0, 0])
        np.testing.assert_array_equal(dm.X[2, 1:5], [0, 0, 1, 0])

    def test_offset_and_log_transforms(self):
        dm = encode(make_dataset(), FULL_CONFIG)
        np.testing.assert_array_equal(dm.X[:, 5], [0.0, 3.0, 7.0])
        assert dm.X[0, 6] == pytest.approx(math.log(1985.0), rel=1e-12)

    def test_hurdle_equation_subset(self):
        dm = encode(make_dataset(), FULL_CONFIG, equation="hurdle")
        assert dm.labels == (
            "intercept",
            "oa=green",
            "oa=bronze",
            "oa=gold",
            "oa=hybrid",
            "year",
        )

    def test_deterministic(self):
        a = encode(make_dataset(), FULL_CONFIG)
        b = encode(make_dataset(), FULL_CONFIG)
        assert a.labels == b.labels
        assert a.X.tobytes() == b.X.tobytes()

    def test_dummy_row_sums(self):
        dm = encode(make_dataset(), FULL_CONFIG)
        block = dm.X[:, 1:5]
        sums = block.sum(axis=1)
        values = make_dataset().column("oa").values
        for i, total in enumerate(sums):
            assert total in (0.0, 1.0)
            assert (total == 0.0) == (values[i] == "closed")

    def test_column_count(self):
        dm = encode(make_dataset(), FULL_CONFIG)
        # 1 intercept + (5-1) dummies + 2 numerics.
        assert dm.k == 1 + 4 + 2

    def test_base_level_missing_from_data(self):
        config = EncodingConfig(
            response="cites",
            predictors=(
                PredictorSpec(name="oa", kind="categorical", base="hybrid",
                              levels=("hybrid", "closed", "green", "gold")),
            ),
        )
        with pytest.raises(ConfigError, match="does not occur"):
            encode(make_dataset(), config)

    def test_undeclared_level_in_data(self):
        config = EncodingConfig(
            response="cites",
            predictors=(
                PredictorSpec(name="oa", kind="categorical", base="closed",
                              levels=("closed", "green")),
            ),
        )
        with pytest.raises(ConfigError, match="not declared"):
            encode(make_dataset(), config)

    def test_two_predictors_giving_one_label_are_rejected(self):
        columns = (
            Column(name="a", kind="categorical", values=np.array(["a", "b", "a"], dtype=object)),
            Column(name="a=b", kind="numeric", values=np.array([0.5, 1.5, 2.5])),
        )
        specs = (PredictorSpec(name="a", kind="categorical", base="a"), PredictorSpec(name="a=b"))
        message = "design column 'a=b' is given by both predictor 'a' and predictor 'a=b'"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            encode_columns(columns, specs, 3)

    def test_each_column_records_its_predictor(self):
        columns = (
            Column(name="a", kind="categorical", values=np.array(["p", "q", "r"], dtype=object)),
            Column(name="a=z", kind="numeric", values=np.array([0.5, 1.5, 2.5])),
        )
        specs = (PredictorSpec(name="a", kind="categorical", base="p"), PredictorSpec(name="a=z"))
        dm = encode_columns(columns, specs, 3)
        assert dm.labels == ("intercept", "a=q", "a=r", "a=z")
        assert dm.predictors == (None, "a", "a", "a=z")
        assert encode(make_dataset(), FULL_CONFIG, "hurdle").predictors == (
            None, "oa", "oa", "oa", "oa", "year")

    def test_levels_default_to_appearance_order(self):
        config = EncodingConfig(
            response="cites",
            predictors=(PredictorSpec(name="oa", kind="categorical", base="closed"),),
        )
        dm = encode(make_dataset(), config)
        assert dm.labels == ("intercept", "oa=green", "oa=gold")


class TestEncodingConfig:
    def test_from_dict_round_trip(self):
        doc = {
            "response": "cites",
            "predictors": [
                {"name": "oa", "kind": "categorical", "base": "closed"},
                {"name": "year", "kind": "numeric",
                 "transform": {"type": "offset", "origin": 2014}},
                {"name": "sjr", "kind": "numeric", "transform": "log"},
            ],
            "hurdle_predictors": ["oa"],
        }
        config = EncodingConfig.from_dict(doc)
        assert config.response == "cites"
        assert config.predictors[1].transform == "offset"
        assert config.predictors[1].origin == 2014.0
        assert [p.name for p in config.hurdle_specs()] == ["oa"]

    def test_bad_configs(self):
        with pytest.raises(ConfigError):
            EncodingConfig.from_dict({"predictors": []})
        with pytest.raises(ConfigError):
            EncodingConfig.from_dict(
                {"response": "y", "predictors": [{"name": "a", "kind": "weird"}]}
            )
        with pytest.raises(ConfigError):
            EncodingConfig(
                response="y",
                predictors=(PredictorSpec(name="a"),),
                hurdle_predictors=("b",),
            )
        with pytest.raises(ConfigError):
            PredictorSpec(name="d", kind="categorical")


class TestCountRule:
    @pytest.mark.parametrize(
        "y",
        [np.array([1.5, 2.0]), np.array([-1, 2]), np.array([1.0, 1e20]), np.array([2**63], dtype=np.uint64)],
        ids=["fraction", "negative", "float-1e20", "uint64-2**63"],
    )
    def test_dataset_refuses_a_response_that_is_not_counts(self, y):
        with pytest.raises(DataError, match="^response counts must be nonnegative integers$"):
            Dataset(y=y, columns=())

    def test_reader_uses_the_package_count_rule(self):
        values = np.array([0.0, 4.0, -1.0, 0.5, np.nan, -np.inf, 2.0**63, 2.0**63 - 1024])
        np.testing.assert_array_equal(_bad_values(values, "count"), _bad_counts(values))
