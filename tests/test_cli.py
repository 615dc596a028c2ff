"""End-to-end command-line checks on temporary directories."""

import json
import math
import os
import runpy
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from countreg.cli import _sig6, build_parser, main
from countreg.likelihood import link_hurdle, link_mean

RUN_CONFIG = {
    "family": "NB",
    "response": "cites",
    "predictors": [
        {"name": "oa", "kind": "categorical", "base": "closed",
         "levels": ["closed", "green", "gold"]},
        {"name": "x1", "kind": "numeric"},
    ],
}


def offset_x1(origin):
    return {"name": "x1", "kind": "numeric", "transform": {"type": "offset", "origin": origin}}


def write_json(path, doc):
    path.write_text(json.dumps(doc, indent=2), encoding="utf-8")
    return path


def make_csv(path, n=3000, seed=0, family="NB", noise_column=False):
    rng = np.random.default_rng(seed)
    oa = rng.choice(["closed", "green", "gold"], size=n, p=[0.6, 0.3, 0.1])
    x1 = rng.normal(size=n)
    X = np.column_stack(
        [np.ones(n), (oa == "green").astype(float), (oa == "gold").astype(float), x1]
    )
    beta = np.array([1.3, 0.25, 0.1, 0.4])
    theta = link_mean(X, beta)
    r = 0.6
    if family == "NB":
        y = rng.poisson(rng.gamma(1 / r, r * theta))
    else:
        phi = link_hurdle(X, np.array([-0.8, -0.5, 0.2, 0.7]))
        y = np.zeros(n, dtype=np.int64)
        idx = np.flatnonzero(rng.random(n) >= phi)
        while idx.size:
            y[idx] = rng.poisson(rng.gamma(1 / r, r * theta[idx]))
            idx = idx[y[idx] == 0]
    lines = ["cites,oa,x1" + (",noise" if noise_column else "")]
    noise = rng.normal(size=n)
    for i in range(n):
        row = f"{y[i]},{oa[i]},{float(x1[i])!r}"
        if noise_column:
            row += f",{float(noise[i])!r}"
        lines.append(row)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def named_predictors_csv(names, n=3000, seed=11):
    """CSV text of HNB counts (r = 0.5) on standard normal predictors of the
    given names, with slope 0.6 in the mean equation."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, len(names)))
    theta = np.exp(1.0 + 0.6 * x.sum(axis=1))
    y = np.zeros(n, dtype=np.int64)
    idx = np.flatnonzero(rng.random(n) >= 0.3)
    while idx.size:
        y[idx] = rng.poisson(rng.gamma(2.0, 0.5 * theta[idx]))
        idx = idx[y[idx] == 0]
    rows = "".join(",".join([str(y[i]), *map(repr, x[i].tolist())]) + "\n" for i in range(n))
    return ",".join(["cites", *names]) + "\n" + rows


class TestFit:
    def test_nb_fit_report_and_plot_data(self, tmp_path):
        data = make_csv(tmp_path / "d.csv")
        config = write_json(tmp_path / "run.json", RUN_CONFIG)
        out = tmp_path / "out"
        assert main(["fit", "--data", str(data), "--config", str(config), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        assert report["schema_version"] == 1
        assert report["family"] == "NB"
        assert report["converged"] is True
        names = [row["name"] for row in report["coefficients"]]
        assert names == ["intercept", "oa=green", "oa=gold", "x1"]
        for row in report["coefficients"]:
            # 4-decimal fixed formatting and stars consistent with p-values
            assert len(row["estimate"].rsplit(".", 1)[1]) == 4
            p = float(row["p_value"])
            expected = "***" if p < 0.01 else "**" if p < 0.05 else "*" if p < 0.10 else ""
            assert row["stars"] == expected
        assert "dispersion" in report
        assert (out / "frequency.csv").exists()
        assert (out / "pearson_residuals.csv").exists()
        assert (out / "deviance_residuals.csv").exists()
        freq_lines = (out / "frequency.csv").read_text(encoding="utf-8").strip().splitlines()
        assert freq_lines[0] == "value,empirical,fitted"

    def test_nb_deviance_residuals_computed_once(self, tmp_path, monkeypatch):
        import countreg.cli

        calls = []
        deviance_residuals = countreg.cli.deviance_residuals

        def counting(*args, **kwargs):
            calls.append(1)
            return deviance_residuals(*args, **kwargs)

        monkeypatch.setattr(countreg.cli, "deviance_residuals", counting)
        data = make_csv(tmp_path / "d.csv", n=800)
        config = write_json(tmp_path / "run.json", RUN_CONFIG)
        out = tmp_path / "out"
        assert main(["fit", "--data", str(data), "--config", str(config), "--out", str(out)]) == 0
        assert len(calls) == 1
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        rows = (out / "deviance_residuals.csv").read_text(encoding="utf-8").strip().splitlines()[1:]
        squared = sum(float(row.split(",")[1]) ** 2 for row in rows)
        assert squared == pytest.approx(report["residuals"]["deviance_sum_squared"], rel=1e-5)

    def test_hnb_fit_has_positives_and_zeros_blocks(self, tmp_path):
        data = make_csv(tmp_path / "d.csv", family="HNB", seed=1)
        config = write_json(tmp_path / "run.json", {**RUN_CONFIG, "family": "HNB"})
        out = tmp_path / "out"
        assert main(["fit", "--data", str(data), "--config", str(config), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        assert "positives" in report and "zeros" in report
        assert [r["name"] for r in report["zeros"]][0] == "zero:intercept"
        assert "irr" in report
        assert not (out / "deviance_residuals.csv").exists()

    def test_a_non_nb_fit_removes_an_earlier_nb_fits_deviance_residuals(self, tmp_path):
        data = make_csv(tmp_path / "d.csv", n=600, family="HNB", seed=1)
        out = tmp_path / "out"
        args = ["fit", "--data", str(data), "--out", str(out), "--config"]
        assert main([*args, str(write_json(tmp_path / "nb.json", RUN_CONFIG))]) == 0
        assert main([*args, str(write_json(tmp_path / "hnb.json", {**RUN_CONFIG, "family": "HNB"}))]) == 0
        assert sorted(path.name for path in out.iterdir()) == [
            "frequency.csv", "pearson_residuals.csv", "report.json"
        ]

    def test_a_fit_that_fails_before_writing_leaves_the_directory_as_it_was(self, tmp_path, monkeypatch, capsys):
        import countreg.cli

        data = make_csv(tmp_path / "d.csv", n=600, family="HNB", seed=1)
        out = tmp_path / "out"
        args = ["fit", "--data", str(data), "--out", str(out), "--config"]
        assert main([*args, str(write_json(tmp_path / "hnb.json", {**RUN_CONFIG, "family": "HNB"}))]) == 0
        before = {path.name: path.read_bytes() for path in out.iterdir()}

        def disk_full(*args, **kwargs):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(countreg.cli, "frequency_table", disk_full)
        assert main([*args, str(write_json(tmp_path / "nb.json", RUN_CONFIG))]) == 1
        assert capsys.readouterr().err == "countreg: [Errno 28] No space left on device\n"
        assert {path.name: path.read_bytes() for path in out.iterdir()} == before

    def test_missing_column_exits_1(self, tmp_path, capsys):
        data = make_csv(tmp_path / "d.csv", n=200)
        bad = {**RUN_CONFIG, "predictors": RUN_CONFIG["predictors"] + [{"name": "absent"}]}
        config = write_json(tmp_path / "run.json", bad)
        code = main(["fit", "--data", str(data), "--config", str(config), "--out", str(tmp_path / "o")])
        assert code == 1
        assert "absent" in capsys.readouterr().err

    def test_config_data_path_utf8_cannot_encode_is_read(self, tmp_path):
        # A POSIX file name is bytes; a lone surrogate spells an undecodable one.
        data = make_csv(tmp_path / os.fsdecode(b"d\x80.csv"), n=1500)
        config = write_json(tmp_path / "run.json", {**RUN_CONFIG, "data": str(data)})
        assert main(["fit", "--config", str(config), "--out", str(tmp_path / "o")]) == 0

    def test_missing_data_flag_exits_1(self, tmp_path, capsys):
        config = write_json(tmp_path / "run.json", RUN_CONFIG)
        code = main(["fit", "--config", str(config), "--out", str(tmp_path / "o")])
        assert code == 1
        assert "data" in capsys.readouterr().err

    def test_perfect_separation_exits_2(self, tmp_path, capsys):
        rng = np.random.default_rng(20)
        n = 400
        flag = np.repeat([1, 0], n // 2)
        y = np.where(flag == 1, 0, rng.poisson(5.0, n) + 1)
        lines = ["cites,sep"] + [f"{y[i]},{flag[i]}" for i in range(n)]
        data = tmp_path / "d.csv"
        data.write_text("\n".join(lines) + "\n", encoding="utf-8")
        run = {
            "family": "HNB",
            "response": "cites",
            "predictors": [{"name": "sep", "kind": "binary"}],
        }
        config = write_json(tmp_path / "run.json", run)
        code = main(["fit", "--data", str(data), "--config", str(config),
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert "sep" in capsys.readouterr().err

    def test_all_zero_response_exits_1(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        data.write_text("cites,x1\n" + "".join(f"0,{i / 10}\n" for i in range(40)), encoding="utf-8")
        run = {"family": "NB", "response": "cites", "predictors": [{"name": "x1"}]}
        config = write_json(tmp_path / "run.json", run)
        for command in ("fit", "restrict"):
            out = tmp_path / command
            code = main([command, "--data", str(data), "--config", str(config), "--out", str(out)])
            assert code == 1
            assert "all zero" in capsys.readouterr().err
            assert not out.exists()

    def test_two_predictors_giving_one_design_column_exit_1(self, tmp_path, capsys):
        rows = "".join(f"{i % 4},{'ab'[i % 2]},{i / 7}\n" for i in range(60))
        data = tmp_path / "d.csv"
        data.write_text("cites,a,a=b\n" + rows, encoding="utf-8")
        run = {"family": "P", "response": "cites",
               "predictors": [{"name": "a", "kind": "categorical", "base": "a"}, {"name": "a=b"}]}
        config = write_json(tmp_path / "run.json", run)
        out = tmp_path / "o"
        code = main(["fit", "--data", str(data), "--config", str(config), "--out", str(out)])
        message = "design column 'a=b' is given by both predictor 'a' and predictor 'a=b'"
        assert (code, capsys.readouterr().err) == (1, f"countreg: {message}\n")
        assert not out.exists()

    @pytest.mark.parametrize(
        "family, names, twice",
        [("NB", ["r"], "r"), ("HNB", ["zero:x", "x"], "zero:x")],
        ids=["predictor-r", "predictor-zero:x"],
    )
    @pytest.mark.parametrize("command", ["fit", "restrict"])
    def test_a_parameter_name_given_twice_exits_1(self, tmp_path, capsys, family, names, twice, command):
        data = tmp_path / "d.csv"
        data.write_text(named_predictors_csv(names), encoding="utf-8")
        run = {"family": family, "response": "cites", "predictors": [{"name": name} for name in names]}
        config = write_json(tmp_path / "run.json", run)
        out = tmp_path / "o"
        code = main([command, "--data", str(data), "--config", str(config), "--out", str(out)])
        message = f"parameter names [{twice!r}] are given twice"
        assert (code, capsys.readouterr().err) == (1, f"countreg: {message}\n")
        assert not out.exists()

    def test_a_poisson_predictor_may_be_named_r(self, tmp_path):
        data = tmp_path / "d.csv"
        data.write_text(named_predictors_csv(["r"]), encoding="utf-8")
        run = {"family": "P", "response": "cites", "predictors": [{"name": "r"}]}
        config = write_json(tmp_path / "run.json", run)
        out = tmp_path / "o"
        assert main(["fit", "--data", str(data), "--config", str(config), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        assert [row["name"] for row in report["coefficients"]] == ["intercept", "r"]
        assert [row["name"] for row in report["irr"]] == ["r"]
        assert "dispersion" not in report

    def test_non_finite_cell_exits_1_with_coordinates(self, tmp_path, capsys):
        data = make_csv(tmp_path / "d.csv", n=200)
        lines = data.read_text(encoding="utf-8").splitlines()
        cites, oa, _ = lines[5].split(",")
        lines[5] = f"{cites},{oa},nan"
        data.write_text("\n".join(lines) + "\n", encoding="utf-8")
        config = write_json(tmp_path / "run.json", RUN_CONFIG)
        code = main(["fit", "--data", str(data), "--config", str(config),
                     "--out", str(tmp_path / "o")])
        assert code == 1
        assert "row 5, column 'x1'" in capsys.readouterr().err

    def test_count_too_large_exits_1_with_coordinates(self, tmp_path, capsys):
        data = make_csv(tmp_path / "d.csv", n=200)
        lines = data.read_text(encoding="utf-8").splitlines()
        _, oa, x1 = lines[7].split(",")
        lines[7] = f"1e19,{oa},{x1}"
        data.write_text("\n".join(lines) + "\n", encoding="utf-8")
        config = write_json(tmp_path / "run.json", RUN_CONFIG)
        code = main(["fit", "--data", str(data), "--config", str(config),
                     "--out", str(tmp_path / "o")])
        assert code == 1
        assert "count too large '1e19' (row 7, column 'cites')" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "cell, message",
        [
            (b"1" * 131073, "countreg: field larger than field limit (131072) (row 4)"),
            (b"\xff", "countreg: undecodable byte 0xff (row 4)"),
        ],
        ids=["over-long", "undecodable"],
    )
    def test_unreadable_record_exits_1_with_its_row(self, tmp_path, capsys, cell, message):
        data = make_csv(tmp_path / "d.csv", n=200)
        lines = data.read_bytes().splitlines()
        cites, oa, _ = lines[4].split(b",")
        lines[4] = b",".join([cites, oa, cell])
        data.write_bytes(b"\n".join(lines) + b"\n")
        config = write_json(tmp_path / "run.json", RUN_CONFIG)
        code = main(["fit", "--data", str(data), "--config", str(config),
                     "--out", str(tmp_path / "o")])
        assert code == 1
        assert capsys.readouterr().err.strip() == message

    @pytest.mark.parametrize("command", ["fit", "restrict"])
    def test_unknown_family_exits_1_before_reading_data(self, tmp_path, capsys, command):
        data = tmp_path / "d.csv"
        data.write_text("cites,oa,x1\n3,closed,abc\n", encoding="utf-8")
        config = write_json(tmp_path / "run.json", {**RUN_CONFIG, "family": "ZIP"})
        out = tmp_path / "o"
        code = main([command, "--data", str(data), "--config", str(config), "--out", str(out)])
        assert code == 1
        assert "unknown family 'ZIP'; expected one of P, NB, HNB" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "doc, message",
        [
            pytest.param({**RUN_CONFIG, "fit_options": {"gradient_tolerance": "5"}},
                         "'fit_options.gradient_tolerance' must be a positive finite number, not '5'",
                         id="gradient_tolerance-numeric-string"),
            pytest.param({**RUN_CONFIG, "fit_options": {"gradient_tolerance": None}},
                         "'fit_options.gradient_tolerance' must be a positive finite number, not None",
                         id="gradient_tolerance-null"),
            pytest.param({**RUN_CONFIG, "fit_options": {"gradient_tolerance": "x"}},
                         "'fit_options.gradient_tolerance' must be a positive finite number, not 'x'",
                         id="gradient_tolerance-text"),
            pytest.param({**RUN_CONFIG, "fit_options": {"max_iterations": 2.5}},
                         "'fit_options.max_iterations' must be a positive integer, not 2.5",
                         id="max_iterations-fraction"),
            pytest.param({**RUN_CONFIG, "predictors": 5}, "'predictors' must be a list, not 5",
                         id="predictors-number"),
            pytest.param({**RUN_CONFIG, "predictors": [{"kind": "numeric"}]},
                         "'predictors[0].name' must be a string, not None",
                         id="predictor-without-name"),
            pytest.param({**RUN_CONFIG, "predictors": ["x1"]},
                         "'predictors[0]' must be an object, not 'x1'",
                         id="predictor-string"),
            pytest.param([RUN_CONFIG], "the configuration must be a JSON object, not list",
                         id="top-level-list"),
            pytest.param({**RUN_CONFIG, "y_max": -5}, "'y_max' must be a nonnegative integer, not -5",
                         id="y_max-negative"),
            pytest.param({**RUN_CONFIG, "y_max": -1}, "'y_max' must be a nonnegative integer, not -1",
                         id="y_max-minus-one"),
            pytest.param({**RUN_CONFIG, "y_max": 2.5}, "'y_max' must be a nonnegative integer, not 2.5",
                         id="y_max-fraction"),
            pytest.param({**RUN_CONFIG, "y_max": 10**6 + 1}, "'y_max' must be at most 1,000,000, not 1000001",
                         id="y_max-above-limit"),
            pytest.param({**RUN_CONFIG, "families": 5}, "'families' must be a list, not 5",
                         id="families-number"),
            pytest.param({**RUN_CONFIG, "families": "P,NB"}, "'families' must be a list, not 'P,NB'",
                         id="families-text"),
            pytest.param({**RUN_CONFIG, "hurdle_predictors": [{"a": 1}]},
                         "'hurdle_predictors[0]' must be a string, not {'a': 1}",
                         id="hurdle_predictor-object"),
            pytest.param({**RUN_CONFIG, "response": 5}, "'response' must be a string, not 5",
                         id="response-number"),
            pytest.param({**RUN_CONFIG, "predictors": [offset_x1(True)]},
                         "'predictors[0].transform.origin' must be a finite number, not True",
                         id="origin-bool"),
            pytest.param({**RUN_CONFIG, "predictors": [offset_x1("z")]},
                         "'predictors[0].transform.origin' must be a finite number, not 'z'",
                         id="origin-text"),
            pytest.param({**RUN_CONFIG, "predictors": [{**RUN_CONFIG["predictors"][0], "levels": [1, 2, 3]}]},
                         "'predictors[0].levels[0]' must be a string, not 1",
                         id="levels-integers"),
            pytest.param({**RUN_CONFIG, "response": "cites\udc80"},
                         "'response' must be a string that UTF-8 can encode, not 'cites\\udc80'",
                         id="response-lone-surrogate"),
        ],
    )
    def test_malformed_config_exits_1_naming_the_key(self, tmp_path, capsys, doc, message):
        data = make_csv(tmp_path / "d.csv", n=200)
        config = write_json(tmp_path / "run.json", doc)
        out = tmp_path / "o"
        code = main(["fit", "--data", str(data), "--config", str(config), "--out", str(out)])
        assert (code, capsys.readouterr().err) == (1, f"countreg: {message}\n")
        assert not out.exists()

    def test_a_frequency_table_above_the_cell_limit_is_refused_after_the_read(self, tmp_path, capsys):
        # 1,001 rows x 1,000,001 values is just above 10**9 cells.
        data = make_csv(tmp_path / "d.csv", n=1001)
        config = write_json(tmp_path / "run.json", {**RUN_CONFIG, "y_max": 10**6})
        out = tmp_path / "o"
        code = main(["fit", "--data", str(data), "--config", str(config), "--out", str(out)])
        message = (
            "'y_max' = 1000000 asks for a frequency table of 1,001 rows x 1,000,001 values,"
            " above the limit of 1,000,000,000 cells; set a smaller 'y_max'"
        )
        assert (code, capsys.readouterr().err) == (1, f"countreg: {message}\n")
        assert not out.exists()

    @pytest.mark.parametrize(
        "doc, message",
        [
            pytest.param({**RUN_CONFIG, "famly": "HNB"}, "the configuration has unknown keys ['famly']",
                         id="top-level"),
            pytest.param({**RUN_CONFIG, "hurdle_predictor": ["oa"]},
                         "the configuration has unknown keys ['hurdle_predictor']", id="hurdle_predictor"),
            pytest.param({**RUN_CONFIG, "predictors": [RUN_CONFIG["predictors"][0], {"name": "x1", "tranform": "log"}]},
                         "'predictors[1]' has unknown keys ['tranform']", id="predictor"),
            pytest.param({**RUN_CONFIG, "predictors": [
                {"name": "x1", "transform": {"type": "offset", "origin": 1.0, "scale": 2.0}}]},
                         "'predictors[0].transform' has unknown keys ['scale']", id="transform"),
            pytest.param({**RUN_CONFIG, "fit_options": {"hessian_step": 1e-5, "max_iteration": 5}},
                         "'fit_options' has unknown keys ['max_iteration']", id="fit_options"),
        ],
    )
    def test_an_unknown_key_exits_1_naming_it(self, tmp_path, capsys, doc, message):
        data = make_csv(tmp_path / "d.csv", n=200)
        config = write_json(tmp_path / "run.json", doc)
        out = tmp_path / "o"
        code = main(["fit", "--data", str(data), "--config", str(config), "--out", str(out)])
        assert (code, capsys.readouterr().err) == (1, f"countreg: {message}\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["fit", "compare", "restrict"])
    def test_a_response_named_like_a_predictor_exits_1(self, tmp_path, capsys, command):
        # Read as the count, x1 would also be its own regressor.
        data = make_csv(tmp_path / "d.csv", n=200)
        config = write_json(tmp_path / "run.json", {**RUN_CONFIG, "response": "x1", "families": ["P", "NB"]})
        out = tmp_path / "o"
        code = main([command, "--data", str(data), "--config", str(config), "--out", str(out)])
        assert (code, capsys.readouterr().err) == (1, "countreg: response 'x1' is also a predictor\n")
        assert not out.exists()

    def test_invalid_json_exits_1(self, tmp_path, capsys):
        data = make_csv(tmp_path / "d.csv", n=200)
        config = tmp_path / "run.json"
        config.write_text('{"family": "NB",', encoding="utf-8")
        out = tmp_path / "o"
        code = main(["fit", "--data", str(data), "--config", str(config), "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"countreg: invalid JSON in {config}: Expecting")
        assert not out.exists()

    def test_a_stalled_line_search_exits_2_with_its_warnings(self, tmp_path):
        rng = np.random.default_rng(0)
        x = 3 * rng.normal(size=300)
        y = rng.negative_binomial(0.5, 0.5 / (0.5 + np.exp(1 + 0.8 * x)))
        data = tmp_path / "d.csv"
        data.write_text("cites,x\n" + "".join(f"{y[i]},{float(x[i])!r}\n" for i in range(300)), encoding="utf-8")
        run = {"response": "cites", "predictors": [{"name": "x"}], "fit_options": {"step_halving_limit": 1}}
        config = write_json(tmp_path / "run.json", run)
        out = tmp_path / "o"
        assert main(["fit", "--data", str(data), "--config", str(config), "--out", str(out)]) == 2
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        assert report["converged"] is False
        assert report["warnings"] == ["line_search_stalled", "hessian_not_negative_definite"]

    def test_usage_error_exits_1(self):
        assert main(["no-such-command"]) == 1

    def test_non_convergence_exits_2_with_flagged_report(self, tmp_path):
        data = make_csv(tmp_path / "d.csv", n=1500, seed=9)
        strangled = {**RUN_CONFIG, "fit_options": {"max_iterations": 1}}
        config = write_json(tmp_path / "run.json", strangled)
        out = tmp_path / "out"
        code = main(["fit", "--data", str(data), "--config", str(config), "--out", str(out)])
        assert code == 2
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        assert report["converged"] is False
        assert float(report["gradient_norm"]) > 0.0

    def test_schema1_hessian_step_is_accepted_and_ignored(self, tmp_path):
        data = make_csv(tmp_path / "d.csv", n=800)
        run = {**RUN_CONFIG, "fit_options": {"max_iterations": 50, "hessian_step": 1e-5}}
        config = write_json(tmp_path / "run.json", run)
        code = main(["fit", "--data", str(data), "--config", str(config),
                     "--out", str(tmp_path / "o")])
        assert code == 0

    def test_reports_deterministic(self, tmp_path):
        data = make_csv(tmp_path / "d.csv", n=800)
        config = write_json(tmp_path / "run.json", RUN_CONFIG)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        main(["fit", "--data", str(data), "--config", str(config), "--out", str(out1)])
        main(["fit", "--data", str(data), "--config", str(config), "--out", str(out2)])
        assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
        assert (out1 / "frequency.csv").read_bytes() == (out2 / "frequency.csv").read_bytes()


class TestCompare:
    def test_ranking_on_hurdle_data(self, tmp_path):
        data = make_csv(tmp_path / "d.csv", family="HNB", seed=2, n=4000)
        config = write_json(tmp_path / "run.json", RUN_CONFIG)
        out = tmp_path / "out"
        code = main([
            "compare", "--data", str(data), "--config", str(config),
            "--families", "P,NB,HNB", "--out", str(out),
        ])
        assert code == 0
        report = json.loads((out / "comparison.json").read_text(encoding="utf-8"))
        assert report["best"] == "HNB"
        assert [row["family"] for row in report["ranking"]] == ["HNB", "NB", "P"]
        assert report["ranking"][0]["delta"] == 0.0
        for row in report["ranking"]:
            assert isinstance(row["aic_int"], int)

    def test_deltas_relative_to_best(self, tmp_path):
        data = make_csv(tmp_path / "d.csv", n=1500, seed=3)
        config = write_json(tmp_path / "run.json", RUN_CONFIG)
        out = tmp_path / "out"
        main(["compare", "--data", str(data), "--config", str(config),
              "--families", "P,NB", "--out", str(out)])
        report = json.loads((out / "comparison.json").read_text(encoding="utf-8"))
        aics = [row["aic"] for row in report["ranking"]]
        assert report["ranking"][1]["delta"] == pytest.approx(aics[1] - aics[0], rel=1e-6)

    @pytest.mark.parametrize(
        "families, message",
        [("P,ZIP", "unknown family 'ZIP'; expected one of P, NB, HNB"),
         ("NB", "compare needs at least two families")],
        ids=["unknown", "only-one"],
    )
    def test_families_checked_before_reading_data(self, tmp_path, capsys, families, message):
        data = tmp_path / "d.csv"
        data.write_text("cites,oa,x1\n3,closed,abc\n", encoding="utf-8")
        config = write_json(tmp_path / "run.json", RUN_CONFIG)
        out = tmp_path / "o"
        code = main(["compare", "--data", str(data), "--config", str(config),
                     "--families", families, "--out", str(out)])
        assert (code, capsys.readouterr().err) == (1, f"countreg: {message}\n")
        assert not out.exists()

    def test_config_families_checked_before_reading_data(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        data.write_text("cites,oa,x1\n3,closed,abc\n", encoding="utf-8")
        config = write_json(tmp_path / "run.json", {**RUN_CONFIG, "families": ["NB", "ZIP"]})
        code = main(["compare", "--data", str(data), "--config", str(config),
                     "--out", str(tmp_path / "o")])
        assert code == 1
        assert "unknown family 'ZIP'" in capsys.readouterr().err

    def test_empty_family_list_exits_1(self, tmp_path, capsys):
        data = make_csv(tmp_path / "d.csv", n=300)
        config = write_json(tmp_path / "run.json", RUN_CONFIG)
        code = main(["compare", "--data", str(data), "--config", str(config),
                     "--families", "", "--out", str(tmp_path / "o")])
        assert code == 1
        assert "two families" in capsys.readouterr().err


SIM_DESIGN = {
    "family": "NB",
    "n": 10,
    "seed": 99,
    "r": 0.7,
    "response": "cites",
    "covariates": [{"name": "x1", "kind": "normal", "mean": 0, "sd": 1}],
    "beta": {"intercept": 1.0, "x1": 0.3},
}


def grouped_design(levels=("a", "b")):
    """SIM_DESIGN plus a categorical covariate g that beta does not cover."""
    grouped = {"name": "g", "kind": "categorical", "levels": levels, "probs": [0.5, 0.5]}
    return {**SIM_DESIGN, "covariates": SIM_DESIGN["covariates"] + [grouped]}


class TestSimulate:
    def test_minimal_design_writes_csv(self, tmp_path):
        config = write_json(tmp_path / "design.json", SIM_DESIGN)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
        lines = (out / "dataset.csv").read_text(encoding="utf-8").strip().splitlines()
        assert lines[0] == "cites,x1"
        assert len(lines) == 11
        truth = json.loads((out / "truth.json").read_text(encoding="utf-8"))
        assert truth["truth"]["beta"] == {"intercept": 1.0, "x1": 0.3}

    def test_repeated_seed_identical_bytes(self, tmp_path):
        config = write_json(tmp_path / "design.json", SIM_DESIGN)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        main(["simulate", "--config", str(config), "--out", str(out1)])
        main(["simulate", "--config", str(config), "--out", str(out2)])
        assert (out1 / "dataset.csv").read_bytes() == (out2 / "dataset.csv").read_bytes()

    def test_seed_override_changes_data(self, tmp_path):
        config = write_json(tmp_path / "design.json", SIM_DESIGN)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        main(["simulate", "--config", str(config), "--out", str(out1)])
        main(["simulate", "--config", str(config), "--out", str(out2), "--seed", "123"])
        assert (out1 / "dataset.csv").read_bytes() != (out2 / "dataset.csv").read_bytes()

    def test_recovery_mode_writes_summary(self, tmp_path):
        design = {**SIM_DESIGN, "n": 1200, "recovery": {"replications": 5}}
        config = write_json(tmp_path / "design.json", design)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
        summary = json.loads((out / "recovery.json").read_text(encoding="utf-8"))
        assert summary["completed"] == 5
        assert set(summary["parameters"]) == {"intercept", "x1", "r"}

    def test_recovery_summary_does_not_depend_on_threads(self, tmp_path):
        # The default runs one worker per usable CPU, capped at the three
        # replications, so no more than three workers start on any host.
        design = {**SIM_DESIGN, "n": 600, "recovery": {"replications": 3}}
        config = write_json(tmp_path / "design.json", design)
        summaries = []
        for i, threads in enumerate([["--threads", "1"], ["--threads", "2"], []]):
            out = tmp_path / f"o{i}"
            assert main(["simulate", "--config", str(config), "--out", str(out), *threads]) == 0
            summaries.append((out / "recovery.json").read_bytes())
        assert summaries[0] == summaries[1] == summaries[2]

    def test_a_failed_recovery_study_leaves_the_directory_as_it_was(self, tmp_path, monkeypatch, capsys):
        import countreg.cli

        design = {**SIM_DESIGN, "n": 600, "recovery": {"replications": 2}}
        config = write_json(tmp_path / "design.json", design)
        args = ["simulate", "--config", str(config), "--out", str(tmp_path / "out"), "--threads", "1"]
        assert main(args) == 0
        before = {path.name: path.read_bytes() for path in (tmp_path / "out").iterdir()}

        def disk_full(*args, **kwargs):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(countreg.cli, "recovery_study", disk_full)
        assert main([*args, "--seed", "123"]) == 1
        assert capsys.readouterr().err == "countreg: [Errno 28] No space left on device\n"
        assert {path.name: path.read_bytes() for path in (tmp_path / "out").iterdir()} == before

    def test_a_run_without_recovery_removes_an_earlier_recovery_json(self, tmp_path):
        out = tmp_path / "out"
        design = {**SIM_DESIGN, "n": 600, "recovery": {"replications": 2}}
        config = write_json(tmp_path / "recovery.json", design)
        assert main(["simulate", "--config", str(config), "--out", str(out), "--threads", "1"]) == 0
        (out / "notes.txt").write_text("kept\n", encoding="utf-8")
        config = write_json(tmp_path / "design.json", SIM_DESIGN)
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
        assert sorted(path.name for path in out.iterdir()) == ["dataset.csv", "notes.txt", "truth.json"]

    def test_threads_default_to_every_usable_cpu(self):
        args = build_parser().parse_args(["simulate", "--config", "design.json"])
        assert args.threads is None

    @pytest.mark.parametrize(
        "doc, flags, message",
        [
            pytest.param([1], [], "the simulation design must be a JSON object, not list",
                         id="top-level-list"),
            pytest.param({**SIM_DESIGN, "covariates": [5]}, [],
                         "'covariates[0]' must be an object, not 5", id="covariate-number"),
            pytest.param({**SIM_DESIGN, "covariates": 5}, [],
                         "'covariates' must be a list, not 5", id="covariates-number"),
            pytest.param({**SIM_DESIGN, "recovery": [3]}, [],
                         "'recovery' must be an object, not [3]", id="recovery-list"),
            pytest.param({**SIM_DESIGN, "recovery": {"replications": None}}, [],
                         "'recovery.replications' must be a positive integer, not None",
                         id="replications-null"),
            pytest.param({**SIM_DESIGN, "recovery": {"replications": 2.5}}, [],
                         "'recovery.replications' must be a positive integer, not 2.5",
                         id="replications-fraction"),
            pytest.param({**SIM_DESIGN, "recovery": {"replications": True}}, [],
                         "'recovery.replications' must be a positive integer, not True",
                         id="replications-bool"),
            pytest.param({**SIM_DESIGN, "recovery": {"replications": 0}}, [],
                         "'recovery.replications' must be a positive integer, not 0",
                         id="replications-zero"),
            pytest.param({**SIM_DESIGN, "recovery": {}}, [],
                         "'recovery.replications' must be a positive integer, not None",
                         id="replications-missing"),
            pytest.param({**SIM_DESIGN, "recovery": {"replications": 100_001}}, ["--threads", "1"],
                         "'recovery.replications' must be at most 100,000, not 100001",
                         id="replications-above-limit"),
            pytest.param({**SIM_DESIGN, "n": 2000, "recovery": {"replications": 50_001}}, ["--threads", "1"],
                         "'recovery.replications' = 50001 of n = 2000 rows asks for 100,002,000 rows,"
                         " above the limit of 100,000,000", id="replication-rows-above-limit"),
            pytest.param({**SIM_DESIGN, "recovery": {"replications": 2}}, ["--threads", "0"],
                         "--threads must be a positive integer, not 0", id="threads-zero"),
            pytest.param({**SIM_DESIGN, "recovery": {"replications": 2}}, ["--threads", "-3"],
                         "--threads must be a positive integer, not -3", id="threads-negative"),
            pytest.param(SIM_DESIGN, ["--seed", "-1"],
                         "--seed must be a nonnegative integer, not -1", id="seed-negative"),
            pytest.param({**SIM_DESIGN, "beta": 5}, [], "'beta' must be an object, not 5",
                         id="beta-number"),
            pytest.param({**SIM_DESIGN, "seed": None}, [],
                         "'seed' must be a nonnegative integer, not None", id="seed-null"),
            pytest.param({**SIM_DESIGN, "n": 2.5}, [], "'n' must be a positive integer, not 2.5",
                         id="n-fraction"),
            pytest.param({**SIM_DESIGN, "n": True}, [], "'n' must be a positive integer, not True",
                         id="n-bool"),
            pytest.param(grouped_design(levels="ab"), [],
                         "'covariates[1].levels' must be a list, not 'ab'", id="levels-text"),
            pytest.param({**SIM_DESIGN, "response": [1]}, [], "'response' must be a string, not [1]",
                         id="response-list"),
            pytest.param({**SIM_DESIGN, "response": "y\udc80"}, [],
                         "'response' must be a string that UTF-8 can encode, not 'y\\udc80'",
                         id="response-lone-surrogate"),
            pytest.param({**SIM_DESIGN, "covariates": [{"name": "x1", "kind": "uniform",
                                                        "low": -1e308, "high": 1e308}]}, [],
                         "uniform covariate 'x1' needs a finite high - low", id="uniform-range-overflows"),
            pytest.param({**SIM_DESIGN, "covariates": [{"name": "x1", "kind": "poisson", "lam": 1e19}]}, [],
                         "poisson covariate 'x1' needs lam in [0, 9.223e+18]", id="poisson-lam-too-large"),
            pytest.param({**SIM_DESIGN, "r": math.nan}, [],
                         "'r' must be a positive finite number, not nan", id="r-nan"),
            pytest.param({**SIM_DESIGN, "r": "q"}, [],
                         "'r' must be a positive finite number, not 'q'", id="r-text"),
            pytest.param({**SIM_DESIGN, "covariates": [{**SIM_DESIGN["covariates"][0], "sd": "a"}]}, [],
                         "'covariates[0].sd' must be a nonnegative finite number, not 'a'",
                         id="sd-text"),
            pytest.param({**SIM_DESIGN, "beta": {"intercept": 1.0, "x1": "x"}}, [],
                         "'beta.x1' must be a finite number, not 'x'", id="beta-value-text"),
            pytest.param(grouped_design(), [], "beta does not cover design columns ['g=b']",
                         id="beta-misses-a-column"),
            pytest.param({**SIM_DESIGN, "covariates": [{"name": "r", "kind": "normal"}],
                          "beta": {"intercept": 1.0, "r": 0.3}}, [],
                         "parameter names ['r'] are given twice", id="covariate-named-r"),
            pytest.param({**SIM_DESIGN, "family": "HNB",
                          "covariates": [{"name": "zero:x", "kind": "normal"}, {"name": "x", "kind": "normal"}],
                          "beta": {"intercept": 1.0, "zero:x": 0.3, "x": 0.2},
                          "delta": {"intercept": -1.0, "zero:x": 0.0, "x": 0.5}}, [],
                         "parameter names ['zero:x'] are given twice", id="covariate-named-zero:x"),
            # The rules fit applies to the run's truth.json and its family.
            pytest.param({**SIM_DESIGN, "response": "x1"}, [], "response 'x1' is also a predictor",
                         id="response-named-like-a-covariate"),
            pytest.param({**SIM_DESIGN, "family": "ZIP"}, [], "unknown family 'ZIP'; expected one of P, NB, HNB",
                         id="unknown-family"),
        ],
    )
    def test_malformed_design_exits_1_before_writing(self, tmp_path, capsys, doc, flags, message):
        config = write_json(tmp_path / "design.json", doc)
        out = tmp_path / "o"
        code = main(["simulate", "--config", str(config), "--out", str(out), *flags])
        assert (code, capsys.readouterr().err) == (1, f"countreg: {message}\n")
        assert not out.exists()

    @pytest.mark.parametrize(
        "doc, message",
        [
            pytest.param({**SIM_DESIGN, "famly": "HNB"}, "the simulation design has unknown keys ['famly']",
                         id="top-level"),
            pytest.param({**SIM_DESIGN, "covariates": [{**SIM_DESIGN["covariates"][0], "sdd": 3}]},
                         "'covariates[0]' has unknown keys ['sdd']", id="covariate"),
            pytest.param({**SIM_DESIGN, "covariates": [{**SIM_DESIGN["covariates"][0], "low": -1, "high": 1}]},
                         "'covariates[0]' has unknown keys ['high', 'low']", id="field-of-another-kind"),
            pytest.param({**SIM_DESIGN, "recovery": {"replications": 2, "threads": 2}},
                         "'recovery' has unknown keys ['threads']", id="recovery"),
        ],
    )
    def test_an_unknown_key_exits_1_naming_it(self, tmp_path, capsys, doc, message):
        config = write_json(tmp_path / "design.json", doc)
        out = tmp_path / "o"
        code = main(["simulate", "--config", str(config), "--out", str(out)])
        assert (code, capsys.readouterr().err) == (1, f"countreg: {message}\n")
        assert not out.exists()

    def test_missing_design_file_exits_1(self, tmp_path, capsys):
        missing = tmp_path / "absent.json"
        assert main(["simulate", "--config", str(missing), "--out", str(tmp_path / "o")]) == 1
        simulate_err = capsys.readouterr().err
        assert main(["fit", "--config", str(missing), "--out", str(tmp_path / "f")]) == 1
        assert simulate_err == capsys.readouterr().err == f"countreg: no such file: {missing}\n"

    @pytest.mark.parametrize(
        "error, message",
        [
            pytest.param(MemoryError("Unable to allocate 7.28 TiB for an array with shape (1000000000000,)"),
                         "out of memory: Unable to allocate 7.28 TiB for an array with shape (1000000000000,)",
                         id="numpy-text"),
            pytest.param(MemoryError(), "out of memory", id="bare"),
        ],
    )
    def test_out_of_memory_exits_1_with_one_line(self, tmp_path, capsys, monkeypatch, error, message):
        # A stand-in for generate at n = 10**12: a real allocation that large
        # can succeed under overcommit and get the process killed.
        def generate(design):
            raise error

        monkeypatch.setattr("countreg.cli.generate", generate)
        config = write_json(tmp_path / "design.json", SIM_DESIGN)
        code = main(["simulate", "--config", str(config), "--out", str(tmp_path / "o")])
        assert (code, capsys.readouterr().err) == (1, f"countreg: {message}\n")

    def test_invalid_design_exits_1(self, tmp_path, capsys):
        config = write_json(tmp_path / "design.json", {**SIM_DESIGN, "family": "XXX"})
        assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "o")]) == 1
        assert "family" in capsys.readouterr().err

    def test_generated_csv_feeds_fit(self, tmp_path):
        design = {**SIM_DESIGN, "n": 2500}
        config = write_json(tmp_path / "design.json", design)
        out = tmp_path / "out"
        main(["simulate", "--config", str(config), "--out", str(out)])
        run = {
            "family": "NB",
            "response": "cites",
            "predictors": [{"name": "x1", "kind": "numeric"}],
        }
        run_config = write_json(tmp_path / "run.json", run)
        out2 = tmp_path / "fit"
        code = main(["fit", "--data", str(out / "dataset.csv"),
                     "--config", str(run_config), "--out", str(out2)])
        assert code == 0
        report = json.loads((out2 / "report.json").read_text(encoding="utf-8"))
        estimate = float(report["coefficients"][1]["estimate"])
        assert estimate == pytest.approx(0.3, abs=0.15)


class TestRestrict:
    def test_noise_covariate_dropped(self, tmp_path):
        data = make_csv(tmp_path / "d.csv", n=4000, seed=4, noise_column=True)
        run = {
            "family": "NB",
            "response": "cites",
            "predictors": RUN_CONFIG["predictors"] + [{"name": "noise", "kind": "numeric"}],
        }
        config = write_json(tmp_path / "run.json", run)
        out = tmp_path / "out"
        code = main(["restrict", "--data", str(data), "--config", str(config),
                     "--level", "0.10", "--out", str(out)])
        assert code == 0
        report = json.loads((out / "restricted_report.json").read_text(encoding="utf-8"))
        assert "noise" in report["dropped"]["mean"]
        names = [row["name"] for row in report["coefficients"]]
        assert "noise" not in names
        assert (out / "full_report.json").exists()

    def test_all_significant_keeps_model(self, tmp_path):
        data = make_csv(tmp_path / "d.csv", n=6000, seed=5)
        config = write_json(tmp_path / "run.json", RUN_CONFIG)
        out = tmp_path / "out"
        main(["restrict", "--data", str(data), "--config", str(config),
              "--level", "0.10", "--out", str(out)])
        report = json.loads((out / "restricted_report.json").read_text(encoding="utf-8"))
        full = json.loads((out / "full_report.json").read_text(encoding="utf-8"))
        assert report["dropped"] == {"mean": [], "zeros": []}
        assert [r["name"] for r in report["coefficients"]] == [
            r["name"] for r in full["coefficients"]
        ]
        assert report["coefficients"] == full["coefficients"]

    def test_level_zero_falls_back_to_intercept_only(self, tmp_path):
        data = make_csv(tmp_path / "d.csv", n=800, seed=6)
        config = write_json(tmp_path / "run.json", RUN_CONFIG)
        out = tmp_path / "out"
        code = main(["restrict", "--data", str(data), "--config", str(config),
                     "--level", "0", "--out", str(out)])
        assert code == 0
        report = json.loads((out / "restricted_report.json").read_text(encoding="utf-8"))
        assert [row["name"] for row in report["coefficients"]] == ["intercept"]
        assert any("intercept-only" in w for w in report["restriction_warnings"])

    def test_level_zero_on_an_hnb_run_drops_both_equations(self, tmp_path):
        data = make_csv(tmp_path / "d.csv", n=800, seed=6, family="HNB")
        config = write_json(tmp_path / "run.json", {**RUN_CONFIG, "family": "HNB"})
        out = tmp_path / "out"
        code = main(["restrict", "--data", str(data), "--config", str(config),
                     "--level", "0", "--out", str(out)])
        assert code == 0
        report = json.loads((out / "restricted_report.json").read_text(encoding="utf-8"))
        assert report["restriction_warnings"] == [
            "all mean-equation covariates dropped; intercept-only",
            "all hurdle-equation covariates dropped; intercept-only",
        ]
        assert [row["name"] for row in report["positives"]] == ["intercept"]
        assert [row["name"] for row in report["zeros"]] == ["zero:intercept"]

    @pytest.mark.parametrize(
        "level, flags, message",
        [
            pytest.param(None, [], "'level' must be a number in [0, 1], not None", id="null"),
            pytest.param(True, [], "'level' must be a number in [0, 1], not True", id="bool"),
            pytest.param("x", [], "'level' must be a number in [0, 1], not 'x'", id="text"),
            pytest.param(1.5, [], "'level' must be a number in [0, 1], not 1.5", id="above-one"),
            pytest.param(0.1, ["--level", "-0.5"], "--level must be in [0, 1], not -0.5",
                         id="flag-below-zero"),
        ],
    )
    def test_malformed_level_exits_1_before_reading_data(self, tmp_path, capsys, level, flags, message):
        data = tmp_path / "d.csv"
        data.write_text("cites,oa,x1\n3,closed,abc\n", encoding="utf-8")
        config = write_json(tmp_path / "run.json", {**RUN_CONFIG, "level": level})
        out = tmp_path / "o"
        code = main(["restrict", "--data", str(data), "--config", str(config),
                     "--out", str(out), *flags])
        assert (code, capsys.readouterr().err) == (1, f"countreg: {message}\n")
        assert not out.exists()

    def test_level_flag_overrides_the_config_level(self, tmp_path):
        data = make_csv(tmp_path / "d.csv", n=800, seed=6)
        config = write_json(tmp_path / "run.json", {**RUN_CONFIG, "level": 0})
        levels = {}
        for name, flags in (("config", []), ("flag", ["--level", "1"])):
            out = tmp_path / name
            assert main(["restrict", "--data", str(data), "--config", str(config),
                         "--out", str(out), *flags]) == 0
            report = json.loads((out / "restricted_report.json").read_text(encoding="utf-8"))
            levels[name] = (report["level"], len(report["dropped"]["mean"]))
        assert levels == {"config": (0.0, 3), "flag": (1.0, 0)}

    def test_hnb_prunes_equations_independently(self, tmp_path):
        data = make_csv(tmp_path / "d.csv", family="HNB", seed=7, n=5000, noise_column=True)
        run = {
            "family": "HNB",
            "response": "cites",
            "predictors": RUN_CONFIG["predictors"] + [{"name": "noise", "kind": "numeric"}],
        }
        config = write_json(tmp_path / "run.json", run)
        out = tmp_path / "out"
        code = main(["restrict", "--data", str(data), "--config", str(config),
                     "--level", "0.10", "--out", str(out)])
        assert code in (0, 2)
        report = json.loads((out / "restricted_report.json").read_text(encoding="utf-8"))
        assert "noise" in report["dropped"]["mean"]
        assert "noise" in report["dropped"]["zeros"]
        assert "positives" in report and "zeros" in report


    def test_hnb_keeps_a_predictor_that_survives_only_in_the_zero_equation(self, tmp_path):
        rng = np.random.default_rng(31)
        n = 3000
        x1, x2 = rng.normal(size=n), rng.normal(size=n)
        X = np.column_stack([np.ones(n), x1, x2])
        theta = link_mean(X, np.array([1.0, 0.4, 0.0]))
        y = np.zeros(n, dtype=np.int64)
        idx = np.flatnonzero(rng.random(n) >= link_hurdle(X, np.array([-0.5, 0.0, 0.9])))
        while idx.size:
            y[idx] = rng.poisson(rng.gamma(1 / 0.6, 0.6 * theta[idx]))
            idx = idx[y[idx] == 0]
        rows = "".join(f"{y[i]},{float(x1[i])!r},{float(x2[i])!r}\n" for i in range(n))
        data = tmp_path / "d.csv"
        data.write_text("cites,x1,x2\n" + rows, encoding="utf-8")
        run = {"family": "HNB", "response": "cites", "predictors": [{"name": "x1"}, {"name": "x2"}]}
        config = write_json(tmp_path / "run.json", run)
        out = tmp_path / "out"
        code = main(["restrict", "--data", str(data), "--config", str(config),
                     "--level", "0.10", "--out", str(out)])
        assert code == 0
        report = json.loads((out / "restricted_report.json").read_text(encoding="utf-8"))
        assert report["dropped"] == {"mean": ["x2"], "zeros": ["x1"]}
        assert [row["name"] for row in report["positives"]] == ["intercept", "x1"]
        assert [row["name"] for row in report["zeros"]] == ["zero:intercept", "zero:x2"]

    def test_a_predictor_named_like_a_level_keeps_only_its_own_column(self, tmp_path):
        # a has no effect; "a=z" is a numeric predictor of slope 0.6.
        rng = np.random.default_rng(5)
        n = 3000
        a = rng.choice(["p", "q", "r"], size=n)
        z = rng.normal(size=n)
        y = rng.poisson(np.exp(0.5 + 0.6 * z))
        data = tmp_path / "d.csv"
        data.write_text("cites,a,a=z\n" + "".join(f"{y[i]},{a[i]},{float(z[i])!r}\n" for i in range(n)),
                        encoding="utf-8")
        run = {"family": "P", "response": "cites", "predictors": [
            {"name": "a", "kind": "categorical", "base": "p", "levels": ["p", "q", "r"]}, {"name": "a=z"}]}
        config = write_json(tmp_path / "run.json", run)
        out = tmp_path / "out"
        assert main(["restrict", "--data", str(data), "--config", str(config),
                     "--level", "0.10", "--out", str(out)]) == 0
        report = json.loads((out / "restricted_report.json").read_text(encoding="utf-8"))
        assert report["dropped"] == {"mean": ["a=q", "a=r"], "zeros": []}
        assert [row["name"] for row in report["coefficients"]] == ["intercept", "a=z"]

    def test_a_surviving_predictor_named_with_an_equals_sign_is_kept(self, tmp_path):
        rng = np.random.default_rng(1)
        n = 500
        x = rng.normal(size=n)
        y = rng.poisson(np.exp(1.0 + 0.5 * x))
        data = tmp_path / "d.csv"
        data.write_text("cites,a=b\n" + "".join(f"{y[i]},{float(x[i])!r}\n" for i in range(n)),
                        encoding="utf-8")
        run = {"family": "P", "response": "cites", "predictors": [{"name": "a=b"}]}
        config = write_json(tmp_path / "run.json", run)
        out = tmp_path / "out"
        assert main(["restrict", "--data", str(data), "--config", str(config),
                     "--out", str(out)]) == 0
        report = json.loads((out / "restricted_report.json").read_text(encoding="utf-8"))
        assert report["dropped"] == {"mean": [], "zeros": []}
        assert [row["name"] for row in report["coefficients"]] == ["intercept", "a=b"]


class TestFormatting:
    @pytest.mark.parametrize("value, text", [(math.nan, "nan"), (math.inf, "inf"), (-math.inf, "-inf")])
    def test_a_non_finite_machine_field_is_written_as_its_name(self, value, text):
        assert _sig6(value) == text


class TestEntryPoints:
    # The module entry points run in this process, so that their lines are
    # traced as any other; tests/test_blas_threads.py runs `python -m
    # countreg` in a subprocess.
    def run(self, module, argv, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["countreg", *argv])
        with pytest.raises(SystemExit) as info:
            runpy.run_module(module, run_name="__main__")
        return info.value.code

    def test_python_dash_m_countreg_exits_with_mains_code(self, tmp_path, monkeypatch, capsys):
        missing = tmp_path / "absent.json"
        assert self.run("countreg", ["simulate", "--config", str(missing)], monkeypatch) == 1
        assert capsys.readouterr().err == f"countreg: no such file: {missing}\n"

    def test_the_cli_module_run_as_a_script_exits_with_mains_code(self, tmp_path, monkeypatch, capsys):
        missing = tmp_path / "absent.json"
        # runpy warns that the package imported countreg.cli before running it.
        with pytest.warns(RuntimeWarning, match="'countreg.cli' found in sys.modules"):
            code = self.run("countreg.cli", ["fit", "--config", str(missing)], monkeypatch)
        assert (code, capsys.readouterr().err) == (1, f"countreg: no such file: {missing}\n")


class TestStartup:
    # scipy is a test-only oracle, and the process pool serves only
    # recovery_study(threads > 1) and CSVs of 500,000 cells or more; the CLI
    # must not pay for importing either.
    @pytest.mark.parametrize("module", ["scipy", "concurrent.futures.process"])
    def test_import_does_not_load(self, module):
        src = Path(__file__).resolve().parent.parent / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        result = subprocess.run(
            [sys.executable, "-c", f"import countreg, sys; print({module!r} in sys.modules)"],
            env=env, capture_output=True, encoding="utf-8", check=True,
        )
        assert result.stdout.strip() == "False"
