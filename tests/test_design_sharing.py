"""A CLI fit holds one encoded copy of its data.

``_prepare`` encodes the mean design once and hands the same DesignMatrix to
the hurdle equation unless ``hurdle_predictors`` narrows it; the raw columns
are freed once encoded; ``restrict`` narrows its designs by taking columns of
the full ones, and refits on the full arrays when every column survives.
Oracle for the narrowing: the route it replaced, which re-encoded the raw
columns of the surviving predictors with ``encode_columns``.
"""

import json
import tracemalloc

import numpy as np
import pytest

from countreg import cli
from countreg.cli import main
from countreg.data import EncodingConfig, encode, encode_columns, read_csv
from countreg.likelihood import link_hurdle, link_mean
from countreg.simulate import citation_scale_design


def write_json(path, doc):
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


@pytest.fixture(scope="module")
def citation(tmp_path_factory):
    """A 20,000-row citation-scale dataset and its NB and HNB run configs."""
    root = tmp_path_factory.mktemp("citation")
    design = write_json(root / "design.json", citation_scale_design(n=20_000).to_dict())
    assert main(["simulate", "--config", str(design), "--out", str(root), "--threads", "1"]) == 0
    encoding = json.loads((root / "truth.json").read_text())["encoding_config"]
    configs = {family: write_json(root / f"{family}.json", {**encoding, "family": family})
               for family in ("NB", "HNB")}
    config = EncodingConfig.from_dict(encoding)
    X = encode(read_csv(root / "dataset.csv", config), config)
    return root / "dataset.csv", configs, X.X.nbytes


# The fit's traced peak as a multiple of one copy of X.  With a second copy
# for the hurdle equation and the raw columns alive, NB peaked at 4.32 and
# HNB at 5.31 copies; with one copy, at 2.35 and 3.34.
@pytest.mark.parametrize("family, copies", [("NB", 3.0), ("HNB", 4.0)])
def test_a_fit_peaks_within_its_copies_of_X(citation, tmp_path, family, copies):
    data, configs, x_bytes = citation
    argv = ["fit", "--data", str(data), "--config", str(configs[family]), "--out", str(tmp_path)]
    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak <= copies * x_bytes, f"peak {peak / x_bytes:.2f} copies of X"


PREDICTORS = [
    {"name": "oa", "kind": "categorical", "base": "closed", "levels": ["closed", "green", "gold"]},
    {"name": "grp", "kind": "categorical", "base": "a"},
    {"name": "x1", "kind": "numeric"},
    {"name": "x2", "kind": "numeric"},
]


@pytest.fixture(scope="module")
def hurdle_csv(tmp_path_factory):
    """HNB counts: oa acts on the zeros only, grp and x1 on the positives
    only, x2 on neither."""
    rng = np.random.default_rng(41)
    n = 4000
    oa = rng.choice(["closed", "green", "gold"], size=n, p=[0.5, 0.3, 0.2])
    grp = rng.choice(["b", "a", "c"], size=n)
    x1, x2 = rng.normal(size=n), rng.normal(size=n)
    ones = np.ones(n)
    theta = link_mean(np.column_stack([ones, grp == "b", grp == "c", x1]).astype(float),
                      np.array([1.0, 0.5, -0.4, 0.4]))
    phi = link_hurdle(np.column_stack([ones, oa == "green", oa == "gold"]).astype(float),
                      np.array([-0.5, 1.0, -0.9]))
    y = np.zeros(n, dtype=np.int64)
    idx = np.flatnonzero(rng.random(n) >= phi)
    while idx.size:
        y[idx] = rng.poisson(rng.gamma(1 / 0.6, 0.6 * theta[idx]))
        idx = idx[y[idx] == 0]
    path = tmp_path_factory.mktemp("hurdle") / "d.csv"
    rows = "".join(f"{y[i]},{oa[i]},{grp[i]},{float(x1[i])!r},{float(x2[i])!r}\n" for i in range(n))
    path.write_text("cites,oa,grp,x1,x2\n" + rows, encoding="utf-8")
    return path


def counting_encoder(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(kwargs.get("equation", args[2] if len(args) > 2 else "mean"))
        return encode(*args, **kwargs)

    monkeypatch.setattr(cli, "encode", counting)
    return calls


@pytest.mark.parametrize(
    "hurdle, equations",
    [
        (None, ["mean"]),
        (["x2", "x1", "grp", "oa"], ["mean"]),
        (["oa", "x2"], ["mean", "hurdle"]),
    ],
    ids=["default", "same-list", "narrower"],
)
@pytest.mark.parametrize(
    "command", [["fit"], ["compare", "--families", "NB,HNB"]], ids=["fit", "compare"]
)
def test_the_data_is_encoded_once_per_distinct_design(
    hurdle_csv, tmp_path, monkeypatch, command, hurdle, equations
):
    run = {"family": "HNB", "response": "cites", "predictors": PREDICTORS}
    if hurdle is not None:
        run["hurdle_predictors"] = hurdle
    config = write_json(tmp_path / "run.json", run)
    calls = counting_encoder(monkeypatch)
    argv = [*command, "--data", str(hurdle_csv), "--config", str(config), "--out", str(tmp_path / "o")]
    assert main(argv) == 0
    assert calls == equations


def assert_same_design(got, want):
    assert got.labels == want.labels
    assert got.predictors == want.predictors
    assert got.X.flags["C_CONTIGUOUS"]
    assert got.X.shape == want.X.shape
    assert got.X.tobytes() == want.X.tobytes()


@pytest.mark.parametrize("family", ["NB", "HNB"])
def test_restricted_designs_are_the_re_encoded_ones(hurdle_csv, tmp_path, monkeypatch, family):
    run = {"family": family, "response": "cites", "predictors": PREDICTORS,
           "hurdle_predictors": ["oa", "grp", "x2"]}
    config = write_json(tmp_path / "run.json", run)
    narrowed = []
    fitted = []

    def recording_narrowed(design, kept):
        result = cli_narrowed(design, kept)
        narrowed.append((design, kept, result))
        return result

    def recording_fit(family, X, y, X_h, options, labels, hurdle_labels):
        fitted.append((X, X_h))
        return fit_family(family, X, y, X_h, options, labels, hurdle_labels)

    cli_narrowed, fit_family = cli._narrowed, cli.fit_family
    monkeypatch.setattr(cli, "_narrowed", recording_narrowed)
    monkeypatch.setattr(cli, "fit_family", recording_fit)
    out = tmp_path / "o"
    assert main(["restrict", "--data", str(hurdle_csv), "--config", str(config),
                 "--level", "0.01", "--out", str(out)]) == 0
    report = json.loads((out / "restricted_report.json").read_text())

    config = EncodingConfig.from_dict(run)
    dataset = read_csv(hurdle_csv, config)
    for full, kept, design in narrowed:
        surviving = {full.predictors[j] for j in kept}
        specs = [spec for spec in config.predictors if spec.name in surviving]
        oracle = encode_columns(dataset.columns, specs, dataset.n)
        assert_same_design(design, oracle)
    restricted_X, restricted_X_h = fitted[-1]
    assert restricted_X is narrowed[0][2].X
    if family == "NB":
        assert len(narrowed) == 1
        assert report["dropped"]["mean"] == ["x2"]
        assert [row["name"] for row in report["coefficients"]] == list(narrowed[0][2].labels)
        return
    # oa survives in the hurdle equation only, grp in the mean equation only;
    # grp's levels come in their order of appearance.
    assert restricted_X_h is narrowed[1][2].X
    assert report["dropped"] == {"mean": ["oa=green", "oa=gold", "x2"], "zeros": ["grp=c", "grp=b", "x2"]}
    assert [row["name"] for row in report["positives"]] == ["intercept", "grp=c", "grp=b", "x1"]
    assert [row["name"] for row in report["zeros"]] == [
        "zero:intercept", "zero:oa=green", "zero:oa=gold"]


def test_restrict_keeping_every_column_refits_on_the_full_designs(hurdle_csv, tmp_path, monkeypatch):
    run = {"family": "HNB", "response": "cites", "predictors": PREDICTORS}
    config = write_json(tmp_path / "run.json", run)
    fitted = []

    def recording_fit(family, X, y, X_h, *args):
        fitted.append((X, X_h))
        return fit_family(family, X, y, X_h, *args)

    fit_family = cli.fit_family
    monkeypatch.setattr(cli, "fit_family", recording_fit)
    assert main(["restrict", "--data", str(hurdle_csv), "--config", str(config),
                 "--level", "1", "--out", str(tmp_path / "o")]) == 0
    (full_X, full_X_h), (X, X_h) = fitted
    assert full_X_h is full_X
    assert X is full_X and X_h is full_X
