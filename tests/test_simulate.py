"""Simulation designs, generation moments, and recovery studies.

Oracles: closed-form moments averaged over rows (CLT bounds), binomial zero
fractions, and byte-level determinism of generated datasets.
"""

import hashlib
import json
import os

import numpy as np
import pytest

from countreg.data import encode_columns
from countreg.exceptions import ConfigError
from countreg.fit import fit_family
from countreg.likelihood import link_hurdle, link_mean
from countreg.simulate import (
    CovariateSpec,
    SimDesign,
    _usable_cpus,
    _workers,
    citation_scale_design,
    generate,
    recovery_study,
)


def nb_design(n=2000, seed=1, beta=None, r=0.7):
    return SimDesign(
        family="NB",
        n=n,
        covariates=(CovariateSpec(name="x1", kind="normal"),),
        beta=beta or {"intercept": 1.0, "x1": -0.5},
        seed=seed,
        r=r,
    )


def hnb_design(n=2000, seed=2, phi_intercept=None):
    import math

    delta0 = phi_intercept if phi_intercept is not None else math.log(0.3 / 0.7)
    return SimDesign(
        family="HNB",
        n=n,
        covariates=(CovariateSpec(name="x1", kind="normal"),),
        beta={"intercept": 1.2, "x1": 0.4},
        seed=seed,
        r=0.6,
        delta={"intercept": delta0, "x1": 0.0},
    )


class TestGenerate:
    def test_nb_moments_match_row_averaged_truth(self):
        design = nb_design(n=200000, seed=11, beta={"intercept": 1.0, "x1": -0.5})
        dataset, truth = generate(design)
        config = design.encoding_config()
        X = encode_columns(dataset.columns, config.predictors, dataset.n)
        theta = link_mean(X.X, np.array([1.0, -0.5]))
        mean = float(np.mean(theta))
        # var(Y) = E[theta + r theta^2] + var(theta)
        var = float(np.mean(theta + 0.7 * theta**2) + np.var(theta))
        n = dataset.n
        assert abs(dataset.y.mean() - mean) < 4 * np.sqrt(var / n)
        assert truth["beta"] == {"intercept": 1.0, "x1": -0.5}

    def test_hurdle_zero_fraction(self):
        design = hnb_design(n=100000, seed=12)
        dataset, _ = generate(design)
        config = design.encoding_config()
        X = encode_columns(dataset.columns, config.predictors, dataset.n)
        phi = link_hurdle(X.X, np.array([design.delta["intercept"], 0.0]))
        target = float(np.mean(phi))
        assert abs((dataset.y == 0).mean() - target) < 4 * np.sqrt(0.25 / dataset.n)

    def test_identical_seed_identical_bytes(self):
        design = nb_design(n=500, seed=77)
        a, _ = generate(design)
        b, _ = generate(design)
        assert a.y.tobytes() == b.y.tobytes()
        for ca, cb in zip(a.columns, b.columns):
            assert np.asarray(ca.values, dtype=float).tobytes() == np.asarray(
                cb.values, dtype=float
            ).tobytes()

    # sha256 of the little-endian int64 counts drawn from pinned designs.  A
    # change to the samplers or to the order of random draws moves them.
    PINNED_DIGESTS = {
        "P": "3065b25602f8aee40fe458984ba57671d6befb5e5e8f886b18e554374cfd9a36",
        "NB": "5e4cdf7bfa049092422df3f460e59b576e4610d04fba8738415149852b66d4d1",
        "HNB": "d4d440521a02ea48b2e4fcd8ec96ded243ee0d96f84ff48f98ef5f90c1345e04",
    }

    @pytest.mark.parametrize("family", ["P", "NB", "HNB"])
    def test_draws_match_pinned_digests(self, family):
        covariates = (
            CovariateSpec(name="x1", kind="normal"),
            CovariateSpec(name="g", kind="categorical", levels=("a", "b", "c"), probs=(0.5, 0.3, 0.2)),
            CovariateSpec(name="d", kind="bernoulli", p=0.4),
        )
        beta = {"intercept": 0.8, "x1": 0.3, "g=b": -0.2, "g=c": 0.4, "d": 0.25}
        extra = {
            "P": {"seed": 41},
            "NB": {"seed": 42, "r": 0.6},
            "HNB": {
                "seed": 43,
                "r": 3.0,
                "delta": {"intercept": -0.5, "x1": 0.6, "g=b": 0.1, "g=c": -0.3, "d": 0.2},
            },
        }[family]
        design = SimDesign(family=family, n=600, covariates=covariates, beta=beta, **extra)
        dataset, _ = generate(design)
        assert [col.kind for col in dataset.columns] == ["numeric", "categorical", "binary"]
        digest = hashlib.sha256(dataset.y.astype("<i8").tobytes()).hexdigest()
        assert digest == self.PINNED_DIGESTS[family]

    def test_categorical_covariates_round_trip(self):
        design = SimDesign(
            family="P",
            n=3000,
            covariates=(
                CovariateSpec(
                    name="oa",
                    kind="categorical",
                    levels=("closed", "green", "gold"),
                    probs=(0.6, 0.3, 0.1),
                    base="closed",
                ),
            ),
            beta={"intercept": 1.0, "oa=green": 0.2, "oa=gold": -0.1},
            seed=5,
        )
        dataset, _ = generate(design)
        values = set(dataset.column("oa").values.tolist())
        assert values == {"closed", "green", "gold"}

    def test_beta_must_cover_design_columns(self):
        design = SimDesign(
            family="P",
            n=100,
            covariates=(CovariateSpec(name="x1", kind="normal"),),
            beta={"intercept": 1.0},
            seed=5,
        )
        with pytest.raises(ConfigError, match="beta"):
            generate(design)

    def test_design_validation(self):
        with pytest.raises(ConfigError):
            SimDesign(family="NB", n=10, covariates=(), beta={"intercept": 1.0}, seed=1)
        with pytest.raises(ConfigError):
            SimDesign(family="HNB", n=10, covariates=(), beta={"intercept": 1.0}, seed=1, r=0.5)
        with pytest.raises(ConfigError):
            CovariateSpec(name="c", kind="categorical", levels=("a", "b"), probs=(0.5, 0.4))

    def test_json_round_trip(self):
        design = hnb_design()
        rebuilt = SimDesign.from_dict(design.to_dict())
        assert rebuilt == design

    def test_each_covariate_kind_writes_its_own_fields(self):
        covariates = [
            {"name": "a", "kind": "normal", "mean": 0.5, "sd": 2.0},
            {"name": "b", "kind": "uniform", "low": -1.0, "high": 1.0},
            {"name": "c", "kind": "integer", "low": 0.0, "high": 7.0},
            {"name": "d", "kind": "bernoulli", "p": 0.25},
            {"name": "e", "kind": "poisson", "lam": 0.6},
            {"name": "f", "kind": "categorical", "levels": ["u", "v"], "probs": [0.7, 0.3], "base": "v"},
        ]
        beta = {"intercept": 1.0, "a": 0.1, "b": 0.1, "c": 0.1, "d": 0.1, "e": 0.1, "f=u": 0.1}
        doc = {"family": "P", "n": 50, "seed": 3, "response": "y", "covariates": covariates, "beta": beta}
        design = SimDesign.from_dict(doc)
        assert json.dumps(design.to_dict()) == json.dumps(doc)
        assert SimDesign.from_dict(design.to_dict()) == design
        with pytest.raises(ConfigError, match="^unknown covariate kind 'gamma'$"):
            CovariateSpec(name="g", kind="gamma")


class TestRecoveryStudy:
    def test_summary_matches_pinned_digest(self):
        # sha256 of the summary's JSON: every estimate and standard error of
        # 12 HNB refits, as recovery.json carries them.  Another numpy/BLAS
        # build may round reductions differently and move it.
        design = SimDesign(
            family="HNB",
            n=1200,
            covariates=(CovariateSpec(name="x1", kind="normal"),),
            beta={"intercept": 1.2, "x1": 0.4},
            seed=17,
            r=0.6,
            delta={"intercept": -0.85, "x1": 0.3},
        )
        summary = recovery_study(design, replications=12)
        digest = hashlib.sha256(json.dumps(summary, sort_keys=True).encode()).hexdigest()
        assert digest == "1a36504b70d89ce0a7cf06be8e2e55a2b98f9d282032719fcf4f76134963da2e"

    def test_a_replication_that_cannot_be_drawn_is_tallied(self):
        # With n = 20, about a third of the draws miss the base level "a".
        rare = CovariateSpec(name="g", kind="categorical", levels=("a", "b"), probs=(0.05, 0.95), base="a")
        design = SimDesign(family="P", n=20, covariates=(rare,), beta={"intercept": 1.0, "g=b": 0.2}, seed=4)
        summary = recovery_study(design, replications=6)
        errors = [failure["error"] for failure in summary["failures"]]
        assert errors and summary["completed"] == 6 - len(errors)
        assert set(errors) == {"ConfigError: base level 'a' of 'g' does not occur in the data"}

    def test_single_replication_verbatim(self):
        summary = recovery_study(nb_design(n=1500, seed=3), replications=1)
        assert summary["replications"] == 1
        assert summary["completed"] == 1
        assert len(summary["replication_estimates"]) == 1
        row = summary["replication_estimates"][0]
        assert set(row["estimates"]) == {"intercept", "x1", "r"}

    def test_replication_refits_its_generated_draw(self):
        design = hnb_design(n=800, seed=5)
        summary = recovery_study(design, replications=2)
        child = np.random.SeedSequence(entropy=design.seed, spawn_key=(1,))
        dataset, _ = generate(design, seed_sequence=child)
        X = encode_columns(dataset.columns, design.encoding_config().predictors, dataset.n)
        model = fit_family("HNB", X.X, dataset.y, labels=X.labels)
        row = summary["replication_estimates"][1]
        assert row["estimates"] == {name: model.estimates[name] for name in model.names}

    def test_coverage_in_calibrated_band(self):
        summary = recovery_study(nb_design(n=5000, seed=4), replications=200)
        for name in ("intercept", "x1"):
            coverage = summary["parameters"][name]["coverage_95"]
            assert 0.90 <= coverage <= 0.99, (name, coverage)

    def test_bias_shrinks_with_n(self):
        small = recovery_study(nb_design(n=2000, seed=6), replications=50)
        large = recovery_study(nb_design(n=50000, seed=6), replications=50)
        for name in ("intercept", "x1"):
            assert abs(large["parameters"][name]["bias"]) < abs(
                small["parameters"][name]["bias"]
            )

    def test_boundary_dispersion_flags_degraded_coverage(self):
        # Truth r near the Poisson boundary: the Wald interval for r loses
        # calibration and the parameter is flagged; the betas stay fine.
        design = SimDesign(
            family="NB",
            n=1500,
            covariates=(CovariateSpec(name="x1", kind="normal"),),
            beta={"intercept": 1.0, "x1": 0.3},
            seed=31,
            r=0.004,
        )
        summary = recovery_study(design, replications=40)
        assert "r" in summary["degraded_coverage"]
        assert summary["parameters"]["r"]["coverage_95"] < 0.90
        for name in ("intercept", "x1"):
            assert summary["parameters"][name]["coverage_95"] >= 0.85

    def test_threads_do_not_change_results(self):
        design = nb_design(n=1200, seed=8)
        serial = recovery_study(design, replications=6, threads=1)
        parallel = recovery_study(design, replications=6, threads=2)
        assert json.dumps(serial, sort_keys=True) == json.dumps(parallel, sort_keys=True)

    def test_failures_do_not_depend_on_scheduling(self):
        # At n = 10 some hurdle refits fail; their indices and errors, like
        # the estimates, must not depend on which worker ran them.
        design = hnb_design(n=10, seed=9)
        serial = recovery_study(design, replications=8, threads=1)
        parallel = recovery_study(design, replications=8, threads=2)
        assert 0 < len(serial["failures"]) < 8
        assert json.dumps(serial, sort_keys=True) == json.dumps(parallel, sort_keys=True)

    @pytest.mark.parametrize(
        "threads, replications, cpus, workers",
        [
            pytest.param(None, 150, 2, 2, id="default-every-cpu"),
            pytest.param(None, 150, 1, 1, id="default-one-cpu"),
            pytest.param(3, 150, 2, 3, id="explicit"),
            pytest.param(1, 150, 64, 1, id="explicit-serial"),
            pytest.param(None, 3, 64, 3, id="default-capped-at-replications"),
            pytest.param(8, 2, 2, 2, id="explicit-capped-at-replications"),
        ],
    )
    def test_worker_count(self, threads, replications, cpus, workers):
        assert _workers(threads, replications, cpus) == workers

    def test_usable_cpus_reads_the_affinity_set(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False)
        assert _usable_cpus() == 3

    def test_usable_cpus_falls_back_to_cpu_count(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 6)
        assert _usable_cpus() == 6

    def test_bad_replications(self):
        with pytest.raises(ConfigError):
            recovery_study(nb_design(), replications=0)


class TestCitationScaleDesign:
    def test_shape(self):
        design = citation_scale_design(n=5000)
        assert design.family == "NB"
        assert len(design.covariates) == 30
        assert design.r == 0.64
        dataset, _ = generate(design)
        config = design.encoding_config()
        X = encode_columns(dataset.columns, config.predictors, dataset.n)
        assert X.k == 31
        assert dataset.y.min() >= 0
