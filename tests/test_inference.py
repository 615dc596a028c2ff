"""Wald tables, IRR transformation, marginal effects, AIC comparison.

The coefficient-table checks reproduce published rows of a citation study
(estimate 0.1299, se 0.0096 -> IRR 1.1387 with CI 1.1172..1.1605); small
differences from rounding of the published standard errors are allowed for
the CI built from (estimate, se), while the IRR transformation itself is
checked tightly.
"""

import math

import numpy as np
import pytest

from countreg.fit import fit_hnb, fit_nb, fit_poisson
from countreg.inference import (
    CoefficientReport,
    aic,
    compare,
    irr,
    marginal_effect_hurdle,
    significance_stars,
    wald_table,
)
from countreg.likelihood import link_hurdle, link_mean


def nb_data(rng, n=4000, beta=(1.0, 0.4), r=0.7):
    X = np.column_stack([np.ones(n), rng.normal(size=n)])
    theta = link_mean(X, np.asarray(beta))
    y = rng.poisson(rng.gamma(1.0 / r, r * theta))
    return X, y


def hnb_data(rng, n=4000, beta=(1.2, 0.4), r=0.6, delta=(0.4, 0.8)):
    X = np.column_stack([np.ones(n), rng.normal(size=n)])
    phi = link_hurdle(X, np.asarray(delta))
    theta = link_mean(X, np.asarray(beta))
    y = np.zeros(n, dtype=np.int64)
    idx = np.flatnonzero(rng.random(n) >= phi)
    while idx.size:
        y[idx] = rng.poisson(rng.gamma(1.0 / r, r * theta[idx]))
        idx = idx[y[idx] == 0]
    return X, y


def report_row(name, estimate, std_err, ci_low, ci_high):
    z = estimate / std_err
    p = math.erfc(abs(z) / math.sqrt(2.0))
    return CoefficientReport(
        name=name, estimate=estimate, std_err=std_err, z=z, p_value=p,
        ci_low=ci_low, ci_high=ci_high, stars=significance_stars(p),
    )


class TestStars:
    def test_thresholds(self):
        assert significance_stars(0.009) == "***"
        assert significance_stars(0.03) == "**"
        assert significance_stars(0.07) == "*"
        assert significance_stars(0.15) == ""

    def test_pure_function_of_p(self):
        for p in np.linspace(0.0, 1.0, 101):
            assert significance_stars(p) == significance_stars(p)


class TestWaldTable:
    def make_model(self, estimate, se, name="x1"):
        # Synthesize a one-coefficient model carrier for table checks.
        from countreg.fit import FittedModel

        return FittedModel(
            family="NB",
            names=(name,),
            estimates={name: estimate},
            params_unconstrained=np.array([estimate]),
            covariance=np.array([[se**2]]),
            covariance_unconstrained=np.array([[se**2]]),
            loglik=-1.0,
            n=10,
            k_mean=1,
            k_hurdle=0,
            n_params=1,
            converged=True,
            iterations=1,
            gradient_norm=0.0,
            mean_names=(name,),
        )

    def test_published_green_oa_row(self):
        row = wald_table(self.make_model(0.1299, 0.0096))[0]
        assert row.stars == "***"
        assert row.ci_low == pytest.approx(0.1109, abs=3e-4)
        assert row.ci_high == pytest.approx(0.1489, abs=3e-4)

    def test_published_gold_oa_row(self):
        row = wald_table(self.make_model(0.0585, 0.0306))[0]
        assert row.stars == "*"
        assert row.ci_low == pytest.approx(-0.0015, abs=3e-4)
        assert row.ci_high == pytest.approx(0.1186, abs=3e-4)

    def test_null_coefficient(self):
        row = wald_table(self.make_model(0.0, 1.0))[0]
        assert row.p_value == pytest.approx(1.0)
        assert row.stars == ""

    def test_zero_estimate_with_zero_se_has_no_z_p_or_stars(self):
        row = wald_table(self.make_model(0.0, 0.0))[0]
        assert math.isnan(row.z) and math.isnan(row.p_value)
        assert (row.stars, row.ci_low, row.ci_high) == ("", 0.0, 0.0)

    def test_zero_se_flagged_not_crashed(self):
        row = wald_table(self.make_model(0.5, 0.0))[0]
        assert math.isinf(row.z) and row.z > 0
        assert row.ci_low == row.ci_high == 0.5

    def test_ci_brackets_estimate(self):
        rng = np.random.default_rng(0)
        X, y = nb_data(rng)
        rows = wald_table(fit_nb(X, y))
        for row in rows:
            assert row.ci_low <= row.estimate <= row.ci_high

    def test_bad_level(self):
        with pytest.raises(ValueError):
            wald_table(self.make_model(0.1, 0.1), level=1.5)


class TestIrr:
    def test_published_green_oa_transformation(self):
        row = report_row("oa=green", 0.1299, 0.0096, 0.1109, 0.1489)
        out = irr([row], ["oa=green"])[0]
        assert out.irr == pytest.approx(1.1387, abs=1e-4)
        assert out.ci_low == pytest.approx(1.1172, abs=1e-4)
        assert out.ci_high == pytest.approx(1.1605, abs=1e-4)
        assert out.irr_std_err == pytest.approx(1.1387 * 0.0096, abs=1e-4)

    def test_published_accounting_row(self):
        row = report_row("disc=acct", 0.3544, 0.0816, 0.1945, 0.5143)
        out = irr([row], ["disc=acct"])[0]
        assert out.irr == pytest.approx(1.4253, abs=1e-4)

    def test_zero_estimate_gives_unit_irr(self):
        row = report_row("x", 0.0, 0.5, -0.98, 0.98)
        assert irr([row], ["x"])[0].irr == 1.0

    def test_ci_is_exponentiated_coefficient_ci(self):
        row = report_row("x", 0.2, 0.05, 0.102, 0.298)
        out = irr([row], ["x"])[0]
        assert out.ci_low == math.exp(0.102)
        assert out.ci_high == math.exp(0.298)

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            irr([report_row("x", 0.1, 0.1, 0.0, 0.2)], ["missing"])


@pytest.fixture(scope="module")
def hurdle_model():
    rng = np.random.default_rng(1)
    X, y = hnb_data(rng)
    return fit_hnb(X, X, y, labels=("intercept", "x1"), hurdle_labels=("intercept", "x1"))


class TestMarginalEffectHurdle:
    @pytest.fixture
    def model(self, hurdle_model):
        return hurdle_model

    def test_zero_coefficient_gives_zero(self, model):
        patched = {**model.estimates, "zero:x1": 0.0}
        frozen = model.__class__(**{**model.__dict__, "estimates": patched})
        assert marginal_effect_hurdle(frozen, "x1", [1.0, 0.0]) == 0.0

    def test_peak_effect_at_half(self):
        # phi = 0.5 and delta_j = 1 -> derivative 0.25 (logistic peak).
        assert 0.5 * (1.0 - 0.5) * 1.0 == 0.25

    def test_matches_finite_difference(self, model):
        row = np.array([1.0, 0.35])
        effect = marginal_effect_hurdle(model, "x1", row)
        delta = np.array([model.estimates[n] for n in model.hurdle_names])
        h = 1e-6
        up, down = row.copy(), row.copy()
        up[1] += h
        down[1] -= h
        fd = (
            float(link_hurdle(up.reshape(1, -1), delta)[0])
            - float(link_hurdle(down.reshape(1, -1), delta)[0])
        ) / (2 * h)
        assert effect == pytest.approx(fd, abs=1e-8)

    def test_requires_hurdle_membership(self, model):
        with pytest.raises(KeyError):
            marginal_effect_hurdle(model, "nope", [1.0, 0.0])

    def test_requires_hnb(self):
        rng = np.random.default_rng(2)
        X, y = nb_data(rng, n=500)
        with pytest.raises(ValueError):
            marginal_effect_hurdle(fit_nb(X, y), "x1", [1.0, 0.0])


class TestAicCompare:
    def test_arithmetic(self):
        from countreg.fit import FittedModel

        def fake(loglik, p):
            return FittedModel(
                family="P", names=("a",), estimates={"a": 0.0},
                params_unconstrained=np.zeros(1), covariance=np.eye(1),
                covariance_unconstrained=np.eye(1), loglik=loglik, n=5,
                k_mean=1, k_hurdle=0, n_params=p, converged=True,
                iterations=1, gradient_norm=0.0, mean_names=("a",),
            )

        assert aic(fake(-50.0, 2)) == 104.0
        assert aic(fake(-100.0, 3)) == 206.0

    def test_aic_strictly_decreases_with_loglik_at_equal_p(self):
        from countreg.fit import FittedModel

        def fake(loglik):
            return FittedModel(
                family="P", names=("a",), estimates={"a": 0.0},
                params_unconstrained=np.zeros(1), covariance=np.eye(1),
                covariance_unconstrained=np.eye(1), loglik=loglik, n=5,
                k_mean=1, k_hurdle=0, n_params=3, converged=True,
                iterations=1, gradient_norm=0.0, mean_names=("a",),
            )

        assert aic(fake(-49.0)) < aic(fake(-50.0))

    def test_nb_beats_poisson_on_overdispersed_data(self):
        rng = np.random.default_rng(3)
        X, y = nb_data(rng, n=3000)
        assert aic(fit_nb(X, y)) < aic(fit_poisson(X, y))

    def test_ranking_on_hurdle_data(self):
        rng = np.random.default_rng(4)
        X, y = hnb_data(rng, n=5000)
        models = [fit_poisson(X, y), fit_nb(X, y), fit_hnb(X, X, y)]
        ranking = compare(models)
        assert [r.family for r in ranking] == ["HNB", "NB", "P"]
        assert ranking[0].delta == 0.0
        assert ranking[1].delta == pytest.approx(ranking[1].aic - ranking[0].aic)

    def test_single_model(self):
        rng = np.random.default_rng(5)
        X, y = nb_data(rng, n=500)
        ranking = compare([fit_nb(X, y)])
        assert len(ranking) == 1 and ranking[0].delta == 0.0

    def test_tie_preserves_input_order(self):
        rng = np.random.default_rng(6)
        X, y = nb_data(rng, n=500)
        m = fit_nb(X, y)
        ranking = compare([m, m])
        assert ranking[0].model is m and ranking[1].model is m

    def test_no_models(self):
        with pytest.raises(ValueError, match="^no models to compare$"):
            compare([])

    def test_mismatched_n(self):
        rng = np.random.default_rng(7)
        X1, y1 = nb_data(rng, n=500)
        X2, y2 = nb_data(rng, n=600)
        with pytest.raises(ValueError, match="sample sizes"):
            compare([fit_nb(X1, y1), fit_nb(X2, y2)])
