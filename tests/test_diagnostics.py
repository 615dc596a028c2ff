"""Residual and frequency-table diagnostics.

Oracles: hand arithmetic on the residual definitions, the
saturated-vs-fitted log-likelihood identity for deviances, and pmf-based
expected frequencies.
"""

import math
import re

import numpy as np
import pytest

from countreg import special
from countreg.diagnostics import _pmf_columns, _rows, deviance_residuals, frequency_table, pearson
from countreg.distributions import NbParams, nb_log_pmf
from countreg.fit import FittedModel, fit_hnb, fit_homogeneous, fit_nb, fit_poisson
from countreg.likelihood import _nb_kernel, link_hurdle, link_mean
from countreg.special import ln_gamma


def manual_nb_model(theta, r, n):
    return FittedModel(
        family="NB",
        names=("intercept", "r"),
        estimates={"intercept": math.log(theta), "r": r},
        params_unconstrained=np.array([math.log(theta), math.log(r)]),
        covariance=np.eye(2),
        covariance_unconstrained=np.eye(2),
        loglik=0.0,
        n=n,
        k_mean=1,
        k_hurdle=0,
        n_params=2,
        converged=True,
        iterations=0,
        gradient_norm=0.0,
        mean_names=("intercept",),
        ones_designs=frozenset({"X"}),
    )


class TestPearson:
    def test_zero_residuals_when_y_equals_mu(self):
        y = np.full(20, 7)
        m = fit_poisson(np.ones((20, 1)), y)
        res = pearson(m, np.ones((20, 1)), y)
        np.testing.assert_allclose(res.pearson, 0.0, atol=1e-9)
        assert res.ps == pytest.approx(0.0, abs=1e-16)

    def test_hand_computed_residual(self):
        # theta=2, r=0.5 -> variance 4; y=4 -> residual (4-2)/2 = 1.
        m = manual_nb_model(theta=2.0, r=0.5, n=5)
        res = pearson(m, np.ones((5, 1)), np.full(5, 4))
        np.testing.assert_allclose(res.pearson, 1.0, rtol=1e-12)
        assert res.ps == pytest.approx(5.0, rel=1e-12)
        assert res.df == 3

    def test_ps_near_df_for_well_specified_nb(self):
        rng = np.random.default_rng(8)
        n = 8000
        X = np.column_stack([np.ones(n), rng.normal(size=n), rng.binomial(1, 0.4, n)])
        theta = link_mean(X, np.array([1.5, 0.3, -0.2]))
        y = rng.poisson(rng.gamma(1 / 0.7, 0.7 * theta))
        m = fit_nb(X, y)
        res = pearson(m, X, y)
        assert abs(res.ps / res.df - 1.0) < 0.1

    def test_ps_stable_under_chunked_reduction(self):
        rng = np.random.default_rng(21)
        n = 5000
        X = np.column_stack([np.ones(n), rng.normal(size=n)])
        theta = link_mean(X, np.array([1.2, 0.3]))
        y = rng.poisson(rng.gamma(1 / 0.6, 0.6 * theta))
        m = fit_nb(X, y)
        res = pearson(m, X, y)
        chunked = sum(float(np.sum(part**2)) for part in np.array_split(res.pearson, 7))
        assert abs(chunked - res.ps) / res.ps < 1e-8

    def test_hurdle_variance_via_truncated_moments(self):
        rng = np.random.default_rng(9)
        n = 1200
        X = np.column_stack([np.ones(n), rng.normal(size=n)])
        phi = link_hurdle(X, np.array([-0.5, 0.3]))
        theta = link_mean(X, np.array([1.0, 0.2]))
        y = np.zeros(n, dtype=np.int64)
        idx = np.flatnonzero(rng.random(n) >= phi)
        while idx.size:
            y[idx] = rng.poisson(rng.gamma(1 / 0.6, 0.6 * theta[idx]))
            idx = idx[y[idx] == 0]
        m = fit_hnb(X, X, y)
        res = pearson(m, X, y, X_h=X)
        # Every row against the per-row summation route: the means are the
        # same arithmetic, the variances agree up to summation rounding.
        from countreg.distributions import HurdleParams, hnb_mean_var

        theta_hat = link_mean(X, m.params_unconstrained[:2])
        phi_hat = link_hurdle(X, np.array([m.estimates[name] for name in m.hurdle_names]))
        loop = np.array([
            hnb_mean_var(HurdleParams(NbParams(float(t), m.estimates["r"]), float(p)))
            for t, p in zip(theta_hat, phi_hat)
        ])
        np.testing.assert_array_equal(res.mu, loop[:, 0])
        np.testing.assert_allclose(res.sigma2, loop[:, 1], rtol=1e-12, atol=0)
        assert res.ps / res.df == pytest.approx(1.0, abs=0.15)

    def test_requires_hurdle_design_for_hnb(self):
        """An omitted hurdle design with covariates is refused; an omitted
        intercept-only design is the column of ones, in Pearson and deviance
        residuals alike (before, pearson refused it and deviance_residuals
        crashed inside numpy on an omitted X)."""
        rng = np.random.default_rng(10)
        n = 200
        y = np.concatenate([np.zeros(50, dtype=int), rng.poisson(5.0, 150) + 1])
        X = np.column_stack([np.ones(n), rng.normal(size=n)])
        with pytest.raises(ValueError, match="need X_h$"):
            pearson(fit_hnb(X, X, y), X, y)
        ones = np.ones((n, 1))
        hnb = fit_homogeneous("HNB", y)
        given = pearson(hnb, ones, y, X_h=ones).pearson
        np.testing.assert_array_equal(pearson(hnb, ones, y).pearson, given)
        np.testing.assert_array_equal(pearson(hnb, None, y).pearson, given)
        nb = fit_homogeneous("NB", y)
        np.testing.assert_array_equal(pearson(nb, None, y).pearson, pearson(nb, ones, y).pearson)
        omitted, given = deviance_residuals(nb, None, y), deviance_residuals(nb, ones, y)
        np.testing.assert_array_equal(omitted.deviance, given.deviance)
        assert omitted.deviance_sum_squared == given.deviance_sum_squared

    def test_dimension_mismatch(self):
        m = manual_nb_model(2.0, 0.5, 5)
        with pytest.raises(ValueError, match="design matrix has shape"):
            pearson(m, np.ones((4, 1)), np.full(4, 2))


class TestDevianceResiduals:
    def test_zero_when_y_equals_theta(self):
        m = manual_nb_model(theta=4.0, r=0.5, n=3)
        res = deviance_residuals(m, np.ones((3, 1)), np.full(3, 4))
        np.testing.assert_array_equal(res.deviance, 0.0)

    def test_zero_count_branch(self):
        # y=0, theta=1, r=1: d^2 = 2 ln 2 and the sign is negative.
        m = manual_nb_model(theta=1.0, r=1.0, n=2)
        res = deviance_residuals(m, np.ones((2, 1)), np.zeros(2, dtype=int))
        expected = -math.sqrt(2.0 * math.log(2.0))
        np.testing.assert_allclose(res.deviance, expected, rtol=1e-12)
        assert expected == pytest.approx(-1.17741, abs=1e-5)

    def test_positive_branch_direct_formula(self):
        # Independent evaluation of the y>0 branch at y=3, theta=1.5, r=0.5.
        y, theta, r = 3.0, 1.5, 0.5
        d2 = 2.0 * (
            y * math.log(y / theta)
            - (y + 1 / r) * math.log((1 + r * y) / (1 + r * theta))
        )
        m = manual_nb_model(theta=theta, r=r, n=4)
        res = deviance_residuals(m, np.ones((4, 1)), np.full(4, 3))
        np.testing.assert_allclose(res.deviance, math.sqrt(d2), rtol=1e-12)
        assert res.deviance_sum_squared == pytest.approx(4 * d2, rel=1e-12)
        assert res.deviance_sum_signed == pytest.approx(4 * math.sqrt(d2), rel=1e-12)

    def test_saturated_identity(self):
        # d_i^2 equals 2*[loglik(y_i) - loglik(theta_i)] from the log pmf.
        rng = np.random.default_rng(11)
        for _ in range(50):
            y = int(rng.integers(0, 60))
            theta = float(rng.uniform(0.1, 30.0))
            r = float(rng.uniform(0.05, 3.0))
            m = manual_nb_model(theta=theta, r=r, n=3)
            res = deviance_residuals(m, np.ones((3, 1)), np.full(3, y))
            saturated = 0.0 if y == 0 else nb_log_pmf(y, NbParams(float(y), r))
            fitted = nb_log_pmf(y, NbParams(theta, r))
            assert res.deviance[0] ** 2 == pytest.approx(
                2.0 * (saturated - fitted), abs=1e-9
            )

    def test_rejects_non_nb(self):
        y = np.arange(10)
        m = fit_poisson(np.ones((10, 1)), y)
        with pytest.raises(ValueError, match="NB family"):
            deviance_residuals(m, np.ones((10, 1)), y)


class TestFrequencyTable:
    def test_homogeneous_poisson_fitted_counts(self):
        y = np.array([0, 0, 1])
        m = fit_homogeneous("P", y)
        empirical, fitted = frequency_table(y, m, y_max=5)
        theta = m.natural_summary()["theta"]
        assert fitted[0] == pytest.approx(3 * math.exp(-theta), rel=1e-9)
        np.testing.assert_array_equal(empirical[:2], [2, 1])

    def test_fitted_sums_to_n(self):
        rng = np.random.default_rng(12)
        y = rng.poisson(3.0, 500)
        m = fit_homogeneous("NB", y)
        _, fitted = frequency_table(y, m, y_max=30)
        assert fitted.sum() == pytest.approx(500.0, abs=1e-8)
        assert fitted[-1] >= -1e-9

    def test_hurdle_zero_cell_matches_empirical_exactly(self):
        rng = np.random.default_rng(13)
        y = np.concatenate([np.zeros(400, dtype=int), rng.poisson(6.0, 600) + 1])
        rng.shuffle(y)
        m = fit_homogeneous("HNB", y)
        empirical, fitted = frequency_table(y, m, y_max=10)
        assert fitted[0] == pytest.approx(float(empirical[0]), abs=1e-6)

    def test_covariate_model_columns(self):
        rng = np.random.default_rng(14)
        n = 400
        X = np.column_stack([np.ones(n), rng.normal(size=n)])
        theta = link_mean(X, np.array([1.0, 0.3]))
        y = rng.poisson(rng.gamma(1 / 0.5, 0.5 * theta))
        m = fit_nb(X, y)
        empirical, fitted = frequency_table(y, m, y_max=20, X=X)
        assert empirical.sum() == n
        assert fitted.sum() == pytest.approx(float(n), abs=1e-8)
        assert np.all(fitted[:-1] >= 0.0)

    def test_omitted_design_of_an_equation_with_covariates_is_refused(self):
        rng = np.random.default_rng(15)
        n = 3000
        X = np.column_stack([np.ones(n), rng.normal(size=(n, 2))])
        theta = link_mean(X, np.array([1.0, 0.4, -0.3]))
        phi = link_hurdle(X, np.array([-1.0, 0.8, 0.5]))
        positive = rng.poisson(rng.gamma(1 / 0.5, 0.5 * theta))
        y = np.where(rng.random(n) < phi, 0, np.maximum(positive, 1))
        nb = fit_nb(X, y)
        with pytest.raises(ValueError, match="need X$"):
            frequency_table(y, nb, y_max=10)
        hnb = fit_hnb(X, X, y)
        with pytest.raises(ValueError, match="need X_h"):
            frequency_table(y, hnb, y_max=10, X=X)
        # An intercept-only hurdle equation may still omit X_h.
        ones = np.ones((n, 1))
        hnb = fit_hnb(X, ones, y)
        _, omitted = frequency_table(y, hnb, y_max=10, X=X)
        _, given = frequency_table(y, hnb, y_max=10, X=X, X_h=ones)
        np.testing.assert_array_equal(omitted, given)
        # One column that is not all ones is a covariate, whatever its label.
        rng = np.random.default_rng(0)
        x = rng.uniform(0.5, 2.0, 500)
        y = rng.poisson(np.exp(0.8 * x) * rng.gamma(2.0, 0.5, 500))
        nb = fit_nb(x[:, None], y, labels=("intercept",))
        assert nb.mean_names == ("intercept",)
        with pytest.raises(ValueError, match="need X$"):
            frequency_table(y, nb, y_max=10)
        hnb = fit_hnb(np.ones((500, 1)), x[:, None], y)
        with pytest.raises(ValueError, match="need X_h$"):
            frequency_table(y, hnb, y_max=10)


class TestOneCheckOfTheRows:
    """Every diagnostic checks its rows through the same step, in one order."""

    @pytest.fixture(scope="class")
    def fits(self):
        rng = np.random.default_rng(15)
        n = 3000
        X = np.column_stack([np.ones(n), rng.normal(size=(n, 2))])
        theta = link_mean(X, np.array([1.0, 0.4, -0.3]))
        phi = link_hurdle(X, np.array([-1.0, 0.8, 0.5]))
        positive = rng.poisson(rng.gamma(1 / 0.5, 0.5 * theta))
        y = np.where(rng.random(n) < phi, 0, np.maximum(positive, 1))
        return X, y, fit_nb(X, y), fit_hnb(X, X, y)

    @pytest.mark.parametrize("rows", [1, 5])
    def test_hurdle_design_of_the_wrong_shape_is_refused(self, fits, rows):
        X, y, _, hnb = fits
        message = rf"^hurdle design matrix has shape \({rows}, 3\), not \(3000, 3\)$"
        with pytest.raises(ValueError, match=message):
            pearson(hnb, X, y, X_h=X[:rows])
        with pytest.raises(ValueError, match=message):
            frequency_table(y, hnb, y_max=10, X=X, X_h=X[:rows])

    @pytest.mark.parametrize("bad", [2.5, -3])
    def test_response_must_hold_counts(self, fits, bad):
        X, y, nb, hnb = fits
        y = y.astype(float)
        y[0] = bad
        message = "^counts must be nonnegative integers$"
        with pytest.raises(ValueError, match=message):
            pearson(nb, X, y)
        with pytest.raises(ValueError, match=message):
            pearson(hnb, X, y, X_h=X)
        with pytest.raises(ValueError, match=message):
            deviance_residuals(nb, X, y)
        with pytest.raises(ValueError, match=message):
            frequency_table(y, nb, y_max=10, X=X)
        with pytest.raises(ValueError, match=message):
            frequency_table(y, hnb, y_max=10, X=X, X_h=X)

    def test_checks_run_in_order(self, fits):
        X, y, _, hnb = fits
        negative = np.full(y.shape, -1)
        with pytest.raises(ValueError, match="^design matrix has shape"):
            pearson(hnb, X[:5], negative[:4], X_h=X[:1])
        with pytest.raises(ValueError, match="^response has shape"):
            pearson(hnb, X, negative[:4], X_h=X[:1])
        with pytest.raises(ValueError, match="^counts must"):
            pearson(hnb, X, negative, X_h=X[:1])
        with pytest.raises(ValueError, match="^hurdle design matrix has shape"):
            pearson(hnb, X, y, X_h=X[:1])

    def test_models_without_a_hurdle_ignore_X_h(self, fits):
        X, y, nb, _ = fits
        np.testing.assert_array_equal(pearson(nb, X, y, X_h=X[:1]).pearson, pearson(nb, X, y).pearson)
        given = frequency_table(y, nb, y_max=10, X=X, X_h=X[:1])
        omitted = frequency_table(y, nb, y_max=10, X=X)
        np.testing.assert_array_equal(given[0], omitted[0])
        np.testing.assert_array_equal(given[1], omitted[1])

    def test_omitted_design_with_a_short_response_names_the_response(self):
        y = np.array([0, 1, 1, 3, 5, 0, 2])
        m = fit_homogeneous("NB", y)
        with pytest.raises(ValueError, match=r"^response has shape \(6,\), not \(7,\)$"):
            frequency_table(y[:-1], m, y_max=5)

    @pytest.mark.parametrize("y_max", [-1, 2.5, True, "3", None])
    def test_y_max_must_be_a_nonnegative_integer(self, y_max):
        m = manual_nb_model(theta=2.0, r=0.5, n=3)
        with pytest.raises(ValueError, match=f"^y_max must be a nonnegative integer, not {re.escape(repr(y_max))}$"):
            frequency_table(np.array([0, 1, 4]), m, y_max=y_max)

    def test_y_max_may_be_a_numpy_integer_or_zero(self):
        m = manual_nb_model(theta=2.0, r=0.5, n=3)
        y = np.array([0, 1, 4])
        for y_max, empirical in ((np.int64(2), [1, 1, 0, 1]), (0, [1, 2])):
            np.testing.assert_array_equal(frequency_table(y, m, y_max=y_max)[0], empirical)

    def test_overflow_cell_counts_everything_above_y_max(self):
        # A count of 10**12 lands in the overflow cell without a bin of its own.
        m = manual_nb_model(theta=2.0, r=0.5, n=6)
        empirical, _ = frequency_table(np.array([0, 1, 1, 7, 50, 10**12]), m, y_max=5)
        assert empirical.dtype == np.int64
        np.testing.assert_array_equal(empirical, [1, 2, 0, 0, 0, 0, 3])


class TestTableAgreesWithTheLikelihood:
    """The table and the fitter read one dispersion grid, so the fitted pmf
    the table sums at v = y_i is exp of the fitter's row term at y_i."""

    @pytest.fixture(scope="class")
    def fits(self):
        rng = np.random.default_rng(16)
        n = 1500
        X = np.column_stack([np.ones(n), rng.normal(size=(n, 2))])
        theta = link_mean(X, np.array([1.5, 0.4, -0.3]))
        phi = link_hurdle(X, np.array([-1.0, 0.8, 0.5]))
        positive = rng.poisson(rng.gamma(1 / 0.5, 0.5 * theta))
        y = np.where(rng.random(n) < phi, 0, np.maximum(positive, 1))
        return X, y, fit_nb(X, y), fit_hnb(X, X, y)

    @staticmethod
    def table_pmf_at_counts(model, X, y):
        """Row i of the table's column v = y_i, for every row."""
        y, theta, r, phi = _rows(model, X, y, X)
        at = np.full(y.size, np.nan)
        for value, pmf in enumerate(_pmf_columns(model, theta, phi, r, int(y.max()))):
            at[y == value] = pmf[y == value]
        return at

    def test_nb_table_is_exp_of_the_row_term(self, fits):
        X, y, nb, _ = fits
        beta, log_r = nb.params_unconstrained[:-1], nb.params_unconstrained[-1]
        counts = y.astype(float)
        terms = _nb_kernel(beta, log_r, X, counts, False, ln_gamma(counts + 1.0))[0]
        np.testing.assert_allclose(self.table_pmf_at_counts(nb, X, y), np.exp(terms), rtol=1e-13, atol=0)

    def test_hnb_table_is_exp_of_the_truncated_row_term_plus_log_1_minus_phi(self, fits):
        X, y, _, hnb = fits
        k = hnb.k_mean
        beta, log_r = hnb.params_unconstrained[:k], hnb.params_unconstrained[k]
        phi = link_hurdle(X, hnb.params_unconstrained[k + 1 :])
        pos = y > 0
        counts = y[pos].astype(float)
        terms = _nb_kernel(beta, log_r, X[pos], counts, True, ln_gamma(counts + 1.0))[0]
        table = self.table_pmf_at_counts(hnb, X, y)
        np.testing.assert_allclose(table[pos], np.exp(terms + np.log1p(-phi[pos])), rtol=1e-13, atol=0)
        np.testing.assert_array_equal(table[~pos], phi[~pos])

    def test_one_grid_per_table(self, fits, monkeypatch):
        # A grid per value would make the table's cost grow as y_max**2.
        X, y, nb, hnb = fits
        grids = []
        real = special._dispersion_grid

        def counting(*args):
            grids.append(args)
            return real(*args)

        monkeypatch.setattr(special, "_dispersion_grid", counting)
        for model, X_h in ((nb, None), (hnb, X)):
            grids.clear()
            frequency_table(y, model, y_max=2000, X=X, X_h=X_h)
            assert len(grids) == 1
        grids.clear()
        frequency_table(y, fit_poisson(X, y), y_max=2000, X=X)
        assert grids == []
