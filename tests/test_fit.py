"""Fitting behavior: stationarity identities, recovery, separability, errors.

Oracles: closed-form MLE identities (sample mean, zero fraction), simulation
truth recovered within reported standard errors, and exact structural
identities of the hurdle decomposition.
"""

import dataclasses
import hashlib
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from countreg import fit as fit_module
from countreg.exceptions import SeparationError
from countreg.distributions import NbParams, nb_log_pmf
from countreg.fit import (
    FitOptions,
    FittedModel,
    fit_family,
    fit_hnb,
    fit_homogeneous,
    fit_nb,
    fit_poisson,
)
from countreg.likelihood import (
    HnbRegParams,
    NbRegParams,
    hnb_loglik,
    hnb_score,
    link_hurdle,
    link_mean,
    nb_loglik,
    nb_score,
    poisson_loglik,
)


def simulate_nb(rng, X, beta, r):
    theta = link_mean(X, beta)
    return rng.poisson(rng.gamma(1.0 / r, r * theta))


def simulate_hnb(rng, X, beta, r, X_h, delta):
    n = X.shape[0]
    phi = link_hurdle(X_h, delta)
    theta = link_mean(X, beta)
    y = np.zeros(n, dtype=np.int64)
    idx = np.flatnonzero(rng.random(n) >= phi)
    while idx.size:
        y[idx] = rng.poisson(rng.gamma(1.0 / r, r * theta[idx]))
        idx = idx[y[idx] == 0]
    return y


def score_jacobian(score, u, h=1e-6):
    """Central-difference Jacobian of an analytic score."""
    columns = []
    for j in range(u.size):
        step = np.zeros(u.size)
        step[j] = h * (1.0 + abs(u[j]))
        columns.append((score(u + step) - score(u - step)) / (2.0 * step[j]))
    return np.column_stack(columns)


def design(rng, n, k):
    return np.column_stack([np.ones(n)] + [rng.normal(size=n) for _ in range(k - 1)])


class TestValidation:
    def test_rank_deficient(self):
        X = np.column_stack([np.ones(10), np.ones(10)])
        with pytest.raises(ValueError, match="rank deficient"):
            fit_poisson(X, np.arange(10))

    def test_too_few_rows(self):
        with pytest.raises(ValueError, match="more observations"):
            fit_poisson(np.ones((2, 2)), np.array([1, 2]))

    def test_negative_response(self):
        with pytest.raises(ValueError, match="nonnegative"):
            fit_poisson(np.ones((5, 1)), np.array([1, 2, -1, 0, 3]))

    def test_all_zero_response_rejected_by_poisson_and_nb(self):
        rng = np.random.default_rng(3)
        X = np.column_stack([np.ones(50), rng.normal(size=50)])
        y = np.zeros(50, dtype=np.int64)
        for fit in (fit_poisson, fit_nb):
            with pytest.raises(ValueError, match="all zero"):
                fit(X, y)
        for family in ("P", "NB"):
            with pytest.raises(ValueError, match="all zero"):
                fit_homogeneous(family, y)

    def test_negative_counts_rejected_by_pmf_likelihood_and_fit(self):
        y = np.array([1, 2, -1, 0, 3])
        X = np.ones((5, 1))
        checks = (
            lambda: nb_log_pmf(y, NbParams(theta=2.0, r=0.5)),
            lambda: nb_loglik(NbRegParams(beta=np.zeros(1), log_r=0.0), X, y),
            lambda: fit_nb(X, y),
        )
        for check in checks:
            with pytest.raises(ValueError, match="nonnegative"):
                check()

    @pytest.mark.parametrize("hurdle_labels", [("only",), ("a", "b", "c")], ids=["short", "long"])
    def test_hurdle_labels_length_checked(self, hurdle_labels):
        X = design(np.random.default_rng(4), 60, 2)
        y = np.tile([0, 1, 2], 20)
        with pytest.raises(ValueError, match="hurdle_labels length does not match"):
            fit_hnb(X, X, y, hurdle_labels=hurdle_labels)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("block", ["X", "X_h"])
    def test_non_finite_design_cell_named(self, block, value):
        rng = np.random.default_rng(5)
        X = design(rng, 60, 3)
        X_h = X[:, :2].copy()
        y = np.tile([0, 1, 2], 20)
        (X if block == "X" else X_h)[7, 1] = value
        what = "design matrix" if block == "X" else "hurdle design matrix"
        expected = re.escape(f"{what} has non-finite value {value} at row 7, column 'x1'")
        with pytest.raises(ValueError, match=f"^{expected}$"):
            fit_hnb(X, X_h, y)
        if block == "X":
            for fit in (fit_poisson, fit_nb):
                with pytest.raises(ValueError, match=f"^{expected}$"):
                    fit(X, y)

    def test_each_design_rank_checked_once(self, monkeypatch):
        rng = np.random.default_rng(6)
        X = design(rng, 300, 3)
        X_h = X[:, :2]
        y = simulate_hnb(rng, X, np.array([1.0, 0.3, -0.2]), 0.6, X_h, np.array([-0.5, 0.4]))
        shapes = []
        matrix_rank = np.linalg.matrix_rank

        def counting_rank(M, *args, **kwargs):
            shapes.append(M.shape)
            return matrix_rank(M, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "matrix_rank", counting_rank)
        fit_nb(X, y)
        assert shapes == [X.shape]
        shapes.clear()
        fit_hnb(X, X_h, y)
        # Full column rank of the positive rows implies it for X, whose own
        # SVD is then skipped; the truncated part reuses the first verdict.
        positives = (int(np.sum(y > 0)), 3)
        assert shapes == [positives, X_h.shape]
        # A hurdle design that is X, or equals it, takes X's verdict.
        for X_h in (X, X.copy()):
            shapes.clear()
            fit_hnb(X, X_h, y)
            assert shapes == [positives]

    def test_a_parameter_name_given_twice_is_refused_before_fitting(self, monkeypatch):
        rng = np.random.default_rng(8)
        X = design(rng, 300, 3)
        y = simulate_hnb(rng, X, np.array([1.0, 0.3, -0.2]), 0.6, X, np.array([-0.5, 0.4, 0.1]))

        def fail(*args, **kwargs):
            raise AssertionError("a Newton step ran")

        monkeypatch.setattr(fit_module, "_newton_maximize", fail)
        with pytest.raises(ValueError, match=r"^parameter names \['r'\] are given twice$"):
            fit_nb(X[:, :2], y, labels=("intercept", "r"))
        with pytest.raises(ValueError, match=r"^parameter names \['zero:x'\] are given twice$"):
            fit_family("HNB", X, y, labels=("intercept", "zero:x", "x"))
        with pytest.raises(ValueError, match=r"^parameter names \['r', 'zero:x'\] are given twice$"):
            fit_family("HNB", X, y, labels=("intercept", "r", "zero:x"), hurdle_labels=("intercept", "x", "z"))

    def test_a_poisson_predictor_may_be_named_r(self):
        rng = np.random.default_rng(9)
        X = design(rng, 300, 2)
        y = rng.poisson(np.exp(X @ np.array([1.0, 0.3])))
        m = fit_poisson(X, y, labels=("intercept", "r"))
        assert m.names == ("intercept", "r")
        assert m.natural_summary() == {}

    def test_positive_rows_must_identify_the_truncated_part(self):
        X = np.column_stack([np.ones(12), np.repeat([1.0, 0.0], 6)])
        y = np.array([0, 0, 0, 0, 0, 0, 1, 2, 1, 3, 2, 1])
        with pytest.raises(ValueError, match="^design matrix is rank deficient$"):
            fit_hnb(X, np.ones((12, 1)), y)
        with pytest.raises(ValueError, match=r"more observations than parameters \(n=2, k=2\)"):
            fit_hnb(design(np.random.default_rng(7), 12, 2), np.ones((12, 1)), np.repeat([0, 1, 0, 2], [5, 1, 5, 1]))

    def test_hurdle_rank_refusals_keep_their_order(self):
        # X rank deficient, and so its positive rows: X's refusal comes
        # before the names.
        y = np.tile([0, 1, 2], 4)
        with pytest.raises(ValueError, match="^design matrix is rank deficient$"):
            fit_hnb(np.ones((12, 2)), None, y, labels=("a", "a"))
        # X of full rank, its positive rows not: the names come first.
        X = np.column_stack([np.ones(12), np.repeat([1.0, 0.0], 6)])
        y = np.array([0, 0, 0, 0, 0, 0, 1, 2, 1, 3, 2, 1])
        with pytest.raises(ValueError, match=r"^parameter names \['zero:intercept'\] are given twice$"):
            fit_hnb(X, np.ones((12, 1)), y, labels=("intercept", "zero:intercept"))

    def test_a_design_without_columns_is_refused(self):
        y = np.tile([0, 1, 2], 4)
        empty = np.empty((12, 0))
        for fit in (fit_poisson, fit_nb, lambda X, y: fit_hnb(X, None, y)):
            with pytest.raises(ValueError, match="^design matrix has no columns$"):
                fit(empty, y)
        with pytest.raises(ValueError, match="^hurdle design matrix has no columns$"):
            fit_hnb(np.ones((12, 1)), empty, y)

    def test_default_labels_name_column_0_intercept_only_when_it_is_ones(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(0.5, 2.0, 500)
        y = rng.poisson(np.exp(0.8 * x))
        assert fit_nb(x[:, None], y).mean_names == ("x0",)
        assert fit_nb(np.column_stack([x, np.ones(500)]), y).mean_names == ("x0", "x1")
        assert fit_nb(np.column_stack([np.ones(500), x]), y).mean_names == ("intercept", "x1")
        assert fit_hnb(np.ones((500, 1)), x[:, None], y).hurdle_names == ("zero:x0",)

    def test_bad_options(self):
        with pytest.raises(ValueError):
            FitOptions(max_iterations=0)
        with pytest.raises(ValueError):
            FitOptions(gradient_tolerance=-1.0)

    @pytest.mark.parametrize(
        "key, value, what",
        [
            ("max_iterations", 2.5, "a positive integer"),
            ("step_halving_limit", True, "a positive integer"),
            ("gradient_tolerance", "5", "a positive finite number"),
            ("gradient_tolerance", None, "a positive finite number"),
            ("gradient_tolerance", math.nan, "a positive finite number"),
            ("gradient_tolerance", math.inf, "a positive finite number"),
        ],
    )
    def test_option_of_the_wrong_type_is_named(self, key, value, what):
        with pytest.raises(ValueError, match=f"^{key} must be {what}, not {re.escape(repr(value))}$"):
            FitOptions(**{key: value})

    def test_numpy_scalar_options_accepted(self):
        FitOptions(max_iterations=np.int64(7), step_halving_limit=np.int32(3), gradient_tolerance=np.float64(1e-6))


class TestFitPoisson:
    def test_intercept_only_recovers_sample_mean(self):
        rng = np.random.default_rng(0)
        y = rng.poisson(27.3193, size=4000)
        m = fit_poisson(np.ones((y.size, 1)), y)
        assert math.exp(m.estimates["intercept"]) == pytest.approx(y.mean(), rel=1e-9)

    def test_constant_response(self):
        y = np.full(20, 7)
        m = fit_poisson(np.ones((20, 1)), y)
        assert m.estimates["intercept"] == pytest.approx(math.log(7.0), rel=1e-10)
        assert m.loglik == pytest.approx(
            poisson_loglik(np.array([math.log(7.0)]), np.ones((20, 1)), y), rel=1e-12
        )

    def test_simulation_recovery(self):
        rng = np.random.default_rng(1)
        n = 50000
        X = design(rng, n, 2)
        beta = np.array([0.5, 0.3])
        y = rng.poisson(link_mean(X, beta))
        m = fit_poisson(X, y)
        se = m.std_errors()
        for name, truth in zip(("intercept", "x1"), beta):
            assert abs(m.estimates[name] - truth) < 3 * se[name]

    def test_score_criterion_at_convergence(self):
        rng = np.random.default_rng(2)
        X = design(rng, 500, 3)
        y = rng.poisson(link_mean(X, np.array([1.0, 0.2, -0.1])))
        opts = FitOptions()
        m = fit_poisson(X, y, options=opts)
        assert m.converged
        assert m.gradient_norm < opts.gradient_tolerance * (1.0 + abs(m.loglik))


class TestFitNb:
    def test_intercept_only_stationarity(self):
        rng = np.random.default_rng(3)
        y = simulate_nb(rng, np.ones((5000, 1)), np.array([2.0]), 0.8)
        m = fit_nb(np.ones((y.size, 1)), y)
        assert math.exp(m.estimates["intercept"]) == pytest.approx(y.mean(), rel=1e-6)

    def test_simulation_recovery_within_3_se(self):
        rng = np.random.default_rng(4)
        n = 40000
        X = design(rng, n, 3)
        beta = np.array([1.0, -0.5, 0.25])
        y = simulate_nb(rng, X, beta, 0.7)
        m = fit_nb(X, y)
        se = m.std_errors()
        for name, truth in zip(("intercept", "x1", "x2"), beta):
            assert abs(m.estimates[name] - truth) < 3 * se[name]
        assert abs(m.estimates["r"] - 0.7) < 3 * se["r"]
        assert m.converged

    def test_underdispersed_hits_poisson_boundary(self):
        y = np.tile([4, 5], 400)  # variance far below the mean
        m = fit_nb(np.ones((y.size, 1)), y)
        assert m.estimates["r"] < 1e-6
        assert m.converged
        assert m.warnings == ("poisson_boundary",)

    def test_equidispersed_loglik_near_poisson(self):
        rng = np.random.default_rng(11)
        y = rng.poisson(5.0, size=5000)
        m_nb = fit_nb(np.ones((y.size, 1)), y)
        m_p = fit_poisson(np.ones((y.size, 1)), y)
        assert m_nb.estimates["r"] < 0.01
        assert abs(m_nb.loglik - m_p.loglik) < 0.5

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        X = design(rng, 800, 3)
        y = simulate_nb(rng, X, np.array([0.8, 0.2, -0.3]), 0.5)
        a = fit_nb(X, y)
        b = fit_nb(X, y)
        np.testing.assert_array_equal(a.params_unconstrained, b.params_unconstrained)
        assert a.loglik == b.loglik
        np.testing.assert_array_equal(a.covariance, b.covariance)

    def test_refit_from_optimum_is_stable(self):
        rng = np.random.default_rng(6)
        X = design(rng, 1000, 2)
        y = simulate_nb(rng, X, np.array([1.2, 0.4]), 0.6)
        m = fit_nb(X, y)
        from countreg.fit import _nb_objective, _newton_maximize
        from countreg.special import ln_gamma

        objective = _nb_objective(X, y, False, ln_gamma(y + 1.0))
        state = _newton_maximize(objective, m.params_unconstrained, FitOptions())
        assert state.converged
        assert abs(state.value - m.loglik) < 1e-8

    def test_information_matches_score_jacobian(self):
        # Oracle: central differences of the public analytic scores.
        rng = np.random.default_rng(7)
        X = design(rng, 4000, 3)
        y = simulate_nb(rng, X, np.array([1.0, 0.3, -0.2]), 0.7)
        m = fit_nb(X, y)
        jac = score_jacobian(
            lambda u: nb_score(NbRegParams(beta=u[:3], log_r=float(u[3])), X, y),
            m.params_unconstrained,
        )
        # Entries near zero (beta-log r cross terms) carry differencing noise
        # of order 1e-11 of the largest entry, hence the scaled atol.
        np.testing.assert_allclose(
            -np.linalg.inv(m.covariance_unconstrained), jac, rtol=1e-6, atol=1e-10 * np.max(np.abs(jac))
        )

        y = simulate_hnb(rng, X, np.array([1.0, 0.3, -0.2]), 0.7, X, np.array([-1.0, 0.5, 0.0]))
        m = fit_hnb(X, X, y)
        delta = m.params_unconstrained[4:]

        def truncated_score(u):
            params = HnbRegParams(nb=NbRegParams(beta=u[:3], log_r=float(u[3])), delta=delta)
            return hnb_score(params, X, X, y)[:4]

        jac = score_jacobian(truncated_score, m.params_unconstrained[:4])
        np.testing.assert_allclose(
            -np.linalg.inv(m.covariance_unconstrained[:4, :4]),
            jac,
            rtol=1e-6,
            atol=1e-10 * np.max(np.abs(jac)),
        )

    def test_covariance_properties(self):
        rng = np.random.default_rng(8)
        X = design(rng, 2000, 2)
        y = simulate_nb(rng, X, np.array([1.0, 0.3]), 0.7)
        m = fit_nb(X, y)
        np.testing.assert_allclose(m.covariance, m.covariance.T)
        assert np.all(np.diag(m.covariance) >= 0.0)
        # natural-scale r variance via the delta method
        k = m.k_mean
        assert m.covariance[k, k] == pytest.approx(
            m.covariance_unconstrained[k, k] * m.estimates["r"] ** 2, rel=1e-12
        )


class TestFitHnb:
    def test_intercept_only_zero_fraction(self):
        rng = np.random.default_rng(9)
        y = np.concatenate([np.zeros(700, dtype=int), rng.poisson(6.0, 1300) + 1])
        rng.shuffle(y)
        m = fit_hnb(np.ones((y.size, 1)), np.ones((y.size, 1)), y)
        phi_hat = m.natural_summary()["phi"]
        assert phi_hat == pytest.approx(float(np.mean(y == 0)), abs=1e-8)

    def test_simulation_recovery_within_3_se(self):
        rng = np.random.default_rng(10)
        n = 40000
        X = design(rng, n, 2)
        beta = np.array([1.2, 0.4])
        delta = np.array([-2.0, 1.0])
        y = simulate_hnb(rng, X, beta, 0.6, X, delta)
        m = fit_hnb(X, X, y)
        se = m.std_errors()
        truth = {
            "intercept": 1.2,
            "x1": 0.4,
            "r": 0.6,
            "zero:intercept": -2.0,
            "zero:x1": 1.0,
        }
        for name, value in truth.items():
            assert abs(m.estimates[name] - value) < 3 * se[name], name
        assert m.converged

    def test_joint_loglik_is_sum_of_part_maxima(self):
        rng = np.random.default_rng(12)
        X = design(rng, 3000, 2)
        y = simulate_hnb(rng, X, np.array([1.0, 0.3]), 0.7, X, np.array([-1.0, 0.5]))
        m = fit_hnb(X, X, y)
        from countreg.likelihood import HnbRegParams, NbRegParams, hnb_loglik_parts

        k = m.k_mean
        params = HnbRegParams(
            nb=NbRegParams(beta=m.params_unconstrained[:k], log_r=float(m.params_unconstrained[k])),
            delta=m.params_unconstrained[k + 1 :],
        )
        binary, truncated = hnb_loglik_parts(params, X, X, y)
        assert binary + truncated == m.loglik

    def test_zero_rows_only_affect_delta(self):
        rng = np.random.default_rng(13)
        X = design(rng, 2000, 2)
        y = simulate_hnb(rng, X, np.array([1.1, 0.2]), 0.5, X, np.array([-0.8, 0.0]))
        m_full = fit_hnb(X, X, y)
        # Append extra zero rows: the truncated-part estimates must not move.
        extra = 500
        X_aug = np.vstack([X, design(rng, extra, 2)])
        y_aug = np.concatenate([y, np.zeros(extra, dtype=np.int64)])
        m_aug = fit_hnb(X_aug, X_aug, y_aug)
        np.testing.assert_array_equal(
            m_full.params_unconstrained[: m_full.k_mean + 1],
            m_aug.params_unconstrained[: m_aug.k_mean + 1],
        )
        assert m_full.estimates["zero:intercept"] != m_aug.estimates["zero:intercept"]

    def test_truncated_part_leaves_locally_convex_start(self):
        # Positives are mostly ones, so the moment start r0 = 1e-3 lies where
        # the truncated log-likelihood is convex in log r; a plain Newton step
        # crawls there (about 480 iterations), the interior optimum is r ~ 6.9.
        y = np.repeat([0, 1, 2, 3], [100, 134, 12, 2])
        m = fit_homogeneous("HNB", y)
        assert m.converged and m.iterations <= 30
        assert m.warnings == ()
        assert m.estimates["r"] == pytest.approx(6.9219, rel=1e-4)

    def test_structural_errors(self):
        X = np.ones((10, 1))
        with pytest.raises(ValueError, match="zero and positive"):
            fit_hnb(X, X, np.zeros(10, dtype=int))
        with pytest.raises(ValueError, match="zero and positive"):
            fit_hnb(X, X, np.arange(1, 11))

    def test_perfect_separation_names_column(self):
        rng = np.random.default_rng(14)
        n = 200
        flag = np.repeat([1.0, 0.0], n // 2)
        X_h = np.column_stack([np.ones(n), flag])
        y = np.where(flag == 1.0, 0, rng.poisson(5.0, n) + 1).astype(np.int64)
        X = np.ones((n, 1))
        with pytest.raises(SeparationError, match="x1"):
            fit_hnb(X, X_h, y, hurdle_labels=("intercept", "x1"))


class TestFitHomogeneous:
    def test_tiny_hurdle_example(self):
        m = fit_homogeneous("HNB", np.array([0, 0, 1, 2]))
        assert m.natural_summary()["phi"] == pytest.approx(0.5, abs=1e-8)

    def test_constant_nb(self):
        m = fit_homogeneous("NB", np.array([3, 3, 3]))
        assert m.natural_summary()["theta"] == pytest.approx(3.0, rel=1e-6)

    def test_citation_scale_recovery(self):
        # Truth mimics a homogeneous citation-count fit: theta 23.4883,
        # r 2.42694, phi 0.0552.
        from countreg.distributions import HurdleParams, NbParams, sample

        truth = HurdleParams(NbParams(23.4883, 2.42694), 0.0552)
        y = sample(truth, 100000, seed=2024)
        m = fit_homogeneous("HNB", y)
        se = m.std_errors()
        summary = m.natural_summary()
        assert abs(summary["theta"] - 23.4883) < 3 * abs(summary["theta"]) * se["intercept"]
        assert abs(summary["r"] - 2.42694) < 3 * se["r"]
        phi = summary["phi"]
        se_phi = phi * (1 - phi) * se["zero:intercept"]
        assert abs(phi - 0.0552) < 3 * se_phi

    def test_unknown_family(self):
        with pytest.raises(ValueError, match="family"):
            fit_homogeneous("ZIP", np.array([1, 2, 3]))

    def test_empty_response(self):
        with pytest.raises(ValueError, match="nonempty"):
            fit_homogeneous("P", np.array([], dtype=int))


class TestFitFamily:
    def test_dispatches_to_each_fitter(self):
        rng = np.random.default_rng(21)
        X = design(rng, 400, 2)
        y = simulate_hnb(rng, X, np.array([1.0, 0.3]), 0.6, X, np.array([-0.5, 0.4]))
        labels = ("intercept", "age")
        direct = {
            "P": fit_poisson(X, y, labels=labels),
            "NB": fit_nb(X, y, labels=labels),
            "HNB": fit_hnb(X, X, y, labels=labels, hurdle_labels=labels),
        }
        for family, expected in direct.items():
            m = fit_family(family, X, y, labels=labels)
            assert m.family == family and m.names == expected.names
            np.testing.assert_array_equal(m.params_unconstrained, expected.params_unconstrained)
            np.testing.assert_array_equal(m.covariance, expected.covariance)

    @pytest.mark.parametrize("family", ["P", "NB"])
    def test_p_and_nb_ignore_the_hurdle_design(self, family):
        # The CLI passes its hurdle design and labels for every family.
        rng = np.random.default_rng(24)
        X = design(rng, 400, 2)
        y = simulate_nb(rng, X, np.array([1.0, 0.3]), 0.6)
        labels = ("intercept", "age")
        expected = fit_family(family, X, y, labels=labels)
        for X_h in (X, X[:, :1], np.ones((7, 3))):  # the last of the wrong row count
            m = fit_family(family, X, y, X_h=X_h, labels=labels, hurdle_labels=("zero",))
            for f in dataclasses.fields(FittedModel):
                got, want = getattr(m, f.name), getattr(expected, f.name)
                if isinstance(want, np.ndarray):
                    assert got.tobytes() == want.tobytes(), f.name
                else:
                    assert got == want, f.name

    def test_separate_hurdle_design(self):
        rng = np.random.default_rng(22)
        X = design(rng, 400, 2)
        X_h = X[:, :1]
        y = simulate_hnb(rng, X, np.array([1.0, 0.3]), 0.6, X_h, np.array([-0.5]))
        m = fit_family("HNB", X, y, X_h=X_h, labels=("intercept", "age"), hurdle_labels=("const",))
        expected = fit_hnb(X, X_h, y, labels=("intercept", "age"), hurdle_labels=("const",))
        assert m.names == ("intercept", "age", "r", "zero:const")
        np.testing.assert_array_equal(m.params_unconstrained, expected.params_unconstrained)

    def test_the_hurdle_design_defaults_to_X_and_its_labels_to_labels(self):
        rng = np.random.default_rng(23)
        X = design(rng, 400, 2)
        y = simulate_hnb(rng, X, np.array([1.0, 0.3]), 0.6, X, np.array([-0.5, 0.4]))
        labels = ("intercept", "age")
        fits = [
            fit_family("HNB", X, y, labels=labels),
            fit_hnb(X, None, y, labels=labels),
            fit_hnb(X, X, y, labels=labels),
            fit_hnb(X, X.copy(), y, labels=labels, hurdle_labels=labels),
        ]
        for m in fits:
            assert m.names == ("intercept", "age", "r", "zero:intercept", "zero:age")
            assert m.hurdle_labels == labels
            np.testing.assert_array_equal(m.params_unconstrained, fits[0].params_unconstrained)
        assert fit_hnb(X, None, y, labels=labels, hurdle_labels=("one", "two")).hurdle_names == ("zero:one", "zero:two")

    def test_a_hurdle_design_equal_to_X_is_X(self):
        # Chosen by identity, a copy of X was named zero:intercept, zero:x1.
        rng = np.random.default_rng(23)
        X = design(rng, 400, 2)
        y = simulate_hnb(rng, X, np.array([1.0, 0.3]), 0.6, X, np.array([-0.5, 0.4]))
        labels = ("intercept", "age")
        same = fit_hnb(X, X, y, labels=labels)
        for m in (fit_hnb(X, X.copy(), y, labels=labels), fit_family("HNB", X, y, X_h=X.copy(), labels=labels)):
            assert m.names == same.names == ("intercept", "age", "r", "zero:intercept", "zero:age")
            assert m.loglik == same.loglik
            np.testing.assert_array_equal(m.params_unconstrained, same.params_unconstrained)

    def test_unknown_family_is_named(self):
        with pytest.raises(ValueError, match="unknown family 'ZIP'"):
            fit_family("ZIP", np.ones((5, 1)), np.arange(5))


class TestFittedModel:
    def test_immutable(self):
        rng = np.random.default_rng(15)
        y = rng.poisson(3.0, 100)
        m = fit_poisson(np.ones((100, 1)), y)
        assert isinstance(m, FittedModel)
        with pytest.raises(AttributeError):
            m.loglik = 0.0

    def test_natural_summary_reads_only_designs_of_ones(self):
        # One design column that is not ones is a slope, not log theta or
        # logit phi: exp of this one read 1.94 as theta.
        rng = np.random.default_rng(0)
        x = rng.uniform(0.5, 2.0, 500)
        y = rng.poisson(np.exp(0.7 * x))
        assert set(fit_nb(x[:, None], y).natural_summary()) == {"r"}
        assert set(fit_hnb(np.ones((500, 1)), x[:, None], y).natural_summary()) == {"theta", "r"}
        assert set(fit_hnb(x[:, None], np.ones((500, 1)), y).natural_summary()) == {"r", "phi"}

    def test_a_model_of_an_unknown_family_is_refused(self):
        # The one family rule, so no diagnostic needs an arm for another family.
        m = fit_poisson(np.ones((5, 1)), np.arange(5))
        message = "unknown family 'ZIP'; expected one of P, NB, HNB"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            dataclasses.replace(m, family="ZIP")


class TestNewtonEvaluations:
    def test_hessian_evaluated_only_at_start_and_accepted_points(self, monkeypatch):
        newton = fit_module._newton_maximize
        blocks = []

        def counting_newton(objective, u0, options, guard=None):
            counts = {"objective": 0, "hessian": 0}

            def counted(u):
                counts["objective"] += 1
                value, score, hessian = objective(u)

                def counted_hessian():
                    counts["hessian"] += 1
                    return hessian()

                return value, score, counted_hessian

            state = newton(counted, u0, options, guard)
            blocks.append((state, counts))
            return state

        monkeypatch.setattr(fit_module, "_newton_maximize", counting_newton)
        # The convex-start data of the truncated part: its first Newton steps
        # are halved, so the line search rejects trial points.
        y = np.repeat([0, 1, 2, 3], [100, 134, 12, 2])
        m = fit_homogeneous("HNB", y)
        assert m.converged
        assert len(blocks) == 3  # logistic part, Poisson start, truncated part
        for state, counts in blocks:
            assert counts["hessian"] == state.iterations + 1
        truncated_state, truncated_counts = blocks[-1]
        assert truncated_counts["objective"] > truncated_state.iterations + 1


class TestNewtonFailurePaths:
    def test_a_stalled_line_search_is_reported(self):
        # With one trial step, the first full Newton step of both the Poisson
        # start and the NB block fails the Armijo test.
        rng = np.random.default_rng(0)
        n = 300
        X = np.column_stack([np.ones(n), 3 * rng.normal(size=n)])
        y = rng.negative_binomial(0.5, 0.5 / (0.5 + np.exp(1 + 0.8 * X[:, 1])))
        m = fit_nb(X, y, FitOptions(step_halving_limit=1))
        assert not m.converged
        assert m.warnings == ("line_search_stalled", "hessian_not_negative_definite")

    def test_a_non_finite_newton_step_falls_back_to_the_score(self):
        # A zero Hessian makes the Newton step overflow; each iteration then
        # takes the score step, silently.
        def objective(u):
            return 1e5 * u[0], np.array([1e5]), lambda: np.zeros((1, 1))

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            state = fit_module._newton_maximize(objective, np.zeros(1), FitOptions(max_iterations=3))
        assert state.u.tolist() == [3e5]
        assert (state.iterations, state.converged, state.warnings) == (3, False, [])

    def test_a_score_step_of_zero_slope_stops_unconverged(self):
        # The Newton slope g.g/1 of g = 1e-170 underflows to 0, and so does
        # the score step's g.g: the search stops before its first iteration
        # and says why.
        def objective(u):
            return -0.5 * float(u @ u), np.array([1e-170]), lambda: -np.eye(1)

        options = FitOptions(gradient_tolerance=1e-300)
        state = fit_module._newton_maximize(objective, np.zeros(1), options)
        assert state.u.tolist() == [0.0]
        assert (state.iterations, state.converged, state.warnings) == (0, False, ["score_underflow"])

    @pytest.mark.parametrize("log_r", [-30.5, 30.5])
    def test_log_r_outside_its_window_is_rejected(self, log_r):
        X = np.ones((4, 1))
        y = np.array([0.0, 1.0, 2.0, 5.0])
        objective = fit_module._nb_objective(X, y, False, np.zeros(4))
        assert objective(np.array([0.5, log_r])) == (-math.inf, None, None)
        assert np.isfinite(objective(np.array([0.5, log_r / 2]))[0])


class TestNewtonRules:
    def test_armijo_bound_is_1e_4_of_the_slope(self):
        # At 0 the Newton step is 1 with slope 1; the full step gains 5e-4,
        # above the 1e-4 Armijo bound.  Every shorter step gains 5e-4 of its
        # length too, so a bound of 1e-3 would stall the search.
        def objective(u):
            return 5e-4 * u[0], np.array([1.0 if u[0] == 0.0 else 0.0]), lambda: -np.eye(1)

        state = fit_module._newton_maximize(objective, np.zeros(1), FitOptions())
        assert state.u.tolist() == [1.0]
        assert (state.iterations, state.converged, state.warnings) == (1, True, [])

    def test_curvature_floor_is_a_1e_14_share_of_the_largest(self):
        # -H has curvatures 1 and 1e-13, above the floor 1e-14 * 1, so the
        # step is the exact Newton step (1, 1); a floor of 1e-12 would cut its
        # second component to 0.1.
        trials = []

        def objective(u):
            if not u.any():
                return 0.0, np.array([1.0, 1e-13]), lambda: -np.diag([1.0, 1e-13])
            trials.append(u.tolist())
            return 1.0, np.zeros(2), lambda: -np.eye(2)

        state = fit_module._newton_maximize(objective, np.zeros(2), FitOptions())
        assert trials == [[1.0, 1.0]]
        assert (state.iterations, state.converged, state.warnings) == (1, True, [])

    def test_converging_on_the_last_allowed_iteration_is_converged(self):
        # Newton lands on the maximum of a quadratic in one step, and one step
        # is allowed: the loop ends on its count, and converged reads the
        # point it reached.
        def objective(u):
            return -0.5 * float((u[0] - 3.0) ** 2), np.array([3.0 - u[0]]), lambda: -np.eye(1)

        state = fit_module._newton_maximize(objective, np.zeros(1), FitOptions(max_iterations=1))
        assert state.u.tolist() == [3.0]
        assert (state.iterations, state.converged, state.warnings) == (1, True, [])


class TestBlockRules:
    """The thresholds around Newton, each on an input just past the other side."""

    def test_psd_inverse_keeps_an_eigenvalue_above_a_1e_14_share_of_the_largest(self):
        # A floor of 1e-12 would zero the 1e-13 eigenvalue instead of inverting it.
        np.testing.assert_allclose(fit_module._psd_inverse(np.diag([1.0, 1e-13])), np.diag([1.0, 1e13]))

    def test_a_zero_eigenvalue_of_the_information_is_degenerate(self):
        # Read as nondegenerate, the information diag(1, 0) would go to np.linalg.inv and fail.
        cov, flags = fit_module._covariance(-np.diag([1.0, 0.0]))
        assert flags == ["hessian_not_negative_definite"]
        assert cov.tolist() == [[1.0, 0.0], [0.0, 0.0]]

    def test_the_separation_guard_names_the_largest_varying_column(self):
        # The intercept's |delta| is larger, but a constant column separates nothing.
        X_h = np.column_stack([np.ones(4), np.arange(4.0)])
        guard = fit_module._separation_guard(X_h, ("intercept", "x"))
        with pytest.raises(SeparationError) as caught:
            guard(np.array([40.0, 35.0]))
        assert caught.value.column == "x"

    def test_the_moment_start_of_r_is_at_least_1e_3(self):
        # Underdispersed counts: the moment estimate is negative.
        assert fit_module._moment_start_r(np.array([1, 1, 1, 1, 2])) == 1e-3

    @pytest.mark.parametrize("r, warned", [(5e-6, False), (5e-7, True)])
    def test_poisson_boundary_is_an_r_below_1e_6(self, monkeypatch, r, warned):
        def newton(objective, u0, options, guard=None):
            u = np.append(np.zeros(len(u0) - 1), math.log(r))
            return fit_module._OptState(u, 0.0, np.zeros(len(u0)), -np.eye(len(u0)), True, 1)

        monkeypatch.setattr(fit_module, "_newton_maximize", newton)
        state = fit_module.fit_nb(np.ones((5, 1)), np.array([0, 1, 2, 3, 5]))
        assert ("poisson_boundary" in state.warnings) == warned


@st.composite
def permuted_designs(draw):
    """(n, k, seed, column order): n <= 500 rows, k <= 4 columns, the first
    of them ones."""
    k = draw(st.integers(2, 4))
    return draw(st.integers(100, 500)), k, draw(st.integers(0, 2**32 - 1)), draw(st.permutations(range(k)))


def _permutation_fit(family, n, k, seed, rows=None, columns=None):
    """(estimates, SEs) by parameter name of a fit to a seeded draw, its rows
    and design columns taken in the given orders; the hurdle design is X."""
    rng = np.random.default_rng(seed)
    X = design(rng, n, k)
    y = simulate_nb(rng, X, np.append(1.0, rng.uniform(-0.5, 0.5, k - 1)), 0.5)
    if family == "HNB":
        y[rng.random(n) < link_hurdle(X, np.append(-0.5, rng.uniform(-0.5, 0.5, k - 1)))] = 0
    rows = np.arange(n) if rows is None else rows
    columns = list(range(k)) if columns is None else list(columns)
    labels = [f"c{j}" for j in columns]
    m = fit_family(family, X[np.ix_(rows, columns)], y[rows], labels=labels)
    assume(m.converged and not m.warnings)
    return m.estimates, m.std_errors()


def assert_same_by_name(got, want, rel):
    """Every entry of ``got`` within ``rel`` of the largest magnitude in ``want``."""
    names = sorted(want)
    a, b = np.array([got[name] for name in names]), np.array([want[name] for name in names])
    np.testing.assert_allclose(a, b, rtol=0, atol=rel * np.max(np.abs(b)))


class TestPermutationInvariance:
    """Where the intercept sits, and the order of the rows, change a fit by
    rounding only."""

    @pytest.mark.parametrize("family", ["P", "NB", "HNB"])
    @settings(max_examples=40, deadline=None)
    @given(permuted_designs())
    def test_permuting_the_columns_permutes_the_estimates(self, family, drawn):
        n, k, seed, order = drawn
        estimates, se = _permutation_fit(family, n, k, seed)
        permuted_estimates, permuted_se = _permutation_fit(family, n, k, seed, columns=order)
        assert_same_by_name(permuted_estimates, estimates, 1e-10)
        assert_same_by_name(permuted_se, se, 1e-10)

    @pytest.mark.parametrize("family", ["P", "NB", "HNB"])
    @settings(max_examples=40, deadline=None)
    @given(permuted_designs())
    def test_permuting_the_rows_moves_the_estimates_by_rounding_only(self, family, drawn):
        n, k, seed, _ = drawn
        estimates, se = _permutation_fit(family, n, k, seed)
        rows = np.random.default_rng(seed + 1).permutation(n)
        permuted_estimates, permuted_se = _permutation_fit(family, n, k, seed, rows=rows)
        assert_same_by_name(permuted_estimates, estimates, 1e-8)
        assert_same_by_name(permuted_se, se, 1e-8)


class TestPinnedFits:
    # sha256 of the little-endian params_unconstrained, covariance and loglik
    # of seeded fits.  A change to the order of floating-point operations in
    # the likelihoods or the optimizer moves them; so may another numpy/BLAS
    # build, whose reductions may round differently.
    PINNED_DIGESTS = {
        "NB": "f775401e31450820748db5cccc67f5a257dd8c59d8cb620b46b3ebe6d5e65068",
        "HNB": "946db8e266f9a242492871d57ffaf5ae647917787b6f672ed6738cb7f43558ac",
    }

    @pytest.mark.parametrize("family", ["NB", "HNB"])
    def test_fits_match_pinned_digests(self, family):
        rng = np.random.default_rng(2024)
        X = design(rng, 1500, 3)
        y = simulate_nb(rng, X, np.array([0.9, 0.4, -0.3]), 0.8)
        X_h = None
        if family == "HNB":
            X_h = X[:, :2]
            y = simulate_hnb(rng, X, np.array([1.1, 0.3, -0.2]), 0.6, X_h, np.array([-0.8, 0.5]))
        m = fit_family(family, X, y, X_h=X_h)
        data = np.concatenate([m.params_unconstrained, m.covariance.ravel(), [m.loglik]])
        assert hashlib.sha256(data.astype("<f8").tobytes()).hexdigest() == self.PINNED_DIGESTS[family]


class TestLoglikIsThePublicLikelihood:
    # Every block is evaluated by the one kernel behind the public likelihood,
    # so a fit's loglik is that likelihood at its estimates, bit for bit.  At
    # seed 39 a separate Poisson expression differed in the last bits.
    @pytest.mark.parametrize("family", ["P", "NB", "HNB"])
    def test_fit_loglik_equals_public_loglik_at_the_estimates(self, family):
        rng = np.random.default_rng(39)
        X = design(rng, 400, 3)
        y = simulate_nb(rng, X, np.array([1.0, 0.3, -0.2]), 0.7)
        if family == "HNB":
            y[rng.random(400) < link_hurdle(X, np.array([-0.8, 0.5, 0.1]))] = 0
        m = fit_family(family, X, y)
        u = m.params_unconstrained
        if family == "P":
            public = poisson_loglik(u, X, y)
        elif family == "NB":
            public = nb_loglik(NbRegParams(beta=u[:3], log_r=float(u[3])), X, y)
        else:
            params = HnbRegParams(nb=NbRegParams(beta=u[:3], log_r=float(u[3])), delta=u[4:])
            public = hnb_loglik(params, X, X, y)
        assert public == m.loglik
