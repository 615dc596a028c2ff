"""Likelihood and score checks.

Oracles: per-observation pmf summation (distributions module), central
finite differences of the log-likelihoods, structural identities
(separability, hurdle-to-NB collapse), and the logistic kernel's
two-logaddexp route, bit for bit.
"""

import math

import numpy as np
import pytest
import scipy.special as sps

from countreg import likelihood
from countreg.distributions import HurdleParams, NbParams, hnb_log_pmf, nb_log_pmf, nb_zero_prob
from countreg.likelihood import (
    HnbRegParams,
    NbRegParams,
    _clamped_eta,
    _logit_kernel,
    hnb_loglik,
    hnb_loglik_parts,
    hnb_score,
    link_hurdle,
    link_mean,
    nb_loglik,
    nb_score,
    poisson_loglik,
    poisson_score,
)
from countreg.special import ln_gamma


def finite_difference(fun, x, h=1e-5):
    x = np.asarray(x, dtype=float)
    grad = np.empty_like(x)
    for j in range(x.size):
        step = h * max(1.0, abs(x[j]))
        up, down = x.copy(), x.copy()
        up[j] += step
        down[j] -= step
        grad[j] = (fun(up) - fun(down)) / (2 * step)
    return grad


def random_instance(rng, n=50, k=3, hurdle=False):
    X = np.column_stack([np.ones(n)] + [rng.normal(size=n) for _ in range(k - 1)])
    beta = rng.normal(scale=0.4, size=k)
    beta[0] += 1.0
    log_r = float(rng.normal(scale=0.3))
    theta = link_mean(X, beta)
    r = math.exp(log_r)
    if not hurdle:
        lam = rng.gamma(shape=1.0 / r, scale=r * theta)
        y = rng.poisson(lam)
        return X, y, NbRegParams(beta=beta, log_r=log_r)
    delta = rng.normal(scale=0.5, size=k)
    phi = link_hurdle(X, delta)
    y = np.zeros(n, dtype=np.int64)
    positive = rng.random(n) >= phi
    idx = np.flatnonzero(positive)
    while idx.size:
        lam = rng.gamma(shape=1.0 / r, scale=r * theta[idx])
        y[idx] = rng.poisson(lam)
        idx = idx[y[idx] == 0]
    params = HnbRegParams(nb=NbRegParams(beta=beta, log_r=log_r), delta=delta)
    return X, y, params


class TestParameters:
    @pytest.mark.parametrize(
        "build",
        [
            pytest.param(lambda: NbRegParams(beta=np.array([1.0, math.nan]), log_r=0.0), id="beta"),
            pytest.param(lambda: NbRegParams(beta=np.array([1.0]), log_r=math.inf), id="log_r"),
            pytest.param(lambda: HnbRegParams(nb=NbRegParams(beta=np.array([1.0]), log_r=0.0),
                                              delta=np.array([-math.inf])), id="delta"),
        ],
    )
    def test_non_finite_parameters_are_refused(self, build):
        with pytest.raises(ValueError, match="^parameters must be finite$"):
            build()


class TestLinks:
    def test_zero_coefficients(self):
        X = np.column_stack([np.ones(4), np.arange(4.0)])
        np.testing.assert_array_equal(link_mean(X, np.zeros(2)), np.ones(4))
        np.testing.assert_array_equal(link_hurdle(X, np.zeros(2)), np.full(4, 0.5))

    def test_intercept_only_targets(self):
        X = np.ones((5, 1))
        theta = link_mean(X, np.array([math.log(27.3193)]))
        np.testing.assert_allclose(theta, 27.3193, rtol=1e-12)
        logit = math.log(0.0552 / (1 - 0.0552))
        phi = link_hurdle(X, np.array([logit]))
        np.testing.assert_allclose(phi, 0.0552, rtol=1e-12)

    def test_row_arithmetic(self):
        X = np.array([[1.0, 2.0]])
        assert link_mean(X, np.array([0.5, -0.25]))[0] == pytest.approx(1.0)

    def test_saturation_stays_inside_unit_interval(self):
        X = np.array([[1.0]])
        lo = link_hurdle(X, np.array([-1e6]))[0]
        hi = link_hurdle(X, np.array([1e6]))[0]
        assert 0.0 < lo < 1e-200
        assert 1.0 - 1e-12 < hi <= 1.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="has shape"):
            link_mean(np.ones((3, 2)), np.zeros(3))


class TestNbLoglik:
    def test_single_observation_matches_pmf(self):
        X = np.ones((1, 1))
        params = NbRegParams(beta=np.array([0.0]), log_r=0.0)
        assert nb_loglik(params, X, np.array([0])) == pytest.approx(
            math.log(0.5), rel=1e-12
        )

    def test_matches_pmf_summation(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            X, y, params = random_instance(rng, n=40, k=3)
            expected = sum(
                nb_log_pmf(int(yi), NbParams(float(ti), params.r))
                for yi, ti in zip(y, link_mean(X, params.beta))
            )
            assert nb_loglik(params, X, y) == pytest.approx(expected, rel=1e-11)

    def test_proportional_flag_drops_constant(self):
        rng = np.random.default_rng(3)
        X, y, params = random_instance(rng, n=30, k=2)
        from countreg.special import ln_gamma

        diff = nb_loglik(params, X, y, full=True) - nb_loglik(params, X, y, full=False)
        assert diff == pytest.approx(-float(np.sum(ln_gamma(y + 1.0))), rel=1e-12)

    def test_poisson_limit(self):
        rng = np.random.default_rng(4)
        n = 50
        X = np.column_stack([np.ones(n), rng.normal(size=n)])
        beta = np.array([0.8, 0.3])
        y = rng.poisson(link_mean(X, beta))
        params = NbRegParams(beta=beta, log_r=math.log(1e-8))
        assert nb_loglik(params, X, y) == pytest.approx(
            poisson_loglik(beta, X, y), abs=1e-4
        )

    def test_gamma_term_routes_agree(self):
        # Oracle: scipy's gammaln for Gamma(1/r + y)/Gamma(1/r) and y!,
        # evaluated row by row, independent of the package's dispersion grid.
        rng = np.random.default_rng(5)
        X, y, params = random_instance(rng, n=60, k=3)
        a = 1.0 / params.r
        via_gammaln = sum(
            sps.gammaln(a + yi)
            - sps.gammaln(a)
            - (a + yi) * math.log1p(params.r * ti)
            + yi * (params.log_r + math.log(ti))
            - sps.gammaln(yi + 1.0)
            for yi, ti in zip(y, link_mean(X, params.beta))
        )
        assert nb_loglik(params, X, y) == pytest.approx(via_gammaln, rel=1e-9)

    def test_bit_stable_repeated_evaluation(self):
        rng = np.random.default_rng(6)
        X, y, params = random_instance(rng, n=80, k=4)
        assert nb_loglik(params, X, y) == nb_loglik(params, X, y)


class TestPoissonScore:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(8)
        X, y, params = random_instance(rng, n=50, k=3)
        fd = finite_difference(lambda beta: poisson_loglik(beta, X, y), params.beta)
        np.testing.assert_allclose(poisson_score(params.beta, X, y), fd, rtol=1e-6, atol=1e-6)


class TestNbScore:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        X, y, params = random_instance(rng, n=50, k=3)

        def fun(u):
            return nb_loglik(NbRegParams(beta=u[:-1], log_r=u[-1]), X, y)

        u0 = np.concatenate([params.beta, [params.log_r]])
        fd = finite_difference(fun, u0)
        analytic = nb_score(params, X, y)
        np.testing.assert_allclose(analytic, fd, rtol=1e-6, atol=1e-6)

    def test_zero_beta_block_when_y_equals_theta(self):
        X = np.column_stack([np.ones(4), np.array([0.0, 1.0, 2.0, 3.0])])
        beta = np.array([math.log(2.0), 0.0])
        y = np.full(4, 2)
        params = NbRegParams(beta=beta, log_r=-0.5)
        score = nb_score(params, X, y)
        np.testing.assert_allclose(score[:2], 0.0, atol=1e-12)


class TestHnbLoglik:
    def test_all_zero_response(self):
        n, k = 6, 2
        X = np.column_stack([np.ones(n), np.arange(float(n))])
        params = HnbRegParams(
            nb=NbRegParams(beta=np.array([0.3, 0.1]), log_r=0.0),
            delta=np.array([0.4, -0.2]),
        )
        y = np.zeros(n, dtype=int)
        binary, truncated = hnb_loglik_parts(params, X, X, y)
        phi = link_hurdle(X, params.delta)
        assert truncated == 0.0
        assert binary == pytest.approx(float(np.sum(np.log(phi))), rel=1e-12)

    def test_matches_pmf_summation(self):
        rng = np.random.default_rng(8)
        X, y, params = random_instance(rng, n=40, k=3, hurdle=True)
        theta = link_mean(X, params.nb.beta)
        phi = link_hurdle(X, params.delta)
        expected = sum(
            hnb_log_pmf(int(yi), HurdleParams(NbParams(float(ti), params.nb.r), float(pi)))
            for yi, ti, pi in zip(y, theta, phi)
        )
        assert hnb_loglik(params, X, X, y) == pytest.approx(expected, rel=1e-11)

    def test_parts_sum_to_total(self):
        rng = np.random.default_rng(9)
        X, y, params = random_instance(rng, n=35, k=3, hurdle=True)
        binary, truncated = hnb_loglik_parts(params, X, X, y)
        assert binary + truncated == hnb_loglik(params, X, X, y)

    def test_collapses_to_nb_when_phi_is_nb_zero_prob(self):
        # phi_i = (1+r theta_i)^(-1/r) turns the hurdle likelihood into the
        # plain NB likelihood; agreement is at rounding level.
        rng = np.random.default_rng(10)
        for _ in range(5):
            X, y, nb_params = random_instance(rng, n=45, k=3)
            theta = link_mean(X, nb_params.beta)
            p0 = np.array(
                [nb_zero_prob(NbParams(float(t), nb_params.r)) for t in theta]
            )
            # Solve the logit link exactly per-row by passing an identity
            # hurdle design carrying logit(p0).
            X_h = np.log(p0 / (1.0 - p0)).reshape(-1, 1)
            params = HnbRegParams(nb=nb_params, delta=np.array([1.0]))
            lhs = hnb_loglik(params, X, X_h, y)
            rhs = nb_loglik(nb_params, X, y)
            assert lhs == pytest.approx(rhs, rel=1e-13, abs=1e-11)


class TestHnbScore:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        X, y, params = random_instance(rng, n=50, k=3, hurdle=True)
        k = params.nb.beta.size

        def fun(u):
            p = HnbRegParams(
                nb=NbRegParams(beta=u[:k], log_r=u[k]), delta=u[k + 1 :]
            )
            return hnb_loglik(p, X, X, y)

        u0 = np.concatenate([params.nb.beta, [params.nb.log_r], params.delta])
        fd = finite_difference(fun, u0)
        analytic = hnb_score(params, X, X, y)
        np.testing.assert_allclose(analytic, fd, rtol=1e-6, atol=1e-6)

    def test_delta_block_zero_at_binomial_mle(self):
        n = 10
        X = np.ones((n, 1))
        y = np.array([0, 0, 0, 1, 2, 5, 1, 0, 3, 2])
        zero_fraction = np.mean(y == 0)
        delta_hat = np.array([math.log(zero_fraction / (1 - zero_fraction))])
        params = HnbRegParams(nb=NbRegParams(beta=np.array([0.5]), log_r=0.0), delta=delta_hat)
        score = hnb_score(params, X, X, y)
        assert score[-1] == pytest.approx(0.0, abs=1e-12)

    def test_delta_perturbation_leaves_truncated_part_unchanged(self):
        rng = np.random.default_rng(12)
        X, y, params = random_instance(rng, n=30, k=2, hurdle=True)
        _, truncated = hnb_loglik_parts(params, X, X, y)
        shifted = HnbRegParams(nb=params.nb, delta=params.delta + 0.7)
        _, truncated_shifted = hnb_loglik_parts(shifted, X, X, y)
        assert truncated == truncated_shifted


def two_logaddexp_logit(eta, X_h, z):
    """(terms, score, Hessian) of the logistic part at the linear predictor
    ``eta``, with one logaddexp for phi and another for the row terms."""
    phi = np.exp(-np.logaddexp(0.0, -eta))
    hessian = -(X_h.T @ (X_h * (phi * (1.0 - phi))[:, None]))
    return z * eta - np.logaddexp(0.0, eta), X_h.T @ (z - phi), hessian


def assert_same_bits(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


class TestLogitKernel:
    def check(self, delta, X_h, z, eta):
        got = _logit_kernel(delta, X_h, z)
        want = two_logaddexp_logit(eta, X_h, z)
        assert_same_bits(got[0], want[0])
        assert_same_bits(got[1], want[1])
        assert_same_bits(got[2](), want[2])

    def test_edge_values_bit_for_bit(self, monkeypatch):
        # Both zeros, the subnormal floor, values whose e^eta vanishes
        # against 1 and whose log1p(e^-|eta|) vanishes against |eta|, the
        # clamp and the largest eta whose e^eta is finite.
        edges = (0.0, 5e-324, 1e-20, 0.5, 1.0, 19.0, 36.7, 37.5, 300.0, 700.0, 709.0)
        eta = np.array([sign * v for v in edges for sign in (1.0, -1.0)])
        assert np.signbit(eta[1]) and not np.signbit(eta[0])
        # The kernel sees exactly these values, -0 included.  A diagonal
        # design gives each row its own score and Hessian entries, so no
        # sum over rows hides a bit.
        monkeypatch.setattr(likelihood, "_clamped_eta", lambda X, coefficients: eta.copy())
        X_h = np.diag(np.linspace(0.5, 2.0, eta.size))
        for z in (np.zeros(eta.size), np.ones(eta.size), np.arange(eta.size) % 2.0):
            self.check(np.ones(eta.size), X_h, z, eta)

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 30.0, 400.0])
    def test_random_linear_predictors_bit_for_bit(self, scale):
        rng = np.random.default_rng(41)
        n = 5000
        X_h = np.column_stack([np.ones(n), rng.normal(size=n), rng.standard_cauchy(n)])
        delta = np.array([0.2, scale, scale / 10.0])
        self.check(delta, X_h, (rng.random(n) < 0.3).astype(float), _clamped_eta(X_h, delta))
