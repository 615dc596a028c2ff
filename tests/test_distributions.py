"""Distribution-level checks against independent oracles.

Oracles: direct formula evaluation through scipy.special.gammaln (frozen
values), closed-form geometric/Poisson limits, truncated summation, and
CLT bounds for the samplers.
"""

import math
import tracemalloc

import numpy as np
import pytest
import scipy.special as sps
from hypothesis import given, settings
from hypothesis import strategies as st

from countreg.distributions import (
    HurdleParams,
    NbParams,
    _hnb_moments,
    hnb_log_pmf,
    hnb_mean_var,
    hnb_variance_bracket_form,
    nb_log_pmf,
    nb_mean_var,
    nb_zero_prob,
    sample,
    support_bound,
)
from countreg.distributions import _bad_counts, _validate_counts
from countreg.fit import fit_poisson

# Frozen oracle values, computed once by direct evaluation of the pmf
# formulas via scipy.special.gammaln (independent of the package code).
NB_LOG_PMF_3_27_04 = -1.9157686640966185
HNB_LOG_PMF_4 = -2.134833579293954


class TestNbLogPmf:
    def test_geometric_special_cases(self):
        p = NbParams(theta=1.0, r=1.0)
        assert nb_log_pmf(0, p) == pytest.approx(math.log(0.5), rel=1e-13)
        assert nb_log_pmf(2, p) == pytest.approx(math.log(0.125), rel=1e-13)

    def test_direct_formula_oracle(self):
        assert nb_log_pmf(3, NbParams(2.7, 0.4)) == pytest.approx(
            NB_LOG_PMF_3_27_04, rel=1e-12
        )

    def test_matches_geometric_over_support(self):
        # r = 1 collapses to the geometric distribution.
        for theta in (0.3, 1.0, 4.5):
            p = NbParams(theta, 1.0)
            y = np.arange(51)
            geom = (1.0 / (1.0 + theta)) * (theta / (1.0 + theta)) ** y
            np.testing.assert_allclose(np.exp(nb_log_pmf(y, p)), geom, atol=1e-12, rtol=0)

    def test_poisson_limit_tracks_first_order_gap(self):
        # As r -> 0 the log pmf approaches Poisson with a first-order gap of
        # r * (y(y-1)/2 - y*theta + theta^2/2); verify the gap and that it
        # vanishes linearly in r.
        theta = 27.0
        y = np.arange(201)
        pois = -theta + y * np.log(theta) - sps.gammaln(y + 1.0)
        for r in (1e-8, 1e-10):
            gap = nb_log_pmf(y, NbParams(theta, r)) - pois
            first_order = r * (y * (y - 1) / 2.0 - y * theta + theta**2 / 2.0)
            np.testing.assert_allclose(gap, first_order, atol=5e-10, rtol=0)
        gap_small = nb_log_pmf(y, NbParams(theta, 1e-10)) - pois
        assert np.max(np.abs(gap_small)) < 1e-5

    def test_sums_to_one_over_adaptive_support(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            p = NbParams(rng.uniform(0.05, 40.0), rng.uniform(0.02, 4.0))
            y_max = support_bound(p, tail=1e-12)
            total = np.exp(nb_log_pmf(np.arange(y_max + 1), p)).sum()
            assert total >= 1.0 - 1e-9

    def test_rejects_invalid_counts_and_params(self):
        with pytest.raises(ValueError):
            nb_log_pmf(-1, NbParams(1.0, 1.0))
        with pytest.raises(ValueError):
            nb_log_pmf(1.5, NbParams(1.0, 1.0))
        with pytest.raises(ValueError):
            NbParams(0.0, 1.0)
        with pytest.raises(ValueError):
            NbParams(1.0, -0.1)

    def test_large_count_in_bounded_memory(self):
        # A grid over 0..10**7 in one piece would hold 80 MB for each of its
        # arrays; the chunked dispersion grid holds a few chunks of 2**20.
        tracemalloc.start()
        try:
            value = nb_log_pmf([10**7], NbParams(theta=1e7, r=1.0))[0]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100e6
        a, y, theta = 1.0, 1e7, 1e7
        expected = (
            sps.gammaln(a + y) - sps.gammaln(a) - sps.gammaln(y + 1.0)
            - (a + y) * math.log1p(theta) + y * math.log(theta)
        )
        assert math.isfinite(value)
        assert value == pytest.approx(expected, rel=1e-6)


class TestNbZeroProb:
    def test_plug_in_values(self):
        assert nb_zero_prob(NbParams(1.0, 1.0)) == pytest.approx(0.5, rel=1e-14)
        assert nb_zero_prob(NbParams(2.0, 0.5)) == pytest.approx(0.25, rel=1e-14)

    def test_poisson_limit(self):
        assert nb_zero_prob(NbParams(3.0, 1e-8)) == pytest.approx(
            math.exp(-3.0), abs=1e-6
        )

    def test_matches_pmf_at_zero(self):
        p = NbParams(6.3, 0.8)
        assert nb_zero_prob(p) == pytest.approx(math.exp(nb_log_pmf(0, p)), rel=1e-13)


class TestNbMeanVar:
    def test_closed_form(self):
        assert nb_mean_var(NbParams(2.0, 0.5)) == (2.0, 4.0)
        mean, var = nb_mean_var(NbParams(10.0, 1e-12))
        assert var == pytest.approx(10.0, rel=1e-10)

    def test_citation_scale_values(self):
        mean, var = nb_mean_var(NbParams(27.3193, 1.61933))
        assert mean == 27.3193
        assert var == pytest.approx(27.3193 + 1.61933 * 27.3193**2, rel=1e-15)

    @settings(max_examples=100, deadline=None)
    @given(
        st.floats(min_value=1e-3, max_value=1e3),
        st.floats(min_value=1e-6, max_value=50.0),
    )
    def test_overdispersion_property(self, theta, r):
        mean, var = nb_mean_var(NbParams(theta, r))
        assert var > mean


class TestHnbLogPmf:
    def test_zero_mass_is_phi_exactly(self):
        h = HurdleParams(NbParams(7.7, 0.9), 0.3)
        assert math.exp(hnb_log_pmf(0, h)) == 0.3

    def test_renormalized_positive_mass(self):
        h = HurdleParams(NbParams(1.0, 1.0), 0.5)
        # NB(1)=0.25 and p0=0.5, so the hurdle mass at 1 is 0.5*0.25/0.5.
        assert hnb_log_pmf(1, h) == pytest.approx(math.log(0.25), rel=1e-13)

    def test_direct_formula_oracle(self):
        h = HurdleParams(NbParams(2.7, 0.4), 0.0552)
        assert hnb_log_pmf(4, h) == pytest.approx(HNB_LOG_PMF_4, rel=1e-12)

    def test_degenerate_phi_one(self):
        h = HurdleParams(NbParams(2.0, 0.5), 1.0)
        assert hnb_log_pmf(0, h) == 0.0
        assert hnb_log_pmf(3, h) == -math.inf

    def test_sums_to_one_over_adaptive_support(self):
        rng = np.random.default_rng(99)
        for _ in range(25):
            h = HurdleParams(
                NbParams(rng.uniform(0.05, 40.0), rng.uniform(0.02, 4.0)),
                rng.uniform(0.01, 0.95),
            )
            y_max = support_bound(h, tail=1e-12)
            total = np.exp(hnb_log_pmf(np.arange(y_max + 1), h)).sum()
            assert total >= 1.0 - 1e-9


class TestHnbMeanVar:
    def test_mean_closed_form(self):
        mean, _ = hnb_mean_var(HurdleParams(NbParams(2.0, 0.5), 0.5))
        assert mean == pytest.approx(0.5 * 2.0 / 0.75, rel=1e-14)
        mean, _ = hnb_mean_var(HurdleParams(NbParams(1.0, 1.0), 0.5))
        assert mean == pytest.approx(1.0, rel=1e-14)

    def test_truncated_mean_matches_closed_form(self):
        rng = np.random.default_rng(5)
        from countreg.distributions import _truncated_moments

        for _ in range(20):
            h = HurdleParams(
                NbParams(rng.uniform(0.1, 30.0), rng.uniform(0.05, 3.0)),
                rng.uniform(0.0, 0.9),
            )
            mean, _ = hnb_mean_var(h)
            _, m1, _ = _truncated_moments(h)
            assert m1 == pytest.approx(mean, rel=1e-9)

    def test_variance_from_pmf_and_bracket_form_disagree(self):
        # The summed moments are the ground truth; the bracket closed form
        # as printed is off by a finite amount, recorded here.
        h = HurdleParams(NbParams(2.0, 0.5), 0.5)
        mean, var = hnb_mean_var(h)
        # Independent closed form derived from the renormalized pmf:
        # var = mu * (1 + r*theta + theta - mu).
        derived = mean * (1.0 + 0.5 * 2.0 + 2.0 - mean)
        assert var == pytest.approx(derived, abs=1e-9)
        bracket = hnb_variance_bracket_form(h)
        print(f"\nbracket-form variance {bracket:.9f} vs pmf variance {var:.9f}")
        assert abs(bracket - var) > 0.1

    def test_phi_one_degenerate(self):
        assert hnb_mean_var(HurdleParams(NbParams(2.0, 0.5), 1.0)) == (0.0, 0.0)


def log_uniform(lo, hi):
    return st.floats(min_value=math.log(lo), max_value=math.log(hi)).map(math.exp)


class TestHnbMomentsClosedForm:
    """The vectorized closed form against the summation route of hnb_mean_var."""

    @settings(max_examples=300, deadline=None)
    @given(log_uniform(1e-3, 200.0), log_uniform(1e-3, 5.0), st.floats(min_value=0.0, max_value=0.99))
    def test_matches_truncated_summation(self, theta, r, phi):
        mean, var = hnb_mean_var(HurdleParams(NbParams(theta, r), phi))
        mu, sigma2 = _hnb_moments(np.array([theta]), r, np.array([phi]))
        assert mu[0] == mean
        assert sigma2[0] == pytest.approx(var, rel=1e-9)

    def test_phi_one_rows_give_zero_moments(self):
        mu, sigma2 = _hnb_moments(np.array([2.0, 3.0, 0.4]), 0.5, np.array([1.0, 0.3, 1.0]))
        assert (mu[0], sigma2[0]) == (0.0, 0.0)
        assert (mu[2], sigma2[2]) == (0.0, 0.0)
        assert mu[1] > 0.0 and sigma2[1] > 0.0

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0, 0.0])
    def test_invalid_theta_row_raises_the_params_message(self, bad):
        with pytest.raises(ValueError) as expected:
            NbParams(bad, 0.5)
        with pytest.raises(ValueError) as got:
            _hnb_moments(np.array([1.0, bad, 2.0]), 0.5, np.array([0.2, 0.2, 0.2]))
        assert str(got.value) == str(expected.value)

    @pytest.mark.parametrize("bad", [math.nan, -0.1, 1.5])
    def test_invalid_phi_row_raises_the_params_message(self, bad):
        with pytest.raises(ValueError) as expected:
            HurdleParams(NbParams(1.0, 0.5), bad)
        with pytest.raises(ValueError) as got:
            _hnb_moments(np.array([1.0, 1.0]), 0.5, np.array([0.2, bad]))
        assert str(got.value) == str(expected.value)

    def test_invalid_r_raises_the_params_message(self):
        with pytest.raises(ValueError) as expected:
            NbParams(1.0, math.nan)
        with pytest.raises(ValueError) as got:
            _hnb_moments(np.array([1.0]), math.nan, np.array([0.2]))
        assert str(got.value) == str(expected.value)


class TestSample:
    def test_nb_moments(self):
        n = 200000
        p = NbParams(5.0, 0.8)
        draws = sample(p, n, seed=42)
        mean, var = nb_mean_var(p)
        assert abs(draws.mean() - mean) < 4 * math.sqrt(var / n)
        mu4_proxy = 3 * var**2  # loose normal-kurtosis proxy for the var bound
        assert abs(draws.var() - var) < 6 * math.sqrt(mu4_proxy / n) + 0.5

    def test_hurdle_zero_fraction(self):
        n = 100000
        h = HurdleParams(NbParams(3.0, 0.6), 0.25)
        draws = sample(h, n, seed=3)
        assert abs((draws == 0).mean() - 0.25) < 3 * math.sqrt(0.25 * 0.75 / n)

    def test_hurdle_moments(self):
        n = 200000
        h = HurdleParams(NbParams(3.0, 0.6), 0.25)
        draws = sample(h, n, seed=8)
        mean, var = hnb_mean_var(h)
        assert abs(draws.mean() - mean) < 4 * math.sqrt(var / n)

    def test_reproducible(self):
        p = NbParams(2.0, 0.4)
        a = sample(p, 5000, seed=123)
        b = sample(p, 5000, seed=123)
        np.testing.assert_array_equal(a, b)
        h = HurdleParams(p, 0.4)
        np.testing.assert_array_equal(sample(h, 5000, 9), sample(h, 5000, 9))

    def test_positive_support_only(self):
        h = HurdleParams(NbParams(0.2, 2.0), 0.1)
        draws = sample(h, 20000, seed=77)
        assert draws.min() >= 0
        assert (draws > 0).any() and (draws == 0).any()

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            sample(NbParams(1.0, 1.0), 0, seed=1)

    def test_rejects_params_of_another_type(self):
        with pytest.raises(TypeError, match="^params must be NbParams or HurdleParams$"):
            sample((1.0, 1.0), 5, seed=1)


class TestCountRule:
    """Counts are nonnegative integers below 2**63, the range int64 holds."""

    @pytest.mark.parametrize(
        "values",
        [
            pytest.param(np.array([1.0, 1e20]), id="float-1e20"),
            pytest.param(np.array([1.0, 2.0**63]), id="float-2**63"),
            pytest.param(np.array([1, 2**64 - 1], dtype=np.uint64), id="uint64-max"),
            pytest.param(np.array([1, 2**63], dtype=np.uint64), id="uint64-2**63"),
            pytest.param(np.array([2.5]), id="fraction"),
            pytest.param(np.array([-3]), id="negative-int"),
            pytest.param(np.array([np.nan]), id="nan"),
            pytest.param(np.array([np.inf]), id="inf"),
            pytest.param([1, 2**70], id="python-int-too-large"),
        ],
    )
    def test_refused(self, values):
        with pytest.raises(ValueError, match="^counts must be nonnegative integers$"):
            _validate_counts(values)

    def test_int64_max_accepted_as_is(self):
        y = np.array([0, 2**63 - 1], dtype=np.int64)
        assert not _bad_counts(y).any()
        np.testing.assert_array_equal(_validate_counts(y), y)
        assert _validate_counts(np.array([2**63 - 1], dtype=np.uint64))[0] == 2**63 - 1

    def test_float_mask(self):
        values = np.array([0.0, 3.0, 2.0**63 - 1024, -1.0, 2.5, np.nan, np.inf, 2.0**63])
        np.testing.assert_array_equal(_bad_counts(values), [False] * 3 + [True] * 5)

    def test_pmf_and_fit_refuse_counts_int64_cannot_hold(self):
        with pytest.raises(ValueError, match="^counts must be nonnegative integers$"):
            nb_log_pmf([1e19], NbParams(1.0, 1.0))
        with pytest.raises(ValueError, match="^counts must be nonnegative integers$"):
            fit_poisson(np.ones((2, 1)), np.array([1.0, 1e20]))
