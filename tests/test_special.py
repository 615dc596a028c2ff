"""Special-function accuracy against independent references.

Oracles: scipy.special (independent implementations), central finite
differences of ln_gamma, and the recurrence identities of log-gamma/digamma.
"""

import math
import tracemalloc

import numpy as np
import pytest
import scipy.special as sps
from hypothesis import given, settings
from hypothesis import strategies as st

from countreg.special import (
    digamma,
    ln_gamma,
    ln_gamma_approx,
    ln_gamma_ratio,
)

EULER_GAMMA = 0.5772156649015329


class TestLnGamma:
    def test_known_values(self):
        assert ln_gamma(1.0) == pytest.approx(0.0, abs=1e-13)
        assert ln_gamma(2.0) == pytest.approx(0.0, abs=1e-13)
        assert ln_gamma(0.5) == pytest.approx(0.5 * math.log(math.pi), abs=1e-13)

    def test_against_scipy_grid(self):
        z = np.concatenate(
            [
                np.linspace(0.5, 20.0, 513),
                np.geomspace(20.0, 1e6, 257),
            ]
        )
        ours = ln_gamma(z)
        ref = sps.gammaln(z)
        np.testing.assert_allclose(ours, ref, rtol=1e-13, atol=1e-12)

    def test_recurrence(self):
        rng = np.random.default_rng(7)
        z = rng.uniform(0.05, 100.0, size=1000)
        lhs = ln_gamma(z + 1.0) - ln_gamma(z)
        np.testing.assert_allclose(lhs, np.log(z), rtol=0, atol=1e-10)

    def test_rejects_bad_input(self):
        for bad in (0.0, -1.5, math.nan, math.inf):
            with pytest.raises(ValueError):
                ln_gamma(bad)

    def test_array_and_scalar_shapes(self):
        assert isinstance(ln_gamma(3.0), float)
        out = ln_gamma(np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert out.shape == (2, 2)


class TestLnGammaApprox:
    def test_value_is_the_formula(self):
        z = 3.7
        expected = (
            0.5 * math.log(2 * math.pi)
            + (z - 0.5) * math.log(z)
            - z
            + 0.5 * z * math.log(z * math.sinh(1 / z))
        )
        assert ln_gamma_approx(z) == pytest.approx(expected, rel=1e-15)

    def test_error_at_one(self):
        # Oracle: compare against exact ln_gamma; |error| at z=1 is ~3.4e-4.
        err = abs(ln_gamma_approx(1.0) - ln_gamma(1.0))
        assert err < 1e-3
        assert err == pytest.approx(3.418e-4, rel=1e-2)

    def test_error_at_ten(self):
        # True error of the sinh form is ~1/(1620 z^5) = 6.17e-9 at z=10.
        err = abs(ln_gamma_approx(10.0) - ln_gamma(10.0))
        assert err == pytest.approx(6.115e-9, rel=1e-2)

    def test_error_at_half_recorded(self):
        err = abs(ln_gamma_approx(0.5) - ln_gamma(0.5))
        print(f"\nln_gamma_approx error at z=0.5: {err:.6e}")
        assert err < 5e-3

    def test_error_shrinks_with_z(self):
        errors = [abs(ln_gamma_approx(z) - ln_gamma(z)) for z in (1, 2, 5, 10, 50)]
        assert all(a > b for a, b in zip(errors, errors[1:]))
        assert errors[-1] < errors[0]


class TestDigamma:
    def test_known_values(self):
        assert digamma(1.0) == pytest.approx(-EULER_GAMMA, abs=1e-12)
        assert digamma(2.0) == pytest.approx(1.0 - EULER_GAMMA, abs=1e-12)

    def test_against_scipy_grid(self):
        z = np.concatenate(
            [np.geomspace(1e-3, 1.0, 257), np.linspace(1.0, 50.0, 257), np.geomspace(50.0, 1e6, 129)]
        )
        np.testing.assert_allclose(digamma(z), sps.digamma(z), rtol=1e-11, atol=1e-10)

    def test_finite_difference_of_ln_gamma(self):
        h = 1e-6
        z = 5.5
        fd = (ln_gamma(z + h) - ln_gamma(z - h)) / (2 * h)
        assert digamma(z) == pytest.approx(fd, abs=1e-6)

    @settings(max_examples=200, deadline=None)
    @given(st.floats(min_value=1e-6, max_value=100.0, allow_nan=False))
    def test_recurrence_property(self, z):
        assert digamma(z + 1.0) - digamma(z) == pytest.approx(1.0 / z, rel=1e-9, abs=1e-9)

    def test_recurrence_bulk(self):
        rng = np.random.default_rng(11)
        z = rng.uniform(1e-6, 100.0, size=1000)
        np.testing.assert_allclose(
            digamma(z + 1.0) - digamma(z), 1.0 / z, rtol=1e-9, atol=1e-9
        )

    def test_rejects_bad_input(self):
        for bad in (0.0, -3.0, math.nan):
            with pytest.raises(ValueError):
                digamma(bad)


class TestLnGammaRatio:
    def test_known_values(self):
        assert ln_gamma_ratio(1.0, 3) == pytest.approx(math.log(6.0), rel=1e-14)
        assert ln_gamma_ratio(2.5, 0) == 0.0
        assert ln_gamma_ratio(0.7, 5) == pytest.approx(
            ln_gamma(5.7) - ln_gamma(0.7), rel=1e-12
        )

    def test_matches_ln_gamma_differences(self):
        rng = np.random.default_rng(23)
        for _ in range(300):
            a = rng.uniform(1e-3, 50.0)
            b = int(rng.integers(0, 201))
            expected = ln_gamma(a + b) - ln_gamma(a)
            assert ln_gamma_ratio(a, b) == pytest.approx(expected, rel=1e-10, abs=1e-11)
        for a in (1e-3, 0.5, 7.3, 50.0):
            for b in (10**3, 10**4, 10**5, 10**6):
                expected = ln_gamma(a + b) - ln_gamma(a)
                assert ln_gamma_ratio(a, b) == pytest.approx(expected, rel=1e-10)

    def test_large_b_in_bounded_memory(self):
        # A sum over all 10**7 terms at once would hold 80 MB for each of
        # its arrays; the chunked grid holds a few chunks of 2**20.
        tracemalloc.start()
        try:
            value = ln_gamma_ratio(0.5, 10**7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100e6
        assert math.isfinite(value)
        assert value == pytest.approx(sps.gammaln(0.5 + 10**7) - sps.gammaln(0.5), rel=1e-6)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            ln_gamma_ratio(-1.0, 3)
        with pytest.raises(ValueError):
            ln_gamma_ratio(1.0, -1)
        with pytest.raises(ValueError):
            ln_gamma_ratio(1.0, 2.5)
