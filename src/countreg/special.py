"""Special functions used by the count-model likelihoods.

``ln_gamma`` (Lanczos) and ``digamma`` (recurrence plus asymptotic series) are
the exact routines; the likelihoods use only ``ln_gamma``, for the lnG(y+1)
constant.  ``ln_gamma_approx`` evaluates a closed-form Stirling
variant based on ``z*sinh(1/z)``; nothing in countreg calls it, and it is
kept as a public cross-check utility with a documented error bound (see its
docstring).  ``ln_gamma_ratio`` evaluates
``log Gamma(a+b) - log Gamma(a)`` for integer ``b`` as a sum of logarithms,
which avoids the gamma function entirely.

All functions accept floats or numpy arrays and are pure.
"""

from __future__ import annotations

import numpy as np

__all__ = ["ln_gamma", "ln_gamma_approx", "digamma", "ln_gamma_ratio"]

# Lanczos coefficients for g = 607/128, n = 15 (Godfrey's set); relative
# accuracy ~1e-15 over the positive real axis.
_LANCZOS_G = 607.0 / 128.0
_LANCZOS_COEF = np.array(
    [
        0.99999999999999709182,
        57.156235665862923517,
        -59.597960355475491248,
        14.136097974741747174,
        -0.49191381609762019978,
        0.33994649984811888699e-4,
        0.46523628927048575665e-4,
        -0.98374475304879564677e-4,
        0.15808870322491248884e-3,
        -0.21026444172410488319e-3,
        0.21743961811521264320e-3,
        -0.16431810653676389022e-3,
        0.84418223983852743293e-4,
        -0.26190838401581408670e-4,
        0.36899182659531622704e-5,
    ]
)

_HALF_LOG_TWO_PI = 0.5 * np.log(2.0 * np.pi)


def _validate_positive(z, name):
    arr = np.asarray(z, dtype=float)
    if arr.size and (not np.all(np.isfinite(arr)) or np.any(arr <= 0.0)):
        raise ValueError(f"{name} requires a finite, strictly positive argument")
    return arr


def _as_input_shape(values, template):
    if np.isscalar(template) or np.asarray(template).ndim == 0:
        return float(values)
    return values


def ln_gamma(z):
    """log Gamma(z) for z > 0 via the Lanczos series.

    Accurate to ~1e-14 relative over [0.5, 1e6]; exact routine used by the
    likelihoods.  Raises ``ValueError`` on nonpositive or non-finite input.
    """
    arr = _validate_positive(z, "ln_gamma")
    series = np.full(arr.shape, _LANCZOS_COEF[0])
    for k in range(1, len(_LANCZOS_COEF)):
        series = series + _LANCZOS_COEF[k] / (arr + (k - 1))
    t = arr + _LANCZOS_G - 0.5
    result = _HALF_LOG_TWO_PI + (arr - 0.5) * np.log(t) - t + np.log(series)
    return _as_input_shape(result, z)


def ln_gamma_approx(z):
    """Stirling-type closed form with the ``z*sinh(1/z)`` correction term.

    Evaluates ``log(2*pi)/2 + (z - 1/2) log z - z + z/2 * log(z sinh(1/z))``
    exactly as written.  The true error of this expression decays like
    ``1/(1620 z^5)``: ~3.4e-4 at z=1 and ~6.1e-9 at z=10.
    """
    arr = _validate_positive(z, "ln_gamma_approx")
    result = (
        _HALF_LOG_TWO_PI
        + (arr - 0.5) * np.log(arr)
        - arr
        + 0.5 * arr * np.log(arr * np.sinh(1.0 / arr))
    )
    return _as_input_shape(result, z)


# Asymptotic expansion coefficients for digamma: psi(x) ~ log x - 1/(2x)
# - sum B_{2k} / (2k x^{2k}); terms through x^{-14}.
_PSI_ASYMPTOTIC = np.array(
    [
        1.0 / 12.0,
        -1.0 / 120.0,
        1.0 / 252.0,
        -1.0 / 240.0,
        1.0 / 132.0,
        -691.0 / 32760.0,
        1.0 / 12.0,
    ]
)

_PSI_SHIFT = 10.0


def digamma(z):
    """psi(z) = d/dz log Gamma(z) for z > 0.

    Upward recurrence lifts the argument above 10, then the Bernoulli
    asymptotic series applies; absolute error below 1e-12 on [1e-3, 1e6].
    """
    arr = np.atleast_1d(_validate_positive(z, "digamma")).copy()
    acc = np.zeros_like(arr)
    # psi(x) = psi(x + 1) - 1/x, applied until every argument exceeds the
    # series threshold.
    while True:
        small = arr < _PSI_SHIFT
        if not small.any():
            break
        acc[small] -= 1.0 / arr[small]
        arr[small] += 1.0
    inv2 = 1.0 / (arr * arr)
    tail = np.zeros_like(arr)
    for coef in _PSI_ASYMPTOTIC[::-1]:
        tail = (tail + coef) * inv2
    result = acc + np.log(arr) - 0.5 / arr - tail
    if np.isscalar(z) or np.asarray(z).ndim == 0:
        return float(result[0])
    return result.reshape(np.asarray(z).shape)


def ln_gamma_ratio(a, b):
    """log Gamma(a+b) - log Gamma(a) for a > 0 and integer b >= 0.

    Uses the product identity Gamma(a+b)/Gamma(a) = prod_{j=1..b} (a+j-1),
    so no gamma evaluation is needed.  b = 0 returns exactly 0.
    """
    a = float(a)
    if not np.isfinite(a) or a <= 0.0:
        raise ValueError("ln_gamma_ratio requires a finite, strictly positive a")
    if b != int(b) or b < 0:
        raise ValueError("ln_gamma_ratio requires a nonnegative integer b")
    b = int(b)
    if b == 0:
        return 0.0
    return float(np.log(a + np.arange(b, dtype=float)).sum())


def ln_gamma_ratio_grid(a, b_max):
    """Vector of ln_gamma_ratio(a, b) for b = 0..b_max via one cumulative sum.

    Shares the exact partial sums of :func:`ln_gamma_ratio`, so the two
    agree to rounding; used for pmf evaluation over contiguous supports.
    """
    a = float(a)
    if not np.isfinite(a) or a <= 0.0:
        raise ValueError("ln_gamma_ratio_grid requires a finite, strictly positive a")
    b_max = int(b_max)
    out = np.zeros(b_max + 1)
    if b_max > 0:
        out[1:] = np.cumsum(np.log(a + np.arange(b_max, dtype=float)))
    return out
