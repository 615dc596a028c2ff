"""Special functions used by the count-model likelihoods and pmfs.

``ln_gamma`` (Lanczos) and ``digamma`` (recurrence plus asymptotic series) are
the exact routines; the likelihoods and pmfs use ``ln_gamma`` for the
lnG(y+1) constant.  ``ln_gamma_approx`` evaluates a closed-form Stirling
variant based on ``z*sinh(1/z)``; nothing in countreg calls it, and it is
kept as a public cross-check utility with a documented error bound (see its
docstring).

Every lnG(1/r + y) - lnG(1/r) in the package comes from one grid,
``_dispersion_sums``: per-count sums over j < y of log1p(j r) (Lawless
1987) and its first two log r derivatives, one cumulative sum over
0..max(y) built in chunks of ``_GRID_CHUNK`` values.  The NB likelihood
kernel, the NB and hurdle-NB pmfs, the frequency table and the public
``ln_gamma_ratio`` all read it.

All public functions accept floats or numpy arrays and are pure; like the
pmfs, they give a float for a scalar by one rule, ``_as_input_shape``.
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
    arr = _validate_positive(z, "digamma").copy()
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
    return _as_input_shape(acc + np.log(arr) - 0.5 / arr - tail, z)


# The dispersion grid is built in chunks of this many values of j, so that
# its memory stays bounded whatever the largest count.
_GRID_CHUNK = 2**20


def _dispersion_grid(r, lo, hi, start):
    """The three cumulative sums of ``_dispersion_sums`` at m = lo..hi,
    continuing from their values ``start`` at m = lo."""
    jr = r * np.arange(lo, hi, dtype=float)
    grids = np.empty((3, hi - lo + 1))
    grids[:, 0] = start
    np.log1p(jr, out=grids[0, 1:])
    np.divide(jr, 1.0 + jr, out=grids[1, 1:])
    np.divide(grids[1, 1:], 1.0 + jr, out=grids[2, 1:])
    return np.cumsum(grids, axis=1, out=grids)


def _dispersion_sums(y, r):
    """Per-row sums over j < y of log1p(j r), j r/(1 + j r) and j r/(1 + j r)^2.

    The first equals lnG(1/r + y) - lnG(1/r) + y log r (Lawless 1987); the
    other two are its first and second derivatives in log r.  Each is one
    cumulative sum over j = 0..max(y) - 1 gathered at y, and no term cancels
    at any r.  One loop sums the counts in chunks of ``_GRID_CHUNK`` (an
    all-zero ``y`` in one), each from the last sums of the chunk before; a
    cumulative sum adds in order, so the sums are bit for bit one pass's.
    """
    counts = y.astype(np.int64)
    top = int(counts.max(initial=0))
    sums = tuple(np.empty(counts.size) for _ in range(3))
    start = 0.0
    for lo in range(0, max(top, 1), _GRID_CHUNK):
        hi = min(lo + _GRID_CHUNK, top)
        grids = _dispersion_grid(r, lo, hi, start)
        rows = (lo <= counts) & (counts <= hi)
        at = counts[rows] - lo
        for total, grid in zip(sums, grids):
            total[rows] = grid[at]
        start = grids[:, -1].copy()
    return sums


def ln_gamma_ratio(a, b):
    """log Gamma(a+b) - log Gamma(a) for a > 0 and integer b >= 0.

    Evaluated as b log a + s0, where s0 = sum_{j<b} log1p(j/a) is the
    dispersion sum at r = 1/a, so no gamma evaluation is needed and memory
    stays bounded for any b.  b = 0 returns exactly 0.
    """
    a = float(a)
    if not np.isfinite(a) or a <= 0.0:
        raise ValueError("ln_gamma_ratio requires a finite, strictly positive a")
    if b != int(b) or b < 0:
        raise ValueError("ln_gamma_ratio requires a nonnegative integer b")
    b = int(b)
    return float(b * np.log(a) + _dispersion_sums(np.array([b]), 1.0 / a)[0][0])
