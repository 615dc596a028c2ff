"""Poisson, negative binomial, and hurdle negative binomial distributions.

The negative binomial is parameterized by its mean ``theta`` and an index of
dispersion ``r`` (variance ``theta + r*theta**2``); ``r -> 0`` recovers the
Poisson and ``r = 1`` the geometric distribution.  The hurdle variant places
probability ``phi`` on zero and renormalizes the positive negative-binomial
mass over {1, 2, ...}.  ``_check_params`` holds the one rule, and its three
messages, for valid theta, r and phi; ``NbParams``, ``HurdleParams`` and
``_hnb_moments`` call it.

Log-pmfs are evaluated in log space by one private NB log-pmf
(``_nb_log_pmf``), the likelihood kernel's row term: lnG(1/r + y) - lnG(1/r)
+ y log r comes from the fitter's dispersion grid (``special._dispersion_sums``,
bounded memory for any count) and lnG(y+1) from ``ln_gamma``.  Residuals
take the hurdle mean and variance from the closed form
``E[Y^2] = (1-phi)(theta + (1+r)theta^2)/(1-p0)`` (Mullahy 1986),
evaluated for all rows at once.  Truncated summation of the pmf stays as the
oracle that the closed form is tested against (:func:`hnb_mean_var`); the
printed bracket form of the variance disagrees with both and is evaluated only
as an audited cross-check (see :func:`hnb_variance_bracket_form`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .special import _as_input_shape, _dispersion_sums, ln_gamma

__all__ = [
    "NbParams",
    "HurdleParams",
    "nb_log_pmf",
    "nb_zero_prob",
    "nb_mean_var",
    "hnb_log_pmf",
    "hnb_mean_var",
    "hnb_variance_bracket_form",
    "support_bound",
    "sample",
]

_TAIL_TOLERANCE = 1e-12
_THETA_MESSAGE = "theta must be finite and strictly positive"
_R_MESSAGE = "r must be finite and strictly positive"
_PHI_MESSAGE = "phi must lie in [0, 1]"


def _check_params(theta, r, phi=0.0):
    """Raise the message of the first of ``theta`` (each entry finite and > 0),
    ``r`` (finite and > 0) and ``phi`` (each entry in [0, 1]) that is invalid."""
    if not np.all(np.isfinite(theta) & (theta > 0.0)):
        raise ValueError(_THETA_MESSAGE)
    if not (np.isfinite(r) and r > 0.0):
        raise ValueError(_R_MESSAGE)
    if not np.all((phi >= 0.0) & (phi <= 1.0)):
        raise ValueError(_PHI_MESSAGE)


@dataclass(frozen=True)
class NbParams:
    """Negative binomial with mean ``theta`` and index of dispersion ``r``."""

    theta: float
    r: float

    def __post_init__(self):
        _check_params(self.theta, self.r)


@dataclass(frozen=True)
class HurdleParams:
    """Hurdle-at-zero negative binomial: mass ``phi`` at zero, NB above it."""

    nb: NbParams
    phi: float

    def __post_init__(self):
        _check_params(self.nb.theta, self.nb.r, self.phi)


def _bad_counts(values):
    """Mask of the entries that break the one count rule: a count is a
    nonnegative integer below 2**63, which int64 holds.  Integer arrays are
    compared as integers, not through float64 (2**63 - 1 rounds up there)."""
    values = np.asarray(values)
    if values.dtype.kind in "bi":
        return values < 0
    if values.dtype.kind == "u":
        return values >= np.uint64(2**63)
    values = values.astype(np.float64, copy=False)
    return ~((values >= 0.0) & (values < 2.0**63) & (np.floor(values) == values))


def _validate_counts(y, dtype=np.int64):
    """``y`` as ``dtype`` once ``_bad_counts`` passes it: the one count check of the package."""
    arr = np.asarray(y)
    if np.any(_bad_counts(arr)):
        raise ValueError("counts must be nonnegative integers")
    return arr.astype(dtype)


def _nb_log_pmf(counts, p: NbParams) -> np.ndarray:
    """log pmf at the int64 ``counts`` (any shape), term for term the
    likelihood kernel's row: s0 - (1/r + y) log1p(r theta) + y log theta -
    lnG(y+1), with s0 from the dispersion grid."""
    y = np.ravel(counts)
    s0 = _dispersion_sums(y, p.r)[0]
    y = y.astype(float)
    out = s0 - (1.0 / p.r + y) * np.log1p(p.r * p.theta) + y * np.log(p.theta) - ln_gamma(y + 1.0)
    return out.reshape(np.shape(counts))


def nb_log_pmf(y, p: NbParams):
    """Negative binomial log pmf at count(s) ``y``.

    Overflow-free: the Gamma(1/r + y)/Gamma(1/r) term is a sum of
    logarithms and the remaining factors stay in log space.
    """
    return _as_input_shape(_nb_log_pmf(_validate_counts(y), p), y)


def nb_zero_prob(p: NbParams) -> float:
    """P(Y = 0) = (1 + r*theta)^(-1/r), in (0, 1)."""
    return float(np.exp(-np.log1p(p.r * p.theta) / p.r))


def nb_mean_var(p: NbParams):
    """Mean and variance (theta, theta + r*theta^2); variance always exceeds the mean."""
    return p.theta, p.theta + p.r * p.theta**2


def hnb_log_pmf(y, h: HurdleParams):
    """Hurdle-NB log pmf: log phi at zero, renormalized NB above zero.

    ``phi = 1`` with positive ``y`` yields ``-inf`` (log of zero mass), not an
    error.
    """
    arr = _validate_counts(y)
    log_p0 = -np.log1p(h.nb.r * h.nb.theta) / h.nb.r
    with np.errstate(divide="ignore"):
        log_phi = np.log(h.phi)
        log_phibar = np.log1p(-h.phi)
        log_positive = log_phibar - np.log1p(-np.exp(log_p0)) + _nb_log_pmf(arr, h.nb)
    return _as_input_shape(np.where(arr == 0, log_phi, log_positive), y)


def support_bound(dist, tail: float = _TAIL_TOLERANCE) -> int:
    """Upper support point Y such that the pmf mass above Y is below ``tail``.

    Grows the candidate geometrically until a geometric-ratio bound on the
    remaining mass drops below ``tail``, capped at 10*(mean + 10*sd).
    """
    p = dist.nb if isinstance(dist, HurdleParams) else dist
    mean, var = nb_mean_var(p)
    sd = float(np.sqrt(var))
    cap = max(int(10.0 * (mean + 10.0 * sd)), 32)
    a = 1.0 / p.r
    q = p.r * p.theta / (1.0 + p.r * p.theta)
    bound = max(int(mean + 10.0 * sd), 16)
    while bound < cap:
        log_pmf_b = _nb_log_pmf(np.array([bound]), p)[0]
        rho = (a + bound) / (bound + 1.0) * q
        if rho < 1.0 and np.exp(log_pmf_b) * rho / (1.0 - rho) < tail:
            return bound
        bound *= 2
    return cap


def _truncated_moments(h: HurdleParams, tail: float = 1e-16):
    """(total mass, E[Y], E[Y^2]) of the hurdle pmf by adaptive summation.

    The pmf tail threshold is far below 1e-12 so that the y^2-weighted tail
    stays negligible in the second moment.
    """
    y_max = support_bound(h.nb, tail=tail)
    y = np.arange(y_max + 1, dtype=float)
    pmf = np.exp(hnb_log_pmf(np.arange(y_max + 1), h))
    total = float(pmf.sum())
    m1 = float((y * pmf).sum())
    m2 = float((y * y * pmf).sum())
    return total, m1, m2


def _hnb_moments(theta, r, phi):
    """Hurdle-NB mean and variance for arrays of ``theta`` and ``phi``.

    ``mu = (1-phi)*theta/(1-p0)`` and, from the closed second moment,
    ``sigma2 = mu*(1 + r*theta + theta - mu)``; entries with ``phi = 1``
    therefore give exactly (0, 0).  Entries are checked by ``_check_params``,
    as ``NbParams`` and ``HurdleParams`` are.
    """
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    _check_params(theta, r, phi)
    p0 = np.exp(-np.log1p(r * theta) / r)
    mu = (1.0 - phi) * theta / (1.0 - p0)
    return mu, mu * (1.0 + r * theta + theta - mu)


def hnb_mean_var(h: HurdleParams):
    """Mean and variance of the hurdle distribution, the variance by summation.

    The mean is the closed form (1-phi)*theta / (1-p0).  The variance sums
    the pmf's first two moments over its support (tail below 1e-16); it is
    the reference against which the closed form of :func:`_hnb_moments`,
    used for residuals, is tested.
    """
    if h.phi >= 1.0:
        return 0.0, 0.0
    mean, _ = _hnb_moments(h.nb.theta, h.nb.r, h.phi)
    _, m1, m2 = _truncated_moments(h)
    return float(mean), m2 - m1 * m1


def hnb_variance_bracket_form(h: HurdleParams) -> float:
    """Bracket closed form of the hurdle variance, evaluated as printed.

    mu * { phi + (1-p0) + (mu/(1-phi)) * [ r*(1-p0) + phi - p0 ] }.

    Kept only for cross-checks: it disagrees with the moments of the pmf
    (the test suite archives the comparison at reports/hnb_variance_audit.json),
    so it is never used in residual or likelihood computations.
    """
    p0 = nb_zero_prob(h.nb)
    pbar0 = 1.0 - p0
    phibar = 1.0 - h.phi
    mu = phibar * h.nb.theta / pbar0
    return mu * (h.phi + pbar0 + (mu / phibar) * (h.nb.r * pbar0 + h.phi - p0))


def sample(params, n: int, seed) -> np.ndarray:
    """Draw ``n`` counts; reproducible for a given ``seed``.

    NB draws use the gamma-Poisson mixture (gamma shape 1/r, scale r*theta).
    Hurdle draws place a zero with probability phi and otherwise a
    zero-truncated NB draw.
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    if isinstance(params, NbParams):
        return _sample_nb(rng, np.full(n, params.theta), params.r)
    if isinstance(params, HurdleParams):
        return _sample_hurdle(
            rng,
            np.full(n, params.nb.theta),
            params.nb.r,
            np.full(n, params.phi),
        )
    raise TypeError("params must be NbParams or HurdleParams")


def _sample_nb(rng, theta, r) -> np.ndarray:
    lam = rng.gamma(shape=1.0 / r, scale=r * theta)
    return rng.poisson(lam).astype(np.int64)


def _sample_truncated_nb(rng, theta, r) -> np.ndarray:
    out = _sample_nb(rng, theta, r)
    pending = np.flatnonzero(out == 0)
    while pending.size:
        out[pending] = _sample_nb(rng, theta[pending], r)
        pending = pending[out[pending] == 0]
    return out


def _sample_hurdle(rng, theta, r, phi) -> np.ndarray:
    out = np.zeros(theta.shape[0], dtype=np.int64)
    positive = rng.random(theta.shape[0]) >= phi
    if positive.any():
        out[positive] = _sample_truncated_nb(rng, theta[positive], r)
    return out
