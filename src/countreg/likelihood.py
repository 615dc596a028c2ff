"""Regression log-likelihoods, analytic scores and Hessians, and link functions.

The mean equation uses a log link, theta_i = exp(x_i' beta); the hurdle
probability uses a logit link, phi_i = logistic(x_i' delta).  The dispersion
parameter is carried as log(r) so every parameter is unconstrained.

The negative binomial log-likelihood per observation is

    lnG(1/r + y) - lnG(1/r) - (1/r + y) log(1 + r theta) + y (log r + log theta)

plus the constant -lnG(y+1) when the full (cross-family comparable) value is
requested.  The gamma terms are evaluated as the cancellation-free sum
lnG(1/r + y) - lnG(1/r) + y log r = sum_{j<y} log1p(j r) (Lawless 1987);
that sum and its first two log r derivatives share one cumulative-sum grid,
``special._dispersion_sums``, the same grid the pmfs and the frequency
table read, so the NB and zero-truncated NB log-likelihood, score and exact
Hessian in (beta, log r) need no special functions beyond the lnG(y+1)
constant.

Each likelihood block has exactly one private kernel, which returns its row
terms, score and a zero-argument Hessian callable from one linear predictor:
``_poisson_kernel`` (y log theta - theta), ``_logit_kernel`` (the hurdle's
binary part, z eta - log(1 + e^eta)) and ``_nb_kernel`` (NB or
zero-truncated NB, one grid per call).  The fitter and the public
likelihoods call the same kernels, so a fit's log-likelihood is the public
one at its estimates, bit for bit.  Likelihoods, links, fits and diagnostics
share one check of a design, ``_check_design``, and one of a response,
``_check_counts``, and call each for every part they read, None included;
the likelihoods and links check that their coefficients are vectors
through ``_length``.
The hurdle log-likelihood separates into the binary part in delta and the
zero-truncated part in (beta, log r); the two blocks maximize independently.

Observation sums run in natural (row) order, so repeated evaluation of the
same inputs is bit-stable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distributions import _validate_counts
from .special import _dispersion_sums, ln_gamma

__all__ = [
    "NbRegParams",
    "HnbRegParams",
    "link_mean",
    "link_hurdle",
    "poisson_loglik",
    "poisson_score",
    "nb_loglik",
    "nb_score",
    "hnb_loglik",
    "hnb_loglik_parts",
    "hnb_score",
]

LINEAR_PREDICTOR_BOUND = 700.0


@dataclass(frozen=True)
class NbRegParams:
    """Mean-equation coefficients plus unconstrained log dispersion."""

    beta: np.ndarray
    log_r: float

    def __post_init__(self):
        if not np.all(np.isfinite(self.beta)) or not np.isfinite(self.log_r):
            raise ValueError("parameters must be finite")

    @property
    def r(self) -> float:
        return float(np.exp(self.log_r))


@dataclass(frozen=True)
class HnbRegParams:
    """Truncated-part parameters plus hurdle-equation coefficients."""

    nb: NbRegParams
    delta: np.ndarray

    def __post_init__(self):
        if not np.all(np.isfinite(self.delta)):
            raise ValueError("parameters must be finite")


def _check_design(M, rows=None, cols=None, labels=None, hurdle=False):
    """(M as a float array, its labels as a tuple) once M is 2-D with ``rows``
    rows and ``cols`` columns where given, has a label per column and only
    finite cells; ``hurdle`` names it the hurdle design.  Labels None default
    to x0, x1, ..., with x0 named intercept if it is 1 in every finite cell."""
    what, name = ("hurdle design matrix", "hurdle_labels") if hurdle else ("design matrix", "labels")
    M = np.asarray(M, dtype=float)
    shape = M.shape if M.ndim == 2 else ("n", "k")
    expected = (shape[0] if rows is None else rows, shape[1] if cols is None else cols)
    if M.shape != expected:
        raise ValueError(f"{what} has shape {M.shape}, not ({expected[0]}, {expected[1]})")
    cols = M.shape[1]
    if labels is None:
        ones = np.all(M[:, :1][np.isfinite(M[:, :1])] == 1.0)
        labels = tuple("intercept" if j == 0 and ones else f"x{j}" for j in range(cols))
    elif len(labels) != cols:
        raise ValueError(f"{name} length does not match the {what} ({len(labels)} labels, {cols} columns)")
    if not np.isfinite(M).all():
        i, j = np.argwhere(~np.isfinite(M))[0]
        raise ValueError(f"{what} has non-finite value {M[i, j]} at row {i}, column {labels[j]!r}")
    return M, tuple(labels)


def _check_counts(y, n, dtype=np.int64):
    """``y`` as ``dtype`` counts once it has shape (n,) and holds counts."""
    if np.shape(y) != (n,):
        raise ValueError(f"response has shape {np.shape(y)}, not ({n},)")
    return _validate_counts(y, dtype)


def _mean_rows(beta, X, y):
    """(X, float y) of a mean-equation likelihood, checked against ``beta``."""
    X = _check_design(X, cols=_length(beta, X))[0]
    return X, _check_counts(y, X.shape[0], float)


def _hurdle_rows(params, X, X_h, y):
    """(X, X_h, float y) of a hurdle likelihood: both coefficient vectors,
    then X, y and X_h, checked against ``params``."""
    k, k_h = _length(params.nb.beta, X), _length(params.delta, X_h, "hurdle coefficients")
    X = _check_design(X, cols=k)[0]
    y = _check_counts(y, X.shape[0], float)
    return X, _check_design(X_h, X.shape[0], k_h, hurdle=True)[0], y


def _length(coefficients, design, what="coefficients"):
    """The length of a coefficient vector, or ValueError naming its shape when
    it is not one; the expected length is the design's column count."""
    shape = np.shape(coefficients)
    if len(shape) != 1:
        k = np.shape(design)[1] if np.ndim(design) == 2 else "k"
        raise ValueError(f"{what} have shape {shape}, not ({k},)")
    return shape[0]


def _clamped_eta(X, beta):
    return np.clip(X @ np.asarray(beta, dtype=float), -LINEAR_PREDICTOR_BOUND, LINEAR_PREDICTOR_BOUND)


def _logistic(eta):
    return np.exp(-np.logaddexp(0.0, -eta))


def _theta(X, beta):
    return np.exp(_clamped_eta(X, beta))


def _phi(X_h, delta):
    return _logistic(_clamped_eta(X_h, delta))


def link_mean(X, beta) -> np.ndarray:
    """theta_i = exp(x_i' beta); linear predictor clamped to +-700."""
    return _theta(_check_design(X, cols=_length(beta, X))[0], beta)


def link_hurdle(X_h, delta) -> np.ndarray:
    """phi_i = logistic(x_i' delta), kept strictly inside (0, 1)."""
    return _phi(_check_design(X_h, cols=_length(delta, X_h, "hurdle coefficients"), hurdle=True)[0], delta)


def _poisson_kernel(beta, X, y):
    """(row terms y log theta - theta, score, Hessian callable) of the Poisson
    log-likelihood without its -lnG(y+1) constant.  Inputs are not checked."""
    theta = _theta(X, beta)
    return y * np.log(theta) - theta, X.T @ (y - theta), lambda: -(X.T @ (X * theta[:, None]))


def _logit_kernel(delta, X_h, z):
    """(row terms, score, Hessian callable) of the logistic log-likelihood of
    the 0/1 floats ``z`` with P(z = 1) = phi; the terms are z log phi +
    (1 - z) log(1 - phi) = z eta - log(1 + e^eta).  Inputs are not checked."""
    eta = _clamped_eta(X_h, delta)
    # One logaddexp, t = log(1 + e^-|eta|), gives numpy's own values of both
    # log(1 + e^eta) = max(eta, 0) + t and log(1 + e^-eta) = max(-eta, 0) + t,
    # bit for bit, so phi = exp(min(eta, 0) - t) is _logistic(eta).
    t = np.abs(eta)
    np.logaddexp(0.0, np.negative(t, out=t), out=t)
    phi = np.minimum(eta, 0.0)
    np.exp(np.subtract(phi, t, out=phi), out=phi)
    terms = np.maximum(eta, 0.0)
    terms += t
    np.subtract(np.multiply(z, eta, out=eta), terms, out=terms)

    def hessian():
        return -(X_h.T @ (X_h * (phi * (1.0 - phi))[:, None]))

    return terms, X_h.T @ (z - phi), hessian


def poisson_loglik(beta, X, y, full: bool = True) -> float:
    """Poisson log-likelihood under the log link."""
    X, y = _mean_rows(beta, X, y)
    value = float(np.sum(_poisson_kernel(beta, X, y)[0]))
    if full:
        value -= float(np.sum(ln_gamma(y + 1.0)))
    return value


def poisson_score(beta, X, y) -> np.ndarray:
    X, y = _mean_rows(beta, X, y)
    return _poisson_kernel(beta, X, y)[1]


def _nb_kernel(beta, log_r, X, y, truncated, lgy1=None):
    """(row log-likelihood terms, score, Hessian) of the NB or, with
    ``truncated``, the zero-truncated NB part (rows must have y > 0) in
    (beta, log r), from one linear predictor and one dispersion grid.

    ``lgy1`` is the lnG(y+1) row subtracted from the terms (None drops the
    constant).  The Hessian is a zero-argument callable over arrays computed
    here, so it costs nothing until called.  Inputs are not checked.
    Truncation adds g = -log(1 - p0) with lam = log p0 = -log1p(r theta)/r,
    so g' = rho lam' and g'' = rho (1 + rho) lam'^2 + rho lam'' for
    rho = p0/(1 - p0).
    """
    r = float(np.exp(log_r))
    eta = _clamped_eta(X, beta)
    theta = np.exp(eta)
    # Each row quantity is computed once, with the bits of writing it out.
    rt = r * theta
    denom = 1.0 + rt
    log1prt = np.log1p(rt)
    s0, s1, s2 = _dispersion_sums(y, r)
    terms = s0 - (1.0 / r + y) * log1prt + y * eta
    if lgy1 is not None:
        terms -= lgy1
    rho = 0.0
    if truncated:
        log_p0 = -log1prt / r
        p0 = np.exp(log_p0)
        terms -= np.log1p(-p0)
        rho = p0 / -np.expm1(log_p0)
    lam_eta = -theta / denom
    lam_logr = log1prt / r + lam_eta
    d_eta = (y - theta) / denom + rho * lam_eta
    d_logr = s1 + lam_logr - r * y * theta / denom + rho * lam_logr
    k = X.shape[1]
    score = np.empty(k + 1)
    score[:k] = X.T @ d_eta
    score[k] = np.sum(d_logr)

    def hessian():
        # The n x k product first, while the fewest row arrays are alive.
        hess = np.empty((k + 1, k + 1))
        kappa = rho * (1.0 + rho)
        denom2 = denom**2
        d_eta2 = -(1.0 + r * y + rho) * theta / denom2 + kappa * lam_eta**2
        hess[:k, :k] = X.T @ (X * d_eta2[:, None])
        lam_eta_logr = r * theta**2 / denom2
        nb_eta_logr = r * theta * (theta - y) / denom2
        d_eta_logr = nb_eta_logr + kappa * lam_eta * lam_logr + rho * lam_eta_logr
        hess[:k, k] = hess[k, :k] = X.T @ d_eta_logr
        d_logr2 = s2 - lam_logr + nb_eta_logr + kappa * lam_logr**2 + rho * (lam_eta_logr - lam_logr)
        hess[k, k] = np.sum(d_logr2)
        return hess

    return terms, score, hessian


def nb_loglik(params: NbRegParams, X, y, full: bool = True) -> float:
    """Negative binomial regression log-likelihood.

    ``full=True`` includes the -sum lnGamma(y+1) constant so values are
    comparable across model families (needed for AIC); ``full=False`` drops
    it.
    """
    X, y = _mean_rows(params.beta, X, y)
    lgy1 = ln_gamma(y + 1.0) if full else None
    return float(np.sum(_nb_kernel(params.beta, params.log_r, X, y, False, lgy1)[0]))


def nb_score(params: NbRegParams, X, y) -> np.ndarray:
    """Analytic gradient of the NB log-likelihood in (beta, log r)."""
    X, y = _mean_rows(params.beta, X, y)
    return _nb_kernel(params.beta, params.log_r, X, y, False)[1]


def _truncated_nb_loglik_terms(params: NbRegParams, X, y, full):
    """Per-observation zero-truncated NB terms (rows must have y > 0)."""
    lgy1 = ln_gamma(y + 1.0) if full else None
    return _nb_kernel(params.beta, params.log_r, X, y, True, lgy1)[0]


def hnb_loglik_parts(params: HnbRegParams, X, X_h, y, full: bool = True):
    """(binary part, zero-truncated part) of the hurdle log-likelihood.

    The binary part depends only on delta; the truncated part only on
    (beta, log r).  Their sum is the joint log-likelihood.
    """
    X, X_h, y = _hurdle_rows(params, X, X_h, y)
    zero = y == 0
    truncated = 0.0
    if not zero.all():
        truncated = float(np.sum(_truncated_nb_loglik_terms(params.nb, X[~zero], y[~zero], full)))
    return float(np.sum(_logit_kernel(params.delta, X_h, zero.astype(float))[0])), truncated


def hnb_loglik(params: HnbRegParams, X, X_h, y, full: bool = True) -> float:
    binary, truncated = hnb_loglik_parts(params, X, X_h, y, full=full)
    return binary + truncated


def _truncated_nb_score(params: NbRegParams, X, y) -> np.ndarray:
    """(beta, log r) score of the zero-truncated NB part; rows must have y > 0."""
    return _nb_kernel(params.beta, params.log_r, X, y, True)[1]


def hnb_score(params: HnbRegParams, X, X_h, y) -> np.ndarray:
    """Block gradient ordered (beta, log r, delta).

    The delta block depends only on the zero/positive pattern; the
    (beta, log r) block only on the positive-count rows.
    """
    X, X_h, y = _hurdle_rows(params, X, X_h, y)
    zero = y == 0
    nb_block = np.zeros(params.nb.beta.shape[0] + 1)
    if not zero.all():
        nb_block = _truncated_nb_score(params.nb, X[~zero], y[~zero])
    return np.concatenate([nb_block, _logit_kernel(params.delta, X_h, zero.astype(float))[1]])
