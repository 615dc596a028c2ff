"""Residual diagnostics and fitted-frequency tables.

Pearson residuals are (y - mu)/sigma under the fitted model's own mean and
variance; their squared sum is the Pearson statistic PS, which for a
well-specified model lands near the residual degrees of freedom
n - (number of free parameters).  NB deviance residuals are the signed
square roots of each observation's contribution to twice the
saturated-minus-fitted log-likelihood gap; both the signed sum (D) and the
conventional sum of squares are reported, each divided by the degrees of
freedom, because both conventions circulate.

All three evaluate the model through one step, ``_rows``: it checks the
designs and the response counts against the fitted model and evaluates the
links.  Hurdle means and variances come from the closed-form moments in
:mod:`countreg.distributions` for all rows at once, tested against truncated
summation of the pmf; the printed bracket form of the variance is never used.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distributions import _hnb_moments, _validate_counts
from .fit import FittedModel
from .likelihood import link_hurdle, link_mean

__all__ = ["ResidualSet", "pearson", "deviance_residuals", "frequency_table"]


@dataclass(frozen=True)
class ResidualSet:
    mu: np.ndarray
    sigma2: np.ndarray | None
    pearson: np.ndarray | None
    deviance: np.ndarray | None
    ps: float | None
    deviance_sum_signed: float | None
    deviance_sum_squared: float | None
    df: int


def _rows(model: FittedModel, X, y, X_h, omitted, ones=False):
    """(y, theta, r, phi) of ``model`` on the given rows; phi is None unless HNB.

    The one check, in order: ``X`` against (n, k_mean), ``y``'s length, its
    counts, then, for HNB only, ``X_h`` against (n, k_hurdle).  A None design
    named in ``omitted`` is refused with its message, or, if ``ones`` is set
    and its equation has one column, is a column of ones."""

    def design(given, name, k):
        if given is None and name in omitted:
            if not (ones and k == 1):
                raise ValueError(omitted[name])
            return np.ones((model.n, k))
        return np.asarray(given, dtype=float)

    X = design(X, "X", model.k_mean)
    if X.ndim != 2 or X.shape != (model.n, model.k_mean):
        raise ValueError(
            f"design shape {X.shape} does not match the fitted model "
            f"({model.n} x {model.k_mean})"
        )
    if np.shape(y) != (model.n,):
        raise ValueError("response length does not match the fitted model")
    y = _validate_counts(y)
    theta = link_mean(X, model.params_unconstrained[: model.k_mean])
    phi = None
    if model.family == "HNB":
        X_h = design(X_h, "X_h", model.k_hurdle)
        if X_h.shape != (model.n, model.k_hurdle):
            raise ValueError("hurdle design shape does not match the fitted model")
        delta = np.array([model.estimates[name] for name in model.hurdle_names])
        phi = link_hurdle(X_h, delta)
    return y, theta, model.estimates.get("r"), phi


def pearson(model: FittedModel, X, y, X_h=None) -> ResidualSet:
    """Pearson residuals and the PS statistic under the fitted model."""
    y, theta, r, phi = _rows(model, X, y, X_h, {"X_h": "HNB residuals need the hurdle design matrix"})
    if model.family == "P":
        mu, sigma2 = theta, theta.copy()
    elif model.family == "NB":
        mu, sigma2 = theta, theta + r * theta**2
    elif model.family == "HNB":
        mu, sigma2 = _hnb_moments(theta, r, phi)
    else:
        raise ValueError(f"unsupported family {model.family!r}")
    residuals = (y - mu) / np.sqrt(sigma2)
    return ResidualSet(
        mu=mu,
        sigma2=sigma2,
        pearson=residuals,
        deviance=None,
        ps=float(np.sum(residuals**2)),
        deviance_sum_signed=None,
        deviance_sum_squared=None,
        df=model.n - model.n_params,
    )


def deviance_residuals(model: FittedModel, X, y) -> ResidualSet:
    """Signed square-root deviance contributions for an NB fit.

    Positive counts contribute
    2*[y log(y/theta) - (y + 1/r) log((1+r y)/(1+r theta))]; zero counts
    contribute 2/r * log(1 + r theta).  The hurdle model is not a GLM, so no
    deviance is defined for it here.
    """
    if model.family != "NB":
        raise ValueError("deviance residuals are defined for the NB family only")
    y, theta, r, _ = _rows(model, X, y, None, {})
    a = 1.0 / r
    d2 = np.empty(model.n)
    zero = y == 0
    d2[zero] = 2.0 * a * np.log1p(r * theta[zero])
    yp = y[~zero]
    tp = theta[~zero]
    d2[~zero] = 2.0 * (
        yp * np.log(yp / tp) - (yp + a) * (np.log1p(r * yp) - np.log1p(r * tp))
    )
    d2 = np.maximum(d2, 0.0)
    residuals = np.sign(y - theta) * np.sqrt(d2)
    return ResidualSet(
        mu=theta,
        sigma2=None,
        pearson=None,
        deviance=residuals,
        ps=None,
        deviance_sum_signed=float(np.sum(residuals)),
        deviance_sum_squared=float(np.sum(d2)),
        df=model.n - model.n_params,
    )


def _pmf_columns(model, theta, phi, r, y_max):
    """P(Y = v | x_i) for every row, for v = 0..y_max in turn.

    The per-row logarithms are computed once, not once per value.
    """
    from .special import ln_gamma, ln_gamma_ratio

    if model.family == "P":
        log_theta = np.log(theta)
        for value in range(y_max + 1):
            v = float(value)
            yield np.exp(-theta + v * log_theta - ln_gamma(v + 1.0))
        return
    a = 1.0 / r
    log1prt = np.log1p(r * theta)
    log_rt = np.log(r * theta)
    if model.family == "HNB":
        positive = 1.0 - phi
        p_positive = -np.expm1(-a * log1prt)
    for value in range(y_max + 1):
        if model.family == "HNB" and value == 0:
            yield phi
            continue
        v = float(value)
        log_nb = (
            ln_gamma_ratio(a, value)
            - ln_gamma_ratio(1.0, value)
            - (a + v) * log1prt
            + v * log_rt
        )
        if model.family == "NB":
            yield np.exp(log_nb)
        else:
            yield positive * np.exp(log_nb) / p_positive


def frequency_table(y, model: FittedModel, y_max: int, X=None, X_h=None):
    """Empirical and fitted frequencies for counts 0..y_max plus overflow.

    The fitted entry for value v is the sum over rows of P(Y=v | x_i); the
    final entry collects everything above y_max, so the fitted column sums
    to n up to truncation error.  A model with only an intercept in its mean
    (hurdle) equation may omit ``X`` (``X_h``).
    """
    omitted = {
        "X": "frequency tables of a model with mean covariates need X",
        "X_h": "frequency tables of an HNB model with hurdle covariates need X_h",
    }
    y, theta, r, phi = _rows(model, X, y, X_h, omitted, ones=True)
    empirical = np.bincount(np.minimum(y, y_max + 1), minlength=y_max + 2)
    fitted = np.zeros(y_max + 2)
    for value, pmf in enumerate(_pmf_columns(model, theta, phi, r, y_max)):
        fitted[value] = float(np.sum(pmf))
    fitted[y_max + 1] = model.n - float(np.sum(fitted[: y_max + 1]))
    return empirical, fitted
