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
designs and the response against the fitted model through
``likelihood._check_design`` and ``_check_counts``, takes an omitted (None)
design as the column of ones the fit recorded or refuses it, and evaluates
each link once.  Hurdle means and variances come from the closed-form
moments in :mod:`countreg.distributions` for all rows at once, tested
against truncated summation of the pmf; the printed bracket form of the
variance is never used.

A frequency table reads the likelihood kernel's dispersion grid once, over
0..y_max, so its NB pmf at v = y_i is exp of the fitter's row term at y_i;
it costs O(n * y_max) time and O(n + y_max) memory.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .distributions import _hnb_moments
from .fit import FittedModel
from .likelihood import _check_counts, _check_design, _phi, _theta
from .special import _dispersion_sums, ln_gamma

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


def _rows(model: FittedModel, X, y, X_h=None):
    """(y, theta, r, phi) of ``model`` on the given rows; phi is None unless HNB.

    X, y and, for HNB only, X_h are checked against the model in that order.
    A design given as None is the column of ones the fit recorded in
    ``FittedModel.ones_designs``, and is refused if the fit recorded none."""

    def design(M, name, cols, labels, hurdle=False):
        if M is None:
            if name not in model.ones_designs:
                covariates = "an HNB model with hurdle" if hurdle else "a model with mean"
                raise ValueError(f"residuals and frequency tables of {covariates} covariates need {name}")
            M = np.ones((model.n, 1))
        return _check_design(M, model.n, cols, labels, hurdle)[0]

    hurdle = model.family == "HNB"
    X = design(X, "X", model.k_mean, model.mean_names)
    y = _check_counts(y, model.n)
    X_h = design(X_h, "X_h", model.k_hurdle, model.hurdle_labels, True) if hurdle else None
    theta = _theta(X, model.params_unconstrained[: model.k_mean])
    phi = _phi(X_h, model.params_unconstrained[-model.k_hurdle :]) if hurdle else None
    return y, theta, None if model.family == "P" else model.estimates["r"], phi


def pearson(model: FittedModel, X, y, X_h=None) -> ResidualSet:
    """Pearson residuals and the PS statistic under the fitted model."""
    y, theta, r, phi = _rows(model, X, y, X_h)
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
    y, theta, r, _ = _rows(model, X, y)
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

    lnG(v+1) and, for NB and HNB, the dispersion sum s0 come from one grid
    over 0..y_max; the per-row logarithms are computed once, not once per
    value.  The NB term is the likelihood kernel's row term at y = v.
    """
    values = np.arange(y_max + 1)
    log_fact = ln_gamma(values + 1.0)
    log_theta = np.log(theta)
    if model.family == "P":
        for value in values:
            yield np.exp(-theta + value * log_theta - log_fact[value])
        return
    s0 = _dispersion_sums(values, r)[0]
    a = 1.0 / r
    log1prt = np.log1p(r * theta)
    if model.family == "HNB":
        positive = 1.0 - phi
        p_positive = -np.expm1(-a * log1prt)
    for value in values:
        if model.family == "HNB" and value == 0:
            yield phi
            continue
        nb = np.exp(s0[value] - (a + value) * log1prt + value * log_theta - log_fact[value])
        yield nb if model.family == "NB" else positive * nb / p_positive


def frequency_table(y, model: FittedModel, y_max: int, X=None, X_h=None):
    """Empirical and fitted frequencies for counts 0..y_max plus overflow.

    The fitted entry for value v is the sum over rows of P(Y=v | x_i); the
    final entry collects everything above y_max, so the fitted column sums
    to n up to truncation error.
    """
    if isinstance(y_max, bool) or not isinstance(y_max, numbers.Integral) or y_max < 0:
        raise ValueError(f"y_max must be a nonnegative integer, not {y_max!r}")
    y, theta, r, phi = _rows(model, X, y, X_h)
    empirical = np.bincount(np.minimum(y, y_max + 1), minlength=y_max + 2)
    fitted = np.zeros(y_max + 2)
    for value, pmf in enumerate(_pmf_columns(model, theta, phi, r, y_max)):
        fitted[value] = float(np.sum(pmf))
    fitted[y_max + 1] = model.n - float(np.sum(fitted[: y_max + 1]))
    return empirical, fitted
