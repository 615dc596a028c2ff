"""Wald inference, incidence-rate ratios, marginal effects, and AIC.

Coefficient tables use the normal reference distribution (two-sided p-values,
z = estimate / std. error) with significance stars at the 1%/5%/10% levels.
Incidence-rate ratios exponentiate coefficients; their standard errors come
from the first-order delta method and their confidence bounds are the
exponentiated coefficient bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .fit import FittedModel
from .likelihood import _check_design, _phi

__all__ = [
    "CoefficientReport",
    "IrrReport",
    "significance_stars",
    "wald_table",
    "irr",
    "marginal_effect_hurdle",
    "aic",
    "compare",
]


@dataclass(frozen=True)
class CoefficientReport:
    name: str
    estimate: float
    std_err: float
    z: float
    p_value: float
    ci_low: float
    ci_high: float
    stars: str


@dataclass(frozen=True)
class IrrReport:
    name: str
    irr: float
    irr_std_err: float
    ci_low: float
    ci_high: float


def significance_stars(p_value: float) -> str:
    """Stars at the 1% (***), 5% (**), and 10% (*) levels."""
    if p_value < 0.01:
        return "***"
    if p_value < 0.05:
        return "**"
    if p_value < 0.10:
        return "*"
    return ""


def _two_sided_p(z: float) -> float:
    if math.isnan(z):
        return math.nan
    return float(math.erfc(abs(z) / math.sqrt(2.0)))


def wald_table(model: FittedModel, level: float = 0.95) -> list[CoefficientReport]:
    """Per-parameter estimates, standard errors, z, p, CI, and stars.

    A zero standard error yields an infinite z (sign of the estimate) rather
    than an error; the CI then degenerates to the point estimate.
    """
    if not 0.0 < level < 1.0:
        raise ValueError("confidence level must be in (0, 1)")
    quantile = NormalDist().inv_cdf(0.5 + level / 2.0)
    se_by_name = model.std_errors()
    rows = []
    for name in model.names:
        estimate = float(model.estimates[name])
        se = float(se_by_name[name])
        if se > 0.0:
            z = estimate / se
        elif estimate == 0.0:
            z = math.nan
        else:
            z = math.copysign(math.inf, estimate)
        p_value = _two_sided_p(z)
        rows.append(
            CoefficientReport(
                name=name,
                estimate=estimate,
                std_err=se,
                z=z,
                p_value=p_value,
                ci_low=estimate - quantile * se,
                ci_high=estimate + quantile * se,
                stars=significance_stars(p_value) if not math.isnan(p_value) else "",
            )
        )
    return rows


def irr(reports: list[CoefficientReport], names) -> list[IrrReport]:
    """Incidence-rate ratios exp(estimate) for the named coefficients.

    The IRR standard error is exp(estimate) * std_err (delta method); the
    confidence bounds are the exponentiated coefficient bounds.
    """
    by_name = {row.name: row for row in reports}
    out = []
    for name in names:
        if name not in by_name:
            raise KeyError(f"no coefficient named {name!r}")
        row = by_name[name]
        rate = math.exp(row.estimate)
        out.append(
            IrrReport(
                name=name,
                irr=rate,
                irr_std_err=rate * row.std_err,
                ci_low=math.exp(row.ci_low),
                ci_high=math.exp(row.ci_high),
            )
        )
    return out


def marginal_effect_hurdle(model: FittedModel, covariate: str, at) -> float:
    """d phi / d x_j of the hurdle probability at the supplied row.

    Equals delta_j * phi * (1 - phi) with phi evaluated at the row.  The
    covariate is a hurdle parameter name, or else a hurdle column label.
    The row ``at`` has shape (k_h,) or (1, k_h); another shape is refused.
    """
    if model.family != "HNB":
        raise ValueError("marginal hurdle effects require an HNB model")
    zero_name = covariate if covariate in model.hurdle_names else f"zero:{covariate}"
    if zero_name not in model.hurdle_names:
        raise KeyError(f"{covariate!r} is not in the hurdle equation")
    delta = np.array([model.estimates[name] for name in model.hurdle_names])
    row = np.reshape(at, (1, -1)) if np.shape(at) == (model.k_hurdle,) else at
    row = _check_design(row, 1, model.k_hurdle, model.hurdle_labels, hurdle=True)[0]
    phi = float(_phi(row, delta)[0])
    coefficient = model.estimates[zero_name]
    return coefficient * phi * (1.0 - phi)


def aic(model: FittedModel) -> float:
    """Akaike information criterion -2*loglik + 2*(free parameter count)."""
    return -2.0 * model.loglik + 2.0 * model.n_params


@dataclass(frozen=True)
class ModelRank:
    family: str
    aic: float
    delta: float
    loglik: float
    n_params: int
    model: FittedModel


def compare(models: list[FittedModel]) -> list[ModelRank]:
    """Rank models by AIC ascending (stable for ties).

    All models must be fit to the same response; mismatched sample sizes are
    rejected.
    """
    if not models:
        raise ValueError("no models to compare")
    n = models[0].n
    if any(m.n != n for m in models):
        raise ValueError("models were fit on different sample sizes")
    scored = sorted(enumerate(models), key=lambda ix: (aic(ix[1]), ix[0]))
    best = aic(scored[0][1])
    return [
        ModelRank(
            family=m.family,
            aic=aic(m),
            delta=aic(m) - best,
            loglik=m.loglik,
            n_params=m.n_params,
            model=m,
        )
        for _, m in scored
    ]
