"""Count-data regression toolkit.

Poisson, negative binomial (mean/dispersion parameterization), and hurdle
negative binomial models: distributions, maximum-likelihood fitting, Wald
inference with incidence-rate ratios, residual diagnostics, and a simulation
harness with known truth.  See the demos/ directory for worked examples and
the ``countreg`` command line for file-based workflows.
"""

from .data import Column, Dataset, DesignMatrix, EncodingConfig, PredictorSpec, encode, read_csv
from .distributions import (
    HurdleParams,
    NbParams,
    hnb_log_pmf,
    hnb_mean_var,
    nb_log_pmf,
    nb_mean_var,
    nb_zero_prob,
    sample,
)
from .exceptions import ConfigError, CountregError, DataError, SeparationError
from .fit import FitOptions, FittedModel, fit_family, fit_hnb, fit_homogeneous, fit_nb, fit_poisson
from .inference import (
    CoefficientReport,
    IrrReport,
    aic,
    compare,
    irr,
    marginal_effect_hurdle,
    significance_stars,
    wald_table,
)
from .diagnostics import ResidualSet, deviance_residuals, frequency_table, pearson
from .likelihood import (
    HnbRegParams,
    NbRegParams,
    hnb_loglik,
    hnb_loglik_parts,
    hnb_score,
    link_hurdle,
    link_mean,
    nb_loglik,
    nb_score,
    poisson_loglik,
)
from .simulate import CovariateSpec, SimDesign, citation_scale_design, generate, recovery_study
from .special import digamma, ln_gamma, ln_gamma_approx, ln_gamma_ratio

__version__ = "0.1.0"
