"""Maximum-likelihood fitting for Poisson, NB, and hurdle-NB regressions.

``fit_poisson``, ``fit_nb`` and ``fit_hnb`` are each one call of ``_fit``, the
one fit body, and :func:`fit_family` dispatches on the family name to them.
``_fit`` first makes every refusal a fit makes before Newton starts: the
designs and response through ``likelihood._check_design`` and
``_check_counts``, then their columns (one at least), rank, n > k, names and
counts; a hurdle design equal to X is X.  It then fits the family's blocks,
which ``_model`` assembles in parameter order into the FittedModel: [Poisson],
[NB], or [zero-truncated NB, logistic].  The hurdle likelihood factorizes
into its two parts (Mullahy 1986, J. Econometrics 33:341), so each part is
maximized alone: the logistic part first, under the separation guard, then
the zero-truncated part, once its positive rows pass their rank refusal.

Every block is evaluated by its one kernel in :mod:`countreg.likelihood` and
maximized by ``_newton_maximize`` on its exact Hessian with a step-halving
(Armijo) line search.  The dispersion parameter is optimized as log r.
``_glm_maximize``, the one start rule, starts a Poisson or logit block at the
link of the mean on its first column of ones and zeros elsewhere, or at
zeros where no column is all ones, so the start does not depend on where the
intercept sits.  An NB or zero-truncated NB block starts at the beta of a
Poisson fit to its own rows and the moment r0 = max((s^2 - ybar)/ybar^2,
1e-3), as each block has two rows or more and a positive count.

An objective maps a point u to (loglik, score, hessian), where ``hessian``
is a zero-argument callable returning the exact Hessian at u; the optimizer
calls it only at the start point and at accepted points, never at a trial
point the line search rejects.  A point outside the objective's domain
returns (-inf, None, None), which the line search rejects.

The optimizer has one exit, reached on convergence, on running out of
iterations, or on a failed step (``line_search_stalled``, ``score_underflow``).
Reported convergence means the max-norm of the score is below
``gradient_tolerance * (1 + |loglik|)``; ``iterations`` counts Newton steps.
The coefficient covariance is the inverse observed information, the exact
Hessian at the optimum on the unconstrained scale; the r row/column is mapped
to the natural scale by the delta method.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .data import POSITIVE, POSITIVE_INTEGER
from .exceptions import SeparationError
from .likelihood import _check_counts, _check_design, _logit_kernel, _nb_kernel, _poisson_kernel
from .special import ln_gamma

__all__ = ["FitOptions", "FittedModel", "fit_family", "fit_poisson", "fit_nb", "fit_hnb", "fit_homogeneous"]

_FAMILIES = ("P", "NB", "HNB")

_ARMIJO = 1e-4
_SEPARATION_BOUND = 30.0
_POISSON_BOUNDARY_R = 1e-6
# Trial points with log r outside this window are rejected by the line
# search; any attainable optimum sits far inside it.
_LOG_R_WINDOW = 30.0
# Each FitOptions field's kind, in field order; the CLI reads fit_options by it.
_OPTION_KINDS = {"max_iterations": POSITIVE_INTEGER, "gradient_tolerance": POSITIVE, "step_halving_limit": POSITIVE_INTEGER}


@dataclass(frozen=True)
class FitOptions:
    max_iterations: int = 500
    gradient_tolerance: float = 1e-7
    step_halving_limit: int = 30

    def __post_init__(self):
        for key, (what, test) in _OPTION_KINDS.items():
            if not test(value := getattr(self, key)):
                raise ValueError(f"{key} must be {what}, not {value!r}")


@dataclass(frozen=True)
class FittedModel:
    """Immutable fit result; natural-scale estimates plus covariance."""

    family: str
    names: tuple[str, ...]
    estimates: dict
    params_unconstrained: np.ndarray
    covariance: np.ndarray
    covariance_unconstrained: np.ndarray
    loglik: float
    n: int
    k_mean: int
    k_hurdle: int
    n_params: int
    converged: bool
    iterations: int
    gradient_norm: float
    mean_names: tuple[str, ...]
    hurdle_names: tuple[str, ...] = ()
    warnings: tuple[str, ...] = ()
    # The designs, "X" and "X_h", that were one column of ones when fitted:
    # a frequency table may omit them.  No report shows this.
    ones_designs: frozenset[str] = frozenset()

    def __post_init__(self):
        _require_family(self.family)

    def std_errors(self) -> dict:
        se = np.sqrt(np.clip(np.diag(self.covariance), 0.0, None))
        return dict(zip(self.names, se.tolist()))

    @property
    def hurdle_labels(self) -> tuple[str, ...]:
        """The hurdle design's column labels, in ``hurdle_names`` order."""
        return tuple(name[len("zero:") :] for name in self.hurdle_names)

    def natural_summary(self) -> dict:
        """theta and phi of the designs fitted as ones (``ones_designs``); r unless P."""
        out = {}
        if "X" in self.ones_designs:
            out["theta"] = math.exp(self.estimates[self.mean_names[0]])
        if self.family != "P":
            out["r"] = self.estimates["r"]
        if "X_h" in self.ones_designs:
            eta = self.estimates[self.hurdle_names[0]]
            out["phi"] = 1.0 / (1.0 + math.exp(-eta))
        return out


@dataclass
class _OptState:
    u: np.ndarray
    value: float
    grad: np.ndarray
    hess: np.ndarray
    converged: bool
    iterations: int
    warnings: list = field(default_factory=list)


def _max_norm(g) -> float:
    return float(np.max(np.abs(g))) if g.size else 0.0


def _converged(value, grad, options) -> bool:
    return _max_norm(grad) < options.gradient_tolerance * (1.0 + abs(value))


def _newton_maximize(objective, u0, options, guard=None) -> _OptState:
    """Newton ascent on exact Hessians with Armijo step halving.

    ``objective(u)`` returns (loglik, score, Hessian callable); trial points
    with a non-finite loglik are rejected.  A non-finite step falls back to
    the score.
    """
    u = np.asarray(u0, dtype=float).copy()
    value, grad, hessian = objective(u)
    hess = hessian()
    # A Hessian callable holds row arrays: drop each one before the next
    # evaluation, so that at most one set is alive.
    del hessian
    iterations = 0
    warnings = []
    while iterations < options.max_iterations and not _converged(value, grad, options):
        # Each curvature of -hess enters by its magnitude: the exact Newton
        # step where -hess is positive definite, and still an ascent step
        # where the log-likelihood is locally convex, as it is in log r near
        # the Poisson boundary of a zero-truncated part.
        eigval, eigvec = np.linalg.eigh(-0.5 * (hess + hess.T))
        curvature = np.maximum(np.abs(eigval), max(1e-14 * np.max(np.abs(eigval)), 1e-300))
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite slope falls back below
            direction = eigvec @ ((eigvec.T @ grad) / curvature)
            slope = float(grad @ direction)
        if not np.isfinite(slope) or slope <= 0.0:
            direction = grad.copy()
            slope = float(grad @ grad)
            if slope == 0.0:
                warnings.append("score_underflow")
                break
        step = 1.0
        accepted = False
        for _ in range(options.step_halving_limit):
            candidate = u + step * direction
            new_value, new_grad, hessian = objective(candidate)
            if np.isfinite(new_value) and new_value >= value + _ARMIJO * step * slope:
                accepted = True
                break
            del hessian
            step *= 0.5
        iterations += 1
        if not accepted:
            warnings.append("line_search_stalled")
            break
        u, value, grad, hess = candidate, new_value, new_grad, hessian()
        del hessian
        if guard is not None:
            guard(u)
    return _OptState(u, value, grad, hess, _converged(value, grad, options), iterations, warnings)


def _psd_inverse(A) -> np.ndarray:
    eigval, eigvec = np.linalg.eigh(A)
    floor = max(np.max(eigval), 0.0) * 1e-14
    inv = np.where(eigval > floor, 1.0 / np.where(eigval > floor, eigval, 1.0), 0.0)
    return (eigvec * inv) @ eigvec.T


def _covariance(hess):
    """(covariance, warnings): the inverse observed information -hess."""
    info = -0.5 * (hess + hess.T)
    degenerate = np.min(np.linalg.eigvalsh(info)) <= 0.0
    cov = _psd_inverse(info) if degenerate else np.linalg.inv(info)
    return 0.5 * (cov + cov.T), ["hessian_not_negative_definite"] if degenerate else []


def _nb_objective(X, y, truncated, lgy1):
    """u = (beta, log r) -> objective of the NB or, with ``truncated``, the
    zero-truncated NB part of checked counts ``y``; ``lgy1`` is their
    lnG(y+1) row.  |log r| beyond the window is rejected."""
    k = X.shape[1]

    def objective(u):
        if abs(u[k]) > _LOG_R_WINDOW:
            return -math.inf, None, None
        terms, score, hessian = _nb_kernel(u[:k], float(u[k]), X, y, truncated, lgy1)
        return float(np.sum(terms)), score, hessian

    return objective


def _glm_maximize(kernel, X, y, first, options, const=0.0, guard=None) -> _OptState:
    """Newton fit of the Poisson or logit ``kernel`` on (X, y), its objective
    less ``const``, from ``first`` on the first all-ones column of X and zeros
    elsewhere, or from zeros where no column is all ones."""

    def objective(u):
        terms, score, hessian = kernel(u, X, y)
        return float(np.sum(terms)) - const, score, hessian

    u0 = np.zeros(X.shape[1])
    # The scan stops at the column of ones, the first one in a CLI design.
    ones = next((j for j in range(X.shape[1]) if np.all(X[:, j] == 1.0)), None)
    if ones is not None:
        u0[ones] = first
    return _newton_maximize(objective, u0, options, guard)


def _parameter_names(family, labels, hurdle_labels=()) -> tuple[str, ...]:
    """The mean ``labels``, then "r" unless ``family`` is "P", then
    "zero:<label>" for each hurdle label; ValueError names any given twice."""
    names = (*labels, *(() if family == "P" else ("r",)), *(f"zero:{label}" for label in hurdle_labels))
    twice = list(dict.fromkeys(name for name in names if names.count(name) > 1))
    if twice:
        raise ValueError(f"parameter names {twice} are given twice")
    return names


def _full_rank(M) -> bool:
    return M.shape[0] >= M.shape[1] and np.linalg.matrix_rank(M) == M.shape[1]


def _check_block(M, what, min_extra=None, full_rank=None):
    """Refuse a design with no columns, of less than full column rank or,
    unless ``min_extra`` is None, with no more than k + min_extra rows;
    ``full_rank`` is the rank verdict where it is known, else M's SVD gives it."""
    n, k = M.shape
    if k == 0:
        raise ValueError(f"{what} has no columns")
    if min_extra is not None and n <= k + min_extra:
        raise ValueError(f"need more observations than parameters (n={n}, k={k})")
    if not (_full_rank(M) if full_rank is None else full_rank):
        raise ValueError(f"{what} is rank deficient")


def _moment_start_r(y) -> float:
    ybar = float(np.mean(y))
    return max((float(np.var(y, ddof=1)) - ybar) / ybar**2, 1e-3)


def _model(family, n, labels, hurdle_labels, names, ones, blocks) -> FittedModel:
    """The FittedModel of the fitted ``blocks`` in parameter order: beta (then
    log r unless ``family`` is "P") and, for HNB, delta, named ``names``;
    ``ones`` names the designs that were one column of ones.  The covariance is
    block diagonal, its r row and column mapped by the delta method.  The
    blocks were fitted last to first: their warnings come in that order, then
    those of their covariances in parameter order."""
    k = len(labels)
    params_u = np.concatenate([state.u for state in blocks])
    covariances = [_covariance(state.hess) for state in blocks]
    cov_u = np.zeros((params_u.size, params_u.size))
    start = 0
    for cov, _ in covariances:
        cov_u[start : start + len(cov), start : start + len(cov)] = cov
        start += len(cov)
    values = params_u.tolist()
    scale = np.ones(params_u.size)
    if family != "P":
        values[k] = scale[k] = math.exp(values[k])
    warnings = [w for state in reversed(blocks) for w in state.warnings]
    warnings += [w for _, cov_warnings in covariances for w in cov_warnings]
    return FittedModel(
        family=family,
        names=names,
        estimates=dict(zip(names, values)),
        params_unconstrained=params_u,
        covariance=cov_u * np.outer(scale, scale),
        covariance_unconstrained=cov_u,
        loglik=sum(state.value for state in blocks),
        n=n,
        k_mean=k,
        k_hurdle=len(hurdle_labels),
        n_params=params_u.size,
        converged=all(state.converged for state in blocks),
        iterations=sum(state.iterations for state in blocks),
        gradient_norm=max(_max_norm(state.grad) for state in blocks),
        mean_names=labels,
        hurdle_names=names[len(names) - len(hurdle_labels) :],
        warnings=tuple(warnings),
        ones_designs=ones,
    )


def _separation_guard(X_h, hurdle_labels):
    varying = [j for j in range(X_h.shape[1]) if np.ptp(X_h[:, j]) > 0.0]

    def guard(delta):
        if float(np.max(np.abs(delta))) > _SEPARATION_BOUND:
            worst = max(varying or range(len(delta)), key=lambda j: abs(delta[j]))
            raise SeparationError(hurdle_labels[worst])

    return guard


def _fit(family, X, y, X_h, options, labels, hurdle_labels) -> FittedModel:
    """The one fit body: the refusals, then the blocks, as the module
    docstring says.  For HNB, no hurdle design, or one equal to ``X``, is
    ``X``: its labels default to ``labels`` and its rank is not checked
    again.  Full column rank of X's rows with y > 0 implies X's, so for HNB
    X's own SVD runs only when they fail, to choose the message, and the
    truncated part reuses their verdict."""
    options = options or FitOptions()
    hurdle = family == "HNB"
    X, labels = _check_design(X, labels=labels)
    y = _check_counts(y, X.shape[0])
    if hurdle:
        if X_h is None or np.array_equal(X_h, X):
            X_h, hurdle_labels = X, labels if hurdle_labels is None else hurdle_labels
        X_h, hurdle_labels = _check_design(X_h, X.shape[0], labels=hurdle_labels, hurdle=True)
    positives = hurdle and X.shape[1] > 0 and _full_rank(X[y > 0])
    _check_block(X, "design matrix", min_extra=int(family != "P"), full_rank=positives or None)
    if hurdle and X_h is not X:
        _check_block(X_h, "hurdle design matrix")
    names = _parameter_names(family, labels, hurdle_labels)
    if hurdle and (y.all() or not y.any()):
        raise ValueError("hurdle fit needs both zero and positive counts")
    # An all-zero response drives the intercept to -inf; Newton would stop
    # on a vanishing gradient and report a spurious convergence.
    if not y.any():
        raise ValueError("fit needs at least one positive count; the response is all zero")
    designs = {"X": X, "X_h": X_h} if hurdle else {"X": X}
    ones = frozenset(name for name, M in designs.items() if M.shape[1] == 1 and np.all(M == 1.0))
    n = X.shape[0]
    blocks = []
    if hurdle:
        # Binary part: logistic regression of I(y == 0) on X_h.
        zero = y == 0
        z = zero.astype(float)
        zbar = float(np.mean(z))
        guard = _separation_guard(X_h, hurdle_labels)
        blocks.append(_glm_maximize(_logit_kernel, X_h, z, math.log(zbar / (1.0 - zbar)), options, guard=guard))
        # Zero-truncated part on the positive rows only; they must identify beta.
        X = X[~zero]
        _check_block(X, "design matrix", min_extra=0, full_rank=positives)
        y = y[~zero]
    # The Poisson block: the P fit, or the beta an NB block starts from.
    yf = y.astype(float)
    lgy1 = ln_gamma(yf + 1.0)
    state = _glm_maximize(_poisson_kernel, X, yf, math.log(max(float(np.mean(yf)), 1e-8)), options, float(np.sum(lgy1)))
    if family != "P":
        u0 = np.append(state.u, math.log(_moment_start_r(y)))
        state = _newton_maximize(_nb_objective(X, yf, hurdle, lgy1), u0, options)
        if math.exp(float(state.u[-1])) < _POISSON_BOUNDARY_R:
            state.warnings.append("poisson_boundary")
    return _model(family, n, labels, hurdle_labels, names, ones, [state, *blocks])


def fit_poisson(X, y, options: FitOptions | None = None, labels=None) -> FittedModel:
    """Poisson regression under the log link."""
    return _fit("P", X, y, None, options, labels, ())


def fit_nb(X, y, options: FitOptions | None = None, labels=None) -> FittedModel:
    """Negative binomial regression; beta starts at the Poisson fit."""
    return _fit("NB", X, y, None, options, labels, ())


def fit_hnb(X, X_h, y, options: FitOptions | None = None, labels=None, hurdle_labels=None) -> FittedModel:
    """Hurdle NB fit: logistic zero part and zero-truncated NB part.

    The two parts maximize independently; the joint log-likelihood is their
    sum and the covariance is block diagonal.
    """
    return _fit("HNB", X, y, X_h, options, labels, hurdle_labels)


def _require_family(family: str) -> None:
    if family not in _FAMILIES:
        raise ValueError(f"unknown family {family!r}; expected one of {', '.join(_FAMILIES)}")


def fit_family(
    family: str, X, y, X_h=None, options: FitOptions | None = None, labels=None, hurdle_labels=None
) -> FittedModel:
    """Fit the family "P", "NB" or "HNB"."""
    _require_family(family)
    if family == "P":
        return fit_poisson(X, y, options=options, labels=labels)
    if family == "NB":
        return fit_nb(X, y, options=options, labels=labels)
    return fit_hnb(X, X_h, y, options=options, labels=labels, hurdle_labels=hurdle_labels)


def fit_homogeneous(family: str, y, options: FitOptions | None = None) -> FittedModel:
    """Intercept-only fit of the requested family."""
    y = np.asarray(y)
    if y.size == 0:
        raise ValueError("y must be nonempty")
    return fit_family(family, np.ones((y.shape[0], 1)), y, options=options)
