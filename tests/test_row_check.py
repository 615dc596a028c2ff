"""Every public entry point checks its designs and response through one step.

A fit, a likelihood, a link or a diagnostic given a response of the wrong
shape, a non-finite design cell, a hurdle design with other rows or no
design (None) where it reads one raises ValueError with that check's
message, naming the cell where there is one, and never returns a number.
An omitted design is checked as one of shape (); a diagnostic refuses it
as "need X" or "need X_h" unless the fit recorded it as one column of ones.
Before, the links, the residuals and the hurdle likelihoods given no design
raised numpy's matmul error, and the mean likelihoods and fits blamed the
response.  The reproductions use n = 500, X = [1, N(0,1)]
from ``default_rng(0)``, y ~ Poisson(exp(0.5 + 0.3x)) and
NbRegParams([0.5, 0.3], log 0.5); before the shared check, a column-vector
response there gave nb_loglik -425,443.99 (against -812.33 for y),
poisson_loglik -229,847.64 (against -779.20) and 501 score entries, each
from a hidden n x n broadcast.
"""

import functools
import inspect
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import countreg.diagnostics
import countreg.fit
import countreg.likelihood
from countreg.diagnostics import deviance_residuals, frequency_table, pearson
from countreg.fit import fit_family, fit_hnb, fit_nb, fit_poisson
from countreg.inference import marginal_effect_hurdle
from countreg.likelihood import (
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
    poisson_score,
)


@pytest.fixture(scope="module")
def citation_like():
    rng = np.random.default_rng(0)
    n = 500
    X = np.column_stack([np.ones(n), rng.normal(size=n)])
    y = rng.poisson(np.exp(0.5 + 0.3 * X[:, 1]))
    return X, y, NbRegParams(np.array([0.5, 0.3]), math.log(0.5))


def shape_message(what, shape, expected):
    return f"^{re.escape(f'{what} has shape {shape}, not {expected}')}$"


def cell_message(what, value, row, column):
    return f"^{re.escape(f'{what} has non-finite value {value} at row {row}, column {column!r}')}$"


class TestReproductions:
    def test_a_column_vector_response_is_refused(self, citation_like):
        X, y, p = citation_like
        assert nb_loglik(p, X, y) == pytest.approx(-812.33, abs=0.005)
        assert poisson_loglik(p.beta, X, y) == pytest.approx(-779.20, abs=0.005)
        assert nb_score(p, X, y).shape == (3,)
        message = shape_message("response", (500, 1), (500,))
        for call in (
            lambda: nb_loglik(p, X, y[:, None]),
            lambda: poisson_loglik(p.beta, X, y[:, None]),
            lambda: nb_score(p, X, y[:, None]),
            lambda: fit_nb(X, y[:, None]),
            lambda: pearson(fit_nb(X, y), X, y[:, None]),
        ):
            with pytest.raises(ValueError, match=message):
                call()

    def test_a_hurdle_design_with_other_rows_is_refused(self, citation_like):
        X, y, p = citation_like
        h = HnbRegParams(p, np.array([-1.0, 0.2]))
        with pytest.raises(ValueError, match=shape_message("hurdle design matrix", (10, 2), (500, 2))):
            hnb_score(h, X, X[:10], y)

    def test_a_non_finite_design_cell_is_named(self, citation_like):
        X, y, p = citation_like
        nb, hnb = fit_nb(X, y), fit_hnb(X, X, y)
        bad = X.copy()
        bad[3, 1] = np.nan
        message = cell_message("design matrix", np.nan, 3, "x1")
        for call in (
            lambda: pearson(nb, bad, y),
            lambda: frequency_table(y, nb, y_max=10, X=bad),
            lambda: link_mean(bad, p.beta),
            lambda: fit_nb(bad, y),
        ):
            with pytest.raises(ValueError, match=message):
                call()
        with pytest.raises(ValueError, match=cell_message("hurdle design matrix", np.nan, 0, "x1")):
            marginal_effect_hurdle(hnb, "x1", [1.0, np.nan])


N = 200
BETA = np.array([0.8, 0.3, -0.2])
DELTA = np.array([-0.5, 0.6])


@functools.cache
def fitted():
    """(X, X_h, y, NB fit, HNB fit): k = 3 mean and 2 hurdle columns."""
    rng = np.random.default_rng(19)
    X = np.column_stack([np.ones(N), rng.normal(size=(N, 2))])
    X_h = X[:, :2].copy()
    y = np.where(rng.random(N) < link_hurdle(X_h, DELTA), 0, 1 + rng.poisson(link_mean(X, BETA)))
    return X, X_h, y, fit_nb(X, y), fit_hnb(X, X_h, y)


@functools.cache
def entry_points():
    """Name -> (call(X, X_h, y, row), the faults that apply to it).  Only
    ``marginal_effect_hurdle`` reads ``row``: its one-row design is that row
    of X_h."""
    _, _, _, nb, hnb = fitted()
    p = NbRegParams(BETA, math.log(0.5))
    h = HnbRegParams(p, DELTA)
    mean = ("column response", "short response", "X cell", "X omitted")
    # A fit given no hurdle design fits X's: omitting X_h is no fault there.
    fit_hurdle = mean + ("X_h cell", "X_h rows")
    hurdle = fit_hurdle + ("X_h omitted",)
    return {
        "fit_family P": (lambda X, X_h, y, row: fit_family("P", X, y), mean),
        "fit_family NB": (lambda X, X_h, y, row: fit_family("NB", X, y), mean),
        "fit_family HNB": (lambda X, X_h, y, row: fit_family("HNB", X, y, X_h=X_h), fit_hurdle),
        "fit_poisson": (lambda X, X_h, y, row: fit_poisson(X, y), mean),
        "fit_nb": (lambda X, X_h, y, row: fit_nb(X, y), mean),
        "fit_hnb": (lambda X, X_h, y, row: fit_hnb(X, X_h, y), fit_hurdle),
        "poisson_loglik": (lambda X, X_h, y, row: poisson_loglik(BETA, X, y), mean),
        "poisson_score": (lambda X, X_h, y, row: poisson_score(BETA, X, y), mean),
        "nb_loglik": (lambda X, X_h, y, row: nb_loglik(p, X, y), mean),
        "nb_score": (lambda X, X_h, y, row: nb_score(p, X, y), mean),
        "hnb_loglik": (lambda X, X_h, y, row: hnb_loglik(h, X, X_h, y), hurdle),
        "hnb_loglik_parts": (lambda X, X_h, y, row: hnb_loglik_parts(h, X, X_h, y), hurdle),
        "hnb_score": (lambda X, X_h, y, row: hnb_score(h, X, X_h, y), hurdle),
        "link_mean": (lambda X, X_h, y, row: link_mean(X, BETA), ("X cell", "X omitted")),
        "link_hurdle": (lambda X, X_h, y, row: link_hurdle(X_h, DELTA), ("X_h cell", "X_h omitted")),
        "pearson NB": (lambda X, X_h, y, row: pearson(nb, X, y), mean),
        "pearson HNB": (lambda X, X_h, y, row: pearson(hnb, X, y, X_h=X_h), hurdle),
        "deviance_residuals": (lambda X, X_h, y, row: deviance_residuals(nb, X, y), mean),
        "frequency_table NB": (lambda X, X_h, y, row: frequency_table(y, nb, 10, X=X), mean),
        "frequency_table HNB": (lambda X, X_h, y, row: frequency_table(y, hnb, 10, X=X, X_h=X_h), hurdle),
        "marginal_effect_hurdle": (lambda X, X_h, y, row: marginal_effect_hurdle(hnb, "x1", X_h[row]), ("X_h cell",)),
    }


@st.composite
def faults(draw):
    """(entry point name, X, X_h, y, row, expected message) with one fault."""
    X, X_h, y, _, _ = fitted()
    X, X_h = X.copy(), X_h.copy()
    name = draw(st.sampled_from(sorted(entry_points())))
    kind = draw(st.sampled_from(entry_points()[name][1]))
    row = draw(st.integers(0, N - 1))
    if kind == "column response":
        y = y[:, None]
        message = shape_message("response", (N, 1), (N,))
    elif kind == "short response":
        y = y[:-1]
        message = shape_message("response", (N - 1,), (N,))
    elif kind in ("X omitted", "X_h omitted"):
        # A diagnostic refuses an omitted design with covariates by name;
        # everything else finds a design of shape ().
        design = kind.split()[0]
        if name.split()[0] in ("pearson", "deviance_residuals", "frequency_table"):
            message = f"need {design}$"
        elif design == "X":
            message = shape_message("design matrix", (), "(n, k)" if name.startswith("fit") else "(n, 3)")
        else:
            message = shape_message("hurdle design matrix", (), f"({'n' if name == 'link_hurdle' else N}, 2)")
        X, X_h = (None, X_h) if design == "X" else (X, None)
    elif kind == "X_h rows":
        rows = draw(st.integers(1, 2 * N).filter(lambda m: m != N))
        X_h = X_h[np.arange(rows) % N]
        message = shape_message("hurdle design matrix", (rows, 2), (N, 2))
    else:
        design, what = (X, "design matrix") if kind == "X cell" else (X_h, "hurdle design matrix")
        column = draw(st.integers(0, design.shape[1] - 1))
        value = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
        design[row, column] = value
        named_row = 0 if name == "marginal_effect_hurdle" else row
        message = cell_message(what, value, named_row, ("intercept", "x1", "x2")[column])
    return name, X, X_h, y, row, message


@settings(max_examples=300, deadline=None)
@given(faults())
def test_every_entry_point_refuses_each_fault_with_its_message(fault):
    name, X, X_h, y, row, message = fault
    call = entry_points()[name][0]
    with pytest.raises(ValueError, match=message):
        call(X, X_h, y, row)


@pytest.mark.parametrize(
    "at, shape",
    [([[1.0, 0.2], [1.0, 0.3]], (2, 2)), (None, ()), ([1.0, 0.2, 0.3], (3,)), ([[1.0, 0.2, 0.3]], (1, 3))],
    ids=["two rows", "None", "long vector", "long row"],
)
def test_a_marginal_effect_row_is_refused_by_its_own_shape(at, shape):
    """Before, ``at`` was reshaped to one row first: two rows read (1, 4)
    and None read (1, 1)."""
    hnb = fitted()[4]
    with pytest.raises(ValueError, match=shape_message("hurdle design matrix", shape, (1, 2))):
        marginal_effect_hurdle(hnb, "x1", at)
    assert marginal_effect_hurdle(hnb, "x1", [[1.0, 0.2]]) == marginal_effect_hurdle(hnb, "x1", [1.0, 0.2])


@pytest.mark.parametrize("module", [countreg.fit, countreg.likelihood, countreg.diagnostics])
def test_every_public_function_of_a_design_is_an_entry_point(module):
    """A new public function that reads X or X_h cannot skip the faults."""
    covered = {name.split()[0] for name in entry_points()}
    reads_a_design = [
        name for name in module.__all__
        if inspect.isfunction(getattr(module, name))
        and {"X", "X_h"} & set(inspect.signature(getattr(module, name)).parameters)
    ]
    assert reads_a_design
    assert set(reads_a_design) <= covered, sorted(set(reads_a_design) - covered)


ONES = np.ones((3, 1))
COUNTS = [1, 2, 3]


def coefficient_entry_points(beta, delta):
    """Name -> call of each public function that takes coefficient vectors,
    on a 3 x 1 design and hurdle design; ``delta`` is the hurdle vector."""
    p = NbRegParams(beta, 0.0)
    h = HnbRegParams(NbRegParams(np.zeros(1), 0.0), delta)
    return {
        "link_mean": lambda: link_mean(ONES, beta),
        "link_hurdle": lambda: link_hurdle(ONES, delta),
        "poisson_loglik": lambda: poisson_loglik(beta, ONES, COUNTS),
        "poisson_score": lambda: poisson_score(beta, ONES, COUNTS),
        "nb_loglik": lambda: nb_loglik(p, ONES, COUNTS),
        "nb_score": lambda: nb_score(p, ONES, COUNTS),
        "hnb_loglik": lambda: hnb_loglik(HnbRegParams(p, np.zeros(1)), ONES, ONES, COUNTS),
        "hnb_loglik_parts": lambda: hnb_loglik_parts(h, ONES, ONES, COUNTS),
        "hnb_score": lambda: hnb_score(h, ONES, ONES, COUNTS),
    }


class TestCoefficientShapes:
    """A coefficient vector that is 2-D or a scalar is refused by its shape.

    Before this check a (1, 1) vector broadcast silently: poisson_loglik
    gave -11.48 and nb_loglik -18.71 where a (1,) vector gives -5.48 and
    -6.24, link_mean returned shape (3, 1), and a scalar raised TypeError.
    """

    def test_a_vector_gives_the_values_a_column_gave_wrongly(self):
        assert poisson_loglik(np.zeros(1), ONES, COUNTS) == pytest.approx(-5.48, abs=0.005)
        assert nb_loglik(NbRegParams(np.zeros(1), 0.0), ONES, COUNTS) == pytest.approx(-6.24, abs=0.005)
        assert link_mean(ONES, np.zeros(1)).shape == (3,)

    @pytest.mark.parametrize("shape", [(1, 1), ()])
    @pytest.mark.parametrize("name", sorted(coefficient_entry_points(np.zeros(1), np.zeros(1))))
    def test_each_entry_point_names_the_shape(self, name, shape):
        bad = np.zeros(shape)
        hurdle = name in ("link_hurdle", "hnb_loglik_parts", "hnb_score")
        calls = coefficient_entry_points(np.zeros(1) if hurdle else bad, bad if hurdle else np.zeros(1))
        what = "hurdle coefficients" if hurdle else "coefficients"
        with pytest.raises(ValueError, match=f"^{re.escape(f'{what} have shape {shape}, not (1,)')}$"):
            calls[name]()

    def test_a_list_of_coefficients_is_still_a_vector(self):
        assert poisson_loglik([0.0], ONES, COUNTS) == poisson_loglik(np.zeros(1), ONES, COUNTS)
