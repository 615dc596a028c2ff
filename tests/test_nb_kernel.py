"""The fused NB kernel against the three-pass route it replaced.

Oracle: the per-row log-likelihood terms, the first and second row
derivatives and the Hessian assembly exactly as they were evaluated before
the kernel existed, one pass each.  The kernel keeps their floating-point
operation order, so value, score and Hessian must agree bit for bit.  The
chunked dispersion grid is checked the same way against the one-pass grid
over 0..max(y).
"""

import tracemalloc
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from countreg import special
from countreg.likelihood import NbRegParams, _clamped_eta, _nb_kernel
from countreg.special import _dispersion_sums, ln_gamma


def _nb_loglik_terms(params: NbRegParams, X, y, full):
    eta = _clamped_eta(X, params.beta)
    r = params.r
    terms = _dispersion_sums(y, r)[0] - (1.0 / r + y) * np.log1p(r * np.exp(eta)) + y * eta
    if full:
        terms = terms - ln_gamma(y + 1.0)
    return terms


def _truncated_nb_loglik_terms(params: NbRegParams, X, y, full):
    log_p0 = -np.log1p(params.r * np.exp(_clamped_eta(X, params.beta))) / params.r
    return _nb_loglik_terms(params, X, y, full) - np.log1p(-np.exp(log_p0))


def _nb_row_derivatives(params: NbRegParams, X, y, truncated, second):
    r = params.r
    theta = np.exp(_clamped_eta(X, params.beta))
    denom = 1.0 + r * theta
    log1prt = np.log1p(r * theta)
    _, s1, s2 = _dispersion_sums(y, r)
    lam_eta = -theta / denom
    lam_logr = log1prt / r - theta / denom
    log_p0 = -log1prt / r
    rho = np.exp(log_p0) / -np.expm1(log_p0) if truncated else 0.0
    if not second:
        return (
            (y - theta) / denom + rho * lam_eta,
            s1 + lam_logr - r * y * theta / denom + rho * lam_logr,
        )
    lam_eta_logr = r * theta**2 / denom**2
    nb_eta_logr = r * theta * (theta - y) / denom**2
    kappa = rho * (1.0 + rho)
    return (
        -(1.0 + r * y + rho) * theta / denom**2 + kappa * lam_eta**2,
        nb_eta_logr + kappa * lam_eta * lam_logr + rho * lam_eta_logr,
        s2 - lam_logr + nb_eta_logr + kappa * lam_logr**2 + rho * (lam_eta_logr - lam_logr),
    )


def _nb_hessian(params: NbRegParams, X, y, truncated=False) -> np.ndarray:
    d_eta2, d_eta_logr, d_logr2 = _nb_row_derivatives(params, X, y, truncated, second=True)
    k = X.shape[1]
    hess = np.empty((k + 1, k + 1))
    hess[:k, :k] = X.T @ (X * d_eta2[:, None])
    hess[:k, k] = hess[k, :k] = X.T @ d_eta_logr
    hess[k, k] = np.sum(d_logr2)
    return hess


def three_pass(params, X, y, truncated, full):
    """(terms, score, Hessian) by the route that predates the kernel."""
    loglik_terms = _truncated_nb_loglik_terms if truncated else _nb_loglik_terms
    d_eta, d_logr = _nb_row_derivatives(params, X, y, truncated, second=False)
    return (
        loglik_terms(params, X, y, full),
        np.append(X.T @ d_eta, np.sum(d_logr)),
        _nb_hessian(params, X, y, truncated),
    )


@st.composite
def nb_blocks(draw, truncated):
    """(params, X, float y): r log-uniform in [1e-4, 1e2], max y up to 1e4."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 60))
    k = draw(st.integers(1, 4))
    X = np.column_stack([np.ones(n)] + [rng.normal(size=n) for _ in range(k - 1)])
    beta = rng.normal(scale=0.7, size=k)
    log_r = draw(st.floats(np.log(1e-4), np.log(1e2)))
    y_max = draw(st.integers(1, 10**4))
    low = 1 if truncated else 0
    y = rng.integers(low, y_max + 1, size=n).astype(float)
    y[draw(st.integers(0, n - 1))] = y_max
    if not truncated and draw(st.booleans()):
        y[rng.random(n) < 0.4] = 0.0
    return NbRegParams(beta=beta, log_r=log_r), X, y


def assert_bitwise(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def check_kernel(params, X, y, truncated):
    for full in (True, False):
        lgy1 = ln_gamma(y + 1.0) if full else None
        terms, score, hessian = _nb_kernel(params.beta, params.log_r, X, y, truncated, lgy1)
        want_terms, want_score, want_hess = three_pass(params, X, y, truncated, full)
        assert_bitwise(terms, want_terms)
        assert float(np.sum(terms)) == float(np.sum(want_terms))
        assert_bitwise(score, want_score)
        assert_bitwise(hessian(), want_hess)


class TestKernelMatchesThreePassRoute:
    @settings(max_examples=150, deadline=None)
    @given(nb_blocks(truncated=False))
    def test_nb_part(self, block):
        check_kernel(*block, truncated=False)

    @settings(max_examples=150, deadline=None)
    @given(nb_blocks(truncated=True))
    def test_zero_truncated_part(self, block):
        check_kernel(*block, truncated=True)

    def test_integer_counts_give_the_same_bits(self):
        params = NbRegParams(beta=np.array([0.4, -0.3]), log_r=-0.5)
        X = np.column_stack([np.ones(5), np.linspace(-1.0, 1.0, 5)])
        y = np.array([0.0, 3.0, 1.0, 12.0, 7.0])
        for truncated in (False, True):
            rows = slice(1, None) if truncated else slice(None)
            Xb, yb = X[rows], y[rows]
            floats = _nb_kernel(params.beta, params.log_r, Xb, yb, truncated)
            ints = _nb_kernel(params.beta, params.log_r, Xb, yb.astype(np.int64), truncated)
            assert_bitwise(floats[0], ints[0])
            assert_bitwise(floats[1], ints[1])
            assert_bitwise(floats[2](), ints[2]())


def one_pass_dispersion_sums(y, r):
    """The dispersion sums from one grid over j = 0..max(y) - 1."""
    counts = y.astype(np.int64)
    jr = r * np.arange(int(counts.max(initial=0)), dtype=float)
    q = jr / (1.0 + jr)
    grids = np.zeros((3, jr.size + 1))
    np.cumsum(np.log1p(jr), out=grids[0, 1:])
    np.cumsum(q, out=grids[1, 1:])
    np.cumsum(q / (1.0 + jr), out=grids[2, 1:])
    return tuple(grid[counts] for grid in grids)


class TestChunkedDispersionGrid:
    @settings(max_examples=150, deadline=None)
    @given(
        chunk=st.sampled_from([1, 2, 3, 7, 64]),
        seed=st.integers(0, 2**32 - 1),
        top=st.integers(0, 600),
        log_r=st.floats(np.log(1e-4), np.log(1e2)),
    )
    def test_matches_the_one_pass_grid(self, chunk, seed, top, log_r):
        rng = np.random.default_rng(seed)
        # Zeros, chunk boundaries either side and the largest count.
        y = np.concatenate([rng.integers(0, top + 1, 50), [0, top, chunk, chunk + 1]])
        y = np.minimum(y, top).astype(float)
        r = float(np.exp(log_r))
        with mock.patch.object(special, "_GRID_CHUNK", chunk):
            sums = _dispersion_sums(y, r)
        for got, want in zip(sums, one_pass_dispersion_sums(y, r)):
            assert_bitwise(got, want)

    def test_kernel_is_unchanged_by_chunking(self, monkeypatch):
        rng = np.random.default_rng(9)
        X = np.column_stack([np.ones(40), rng.normal(size=40)])
        y = rng.integers(0, 500, 40).astype(float)
        want = _nb_kernel(np.array([0.3, 0.2]), -0.4, X, y, False)
        monkeypatch.setattr(special, "_GRID_CHUNK", 16)
        got = _nb_kernel(np.array([0.3, 0.2]), -0.4, X, y, False)
        assert_bitwise(got[0], want[0])
        assert_bitwise(got[1], want[1])
        assert_bitwise(got[2](), want[2]())

    def test_memory_is_bounded_by_the_chunk(self, monkeypatch):
        # One grid over 0..10**6 would take 8 MB a row; chunks of 1,024
        # values take about 25 kB each.
        monkeypatch.setattr(special, "_GRID_CHUNK", 1024)
        y = np.array([0.0, 5.0, 10.0**6, 123_456.0])
        tracemalloc.start()
        try:
            sums = _dispersion_sums(y, 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 500_000
        for got, want in zip(sums, one_pass_dispersion_sums(y, 0.5)):
            assert_bitwise(got, want)
