"""Shared fixtures.

The desk-scale solves (k = 6, N = 48) are expensive, so they are computed
once per session and shared between the acceptance criteria.  Each heavy
fixture also records its wall-clock time for the runtime budgets.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from heisground import cc_diag, grid
from heisground.functionals import eval_J
from heisground.grid import ScalarField, e_norm_sq
from heisground.solvers import (
    Domain,
    SolverConfig,
    exhaust_domains,
    make_domain,
    solve_constrained_min,
    solve_mountain_pass,
)


def pytest_terminal_summary(terminalreporter):
    """Repeat the acceptance criterion lines after the test summary."""
    try:
        from test_acceptance import RESULTS
    except ImportError:
        return
    if RESULTS:
        terminalreporter.section("acceptance criteria")
        for line in RESULTS:
            terminalreporter.write_line(line)


@pytest.fixture(autouse=True)
def fresh_ball_geometry():
    """Empty the per-grid caches of cc_diag before each test, so a test
    that patches `_window_ends` or a helper of it (`_disc_offsets`,
    `_radius_cap`) finds the geometry anew under its patch, and no test
    reads a cache another test filled."""
    cc_diag._window_cache.clear()


@pytest.fixture
def fresh_operators(monkeypatch):
    """An empty operator slot (`grid._last_operator`) for one test, and the
    session's operator back afterwards.  The autouse fixture above keeps
    the slot across tests, because consecutive tests of one domain reuse
    its operator; a test of the assembly takes this one, so it cannot pass
    on an operator another test built."""
    monkeypatch.setattr(grid, "_last_operator", None)


def _timed(fn, *args, **kwargs):
    t0 = time.monotonic()
    out = fn(*args, **kwargs)
    return {"report": out, "seconds": time.monotonic() - t0}


# ---------------------------------------------------------------------------
# Desk-scale instance (acceptance)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="session")
def desk_config():
    return SolverConfig(
        p=2.0, ball_radius=6.0, nodes_per_axis=48, grad_tol=1e-5, max_iters=40000
    )


@pytest.fixture(scope="session")
def desk_domain(desk_config):
    return make_domain(desk_config)


@pytest.fixture(scope="session")
def cm_run(desk_config, desk_domain):
    return _timed(solve_constrained_min, desk_config, domain=desk_domain)


@pytest.fixture(scope="session")
def mp_run(desk_config, desk_domain):
    return _timed(solve_mountain_pass, desk_config, domain=desk_domain)


@pytest.fixture(scope="session")
def exhaust_run(desk_config):
    cfg = replace(desk_config, grad_tol=1e-4)
    return _timed(exhaust_domains, [2.0, 3.0, 4.0, 5.0, 6.0], cfg)


# ---------------------------------------------------------------------------
# Small instance (fast unit tests)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="session")
def small_config():
    return SolverConfig(
        p=2.0, ball_radius=2.5, nodes_per_axis=12, grad_tol=1e-4, max_iters=12000
    )


@pytest.fixture(scope="session")
def small_domain(small_config):
    return make_domain(small_config)


@pytest.fixture(scope="session")
def small_cm(small_config, small_domain):
    return solve_constrained_min(small_config, domain=small_domain)


@pytest.fixture(scope="session")
def small_mp(small_config, small_domain):
    return solve_mountain_pass(small_config, domain=small_domain)


# ---------------------------------------------------------------------------
# Random smooth fields
# ---------------------------------------------------------------------------


def make_random_smooth_field(domain: Domain, rng, n_bumps: int = 5) -> ScalarField:
    """Signed mixture of gauge-ish bumps; smooth and mask-supported."""
    xs, ys, ts = domain.grid.coordinate_arrays()
    k = domain.ball_radius
    vals = np.zeros(domain.grid.shape)
    for _ in range(n_bumps):
        cx, cy = rng.uniform(-0.4 * k, 0.4 * k, 2)
        ct = rng.uniform(-0.4 * k * k, 0.4 * k * k)
        w = rng.uniform(0.4, 1.2)
        amp = rng.uniform(-1.0, 1.0)
        r4 = ((xs - cx) ** 2 + (ys - cy) ** 2) ** 2 + (ts - ct) ** 2
        vals = vals + amp * np.exp(-np.sqrt(r4 + 1e-300) / w**2)
    return ScalarField(domain.grid, np.where(domain.mask, vals, 0.0), domain.mask)


# ---------------------------------------------------------------------------
# Quadrature and critical-point oracles
# ---------------------------------------------------------------------------


def midpoint_integral(u: ScalarField) -> float:
    """Midpoint rule: cell volume times the sum over (masked-in) nodes."""
    return float(u.values.sum()) * u.grid.cell_volume


def identity_defect(u: ScalarField, p: float) -> float:
    """J(u) - (p-1)/(2(p+1)) ||u||^2; vanishes exactly at critical points."""
    return eval_J(u, p) - (p - 1.0) / (2.0 * (p + 1.0)) * e_norm_sq(u)


# ---------------------------------------------------------------------------
# A broken Y flow, for checking that the calculus suite catches it
# ---------------------------------------------------------------------------


def flip_y_twist(monkeypatch) -> None:
    """Give the Y flow the twist +2 s x in t in place of -2 s x, which
    breaks [X, Y] = -4 d/dt while X and T stay intact."""
    from heisground import heis_core

    original = heis_core._flow

    def flow(z, field_id, s):
        w = original(z, field_id, s)
        if field_id != "Y":
            return w
        return heis_core.GroupPoint(w.x, w.y, z.t + 2 * s * z.x)

    monkeypatch.setattr(heis_core, "_flow", flow)


# ---------------------------------------------------------------------------
# The operator oracle: A = B^T B + I by scipy's sparse product
# ---------------------------------------------------------------------------


def kronecker_gradient(grid, mask):
    """B = [X_h; Y_h] by Kronecker products of the 1-D forward differences
    (u[+1] - u) / h, with u = 0 beyond the box edge: X_h = D_x + diag(2y) D_t
    and Y_h = D_y - diag(2x) D_t, keeping the mask columns.  It reads no
    code of the package, so it checks the stencil (`test_grid`) and gives
    the operator oracle its B."""
    from scipy import sparse

    (nx, ny, nt), (hx, hy, ht) = grid.shape, grid.spacing
    cols = np.flatnonzero(mask)

    def diff(before, n, h, after):
        d = sparse.diags_array([np.full(n, -1.0 / h), np.full(n - 1, 1.0 / h)],
                               offsets=[0, 1])
        return sparse.kron(sparse.kron(sparse.eye_array(before), d),
                           sparse.eye_array(after), format="csr")[:, cols]

    xs, ys, _ = grid.coordinate_arrays()
    dt = diff(nx * ny, nt, ht, 1)
    gx = diff(1, nx, hx, ny * nt) + sparse.diags_array(
        np.broadcast_to(2.0 * ys, grid.shape).ravel()) @ dt
    gy = diff(nx, ny, hy, nt) - sparse.diags_array(
        np.broadcast_to(2.0 * xs, grid.shape).ravel()) @ dt
    B = sparse.vstack([gx, gy], format="csr")
    B.sort_indices()
    return B


def oracle_operator(g, mask):
    """A = B^T B + I on the mask nodes in C order, by scipy's sparse product
    of `kronecker_gradient` with itself."""
    from scipy import sparse

    B = kronecker_gradient(g, mask)
    return (B.T @ B + sparse.eye_array(B.shape[1])).tocsr()


def scipy_array(piece):
    """scipy's csr_array or csc_array of the arrays of a compressed piece of
    the colour order (`grid._Compressed`: L, U or one of their colour
    pieces), for the tests' sparse algebra against the oracle."""
    from scipy import sparse

    kind = {"csr": sparse.csr_array, "csc": sparse.csc_array}[piece.format]
    return kind((piece.data, piece.indices, piece.indptr), shape=piece.shape)


def colour_perm(order, mask):
    """The index among the mask nodes, in C order, of each position of the
    colour order `order`: the permutation that takes the oracle's C-order A
    to the colour order."""
    return order.colour(np.cumsum(mask.reshape(-1)) - 1)


def oracle_lower(a, colour, perm):
    """The CSR arrays (data, indices, indptr) of the strictly lower part of
    the C-order A in the colour order perm, where colour is each node's
    colour: A's rows in that order, each row's entries in its nodes' C
    order, those of a lower colour kept at their positions."""
    rows = a[perm]
    row = np.repeat(np.arange(perm.size), np.diff(rows.indptr))  # of each entry
    keep = colour[rows.indices] < colour[perm][row]
    pos = np.empty_like(perm)
    pos[perm] = np.arange(perm.size)
    indptr = np.zeros(perm.size + 1, dtype=rows.indptr.dtype)
    np.cumsum(np.bincount(row[keep], minlength=perm.size), out=indptr[1:])
    return rows.data[keep], pos[rows.indices[keep]].astype(rows.indices.dtype), indptr


# ---------------------------------------------------------------------------
# The inertia oracle: the Hessian's negative count by Sylvester's law
# ---------------------------------------------------------------------------

# `inertia_count` trusts a factorization only while every pivot is at least
# this in magnitude; on the states of the tests they are 2.6-14.
INERTIA_PIVOT_FLOOR = 1e-6


def inertia_count(g, mask, values, p, sigma=0.0):
    """The number of eigenvalues below sigma of the Hessian H = A -
    diag(p u_+^(p-1)) at the state u of box array values, by Sylvester's law
    of inertia: an independent check of the solvers' Morse index.

    H - sigma I is built on the mask nodes in C order from
    `oracle_operator`, which reads no package code, and factored by SuperLU
    with one symmetric permutation and diagonal pivots, P (H - sigma I) P^T
    = L U with L unit lower triangular.  For a symmetric matrix U = D L^T,
    so H - sigma I is congruent to D = diag(U), and the count is D's
    negative entries.  A row interchange or a pivot below
    INERTIA_PIVOT_FLOOR would void the congruence, so neither is allowed.
    """
    from scipy import sparse
    from scipy.sparse.linalg import splu

    u = np.maximum(values[mask], 0.0)
    h = oracle_operator(g, mask) - sparse.diags_array(p * u ** (p - 1.0) + sigma)
    lu = splu(h.tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
              options={"SymmetricMode": True})
    assert np.array_equal(lu.perm_r, lu.perm_c)
    pivots = lu.U.diagonal()
    assert np.abs(pivots).min() >= INERTIA_PIVOT_FLOOR
    return int(np.sum(pivots < 0.0))
