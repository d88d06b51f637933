"""Shared fixtures.

The desk-scale solves (k = 6, N = 48) are expensive, so they are computed
once per session and shared between the acceptance criteria.  Each heavy
fixture also records its wall-clock time for the runtime budgets.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from heisground.grid import ScalarField
from heisground.solvers import (
    Domain,
    SolverConfig,
    exhaust_domains,
    make_domain,
    nehari_descent,
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
def nd_run(desk_config, desk_domain):
    return _timed(nehari_descent, desk_config, domain=desk_domain)


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


@pytest.fixture(scope="session")
def small_nd(small_config, small_domain):
    return nehari_descent(small_config, domain=small_domain)


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
# A broken Y flow, for checking that the calculus suite catches it
# ---------------------------------------------------------------------------


def flip_y_twist(monkeypatch) -> None:
    """Give the Y_i flow the twist +2 s x_i in t in place of -2 s x_i, which
    breaks [X, Y] = -4 d/dt while X and T stay intact."""
    from heisground import heis_core

    original = heis_core._flow

    def flow(z, field_id, s):
        w = original(z, field_id, s)
        if field_id[0].upper() != "Y":
            return w
        i = int(field_id[1:] or 1) - 1
        return heis_core.GroupPoint(w.x, w.y, z.t + 2 * s * z.x[i])

    monkeypatch.setattr(heis_core, "_flow", flow)
