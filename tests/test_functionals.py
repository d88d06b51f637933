"""Energies, exact gradients, Nehari scaling, critical identity."""

import numpy as np
import pytest

from heisground.errors import ConfigurationError, DomainError
from heisground.functionals import (
    _constraint_mass,
    check_exponent,
    energy_breakdown,
    eval_I,
    eval_J,
    grad_J,
    nehari_scale,
    residual,
)
from heisground.grid import (
    ScalarField,
    ball_mask,
    build_ball_grid,
    e_norm_sq,
    inner,
    l2_norm,
    lq_norm,
    zero_extend,
)

from conftest import identity_defect, make_random_smooth_field

P = 2.0


@pytest.fixture(scope="module")
def setup():
    grid, mask = build_ball_grid(2.0, 12)
    rho = grid.gauge_array()
    bump = ScalarField(grid, np.exp(-rho * rho), mask)
    return grid, mask, bump


class TestEnergies:
    def test_zero_field(self, setup):
        grid, mask, _ = setup
        z = ScalarField(grid, np.zeros(grid.shape), mask)
        assert eval_J(z, P) == 0.0
        assert eval_I(z) == 0.0
        assert np.all(grad_J(z, P).values == 0.0)
        assert np.all(residual(z, P).values == 0.0)

    def test_exponent_gate(self, setup):
        _, _, bump = setup
        for bad in (1.0, 3.0, 0.5, 4.0):
            with pytest.raises(ConfigurationError):
                eval_J(bump, bad)
        check_exponent(2.5)  # no raise

    def test_ray_formula(self, setup):
        _, _, bump = setup
        nsq = e_norm_sq(bump)
        mass = lq_norm(bump, P + 1.0) ** (P + 1.0)
        for t in np.linspace(0.1, 2.0, 8):
            expected = 0.5 * t * t * nsq - t ** (P + 1.0) * mass / (P + 1.0)
            got = eval_J(bump.with_values(t * bump.values), P)
            assert got == pytest.approx(expected, rel=1e-12)

    def test_ray_sign_change(self, setup):
        _, _, bump = setup
        small = eval_J(bump.with_values(1e-3 * bump.values), P)
        large = eval_J(bump.with_values(1e3 * bump.values), P)
        assert small > 0.0
        assert large < 0.0

    def test_zero_extension_invariance(self, setup):
        grid, _, _ = setup
        rng = np.random.default_rng(21)
        m1 = ball_mask(grid, 1.2)
        m2 = ball_mask(grid, 2.0)
        u = ScalarField(grid, rng.standard_normal(grid.shape), m1)
        v = zero_extend(u, m2)
        assert eval_J(u, P) == eval_J(v, P)
        assert eval_I(u) == eval_I(v)
        # the residual picks up support on the newly interior annulus
        # nodes (their stencils reach the old interior), so its norm can
        # only grow under extension
        assert l2_norm(residual(v, P)) >= l2_norm(residual(u, P))


class TestGradient:
    def test_central_difference_match(self):
        from heisground.solvers import SolverConfig, make_domain

        dom = make_domain(SolverConfig(ball_radius=2.0, nodes_per_axis=12))
        rng = np.random.default_rng(4)
        eps = 1e-4
        worst = 0.0
        for _ in range(10):
            u = make_random_smooth_field(dom, rng)
            v = make_random_smooth_field(dom, rng)
            g = inner(grad_J(u, P), v)
            jp = eval_J(u.with_values(u.values + eps * v.values), P)
            jm = eval_J(u.with_values(u.values - eps * v.values), P)
            fd = (jp - jm) / (2.0 * eps)
            worst = max(worst, abs(g - fd) / max(1.0, abs(g)))
        assert worst <= 1e-6

    def test_residual_is_negated_gradient(self, setup):
        _, _, bump = setup
        r = residual(bump, P)
        g = grad_J(bump, P)
        assert np.allclose(r.values, -g.values, atol=1e-12)


class TestNehari:
    def test_unit_normalization(self, setup):
        _, _, bump = setup
        # scale so that ||u|| = 1, then renormalize mass to 1 via exponent play
        u = bump.with_values(bump.values / e_norm_sq(bump) ** 0.5)
        nsq = e_norm_sq(u)
        mass = lq_norm(u, P + 1.0) ** (P + 1.0)
        t_star, j_max = nehari_scale(u, P)
        assert t_star == pytest.approx((nsq / mass) ** (1.0 / (P - 1.0)), rel=1e-12)
        scan = [
            eval_J(u.with_values(t * u.values), P)
            for t in np.linspace(0.25, 2.0, 15) * t_star
        ]
        assert j_max >= max(scan) - 1e-12

    def test_scaling_invariance(self, setup):
        _, _, bump = setup
        _, j1 = nehari_scale(bump, P)
        _, j2 = nehari_scale(bump.with_values(3.7 * bump.values), P)
        assert j1 == pytest.approx(j2, rel=1e-12)

    def test_rejects_nonpositive_mass(self, setup):
        grid, mask, bump = setup
        neg = bump.with_values(-bump.values)
        with pytest.raises(DomainError):
            nehari_scale(neg, P)

    def test_ray_unimodality(self, setup):
        _, _, bump = setup
        t_star, _ = nehari_scale(bump, P)
        ts = np.linspace(0.05, 3.0, 60) * t_star
        js = np.array([eval_J(bump.with_values(t * bump.values), P) for t in ts])
        d = np.sign(np.diff(js))
        # one sign change: increasing then decreasing
        assert np.sum(np.diff(d) != 0) == 1


class TestIdentityAndBreakdown:
    def test_zero_defect_for_zero(self, setup):
        grid, mask, _ = setup
        z = ScalarField(grid, np.zeros(grid.shape), mask)
        assert identity_defect(z, P) == 0.0

    def test_generic_nonzero(self, setup):
        _, _, bump = setup
        assert abs(identity_defect(bump, P)) > 1e-8

    def test_breakdown_invariants(self, setup):
        _, _, bump = setup
        bd = energy_breakdown(bump, P)
        assert bd.I == pytest.approx(bd.e_norm_sq / 2.0, rel=1e-13)
        assert bd.J == pytest.approx(
            bd.I - bd.lp1_norm ** (P + 1.0) / (P + 1.0), rel=1e-12
        )
        assert bd.p == P
        assert bd.as_dict() == {
            "J": bd.J,
            "I": bd.I,
            "e_norm_sq": bd.e_norm_sq,
            "lp1_norm": bd.lp1_norm,
            "residual_l2": bd.residual_l2,
            "p": bd.p,
        }


@pytest.mark.parametrize("p", [1.5, 2.0, 2.5, 2.9])
def test_constraint_mass_keeps_its_products(p):
    # int u_+^(p+1) is summed as before the power rule moved to `grid`: at
    # p = 2 the cube is (u_+ u_+) u_+, elsewhere numpy's general power.
    rng = np.random.default_rng(8)
    v = rng.standard_normal(3000) * 10.0 ** rng.uniform(-100.0, 2.0, 3000)
    w = 0.37
    up = np.maximum(v, 0.0)
    if p == 2.0:
        cube = up * up
        cube *= up
        want = float(cube.sum()) * w
    else:
        want = float(np.sum(up ** (p + 1.0))) * w
    assert _constraint_mass(v, p, w) == want
