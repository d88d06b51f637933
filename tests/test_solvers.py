"""Solvers on a small, fast instance; full-scale runs live in acceptance."""

from dataclasses import replace
from unittest.mock import ANY

import numpy as np
import pytest

from conftest import (colour_perm, identity_defect, inertia_count, make_random_smooth_field,
                      oracle_operator, traced_peak)
from heisground import solvers
from heisground.errors import (
    ConfigurationError,
    DomainError,
    InsufficientDataError,
    NumericError,
)
from heisground.functionals import (
    _pos_pow,
    eval_J,
    grad_J,
    nehari_scale,
)
from heisground.grid import (
    Grid3,
    ScalarField,
    _by_rows,
    _ColourOrder,
    ball_mask,
    build_ball_grid,
    l2_norm,
    zero_extend,
)
from heisground.solvers import (
    Domain,
    SolverConfig,
    _Energy,
    _morse_index,
    _newton_polish,
    _ray_descent,
    compare_methods,
    exhaust_domains,
    fit_decay,
    make_domain,
    radial_bump,
    solve_constrained_min,
    solve_mountain_pass,
)


# c_k of the ground state on the k = 2.5, N = 12 ball
GROUND_LEVEL_K2_5_N12 = 50.63977815766826


def _origin_bump(domain):
    """The gauge bump exp(-rho^2) centered at the origin, halfway between the
    t-nodes +-h_t/2: symmetric about the midpoint that `radial_bump` avoids."""
    rho = domain.grid.gauge_array()
    return ScalarField(domain.grid, np.exp(-rho * rho), domain.mask)


def _k2_ball_of_the_desk_grid():
    """(config, domain): the k = 2 ball of the 48^3 grid of k = 6, grad_tol 1e-4."""
    cfg = SolverConfig(p=2.0, ball_radius=6.0, nodes_per_axis=48, grad_tol=1e-4)
    grid = make_domain(cfg).grid
    return cfg, Domain(grid, ball_mask(grid, 2.0), 2.0)


class TestConfig:
    @pytest.mark.parametrize("name, value", [("nodes_per_axis", 12.5), ("nodes_per_axis", 12.0),
                                             ("max_iters", 2.5), ("max_iters", "5")])
    def test_rejects_non_integral_counts(self, name, value):
        # 12.5 nodes per axis made 13-node axes; 2.5 iterations raised a
        # TypeError inside the descent
        with pytest.raises(ConfigurationError, match=f"{name} must be an integer"):
            SolverConfig(**{name: value})
        with pytest.raises(ConfigurationError, match=f"{name} must be an integer"):
            replace(SolverConfig(), **{name: value})

    def test_accepts_numpy_integers(self):
        cfg = SolverConfig(nodes_per_axis=np.int64(12), max_iters=np.int32(5))
        assert make_domain(cfg).grid.shape == (12, 12, 12)

    @pytest.mark.parametrize("name", ["p", "ball_radius", "grad_tol", "nodes_per_axis",
                                      "max_iters"])
    @pytest.mark.parametrize("value", [True, "4", "2", None, 1j])
    def test_takes_numbers_by_the_grid_rule(self, name, value):
        # A bool was accepted as 1 (ball_radius, grad_tol, max_iters), and a
        # string or None raised TypeError from a comparison; `_real`, the
        # rule of Grid3 and GroupPoint, refuses both.
        kind = "an integer" if name in ("nodes_per_axis", "max_iters") else "a real number"
        with pytest.raises(ConfigurationError, match=f"{name} must be {kind}"):
            SolverConfig(**{name: value})

    @pytest.mark.parametrize("name, value", [("p", np.float64(2.5)), ("p", np.float32(1.5)),
                                             ("ball_radius", np.float64(3.0)),
                                             ("grad_tol", np.float32(1e-4)),
                                             ("nodes_per_axis", np.int16(12)),
                                             ("max_iters", np.uint8(9))])
    def test_accepts_numpy_scalars(self, name, value):
        assert getattr(SolverConfig(**{name: value}), name) == value

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SolverConfig(p=3.0)
        with pytest.raises(ConfigurationError):
            SolverConfig(ball_radius=float("nan"))
        with pytest.raises(ConfigurationError):
            SolverConfig(max_iters=0)
        with pytest.raises(ConfigurationError):
            replace(SolverConfig(), nodes_per_axis=4)
        SolverConfig()

    @pytest.mark.parametrize("k", [3e-38, 1e-40, 1e-74, 1e-76])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_rejects_radius_whose_operator_scale_overflows(self, k):
        # build_ball_grid accepts these, but b^8 (b ~ 1.5 N / k) is not finite
        build_ball_grid(k, 8)
        with pytest.raises(ConfigurationError, match="out of range"):
            make_domain(SolverConfig(ball_radius=k, nodes_per_axis=8))

    @pytest.mark.parametrize("k", [3.4e-38, 1e-20, 1e76])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_accepts_radius_whose_operator_scale_is_finite(self, k):
        assert make_domain(SolverConfig(ball_radius=k, nodes_per_axis=8)).mask.any()

    @pytest.mark.parametrize("p, k", [(1.01, 0.5), (1.01, 1e-3), (1.1, 3e-7), (1.1, 1e-10),
                                      (1.5, 8e-26)])
    def test_rejects_radius_whose_ground_state_overflows(self, p, k):
        # the amplitude (1 + 10/k^2)^(1/(p-1)) outgrows b near p = 1
        with pytest.raises(ConfigurationError, match="at p = .*scale .b.2 a.*overflows"):
            make_domain(SolverConfig(p=p, ball_radius=k, nodes_per_axis=8))

    @pytest.mark.parametrize("p, k", [(1.01, 0.6), (1.1, 4e-7), (1.5, 1.1e-25)])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_radius_just_inside_the_amplitude_bound_solves(self, p, k):
        rep = solve_constrained_min(SolverConfig(p=p, ball_radius=k, nodes_per_axis=8,
                                                 max_iters=50))
        assert np.isfinite(rep.level) and np.isfinite(rep.max_value)
        assert np.isfinite(rep.extra["residual_rel"])


class TestPickU0:
    def test_zero_extension_keeps_energy(self, small_config):
        grid, _ = build_ball_grid(2.5, 12)
        m_small = ball_mask(grid, 1.5)
        m_big = ball_mask(grid, 2.5)
        bump = radial_bump(Domain(grid, m_small, 1.5))
        u0 = bump.with_values(16 * bump.values)
        j1 = eval_J(u0, small_config.p)
        j2 = eval_J(zero_extend(u0, m_big), small_config.p)
        assert j1 == j2


class TestConstrainedMin:
    def test_converged(self, small_cm):
        assert small_cm.converged
        assert small_cm.method == "constrained-min"

    def test_constraint_defect(self, small_cm):
        assert small_cm.extra["constraint_defect"] < 1e-10

    def test_alpha_positive(self, small_cm):
        assert small_cm.level > 0.0
        assert small_cm.multiplier == pytest.approx(2.0 * small_cm.level, rel=1e-12)

    def test_residual(self, small_cm):
        assert small_cm.extra["residual_rel"] < 1e-3

    def test_positivity(self, small_cm, small_domain):
        vals = small_cm.field.values[small_domain.mask]
        assert vals.min() >= 0.0
        bulk = small_domain.grid.gauge_array() < 0.7 * small_domain.ball_radius
        assert small_cm.field.values[bulk & small_domain.mask].min() > 0.0

    def test_descent_monotone(self, small_cm):
        energies = [e for _, e, _ in small_cm.trace]
        diffs = np.diff(energies)
        assert diffs.max() <= 1e-10

    def test_iterations_do_not_grow_with_the_mesh(self):
        # The L^2 flow took 6166 steps here (1016 at N = 12), and stopped at
        # a slightly higher local minimum, 3.566106562585406.  The nonlinear
        # CG preconditioned by the colour sweep takes 40 iterations here (22
        # at N = 12, 39 at the desk size), one operator product each; by
        # diag(A)^-1 it took 94 (49, 99).
        l2_alpha = 3.566106562585406
        rep = solve_constrained_min(
            SolverConfig(p=2.0, ball_radius=4.0, nodes_per_axis=32, grad_tol=1e-5)
        )
        assert rep.converged and rep.extra["stop_reason"] == "grad_tol"
        assert rep.iterations < 50
        # 42: the start, 39 steps, an exact refresh after step 20 and the one
        # before the grad_tol exit; Jacobi took 99, the inner-outer scheme
        # 296 (17 steps, 263 CG iterations)
        assert rep.extra["operator_products"] < 50
        assert rep.level <= l2_alpha
        assert rep.level == pytest.approx(l2_alpha, rel=1e-6)

    def test_stall_below_the_rounding_floor(self, small_config, small_domain):
        # On this ball I reaches its rounding floor near |g| = 1e-7, and |g|
        # its own near 1e-14: 93 iterations and 98 operator products (226
        # with diag(A)^-1, 899 with the inner-outer scheme).
        rep = solve_constrained_min(replace(small_config, grad_tol=1e-15), domain=small_domain)
        assert not rep.converged
        assert rep.extra["stop_reason"] == "stall"
        assert rep.extra["operator_products"] < 250
        assert rep.extra["grad_norm"] < 1e-13

    def test_max_iters(self, small_config, small_domain):
        rep = solve_constrained_min(replace(small_config, max_iters=5), domain=small_domain)
        assert (rep.converged, rep.iterations, len(rep.trace)) == (False, 5, 5)
        assert rep.extra["stop_reason"] == "max_iters"
        assert rep.extra["grad_norm"] == rep.trace[-1][2]

    def test_p_near_one(self):
        # 50 iterations and 53 operator products (115 with diag(A)^-1; the
        # inner-outer scheme took 27 steps and 275 products, the plain step
        # alone 243 steps).
        rep = solve_constrained_min(SolverConfig(p=1.5, ball_radius=2.5, nodes_per_axis=12,
                                                 grad_tol=1e-5))
        assert rep.converged and rep.extra["stop_reason"] == "grad_tol"
        assert rep.extra["operator_products"] < 150
        assert rep.level == pytest.approx(2.56302300909164, rel=1e-9)

    def test_both_reports_count_operator_products(self, small_cm, small_mp):
        # One descent from one bump: the start's A v, one A d per step, the
        # exact A v after step 20 and before the grad_tol exit.
        for rep in (small_cm, small_mp):
            assert (rep.iterations, rep.extra["operator_products"]) == (22, 24)

    @staticmethod
    def _rising_steps(monkeypatch, rise, calls=None):
        """Make the line search report that its step raises log R by `rise`,
        on every call or on the calls numbered in `calls` (from 1); returns
        the (v, d, other arguments) of every call."""
        line_min = solvers._line_min
        directions = []

        def rising(p, v, d, *args):
            directions.append((v.copy(), d.copy(), args))
            tau, change, x, terms = line_min(p, v, d, *args)
            if calls is None or len(directions) in calls:
                change = rise
            return tau, change, x, terms

        monkeypatch.setattr(solvers, "_line_min", rising)
        return directions

    def test_rising_step_ends_the_solve(self, small_config, small_domain, monkeypatch):
        # The first step is along -P already, so there is nothing to retry.
        self._rising_steps(monkeypatch, 1e-12)
        rep = solve_constrained_min(small_config, domain=small_domain)
        assert not rep.converged
        assert rep.extra["stop_reason"] == "no_descent"
        assert rep.iterations == 1 and len(rep.trace) == 1
        assert rep.extra["operator_products"] == 2
        assert np.isfinite(rep.level) and rep.extra["constraint_defect"] < 1e-12

    def test_rising_cg_step_is_retried_along_minus_p(self, small_config, small_domain,
                                                       monkeypatch):
        # The second search (step 1, along the CG direction) rises; the third
        # is along -P of the same iterate (P = M^-1 G for the colour sweep M,
        # G a positive multiple of A v - (v^T A v / M) v_+^p, all in colour
        # order), and the descent goes on to converge.
        energy = _Energy(small_domain, small_config.p)
        directions = self._rising_steps(monkeypatch, 1e-12, calls={2})
        rep = solve_constrained_min(small_config, domain=small_domain)
        assert rep.converged and rep.extra["operator_products"] > rep.iterations
        (v1, d1, _), (v2, d2, (n_v, _, _, m, normal, _)) = directions[1:3]
        assert np.array_equal(v1, v2) and not np.allclose(d1, d2)
        minus_p = -energy.order.sweep(energy.order.product(v2) - n_v / m * normal)[0]
        ratio = float(d2 @ minus_p) / float(minus_p @ minus_p)
        assert ratio > 0.0
        np.testing.assert_allclose(d2, ratio * minus_p, rtol=1e-9,
                                   atol=1e-9 * np.abs(d2).max())

    def test_rise_along_both_directions_ends_the_solve(self, small_config, small_domain,
                                                         monkeypatch):
        # Products: the start, the A P of steps 0 and 1 (the search along -P
        # reuses step 1's), and the exact A v of the returned iterate.
        self._rising_steps(monkeypatch, 1e-12, calls={2, 3})
        rep = solve_constrained_min(small_config, domain=small_domain)
        assert not rep.converged and rep.extra["stop_reason"] == "no_descent"
        assert rep.iterations == 2 and rep.extra["operator_products"] == 4
        assert np.isfinite(rep.level) and rep.extra["constraint_defect"] < 1e-12

    @pytest.mark.parametrize("calls, converged", [({2}, True), ({2, 3}, False)],
                             ids=["cg-step-retried", "both-rise"])
    def test_search_along_minus_p_makes_no_sweep(self, small_config, small_domain,
                                                  monkeypatch, calls, converged):
        # A step sweeps once, and the search along -P after a rising CG step
        # reads that sweep's P and A P: one sweep per iteration that takes a
        # step (all but a converged solve's last) and one search more than
        # sweeps.
        sweep, sweeps = _ColourOrder.sweep, []

        def counted(order, g):
            sweeps.append(g.shape)
            return sweep(order, g)

        monkeypatch.setattr(_ColourOrder, "sweep", counted)
        directions = self._rising_steps(monkeypatch, 1e-12, calls=calls)
        rep = solve_constrained_min(small_config, domain=small_domain)
        assert rep.converged is converged
        assert len(sweeps) == rep.iterations - converged
        assert len(directions) == len(sweeps) + 1

    def test_origin_bump_reaches_the_ground_state(self, monkeypatch):
        # The colour order of the sweep breaks the t-reflection symmetry of
        # the origin-centered bump, so the descent from it reaches the ground
        # state (in 60 iterations).  Preconditioned by diag(A)^-1 it lingered
        # by the symmetric critical point and landed on the mirror state,
        # peaked at t = +h_t/2, at 3.5661065625 after 260.
        monkeypatch.setattr(solvers, "radial_bump", _origin_bump)
        rep = solve_constrained_min(SolverConfig(p=2.0, ball_radius=4.0, nodes_per_axis=32,
                                                 grad_tol=1e-5))
        assert rep.extra["stop_reason"] == "grad_tol"
        assert rep.level == pytest.approx(3.5661056272, rel=1e-9)

    def test_rise_within_rounding_is_accepted(self, small_config, small_domain, monkeypatch):
        # 64 ulps of I ~ 3.4 is 4.8e-14, and of log R 1.4e-14.
        self._rising_steps(monkeypatch, 1e-14)
        rep = solve_constrained_min(small_config, domain=small_domain)
        assert rep.converged and (rep.iterations, rep.extra["operator_products"]) == (22, 24)

    def test_non_finite_step_raises(self, small_config, small_domain, monkeypatch):
        self._rising_steps(monkeypatch, np.nan)
        with pytest.raises(NumericError):
            solve_constrained_min(small_config, domain=small_domain)


def _t_resolved_domain(k, n, n_t):
    """The ball of radius k on an n x n x n_t box over [-k, k]^2 x [-k^2, k^2]."""
    grid = Grid3((n, n, n_t), (2.0 * k / n, 2.0 * k / n, 2.0 * k * k / n_t), (-k, -k, -k * k))
    return Domain(grid, ball_mask(grid, k), k)


class TestTResolvedGrids:
    """Constrained-min on hand-built grids with more t-nodes than x-nodes,
    where the soft translation modes of the ground state slow the descent."""

    # alpha on (k, N, N_t) = (4, 32, 64), and the relative tolerance it is
    # held to, declared before the run
    ALPHA_4_32_64 = 3.7305916364
    ALPHA_REL_TOL = 1e-9

    def test_alpha_on_4_32_64(self):
        # 65 iterations, 69 operator products (158 and 166 with diag(A)^-1;
        # the inner-outer scheme took 35 steps and 702 products)
        rep = solve_constrained_min(SolverConfig(p=2.0, ball_radius=4.0, grad_tol=1e-5),
                                    domain=_t_resolved_domain(4.0, 32, 64))
        assert rep.converged and rep.extra["stop_reason"] == "grad_tol"
        assert rep.level == pytest.approx(self.ALPHA_4_32_64, rel=self.ALPHA_REL_TOL)

    def test_h_t_equal_to_h_x_converges_in_few_products(self):
        # (3, 24, 72): 266 iterations, 280 operator products (595 and 625
        # with diag(A)^-1; the inner-outer scheme took 500 steps and 6554
        # products)
        rep = solve_constrained_min(SolverConfig(p=2.0, ball_radius=3.0, grad_tol=1e-5),
                                    domain=_t_resolved_domain(3.0, 24, 72))
        assert rep.converged and rep.extra["stop_reason"] == "grad_tol"
        assert rep.extra["operator_products"] < 1000
        assert rep.level == pytest.approx(3.782997863237922, rel=1e-8)


class TestMountainPass:
    def test_converged_positive_level(self, small_mp):
        assert small_mp.converged
        assert small_mp.extra["stop_reason"] == "grad_tol"
        assert small_mp.level > 0.0

    def test_max_iters(self, small_config, small_domain):
        # The budget ends the descent after 3 steps; an unconverged descent
        # is not polished, and grad_norm is |grad J| at its Nehari scaling.
        rep = solve_mountain_pass(replace(small_config, max_iters=3), domain=small_domain)
        assert (rep.converged, rep.iterations) == (False, 3)
        assert rep.extra["stop_reason"] == "max_iters"
        assert rep.extra["grad_norm"] > 1e-3

    def test_criticality(self, small_mp, small_config):
        u = small_mp.field
        gn = l2_norm(grad_J(u, small_config.p))
        assert gn < 10.0 * small_config.grad_tol
        assert abs(small_mp.extra["inner_gu"]) < 1e-6 * small_mp.level
        defect = identity_defect(u, small_config.p)
        assert abs(defect) < 1e-6 * small_mp.level

    def test_level_matches_field_energy(self, small_mp, small_config):
        assert eval_J(small_mp.field, small_config.p) == pytest.approx(
            small_mp.level, rel=1e-6
        )

    def test_path_is_admissible(self, small_mp, small_config):
        # The path through the result is its ray, which peaks at s = 1 at
        # the reported level.
        assert nehari_scale(small_mp.field, small_config.p) == pytest.approx(
            (1.0, small_mp.level), rel=1e-9
        )

    def test_warm_start_from_own_path(self, small_mp, small_config, small_domain):
        # The top of the ray through the converged point is that point, so a
        # re-solve from it stops at its first gradient test.
        rep = solve_mountain_pass(small_config, domain=small_domain, u0=small_mp.field)
        assert (rep.converged, rep.iterations) == (True, 1)
        assert rep.level == pytest.approx(small_mp.level, rel=1e-12)

    def test_agrees_with_nehari_oracle(self, small_mp, small_cm, small_config):
        # Constrained-min's state minimizes I on the constraint, and so the
        # ray maximum: the top of its ray is the Nehari level.
        oracle = nehari_scale(small_cm.field, small_config.p)[1]
        assert abs(oracle - small_mp.level) / small_mp.level < 1e-8


class TestNewtonPolish:
    def test_reaches_the_rounding_floor(self, small_domain, small_config):
        energy = _Energy(small_domain, small_config.p)
        v, *_ = _ray_descent(energy, energy.order.colour(radial_bump(small_domain).values),
                             1e-3, 1000, [])
        w0 = energy.ray_max(v)[0] * v
        start = energy.norm(energy.grad(w0))
        w, gn, minres_iterations = _newton_polish(energy, w0)
        assert start > 1e-4 and gn <= 1e-11
        assert gn == energy.norm(energy.grad(w))
        assert len(minres_iterations) >= 2 and all(i > 0 for i in minres_iterations)

    @pytest.mark.parametrize("scale", [0.5, 1.0, 2.0])
    def test_never_raises_the_gradient(self, small_domain, small_config, scale):
        # Far from a critical point Newton need not converge, but no step
        # the line search accepts raises |G|.
        energy = _Energy(small_domain, small_config.p)
        v = energy.order.colour(radial_bump(small_domain).values)
        w0 = scale * energy.ray_max(v)[0] * v
        w, gn, _ = _newton_polish(energy, w0)
        assert np.isfinite(gn) and gn <= energy.norm(energy.grad(w0))

    def test_index_one_at_the_ground_state(self, small_mp, small_domain, small_config):
        energy = _Energy(small_domain, small_config.p)
        w = energy.order.colour(small_mp.field.values)
        index, eigs, vecs, iterations = _morse_index(energy, w)
        assert index == 1 and len(eigs) == 3 and vecs.shape == (energy.order.node.size, 3)
        assert 0 < iterations < solvers._LOBPCG_MAX_ITERS
        assert eigs[0] < -1.0 < 0.5 < eigs[1] <= eigs[2]

    def test_index_zero_where_the_hessian_is_a(self, small_domain, small_config):
        # With no positive part, H = A, whose spectrum lies above 1.
        energy = _Energy(small_domain, small_config.p)
        w = -energy.order.colour(radial_bump(small_domain).values)
        index, eigs, *_ = _morse_index(energy, w)
        assert index == 0 and eigs[0] > 1.0

    @pytest.mark.parametrize("k, n", [(2.5, 12), (3.0, 20)])
    def test_index_is_the_inertia_of_the_hessian(self, k, n):
        # Sylvester's law of inertia counts the oracle Hessian's eigenvalues
        # below a shift from a factorization, without LOBPCG or the package's
        # operator: one below 0, and two below the midpoint of LOBPCG's
        # second and third eigenvalues.
        cfg = SolverConfig(p=2.0, ball_radius=k, nodes_per_axis=n, grad_tol=1e-4)
        dom = make_domain(cfg)
        u = solve_mountain_pass(cfg, domain=dom).field.values
        energy = _Energy(dom, cfg.p)
        index, eigs, *_ = _morse_index(energy, energy.order.colour(u))
        assert index == inertia_count(dom.grid, dom.mask, u, cfg.p) == 1
        assert inertia_count(dom.grid, dom.mask, u, cfg.p, sigma=0.5 * (eigs[1] + eigs[2])) == 2

    @pytest.mark.parametrize("k, nodes", [(2.0, 9), (0.9, 1)])
    def test_index_on_a_ball_below_twenty_nodes(self, k, nodes):
        # Below five of LOBPCG's blocks of 4, scipy solves densely and
        # returns no residual history; the index is still the inertia, and
        # no LOBPCG iteration is reported.
        grid = build_ball_grid(6.0, 9)[0]
        dom = Domain(grid, ball_mask(grid, k), k)
        assert np.count_nonzero(dom.mask) == nodes
        cfg = SolverConfig(p=2.0, ball_radius=k, nodes_per_axis=9, grad_tol=1e-4)
        cmp = compare_methods(cfg, domain=dom)
        u = cmp.mountain_pass.field.values
        assert cmp.morse_index == inertia_count(dom.grid, dom.mask, u, cfg.p) == 1
        assert cmp.mountain_pass.extra["index_lobpcg_iterations"] == 0

    def test_polish_and_index_are_preconditioned_by_the_sweep(
            self, small_mp, small_domain, small_config, monkeypatch):
        # The polish sweeps one vector per MINRES iteration, and the index
        # LOBPCG's whole block of residuals at once.
        calls = []
        half_sweeps = _ColourOrder.half_sweeps

        def counting(self, g):
            calls.append(g.shape)
            return half_sweeps(self, g)

        monkeypatch.setattr(_ColourOrder, "half_sweeps", counting)
        energy = _Energy(small_domain, small_config.p)
        w = energy.order.colour(small_mp.field.values)
        m = w.size
        _, _, minres_iterations = _newton_polish(energy, 1.01 * w)
        polish = len(calls)
        assert set(calls) == {(m,)}
        assert polish >= sum(minres_iterations) > 0
        assert _morse_index(energy, w)[0] == 1
        index = set(calls[polish:])
        assert index and all(len(shape) == 2 and shape[0] == m for shape in index)
        assert max(shape[1] for shape in index) == solvers._MORSE_EIGENVALUES + 1


class TestColourSweep:
    """`grid._ColourOrder.sweep`, the descent's preconditioner: M^-1 for the symmetric
    Gauss-Seidel M = (D + L) D^-1 (D + U) of A in colour order, and A M^-1
    by Eisenstat's identity."""

    def test_symmetric_positive(self, small_domain, small_config):
        energy = _Energy(small_domain, small_config.p)
        rng = np.random.default_rng(33)
        for _ in range(5):
            x, y = rng.standard_normal((2, energy.order.node.size))
            assert float(x @ energy.order.sweep(y)[0]) == pytest.approx(
                float(energy.order.sweep(x)[0] @ y), rel=1e-12)
            assert float(x @ energy.order.sweep(x)[0]) > 0.0

    def test_matches_a_dense_reference(self, small_domain, small_config):
        from scipy.linalg import solve_triangular

        energy = _Energy(small_domain, small_config.p)
        perm = colour_perm(energy.order, energy.mask)
        m = perm.size
        assert m == 1088 and np.array_equal(np.sort(perm), np.arange(m))
        a = oracle_operator(small_domain.grid, small_domain.mask).toarray()[np.ix_(perm, perm)]
        d = np.diag(np.diag(a))
        lower = solve_triangular(a, np.eye(m), lower=True)  # (D + L)^-1
        want_inv = solve_triangular(a, d @ lower, lower=False)  # (D + U)^-1 D (D + L)^-1
        g = np.random.default_rng(34).standard_normal((m, 3))
        for col in g.T:
            want = want_inv @ col
            np.testing.assert_allclose(energy.order.sweep(col)[0], want, rtol=1e-12,
                                       atol=1e-12 * np.abs(want).max())

    def test_operator_is_the_sweep(self, small_domain, small_config):
        # The polish and the index take the sweep in colour order, with no
        # permutation: symmetric, positive, and a block swept in one call.
        energy = _Energy(small_domain, small_config.p)
        m, size = solvers._sweep_operator(energy), energy.order.node.size
        rng = np.random.default_rng(36)
        for _ in range(5):
            x, y = rng.standard_normal((2, size))
            assert float(x @ (m @ y)) == pytest.approx(float((m @ x) @ y), rel=1e-12)
            assert float(x @ (m @ x)) > 0.0
            np.testing.assert_array_equal(m @ x, energy.order.sweep(x)[0])
            np.testing.assert_array_equal(energy.order.half_sweeps(x)[0], energy.order.sweep(x)[0])
        block = rng.standard_normal((size, 2))
        np.testing.assert_array_equal(m @ block, np.stack([m @ c for c in block.T], axis=1))

    @pytest.mark.parametrize("domain", [
        lambda: make_domain(SolverConfig(ball_radius=2.5, nodes_per_axis=12)),
        lambda: make_domain(SolverConfig(ball_radius=4.0, nodes_per_axis=32)),
    ], ids=["12", "4-32"])
    def test_block_sweep_is_the_column_sweeps(self, domain):
        # An (m, b) block is swept at once, bit for bit as its columns one
        # at a time, P and A P both; so is a block's product with A.
        energy = _Energy(domain(), 2.0)
        block = np.random.default_rng(38).standard_normal((energy.order.node.size, 4))
        p, ap = energy.order.sweep(block)
        for k, col in enumerate(block.T):
            want_p, want_ap = energy.order.sweep(col)
            assert np.array_equal(p[:, k].view(np.uint64), want_p.view(np.uint64))
            assert np.array_equal(ap[:, k].view(np.uint64), want_ap.view(np.uint64))
        f_order = np.asfortranarray(block)
        np.testing.assert_array_equal(energy.order.sweep(f_order)[0], p)
        np.testing.assert_array_equal(
            energy.order.product(block),
            np.stack([energy.order.product(c) for c in block.T], axis=1))

    @pytest.mark.parametrize("domain", [
        lambda: make_domain(SolverConfig(ball_radius=2.5, nodes_per_axis=12)),
        lambda: make_domain(SolverConfig(ball_radius=4.0, nodes_per_axis=32)),
        lambda: _t_resolved_domain(3.0, 24, 72),
    ], ids=["12", "4-32", "3-24-72"])
    def test_returns_a_times_p(self, domain):
        # A P from the two half-sweeps equals the product of the C-order A
        # with P, permuted, to rounding.
        energy = _Energy(domain(), 2.0)
        perm = colour_perm(energy.order, energy.mask)
        for g in np.random.default_rng(35).standard_normal((3, perm.size)):
            p, ap = energy.order.sweep(g)
            x = np.empty_like(p)
            x[perm] = p
            want = (oracle_operator(energy.grid, energy.mask) @ x)[perm]
            assert np.linalg.norm(ap - want) <= 1e-12 * np.linalg.norm(want)


class TestVectorEnergy:
    def test_matches_field_functions(self, small_domain, small_config):
        p = small_config.p
        energy = _Energy(small_domain, p)
        u = radial_bump(small_domain)
        u = u.with_values(0.4 * (16 * u.values))
        v = energy.order.colour(u.values)
        assert np.allclose(energy.order.box(energy.grad(v)), grad_J(u, p).values,
                           rtol=0, atol=1e-13)
        assert energy.ray_max(v) == pytest.approx(nehari_scale(u, p), rel=1e-13)
        assert energy.norm(v) == pytest.approx(l2_norm(u), rel=1e-13)
        assert np.array_equal(energy.field(v).values, u.values)

    def test_ray_descent_gradient_norm_at_returned_iterate(self, small_domain, small_config):
        # A max_iters exit returns the projected gradient norm of the
        # iterate it returns, not of the one before the last step.
        p = small_config.p
        energy = _Energy(small_domain, p)
        trace = []
        v, iters, gn, stop, *_ = _ray_descent(
            energy, energy.order.colour(radial_bump(small_domain).values), 1e-12, 5, trace)
        assert (stop, iters, len(trace)) == ("max_iters", 5, 5)
        normal = _pos_pow(v, p)
        av = energy.order.product(v)
        g = av - energy.inner(av, normal) / energy.inner(normal, normal) * normal
        assert gn == pytest.approx(energy.norm(g), rel=1e-12)
        assert trace[-1] == (4, 0.5 * energy.norm_sq(v), gn)
        assert energy.mass(v) == pytest.approx(1.0, rel=1e-12)

    def test_ray_descent_stop_reasons(self, small_domain, small_config, monkeypatch):
        energy = _Energy(small_domain, small_config.p)
        v = energy.order.colour(radial_bump(small_domain).values)
        assert _ray_descent(energy, v, 1e-12, 5, [])[1:] == (5, ANY, "max_iters", 6)
        assert _ray_descent(energy, v, 1e3, 5, [])[1:] == (1, ANY, "grad_tol", 1)
        iters, _, stop, products = _ray_descent(energy, v, 1e-15, 1000, [])[1:]
        assert stop == "stall" and iters < 500 and products < 250
        TestConstrainedMin._rising_steps(monkeypatch, 1.0)
        assert _ray_descent(energy, v, 1e-12, 5, [])[1:] == (1, ANY, "no_descent", 2)

    def test_ray_descent_leaves_the_start_and_returns_colour_order(self, small_domain,
                                                                   small_config):
        # The loop runs on a copy of its colour-order start, and the returned
        # state is in the colour order too, so its field peaks at the ground
        # state's node t = -h_t/2.
        energy = _Energy(small_domain, small_config.p)
        v0 = energy.order.colour(radial_bump(small_domain).values)
        start = v0.copy()
        v, *_ = _ray_descent(energy, v0, small_config.grad_tol, 1000, [])
        assert np.array_equal(v0, start)
        peak = small_domain.grid.node_point(energy.field(v).max_node()[0])
        assert peak.t == pytest.approx(-0.5 * small_domain.grid.spacing[2], rel=1e-12)

    def test_ray_descent_multiplies_by_a_only_on_exact_products(self, small_domain,
                                                                small_config, monkeypatch):
        # 22 iterations take 24 applications of A: the start, the refresh
        # after step 20 and the one before the grad_tol exit are products
        # with A, and the 21 steps' A P come from the sweep.
        energy = _Energy(small_domain, small_config.p)
        calls = []
        product = _ColourOrder.product

        def counting(self, v):
            calls.append(v.shape)
            return product(self, v)

        monkeypatch.setattr(_ColourOrder, "product", counting)
        _, iters, _, stop, products = _ray_descent(
            energy, energy.order.colour(radial_bump(small_domain).values),
            small_config.grad_tol, 1000, [])
        assert (iters, stop, products) == (22, "grad_tol", 24)
        assert calls == [(energy.order.node.size,)] * 3

    def test_descent_holds_thirteen_vectors(self):
        # With the operator built, a descent at k = 4, N = 32 (40 iterations)
        # holds at most 13 vectors of the mask's size at once; 12 were read:
        # the loop's nine, `_line_min`'s one and the two of the trial it is
        # making.  It held 18 while its caller kept the start and the search
        # kept every trial's x, x_+ and x_+^p.
        config = SolverConfig(p=2.0, ball_radius=4.0, nodes_per_axis=32, grad_tol=1e-5)
        domain = make_domain(config)
        energy = _Energy(domain, config.p)
        energy.grad(energy.start(radial_bump(domain)))  # loads the kernels
        (_, v, _, run), peak = traced_peak(solvers._descend, config, domain)
        assert run["stop_reason"] == "grad_tol"
        assert peak <= 13 * v.nbytes

    def test_ray_descent_keeps_a_sign_changing_start(self, small_domain, small_config):
        # With no step taken the descent returns its start, negative part
        # and all, scaled onto the constraint.
        energy = _Energy(small_domain, small_config.p)
        u = make_random_smooth_field(small_domain, np.random.default_rng(6), n_bumps=8)
        v = energy.order.colour(u.values)
        assert v.min() < 0.0
        out, iters, gn, stop, products = _ray_descent(energy, v, 1e-12, 1, [])
        assert (iters, stop, products) == (1, "max_iters", 1)
        np.testing.assert_allclose(out, energy.renormalize(v), rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("seed", range(8))
    def test_mountain_pass_from_sign_changing_starts(self, small_domain, seed):
        # Random signed mixtures of bumps reach critical points of Morse
        # index 1 at or above the ground level (to rounding).  Where depends
        # on the start: the grid pins translates of the ground state, and
        # seeds 0-5 and 7 land at 50.64-50.97, seed 6 at 51.943453, peaked at
        # the node (0.21, -1.04, -1.56) (with diag(A)^-1 in place of the
        # colour sweep, seeds 11 and 14 landed at 55.853726 and 51.157151).
        # The first trace record is I in the signed start's direction: a
        # start clamped to its positive part converges too, so only that
        # record tells the two apart.
        cfg = SolverConfig(p=2.0, ball_radius=2.5, nodes_per_axis=12, grad_tol=1e-6)
        u0 = make_random_smooth_field(small_domain, np.random.default_rng(seed), n_bumps=8)
        rep = solve_mountain_pass(cfg, domain=small_domain, u0=u0)
        energy = _Energy(small_domain, cfg.p)
        v0 = energy.order.colour(u0.values)
        i_start = 0.5 * energy.norm_sq(v0) / energy.mass(v0) ** (2.0 / (cfg.p + 1.0))
        assert rep.trace[0][1] == pytest.approx(i_start, rel=1e-10)
        assert rep.converged and rep.extra["grad_norm"] <= 1e-11
        assert rep.extra["operator_products"] < 200
        assert _morse_index(energy, energy.order.colour(rep.field.values))[0] == 1
        assert rep.level >= GROUND_LEVEL_K2_5_N12 * (1.0 - 1e-12)

    def test_ray_descent_rejects_non_finite(self, small_domain, small_config):
        energy = _Energy(small_domain, small_config.p)
        v = energy.order.colour(radial_bump(small_domain).values)
        v[3] = np.nan
        with pytest.raises(NumericError):
            _ray_descent(energy, v, 1e-6, 10, [])

    def test_mountain_pass_takes_u0_on_an_equal_grid(self, small_domain, small_config,
                                                     small_mp):
        # A grid of lists equals the domain's grid; it used to be refused.
        g = small_domain.grid
        listed = Grid3(list(g.shape), list(g.spacing), list(g.corner))
        u0 = ScalarField(listed, small_mp.field.values, small_domain.mask)
        rep = solve_mountain_pass(small_config, domain=small_domain, u0=u0)
        assert (rep.converged, rep.iterations) == (True, 1)
        assert rep.level == pytest.approx(small_mp.level, rel=1e-12)

    def test_mountain_pass_rejects_u0_off_the_domain(self, small_domain, small_config):
        u0 = ScalarField(small_domain.grid, np.ones(small_domain.grid.shape),
                         np.ones(small_domain.grid.shape, dtype=bool))
        with pytest.raises(ConfigurationError):
            solve_mountain_pass(small_config, domain=small_domain, u0=u0)


@pytest.fixture(scope="module")
def default_tol_runs(small_domain):
    """Both solvers at the default grad_tol on the small ball, each with the
    number of ScalarFields it built."""
    cfg = SolverConfig(p=2.0, ball_radius=2.5, nodes_per_axis=12)
    original = ScalarField.__post_init__
    runs = {}
    for solver in (solve_mountain_pass, solve_constrained_min):
        built = [0]

        def counting(self):
            built[0] += 1
            original(self)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ScalarField, "__post_init__", counting)
            rep = solver(cfg, domain=small_domain)
        runs[rep.method] = (rep, built[0])
    return cfg, runs


class TestDefaultTolerance:
    def test_mountain_pass_converges(self, default_tol_runs):
        # The L^2 ray descent used to stall here at |g| = 3e-6, at this level.
        rep, _ = default_tol_runs[1]["mountain-pass"]
        assert rep.converged
        assert rep.extra["stop_reason"] == "grad_tol"
        assert rep.extra["grad_norm"] <= 1e-11
        assert rep.level == pytest.approx(GROUND_LEVEL_K2_5_N12, rel=1e-9)

    def test_constrained_min_converges(self, default_tol_runs):
        rep, _ = default_tol_runs[1]["constrained-min"]
        assert rep.converged
        assert rep.extra["stop_reason"] == "grad_tol"

    @pytest.mark.parametrize("method", ["mountain-pass", "constrained-min"])
    def test_fields_built_only_at_boundaries(self, default_tol_runs, method):
        rep, built = default_tol_runs[1][method]
        # the descent converges in 31 iterations here; the polish works on
        # vectors too
        assert rep.iterations > 20
        assert built <= 4


class TestCrossMethod:
    def test_levels_agree(self, small_cm, small_mp, small_config):
        j_star = eval_J(small_cm.field, small_config.p)
        assert abs(j_star - small_mp.level) / small_mp.level < 1e-2

    def test_bridge_formula(self, small_cm, small_mp, small_config):
        p = small_config.p
        lam = small_cm.multiplier
        bridge = (p - 1.0) / (2.0 * (p + 1.0)) * lam ** ((p + 1.0) / (p - 1.0))
        assert abs(bridge - small_mp.level) / small_mp.level < 1e-2

    def test_compare_methods(self, small_config, small_domain):
        rep = compare_methods(small_config, domain=small_domain)
        assert rep.level_gap_rel < 1e-2
        assert rep.bridge_defect_rel < 1e-2
        assert rep.both_positive
        # one loop from one bump: the fields are compared where they lie
        assert rep.field_distance_rel < 1e-4
        assert rep.morse_index == 1 and rep.as_dict()["morse_index"] == 1
        # the index's seconds go to the mountain-pass report's timings, and
        # its LOBPCG iterations to the report beside the polish's MINRES ones
        timings = rep.mountain_pass.extra["timings"]
        assert set(timings) == {"descent", "polish", "report", "index"}
        extra = rep.mountain_pass.as_dict()
        assert 0 < extra["index_lobpcg_iterations"] < solvers._LOBPCG_MAX_ITERS
        assert extra["polish_minres_iterations"] and all(
            isinstance(i, int) and i > 0 for i in extra["polish_minres_iterations"])
        assert "index_lobpcg_iterations" not in rep.constrained.extra
        assert set(rep.constrained.extra["timings"]) == {"descent", "report"}
        assert all(0.0 <= t < 60.0 for t in timings.values())

    def test_compare_methods_descends_once(self, small_config, small_domain, small_mp, small_cm,
                                          monkeypatch):
        # Both reports read one `_ray_descent` run from `radial_bump`, each
        # with its own copy of the trace, and are the two solvers' reports.
        calls = []
        descent = solvers._ray_descent

        def counting(*args):
            calls.append(args)
            return descent(*args)

        monkeypatch.setattr(solvers, "_ray_descent", counting)
        rep = compare_methods(small_config, domain=small_domain)
        assert len(calls) == 1
        mp, cm = rep.mountain_pass, rep.constrained
        assert mp.trace == cm.trace and mp.trace is not cm.trace
        for got, solved in ((mp, small_mp), (cm, small_cm)):
            assert np.array_equal(got.field.values, solved.field.values)
            assert got.level == solved.level and got.trace == solved.trace


class TestFitDecay:
    def test_recovers_exact_exponential(self):
        grid, mask = build_ball_grid(4.0, 32)
        rho = grid.gauge_array()
        u = ScalarField(grid, np.exp(-np.broadcast_to(rho, grid.shape)), mask)
        fit = fit_decay(u, ball_radius=4.0)
        assert fit.delta == pytest.approx(1.0, abs=0.05)
        assert fit.r_squared > 0.99

    def test_rejects_negative_field(self):
        grid, mask = build_ball_grid(2.0, 12)
        u = ScalarField(grid, -np.ones(grid.shape), mask)
        with pytest.raises(DomainError):
            fit_decay(u, ball_radius=2.0)

    def test_plateau_no_confident_delta(self):
        grid, mask = build_ball_grid(2.0, 16)
        u = ScalarField(grid, np.ones(grid.shape), mask)
        try:
            fit = fit_decay(u, ball_radius=2.0)
        except InsufficientDataError:
            return
        assert fit.r_squared < 0.5 or abs(fit.delta) < 0.2

    @pytest.mark.parametrize("n", [8, 12])
    def test_shells_at_one_radius(self, n):
        # The nodes left in the shell range sit at one gauge radius (N = 8)
        # or a few ulps apart (N = 12): no line through them is determined.
        grid, mask = build_ball_grid(2.0, n)
        rho = np.broadcast_to(grid.gauge_array(), grid.shape)
        u = ScalarField(grid, np.where(rho < 1.0, np.exp(-rho), 0.0), mask)
        with pytest.raises(InsufficientDataError, match="one radius"):
            fit_decay(u, ball_radius=2.0)


class TestExhaustion:
    def test_monotone_levels(self, small_config):
        cfg = replace(small_config, grad_tol=1e-3)
        rep = exhaust_domains([1.5, 2.0, 2.5], cfg)
        assert rep.monotone
        assert rep.monotone_slack <= 1e-6
        levels = [e.level for e in rep.entries]
        assert levels[0] >= levels[1] >= levels[2] - 1e-9
        for e in rep.entries:
            assert e.max_value > 0.95
            assert e.decay.delta > 0.0
            assert e.level == e.report.level
        rows = rep.as_dict()["entries"]
        assert [row["converged"] for row in rows] == [e.report.converged for e in rep.entries]

    def test_first_ball_leaves_a_symmetric_saddle(self, monkeypatch):
        # On the 48^3 grid of k = 6 the k = 2 ball's origin-centered bump
        # stops beside an index-2 saddle at 1e-4, and the polish lands on it,
        # when the descent is preconditioned by diag(A)^-1, which keeps the
        # bump's t-reflection symmetry up to rounding.  The colour sweep
        # breaks it and reaches the ground state from that bump.
        def jacobi(self, g):
            p = _by_rows(self.inv_diag, g) * g
            return p, self.product(p)

        monkeypatch.setattr(_ColourOrder, "sweep", jacobi)
        cfg, dom = _k2_ball_of_the_desk_grid()
        energy = _Energy(dom, cfg.p)
        saddle = solve_mountain_pass(cfg, domain=dom, u0=_origin_bump(dom))
        assert saddle.converged and saddle.level == pytest.approx(82.7088501721573, rel=1e-9)
        assert _morse_index(energy, energy.order.colour(saddle.field.values))[0] == 2
        assert inertia_count(dom.grid, dom.mask, saddle.field.values, cfg.p) == 2
        rep = solvers._leave_saddle(cfg, dom, saddle)
        assert rep.converged and rep.level == pytest.approx(61.73916509504538, rel=1e-9)
        assert _morse_index(energy, energy.order.colour(rep.field.values))[0] == 1
        # exhaust_domains certifies its first ball the same way
        monkeypatch.setattr(solvers, "radial_bump", _origin_bump)
        first = exhaust_domains([2.0, 6.0], cfg).entries[0]
        assert first.level == pytest.approx(rep.level, rel=1e-12)

    def test_default_start_reaches_the_ground_state(self):
        # From the bump at t = -h_t/2 neither method meets that saddle
        # (82.709, alpha 3.9585647), where both stopped from the origin.
        cfg, dom = _k2_ball_of_the_desk_grid()
        rep = solve_mountain_pass(cfg, domain=dom)
        assert rep.converged and rep.level == pytest.approx(61.73916509504, rel=1e-9)
        energy = _Energy(dom, cfg.p)
        assert _morse_index(energy, energy.order.colour(rep.field.values))[0] == 1
        cm = solve_constrained_min(cfg, domain=dom)
        assert cm.converged and cm.iterations < 60
        assert cm.level == pytest.approx(3.590933303923609, rel=1e-9)

    def test_ground_state_is_kept(self, small_mp, small_config, small_domain):
        assert solvers._leave_saddle(small_config, small_domain, small_mp) is small_mp

    def test_rejects_bad_radii(self, small_config):
        with pytest.raises(ConfigurationError):
            exhaust_domains([2.0], small_config)
        with pytest.raises(ConfigurationError):
            exhaust_domains([2.0, 1.5], small_config)

    @pytest.mark.parametrize("radii", [[np.nan, 2.0], [-1.0, 2.0], [0.0, 2.0], [2.0, np.inf]],
                             ids=["nan", "negative", "zero", "inf"])
    def test_rejects_radii_that_are_not_finite_and_positive(self, small_config, radii):
        # a NaN fails every comparison, so it must be refused as not a < b
        with pytest.raises(ConfigurationError, match="finite, positive"):
            exhaust_domains(radii, small_config)

    def test_rejects_a_ball_without_nodes(self):
        # On the 8^3 grid of radius 6 the nodes nearest the origin lie at
        # gauge (2 * 0.75^2)^(1/2) > 1, so the k = 1 ball holds none.
        with pytest.raises(ConfigurationError, match="radius 1.0 holds no node of the 8"):
            exhaust_domains([1.0, 6.0], SolverConfig(nodes_per_axis=8))


def test_report_serializes(small_cm):
    d = small_cm.as_dict()
    import json

    json.dumps(d)
    assert d["method"] == "constrained-min"
    assert d["converged"] is True


@pytest.mark.parametrize("solve, phases", [
    (solve_constrained_min, {"descent", "report"}),
    (solve_mountain_pass, {"descent", "polish", "report"}),
])
def test_reports_carry_phase_timings(small_config, small_domain, solve, phases):
    # Seconds per phase; every other reported number is as without them.
    rep = solve(small_config, domain=small_domain)
    timings = rep.as_dict()["timings"]
    assert set(timings) == phases
    assert all(isinstance(t, float) and 0.0 <= t < 60.0 for t in timings.values())


@pytest.mark.parametrize("solve, changes", [
    (solve_constrained_min, dict(grad_tol=1e3)),  # one record
    (solve_constrained_min, {}),
    (solve_mountain_pass, dict(max_iters=51)),  # records 0..50
    (solve_mountain_pass, dict(max_iters=52)),
])
def test_report_trace_keeps_each_record_once(small_config, small_domain, solve, changes):
    rep = solve(replace(small_config, **changes), domain=small_domain)
    its = [rec[0] for rec in rep.as_dict()["trace"]]
    assert all(b > a for a, b in zip(its, its[1:]))
    assert its[-1] == rep.iterations - 1
    assert its == list(range(0, rep.iterations - 1, solvers._TRACE_STRIDE)) + its[-1:]
