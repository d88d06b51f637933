"""Solvers on a small, fast instance; full-scale runs live in acceptance."""

from dataclasses import replace
from unittest.mock import ANY

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse.linalg import LinearOperator, cg

from heisground import solvers
from heisground.errors import (
    AlgorithmError,
    ConfigurationError,
    DomainError,
    InsufficientDataError,
    NumericError,
)
from heisground.functionals import (
    _pos_pow,
    critical_identity_defect,
    eval_J,
    grad_J,
    nehari_scale,
)
from heisground.grid import ScalarField, ball_mask, build_ball_grid, l2_norm, zero_extend
from heisground.solvers import (
    Domain,
    SolverConfig,
    _Energy,
    _pcg,
    _ray_descent,
    compare_methods,
    exhaust_domains,
    fit_decay,
    make_domain,
    nehari_descent,
    pick_u0,
    radial_bump,
    solve_constrained_min,
    solve_mountain_pass,
)


class TestConfig:
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
    def test_negative_energy(self, small_domain, small_config):
        u0 = pick_u0(small_domain, small_config.p)
        assert eval_J(u0, small_config.p) < 0.0

    def test_unreachable_endpoint_is_a_failed_solve(self):
        # 2^60 does not reach the k^-2 scale of this ball: an algorithm
        # failure, not a bad configuration
        cfg = SolverConfig(ball_radius=1e-20, nodes_per_axis=8)
        with pytest.raises(AlgorithmError, match="60 doublings"):
            pick_u0(make_domain(cfg), cfg.p)

    def test_zero_extension_keeps_energy(self, small_config):
        grid, _ = build_ball_grid(2.5, 12)
        m_small = ball_mask(grid, 1.5)
        m_big = ball_mask(grid, 2.5)
        u0 = pick_u0(Domain(grid, m_small, 1.5), small_config.p)
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
        # a slightly higher local minimum, 3.566106562585406.
        l2_alpha = 3.566106562585406
        rep = solve_constrained_min(
            SolverConfig(p=2.0, ball_radius=4.0, nodes_per_axis=32, grad_tol=1e-5)
        )
        assert rep.converged and rep.extra["stop_reason"] == "grad_tol"
        assert rep.iterations < 200
        # The projected start (ratio 3.0); from the last solution alone 12.3.
        assert 0 < rep.extra["cg_iterations"] < 5 * rep.iterations
        assert rep.level <= l2_alpha
        assert rep.level == pytest.approx(l2_alpha, rel=1e-6)

    def test_stall_below_the_rounding_floor(self, small_config, small_domain):
        # On this ball I reaches its rounding floor near |g| = 1e-7, and |g|
        # its own near 3.5e-15.
        rep = solve_constrained_min(replace(small_config, grad_tol=1e-15), domain=small_domain)
        assert not rep.converged
        assert rep.extra["stop_reason"] == "stall"
        assert rep.iterations < 500
        assert rep.extra["grad_norm"] < 1e-13

    def test_max_iters(self, small_config, small_domain):
        rep = solve_constrained_min(replace(small_config, max_iters=5), domain=small_domain)
        assert (rep.converged, rep.iterations, len(rep.trace)) == (False, 5, 5)
        assert rep.extra["stop_reason"] == "max_iters"
        assert rep.extra["grad_norm"] == rep.trace[-1][2]

    @staticmethod
    def _rising_constrained(monkeypatch, rise):
        """Make the n-th step's I come out as the starting I + n * rise."""
        original = _Energy.constrained
        start = []

        def constrained(self, c):
            i_v, v = original(self, c)
            start.append(i_v)
            return (i_v if len(start) == 1 else start[0] + (len(start) - 1) * rise), v

        monkeypatch.setattr(_Energy, "constrained", constrained)

    def test_rising_step_ends_the_solve(self, small_config, small_domain, monkeypatch):
        self._rising_constrained(monkeypatch, 1e-12)
        rep = solve_constrained_min(small_config, domain=small_domain)
        assert not rep.converged
        assert rep.extra["stop_reason"] == "no_descent"
        assert rep.iterations == 1 and len(rep.trace) == 1

    def test_rise_within_rounding_is_accepted(self, small_config, small_domain, monkeypatch):
        # 64 ulps of I ~ 3.4 is 4.8e-14; |g| keeps falling, so no stall.
        self._rising_constrained(monkeypatch, 1e-14)
        rep = solve_constrained_min(small_config, domain=small_domain)
        assert rep.converged and rep.iterations == 74

    def test_non_finite_step_raises(self, small_config, small_domain, monkeypatch):
        self._rising_constrained(monkeypatch, np.nan)
        with pytest.raises(NumericError):
            solve_constrained_min(small_config, domain=small_domain)

    def test_unconverged_cg_ends_the_solve(self, small_config, small_domain, monkeypatch):
        monkeypatch.setattr(solvers, "_pcg", lambda A, b, x, inv_diag, rtol: (7, False))
        rep = solve_constrained_min(small_config, domain=small_domain)
        assert not rep.converged
        assert rep.extra["stop_reason"] == "no_descent"
        assert rep.iterations == 1 and rep.extra["cg_iterations"] == 7
        assert np.isfinite(rep.level) and rep.extra["constraint_defect"] < 1e-12


class TestProjectedStart:
    """Each CG solve starts from the Galerkin projection onto the last iterates."""

    def test_no_worse_than_the_last_solution(self, small_config, small_domain, monkeypatch):
        # Record the right-hand side, start and solution of the first solves,
        # then compare the A-norm errors of the start and of the last solution.
        calls = []
        pcg = solvers._pcg

        def recording(A, b, x, inv_diag, rtol):
            start = x.copy()
            out = pcg(A, b, x, inv_diag, rtol)
            calls.append((b, start, x.copy()))
            return out

        monkeypatch.setattr(solvers, "_pcg", recording)
        solve_constrained_min(replace(small_config, max_iters=8), domain=small_domain)
        A = _Energy(small_domain, small_config.p).A
        inv_diag = 1.0 / A.diagonal()

        def a_norm(e):
            return float(e @ (A @ e)) ** 0.5

        assert len(calls) == 7
        ratios = []
        for (_, _, last), (b, start, _) in zip(calls[:-1], calls[1:]):
            exact = np.zeros_like(b)
            assert _pcg(A, b, exact, inv_diag, 1e-14)[1]
            ratios.append(a_norm(start - exact) / a_norm(last - exact))
        # the last solution lies in the span, so the start is never worse;
        # with four iterates stored it is about 15x better here (0.06-0.09)
        assert max(ratios) <= 1.0 + 1e-8
        assert max(ratios[2:]) < 0.2

    def test_collinear_vectors_are_dropped(self, small_domain):
        A, b, v, _ = TestPCG._system(small_domain)
        row = [float(v @ (A @ v))]
        want = solvers._projected_start([v], [row], b)
        assert want.tobytes() == (float(v @ b) / row[0] * v).tobytes()
        # 2v repeats v: its pivot vanishes and it is left out of the start
        got = solvers._projected_start([v, 2.0 * v], [[row[0], 2 * row[0]],
                                                      [2 * row[0], 4 * row[0]]], b)
        assert got.tobytes() == want.tobytes()

    def test_two_vectors_solve_the_galerkin_system(self, small_domain):
        A, b, v, _ = TestPCG._system(small_domain)
        basis = [v, _pos_pow(v, 3.0)]
        gram = [[float(a @ (A @ c)) for c in basis] for a in basis]
        c = np.linalg.solve(np.array(gram), [float(a @ b) for a in basis])
        got = solvers._projected_start(basis, gram, b)
        np.testing.assert_allclose(got, c[0] * basis[0] + c[1] * basis[1], rtol=1e-10)


class TestPCG:
    """`_pcg` against `scipy.sparse.linalg.cg`, its oracle, bit for bit."""

    @staticmethod
    def _system(domain):
        energy = _Energy(domain, 2.0)
        v = radial_bump(domain).interior()
        return energy.A, _pos_pow(v, 2.0), v, 1.0 / energy.A.diagonal()

    @staticmethod
    def _scipy_cg(A, b, x0, inv_diag, rtol, maxiter=None):
        """scipy's (x, iterations, info), counting iterations by callback."""
        count = []
        M = LinearOperator(A.shape, matvec=lambda r: inv_diag * r.ravel())
        x, info = cg(A, b, x0=x0, M=M, rtol=rtol, maxiter=maxiter, callback=count.append)
        return x, len(count), info

    @pytest.mark.parametrize("warm", [False, True])
    @pytest.mark.parametrize("rtol", [1e-3, 1e-6, 1e-10])
    def test_matches_scipy_cg(self, small_domain, warm, rtol):
        A, b, v, inv_diag = self._system(small_domain)
        x0 = v.copy() if warm else np.zeros_like(b)
        want, want_iters, info = self._scipy_cg(A, b, x0, inv_diag, rtol)
        assert info == 0
        x = x0.copy()
        assert _pcg(A, b, x, inv_diag, rtol) == (want_iters, True)
        assert x.tobytes() == want.tobytes()

    def test_iteration_cap(self, monkeypatch):
        # In floating point, CG on this 1-D Laplacian needs more than n steps
        # to reach 1e-15.  With the cap at n both stop there, unconverged.
        n = 50
        off = np.full(n - 1, -1.0)
        A = sparse.diags_array([off, np.full(n, 2.0), off], offsets=[-1, 0, 1],
                               format="csr")
        b = np.linspace(-1.0, 1.0, n) ** 3 + 0.3
        inv_diag = 1.0 / A.diagonal()
        assert _pcg(A, b, np.zeros(n), inv_diag, 1e-15)[1]
        monkeypatch.setattr(solvers, "_CG_MAX_ITERS_PER_UNKNOWN", 1)
        want, want_iters, info = self._scipy_cg(A, b, None, inv_diag, 1e-15, maxiter=n)
        assert info == want_iters == n
        x = np.zeros(n)
        assert _pcg(A, b, x, inv_diag, 1e-15) == (n, False)
        assert x.tobytes() == want.tobytes()

    def test_breakdown(self):
        # p.Ap <= 0 on a negative definite A, and NaN for a NaN in b
        n = 5
        A = sparse.diags_array(np.full(n, -1.0), format="csr")
        assert _pcg(A, np.ones(n), np.zeros(n), np.ones(n), 1e-6) == (0, False)
        b = np.ones(n)
        b[2] = np.nan
        assert _pcg(-A, b, np.zeros(n), np.ones(n), 1e-6) == (0, False)


class TestMountainPass:
    def test_converged_positive_level(self, small_mp):
        assert small_mp.converged
        assert small_mp.extra["stop_reason"] == "grad_tol"
        assert small_mp.level > 0.0

    def test_max_iters(self, small_config, small_domain):
        # Phase one's budget ends the solve before phase two starts.
        rep = solve_mountain_pass(replace(small_config, max_iters=3), domain=small_domain)
        assert (rep.converged, rep.iterations) == (False, 3)
        assert rep.extra["stop_reason"] == "max_iters"

    def test_nehari_max_iters(self, small_config, small_domain):
        rep = nehari_descent(replace(small_config, max_iters=3), domain=small_domain)
        assert (rep.converged, rep.iterations) == (False, 3)
        assert rep.extra["stop_reason"] == "max_iters"

    def test_criticality(self, small_mp, small_config):
        u = small_mp.field
        gn = l2_norm(grad_J(u, small_config.p))
        assert gn < 10.0 * small_config.grad_tol
        assert abs(small_mp.extra["inner_gu"]) < 1e-6 * small_mp.level
        defect = critical_identity_defect(u, small_config.p)
        assert abs(defect) < 1e-6 * small_mp.level

    def test_level_matches_field_energy(self, small_mp, small_config):
        assert eval_J(small_mp.field, small_config.p) == pytest.approx(
            small_mp.level, rel=1e-6
        )

    def test_path_is_admissible(self, small_mp, small_config):
        path = small_mp.extra["path"]
        assert len(path) == solvers._PATH_POINTS
        assert np.all(path[0].values == 0.0)
        assert eval_J(path[-1], small_config.p) < 0.0

    def test_agrees_with_nehari_oracle(self, small_mp, small_nd):
        gap = abs(small_nd.level - small_mp.level) / small_mp.level
        assert gap < 1e-3


class TestVectorEnergy:
    def test_matches_field_functions(self, small_domain, small_config):
        p = small_config.p
        energy = _Energy(small_domain, p)
        u = pick_u0(small_domain, p)
        u = u.with_values(0.4 * u.values)
        v = u.interior()
        assert energy.J(v) == pytest.approx(eval_J(u, p), rel=1e-13)
        assert np.allclose(energy.grad(v), grad_J(u, p).interior(), rtol=0, atol=1e-13)
        assert energy.ray_max(v) == pytest.approx(nehari_scale(u, p), rel=1e-13)
        assert energy.norm(v) == pytest.approx(l2_norm(u), rel=1e-13)
        assert np.array_equal(energy.field(v).values, u.values)

    def test_ray_descent_gradient_norm_at_returned_iterate(self, small_domain, small_config):
        # A max_iters exit returns the gradient norm of the iterate it
        # returns, not of the one before the last step.
        p = small_config.p
        energy = _Energy(small_domain, p)
        trace = []
        w, j_max, converged, iters, gn, _ = _ray_descent(
            energy, radial_bump(small_domain).interior(), solvers._STEP_SIZE,
            1e-12, 5, trace,
        )
        assert (converged, iters, len(trace)) == (False, 5, 5)
        assert gn == pytest.approx(l2_norm(grad_J(energy.field(w), p)), rel=1e-12)
        assert trace[-1][1:] == (j_max, gn)
        assert nehari_scale(energy.field(w), p)[0] == pytest.approx(1.0, rel=1e-12)

    def test_ray_descent_stop_reasons(self, small_domain, small_config, monkeypatch):
        energy = _Energy(small_domain, small_config.p)
        v = radial_bump(small_domain).interior()
        tau = solvers._STEP_SIZE
        assert _ray_descent(energy, v, tau, 1e-12, 5, [])[5] == "max_iters"
        assert _ray_descent(energy, v, tau, 1e3, 5, [])[2:] == (True, 1, ANY, "grad_tol")
        monkeypatch.setattr(solvers, "_armijo_descent", lambda *args, **kw: None)
        w, _, converged, iters, _, stop = _ray_descent(energy, v, tau, 1e-12, 5, [])
        assert (converged, iters, stop) == (False, 1, "no_descent")

    def test_ray_descent_rejects_non_finite(self, small_domain, small_config):
        energy = _Energy(small_domain, small_config.p)
        v = radial_bump(small_domain).interior()
        v[3] = np.nan
        with pytest.raises(NumericError):
            _ray_descent(energy, v, solvers._STEP_SIZE, 1e-6, 10, [])

    def test_mountain_pass_rejects_u0_off_the_domain(self, small_domain, small_config):
        u0 = ScalarField(small_domain.grid, np.ones(small_domain.grid.shape),
                         np.ones(small_domain.grid.shape, dtype=bool))
        with pytest.raises(ConfigurationError):
            solve_mountain_pass(small_config, domain=small_domain, u0=u0)


@pytest.fixture(scope="module")
def default_tol_runs(small_domain):
    """The three solvers at the default grad_tol on the small ball, each with
    the number of ScalarFields it built."""
    cfg = SolverConfig(p=2.0, ball_radius=2.5, nodes_per_axis=12)
    original = ScalarField.__post_init__
    runs = {}
    for solver in (solve_mountain_pass, nehari_descent, solve_constrained_min):
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
    @pytest.mark.parametrize("method", ["mountain-pass", "nehari-descent"])
    def test_ray_descent_stall_exit(self, default_tol_runs, method):
        # Here the Armijo decrease c1 tau |g|^2 vanishes against J ~ 50
        # before |g| < 1e-6: the ray descent stops on a run of flat steps.
        rep, _ = default_tol_runs[1][method]
        assert not rep.converged
        assert rep.extra["stop_reason"] == "stall"
        assert rep.iterations < 2000
        assert rep.level == pytest.approx(50.63977815766826, rel=1e-9)

    def test_constrained_min_converges(self, default_tol_runs):
        rep, _ = default_tol_runs[1]["constrained-min"]
        assert rep.converged
        assert rep.extra["stop_reason"] == "grad_tol"

    @pytest.mark.parametrize("method", ["mountain-pass", "nehari-descent", "constrained-min"])
    def test_fields_built_only_at_boundaries(self, default_tol_runs, method):
        rep, built = default_tol_runs[1][method]
        if method == "constrained-min":
            # the H^1 iteration converges in about 90 steps here
            assert rep.iterations > 50
            assert built <= 4
        else:
            assert rep.iterations > 1000
            assert built <= 4 * solvers._PATH_POINTS + 80


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

    def test_rejects_bad_radii(self, small_config):
        with pytest.raises(ConfigurationError):
            exhaust_domains([2.0], small_config)
        with pytest.raises(ConfigurationError):
            exhaust_domains([2.0, 1.5], small_config)


def test_report_serializes(small_cm):
    d = small_cm.as_dict()
    import json

    json.dumps(d)
    assert d["method"] == "constrained-min"
    assert d["converged"] is True
