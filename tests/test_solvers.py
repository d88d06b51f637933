"""Solvers on a small, fast instance; full-scale runs live in acceptance."""

from dataclasses import replace

import numpy as np
import pytest

from heisground.errors import ConfigurationError, DomainError, InsufficientDataError
from heisground.functionals import critical_identity_defect, eval_J, grad_J
from heisground.grid import ScalarField, ball_mask, build_ball_grid, l2_norm, zero_extend
from heisground.solvers import (
    Domain,
    SolverConfig,
    compare_methods,
    exhaust_domains,
    fit_decay,
    make_domain,
    pick_u0,
)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SolverConfig(p=3.0)
        with pytest.raises(ConfigurationError):
            SolverConfig(step_size=0.0)
        with pytest.raises(ConfigurationError):
            SolverConfig(path_points=5)
        with pytest.raises(ConfigurationError):
            SolverConfig(ball_radius=float("nan"))
        with pytest.raises(ConfigurationError):
            SolverConfig(max_iters=0)
        with pytest.raises(ConfigurationError):
            replace(SolverConfig(), nodes_per_axis=4)
        SolverConfig()


class TestPickU0:
    def test_negative_energy(self, small_domain, small_config):
        u0 = pick_u0(small_domain, small_config.p)
        assert eval_J(u0, small_config.p) < 0.0

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


class TestMountainPass:
    def test_converged_positive_level(self, small_mp):
        assert small_mp.converged
        assert small_mp.level > 0.0

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
        assert len(path) == small_config.path_points
        assert np.all(path[0].values == 0.0)
        assert eval_J(path[-1], small_config.p) < 0.0

    def test_agrees_with_nehari_oracle(self, small_mp, small_nd):
        gap = abs(small_nd.level - small_mp.level) / small_mp.level
        assert gap < 1e-3


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
