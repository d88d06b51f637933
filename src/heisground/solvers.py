"""The two solution procedures and the domain-exhaustion driver.

First method: mountain-pass path deformation on the gauge ball B_k —
discretize a path from 0 to a negative-energy endpoint, repeatedly locate
its energy maximum and push that point downhill, until the gradient at the
path top vanishes.  The converged level c_k is the min-max critical value.

Second method: normalized gradient flow on the constraint manifold
{int u_+^(p+1) = 1} — projected descent on the quadratic energy I with
exact renormalization after every step.  The minimum alpha and multiplier
lambda = ||u||^2 convert into a PDE solution via u* = lambda^(1/(p-1)) u.

Both produce the same discrete ground state; `compare_methods` checks the
bridge identity c = (p-1)/(2(p+1)) * lambda^((p+1)/(p-1)).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Optional

import numpy as np

from .errors import (
    AlgorithmError,
    ConfigurationError,
    DomainError,
    InsufficientDataError,
    NumericError,
)
from .functionals import (
    EnergyBreakdown,
    _pos_pow,
    _pos_pow_sum,
    check_exponent,
    critical_identity_defect,
    energy_breakdown,
    eval_J,
    grad_J,
    nehari_scale,
)
from .grid import (
    Grid3,
    ScalarField,
    ball_mask,
    build_ball_grid,
    e_norm_sq_values,
    energy_operator,
    inner,
    l2_norm,
    zero_extend,
)
from .heis_core import GroupPoint

__all__ = [
    "SolverConfig",
    "Domain",
    "SolveReport",
    "DecayFit",
    "ExhaustionEntry",
    "ExhaustionReport",
    "ComparisonReport",
    "make_domain",
    "radial_bump",
    "pick_u0",
    "solve_mountain_pass",
    "solve_constrained_min",
    "nehari_descent",
    "exhaust_domains",
    "fit_decay",
    "compare_methods",
]


@dataclass
class SolverConfig:
    """Knobs shared by both solvers; defaults suit the desk-scale runs."""

    p: float = 2.0
    ball_radius: float = 6.0
    nodes_per_axis: int = 48
    eps: float = 1.0
    step_size: float = 5e-3
    max_iters: int = 40000
    grad_tol: float = 1e-6
    path_points: int = 11

    def validate(self) -> None:
        check_exponent(self.p)
        for name in ("ball_radius", "eps", "step_size", "grad_tol"):
            value = getattr(self, name)
            # Written so that NaN fails it too.
            if not 0.0 < value < np.inf:
                raise ConfigurationError(f"{name} must be finite and positive, got {value}")
        if self.nodes_per_axis < 8:
            raise ConfigurationError(f"need >= 8 nodes per axis, got {self.nodes_per_axis}")
        if self.path_points < 9:
            raise ConfigurationError(f"need >= 9 path points, got {self.path_points}")


@dataclass(frozen=True)
class Domain:
    grid: Grid3
    mask: np.ndarray
    ball_radius: float


def make_domain(config: SolverConfig) -> Domain:
    config.validate()
    grid, mask = build_ball_grid(config.ball_radius, config.nodes_per_axis)
    return Domain(grid, mask, config.ball_radius)


@dataclass
class SolveReport:
    field: ScalarField
    level: float
    multiplier: Optional[float]
    iterations: int
    trace: list
    breakdown: EnergyBreakdown
    max_point: GroupPoint
    max_value: float
    converged: bool
    method: str
    extra: dict = dc_field(default_factory=dict)

    def as_dict(self, trace_stride: int = 50) -> dict:
        return {
            "method": self.method,
            "level": self.level,
            "multiplier": self.multiplier,
            "iterations": self.iterations,
            "converged": self.converged,
            "breakdown": self.breakdown.as_dict(),
            "max_point": {
                "x": float(self.max_point.x[0]),
                "y": float(self.max_point.y[0]),
                "t": float(self.max_point.t),
            },
            "max_value": self.max_value,
            "trace": [list(rec) for rec in self.trace[::trace_stride]]
            + ([list(self.trace[-1])] if self.trace else []),
            **{k: v for k, v in self.extra.items() if _jsonable(v)},
        }


def _jsonable(v) -> bool:
    if isinstance(v, (int, float, str, bool, type(None))):
        return True
    if isinstance(v, (list, tuple)):
        return all(_jsonable(x) for x in v)
    if isinstance(v, dict):
        return all(isinstance(k, str) and _jsonable(x) for k, x in v.items())
    return False


@dataclass
class DecayFit:
    C: float
    delta: float
    r_squared: float
    shell_samples: list

    def as_dict(self) -> dict:
        return {
            "C": self.C,
            "delta": self.delta,
            "r_squared": self.r_squared,
            "shell_samples": [list(s) for s in self.shell_samples],
        }


# ---------------------------------------------------------------------------
# Initialization
# ---------------------------------------------------------------------------


def radial_bump(domain: Domain) -> ScalarField:
    """Centered gauge-radial bump exp(-rho^2), masked to the ball."""
    rho = domain.grid.gauge_array()
    return ScalarField(domain.grid, np.exp(-rho * rho), domain.mask)


def pick_u0(domain: Domain, p: float) -> ScalarField:
    """Scale the centered bump until J < 0 (mountain-pass endpoint)."""
    check_exponent(p)
    if not domain.mask.any():
        raise ConfigurationError("domain mask has no interior nodes")
    b = radial_bump(domain)
    t = 1.0
    for _ in range(60):
        u = b.with_values(t * b.values)
        if eval_J(u, p) < 0.0:
            return u
        t *= 2.0
    raise ConfigurationError("could not reach negative energy after 60 doublings")


# ---------------------------------------------------------------------------
# Mountain-pass path deformation
# ---------------------------------------------------------------------------


def _interpolate(a: ScalarField, b: ScalarField, s: float) -> ScalarField:
    return a.with_values((1.0 - s) * a.values + s * b.values)


def _path_arclengths(path, energies=None) -> np.ndarray:
    """Cumulative L^2 arclength of a polyline of fields.

    When segment energies are supplied the arclength is energy-weighted:
    segments near the top of the energy profile count up to three times
    their metric length, so resampling to equal increments concentrates
    vertices around the path maximum.
    """
    w = path[0].grid.cell_volume
    seg = [0.0]
    for a, b in zip(path[:-1], path[1:]):
        d = b.values - a.values
        seg.append((float(np.dot(d.ravel(), d.ravel())) * w) ** 0.5)
    seg = np.asarray(seg)
    if energies is not None:
        e = np.asarray(energies, dtype=float)
        lo, hi = float(e.min()), float(e.max())
        if hi > lo:
            mids = 0.5 * (e[:-1] + e[1:])
            seg[1:] *= 1.0 + 2.0 * (mids - lo) / (hi - lo)
    return np.cumsum(seg)


def _resample_side(path, lo: int, hi: int, energies=None):
    """Equal weighted-arclength resampling of path[lo:hi+1], ends pinned."""
    if hi - lo < 2:
        return []
    side = path[lo : hi + 1]
    e_side = None if energies is None else energies[lo : hi + 1]
    s = _path_arclengths(side, e_side)
    total = s[-1]
    if total <= 0.0:
        return []
    changed = []
    targets = np.linspace(0.0, total, len(side))
    for m, tgt in enumerate(targets[1:-1], start=1):
        j = int(np.searchsorted(s, tgt, side="right") - 1)
        j = min(max(j, 0), len(side) - 2)
        seg = s[j + 1] - s[j]
        frac = 0.0 if seg <= 0.0 else (tgt - s[j]) / seg
        path[lo + m] = _interpolate(side[j], side[j + 1], frac)
        changed.append(lo + m)
    return changed


def _local_path_max(path, energies, i, p):
    """Refine the discrete path maximum by a parabolic pass on each side.

    Returns (field, J) of the best point found on the two segments around
    vertex i; never worse than the vertex itself.
    """
    best_u, best_j = path[i], energies[i]
    for a, b in ((i - 1, i), (i, i + 1)):
        ja, jb = energies[a], energies[b]
        um = _interpolate(path[a], path[b], 0.5)
        jm = eval_J(um, p)
        if jm > best_j:
            best_u, best_j = um, jm
        # Parabola through (0, ja), (0.5, jm), (1, jb).
        denom = 2.0 * (ja - 2.0 * jm + jb)
        if denom < 0.0:  # concave: interior vertex exists
            s = 0.5 + (ja - jb) / (2.0 * denom)
            if 0.05 < s < 0.95:
                us = _interpolate(path[a], path[b], s)
                js = eval_J(us, p)
                if js > best_j:
                    best_u, best_j = us, js
    return best_u, best_j


def _armijo_descent(x, f_x, g, gn_sq, tau, objective, *, c1=1e-4, shrink=0.5,
                    grow=1.3, max_backtracks=40):
    """Backtracking line search from the array x along -g.

    objective(candidate array) returns (f, state); the result is
    (state, f, tau) of the accepted step, so the caller keeps what the
    objective built on the way (the candidate field, or the renormalized
    candidate vector).
    """
    for _ in range(max_backtracks):
        f_cand, state = objective(x - tau * g)
        if f_cand <= f_x - c1 * tau * gn_sq:
            return state, f_cand, min(tau * grow, 1.0)
        tau *= shrink
    raise AlgorithmError("line search failed to find a descent step")


def _ray_objective(u: ScalarField, values: np.ndarray, p: float):
    """(max_t J(t v), v) for v = u with the given values; the max is +inf
    when the ray has no positive-part mass."""
    v = u.with_values(values)
    try:
        return nehari_scale(v, p)[1], v
    except DomainError:
        return np.inf, v


def _ray_descent(u, p, tau, grad_tol, max_iters, trace, it0=0):
    """Descend u -> max_t J(tu) by the envelope gradient t* grad_J(t*u).

    For a path whose top lies on the ray through u, this is exactly a
    descent step at the path maximizer with the ray tangent projected out
    (the envelope construction re-maximizes along the tangent).  Returns
    (w, j_max, converged, iterations, gn, tau) with w = t* u on the Nehari
    set and gn the full gradient norm at w.
    """
    gn = np.inf
    it = 0
    for it in range(max_iters):
        t_star, j_max = nehari_scale(u, p)
        w = u.with_values(t_star * u.values)
        g_w = grad_J(w, p)
        gn = l2_norm(g_w)
        trace.append((it0 + it, j_max, gn))
        if gn < grad_tol:
            return w, j_max, True, it + 1, gn, tau
        g = g_w.with_values(t_star * g_w.values)
        u, j_max, tau = _armijo_descent(
            u.values, j_max, g.values, inner(g, g), tau,
            lambda values: _ray_objective(u, values, p),
        )
    t_star, j_max = nehari_scale(u, p)
    w = u.with_values(t_star * u.values)
    return w, j_max, False, it + 1, gn, tau


def _rebuild_path(w, u0, p, n_points, old_path, old_energies):
    """Broken-ray path through a Nehari point w: 0 -> w (ray max) -> u0.

    The ray through w peaks exactly at s = 1; the tail continues along the
    ray until J < 0 and then connects to u0.  Falls back to the old path
    when no tail scaling keeps the connector below zero energy.
    """
    s_zero = ((p + 1.0) / 2.0) ** (1.0 / (p - 1.0))
    for fac in (1.2, 1.5, 2.0, 3.0):
        s_end = fac * s_zero
        tail = w.with_values(s_end * w.values)
        conn_mid = _interpolate(tail, u0, 0.5)
        if eval_J(tail, p) < 0.0 and eval_J(conn_mid, p) < 0.0:
            n_up = max(2, 2 * (n_points - 1) // 3)
            n_down = n_points - 1 - n_up
            s_vals = np.concatenate(
                [np.linspace(0.0, 1.0, n_up), np.linspace(1.0, s_end, n_down + 1)[1:]]
            )
            path = [w.with_values(s * w.values) for s in s_vals] + [u0]
            return path, [eval_J(v, p) for v in path]
    return old_path, old_energies


def solve_mountain_pass(
    config: SolverConfig,
    domain: Optional[Domain] = None,
    u0: Optional[ScalarField] = None,
    path_init: Optional[list] = None,
) -> SolveReport:
    """Discretized-path deformation toward the min-max critical point."""
    config.validate()
    if domain is None:
        domain = make_domain(config)
    p = config.p
    if u0 is None:
        u0 = pick_u0(domain, p)
    if path_init is not None:
        path = [ScalarField(domain.grid, f.values, domain.mask) for f in path_init]
        if len(path) != config.path_points:
            raise ConfigurationError("warm-start path has wrong number of points")
    else:
        zero = u0.with_values(np.zeros_like(u0.values))
        path = [
            _interpolate(zero, u0, s)
            for s in np.linspace(0.0, 1.0, config.path_points)
        ]
    energies = [eval_J(q, p) for q in path]

    def _mid_energies(pth):
        return [
            eval_J(_interpolate(pth[m], pth[m + 1], 0.5), p)
            for m in range(len(pth) - 1)
        ]

    def _top_vertex(vert_e, mid_e):
        """Index of the vertex nearest the path max, midpoints included.

        Sampling only vertices lets a single long segment tunnel through
        the mountain rim unnoticed; the midpoints close that gap.
        """
        iv = int(np.argmax(vert_e))
        im = int(np.argmax(mid_e))
        if mid_e[im] > vert_e[iv]:
            iv = im if vert_e[im] >= vert_e[im + 1] else im + 1
            iv = min(max(iv, 1), len(vert_e) - 2)
        return iv

    mids = _mid_energies(path)
    tau = config.step_size
    trace = []
    converged = False
    w, jw, gn = path[0], energies[0], np.inf
    j_best = np.inf
    it = 0
    # Phase one: bounded path-deformation sweeps to shape the path and
    # carry the top into the pass region.  Polishing the top to tight
    # criticality is then far cheaper along the ray tangent (phase two)
    # than by whole-path sweeps.
    phase_a_cap = min(config.max_iters, 300)
    recent = []
    for it in range(phase_a_cap):
        i = _top_vertex(energies, mids)
        if int(np.argmax(energies)) in (0, len(path) - 1):
            raise AlgorithmError("path collapse: energy maximum at a path endpoint")
        w, jw = _local_path_max(path, energies, i, p)
        jw = max(jw, max(mids))
        j_best = min(j_best, jw)
        g = grad_J(w, p)
        gn = l2_norm(g)
        trace.append((it, jw, gn))
        if gn < config.grad_tol:
            converged = True
            break
        recent.append(jw)
        if len(recent) >= 20 and recent[-20] - jw < 1e-4 * (1.0 + abs(jw)):
            break
        # Deformation sweep over the uphill/top region: vertices with
        # positive energy, plus the top's immediate neighbors, take a
        # descent step along grad_J with the path-tangent component
        # projected out.  The tangential part only slides vertices along
        # the path (undone by resampling anyway); the transverse part is
        # what lowers the pass.  Moving only the maximizer stalls (its
        # neighbors pin the path max from below), while moving the
        # negative-energy tail lets it run away downhill -- J is unbounded
        # below -- until the rim crossing hides inside a single segment.
        # The tail is a connector to u0; it never touches the level.
        active = [
            m
            for m in range(1, len(path) - 1)
            if energies[m] > 0.0 or abs(m - i) <= 1
        ]
        trial = list(path)
        trial_e = list(energies)
        for m in active:
            gm = grad_J(path[m], p)
            fwd = path[m + 1].values - path[m].values
            bwd = path[m].values - path[m - 1].values
            tan = fwd + bwd
            tn_sq = float(np.dot(tan.ravel(), tan.ravel()))
            d = gm.values
            if tn_sq > 0.0:
                d = d - (float(np.dot(d.ravel(), tan.ravel())) / tn_sq) * tan
            # Trust region: a vertex may move at most half the length of
            # its shorter adjacent segment, which keeps the polyline
            # coherent and stops downhill vertices (where J is unbounded
            # below) from running away between resamplings.
            dn = float(np.dot(d.ravel(), d.ravel())) ** 0.5
            seg = min(
                float(np.dot(fwd.ravel(), fwd.ravel())) ** 0.5,
                float(np.dot(bwd.ravel(), bwd.ravel())) ** 0.5,
            )
            step = tau if dn == 0.0 else min(tau, 0.5 * seg / dn)
            trial[m] = path[m].with_values(path[m].values - step * d)
        for m in active:
            trial_e[m] = eval_J(trial[m], p)
        trial_m = _mid_energies(trial)
        trial_max = max(max(trial_e), max(trial_m))
        if not np.isfinite(trial_max) or trial_max > jw + 1e-9 * (1.0 + abs(jw)):
            tau *= 0.5
            if tau < 1e-14:
                raise AlgorithmError("deformation step collapsed to zero")
            continue
        tau = min(tau * 1.1, 1.0)
        path, energies = trial, trial_e
        i = _top_vertex(energies, trial_m)
        # Resampling also stops at the first negative-energy vertex past
        # the top, so the frozen tail keeps its geometry.
        j_end = len(path) - 1
        for m in range(i + 1, len(path)):
            if energies[m] <= 0.0:
                j_end = m
                break
        for m in _resample_side(path, 0, i, energies):
            energies[m] = eval_J(path[m], p)
        for m in _resample_side(path, i, j_end, energies):
            energies[m] = eval_J(path[m], p)
        mids = _mid_energies(path)

    j_best = min(j_best, jw)

    # Phase two: polish the path top by descent at the maximizer with the
    # ray tangent projected out (envelope descent).  Each accepted step
    # yields an admissible path through the new top with a strictly lower
    # max, so this is still a deformation; it just avoids dragging the
    # whole polyline through thousands of sweeps.
    if not converged and config.max_iters > it + 1:
        w, j_top, converged, it_b, gn, tau = _ray_descent(
            w, p, tau, config.grad_tol, config.max_iters - (it + 1),
            trace, it0=it + 1,
        )
        it += it_b
        jw = j_top
        j_best = min(j_best, j_top)
        path, energies = _rebuild_path(w, u0, p, config.path_points, path, energies)

    u_k = w.with_values(np.maximum(w.values, 0.0))
    # The sampled path max (vertices + midpoints) can dip below the true
    # polyline max when a rim crossing hides inside one segment, so the
    # reported level is the exact maximum of J over the ray through the
    # converged top: J(t u) is evaluated in closed form in t, and the
    # rebuilt broken-ray path achieves this max.  At criticality the ray
    # max coincides with J(u_k).
    try:
        _, level = nehari_scale(u_k, p)
    except DomainError:
        level = eval_J(u_k, p)
    bd = energy_breakdown(u_k, p, config.eps)
    return SolveReport(
        field=u_k,
        level=level,
        multiplier=None,
        iterations=it + 1,
        trace=trace,
        breakdown=bd,
        max_point=u_k.max_point(),
        max_value=u_k.max_node()[1],
        converged=converged,
        method="mountain-pass",
        extra={
            "grad_norm": float(gn),
            "min_sampled_max": j_best,
            "path": path,
            "u0": u0,
            "inner_gu": inner(grad_J(u_k, p), u_k),
            "identity_defect": critical_identity_defect(u_k, p),
        },
    )


# ---------------------------------------------------------------------------
# Constrained minimization (normalized gradient flow)
# ---------------------------------------------------------------------------


def _constraint_mass(v: np.ndarray, p: float, w: float) -> float:
    """int v_+^(p+1) of the mask-node vector v, w the cell volume."""
    return _pos_pow_sum(v, p + 1.0) * w


def _renormalize(v: np.ndarray, p: float, w: float) -> np.ndarray:
    mass = _constraint_mass(v, p, w)
    if mass <= 0.0:
        raise AlgorithmError("flow escaped: positive-part mass vanished")
    return v / mass ** (1.0 / (p + 1.0))


def solve_constrained_min(
    config: SolverConfig, domain: Optional[Domain] = None
) -> SolveReport:
    """Projected gradient flow on {int u_+^(p+1) = 1}, minimizing I.

    The flow runs on mask-node vectors v: grad I = A v with the cached
    operator A, and I is summed as squares on one reused box array.
    Fields are built only from the starting bump and for the report.
    """
    config.validate()
    if domain is None:
        domain = make_domain(config)
    p = config.p
    grid, mask = domain.grid, domain.mask
    w = grid.cell_volume
    A = energy_operator(grid, mask)
    box = np.zeros(grid.shape)  # zero off the mask for good

    def l2_inner(a, b):
        return float(a @ b) * w

    def constrained_energy(c):
        """(I of the renormalized candidate, that candidate)."""
        c = _renormalize(c, p, w)
        box[mask] = c
        return 0.5 * e_norm_sq_values(grid, box), c

    i_u, v = constrained_energy(radial_bump(domain).interior())
    av = A @ v
    tau = config.step_size
    trace = []
    converged = False
    gn = np.inf
    it = 0
    for it in range(config.max_iters):
        normal = _pos_pow(v, p)
        nn = l2_inner(normal, normal)
        mu = l2_inner(av, normal) / nn if nn > 0 else 0.0
        g = av - mu * normal
        gn = l2_inner(g, g) ** 0.5
        if not (np.isfinite(gn) and np.isfinite(i_u)):
            raise NumericError(f"non-finite flow at iteration {it}: I = {i_u}, |g| = {gn}")
        trace.append((it, i_u, gn))
        if gn < config.grad_tol:
            converged = True
            break
        v, i_u, tau = _armijo_descent(v, i_u, g, gn * gn, tau, constrained_energy)
        av = A @ v

    # Final positivity projection + exact renormalization; for a converged
    # run this is a no-op beyond stripping round-off undershoots.
    v = _renormalize(np.maximum(v, 0.0), p, w)
    box[mask] = v
    lam = e_norm_sq_values(grid, box)
    alpha = 0.5 * lam
    u = ScalarField.from_interior(grid, mask, v)
    u_star = ScalarField.from_interior(grid, mask, lam ** (1.0 / (p - 1.0)) * v)
    bd = energy_breakdown(u_star, p, config.eps)
    return SolveReport(
        field=u_star,
        level=alpha,
        multiplier=lam,
        iterations=it + 1,
        trace=trace,
        breakdown=bd,
        max_point=u_star.max_point(),
        max_value=u_star.max_node()[1],
        converged=converged,
        method="constrained-min",
        extra={
            "grad_norm": float(gn),
            "constraint_defect": abs(_constraint_mass(v, p, w) - 1.0),
            "constrained_field": u,
            "residual_rel": bd.residual_l2 / l2_norm(u_star),
            "identity_defect": critical_identity_defect(u_star, p),
        },
    )


# ---------------------------------------------------------------------------
# Nehari cross-oracle: minimize the ray maximum of J directly
# ---------------------------------------------------------------------------


def nehari_descent(
    config: SolverConfig, domain: Optional[Domain] = None
) -> SolveReport:
    """Minimize u -> max_t J(t u) by envelope-gradient descent.

    Independent route to the mountain-pass level: at the minimum t* = 1
    and the minimizer is the ground state itself.
    """
    config.validate()
    if domain is None:
        domain = make_domain(config)
    p = config.p
    trace = []
    w, _, converged, iters, gn, _ = _ray_descent(
        radial_bump(domain), p, config.step_size, config.grad_tol,
        config.max_iters, trace,
    )
    u = w.with_values(np.maximum(w.values, 0.0))
    bd = energy_breakdown(u, p, config.eps)
    return SolveReport(
        field=u,
        level=eval_J(u, p),
        multiplier=None,
        iterations=iters,
        trace=trace,
        breakdown=bd,
        max_point=u.max_point(),
        max_value=u.max_node()[1],
        converged=converged,
        method="nehari-descent",
        extra={"grad_norm": float(gn)},
    )


# ---------------------------------------------------------------------------
# Decay fitting
# ---------------------------------------------------------------------------


def fit_decay(u: ScalarField, ball_radius: Optional[float] = None) -> DecayFit:
    """Least-squares fit of log(shell max) vs gauge radius.

    Shells cover [0.4 k, 0.9 k]; each sample records the gauge radius at
    the shell's maximizing node, so an exact exponential input fits with
    delta recovered and R^2 = 1.
    """
    if float(np.min(u.values)) < 0.0:
        raise DomainError("decay fit expects a nonnegative field")
    if not np.any(u.values > 0.0):
        raise DomainError("decay fit expects a nonzero field")
    rho = u.grid.gauge_array()
    if ball_radius is None:
        ball_radius = float(rho[u.mask].max()) if u.mask.any() else float(rho.max())
    k = ball_radius
    # The exponential regime starts outside the core; below ~0.4 k the
    # profile is still flat and drags the fit quality down.
    lo, hi = 0.4 * k, 0.9 * k
    sel = (rho >= lo) & (rho < hi) & u.mask & (np.abs(u.values) > 1e-12)
    rs_all = np.broadcast_to(rho, u.values.shape)[sel]
    vs_all = np.abs(u.values[sel])
    if rs_all.size < 4:
        raise InsufficientDataError(
            f"only {rs_all.size} usable nodes in gauge range [{lo:.3g}, {hi:.3g}]"
        )
    # Equal-count shells (gauge quantiles) are never empty, unlike
    # equal-width bins on coarse grids; each contributes its peak value at
    # that node's exact gauge radius.
    order = np.argsort(rs_all)
    rs_all, vs_all = rs_all[order], vs_all[order]
    hx = u.grid.spacing[0]
    n_shells = int(max(4, min(12, np.floor((hi - lo) / hx), rs_all.size)))
    samples = []
    for chunk_r, chunk_v in zip(
        np.array_split(rs_all, n_shells), np.array_split(vs_all, n_shells)
    ):
        if chunk_r.size == 0:
            continue
        j = int(np.argmax(chunk_v))
        samples.append((float(chunk_r[j]), float(chunk_v[j])))
    if len(samples) < 4:
        raise InsufficientDataError(
            f"only {len(samples)} usable gauge shells in [{lo:.3g}, {hi:.3g}]"
        )
    rs = np.array([s[0] for s in samples])
    logs = np.log([s[1] for s in samples])
    slope, intercept = np.polyfit(rs, logs, 1)
    pred = slope * rs + intercept
    ss_res = float(np.sum((logs - pred) ** 2))
    ss_tot = float(np.sum((logs - logs.mean()) ** 2))
    r2 = 0.0 if ss_tot < 1e-20 else 1.0 - ss_res / ss_tot
    return DecayFit(
        C=float(np.exp(intercept)),
        delta=float(-slope),
        r_squared=r2,
        shell_samples=samples,
    )


# ---------------------------------------------------------------------------
# Domain exhaustion
# ---------------------------------------------------------------------------


@dataclass
class ExhaustionEntry:
    radius: float
    level: float
    max_point: GroupPoint
    max_value: float
    xi_gauge: float
    decay: DecayFit
    report: SolveReport


@dataclass
class ExhaustionReport:
    entries: list
    monotone: bool
    monotone_slack: float

    def as_dict(self) -> dict:
        return {
            "monotone": self.monotone,
            "monotone_slack": self.monotone_slack,
            "entries": [
                {
                    "radius": e.radius,
                    "level": e.level,
                    "max_value": e.max_value,
                    "xi_gauge": e.xi_gauge,
                    "delta": e.decay.delta,
                    "r_squared": e.decay.r_squared,
                }
                for e in self.entries
            ],
        }


def exhaust_domains(
    radii, config: SolverConfig, rel_slack: float = 1e-6
) -> ExhaustionReport:
    """Mountain-pass solves on nested balls B_k sharing one master grid.

    All balls are masks on the grid of the largest radius, so the nesting
    of the discrete energy spaces (and hence monotonicity of the levels)
    is exact.  One u0 fixed from the smallest ball keeps the path families
    literally nested; each solve warm-starts from the previous path.
    """
    radii = list(radii)
    if len(radii) < 2 or any(b <= a for a, b in zip(radii[:-1], radii[1:])):
        raise ConfigurationError("radii must be a strictly increasing list (>= 2)")
    cfg = SolverConfig(**{**config.__dict__, "ball_radius": radii[-1]})
    cfg.validate()
    master = make_domain(cfg)
    masks = {k: ball_mask(master.grid, k) for k in radii}
    u0 = pick_u0(Domain(master.grid, masks[radii[0]], radii[0]), cfg.p)
    entries = []
    path = None
    for k in radii:
        dom = Domain(master.grid, masks[k], k)
        u0_k = zero_extend(u0, masks[k])
        rep = solve_mountain_pass(cfg, domain=dom, u0=u0_k, path_init=path)
        path = rep.extra["path"]
        decay = fit_decay(rep.field, ball_radius=k)
        xi = rep.max_point
        from .heis_core import gauge as _gauge

        entries.append(
            ExhaustionEntry(
                radius=k,
                level=rep.level,
                max_point=xi,
                max_value=rep.max_value,
                xi_gauge=_gauge(xi),
                decay=decay,
                report=rep,
            )
        )
    monotone = True
    slack = 0.0
    for a, b in zip(entries[:-1], entries[1:]):
        excess = (b.level - a.level) / abs(a.level)
        slack = max(slack, excess)
        if excess > rel_slack:
            monotone = False
    return ExhaustionReport(entries=entries, monotone=monotone, monotone_slack=slack)


# ---------------------------------------------------------------------------
# Method comparison
# ---------------------------------------------------------------------------


@dataclass
class ComparisonReport:
    mountain_pass: SolveReport
    constrained: SolveReport
    level_gap_rel: float
    bridge_defect_rel: float
    field_distance_rel: float
    both_positive: bool

    def as_dict(self) -> dict:
        return {
            "c_k": self.mountain_pass.level,
            "alpha": self.constrained.level,
            "lambda": self.constrained.multiplier,
            "J_of_rescaled_minimizer": eval_J(
                self.constrained.field, self.constrained.breakdown.p
            ),
            "level_gap_rel": self.level_gap_rel,
            "bridge_defect_rel": self.bridge_defect_rel,
            "field_distance_rel": self.field_distance_rel,
            "both_positive": self.both_positive,
        }


def _recenter_to_origin(u: ScalarField) -> ScalarField:
    """Shift the max node to the node nearest the origin (zero fill)."""
    idx, _ = u.max_node()
    center = tuple(int(np.argmin(np.abs(u.grid.axis_coords(a)))) for a in range(3))
    vals = u.values
    for a, (i, c) in enumerate(zip(idx, center)):
        shift = c - i
        vals = np.roll(vals, shift, axis=a)
        sl = [slice(None)] * 3
        if shift > 0:
            sl[a] = slice(0, shift)
        elif shift < 0:
            sl[a] = slice(shift, None)
        if shift != 0:
            vals[tuple(sl)] = 0.0
    return ScalarField(u.grid, np.where(u.mask, vals, 0.0), u.mask)


def compare_methods(
    config: SolverConfig, domain: Optional[Domain] = None
) -> ComparisonReport:
    """Run both methods on one instance and check they agree."""
    config.validate()
    if domain is None:
        domain = make_domain(config)
    rep_mp = solve_mountain_pass(config, domain=domain)
    rep_cm = solve_constrained_min(config, domain=domain)
    p = config.p
    c_k = rep_mp.level
    j_star = eval_J(rep_cm.field, p)
    level_gap = abs(j_star - c_k) / abs(c_k)
    lam = rep_cm.multiplier
    bridge = (p - 1.0) / (2.0 * (p + 1.0)) * lam ** ((p + 1.0) / (p - 1.0))
    bridge_defect = abs(bridge - c_k) / abs(c_k)
    a = _recenter_to_origin(rep_mp.field)
    b = _recenter_to_origin(rep_cm.field)
    diff = a.values - b.values
    denom = max(l2_norm(a), 1e-300)
    field_dist = (
        float(np.dot(diff.ravel(), diff.ravel())) * a.grid.cell_volume
    ) ** 0.5 / denom
    bulk = domain.grid.gauge_array() < 0.7 * domain.ball_radius
    both_pos = bool(
        rep_mp.field.values[domain.mask].min() >= 0.0
        and rep_cm.field.values[domain.mask].min() >= 0.0
        and rep_mp.field.values[bulk & domain.mask].min() > 0.0
        and rep_cm.field.values[bulk & domain.mask].min() > 0.0
    )
    return ComparisonReport(
        mountain_pass=rep_mp,
        constrained=rep_cm,
        level_gap_rel=level_gap,
        bridge_defect_rel=bridge_defect,
        field_distance_rel=field_dist,
        both_positive=both_pos,
    )
