"""The two solution procedures and the domain-exhaustion driver.

First method: mountain-pass on the gauge ball B_k.  The path is the ray
through a start u0: J(t u0) -> -inf as t grows when u0 has a positive
part, so every such ray joins 0 to negative energy, and for this
superlinear J the min-max over them is the Nehari level c_k (Willem,
Minimax Theorems, 1996, Thm 4.2).  The ray's top starts `_ray_descent`,
which lowers the ray maximum along the envelope gradient of
u -> max_t J(t u) until the gradient at the top vanishes.  The converged
level c_k is the min-max critical value.

Second method: minimization of the quadratic energy I on the constraint
manifold {int u_+^(p+1) = 1} by the normalized inverse iteration
u <- A^-1 u_+^p / ||A^-1 u_+^p||_{L^(p+1)}, the H^1 (Sobolev) gradient step
of the constrained problem, with A^-1 applied by Jacobi-preconditioned CG.
Each CG solve starts from the Galerkin projection of its right-hand side
onto the span of the last four iterates, the A-norm-best start there, which
takes about a third of the CG iterations of a start from the last solution
alone.  That CG is `_pcg`, numpy code that repeats scipy's `cg` bit for
bit, so start-up loads no `scipy.sparse.linalg`; a CG solve that does not
converge stops the iteration unconverged.  Its step count does not grow
with the mesh.  The minimum alpha and multiplier lambda = ||u||^2 convert
into a PDE solution via u* = lambda^(1/(p-1)) u.

Both produce the same discrete ground state; `compare_methods` checks the
bridge identity c = (p-1)/(2(p+1)) * lambda^((p+1)/(p-1)).  `nehari_descent`
is the same ray descent started from the unit bump itself.  Mountain-pass
and `nehari_descent` descend the L^2 gradient with Armijo line searches.

All three iterate on mask-node vectors through one `_Energy` per (domain,
p); a `ScalarField` is built only for the start and the report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field, replace
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
    _constraint_mass,
    _energy,
    _gradient,
    _pos_pow,
    _ray_max,
    check_exponent,
    critical_identity_defect,
    energy_breakdown,
    eval_J,
)
from .grid import (
    Grid3,
    ScalarField,
    _energy_norm_sq,
    ball_mask,
    build_ball_grid,
    energy_operator,
    horizontal_gradient,
    l2_norm,
    zero_extend,
)
from .heis_core import GroupPoint, gauge

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
    "solve_mountain_pass",
    "solve_constrained_min",
    "nehari_descent",
    "exhaust_domains",
    "fit_decay",
    "compare_methods",
]


@dataclass(frozen=True)
class SolverConfig:
    """Solver knobs; defaults suit the desk-scale runs.

    Checked on construction (and so by `dataclasses.replace`): an invalid
    config raises ConfigurationError and never exists.
    """

    p: float = 2.0
    ball_radius: float = 6.0
    nodes_per_axis: int = 48
    max_iters: int = 40000
    grad_tol: float = 1e-6

    def __post_init__(self):
        check_exponent(self.p)
        for name in ("ball_radius", "grad_tol"):
            value = getattr(self, name)
            # Written so that NaN fails it too.
            if not 0.0 < value < np.inf:
                raise ConfigurationError(f"{name} must be finite and positive, got {value}")
        if self.nodes_per_axis < 8:
            raise ConfigurationError(f"need >= 8 nodes per axis, got {self.nodes_per_axis}")
        if self.max_iters < 1:
            raise ConfigurationError(f"need >= 1 iteration, got max_iters = {self.max_iters}")


@dataclass(frozen=True)
class Domain:
    grid: Grid3
    mask: np.ndarray
    ball_radius: float


# An upper bound on the first Dirichlet eigenvalue of -Delta_H on the unit
# gauge ball; the discrete one is 6.85, 7.41, 7.73 and 8.09 at N = 8, 12, 16
# and 24.  B scales like 1/k, so on B_k the bottom of A is 1 + that / k^2.
_UNIT_BALL_EIGENVALUE = 10.0
_LOG_MAX_FLOAT = math.log(np.finfo(float).max)


def make_domain(config: SolverConfig) -> Domain:
    """The ball grid of `config`, if the solvers can represent its scale.

    Beyond `build_ball_grid`'s checks, b^8 and (b^2 a)^2 must be finite, with
    b = 1/h_x + 2 max|y| / h_t (about 1.5 N / k) and a = (1 + 10 / k^2)^(1/(p-1)).
    b bounds the entries of B, and b^2 those of A.  a is the amplitude of
    the ground state: as k -> 0 it grows like k^(-2/(p-1)), times a factor
    that is large near p = 1, and the squared residual norm sums (A u)^2 <=
    (b^2 a)^2 over the nodes.  At p = 2, where a ~ 10 k^-2, b^8 is the larger
    scale, and the bound is k >= about 4.4e-39 N; near p = 1 the amplitude
    binds (at N = 8, k >= about 1e-25 at p = 1.5, 3.5e-7 at p = 1.1 and
    0.56 at p = 1.01).  Otherwise ConfigurationError.
    """
    grid, mask = build_ball_grid(config.ball_radius, config.nodes_per_axis)
    hx, _, ht = (float(h) for h in grid.spacing)
    k, p = config.ball_radius, config.p
    log_b = math.log(1.0 / hx + 2.0 * float(np.abs(grid.axis_coords(1)).max()) * (1.0 / ht))
    if not 8.0 * log_b < _LOG_MAX_FLOAT:
        raise ConfigurationError(
            f"ball radius {k} is out of range: the operator scale b^8 overflows"
        )
    log_a = math.log1p(_UNIT_BALL_EIGENVALUE / (k * k)) / (p - 1.0)
    if not 2.0 * (2.0 * log_b + log_a) < _LOG_MAX_FLOAT:
        raise ConfigurationError(
            f"ball radius {k} is out of range at p = {p}: the ground state's "
            "scale (b^2 a)^2 overflows"
        )
    return Domain(grid, mask, config.ball_radius)


_TRACE_STRIDE = 50  # a report keeps every 50th trace record, and the last
# The initial L^2 step of mountain-pass and `nehari_descent`.
_STEP_SIZE = 5e-3


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

    def as_dict(self) -> dict:
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
            "trace": [list(rec) for rec in self.trace[:-1:_TRACE_STRIDE] + self.trace[-1:]],
            **self.extra,
        }


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


def _report(u: ScalarField, breakdown: EnergyBreakdown, method: str, *, level,
            iterations, trace, converged, grad_norm, multiplier=None, **extra):
    """The SolveReport of a solver's final field u; extra holds its checks."""
    idx, top = u.max_node()
    return SolveReport(
        field=u, level=level, multiplier=multiplier, iterations=iterations,
        trace=trace, breakdown=breakdown, max_point=u.grid.node_point(idx),
        max_value=top, converged=converged, method=method,
        extra={"grad_norm": float(grad_norm), **extra},
    )


# ---------------------------------------------------------------------------
# Initialization
# ---------------------------------------------------------------------------


def radial_bump(domain: Domain) -> ScalarField:
    """Centered gauge-radial bump exp(-rho^2), masked to the ball."""
    rho = domain.grid.gauge_array()
    return ScalarField(domain.grid, np.exp(-rho * rho), domain.mask)


# ---------------------------------------------------------------------------
# The energy on mask-node vectors
# ---------------------------------------------------------------------------


class _Energy:
    """J and its pieces on the mask-node vectors of one domain, for one p.

    A vector holds a field's values on the mask nodes in C order, the order
    of `u.values[u.mask]` and of the cached operators B and A.  The energy
    norm is summed as squares of B v and v (see `grid`), and the formulas
    are the ones the public field functions use.
    """

    def __init__(self, domain: Domain, p: float):
        self.grid, self.mask, self.p = domain.grid, domain.mask, p
        self.w = domain.grid.cell_volume
        self.B = horizontal_gradient(domain.grid, domain.mask)
        self.A = energy_operator(domain.grid, domain.mask)

    def field(self, v: np.ndarray) -> ScalarField:
        return ScalarField.from_interior(self.grid, self.mask, v)

    def inner(self, a: np.ndarray, b: np.ndarray) -> float:
        """Discrete L^2 inner product."""
        return float(a @ b) * self.w

    def norm(self, v: np.ndarray) -> float:
        return self.inner(v, v) ** 0.5

    def norm_sq(self, v: np.ndarray) -> float:
        """||v||^2 = ||X_h v||^2 + ||Y_h v||^2 + ||v||^2."""
        return _energy_norm_sq(self.B, v, self.w)

    def mass(self, v: np.ndarray) -> float:
        return _constraint_mass(v, self.p, self.w)

    def J(self, v: np.ndarray) -> float:
        return _energy(self.norm_sq(v), self.mass(v), self.p)

    def grad(self, v: np.ndarray) -> np.ndarray:
        return _gradient(self.A, v, self.p)

    def ray_max(self, v: np.ndarray):
        """(t*, max_t J(t v)); DomainError when v has no positive-part mass."""
        return _ray_max(self.norm_sq(v), self.mass(v), self.p)

    def ray_top(self, v: np.ndarray):
        """Ray-descent objective: (max_t J(t v), (v, t*)), +inf without mass."""
        try:
            t_star, j_max = self.ray_max(v)
        except DomainError:
            return np.inf, None
        return j_max, (v, t_star)

    def renormalize(self, v: np.ndarray) -> np.ndarray:
        """v scaled onto the constraint int v_+^(p+1) = 1."""
        mass = self.mass(v)
        if mass <= 0.0:
            raise AlgorithmError("flow escaped: positive-part mass vanished")
        return v / mass ** (1.0 / (self.p + 1.0))

    def constrained(self, c: np.ndarray):
        """(I(v), v) for v = c renormalized onto the constraint."""
        v = self.renormalize(c)
        return 0.5 * self.norm_sq(v), v


# `_armijo_descent`: the sufficient-decrease constant, the step factors on a
# rejected and on an accepted step, and the backtracking budget.
_ARMIJO_C1 = 1e-4
_SHRINK = 0.5
_GROW = 1.3
_MAX_BACKTRACKS = 40


def _armijo_descent(x, f_x, g, gn_sq, tau, objective):
    """Backtracking line search from the vector x along -g (ray descent).

    objective(candidate vector) returns (f, state); the result is
    (state, f, tau) of the accepted step, so the caller keeps what the
    objective computed on the way (the candidate and its ray scale).  None
    means no step descends: f has reached its rounding floor, and the
    caller stops at x, unconverged.
    """
    for _ in range(_MAX_BACKTRACKS):
        f_cand, state = objective(x - tau * g)
        if f_cand <= f_x - _ARMIJO_C1 * tau * gn_sq:
            return state, f_cand, min(tau * _GROW, 1.0)
        tau *= _SHRINK
    return None


def _check_finite(what: str, it: int, f: float, gn: float) -> None:
    if not (np.isfinite(f) and np.isfinite(gn)):
        raise NumericError(f"non-finite {what} at iteration {it}: J = {f}, |g| = {gn}")


# ---------------------------------------------------------------------------
# Mountain-pass path deformation
# ---------------------------------------------------------------------------


# Flat steps in a row before a descent stops unconverged (`stall`): a ray
# descent's steps that leave the ray maximum unchanged, whose Armijo decrease
# _ARMIJO_C1 * tau * |g|^2 has fallen below the rounding of J; constrained-min's
# steps that set a new smallest value of neither I nor |g|.  Further steps only
# spend iterations.
_STALL_STEPS = 20


def _ray_descent(energy: _Energy, u, tau, grad_tol, max_iters, trace):
    """Descend u -> max_t J(tu) by the envelope gradient t* grad_J(t*u).

    For a path whose top lies on the ray through u, this is exactly a
    descent step at the path maximizer with the ray tangent projected out
    (the envelope construction re-maximizes along the tangent).  u is a
    mask-node vector and max_iters >= 1.  Returns (w, j_max, converged,
    iterations, gn, stop_reason) with w = t* u on the Nehari set and gn the
    full gradient norm at w.  Unconverged stops: `max_iters`, `no_descent`
    (no descending step) or `stall` (_STALL_STEPS flat steps in a row).
    """
    t_star, j_max = energy.ray_max(u)
    flat = 0
    stop = "max_iters"
    for it in range(max_iters):
        w = t_star * u
        g_w = energy.grad(w)
        gn = energy.norm(g_w)
        _check_finite("ray descent", it, j_max, gn)
        trace.append((it, j_max, gn))
        if gn < grad_tol:
            stop = "grad_tol"
            break
        if it + 1 == max_iters:
            break
        if flat == _STALL_STEPS:
            stop = "stall"
            break
        g = t_star * g_w
        step = _armijo_descent(u, j_max, g, energy.inner(g, g), tau, energy.ray_top)
        if step is None:
            stop = "no_descent"
            break
        (u, t_star), j_next, tau = step
        flat = flat + 1 if j_next == j_max else 0
        j_max = j_next
    return w, j_max, stop == "grad_tol", it + 1, gn, stop


def solve_mountain_pass(
    config: SolverConfig,
    domain: Optional[Domain] = None,
    u0: Optional[ScalarField] = None,
) -> SolveReport:
    """Descend the top of the ray through u0 until it is a critical point of J.

    The path is the ray s -> s u0, with `radial_bump` as the default u0.
    `_ray_descent` starts at the ray's top t* u0 and lowers the path
    maximum by the envelope gradient: every accepted step leaves an
    admissible path, the ray through the new top, with a lower maximum.
    A u0 without a positive part has no top: DomainError.
    """
    if domain is None:
        domain = make_domain(config)
    p = config.p
    energy = _Energy(domain, p)
    if u0 is None:
        u0 = radial_bump(domain)
    elif u0.grid != domain.grid or np.any(u0.values[~domain.mask]):
        raise ConfigurationError("u0 must lie on the domain's grid, zero off its ball")
    v0 = u0.values[domain.mask]
    t_star, _ = energy.ray_max(v0)
    trace = []
    w, _, converged, iters, gn, stop = _ray_descent(
        energy, t_star * v0, _STEP_SIZE, config.grad_tol, config.max_iters, trace,
    )

    v_k = np.maximum(w, 0.0)
    u_k = energy.field(v_k)
    # The reported level is the exact maximum of J over the ray through the
    # converged top: J(t u) is evaluated in closed form in t.  At criticality
    # the ray max coincides with J(u_k).
    try:
        _, level = energy.ray_max(v_k)
    except DomainError:
        level = energy.J(v_k)
    return _report(
        u_k, energy_breakdown(u_k, p), "mountain-pass", level=level,
        iterations=iters, trace=trace, converged=converged, grad_norm=gn,
        stop_reason=stop,
        inner_gu=energy.inner(energy.grad(v_k), v_k),
        identity_defect=critical_identity_defect(u_k, p),
    )


# ---------------------------------------------------------------------------
# Constrained minimization (normalized inverse iteration)
# ---------------------------------------------------------------------------

# The CG relative tolerance of one step: min(_CG_RTOL_MAX, _CG_RTOL_PER_GRAD
# * |g|), loose far from the minimum and tightening with the gradient.
_CG_RTOL_MAX = 1e-3
_CG_RTOL_PER_GRAD = 0.1
# A step may raise I by this many ulps of I (rounding of the energy sum).
_ROUNDING_RISE = 64 * np.finfo(float).eps
# CG gives up after this many iterations per unknown, as scipy's `cg` does.
_CG_MAX_ITERS_PER_UNKNOWN = 10
# Each CG solve starts from the Galerkin projection onto the span of the last
# _CG_STARTS iterates (Fischer 1998, successive right-hand sides).  A vector
# whose Cholesky pivot falls below _START_PIVOT_TOL of the largest diagonal
# of their Gram matrix is left out: successive iterates become nearly
# collinear as the solve converges.
_CG_STARTS = 4
_START_PIVOT_TOL = 1e-12


def _projected_start(basis, gram, b: np.ndarray) -> np.ndarray:
    """The A-norm-best approximation to A^-1 b in the span of `basis`.

    x = sum_j c_j basis[j] with (V^T A V) c = V^T b, where gram[i][j] =
    basis[i] . A basis[j].  The small system is solved by a Cholesky in
    plain Python that skips a vector whose pivot is below _START_PIVOT_TOL
    of the largest diagonal, so vectors nearer the front of `basis` win.
    Returns a new array.
    """
    tol = _START_PIVOT_TOL * max(gram[i][i] for i in range(len(basis)))
    keep, rows = [], []  # rows[a] is row a of the Cholesky factor L
    for i in range(len(basis)):
        row = []
        for a, j in enumerate(keep):
            row.append((gram[i][j] - sum(row[q] * rows[a][q] for q in range(a))) / rows[a][a])
        pivot = gram[i][i] - sum(x * x for x in row)
        if pivot > tol:
            rows.append(row + [pivot ** 0.5])
            keep.append(i)
    if not keep:
        return np.zeros_like(b)
    y = []
    for a, i in enumerate(keep):
        y.append((float(basis[i] @ b) - sum(rows[a][q] * y[q] for q in range(a))) / rows[a][a])
    c = [0.0] * len(keep)
    for a in reversed(range(len(keep))):
        c[a] = (y[a] - sum(rows[q][a] * c[q] for q in range(a + 1, len(keep)))) / rows[a][a]
    x = c[0] * basis[keep[0]]
    for a in range(1, len(keep)):
        x += c[a] * basis[keep[a]]
    return x


def _pcg(A, b: np.ndarray, x: np.ndarray, inv_diag: np.ndarray, rtol: float):
    """Solve A x = b in place by Jacobi-preconditioned CG, started from x.

    This is the arithmetic of `scipy.sparse.linalg.cg` with M = diag(inv_diag),
    in its order, so the iterates are scipy's bit for bit.  The test
    ||b - A x|| < rtol ||b|| comes before each step.  z also holds the
    updates alpha p and alpha q.  Returns (iterations, converged).  The
    solve has not converged after _CG_MAX_ITERS_PER_UNKNOWN * n iterations,
    or when p.Ap is not a positive finite number (a breakdown).
    """
    atol = rtol * np.linalg.norm(b)
    max_iters = _CG_MAX_ITERS_PER_UNKNOWN * b.size
    r = b - A @ x if x.any() else b.copy()
    z = np.empty_like(r)
    p = rho_prev = None
    for it in range(max_iters):
        if np.linalg.norm(r) < atol:
            return it, True
        np.multiply(inv_diag, r, out=z)
        rho = r @ z
        if p is None:
            p = z.copy()
        else:
            p *= rho / rho_prev
            p += z
        q = A @ p
        pq = p @ q
        if not 0.0 < pq < np.inf:
            return it, False
        alpha = rho / pq
        x += np.multiply(alpha, p, out=z)
        r -= np.multiply(alpha, q, out=z)
        rho_prev = rho
    return max_iters, False


def solve_constrained_min(
    config: SolverConfig, domain: Optional[Domain] = None
) -> SolveReport:
    """Minimize I on {int u_+^(p+1) = 1} by the normalized inverse iteration.

    Each step is the H^1 (Sobolev) gradient step of the constrained
    problem, v <- z / ||z||_{L^(p+1)} with A z = v_+^p, solved by
    Jacobi-preconditioned CG (`_pcg`) to the relative tolerance
    min(_CG_RTOL_MAX, _CG_RTOL_PER_GRAD * |g|).  CG starts from
    `_projected_start`: the A-norm-best vector in the span of the last
    _CG_STARTS iterates, which holds the last z, so in exact arithmetic the
    start is never worse than the last solution.  The iterates' A-products
    are the A v each step computes anyway, so the start costs at most
    2 * _CG_STARTS dot products and no operator application.
    g = A v - mu v_+^p is the L^2 gradient projected onto the constraint's
    tangent space; its norm is the stopping test and the reported grad_norm.

    A step is kept while I rises by no more than rounding.  A larger rise
    stops the solve unconverged (`no_descent`), and so does a CG solve that
    does not converge: it reaches _CG_MAX_ITERS_PER_UNKNOWN * n iterations,
    or p.Ap is not a positive finite number.  The solve also stops
    unconverged after _STALL_STEPS steps in a row in which neither I nor
    |g| reaches a new minimum (`stall`).  I reaches its rounding floor long
    before |g| does, and may then cycle among a few rounded values, so the
    stall rule watches the record lows of both.  The run works on mask-node
    vectors; fields are built only from the starting bump and for the
    report.
    """
    if domain is None:
        domain = make_domain(config)
    p = config.p
    energy = _Energy(domain, p)
    i_u, v = energy.constrained(radial_bump(domain).interior())
    inv_diag = 1.0 / energy.A.diagonal()
    cg_iters = 0
    # The last _CG_STARTS iterates, newest first, and their Gram matrix in A:
    # z_j = s_j v_(j+1), so they span what the last CG solutions span, and
    # A v is the `av` each step computes anyway.
    basis, gram = [], []
    trace = []
    i_best, gn_best = i_u, np.inf
    flat = 0
    stop = "max_iters"
    for it in range(config.max_iters):
        normal = _pos_pow(v, p)
        av = energy.A @ v
        nn = energy.inner(normal, normal)
        mu = energy.inner(av, normal) / nn if nn > 0 else 0.0
        g = av - mu * normal
        gn = energy.norm(g)
        _check_finite("inverse iteration", it, i_u, gn)
        trace.append((it, i_u, gn))
        if gn < gn_best:
            gn_best, flat = gn, 0
        if gn < config.grad_tol:
            stop = "grad_tol"
            break
        if it + 1 == config.max_iters:
            break
        if flat == _STALL_STEPS:
            stop = "stall"
            break
        basis = [v] + basis[: _CG_STARTS - 1]
        row = [float(u @ av) for u in basis]  # basis[j] . A v, A symmetric
        gram = [row] + [[a] + old[: _CG_STARTS - 1] for a, old in zip(row[1:], gram)]
        z = _projected_start(basis, gram, normal)
        n_cg, solved = _pcg(energy.A, normal, z, inv_diag,
                            min(_CG_RTOL_MAX, _CG_RTOL_PER_GRAD * gn))
        cg_iters += n_cg
        if not solved:
            stop = "no_descent"
            break
        i_next, v_next = energy.constrained(z)
        _check_finite("inverse iteration", it + 1, i_next, gn)
        if i_next > i_u + _ROUNDING_RISE * abs(i_u):
            stop = "no_descent"
            break
        if i_next < i_best:
            i_best, flat = i_next, 0
        else:
            flat += 1
        i_u, v = i_next, v_next

    # Final positivity projection + exact renormalization; for a converged
    # run this is a no-op beyond stripping round-off undershoots.
    v = energy.renormalize(np.maximum(v, 0.0))
    lam = energy.norm_sq(v)
    alpha = 0.5 * lam
    u_star = energy.field(lam ** (1.0 / (p - 1.0)) * v)
    bd = energy_breakdown(u_star, p)
    return _report(
        u_star, bd, "constrained-min", level=alpha, multiplier=lam,
        iterations=it + 1, trace=trace, converged=stop == "grad_tol", grad_norm=gn,
        stop_reason=stop, cg_iterations=cg_iters,
        constraint_defect=abs(energy.mass(v) - 1.0),
        residual_rel=bd.residual_l2 / l2_norm(u_star),
        identity_defect=critical_identity_defect(u_star, p),
    )


# ---------------------------------------------------------------------------
# Nehari cross-oracle: minimize the ray maximum of J directly
# ---------------------------------------------------------------------------


def nehari_descent(
    config: SolverConfig, domain: Optional[Domain] = None
) -> SolveReport:
    """Minimize u -> max_t J(t u) by envelope-gradient descent.

    This is mountain-pass's `_ray_descent` started from the unit bump itself
    rather than from the top of the ray through it, so it is not independent
    of mountain-pass; the independent cross-check is constrained-min's
    bridge identity in `compare_methods`.  At the minimum t* = 1 and the minimizer is the
    ground state itself.
    """
    if domain is None:
        domain = make_domain(config)
    p = config.p
    energy = _Energy(domain, p)
    trace = []
    w, _, converged, iters, gn, stop = _ray_descent(
        energy, radial_bump(domain).interior(), _STEP_SIZE,
        config.grad_tol, config.max_iters, trace,
    )
    u = energy.field(np.maximum(w, 0.0))
    bd = energy_breakdown(u, p)
    return _report(
        u, bd, "nehari-descent", level=bd.J, iterations=iters, trace=trace,
        converged=converged, grad_norm=gn, stop_reason=stop,
    )


# ---------------------------------------------------------------------------
# Decay fitting
# ---------------------------------------------------------------------------


# Shell radii whose spread is at most this, relative, are one radius up to
# rounding: a line through them is not determined.
_RADIUS_ROUNDING = 1e-12


def fit_decay(u: ScalarField, ball_radius: float) -> DecayFit:
    """Least-squares fit of log(shell max) vs gauge radius.

    Shells cover [0.4 k, 0.9 k] of the ball radius k; each sample records
    the gauge radius at the shell's maximizing node, so an exact
    exponential input fits with delta recovered and R^2 = 1.  Fewer than
    four shells, or shells that all sit at one radius up to rounding, raise
    InsufficientDataError.
    """
    if float(np.min(u.values)) < 0.0:
        raise DomainError("decay fit expects a nonnegative field")
    if not np.any(u.values > 0.0):
        raise DomainError("decay fit expects a nonzero field")
    rho = u.grid.gauge_array()
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
    if np.ptp(rs) <= _RADIUS_ROUNDING * rs.max():
        raise InsufficientDataError(
            f"all {len(samples)} gauge shells in [{lo:.3g}, {hi:.3g}] sit at one radius"
        )
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


_MONOTONE_REL_SLACK = 1e-6  # relative rise of c_k still counted as monotone


def exhaust_domains(radii, config: SolverConfig) -> ExhaustionReport:
    """Mountain-pass solves on nested balls B_k sharing one master grid.

    All balls are masks on the grid of the largest radius, so the nesting
    of the discrete energy spaces (and hence monotonicity of the levels)
    is exact.  The smallest ball starts from its `radial_bump`, and each
    larger ball from the previous ball's field, zero-extended, so its
    descent starts at the previous ball's critical point.
    """
    radii = list(radii)
    if len(radii) < 2 or any(b <= a for a, b in zip(radii[:-1], radii[1:])):
        raise ConfigurationError("radii must be a strictly increasing list (>= 2)")
    cfg = replace(config, ball_radius=radii[-1])
    master = make_domain(cfg)
    masks = {k: ball_mask(master.grid, k) for k in radii}
    u0 = radial_bump(Domain(master.grid, masks[radii[0]], radii[0]))
    entries = []
    for k in radii:
        dom = Domain(master.grid, masks[k], k)
        rep = solve_mountain_pass(cfg, domain=dom, u0=zero_extend(u0, masks[k]))
        u0 = rep.field
        entries.append(
            ExhaustionEntry(
                radius=k,
                level=rep.level,
                max_point=rep.max_point,
                max_value=rep.max_value,
                xi_gauge=gauge(rep.max_point),
                decay=fit_decay(rep.field, ball_radius=k),
                report=rep,
            )
        )
    monotone = True
    slack = 0.0
    for a, b in zip(entries[:-1], entries[1:]):
        excess = (b.level - a.level) / abs(a.level)
        slack = max(slack, excess)
        if excess > _MONOTONE_REL_SLACK:
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
    dst, src = [], []
    for a, (i, n) in enumerate(zip(idx, u.grid.shape)):
        shift = int(np.argmin(np.abs(u.grid.axis_coords(a)))) - i
        dst.append(slice(max(shift, 0), n + min(shift, 0)))
        src.append(slice(max(-shift, 0), n - max(shift, 0)))
    vals = np.zeros(u.grid.shape)
    vals[tuple(dst)] = u.values[tuple(src)]
    return ScalarField(u.grid, vals, u.mask)


def compare_methods(
    config: SolverConfig, domain: Optional[Domain] = None
) -> ComparisonReport:
    """Run both methods on one instance and check they agree."""
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
    field_dist = l2_norm(a.with_values(a.values - b.values)) / max(l2_norm(a), 1e-300)
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
