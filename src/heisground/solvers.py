"""The two solution procedures and the domain-exhaustion driver.

Both methods read one run of one loop, `_ray_descent`, which `_descend`
alone runs and times: it minimizes I on the constraint
{int v_+^(p+1) = 1} as the scale-invariant quotient R(v) = v^T A v /
(sum v_+^(p+1))^(2/(p+1)), by Polak-Ribiere+ nonlinear CG (Antoine, Levitt &
Tang, J. Comput. Phys. 343, 2017) preconditioned by a symmetric
Gauss-Seidel sweep of A in a multicolour order (`grid._ColourOrder`), whose
colouring `grid` works out from the stencil's taps.  On the constraint the
ray maximum max_t J(t v) = (p-1)/(2(p+1)) (2 I(v))^((p+1)/(p-1)) is
monotone in I, so the loop lowers the top of the ray through v.  An
iteration costs one sweep and no product with A: the loop runs in the
colour order, the sweep returns A times its result too (Eisenstat's
identity), along a direction the numerator of R is an exact quadratic, and
the line search `_line_min` needs only vector sums.  A v is recomputed by
an exact product only every few iterations.  No step raises I by more than
rounding.  By default both methods start
from `radial_bump`, the gauge bump about the t-node -h_t/2 where the
discrete ground state peaks (see there for why).

Mountain-pass: the path is the ray through a start u0.  J(t u0) -> -inf
when u0 has a positive part, so every such ray joins 0 to negative energy,
and for this superlinear J the min-max over them is the Nehari level c_k
(Willem, Minimax Theorems, 1996, Thm 4.2).  The loop runs from u0's
direction, and its converged state, scaled onto the Nehari set, is
polished by Newton-MINRES steps on grad J = 0 (`_newton_polish`).

Constrained minimization: the loop from `radial_bump`.  The minimum alpha
and multiplier lambda = ||u||^2 convert into a PDE solution via
u* = lambda^(1/(p-1)) u.

Each method is `_descend` and its own reading of the run's state, and
`compare_methods` descends once and reads both reports from that run.  It
checks the bridge identity
c = (p-1)/(2(p+1)) * lambda^((p+1)/(p-1)) and the Morse index of the
mountain-pass state, which is 1 at a ground state (Li & Zhou, SIAM J. Sci.
Comput., 2001).  The polish and the index run in the colour order too,
preconditioned by the descent's sweep (`_sweep_operator`).  The colour
order, its sweep and its translations are `grid._ColourOrder`'s; this
module reads them through an `_Energy`'s `order`.  The polish and the
index load `scipy.sparse.linalg`; the descent loads no scipy package
module, only scipy's compiled sparse kernels on its first product (see
`grid`).
All work on colour-order vectors through one `_Energy` per (domain, p): a
start's box array is read into the colour order once, and a
`ScalarField` is built from a vector only for the report.
"""

from __future__ import annotations

import math
import numbers
import time
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
    _gradient,
    _identity_defect,
    _pos_pow,
    _ray_max,
    check_exponent,
    energy_breakdown,
)
from .grid import (
    Grid3,
    ScalarField,
    _box_norm_sq,
    _colour_order,
    _gauge_dist_sq4,
    _power,
    ball_mask,
    build_ball_grid,
    l2_norm,
    zero_extend,
)
from .heis_core import GroupPoint, _real, gauge

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
    "exhaust_domains",
    "fit_decay",
    "compare_methods",
]


@dataclass(frozen=True)
class SolverConfig:
    """Solver knobs; defaults suit the desk-scale runs.

    Checked on construction (and so by `dataclasses.replace`): an invalid
    config raises ConfigurationError and never exists.  A field's number
    passes `_real`, the rule `Grid3` takes its numbers by, so a bool or a
    string is refused; numpy scalars are numbers.
    """

    p: float = 2.0
    ball_radius: float = 6.0
    nodes_per_axis: int = 48
    max_iters: int = 40000
    grad_tol: float = 1e-6

    def __post_init__(self):
        for name, kind in (("p", numbers.Real), ("ball_radius", numbers.Real),
                           ("grad_tol", numbers.Real), ("nodes_per_axis", numbers.Integral),
                           ("max_iters", numbers.Integral)):
            value = getattr(self, name)
            try:
                if not isinstance(_real(value), kind):
                    raise TypeError
            except TypeError:
                what = "a real number" if kind is numbers.Real else "an integer"
                raise ConfigurationError(f"{name} must be {what}, got {value!r}") from None
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
    """A ball of radius ball_radius: the nodes of grid where mask is true."""

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

    Beyond `Grid3`'s range rule, b^8 and (b^2 a)^2 must be finite, with
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
    hx, _, ht = grid.spacing
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


@dataclass
class SolveReport:
    """One solve's state, level and diagnostics; extra holds the method's
    own checks (grad_norm, stop_reason and more)."""

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
            "max_point": {"x": self.max_point.x, "y": self.max_point.y, "t": self.max_point.t},
            "max_value": self.max_value,
            "trace": [list(rec) for rec in self.trace[:-1:_TRACE_STRIDE] + self.trace[-1:]],
            **self.extra,
        }


@dataclass
class DecayFit:
    """`fit_decay`'s line log(shell max) = log C - delta rho, and its samples."""

    C: float
    delta: float
    r_squared: float
    shell_samples: list


def _report(u: ScalarField, breakdown: EnergyBreakdown, method: str, run: dict, *, level,
            converged, grad_norm, multiplier=None, **extra):
    """The SolveReport of a solver's final field u, read from the `_descend`
    record run: its iterations, a copy of its trace, its stop_reason and
    operator_products; extra holds the method's own checks, and
    identity_defect is read from the breakdown."""
    idx, top = u.max_node()
    return SolveReport(
        field=u, level=level, multiplier=multiplier, iterations=run["iterations"],
        trace=list(run["trace"]), breakdown=breakdown, max_point=u.grid.node_point(idx),
        max_value=top, converged=converged, method=method,
        extra={"grad_norm": float(grad_norm), "stop_reason": run["stop_reason"],
               "operator_products": run["operator_products"],
               "identity_defect": _identity_defect(breakdown.J, breakdown.e_norm_sq, breakdown.p),
               **extra},
    )


# ---------------------------------------------------------------------------
# Initialization
# ---------------------------------------------------------------------------


def radial_bump(domain: Domain) -> ScalarField:
    """The gauge bump exp(-rho(z0^-1 w)^2) about z0 = (0, 0, -h_t/2), masked
    to the ball, with rho(z0^-1 w)^4 from `grid._gauge_dist_sq4`.

    On the cell-centered grid the origin lies halfway between the t-nodes
    +-h_t/2, and with the forward gradient B the discrete ground state peaks
    at the node t = -h_t/2; the mirror state, peaked at +h_t/2, is a higher
    minimum.  At k = 4, N = 32 and grad_tol 1e-5 the descent reaches the
    ground state from this bump, alpha 3.5661056272, in 40 iterations, and
    the mirror state from the bump about +h_t/2, at alpha 3.5661065625.  A
    bump centered at the origin is symmetric about the midpoint.  The colour
    order of the descent's sweep breaks the symmetry, and from that bump the
    descent reaches the ground state in 60; preconditioned by diag(A)^-1,
    which keeps the symmetry up to rounding, it lingered by the symmetric
    critical point and landed on the mirror state after 260.
    """
    z0 = GroupPoint(0.0, 0.0, -0.5 * domain.grid.spacing[2])
    values = np.exp(-np.sqrt(_gauge_dist_sq4(domain.grid, z0)))
    return ScalarField(domain.grid, values, domain.mask)


# ---------------------------------------------------------------------------
# The energy on colour-order vectors
# ---------------------------------------------------------------------------


class _Energy:
    """J and its pieces on the colour-order vectors of one domain, for one p.

    Every vector is in the colour order of `order`, the domain's
    `grid._ColourOrder`: it applies A, sweeps, reads a field's box array
    into the colour order (`colour`) and writes a vector back to one
    (`box`), which `field` and `norm_sq` go through.  The energy norm is
    summed as squares of B v and v by the stencil on that box array (see
    `grid`), and the formulas are the ones the public field functions use.
    The colour order is the one `grid` keeps for the domain asked for
    last, so an _Energy of that domain builds no array.
    """

    def __init__(self, domain: Domain, p: float):
        self.grid, self.mask, self.p = domain.grid, domain.mask, p
        self.w = domain.grid.cell_volume
        self.order = _colour_order(domain.grid, domain.mask)

    def field(self, v: np.ndarray) -> ScalarField:
        """The field of the vector v."""
        return ScalarField(self.grid, self.order.box(v), self.mask)

    def start(self, u0: ScalarField) -> np.ndarray:
        """The vector of the start u0; DomainError when its positive part
        has no mass, which neither method can scale or descend from."""
        v0 = self.order.colour(u0.values)
        if self.mass(v0) <= 0.0:
            raise DomainError(
                "the start has no positive-part mass: int u_+^(p+1) is 0 on this ball "
                "(the default bump exp(-rho^2) underflows when every node is far from its center)")
        return v0

    def inner(self, a: np.ndarray, b: np.ndarray) -> float:
        """Discrete L^2 inner product."""
        return float(a @ b) * self.w

    def norm(self, v: np.ndarray) -> float:
        return self.inner(v, v) ** 0.5

    def norm_sq(self, v: np.ndarray) -> float:
        """||v||^2 = ||X_h v||^2 + ||Y_h v||^2 + ||v||^2 of the vector v,
        by the stencil on its box array."""
        return _box_norm_sq(self.grid, self.order.box(v))

    def mass(self, v: np.ndarray) -> float:
        return _constraint_mass(v, self.p, self.w)

    def grad(self, v: np.ndarray) -> np.ndarray:
        """grad J = A v - v_+^p of the vector v."""
        return _gradient(self.order.product(v), v, self.p)

    def ray_max(self, v: np.ndarray):
        """(t*, max_t J(t v)) of the vector v; DomainError when v has no
        positive-part mass."""
        return _ray_max(self.norm_sq(v), self.mass(v), self.p)

    def renormalize(self, v: np.ndarray) -> np.ndarray:
        """v scaled onto the constraint int v_+^(p+1) = 1."""
        mass = self.mass(v)
        if mass <= 0.0:
            raise AlgorithmError("flow escaped: positive-part mass vanished")
        return v / mass ** (1.0 / (self.p + 1.0))


# `_armijo_descent`: the sufficient-decrease constant; its and `_line_min`'s
# step factor on a rejected step, and their backtracking budget.
_ARMIJO_C1 = 1e-4
_SHRINK = 0.5
_MAX_BACKTRACKS = 40


def _armijo_descent(x, f_x, g, gn_sq, tau, objective):
    """Backtracking line search from the vector x along -g.

    gn_sq is minus the slope of f along -g, and tau the first step length.
    objective(candidate vector) returns (f, state); the result is the state
    of the accepted step, so the caller keeps what the objective computed on
    the way.  None means no step descends: f has reached its rounding floor.
    """
    for _ in range(_MAX_BACKTRACKS):
        f_cand, state = objective(x - tau * g)
        if f_cand <= f_x - _ARMIJO_C1 * tau * gn_sq:
            return state
        tau *= _SHRINK
    return None


def _check_finite(what: str, it: int, f: float, gn: float) -> None:
    if not (np.isfinite(f) and np.isfinite(gn)):
        raise NumericError(f"non-finite {what} at iteration {it}: J = {f}, |g| = {gn}")


# ---------------------------------------------------------------------------
# The descent: preconditioned nonlinear CG on the quotient R
# ---------------------------------------------------------------------------

# Iterations in a row that set a new smallest value of neither I nor |g|
# before the descent stops unconverged (`stall`).
_STALL_STEPS = 20
# A step may raise I by this many ulps of I (rounding of the energy sum),
# read as a rise of log R.
_ROUNDING_RISE = 64 * np.finfo(float).eps
# A v is carried by the recurrence A v += tau A d, and recomputed by an
# exact product after this many updates, so its rounding cannot build up.
_EXACT_EVERY = 20


def _mass_terms(p: float, x: np.ndarray):
    """(x_+^(p-1), x_+^p, sum x_+^(p+1)) of the vector x; at p = 2 the
    first is x_+ itself, which x_+^1 equals exactly."""
    xp = np.maximum(x, 0.0)
    pm1 = xp if p == 2.0 else _power(xp, p - 1.0)
    normal = pm1 * xp
    return pm1, normal, float(normal @ xp)


def _line_min(p, v, d, n_v, b, c, m, normal, pm1):
    """The step tau along d that lowers log R(v + tau d) the most, for
    R(v) = v^T A v / M(v)^(2/(p+1)) with M(v) = sum v_+^(p+1).

    Along d the numerator is n_v + 2 b tau + c tau^2 exactly (n_v = v^T A v,
    b = d^T A v, c = d^T A d), and M and its first two derivatives are
    vector sums: M' = (p+1) sum x_+^p d and M'' = p (p+1) sum x_+^(p-1) d^2
    at x = v + tau d; at tau = 0 they come from normal = v_+^p, pm1 =
    v_+^(p-1) and m = M(v).  tau0 is the Newton step on (log R)' = 0 from
    tau = 0 (1 where the curvature there is not positive), and tau1 one
    Newton correction from tau0, or the secant step where tau0 overshoots
    and Newton leaves the bracket (0, tau0).  Of the two, the one with the
    lower R is kept, and if it raises R by more than rounding the smaller
    step is halved until one does not, as far from a minimizer an overshoot
    can.  Returns (tau, change of log R, x = v + tau d, `_mass_terms` at
    x); the change is inf where M vanishes.  A d that rounding has left
    without a descent slope gets the step 0, and x is v itself.
    """
    q = 2.0 / (p + 1.0)
    d2 = d * d

    def derivs(tau, terms):
        """(slope, curvature) of log R at tau, from `_mass_terms` there."""
        pm1_t, normal_t, m_t = terms
        n_t = n_v + tau * (2.0 * b + c * tau)
        dn = 2.0 * (b + c * tau) / n_t
        dl = (p + 1.0) * float(normal_t @ d) / m_t
        ddl = p * (p + 1.0) * float(pm1_t @ d2) / m_t
        return dn - q * dl, 2.0 * c / n_t - dn * dn - q * (ddl - dl * dl)

    def trial(tau):
        """(tau, change of log R, x, `_mass_terms` at x) at tau."""
        x = tau * d
        x += v
        terms = _mass_terms(p, x)
        rise = tau * (2.0 * b + c * tau) / n_v
        if not (terms[2] > 0.0 and rise > -1.0):
            return tau, np.inf, x, terms
        return tau, math.log1p(rise) - q * math.log(terms[2] / m), x, terms

    slope0, curv0 = derivs(0.0, (pm1, normal, m))
    if not slope0 < 0.0:  # rounding: d is no descent direction
        return 0.0, 0.0, v, (pm1, normal, m)
    best = trial(-slope0 / curv0 if curv0 > 0.0 else 1.0)
    tau0, phi0, _, terms0 = best
    slope1, curv1 = derivs(tau0, terms0) if phi0 < np.inf else (np.nan, np.nan)
    tau1 = tau0 - slope1 / curv1 if curv1 > 0.0 else np.nan
    if slope1 > 0.0 and not 0.0 < tau1 < tau0:
        tau1 = tau0 * slope0 / (slope0 - slope1)  # secant in the bracket (0, tau0)
    if tau1 > 0.0:
        second = trial(tau1)
        if second[1] < phi0:
            best = second
    tau = min(tau0, tau1) if tau1 > 0.0 else tau0
    for _ in range(_MAX_BACKTRACKS):
        if best[1] <= _ROUNDING_RISE:
            break
        tau *= _SHRINK
        best = trial(tau)
    return best


def _projected_gradient_norm(energy: _Energy, av: np.ndarray, normal: np.ndarray) -> float:
    """|g| for g = A v - mu v_+^p, mu = <A v, v_+^p> / |v_+^p|^2: the L^2
    gradient of I projected onto the constraint's tangent space at v."""
    nn = float(normal @ normal)
    mu = float(av @ normal) / nn if nn > 0 else 0.0
    return energy.norm(av - mu * normal)


def _ray_descent(energy: _Energy, v, grad_tol, max_iters, trace):
    """Minimize I on {int v_+^(p+1) = 1} from v's direction; max_iters >= 1.

    The loop minimizes the scale-invariant quotient R(v) = v^T A v /
    M(v)^(2/(p+1)), M(v) = sum v_+^(p+1), whose minimizers are, up to
    scale, those of I on the constraint, by Polak-Ribiere+ nonlinear CG (as
    for NLS ground states in Antoine, Levitt & Tang, J. Comput. Phys. 343,
    2017).  G = (A v - (v^T A v / M) v_+^p) / (w M)^(2/(p+1)) is grad R
    times a constant and P = M_s^-1 G, by the symmetric Gauss-Seidel sweep
    `energy.order.sweep`; at k = 4, N = 32 and grad_tol 1e-5 the descent
    takes 40 iterations where diag(A)^-1 took 94.  The direction is d = -P + beta
    d_prev with beta = max(0, <G - G_prev, P> / <G_prev, P_prev>), and -P
    where that is no descent direction.  Like grad R, G scales as 1/|v|;
    without the divisor it scales as |v|, and from a sign-changing start at
    p = 2.9 beta grew with |v| until v overflowed.

    The start and the returned v are colour-order vectors, as is every
    vector of the loop; the caller's start is left as it was.  The sweep
    also returns A P, so A d
    follows as -A P + beta A d_prev, and `_line_min` finds the step from the
    exact numerator along d: an iteration makes no product with A, and
    reads about one and a half times A's entries.  A v follows by A v += tau
    A d and is recomputed exactly (`energy.order.product`) every _EXACT_EVERY
    updates and before a grad_tol exit; v^T A v is read from it at every
    iteration, so that G stays orthogonal to v (carried by its own
    recurrence, it drifted, and the descent stalled at |g| = 3e-13 in place
    of 8e-15 on the k = 2.5, N = 12 ball).

    v is not renormalized in the loop: g = A v - mu v_+^p and I are scaled
    by (int v_+^(p+1))^(1/(p+1)) to read as at v on the constraint.  |g|
    gives the stopping test, and trace gets (iteration, I, |g|).  A step
    that raises I by more than rounding is retried along -P, and a rise
    there too stops the descent unconverged (`no_descent`).  The descent
    also stops unconverged after _STALL_STEPS iterations in a row in which
    neither I nor |g| reaches a new minimum (`stall`): I reaches its
    rounding floor long before |g| does.  Returns (v, iterations, |g|,
    stop_reason, operator products) with v on the constraint; |g| and the
    last trace record are those of the returned v, from an exact A v.  The
    products count the applications of A: the exact ones, and each sweep's
    A P once.
    """
    p, w, order = energy.p, energy.w, energy.order
    v = energy.renormalize(v)
    av = order.product(v)
    pm1, normal, m = _mass_terms(p, v)
    products, drift = 1, 0  # drift: recurrence updates of av since its last exact product
    i_best = gn_best = np.inf
    flat, it, d = 0, 0, None
    stop = "max_iters"
    while True:
        if drift == _EXACT_EVERY:
            av = order.product(v)
            products, drift = products + 1, 0
        n_v = float(v @ av)
        scale = (w * m) ** (1.0 / (p + 1.0))
        i_u = 0.5 * w * n_v / (scale * scale)
        gn = _projected_gradient_norm(energy, av, normal) / scale
        _check_finite("descent", it, i_u, gn)
        if gn < grad_tol and drift:
            drift = _EXACT_EVERY  # accept grad_tol only on an exact A v
            continue
        trace.append((it, i_u, gn))
        flat = 0 if i_u < i_best or gn < gn_best else flat + 1
        i_best, gn_best = min(i_best, i_u), min(gn_best, gn)
        if gn < grad_tol:
            stop = "grad_tol"
            break
        if it + 1 == max_iters:
            break
        if flat == _STALL_STEPS:
            stop = "stall"
            break
        G = (av - (n_v / m) * normal) / (scale * scale)
        P, ap = order.sweep(G)
        products += 1
        gp = float(G @ P)
        steepest = d is None or not gp_prev > 0.0
        if not steepest:
            beta = max(0.0, (gp - float(g_prev @ P)) / gp_prev)
            d *= beta
            d -= P
            ad *= beta
            ad -= ap
            steepest = float(G @ d) >= 0.0
        if steepest:
            d, ad = -P, -ap
        while True:
            b, c = float(d @ av), float(d @ ad)
            tau, dphi, x, terms = _line_min(p, v, d, n_v, b, c, m, normal, pm1)
            if math.isnan(dphi):
                raise NumericError(f"non-finite step of the descent at iteration {it}")
            if dphi <= _ROUNDING_RISE or steepest:
                break
            d, ad, steepest = -P, -ap, True
        if dphi > _ROUNDING_RISE:
            stop = "no_descent"
            break
        v = x
        av += tau * ad
        pm1, normal, m = terms
        drift += 1
        g_prev, gp_prev = G, gp
        it += 1
    v /= scale
    if drift:
        av = order.product(v)
        products += 1
    else:
        av /= scale
    gn = _projected_gradient_norm(energy, av, _pos_pow(v, p))
    trace[-1] = (it, 0.5 * energy.norm_sq(v), gn)
    return v, it + 1, gn, stop, products


# ---------------------------------------------------------------------------
# Newton polish and Morse index
# ---------------------------------------------------------------------------

# `_newton_polish` stops after a step that leaves |G| above this fraction of
# its value before: Newton's quadratic convergence has given way to rounding.
_POLISH_RATE = 0.5
# The Hessian eigenvalues that `_morse_index` returns, smallest first, and
# its LOBPCG budget.  LOBPCG iterates one guard vector more, which speeds the
# last eigenvalue's convergence where the spectrum clusters near 0; 100-300
# iterations converge from 12^3 to 48^3 grids.
_MORSE_EIGENVALUES = 3
_LOBPCG_MAX_ITERS = 1000


def _hessian(energy: _Energy, w: np.ndarray):
    """H = A - p diag(w_+^(p-1)), the Hessian of J at the colour-order w over
    the cell volume, as a LinearOperator on colour-order vectors and blocks:
    H x = (D - p w_+^(p-1)) x + L x + L^T x."""
    from scipy.sparse.linalg import LinearOperator

    diag = energy.order.diag - energy.p * _pos_pow(w, energy.p - 1.0)

    def apply(x):
        return energy.order.apply(diag, x)

    return LinearOperator((w.size,) * 2, matvec=apply, matmat=apply, dtype=float)


def _sweep_operator(energy: _Energy):
    """The descent's sweep as a LinearOperator, g -> M^-1 g on colour-order
    vectors, and on a block in one sweep (`_ColourOrder.half_sweeps`,
    without the product for A P).

    M is symmetric positive definite, so MINRES and LOBPCG take it.
    """
    from scipy.sparse.linalg import LinearOperator

    def sweep(g):
        return energy.order.half_sweeps(g)[0]

    return LinearOperator((energy.order.diag.size,) * 2, matvec=sweep, matmat=sweep,
                          dtype=float)


def _newton_polish(energy: _Energy, w: np.ndarray):
    """Newton steps H d = -G on G = grad J(w) = 0 from the colour-order w;
    returns (w, |G|, MINRES iterations of each step), w in colour order.

    H is indefinite at a mountain-pass point, so MINRES (Paige & Saunders
    1975) solves each step, preconditioned by the descent's colour sweep
    (`_sweep_operator`), which is positive definite whatever H's inertia
    (Knoll & Keyes, JCP 2004).  H and M both act in colour order
    (`_hessian`).  The step is accepted by
    `_armijo_descent` on phi = |G|^2 / 2, whose slope along d is -|G|^2, so
    no step raises |G|.  The polish ends when no step passes, or after one
    that does not cut |G| by _POLISH_RATE.  It converges only from near a
    critical point.
    """
    from scipy.sparse.linalg import minres  # not loaded at start-up

    def objective(x):
        g = energy.grad(x)
        gn_sq = energy.inner(g, g)
        return 0.5 * gn_sq, (x, g, gn_sq)

    iterations = []

    def count(_):
        iterations[-1] += 1

    _, (w, g, gn_sq) = objective(w)
    M = _sweep_operator(energy)
    while gn_sq > 0.0:
        iterations.append(0)
        d, _ = minres(_hessian(energy, w), -g, M=M, callback=count)
        step = _armijo_descent(w, 0.5 * gn_sq, -d, gn_sq, 1.0, objective)
        if step is None:
            break
        last = gn_sq
        w, g, gn_sq = step
        if gn_sq > _POLISH_RATE ** 2 * last:
            break
    return w, gn_sq ** 0.5, iterations


def _morse_index(energy: _Energy, w: np.ndarray):
    """(negative count, eigenvalues, eigenvectors, LOBPCG iterations) of H's
    smallest at the colour-order w.

    The _MORSE_EIGENVALUES smallest eigenvalues, ascending, and their
    eigenvectors as columns, in colour order.  LOBPCG (Knyazev 2001)
    preconditioned by the descent's colour sweep (`_sweep_operator`), which
    it applies to its whole block at once, from a seeded random block so
    that the result is deterministic.  The block is drawn over the mask
    nodes in their C order, so that it does not depend on the colouring,
    and read into the colour order as a (box nodes, b) block.  The
    iterations are those of the block it returns, from its residual-norm
    history (which also holds the start's and the final check's norms).
    Below five blocks of nodes (20 here), where LOBPCG would warn and solve
    densely, numpy's eigh solves the dense H, and the iterations are 0.
    """
    if w.size < 5 * (_MORSE_EIGENVALUES + 1):
        eigs, vecs = np.linalg.eigh(_hessian(energy, w) @ np.eye(w.size))
        eigs, vecs = eigs[:_MORSE_EIGENVALUES], vecs[:, :_MORSE_EIGENVALUES]
        return int(np.sum(eigs < 0.0)), eigs, vecs, 0
    from scipy.sparse.linalg import lobpcg  # not loaded at start-up

    start = np.zeros((energy.mask.size, _MORSE_EIGENVALUES + 1))
    start[energy.mask.reshape(-1)] = np.random.default_rng(0).standard_normal(
        (w.size, _MORSE_EIGENVALUES + 1))
    eigs, vecs, history = lobpcg(_hessian(energy, w), energy.order.colour(start), largest=False,
                                 maxiter=_LOBPCG_MAX_ITERS, M=_sweep_operator(energy),
                                 retResidualNormsHistory=True)
    order = np.argsort(eigs)[:_MORSE_EIGENVALUES]
    return int(np.sum(eigs[order] < 0.0)), eigs[order], vecs[:, order], len(history) - 2


def _state_index(energy: _Energy, rep: SolveReport):
    """`_morse_index` at the state of the mountain-pass report rep, read
    into the colour order from its field; rep's timings get its seconds as
    "index", and its extra the LOBPCG iterations as index_lobpcg_iterations."""
    start = time.perf_counter()
    index, eigs, vecs, iterations = _morse_index(energy, energy.order.colour(rep.field.values))
    rep.extra["timings"]["index"] = time.perf_counter() - start
    rep.extra["index_lobpcg_iterations"] = iterations
    return index, eigs, vecs


# ---------------------------------------------------------------------------
# The two methods
# ---------------------------------------------------------------------------


def _descend(config: SolverConfig, domain: Domain, u0: Optional[ScalarField] = None):
    """One `_ray_descent` run from u0 (`radial_bump` by default) at config's
    grad_tol and max_iters.

    Returns (energy, v, |g|, run): the run's `_Energy`, its colour-order
    state on the constraint, |g| there, and its record, read by `_report`:
    iterations, trace, stop_reason, operator_products, and the descent's
    seconds.  Both methods read their reports from such a run.  A start
    with no positive-part mass (`_Energy.start`) is a DomainError.
    """
    energy = _Energy(domain, config.p)
    # The default start is built after the operator and dropped before the
    # loop: a bump held across the assembly raised a (4, 32) solve's peak
    # RSS by 0.7 MB.
    v0 = energy.start(radial_bump(domain) if u0 is None else u0)
    trace = []
    start = time.perf_counter()
    v, iterations, gn, stop, products = _ray_descent(
        energy, v0, config.grad_tol, config.max_iters, trace)
    return energy, v, gn, {"iterations": iterations, "trace": trace, "stop_reason": stop,
                           "operator_products": products,
                           "descent": time.perf_counter() - start}


def _mountain_pass_report(config: SolverConfig, energy: _Energy, v: np.ndarray, run: dict):
    """The mountain-pass reading of a `_descend` run: its state scaled onto
    the Nehari set and, if the run converged, polished (see
    `solve_mountain_pass`)."""
    start = time.perf_counter()
    t_star, _ = energy.ray_max(v)
    w = t_star * v
    minres_iterations = []
    if run["stop_reason"] == "grad_tol":
        w, gn, minres_iterations = _newton_polish(energy, w)
    else:
        gn = energy.norm(energy.grad(w))
    polish = time.perf_counter()

    x_k = np.maximum(w, 0.0)
    u_k = energy.field(x_k)
    # The exact maximum of J over the ray through the state, in closed form
    # in t; at a critical point it is J(u_k).
    _, level = energy.ray_max(x_k)
    rep = _report(
        u_k, energy_breakdown(u_k, config.p), "mountain-pass", run, level=level,
        converged=run["stop_reason"] == "grad_tol" and gn < config.grad_tol, grad_norm=gn,
        inner_gu=energy.inner(energy.grad(x_k), x_k), polish_minres_iterations=minres_iterations,
    )
    rep.extra["timings"] = {"descent": run["descent"], "polish": polish - start,
                            "report": time.perf_counter() - polish}
    return rep


def _constrained_report(config: SolverConfig, energy: _Energy, v: np.ndarray, gn: float,
                        run: dict):
    """The constrained-min reading of a `_descend` run: its state's positive
    part on the constraint, rescaled by the multiplier (see
    `solve_constrained_min`)."""
    start = time.perf_counter()
    p = config.p
    # Final positivity projection + exact renormalization; for a converged
    # run this is a no-op beyond stripping round-off undershoots.
    v = energy.renormalize(np.maximum(v, 0.0))
    lam = energy.norm_sq(v)
    u_star = energy.field(lam ** (1.0 / (p - 1.0)) * v)
    bd = energy_breakdown(u_star, p)
    rep = _report(
        u_star, bd, "constrained-min", run, level=0.5 * lam, multiplier=lam,
        converged=run["stop_reason"] == "grad_tol", grad_norm=gn,
        constraint_defect=abs(energy.mass(v) - 1.0), residual_rel=bd.residual_l2 / l2_norm(u_star),
    )
    rep.extra["timings"] = {"descent": run["descent"], "report": time.perf_counter() - start}
    return rep


def solve_mountain_pass(
    config: SolverConfig,
    domain: Optional[Domain] = None,
    u0: Optional[ScalarField] = None,
) -> SolveReport:
    """Descend the top of the ray through u0 until it is a critical point of J.

    The path is the ray s -> s u0 (`radial_bump` by default), and each step
    of `_ray_descent` leaves the ray through the new iterate, with a lower
    maximum.  A converged descent's state, scaled onto the Nehari set, is
    polished by `_newton_polish`.  c_k is the ray maximum of the reported
    state and grad_norm is |grad J| there; the solve has converged when the
    descent has and that norm is below grad_tol.  The trace and
    operator_products are the descent's, polish_minres_iterations holds the
    MINRES iterations of each Newton step (none without a polish), and
    timings holds the seconds of the descent, the polish and the report
    (`compare_methods` and `_leave_saddle` add the Morse index's seconds,
    and its LOBPCG iterations as index_lobpcg_iterations).  A u0 without a
    positive part has no top: DomainError.
    """
    if domain is None:
        domain = make_domain(config)
    if u0 is not None and (u0.grid != domain.grid or np.any(u0.values[~domain.mask])):
        raise ConfigurationError("u0 must lie on the domain's grid, zero off its ball")
    energy, v, _, run = _descend(config, domain, u0)
    return _mountain_pass_report(config, energy, v, run)


def solve_constrained_min(
    config: SolverConfig, domain: Optional[Domain] = None
) -> SolveReport:
    """Minimize I(v) = ||v||^2 / 2 on {int v_+^(p+1) = 1}; alpha is the minimum.

    The start is `radial_bump`, scaled onto the constraint, and
    `_ray_descent` runs from it until |g| < grad_tol, where g = A v - mu v_+^p
    is the gradient projected onto the constraint's tangent space, or until
    it stops unconverged.  The state's positive part is then scaled onto the
    constraint once more; for a converged run that only strips rounding
    undershoots.  The multiplier lambda = ||v||^2 = 2 alpha (`multiplier`),
    and the reported field u* = lambda^(1/(p-1)) v solves
    Delta_h u - u + u_+^p = 0.  extra holds
    - constraint_defect: |int v_+^(p+1) - 1| of the reported v;
    - residual_rel: the L^2 norm of that equation's residual at u*, over
      ||u*||_2;
    - operator_products: the descent's applications of A, each sweep's
      A P and the exact products;
    - stop_reason: grad_tol, max_iters, stall or no_descent (see
      `_ray_descent`); the solve has converged when it is grad_tol;
    - grad_norm, |g| at the last step, and identity_defect at u*;
    - timings: the seconds of the descent and of the report.
    A start with no positive-part mass (`_Energy.start`) is a DomainError.
    """
    if domain is None:
        domain = make_domain(config)
    return _constrained_report(config, *_descend(config, domain))


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
    four usable nodes, or shells that all sit at one radius up to rounding,
    raise InsufficientDataError.
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
    # 4 <= n_shells <= rs_all.size, so every chunk holds a node.
    samples = []
    for chunk_r, chunk_v in zip(
        np.array_split(rs_all, n_shells), np.array_split(vs_all, n_shells)
    ):
        j = int(np.argmax(chunk_v))
        samples.append((float(chunk_r[j]), float(chunk_v[j])))
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
    """One ball of `exhaust_domains`: its solve and its state's decay fit;
    the level and the peak are read from the solve's report."""

    radius: float
    decay: DecayFit
    report: SolveReport

    @property
    def level(self) -> float:
        return self.report.level

    @property
    def max_point(self) -> GroupPoint:
        return self.report.max_point

    @property
    def max_value(self) -> float:
        return self.report.max_value

    @property
    def xi_gauge(self) -> float:
        """The gauge radius of the state's peak."""
        return gauge(self.report.max_point)


@dataclass
class ExhaustionReport:
    """The entries of `exhaust_domains`, and whether their levels fall with k."""

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
                    "iterations": e.report.iterations,
                    "converged": e.report.converged,
                    **{key: e.report.extra[key]
                       for key in ("stop_reason", "operator_products", "timings")},
                }
                for e in self.entries
            ],
        }


_MONOTONE_REL_SLACK = 1e-6  # relative rise of c_k still counted as monotone
# A saddle's state is pushed this far along its unstable eigenvector,
# relative to its maximum, before the solve restarts from it.
_SADDLE_PUSH = 0.1


def _leave_saddle(config: SolverConfig, domain: Domain, rep: SolveReport) -> SolveReport:
    """rep, or the solve restarted off its state if that is a saddle.

    A state of Morse index above 1 is pushed along H's second eigenvector,
    in which the ray maximum falls, in the colour order of the index, and
    solved again.  From a symmetric
    start a descent can stop beside a symmetric saddle: on the 48^3 grid of
    k = 6, from the k = 2 ball's bump centered at the origin, the descent
    preconditioned by diag(A)^-1 reached one of index 2 at 82.709, where the
    ground state is at 61.739.  The colour sweep reaches 61.739 from that
    bump, but a caller's u0 can still stop at a saddle.
    """
    energy = _Energy(domain, config.p)
    index, _, vecs = _state_index(energy, rep)
    if index <= 1:
        return rep
    w, e = energy.order.colour(rep.field.values), vecs[:, 1]
    u0 = energy.field(w + _SADDLE_PUSH * np.abs(w).max() / np.abs(e).max() * e)
    return solve_mountain_pass(config, domain=domain, u0=u0)


def exhaust_domains(radii, config: SolverConfig) -> ExhaustionReport:
    """Mountain-pass solves on nested balls B_k sharing one master grid.

    All balls are masks on the grid of the largest radius, so the nesting
    of the discrete energy spaces (and hence monotonicity of the levels)
    is exact.  The smallest ball starts from its `radial_bump`, and a
    converged state there is certified by `_leave_saddle`.  Each larger
    ball starts from the previous ball's field, zero-extended, so its
    descent starts at the previous ball's critical point.  Radii that are
    not at least two finite, positive numbers in increasing order, or a
    smallest ball that holds no node of the master grid, raise
    ConfigurationError.
    """
    radii = list(radii)
    bounds = [0.0, *radii, math.inf]  # a NaN fails each comparison
    if len(radii) < 2 or not all(a < b for a, b in zip(bounds[:-1], bounds[1:])):
        raise ConfigurationError(f"radii must be >= 2 increasing finite, positive numbers: {radii}")
    cfg = replace(config, ball_radius=radii[-1])
    grid = make_domain(cfg).grid
    domains = [Domain(grid, ball_mask(grid, k), k) for k in radii]
    if not domains[0].mask.any():
        raise ConfigurationError(
            f"the ball of radius {radii[0]} holds no node of the {cfg.nodes_per_axis}^3 "
            f"grid of radius {radii[-1]}: raise the smallest radius or the grid")
    entries = []
    for dom in domains:
        u0 = zero_extend(entries[-1].report.field, dom.mask) if entries else None
        rep = solve_mountain_pass(cfg, domain=dom, u0=u0)
        if not entries and rep.converged:
            rep = _leave_saddle(cfg, dom, rep)
        entries.append(ExhaustionEntry(dom.ball_radius, fit_decay(rep.field, dom.ball_radius), rep))
    # The builtin max passes over a NaN rise: it neither sets the slack nor
    # breaks monotone.
    slack = max([0.0, *((b.level - a.level) / abs(a.level)
                        for a, b in zip(entries[:-1], entries[1:]))])
    return ExhaustionReport(entries=entries, monotone=slack <= _MONOTONE_REL_SLACK,
                            monotone_slack=slack)


# ---------------------------------------------------------------------------
# Method comparison
# ---------------------------------------------------------------------------


@dataclass
class ComparisonReport:
    """Both methods' reports on one instance and the checks between them."""

    mountain_pass: SolveReport
    constrained: SolveReport
    level_gap_rel: float
    bridge_defect_rel: float
    field_distance_rel: float
    both_positive: bool
    morse_index: int

    def as_dict(self) -> dict:
        return {
            "c_k": self.mountain_pass.level,
            "alpha": self.constrained.level,
            "lambda": self.constrained.multiplier,
            "J_of_rescaled_minimizer": self.constrained.breakdown.J,
            "level_gap_rel": self.level_gap_rel,
            "bridge_defect_rel": self.bridge_defect_rel,
            "field_distance_rel": self.field_distance_rel,
            "both_positive": self.both_positive,
            "morse_index": self.morse_index,
        }


def compare_methods(
    config: SolverConfig, domain: Optional[Domain] = None
) -> ComparisonReport:
    """Read both methods from one descent and check they agree.

    One `_descend` run from `radial_bump` gives both reports, each the one
    its solver would give, so the checks compare two readings of one
    state, and the fields are compared as they are.  Both reports' descent
    seconds are that run's.  morse_index counts the negative eigenvalues
    among the Hessian's smallest at the mountain-pass state, with the run's
    `_Energy` (`_morse_index`): 1 at a ground state.
    """
    if domain is None:
        domain = make_domain(config)
    energy, v, gn, run = _descend(config, domain)
    rep_mp = _mountain_pass_report(config, energy, v, run)
    rep_cm = _constrained_report(config, energy, v, gn, run)
    p = config.p
    c_k = rep_mp.level
    level_gap = abs(rep_cm.breakdown.J - c_k) / abs(c_k)
    lam = rep_cm.multiplier
    bridge = (p - 1.0) / (2.0 * (p + 1.0)) * lam ** ((p + 1.0) / (p - 1.0))
    bridge_defect = abs(bridge - c_k) / abs(c_k)
    a, b = rep_mp.field, rep_cm.field
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
        morse_index=_state_index(energy, rep_mp)[0],
    )
