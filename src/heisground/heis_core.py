"""Exact calculus on the Heisenberg group H^1.

Group law, Koranyi gauge, anisotropic dilations and the left-invariant
horizontal vector fields on H^1; the homogeneous dimension Q = 2n + 2 and
the Folland-Stein exponent (Q+2)/(Q-2) stay functions of n.  Everything
here is closed-form or high-order finite differencing on analytic test
functions; it serves as the oracle against which the discrete grid
operators are verified.

The group law is the unique one making

    X = d/dx + 2 y d/dt,    Y = d/dy - 2 x d/dt

left-invariant:

    (x, y, t) * (x', y', t') = (x+x', y+y', t+t' + 2(y x' - x y')).

Note: direct computation from these fields gives [X, Y] = -4 d/dt.
We implement the computed sign; all commutator checks assert magnitude 4 and
this sign.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

from .errors import DomainError, NumericError

__all__ = [
    "GroupPoint",
    "TestFunction",
    "group_mul",
    "group_inverse",
    "gauge",
    "dilate",
    "homogeneous_dimension",
    "critical_exponent",
    "apply_left_invariant",
    "commutator_XY",
    "analytic_horizontal_derivative",
    "analytic_sublaplacian",
    "gaussian_test_function",
    "polynomial_test_function",
    "calculus_check_suite",
]

# Base step for Richardson-extrapolated flow derivatives; balances
# truncation and round-off at double precision.
_FLOW_STEP = 1.0e-3


def _real(x):
    """x if it is a real number; a bool or a string raises TypeError."""
    if isinstance(x, bool) or not isinstance(x, numbers.Real):
        raise TypeError(f"not a real number: {x!r}")
    return x


@dataclass(frozen=True)
class GroupPoint:
    """A point (x, y, t) of H^1, stored as three Python floats.

    A coordinate passes `_real`, the rule `Grid3` takes its numbers by, so
    a bool or a string raises DomainError; numpy scalars are stored as
    Python floats, so points of equal numbers compare and hash equal.
    Finiteness is the consumer's to check (`is_finite`).
    """

    x: float
    y: float
    t: float

    def __post_init__(self):
        for name in ("x", "y", "t"):
            given = getattr(self, name)
            try:
                value = float(_real(given))
            except (TypeError, OverflowError):  # OverflowError: an int beyond the largest double
                raise DomainError(
                    f"a point's {name} must be a real number, got {given!r}") from None
            object.__setattr__(self, name, value)

    def is_finite(self) -> bool:
        return math.isfinite(self.x) and math.isfinite(self.y) and math.isfinite(self.t)


def origin() -> GroupPoint:
    return GroupPoint(0.0, 0.0, 0.0)


def group_mul(a: GroupPoint, b: GroupPoint) -> GroupPoint:
    """Group product a * b."""
    return GroupPoint(a.x + b.x, a.y + b.y, a.t + b.t + 2 * (a.y * b.x - a.x * b.y))


def group_inverse(z: GroupPoint) -> GroupPoint:
    """z^-1 = (-x, -y, -t): the twist of z z^-1 vanishes."""
    return GroupPoint(-z.x, -z.y, -z.t)


def gauge(z: GroupPoint) -> float:
    """Koranyi gauge rho(z) = ((x^2 + y^2)^2 + t^2)^(1/4)."""
    r2 = z.x**2 + z.y**2
    return (r2 * r2 + z.t**2) ** 0.25


def dilate(lam: float, z: GroupPoint) -> GroupPoint:
    """Anisotropic dilation delta_lam(x, y, t) = (lam x, lam y, lam^2 t)."""
    if not 0.0 < lam < math.inf:  # NaN fails it too
        raise DomainError(f"dilation factor lam must be finite and positive, got {lam}")
    return GroupPoint(lam * z.x, lam * z.y, lam * lam * z.t)


def homogeneous_dimension(n: int) -> int:
    """Q = 2n + 2, the exponent of the dilations' Jacobian on H^n."""
    if n < 1:
        raise DomainError(f"n must be a positive integer, got {n}")
    return 2 * n + 2


def critical_exponent(n: int) -> Fraction:
    """Folland-Stein-Sobolev threshold (Q+2)/(Q-2)."""
    q = homogeneous_dimension(n)
    return Fraction(q + 2, q - 2)


# ---------------------------------------------------------------------------
# Left-invariant derivatives via group flows
# ---------------------------------------------------------------------------


def _flow(z: GroupPoint, field_id: str, s: float) -> GroupPoint:
    """Point reached from z after time s along the generator X, Y or T.

    Left-invariant fields generate right translations, so the flow is
    z * exp(s * generator).
    """
    if field_id == "X":
        return GroupPoint(z.x + s, z.y, z.t + 2 * s * z.y)
    if field_id == "Y":
        return GroupPoint(z.x, z.y + s, z.t - 2 * s * z.x)
    if field_id == "T":
        return GroupPoint(z.x, z.y, z.t + s)
    raise DomainError(f"unknown field id {field_id!r}; expected 'X', 'Y' or 'T'")


def apply_left_invariant(
    field_id: str, f: Callable[[GroupPoint], float], z: GroupPoint
) -> float:
    """Directional derivative of f at z along X, Y or T ("X", "Y", "T").

    Richardson-extrapolated central differences along the group flow;
    exact on polynomials up to degree 4.  Any other field id raises
    DomainError.
    """
    def central(h: float) -> float:
        return (f(_flow(z, field_id, h)) - f(_flow(z, field_id, -h))) / (2 * h)

    d = (4.0 * central(_FLOW_STEP / 2) - central(_FLOW_STEP)) / 3.0
    if not math.isfinite(d):
        raise NumericError(f"non-finite derivative of {field_id} at {z}")
    return d


def commutator_XY(f: Callable[[GroupPoint], float], z: GroupPoint) -> float:
    """[X, Y] f (z) = X(Y f)(z) - Y(X f)(z), numerically."""
    def yf(w: GroupPoint) -> float:
        return apply_left_invariant("Y", f, w)

    def xf(w: GroupPoint) -> float:
        return apply_left_invariant("X", f, w)

    return apply_left_invariant("X", yf, z) - apply_left_invariant("Y", xf, z)


# ---------------------------------------------------------------------------
# Analytic test functions (oracle helpers)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TestFunction:
    """Scalar function on H^1 with optional closed-form derivatives.

    grad(x, y, t) -> (f_x, f_y, f_t); hess(x, y, t) -> dict with keys
    'xx', 'yy', 'tt', 'xt', 'yt'.  Where supplied, these must agree with
    finite differences of `eval` (checked in tests).
    """

    eval_fn: Callable
    grad: Optional[Callable] = None
    hess: Optional[Callable] = None

    def eval(self, z: GroupPoint) -> float:
        return float(self.eval_fn(z.x, z.y, z.t))

    def __call__(self, z: GroupPoint) -> float:
        return self.eval(z)


def analytic_horizontal_derivative(tf: TestFunction, z: GroupPoint, which: str) -> float:
    """X f or Y f at z from the supplied closed-form gradient; which is
    "X" or "Y", and any other value raises DomainError."""
    if tf.grad is None:
        raise DomainError("test function carries no analytic gradient")
    x, y, t = z.x, z.y, z.t
    fx, fy, ft = tf.grad(x, y, t)
    if which == "X":
        return fx + 2 * y * ft
    if which == "Y":
        return fy - 2 * x * ft
    raise DomainError(f"which must be 'X' or 'Y', got {which!r}")


def analytic_sublaplacian(tf: TestFunction, z: GroupPoint) -> float:
    """Delta_H f at z from closed-form second derivatives.

    Expanding X^2 + Y^2 gives
        f_xx + f_yy + 4 (x^2 + y^2) f_tt + 4 y f_xt - 4 x f_yt.
    """
    if tf.hess is None:
        raise DomainError("test function carries no analytic hessian")
    x, y, t = z.x, z.y, z.t
    h = tf.hess(x, y, t)
    return (
        h["xx"]
        + h["yy"]
        + 4 * (x * x + y * y) * h["tt"]
        + 4 * y * h["xt"]
        - 4 * x * h["yt"]
    )


def gaussian_test_function(a: float = 1.0, b: float = 1.0) -> TestFunction:
    """exp(-a (x^2+y^2) - b t^2), smooth and effectively compactly supported."""

    def f(x, y, t):
        return np.exp(-a * (x * x + y * y) - b * t * t)

    def grad(x, y, t):
        v = f(x, y, t)
        return (-2 * a * x * v, -2 * a * y * v, -2 * b * t * v)

    def hess(x, y, t):
        v = f(x, y, t)
        return {
            "xx": (-2 * a + 4 * a * a * x * x) * v,
            "yy": (-2 * a + 4 * a * a * y * y) * v,
            "tt": (-2 * b + 4 * b * b * t * t) * v,
            "xt": 4 * a * b * x * t * v,
            "yt": 4 * a * b * y * t * v,
        }

    return TestFunction(f, grad, hess)


def polynomial_test_function(coeffs: dict) -> TestFunction:
    """Polynomial on H^1 from {(i, j, k): c} meaning c * x^i y^j t^k.

    f and its partial derivatives come from one monomial rule, so they are
    exact.
    """

    def d(v, e, order):
        """The order-th derivative of v^e: e!/(e - order)! v^(e - order)."""
        return math.perm(e, order) * v ** (e - order) if e >= order else 0.0

    def partial(ox, oy, ot):
        """The derivative of f of order ox in x, oy in y and ot in t."""
        def value(x, y, t):
            return sum(c * d(x, i, ox) * d(y, j, oy) * d(t, k, ot)
                       for (i, j, k), c in coeffs.items())
        return value

    gradient = [partial(1, 0, 0), partial(0, 1, 0), partial(0, 0, 1)]
    hessian = {"xx": partial(2, 0, 0), "yy": partial(0, 2, 0), "tt": partial(0, 0, 2),
               "xt": partial(1, 0, 1), "yt": partial(0, 1, 1)}

    def grad(x, y, t):
        return tuple(g(x, y, t) for g in gradient)

    def hess(x, y, t):
        return {key: h(x, y, t) for key, h in hessian.items()}

    return TestFunction(partial(0, 0, 0), grad, hess)


# ---------------------------------------------------------------------------
# Self-check suite (consumed by the CLI `calculus-check` command)
# ---------------------------------------------------------------------------


def _random_point(rng: np.random.Generator, scale: float = 2.0) -> GroupPoint:
    return GroupPoint(
        rng.uniform(-scale, scale),
        rng.uniform(-scale, scale),
        rng.uniform(-scale * scale, scale * scale),
    )


def _gap(a: GroupPoint, b: GroupPoint) -> float:
    """The largest coordinate difference of a and b; NaN if any is NaN."""
    return np.max(np.abs([a.x - b.x, a.y - b.y, a.t - b.t]))


def calculus_check_suite(seed: int = 0) -> list:
    """Run the group-calculus invariants; returns one record per check.

    Each record has {name, defect, tolerance, passed}.  A check's defect is
    the largest over its random draws, and a NaN defect fails.
    """
    rng = np.random.default_rng(seed)
    checks = []

    def record(name, tol, defects):
        # np.max, unlike the builtin max, keeps a NaN.
        defect = float(np.max([0.0, *defects]))
        checks.append({"name": name, "defect": defect, "tolerance": float(tol),
                       "passed": bool(defect <= tol)})

    def points(count, scale=2.0):
        return (_random_point(rng, scale) for _ in range(count))

    def associativity(a, b, c):
        return _gap(group_mul(group_mul(a, b), c), group_mul(a, group_mul(b, c)))

    record("group_associativity", 1e-12, (associativity(*points(3)) for _ in range(25)))
    record("group_inverse", 1e-12,
           (_gap(group_mul(z, group_inverse(z)), origin()) for z in points(10)))

    def homogeneity(z):
        lam = float(rng.uniform(0.3, 3.0))
        return abs(gauge(dilate(lam, z)) - lam * gauge(z))

    record("gauge_dilation_homogeneity", 1e-12, (homogeneity(z) for z in points(25)))

    # delta_lam o delta_mu = delta_{lam mu}.
    def composition(z):
        lam, mu = rng.uniform(0.3, 2.0, 2)
        return _gap(dilate(float(lam), dilate(float(mu), z)), dilate(float(lam * mu), z))

    record("dilation_composition", 1e-12, (composition(z) for z in points(10)))

    # Left-invariance: X(f o L_g)(z) = (X f)(g z), same for Y.
    tf = gaussian_test_function(0.4, 0.15)

    def invariance(fid, z, g):
        lhs = apply_left_invariant(fid, lambda w: tf.eval(group_mul(g, w)), z)
        return abs(lhs - apply_left_invariant(fid, tf, group_mul(g, z)))

    for fid in ("X", "Y"):
        record(f"left_invariance_{fid}", 1e-6,
               (invariance(fid, *points(2, scale=1.0)) for _ in range(10)))

    # Commutator: [X, Y] f = -4 d/dt f on polynomials of degree <= 3.
    exps = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (2, 1, 0), (1, 0, 1)]

    def commutator():
        tfp = polynomial_test_function({e: float(rng.uniform(-1, 1)) for e in exps})
        z = _random_point(rng, scale=1.0)
        return abs(commutator_XY(tfp, z) + 4.0 * tfp.grad(z.x, z.y, z.t)[2])

    record("commutator", 1e-6, (commutator() for _ in range(6)))

    # Measure homogeneity: int f(delta_lam z) dz = lam^(-Q) int f dz.
    q_hom = homogeneous_dimension(1)
    xs = np.linspace(-5, 5, 96)
    ts = np.linspace(-12, 12, 120)
    hx = xs[1] - xs[0]
    ht = ts[1] - ts[0]
    xg, yg, tg = np.meshgrid(xs, xs, ts, indexing="ij", sparse=True)

    def mass(lam):
        dens = np.exp(-((lam * xg) ** 2 + (lam * yg) ** 2) - 0.5 * (lam * lam * tg) ** 2)
        return dens.sum() * hx * hx * ht

    base = mass(1.0)
    record("measure_homogeneity", 1e-4,
           (abs(mass(lam) - lam ** (-q_hom) * base) / base for lam in (0.8, 1.25)))

    return checks
