"""Exact calculus on the Heisenberg group H^n.

Group law, Koranyi gauge, anisotropic dilations and the left-invariant
horizontal vector fields, for arbitrary n.  Everything here is closed-form
or high-order finite differencing on analytic test functions; it serves as
the oracle against which the discrete grid operators are verified.

The group law is the unique one making

    X_i = d/dx_i + 2 y_i d/dt,    Y_i = d/dy_i - 2 x_i d/dt

left-invariant:

    (x, y, t) * (x', y', t') = (x+x', y+y', t+t' + 2(<y,x'> - <x,y'>)).

Note: direct computation from these fields gives [X_i, Y_j] = -4 delta_ij d/dt.
We implement the computed sign; all commutator checks assert magnitude 4 and
this sign.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

from .errors import DimensionMismatchError, DomainError, NumericError

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


@dataclass(frozen=True)
class GroupPoint:
    """A point (x, y, t) of H^n; x, y are n-tuples, t is scalar."""

    x: tuple
    y: tuple
    t: float

    @classmethod
    def of(cls, x, y, t) -> "GroupPoint":
        """Build a point, accepting scalars for n = 1."""
        xs = (x,) if np.isscalar(x) else tuple(x)
        ys = (y,) if np.isscalar(y) else tuple(y)
        if len(xs) != len(ys):
            raise DimensionMismatchError(
                f"x has length {len(xs)} but y has length {len(ys)}"
            )
        return cls(xs, ys, t)

    @property
    def n(self) -> int:
        return len(self.x)

    def is_finite(self) -> bool:
        return all(math.isfinite(float(c)) for c in (*self.x, *self.y, self.t))


def origin(n: int = 1) -> GroupPoint:
    return GroupPoint((0,) * n, (0,) * n, 0)


def _check_same_n(a: GroupPoint, b: GroupPoint) -> None:
    if a.n != b.n:
        raise DimensionMismatchError(f"points live in H^{a.n} and H^{b.n}")


def group_mul(a: GroupPoint, b: GroupPoint) -> GroupPoint:
    """Group product a * b.

    Exact for int/Fraction components (no float coercion is introduced).
    """
    _check_same_n(a, b)
    x = tuple(ax + bx for ax, bx in zip(a.x, b.x))
    y = tuple(ay + by for ay, by in zip(a.y, b.y))
    twist = 2 * (
        sum(ay * bx for ay, bx in zip(a.y, b.x))
        - sum(ax * by for ax, by in zip(a.x, b.y))
    )
    return GroupPoint(x, y, a.t + b.t + twist)


def group_inverse(z: GroupPoint) -> GroupPoint:
    """z^-1 = (-x, -y, -t): the twist of z z^-1 vanishes."""
    return GroupPoint(tuple(-c for c in z.x), tuple(-c for c in z.y), -z.t)


def gauge(z: GroupPoint) -> float:
    """Koranyi gauge rho(z) = ((sum_i (x_i^2+y_i^2))^2 + t^2)^(1/4)."""
    r2 = sum(float(xi) ** 2 + float(yi) ** 2 for xi, yi in zip(z.x, z.y))
    return (r2 * r2 + float(z.t) ** 2) ** 0.25


def dilate(lam: float, z: GroupPoint) -> GroupPoint:
    """Anisotropic dilation delta_lam(x, y, t) = (lam x, lam y, lam^2 t)."""
    if not 0.0 < lam < math.inf:  # NaN fails it too
        raise DomainError(f"dilation factor lam must be finite and positive, got {lam}")
    return GroupPoint(
        tuple(lam * c for c in z.x),
        tuple(lam * c for c in z.y),
        lam * lam * z.t,
    )


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
    """Point reached from z after time s along the named generator.

    Left-invariant fields generate right translations, so the flow is
    z * exp(s * generator).
    """
    kind = field_id[0].upper()
    if kind == "T":
        return GroupPoint(z.x, z.y, z.t + s)
    i = int(field_id[1:] or 1) - 1
    if i < 0 or i >= z.n:
        raise DomainError(f"field index out of range for H^{z.n}: {field_id}")
    if kind == "X":
        x = tuple(c + s if j == i else c for j, c in enumerate(z.x))
        return GroupPoint(x, z.y, z.t + 2 * s * z.y[i])
    if kind == "Y":
        y = tuple(c + s if j == i else c for j, c in enumerate(z.y))
        return GroupPoint(z.x, y, z.t - 2 * s * z.x[i])
    raise DomainError(f"unknown field id {field_id!r}; expected X<i>, Y<i> or T")


def apply_left_invariant(
    field_id: str, f: Callable[[GroupPoint], float], z: GroupPoint
) -> float:
    """Directional derivative of f at z along X_i, Y_i or T.

    Richardson-extrapolated central differences along the group flow;
    exact on polynomials up to degree 4.
    """
    def central(h: float) -> float:
        return (f(_flow(z, field_id, h)) - f(_flow(z, field_id, -h))) / (2 * h)

    d = (4.0 * central(_FLOW_STEP / 2) - central(_FLOW_STEP)) / 3.0
    if not math.isfinite(d):
        raise NumericError(f"non-finite derivative of {field_id} at {z}")
    return d


def commutator_XY(
    f: Callable[[GroupPoint], float], z: GroupPoint, i: int = 1, j: int = 1
) -> float:
    """[X_i, Y_j] f (z) = X_i(Y_j f)(z) - Y_j(X_i f)(z), numerically."""
    def yf(w: GroupPoint) -> float:
        return apply_left_invariant(f"Y{j}", f, w)

    def xf(w: GroupPoint) -> float:
        return apply_left_invariant(f"X{i}", f, w)

    return apply_left_invariant(f"X{i}", yf, z) - apply_left_invariant(f"Y{j}", xf, z)


# ---------------------------------------------------------------------------
# Analytic test functions (n = 1 oracle helpers)
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
        return float(self.eval_fn(float(z.x[0]), float(z.y[0]), float(z.t)))

    def __call__(self, z: GroupPoint) -> float:
        return self.eval(z)


def analytic_horizontal_derivative(tf: TestFunction, z: GroupPoint, which: str) -> float:
    """X f or Y f at z from the supplied closed-form gradient (n = 1)."""
    if tf.grad is None:
        raise DomainError("test function carries no analytic gradient")
    x, y, t = float(z.x[0]), float(z.y[0]), float(z.t)
    fx, fy, ft = tf.grad(x, y, t)
    if which.upper().startswith("X"):
        return fx + 2 * y * ft
    if which.upper().startswith("Y"):
        return fy - 2 * x * ft
    raise DomainError(f"which must be 'X' or 'Y', got {which!r}")


def analytic_sublaplacian(tf: TestFunction, z: GroupPoint) -> float:
    """Delta_H f at z for n = 1 from closed-form second derivatives.

    Expanding X^2 + Y^2 gives
        f_xx + f_yy + 4 (x^2 + y^2) f_tt + 4 y f_xt - 4 x f_yt.
    """
    if tf.hess is None:
        raise DomainError("test function carries no analytic hessian")
    x, y, t = float(z.x[0]), float(z.y[0]), float(z.t)
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

    Derivatives come from explicit monomial tables, so they are exact.
    """

    def dpow(v, e):
        return e * v ** (e - 1) if e >= 1 else 0.0

    def d2pow(v, e):
        return e * (e - 1) * v ** (e - 2) if e >= 2 else 0.0

    def f(x, y, t):
        return sum(c * x**i * y**j * t**k for (i, j, k), c in coeffs.items())

    def grad(x, y, t):
        fx = sum(c * dpow(x, i) * y**j * t**k for (i, j, k), c in coeffs.items())
        fy = sum(c * x**i * dpow(y, j) * t**k for (i, j, k), c in coeffs.items())
        ft = sum(c * x**i * y**j * dpow(t, k) for (i, j, k), c in coeffs.items())
        return fx, fy, ft

    def hess(x, y, t):
        return {
            "xx": sum(c * d2pow(x, i) * y**j * t**k for (i, j, k), c in coeffs.items()),
            "yy": sum(c * x**i * d2pow(y, j) * t**k for (i, j, k), c in coeffs.items()),
            "tt": sum(c * x**i * y**j * d2pow(t, k) for (i, j, k), c in coeffs.items()),
            "xt": sum(
                c * dpow(x, i) * y**j * dpow(t, k) for (i, j, k), c in coeffs.items()
            ),
            "yt": sum(
                c * x**i * dpow(y, j) * dpow(t, k) for (i, j, k), c in coeffs.items()
            ),
        }

    return TestFunction(f, grad, hess)


# ---------------------------------------------------------------------------
# Self-check suite (consumed by the CLI `calculus-check` command)
# ---------------------------------------------------------------------------


def _random_point(rng: np.random.Generator, n: int = 1, scale: float = 2.0) -> GroupPoint:
    return GroupPoint(
        tuple(rng.uniform(-scale, scale, n)),
        tuple(rng.uniform(-scale, scale, n)),
        float(rng.uniform(-scale * scale, scale * scale)),
    )


def calculus_check_suite(seed: int = 0) -> list:
    """Run the group-calculus invariants; returns one record per check.

    Each record has {name, defect, tolerance, passed}.
    """
    rng = np.random.default_rng(seed)
    checks = []

    def record(name, defect, tol):
        checks.append(
            {
                "name": name,
                "defect": float(defect),
                "tolerance": float(tol),
                "passed": bool(defect <= tol),
            }
        )

    # Associativity over random floating points.
    defect = 0.0
    for _ in range(25):
        a, b, c = (_random_point(rng) for _ in range(3))
        lhs = group_mul(group_mul(a, b), c)
        rhs = group_mul(a, group_mul(b, c))
        defect = max(
            defect,
            max(
                abs(lhs.x[0] - rhs.x[0]),
                abs(lhs.y[0] - rhs.y[0]),
                abs(lhs.t - rhs.t),
            ),
        )
    record("group_associativity", defect, 1e-12)

    # Identity / inverse.
    defect = 0.0
    for _ in range(10):
        z = _random_point(rng)
        e = group_mul(z, group_inverse(z))
        defect = max(defect, abs(e.x[0]), abs(e.y[0]), abs(e.t))
    record("group_inverse", defect, 1e-12)

    # Gauge homogeneity under dilations.
    defect = 0.0
    for _ in range(25):
        z = _random_point(rng)
        lam = float(rng.uniform(0.3, 3.0))
        defect = max(defect, abs(gauge(dilate(lam, z)) - lam * gauge(z)))
    record("gauge_dilation_homogeneity", defect, 1e-12)

    # Dilation composition delta_lam o delta_mu = delta_{lam mu}.
    defect = 0.0
    for _ in range(10):
        z = _random_point(rng)
        lam, mu = rng.uniform(0.3, 2.0, 2)
        a = dilate(float(lam), dilate(float(mu), z))
        b = dilate(float(lam * mu), z)
        defect = max(defect, abs(a.x[0] - b.x[0]), abs(a.y[0] - b.y[0]), abs(a.t - b.t))
    record("dilation_composition", defect, 1e-12)

    # Left-invariance: X(f o L_g)(z) = (X f)(g z), same for Y.
    tf = gaussian_test_function(0.4, 0.15)
    for fid in ("X1", "Y1"):
        defect = 0.0
        for _ in range(10):
            z, g = _random_point(rng, scale=1.0), _random_point(rng, scale=1.0)

            def shifted(w, g=g):
                return tf.eval(group_mul(g, w))

            lhs = apply_left_invariant(fid, shifted, z)
            rhs = apply_left_invariant(fid, tf, group_mul(g, z))
            defect = max(defect, abs(lhs - rhs))
        record(f"left_invariance_{fid[0]}", defect, 1e-6)

    # Commutator: [X, Y] f = -4 d/dt f on polynomials of degree <= 3.
    defect = 0.0
    for _ in range(6):
        exps = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (2, 1, 0), (1, 0, 1)]
        coeffs = {e: float(rng.uniform(-1, 1)) for e in exps}
        tfp = polynomial_test_function(coeffs)
        z = _random_point(rng, scale=1.0)
        comm = commutator_XY(tfp, z)
        _, _, ft = tfp.grad(float(z.x[0]), float(z.y[0]), float(z.t))
        defect = max(defect, abs(comm + 4.0 * ft))
    record("commutator", defect, 1e-6)

    # Measure homogeneity: int f(delta_lam z) dz = lam^(-Q) int f dz.
    q_hom = homogeneous_dimension(1)
    ax = np.linspace(-5, 5, 96)
    at = np.linspace(-12, 12, 120)
    hx = ax[1] - ax[0]
    ht = at[1] - at[0]
    xg, yg, tg = np.meshgrid(ax, ax, at, indexing="ij")
    dens = np.exp(-(xg**2 + yg**2) - 0.5 * tg**2)
    base = dens.sum() * hx * hx * ht
    defect = 0.0
    for lam in (0.8, 1.25):
        dil = np.exp(-((lam * xg) ** 2 + (lam * yg) ** 2) - 0.5 * (lam * lam * tg) ** 2)
        val = dil.sum() * hx * hx * ht
        defect = max(defect, abs(val - lam ** (-q_hom) * base) / base)
    record("measure_homogeneity", defect, 1e-4)

    return checks
