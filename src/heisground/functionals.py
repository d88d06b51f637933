"""Energy functionals for the ground-state problem and their exact
discrete derivatives.

J(u) = 1/2 int |grad_H u|^2 + u^2  -  1/(p+1) int u_+^(p+1)   (full energy)
I(u) = 1/2 int |grad_H u|^2 + u^2                             (quadratic part)

The nonlinear term uses the positive part u_+, which makes nonnegativity of
converged states automatic and is invisible once u > 0.  The gradient is the
exact derivative of the discrete energy (discretize-then-differentiate), so
descent line searches are variationally consistent with the stencil.  The
gradients go through the grid's one assembled operator A (grad I = A v, with
v the field's mask values); the energy's value is summed as squares of the
same forward differences (see `grid`), I(u) = w v^T A v / 2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DomainError
from .grid import ScalarField, e_norm_sq, energy_operator, l2_norm

__all__ = [
    "EnergyBreakdown",
    "check_exponent",
    "eval_J",
    "eval_I",
    "grad_J",
    "residual",
    "nehari_scale",
    "critical_identity_defect",
    "energy_breakdown",
]


def check_exponent(p: float) -> None:
    """Numeric path is restricted to subcritical 1 < p < 3 (n = 1)."""
    if not 1.0 < p < 3.0:
        raise ConfigurationError(
            f"exponent p must lie in (1, 3) for n = 1; got p = {p}"
        )


def _pos_pow_sum(values: np.ndarray, expo: float) -> float:
    up = np.maximum(values, 0.0)
    if expo == 3.0:
        cube = up * up
        cube *= up
        return float(cube.sum())
    return float(np.sum(up**expo))


def _pos_pow(values: np.ndarray, expo: float) -> np.ndarray:
    up = np.maximum(values, 0.0)
    if expo == 2.0:
        return up * up
    return up**expo


def eval_I(u: ScalarField) -> float:
    return 0.5 * e_norm_sq(u)


def eval_J(u: ScalarField, p: float) -> float:
    check_exponent(p)
    w = u.grid.cell_volume
    return eval_I(u) - w * _pos_pow_sum(u.values, p + 1.0) / (p + 1.0)


def grad_J(u: ScalarField, p: float) -> ScalarField:
    """L^2 representative of dJ: A v - v_+^p on interior nodes."""
    check_exponent(p)
    v = u.interior()
    g = energy_operator(u.grid, u.mask) @ v - _pos_pow(v, p)
    return ScalarField.from_interior(u.grid, u.mask, g)


def grad_I(u: ScalarField) -> ScalarField:
    """L^2 representative of dI: A v = -Delta_h u + u on interior nodes."""
    return ScalarField.from_interior(
        u.grid, u.mask, energy_operator(u.grid, u.mask) @ u.interior()
    )


def residual(u: ScalarField, p: float) -> ScalarField:
    """Pointwise Delta_h u - u + u_+^p on interior nodes."""
    check_exponent(p)
    v = u.interior()
    lap = v - energy_operator(u.grid, u.mask) @ v
    return ScalarField.from_interior(u.grid, u.mask, lap - v + _pos_pow(v, p))


def nehari_scale(u: ScalarField, p: float):
    """Maximizer of t -> J(t u) on the ray through u.

    t* = (||u||^2 / int u_+^(p+1))^(1/(p-1));  returns (t*, J(t* u)).
    """
    check_exponent(p)
    w = u.grid.cell_volume
    mass = w * _pos_pow_sum(u.values, p + 1.0)
    if mass <= 0.0:
        raise DomainError("Nehari scaling needs positive mass int u_+^(p+1) > 0")
    nsq = e_norm_sq(u)
    t_star = (nsq / mass) ** (1.0 / (p - 1.0))
    j_max = 0.5 * t_star**2 * nsq - t_star ** (p + 1.0) * mass / (p + 1.0)
    return t_star, j_max


def critical_identity_defect(u: ScalarField, p: float) -> float:
    """J(u) - (p-1)/(2(p+1)) ||u||^2; vanishes exactly at critical points."""
    check_exponent(p)
    return eval_J(u, p) - (p - 1.0) / (2.0 * (p + 1.0)) * e_norm_sq(u)


@dataclass(frozen=True)
class EnergyBreakdown:
    """Scalar diagnostics of one field."""

    J: float
    I: float
    e_norm_sq: float
    lp1_norm: float
    residual_l2: float
    p: float

    def as_dict(self) -> dict:
        return {
            "J": self.J,
            "I": self.I,
            "e_norm_sq": self.e_norm_sq,
            "lp1_norm": self.lp1_norm,
            "residual_l2": self.residual_l2,
            "p": self.p,
        }


def energy_breakdown(u: ScalarField, p: float) -> EnergyBreakdown:
    check_exponent(p)
    w = u.grid.cell_volume
    nsq = e_norm_sq(u)
    mass = w * _pos_pow_sum(u.values, p + 1.0)
    return EnergyBreakdown(
        J=0.5 * nsq - mass / (p + 1.0),
        I=0.5 * nsq,
        e_norm_sq=nsq,
        lp1_norm=mass ** (1.0 / (p + 1.0)),
        residual_l2=l2_norm(residual(u, p)),
        p=p,
    )
