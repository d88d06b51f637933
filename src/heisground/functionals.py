"""Energy functionals for the ground-state problem and their exact
discrete derivatives.

J(u) = 1/2 int |grad_H u|^2 + u^2  -  1/(p+1) int u_+^(p+1)   (full energy)
I(u) = 1/2 int |grad_H u|^2 + u^2                             (quadratic part)

The nonlinear term uses the positive part u_+, which makes nonnegativity of
converged states automatic and is invisible once u > 0.  The gradient is the
exact derivative of the discrete energy (discretize-then-differentiate), so
descent line searches are variationally consistent with the stencil.  Both
come from the grid's one horizontal gradient B = [X_h; Y_h]: the gradients go
through A = B^T B + I (grad I = A v, with v the field's mask values), and the
energy's value is summed as squares, I(u) = w (||B v||^2 + ||v||^2) / 2
(see `grid`).

Each formula is one private function of numbers and arrays; the public
functions apply it to a field, the solvers to mask-node vectors.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .errors import ConfigurationError, DomainError
from .grid import ScalarField, _power, e_norm_sq, energy_operator, l2_norm
from .heis_core import critical_exponent

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


# The Folland-Stein-Sobolev threshold of H^1, a Fraction: a float compares
# with it exactly.
_P_CRITICAL = critical_exponent(1)


def check_exponent(p: float) -> None:
    """Numeric path is restricted to subcritical 1 < p < (Q+2)/(Q-2) (n = 1)."""
    if not 1.0 < p < _P_CRITICAL:
        raise ConfigurationError(
            f"exponent p must lie in (1, {_P_CRITICAL}) for n = 1; got p = {p}"
        )


def _pos_pow_sum(values: np.ndarray, expo: float) -> float:
    return float(_power(np.maximum(values, 0.0), expo).sum())


def _pos_pow(values: np.ndarray, expo: float) -> np.ndarray:
    up = np.maximum(values, 0.0)
    if expo == 2.0:
        return up * up
    return up**expo


def _constraint_mass(values: np.ndarray, p: float, w: float) -> float:
    """int u_+^(p+1) of a box array or a mask-node vector, w the cell volume."""
    return _pos_pow_sum(values, p + 1.0) * w


def _energy(nsq: float, mass: float, p: float) -> float:
    """J from ||u||^2 and int u_+^(p+1)."""
    return 0.5 * nsq - mass / (p + 1.0)


def _ray_max(nsq: float, mass: float, p: float):
    """(t*, J(t* u)) of the ray through u, from ||u||^2 and int u_+^(p+1).

    t* = (||u||^2 / int u_+^(p+1))^(1/(p-1)) maximizes t -> J(t u).
    """
    if mass <= 0.0:
        raise DomainError("Nehari scaling needs positive mass int u_+^(p+1) > 0")
    t_star = (nsq / mass) ** (1.0 / (p - 1.0))
    return t_star, 0.5 * t_star**2 * nsq - t_star ** (p + 1.0) * mass / (p + 1.0)


def _gradient(A, v: np.ndarray, p: float) -> np.ndarray:
    """grad J = A v - v_+^p of the mask-node vector v, A its energy operator."""
    return A @ v - _pos_pow(v, p)


def eval_I(u: ScalarField) -> float:
    """I(u) = ||u||^2 / 2, half the discrete energy norm (`e_norm_sq`)."""
    return 0.5 * e_norm_sq(u)


def eval_J(u: ScalarField, p: float) -> float:
    """J(u) = ||u||^2 / 2 - int u_+^(p+1) / (p+1), the discrete energy."""
    check_exponent(p)
    return _energy(e_norm_sq(u), _constraint_mass(u.values, p, u.grid.cell_volume), p)


def grad_J(u: ScalarField, p: float) -> ScalarField:
    """L^2 representative of dJ: A v - v_+^p on interior nodes."""
    check_exponent(p)
    A = energy_operator(u.grid, u.mask)
    return ScalarField.from_interior(u.grid, u.mask, _gradient(A, u.interior(), p))


def grad_I(u: ScalarField) -> ScalarField:
    """L^2 representative of dI: A v = -Delta_h u + u on interior nodes."""
    return ScalarField.from_interior(
        u.grid, u.mask, energy_operator(u.grid, u.mask) @ u.interior()
    )


def residual(u: ScalarField, p: float) -> ScalarField:
    """Pointwise Delta_h u - u + u_+^p = -grad J on interior nodes."""
    check_exponent(p)
    A = energy_operator(u.grid, u.mask)
    return ScalarField.from_interior(u.grid, u.mask, -_gradient(A, u.interior(), p))


def nehari_scale(u: ScalarField, p: float):
    """Maximizer of t -> J(t u) on the ray through u: returns (t*, J(t* u))."""
    check_exponent(p)
    mass = _constraint_mass(u.values, p, u.grid.cell_volume)
    return _ray_max(e_norm_sq(u), mass, p)


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
        return asdict(self)


def energy_breakdown(u: ScalarField, p: float) -> EnergyBreakdown:
    """J, I, ||u||^2, ||u_+||_(p+1) and the L^2 norm of the residual of u."""
    check_exponent(p)
    nsq = e_norm_sq(u)
    mass = _constraint_mass(u.values, p, u.grid.cell_volume)
    return EnergyBreakdown(
        J=_energy(nsq, mass, p),
        I=0.5 * nsq,
        e_norm_sq=nsq,
        lp1_norm=mass ** (1.0 / (p + 1.0)),
        residual_l2=l2_norm(residual(u, p)),
        p=p,
    )
