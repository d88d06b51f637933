"""Concentration-compactness diagnostics for mass-density sequences.

Normalized densities |u|^q / int |u|^q are probed with the concentration
function Q(R) = sup over centers of the gauge-ball mass, dilation-normalized
so the best unit ball holds exactly half the mass, and classified along a
finite sequence into the trichotomy compactness / vanishing / dichotomy.
Ball geometry is the group geometry throughout: the ball around z is
{w : rho(z^-1 w) < R}, which twists in t away from the center.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field as dc_field
from typing import Optional

import numpy as np

from .errors import AlgorithmError, DomainError
from .grid import Grid3, ScalarField, e_norm_sq, full_mask
from .heis_core import GroupPoint, gauge, group_inverse, group_mul, homogeneous_dimension

__all__ = [
    "MassDensity",
    "ConcentrationProfile",
    "TrichotomyResult",
    "normalize_mass",
    "ball_mass",
    "concentration",
    "concentration_profile",
    "dilation_normalize",
    "classify_sequence",
    "energy_split",
    "cutoff",
    "group_translate_field",
    "dilate_field",
]

_Q_HOM = homogeneous_dimension(1)


@dataclass
class MassDensity:
    """Nonnegative density with unit total mass (after normalization)."""

    field: ScalarField
    total_mass: float

    def __post_init__(self):
        if float(self.field.values.min()) < 0.0:
            raise DomainError("mass density must be nonnegative")


def normalize_mass(u: ScalarField, q: float) -> MassDensity:
    """Density |u|^q / int |u|^q, for a finite q >= 1.

    The powers are taken of |u| / max|u|, which lie in [0, 1], so a finite
    field of any scale neither overflows nor loses its mass to underflow,
    and scaling u by a power of two leaves the density bit-identical.
    """
    _check_exponent(q)
    dens = np.abs(u.values)
    top = float(dens.max())
    if top == 0.0:
        raise DomainError("cannot normalize a field with zero L^q mass")
    dens /= top
    dens **= q
    dens /= float(dens.sum()) * u.grid.cell_volume
    f = ScalarField(u.grid, dens, u.mask)
    return MassDensity(field=f, total_mass=float(dens.sum()) * u.grid.cell_volume)


def _gauge_dist_sq4(grid: Grid3, center: GroupPoint):
    """rho(center^-1 w)^4 on all nodes, vectorized."""
    a, b, c = float(center.x[0]), float(center.y[0]), float(center.t)
    xs, ys, ts = grid.coordinate_arrays()
    dx = xs - a
    dy = ys - b
    dt = ts - c - 2.0 * b * xs + 2.0 * a * ys
    r2 = dx * dx + dy * dy
    return r2 * r2 + dt * dt


def _check_exponent(q: float) -> None:
    if not (math.isfinite(q) and q >= 1.0):
        raise DomainError(f"mass exponent q must be finite and >= 1, got {q}")


def _check_count(value, what: str) -> None:
    if not (isinstance(value, (int, np.integer)) and value >= 1):
        raise DomainError(f"{what} must be an integer >= 1, got {value!r}")


def _check_radius(R: float) -> None:
    if not R > 0:
        raise DomainError(f"ball radius must be positive, got {R}")


# Elements in one temporary of the ball-mass kernel (window ends of a block
# of centers, or one gather), which keeps a call's working set at about
# that of a loop over single centers.
_CHUNK = 1 << 14


def _radius_cap(grid: Grid3, a, b, c_lo: float, c_hi: float) -> float:
    """A radius whose gauge ball about every center (a_k, b_k, c) with
    c_lo <= c <= c_hi holds every node: twice a bound on rho(z^-1 w) over
    the nodes w, plus a cell.

    Clamping R to it changes no mass and keeps R^4 finite.
    """
    a, b = (np.asarray(v, dtype=float) for v in (a, b))
    xs, ys, ts = (grid.axis_coords(i) for i in range(3))
    dx = max(xs[-1] - a.min(), a.max() - xs[0])
    dy = max(ys[-1] - b.min(), b.max() - ys[0])
    xm = max(-xs[0], xs[-1])
    ym = max(-ys[0], ys[-1])
    # dt = t - c - 2 b x + 2 a y
    dt = (max(ts[-1] - c_lo, c_hi - ts[0])
          + 2.0 * np.abs(b).max() * xm + 2.0 * np.abs(a).max() * ym)
    r2 = dx * dx + dy * dy
    return 2.0 * math.sqrt(math.sqrt(r2 * r2 + dt * dt)) + max(grid.spacing)


def _disc_offsets(grid: Grid3, R: float, slack_x: float, slack_y: float):
    """Column offsets (ox, oy), in row-major order, that a gauge ball of
    radius R can reach from a center within (slack_x, slack_y) of its
    anchor column.

    A column at horizontal distance >= R from the center has s = 0 and
    holds no mass; the margin on R keeps every column whose rounded r2
    could still fall below R^2.  The window is capped at the grid size.
    """
    hx, hy = grid.spacing[:2]
    nx, ny = grid.shape[:2]
    reach = R * (1.0 + 1e-9) + 1e-6 * max(hx, hy)
    wx = min(int((reach + slack_x) / hx), nx - 1)
    wy = min(int((reach + slack_y) / hy), ny - 1)
    ox, oy = np.meshgrid(np.arange(-wx, wx + 1), np.arange(-wy, wy + 1), indexing="ij")
    gx = np.maximum(np.abs(ox) * hx - slack_x, 0.0)
    gy = np.maximum(np.abs(oy) * hy - slack_y, 0.0)
    keep = gx * gx + gy * gy < reach * reach
    return ox[keep], oy[keep]


def _padded_cumsum(values: np.ndarray, last: int) -> np.ndarray:
    """Each column's t-cumsum with a leading 0, padded with `last` more zeros
    before and `last` copies of the column total after, plus one zero row
    that off-grid columns read: shape (nx ny + 1, nt + 2 last + 1).

    It depends on the density and on `last` only, not on the radius.
    """
    nx, ny, nt = values.shape
    csum = np.zeros((nx * ny + 1, nt + 2 * last + 1))
    np.cumsum(values.reshape(nx * ny, nt), axis=1, out=csum[:-1, last + 1:last + nt + 1])
    csum[:-1, last + nt + 1:] = csum[:-1, last + nt, None]
    return csum


def _ball_masses(grid: Grid3, csum, R: float, ia, ib, a, b, c0, t_stride, ntc):
    """Gauge-ball masses about every xy-center (a[k], b[k]) and every
    t-center c0 + l * t_stride * h_t, l < ntc; shape (len(a), ntc).

    `csum` is `_padded_cumsum(values, t_stride * (ntc - 1))` of the density.
    The gauge-ball condition rho(z^-1 w) < R restricted to the column at
    (x, y) is the t-interval |t - c - 2b(x-a) + 2a(y-b)| < s with
    s = (R^4 - r2^2)^(1/2); interval sums are differences of a t-axis
    cumulative sum.  The t-centers sit on the node lattice, so the window
    ends of a (center column, disc column) pair move by exactly t_stride
    cells from one t-center to the next: they are found once, at c0, and
    clipped to [-last, nt], last = t_stride (ntc - 1).  The padding makes a
    clipped end read 0 or the column total at every t-center, so a window
    end is one strided row of ntc entries.  Center k visits only the
    columns (ia[k], ib[k]) + (ox, oy) within reach of R, off-grid ones
    reading the zero row, and sums them in row-major order.
    """
    nx, ny, nt = grid.shape
    ht, t0 = grid.spacing[2], grid.corner[2]
    last = t_stride * (ntc - 1)
    R = min(R, _radius_cap(grid, a, b, c0, c0 + last * ht))
    xs, ys = grid.axis_coords(0), grid.axis_coords(1)
    ox, oy = _disc_offsets(
        grid, R, float(np.abs(a - xs[ia]).max()), float(np.abs(b - ys[ib]).max())
    )
    width = csum.shape[1]
    step = csum.strides[1]  # rows[i] = csum.flat[i : i + last + 1 : t_stride]
    rows = np.lib.stride_tricks.as_strided(
        csum.ravel(), (csum.size - last, ntc), (step, t_stride * step), writeable=False)
    hx, hy = grid.spacing[:2]
    R4 = R**4
    mid0 = (c0 - t0) / ht - 0.5
    ncol, nxy = len(ox), len(a)
    k_ends = max(1, _CHUNK // ncol)  # xy-centers per block of window ends
    k_rows = max(1, k_ends // ntc)  # xy-centers per gather
    masses = np.empty((nxy, ntc))
    for k0 in range(0, nxy, k_ends):
        k = slice(k0, k0 + k_ends)
        # skip the offsets that leave the grid for every center of the block
        use = ((ox >= -ia[k].max()) & (ox < nx - ia[k].min())
               & (oy >= -ib[k].max()) & (oy < ny - ib[k].min()))
        ci = ia[k, None] + ox[use]
        cj = ib[k, None] + oy[use]
        # column coordinates by the same expression as Grid3.axis_coords
        dx = (grid.corner[0] + (ci + 0.5) * hx) - a[k, None]
        dy = (grid.corner[1] + (cj + 0.5) * hy) - b[k, None]
        r2 = dx * dx + dy * dy
        half = np.sqrt(np.maximum(R4 - r2 * r2, 0.0)) / ht
        # node t0 + (i + 1/2) ht is within s of c0 + 2b dx - 2a dy for
        # lo <= i < hi; ceil and clip are monotone, so hi >= lo
        mid = (2.0 * b[k, None] * dx - 2.0 * a[k, None] * dy) / ht + mid0
        on_grid = (ci >= 0) & (ci < nx) & (cj >= 0) & (cj < ny)
        start = np.where(on_grid, ci * ny + cj, nx * ny) * width + last
        hi = start + np.clip(np.ceil(mid + half), -last, nt).astype(np.int64)
        lo = start + np.clip(np.ceil(mid - half), -last, nt).astype(np.int64)
        for j in range(0, len(hi), k_rows):
            col = rows[hi[j:j + k_rows]]
            col -= rows[lo[j:j + k_rows]]
            masses[k0 + j:k0 + j + k_rows] = col.sum(axis=1) * grid.cell_volume
    return masses


def ball_mass(density: MassDensity, R: float, center: GroupPoint) -> float:
    """Mass of the gauge ball B_R(center)."""
    _check_radius(R)
    if not center.is_finite():
        raise DomainError(f"ball center must be finite, got {center}")
    grid = density.field.grid
    a, b = float(center.x[0]), float(center.y[0])
    # anchor the window at the node column nearest the center
    ia = np.clip(np.rint((a - grid.corner[0]) / grid.spacing[0] - 0.5), 0, grid.shape[0] - 1)
    ib = np.clip(np.rint((b - grid.corner[1]) / grid.spacing[1] - 0.5), 0, grid.shape[1] - 1)
    masses = _ball_masses(grid, _padded_cumsum(density.field.values, 0), R,
                          np.array([int(ia)]), np.array([int(ib)]),
                          np.array([a]), np.array([b]), float(center.t), 1, 1)
    return float(masses[0, 0])


# Centers whose ball mass is within this fraction of the maximum tie with it.
_TIE_REL = 1e-12


def concentration(density: MassDensity, R: float, center_stride: int = 2):
    """Max gauge-ball mass over a strided lattice of candidate centers.

    Returns (mass, center): the one sample of `concentration_profile` at R.
    """
    _, q, center = concentration_profile(density, [R], center_stride).samples[0]
    return q, center


@dataclass
class ConcentrationProfile:
    """Q(R) samples for one density; Q is nondecreasing in R."""

    samples: list = dc_field(default_factory=list)  # (R, Q(R), center)

    def q_at(self, R: float) -> float:
        for r, q, _ in self.samples:
            if r == R:
                return q
        raise KeyError(R)

    def center_at(self, R: float) -> GroupPoint:
        for r, q, c in self.samples:
            if r == R:
                return c
        raise KeyError(R)


def concentration_profile(
    density: MassDensity, R_grid, center_stride: int = 2
) -> ConcentrationProfile:
    """Q(R) and its center at every R of R_grid, over the lattice of
    candidate centers at every `center_stride`-th node.

    Q(R) is the maximum ball mass; the center is picked from the
    near-maximal centers (mass >= max * (1 - _TIE_REL)) as the one nearest
    their mean (x, y, t), the first in (x, y, t) order on a tie, so
    rounding-level differences between near-equal balls cannot move it
    across a flat density.  Stride error is bounded by the mass of one cell
    shell, which is all the classifier needs.  The t-centers are nodes, so
    `_ball_masses` reads every t-center from one padded t-cumsum, which
    depends on the density and the stride only and is built once for all R.
    """
    _check_count(center_stride, "center stride")
    grid = density.field.grid
    ia = np.arange(0, grid.shape[0], center_stride)
    ib = np.arange(0, grid.shape[1], center_stride)
    cts = grid.axis_coords(2)[::center_stride]
    ia, ib = np.repeat(ia, len(ib)), np.tile(ib, len(ia))
    a, b = grid.axis_coords(0)[ia], grid.axis_coords(1)[ib]
    csum = _padded_cumsum(density.field.values, center_stride * (len(cts) - 1))
    prof = ConcentrationProfile()
    for R in R_grid:
        _check_radius(R)
        masses = _ball_masses(grid, csum, R, ia, ib, a, b, cts[0], center_stride, len(cts))
        q = float(masses.max())
        k, l = np.divmod(np.flatnonzero(masses >= q * (1.0 - _TIE_REL)), len(cts))
        near = np.stack([a[k], b[k], cts[l]], axis=1)
        j = int(np.argmin(((near - near.mean(axis=0)) ** 2).sum(axis=1)))
        prof.samples.append((float(R), q, GroupPoint.of(*(float(c) for c in near[j]))))
    return prof


# ---------------------------------------------------------------------------
# Field resampling: group translations and dilations
# ---------------------------------------------------------------------------


def _cell_coords(nodes: np.ndarray, points: np.ndarray):
    """Cell index i, offset w and outside flag of each point.

    The rule is that of scipy's RegularGridInterpolator: nodes[i] <= p <
    nodes[i + 1], with the last node in the last cell, and
    w = (p - nodes[i]) / (nodes[i + 1] - nodes[i]).  A point outside
    [nodes[0], nodes[-1]] gets the nearest cell and the flag set.
    """
    i = np.clip(np.searchsorted(nodes, points, side="right") - 1, 0, len(nodes) - 2)
    lo = nodes[i]
    w = (points - lo) / (nodes[i + 1] - lo)
    return i, w, (points < nodes[0]) | (points > nodes[-1])


def group_translate_field(u: ScalarField, z0: GroupPoint) -> ScalarField:
    """Resample w -> u(z0 * w) by trilinear interpolation, zero outside the box.

    A left translation by z0 = (a, b, c) shifts x by a and y by b at every
    node, so each x (and each y) of the output has one cell; only
    t + c + 2(b x - a y) varies per node.  The 8 corner terms, weighted
    (wx wy) wt, are added one by one in the order scipy's
    RegularGridInterpolator adds them, so the two agree bit for bit.
    """
    grid = u.grid
    _, ny, nt = grid.shape
    a, b, c = float(z0.x[0]), float(z0.y[0]), float(z0.t)
    xs, ys, ts = grid.coordinate_arrays()
    (ix, wx, out_x), (iy, wy, out_y), (it, wt, out_t) = (
        _cell_coords(grid.axis_coords(axis), p) for axis, p in
        enumerate((xs + a, ys + b, ts + c + 2.0 * (b * xs - a * ys)))
    )
    low = (ix * ny + iy) * nt + it  # flat index of each output's low corner
    flat = u.values.ravel()
    vals = np.zeros(grid.shape)
    for (dx, fx), (dy, fy), (dt, ft) in itertools.product(
        *(((0, 1.0 - w), (1, w)) for w in (wx, wy, wt))
    ):
        vals += flat[(dx * ny + dy) * nt + dt:][low] * (fx * fy * ft)
    vals[out_x | out_y | out_t] = 0.0
    return ScalarField(grid, vals, full_mask(grid))


def _linear_weights(nodes: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Matrix of 1-D linear interpolation from `nodes` to `points`, with
    rows of zeros for points outside [nodes[0], nodes[-1]]."""
    i, w, outside = _cell_coords(nodes, points)
    rows = np.arange(len(points))
    m = np.zeros((len(points), len(nodes)))
    m[rows, i] = np.where(outside, 0.0, 1.0 - w)
    m[rows, i + 1] = np.where(outside, 0.0, w)
    return m


def dilate_field(u: ScalarField, lam: float, q: float) -> ScalarField:
    """nu(z) = lam^(Q/q) u(delta_lam z); preserves the L^q mass exactly in
    the continuum (lam^-Q Jacobian of the dilations).

    delta_lam maps x, y and t independently (x -> lam x, y -> lam y,
    t -> lam^2 t), so the trilinear resample with zero fill is one 1-D
    interpolation matrix applied along each axis.
    """
    if lam <= 0:
        raise DomainError(f"dilation factor must be positive, got {lam}")
    _check_exponent(q)
    xs, ys, ts = (u.grid.axis_coords(i) for i in range(3))
    mx = _linear_weights(xs, lam * xs)
    my = _linear_weights(ys, lam * ys)
    mt = _linear_weights(ts, lam * lam * ts)
    vals = (mx @ u.values.reshape(len(xs), -1)).reshape(u.grid.shape)
    vals = (my @ vals) @ mt.T
    return ScalarField(u.grid, lam ** (_Q_HOM / q) * vals, full_mask(u.grid))


def _lq_mass(u: ScalarField, q: float) -> float:
    return float((np.abs(u.values) ** q).sum()) * u.grid.cell_volume


# `dilation_normalize`: the lattice stride of its candidate ball centers, the
# tolerance on the half-mass fraction and the bisection budget of each scale.
_CENTER_STRIDE = 2
_MASS_TOL = 1e-3
_MAX_BISECT = 60


def _half_mass_scale(fraction, what: str):
    """The scale x at which a ball fraction reaches 1/2 (+- _MASS_TOL).

    fraction(x) returns a tuple whose first item is the fraction, which
    grows with x.  The bracket grows from x = 1 by halving or doubling, at
    most 20 times, and is then bisected at most _MAX_BISECT times.  Returns
    (x, fraction(x)) of the first x within tolerance; raises AlgorithmError
    when there is no bracket or the bisection does not converge.
    """
    lo = hi = 1.0
    f_lo = f_hi = fraction(1.0)[0]
    for _ in range(20):
        if f_lo > 0.5:
            lo /= 2.0
            f_lo = fraction(lo)[0]
        elif f_hi < 0.5:
            hi *= 2.0
            f_hi = fraction(hi)[0]
        else:
            break
    if f_lo > 0.5 or f_hi < 0.5:
        raise AlgorithmError(f"could not bracket the {what} in the box")
    for _ in range(_MAX_BISECT):
        x = 0.5 * (lo + hi)
        out = fraction(x)
        if abs(out[0] - 0.5) <= _MASS_TOL:
            return x, out
        if out[0] < 0.5:
            lo = x
        else:
            hi = x
    raise AlgorithmError(f"{what} did not converge")


def dilation_normalize(u: ScalarField, q: float):
    """Rescale and recenter so the best unit gauge ball holds half the mass.

    Bisection on lam for nu = lam^(Q/q) u o delta_lam until the sup-center
    unit-ball mass of |nu|^q is 1/2 (+- _MASS_TOL), then a group translation
    moves the maximizing center to the origin.  Returns (nu, R_m = 1/lam).
    """
    total = _lq_mass(u, q)
    if abs(total - 1.0) > 1e-6:
        raise DomainError(f"input must satisfy int |u|^q = 1, got {total}")

    def ball_fraction(lam):
        nu = dilate_field(u, lam, q)
        m = _lq_mass(nu, q)
        if m <= 0:
            return 0.0, nu, None
        dens = MassDensity(
            ScalarField(nu.grid, np.abs(nu.values) ** q / m, nu.mask), 1.0
        )
        frac, center = concentration(dens, 1.0, _CENTER_STRIDE)
        return frac, nu, center

    lam, (_, nu, center) = _half_mass_scale(ball_fraction, "half-mass dilation")
    nu = group_translate_field(nu, center)
    m = _lq_mass(nu, q)
    if m <= 0:
        raise AlgorithmError("mass lost during recentering")
    nu = nu.with_values(nu.values / m ** (1.0 / q))

    # The recentering resample perturbs the ball mass, so refine the scale
    # against the origin-centered ball of the actual output field.
    origin = GroupPoint.of(0.0, 0.0, 0.0)

    def origin_fraction(s):
        w = dilate_field(nu, s, q)
        m_w = _lq_mass(w, q)
        if m_w <= 0:
            return 0.0, None
        w = w.with_values(w.values / m_w ** (1.0 / q))
        dens = MassDensity(
            ScalarField(w.grid, np.abs(w.values) ** q, w.mask), 1.0
        )
        return ball_mass(dens, 1.0, origin), w

    s, (_, w) = _half_mass_scale(origin_fraction, "origin-ball refinement")
    return w, 1.0 / (lam * s)


# ---------------------------------------------------------------------------
# Trichotomy classification
# ---------------------------------------------------------------------------


@dataclass
class TrichotomyResult:
    verdict: str  # compactness | vanishing | dichotomy | inconclusive
    witness_centers: list
    witness_radius: Optional[float]
    split_mass: Optional[float]
    eps: float
    profiles: list = dc_field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "witness_radius": self.witness_radius,
            "split_mass": self.split_mass,
            "eps": self.eps,
            "witness_centers": [
                {"x": float(c.x[0]), "y": float(c.y[0]), "t": float(c.t)}
                for c in self.witness_centers
            ],
            "profiles": [
                [[r, q] for r, q, _ in prof.samples] for prof in self.profiles
            ],
        }


def _second_cluster(density: MassDensity, R: float, z1: GroupPoint, stride: int):
    """Best ball mass over centers, excluding nodes within B_2R(z1)."""
    grid = density.field.grid
    # past the cap the excluded ball holds every node; the cap keeps R^4 finite
    r_excl = 2.0 * min(R, _radius_cap(grid, z1.x, z1.y, z1.t, z1.t))
    keep = _gauge_dist_sq4(grid, z1) >= r_excl**4
    vals = np.where(keep, density.field.values, 0.0)
    trimmed = MassDensity(ScalarField(grid, vals, full_mask(grid)), 1.0)
    return concentration(trimmed, R, stride)


# The classifier reads the last _TAIL densities of a sequence.
_TAIL = 3


def classify_sequence(
    densities,
    eps: float,
    R_grid,
    center_stride: int = 2,
) -> TrichotomyResult:
    """Finite-sequence verdict: compactness / vanishing / dichotomy.

    Rules (diverging separation is surrogate on a finite sequence:
    strictly increasing across the last _TAIL elements and exceeding 4R):
      vanishing    — every R in R_grid captures < eps of the last density;
      compactness  — some R keeps >= 1 - eps for the whole tail (recentered);
      dichotomy    — some R where the tail mass plateaus at alpha strictly
                     between eps and 1 - eps, with a second separated
                     carrier whose distance to the first diverges.
    """
    if not 0.0 < eps < 0.5:
        raise DomainError(f"eps must lie in (0, 1/2), got {eps}")
    densities = list(densities)
    if len(densities) < _TAIL:
        raise DomainError(f"need at least {_TAIL} densities, got {len(densities)}")
    R_grid = sorted(float(r) for r in R_grid)
    if not R_grid:
        raise DomainError("need at least one probe radius")
    profiles = [
        concentration_profile(d, R_grid, center_stride) for d in densities
    ]
    tail_profiles = profiles[-_TAIL:]
    tail_densities = densities[-_TAIL:]

    result_kwargs = dict(eps=eps, profiles=profiles)

    # Vanishing: no ball of any probe radius retains mass at the end.
    if all(tail_profiles[-1].q_at(R) < eps for R in R_grid):
        return TrichotomyResult(
            verdict="vanishing",
            witness_centers=[],
            witness_radius=None,
            split_mass=None,
            **result_kwargs,
        )

    # Compactness: some R keeps nearly all mass for every tail index.
    for R in R_grid:
        if all(prof.q_at(R) >= 1.0 - eps for prof in tail_profiles):
            return TrichotomyResult(
                verdict="compactness",
                witness_centers=[prof.center_at(R) for prof in tail_profiles],
                witness_radius=R,
                split_mass=None,
                **result_kwargs,
            )

    # Dichotomy: plateau strictly between eps and 1 - eps plus a second
    # carrier separating from the first.
    for R in R_grid:
        qs = [prof.q_at(R) for prof in tail_profiles]
        alpha = float(np.mean(qs))
        if not (eps < alpha < 1.0 - eps):
            continue
        if max(qs) - min(qs) > 0.05:
            continue
        seps = []
        second_ok = True
        for prof, dens in zip(tail_profiles, tail_densities):
            z1 = prof.center_at(R)
            m2, z2 = _second_cluster(dens, R, z1, center_stride)
            if m2 < eps:
                second_ok = False
                break
            seps.append(gauge(group_mul(group_inverse(z1), z2)))
        if not second_ok:
            continue
        increasing = all(b > a for a, b in zip(seps[:-1], seps[1:]))
        if increasing and seps[-1] > 4.0 * R:
            return TrichotomyResult(
                verdict="dichotomy",
                witness_centers=[prof.center_at(R) for prof in tail_profiles],
                witness_radius=R,
                split_mass=alpha,
                **result_kwargs,
            )

    return TrichotomyResult(
        verdict="inconclusive",
        witness_centers=[],
        witness_radius=None,
        split_mass=None,
        **result_kwargs,
    )


# ---------------------------------------------------------------------------
# Cutoff energy splitting
# ---------------------------------------------------------------------------


def cutoff(r: float, grid: Grid3) -> ScalarField:
    """C^1 smoothstep in the gauge: 1 on B_r, 0 outside B_2r."""
    if r <= 0:
        raise DomainError(f"cutoff radius must be positive, got {r}")
    rho = grid.gauge_array()
    s = np.clip((2.0 * r - rho) / r, 0.0, 1.0)
    phi = s * s * (3.0 - 2.0 * s)
    return ScalarField(grid, np.broadcast_to(phi, grid.shape).copy(), full_mask(grid))


def energy_split(u: ScalarField, r: float, p: float):
    """Cutoff splitting defect and annulus L^(p+1) mass at radius r.

    Returns (| ||phi u||^2 + ||(1-phi) u||^2 - ||u||^2 |,
             int_{B_2r \\ B_r} |u|^(p+1)).
    """
    rho = u.grid.gauge_array()
    if r > float(rho.max()):
        raise DomainError(f"r = {r} exceeds the box gauge radius {rho.max():.3g}")
    phi = cutoff(r, u.grid)
    inner_part = u.with_values(phi.values * u.values)
    outer_part = u.with_values((1.0 - phi.values) * u.values)
    defect = abs(e_norm_sq(inner_part) + e_norm_sq(outer_part) - e_norm_sq(u))
    ann = (rho >= r) & (rho < 2.0 * r)
    annulus_mass = float(
        (np.abs(u.values[ann]) ** (p + 1.0)).sum()
    ) * u.grid.cell_volume
    return defect, annulus_mass
