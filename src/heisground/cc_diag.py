"""Concentration-compactness diagnostics for mass-density sequences.

Normalized densities |u|^q / int |u|^q are probed with the concentration
function Q(R) = sup over centers of the gauge-ball mass, dilation-normalized
so the best unit ball holds exactly half the mass, and classified along a
finite sequence into the trichotomy compactness / vanishing / dichotomy
(or inconclusive).
Ball geometry is the group geometry throughout: the ball around z is
{w : rho(z^-1 w) < R}, which twists in t away from the center.
"""

from __future__ import annotations

import itertools
import math
from collections import OrderedDict
from dataclasses import dataclass, field as dc_field
from typing import Optional

import numpy as np

from .errors import AlgorithmError, DomainError
from .functionals import check_exponent
from .grid import (Grid3, ScalarField, _check_lq_exponent, _gauge_dist_sq4, _lq_mass, _power,
                   e_norm_sq, full_mask)
from .heis_core import GroupPoint, gauge, group_inverse, group_mul, homogeneous_dimension

__all__ = [
    "MassDensity",
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
    """A nonnegative density; `normalize_mass` builds one of unit mass."""

    field: ScalarField

    def __post_init__(self):
        if float(self.field.values.min()) < 0.0:
            raise DomainError("mass density must be nonnegative")


def normalize_mass(u: ScalarField, q: float) -> MassDensity:
    """Density |u|^q / int |u|^q, for a finite q >= 1.

    The powers are taken of |u| / max|u|, which lie in [0, 1], so a finite
    field of any scale neither overflows nor loses its mass to underflow,
    and scaling u by a power of two leaves the density bit-identical.  They
    are `grid._power`'s: two products at q = 3, numpy's general power at
    every other q.
    """
    _check_lq_exponent(q)
    dens = np.abs(u.values)
    top = float(dens.max())
    if top == 0.0:
        raise DomainError("cannot normalize a field with zero L^q mass")
    dens /= top
    dens = _power(dens, q)
    dens /= float(dens.sum()) * u.grid.cell_volume
    return MassDensity(ScalarField(u.grid, dens, u.mask))


def _check_radius(R: float) -> None:
    if not R > 0:
        raise DomainError(f"ball radius must be positive, got {R}")


# Elements in one temporary of the ball-mass kernel (window ends of a block
# of centers, or one gather), which keeps a call's working set at about
# that of a loop over single centers.
_CHUNK = 1 << 14
# The most t-centers that one read of a window end covers (`_t_chunk`).  On
# the 20 x 20 x 70 box (35 t-centers) 12 makes three chunks and a padded
# cumsum row of 115 entries, against 207 for one chunk of all t-centers;
# 18 makes two chunks and rows of 139, and raised a six-field classify's
# tracemalloc peak from 4.3 to 4.8 MB.  Each chunk costs one more fancy
# index per (center, column) pair in `_gather`.
_T_CHUNK = 12


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


def _open_ball(grid: Grid3, center: GroupPoint, R: float) -> np.ndarray:
    """The nodes w with rho(center^-1 w) < R: the open gauge ball B_R(center).

    R is clamped to `_radius_cap`, which holds every node and keeps R^4
    finite.
    """
    R = min(R, _radius_cap(grid, center.x, center.y, center.t, center.t))
    return _gauge_dist_sq4(grid, center) < R**4


def _disc_offsets(grid: Grid3, R: float):
    """Column offsets (ox, oy), in row-major order, that a gauge ball of
    radius R can reach from a center on a node column.

    A column at horizontal distance >= R from the center has s = 0 and
    holds no mass; the margin on R keeps every column whose rounded r2
    could still fall below R^2.  The window is capped at the grid size.
    """
    hx, hy = grid.spacing[:2]
    nx, ny = grid.shape[:2]
    reach = R * (1.0 + 1e-9) + 1e-6 * max(hx, hy)
    wx = min(int(reach / hx), nx - 1)
    wy = min(int(reach / hy), ny - 1)
    ox, oy = np.meshgrid(np.arange(-wx, wx + 1), np.arange(-wy, wy + 1), indexing="ij")
    gx = np.abs(ox) * hx
    gy = np.abs(oy) * hy
    keep = gx * gx + gy * gy < reach * reach
    return ox[keep], oy[keep]


def _padded_cumsum(densities, pad: int) -> np.ndarray:
    """One plane per density array of `densities`, all of one shape: each
    column's t-cumsum with a leading 0, padded with `pad` more zeros before
    and `pad` copies of the column total after, plus one zero row that
    off-grid columns read: shape (len(densities), nx ny + 1, nt + 2 pad + 1).

    `_lattice_profiles` pads by one chunk of t-centers, t_stride (n_c - 1)
    (see `_window_ends`).  Only the padding is filled before the cumsums are
    written into place.  A plane depends on its density and on `pad` only,
    not on the radius.  The density is >= 0 and np.cumsum adds along the
    column in order, so each row is nondecreasing in floating point too
    (fl(F + v) >= F for v >= 0).  A window sum fl(F[hi] - F[lo]) with
    lo <= hi thus lies in [0, F[hi]]: it is at most the row's last entry,
    the column total.
    """
    nx, ny, nt = densities[0].shape
    csum = np.empty((len(densities), nx * ny + 1, nt + 2 * pad + 1))
    csum[:, :, :pad + 1] = 0.0
    csum[:, -1] = 0.0
    for plane, values in zip(csum, densities):
        np.cumsum(values.reshape(nx * ny, nt), axis=1, out=plane[:-1, pad + 1:pad + nt + 1])
    # numpy copies the source of an overlapping assignment at the size of
    # its target; the totals alone are one column
    csum[:, :-1, pad + nt + 1:] = csum[:, :-1, pad + nt, None].copy()
    return csum


def _t_chunk(ntc: int) -> int:
    """t-centers per chunk, n_c: the ntc t-centers in the fewest chunks of
    at most _T_CHUNK, made as equal as they can be, so that the chunks read
    fewer t-centers past the lattice than there are chunks."""
    chunks = -(-ntc // _T_CHUNK)
    return -(-ntc // chunks)


def _window_ends(grid: Grid3, R: float, ia, ib, t_stride, ntc, n_c):
    """Window ends of the gauge balls about the nodes (a, b, c) of the node
    columns (ia[k], ib[k]) and the ntc t-centers c = c0 + l t_stride ht,
    read in chunks of n_c t-centers, one block of at most _CHUNK (center,
    column) pairs at a time.

    The gauge-ball condition rho(z^-1 w) < R restricted to the column at
    (x, y) is the t-interval |t - c - 2b(x-a) + 2a(y-b)| < s with
    s = (R^4 - r2^2)^(1/2); interval sums are differences of a t-axis
    cumulative sum.  The t-centers sit on the node lattice, so the window
    ends of a (center column, disc column) pair move by exactly t_stride
    cells from one t-center to the next: an end e is found once, at c0,
    and clipped to [-last, nt], last = t_stride (ntc - 1), which reads 0 or
    the column total at every t-center where it lay beyond the column.
    Chunk q of the t-centers reads the end from x = e + t_stride n_c q on,
    clipped to [-pad, nt] with pad = t_stride (n_c - 1), its n_c reads
    t_stride apart.  That clip is exact too: for x < -pad every read of the
    chunk lies at or below 0 and reads 0, for x > nt every read is the
    column total, and otherwise nothing is clipped.  So the chunks read the
    masses of the whole range bit for bit, from a cumsum padded by one
    chunk (`_padded_cumsum`); reads past the last t-center are dropped.
    Center k visits only the columns (ia[k], ib[k]) + (ox, oy) within reach
    of R, in row-major order, off-grid ones reading the zero row.

    Yields (k, row, hi, lo): the slice k of centers; per (center, column),
    the row of a plane of `_padded_cumsum` (int32), which holds the window
    (the column's row, or the zero row when the window is empty at every
    t-center), so that its total bounds the window sum; and per (center,
    column, chunk) the clipped ends as positions x + pad in that row, hi >=
    lo, in the narrowest unsigned type that holds [0, nt + pad].  The ball
    is open, so a node exactly on its sphere lies outside at either end.
    None of them depends on the density, so `_window_blocks` keeps the
    blocks of small lattices.
    """
    nx, ny, nt = grid.shape
    ht, t0 = grid.spacing[2], grid.corner[2]
    a, b, c0 = grid.axis_coords(0)[ia], grid.axis_coords(1)[ib], grid.axis_coords(2)[0]
    last = t_stride * (ntc - 1)
    pad = t_stride * (n_c - 1)
    shifts = t_stride * n_c * np.arange(-(-ntc // n_c))  # each chunk's first read
    position = np.min_scalar_type(nt + pad)
    R = min(R, _radius_cap(grid, a, b, c0, c0 + last * ht))
    ox, oy = _disc_offsets(grid, R)
    hx, hy = grid.spacing[:2]
    R4 = R**4
    mid0 = (c0 - t0) / ht - 0.5
    k_ends = max(1, _CHUNK // len(ox))  # xy-centers per block
    for k0 in range(0, len(a), k_ends):
        k = slice(k0, k0 + k_ends)
        # skip the offsets that leave the grid for every center of the block
        use = ((ox >= -ia[k].max()) & (ox < nx - ia[k].min())
               & (oy >= -ib[k].max()) & (oy < ny - ib[k].min()))
        # Each per-pair array is dropped once used, and the chunks' ends are
        # written one chunk at a time, so that a block's working set stays a
        # few per-pair arrays.
        ci = ia[k, None] + ox[use]
        cj = ib[k, None] + oy[use]
        on_grid = (ci >= 0) & (ci < nx) & (cj >= 0) & (cj < ny)
        row = np.where(on_grid, ci * ny + cj, nx * ny).astype(np.int32)
        # column coordinates by the same expression as Grid3.axis_coords
        dx = (grid.corner[0] + (ci + 0.5) * hx) - a[k, None]
        dy = (grid.corner[1] + (cj + 0.5) * hy) - b[k, None]
        del ci, cj, on_grid
        # node t0 + (i + 1/2) ht is within s of c0 + 2b dx - 2a dy, strictly,
        # for mid - half < i < mid + half, so for lo <= i < hi; the min keeps
        # hi >= lo when mid - half == mid + half is an integer
        mid = (2.0 * b[k, None] * dx - 2.0 * a[k, None] * dy) / ht + mid0
        r2 = dx * dx + dy * dy
        del dx, dy
        half = np.sqrt(np.maximum(R4 - r2 * r2, 0.0)) / ht
        del r2
        hi = np.clip(np.ceil(mid + half), -last, nt)
        lo = np.minimum(np.clip(np.floor(mid - half) + 1.0, -last, nt), hi)
        del mid, half
        row[hi <= lo] = nx * ny
        ends = np.empty((2, *hi.shape, len(shifts)), position)
        for q, shift in enumerate(shifts):
            for e, out in zip((hi, lo), ends):
                out[..., q] = np.clip(e + (shift + pad), 0, nt + pad)
        del hi, lo
        yield k, row, ends[0], ends[1]


def _strided_rows(csum: np.ndarray, t_stride: int, n_c: int) -> np.ndarray:
    """Read-only view of the rows of every plane of csum, stacked:
    rows[r, x] = csum row r's entries x, x + t_stride, ..., x + pad,
    pad = t_stride (n_c - 1): a window end's reads at one chunk of n_c
    t-centers, from its position x in the row (see `_window_ends`).

    The padding of `_padded_cumsum` by pad keeps the reads of every
    position x in [0, nt + pad] within its own row.
    """
    planes, nrow, width = csum.shape
    step = csum.strides[-1]
    return np.lib.stride_tricks.as_strided(
        csum, (planes * nrow, width - t_stride * (n_c - 1), n_c),
        (width * step, step, t_stride * step), writeable=False)


def _gather(rows: np.ndarray, ntc: int, row, hi, lo, w: float, centers, shift) -> np.ndarray:
    """Ball masses at the ntc t-centers of the centers `centers` of a block
    (row, hi, lo) of `_window_ends`, center j reading the rows
    row + shift[j] of `_strided_rows` (shift[j] is the first row of its
    density's plane): the column differences of the strided rows, their
    chunks laid end to end and cut to ntc, summed in the columns'
    row-major order, times the cell volume w.

    The ends are indexed, shifted and read for at most _CHUNK entries at a
    time.  A center's masses do not depend on the centers gathered with it.
    """
    ncol, nread = hi.shape[1], hi.shape[2] * rows.shape[2]
    n = max(1, _CHUNK // (ncol * nread))  # centers per gather
    masses = np.empty((len(centers), ntc))
    for j in range(0, len(centers), n):
        c = centers[j:j + n]
        r = (row[c] + shift[j:j + n, None])[..., None]
        col = rows[r, hi[c]]
        col -= rows[r, lo[c]]
        masses[j:j + n] = col.reshape(len(c), ncol, nread)[:, :, :ntc].sum(axis=1) * w
    return masses


def ball_mass(density: MassDensity, R: float, center: GroupPoint) -> float:
    """Mass of the open gauge ball B_R(center)."""
    _check_radius(R)
    if not center.is_finite():
        raise DomainError(f"ball center must be finite, got {center}")
    grid = density.field.grid
    return float(density.field.values[_open_ball(grid, center, R)].sum()) * grid.cell_volume


# The candidate ball centers are the nodes at every _CENTER_STRIDE-th index
# along each axis; those whose ball mass is within _TIE_REL of the maximum
# tie with it.
_CENTER_STRIDE = 2
_TIE_REL = 1e-12

# Unit roundoff of float64.
_U = 2.0**-53


def concentration(density: MassDensity, R: float):
    """Max gauge-ball mass over the lattice of candidate centers.

    Returns (mass, center): the one sample of `concentration_profile` at R.
    """
    return concentration_profile(density, [R])[0][1:]


def concentration_profile(density: MassDensity, R_grid) -> list:
    """The list of (R, Q(R), center), one per R of R_grid and in its order,
    over the lattice of candidate centers at every _CENTER_STRIDE-th node.

    Q(R) is the maximum ball mass, nondecreasing in R; the center is picked
    from the near-maximal centers (mass >= max * (1 - _TIE_REL)) as the one
    nearest their mean (x, y, t), the first in (x, y, t) order on a tie, so
    rounding-level differences between near-equal balls cannot move it across
    a flat density.  Stride error is bounded by the mass of one cell
    shell, which is all the classifier needs.

    Most centers are never gathered, yet Q, the tie set and the center are
    those of the whole lattice bit for bit.  A center's computed mass at
    every t-center is at most its bound (`_mass_bounds`), and a center is
    gathered only when its bound reaches q (1 - _TIE_REL) for the largest
    mass q gathered so far.  Both products round monotonically and q <= Q,
    so a center left out holds less than Q (1 - _TIE_REL) as computed: it
    is neither the maximum nor in the tie set.
    """
    return _lattice_profiles([density], R_grid)[0]


def _mass_bounds(totals: np.ndarray, row, w: float) -> np.ndarray:
    """Upper bounds on the computed ball masses of a block of centers at
    every t-center: one row per density (a row of `totals`, its column
    totals with 0 last for the zero row), one entry per center.

    The bound is B (1 + 4(n + 1)u), u = 2^-53, where B is the sum of the
    column totals over the center's n columns, times the cell volume w;
    `_window_ends` points empty windows (hi == lo) at the zero row, so they
    read 0.  Each computed window sum is at
    most its column total (see `_padded_cumsum`), and a computed sum of n
    terms >= 0, in any order, is within gamma = (n-1)u / (1 - (n-1)u) of
    the exact sum.  With the roundings of the two products by w, the
    computed mass is at most B (1 + gamma)(1 + u) / ((1 - gamma)(1 - u))
    <= B / (1 - 2nu) <= B (1 + 4nu) for 2nu <= 1/2, and the extra 4u
    covers the two roundings of the product by 1 + 4(n + 1)u.  (The
    relative bounds assume no result is subnormal, below about 2e-308.)
    The sums of all densities come from one `np.take`, laid out with the
    columns in the middle axis so that each is summed in column order, bit
    for bit as `totals[:, row].sum(axis=2)` sums (a sum along a contiguous
    last axis would be numpy's unrolled pairwise sum, another order).
    """
    n = row.shape[1]
    sums = np.take(totals, row.T, axis=1).sum(axis=1)
    return sums * w * (1.0 + 4 * (n + 1) * _U)


def _witness(R: float, k, masses, a, b, cts):
    """(R, Q, center) from the masses of the xy-centers k, which hold every
    center of the lattice that can tie with the maximum.  A lone
    near-maximal center is the center at once."""
    q = float(masses.max())
    tie = masses >= q * (1.0 - _TIE_REL)
    if np.count_nonzero(tie) == 1:
        i, l = np.divmod(int(np.argmax(tie)), len(cts))
        return float(R), q, GroupPoint(a[k[i]], b[k[i]], cts[l])
    order = np.argsort(k)  # back to (x, y, t) order
    i, l = np.divmod(np.flatnonzero(tie[order]), len(cts))
    k = k[order][i]
    near = np.stack([a[k], b[k], cts[l]], axis=1)
    j = int(np.argmin(((near - near.mean(axis=0)) ** 2).sum(axis=1)))
    return float(R), q, GroupPoint(*near[j])


# The ball geometries kept by `_window_blocks`, and the most bytes that the
# arrays of a kept block take: 384 KiB, so 3 MiB in all.
_GEOMETRY_CACHE_SIZE = 8
_KEPT_BLOCK_BYTES = 24 * _CHUNK
# (grid, R, stride) -> blocks.  Not an lru_cache: a lattice that streams its
# blocks must not be kept, and an lru_cache keeps every result it returns.
_window_cache = OrderedDict()


def _center_lattice(grid: Grid3, stride: int) -> tuple:
    """The candidate centers of `concentration_profile`, every stride-th
    node along each axis: (ia, ib, a, b, cts), the node columns (ia[k],
    ib[k]) at (a[k], b[k]) in row-major order and the t-centers cts.
    """
    ia = np.arange(0, grid.shape[0], stride)
    ib = np.arange(0, grid.shape[1], stride)
    cts = grid.axis_coords(2)[::stride]
    ia, ib = np.repeat(ia, len(ib)), np.tile(ib, len(ia))
    return ia, ib, grid.axis_coords(0)[ia], grid.axis_coords(1)[ib], cts


def _window_blocks(grid: Grid3, R: float, stride: int):
    """The blocks of `_window_ends` on the lattice `_center_lattice(grid,
    stride)` at radius R.

    The t-centers are read in chunks of `_t_chunk(ntc)`.  A lattice whose
    window ends fit in one block of at most _KEPT_BLOCK_BYTES keeps that
    block, read-only, for the next call with the same (grid, R, stride);
    the last _GEOMETRY_CACHE_SIZE such geometries are kept.  The narrow
    types of `_window_ends` keep a block of _CHUNK (center, column) pairs
    within that size while it has at most 10 chunks of one-byte ends or 5
    of two-byte ends (24 bytes per pair).  A larger lattice streams its
    blocks and keeps nothing, so a call's working set stays that of one
    block.
    """
    key = (grid, R, stride)
    blocks = _window_cache.get(key)
    if blocks is not None:
        _window_cache.move_to_end(key)
        return blocks
    ia, ib, _, _, cts = _center_lattice(grid, stride)
    ends = _window_ends(grid, R, ia, ib, stride, len(cts), _t_chunk(len(cts)))
    first = k, row, hi, lo = next(ends)
    if k.stop < len(ia) or row.nbytes + hi.nbytes + lo.nbytes > _KEPT_BLOCK_BYTES:
        return itertools.chain([first], ends)
    for arr in (row, hi, lo):
        arr.flags.writeable = False
    blocks = _window_cache[key] = ((k, row, hi, lo),)
    if len(_window_cache) > _GEOMETRY_CACHE_SIZE:
        _window_cache.popitem(last=False)
    return blocks


def _lattice_profiles(densities, R_grid) -> list:
    """`concentration_profile` of every density, all on one grid: one list
    of (R, Q, center) per density, in one pass.

    The padded t-cumsums depend on the density only: one array holds a
    plane per density, padded by one chunk of t-centers (`_t_chunk`) and
    built once for all R, and one strided view reads them all.  Per
    radius, each block of `_window_ends` is found once and serves every
    density; `_window_blocks` keeps it for later calls when the lattice
    fits in one block.  Per block, the bounds of every
    (density, center) pair come at once (see `concentration_profile`); one
    gather takes each density's center of largest bound, and a second every
    other pair whose bound reaches its density's running maximum less the
    tie margin.
    """
    for R in R_grid:
        _check_radius(R)
    grid = densities[0].field.grid
    stride = _CENTER_STRIDE
    _, _, a, b, cts = _center_lattice(grid, stride)
    ntc, w = len(cts), grid.cell_volume
    n_c = _t_chunk(ntc)
    csum = _padded_cumsum([d.field.values for d in densities], stride * (n_c - 1))
    rows = _strided_rows(csum, stride, n_c)
    totals = csum[:, :, -1].copy()
    plane = csum.shape[1]  # rows of one density's plane
    profiles = [[] for _ in densities]
    for R in R_grid:
        q_run = np.zeros(len(densities))
        found = []  # per gather: the densities, centers and masses
        for k, row, hi, lo in _window_blocks(grid, float(R), stride):
            bound = _mass_bounds(totals, row, w)
            top = np.zeros(bound.shape, dtype=bool)
            top[np.arange(len(bound)), bound.argmax(axis=1)] = True
            for pick in (top, ~top):  # each density's largest bound first
                pick &= bound >= (q_run * (1.0 - _TIE_REL))[:, None]
                dens, centers = np.nonzero(pick)
                if len(dens):
                    masses = _gather(rows, ntc, row, hi, lo, w, centers, dens * plane)
                    np.maximum.at(q_run, dens, masses.max(axis=1))
                    found.append((dens, centers + k.start, masses))
        dens, centers, masses = (np.concatenate(parts) for parts in zip(*found))
        for i, prof in enumerate(profiles):
            mine = dens == i
            prof.append(_witness(R, centers[mine], masses[mine], a, b, cts))
    return profiles


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
    if not z0.is_finite():
        raise DomainError(f"translation must be finite, got {z0}")
    grid = u.grid
    _, ny, nt = grid.shape
    a, b, c = z0.x, z0.y, z0.t
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
    if not 0.0 < lam < math.inf:  # NaN fails it too
        raise DomainError(f"dilation factor lam must be finite and positive, got {lam}")
    _check_lq_exponent(q)
    xs, ys, ts = (u.grid.axis_coords(i) for i in range(3))
    mx = _linear_weights(xs, lam * xs)
    my = _linear_weights(ys, lam * ys)
    mt = _linear_weights(ts, lam * lam * ts)
    vals = (mx @ u.values.reshape(len(xs), -1)).reshape(u.grid.shape)
    vals = (my @ vals) @ mt.T
    return ScalarField(u.grid, lam ** (_Q_HOM / q) * vals, full_mask(u.grid))


# `dilation_normalize`: the tolerance on the half-mass fraction and the
# regula falsi budget of each scale.
_MASS_TOL = 1e-3
_MAX_BISECT = 60


def _half_mass_scale(fraction, what: str, *, step: float = 2.0):
    """The scale x at which a ball fraction reaches 1/2 (+- _MASS_TOL).

    fraction(x) returns (fraction, payload): the fraction grows with x, and
    the payload is None when the field scaled by x holds no mass in the box.
    The search walks from x = 1 towards 1/2, down by dividing by `step` when
    the fraction at 1 exceeds 1/2 and up by multiplying otherwise, at most
    20 moves; the step squares after each move until it reaches 2.  A larger
    scale holds no mass either, so the first move up to a scale without mass
    ends the search: the box cannot hold the field at its half-mass scale.
    A move down to such a scale crosses 1/2 like any other.  Once the walk
    crosses 1/2 at x, the bracket of x and the walk's point before it is
    closed by Illinois regula falsi on log x (Dowell & Jarratt, BIT 11,
    1971), at most _MAX_BISECT steps: the secant between the two ends, the
    fraction of an end kept twice in a row halved, and the midpoint when the
    secant leaves the open bracket.
    Returns (x, fraction(x)) of the first x within tolerance, a walk point
    included; raises AlgorithmError when the walk does not cross 1/2 or the
    search does not converge.
    """
    x, (frac, payload) = 1.0, fraction(1.0)
    down = frac > 0.5
    for _ in range(20):
        if abs(frac - 0.5) <= _MASS_TOL or not (frac > 0.5 if down else frac < 0.5):
            break
        x_prev, g_prev = x, frac - 0.5  # the walk's point before the move
        x = x / step if down else x * step
        frac, payload = fraction(x)
        if payload is None and not down:
            raise AlgorithmError(
                f"could not bracket the {what} in the box: the scaled field "
                f"holds no mass from scale {x:.6g} on, so the box cannot hold "
                "the field at its half-mass scale")
        step = min(step * step, 2.0)
    if abs(frac - 0.5) <= _MASS_TOL:
        return x, (frac, payload)
    if frac > 0.5 if down else frac < 0.5:
        raise AlgorithmError(f"could not bracket the {what} in the box")
    (a, g_a), (b, g_b) = sorted([(math.log(x), frac - 0.5), (math.log(x_prev), g_prev)])
    moved = 0  # +1 when the lower end moved last, -1 when the upper end did
    for _ in range(_MAX_BISECT):
        u = b - g_b * (b - a) / (g_b - g_a)
        if not a < u < b:
            u = 0.5 * (a + b)
        x = math.exp(u)
        frac, payload = fraction(x)
        g = frac - 0.5
        if abs(g) <= _MASS_TOL:
            return x, (frac, payload)
        if g < 0.0:
            a, g_a = u, g
            if moved > 0:
                g_b *= 0.5
            moved = 1
        else:
            b, g_b = u, g
            if moved < 0:
                g_a *= 0.5
            moved = -1
    raise AlgorithmError(f"{what} did not converge")


def dilation_normalize(u: ScalarField, q: float):
    """Rescale and recenter so the best unit gauge ball holds half the mass.

    `_half_mass_scale` finds lam for nu = lam^(Q/q) u o delta_lam at which
    the sup-center unit-ball mass of |nu|^q is 1/2 (+- _MASS_TOL), then a
    group translation moves the maximizing center to the origin, and a
    second search refines the scale s against the origin-centered ball.
    Both searches read one fraction rule, `half_mass`: the measure of the
    `normalize_mass` density of the scaled field, and no mass for an
    all-zero field.  Returns (w, R_m = 1/(lam s)), w the refined field
    scaled to unit L^q mass.
    """
    total = _lq_mass(u, q)
    if abs(total - 1.0) > 1e-6:
        raise DomainError(f"input must satisfy int |u|^q = 1, got {total}")

    def half_mass(field, measure, what, step):
        def fraction(x):
            nu = dilate_field(field, x, q)
            if not nu.values.any():
                return 0.0, None
            frac, payload = measure(normalize_mass(nu, q))
            return frac, (nu, payload)

        return _half_mass_scale(fraction, what, step=step)

    lam, (_, (nu, center)) = half_mass(u, lambda d: concentration(d, 1.0),
                                       "half-mass dilation", 2.0)
    nu = group_translate_field(nu, center)
    if not nu.values.any():
        raise AlgorithmError("mass lost during recentering")

    # The recentering resample perturbs the ball mass, so refine the scale
    # against the origin-centered ball of the actual output field.  That
    # field is already near half mass at s = 1, so the walk starts with a
    # small step.
    origin = GroupPoint(0.0, 0.0, 0.0)
    s, (_, (w, _)) = half_mass(nu, lambda d: (ball_mass(d, 1.0, origin), None),
                               "origin-ball refinement", 2.0 ** (1.0 / 16.0))
    return w.with_values(w.values / _lq_mass(w, q) ** (1.0 / q)), 1.0 / (lam * s)


# ---------------------------------------------------------------------------
# Trichotomy classification
# ---------------------------------------------------------------------------


@dataclass
class TrichotomyResult:
    """`classify_sequence`'s verdict, its profiles and the witness of the rule
    that held."""

    verdict: str  # compactness | vanishing | dichotomy | inconclusive
    eps: float
    profiles: list  # one `concentration_profile` list per density
    witness_centers: list = dc_field(default_factory=list)
    witness_radius: Optional[float] = None
    split_mass: Optional[float] = None

    def as_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "witness_radius": self.witness_radius,
            "split_mass": self.split_mass,
            "eps": self.eps,
            "witness_centers": [
                {"x": c.x, "y": c.y, "t": c.t}
                for c in self.witness_centers
            ],
            "profiles": [[[r, q] for r, q, _ in prof] for prof in self.profiles],
        }


def _second_cluster(density: MassDensity, R: float, z1: GroupPoint):
    """Best ball mass over centers, excluding nodes within B_2R(z1)."""
    grid = density.field.grid
    vals = np.where(_open_ball(grid, z1, 2.0 * R), 0.0, density.field.values)
    trimmed = MassDensity(ScalarField(grid, vals, full_mask(grid)))
    return concentration(trimmed, R)


# The classifier reads the last _TAIL densities of a sequence.
_TAIL = 3


def classify_sequence(densities, eps: float, R_grid) -> TrichotomyResult:
    """Finite-sequence verdict: compactness / vanishing / dichotomy, or
    inconclusive when no rule holds.

    Rules, tried in this order (diverging separation is surrogate on a
    finite sequence: strictly increasing across the last _TAIL elements
    and exceeding 4R):
      vanishing    — every R in R_grid captures < eps of the last density;
      compactness  — some R keeps >= 1 - eps for the whole tail (recentered);
      dichotomy    — some R where the tail mass plateaus at alpha strictly
                     between eps and 1 - eps, with a second separated
                     carrier whose distance to the first diverges.
    R_grid is sorted, and every density's profile has one entry per radius
    given, so entry j of each profile is at the j-th sorted radius.
    """
    if not 0.0 < eps < 0.5:
        raise DomainError(f"eps must lie in (0, 1/2), got {eps}")
    densities = list(densities)
    if len(densities) < _TAIL:
        raise DomainError(f"need at least {_TAIL} densities, got {len(densities)}")
    R_grid = sorted(float(r) for r in R_grid)
    if not R_grid:
        raise DomainError("need at least one probe radius")
    # one pass per grid; the densities of a sequence normally share one
    by_grid = {}
    for i, d in enumerate(densities):
        by_grid.setdefault(d.field.grid, []).append(i)
    profiles = [None] * len(densities)
    for idx in by_grid.values():
        group = _lattice_profiles([densities[i] for i in idx], R_grid)
        for i, prof in zip(idx, group):
            profiles[i] = prof
    tail = profiles[-_TAIL:]

    # Vanishing: no ball of any probe radius retains mass at the end.
    if all(q < eps for _, q, _ in tail[-1]):
        return TrichotomyResult("vanishing", eps, profiles)

    # Compactness: some R keeps nearly all mass for every tail index.
    for j, R in enumerate(R_grid):
        if all(prof[j][1] >= 1.0 - eps for prof in tail):
            return TrichotomyResult("compactness", eps, profiles,
                                    witness_centers=[prof[j][2] for prof in tail],
                                    witness_radius=R)

    # Dichotomy: plateau strictly between eps and 1 - eps plus a second
    # carrier separating from the first.
    for j, R in enumerate(R_grid):
        qs = [prof[j][1] for prof in tail]
        alpha = float(np.mean(qs))
        if not (eps < alpha < 1.0 - eps):
            continue
        if max(qs) - min(qs) > 0.05:
            continue
        seps = []
        for prof, dens in zip(tail, densities[-_TAIL:]):
            z1 = prof[j][2]
            m2, z2 = _second_cluster(dens, R, z1)
            if m2 < eps:
                break
            seps.append(gauge(group_mul(group_inverse(z1), z2)))
        else:
            increasing = all(b > a for a, b in zip(seps[:-1], seps[1:]))
            if increasing and seps[-1] > 4.0 * R:
                return TrichotomyResult("dichotomy", eps, profiles,
                                        witness_centers=[prof[j][2] for prof in tail],
                                        witness_radius=R, split_mass=alpha)

    return TrichotomyResult("inconclusive", eps, profiles)


# ---------------------------------------------------------------------------
# Cutoff energy splitting
# ---------------------------------------------------------------------------


def _cutoff_values(r: float, rho: np.ndarray) -> np.ndarray:
    """The values of `cutoff` at radius r, from the box gauge rho."""
    if not 0.0 < r < math.inf:  # NaN fails it too
        raise DomainError(f"cutoff radius r must be finite and positive, got {r}")
    s = np.clip((2.0 * r - rho) / r, 0.0, 1.0)
    return s * s * (3.0 - 2.0 * s)


def cutoff(r: float, grid: Grid3) -> ScalarField:
    """C^1 smoothstep in the gauge: 1 on B_r, 0 outside B_2r."""
    return ScalarField(grid, _cutoff_values(r, grid.gauge_array()), full_mask(grid))


def energy_split(u: ScalarField, r: float, p: float):
    """Cutoff splitting defect and annulus L^(p+1) mass at radius r.

    Returns (| ||phi u||^2 + ||(1-phi) u||^2 - ||u||^2 |,
             int_{B_2r \\ B_r} |u|^(p+1)).  The exponent p is checked as
    `eval_J` checks it: ConfigurationError outside 1 < p < 3.
    """
    check_exponent(p)
    rho = u.grid.gauge_array()
    if r > float(rho.max()):
        raise DomainError(f"r = {r} exceeds the box gauge radius {rho.max():.3g}")
    phi = _cutoff_values(r, rho)
    inner_part = u.with_values(phi * u.values)
    outer_part = u.with_values((1.0 - phi) * u.values)
    defect = abs(e_norm_sq(inner_part) + e_norm_sq(outer_part) - e_norm_sq(u))
    ann = (rho >= r) & (rho < 2.0 * r)
    annulus_mass = float(_power(np.abs(u.values[ann]), p + 1.0).sum()) * u.grid.cell_volume
    return defect, annulus_mass
