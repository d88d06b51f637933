"""Uniform 3D grids over a box around a gauge ball, with Dirichlet masks.

Fields are sampled at cell centers; the Dirichlet condition of the energy
space is imposed by zero extension: field values are identically zero on
nodes outside the ball mask, and differences see zeros beyond the box
edges.  The horizontal derivatives are forward differences,

    B = [X_h; Y_h],   X_h = D_x + 2y D_t,   Y_h = D_y - 2x D_t,

with D the 1-D forward differences (u[+1] - u) / h.  B is written down
once, as numpy stencil coefficients per grid (`_stencil`): each row of X_h
or Y_h sums c0 u + c1 u[+t] + c2 u[+x or +y] over a node and its forward
neighbours.  `e_norm_sq`, `apply_Xh` and `apply_Yh` apply the stencil to a
field's box array, whose zeros off the mask stand for the missing nodes.
The solvers multiply by B and A thousands of times, where scipy's CSR
product is faster, so the CSR B of a (grid, mask) is assembled from the
same coefficients on first use and cached (`horizontal_gradient`); its
rows are the box nodes and its columns the mask nodes, so a larger mask
only adds columns.  `scipy.sparse` is imported only there, so the field
functions need numpy alone.  Every other discrete object comes from B:

    A = B^T B + I   on the mask nodes,
    ||u||^2 = w (||B v||^2 + ||v||^2),   w the cell volume.

The L^2 gradient of I = ||u||^2 / 2 is A v and the discrete sub-Laplacian
is Delta_h v = v - A v.  The energy and its exact discrete derivative thus
share one matrix, summation by parts is exact on the box, A is exactly
symmetric, and the sub-Laplacian is second-order accurate.

The energy's value is summed as squares, not as w v^T A v.  The entries
of A reach 1/h^2 + (2|y|/h_t)^2, hundreds of times the size of (A v)_i, so
each row's sum cancels and v^T A v carries more rounding noise.  Near
convergence the solvers compare energies that differ in their last
digits, and on the (k, N) = (4, 32) ball they stalled on that noise (an
L^2 line search at |grad| = 1.08e-5, constrained-min at 1.6e-6) where the
squares converge.

Centered first differences were tried first and rejected: their
composition annihilates odd/even oscillations, which decouples the grid
into independent sublattices and lets minimizers concentrate on one of
them with spurious negative lobes.
"""

from __future__ import annotations

import functools
import math
import operator
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import ConfigurationError, DomainError
from .heis_core import GroupPoint, homogeneous_dimension

if TYPE_CHECKING:
    from scipy import sparse

__all__ = [
    "Grid3",
    "ScalarField",
    "build_ball_grid",
    "ball_mask",
    "apply_Xh",
    "apply_Yh",
    "energy_operator",
    "horizontal_gradient",
    "integrate",
    "lq_norm",
    "l2_norm",
    "e_norm",
    "embedding_ratio",
    "inner",
    "zero_extend",
]


@dataclass(frozen=True)
class Grid3:
    """Cell-centered uniform grid: node (i,j,l) sits at corner + (i+1/2)h.

    A grid is a value.  Its shape is stored as three Python ints (a
    fractional count is refused) and its spacing and corner as three Python
    floats, however they were given, so grids of equal numbers compare and
    hash equal: every per-grid cache keys on the grid itself.
    """

    shape: tuple
    spacing: tuple
    corner: tuple

    def __post_init__(self):
        for name, convert, kind in (("shape", operator.index, "integers"),
                                    ("spacing", float, "numbers"), ("corner", float, "numbers")):
            given = getattr(self, name)
            try:
                value = tuple(map(convert, given))
            except (TypeError, ValueError):
                value = ()
            if len(value) != 3:
                raise ConfigurationError(f"a grid's {name} must be 3 {kind}, got {given!r}")
            object.__setattr__(self, name, value)
        if any(n < 8 for n in self.shape):
            raise ConfigurationError(f"need >= 8 nodes per axis, got {self.shape}")
        if not all(0 < h < math.inf for h in self.spacing):
            raise ConfigurationError(f"spacings must be positive and finite, got {self.spacing}")
        if not all(math.isfinite(c) for c in self.corner):
            raise ConfigurationError(f"the corner must be finite, got {self.corner}")

    @property
    def cell_volume(self) -> float:
        hx, hy, ht = self.spacing
        return hx * hy * ht

    def axis_coords(self, axis: int) -> np.ndarray:
        n = self.shape[axis]
        h = self.spacing[axis]
        return self.corner[axis] + (np.arange(n) + 0.5) * h

    def coordinate_arrays(self):
        """Broadcastable (X, Y, T) coordinate arrays."""
        xs = self.axis_coords(0)[:, None, None]
        ys = self.axis_coords(1)[None, :, None]
        ts = self.axis_coords(2)[None, None, :]
        return xs, ys, ts

    def gauge_array(self) -> np.ndarray:
        xs, ys, ts = self.coordinate_arrays()
        r2 = xs * xs + ys * ys
        return (r2 * r2 + ts * ts) ** 0.25

    def node_point(self, idx) -> GroupPoint:
        i, j, l = idx
        return GroupPoint.of(
            float(self.axis_coords(0)[i]),
            float(self.axis_coords(1)[j]),
            float(self.axis_coords(2)[l]),
        )


@dataclass
class ScalarField:
    """Real values on a grid, identically zero outside the boolean mask."""

    grid: Grid3
    values: np.ndarray
    mask: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        self.mask = np.asarray(self.mask, dtype=bool)
        if self.values.shape != self.grid.shape:
            raise ConfigurationError("values shape does not match grid")
        if self.mask.shape != self.grid.shape:
            raise ConfigurationError("mask shape does not match grid")
        if not np.all(np.isfinite(self.values)):
            raise ConfigurationError("field values must be finite")
        # Dirichlet invariant: hard zero outside the mask.
        self.values = np.where(self.mask, self.values, 0.0)

    @classmethod
    def from_interior(cls, grid: Grid3, mask: np.ndarray, v: np.ndarray) -> "ScalarField":
        """Field with the mask-node values v (C order), zero elsewhere."""
        values = np.zeros(grid.shape)
        values[mask] = v
        return cls(grid, values, mask)

    def with_values(self, values: np.ndarray) -> "ScalarField":
        return ScalarField(self.grid, values, self.mask)

    def interior(self) -> np.ndarray:
        """Values on the mask nodes, in C order: the vectors A acts on."""
        return self.values[self.mask]

    def max_node(self):
        idx = np.unravel_index(int(np.argmax(self.values)), self.values.shape)
        return idx, float(self.values[idx])


def build_ball_grid(k: float, nodes_per_axis: int):
    """Grid over [-k,k]^2 x [-k^2,k^2] with interior mask {gauge < k}.

    Every axis has nodes_per_axis nodes, so the t spacing is 2k^2/N = h_x k
    despite the parabolic t extent.  A radius whose grid arithmetic
    overflows or underflows raises ConfigurationError: the spacings, the
    largest r2^2 + t^2 on the grid (about 5 k^4, squared by the gauge) and
    1/h_t^2 (an entry of the operator) must all be finite, normal doubles.
    """
    if k <= 0:
        raise DomainError(f"ball radius must be positive, got {k}")
    if nodes_per_axis < 8:
        raise ConfigurationError(f"need >= 8 nodes per axis, got {nodes_per_axis}")
    hx = 2.0 * k / nodes_per_axis
    ht = 2.0 * k * k / nodes_per_axis
    grid = Grid3(
        shape=(nodes_per_axis,) * 3,
        spacing=(hx, hx, ht),
        corner=(-k, -k, -k * k),
    )
    # Python floats: an overflow gives inf and an underflow 0, with no warning
    xm, ym, tm = (float(np.abs(grid.axis_coords(i)).max()) for i in range(3))
    r2 = xm * xm + ym * ym
    inv_ht = 1.0 / ht
    if not all(sys.float_info.min <= v < math.inf
               for v in (r2 * r2 + tm * tm, inv_ht * inv_ht)):
        raise ConfigurationError(
            f"ball radius {k} is out of range: r^4 + t^2 on its grid or 1/h_t^2 "
            "overflows or underflows"
        )
    return grid, ball_mask(grid, k)


def ball_mask(grid: Grid3, k: float) -> np.ndarray:
    """Boolean mask of nodes strictly inside the gauge ball B_k."""
    return grid.gauge_array() < k


def full_mask(grid: Grid3) -> np.ndarray:
    return np.ones(grid.shape, dtype=bool)


# Grids whose stencil is kept: an entry is a few rows of n_y n_t or n_x floats.
_STENCIL_CACHE_SIZE = 8


@functools.lru_cache(maxsize=_STENCIL_CACHE_SIZE)
def _stencil(grid: Grid3) -> tuple:
    """B's coefficients on grid: (c0, taps) for X_h, then for Y_h.

    Row r of a derivative sums c0 v[r], then c v[r + k] for each tap
    (axis, c) in order, where r + k is r's forward neighbour along the axis
    (k the axis's stride in C order); the taps go by increasing k, so the
    terms come in column order.  A neighbour beyond the box edge is zero.
    Each coefficient broadcasts against the (n_x, n_y n_t) view of the
    box: a row of n_y n_t (it varies with y), a column of n_x (with x) or a
    scalar.  The expressions are those of the sparse sums of the Kronecker
    factors D_x + diag(2y) D_t and D_y - diag(2x) D_t, bit for bit.  The
    arrays are cached and shared by every caller: read them only.
    """
    hx, hy, ht = grid.spacing
    y2 = np.repeat(2.0 * grid.axis_coords(1), grid.shape[2])  # 2y over a plane, C order
    x2 = 2.0 * grid.axis_coords(0)[:, None]  # 2x per plane
    inv_ht = 1.0 / ht
    x_h = (-1.0 / hx + y2 * -inv_ht, ((2, y2 * inv_ht), (0, 1.0 / hx)))
    y_h = (-1.0 / hy - x2 * -inv_ht, ((2, -(x2 * inv_ht)), (1, 1.0 / hy)))
    return x_h, y_h


def _forward_neighbour(a: np.ndarray, axis: int, shape: tuple, out: np.ndarray,
                       edge, scale=1) -> np.ndarray:
    """out[r] = scale * a[r + k], from the entry of node r's forward neighbour
    along axis, and `edge` where that neighbour lies beyond the box (a and
    out flat, in C order over shape)."""
    k = math.prod(shape[axis + 1:])
    np.multiply(a[k:], scale, out=out[:-k])
    out.reshape(-1, shape[axis], k)[:, -1] = edge
    return out


def _gradient_values(u: ScalarField) -> np.ndarray:
    """B v on the box, X_h block first, by the stencil on u's box array.

    The box array is zero off the mask, which stands for B's missing
    columns.  Each row sums its terms in column order, as the CSR product
    does, so the result equals B @ v (a zero sum may come out as -0.0).
    """
    shape = u.grid.shape
    v = u.values.reshape(-1)
    rows = (shape[0], v.size // shape[0])
    g = np.empty((2,) + rows)
    s = np.empty(rows)
    for out, (c0, taps) in zip(g, _stencil(u.grid)):
        np.multiply(v.reshape(rows), c0, out=out)
        for axis, c in taps:
            if np.ndim(c):  # a row or a column scales in the box view
                _forward_neighbour(v, axis, shape, s.reshape(-1), 0.0)
                s *= c
            else:
                _forward_neighbour(v, axis, shape, s.reshape(-1), 0.0, c)
            out += s
    return g.reshape(-1)


# Most recently used last.  Bounded because each nested ball mask of
# `exhaust_domains` at 48^3 carries B and A, about 15 MB together.
_OPERATOR_CACHE_SIZE = 3
_operator_cache = []  # [(copy of the mask, grid, [B, A])]


def _operators(grid: Grid3, mask: np.ndarray) -> list:
    """The cache entry [B, A] of one (grid, mask); A is None until asked for.

    Entries are keyed by the grid and a copy of the mask's contents, so a
    mask edited in place gets fresh operators and an equal mask in another
    array reuses the cached ones.
    """
    for k, (contents, g, ops) in enumerate(_operator_cache):
        if g == grid and np.array_equal(contents, mask):
            _operator_cache.append(_operator_cache.pop(k))
            return ops
    ops = [_assemble_gradient(grid, mask), None]
    _operator_cache.append((mask.copy(), grid, ops))
    del _operator_cache[:-_OPERATOR_CACHE_SIZE]
    return ops


def horizontal_gradient(grid: Grid3, mask: np.ndarray) -> sparse.csr_array:
    """B = [X_h; Y_h]: mask-node values in C order to both derivatives on
    every box node (X_h rows first), cached per (grid, mask)."""
    return _operators(grid, mask)[0]


def energy_operator(grid: Grid3, mask: np.ndarray) -> sparse.csr_array:
    """A = B^T B + I on the mask nodes, cached per (grid, mask).

    Rows and columns follow the mask nodes in C order, the order of
    `u.values[u.mask]`.  Built on first use: the energy's value needs only B.
    """
    ops = _operators(grid, mask)
    if ops[1] is None:
        from scipy import sparse

        B = ops[0]
        ops[1] = (B.T @ B + sparse.eye_array(B.shape[1])).tocsr()
    return ops[1]


def _assemble_gradient(grid: Grid3, mask: np.ndarray) -> sparse.csr_array:
    """B as a CSR matrix from the stencil's coefficients.

    Row r of a derivative holds c0 at column r and each tap's coefficient
    at the column of r's neighbour, in that order.  A term whose node is off
    the mask or beyond the box, or whose coefficient is 0, is no entry, as
    in the sparse sums of the Kronecker factors.
    """
    from scipy import sparse

    shape = grid.shape
    n = mask.size
    rows = (shape[0], n // shape[0])
    inside = mask.reshape(-1)
    m = np.count_nonzero(inside)
    # 32-bit indices whenever the entries and the shape fit, as scipy chooses
    index = np.int32 if 6 * n <= np.iinfo(np.int32).max else np.intp
    col = np.full(n, -1, dtype=index)  # the column of each box node, -1 off the mask
    col[inside] = np.arange(m)
    cols, data = [], []
    for c0, taps in _stencil(grid):
        cols.append(np.stack([col, *(_forward_neighbour(col, axis, shape, np.empty_like(col), -1)
                                     for axis, _ in taps)], axis=1))
        data.append(np.stack([np.broadcast_to(c, rows).reshape(-1)
                              for c in (c0, *(c for _, c in taps))], axis=1))
    cols, data = np.concatenate(cols), np.concatenate(data)
    keep = (cols >= 0) & (data != 0.0)
    indptr = np.zeros(2 * n + 1, dtype=index)
    np.cumsum(np.count_nonzero(keep, axis=1), out=indptr[1:])
    return sparse.csr_array((data[keep], cols[keep], indptr), shape=(2 * n, m))


def _sum_squares(g: np.ndarray, v: np.ndarray, w: float) -> float:
    """w (||g||^2 + ||v||^2) for g = B v, summed as squares (see the module
    docstring); g is overwritten.

    The squares are summed pairwise by `np.sum`, not by a BLAS dot, whose
    sum carried four times the rounding noise of J near the desk ground state.
    """
    g *= g
    return (float(g.sum()) + float(np.sum(v * v))) * w


def _energy_norm_sq(B: sparse.csr_array, v: np.ndarray, w: float) -> float:
    """w (||B v||^2 + ||v||^2) of the mask-node vector v, by the CSR B."""
    return _sum_squares(B @ v, v, w)


def _box_rows(u: ScalarField, block: int) -> ScalarField:
    n = u.values.size
    # + 0.0 makes a zero sum +0.0, as the CSR product's sums are
    g = _gradient_values(u)[block * n:(block + 1) * n] + 0.0
    return ScalarField(u.grid, g.reshape(u.grid.shape), full_mask(u.grid))


def apply_Xh(u: ScalarField) -> ScalarField:
    """X_h u = D_x u + 2 y D_t u, forward differences, on the whole box."""
    return _box_rows(u, 0)


def apply_Yh(u: ScalarField) -> ScalarField:
    """Y_h u = D_y u - 2 x D_t u, forward differences, on the whole box."""
    return _box_rows(u, 1)


def sublaplacian_values(u: ScalarField) -> np.ndarray:
    """Delta_h u = v - A v on the mask nodes, zero elsewhere, as a box array."""
    v = u.interior()
    out = np.zeros(u.grid.shape)
    out[u.mask] = v - energy_operator(u.grid, u.mask) @ v
    return out


def integrate(u: ScalarField) -> float:
    """Midpoint rule: cell volume times the sum over (masked-in) nodes."""
    return float(u.values.sum()) * u.grid.cell_volume


def _check_lq_exponent(q: float) -> None:
    """The exponent of an L^q mass or norm is a finite q >= 1 (not NaN)."""
    if not 1.0 <= q < math.inf:
        raise DomainError(f"L^q exponent q must be finite and >= 1, got {q}")


def _power(a: np.ndarray, q: float) -> np.ndarray:
    """a^q of an array a >= 0, as a new array: (a a) a at q = 3, numpy's
    general power at every other q.

    The two products are within 2 ulps of the general power (each rounds
    by half an ulp) and several times faster, the most on fields that are
    mostly zeros.
    """
    if q == 3.0:
        cube = a * a
        cube *= a
        return cube
    return a**q


def _lq_mass(u: ScalarField, q: float) -> float:
    """Midpoint-rule int |u|^q, the powers by `_power`."""
    return float(_power(np.abs(u.values), q).sum()) * u.grid.cell_volume


def lq_norm(u: ScalarField, q: float) -> float:
    """Midpoint-rule L^q norm (int |u|^q)^(1/q), for a finite q >= 1."""
    _check_lq_exponent(q)
    if q == 2.0:
        s = float(np.dot(u.values.ravel(), u.values.ravel()))
        return (s * u.grid.cell_volume) ** 0.5
    return _lq_mass(u, q) ** (1.0 / q)


def l2_norm(u: ScalarField) -> float:
    """Midpoint-rule L^2 norm, `lq_norm` at q = 2."""
    return lq_norm(u, 2.0)


def inner(u: ScalarField, v: ScalarField) -> float:
    """Discrete L^2 inner product (shared grid assumed)."""
    return float(np.dot(u.values.ravel(), v.values.ravel())) * u.grid.cell_volume


def e_norm(u: ScalarField) -> float:
    """Energy norm: (||X_h u||_2^2 + ||Y_h u||_2^2 + ||u||_2^2)^(1/2)."""
    return e_norm_sq(u) ** 0.5


def e_norm_sq(u: ScalarField) -> float:
    """||X_h u||^2 + ||Y_h u||^2 + ||u||^2, by the stencil.

    ||u||^2 sums over the box array, so zero extension keeps it bit for bit.
    """
    return _sum_squares(_gradient_values(u), u.values.reshape(-1), u.grid.cell_volume)


def embedding_ratio(u: ScalarField, q: float) -> float:
    """||u||_{L^q} / ||u|| for 1 < q <= 2Q/(Q-2)."""
    q_hom = homogeneous_dimension(1)
    q_max = 2 * q_hom / (q_hom - 2)
    if not 1 < q <= q_max:
        raise DomainError(f"q must lie in (1, {q_max}], got {q}")
    en = e_norm(u)
    if en == 0.0:
        raise DomainError("embedding ratio undefined for the zero field")
    return lq_norm(u, q) / en


def zero_extend(u: ScalarField, new_mask: np.ndarray) -> ScalarField:
    """Reinterpret u on a larger mask of the same grid (values unchanged)."""
    new_mask = np.asarray(new_mask, dtype=bool)
    if not np.all(new_mask | ~u.mask):
        raise DomainError("new mask must contain the field's mask")
    return ScalarField(u.grid, u.values, new_mask)
