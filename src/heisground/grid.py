"""Uniform 3D grids over a box around a gauge ball, with Dirichlet masks.

Fields are sampled at cell centers; the Dirichlet condition of the energy
space is imposed by zero extension: field values are identically zero on
nodes outside the ball mask, and differences see zeros beyond the box
edges.  The horizontal derivatives are forward differences, written down
once, as one sparse matrix per (grid, mask):

    B = [X_h; Y_h],   X_h = D_x + 2y D_t,   Y_h = D_y - 2x D_t,

with D the 1-D forward differences (u[+1] - u) / h put together by
Kronecker products.  B takes the field's mask values v (C order) to both
derivatives on every box node, so a larger mask only adds columns.  Every
other discrete object comes from B, cached beside it:

    A = B^T B + I   on the mask nodes,
    ||u||^2 = w (||B v||^2 + ||v||^2),   w the cell volume.

The L^2 gradient of I = ||u||^2 / 2 is A v and the discrete sub-Laplacian
is Delta_h v = v - A v.  The energy and its exact discrete derivative thus
share one matrix, summation by parts is exact on the box, A is exactly
symmetric, and the sub-Laplacian is second-order accurate.

The energy's value is summed as squares, not as w v^T A v.  The entries
of A reach 1/h^2 + (2|y|/h_t)^2, hundreds of times the size of (A v)_i, so
each row's sum cancels and v^T A v carries more rounding noise.  Near
convergence the line searches compare energies that differ in their last
digits, and on the (k, N) = (4, 32) ball they stalled on that noise
(mountain-pass at |grad| = 1.08e-5, constrained-min at 1.6e-6) where the
squares converge.

Centered first differences were tried first and rejected: their
composition annihilates odd/even oscillations, which decouples the grid
into independent sublattices and lets minimizers concentrate on one of
them with spurious negative lobes.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .errors import ConfigurationError, DomainError
from .heis_core import GroupPoint, homogeneous_dimension

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
    """Cell-centered uniform grid: node (i,j,l) sits at corner + (i+1/2)h."""

    shape: tuple
    spacing: tuple
    corner: tuple

    def __post_init__(self):
        if any(n < 8 for n in self.shape):
            raise ConfigurationError(f"need >= 8 nodes per axis, got {self.shape}")
        if not all(0 < h < math.inf for h in self.spacing):
            raise ConfigurationError(
                f"spacings must be positive and finite, got {self.spacing}"
            )

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
        if self.values.shape != tuple(self.grid.shape):
            raise ConfigurationError("values shape does not match grid")
        if self.mask.shape != tuple(self.grid.shape):
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
        B = ops[0]
        ops[1] = (B.T @ B + sparse.eye_array(B.shape[1])).tocsr()
    return ops[1]


def _assemble_gradient(grid: Grid3, mask: np.ndarray) -> sparse.csr_array:
    """X_h = D_x + 2y D_t and Y_h = D_y - 2x D_t from 1-D forward differences
    (u[+1] - u) / h, with u = 0 beyond the box edge.

    Each Kronecker factor keeps only the mask columns before the sums, which
    halves the assembly's peak memory against slicing the finished B.
    """
    (nx, ny, nt), (hx, hy, ht) = grid.shape, grid.spacing
    cols = np.flatnonzero(mask)

    def diff(before: int, n: int, h: float, after: int):
        d = sparse.diags_array([np.full(n, -1.0 / h), np.full(n - 1, 1.0 / h)],
                               offsets=[0, 1])
        return sparse.kron(sparse.kron(sparse.eye_array(before), d),
                           sparse.eye_array(after), format="csr")[:, cols]

    xs, ys, _ = grid.coordinate_arrays()
    dt = diff(nx * ny, nt, ht, 1)
    gx = diff(1, nx, hx, ny * nt) + sparse.diags_array(
        np.broadcast_to(2.0 * ys, grid.shape).ravel()) @ dt
    gy = diff(nx, ny, hy, nt) - sparse.diags_array(
        np.broadcast_to(2.0 * xs, grid.shape).ravel()) @ dt
    B = sparse.vstack([gx, gy], format="csr")
    B.sort_indices()  # rows sum in column order, whatever the mask
    return B


def _energy_norm_sq(B: sparse.csr_array, v: np.ndarray, w: float) -> float:
    """w (||B v||^2 + ||v||^2), summed as squares (see the module docstring).

    The squares are summed pairwise by `np.sum`, not by a BLAS dot: along a
    descent line near the desk ball's mountain-pass point the ray maximum
    of J then carries a quarter of the rounding noise, which keeps the L^2
    ray descent's floor below its default tolerance.
    """
    g = B @ v
    g *= g
    return (float(g.sum()) + float(np.sum(v * v))) * w


def _box_rows(u: ScalarField, block: int) -> ScalarField:
    n = u.values.size
    g = horizontal_gradient(u.grid, u.mask) @ u.interior()
    return ScalarField(u.grid, g[block * n:(block + 1) * n].reshape(u.grid.shape),
                       full_mask(u.grid))


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


def lq_norm(u: ScalarField, q: float) -> float:
    if not 1 <= q < math.inf:
        raise DomainError(f"L^q norm needs a finite q >= 1, got {q}")
    if q == 2.0:
        s = float(np.dot(u.values.ravel(), u.values.ravel()))
        return (s * u.grid.cell_volume) ** 0.5
    if q == 1.0:
        s = float(np.abs(u.values).sum())
    else:
        s = float((np.abs(u.values) ** q).sum())
    return (s * u.grid.cell_volume) ** (1.0 / q)


def l2_norm(u: ScalarField) -> float:
    return lq_norm(u, 2.0)


def inner(u: ScalarField, v: ScalarField) -> float:
    """Discrete L^2 inner product (shared grid assumed)."""
    return float(np.dot(u.values.ravel(), v.values.ravel())) * u.grid.cell_volume


def e_norm(u: ScalarField) -> float:
    """Energy norm: (||X_h u||_2^2 + ||Y_h u||_2^2 + ||u||_2^2)^(1/2)."""
    return e_norm_sq(u) ** 0.5


def e_norm_sq(u: ScalarField) -> float:
    """||X_h u||^2 + ||Y_h u||^2 + ||u||^2."""
    return _energy_norm_sq(horizontal_gradient(u.grid, u.mask), u.interior(),
                           u.grid.cell_volume)


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
