"""Uniform 3D grids over a box around a gauge ball, with Dirichlet masks.

Fields are sampled at cell centers; the Dirichlet condition of the energy
space is imposed by zero extension: field values are identically zero on
nodes outside the ball mask, and differences see zeros beyond the box
edges.  The horizontal derivatives X_h, Y_h are forward differences, and
every derivative of the energy goes through one assembled operator

    A = X_h^T X_h + Y_h^T Y_h + I   on the mask nodes,

an 11-point CSR matrix built once per (grid, mask) and cached.  With v the
field's mask values and w the cell volume, the energy norm is w v^T A v,
the L^2 gradient of I = ||u||^2 / 2 is A v, and the discrete sub-Laplacian
is Delta_h v = v - A v.  The energy and its exact discrete derivative thus
share one matrix, summation by parts is exact on the box, A is exactly
symmetric, and the sub-Laplacian is second-order accurate.

The energy's value, though, is summed as squares of the forward
differences, not as w v^T A v.  The entries of A reach 1/h^2 + (2|y|/h_t)^2,
hundreds of times the size of (A v)_i, so each row's sum cancels and
v^T A v carries more rounding noise.  Near convergence the line searches
compare energies that differ in their last digits, and on the
(k, N) = (4, 32) ball they stalled on that noise (mountain-pass at
|grad| = 1.08e-5, constrained-min at 1.6e-6) where the squares converge.

Centered first differences were tried first and rejected: their
composition annihilates odd/even oscillations, which decouples the grid
into independent sublattices and lets minimizers concentrate on one of
them with spurious negative lobes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from .errors import ConfigurationError, DomainError
from .heis_core import GroupPoint, critical_exponent, homogeneous_dimension

__all__ = [
    "Grid3",
    "ScalarField",
    "build_ball_grid",
    "ball_mask",
    "apply_Xh",
    "apply_Yh",
    "apply_sublaplacian_h",
    "energy_operator",
    "e_norm_sq_values",
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
        if any(h <= 0 for h in self.spacing):
            raise ConfigurationError(f"spacings must be positive, got {self.spacing}")

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

    def max_point(self) -> GroupPoint:
        idx, _ = self.max_node()
        return self.grid.node_point(idx)


def build_ball_grid(k: float, nodes_per_axis: int, t_spacing: float = None):
    """Grid over [-k,k]^2 x [-k^2,k^2] with interior mask {gauge < k}.

    The t spacing defaults to h_x * k, which keeps all three node counts
    equal despite the parabolic t extent.
    """
    if k <= 0:
        raise DomainError(f"ball radius must be positive, got {k}")
    if nodes_per_axis < 8:
        raise ConfigurationError(f"need >= 8 nodes per axis, got {nodes_per_axis}")
    hx = 2.0 * k / nodes_per_axis
    ht = hx * k if t_spacing is None else t_spacing
    nt = max(8, int(round(2.0 * k * k / ht)))
    ht = 2.0 * k * k / nt
    grid = Grid3(
        shape=(nodes_per_axis, nodes_per_axis, nt),
        spacing=(hx, hx, ht),
        corner=(-k, -k, -k * k),
    )
    return grid, ball_mask(grid, k)


def ball_mask(grid: Grid3, k: float) -> np.ndarray:
    """Boolean mask of nodes strictly inside the gauge ball B_k."""
    return grid.gauge_array() < k


def full_mask(grid: Grid3) -> np.ndarray:
    return np.ones(grid.shape, dtype=bool)


# Most recently used last.  Bounded because each nested ball mask of
# `exhaust_domains` at 48^3 carries an operator of about 9 MB.
_OPERATOR_CACHE_SIZE = 3
_operator_cache = []  # [(mask object, copy of its contents, grid, A)]


def energy_operator(grid: Grid3, mask: np.ndarray) -> sparse.csr_array:
    """A = X_h^T X_h + Y_h^T Y_h + I on the mask nodes, cached per (grid, mask).

    Rows and columns follow the mask nodes in C order, the order of
    `u.values[u.mask]`.  A lookup finds the entry by the mask object, which
    `ScalarField.with_values` shares, and then confirms the grid and the
    mask's contents, so a mask edited in place gets a fresh operator and an
    equal mask in another array reuses the cached one.
    """
    for k, (key, contents, g, op) in enumerate(_operator_cache):
        if key is mask and g == grid and np.array_equal(contents, mask):
            _operator_cache.append(_operator_cache.pop(k))
            return op
    op = next(
        (op for _, contents, g, op in _operator_cache
         if g == grid and np.array_equal(contents, mask)),
        None,
    )
    if op is None:
        op = _assemble_energy_operator(grid, mask)
    _operator_cache.append((mask, mask.copy(), grid, op))
    del _operator_cache[:-_OPERATOR_CACHE_SIZE]
    return op


def _assemble_energy_operator(grid: Grid3, mask: np.ndarray) -> sparse.csr_array:
    """Write the 11-point stencil of A straight into CSR arrays.

    X_h u = a_x (u[+x] - u) + b (u[+t] - u) with a_x = 1/h_x, b = 2y/h_t, and
    Y_h u = a_y (u[+y] - u) + c (u[+t] - u) with a_y = 1/h_y, c = -2x/h_t.
    Summing the squares over every box node gives the entries below.  An
    entry's coefficients depend only on coordinates its two nodes share,
    so A is exactly symmetric.
    """
    hx, hy, ht = grid.spacing
    node = np.flatnonzero(mask)
    i, j, l = np.unravel_index(node, grid.shape)
    ax, ay = 1.0 / hx, 1.0 / hy
    b = 2.0 * grid.axis_coords(1)[j] / ht
    c = -2.0 * grid.axis_coords(0)[i] / ht
    along_x = -ax * (ax + b)
    along_y = -ay * (ay + c)
    along_t = -b * (ax + b) - c * (ay + c)
    diag = (
        (ax + b) ** 2 + (ay + c) ** 2 + 1.0
        + ax * ax * (i > 0) + ay * ay * (j > 0) + (b * b + c * c) * (l > 0)
    )
    # (offset, value) in increasing column order, so each CSR row is sorted.
    stencil = [
        ((-1, 0, 0), along_x), ((-1, 0, 1), ax * b),
        ((0, -1, 0), along_y), ((0, -1, 1), ay * c),
        ((0, 0, -1), along_t), ((0, 0, 0), diag), ((0, 0, 1), along_t),
        ((0, 1, -1), ay * c), ((0, 1, 0), along_y),
        ((1, 0, -1), ax * b), ((1, 0, 0), along_x),
    ]
    # Node numbers on a box padded by one layer of -1: a neighbor off the
    # mask or beyond the box edge reads -1.
    number = np.full(tuple(n + 2 for n in grid.shape), -1, dtype=np.int32)
    number[1:-1, 1:-1, 1:-1][mask] = np.arange(node.size, dtype=np.int32)
    cols = np.stack(
        [number[i + 1 + di, j + 1 + dj, l + 1 + dl] for (di, dj, dl), _ in stencil]
    )
    present = cols >= 0
    indptr = np.zeros(node.size + 1, dtype=np.int32)
    np.cumsum(present.sum(axis=0), out=indptr[1:])
    # Fill the CSR arrays in place, offset by offset: `slot` is each row's
    # next free position.
    data = np.empty(indptr[-1])
    indices = np.empty(indptr[-1], dtype=np.int32)
    slot = indptr[:-1].copy()
    for k, (_, value) in enumerate(stencil):
        rows = present[k]
        at = slot[rows]
        indices[at] = cols[k, rows]
        data[at] = value[rows]
        slot += rows
    return sparse.csr_array((data, indices, indptr), shape=(node.size, node.size))


def _forward_diff(values: np.ndarray, axis: int, h: float) -> np.ndarray:
    """(u[+1] - u) / h along one axis, with u = 0 beyond the box edge.

    One contiguous pass over the flattened box at the axis's C-order
    stride; the wrapped differences land on the last layer, which is then
    overwritten with -u.
    """
    out = np.empty(values.shape)
    stride = math.prod(values.shape[axis + 1:])
    flat = np.ravel(values)
    np.subtract(flat[stride:], flat[:-stride], out=out.reshape(-1)[:-stride])
    last = (slice(None),) * axis + (-1,)
    np.negative(values[last], out=out[last])
    out /= h
    return out


def _horizontal_derivatives(grid: Grid3, values: np.ndarray):
    """(X_h u, Y_h u) by forward differences, zero beyond the box edges."""
    xs, ys, _ = grid.coordinate_arrays()
    dx, dy, dt = (_forward_diff(values, a, h) for a, h in enumerate(grid.spacing))
    dx += 2.0 * ys * dt
    dy -= 2.0 * xs * dt
    return dx, dy


def apply_Xh(u: ScalarField) -> ScalarField:
    """X_h u = D_x u + 2 y D_t u, forward differences, on the whole box."""
    gx, _ = _horizontal_derivatives(u.grid, u.values)
    return ScalarField(u.grid, gx, full_mask(u.grid))


def apply_Yh(u: ScalarField) -> ScalarField:
    """Y_h u = D_y u - 2 x D_t u, forward differences, on the whole box."""
    _, gy = _horizontal_derivatives(u.grid, u.values)
    return ScalarField(u.grid, gy, full_mask(u.grid))


def sublaplacian_values(u: ScalarField) -> np.ndarray:
    """Delta_h u = v - A v on the mask nodes, zero elsewhere, as a box array."""
    v = u.interior()
    out = np.zeros(u.grid.shape)
    out[u.mask] = v - energy_operator(u.grid, u.mask) @ v
    return out


def apply_sublaplacian_h(u: ScalarField) -> ScalarField:
    return ScalarField(u.grid, sublaplacian_values(u), full_mask(u.grid))


def integrate(u: ScalarField) -> float:
    """Midpoint rule: cell volume times the sum over (masked-in) nodes."""
    return float(u.values.sum()) * u.grid.cell_volume


def lq_norm(u: ScalarField, q: float) -> float:
    if q < 1:
        raise DomainError(f"L^q norm needs q >= 1, got {q}")
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
    """||X_h u||^2 + ||Y_h u||^2 + ||u||^2 (= w v^T A v)."""
    return e_norm_sq_values(u.grid, u.values)


def e_norm_sq_values(grid: Grid3, values: np.ndarray) -> float:
    """e_norm_sq of a box array that is zero off its mask, without a field.

    Summed as squares over the whole box (see the module docstring), so
    extending a field by zero to a larger mask leaves it bit-identical.
    """
    gx, gy = _horizontal_derivatives(grid, values)
    flat = values.ravel()
    return (
        float(np.dot(gx.ravel(), gx.ravel()))
        + float(np.dot(gy.ravel(), gy.ravel()))
        + float(np.dot(flat, flat))
    ) * grid.cell_volume


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
