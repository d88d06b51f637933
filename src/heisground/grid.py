"""Uniform 3D grids over a box around a gauge ball, with Dirichlet masks.

Fields are sampled at cell centers; the Dirichlet condition of the energy
space is imposed by zero extension: field values are identically zero on
nodes outside the ball mask, and differences see zeros beyond the box
edges.  The horizontal derivatives are forward differences,

    B = [X_h; Y_h],   X_h = D_x + 2y D_t,   Y_h = D_y - 2x D_t,

with D the 1-D forward differences (u[+1] - u) / h.  B is stated once,
as its taps per grid (`_stencil`): each row of X_h or Y_h sums c u[+offset]
over the taps (offset, c), a node and its forward neighbours along t and
along x or y.  Nothing else in the module writes an offset or a
coefficient of B; the rest is read from the taps.  `e_norm_sq` applies
them to a field's box array (`_gradient_values`), whose zeros off the mask
stand for the missing nodes, and so does the solvers' energy norm
(`_box_norm_sq`).  Every other discrete object comes from B:

    A = B^T B + I   on the mask nodes,
    ||u||^2 = w (||B v||^2 + ||v||^2),   w the cell volume.

The L^2 gradient of I = ||u||^2 / 2 is A v and the discrete sub-Laplacian
is Delta_h v = v - A v.  The energy and its exact discrete derivative thus
share one matrix, summation by parts is exact on the box, A is exactly
symmetric, and the sub-Laplacian is second-order accurate.

A is applied and never stored.  The solvers multiply by it thousands of
times, in a multicolour order of the mask nodes that their one
preconditioner, a symmetric Gauss-Seidel sweep, needs; the colouring and
its colour count are worked out from the taps' coupling offsets
(`_node_colours`), three colours for forward B.  So the
package keeps, for the one (grid, mask) asked for last (`_last_operator`),
only that order, diag(A) and L, the strictly lower part of A in that
order: no flow goes back to an earlier domain, and `exhaust_domains`
solves its nested balls one after another.  `_ColourOrder` owns the
colour order: it applies A as D v + L v + L^T v, sweeps, and holds the
package's only translations of a vector, between a field's box array and
the colour order (`colour`, `box`), which the solvers and the field
functions go through.  No other module reads its layout.  Each
off-diagonal entry of A, at offset b - a, sums the products c_a c_b of
two taps of a row, and each diagonal entry the squares of the taps that
reach the node, so L and diag(A) are read from the taps on first use
(`_assemble`), bit for bit as scipy's sparse product B^T B would give
them, with no B and no sparse product.
`scipy.sparse` is imported only there, so the field functions need numpy
alone.

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

import itertools
import math
import operator
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .errors import ConfigurationError, DomainError
from .heis_core import GroupPoint, _real

if TYPE_CHECKING:
    from scipy import sparse

__all__ = [
    "Grid3",
    "ScalarField",
    "build_ball_grid",
    "ball_mask",
    "lq_norm",
    "l2_norm",
    "e_norm",
    "inner",
    "zero_extend",
]


@dataclass(frozen=True)
class Grid3:
    """Cell-centered uniform grid: node (i,j,l) sits at corner + (i+1/2)h.

    A grid is a value.  Its shape is stored as three Python ints (a
    fractional count is refused) and its spacing and corner as three Python
    floats, however they were given, so grids of equal numbers compare and
    hash equal: every per-grid cache keys on the grid itself.  A string or
    a bool is no number here, and a grid beyond the range rule of
    `__post_init__`, the package's one copy of it, raises ConfigurationError.
    """

    shape: tuple
    spacing: tuple
    corner: tuple

    def __post_init__(self):
        for name, convert, kind in (("shape", operator.index, "integers"),
                                    ("spacing", float, "numbers"), ("corner", float, "numbers")):
            given = getattr(self, name)
            try:
                value = tuple(convert(_real(x)) for x in given)
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
        # The range rule, in Python floats (inf on overflow, 0 on underflow,
        # no warning): the largest r2^2 + t^2 over the nodes, which the gauge
        # squares, 1/h_t^2, an entry of the operator, and the cell volume w
        # are finite, normal doubles.  A density of unit mass sums to 1/w,
        # which a subnormal w overflows.  An axis is extreme at its end
        # nodes: corner + (i + 1/2) h rounds monotonically in i.
        try:
            xm, ym, tm = (max(abs(c + 0.5 * h), abs(c + (n - 0.5) * h))
                          for n, h, c in zip(self.shape, self.spacing, self.corner))
        except OverflowError:  # a node count beyond the largest double
            xm = ym = tm = math.inf
        r2 = xm * xm + ym * ym
        inv_ht = 1.0 / self.spacing[2]
        if not all(sys.float_info.min <= v < math.inf
                   for v in (r2 * r2 + tm * tm, inv_ht * inv_ht, self.cell_volume)):
            raise ConfigurationError(
                f"grid of spacing {self.spacing} and corner {self.corner} is out of range: "
                "r^4 + t^2 on it, 1/h_t^2 or its cell volume overflows or underflows")

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
        """rho(w) at every node w: `_gauge_dist_sq4` about the origin."""
        return _gauge_dist_sq4(self, GroupPoint(0.0, 0.0, 0.0)) ** 0.25

    def node_point(self, idx) -> GroupPoint:
        i, j, l = idx
        return GroupPoint(self.axis_coords(0)[i], self.axis_coords(1)[j], self.axis_coords(2)[l])


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

    def with_values(self, values: np.ndarray) -> "ScalarField":
        return ScalarField(self.grid, values, self.mask)

    def max_node(self):
        idx = np.unravel_index(int(np.argmax(self.values)), self.values.shape)
        return idx, float(self.values[idx])


def _gauge_dist_sq4(grid: Grid3, center: GroupPoint) -> np.ndarray:
    """rho(center^-1 w)^4 at every node w, by the group law: with center =
    (a, b, c), (x - a, y - b, t - c - 2 b x + 2 a y) is center^-1 w."""
    a, b, c = center.x, center.y, center.t
    xs, ys, ts = grid.coordinate_arrays()
    dx = xs - a
    dy = ys - b
    dt = ts - c - 2.0 * b * xs + 2.0 * a * ys
    r2 = dx * dx + dy * dy
    # In place: `gauge_array` at (4, 32) peaked at 852 KB of arrays without
    # it, and at 512 KB with it.
    dt *= dt
    dt += r2 * r2
    return dt


def build_ball_grid(k: float, nodes_per_axis: int):
    """Grid over [-k,k]^2 x [-k^2,k^2] with interior mask {gauge < k}.

    Every axis has nodes_per_axis nodes, so the t spacing is 2k^2/N = h_x k
    despite the parabolic t extent.  A count or a radius whose grid `Grid3`
    refuses (too few nodes, or arithmetic that overflows or underflows)
    raises ConfigurationError.
    """
    if k <= 0:
        raise DomainError(f"ball radius must be positive, got {k}")
    n = nodes_per_axis or math.nan  # no 1/0: `Grid3` refuses the count 0 itself
    hx = 2.0 * k / n
    grid = Grid3(
        shape=(nodes_per_axis,) * 3,
        spacing=(hx, hx, 2.0 * k * k / n),
        corner=(-k, -k, -k * k),
    )
    return grid, ball_mask(grid, k)


def ball_mask(grid: Grid3, k: float) -> np.ndarray:
    """Boolean mask of nodes strictly inside the gauge ball B_k."""
    return grid.gauge_array() < k


def full_mask(grid: Grid3) -> np.ndarray:
    return np.ones(grid.shape, dtype=bool)


def _stencil(grid: Grid3) -> tuple:
    """B on grid, as its taps: X_h's, then Y_h's.

    A row r of a derivative sums c v[r + offset] over its taps (offset, c),
    where r is a box node, offset a step (dx, dy, dt) from r, the first
    tap's (0, 0, 0), and a node beyond the box is zero.  The taps go
    (0, 0, 0), (0, 0, 1), then (1, 0, 0) for X_h or (0, 1, 0) for Y_h, so
    the terms come in column order.  Each c is a
    scalar or an array that broadcasts to (n_x, n_y, 1): B's coefficients
    do not vary along t.  The expressions are those of the sparse sums of
    the Kronecker factors D_x + diag(2y) D_t and D_y - diag(2x) D_t, bit
    for bit.

    This is the one statement of B: the gradient and its row count
    (`_gradient_values`), diag(A) and A's couplings (`_assemble`), and the
    colouring of A's nodes and its colour count (`_node_colours`) are read
    from the taps.  They hold for any taps that keep three premises:
    - every offset steps 0 or 1 along each axis, so a term is the box
      shifted forward and a coupling reaches one layer beyond the box;
    - no two taps of a row share a nonzero axis, so each coupling offset
      b - a of a row comes from one pair of its taps;
    - a row's coefficients are constant along its offsets' axes, so an
      entry of A can be read at its node's (x, y).
    """
    hx, hy, ht = grid.spacing
    x2 = 2.0 * grid.axis_coords(0)[:, None, None]
    y2 = 2.0 * grid.axis_coords(1)[None, :, None]
    inv_ht = 1.0 / ht
    x_h = (((0, 0, 0), -1.0 / hx + y2 * -inv_ht), ((0, 0, 1), y2 * inv_ht), ((1, 0, 0), 1.0 / hx))
    y_h = (((0, 0, 0), -1.0 / hy - x2 * -inv_ht), ((0, 0, 1), -(x2 * inv_ht)),
           ((0, 1, 0), 1.0 / hy))
    return x_h, y_h


def _gradient_values(grid: Grid3, values: np.ndarray) -> np.ndarray:
    """B v on the box, one block per row of `_stencil`'s taps (X_h's
    first, then Y_h's), on the box array `values` of grid.

    The box array is zero off the mask, which stands for B's missing
    columns.  A tap's term is its c times the box shifted by its offset,
    one slice of the flat box, zero on the box's far layers along each
    nonzero axis of the offset, where the shifted node is beyond the box.
    Each row sums its terms in column order, as the CSR product does, so
    the result equals B @ v (a zero sum may come out as -0.0).
    """
    shape, stencil = grid.shape, _stencil(grid)
    v = values.reshape(-1)
    g = np.empty((len(stencil),) + shape)
    s = np.empty(shape)
    for out, ((_, c0), *taps) in zip(g, stencil):
        np.multiply(values, c0, out=out)
        for offset, c in taps:
            k = (offset[0] * shape[1] + offset[1]) * shape[2] + offset[2]  # in the flat box
            scalar = not np.ndim(c)  # a scalar scales in the shift; an array in the box
            np.multiply(v[k:], c if scalar else 1.0, out=s.reshape(-1)[:-k])
            for axis, o in enumerate(offset):
                if o:
                    s.swapaxes(0, axis)[-o:] = 0.0
            if not scalar:
                s *= c
            out += s
    return g.reshape(-1)


# The operator asked for last, (copy of the mask, grid, `_ColourOrder`), or
# None: about 5.5 MiB at 48^3, 4.0 MiB of it L.
_last_operator = None


def _node_colours(grid: Grid3, mask: np.ndarray, offsets) -> tuple:
    """(colour, c): the colour of each mask node (i, j, l), in C order, and
    the colour count c, for A's coupling offsets (dx, dy, dt).

    Node (i, j, l) has colour (alpha i + beta j + gamma l) mod c, for the
    least c and the lexicographically first weights (alpha, beta, gamma) in
    [0, c)^3 with alpha dx + beta dy + gamma dt != 0 mod c on every offset,
    so no two nodes of one colour are coupled.  Forward B's offsets give
    (1, 1, 2) mod 3.  Such weights exist for every set of nonzero offsets
    (a multicolour order; Saad, Iterative Methods for Sparse Linear
    Systems, 2nd ed., 2003, 12.4).
    """
    for c in itertools.count(1):
        for weights in itertools.product(range(c), repeat=len(grid.shape)):
            if all(np.dot(weights, d) % c for d in offsets):
                indices = np.indices(grid.shape, sparse=True)
                return (sum(w * n for w, n in zip(weights, indices)) % c)[mask], c


def _by_rows(d: np.ndarray, v: np.ndarray) -> np.ndarray:
    """d shaped to scale the rows of v: d itself for a vector, a column for
    an (m, b) block."""
    return d if v.ndim == 1 else d[:, None]


class _ColourOrder(NamedTuple):
    """A of one (grid, mask) in the multicolour order of `_node_colours`,
    whose colouring and colour count c come from the taps' coupling offsets
    (c = 3 for forward B), the one form in which the package keeps A, and
    the one owner of that order: it applies A (`product`), sweeps (`sweep`,
    `half_sweeps`) and translates vectors between a field's box array and
    the colour order (`colour`, `box`).  No other module reads its layout.

    The colour order lists the colour-0 mask nodes, then colour 1, and so
    on to colour c - 1, each in C order: position k holds the box node
    node[k] (an index into the flat box array of shape), and split holds
    the c - 1 boundaries, so colour 0 fills the positions [0, split[0]) and
    the last colour [split[-1], m).

    - diag: diag(A) in colour order, and inv_diag its inverse;
    - lower: L, the strictly lower part of A in colour order, CSR, each
      row's entries in their nodes' C order.  Nodes of one colour are
      uncoupled, so L's colour-0 rows are empty, and its entries are half
      of A's off-diagonal ones;
    - upper: U = L^T, the CSC view of L's arrays;
    - rows: (L_1, ..., L_{c-1}), L's rows of colours 1 to c - 1 as CSR
      views of its data and indices, L_k over the positions of the colours
      before k;
    - columns: their CSC views, U's columns of colours 1 to c - 1.

    node and L's indices are 32-bit wherever the box and L's entries fit.
    A itself is applied and never stored.  Every method but `box` takes a
    vector or a block, column by column at once.
    """

    node: np.ndarray
    shape: tuple
    split: tuple
    diag: np.ndarray
    inv_diag: np.ndarray
    lower: sparse.csr_array
    upper: sparse.csc_array
    rows: tuple
    columns: tuple

    def colour(self, values: np.ndarray) -> np.ndarray:
        """The box array values at the mask nodes, in colour order, as a new
        array; a (box nodes, b) block gives an (m, b) block."""
        return (values.reshape(-1) if values.ndim == 3 else values).take(self.node, axis=0)

    def box(self, v: np.ndarray) -> np.ndarray:
        """The box array of the colour-order vector v: v at its nodes, zero
        elsewhere."""
        out = np.zeros(self.shape)
        out.reshape(-1)[self.node.astype(np.intp, copy=False)] = v  # numpy scatters faster by intp
        return out

    def apply(self, diag: np.ndarray, v: np.ndarray) -> np.ndarray:
        """diag v + L v + L^T v of a colour-order v, as a new array."""
        out = _by_rows(diag, v) * v
        out += self.lower @ v
        out += self.upper @ v
        return out

    def product(self, v: np.ndarray) -> np.ndarray:
        """A v = D v + L v + L^T v, D = diag(A), in colour order (`apply`)."""
        return self.apply(self.diag, v)

    def sweep(self, g: np.ndarray):
        """(P, A P) for P = M^-1 g, M = (D + L) D^-1 (D + U) the symmetric
        Gauss-Seidel of A in colour order (Saad, Iterative Methods for Sparse
        Linear Systems, 2nd ed., 2003, 12.4); g, P and A P in colour order.

        `half_sweeps` gives P and r = (D + U) P = D y, so A P = r + L P
        (Eisenstat, SIAM J. Sci. Stat. Comput. 2, 1981).  So the sweep is five
        sparse products with L or its pieces, whose entries are half of A's
        off-diagonal ones, and no product with A.  M is symmetric positive
        definite, as A is.
        """
        p, r = self.half_sweeps(g)
        r += self.lower @ p
        return p, r

    def half_sweeps(self, g: np.ndarray):
        """(P, D y) for the forward half-sweep y = (D + L)^-1 g and the
        backward one P = (D + U)^-1 D y, U = L^T, of `sweep`; the solvers'
        polish and index precondition by P alone.

        Nodes of one colour are uncoupled, so D_k, the diagonal of colour
        k, is its whole block.  With L_k the colour-k rows of L (`rows`) and
        y_<k the slices of y of the colours before k, the forward
        half-sweep runs k = 0, ..., c - 1:
            rk = gk - L_k y_<k  (r0 = g0),  yk = Dk^-1 rk,
        and the backward one k = c - 1, ..., 1, from P_{c-1} = y_{c-1} and
        t = L_k^T P_k summed over the colours done:
            t += L_k^T P_k,  P_{k-1} = y_{k-1} - D_{k-1}^-1 t_{k-1},
        2 (c - 1) sparse products, four for forward B's three colours;
        r = D y.
        """
        d, ends = _by_rows(self.inv_diag, g), (0,) + self.split + (len(g),)
        r = g.copy()  # becomes D y
        y = np.empty_like(r)  # becomes P
        np.multiply(r[:ends[1]], d[:ends[1]], out=y[:ends[1]])
        for lo, hi, lower in zip(ends[1:], ends[2:], self.rows):  # colour k: [lo, hi)
            r[lo:hi] -= lower @ y[:lo]
            np.multiply(r[lo:hi], d[lo:hi], out=y[lo:hi])
        t = None  # U P over the colours done, at the positions before them
        for first, lo, hi, upper in reversed(tuple(zip(ends, ends[1:], ends[2:], self.columns))):
            p = upper @ y[lo:hi]
            t = p if t is None else np.add(p, t[:lo], out=p)
            t[first:] *= d[first:lo]  # finishes colour k - 1: [first, lo)
            y[first:lo] -= t[first:]
        return y, r


def _colour_order(grid: Grid3, mask: np.ndarray) -> _ColourOrder:
    """The `_ColourOrder` of one (grid, mask), built on first use
    (`_assemble`) and kept in `_last_operator` until another (grid, mask)
    is asked for.

    The slot is keyed by the grid and a copy of the mask's contents, so a
    mask edited in place gets a fresh operator and an equal mask in another
    array reuses the kept one.
    """
    global _last_operator
    if _last_operator is not None:
        contents, g, order = _last_operator
        if g == grid and np.array_equal(contents, mask):
            return order
    _last_operator = None  # the old operator is freed before the new one is built
    order = _assemble(grid, mask)
    _last_operator = (mask.copy(), grid, order)
    return order


def _assemble(grid: Grid3, mask: np.ndarray) -> _ColourOrder:
    """The `_ColourOrder` of A = B^T B + I, read from `_stencil`'s taps with
    no B and no sparse product.

    (B^T B)_ij sums B_ri B_rj over B's rows r, X_h's rows (box nodes in C
    order) before Y_h's, and row r's tap (a, c) puts c at r + a.  So
    diag(A) sums, over the rows that hold a node in C order, the square of
    the tap that reaches it, then 1; and a node's entry towards its
    neighbour at offset b - a sums c_a c_b over the rows' tap pairs (a, b),
    X_h's first, each read at the node's (x, y) (`_stencil`'s premises).
    Both are summed in B's row order, as scipy's sparse product B^T B sums
    them, so the entries are bit for bit those of that product; like it, an
    entry that sums to 0 is no entry.  The offsets b - a also give the
    colouring and the colour count c (`_node_colours`), so the colour order
    fits whatever taps `_stencil` returns.  L is read in one pass from a
    table of its rows by the neighbour offsets, in increasing C order of
    the neighbour, whose row-major mask of the kept entries (lower and
    nonzero) gives each row's entries in their nodes' C order; no argsort
    or copy of A is made.  Its rows of colours 1 to c - 1 give the c - 1
    pieces of `rows` and `columns`.
    """
    from scipy import sparse

    n_x, n_y, n_t = grid.shape
    diag = np.zeros(grid.shape)
    plane = np.zeros((n_x, n_y, 1))  # its +0.0 moves only entries that sum to 0
    couplings = {}  # offset b - a: the entry at each (x, y)
    for row in _stencil(grid):
        # the rows r = node - a that hold a node, in C order
        for a, c in sorted(row, key=operator.itemgetter(0), reverse=True):
            diag[tuple(slice(o, None) for o in a)] += c * c
        for (a, c_a), (b, c_b) in itertools.permutations(row, 2):
            d = tuple(j - i for i, j in zip(a, b))
            couplings[d] = couplings.get(d, plane) + c_a * c_b
    diag += 1.0

    colour, c = _node_colours(grid, mask, couplings)
    m = colour.size
    # 32-bit indices whenever the box and A's entries fit, as scipy chooses
    width = len(couplings) + 1  # A's entries per row
    index = np.int32 if max(width * m, mask.size) <= np.iinfo(np.int32).max else np.intp
    perm = np.concatenate([np.flatnonzero(colour == k) for k in range(c)]).astype(index)
    ends = np.cumsum(np.bincount(colour, minlength=c)).tolist()  # the end of each colour
    n0 = ends[0]
    node = np.flatnonzero(mask).astype(index)[perm]  # box index of each position
    diag = diag.reshape(-1)[node]
    # A node's position, padded by one layer of m: a neighbour beyond the
    # box or off the mask is at m, after every position
    place = np.empty(m, dtype=index)  # the position of each mask node
    place[perm] = np.arange(m, dtype=index)
    pos = np.full((n_x + 2, n_y + 2, n_t + 2), m, dtype=index)
    pos[1:-1, 1:-1, 1:-1][mask] = place
    padded = np.flatnonzero(np.pad(mask, 1))[perm[n0:]]  # of L's rows n0..m
    xy = node[n0:] // n_t
    # the first position of the row's colour
    start = np.repeat(np.array(ends[:-1], dtype=index), np.diff(ends))

    # one row per row of L, one column per neighbour offset, in increasing
    # C order of the neighbour: a row-major mask keeps each row's entries in
    # that order
    table = sorted(couplings.items(), key=operator.itemgetter(0))
    step = [(dx * (n_y + 2) + dy) * (n_t + 2) + dt for (dx, dy, dt), _ in table]
    col = pos.take(padded[:, None] + step)
    value = np.stack([entry.reshape(-1) for _, entry in table], axis=1).take(xy, axis=0)
    keep = (col < start[:, None]) & (value != 0.0)
    indptr = np.zeros(m + 1, dtype=index)
    np.cumsum(keep.sum(axis=1), out=indptr[n0 + 1:])
    data, indices = value[keep], col[keep]

    rows, columns = [], []
    for first, last in zip(ends, ends[1:]):
        lo, hi = indptr[first], indptr[last]
        pieces = data[lo:hi], indices[lo:hi], indptr[first:last + 1] - lo
        rows.append(_compressed(sparse.csr_array, (last - first, first), *pieces))
        columns.append(_compressed(sparse.csc_array, (first, last - first), *pieces))
    return _ColourOrder(node, grid.shape, tuple(ends[:-1]), diag, 1.0 / diag,
                        _compressed(sparse.csr_array, (m, m), data, indices, indptr),
                        _compressed(sparse.csc_array, (m, m), data, indices, indptr),
                        tuple(rows), tuple(columns))


def _compressed(kind, shape: tuple, data: np.ndarray, index: np.ndarray,
                indptr: np.ndarray):
    """A compressed sparse array of scipy's class kind (CSR or CSC) that
    holds these arrays themselves.

    The (data, indices, indptr) constructor, and so `.T`, copies an array
    that is a view of less than half its base (`prune`), as L_1's are of
    L's; so the arrays are set on an empty array of the shape.
    """
    a = kind(shape, dtype=data.dtype)
    a.data, a.indices, a.indptr = data, index, indptr
    return a


def _sum_squares(g: np.ndarray, v: np.ndarray, w: float) -> float:
    """w (||g||^2 + ||v||^2) for g = B v, summed as squares (see the module
    docstring); g is overwritten.

    The squares are summed pairwise by `np.sum`, not by a BLAS dot, whose
    sum carried four times the rounding noise of J near the desk ground state.
    """
    g *= g
    return (float(g.sum()) + float(np.sum(v * v))) * w


def _box_norm_sq(grid: Grid3, values: np.ndarray) -> float:
    """w (||B v||^2 + ||v||^2) of the box array `values` of grid, zero off
    the mask, by the stencil.

    ||v||^2 sums over the box array, so zero extension keeps it bit for bit.
    """
    return _sum_squares(_gradient_values(grid, values), values.reshape(-1), grid.cell_volume)


def sublaplacian_values(u: ScalarField) -> np.ndarray:
    """Delta_h u = v - A v on the mask nodes, zero elsewhere, as a box array."""
    order = _colour_order(u.grid, u.mask)
    v = order.colour(u.values)
    return order.box(v - order.product(v))


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
    """||X_h u||^2 + ||Y_h u||^2 + ||u||^2, by the stencil (`_box_norm_sq`)."""
    return _box_norm_sq(u.grid, u.values)


def zero_extend(u: ScalarField, new_mask: np.ndarray) -> ScalarField:
    """Reinterpret u on a larger mask of the same grid (values unchanged)."""
    new_mask = np.asarray(new_mask, dtype=bool)
    if not np.all(new_mask | ~u.mask):
        raise DomainError("new mask must contain the field's mask")
    return ScalarField(u.grid, u.values, new_mask)
