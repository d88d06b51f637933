"""Grids, masks, discrete operators, quadrature and norms."""

import itertools

import numpy as np
import pytest
from scipy import sparse
from scipy.ndimage import binary_erosion

from conftest import (
    colour_perm,
    kronecker_gradient,
    midpoint_integral,
    oracle_lower,
    oracle_operator,
    scipy_array,
)
from heisground import grid as grid_module
from heisground.errors import ConfigurationError, DomainError
from heisground.grid import (
    Grid3,
    ScalarField,
    _colour_order,
    _gradient_values,
    ball_mask,
    build_ball_grid,
    e_norm_sq,
    full_mask,
    inner,
    l2_norm,
    lq_norm,
    sublaplacian_values,
    zero_extend,
)
from heisground.heis_core import analytic_horizontal_derivative, gaussian_test_function


def deep_interior(mask, cells=2):
    return binary_erosion(mask, iterations=cells)


def horizontal_gradient(u):
    """(X_h u, Y_h u) on the whole box: the blocks of `_gradient_values`,
    + 0.0 making a zero sum +0.0, as the CSR product's sums are."""
    return _gradient_values(u.grid, u.values).reshape((2,) + u.grid.shape) + 0.0


class TestGridConstruction:
    def test_box_extents(self):
        grid, mask = build_ball_grid(1.0, 16)
        xs = grid.axis_coords(0)
        ts = grid.axis_coords(2)
        assert xs[0] == pytest.approx(-1.0 + grid.spacing[0] / 2)
        assert ts[0] > -1.0 and ts[-1] < 1.0
        center = tuple(n // 2 for n in grid.shape)
        assert mask[center]

    def test_mask_nesting(self):
        grid, _ = build_ball_grid(2.0, 16)
        m1 = ball_mask(grid, 1.0)
        m2 = ball_mask(grid, 2.0)
        assert m1.sum() < m2.sum()
        assert np.all(m2 | ~m1)

    def test_volume_fraction_stabilizes(self):
        fracs = []
        for n in (24, 48):
            grid, mask = build_ball_grid(1.0, n)
            fracs.append(mask.mean())
        assert abs(fracs[1] - fracs[0]) / fracs[0] < 0.05

    def test_rejects_small_grid(self):
        for n in (4, 0):  # 0 raised ZeroDivisionError from the spacing 2k/N
            with pytest.raises(ConfigurationError, match="nodes per axis"):
                build_ball_grid(1.0, n)
        with pytest.raises(DomainError):
            build_ball_grid(-1.0, 16)

    @pytest.mark.parametrize("k", [1e-200, 1e200, 1e308])
    def test_rejects_radius_whose_spacing_is_not_finite(self, k):
        with pytest.raises(ConfigurationError):
            build_ball_grid(k, 8)

    @pytest.mark.parametrize("k", [1e78, 1e100, 1e153, 1e-77, 1e-80, 1e-100, 5e-154, 1e-153])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_rejects_radius_whose_gauge_or_operator_overflows(self, k):
        # finite spacings, but r^4 + t^2 or 1/h_t^2 is not a finite normal double
        with pytest.raises(ConfigurationError, match="out of range"):
            build_ball_grid(k, 8)

    @pytest.mark.parametrize("k", [1e76, 1e-76])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_accepts_radius_whose_grid_arithmetic_is_finite(self, k):
        grid, mask = build_ball_grid(k, 8)
        assert mask.any()

    @pytest.mark.parametrize("h", [0.0, -1.0, np.inf, np.nan])
    def test_rejects_bad_spacing(self, h):
        with pytest.raises(ConfigurationError):
            Grid3(shape=(8, 8, 8), spacing=(1.0, 1.0, h), corner=(0.0, 0.0, 0.0))

    @pytest.mark.parametrize("shape, corner", [
        ((8.5, 8, 8), (0.0, 0.0, 0.0)),  # was accepted, with a 9-node x axis
        ((8.0, 8, 8), (0.0, 0.0, 0.0)),
        ((8, 8), (0.0, 0.0, 0.0)),
        (8, (0.0, 0.0, 0.0)),
        ((8, 8, 8), (np.nan, 0.0, 0.0)),  # was accepted
        ((8, 8, 8), (0.0, -np.inf, 0.0)),
        ((8, 8, 8), (0.0, 0.0)),
        ((8, 8, 8), (0.0, 0.0, 0.0, 0.0)),
    ])
    def test_rejects_bad_shape_or_corner(self, shape, corner):
        with pytest.raises(ConfigurationError, match="shape|corner"):
            Grid3(shape=shape, spacing=(1.0, 1.0, 1.0), corner=corner)

    @pytest.mark.parametrize("shape, spacing, corner", [
        ((8, 8, 8), ("1", "1", "1"), (0.0, 0.0, 0.0)),  # was accepted
        ((8, 8, 8), (1.0, 1.0, 1.0), ("0", 0.0, 0.0)),
        (("8", 8, 8), (1.0, 1.0, 1.0), (0.0, 0.0, 0.0)),
        ((8, 8, 8), (True, 1.0, 1.0), (0.0, 0.0, 0.0)),  # was accepted
        ((8, 8, 8), (1.0, 1.0, np.True_), (0.0, 0.0, 0.0)),
        ((8, 8, 8), (1.0, 1.0, 1.0), (False, 0.0, 0.0)),
        ((8, True, 8), (1.0, 1.0, 1.0), (0.0, 0.0, 0.0)),
    ])
    def test_rejects_strings_and_bools(self, shape, spacing, corner):
        with pytest.raises(ConfigurationError, match="must be 3"):
            Grid3(shape=shape, spacing=spacing, corner=corner)

    @pytest.mark.parametrize("spacing", [
        (1e-200, 1e-200, 1.0),  # h_x h_y h_t underflows to 0
        (1e-160, 1e-160, 1e10),  # subnormal, 1e-310
        (1e110, 1e110, 1e110),  # overflows (and so does r^4 + t^2)
    ])
    def test_rejects_cell_volume_out_of_range(self, spacing):
        with pytest.raises(ConfigurationError, match="out of range"):
            Grid3(shape=(8, 8, 8), spacing=spacing, corner=tuple(-4.0 * h for h in spacing))

    @pytest.mark.parametrize("k, n", [(2e-77, 8), (1e-76, 48)])
    def test_rejects_ball_grid_of_subnormal_cell_volume(self, k, n):
        # r^4 + t^2 and 1/h_t^2 are normal, but a unit-mass density sums to
        # 1/w, which overflows: was accepted, and classify overflowed
        with pytest.raises(ConfigurationError, match="out of range"):
            build_ball_grid(k, n)

    def test_stores_python_numbers(self):
        grid = Grid3(np.array([8, 9, 10]), np.array([0.5, 0.25, 1.0]),
                     [np.float64(-1.0), np.float32(-2.0), -3])
        assert grid == Grid3((8, 9, 10), (0.5, 0.25, 1.0), (-1.0, -2.0, -3.0))
        assert [type(n) for n in grid.shape] == [int] * 3
        assert [type(x) for x in grid.spacing + grid.corner] == [float] * 6

    @pytest.mark.parametrize("k", [1e-6, 0.3, 2.5, 4.0, 1e6])
    def test_equal_node_counts(self, k):
        grid, _ = build_ball_grid(k, 12)
        assert grid.shape == (12, 12, 12)
        assert grid.spacing[2] == pytest.approx(grid.spacing[0] * k, rel=1e-15)


class TestOperators:
    def test_zero_field(self):
        grid, mask = build_ball_grid(2.0, 12)
        u = ScalarField(grid, np.zeros(grid.shape), mask)
        assert np.all(horizontal_gradient(u) == 0.0)
        assert np.all(sublaplacian_values(u) == 0.0)

    def test_X_of_linear(self):
        grid, mask = build_ball_grid(2.0, 16)
        xs, _, _ = grid.coordinate_arrays()
        u = ScalarField(grid, np.broadcast_to(xs, grid.shape).copy(), mask)
        gx = horizontal_gradient(u)[0]
        deep = deep_interior(mask, 2)
        assert np.allclose(gx[deep], 1.0, atol=1e-12)

    def test_X_of_t_is_2y(self):
        grid, mask = build_ball_grid(2.0, 16)
        _, ys, ts = grid.coordinate_arrays()
        u = ScalarField(grid, np.broadcast_to(ts, grid.shape).copy(), mask)
        gx = horizontal_gradient(u)[0]
        target = np.broadcast_to(2.0 * ys, grid.shape)
        deep = deep_interior(mask, 2)
        assert np.allclose(gx[deep], target[deep], atol=1e-10)

    def test_sublaplacian_of_horizontal_square(self):
        grid, mask = build_ball_grid(2.0, 20)
        xs, ys, _ = grid.coordinate_arrays()
        u = ScalarField(grid, np.broadcast_to(xs**2 + ys**2, grid.shape).copy(), mask)
        lap = sublaplacian_values(u)
        deep = deep_interior(mask, 2)
        assert np.allclose(lap[deep], 4.0, atol=1e-9)

    def test_sublaplacian_of_t_vanishes(self):
        grid, mask = build_ball_grid(2.0, 20)
        _, _, ts = grid.coordinate_arrays()
        u = ScalarField(grid, np.broadcast_to(ts, grid.shape).copy(), mask)
        lap = sublaplacian_values(u)
        deep = deep_interior(mask, 2)
        assert np.allclose(lap[deep], 0.0, atol=1e-9)

    def test_convergence_under_halving(self):
        # deep-interior error vs analytic oracle shrinks roughly 4x
        def max_err(n):
            grid, mask = build_ball_grid(2.0, n)
            xs, ys, ts = grid.coordinate_arrays()
            a, b = 1.0, 0.25
            f = np.exp(-(xs**2 + ys**2) - b * ts**2)
            u = ScalarField(grid, f, mask)
            num = sublaplacian_values(u)
            ana = (
                (-2 * a + 4 * a * a * xs**2)
                + (-2 * a + 4 * a * a * ys**2)
                + 4 * (xs**2 + ys**2) * (-2 * b + 4 * b * b * ts**2)
            ) * f
            deep = np.broadcast_to(grid.gauge_array() < 1.2, num.shape)
            return np.abs(num - ana)[deep].max()

        e1, e2 = max_err(16), max_err(32)
        assert 2.5 < e1 / e2 < 5.5

    def test_summation_by_parts_exact(self):
        rng = np.random.default_rng(12)
        grid, mask = build_ball_grid(1.5, 12)
        u = ScalarField(grid, rng.standard_normal(grid.shape), mask)
        quad = inner(ScalarField(grid, -sublaplacian_values(u), mask), u)
        g = horizontal_gradient(u).reshape(-1)
        direct = float(g @ g) * grid.cell_volume
        assert quad == pytest.approx(direct, rel=1e-12)


class TestHorizontalGradient:
    """X_h and Y_h checked without the stencil that they apply."""

    @pytest.mark.parametrize("ball", [False, True])
    def test_matches_per_node_loop(self, ball):
        grid, mask = build_ball_grid(1.5, 8)
        if not ball:
            mask = full_mask(grid)
        u = ScalarField(grid, np.random.default_rng(21).standard_normal(grid.shape), mask)
        f = u.values
        hx, hy, ht = grid.spacing
        xs, ys = grid.axis_coords(0), grid.axis_coords(1)

        def at(i, j, l):  # zero beyond the box edge
            inside = all(0 <= c < n for c, n in zip((i, j, l), grid.shape))
            return f[i, j, l] if inside else 0.0

        gx = np.empty(grid.shape)
        gy = np.empty(grid.shape)
        for i, j, l in np.ndindex(grid.shape):
            d_t = (at(i, j, l + 1) - f[i, j, l]) / ht
            gx[i, j, l] = (at(i + 1, j, l) - f[i, j, l]) / hx + 2.0 * ys[j] * d_t
            gy[i, j, l] = (at(i, j + 1, l) - f[i, j, l]) / hy - 2.0 * xs[i] * d_t
        assert np.abs(horizontal_gradient(u) - np.stack([gx, gy])).max() < 1e-13

    def test_first_order_against_gaussian(self):
        tf = gaussian_test_function(1.0, 0.25)

        def max_err(n):
            grid, mask = build_ball_grid(2.0, n)
            xs, ys, ts = grid.coordinate_arrays()
            u = ScalarField(grid, np.exp(-(xs**2 + ys**2) - 0.25 * ts**2), mask)
            gx, gy = horizontal_gradient(u)
            errs = []
            for idx in zip(*np.nonzero(grid.gauge_array() < 1.2)):
                z = grid.node_point(idx)
                errs.append(abs(gx[idx] - analytic_horizontal_derivative(tf, z, "X")))
                errs.append(abs(gy[idx] - analytic_horizontal_derivative(tf, z, "Y")))
            return max(errs)

        assert 1.6 < max_err(16) / max_err(32) < 2.5


class TestStencilAgainstKronecker:
    """The stencil's gradient and energy norm, bit for bit against the
    Kronecker-product assembly of the same differences
    (`conftest.kronecker_gradient`), which also gives the operator oracle
    its B."""

    @staticmethod
    def _grid_and_mask(k, n, kind):
        if isinstance(n, tuple):  # t-resolved: h_t = k h_x / 2
            hx = 2.0 * k / n[0]
            grid = Grid3(n, (hx, hx, 2.0 * k * k / n[2]), (-k, -k, -k * k))
            mask = ball_mask(grid, k)
        else:
            grid, mask = build_ball_grid(k, n)
        if kind == "random":
            mask = np.random.default_rng(25).random(grid.shape) < 0.6
        elif kind == "full":
            mask = full_mask(grid)
        return grid, mask

    @pytest.mark.parametrize("kind", ["ball", "random", "full"])
    @pytest.mark.parametrize("k, n", [(2.0, 10), (2.5, 12), (4.0, 32), (6.0, 48),
                                      (4.0, (32, 32, 64))])
    def test_bit_for_bit(self, k, n, kind):
        grid, mask = self._grid_and_mask(k, n, kind)
        want = kronecker_gradient(grid, mask)
        u = ScalarField(grid, np.random.default_rng(26).standard_normal(grid.shape), mask)
        g = want @ u.values[u.mask]
        got = horizontal_gradient(u).reshape(-1)
        assert np.array_equal(got.view(np.uint64), g.view(np.uint64))
        v = u.values.ravel()
        assert e_norm_sq(u) == (float(np.sum(g * g)) + float(np.sum(v * v))) * grid.cell_volume


def reference_energy(u):
    """||X_h u||^2 + ||Y_h u||^2 + ||u||^2 by plain forward differences on the box."""

    def fwd(values, axis, h):
        out = -values.copy()
        head = [slice(None)] * 3
        tail = [slice(None)] * 3
        head[axis] = slice(None, -1)
        tail[axis] = slice(1, None)
        out[tuple(head)] += values[tuple(tail)]
        return out / h

    hx, hy, ht = u.grid.spacing
    xs, ys, _ = u.grid.coordinate_arrays()
    f = u.values
    gx = fwd(f, 0, hx) + 2.0 * ys * fwd(f, 2, ht)
    gy = fwd(f, 1, hy) - 2.0 * xs * fwd(f, 2, ht)
    return float(np.sum(gx * gx) + np.sum(gy * gy) + np.sum(f * f)) * u.grid.cell_volume


class TestEnergyOperator:
    """A = B^T B + I, kept as its colour order (`grid._ColourOrder`) and
    applied as D + L + L^T."""

    @pytest.mark.parametrize("k, n", [(1.5, 12), (4.0, 32)])
    def test_exactly_symmetric(self, k, n):
        # The oracle's B^T B + I is exactly symmetric, so its lower half and
        # diagonal, which the cache keeps, give back all of it.
        grid, mask = build_ball_grid(k, n)
        a = oracle_operator(grid, mask)
        assert (a != a.T).nnz == 0
        order = _colour_order(grid, mask)
        lower = scipy_array(order.lower)
        kept = sparse.diags_array(order.diag) + lower + lower.T
        perm = colour_perm(order, mask)
        assert (kept != a[perm][:, perm]).nnz == 0

    @pytest.mark.parametrize(
        "k, n, box", [(1.5, 12, False), (4.0, 32, False), (1.5, 12, True)]
    )
    def test_quadratic_form_matches_reference(self, k, n, box):
        rng = np.random.default_rng(16)
        grid, mask = build_ball_grid(k, n)
        if box:
            mask = full_mask(grid)
        order = _colour_order(grid, mask)
        for _ in range(3):
            u = ScalarField(grid, rng.standard_normal(grid.shape), mask)
            v = order.colour(u.values)
            ref = reference_energy(u)
            av = order.product(v)
            assert float(v @ av) * grid.cell_volume == pytest.approx(ref, rel=1e-13)
            assert e_norm_sq(u) == pytest.approx(ref, rel=1e-13)

    def test_grid_of_arrays_keys_the_cache(self, fresh_operators):
        # The cache compares grids with ==, which raised numpy's "truth value
        # of an array is ambiguous" for every later grid once a grid of
        # ndarrays was cached.
        grid, mask = build_ball_grid(1.5, 12)
        arrays = Grid3(np.array(grid.shape), np.array(grid.spacing), np.array(grid.corner))
        a = _colour_order(arrays, mask)
        assert _colour_order(grid, mask) is a
        other, other_mask = build_ball_grid(2.0, 12)
        assert _colour_order(other, other_mask).node.size == np.count_nonzero(other_mask)

    def test_cached_per_grid_and_mask(self, fresh_operators):
        # The slot holds the (grid, mask) asked for last, keyed by a copy of
        # the mask's contents.
        grid, mask = build_ball_grid(1.5, 12)
        a = _colour_order(grid, mask)
        assert _colour_order(grid, mask) is a
        assert _colour_order(grid, mask.copy()) is a  # an equal mask in another array
        contents, kept_grid, kept = grid_module._last_operator
        assert kept is a and kept_grid == grid
        assert contents is not mask and np.array_equal(contents, mask)
        b = _colour_order(grid, ball_mask(grid, 1.0))
        assert b is not a and grid_module._last_operator[2] is b
        c = _colour_order(grid, mask)  # a is gone: built anew
        assert c is not a and np.array_equal(c.node, a.node)
        mask[tuple(n // 2 for n in grid.shape)] = False  # edited in place
        d = _colour_order(grid, mask)
        assert d is not c and d.node.size == c.node.size - 1

    def test_cache_bounded_across_exhaustion(self, monkeypatch, fresh_operators):
        # Each nested ball is assembled once, and the slot keeps the last.
        from heisground.solvers import SolverConfig, exhaust_domains

        assemble, built = grid_module._assemble, []

        def counted(grid, mask):
            built.append(np.count_nonzero(mask))
            return assemble(grid, mask)

        monkeypatch.setattr(grid_module, "_assemble", counted)
        cfg = SolverConfig(p=2.0, ball_radius=2.5, nodes_per_axis=12, grad_tol=1e-3)
        radii = [1.5, 1.75, 2.0, 2.25, 2.5]
        last = exhaust_domains(radii, cfg).entries[-1].report.field
        assert len(built) == len(radii) and built == sorted(built)
        contents, kept_grid, kept = grid_module._last_operator
        assert kept_grid == last.grid and np.array_equal(contents, last.mask)
        assert kept.node.size == built[-1]

    def test_constrained_min_regression(self, small_cm):
        # k = 2.5, N = 12, grad_tol 1e-4: the figures of the nonlinear CG
        # preconditioned by the three-colour symmetric Gauss-Seidel sweep,
        # from the bump at t = -h_t/2, 22 iterations and 24 operator products
        # (preconditioned by diag(A)^-1 it took 49 and 52 to
        # 3.361380574876119; the Anderson-mixed inverse iteration with inner
        # CG solves 19 steps and 169 products to 3.3613805759909603; the L^2
        # flow 1016 steps to 3.361380577693041).
        assert (small_cm.iterations, small_cm.extra["operator_products"]) == (22, 24)
        assert small_cm.level == pytest.approx(3.3613805749102594, rel=1e-12)

    def test_energy_precise_enough_for_default_tolerance(self):
        # Evaluated as w v^T A v, the energy's rounding noise stalled the L^2
        # flow's line search at |grad| = 1.6e-6.  The solver must still reach
        # the default 1e-6 at this size, at the lower minimum the H^1
        # iteration finds (the L^2 flow stopped at 3.5661065625).
        from heisground.solvers import SolverConfig, solve_constrained_min

        rep = solve_constrained_min(
            SolverConfig(p=2.0, ball_radius=4.0, nodes_per_axis=32, grad_tol=1e-6)
        )
        assert rep.converged
        assert rep.level == pytest.approx(3.5661056271755, rel=1e-9)


def _assembly_cases():
    """(id, grid, mask) of the assembly tests: ball grids, a hand-built
    t-resolved grid and a full mask.  At N = 13 the nodes x = 0 and y = 0
    make stencil coefficients 0, whose entries are no entries."""
    t_resolved = Grid3((24, 24, 72), (0.25, 0.25, 0.125), (-3.0, -3.0, -9.0))  # (3, 24, 72)
    box = build_ball_grid(2.5, 12)[0]
    return [(f"{k}-{n}",) + build_ball_grid(k, n)
            for k, n in ((4.0, 32), (2.5, 12), (6.0, 48), (1e-4, 8), (2.5, 13))] + [
        ("3-24-72", t_resolved, ball_mask(t_resolved, 3.0)), ("full", box, full_mask(box))]


ASSEMBLY_CASES = _assembly_cases()


def coupling_offsets(grid):
    """A's coupling offsets b - a over the pairs of taps (a, b) of each row
    of `grid._stencil`."""
    return {tuple(int(x) for x in np.subtract(b, a)) for row in grid_module._stencil(grid)
            for (a, _), (b, _) in itertools.permutations(row, 2)}


def tap_gradient(grid, mask):
    """B by the definition of `grid._stencil`'s taps, whatever they are, as a
    sparse matrix: in each block, row r holds c, read at r, in the column
    r + offset of each tap (offset, c) whose node r + offset is in the box
    (entries of one column summed); the mask columns are kept."""
    shape = np.array(grid.shape)[:, None]
    r = np.indices(grid.shape).reshape(3, -1)
    n = r.shape[1]
    rows, cols, vals = [], [], []
    stencil = grid_module._stencil(grid)
    for block, taps in enumerate(stencil):
        for offset, c in taps:
            to = r + np.array(offset)[:, None]
            inside = np.all((to >= 0) & (to < shape), axis=0)
            rows.append(block * n + np.flatnonzero(inside))
            cols.append(np.ravel_multi_index(to[:, inside], grid.shape))
            vals.append(np.broadcast_to(c, grid.shape).reshape(-1)[inside])
    b = sparse.coo_array((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                         shape=(len(stencil) * n, n))
    return b.tocsr()[:, np.flatnonzero(mask)]


class TestAssembly:
    """The colour order filled from the stencil (`grid._assemble`) against
    the oracle A = B^T B + I of `conftest.oracle_operator`."""

    @pytest.mark.parametrize("name, grid, mask", ASSEMBLY_CASES,
                             ids=[c[0] for c in ASSEMBLY_CASES])
    def test_bit_identical_to_the_oracle(self, name, grid, mask, fresh_operators):
        order = _colour_order(grid, mask)
        a = oracle_operator(grid, mask)
        colour, count = grid_module._node_colours(grid, mask, coupling_offsets(grid))
        perm = np.concatenate([np.flatnonzero(colour == c) for c in range(count)])
        assert np.array_equal(order.node, np.flatnonzero(mask)[perm])
        assert order.node.dtype == np.int32 and order.shape == grid.shape
        assert order.split == (np.count_nonzero(colour == 0), np.count_nonzero(colour < 2))
        assert np.array_equal(order.diag.view(np.uint64), a.diagonal()[perm].view(np.uint64))
        assert np.array_equal(order.inv_diag.view(np.uint64),
                              (1.0 / a.diagonal()[perm]).view(np.uint64))
        want = oracle_lower(a, colour, perm)
        for got, ref in zip((order.lower.data, order.lower.indices, order.lower.indptr), want):
            assert got.dtype == ref.dtype
            assert np.array_equal(got.view(np.uint8), ref.view(np.uint8))
        assert order.lower.indices.dtype == np.int32 == a.indices.dtype

    @pytest.mark.parametrize("name, grid, mask", ASSEMBLY_CASES,
                             ids=[c[0] for c in ASSEMBLY_CASES])
    def test_product_matches_the_oracle(self, name, grid, mask):
        order = _colour_order(grid, mask)
        a = oracle_operator(grid, mask)
        perm = colour_perm(order, mask)
        rng = np.random.default_rng(37)
        for v in rng.standard_normal((2, perm.size)):
            want = (a @ v)[perm]
            got = order.product(v[perm])
            assert np.linalg.norm(got - want) <= 1e-15 * np.linalg.norm(want)
            # the field functions' product is this one, written to the box
            values = np.zeros(grid.shape)
            values[mask] = v
            delta = sublaplacian_values(ScalarField(grid, values, mask))
            np.testing.assert_array_equal(order.colour(delta), v[perm] - got)
        block = rng.standard_normal((perm.size, 3))
        np.testing.assert_array_equal(order.product(block),
                                      np.stack([order.product(c) for c in block.T], axis=1))

    @pytest.mark.parametrize("kind", ["full", "ball"])
    def test_follows_a_third_row_of_taps(self, kind, monkeypatch, fresh_operators):
        # A third row of taps, whose coupling offset +-(1, 0, 1) keeps
        # i + j + 2 l unchanged mod 3, so forward B's colouring would put
        # its neighbours in one colour and the sweep's L would miss their
        # entries.  The colouring, A and the energy norm follow the taps.
        stencil = grid_module._stencil
        third = (((0, 0, 0), -0.7), ((1, 0, 1), 0.7))
        monkeypatch.setattr(grid_module, "_stencil", lambda grid: stencil(grid) + (third,))
        grid = Grid3((10, 11, 12), (0.4, 0.4, 0.35), (-2.0, -2.2, -2.1))
        mask = full_mask(grid) if kind == "full" else ball_mask(grid, 2.0)
        b = tap_gradient(grid, mask)
        order = _colour_order(grid, mask)
        perm = colour_perm(order, mask)
        want = (b.T @ b).toarray()[np.ix_(perm, perm)] + np.eye(perm.size)
        lower = scipy_array(order.lower)
        got = (sparse.diags_array(order.diag) + lower + lower.T).toarray()
        assert np.linalg.norm(got - want) <= 1e-15 * np.linalg.norm(want)
        values = np.where(mask, np.random.default_rng(41).standard_normal(grid.shape), 0.0)
        bv, v = b @ values[mask], values.reshape(-1)
        assert grid_module._box_norm_sq(grid, values) == pytest.approx(
            grid.cell_volume * (bv @ bv + v @ v), rel=1e-13)
        colour = np.searchsorted(order.split, np.arange(perm.size), side="right")
        row, col = np.nonzero(want)
        off = row != col
        assert off.any() and np.all(colour[row[off]] != colour[col[off]])

    def test_no_gradient_matrix_and_no_sparse_product(self, monkeypatch, fresh_operators):
        # On an empty slot a solve and a polish assemble their operator
        # with no B (the oracle's kronecker_gradient raises) and no product
        # of two sparse matrices (scipy's sparse-by-sparse product raises).
        import conftest
        from scipy.sparse._compressed import _cs_matrix

        from heisground import solvers
        from heisground.solvers import SolverConfig, make_domain, radial_bump

        def refuse(*args, **kwargs):
            raise AssertionError("the package built B or multiplied two sparse matrices")

        monkeypatch.setattr(conftest, "kronecker_gradient", refuse)
        monkeypatch.setattr(_cs_matrix, "_matmul_sparse", refuse)
        assert not hasattr(grid_module, "kronecker_gradient")
        assert not hasattr(grid_module, "energy_operator")
        cfg = SolverConfig(p=2.0, ball_radius=2.5, nodes_per_axis=12, grad_tol=1e-4)
        domain = make_domain(cfg)
        rep = solvers.solve_constrained_min(cfg, domain=domain)
        energy = solvers._Energy(domain, cfg.p)
        assert rep.converged and grid_module._last_operator[2] is energy.order
        v = energy.order.colour(radial_bump(domain).values)
        w0 = energy.ray_max(v)[0] * v
        _, gn, steps = solvers._newton_polish(energy, w0)
        assert steps and gn < energy.norm(energy.grad(w0))

    def test_entry_holds_l_and_three_vectors(self, fresh_operators):
        # The kept operator of the k = 4, N = 32 ball: L's arrays, the order,
        # diag(A) and its inverse, and L's pieces (views of its data and
        # indices, with their own row pointers); no copy of A.
        grid, mask = build_ball_grid(4.0, 32)
        order = _colour_order(grid, mask)
        arrays = [order.node, order.diag, order.inv_diag]
        for a in (order.lower, order.upper) + order.rows + order.columns:
            arrays += [a.data, a.indices, a.indptr]
        bases = {}
        for a in arrays:
            while a.base is not None:
                a = a.base
            bases[id(a)] = a.nbytes
        lower = order.lower
        m = order.node.size
        l_bytes = lower.data.nbytes + lower.indices.nbytes + lower.indptr.nbytes
        assert sum(bases.values()) <= l_bytes + 3 * m * 8


class TestColourBlocks:
    """The three-colour order of the descent's Gauss-Seidel sweep."""

    @staticmethod
    def _grids():
        ball = build_ball_grid(4.0, 32)
        box = build_ball_grid(2.5, 12)[0]
        # (k, N, N_t) = (3, 24, 72): h_t = h_x
        t_resolved = Grid3((24, 24, 72), (0.25, 0.25, 0.125), (-3.0, -3.0, -9.0))
        return [ball, (box, full_mask(box)), (t_resolved, ball_mask(t_resolved, 3.0))]

    @pytest.mark.parametrize("case", range(3))
    def test_no_entry_joins_two_nodes_of_one_colour(self, case):
        grid, mask = self._grids()[case]
        a = oracle_operator(grid, mask).tocoo()
        colour, _ = grid_module._node_colours(grid, mask, coupling_offsets(grid))
        off = a.row != a.col
        assert off.any()
        assert np.all(colour[a.row[off]] != colour[a.col[off]])

    @pytest.mark.parametrize("name, grid, mask", ASSEMBLY_CASES,
                             ids=[c[0] for c in ASSEMBLY_CASES])
    def test_forward_b_gives_three_colours(self, name, grid, mask):
        # (1, 1, 2) mod 3: no two colours keep forward B's coupling offsets
        # apart, and these are the first weights mod 3 that do.
        colour, count = grid_module._node_colours(grid, mask, coupling_offsets(grid))
        i, j, l = np.indices(grid.shape)
        assert count == 3
        assert np.array_equal(colour, ((i + j + 2 * l) % 3)[mask])

    def test_symmetric_b_gives_four_colours(self):
        # B_s couples a node along +-e_x, +-e_y, +-e_t, +-e_x +- e_t and
        # +-e_y +- e_t, which no weights mod 3 keep apart: (1, 1, 2) mod 4.
        e = np.eye(3, dtype=int)
        steps = [e[0], e[1], e[2]] + [e[a] + s * e[2] for a in (0, 1) for s in (1, -1)]
        offsets = {tuple(int(x) for x in sign * d) for d in steps for sign in (1, -1)}
        grid = build_ball_grid(2.5, 12)[0]
        colour, count = grid_module._node_colours(grid, full_mask(grid), offsets)
        i, j, l = np.indices(grid.shape)
        assert count == 4
        assert np.array_equal(colour, ((i + j + 2 * l) % 4).reshape(-1))

    @pytest.mark.parametrize("case", range(3))
    def test_blocks_are_the_lower_blocks_of_a(self, case):
        # L's colour-1 rows are the block A_10, its colour-2 rows [A_20 A_21],
        # and their CSC transposes the upper blocks.
        grid, mask = self._grids()[case]
        a = oracle_operator(grid, mask)
        order = grid_module._colour_order(grid, mask)
        perm, (n0, n01) = colour_perm(order, mask), order.split
        assert np.array_equal(np.sort(perm), np.arange(a.shape[0]))
        for rows, row, upper in zip((perm[n0:n01], perm[n01:]), order.rows, order.columns):
            assert row.format == "csr" and upper.format == "csc"
            row, upper = scipy_array(row), scipy_array(upper)
            assert (row != a[rows][:, perm[:row.shape[1]]]).nnz == 0
            assert (upper != row.T).nnz == 0
        assert grid_module._colour_order(grid, mask) is order

    @pytest.mark.parametrize("case", [0, 2], ids=["4-32", "3-24-72"])
    def test_box_round_trip(self, case):
        # `colour` and `box`, the package's only translations between a
        # field's box array and the colour order: a vector written to the
        # box and read back is itself, bit for bit, and a box array read and
        # written back is itself off-mask zeroed.  A (box nodes, 4) block is
        # read column by column at once.
        grid, mask = self._grids()[case]
        order = grid_module._colour_order(grid, mask)
        rng = np.random.default_rng(39)
        v = rng.standard_normal(order.node.size)
        x = rng.standard_normal(grid.shape)
        for got, want in ((order.colour(order.box(v)), v),
                          (order.box(order.colour(x)), np.where(mask, x, 0.0))):
            assert got.shape == want.shape
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        block = rng.standard_normal((mask.size, 4))
        got = order.colour(block)
        assert got.shape == (order.node.size, 4)
        assert np.array_equal(got, np.stack([order.colour(c) for c in block.T], axis=1))
        assert np.array_equal(order.colour(np.arange(mask.size).reshape(grid.shape)), order.node)

    @pytest.mark.parametrize("case", range(3))
    def test_lower_is_the_strictly_lower_part_in_colour_order(self, case):
        grid, mask = self._grids()[case]
        a = oracle_operator(grid, mask)
        order = grid_module._colour_order(grid, mask)
        lower, upper, perm = order.lower, order.upper, colour_perm(order, mask)
        want = sparse.tril(a[perm][:, perm], k=-1).tocsr()
        assert lower.format == "csr" and upper.format == "csc"
        got = scipy_array(lower)
        assert got.nnz == want.nnz and (got != want).nnz == 0
        assert (scipy_array(upper) != want.T).nnz == 0
        # the strictly lower part holds half of A's off-diagonal entries
        assert 2 * got.nnz + a.shape[0] == a.nnz
        assert lower.indices.dtype == lower.indptr.dtype == np.int32 == a.indices.dtype
        for piece in (upper,) + order.rows + order.columns:
            assert np.shares_memory(piece.data, lower.data)
            assert np.shares_memory(piece.indices, lower.indices)
        np.testing.assert_array_equal(order.inv_diag, 1.0 / a.diagonal()[perm])


class TestKernels:
    """`grid._Compressed`'s product, scipy's compiled CSR/CSC kernels called
    on the piece's own arrays, against scipy's `@` on the same arrays."""

    @pytest.mark.parametrize("case", range(3), ids=["4-32", "full-2.5-12", "3-24-72"])
    def test_products_are_scipys_byte_for_byte(self, case):
        # L, U and every colour piece, on a vector, a C- and an F-ordered
        # (n, 4) block and a single column.
        grid, mask = TestColourBlocks._grids()[case]
        order = _colour_order(grid, mask)
        rng = np.random.default_rng(43)
        for piece in (order.lower, order.upper) + order.rows + order.columns:
            n = piece.shape[1]
            block = rng.standard_normal((n, 4))
            for x in (rng.standard_normal(n), block, np.asfortranarray(block), block[:, :1]):
                got, want = piece @ x, scipy_array(piece) @ x
                assert got.shape == want.shape and got.dtype == want.dtype
                assert got.tobytes() == want.tobytes()

    def test_refuses_a_vector_of_another_length(self):
        # The kernels read n entries of x whatever its length.
        grid, mask = build_ball_grid(2.5, 12)
        lower = _colour_order(grid, mask).lower
        for shape in ((lower.shape[1] + 1,), (lower.shape[1] - 1, 4), (lower.shape[1], 1, 1)):
            with pytest.raises(ValueError, match="cannot multiply"):
                lower @ np.zeros(shape)

    def test_kernels_are_a_private_copy(self):
        # Loaded under the package's name, beside scipy.sparse's own copy.
        kernels = grid_module._sparsetools()
        assert kernels.__name__ == "heisground._sparsetools"
        assert sparse._sparsetools is not kernels
        assert grid_module._sparsetools() is kernels  # loaded once

    @pytest.mark.parametrize("scipy_found", [True, False], ids=["no-kernel-file", "no-scipy"])
    def test_missing_kernel_file_raises_import_error(self, scipy_found, monkeypatch, tmp_path):
        import importlib.machinery
        import importlib.util

        scipy = importlib.machinery.ModuleSpec("scipy", None, is_package=True)
        scipy.submodule_search_locations.append(str(tmp_path))  # holds no sparse/
        find_spec = importlib.util.find_spec
        monkeypatch.setattr(importlib.util, "find_spec", lambda name, package=None: (
            (scipy if scipy_found else None) if name == "scipy" else find_spec(name, package)))
        monkeypatch.setattr(grid_module, "_kernels", None)  # not loaded yet
        with pytest.raises(ImportError, match="scipy's sparse/_sparsetools"):
            grid_module._sparsetools()


class TestQuadrature:
    def test_zero_norms(self):
        grid, mask = build_ball_grid(1.0, 12)
        u = ScalarField(grid, np.zeros(grid.shape), mask)
        assert midpoint_integral(u) == 0.0
        assert l2_norm(u) == 0.0

    def test_plateau_integral(self):
        grid, mask = build_ball_grid(1.0, 12)
        u = ScalarField(grid, np.ones(grid.shape), mask)
        assert midpoint_integral(u) == pytest.approx(mask.sum() * grid.cell_volume, rel=1e-13)
        assert lq_norm(u, 1.0) == midpoint_integral(u)

    def test_gaussian_l2_closed_form(self):
        grid, mask = build_ball_grid(3.0, 40)
        xs, ys, ts = grid.coordinate_arrays()
        u = ScalarField(
            grid, np.exp(-(xs**2 + ys**2 + ts**2)), np.ones(grid.shape, dtype=bool)
        )
        # int exp(-2(x^2+y^2+t^2)) = (pi/2)^(3/2)
        assert l2_norm(u) == pytest.approx((np.pi / 2.0) ** 0.75, rel=5e-3)

    def test_lq_rejects_bad_exponent(self):
        grid, mask = build_ball_grid(1.0, 12)
        u = ScalarField(grid, np.ones(grid.shape), mask)
        with pytest.raises(DomainError):
            lq_norm(u, 0.5)

    @pytest.mark.parametrize("q", [np.nan, np.inf, -np.inf])
    def test_lq_rejects_non_finite_exponent(self, q):
        grid, mask = build_ball_grid(1.0, 12)
        u = ScalarField(grid, np.full(grid.shape, 2.0), mask)
        with pytest.raises(DomainError):
            lq_norm(u, q)


def power_test_arrays():
    """Nonnegative arrays with exact zeros, values down to 1e-108 and 1."""
    rng = np.random.default_rng(5)
    spread = 10.0 ** rng.uniform(-108.0, 0.0, 4000)
    spread[rng.uniform(size=spread.size) < 0.3] = 0.0
    return {"spread": np.concatenate([spread, [0.0, 1.0, 1e-108]]),
            "unit": rng.uniform(size=(12, 12, 12)),
            "sparse": np.where(rng.uniform(size=(12, 12, 12)) < 0.9, 0.0,
                               rng.uniform(size=(12, 12, 12)))}


class TestPowerRule:
    """`grid._power`: two products at q = 3, numpy's general power elsewhere."""

    @pytest.mark.parametrize("name", ["spread", "unit", "sparse"])
    def test_cube_within_two_ulps(self, name):
        a = power_test_arrays()[name]
        ref = a**3.0
        got = grid_module._power(a, 3.0)
        assert np.all(np.abs(got - ref) <= 2.0 * np.spacing(ref))
        assert np.array_equal(got == 0.0, ref == 0.0)
        assert np.array_equal(got, (a * a) * a)
        assert got is not a

    @pytest.mark.parametrize("q", [1.0, 1.5, 2.0, 2.5, 2.999999999999, 3.5, 4.0, 6.0])
    @pytest.mark.parametrize("name", ["spread", "unit", "sparse"])
    def test_other_exponents_are_the_general_power(self, name, q):
        a = power_test_arrays()[name]
        assert np.array_equal(grid_module._power(a, q), a**q)

    def test_lq_mass_uses_the_rule(self):
        grid, mask = build_ball_grid(2.0, 12)
        rng = np.random.default_rng(6)
        u = ScalarField(grid, rng.standard_normal(grid.shape), mask)
        for q in (1.5, 3.0, 4.0):
            want = float(grid_module._power(np.abs(u.values), q).sum()) * grid.cell_volume
            assert grid_module._lq_mass(u, q) == want
            assert lq_norm(u, q) == want ** (1.0 / q)
        general = float((np.abs(u.values) ** 3.0).sum()) * grid.cell_volume
        assert grid_module._lq_mass(u, 3.0) == pytest.approx(general, rel=1e-15)


class TestEmbeddingAndExtension:
    def test_zero_extension_preserves_norms(self):
        # ||u||^2 sums over the box array, so the added zeros change no sum
        for k, n in [(2.0, 16), (2.5, 12), (4.0, 32)]:
            grid, _ = build_ball_grid(k, n)
            xs, ys, ts = grid.coordinate_arrays()
            gaussian = np.exp(-(xs**2 + ys**2) - 0.25 * ts**2)
            fields = [gaussian] + [np.random.default_rng(seed).standard_normal(grid.shape)
                                   for seed in (15, 16, 17)]
            for frac in (0.5, 0.6, 0.7, 0.8, 0.9):
                small = ball_mask(grid, frac * k)
                for values in fields:
                    u = ScalarField(grid, values, small)
                    for big in (ball_mask(grid, k), full_mask(grid)):
                        v = zero_extend(u, big)
                        assert l2_norm(u) == l2_norm(v)
                        assert e_norm_sq(u) == e_norm_sq(v)

    def test_zero_extension_rejects_shrinking(self):
        grid, _ = build_ball_grid(2.0, 16)
        m1 = ball_mask(grid, 1.0)
        m2 = ball_mask(grid, 2.0)
        u = ScalarField(grid, np.ones(grid.shape), m2)
        with pytest.raises(DomainError):
            zero_extend(u, m1)


def test_dirichlet_invariant():
    grid, mask = build_ball_grid(1.5, 12)
    u = ScalarField(grid, np.ones(grid.shape), mask)
    assert np.all(u.values[~mask] == 0.0)
    with pytest.raises(ConfigurationError):
        ScalarField(grid, np.full(grid.shape, np.inf), mask)
