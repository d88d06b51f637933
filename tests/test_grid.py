"""Grids, masks, discrete operators, quadrature and norms."""

import numpy as np
import pytest
from scipy import sparse
from scipy.ndimage import binary_erosion

from heisground import grid as grid_module
from heisground.errors import ConfigurationError, DomainError
from heisground.grid import (
    Grid3,
    ScalarField,
    apply_Xh,
    apply_Yh,
    ball_mask,
    build_ball_grid,
    e_norm_sq,
    embedding_ratio,
    energy_operator,
    full_mask,
    inner,
    integrate,
    l2_norm,
    lq_norm,
    sublaplacian_values,
    zero_extend,
)
from heisground.heis_core import analytic_horizontal_derivative, gaussian_test_function


def deep_interior(mask, cells=2):
    return binary_erosion(mask, iterations=cells)


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
        with pytest.raises(ConfigurationError):
            build_ball_grid(1.0, 4)
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
        assert np.all(apply_Xh(u).values == 0.0)
        assert np.all(apply_Yh(u).values == 0.0)
        assert np.all(sublaplacian_values(u) == 0.0)

    def test_X_of_linear(self):
        grid, mask = build_ball_grid(2.0, 16)
        xs, _, _ = grid.coordinate_arrays()
        u = ScalarField(grid, np.broadcast_to(xs, grid.shape).copy(), mask)
        gx = apply_Xh(u).values
        deep = deep_interior(mask, 2)
        assert np.allclose(gx[deep], 1.0, atol=1e-12)

    def test_X_of_t_is_2y(self):
        grid, mask = build_ball_grid(2.0, 16)
        _, ys, ts = grid.coordinate_arrays()
        u = ScalarField(grid, np.broadcast_to(ts, grid.shape).copy(), mask)
        gx = apply_Xh(u).values
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
        gx, gy = apply_Xh(u), apply_Yh(u)
        direct = inner(gx, gx) + inner(gy, gy)
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
        assert np.abs(apply_Xh(u).values - gx).max() < 1e-13
        assert np.abs(apply_Yh(u).values - gy).max() < 1e-13

    def test_first_order_against_gaussian(self):
        tf = gaussian_test_function(1.0, 0.25)

        def max_err(n):
            grid, mask = build_ball_grid(2.0, n)
            xs, ys, ts = grid.coordinate_arrays()
            u = ScalarField(grid, np.exp(-(xs**2 + ys**2) - 0.25 * ts**2), mask)
            gx, gy = apply_Xh(u).values, apply_Yh(u).values
            errs = []
            for idx in zip(*np.nonzero(grid.gauge_array() < 1.2)):
                z = grid.node_point(idx)
                errs.append(abs(gx[idx] - analytic_horizontal_derivative(tf, z, "X")))
                errs.append(abs(gy[idx] - analytic_horizontal_derivative(tf, z, "Y")))
            return max(errs)

        assert 1.6 < max_err(16) / max_err(32) < 2.5


def kronecker_gradient(grid, mask):
    """B = [X_h; Y_h] by Kronecker products of the 1-D forward differences
    (u[+1] - u) / h, with u = 0 beyond the box edge: X_h = D_x + diag(2y) D_t
    and Y_h = D_y - diag(2x) D_t, keeping the mask columns."""
    (nx, ny, nt), (hx, hy, ht) = grid.shape, grid.spacing
    cols = np.flatnonzero(mask)

    def diff(before, n, h, after):
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
    B.sort_indices()
    return B


class TestStencilAgainstKronecker:
    """The stencil and the CSR B assembled from it, bit for bit against the
    Kronecker-product assembly of the same differences."""

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
        got = grid_module._assemble_gradient(grid, mask)
        assert got.shape == want.shape
        for name in ("indptr", "indices", "data"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype, name
            assert np.array_equal(a.view(np.uint8), b.view(np.uint8)), name

        u = ScalarField(grid, np.random.default_rng(26).standard_normal(grid.shape), mask)
        g = want @ u.interior()
        n_box = u.values.size
        for apply, block in ((apply_Xh, g[:n_box]), (apply_Yh, g[n_box:])):
            values = apply(u).values.ravel()
            assert np.array_equal(values.view(np.uint64), block.view(np.uint64))
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
    @pytest.mark.parametrize("k, n", [(1.5, 12), (4.0, 32)])
    def test_exactly_symmetric(self, k, n):
        grid, mask = build_ball_grid(k, n)
        a = energy_operator(grid, mask)
        assert (a != a.T).nnz == 0

    @pytest.mark.parametrize(
        "k, n, box", [(1.5, 12, False), (4.0, 32, False), (1.5, 12, True)]
    )
    def test_quadratic_form_matches_reference(self, k, n, box):
        rng = np.random.default_rng(16)
        grid, mask = build_ball_grid(k, n)
        if box:
            mask = full_mask(grid)
        a = energy_operator(grid, mask)
        for _ in range(3):
            u = ScalarField(grid, rng.standard_normal(grid.shape), mask)
            v = u.interior()
            ref = reference_energy(u)
            assert float(v @ (a @ v)) * grid.cell_volume == pytest.approx(ref, rel=1e-13)
            assert e_norm_sq(u) == pytest.approx(ref, rel=1e-13)

    def test_grid_of_arrays_keys_the_cache(self, monkeypatch):
        # The cache compares grids with ==, which raised numpy's "truth value
        # of an array is ambiguous" for every later grid once a grid of
        # ndarrays was cached.
        monkeypatch.setattr(grid_module, "_operator_cache", [])
        grid, mask = build_ball_grid(1.5, 12)
        arrays = Grid3(np.array(grid.shape), np.array(grid.spacing), np.array(grid.corner))
        a = energy_operator(arrays, mask)
        assert energy_operator(grid, mask) is a
        other, other_mask = build_ball_grid(2.0, 12)
        assert energy_operator(other, other_mask).shape[0] == np.count_nonzero(other_mask)

    def test_cached_per_grid_and_mask(self, monkeypatch):
        monkeypatch.setattr(grid_module, "_operator_cache", [])
        grid, mask = build_ball_grid(1.5, 12)
        a = energy_operator(grid, mask)
        assert energy_operator(grid, mask) is a
        entries = len(grid_module._operator_cache)
        assert energy_operator(grid, mask.copy()) is a
        assert len(grid_module._operator_cache) == entries  # no duplicate entry
        assert energy_operator(grid, ball_mask(grid, 1.0)) is not a
        mask[tuple(n // 2 for n in grid.shape)] = False  # edited in place
        b = energy_operator(grid, mask)
        assert b is not a and b.shape[0] == a.shape[0] - 1

    def test_cache_bounded_across_exhaustion(self):
        from heisground.solvers import SolverConfig, exhaust_domains

        cfg = SolverConfig(p=2.0, ball_radius=2.5, nodes_per_axis=12, grad_tol=1e-3)
        radii = [1.5, 1.75, 2.0, 2.25, 2.5]
        exhaust_domains(radii, cfg)
        assert len(radii) > grid_module._OPERATOR_CACHE_SIZE
        assert len(grid_module._operator_cache) <= grid_module._OPERATOR_CACHE_SIZE

    def test_constrained_min_regression(self, small_cm):
        # k = 2.5, N = 12, grad_tol 1e-4: the figures of the Anderson-mixed
        # normalized inverse iteration from the bump at t = -h_t/2, with the
        # projected CG start and the CG tolerance relative to the right-hand
        # side (57 steps to 3.361380576873721 without the mix; 71 steps to
        # 3.361380577059283 from the origin-centered bump; 74 steps to
        # 3.36138057632623 with 0.1 |g| as the relative tolerance; 68 steps
        # to 3.361380576604642 from the last solution alone; the L^2 flow
        # took 1016 steps to 3.361380577693041).
        assert small_cm.iterations == 19
        assert small_cm.level == pytest.approx(3.3613805759909603, rel=1e-12)

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


class TestQuadrature:
    def test_zero_norms(self):
        grid, mask = build_ball_grid(1.0, 12)
        u = ScalarField(grid, np.zeros(grid.shape), mask)
        assert integrate(u) == 0.0
        assert l2_norm(u) == 0.0

    def test_plateau_integral(self):
        grid, mask = build_ball_grid(1.0, 12)
        u = ScalarField(grid, np.ones(grid.shape), mask)
        assert integrate(u) == pytest.approx(mask.sum() * grid.cell_volume, rel=1e-13)
        assert lq_norm(u, 1.0) == integrate(u)

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
    def test_embedding_ratio_scale_invariant(self):
        rng = np.random.default_rng(14)
        grid, mask = build_ball_grid(2.0, 12)
        u = ScalarField(grid, rng.standard_normal(grid.shape), mask)
        r1 = embedding_ratio(u, 3.0)
        r2 = embedding_ratio(u.with_values(7.5 * u.values), 3.0)
        assert r1 > 0
        assert r1 == pytest.approx(r2, rel=1e-12)

    def test_embedding_ratio_domain_errors(self):
        grid, mask = build_ball_grid(2.0, 12)
        u = ScalarField(grid, np.ones(grid.shape), mask)
        with pytest.raises(DomainError):
            embedding_ratio(u, 10.0)
        z = ScalarField(grid, np.zeros(grid.shape), mask)
        with pytest.raises(DomainError):
            embedding_ratio(z, 3.0)

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
