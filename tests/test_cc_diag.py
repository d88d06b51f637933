"""Concentration-compactness diagnostics."""

import numpy as np
import pytest
from scipy.interpolate import RegularGridInterpolator

from heisground.cc_diag import (
    _MAX_BISECT,
    _ball_masses,
    _gauge_dist_sq4,
    _half_mass_scale,
    _padded_cumsum,
    ball_mass,
    classify_sequence,
    concentration,
    concentration_profile,
    cutoff,
    dilate_field,
    dilation_normalize,
    energy_split,
    group_translate_field,
    normalize_mass,
)
from heisground.errors import AlgorithmError, DomainError
from heisground.grid import Grid3, ScalarField, build_ball_grid, full_mask
from heisground.heis_core import GroupPoint

Q_EXP = 3.0  # L^q exponent used throughout (p + 1 with p = 2)


def flat_grid(k=3.5, n=20):
    """Box grid with t-spacing equal to h_x (fine enough for ball masses)."""
    hx = 2.0 * k / n
    nt = int(round(2.0 * k * k / hx))
    grid = Grid3((n, n, nt), (hx, hx, hx), (-k, -k, -k * k))
    return grid, full_mask(grid)


def gauge_bump(grid, cx, cy, ct, w):
    """exp(-d(z, c)^2 / w^2) in the gauge distance."""
    d4 = _gauge_dist_sq4(grid, GroupPoint.of(cx, cy, ct))
    return np.exp(-np.sqrt(d4 + 1e-300) / w**2)


@pytest.fixture(scope="module")
def box():
    return flat_grid()


@pytest.fixture(scope="module")
def centered_density(box):
    grid, mask = box
    u = ScalarField(grid, gauge_bump(grid, 0.0, 0.0, 0.0, 0.6), mask)
    return normalize_mass(u, Q_EXP)


class TestNormalizeMass:
    def test_unit_total(self, box):
        grid, mask = box
        rng = np.random.default_rng(31)
        u = ScalarField(grid, rng.standard_normal(grid.shape), mask)
        d = normalize_mass(u, Q_EXP)
        assert d.total_mass == pytest.approx(1.0, abs=1e-10)
        assert d.field.values.min() >= 0.0

    def test_scale_invariant(self, box):
        grid, mask = box
        u = ScalarField(grid, gauge_bump(grid, 0.5, 0.0, 0.0, 0.5), mask)
        d1 = normalize_mass(u, Q_EXP)
        d2 = normalize_mass(u.with_values(2.0 * u.values), Q_EXP)
        assert np.allclose(d1.field.values, d2.field.values, atol=1e-13)

    def test_rejects_zero(self, box):
        grid, mask = box
        with pytest.raises(DomainError):
            normalize_mass(ScalarField(grid, np.zeros(grid.shape), mask), Q_EXP)

    @pytest.mark.parametrize("value", [1e200, 1e-200])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_accepts_any_finite_scale(self, box, value):
        # |u|^q overflows (inf / inf) or underflows (zero mass) if taken first
        grid, mask = box
        d = normalize_mass(ScalarField(grid, np.full(grid.shape, value), mask), Q_EXP)
        assert np.all(d.field.values == d.field.values.flat[0])
        assert d.total_mass == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("scale", [2.0**600, 2.0**-600])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_power_of_two_scale_leaves_classify_unchanged(self, box, scale):
        grid, mask = box
        bumps = [gauge_bump(grid, -1.2 + 0.4 * m, 0.2, 0.3, 0.6) for m in range(4)]

        def verdict(s):
            dens = [normalize_mass(ScalarField(grid, s * v, mask), Q_EXP) for v in bumps]
            return classify_sequence(dens, eps=0.05, R_grid=[0.5, 1.0, 2.0]).as_dict()

        assert verdict(scale) == verdict(1.0)


class TestConcentration:
    def test_whole_box_captured(self, centered_density):
        m = ball_mass(centered_density, 50.0, GroupPoint.of(0.0, 0.0, 0.0))
        assert m == pytest.approx(1.0, abs=1e-10)

    def test_monotone_in_R(self, centered_density):
        prof = concentration_profile(centered_density, [0.5, 1.0, 1.5, 2.0, 3.0])
        qs = [q for _, q, _ in prof.samples]
        assert all(b >= a - 1e-12 for a, b in zip(qs, qs[1:]))
        assert all(0.0 <= q <= 1.0 + 1e-12 for q in qs)

    def test_centered_bump_mostly_inside(self, centered_density):
        q, center = concentration(centered_density, 1.8)
        assert q > 0.99
        # argmax center stays near the origin
        assert abs(center.x[0]) < 0.5 and abs(center.y[0]) < 0.5

    def test_translation_moves_witness(self, box):
        grid, mask = box
        u = ScalarField(grid, gauge_bump(grid, -1.0, 0.5, 0.0, 0.5), mask)
        d = normalize_mass(u, Q_EXP)
        q, center = concentration(d, 1.5)
        assert q > 0.9
        assert center.x[0] == pytest.approx(-1.0, abs=0.5)

    def test_center_ignores_rounding_ties(self):
        # The criterion-7 vanishing family is nearly flat, so many balls hold
        # the same mass up to rounding; a first-maximum rule moved 10 of
        # these 180 centers, by up to 0.7, under a 3e-16 perturbation.
        grid, mask = flat_grid()
        moved = 0
        for seed in range(10):
            rng = np.random.default_rng(seed)
            rng.uniform(size=3)  # the compactness family's draws
            w, rate = rng.uniform(0.4, 0.6), rng.uniform(0.6, 0.8)
            base = ScalarField(grid, gauge_bump(grid, 0, 0, 0, w), mask)
            noise = np.random.default_rng(100 + seed)
            for m in range(1, 7):
                d = normalize_mass(dilate_field(base, 1.0 / (1.0 + rate * m), Q_EXP), Q_EXP)
                wiggle = 1.0 + noise.uniform(-3e-16, 3e-16, grid.shape)
                dp = normalize_mass(ScalarField(grid, d.field.values * wiggle, mask), 1.0)
                for R in (0.25, 0.5, 1.0):
                    q, c = concentration(d, R)
                    qp, cp = concentration(dp, R)
                    assert qp == pytest.approx(q, rel=1e-14)
                    moved += (c.x[0], c.y[0], c.t) != (cp.x[0], cp.y[0], cp.t)
        assert moved == 0


@pytest.fixture(scope="module")
def small_density():
    """Random density on a small box with 10 nodes per horizontal axis, so
    the origin is not a node.  No node lies within 4e-4 (relative) of a
    tested gauge sphere about another node, so rounding cannot flip a node
    between the kernel and the brute-force sum."""
    grid = Grid3((10, 10, 16), (0.3, 0.3, 0.3), (-1.5, -1.5, -2.4))
    vals = np.random.default_rng(7).uniform(0.0, 1.0, grid.shape)
    return normalize_mass(ScalarField(grid, vals, full_mask(grid)), 1.0)


def brute_ball_mass(density, R, center):
    """Sum of the density over the nodes with rho(center^-1 w) < R."""
    grid = density.field.grid
    inside = _gauge_dist_sq4(grid, center) < R**4
    return float((density.field.values * inside).sum()) * grid.cell_volume


def random_density(grid, seed):
    vals = np.random.default_rng(seed).uniform(0.0, 1.0, grid.shape)
    return normalize_mass(ScalarField(grid, vals, full_mask(grid)), 1.0)


def lattice_masses(density, R, stride):
    """The kernel on concentration's center lattice: (masses, a, b, ts)."""
    grid = density.field.grid
    ia = np.arange(0, grid.shape[0], stride)
    ib = np.arange(0, grid.shape[1], stride)
    ts = grid.axis_coords(2)[::stride]
    ia, ib = np.repeat(ia, len(ib)), np.tile(ib, len(ia))
    a, b = grid.axis_coords(0)[ia], grid.axis_coords(1)[ib]
    csum = _padded_cumsum(density.field.values, stride * (len(ts) - 1))
    masses = _ball_masses(grid, csum, R, ia, ib, a, b, ts[0], stride, len(ts))
    assert masses.shape == (len(a), len(ts))
    return masses, a, b, ts


class TestBallMassOracle:
    """The windowed kernel against a full-grid sum over the gauge ball."""

    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("R", [0.25, 0.5, 1.0, 2.0, 50.0])
    def test_concentration_matches_brute_force(self, small_density, R, stride):
        grid = small_density.field.grid
        xs, ys, ts = (grid.axis_coords(i)[::stride] for i in range(3))
        best = max(
            brute_ball_mass(small_density, R, GroupPoint.of(a, b, c))
            for a in xs for b in ys for c in ts
        )
        q, center = concentration(small_density, R, stride)
        assert q == pytest.approx(best, abs=1e-12)
        assert brute_ball_mass(small_density, R, center) == pytest.approx(q, abs=1e-12)

    @pytest.mark.parametrize("R", [0.3, 1.0, 2.5, 50.0])
    @pytest.mark.parametrize(
        "center", [(0.0, 0.0, 0.0), (0.1, -0.27, 0.33), (-1.0, 0.5, 1.7), (3.0, 0.0, 0.0)]
    )
    def test_ball_mass_off_lattice(self, small_density, R, center):
        z = GroupPoint.of(*center)
        assert ball_mass(small_density, R, z) == pytest.approx(
            brute_ball_mass(small_density, R, z), abs=1e-12
        )

    @pytest.mark.parametrize("stride", [1, 2, 3])
    @pytest.mark.parametrize("R", [0.25, 0.5, 1.0, 2.0, 50.0])
    def test_lattice_kernel_matches_single_centers(self, R, stride):
        # small_density's geometry cut to 13 t-nodes (a multiple of neither
        # 2 nor 3), so the node-to-sphere margin above still holds
        density = random_density(Grid3((10, 10, 13), (0.3, 0.3, 0.3), (-1.5, -1.5, -1.95)), 11)
        masses, a, b, ts = lattice_masses(density, R, stride)
        centers = [[GroupPoint.of(x, y, t) for t in ts] for x, y in zip(a, b)]
        single = np.array([[ball_mass(density, R, z) for z in row] for row in centers])
        brute = np.array([[brute_ball_mass(density, R, z) for z in row] for row in centers])
        assert np.all(np.abs(masses - single) <= 1e-14 * single)
        assert np.max(np.abs(masses - brute)) <= 1e-12

    @pytest.mark.parametrize("stride", [1, 2, 3])
    def test_clamped_radius_on_tall_box(self, stride):
        # R clamps to _radius_cap, so every window end is clipped to
        # [-last, nt] and read through the cumsum's padding (last >= 198)
        density = random_density(Grid3((8, 8, 201), (0.3, 0.3, 0.02), (-1.2, -1.2, -2.01)), 5)
        masses, *_ = lattice_masses(density, 1e308, stride)
        assert np.max(np.abs(masses - 1.0)) <= 1e-12

    def test_huge_radius_holds_all_mass(self, small_density):
        q, _ = concentration(small_density, 1e308)
        assert q == pytest.approx(1.0, abs=1e-12)
        m = ball_mass(small_density, 1e308, GroupPoint.of(0.1, -0.2, 0.3))
        assert m == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("center", [(float("nan"), 0.0, 0.0), (0.0, 0.0, float("inf"))])
    def test_rejects_nonfinite_center(self, small_density, center):
        with pytest.raises(DomainError):
            ball_mass(small_density, 1.0, GroupPoint.of(*center))

    @pytest.mark.parametrize("stride", [0, -3, 1.5])
    def test_rejects_bad_stride(self, small_density, stride):
        with pytest.raises(DomainError):
            concentration(small_density, 1.0, stride)
        with pytest.raises(DomainError):
            concentration_profile(small_density, [1.0], stride)
        with pytest.raises(DomainError):
            classify_sequence([small_density] * 3, 0.1, [1.0], center_stride=stride)

    @pytest.mark.parametrize("eps", [0.0, 0.5, 2.0, -0.1, float("nan")])
    def test_rejects_bad_eps(self, small_density, eps):
        with pytest.raises(DomainError):
            classify_sequence([small_density] * 3, eps, [1.0])

    @pytest.mark.parametrize("q", [0.0, -1.0, 0.5, float("nan"), float("inf")])
    def test_rejects_bad_exponent(self, small_density, q):
        with pytest.raises(DomainError):
            normalize_mass(small_density.field, q)
        with pytest.raises(DomainError):
            dilate_field(small_density.field, 1.0, q)


def translated_by_interpolator(u, a, b, c):
    """u(z0 * w) at every node w by scipy's trilinear interpolator, zero fill."""
    grid = u.grid
    axes = tuple(grid.axis_coords(i) for i in range(3))
    interp = RegularGridInterpolator(axes, u.values, bounds_error=False, fill_value=0.0)
    xs, ys, ts = grid.coordinate_arrays()
    pts = np.stack(
        [np.broadcast_to(p, grid.shape).ravel()
         for p in (xs + a, ys + b, ts + c + 2.0 * (b * xs - a * ys))],
        axis=1,
    )
    return interp(pts).reshape(grid.shape)


class TestDilation:
    @pytest.mark.parametrize("lam", [0.3, 0.8, 1.25, 3.0])
    def test_matches_trilinear_interpolator(self, box, lam):
        grid, mask = box
        u = ScalarField(grid, gauge_bump(grid, 0.3, -0.2, 0.2, 0.9), mask)
        axes = tuple(grid.axis_coords(i) for i in range(3))
        interp = RegularGridInterpolator(axes, u.values, bounds_error=False, fill_value=0.0)
        xs, ys, ts = grid.coordinate_arrays()
        pts = np.stack(
            [np.broadcast_to(p, grid.shape).ravel()
             for p in (lam * xs, lam * ys, lam * lam * ts)],
            axis=1,
        )
        expected = lam ** (4.0 / Q_EXP) * interp(pts).reshape(grid.shape)
        got = dilate_field(u, lam, Q_EXP).values
        assert np.max(np.abs(got - expected)) <= 1e-13 * np.max(np.abs(expected))

    def test_translation_matches_interpolator(self, box):
        grid, mask = box
        u = ScalarField(grid, gauge_bump(grid, 0.3, -0.2, 0.2, 0.9), mask)
        a, b, c = 0.6, -0.4, 0.3
        got = group_translate_field(u, GroupPoint.of(a, b, c)).values
        assert np.array_equal(got, translated_by_interpolator(u, a, b, c))

    @pytest.mark.parametrize("geometry", ["box", "unequal-spacings"])
    @pytest.mark.parametrize("kind, shift", [
        ("identity", (0.0, 0.0, 0.0)),
        ("node-aligned", (1, -2, 3)),  # whole cells on every axis
        ("fractional", (0.6, -0.4, 0.3)),  # fractions of the box half-widths
        ("fractional", (-0.13, 0.77, -1.1)),
        ("beyond-x", (2.0, 0.0, 0.0)),  # every point outside: all fill
        ("beyond-y", (0.0, -2.0, 0.0)),
        ("beyond-t", (0.0, 0.0, 2.0)),
    ])
    def test_translation_matches_interpolator_on_more_shifts(self, box, geometry,
                                                             kind, shift):
        if geometry == "box":
            grid, mask = box
        else:
            grid = Grid3((9, 13, 17), (0.3, 0.25, 0.4), (-1.3, -1.6, -3.5))
            mask = full_mask(grid)
        scale = grid.spacing if kind == "node-aligned" else [-x0 for x0 in grid.corner]
        a, b, c = (s * h for s, h in zip(shift, scale))
        u = ScalarField(grid, gauge_bump(grid, 0.3, -0.2, 0.2, 0.9), mask)
        got = group_translate_field(u, GroupPoint.of(a, b, c)).values
        assert np.array_equal(got, translated_by_interpolator(u, a, b, c))
        assert got.any() != kind.startswith("beyond")

    def test_scaling_exponent_exact(self, box):
        # compare against the analytically dilated field at the nodes;
        # only interpolation error remains, so the lam prefactor is pinned
        grid, mask = box
        xs, ys, ts = grid.coordinate_arrays()
        u = ScalarField(grid, np.exp(-(xs**2 + ys**2) - ts**2 / 4.0), mask)
        for lam in (0.8, 1.25):
            v = dilate_field(u, lam, Q_EXP)
            expected = lam ** (4.0 / Q_EXP) * np.exp(
                -(lam**2) * (xs**2 + ys**2) - lam**4 * ts**2 / 4.0
            )
            assert np.max(np.abs(v.values - expected)) < 0.05

    def test_mass_preservation_improves_with_resolution(self):
        # trilinear resampling biases the q-mass low; the bias is pure
        # interpolation error and shrinks under refinement
        def rel_err(n, lam):
            grid, mask = flat_grid(3.5, n)
            xs, ys, ts = grid.coordinate_arrays()
            u = ScalarField(grid, np.exp(-(xs**2 + ys**2) - ts**2 / 4.0), mask)
            total = float((np.abs(u.values) ** Q_EXP).sum()) * grid.cell_volume
            v = dilate_field(u, lam, Q_EXP)
            tv = float((np.abs(v.values) ** Q_EXP).sum()) * grid.cell_volume
            return abs(tv - total) / total

        for lam in (0.8, 1.25):
            coarse = rel_err(20, lam)
            fine = rel_err(40, lam)
            assert fine < coarse
            assert fine < 0.03

    def test_translation_preserves_profile(self, box):
        grid, mask = box
        u = ScalarField(grid, gauge_bump(grid, 0.0, 0.0, 0.0, 0.5), mask)
        v = group_translate_field(u, GroupPoint.of(0.6, -0.4, 0.3))
        du = normalize_mass(u, Q_EXP)
        dv = normalize_mass(v, Q_EXP)
        for R in (1.0, 1.5):
            qu, _ = concentration(du, R)
            qv, _ = concentration(dv, R)
            assert qu == pytest.approx(qv, abs=0.05)

    def test_dilation_normalize(self, box):
        grid, mask = box
        u = ScalarField(grid, gauge_bump(grid, 0.3, -0.2, 0.2, 0.9), mask)
        total = float((np.abs(u.values) ** Q_EXP).sum()) * grid.cell_volume
        u = u.with_values(u.values / total ** (1.0 / Q_EXP))
        nu, r_m = dilation_normalize(u, Q_EXP)
        mass = float((np.abs(nu.values) ** Q_EXP).sum()) * nu.grid.cell_volume
        assert mass == pytest.approx(1.0, abs=1e-6)
        assert r_m > 0.0
        dens = normalize_mass(nu, Q_EXP)
        at_origin = ball_mass(dens, 1.0, GroupPoint.of(0.0, 0.0, 0.0))
        assert at_origin == pytest.approx(0.5, abs=2e-3)

    def test_dilation_normalize_rejects_unnormalized(self, box):
        grid, mask = box
        u = ScalarField(grid, gauge_bump(grid, 0.0, 0.0, 0.0, 0.5), mask)
        with pytest.raises(DomainError):
            dilation_normalize(u, Q_EXP)


class TestHalfMassScale:
    @staticmethod
    def recorded(fraction):
        calls = []

        def f(x):
            calls.append(x)
            return (fraction(x), x)

        return f, calls

    @pytest.mark.parametrize("x_half", [0.3, 1.0, 5.7])
    def test_brackets_then_bisects(self, x_half):
        f, calls = self.recorded(lambda x: x / (x + x_half))
        x, (frac, arg) = _half_mass_scale(f, "test scale")
        assert abs(frac - 0.5) <= 1e-3 and arg == x == calls[-1]
        assert calls[0] == 1.0
        assert x == pytest.approx(x_half, rel=5e-3)

    def test_no_bracket_raises_before_bisecting(self):
        # A fraction that never reaches 1/2: 1 + 20 bracket evaluations,
        # and no futile bisection after them.
        f, calls = self.recorded(lambda x: 0.1)
        with pytest.raises(AlgorithmError, match="could not bracket"):
            _half_mass_scale(f, "test scale")
        assert len(calls) == 21

    def test_bisection_budget(self):
        # A step fraction is 0 or 1 at every scale, never within tolerance
        # of 1/2: the bracket [1, 4], then the whole bisection budget.
        f, calls = self.recorded(lambda x: float(x >= 3.0))
        with pytest.raises(AlgorithmError, match="did not converge"):
            _half_mass_scale(f, "test scale")
        assert len(calls) == 3 + _MAX_BISECT


class TestClassifier:
    def test_translating_bump_is_compactness(self, box):
        grid, mask = box
        dens = [
            normalize_mass(
                ScalarField(grid, gauge_bump(grid, -1.2 + 0.4 * m, 0.2, 0.3, 0.6), mask),
                Q_EXP,
            )
            for m in range(6)
        ]
        r = classify_sequence(dens, eps=0.05, R_grid=[0.5, 1.0, 2.0])
        assert r.verdict == "compactness"
        assert r.witness_radius is not None
        assert len(r.witness_centers) >= 1

    def test_flattening_is_vanishing(self, box):
        grid, mask = box
        base = ScalarField(grid, gauge_bump(grid, 0.0, 0.0, 0.0, 0.5), mask)
        dens = [
            normalize_mass(dilate_field(base, 1.0 / (1.0 + 0.7 * m), Q_EXP), Q_EXP)
            for m in range(1, 7)
        ]
        r = classify_sequence(dens, eps=0.05, R_grid=[0.25, 0.5, 1.0])
        assert r.verdict == "vanishing"

    def test_separating_pair_is_dichotomy(self, box):
        grid, mask = box
        dens = []
        for m in range(6):
            s = 0.7 + 0.5 * m
            vals = gauge_bump(grid, -s, 0.0, 0.0, 0.5) + gauge_bump(grid, s, 0.0, 0.0, 0.5)
            dens.append(normalize_mass(ScalarField(grid, vals, mask), Q_EXP))
        r = classify_sequence(dens, eps=0.1, R_grid=[0.5, 1.0, 2.0])
        assert r.verdict == "dichotomy"
        assert r.split_mass == pytest.approx(0.5, abs=0.1)

    def test_rejects_empty_radius_grid(self, small_density):
        # all() over no radii would call it vanishing
        with pytest.raises(DomainError):
            classify_sequence([small_density] * 3, 0.1, [])

    def test_result_serializes(self, box):
        import json

        grid, mask = box
        dens = [
            normalize_mass(
                ScalarField(grid, gauge_bump(grid, 0.0, 0.0, 0.0, 0.5), mask), Q_EXP
            )
            for _ in range(3)
        ]
        r = classify_sequence(dens, eps=0.05, R_grid=[0.5, 1.0])
        json.dumps(r.as_dict())


class TestCutoffSplit:
    def test_cutoff_profile(self):
        grid, _ = build_ball_grid(4.0, 24)
        phi = cutoff(1.0, grid)
        rho = np.broadcast_to(grid.gauge_array(), grid.shape)
        assert np.all(phi.values[rho < 0.99] == 1.0)
        assert np.all(phi.values[rho > 2.01] == 0.0)
        mid = np.abs(rho - 1.5) < 0.02
        if mid.any():
            assert np.allclose(phi.values[mid], 0.5, atol=0.1)
        assert phi.values.min() >= 0.0 and phi.values.max() <= 1.0

    def test_inner_supported_field(self):
        grid, mask = build_ball_grid(4.0, 24)
        rho = grid.gauge_array()
        u = ScalarField(grid, np.exp(-8.0 * np.broadcast_to(rho, grid.shape) ** 2), mask)
        defect, ann = energy_split(u, 2.0, 2.0)
        assert defect < 1e-8
        assert ann < 1e-8

    def test_defect_shrinks_with_radius(self):
        grid, mask = build_ball_grid(4.0, 24)
        rho = np.broadcast_to(grid.gauge_array(), grid.shape)
        u = ScalarField(grid, np.exp(-2.0 * rho), mask)
        d1, a1 = energy_split(u, 1.0, 2.0)
        d2, a2 = energy_split(u, 2.0, 2.0)
        assert d2 < d1
        assert a2 < a1

    def test_rejects_huge_radius(self):
        grid, mask = build_ball_grid(2.0, 12)
        u = ScalarField(grid, np.ones(grid.shape), mask)
        with pytest.raises(DomainError):
            energy_split(u, 100.0, 2.0)
