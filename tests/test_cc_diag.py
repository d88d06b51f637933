"""Concentration-compactness diagnostics."""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import RegularGridInterpolator

from conftest import midpoint_integral

from heisground import cc_diag, cli
from heisground.cc_diag import (
    _MAX_BISECT,
    _TIE_REL,
    _gather,
    _gauge_dist_sq4,
    _half_mass_scale,
    _mass_bounds,
    _padded_cumsum,
    _strided_rows,
    _window_ends,
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
from heisground.errors import AlgorithmError, ConfigurationError, DomainError
from heisground.grid import Grid3, ScalarField, build_ball_grid, full_mask
from heisground.heis_core import GroupPoint
from heisground.hgf import write_hgf

Q_EXP = 3.0  # L^q exponent used throughout (p + 1 with p = 2)


def flat_grid(k=3.5, n=20):
    """Box grid with t-spacing equal to h_x (fine enough for ball masses)."""
    hx = 2.0 * k / n
    nt = int(round(2.0 * k * k / hx))
    grid = Grid3((n, n, nt), (hx, hx, hx), (-k, -k, -k * k))
    return grid, full_mask(grid)


def gauge_bump(grid, cx, cy, ct, w):
    """exp(-d(z, c)^2 / w^2) in the gauge distance."""
    d4 = _gauge_dist_sq4(grid, GroupPoint(cx, cy, ct))
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
        assert midpoint_integral(d.field) == pytest.approx(1.0, abs=1e-10)
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
        assert midpoint_integral(d.field) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("scale", [2.0**600, 2.0**-600])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_power_of_two_scale_leaves_classify_unchanged(self, box, scale):
        grid, mask = box
        bumps = [gauge_bump(grid, -1.2 + 0.4 * m, 0.2, 0.3, 0.6) for m in range(4)]

        def verdict(s):
            dens = [normalize_mass(ScalarField(grid, s * v, mask), Q_EXP) for v in bumps]
            return classify_sequence(dens, eps=0.05, R_grid=[0.5, 1.0, 2.0]).as_dict()

        assert verdict(scale) == verdict(1.0)

    @pytest.mark.parametrize("q", [1.0, 2.5, Q_EXP, 4.0])
    @pytest.mark.parametrize("zeros", [0.0, 0.9])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_power_of_two_scale_is_bit_identical(self, box, zeros, q):
        grid, mask = box
        rng = np.random.default_rng(32)
        vals = rng.standard_normal(grid.shape)
        vals[rng.uniform(size=grid.shape) < zeros] = 0.0
        want = normalize_mass(ScalarField(grid, vals, mask), q).field.values
        for scale in (2.0**-600, 2.0**-3, 2.0**7, 2.0**600):
            got = normalize_mass(ScalarField(grid, scale * vals, mask), q).field.values
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("q", [1.0, 1.5, 2.0, 2.5, Q_EXP, 4.0])
    def test_powers_follow_the_rule(self, box, q):
        # two products at q = 3, numpy's general power at every other q
        grid, mask = box
        vals = np.random.default_rng(33).standard_normal(grid.shape)
        dens = np.abs(vals) / np.abs(vals).max()
        dens = (dens * dens) * dens if q == 3.0 else dens**q
        dens /= float(dens.sum()) * grid.cell_volume
        assert np.array_equal(normalize_mass(ScalarField(grid, vals, mask), q).field.values, dens)


class TestConcentration:
    def test_whole_box_captured(self, centered_density):
        m = ball_mass(centered_density, 50.0, GroupPoint(0.0, 0.0, 0.0))
        assert m == pytest.approx(1.0, abs=1e-10)

    def test_monotone_in_R(self, centered_density):
        radii = [0.5, 1.0, 1.5, 2.0, 3.0]
        prof = concentration_profile(centered_density, radii)
        assert [r for r, _, _ in prof] == radii
        qs = [q for _, q, _ in prof]
        assert all(b >= a - 1e-12 for a, b in zip(qs, qs[1:]))
        assert all(0.0 <= q <= 1.0 + 1e-12 for q in qs)

    def test_centered_bump_mostly_inside(self, centered_density):
        q, center = concentration(centered_density, 1.8)
        assert q > 0.99
        # argmax center stays near the origin
        assert abs(center.x) < 0.5 and abs(center.y) < 0.5

    def test_translation_moves_witness(self, box):
        grid, mask = box
        u = ScalarField(grid, gauge_bump(grid, -1.0, 0.5, 0.0, 0.5), mask)
        d = normalize_mass(u, Q_EXP)
        q, center = concentration(d, 1.5)
        assert q > 0.9
        assert center.x == pytest.approx(-1.0, abs=0.5)

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
                    moved += (c.x, c.y, c.t) != (cp.x, cp.y, cp.t)
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


def center_lattice(grid, stride):
    """concentration's candidate centers: (ia, ib, a, b, ts)."""
    ia = np.arange(0, grid.shape[0], stride)
    ib = np.arange(0, grid.shape[1], stride)
    ts = grid.axis_coords(2)[::stride]
    ia, ib = np.repeat(ia, len(ib)), np.tile(ib, len(ia))
    return ia, ib, grid.axis_coords(0)[ia], grid.axis_coords(1)[ib], ts


def lattice_masses(density, R, stride, n_c=None):
    """The kernel on concentration's center lattice, every center gathered,
    its t-centers read in chunks of n_c (by default the chunks of
    `_lattice_profiles`; n_c = len(ts) reads the whole range at once):
    (masses, a, b, ts)."""
    grid = density.field.grid
    ia, ib, a, b, ts = center_lattice(grid, stride)
    n_c = cc_diag._t_chunk(len(ts)) if n_c is None else n_c
    csum = _padded_cumsum([density.field.values], stride * (n_c - 1))
    rows = _strided_rows(csum, stride, n_c)
    masses = np.empty((len(a), len(ts)))
    for k, row, hi, lo in _window_ends(grid, R, ia, ib, stride, len(ts), n_c):
        masses[k] = _gather(rows, len(ts), row, hi, lo, grid.cell_volume,
                            np.arange(len(hi)), np.zeros(len(hi), int))
    return masses, a, b, ts


class TestBallMassOracle:
    """The windowed kernel against a full-grid sum over the gauge ball."""

    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("R", [0.25, 0.5, 1.0, 2.0, 50.0])
    def test_concentration_matches_brute_force(self, small_density, monkeypatch, R, stride):
        monkeypatch.setattr(cc_diag, "_CENTER_STRIDE", stride)
        grid = small_density.field.grid
        xs, ys, ts = (grid.axis_coords(i)[::stride] for i in range(3))
        best = max(
            brute_ball_mass(small_density, R, GroupPoint(a, b, c))
            for a in xs for b in ys for c in ts
        )
        q, center = concentration(small_density, R)
        assert q == pytest.approx(best, abs=1e-12)
        assert brute_ball_mass(small_density, R, center) == pytest.approx(q, abs=1e-12)

    @pytest.mark.parametrize("R", [0.3, 1.0, 2.5, 50.0])
    @pytest.mark.parametrize(
        "center", [(0.0, 0.0, 0.0), (0.1, -0.27, 0.33), (-1.0, 0.5, 1.7), (3.0, 0.0, 0.0)]
    )
    def test_ball_mass_off_lattice(self, small_density, R, center):
        z = GroupPoint(*center)
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
        centers = [[GroupPoint(x, y, t) for t in ts] for x, y in zip(a, b)]
        brute = np.array([[brute_ball_mass(density, R, z) for z in row] for row in centers])
        assert np.max(np.abs(masses - brute)) <= 1e-12

    @pytest.mark.parametrize("stride", [1, 2, 3])
    def test_clamped_radius_on_tall_box(self, stride):
        # R clamps to _radius_cap, so every window end is clipped to
        # [-last, nt] (last >= 198) and read through the cumsum's padding,
        # in the chunks of `_lattice_profiles` (one-byte ends) and in one
        # chunk of all the t-centers (two-byte ends)
        grid = Grid3((8, 8, 201), (0.3, 0.3, 0.02), (-1.2, -1.2, -2.01))
        density = random_density(grid, 5)
        ia, ib, _, _, ts = center_lattice(grid, stride)
        for n_c, position in [(cc_diag._t_chunk(len(ts)), np.uint8), (len(ts), np.uint16)]:
            masses, *_ = lattice_masses(density, 1e308, stride, n_c)
            assert np.max(np.abs(masses - 1.0)) <= 1e-12
            _, row, hi, lo = next(_window_ends(grid, 1e308, ia, ib, stride, len(ts), n_c))
            assert row.dtype == np.int32 and hi.dtype == lo.dtype == position

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), stride=st.integers(1, 3),
           R=st.sampled_from([0.25, 0.5, 1.0, 2.0, 50.0]),
           chunk=st.sampled_from(["one", "two", "non-divisor", "all", "more than all"]))
    def test_chunked_reads_match_the_whole_range(self, seed, stride, R, chunk):
        # The t-centers (13, 7 or 5 of them) read in chunks of n_c: 1, 2,
        # 3 (which divides none of those counts), all of them, and more.
        # At every lattice center the masses equal those of one chunk of
        # all the t-centers (the layout of a cumsum padded by the whole
        # range) bit for bit, and the brute-force ball mass; each window's
        # ends lie in the padded row, hi >= lo.  The geometry is that of
        # test_lattice_kernel_matches_single_centers.
        grid = Grid3((10, 10, 13), (0.3, 0.3, 0.3), (-1.5, -1.5, -1.95))
        density = random_density(grid, seed)
        ia, ib, a, b, ts = center_lattice(grid, stride)
        ntc = len(ts)
        n_c = {"one": 1, "two": 2, "non-divisor": 3, "all": ntc, "more than all": ntc + 4}[chunk]
        masses, *_ = lattice_masses(density, R, stride, n_c)
        whole, *_ = lattice_masses(density, R, stride, ntc)
        assert np.array_equal(masses, whole)
        brute = np.array([[brute_ball_mass(density, R, GroupPoint(x, y, t)) for t in ts]
                          for x, y in zip(a, b)])
        assert np.max(np.abs(masses - brute)) <= 1e-12
        pad = stride * (n_c - 1)
        for _, _, hi, lo in _window_ends(grid, R, ia, ib, stride, ntc, n_c):
            assert hi.shape[2] == -(-ntc // n_c)
            assert np.all(lo <= hi) and hi.max() <= 13 + pad

    def test_huge_radius_holds_all_mass(self, small_density):
        q, _ = concentration(small_density, 1e308)
        assert q == pytest.approx(1.0, abs=1e-12)
        m = ball_mass(small_density, 1e308, GroupPoint(0.1, -0.2, 0.3))
        assert m == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("center", [(float("nan"), 0.0, 0.0), (0.0, 0.0, float("inf"))])
    def test_rejects_nonfinite_center(self, small_density, center):
        with pytest.raises(DomainError):
            ball_mass(small_density, 1.0, GroupPoint(*center))

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


def unpruned_concentration(density, R, stride):
    """(Q, (x, y, t)) from every mass of the lattice and the tie-centroid
    rule, with no center left out."""
    masses, a, b, ts = lattice_masses(density, R, stride)
    q = float(masses.max())
    k, l = np.divmod(np.flatnonzero(masses >= q * (1.0 - _TIE_REL)), len(ts))
    near = np.stack([a[k], b[k], ts[l]], axis=1)
    j = int(np.argmin(((near - near.mean(axis=0)) ** 2).sum(axis=1)))
    return q, tuple(float(c) for c in near[j])


def flat_vanishing_density():
    """The flattest density of test_center_ignores_rounding_ties at seed 0."""
    grid, mask = flat_grid()
    rng = np.random.default_rng(0)
    rng.uniform(size=3)
    w, rate = rng.uniform(0.4, 0.6), rng.uniform(0.6, 0.8)
    base = ScalarField(grid, gauge_bump(grid, 0, 0, 0, w), mask)
    return normalize_mass(dilate_field(base, 1.0 / (1.0 + rate * 6), Q_EXP), Q_EXP)


def second_cluster_input(density, R, z1, monkeypatch):
    """The trimmed density that `_second_cluster(density, R, z1)` probes."""
    seen = []
    with monkeypatch.context() as m:
        m.setattr(cc_diag, "concentration", lambda dens, *_: seen.append(dens) or (0.0, z1))
        cc_diag._second_cluster(density, R, z1)
    return seen[0]


def trimmed_density(monkeypatch):
    """The density `_second_cluster` probes for a separating pair: zero
    within B_2(z1) of the witness z1 of Q(1)."""
    grid, mask = flat_grid()
    d = normalize_mass(ScalarField(grid, separating_pair(grid, 1.2), mask), Q_EXP)
    _, z1 = concentration(d, 1.0)
    trimmed = second_cluster_input(d, 1.0, z1, monkeypatch)
    assert 0.0 < trimmed.field.values.sum() < d.field.values.sum()
    return trimmed


class TestProfilePass:
    """The one-pass profiles leave out centers by their mass bound."""

    @pytest.mark.parametrize("stride", [1, 2, 3])
    @pytest.mark.parametrize("kind", ["random", "flat", "trimmed"])
    def test_matches_unpruned_lattice(self, monkeypatch, kind, stride):
        # R = 1e-300: every mass is 0, so Q = 0 and every center ties
        radii = [1e-300, 0.25, 1.0, 2.0, 1e308]
        density = {
            "random": lambda: random_density(Grid3((10, 10, 13), (0.3, 0.3, 0.3),
                                                   (-1.5, -1.5, -1.95)), 11),
            "flat": flat_vanishing_density,
            "trimmed": lambda: trimmed_density(monkeypatch),
        }[kind]()
        monkeypatch.setattr(cc_diag, "_CENTER_STRIDE", stride)
        prof = concentration_profile(density, radii)
        for R, (r, q, z) in zip(radii, prof):
            assert (r, q, (z.x, z.y, z.t)) == (R, *unpruned_concentration(density, R, stride))

    def test_leaves_out_centers(self, centered_density, monkeypatch):
        gathered = []

        def gather(rows, ntc, row, hi, lo, w, centers, shift):
            gathered.append(len(centers))
            return _gather(rows, ntc, row, hi, lo, w, centers, shift)

        monkeypatch.setattr(cc_diag, "_gather", gather)
        concentration(centered_density, 1.0)
        assert 0 < sum(gathered) < 10 * 10  # of the 10 x 10 xy-centers

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), zero_frac=st.floats(0.0, 1.0),
           stride=st.integers(1, 3), R=st.sampled_from([1e-300, 0.2, 0.5, 1.0, 2.0, 1e308]))
    def test_bound_holds_at_every_t_center(self, seed, zero_frac, stride, R):
        # three densities, values from 1e-300 to 1 and whole columns of
        # zeros; the bounds equal the fancy-index sums bit for bit, and each
        # density's gather from the stacked cumsum equals its own
        grid = Grid3((8, 9, 11), (0.3, 0.25, 0.2), (-1.2, -1.1, -1.1))
        rng = np.random.default_rng(seed)
        vals = [10.0 ** rng.uniform(-300.0, 0.0, grid.shape) for _ in range(3)]
        for v in vals:
            v[rng.uniform(size=grid.shape[:2]) < zero_frac] = 0.0
        ia, ib, a, b, ts = center_lattice(grid, stride)
        ntc, w = len(ts), grid.cell_volume
        n_c = cc_diag._t_chunk(ntc)
        pad = stride * (n_c - 1)
        csum = _padded_cumsum(vals, pad)
        rows = _strided_rows(csum, stride, n_c)
        totals = csum[:, :, -1].copy()
        for _, row, hi, lo in _window_ends(grid, R, ia, ib, stride, ntc, n_c):
            bounds = _mass_bounds(totals, row, w)
            fancy = totals[:, row].sum(axis=2) * w * (1.0 + 4 * (row.shape[1] + 1) * 2.0**-53)
            assert np.array_equal(bounds, fancy)
            centers = np.arange(len(hi))
            for i, (v, bound) in enumerate(zip(vals, bounds)):
                masses = _gather(rows, ntc, row, hi, lo, w, centers,
                                 np.full(len(hi), i * csum.shape[1]))
                assert np.all(masses <= bound[:, None])
                alone = _strided_rows(_padded_cumsum([v], pad), stride, n_c)
                zero = np.zeros(len(hi), int)
                assert np.array_equal(masses, _gather(alone, ntc, row, hi, lo, w, centers, zero))

    def test_memory_stays_blocked(self):
        # Every window end of this lattice at once would take 2 x 8.1 MB
        # (256 xy-centers x 3969 columns x 8 B, for hi and for lo).
        peak_bound = 4e6  # bytes
        grid, mask = build_ball_grid(4.0, 32)
        d = normalize_mass(ScalarField(grid, mask.astype(float), mask), 1.0)
        tracemalloc.start()
        try:
            (_, q, _), = concentration_profile(d, [1e308])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert q == pytest.approx(1.0, abs=1e-12)
        assert peak <= peak_bound

    def test_classify_keeps_densities_only(self, box, tmp_path, capsys):
        # `heisground classify` on a six-field criterion-7 sequence of the
        # 20 x 20 x 70 box, twice in one process: the first call finds the
        # ball geometries and the second reads them from `_window_blocks`.
        # 8.1 and 7.4 MB at the commit that padded the cumsum by the whole
        # range of t-centers and kept every read field beside its density.
        peak_bounds = [5.0e6, 4.5e6]  # bytes
        dens, eps, radii = criterion_7_sequences(*box, seed=0)["compactness"]
        paths = []
        for m, d in enumerate(dens):
            paths.append(str(tmp_path / f"u{m}.hgf"))
            write_hgf(paths[-1], d.field.with_values(d.field.values ** (1.0 / Q_EXP)))
        del dens
        argv = ["classify", "--inputs", *paths, "--q", repr(Q_EXP), "--eps", repr(eps),
                "--radii", ",".join(map(str, radii)), "--out", str(tmp_path / "v.json")]
        for peak_bound in peak_bounds:
            tracemalloc.start()
            try:
                code = cli.main(argv)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert code == 0
            assert json.loads(capsys.readouterr().out)["verdict"] == "compactness"
            assert peak <= peak_bound

    def test_mixed_grids_match_single_profiles(self, box, small_density):
        grid, mask = box
        left, middle, right = (
            normalize_mass(ScalarField(grid, gauge_bump(grid, x, 0.2, 0.3, 0.6), mask), Q_EXP)
            for x in (-0.8, 0.0, 0.8))
        dens = [left, small_density, middle, random_density(small_density.field.grid, 3), right]
        radii = [0.5, 1.0, 2.0]
        r = classify_sequence(dens, eps=0.05, R_grid=radii)
        assert r.profiles == [concentration_profile(d, radii) for d in dens]


SOLVER_GRID_CASES = [(4.0, 32, 2, 2.0), (4.0, 32, 1, 1.0), (6.0, 48, 2, 1.0),
                     (6.0, 48, 2, 2.0), (4.0, 40, 2, 1.0), (3.0, 24, 1, 1.0)]


class TestSolverGrids:
    """Ball masses on the grids of `build_ball_grid`.

    The kernel raised "could not broadcast" on these (k, N, stride, R):
    a block whose center count was not a multiple of the gather size wrote
    its last gather into the rows of the next block.  The spacings are
    binary fractions, so nodes lie exactly on gauge spheres.
    """

    @pytest.mark.parametrize("k, n, stride, R", SOLVER_GRID_CASES)
    def test_concentration_matches_brute_force(self, monkeypatch, k, n, stride, R):
        monkeypatch.setattr(cc_diag, "_CENTER_STRIDE", stride)
        grid, mask = build_ball_grid(k, n)
        rng = np.random.default_rng(n + stride)
        d = normalize_mass(ScalarField(grid, rng.uniform(size=grid.shape) * mask, mask), 1.0)
        q, z = concentration(d, R)
        xs, ys, ts = (grid.axis_coords(i)[::stride] for i in range(3))
        sample = [z] + [GroupPoint(rng.choice(xs), rng.choice(ys), rng.choice(ts))
                        for _ in range(12)]
        assert max(brute_ball_mass(d, R, c) for c in sample) == pytest.approx(q, rel=1e-12)
        assert ball_mass(d, R, z) == pytest.approx(q, rel=1e-12)

    @pytest.mark.parametrize("R", [1.0, 1.5])
    def test_nodes_on_the_sphere_are_outside(self, monkeypatch, R):
        # the nodes R^2 above and below a center in its own column have
        # rho = R exactly; the open ball holds neither
        grid = Grid3((8, 8, 24), (0.25, 0.25, 0.25), (-1.0, -1.0, -3.0))
        vals = np.zeros(grid.shape)
        cells = int(R * R / 0.25)
        vals[3, 4, [11 - cells, 11 + cells]] = 1.0
        d = normalize_mass(ScalarField(grid, vals, full_mask(grid)), 1.0)
        z = grid.node_point((3, 4, 11))
        assert ball_mass(d, R, z) == brute_ball_mass(d, R, z) == 0.0
        assert ball_mass(d, R * (1.0 + 1e-9), z) == pytest.approx(1.0, abs=1e-15)
        monkeypatch.setattr(cc_diag, "_CENTER_STRIDE", 1)
        q, _ = concentration(d, R)
        assert q == pytest.approx(0.5, abs=1e-15)  # the balls that hold one node


def profile_floats(prof):
    """A profile as plain floats, (R, Q, x, y, t) per radius, for == checks."""
    return [(r, q, z.x, z.y, z.t) for r, q, z in prof]


def criterion_7_sequences(grid, mask, seed):
    """The compactness, vanishing and dichotomy sequences of criterion 7 at
    seed: {family: (densities, eps, radii)}."""
    rng = np.random.default_rng(seed)
    w = rng.uniform(0.5, 0.7)
    cy, ct = rng.uniform(-0.3, 0.3), rng.uniform(-0.5, 0.5)
    compact = [normalize_mass(ScalarField(grid, gauge_bump(grid, -1.2 + 0.4 * m, cy, ct, w),
                                          mask), Q_EXP) for m in range(6)]
    w, rate = rng.uniform(0.4, 0.6), rng.uniform(0.6, 0.8)
    base = ScalarField(grid, gauge_bump(grid, 0, 0, 0, w), mask)
    vanish = [normalize_mass(dilate_field(base, 1.0 / (1.0 + rate * m), Q_EXP), Q_EXP)
              for m in range(1, 7)]
    w, s0 = rng.uniform(0.4, 0.55), rng.uniform(0.6, 0.9)
    pair = [normalize_mass(ScalarField(grid, separating_pair(grid, s0 + 0.5 * m, w), mask),
                           Q_EXP) for m in range(6)]
    return {"compactness": (compact, 0.05, [0.5, 1.0, 2.0]),
            "vanishing": (vanish, 0.05, [0.25, 0.5, 1.0]),
            "dichotomy": (pair, 0.1, [0.5, 1.0, 2.0])}


class TestGeometryCache:
    """`_window_blocks` keeps the window ends of small lattices per
    (grid, R, stride); profiles read from it equal those found anew."""

    @pytest.mark.parametrize("family", ["compactness", "vanishing", "dichotomy"])
    def test_warm_equals_cold_on_criterion_7(self, box, family):
        dens, eps, radii = criterion_7_sequences(*box, seed=0)[family]
        cold = classify_sequence(dens, eps, radii)
        assert cc_diag._window_cache  # the 20 x 20 x 70 lattice fits one block
        warm = classify_sequence(dens, eps, radii)
        assert warm.verdict == cold.verdict == family
        assert warm.as_dict() == cold.as_dict()
        assert ([profile_floats(p) for p in warm.profiles]
                == [profile_floats(p) for p in cold.profiles])

    def test_warm_equals_cold_on_solver_grid(self):
        grid, mask = build_ball_grid(4.0, 32)
        d = random_density(grid, 23)
        radii = [0.5, 1.0, 2.0]
        cold = profile_floats(concentration_profile(d, radii))
        ia, ib, _, _, cts = cc_diag._center_lattice(grid, 2)
        n_c = cc_diag._t_chunk(len(cts))
        assert len(list(_window_ends(grid, 2.0, ia, ib, 2, len(cts), n_c))) == 4
        assert (grid, 1.0, 2) in cc_diag._window_cache
        assert (grid, 2.0, 2) not in cc_diag._window_cache  # streamed
        assert profile_floats(concentration_profile(d, radii)) == cold

    def test_strides_share_a_session(self, small_density, monkeypatch):
        grid = small_density.field.grid
        for stride in (1, 2, 1):
            monkeypatch.setattr(cc_diag, "_CENTER_STRIDE", stride)
            xs, ys, ts = (grid.axis_coords(i)[::stride] for i in range(3))
            best = max(brute_ball_mass(small_density, 1.0, GroupPoint(a, b, c))
                       for a in xs for b in ys for c in ts)
            q, center = concentration(small_density, 1.0)
            assert q == pytest.approx(best, abs=1e-12)
            assert brute_ball_mass(small_density, 1.0, center) == pytest.approx(q, abs=1e-12)

    def test_each_geometry_found_once(self, box, monkeypatch):
        built = []

        def window_ends(grid, R, ia, ib, t_stride, ntc, n_c):
            built.append((grid, R, t_stride))
            return _window_ends(grid, R, ia, ib, t_stride, ntc, n_c)

        monkeypatch.setattr(cc_diag, "_window_ends", window_ends)
        dens, eps, radii = criterion_7_sequences(*box, seed=1)["dichotomy"]
        for _ in range(2):
            assert classify_sequence(dens, eps, radii).verdict == "dichotomy"
        u = dens[0].field.with_values(dens[0].field.values ** (1.0 / Q_EXP))
        dilation_normalize(u, Q_EXP)
        assert len(built) == len(set(built))
        assert {R for _, R, _ in built} == set(radii)

    def test_grid_of_lists(self, small_density):
        grid = small_density.field.grid
        listed = Grid3(list(grid.shape), list(grid.spacing), list(grid.corner))
        d = normalize_mass(ScalarField(listed, small_density.field.values,
                                       full_mask(grid)), 1.0)
        want = profile_floats(concentration_profile(small_density, [0.5, 1.0]))
        assert profile_floats(concentration_profile(d, [0.5, 1.0])) == want
        assert len(cc_diag._window_cache) == 2  # the list grid found the tuple grid's blocks

    def test_classify_on_a_grid_of_lists(self, box):
        # classify_sequence groups its densities in a dict keyed on the grid,
        # which raised "unhashable type: 'list'" on a grid of lists
        dens, eps, radii = criterion_7_sequences(*box, seed=0)["compactness"]
        grid, _ = box
        listed = Grid3(list(grid.shape), list(grid.spacing), list(grid.corner))
        relisted = [cc_diag.MassDensity(ScalarField(listed, d.field.values, d.field.mask))
                    for d in dens]
        got = classify_sequence(relisted, eps, radii)
        want = classify_sequence(dens, eps, radii)
        assert got.verdict == want.verdict == "compactness"
        assert got.as_dict() == want.as_dict()

    def test_cached_arrays_refuse_writes(self, small_density):
        concentration(small_density, 1.0)
        (block,), = cc_diag._window_cache.values()
        for arr in block[1:]:
            with pytest.raises(ValueError):
                arr.flat[0] = 0

    def test_cache_stays_bounded(self, small_density):
        radii = [0.1 * (j + 1) for j in range(2 * cc_diag._GEOMETRY_CACHE_SIZE)]
        concentration_profile(small_density, radii)
        grid, mask = build_ball_grid(4.0, 32)
        d = normalize_mass(ScalarField(grid, mask.astype(float), mask), 1.0)
        concentration_profile(d, [1e308])  # four blocks: streamed, not kept
        cache = cc_diag._window_cache
        assert len(cache) == cc_diag._GEOMETRY_CACHE_SIZE
        assert all(key_grid == small_density.field.grid for key_grid, *_ in cache)
        # a block's rows hold one entry per (center, column) pair
        assert all(len(blocks) == 1 and blocks[0][1].size <= cc_diag._CHUNK
                   for blocks in cache.values())
        nbytes = sum(arr.nbytes for (block,) in cache.values() for arr in block[1:])
        assert nbytes <= cc_diag._GEOMETRY_CACHE_SIZE * cc_diag._KEPT_BLOCK_BYTES == 3 << 20


def witness_oracle(R, k, masses, a, b, cts):
    """`_witness`'s rule over every near-maximal (center, t-center), in
    (x, y, t) order: the one nearest their mean, the first on a tie."""
    order = np.argsort(k)
    k, masses = k[order], masses[order]
    q = float(masses.max())
    i, l = np.divmod(np.flatnonzero(masses >= q * (1.0 - _TIE_REL)), len(cts))
    near = np.stack([a[k[i]], b[k[i]], cts[l]], axis=1)
    j = int(np.argmin(((near - near.mean(axis=0)) ** 2).sum(axis=1)))
    return float(R), q, tuple(float(c) for c in near[j])


class TestBatchedPass:
    """`_lattice_profiles` handles the densities of a grid together; each
    profile equals the one-density profile and the unpruned lattice."""

    @staticmethod
    def check(densities, radii, stride=2):
        batched = cc_diag._lattice_profiles(densities, radii)
        for d, prof in zip(densities, batched):
            assert profile_floats(prof) == profile_floats(concentration_profile(d, radii))
            for R, (r, q, z) in zip(radii, prof):
                want = unpruned_concentration(d, R, stride)
                assert (r, q, (z.x, z.y, z.t)) == (R, *want)

    @pytest.mark.parametrize("family", ["compactness", "vanishing", "dichotomy"])
    def test_criterion_7(self, box, family):
        dens, _, radii = criterion_7_sequences(*box, seed=2)[family]
        self.check(dens, radii)

    def test_trimmed_density_among_others(self, box, monkeypatch):
        dens, _, radii = criterion_7_sequences(*box, seed=3)["dichotomy"]
        self.check([dens[0], trimmed_density(monkeypatch), dens[-1]], radii)

    def test_mixed_grids(self, box, small_density):
        grid, mask = box
        on_box = [normalize_mass(ScalarField(grid, gauge_bump(grid, x, -0.3, 0.1, 0.5), mask),
                                 Q_EXP) for x in (-1.0, 0.9)]
        for group in (on_box, [small_density, random_density(small_density.field.grid, 4)]):
            self.check(group, [0.5, 1.0, 2.0])

    def test_streamed_solver_grid(self):
        grid, mask = build_ball_grid(4.0, 32)
        ia, ib, _, _, cts = cc_diag._center_lattice(grid, 2)
        n_c = cc_diag._t_chunk(len(cts))
        assert len(list(_window_ends(grid, 2.0, ia, ib, 2, len(cts), n_c))) > 1
        dens = [random_density(grid, 40 + m) for m in range(2)]
        rho = grid.gauge_array()
        dens.append(normalize_mass(ScalarField(grid, np.exp(-rho * rho) * mask, mask), Q_EXP))
        self.check(dens, [1.0, 2.0])


class TestWitness:
    """`_witness` returns a lone near-maximal center at once; the rule of
    the tie set picks the same center."""

    @staticmethod
    def lattice():
        ia, ib, a, b, cts = center_lattice(flat_grid()[0], 2)
        return a, b, cts

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), ties=st.integers(1, 3))
    def test_fast_path_equals_the_tie_rule(self, seed, ties):
        a, b, cts = self.lattice()
        rng = np.random.default_rng(seed)
        k = rng.permutation(len(a))[:rng.integers(1, 12)]
        masses = rng.uniform(0.0, 0.5, (len(k), len(cts)))
        flat = rng.permutation(masses.size)[:ties]
        masses.flat[flat] = 0.75  # the maximum, held by `ties` entries
        r, q, z = cc_diag._witness(1.5, k, masses, a, b, cts)
        assert (r, q, (z.x, z.y, z.t)) == witness_oracle(1.5, k, masses, a, b, cts)

    def test_two_way_tie(self):
        # two centers hold the maximum and the tie rule picks; with the
        # other pushed below the tie margin, one holds it alone
        a, b, cts = self.lattice()
        k = np.array([7, 3, 12])
        masses = np.full((3, len(cts)), 0.25)
        masses[0, 4] = masses[1, 9] = 1.0
        for lone in (None, 0, 1):
            if lone is not None:
                masses[1 - lone, (4, 9)[1 - lone]] = 1.0 - _TIE_REL * 1.5
            r, q, z = cc_diag._witness(1.0, k, masses, a, b, cts)
            got = (r, q, (z.x, z.y, z.t))
            assert got == witness_oracle(1.0, k, masses, a, b, cts)
            if lone is not None:
                c = k[lone]
                assert got[2] == (a[c], b[c], cts[(4, 9)[lone]])
            masses[0, 4] = masses[1, 9] = 1.0


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
        got = group_translate_field(u, GroupPoint(a, b, c)).values
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
        got = group_translate_field(u, GroupPoint(a, b, c)).values
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
        v = group_translate_field(u, GroupPoint(0.6, -0.4, 0.3))
        du = normalize_mass(u, Q_EXP)
        dv = normalize_mass(v, Q_EXP)
        for R in (1.0, 1.5):
            qu, _ = concentration(du, R)
            qv, _ = concentration(dv, R)
            assert qu == pytest.approx(qv, abs=0.05)

    @pytest.mark.parametrize("z0", [(float("nan"), 0.0, 0.0), (0.0, 0.0, float("inf")),
                                    (0.0, -float("inf"), 0.0)], ids=["nan_x", "inf_t", "inf_y"])
    def test_translation_refuses_nonfinite_shift(self, box, z0):
        # a NaN used to raise ConfigurationError after RuntimeWarnings, and
        # t = inf to give an all-zero field
        grid, mask = box
        u = ScalarField(grid, gauge_bump(grid, 0.0, 0.0, 0.0, 0.5), mask)
        with pytest.raises(DomainError, match="finite"):
            group_translate_field(u, GroupPoint(*z0))

    def test_dilation_normalize(self, box, monkeypatch):
        grid, mask = box
        u = ScalarField(grid, gauge_bump(grid, 0.3, -0.2, 0.2, 0.9), mask)
        total = float((np.abs(u.values) ** Q_EXP).sum()) * grid.cell_volume
        u = u.with_values(u.values / total ** (1.0 / Q_EXP))
        calls = {}
        search = cc_diag._half_mass_scale

        def counted(fraction, what, **kwargs):
            def f(x):
                calls[what] = calls.get(what, 0) + 1
                return fraction(x)

            return search(f, what, **kwargs)

        monkeypatch.setattr(cc_diag, "_half_mass_scale", counted)
        nu, r_m = dilation_normalize(u, Q_EXP)
        # Each fraction call dilates the whole field; bisection takes 9 + 9.
        assert calls["half-mass dilation"] <= 5
        assert calls["origin-ball refinement"] <= 3
        mass = float((np.abs(nu.values) ** Q_EXP).sum()) * nu.grid.cell_volume
        assert mass == pytest.approx(1.0, abs=1e-6)
        assert r_m > 0.0
        dens = normalize_mass(nu, Q_EXP)
        at_origin = ball_mass(dens, 1.0, GroupPoint(0.0, 0.0, 0.0))
        assert at_origin == pytest.approx(0.5, abs=2e-3)

    @pytest.mark.parametrize("w, r_m", [(0.7, 0.66083), (1.3, 0.33006)])
    def test_dilation_normalize_on_solver_grid(self, w, r_m):
        # On the 48^3 grid of k = 6 (h_t = 1.5) the unit-ball fraction of
        # these bumps comes within tolerance of 1/2 at a bracket scale, but
        # does not cross 1/2 before the dilated field misses every node, so
        # only an accepted bracket point avoids "could not bracket".
        grid, _ = build_ball_grid(6.0, 48)
        v = np.exp(-(np.broadcast_to(grid.gauge_array(), grid.shape) / w) ** 2)
        v /= (float((v**Q_EXP).sum()) * grid.cell_volume) ** (1.0 / Q_EXP)
        nu, got = dilation_normalize(ScalarField(grid, v, full_mask(grid)), Q_EXP)
        assert got == pytest.approx(r_m, rel=1e-4)
        at_origin = ball_mass(normalize_mass(nu, Q_EXP), 1.0, GroupPoint(0.0, 0.0, 0.0))
        assert abs(at_origin - 0.5) <= cc_diag._MASS_TOL

    def test_dilation_normalize_says_the_box_cannot_hold_the_field(self):
        # On the 48^3 grid of k = 6 the unit-ball fraction of this wide bump
        # is 0.1234, 0.4055 and 0.4963 at lam = 1, 2 and 4; at lam = 8 the
        # nearest t-node maps to 0.75 lam^2 = 48, beyond the box's t-extent
        # of 36, and the dilated field holds no mass.
        grid, _ = build_ball_grid(6.0, 48)
        v = np.exp(-(np.broadcast_to(grid.gauge_array(), grid.shape) / 2.0) ** 2)
        v /= (float((v**Q_EXP).sum()) * grid.cell_volume) ** (1.0 / Q_EXP)
        with pytest.raises(AlgorithmError,
                           match="could not bracket .* no mass from scale 8 on, so the box "
                                 "cannot hold the field at its half-mass scale"):
            dilation_normalize(ScalarField(grid, v, full_mask(grid)), Q_EXP)

    def test_dilation_normalize_mass_lost_during_recentering(self, box, monkeypatch):
        grid, mask = box
        u = ScalarField(grid, gauge_bump(grid, 0.3, -0.2, 0.2, 0.9), mask)
        total = float((np.abs(u.values) ** Q_EXP).sum()) * grid.cell_volume
        u = u.with_values(u.values / total ** (1.0 / Q_EXP))
        monkeypatch.setattr(cc_diag, "group_translate_field",
                            lambda v, z0: v.with_values(np.zeros(v.grid.shape)))
        with pytest.raises(AlgorithmError, match="mass lost during recentering"):
            dilation_normalize(u, Q_EXP)

    @pytest.mark.parametrize("lam", [float("nan"), float("inf"), 0.0, -1.0])
    def test_dilate_field_rejects_bad_factor(self, box, lam):
        # NaN and inf used to pass `lam <= 0`, warn in numpy and fail as
        # "field values must be finite"
        grid, mask = box
        u = ScalarField(grid, gauge_bump(grid, 0.0, 0.0, 0.0, 0.9), mask)
        with pytest.raises(DomainError, match="lam"):
            dilate_field(u, lam, Q_EXP)

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

    # Fraction calls of the search on x / (x + x_half); bisection to the
    # same tolerance takes 14, 11, 1, 10 and 14.
    MAX_CALLS = {0.05: 7, 0.3: 4, 1.0: 1, 5.7: 5, 40.0: 8}

    @pytest.mark.parametrize("x_half", [0.05, 0.3, 1.0, 5.7, 40.0])
    def test_brackets_then_bisects(self, x_half):
        f, calls = self.recorded(lambda x: x / (x + x_half))
        x, (frac, arg) = _half_mass_scale(f, "test scale")
        assert abs(frac - 0.5) <= 1e-3 and arg == x == calls[-1]
        assert calls[0] == 1.0
        assert x == pytest.approx(x_half, rel=5e-3)
        assert len(calls) <= self.MAX_CALLS[x_half]

    @pytest.mark.parametrize("x_half, moves, made", [(0.05, 5, 7), (0.3, 2, 4), (5.7, 3, 5),
                                                     (40.0, 6, 8)])
    def test_brackets_the_last_two_walk_points(self, x_half, moves, made):
        # A walk of several moves closes the bracket of its last two scales,
        # 2^(+-(moves - 1)) and 2^(+-moves), with every later call inside it:
        # one fraction call fewer than the bracket of its last scale and 1
        # took (8, 5, 6 and 9).
        f, calls = self.recorded(lambda x: x / (x + x_half))
        _half_mass_scale(f, "test scale")
        assert len(calls) == made
        sign = 1.0 if x_half > 1.0 else -1.0
        assert calls[:moves + 1] == [2.0 ** (sign * j) for j in range(moves + 1)]
        lo, hi = sorted(calls[moves - 1:moves + 1])
        assert all(lo < x < hi for x in calls[moves + 1:])

    SMALL_STEP = 2.0 ** (1.0 / 16.0)  # `dilation_normalize`'s refinement step

    # The search's fraction calls on x / (x + x_half), as float hex, for
    # step 2 and the refinement's step 2^(1/16): a rewrite of the search
    # that moves any evaluation point, and so `dilation_normalize`'s
    # outputs, fails here.
    CALLS = {
        (0.05, 2.0): ('0x1.0000000000000p+0 0x1.0000000000000p-1 0x1.0000000000000p-2 '
            '0x1.0000000000000p-3 0x1.0000000000000p-4 0x1.0000000000000p-5 '
            '0x1.98ba90ebb3e8cp-5'),
        (0.3, 2.0): ('0x1.0000000000000p+0 0x1.0000000000000p-1 0x1.0000000000000p-2 '
            '0x1.33f972e23dedfp-2'),
        (1.0, 2.0): '0x1.0000000000000p+0',
        (5.7, 2.0): ('0x1.0000000000000p+0 0x1.0000000000000p+1 0x1.0000000000000p+2 '
            '0x1.0000000000000p+3 0x1.6cbecc945f7dcp+2'),
        (40.0, 2.0): ('0x1.0000000000000p+0 0x1.0000000000000p+1 0x1.0000000000000p+2 '
            '0x1.0000000000000p+3 0x1.0000000000000p+4 0x1.0000000000000p+5 '
            '0x1.0000000000000p+6 0x1.40ae9ddcc0b95p+5'),
        (0.05, SMALL_STEP): ('0x1.0000000000000p+0 0x1.ea4afa2a490dap-1 0x1.c199bdd85529ep-1 '
            '0x1.7a11473eb018bp-1 0x1.0b5586cf98916p-1 0x1.0b5586cf9891ep-2 '
            '0x1.0b5586cf9891ep-3 0x1.0b5586cf9891ep-4 0x1.0b5586cf9891ep-5 '
            '0x1.98fcb23d82dcep-5'),
        (0.3, SMALL_STEP): ('0x1.0000000000000p+0 0x1.ea4afa2a490dap-1 0x1.c199bdd85529ep-1 '
            '0x1.7a11473eb018bp-1 0x1.0b5586cf98916p-1 0x1.0b5586cf9891ep-2 '
            '0x1.34029574d4d33p-2'),
        (1.0, SMALL_STEP): '0x1.0000000000000p+0',
        (5.7, SMALL_STEP): ('0x1.0000000000000p+0 0x1.0b5586cf9890fp+0 0x1.2387a6e756237p+0 '
            '0x1.5ab07dd485425p+0 0x1.ea4afa2a490ccp+0 0x1.ea4afa2a490bdp+1 '
            '0x1.ea4afa2a490bdp+2 0x1.6c70fafad7ce7p+2'),
        (40.0, SMALL_STEP): ('0x1.0000000000000p+0 0x1.0b5586cf9890fp+0 0x1.2387a6e756237p+0 '
            '0x1.5ab07dd485425p+0 0x1.ea4afa2a490ccp+0 0x1.ea4afa2a490bdp+1 '
            '0x1.ea4afa2a490bdp+2 0x1.ea4afa2a490bdp+3 0x1.ea4afa2a490bdp+4 '
            '0x1.ea4afa2a490bdp+5 0x1.407ac3c6d9c27p+5'),
    }

    @pytest.mark.parametrize("key", list(CALLS), ids=lambda key: f"{key[0]}-{key[1]:.4f}")
    def test_call_sequence_is_pinned(self, key):
        x_half, step = key
        f, calls = self.recorded(lambda x: x / (x + x_half))
        _half_mass_scale(f, "test scale", step=step)
        assert [x.hex() for x in calls] == self.CALLS[key].split()

    def test_small_first_step(self):
        # The bracket steps by 2^(1/16), 2^(1/8), 2^(1/4), 2^(1/2), then 2.
        f, calls = self.recorded(lambda x: x / (x + 0.05))
        x, _ = _half_mass_scale(f, "test scale", step=2.0 ** (1.0 / 16.0))
        assert x == pytest.approx(0.05, rel=5e-3)
        ratios = [calls[i] / calls[i + 1] for i in range(8)]
        exponents = (1 / 16, 1 / 8, 1 / 4, 1 / 2, 1, 1, 1, 1)
        assert ratios == pytest.approx([2.0**e for e in exponents])
        assert calls[8] < 0.05 < calls[7]
        # Near 1/2 at x = 1 the small step brackets and closes in 3 calls.
        f, calls = self.recorded(lambda x: x / (x + 0.97))
        x, _ = _half_mass_scale(f, "test scale", step=2.0 ** (1.0 / 16.0))
        assert x == pytest.approx(0.97, rel=5e-3)
        assert len(calls) <= 3

    def test_halves_an_end_kept_twice(self):
        # Convex in log x, so plain regula falsi keeps the upper end of the
        # bracket [2, 4] and creeps up from below: 31 calls, against 12 when
        # the kept end's fraction is halved.
        f, calls = self.recorded(lambda x: 0.5 * (x / 3.0) ** 8)
        x, _ = _half_mass_scale(f, "test scale")
        assert x == pytest.approx(3.0, rel=5e-3)
        assert len(calls) <= 12

    def test_accepts_a_bracket_point(self):
        # The fraction comes within tolerance of 1/2 at x = 2 and never
        # crosses it: the bracket point is the answer.
        f, calls = self.recorded(lambda x: 0.4995 if x >= 2.0 else 0.3)
        assert _half_mass_scale(f, "test scale") == (2.0, (0.4995, 2.0))
        assert calls == [1.0, 2.0]

    def test_no_bracket_raises_before_bisecting(self):
        # A fraction that never reaches 1/2: 1 + 20 bracket evaluations,
        # and no futile bisection after them.
        f, calls = self.recorded(lambda x: 0.1)
        with pytest.raises(AlgorithmError, match="could not bracket"):
            _half_mass_scale(f, "test scale")
        assert len(calls) == 21

    def test_walk_down_into_no_mass_brackets(self):
        # A move down to a scale without mass reads fraction 0, which
        # crosses 1/2 and closes the bracket [1/4, 1/2]; only a move up to
        # such a scale ends the search.
        calls = []

        def down(x):
            calls.append(x)
            return (x / (x + 0.45), x) if x >= 0.4 else (0.0, None)

        x, (frac, arg) = _half_mass_scale(down, "test scale")
        assert calls[:3] == [1.0, 0.5, 0.25]
        assert abs(frac - 0.5) <= 1e-3 and arg == x == pytest.approx(0.45, rel=5e-3)

        def up(x):
            return (x / (x + 5.0), x) if x <= 3.0 else (0.0, None)

        with pytest.raises(AlgorithmError, match="no mass from scale 4 on"):
            _half_mass_scale(up, "test scale")

    def test_bisection_budget(self):
        # A step fraction is 0 or 1 at every scale, never within tolerance
        # of 1/2: the bracket [2, 4], then the whole bisection budget.
        f, calls = self.recorded(lambda x: float(x >= 3.0))
        with pytest.raises(AlgorithmError, match="did not converge"):
            _half_mass_scale(f, "test scale")
        assert len(calls) == 3 + _MAX_BISECT


def separating_pair(grid, s, w=0.5):
    return gauge_bump(grid, -s, 0.0, 0.0, w) + gauge_bump(grid, s, 0.0, 0.0, w)


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
            vals = separating_pair(grid, 0.7 + 0.5 * m)
            dens.append(normalize_mass(ScalarField(grid, vals, mask), Q_EXP))
        r = classify_sequence(dens, eps=0.1, R_grid=[0.5, 1.0, 2.0])
        assert r.verdict == "dichotomy"
        assert r.split_mass == pytest.approx(0.5, abs=0.1)

    @staticmethod
    def recorded_second_masses(monkeypatch):
        """The mass of every second carrier the dichotomy rule looks at."""
        masses = []
        original = cc_diag._second_cluster

        def second_cluster(*args):
            m2, z2 = original(*args)
            masses.append(m2)
            return m2, z2

        monkeypatch.setattr(cc_diag, "_second_cluster", second_cluster)
        return masses

    def test_fixed_pair_is_inconclusive(self, box, monkeypatch):
        # Q(1) plateaus near 1/2 and each tail density has a second carrier
        # of about 1/2, but the two carriers never move apart.
        grid, mask = box
        dens = [normalize_mass(ScalarField(grid, separating_pair(grid, 1.5), mask), Q_EXP)] * 4
        masses = self.recorded_second_masses(monkeypatch)
        r = classify_sequence(dens, eps=0.1, R_grid=[1.0])
        assert r.verdict == "inconclusive"
        assert r.profiles[-1][0][1] == pytest.approx(0.5, abs=0.01)
        assert len(masses) == 3 and min(masses) >= 0.1
        assert (r.witness_centers, r.witness_radius, r.split_mass) == ([], None, None)

    def test_weak_second_carrier_is_inconclusive(self, box, monkeypatch):
        # One wide bump: Q(1) plateaus near 0.56, and outside B_2 of its
        # center no unit ball holds eps, so the rule stops at the first
        # tail density.
        grid, mask = box
        dens = [normalize_mass(ScalarField(grid, gauge_bump(grid, 0, 0, 0, 1.2), mask), Q_EXP)] * 4
        masses = self.recorded_second_masses(monkeypatch)
        r = classify_sequence(dens, eps=0.1, R_grid=[1.0])
        assert r.verdict == "inconclusive"
        assert 0.1 < r.profiles[-1][0][1] < 0.9
        assert len(masses) == 1 and masses[0] < 0.1

    @pytest.mark.parametrize("start, step", [(0.7, 0.5), (1.5, 0.0)])
    def test_duplicate_radii(self, box, start, step):
        # a separating pair (dichotomy) and a fixed one (compactness at
        # R = 2): the verdict does not change, and every profile keeps one
        # entry per radius given, in sorted order
        grid, mask = box
        dens = [normalize_mass(ScalarField(grid, separating_pair(grid, start + step * m), mask),
                               Q_EXP) for m in range(4)]
        once = classify_sequence(dens, eps=0.1, R_grid=[0.5, 1.0, 2.0]).as_dict()
        twice = classify_sequence(dens, eps=0.1, R_grid=[2.0, 1.0, 0.5, 1.0]).as_dict()
        assert twice["verdict"] == ("dichotomy" if step else "compactness")
        assert twice.pop("profiles") == [[a, b, b, c] for a, b, c in once.pop("profiles")]
        assert twice == once

    @pytest.mark.parametrize("R", [0.5, 1.0, 1e308])
    def test_second_cluster_trims_one_ball(self, monkeypatch, R):
        # The density the second carrier is sought in lacks exactly the
        # mass of ball_mass's B_2R(z1).  The binary-fraction spacings put
        # nodes exactly on the sphere of radius 2R; 1e308 is past the cap.
        grid, _ = build_ball_grid(4.0, 32)
        d = random_density(grid, 17)
        z1 = grid.node_point((13, 17, 14))
        if R < 1e308:
            assert np.any(_gauge_dist_sq4(grid, z1) == (2.0 * R) ** 4)
        trimmed = second_cluster_input(d, R, z1, monkeypatch)
        outside = midpoint_integral(d.field) - ball_mass(d, 2.0 * R, z1)
        assert midpoint_integral(trimmed.field) == pytest.approx(outside, abs=1e-14)

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

    @pytest.mark.parametrize("p", [float("nan"), 1.0, 3.0])
    def test_rejects_bad_exponent(self, p):
        # NaN used to give a NaN annulus mass, like eval_J it needs 1 < p < 3
        grid, mask = build_ball_grid(2.0, 12)
        u = ScalarField(grid, np.ones(grid.shape), mask)
        with pytest.raises(ConfigurationError):
            energy_split(u, 1.0, p)

    @pytest.mark.parametrize("r", [float("nan"), float("inf"), 0.0, -1.0])
    def test_cutoff_rejects_bad_radius(self, r):
        # NaN and inf used to pass `r <= 0`, warn in numpy and fail as
        # "field values must be finite"
        grid, _ = build_ball_grid(2.0, 12)
        with pytest.raises(DomainError, match="cutoff radius r"):
            cutoff(r, grid)

    def test_split_rejects_nan_radius(self):
        grid, mask = build_ball_grid(2.0, 12)
        u = ScalarField(grid, np.ones(grid.shape), mask)
        with pytest.raises(DomainError, match="cutoff radius r"):
            energy_split(u, float("nan"), 2.0)

    def test_rejects_huge_radius(self):
        grid, mask = build_ball_grid(2.0, 12)
        u = ScalarField(grid, np.ones(grid.shape), mask)
        with pytest.raises(DomainError):
            energy_split(u, 100.0, 2.0)
