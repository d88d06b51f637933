"""Group calculus: law, gauge, dilations, left-invariant derivatives."""

import numpy as np
import pytest

from conftest import flip_y_twist, traced_peak
from heisground.errors import DomainError
from heisground.heis_core import (
    GroupPoint,
    analytic_horizontal_derivative,
    analytic_sublaplacian,
    apply_left_invariant,
    calculus_check_suite,
    commutator_XY,
    critical_exponent,
    dilate,
    gauge,
    gaussian_test_function,
    group_inverse,
    group_mul,
    homogeneous_dimension,
    origin,
    polynomial_test_function,
)


def rand_point(rng, scale=2.0):
    x, y = rng.uniform(-scale, scale, 2)
    t = rng.uniform(-scale * scale, scale * scale)
    return GroupPoint(x, y, t)


class TestGroupLaw:
    def test_identity(self):
        z = GroupPoint(0.7, -1.2, 3.0)
        assert group_mul(origin(), z) == z
        assert group_mul(z, origin()) == z

    def test_inverse(self):
        z = GroupPoint(0.7, -1.2, 3.0)
        zi = group_inverse(z)
        assert zi == GroupPoint(-0.7, 1.2, -3.0)
        w = group_mul(z, zi)
        assert abs(w.t) < 1e-14 and abs(w.x) < 1e-14 and abs(w.y) < 1e-14

    def test_noncommutative_example(self):
        a = GroupPoint(1.0, 0.0, 0.0)
        b = GroupPoint(0.0, 1.0, 0.0)
        c = group_mul(a, b)
        assert c.x == 1.0 and c.y == 1.0
        assert c.t == pytest.approx(-2.0, abs=1e-14)

    def test_associativity_random(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            a, b, c = (rand_point(rng) for _ in range(3))
            lhs = group_mul(group_mul(a, b), c)
            rhs = group_mul(a, group_mul(b, c))
            assert lhs.t == pytest.approx(rhs.t, abs=1e-12)
            assert lhs.x == pytest.approx(rhs.x, abs=1e-12)


class TestGroupPoint:
    @pytest.mark.parametrize("bad", ["1", True, np.bool_(True), None, (1.0,), 10**400],
                             ids=["str", "bool", "np_bool", "None", "tuple", "huge_int"])
    def test_refuses_what_is_no_real_number(self, bad):
        # a string and a bool used to be stored as they came
        for coords in ((bad, 0.0, 0.0), (0.0, bad, 0.0), (0.0, 0.0, bad)):
            with pytest.raises(DomainError):
                GroupPoint(*coords)

    def test_stores_python_floats(self):
        z = GroupPoint(np.float64(0.5), np.int64(2), np.float32(-0.25))
        assert all(type(c) is float for c in (z.x, z.y, z.t))
        w = GroupPoint(0.5, 2.0, -0.25)
        assert z == w and hash(z) == hash(w)

    def test_keeps_nonfinite_coordinates_for_the_consumer(self):
        assert not GroupPoint(0.0, float("nan"), 0.0).is_finite()
        assert not GroupPoint(0.0, 0.0, float("inf")).is_finite()
        assert GroupPoint(0, 0, 0).is_finite()


class TestGaugeDilation:
    def test_gauge_values(self):
        assert gauge(origin()) == 0.0
        assert gauge(GroupPoint(1.0, 0.0, 0.0)) == pytest.approx(1.0)
        assert gauge(GroupPoint(0.0, 0.0, 4.0)) == pytest.approx(2.0)
        assert gauge(GroupPoint(0.0, 0.0, 16.0)) == pytest.approx(4.0)

    def test_dilate_example(self):
        z = dilate(2.0, GroupPoint(1.0, 1.0, 1.0))
        assert (z.x, z.y, z.t) == (2.0, 2.0, 4.0)
        assert dilate(1.0, z) == z

    def test_dilate_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            dilate(0.0, origin())
        with pytest.raises(DomainError):
            dilate(-2.0, origin())

    @pytest.mark.parametrize("lam", [float("nan"), float("inf")])
    def test_dilate_rejects_nonfinite(self, lam):
        # NaN used to give a NaN point and inf infinite coordinates
        with pytest.raises(DomainError, match="lam"):
            dilate(lam, origin())

    def test_gauge_homogeneity_random(self):
        rng = np.random.default_rng(11)
        for _ in range(15):
            z = rand_point(rng)
            assert gauge(dilate(3.0, z)) == pytest.approx(3.0 * gauge(z), rel=1e-12)

    def test_dilation_composition(self):
        z = GroupPoint(0.3, -0.8, 1.7)
        a = dilate(2.0, dilate(1.5, z))
        b = dilate(3.0, z)
        assert a.t == pytest.approx(b.t, rel=1e-14)

    def test_homogeneous_dimension_and_exponent(self):
        from fractions import Fraction

        assert homogeneous_dimension(1) == 4
        assert critical_exponent(1) == Fraction(3)
        assert homogeneous_dimension(2) == 6
        assert critical_exponent(2) == Fraction(2)
        assert homogeneous_dimension(3) == 8
        assert critical_exponent(3) == Fraction(5, 3)
        with pytest.raises(DomainError):
            homogeneous_dimension(0)


class TestDerivatives:
    def test_X_of_x_is_one(self):
        f = polynomial_test_function({(1, 0, 0): 1.0})
        rng = np.random.default_rng(5)
        for _ in range(5):
            z = rand_point(rng)
            assert apply_left_invariant("X", f, z) == pytest.approx(1.0, abs=1e-8)

    def test_X_of_t_is_2y(self):
        f = polynomial_test_function({(0, 0, 1): 1.0})
        rng = np.random.default_rng(6)
        for _ in range(5):
            z = rand_point(rng)
            assert apply_left_invariant("X", f, z) == pytest.approx(
                2.0 * z.y, abs=1e-7
            )
            assert apply_left_invariant("Y", f, z) == pytest.approx(
                -2.0 * z.x, abs=1e-7
            )

    @pytest.mark.parametrize("field_id", ["X1", "Y1", "Z", "x", ""])
    def test_refuses_unknown_field_id(self, field_id):
        f = polynomial_test_function({(1, 0, 0): 1.0})
        with pytest.raises(DomainError, match="field id"):
            apply_left_invariant(field_id, f, origin())

    def test_commutator_on_t(self):
        f = polynomial_test_function({(0, 0, 1): 1.0})
        rng = np.random.default_rng(7)
        for _ in range(5):
            z = rand_point(rng)
            assert commutator_XY(f, z) == pytest.approx(-4.0, abs=1e-6)

    def test_sublaplacian_of_horizontal_square(self):
        # x^2 + y^2 has constant sub-Laplacian 4
        f = polynomial_test_function({(2, 0, 0): 1.0, (0, 2, 0): 1.0})
        rng = np.random.default_rng(8)
        for _ in range(5):
            z = rand_point(rng)
            assert analytic_sublaplacian(f, z) == pytest.approx(4.0, abs=1e-10)

    def test_gaussian_matches_flow_derivative(self):
        tf = gaussian_test_function(0.8, 0.3)
        rng = np.random.default_rng(9)
        for _ in range(5):
            z = rand_point(rng, scale=1.0)
            for which in ("X", "Y"):
                ana = analytic_horizontal_derivative(tf, z, which)
                num = apply_left_invariant(which, tf, z)
                assert num == pytest.approx(ana, abs=1e-6)

    @pytest.mark.parametrize("which", ["x", "y", "x1", "Xyz", "yellow", "T", ""])
    def test_analytic_derivative_refuses_other_fields(self, which):
        # Only "X" and "Y" name a horizontal field; "yellow" returned Y f.
        with pytest.raises(DomainError, match="which"):
            analytic_horizontal_derivative(gaussian_test_function(0.8, 0.3), origin(), which)

    def test_gaussian_hessian_matches_nested_flow_derivatives(self):
        # The closed-form second derivatives against X(Xf) + Y(Yf), each
        # derivative taken along the group flow.
        tf = gaussian_test_function(0.8, 0.3)
        rng = np.random.default_rng(10)
        for _ in range(5):
            z = rand_point(rng, scale=1.0)
            num = sum(
                apply_left_invariant(which, lambda w, which=which:
                                     apply_left_invariant(which, tf, w), z)
                for which in ("X", "Y")
            )
            assert num == pytest.approx(analytic_sublaplacian(tf, z), abs=1e-6)


class TestSuite:
    def test_suite_all_pass(self):
        checks = calculus_check_suite(seed=0)
        assert len(checks) >= 5
        assert all(c["passed"] for c in checks), [
            c["name"] for c in checks if not c["passed"]
        ]

    def test_suite_detects_sign_flip(self, monkeypatch):
        flip_y_twist(monkeypatch)
        checks = calculus_check_suite(seed=0)
        failed = {c["name"] for c in checks if not c["passed"]}
        assert "commutator" in failed

    def test_a_nan_defect_fails(self, monkeypatch, capsys):
        # Each check keeps its worst draw with np.max, which keeps a NaN
        # that the builtin max would pass over.
        from heisground import cli, heis_core

        monkeypatch.setattr(heis_core, "gauge", lambda z: float("nan"))
        (check,) = [c for c in calculus_check_suite(seed=0)
                    if c["name"] == "gauge_dilation_homogeneity"]
        assert np.isnan(check["defect"]) and not check["passed"]
        assert cli.main(["calculus-check"]) == 1
        assert "gauge_dilation_homogeneity" in capsys.readouterr().err

    def test_measure_check_builds_no_dense_coordinate_grids(self):
        # The measure check's coordinates are a sparse meshgrid, so only
        # one 96 x 96 x 120 density (8.4 MiB) is alive at a time; three
        # dense coordinate arrays beside it peak above 40 MiB.
        _, peak = traced_peak(calculus_check_suite, seed=0)
        assert peak < 25 * 2**20
