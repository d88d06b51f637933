"""CLI: commands, exit codes, emitted files."""

import csv
import json
from dataclasses import asdict

import numpy as np
import pytest

from heisground.cli import _build_parser, main
from heisground.grid import Grid3, ScalarField, full_mask
from heisground.hgf import write_hgf
from heisground.solvers import SolverConfig

SOLVE_FAST = [
    "--radius", "2.0", "--grid", "10", "--grad-tol", "1e-3",
    "--max-iters", "6000",
]


class TestCalculusCheck:
    def test_passes(self, capsys, tmp_path):
        out = tmp_path / "calc.json"
        code = main(["calculus-check", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["passed"] is True
        assert len(doc["checks"]) >= 5

    def test_fault_injection_fails(self, capsys):
        code = main(["calculus-check", "--flip-y-sign"])
        assert code == 1
        captured = capsys.readouterr()
        assert "commutator" in captured.err


class TestSolve:
    def test_constrained_min(self, tmp_path, capsys):
        report = tmp_path / "r.json"
        out = tmp_path / "u.hgf"
        code = main(
            ["solve", "--method", "constrained-min", *SOLVE_FAST,
             "--out", str(out), "--report", str(report)]
        )
        assert code == 0
        doc = json.loads(report.read_text())
        assert doc["converged"] is True
        assert doc["stop_reason"] == "grad_tol"
        assert doc["cg_iterations"] > 0
        assert doc["level"] > 0.0
        assert doc["config"] == {
            "method": "constrained-min", "p": 2.0, "ball_radius": 2.0,
            "nodes_per_axis": 10, "step_size": 5e-3, "max_iters": 6000,
            "grad_tol": 1e-3, "path_points": 11, "out": str(out), "report": str(report),
        }
        assert out.exists()

    def test_mountain_pass(self, tmp_path, capsys):
        report = tmp_path / "r.json"
        code = main(
            ["solve", "--method", "mountain-pass", *SOLVE_FAST,
             "--report", str(report)]
        )
        assert code == 0
        doc = json.loads(report.read_text())
        assert doc["level"] > 0.0

    def test_determinism(self, tmp_path, capsys):
        docs = []
        for name in ("a.json", "b.json"):
            report = tmp_path / name
            code = main(
                ["solve", "--method", "constrained-min", *SOLVE_FAST,
                 "--report", str(report)]
            )
            assert code == 0
            doc = json.loads(report.read_text())
            doc.pop("timestamp")
            doc["config"].pop("report")
            docs.append(doc)
        assert docs[0] == docs[1]

    def test_rejects_critical_exponent(self, capsys):
        assert main(["solve", "--p", "3.0", *SOLVE_FAST]) == 64

    def test_rejects_unknown_method(self, capsys):
        assert main(["solve", "--method", "magic", *SOLVE_FAST]) == 64

    def test_rejects_tiny_grid(self, capsys):
        assert main(["solve", "--radius", "2.0", "--grid", "4"]) == 64

    def test_rejects_nan_radius(self, capsys):
        assert main(["solve", "--radius", "nan", "--grid", "10"]) == 64

    @pytest.mark.parametrize("argv", [
        ["solve", "--radius", "1e200", "--grid", "8"],
        ["solve", "--radius", "1e308", "--grid", "8"],
        ["solve", "--radius", "1e-200", "--grid", "8"],
        ["exhaust", "--radii", "1,1e200", "--grid", "8"],
    ])
    def test_rejects_radius_whose_spacing_is_not_finite(self, capsys, argv):
        assert main(argv) == 64
        assert "spacings must be positive and finite" in capsys.readouterr().err

    @pytest.mark.parametrize("max_iters", ["0", "-3"])
    def test_rejects_no_iterations(self, capsys, max_iters):
        assert main(["solve", "--radius", "2", "--grid", "10",
                     "--max-iters", max_iters]) == 64

    def test_rejects_eps(self, capsys):
        assert main(["solve", "--eps", "0.5", *SOLVE_FAST]) == 64

    def test_line_search_stall_writes_report(self, tmp_path, capsys):
        # 1e-15 is below the gradient's rounding floor on this ball (about
        # 3.5e-15): the solve stalls and still writes its report.
        report = tmp_path / "r.json"
        code = main(["solve", "--radius", "2.5", "--grid", "12", "--grad-tol", "1e-15",
                     "--report", str(report)])
        assert code == 2
        doc = json.loads(report.read_text(), parse_constant=_reject_constant)
        assert doc["converged"] is False
        assert doc["iterations"] < doc["config"]["max_iters"]
        assert np.isfinite(doc["level"]) and np.isfinite(doc["grad_norm"])
        assert doc["stop_reason"] == "stall"

    def test_ray_descent_stall_writes_report(self, tmp_path, capsys):
        # At the default grad_tol 1e-6 the ray maximum on this ball stops
        # changing before the gradient is small enough.
        report = tmp_path / "r.json"
        code = main(["solve", "--method", "mountain-pass", "--radius", "2.5", "--grid", "12",
                     "--report", str(report)])
        assert code == 2
        doc = json.loads(report.read_text(), parse_constant=_reject_constant)
        assert doc["converged"] is False
        assert doc["stop_reason"] == "stall"
        assert doc["iterations"] < 2000

    def test_tight_tolerance_converges(self, tmp_path, capsys):
        # 1e-7 is above the constrained solve's rounding floor on this ball.
        report = tmp_path / "r.json"
        code = main(["solve", "--radius", "2.5", "--grid", "12", "--grad-tol", "1e-7",
                     "--report", str(report)])
        assert code == 0
        doc = json.loads(report.read_text())
        assert doc["converged"] is True and doc["stop_reason"] == "grad_tol"


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize("command", ["solve", "exhaust"])
def test_solver_flag_defaults_match_config(command):
    args = vars(_build_parser().parse_args([command]))
    defaults = asdict(SolverConfig())
    if command == "exhaust":  # the radii flag sets the ball radius
        del defaults["ball_radius"]
    assert {name: args[name] for name in defaults} == defaults


@pytest.mark.parametrize("command", ["solve", "exhaust"])
def test_help_names_the_flags_constrained_min_ignores(command, capsys):
    assert main([command, "--help"]) == 0
    text = "".join(capsys.readouterr().out.split())  # wrapping-proof
    for note in (
        "SolverConfig.step_size, read by mountain-pass and nehari-descent only; "
        "constrained-min ignores it",
        "SolverConfig.path_points, read by mountain-pass only; constrained-min ignores it",
    ):
        assert "".join(note.split()) in text
    assert text.count("ignores") == 2


class TestExhaust:
    def test_two_radii(self, tmp_path, capsys):
        csv_path = tmp_path / "ex.csv"
        json_path = tmp_path / "ex.json"
        code = main(
            ["exhaust", "--radii", "1.5,2.0", "--grid", "10",
             "--grad-tol", "1e-3", "--max-iters", "6000",
             "--out-csv", str(csv_path), "--out-json", str(json_path)]
        )
        assert code == 0
        with open(csv_path) as fh:
            rows = list(csv.DictReader(fh))
        assert [r["k"] for r in rows] == ["1.5", "2"]
        levels = [float(r["c_k"]) for r in rows]
        assert levels[0] >= levels[1] - 1e-9 * abs(levels[0])
        doc = json.loads(json_path.read_text())
        assert doc["monotone"] is True

    def test_rejects_nonincreasing_radii(self, capsys):
        assert main(["exhaust", "--radii", "2.0,1.5", "--grid", "10"]) == 64


class TestClassify:
    @staticmethod
    def _write_sequence(tmp_path, kind):
        k, n = 3.5, 20
        hx = 2.0 * k / n
        nt = int(round(2.0 * k * k / hx))
        grid = Grid3((n, n, nt), (hx, hx, hx), (-k, -k, -k * k))
        mask = full_mask(grid)
        from heisground.cc_diag import _gauge_dist_sq4
        from heisground.heis_core import GroupPoint

        def bump(cx):
            d4 = _gauge_dist_sq4(grid, GroupPoint.of(cx, 0.0, 0.0))
            return np.exp(-np.sqrt(d4 + 1e-300) / 0.36)

        paths = []
        for m in range(4):
            if kind == "translating":
                vals = bump(-1.2 + 0.4 * m)
            else:
                vals = bump(-(0.7 + 0.5 * m)) + bump(0.7 + 0.5 * m)
            path = tmp_path / f"seq{m}.hgf"
            write_hgf(str(path), ScalarField(grid, vals, mask))
            paths.append(str(path))
        return paths

    def test_compactness_sequence(self, tmp_path, capsys):
        paths = self._write_sequence(tmp_path, "translating")
        out = tmp_path / "verdict.json"
        prof = tmp_path / "prof.csv"
        code = main(
            ["classify", "--inputs", *paths, "--q", "3.0", "--eps", "0.05",
             "--radii", "0.5,1.0,2.0", "--out", str(out),
             "--profiles-csv", str(prof)]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["verdict"] == "compactness"
        with open(prof) as fh:
            rows = list(csv.DictReader(fh))
        assert {r["index"] for r in rows} == {"0", "1", "2", "3"}

    def test_unreadable_input(self, tmp_path, capsys):
        paths = self._write_sequence(tmp_path, "translating")
        paths[1] = str(tmp_path / "missing.hgf")
        assert main(["classify", "--inputs", *paths]) == 66

    def test_rejects_nonnumeric_radii(self, tmp_path, capsys):
        paths = self._write_sequence(tmp_path, "translating")
        assert main(["classify", "--inputs", *paths, "--radii", "a,b"]) == 64

    def test_too_few_inputs(self, tmp_path, capsys):
        paths = self._write_sequence(tmp_path, "translating")[:2]
        assert main(["classify", "--inputs", *paths]) == 64

    @pytest.mark.parametrize("huge", ["1e100", "1e308"])
    def test_huge_radius_holds_all_mass(self, tmp_path, capsys, huge):
        paths = self._write_sequence(tmp_path, "translating")[:3]
        out = tmp_path / "verdict.json"
        code = main(["classify", "--inputs", *paths, "--radii", f"0.5,{huge}",
                     "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        for prof in doc["profiles"]:
            assert prof[1][0] == float(huge)
            assert prof[1][1] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("flag, value", [
        ("--stride", "0"), ("--stride", "-3"),
        ("--q", "0"), ("--q", "-1"), ("--q", "0.5"), ("--q", "nan"), ("--q", "inf"),
        ("--eps", "nan"), ("--eps", "2"), ("--eps", "0"), ("--eps", "0.5"),
        ("--eps", "-0.1"),
    ])
    def test_rejects_bad_numeric_input(self, tmp_path, capsys, flag, value):
        paths = self._write_sequence(tmp_path, "translating")[:3]
        assert main(["classify", "--inputs", *paths, flag, value]) == 64


def test_console_script_help():
    import os
    import subprocess
    import sys

    import heisground

    # the package may be importable only through this process's sys.path
    src = os.path.dirname(os.path.dirname(os.path.abspath(heisground.__file__)))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "heisground.cli", "--help"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert "calculus-check" in proc.stdout
