"""CLI: commands, exit codes, emitted files."""

import csv
import json
from dataclasses import asdict

import numpy as np
import pytest

from conftest import flip_y_twist
from heisground import solvers
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

    def test_fault_injection_fails(self, capsys, monkeypatch):
        flip_y_twist(monkeypatch)
        code = main(["calculus-check"])
        assert code == 1
        captured = capsys.readouterr()
        assert "commutator" in captured.err

    @pytest.mark.parametrize("seed", ["-1", "-7", "1.5", "x"])
    def test_rejects_bad_seed(self, capsys, seed):
        assert main(["calculus-check", f"--seed={seed}"]) == 64
        assert "non-negative integer" in capsys.readouterr().err


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
            "nodes_per_axis": 10, "max_iters": 6000, "grad_tol": 1e-3,
            "out": str(out), "report": str(report),
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

    @pytest.mark.parametrize("argv", [
        ["solve", "--radius", "1e78", "--grid", "8"],
        ["solve", "--radius", "1e100", "--grid", "8"],
        ["solve", "--radius", "1e-80", "--grid", "8"],
        ["solve", "--radius", "1e-100", "--grid", "8"],
        ["solve", "--radius", "5e-154", "--grid", "8"],
        ["solve", "--radius", "1e-153", "--grid", "48"],
        ["solve", "--radius", "3e-38", "--grid", "8", "--max-iters", "50"],
        ["solve", "--radius", "1e-40", "--grid", "8", "--max-iters", "50"],
        ["solve", "--radius", "1e-74", "--grid", "8", "--max-iters", "50"],
        ["exhaust", "--radii", "1,1e100", "--grid", "8"],
        # near p = 1 the ground state grows like k^(-2/(p-1))
        ["solve", "--p", "1.01", "--radius", "1e-3", "--grid", "8", "--max-iters", "50"],
        ["solve", "--p", "1.1", "--radius", "1e-10", "--grid", "8", "--max-iters", "50"],
    ])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_rejects_radius_whose_grid_arithmetic_overflows(self, capsys, argv):
        assert main(argv) == 64
        err = capsys.readouterr().err
        assert "out of range" in err and len(err.splitlines()) == 1

    def test_unreachable_mountain_pass_endpoint_is_a_failed_solve(self, capsys):
        # make_domain accepts the ball, but 60 doublings of the bump do not
        # reach negative energy on it: exit 2, not a usage error
        assert main(["solve", "--method", "mountain-pass", "--radius", "1e-20",
                     "--grid", "8"]) == 2
        assert "60 doublings" in capsys.readouterr().err

    @pytest.mark.parametrize("radius", ["1e-20", "1e-37", "4e-38", "3.4e-38"])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_tiny_radius_in_range_runs(self, tmp_path, capsys, radius):
        # 50 steps do not converge on these balls, but every number is finite;
        # 3.4e-38 lies just above the smallest radius make_domain admits at N = 8
        report = tmp_path / "r.json"
        assert main(["solve", "--radius", radius, "--grid", "8", "--max-iters", "50",
                     "--report", str(report)]) == 2
        doc = json.loads(report.read_text(), parse_constant=_reject_constant)
        assert doc["stop_reason"] == "max_iters"

    @pytest.mark.parametrize("max_iters", ["0", "-3"])
    def test_rejects_no_iterations(self, capsys, max_iters):
        assert main(["solve", "--radius", "2", "--grid", "10",
                     "--max-iters", max_iters]) == 64

    @pytest.mark.parametrize("argv", [
        ["solve", "--eps", "0.5"],
        ["solve", "--tau", "0.1"],
        ["solve", "--path-points", "11"],
        ["exhaust", "--tau", "0.1"],
        ["exhaust", "--path-points", "11"],
        ["calculus-check", "--flip-y-sign"],
    ])
    def test_rejects_unknown_flags(self, capsys, argv):
        assert main(argv) == 64

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

    def test_unconverged_cg_writes_report(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(solvers, "_pcg", lambda A, b, x, inv_diag, rtol: (4, False))
        report = tmp_path / "r.json"
        code = main(["solve", "--radius", "2.5", "--grid", "12", "--report", str(report)])
        assert code == 2
        doc = json.loads(report.read_text(), parse_constant=_reject_constant)
        assert doc["converged"] is False and doc["stop_reason"] == "no_descent"
        assert doc["iterations"] == 1 and doc["cg_iterations"] == 4

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

    def test_unreachable_endpoint_is_a_failed_entry(self, tmp_path, capsys):
        json_path = tmp_path / "ex.json"
        code = main(["exhaust", "--radii", "1e-20,2e-20", "--grid", "8",
                     "--out-csv", str(tmp_path / "ex.csv"), "--out-json", str(json_path)])
        assert code == 2
        assert "exhaust failed: could not reach negative energy" in capsys.readouterr().err
        assert json.loads(json_path.read_text()) == {"monotone": False, "entries": []}


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


def test_cli_import_loads_no_interpolation_module(tmp_path):
    # The group translation is resampled by numpy alone, and the
    # constrained-min CG is numpy too: neither import heisground.cli nor a
    # constrained-min solve loads scipy.interpolate (and the scipy.optimize
    # and scipy.special it pulls in), scipy.sparse.linalg or scipy.linalg.
    import os
    import subprocess
    import sys

    import heisground

    src = os.path.dirname(os.path.dirname(os.path.abspath(heisground.__file__)))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    code = (
        "import sys, heisground.cli\n"
        "def loaded():\n"
        "    return sorted(m for m in sys.modules if m.startswith(\n"
        "        ('scipy.interpolate', 'scipy.sparse.linalg', 'scipy.linalg')))\n"
        "print(loaded())\n"
        "code = heisground.cli.main(['solve', '--method', 'constrained-min',\n"
        "    '--radius', '2.5', '--grid', '12', '--report', sys.argv[1]])\n"
        "print(code, loaded())\n"
    )
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path / "r.json")],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "0 []"]
