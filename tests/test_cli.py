"""CLI: commands, exit codes, emitted files."""

import csv
import json
import struct
import sys
from dataclasses import asdict

import numpy as np
import pytest

from conftest import flip_y_twist
from heisground import __version__, solvers
from heisground.cli import _build_parser, main
from heisground.errors import AlgorithmError, NumericError
from heisground.grid import Grid3, ScalarField, build_ball_grid, full_mask
from heisground.hgf import MAGIC, write_hgf
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
        assert capsys.readouterr().out.encode() == out.read_bytes()

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

    def test_accepts_a_seed(self, capsys):
        assert main(["calculus-check", "--seed", "7"]) == 0
        assert json.loads(capsys.readouterr().out)["passed"] is True

    def test_report_names_the_version(self, capsys):
        assert main(["calculus-check"]) == 0
        assert json.loads(capsys.readouterr().out)["version"] == __version__


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
        assert doc["operator_products"] > doc["iterations"] > 0
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

    def test_report_names_the_version(self, capsys):
        assert main(["solve", *SOLVE_FAST]) == 0
        assert json.loads(capsys.readouterr().out)["version"] == __version__

    def test_mountain_pass_starts_at_path_top(self, tmp_path, capsys):
        # The descent from the unit bump's direction converges, and the
        # polish ends at the critical point the L^2 ray descent from the bump
        # itself found (21.730746582091644).
        report = tmp_path / "r.json"
        code = main(["solve", "--method", "mountain-pass", "--p", "2.5", "--radius", "1",
                     "--grid", "12", "--grad-tol", "1e-5", "--report", str(report)])
        assert code == 0
        doc = json.loads(report.read_text())
        assert doc["stop_reason"] == "grad_tol" and doc["grad_norm"] <= 1e-11
        assert doc["level"] == pytest.approx(21.730746582091644, rel=1e-9)

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
            assert set(doc.pop("timings")) == {"descent", "report"}
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

    def test_unreachable_mountain_pass_endpoint_is_a_failed_solve(self, tmp_path, capsys):
        # make_domain accepts the ball, but at its k^-2 scale the absolute
        # grad_tol lies below the rounding of |g|: the descent stalls, a
        # failed solve (2) with its report
        report = tmp_path / "r.json"
        assert main(["solve", "--method", "mountain-pass", "--radius", "1e-20",
                     "--grid", "8", "--report", str(report)]) == 2
        doc = json.loads(report.read_text(), parse_constant=_reject_constant)
        assert doc["stop_reason"] == "stall"

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
        ["classify", "--inputs", "a.hgf", "b.hgf", "c.hgf", "--stride", "0"],
        ["classify", "--inputs", "a.hgf", "b.hgf", "c.hgf", "--stride", "-3"],
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
        # 1e-15 is below the rounding floor of |g| on this ball: the descent
        # stalls, is not polished, and the solve still writes its report.
        report = tmp_path / "r.json"
        code = main(["solve", "--method", "mountain-pass", "--radius", "2.5", "--grid", "12",
                     "--grad-tol", "1e-15", "--report", str(report)])
        assert code == 2
        doc = json.loads(report.read_text(), parse_constant=_reject_constant)
        assert doc["converged"] is False
        assert doc["stop_reason"] == "stall"
        assert doc["iterations"] < 2000

    def test_no_descent_writes_report(self, tmp_path, capsys, monkeypatch):
        # every line search reports a rise: the first step, along -P, ends
        # the solve
        monkeypatch.setattr(solvers, "_line_min", lambda *args: (0.5, 1.0, None, None))
        report = tmp_path / "r.json"
        code = main(["solve", "--radius", "2.5", "--grid", "12", "--report", str(report)])
        assert code == 2
        doc = json.loads(report.read_text(), parse_constant=_reject_constant)
        assert doc["converged"] is False and doc["stop_reason"] == "no_descent"
        assert doc["iterations"] == 1 and doc["operator_products"] == 2

    def test_report_goes_to_stdout_without_report_path(self, capsys):
        assert main(["solve", *SOLVE_FAST]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["converged"] is True and doc["config"]["report"] == ""

    def test_unwritable_out_is_an_io_error(self, tmp_path, capsys):
        # the error names the file asked for, not the temp file it was to
        # be renamed from
        out = tmp_path / "missing" / "x.hgf"
        assert main(["solve", *SOLVE_FAST, "--out", str(out)]) == 66
        err = capsys.readouterr().err
        assert err.startswith("I/O error: ") and str(out) in err and ".tmp" not in err

    @pytest.mark.parametrize("method", ["constrained-min", "mountain-pass"])
    def test_start_without_positive_mass_is_a_usage_error(self, capsys, method):
        # every node of this ball lies so far from the bump's center that
        # the default start underflows to 0: no solve can begin
        assert main(["solve", "--method", method, "--radius", "1000", "--grid", "8"]) == 64
        assert "the start has no positive-part mass" in capsys.readouterr().err

    def test_solver_fault_is_a_failed_solve(self, capsys, monkeypatch):
        def fault(config):
            raise NumericError("injected fault")

        monkeypatch.setattr(solvers, "solve_constrained_min", fault)
        assert main(["solve", *SOLVE_FAST]) == 2
        assert capsys.readouterr().err == "error: injected fault\n"

    @pytest.mark.parametrize("message", ["Unable to allocate 74.5 GiB for an array", ""])
    def test_memory_error_is_a_usage_error(self, capsys, monkeypatch, message):
        # injected: a grid too large to allocate must not be allocated here
        def fault(config):
            raise MemoryError(message)

        monkeypatch.setattr(solvers, "make_domain", fault)
        assert main(["solve", "--grid", "100000"]) == 64
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: ") and "solve --grid 100000" in err[0]
        assert message in err[0]

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

    def test_ball_without_nodes_is_a_usage_error(self, tmp_path, capsys):
        # The k = 1 ball of the 8^3 grid of radius 6 holds no node: the radius
        # is refused before any solve, and no output is written.
        csv_path, json_path = tmp_path / "ex.csv", tmp_path / "ex.json"
        assert main(["exhaust", "--radii", "1,6", "--grid", "8", "--out-csv", str(csv_path),
                     "--out-json", str(json_path)]) == 64
        assert "the ball of radius 1.0 holds no node" in capsys.readouterr().err
        assert not csv_path.exists() and not json_path.exists()

    def test_entries_carry_each_solve_s_diagnostics(self, tmp_path, capsys):
        # Each JSON entry holds its ball's iterations, stop_reason,
        # operator_products and timings; the first ball's Morse index adds
        # its seconds.  The CSV keeps its six columns.
        csv_path, json_path = tmp_path / "ex.csv", tmp_path / "ex.json"
        assert main(["exhaust", "--radii", "1.5,2", "--grid", "10", "--grad-tol", "1e-3",
                     "--out-csv", str(csv_path), "--out-json", str(json_path)]) == 0
        entries = json.loads(json_path.read_text())["entries"]
        assert len(entries) == 2
        for entry, timed in zip(entries, ({"descent", "polish", "report", "index"},
                                          {"descent", "polish", "report"})):
            assert entry["stop_reason"] == "grad_tol"
            assert 1 <= entry["iterations"] <= entry["operator_products"]
            assert set(entry["timings"]) == timed
            assert all(t >= 0.0 for t in entry["timings"].values())
        rows = csv_path.read_text().splitlines()
        assert rows[0] == "k,c_k,max_value,xi_gauge,delta,r2"
        assert [len(row.split(",")) for row in rows[1:]] == [6, 6]

    def test_report_names_the_version_and_config(self, tmp_path, capsys):
        csv_path, json_path = tmp_path / "ex.csv", tmp_path / "ex.json"
        assert main(["exhaust", "--radii", "1.5,2", "--grid", "10", "--grad-tol", "1e-3",
                     "--out-csv", str(csv_path), "--out-json", str(json_path)]) == 0
        doc = json.loads(json_path.read_text())
        assert doc["version"] == __version__
        assert doc["config"] == {
            "radii": [1.5, 2.0], "p": 2.0, "nodes_per_axis": 10, "max_iters": 40000,
            "grad_tol": 1e-3, "out_csv": str(csv_path), "out_json": str(json_path),
        }

    def test_failed_exhaustion_writes_empty_outputs(self, tmp_path, capsys, monkeypatch):
        def fault(radii, config):
            raise AlgorithmError("injected fault")

        monkeypatch.setattr(solvers, "exhaust_domains", fault)
        csv_path, json_path = tmp_path / "ex.csv", tmp_path / "ex.json"
        code = main(["exhaust", "--radii", "1.5,2.0", "--grid", "10",
                     "--out-csv", str(csv_path), "--out-json", str(json_path)])
        assert code == 2
        assert capsys.readouterr().err == "exhaust failed: injected fault\n"
        assert csv_path.read_text().splitlines() == ["k,c_k,max_value,xi_gauge,delta,r2"]
        doc = json.loads(json_path.read_text())
        assert doc.pop("version") == __version__ and doc.pop("config")["radii"] == [1.5, 2.0]
        assert doc == {"entries": [], "monotone": False}

    @pytest.mark.parametrize("grid, radii", [("9", "2,6"), ("9", "0.9,6"), ("11", "1,6")])
    def test_morse_index_on_a_ball_below_twenty_nodes(self, tmp_path, capsys, grid, radii):
        # The first ball holds 9 or 1 nodes, fewer than five of LOBPCG's
        # blocks, so scipy solves it densely and returns no residual
        # history: the index runs, and the exhaustion fails on its fit of
        # the decay, not on a traceback.
        code = main(["exhaust", "--radii", radii, "--grid", grid, "--grad-tol", "1e-4",
                     "--out-csv", str(tmp_path / "ex.csv"),
                     "--out-json", str(tmp_path / "ex.json")])
        err = capsys.readouterr().err
        assert code == 2 and "Traceback" not in err
        assert err.startswith("exhaust failed: ")

    @pytest.mark.parametrize("radii", ["--radii=0,2", "--radii=-1,2", "--radii=inf,2"])
    def test_rejects_nonpositive_radii(self, tmp_path, capsys, radii):
        assert main(["exhaust", radii, "--grid", "10",
                     "--out-csv", str(tmp_path / "ex.csv"),
                     "--out-json", str(tmp_path / "ex.json")]) == 64
        assert "radii must be finite and positive" in capsys.readouterr().err

    def test_unreachable_endpoint_is_a_failed_entry(self, tmp_path, capsys):
        json_path = tmp_path / "ex.json"
        code = main(["exhaust", "--radii", "1e-20,2e-20", "--grid", "8",
                     "--out-csv", str(tmp_path / "ex.csv"), "--out-json", str(json_path)])
        # at this scale the absolute grad_tol lies below the rounding of |g|:
        # both balls stall, and each entry is reported unconverged
        assert code == 2
        doc = json.loads(json_path.read_text(), parse_constant=_reject_constant)
        assert [e["radius"] for e in doc["entries"]] == [1e-20, 2e-20]
        assert [e["converged"] for e in doc["entries"]] == [False, False]


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
            d4 = _gauge_dist_sq4(grid, GroupPoint(cx, 0.0, 0.0))
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

    def test_verdict_names_the_version_and_config(self, tmp_path, capsys):
        paths = self._write_sequence(tmp_path, "translating")
        assert main(["classify", "--inputs", *paths, "--radii", "1,0.5"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["version"] == __version__
        assert doc["config"] == {"inputs": paths, "q": 3.0, "eps": 0.1, "radii": [1.0, 0.5],
                                 "out": "", "profiles_csv": ""}

    def test_stdout_equals_out_file(self, tmp_path, capsys):
        paths = self._write_sequence(tmp_path, "separating")
        out = tmp_path / "verdict.json"
        assert main(["classify", "--inputs", *paths, "--q", "3.0", "--eps", "0.1",
                     "--out", str(out)]) == 0
        assert capsys.readouterr().out.encode() == out.read_bytes()

    def test_solver_grid_fields(self, tmp_path, capsys):
        # fields on the grid of `solve --radius 4 --grid 32`; the ball-mass
        # kernel used to end this in a "could not broadcast" traceback
        grid, mask = build_ball_grid(4.0, 32)
        rho = grid.gauge_array()
        paths = []
        for m in range(3):
            path = tmp_path / f"state{m}.hgf"
            vals = np.exp(-((rho / (1.0 + 0.5 * m)) ** 2)) * mask
            write_hgf(str(path), ScalarField(grid, vals, mask), ball_radius=4.0)
            paths.append(str(path))
        out = tmp_path / "verdict.json"
        code = main(["classify", "--inputs", *paths, "--radii", "1.0,2.0", "--out", str(out)])
        assert code == 0
        assert len(json.loads(out.read_text())["profiles"]) == 3

    def test_unreadable_input(self, tmp_path, capsys):
        paths = self._write_sequence(tmp_path, "translating")
        paths[1] = str(tmp_path / "missing.hgf")
        assert main(["classify", "--inputs", *paths]) == 66

    @pytest.mark.parametrize("how", ["truncated", "missing"])
    def test_unreadable_input_names_its_path_once(self, tmp_path, capsys, how):
        paths = self._write_sequence(tmp_path, "translating")
        bad = tmp_path / "bad.hgf"
        if how == "truncated":
            bad.write_bytes(open(paths[1], "rb").read()[:-8])
        paths[1] = str(bad)
        assert main(["classify", "--inputs", *paths]) == 66
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("cannot read ")
        assert err.count(str(bad)) == 1

    def test_rejects_nonnumeric_radii(self, tmp_path, capsys):
        paths = self._write_sequence(tmp_path, "translating")
        assert main(["classify", "--inputs", *paths, "--radii", "a,b"]) == 64

    @pytest.mark.parametrize("radii, message", [
        ("0,1", "radii must be finite and positive"),
        ("-1,2", "expected one argument"),  # argparse reads -1,2 as an option
    ])
    def test_rejects_nonpositive_radii(self, tmp_path, capsys, radii, message):
        paths = self._write_sequence(tmp_path, "translating")[:3]
        assert main(["classify", "--inputs", *paths, "--radii", radii]) == 64
        assert message in capsys.readouterr().err

    def test_too_few_inputs(self, tmp_path, capsys):
        paths = self._write_sequence(tmp_path, "translating")[:2]
        assert main(["classify", "--inputs", *paths]) == 64

    def test_one_parser_serves_many_calls(self, tmp_path, capsys):
        # the parser is built on the first call and reused, in one process
        _build_parser.cache_clear()
        paths = self._write_sequence(tmp_path, "translating")
        assert main(["classify", "--inputs", *paths, "--q", "nan"]) == 64
        out = tmp_path / "verdict.json"
        assert main(["classify", "--inputs", *paths, "--q", "3.0", "--eps", "0.05",
                     "--radii", "0.5,1.0,2.0", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["verdict"] == "compactness"
        capsys.readouterr()
        assert main(["--help"]) == 0
        assert "calculus-check" in capsys.readouterr().out
        assert _build_parser.cache_info().misses == 1

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
        ("--q", "0"), ("--q", "-1"), ("--q", "0.5"), ("--q", "nan"), ("--q", "inf"),
        ("--eps", "nan"), ("--eps", "2"), ("--eps", "0"), ("--eps", "0.5"),
        ("--eps", "-0.1"),
    ])
    def test_rejects_bad_numeric_input(self, tmp_path, capsys, flag, value):
        paths = self._write_sequence(tmp_path, "translating")[:3]
        assert main(["classify", "--inputs", *paths, flag, value]) == 64

    @pytest.mark.parametrize("spacing, radii", [
        ((1e150,) * 3, []),  # r^4 + t^2 overflows; was a ValueError traceback
        ((1e200,) * 3, ["--radii", "1e200,2e200"]),  # was an OverflowError traceback
        # only the cell volume 1e-400 is out of range; was a RuntimeWarning,
        # then "field values must be finite" (64)
        ((1e-200, 1e-200, 1.0), []),
        ((1.0, 1.0, 1e155), []),  # 1/h_t^2 underflows; was 0 with overflow warnings
        ((1.0, 1.0, 1e-160), []),  # 1/h_t^2 overflows; was 0
    ], ids=["gauge_overflow", "gauge_overflow_huge_radii", "cell_volume_underflow",
            "inverse_ht_underflow", "inverse_ht_overflow"])
    def test_refuses_grid_out_of_range(self, tmp_path, capsys, spacing, radii):
        # the files come from outside the package, so they are written byte
        # by byte: Grid3 refuses these grids
        header = json.dumps({"n": 1, "extents": [8, 8, 8], "spacing": list(spacing),
                             "origin": [-4.0 * h for h in spacing], "ball_radius": None,
                             "p": None, "metadata": {}}).encode()
        paths = []
        for m in range(3):
            values = np.random.default_rng(m).random((8, 8, 8)).astype("<f8")
            path = tmp_path / f"s{m}.hgf"
            path.write_bytes(MAGIC + struct.pack("<I", len(header)) + header
                             + values.tobytes())
            paths.append(str(path))
        assert main(["classify", "--inputs", *paths, *radii]) == 66
        err = capsys.readouterr().err
        assert "out of range" in err and len(err.splitlines()) == 1


def _run_python(*args):
    """Run this interpreter on args in a fresh process, with heisground
    importable as it is here."""
    import os
    import subprocess

    import heisground

    # the package may be importable only through this process's sys.path
    src = os.path.dirname(os.path.dirname(os.path.abspath(heisground.__file__)))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})


def test_console_script_help():
    proc = _run_python("-m", "heisground.cli", "--help")
    assert proc.returncode == 0
    assert "calculus-check" in proc.stdout


def test_scipy_loads_only_with_a_solver_operator(tmp_path):
    # The field functions apply B's stencil in numpy, so the CLI and the
    # concentration-compactness tools load no scipy module at all.  A solve
    # loads scipy.sparse when it builds its first operator, and its CG is
    # numpy: no scipy.sparse.linalg, and no scipy.interpolate.
    inputs = TestClassify._write_sequence(tmp_path, "translating")
    code = (
        "import json, sys\n"
        "import numpy as np\n"
        "import heisground.cli\n"
        "from heisground import cc_diag, grid, hgf\n"
        "def scipy_modules():\n"
        "    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "report, *inputs = sys.argv[1:]\n"
        "assert heisground.cli.main(['classify', '--inputs', *inputs]) == 0\n"
        "u = hgf.read_hgf(inputs[0])[0]\n"
        "cc_diag.dilation_normalize(u.with_values(u.values / grid.lq_norm(u, 3.0)), 3.0)\n"
        "g, mask = grid.build_ball_grid(2.0, 12)\n"
        "f = grid.ScalarField(g, np.random.default_rng(0).standard_normal(g.shape), mask)\n"
        "cc_diag.energy_split(f, 0.5, 2.0)\n"
        "grid.e_norm_sq(f)\n"
        "before = scipy_modules()\n"
        "rc = heisground.cli.main(['solve', '--method', 'constrained-min',\n"
        "    '--radius', '2.5', '--grid', '12', '--report', report])\n"
        "after = scipy_modules()\n"
        "print(json.dumps([before, rc, 'scipy.sparse' in after, [m for m in after if\n"
        "    m.startswith(('scipy.sparse.linalg', 'scipy.interpolate'))]]))\n"
    )
    proc = _run_python("-c", code, str(tmp_path / "r.json"), *inputs)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [[], 0, True, []]


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="glibc's malloc only")
def test_main_keeps_freed_arrays_for_reuse():
    # By default glibc trims the 3 MiB that three freed 1 MiB arrays leave
    # at the top of its heap, so the next three fault hundreds of pages in
    # again; after `main` the heap keeps them for reuse.
    code = (
        "import contextlib, io, resource\n"
        "import numpy as np\n"
        "import heisground.cli\n"
        "def faults():\n"
        "    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "    for _ in range(40):\n"
        "        arrays = [np.ones(1 << 17) for _ in range(3)]\n"
        "        del arrays\n"
        "    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before\n"
        "faults()\n"
        "default = faults()\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert heisground.cli.main(['--help']) == 0\n"
        "faults()\n"
        "print(default, faults())\n"
    )
    proc = _run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    default, after = map(int, proc.stdout.split())
    assert default >= 40 * 256 and after < 40
