"""Command-line front end.

Commands: calculus-check, solve, exhaust, classify.  JSON is the control
plane (configs, reports), CSV carries plot series, HGF stores fields.
Exit codes: 0 success, 1 invariant failure, 2 non-convergence, 64 usage,
66 I/O.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import tempfile
import time
from dataclasses import asdict

from . import cc_diag, hgf, solvers
from .errors import ConfigurationError, DomainError, HeisgroundError
from .heis_core import calculus_check_suite

EXIT_OK = 0
EXIT_INVARIANT = 1
EXIT_NONCONVERGED = 2
EXIT_USAGE = 64
EXIT_IO = 66


# Solver flags of `solve` and `exhaust`: flag -> SolverConfig field.  Each
# flag takes its type and default from the field's default.
_SOLVER_FLAGS = {
    "--p": "p",
    "--radius": "ball_radius",
    "--grid": "nodes_per_axis",
    "--max-iters": "max_iters",
    "--grad-tol": "grad_tol",
}


def _atomic_write_text(path: str, text: str) -> None:
    dirname = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=dirname, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_json(path: str, obj) -> None:
    _atomic_write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _fmt(v) -> str:
    return f"{v:.17g}" if isinstance(v, float) else str(v)


def _write_csv(path: str, header, rows) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(v) for v in row])
    _atomic_write_text(path, buf.getvalue())


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _add_solver_flags(parser, skip=None) -> None:
    defaults = asdict(solvers.SolverConfig())
    for flag, name in _SOLVER_FLAGS.items():
        if flag != skip:
            parser.add_argument(flag, dest=name, type=type(defaults[name]),
                                default=defaults[name],
                                help=f"SolverConfig.{name} (default %(default)s)")


def _solver_config(args) -> solvers.SolverConfig:
    """The SolverConfig of the parsed solver flags (unparsed fields keep
    their defaults)."""
    return solvers.SolverConfig(
        **{name: getattr(args, name) for name in _SOLVER_FLAGS.values() if name in args}
    )


def _seed(text: str) -> int:
    """A random seed: numpy's generators take non-negative integers only."""
    try:
        seed = int(text)
        if seed >= 0:
            return seed
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="heisground", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("calculus-check", help="run the group-calculus invariant suite")
    pc.add_argument("--seed", type=_seed, default=0)
    pc.add_argument("--out", default="", help="optional JSON output path")

    ps = sub.add_parser("solve", help="compute a ground state on one gauge ball")
    ps.add_argument("--method", choices=["mountain-pass", "constrained-min"],
                    default="constrained-min")
    _add_solver_flags(ps)
    ps.add_argument("--out", default="", help="HGF output path for the field")
    ps.add_argument("--report", default="", help="JSON report path")

    pe = sub.add_parser("exhaust", help="mountain-pass levels on nested balls")
    pe.add_argument("--radii", default="2,3,4,5,6",
                    help="comma-separated increasing ball radii")
    _add_solver_flags(pe, skip="--radius")  # --radii sets the balls
    pe.add_argument("--out-csv", default="exhaust.csv")
    pe.add_argument("--out-json", default="exhaust.json")

    pk = sub.add_parser("classify", help="trichotomy verdict for a field sequence")
    pk.add_argument("--inputs", nargs="+", required=True, help="HGF files, in order")
    pk.add_argument("--q", type=float, default=3.0)
    pk.add_argument("--eps", type=float, default=0.1)
    pk.add_argument("--radii", default="0.5,1.0,1.5",
                    help="comma-separated probe ball radii")
    pk.add_argument("--stride", type=int, default=2)
    pk.add_argument("--out", default="", help="JSON verdict path")
    pk.add_argument("--profiles-csv", default="", help="CSV of Q(R) profiles")

    return parser


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_calculus_check(args) -> int:
    checks = calculus_check_suite(seed=args.seed)
    failed = [c["name"] for c in checks if not c["passed"]]
    out = {"checks": checks, "failed": failed, "passed": not failed}
    text = json.dumps(out, indent=2, sort_keys=True)
    if args.out:
        _atomic_write_text(args.out, text + "\n")
    print(text)
    if failed:
        print(f"FAILED checks: {', '.join(failed)}", file=sys.stderr)
        return EXIT_INVARIANT
    return EXIT_OK


def cmd_solve(args) -> int:
    cfg = _solver_config(args)
    if args.method == "mountain-pass":
        rep = solvers.solve_mountain_pass(cfg)
    else:
        rep = solvers.solve_constrained_min(cfg)
    report = {
        "config": {"method": args.method, **asdict(cfg), "out": args.out,
                   "report": args.report},
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        **rep.as_dict(),
    }
    if args.out:
        hgf.write_hgf(args.out, rep.field, ball_radius=cfg.ball_radius, p=cfg.p,
                      metadata={"method": args.method})
    if args.report:
        _write_json(args.report, report)
    else:
        print(json.dumps(report, indent=2, sort_keys=True))
    return EXIT_OK if rep.converged else EXIT_NONCONVERGED


def _parse_radii(text: str):
    """Comma-separated radii, each finite and positive."""
    try:
        radii = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigurationError(f"bad radii list {text!r}") from exc
    if not radii or not all(0.0 < r < math.inf for r in radii):
        raise ConfigurationError(f"radii must be finite and positive, got {text!r}")
    return radii


def cmd_exhaust(args) -> int:
    radii = _parse_radii(args.radii)
    cfg = _solver_config(args)
    rows = []
    failed = False
    try:
        report = solvers.exhaust_domains(radii, cfg)
    except ConfigurationError:
        raise  # bad radii: a usage error, not a failed solve
    except HeisgroundError as exc:
        print(f"exhaust failed: {exc}", file=sys.stderr)
        failed = True
        report = None
    if report is not None:
        verdict = report.as_dict()
        rows = verdict["entries"]
        for entry, e in zip(rows, report.entries):
            entry["converged"] = e.report.converged
            failed = failed or not e.report.converged
    else:
        verdict = {"monotone": False, "entries": []}
    _write_csv(
        args.out_csv,
        ["k", "c_k", "max_value", "xi_gauge", "delta", "r2"],
        [
            [r["radius"], r["level"], r["max_value"], r["xi_gauge"], r["delta"],
             r["r_squared"]]
            for r in rows
        ],
    )
    _write_json(args.out_json, verdict)
    return EXIT_NONCONVERGED if failed else EXIT_OK


def cmd_classify(args) -> int:
    radii = _parse_radii(args.radii)
    fields = []
    for path in args.inputs:
        try:
            f, _ = hgf.read_hgf(path)
        except (OSError, HeisgroundError) as exc:
            print(f"cannot read {path}: {exc}", file=sys.stderr)
            return EXIT_IO
        fields.append(f)
    densities = [cc_diag.normalize_mass(f, args.q) for f in fields]
    result = cc_diag.classify_sequence(
        densities, eps=args.eps, R_grid=radii, center_stride=args.stride
    )
    out = result.as_dict()
    text = json.dumps(out, indent=2, sort_keys=True)
    if args.out:
        _atomic_write_text(args.out, text + "\n")
    print(text)
    if args.profiles_csv:
        rows = []
        for m, prof in enumerate(result.profiles):
            for r, q, _ in prof.samples:
                rows.append([m, r, q])
        _write_csv(args.profiles_csv, ["index", "R", "Q"], rows)
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE
    handlers = {
        "calculus-check": cmd_calculus_check,
        "solve": cmd_solve,
        "exhaust": cmd_exhaust,
        "classify": cmd_classify,
    }
    try:
        return handlers[args.command](args)
    except (ConfigurationError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except HeisgroundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGED


if __name__ == "__main__":
    raise SystemExit(main())
