"""Command-line front end.

Commands: calculus-check, solve, exhaust, classify.  JSON is the control
plane (configs, reports), CSV carries plot series, HGF stores fields.
Exit codes: 0 success, 1 invariant failure, 2 non-convergence, 64 usage
(also a request too large to allocate), 66 I/O.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import functools
import io
import json
import math
import sys
import time
from dataclasses import asdict

from . import __version__, cc_diag, hgf, solvers
from .errors import ConfigurationError, DomainError, HeisgroundError
from .heis_core import calculus_check_suite

EXIT_OK = 0
EXIT_INVARIANT = 1
EXIT_NONCONVERGED = 2
EXIT_USAGE = 64
EXIT_IO = 66


# mallopt parameters of glibc's malloc (malloc.h).  A freed block above
# M_MMAP_THRESHOLD goes back to the kernel, and so does the free top of the
# heap beyond M_TRIM_THRESHOLD; the next array of that size faults its
# pages in afresh.  Both start at 128 KiB and rise only as large blocks are
# freed, so a command's field-sized temporaries (219 KiB on the classifier's
# 20 x 20 x 70 box, 256 KiB at 32^3) kept faulting: about 60 000 minor
# faults per pass of the benchmark's cc-diag operation, and 2 000 with the
# thresholds below.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD_BYTES = 32 << 20  # glibc's largest on 64-bit systems
_TRIM_THRESHOLD_BYTES = 64 << 20  # twice that, glibc's own ratio


# Solver flags of `solve` and `exhaust`: flag -> SolverConfig field.  Each
# flag takes its type and default from the field's default.
_SOLVER_FLAGS = {
    "--p": "p",
    "--radius": "ball_radius",
    "--grid": "nodes_per_axis",
    "--max-iters": "max_iters",
    "--grad-tol": "grad_tol",
}


def _json(obj) -> str:
    """The JSON text of every report and verdict: indented, keys sorted."""
    return json.dumps(obj, indent=2, sort_keys=True)


def _config(args, **parsed) -> dict:
    """A report's "config": the subcommand's parsed arguments, each value
    that the command parses further given as parsed."""
    return {**{k: v for k, v in vars(args).items() if k != "command"}, **parsed}


def _write_text(path: str, text: str) -> None:
    """Write text and a newline to path: the bytes print(text) puts on stdout."""
    hgf.atomic_write(path, (text + "\n").encode())


def _fmt(v) -> str:
    return f"{v:.17g}" if isinstance(v, float) else str(v)


def _write_csv(path: str, header, rows) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(v) for v in row])
    hgf.atomic_write(path, buf.getvalue().encode())


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


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first `main` call and kept: parsing
    leaves it unchanged, and a process may call `main` many times."""
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
    pk.add_argument("--out", default="", help="JSON verdict path")
    pk.add_argument("--profiles-csv", default="", help="CSV of Q(R) profiles")

    return parser


@functools.cache
def _reuse_freed_memory() -> None:
    """Let glibc's malloc keep freed arrays of up to 32 MiB for reuse, and
    up to 64 MiB free at the top of its heap, in this process.  Elsewhere
    (another C library or platform) nothing changes."""
    if not sys.platform.startswith("linux"):
        return
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD_BYTES)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_calculus_check(args) -> int:
    checks = calculus_check_suite(seed=args.seed)
    failed = [c["name"] for c in checks if not c["passed"]]
    text = _json({"checks": checks, "failed": failed, "passed": not failed,
                  "version": __version__})
    if args.out:
        _write_text(args.out, text)
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
        "config": _config(args),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "version": __version__,
        **rep.as_dict(),
    }
    if args.out:
        hgf.write_hgf(args.out, rep.field, ball_radius=cfg.ball_radius, p=cfg.p,
                      metadata={"method": args.method})
    if args.report:
        _write_text(args.report, _json(report))
    else:
        print(_json(report))
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
    try:
        verdict = solvers.exhaust_domains(radii, cfg).as_dict()
    except ConfigurationError:
        raise  # bad radii: a usage error, not a failed solve
    except HeisgroundError as exc:
        print(f"exhaust failed: {exc}", file=sys.stderr)
        verdict = {"monotone": False, "entries": []}
    rows = verdict["entries"]
    failed = not rows or not all(r["converged"] for r in rows)
    verdict.update(version=__version__, config=_config(args, radii=radii))
    _write_csv(
        args.out_csv,
        ["k", "c_k", "max_value", "xi_gauge", "delta", "r2"],
        [
            [r["radius"], r["level"], r["max_value"], r["xi_gauge"], r["delta"],
             r["r_squared"]]
            for r in rows
        ],
    )
    _write_text(args.out_json, _json(verdict))
    return EXIT_NONCONVERGED if failed else EXIT_OK


def cmd_classify(args) -> int:
    radii = _parse_radii(args.radii)
    fields = []
    for path in args.inputs:
        try:
            fields.append(hgf.read_hgf(path)[0])
        except HeisgroundError as exc:  # read_hgf's messages start with the path
            print(f"cannot read {exc}", file=sys.stderr)
            return EXIT_IO
        except OSError as exc:  # str(exc) names the path too
            print(f"cannot read {path}: {exc.strerror or exc}", file=sys.stderr)
            return EXIT_IO
    # Every file is read before any is normalized, so a read error comes
    # first; each field is then kept only as its density.
    for i in range(len(fields)):
        fields[i] = cc_diag.normalize_mass(fields[i], args.q)
    result = cc_diag.classify_sequence(fields, eps=args.eps, R_grid=radii)
    text = _json({**result.as_dict(), "version": __version__,
                  "config": _config(args, radii=radii)})
    if args.out:
        _write_text(args.out, text)
    print(text)
    if args.profiles_csv:
        rows = []
        for m, prof in enumerate(result.profiles):
            for r, q, _ in prof:
                rows.append([m, r, q])
        _write_csv(args.profiles_csv, ["index", "R", "Q"], rows)
    return EXIT_OK


def main(argv=None) -> int:
    _reuse_freed_memory()
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
    except MemoryError as exc:  # a grid or radius list too large to allocate
        request = " ".join(sys.argv[1:] if argv is None else argv)
        print(f"error: not enough memory for `heisground {request}`"
              + (f": {exc}" if str(exc) else ""), file=sys.stderr)
        return EXIT_USAGE
    except HeisgroundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGED


if __name__ == "__main__":
    raise SystemExit(main())
