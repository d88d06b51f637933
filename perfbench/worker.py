"""One workload in one fresh process: set up, run operations, check outputs.

Started by run.py as `python3 worker.py PLAN.json`.  The plan names the
workload, its instance, the reference levels and the input manifest; the
worker writes its result to the plan's "out" path.  Operations run one at
a time in a closed loop.  The set-up ends at the first timed call, whose
`time.monotonic()` (system-wide on Linux) the parent compares with the
moment it started this process.
"""

from __future__ import annotations

import json
import os
import resource
import signal
import statistics
import struct
import sys
import time

import numpy as np

from inputs import FAMILIES, Q_EXP, coords, gauge


def read_hgf_raw(path):
    """(values, shape, spacing, corner) of an HGF file, read independently
    of the program's reader."""
    with open(path, "rb") as fh:
        if fh.read(4) != b"HGF1":
            raise ValueError(f"{path}: bad magic")
        (hlen,) = struct.unpack("<I", fh.read(4))
        header = json.loads(fh.read(hlen).decode("utf-8"))
        shape = tuple(header["extents"])
        values = np.frombuffer(fh.read(), dtype="<f8").reshape(shape)
    return values, shape, tuple(header["spacing"]), tuple(header["origin"])


def _forward(v, axis, h):
    """Forward difference with zero extension beyond the box."""
    out = -v.copy()
    lead = [slice(None)] * 3
    lead[axis] = slice(None, -1)
    out[tuple(lead)] += np.take(v, range(1, v.shape[axis]), axis=axis)
    return out / h


def energy_sq(v, shape, spacing, corner):
    """||X_h v||^2 + ||Y_h v||^2 + ||v||^2 with forward differences."""
    xs, ys, _ = coords(shape, spacing, corner)
    hx, hy, ht = spacing
    dt = _forward(v, 2, ht)
    gx = _forward(v, 0, hx) + 2.0 * ys * dt
    gy = _forward(v, 1, hy) - 2.0 * xs * dt
    return float((gx * gx).sum() + (gy * gy).sum() + (v * v).sum()) * float(np.prod(spacing))


def split_oracle(values, geom, r, p):
    """Reference (defect, annulus mass) of the cutoff energy split at r."""
    rho = gauge(*geom)
    s = np.clip((2.0 * r - rho) / r, 0.0, 1.0)
    phi = s * s * (3.0 - 2.0 * s)
    defect = abs(energy_sq(phi * values, *geom) + energy_sq((1.0 - phi) * values, *geom)
                 - energy_sq(values, *geom))
    ann = (rho >= r) & (rho < 2.0 * r)
    return defect, float((np.abs(values[ann]) ** (p + 1.0)).sum()) * float(np.prod(geom[1]))


def rel_close(value, ref, rel):
    return abs(value - ref) <= rel * abs(ref)


class Stopwatch:
    """Times the timed region of each operation and, when `probe` is set,
    the machine's speed while it runs.

    The machine is shared: its speed drifted by up to 40 % over minutes
    while this benchmark was defined, which no amount of work in one run
    averages out.  With the probe on, a SIGALRM every PERIOD_S seconds
    times a fixed numpy kernel (about 1 ms) on small arrays of its own, in
    the same thread, between the program's bytecodes.  The region's time
    net of those samples, times REFERENCE_S / (median sample), is its time
    at the reference speed.  The kernel allocates no array memory, so the
    program's heap and results are untouched.
    """

    PERIOD_S = 0.25
    REFERENCE_S = 1.0e-3  # about the median sample on an unloaded machine

    def __init__(self, probe):
        self.probe = probe
        self.raw, self.scaled, self.sample_s = [], [], []
        rng = np.random.default_rng(0)
        self._a = rng.standard_normal((16, 16, 16))
        self._d = np.zeros_like(self._a)
        self._e = np.empty_like(self._a)
        self._ys = np.linspace(-4.0, 4.0, 16)[None, :, None]

    def _sample(self, *_):
        t0 = time.perf_counter()
        a, d, e = self._a, self._d, self._e
        for _ in range(60):
            np.subtract(a[:, :, 1:], a[:, :, :-1], out=d[:, :, :-1])
            np.multiply(d, self._ys, out=e)
            np.add(e, a, out=e)
            np.dot(e.ravel(), e.ravel())
        self._samples.append(time.perf_counter() - t0)

    def start(self):
        self._samples = []
        if self.probe:
            self._handler = signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        self._t0 = time.perf_counter()

    def stop(self):
        raw = time.perf_counter() - self._t0
        if self.probe:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, self._handler)
        self.raw.append(raw)
        if self._samples:
            median = statistics.median(self._samples)
            self.sample_s.append(median)
            self.scaled.append((raw - sum(self._samples)) * self.REFERENCE_S / median)
        else:  # a region shorter than one period
            self.scaled.append(raw)


class SolveWorkload:
    """`heisground solve` on one fixed instance, driven through cli.main."""

    def __init__(self, plan, watch, method):
        from heisground import solvers

        self.plan, self.watch, self.method = plan, watch, method
        self.inst = plan["instance"]["solve"]
        self.reference = plan["references"][plan["workload"]]
        solvers.make_domain(solvers.SolverConfig(
            p=self.inst["p"], ball_radius=self.inst["radius"],
            nodes_per_axis=self.inst["grid"], grad_tol=self.inst["grad_tol"]))
        self.field_bytes = 8 * self.inst["grid"] ** 3

    def operation(self, tag):
        from heisground import cli

        inst = self.inst
        out = os.path.join(self.plan["workdir"], f"{tag}.hgf")
        report = os.path.join(self.plan["workdir"], f"{tag}.json")
        argv = ["solve", "--method", self.method, "--p", repr(inst["p"]),
                "--radius", repr(inst["radius"]), "--grid", str(inst["grid"]),
                "--grad-tol", repr(inst["grad_tol"]), "--out", out, "--report", report]
        self.watch.start()
        try:
            rc = cli.main(argv)
        except Exception as exc:  # counted as a failed operation
            return 1, [(self.method, repr(exc))], 0
        finally:
            self.watch.stop()
        try:
            with open(report) as fh:
                rep = json.load(fh)
            problems = self.check(rc, rep, out)
            iterations = int(rep["iterations"])
        except (OSError, ValueError, KeyError, TypeError) as exc:
            problems, iterations = [f"unreadable output: {exc!r}"], 0
        problems = [(self.method, msg) for msg in problems]
        return 1, problems, iterations

    def check(self, rc, rep, out):
        level = rep["level"]
        tol = self.inst["grad_tol"]
        if self.method == "constrained-min":
            values = read_hgf_raw(out)[0]
            checks = {
                "exit code 0": rc == 0,
                "converged": rep["converged"] is True,
                "constraint_defect < 1e-10": rep["constraint_defect"] < 1e-10,
                "residual_rel < 1e-4": rep["residual_rel"] < 1e-4,
                "field >= 0": float(values.min()) >= 0.0,
                f"alpha within 1e-6 of {self.reference}": rel_close(level, self.reference, 1e-6),
            }
        else:
            checks = {
                "exit code 0": rc == 0,
                "converged": rep["converged"] is True,
                f"grad_norm <= {tol}": rep["grad_norm"] <= tol,
                "|<g,u>| <= 1e-6 max(1, c_k)": abs(rep["inner_gu"]) <= 1e-6 * max(1.0, level),
                "|identity defect| <= 1e-6 c_k": abs(rep["identity_defect"]) <= 1e-6 * level,
                f"c_k within 1e-6 of {self.reference}": rel_close(level, self.reference, 1e-6),
            }
        return [f"{name} failed (level {level!r})" for name, ok in checks.items() if not ok]


class CcDiagWorkload:
    """classify on every sequence, dilation_normalize per triple, energy_split."""

    MASS_TOL = 1e-3  # dilation_normalize's default half-mass tolerance

    def __init__(self, plan, watch):
        from heisground import hgf

        self.plan, self.watch = plan, watch
        self.cc = plan["instance"]["cc"]
        manifest = plan["manifest"]
        self.triples = manifest["triples"]
        self.dilation_inputs = [hgf.read_hgf(t["dilation"])[0] for t in self.triples]
        self.split_field = hgf.read_hgf(manifest["split"])[0]
        self.split_raw = read_hgf_raw(manifest["split"])
        self.box = read_hgf_raw(self.triples[0]["dilation"])[1:]
        self.field_bytes = 8 * int(np.prod(self.box[0]))

    def operation(self, tag):
        from heisground import cc_diag, cli

        p = self.cc["p"]
        verdicts, problems = [], []
        self.watch.start()
        for i, triple in enumerate(self.triples):
            for family, settings in FAMILIES.items():
                path = os.path.join(self.plan["workdir"], f"{tag}-t{i}-{family}.json")
                argv = ["classify", "--inputs", *triple[family], "--q", repr(Q_EXP),
                        "--eps", repr(settings["eps"]), "--radii", settings["radii"],
                        "--out", path]
                try:
                    rc = cli.main(argv)
                except Exception as exc:  # counted as a failed operation
                    rc = repr(exc)
                verdicts.append((f"triple {i} {family}", family, rc, path))
        normalized = []
        for i, u in enumerate(self.dilation_inputs):
            try:
                normalized.append(cc_diag.dilation_normalize(u, Q_EXP)[0])
            except Exception as exc:  # counted as a failed operation
                normalized.append(None)
                problems.append((f"dilation_normalize triple {i}", repr(exc)))
        splits = []
        for r in self.cc["split_radii"]:
            try:
                splits.append(cc_diag.energy_split(self.split_field, r, p))
            except Exception as exc:  # counted as a failed operation
                splits.append(None)
                problems.append((f"energy_split r={r}", repr(exc)))
        self.watch.stop()

        for name, family, rc, path in verdicts:
            problems.extend((f"classify {name}", msg)
                            for msg in self.check_verdict(family, rc, path))
        for i, nu in enumerate(normalized):
            if nu is not None and not self.half_mass_at_origin(nu.values):
                problems.append((f"dilation_normalize triple {i}", "unit ball mass off 1/2"))
        values, *geom = self.split_raw
        norm_sq = energy_sq(values, *geom)
        for r, got in zip(self.cc["split_radii"], splits):
            if got is None:
                continue
            defect, annulus = split_oracle(values, geom, r, p)
            if abs(got[0] - defect) > 1e-9 * norm_sq:
                problems.append((f"energy_split r={r}", f"defect {got[0]!r} != {defect!r}"))
            if not rel_close(got[1], annulus, 1e-12):
                problems.append((f"energy_split r={r}", f"annulus {got[1]!r} != {annulus!r}"))
        attempted = len(verdicts) + len(normalized) + len(splits)
        return attempted, problems, 0

    @staticmethod
    def check_verdict(family, rc, path):
        if rc != 0:
            return [f"exit {rc}"]
        try:
            with open(path) as fh:
                out = json.load(fh)
        except (OSError, ValueError) as exc:
            return [f"unreadable verdict {exc!r}"]
        if out["verdict"] != family:
            return [f"verdict {out['verdict']}"]
        if family == "dichotomy" and abs(out["split_mass"] - 0.5) > 0.1:
            return [f"split mass {out['split_mass']}"]
        return []

    def half_mass_at_origin(self, values):
        dens = np.abs(values) ** Q_EXP
        frac = float(dens[gauge(*self.box) < 1.0].sum()) / float(dens.sum())
        return abs(frac - 0.5) <= self.MASS_TOL


def make_workload(plan, watch):
    name = plan["workload"]
    if name == "cm-solve":
        return SolveWorkload(plan, watch, "constrained-min")
    if name == "mp-solve":
        return SolveWorkload(plan, watch, "mountain-pass")
    return CcDiagWorkload(plan, watch)


def layer_metrics(spans, iterations, untraced_wall, traced_wall, field_bytes, faults):
    """Per-layer metrics of one traced operation."""
    from tracer import NAMES, self_times

    own = self_times(spans)
    metrics = {}
    for name in NAMES:
        mine = [i for i, s in enumerate(spans) if s[2] == name]
        metrics[f"{name}.calls"] = (len(mine), "count")
        metrics[f"{name}.self_s"] = (sum(own[i] for i in mine), "s")

    def parent_name(s):
        return spans[s[1]][2] if s[1] >= 0 else None

    armijo = metrics["solvers._armijo_descent.calls"][0]
    tried = sum(1 for s in spans if s[2] in ("functionals.eval_I", "functionals.nehari_scale")
                and parent_name(s) == "solvers._armijo_descent")
    phase1 = phase2 = 0.0
    for s in spans:
        if s[2] == "solvers._ray_descent" and parent_name(s) == "solvers.solve_mountain_pass":
            phase1 += s[3] - spans[s[1]][3]
            phase2 += s[4] - s[3]
    roots = [s for s in spans if s[1] < 0 and s[2] == "cli.main"]
    in_root = [-1] * len(spans)
    for s in spans:  # parents precede children, so one pass labels each tree
        in_root[s[0]] = s[0] if s[1] < 0 else in_root[s[1]]
    root_ids = {s[0] for s in roots}
    covered = sum(own[i] for i in range(len(spans)) if in_root[i] in root_ids)
    per_iter = (lambda n: n / iterations) if iterations else (lambda n: 0.0)
    metrics.update({
        "solvers.iterations": (iterations, "count"),
        "solvers.ms_per_iter": (1e3 * untraced_wall / iterations if iterations else 0.0, "ms"),
        "solvers.linesearch.accept_ratio": (armijo / tried if tried else 0.0, "ratio"),
        "solvers.mp.phase1_s": (phase1, "s"),
        "solvers.mp.phase2_s": (phase2, "s"),
        "grid.ScalarField.per_iter": (
            per_iter(metrics["grid.ScalarField.calls"][0]), "1/iter"),
        "solvers._constraint_mass.per_iter": (
            per_iter(metrics["solvers._constraint_mass.calls"][0]), "1/iter"),
        "grid.field_bytes": (field_bytes, "B_computed"),
        "proc.minor_faults": (faults, "count"),
        "bench.trace_overhead_s": (traced_wall - untraced_wall, "s"),
        "bench.self_time_coverage": (
            covered / sum(s[4] - s[3] for s in roots) if roots else 1.0, "ratio"),
    })
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def main(plan_path):
    with open(plan_path) as fh:
        plan = json.load(fh)
    src = os.path.join(plan["root"], "src")
    sys.path.insert(0, src)
    import heisground
    # Import every traced module now: the import counts as set-up, and the
    # tracer patches only modules already loaded.
    import heisground.cli  # noqa: F401

    if not os.path.abspath(heisground.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"imported heisground from {heisground.__file__}, not {src}")
    # The speed probe runs only when end-to-end times are reported.
    watch = Stopwatch(probe=not plan["trace"])
    workload = make_workload(plan, watch)
    result = {"ready": time.monotonic()}
    if plan["setup_only"]:
        return result
    faults, attempted, failed, problems, iterations = [], 0, 0, [], 0

    def run(tag):
        """One operation; problems are (sub-operation, message) pairs."""
        nonlocal attempted, failed, iterations
        faults_before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        n, found, iterations = workload.operation(tag)
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults_before)
        attempted += n
        failed += len({op for op, _ in found})
        problems.extend(f"{op}: {msg}" for op, msg in found)
        return watch.raw[-1]

    if plan["trace"]:
        from tracer import Tracer, write_spans

        untraced = run("op0")
        tracer = Tracer()
        tracer.install()
        try:
            traced = run("op1")
        finally:
            tracer.uninstall()
        write_spans(plan["spans_out"], tracer.spans)
        result["metrics"] = layer_metrics(tracer.spans, iterations, untraced, traced,
                                          workload.field_bytes, faults[0])
    else:
        start = time.perf_counter()
        while not watch.raw or time.perf_counter() - start < plan["seconds"]:
            run(f"op{len(watch.raw)}")
    result.update(
        walls=watch.raw,
        scaled=watch.scaled,
        sample_s=watch.sample_s,
        attempted=attempted,
        failed=failed,
        problems=problems,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    return result


if __name__ == "__main__":
    with open(sys.argv[1]) as fh:
        out_path = json.load(fh)["out"]
    res = main(sys.argv[1])
    with open(out_path, "w") as fh:
        json.dump(res, fh)
