"""Benchmark of heisground: the cm-solve, mp-solve and cc-diag workloads.

    python3 perfbench/run.py --workload cm-solve --seed 0 --seconds 10 --trace 0

Run from the root of a source checkout; the package is imported from its
`src/`.  Each workload runs in a fresh worker process, one operation at a
time (closed loop, one client).  With `--trace 0` the last stdout line is
the end-to-end result: wall_ref_s (median time of one operation at the
reference machine speed, see worker.Stopwatch; operations repeat until
--seconds have passed), setup_s (median, over seven fresh processes, of
process start to the first timed call), peak_rss_mb and ok_frac.  With
`--trace 1` the worker runs one untraced and one traced operation and the
line carries the per-layer metrics; the spans go to perfbench/_out/.  A
provenance line (machine, library versions, raw operation times and probe
samples) precedes the result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "_out")
WORKLOADS = ("cm-solve", "mp-solve", "cc-diag")
SETUP_SAMPLES = 7  # processes whose set-up time is measured per run
WORKER_TIMEOUT_S = 170.0
# BLAS runs single-threaded in the workers.  With the default two OpenBLAS
# threads on a 2-core machine, the small vector products of the solvers
# run slower on average and some runs take twice as long.
SINGLE_THREADED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                   "MKL_NUM_THREADS": "1"}

INSTANCE = {
    # `heisground solve --p 2 --radius 4 --grid 32 --grad-tol 1e-5`
    "solve": {"p": 2.0, "radius": 4.0, "grid": 32, "grad_tol": 1e-5},
    # 10 criterion-7 triples on the 20 x 20 x 70 box; energy_split at the
    # criterion-8 radii on the k = 4, N = 32 ball grid.
    "cc": {"triples": 10, "box_k": 3.5, "box_n": 20, "split_k": 4.0, "split_n": 32,
           "split_radii": [1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5], "p": 2.0},
}
# Levels computed at the commit that introduced this benchmark: alpha for
# constrained-min and c_k for mountain-pass, each checked to 1e-6 relative.
REFERENCES = {"cm-solve": 3.56610656, "mp-solve": 60.46745451}


class BenchError(Exception):
    """The benchmark could not measure (as opposed to a failed operation)."""


def _spawn(plan, tag):
    """Run one worker process to completion; return (its result, spawn time)."""
    plan = dict(plan, out=os.path.join(plan["workdir"], f"{tag}.result.json"))
    plan_path = os.path.join(plan["workdir"], f"{tag}.plan.json")
    with open(plan_path, "w") as fh:
        json.dump(plan, fh)
    log_path = os.path.join(plan["workdir"], f"{tag}.stderr")
    with open(log_path, "w") as log:
        spawned = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "worker.py"), plan_path],
            cwd=plan["workdir"], env=dict(os.environ, **SINGLE_THREADED),
            stdout=subprocess.DEVNULL, stderr=log)
        try:
            rc = proc.wait(timeout=WORKER_TIMEOUT_S)
        except BaseException as exc:  # timeout, interrupt or SIGTERM: stop the worker
            proc.kill()
            proc.wait()
            if isinstance(exc, subprocess.TimeoutExpired):
                raise BenchError(f"worker {tag} exceeded {WORKER_TIMEOUT_S} s") from None
            raise
    if rc != 0 or not os.path.exists(plan["out"]):
        with open(log_path) as fh:
            tail = fh.read()[-2000:]
        raise BenchError(f"worker {tag} exited with {rc}:\n{tail}")
    with open(plan["out"]) as fh:
        return json.load(fh), spawned


def run_benchmark(workload, seed, seconds, trace, instance=INSTANCE, references=REFERENCES):
    """Measure one workload; return the result object printed as the last line."""
    if workload not in WORKLOADS:
        raise BenchError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    if not os.path.isfile(os.path.join(ROOT, "src", "heisground", "__init__.py")):
        raise BenchError(f"no heisground sources under {os.path.join(ROOT, 'src')}")
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        plan = {"root": ROOT, "workload": workload, "seed": seed, "seconds": seconds,
                "trace": trace, "instance": instance, "references": references,
                "workdir": workdir, "manifest": None, "setup_only": False,
                "spans_out": os.path.join(OUT, f"spans-{workload}-seed{seed}.tsv")}
        sys.path.insert(0, os.path.join(ROOT, "src"))
        if workload == "cc-diag":
            from inputs import generate_cc

            plan["manifest"] = generate_cc(workdir, seed, instance["cc"])
        setups = []
        for i in range(SETUP_SAMPLES - 1):
            probe, spawned = _spawn(dict(plan, setup_only=True), f"setup{i}")
            setups.append(probe["ready"] - spawned)
        res, spawned = _spawn(plan, "run")
        setups.append(res["ready"] - spawned)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for line in res["problems"][:20]:
        print(f"check failed: {line}", file=sys.stderr)
    failed = res["failed"]
    if trace:
        metrics = res["metrics"]
    else:
        metrics = {
            "wall_ref_s": {"value": statistics.median(res["scaled"]), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
            "ok_frac": {"value": 1.0 - failed / res["attempted"], "unit": "ratio"},
        }
    result = {"correct": failed == 0, "attempted": res["attempted"], "failed": failed,
              "metrics": metrics}
    if not trace:
        result["raw"] = {"wall_s": res["walls"], "probe_sample_s": res["sample_s"]}
    return result


def provenance():
    """Machine and library facts that the figures depend on."""
    import heisground
    import numpy
    import scipy

    info = {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__}
    try:
        with open("/proc/cpuinfo") as fh:
            info["cpu"] = next((ln.split(":", 1)[1].strip() for ln in fh
                                if ln.startswith("model name")), None)
    except OSError:
        info["cpu"] = None
    for level, index in (("L2", 2), ("L3", 3)):
        try:
            with open(f"/sys/devices/system/cpu/cpu0/cache/index{index}/size") as fh:
                info[level] = fh.read().strip()
        except OSError:
            info[level] = None
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    info["blas_threads"] = SINGLE_THREADED
    info["heisground"] = heisground.__version__
    try:
        info["commit"] = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        info["commit"] = None
    return info


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        result = run_benchmark(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"provenance": provenance(), "raw": result.pop("raw", None)}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
