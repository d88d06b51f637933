"""Self-test of the benchmark harness on the small unit-test instance.

    python3 perfbench/selftest.py

Runs every workload on k = 2.5, N = 12 (seconds, not minutes), untraced
and traced, and asserts that every metric of BENCHMARK.json prints with
its unit and that the traced counts repeat.  Then a deliberately wrong
reference level must show up as failed operations (ok_frac < 1), not as
an exception.
"""

from __future__ import annotations

import json
import os
import sys

from run import HERE, INSTANCE, WORKLOADS, run_benchmark

SMALL = {
    "solve": {"p": 2.0, "radius": 2.5, "grid": 12, "grad_tol": 1e-5},
    "cc": dict(INSTANCE["cc"], triples=1, split_k=2.5, split_n=12,
               split_radii=[0.75, 1.0, 1.25, 1.5, 1.75, 2.0, 2.25]),
}
SMALL_REFERENCES = {"cm-solve": 3.36138057, "mp-solve": 50.63977816}


def check_metrics(result, declared):
    got = result["metrics"]
    assert set(got) == {m["name"] for m in declared}, sorted(set(got) ^ {m["name"] for m in declared})
    for m in declared:
        assert got[m["name"]]["unit"] == m["unit"], (m, got[m["name"]])
        assert isinstance(got[m["name"]]["value"], (int, float)), m


def main():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    for workload in WORKLOADS:
        plain = run_benchmark(workload, 1, 0.1, 0, SMALL, SMALL_REFERENCES)
        assert plain["correct"] and plain["failed"] == 0, plain
        check_metrics(plain, bench["end_to_end"])
        traces = [run_benchmark(workload, 1, 0.1, 1, SMALL, SMALL_REFERENCES) for _ in range(2)]
        for traced in traces:
            assert traced["correct"], traced
            check_metrics(traced, bench["per_layer"])
        counts = [{k: v["value"] for k, v in t["metrics"].items() if k.endswith(".calls")}
                  for t in traces]
        assert counts[0] == counts[1], "traced call counts differ between runs"
        coverage = traces[0]["metrics"]["bench.self_time_coverage"]["value"]
        assert abs(coverage - 1.0) < 1e-6, coverage
        print(f"{workload}: ok ({plain['attempted']} operations, "
              f"wall {plain['metrics']['wall_ref_s']['value']:.3f} s)")
    wrong = {k: v * 1.01 for k, v in SMALL_REFERENCES.items()}
    for workload in ("cm-solve", "mp-solve"):
        res = run_benchmark(workload, 1, 0.1, 0, SMALL, wrong)
        assert res["failed"] > 0 and not res["correct"], res
        assert res["metrics"]["ok_frac"]["value"] < 1.0, res
        print(f"{workload}: wrong reference level counted as failed ({res['failed']} of "
              f"{res['attempted']})")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
