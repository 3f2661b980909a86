#!/usr/bin/env python3
"""The benchmark's own test: traced runs repeat their exact work counts.

For each workload, runs the traced replay (--trace 1) twice at width 1 and
once at every core, and asserts that the deterministic counts (proposals,
QUBO computations, filter rejections, exchanges, migrations, resamples,
chip-cache hits/misses/evictions, the result checksum, D-QUBO work) are
identical across all three runs.  Pool steals and parks are not compared:
they depend on scheduling.

    python3 hycimbench/test_fingerprint.py [workload ...]
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fig10_qkp", "serve_mix", "ladder_islands")
SEED = 7


def traced_counts(workload, width):
    """Runs one traced replay and returns its exact counts."""
    run = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "2", "--trace", "1",
         "--width", str(width)],
        cwd=ROOT, capture_output=True, text=True, check=False)
    if run.returncode != 0:
        raise AssertionError(f"{workload} width {width} exited "
                             f"{run.returncode}:\n{run.stdout}{run.stderr}")
    result = json.loads(run.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise AssertionError(f"{workload} width {width}: {result}")
    trace_path = next(line.split(" -> ", 1)[1]
                      for line in run.stdout.splitlines()
                      if line.startswith("trace: "))
    with open(trace_path) as f:
        return json.load(f)["counts"]


def main():
    workloads = sys.argv[1:] or WORKLOADS
    cores = os.cpu_count() or 1
    failures = 0
    for workload in workloads:
        runs = {f"w1#{k}": traced_counts(workload, 1) for k in (1, 2)}
        runs[f"w{cores}"] = traced_counts(workload, cores)
        reference = runs["w1#1"]
        for name, counts in runs.items():
            if counts != reference:
                failures += 1
                diff = {k: (reference.get(k), counts.get(k))
                        for k in set(reference) | set(counts)
                        if reference.get(k) != counts.get(k)}
                print(f"FAIL {workload} {name} differs from w1#1: {diff}")
        if all(counts == reference for counts in runs.values()):
            print(f"ok   {workload}: {len(runs)} traced runs agree on "
                  f"{len(reference)} counts "
                  f"({reference['qubo_computations']} QUBO computations)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
