#!/usr/bin/env python3
"""Builds the HyCiM benchmark from source and runs one workload.

Usage (from the repository root):

    python3 hycimbench/run.py --workload fig10_qkp --seed 1 --seconds 15 --trace 0

The build goes to $CARGO_TARGET_DIR/hycimbench (default
.bench_build/hycimbench) in Release mode; later runs reuse it.  Build
output goes to stderr, so the last line of stdout is the JSON result
line.  Traced runs (--trace 1) also write their spans and exact
work counts to <build>/traces/.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fig10_qkp", "serve_mix", "ladder_islands")


def build(build_dir):
    """Configures (once) and builds the benchmark; returns its path."""
    jobs = str(max(1, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if _has("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"] + generator,
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "--target", "hycimbench",
                    "-j", jobs], check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "hycimbench")


def _has(program):
    return any(os.access(os.path.join(d, program), os.X_OK)
               for d in os.environ.get("PATH", "").split(os.pathsep))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--width", type=int, default=0,
                        help="batch width per request (0 = all cores)")
    args = parser.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "hycim.hpp")):
        print("hycimbench: no HyCiM sources next to the benchmark "
              f"(expected {os.path.join(ROOT, 'src')})", file=sys.stderr)
        return 2
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    build_dir = os.path.join(target, "hycimbench")
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"hycimbench: build failed: {err}", file=sys.stderr)
        return 2
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--width", str(args.width),
               "--out", os.path.join(build_dir, "traces")]
    sys.stdout.flush()
    return subprocess.run(command, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
