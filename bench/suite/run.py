#!/usr/bin/env python3
"""Builds uindex_bench from this checkout and runs one of its workloads.

Usage, from the repository root:

    python3 bench/suite/run.py --workload point --seed 1 --seconds 10 --trace 0

The build goes to .bench_build/uindex_bench (configured once, then rebuilt
incrementally); its output goes to standard error. The benchmark's own
output follows on standard output, and its last line is the workload's
result: one JSON object with the keys correct, attempted, failed and
metrics. The exit status is non-zero when the build fails, a correctness
gate fails, the run overruns, or no result is printed.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SUITE = ROOT / "bench" / "suite"
BUILD = ROOT / ".bench_build" / "uindex_bench"
BINARY = BUILD / "uindex_bench"
WORKLOADS = ("point", "rollup", "paths_rw", "served")
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    if not (BUILD / "CMakeCache.txt").exists():
        subprocess.run(
            ["cmake", "-S", str(SUITE), "-B", str(BUILD),
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", str(BUILD), "--target", "uindex_bench",
         "-j", jobs],
        stdout=sys.stderr, check=True)


def run(args):
    cmd = [str(BINARY), f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--trace={args.trace}"]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print(f"run.py: {args.workload} overran {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 1
    lines = out.splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        if lines:
            print(lines[-1])
        print("run.py: the benchmark printed no result", file=sys.stderr)
        return 1
    print(json.dumps(result), flush=True)
    return proc.returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
