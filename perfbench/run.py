#!/usr/bin/env python3
"""Build and run the end-to-end benchmark of the asura library.

    python3 perfbench/run.py --workload mw_mini_p1 --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout. The first call configures and
builds the driver (perfbench/CMakeLists.txt, which compiles the library
from ../src) into .bench_build/perfbench; later calls only re-check the
build. The driver then generates the workload's inputs from --seed,
measures for --seconds and prints its result; the last line of stdout is
one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics for --trace 0 and the per-layer metrics for
--trace 1. Exits non-zero, without a result line, when the build or the
run fails. See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ("mw_mini_p1", "mw_mini_p8", "sn_storm_p8")
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
DRIVER = os.path.join(BUILD_DIR, "asura_perfbench")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configure once, then bring the driver up to date (quiet on success)."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(ROOT, "src")
    ):
        raise RuntimeError(f"no asura source tree at {ROOT} (CMakeLists.txt, src/)")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "asura_perfbench", "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-8000:])
            raise RuntimeError(f"build step failed: {' '.join(cmd)}")


def check_result(line, trace):
    """Parse the driver's result line and check its shape."""
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise RuntimeError(f"unexpected result keys: {sorted(result)}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        raise RuntimeError("no work attempted")
    metrics = result["metrics"]
    if not metrics:
        raise RuntimeError("no metrics")
    for name, m in metrics.items():
        if set(m) != {"value", "unit"} or not isinstance(m["value"], (int, float)):
            raise RuntimeError(f"malformed metric {name}: {m}")
    if not trace and not all(metrics[k]["value"] > 0 for k in metrics):
        raise RuntimeError("an end-to-end metric is not positive")
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    try:
        build()
    except (RuntimeError, OSError) as e:
        log(str(e))
        return 1

    # The serial workload gets up to 4 OpenMP threads; the 8-rank workloads
    # already run one thread per rank and get one OpenMP thread each.
    threads = 1 if args.workload.endswith("_p8") else min(4, len(os.sched_getaffinity(0)))
    env = dict(os.environ, OMP_NUM_THREADS=str(threads))
    cmd = [DRIVER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"driver did not finish within {RUN_TIMEOUT_S} s")
        return 1
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        log(f"driver failed with exit code {proc.returncode}")
        return 1
    try:
        result = check_result(lines[-1], args.trace == 1)
    except (ValueError, RuntimeError) as e:
        sys.stderr.write(proc.stdout)
        log(f"bad result line: {e}")
        return 1
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
