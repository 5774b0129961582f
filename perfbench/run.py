#!/usr/bin/env python3
"""Repository benchmark for PrivApprox: build, run one workload, report.

    python3 perfbench/run.py --workload inproc|tcp|durable_tcp --seed N \
        --seconds S --trace 0|1

Run from the repository root. Builds perfbench/ (which compiles ../src)
with CMake into $CARGO_TARGET_DIR or .bench_build/, then runs the
perfbench binary (--trace 0) or perfbench_traced (--trace 1, which counts
heap allocations per layer). Build output goes to stderr; the binary's
stdout is passed through, so the last stdout line is the result JSON. The
exit status is the binary's; nothing is printed as a result if the build or
the run fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("inproc", "tcp", "durable_tcp")
RUN_TIMEOUT_S = 170


def build(build_dir):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(
        ["cmake", "--build", build_dir, "-j", jobs,
         "--target", "perfbench", "perfbench_traced"],
        check=True, stdout=sys.stderr, stderr=sys.stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")

    build_dir = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    try:
        build(build_dir)
    except (subprocess.CalledProcessError, OSError) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 2

    work_dir = os.path.join(build_dir, "runs")
    os.makedirs(work_dir, exist_ok=True)
    binary = "perfbench_traced" if args.trace == "1" else "perfbench"
    cmd = [os.path.join(build_dir, binary),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--work-dir", work_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        print("perfbench: run failed with status %d" % proc.returncode,
              file=sys.stderr)
        return proc.returncode if proc.returncode > 0 else 4
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        print("perfbench: malformed result line", file=sys.stderr)
        return 5
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
