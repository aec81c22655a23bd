#!/usr/bin/env python3
"""Builds gtsbench from source and runs one workload of the GTS benchmark.

Run from the root of a checkout:

    python3 gtsbench/run.py --workload bfs-ssd --seed 1 --seconds 20 --trace 0

The build goes to $CARGO_TARGET_DIR/gtsbench when that variable is set,
else to .bench_build/gtsbench. Build output goes to standard error; the
benchmark's report goes to standard output and ends with one JSON line.
The exit code is non-zero, with no JSON line, when the build or the run
fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 175
# pagerank-mem is runnable but not declared in BENCHMARK.json (README.md).
WORKLOADS = ["bfs-ssd", "pagerank-mem", "serve-ingest"]


def build(build_root):
    """Configures and builds gtsbench; returns the binary's path."""
    build_dir = os.path.join(build_root, "gtsbench")
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "-j", "4"],
    ]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            sys.exit("gtsbench: build step failed: " + " ".join(step))
    return os.path.join(build_dir, "gtsbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    binary = build(build_root)
    traces = os.path.join(build_root, "traces")
    os.makedirs(traces, exist_ok=True)
    command = [
        binary, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", args.trace,
        "--state-dir", os.path.join(build_root, "determinism"),
        "--trace-out", os.path.join(traces, args.workload + ".trace.json"),
    ]
    sys.stdout.flush()
    try:
        result = subprocess.run(command, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("gtsbench: run exceeded %d s" % RUN_TIMEOUT_S)
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
