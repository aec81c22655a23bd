#!/usr/bin/env python3
"""Smoke test of the GTS benchmark on a tiny graph (2^10 vertices).

Run from the root of a checkout:

    python3 gtsbench/smoke_test.py

It builds gtsbench (as run.py does) and asserts, for every workload:
  - an untraced run reports every end-to-end metric of BENCHMARK.json with
    its unit, and every op passes its reference check;
  - a traced run reports every per-layer metric with its unit, and in its
    Chrome trace every child span lies inside its parent, with engine
    profiling scopes nested under the benchmark's spans;
  - a run with one deliberately corrupted result is counted as failed.
It also asserts that run.py fails without printing a result when the
repo's sources are absent. Exits non-zero on the first failed assertion.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.dont_write_bytecode = True
sys.path.insert(0, HERE)
import run  # noqa: E402  (the benchmark's build step)

TINY = ["--scale", "10", "--seconds", "0.5"]


def bench(binary, workload, trace, *extra):
    command = [binary, "--workload", workload, "--seed", "5",
               "--trace", str(trace)] + TINY + list(extra)
    out = subprocess.run(command, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def check_metrics(result, declared, what):
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in declared}
    assert got == want, "%s metrics differ from BENCHMARK.json: %s" % (
        what, sorted(set(got.items()) ^ set(want.items())))


def check_nesting(trace_path):
    with open(trace_path) as f:
        events = json.load(f)["traceEvents"]
    assert events, "empty trace"
    nested_engine_spans = 0
    for event in events:
        parent = event["args"]["parent"]
        if parent < 0:
            continue
        p = events[parent]
        # ts/dur are printed with 3 decimals; allow for that rounding.
        assert event["tid"] == p["tid"], event
        assert event["ts"] >= p["ts"] - 0.002, (event, p)
        assert (event["ts"] + event["dur"] <=
                p["ts"] + p["dur"] + 0.002), (event, p)
        if event["name"].startswith("engine.") and event["name"] not in (
                "engine.construct",):
            nested_engine_spans += 1
    assert nested_engine_spans > 0, "no engine profiling scope was nested"


def check_bare_checkout():
    """run.py must fail, printing no result, with only the benchmark."""
    bare = os.path.join(ROOT, ".bench_build", "smoke", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "gtsbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = dict(os.environ)
    env.pop("CARGO_TARGET_DIR", None)
    out = subprocess.run(
        ["python3", "gtsbench/run.py", "--workload", "bfs-ssd", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, env=env, timeout=180)
    assert out.returncode != 0, "run.py succeeded without the sources"
    assert '"correct"' not in out.stdout, "run.py printed a result"
    shutil.rmtree(bare)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    build_root = os.environ.get("CARGO_TARGET_DIR") or os.path.join(
        ROOT, ".bench_build")
    binary = run.build(build_root)
    smoke_dir = os.path.join(build_root, "smoke")
    os.makedirs(smoke_dir, exist_ok=True)
    for workload in run.WORKLOADS:
        plain = bench(binary, workload, 0)
        check_metrics(plain, spec["end_to_end"], workload + " untraced")
        assert plain["correct"] and plain["failed"] == 0, plain
        assert plain["attempted"] >= 1, plain

        trace_path = os.path.join(smoke_dir, workload + ".trace.json")
        traced = bench(binary, workload, 1, "--trace-out", trace_path)
        check_metrics(traced, spec["per_layer"], workload + " traced")
        assert traced["correct"] and traced["failed"] == 0, traced
        check_nesting(trace_path)

        corrupted = bench(binary, workload, 0, "--corrupt-op", "1")
        assert not corrupted["correct"], corrupted
        assert corrupted["failed"] >= 1, corrupted
        print("ok", workload)
    check_bare_checkout()
    print("ok bare checkout fails without a result")


if __name__ == "__main__":
    main()
