#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload zoo_direct --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

Builds perfbench/ (and the engine sources it links) into the directory
named by CARGO_TARGET_DIR, or .bench_build, under the repository root;
pins the kernel pool with SOD2_NUM_THREADS=2 and clears every other
SOD2_* variable; runs the benchmark binary and passes its output
through. The last line of standard output is the result JSON. Build
output goes to standard error.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build(target):
    """Configures and builds `target`; exits 2 on failure."""
    bdir = build_dir()
    steps = [["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", bdir, "-j", "4", "--target", target]]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            sys.exit(2)
    return os.path.join(bdir, target)


def bench_env():
    env = {k: v for k, v in os.environ.items() if not k.startswith("SOD2_")}
    # Pool width 2 (one helper plus the caller). Width 4 is noisier on a
    # shared 4-core host and only ~1.15x faster; note SOD2_NUM_THREADS=1
    # also gives width 2, since the pool always keeps one helper.
    env["SOD2_NUM_THREADS"] = "2"
    return env


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--self-test", action="store_true")
    a = p.parse_args()

    if a.self_test:
        exe = build("perfbench_selftest")
        return subprocess.run([exe], env=bench_env()).returncode
    if not a.workload:
        p.error("--workload is required")

    exe = build("sod2_perfbench")
    cmd = [exe, "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace)]
    if a.trace:
        traces = os.path.join(build_dir(), "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, "%s-seed%d.json" % (a.workload, a.seed))]
    try:
        r = subprocess.run(cmd, env=bench_env(), stdout=subprocess.PIPE,
                           text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3
    lines = r.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        got = list(result["metrics"])
    except (ValueError, KeyError, IndexError):
        print("perfbench: no result line", file=sys.stderr)
        sys.stdout.write(r.stdout)
        return r.returncode or 3
    want = declared_metrics(a.trace)
    if got != want:
        print("perfbench: metrics differ from BENCHMARK.json: %s"
              % sorted(set(got) ^ set(want)), file=sys.stderr)
        return 3
    sys.stdout.write(r.stdout)
    return r.returncode


if __name__ == "__main__":
    sys.exit(main())
