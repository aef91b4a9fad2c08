#!/usr/bin/env python3
"""Build and run the repository benchmark; see perfbench/README.md.

    python3 perfbench/run.py --workload campus --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. The first call configures and builds
the nnn_* libraries and the perfbench binary into .bench_build/ (about a
minute on 4 cores); later calls rebuild incrementally. Build output goes
to stderr. The last line on stdout is the benchmark's JSON result, whose
metric names are checked against BENCHMARK.json. Exit status is non-zero
when the build fails, a correctness check fails, or the result is
malformed.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
RUN_TIMEOUT_S = 175


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no src/ tree next to perfbench/; run from a full checkout")
    for tool in ("cmake", "c++"):
        if shutil.which(tool) is None:
            fail(tool + " not found")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", os.path.join(ROOT, "perfbench"),
                     "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"] + generator
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    compile_cmd = ["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                   "-j", jobs]
    if subprocess.run(compile_cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    section = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in section}, \
        [w["name"] for w in spec["workloads"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    metrics, workloads = expected_metrics(args.trace)
    if args.workload not in workloads:
        fail("unknown workload " + args.workload)
    build()

    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        trace_dir = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(trace_dir, exist_ok=True)
        command += ["--trace-out", os.path.join(
            trace_dir, "%s-seed%d.json" % (args.workload, args.seed))]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S, 3)

    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("no JSON result (exit %d)" % proc.returncode, 3)
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("result has unexpected keys", 3)
    if result["correct"] is not True or proc.returncode != 0:
        print(lines[-1])
        sys.exit(proc.returncode or 1)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != metrics:
        fail("metrics do not match BENCHMARK.json: missing %s, extra %s" % (
            sorted(set(metrics) - set(got)), sorted(set(got) - set(metrics))), 3)
    print(lines[-1])


if __name__ == "__main__":
    main()
