#!/usr/bin/env python3
"""Build and run the Compadres repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. Builds perfbench/ (and the src/
libraries it links) into $CARGO_TARGET_DIR, or .bench_build when that is
unset, runs one workload, checks that the binary's last line is the result
object carrying the metrics BENCHMARK.json names for the mode (end_to_end
for --trace 0, per_layer for --trace 1, where layers the workload does not
exercise read 0), and prints that object as the last line of stdout. Build
output goes to stderr.

Exits non-zero, printing no result, when the sources or the build are
missing or broken; exits 1 after printing the result when an operation
failed or an output check did not hold.
"""

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no Compadres sources (src/) next to perfbench/")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail(f"build step {cmd[:2]} failed: {e}")
        if done.returncode != 0:
            fail(f"build step {' '.join(cmd)} exited {done.returncode}")
    binary = os.path.join(build_dir, "perfbench")
    if not os.access(binary, os.X_OK):
        fail(f"build produced no {binary}")
    return binary


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def check(result, expected, trace):
    """Validates the binary's result against BENCHMARK.json. A traced run
    reports only the layers its workload exercises; every other per_layer
    metric did no work there and is filled in as 0, in BENCHMARK.json
    order."""
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        fail(f"result keys {sorted(result) if isinstance(result, dict) else result}")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or result[key] < 0:
            fail(f"{key} is not a whole number")
    if result["attempted"] < 1:
        fail("no operation attempted")
    metrics = result["metrics"]
    extra = sorted(set(metrics) - set(expected))
    missing = sorted(set(expected) - set(metrics))
    if extra or (missing and not trace):
        fail(f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}")
    for name, m in metrics.items():
        if set(m) != {"value", "unit"} or m["unit"] != expected[name]:
            fail(f"metric {name} malformed: {m}")
        if not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"]):
            fail(f"metric {name} is not a finite number: {m['value']}")
    result["metrics"] = {name: metrics.get(name, {"value": 0, "unit": unit})
                         for name, unit in expected.items()}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["fig6_rpc", "orb_echo_tcp", "telemetry_stream_shm"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = ap.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(build_dir)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--assets", os.path.join(HERE, "assets")]
    if args.trace:
        cmd += ["--trace-out", os.path.join(
            build_dir, f"spans_{args.workload}_seed{args.seed}.csv")]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail(f"{args.workload} printed nothing (exit {done.returncode})")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"last line is not JSON (exit {done.returncode}): {lines[-1]!r}")
    check(result, expected_metrics(args.trace), args.trace)
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    sys.exit(0 if done.returncode == 0 and result["correct"] else 1)


if __name__ == "__main__":
    main()
