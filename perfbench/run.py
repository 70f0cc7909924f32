#!/usr/bin/env python3
"""Build and run the request-path benchmark.

Run from the root of a repository checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

The first run configures and builds perfbench/ (and the hammer libraries
it pulls in) under $CARGO_TARGET_DIR, default .bench_build; later runs
only check the build is current.  The benchmark binary prints a notes
line and, last, one JSON result line.  This wrapper checks that the
result line names exactly the metrics BENCHMARK.json lists for the mode
(end_to_end for --trace 0, per_layer for --trace 1) with the same units,
and passes the binary's exit status through.  Any build or contract
failure exits non-zero without printing a result line.
"""

import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 175
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def target_dir():
    return os.environ.get("CARGO_TARGET_DIR") or ".bench_build"


def build(targets):
    build_dir = os.path.join(target_dir(), "perfbench")
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", "4", "--target"]
                  + targets)
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    for step in steps:
        try:
            done = subprocess.run(
                step, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                text=True, timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            fail("build timed out: " + " ".join(step))
        if done.returncode != 0:
            sys.stderr.write(done.stdout)
            fail("build failed: " + " ".join(step))
    return build_dir


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    section = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in section}


def check_result(line, trace):
    result = json.loads(line)
    if set(result) != RESULT_KEYS:
        fail("result keys %s != %s" % (sorted(result), sorted(RESULT_KEYS)))
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    expected = expected_metrics(trace)
    if printed != expected:
        missing = sorted(set(expected) - set(printed))
        extra = sorted(set(printed) - set(expected))
        units = sorted(n for n in set(printed) & set(expected)
                       if printed[n] != expected[n])
        fail("metrics differ from BENCHMARK.json: missing %s, extra %s, "
             "unit mismatch %s" % (missing, extra, units))


def self_test():
    build_dir = build(["perfbench", "perfbench_tests"])
    done = subprocess.run(["ctest", "--test-dir", build_dir,
                           "--output-on-failure"], stdout=sys.stderr)
    sys.exit(done.returncode)


def main(argv):
    if argv == ["--self-test"]:
        self_test()
    at = argv.index("--trace") + 1 if "--trace" in argv else len(argv)
    trace = at < len(argv) and argv[at] == "1"
    binary = os.path.join(build(["perfbench"]), "perfbench")
    out_dir = os.path.join(target_dir(), "perfbench-out")
    try:
        done = subprocess.run([binary] + argv + ["--out-dir", out_dir],
                              stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark did not finish within %d s" % RUN_TIMEOUT_S)
    lines = done.stdout.splitlines()
    if done.returncode not in (0, 1) or not lines:
        fail("benchmark exited with status %d" % done.returncode)
    check_result(lines[-1], trace)
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    sys.exit(done.returncode)


if __name__ == "__main__":
    main(sys.argv[1:])
