#!/usr/bin/env python3
"""Repeat or A/B runner: the benchmark's steadiness evidence.

    python3 perfbench/ab.py [--runs 10] [--seed-base 1] CHECKOUT [CHECKOUT_B]

Runs every workload --runs times in each checkout (a directory holding
a copy of the repository) for BENCHMARK.json's run_seconds, one seed
per run: run i uses seed seed-base + i on both sides.  Given two
checkouts it alternates which side runs first.  For each metric it
prints, per side, the median, the quartiles (statistics.quantiles,
n=4), the quartile spread and the (max - min) spread as shares of the
median, next to the metric's bound from BENCHMARK.json.  With two
sides it adds the B/A median ratio.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run_once(checkout, workload, seed, seconds):
    env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, env=env, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        return None
    result = json.loads(lines[-1])
    return {name: m["value"] for name, m in result["metrics"].items()}


def summary(values):
    med = statistics.median(values)
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else (values[0], None, values[0]))
    share = (lambda x: x / med) if med else (lambda x: 0.0)
    return {"median": med, "q1": q1, "q3": q3,
            "iqr_share": share(q3 - q1),
            "range_share": share(max(values) - min(values))}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("checkouts", nargs="+")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed-base", type=int, default=1)
    args = parser.parse_args()
    if len(args.checkouts) > 2:
        parser.error("at most two checkouts")

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    sides = [os.path.abspath(c) for c in args.checkouts]

    for workload in (w["name"] for w in spec["workloads"]):
        per_side = [dict() for _ in sides]
        failures = [0 for _ in sides]
        for i in range(args.runs):
            order = list(range(len(sides)))
            if i % 2:
                order.reverse()
            for s in order:
                got = run_once(sides[s], workload, args.seed_base + i,
                               seconds)
                if got is None:
                    failures[s] += 1
                    continue
                for name, value in got.items():
                    per_side[s].setdefault(name, []).append(value)

        print("== %s (%d runs x %ds, failures %s)" %
              (workload, args.runs, seconds, failures))
        print("%-34s %6s %4s %12s %12s %12s %8s %8s %s" %
              ("metric", "bound", "side", "median", "q1", "q3", "iqr/med",
               "rng/med", ""))
        for name, bound in bounds.items():
            medians = []
            for s, values in enumerate(per_side):
                xs = values.get(name)
                if not xs:
                    continue
                st = summary(xs)
                medians.append(st["median"])
                flag = ""
                if st["iqr_share"] > bound:
                    flag = "SPREAD>BOUND"
                elif st["iqr_share"] > bound / 3:
                    flag = "spread>bound/3"
                print("%-34s %6s %4s %12.6g %12.6g %12.6g %8.4f %8.4f %s" %
                      (name, bound, "AB"[s],
                       st["median"], st["q1"], st["q3"], st["iqr_share"],
                       st["range_share"], flag))
            if len(medians) == 2 and medians[0]:
                print("%-34s %6s %4s %12.4f" % ("", "", "B/A",
                                               medians[1] / medians[0]))
        sys.stdout.flush()


if __name__ == "__main__":
    main()
