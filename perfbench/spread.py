#!/usr/bin/env python3
"""Seed-to-seed spread of the benchmark's metrics.

Usage, from the repository root:
    python3 perfbench/spread.py [--workload NAME] [--seeds 1-10] [--trace 0|1]

Runs perfbench/run.py once per seed, one after another, for the named
workload or, without --workload, for every workload in BENCHMARK.json. It
checks that each result is correct and names exactly the metrics
BENCHMARK.json lists for the mode, and prints per workload and metric the
median, the quartiles (statistics.quantiles(values, n=4)) and the spread:
(Q3 - Q1) / median. End-to-end metrics other than setup_s whose spread
exceeds a third of their bound are flagged. Exits non-zero if a run fails
or a check does not hold.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def measure(bench, workload, seeds, trace):
    listed = bench["per_layer" if trace else "end_to_end"]
    values = {m["name"]: [] for m in listed}
    for seed in seeds:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"),
             "--workload", workload, "--seed", str(seed),
             "--seconds", str(bench["run_seconds"]), "--trace", str(trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        last = proc.stdout.strip().splitlines()[-1] if proc.stdout else ""
        result = json.loads(last) if last.startswith("{") else {}
        if proc.returncode != 0 or not result.get("correct"):
            print("%s seed %d: run failed (exit %d)"
                  % (workload, seed, proc.returncode))
            return False
        if set(result["metrics"]) != set(values):
            print("%s seed %d: metrics differ from BENCHMARK.json"
                  % (workload, seed))
            return False
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print("%s seed %d: %s" % (workload, seed, " ".join(
            "%s=%.6g" % (n, values[n][-1]) for n in values)), flush=True)

    for m in listed:
        vals = values[m["name"]]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else 0.0
        bound = m.get("bound")
        flag = ""
        if bound is not None and m["name"] != "setup_s" and spread > bound / 3:
            flag = "  above a third of bound %.2f" % bound
        print("%s %-28s median %-12.6g %-8s Q1 %-12.6g Q3 %-12.6g "
              "spread %.4f%s" % (workload, m["name"], med, m["unit"], q1, q3,
                                 spread, flag), flush=True)
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = ([args.workload] if args.workload
                 else [w["name"] for w in bench["workloads"]])
    seeds = parse_seeds(args.seeds)
    ok = all([measure(bench, w, seeds, args.trace) for w in workloads])
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
