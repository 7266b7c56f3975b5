#!/usr/bin/env python3
"""Steadiness check for the perfbench benchmark.

Usage (from the repository root):

    python3 perfbench/steady.py [--runs 10] [--first-seed 1]

Runs every workload of BENCHMARK.json --runs times for its run_seconds,
alternating between workloads, each run with its own seed (first-seed,
first-seed+1, ...), and prints for each end-to-end
metric its median, first and third quartiles (statistics.quantiles, n=4) and
the spread (Q3 - Q1) / median against the metric's bound in BENCHMARK.json.
The bounds in BENCHMARK.json are set from these spreads: every spread but
setup_s's should stay below a third of its bound. Also prints each run's
share of failed operations, which must be the same in every run.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()
    workloads = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    values = {w: {} for w in workloads}
    shares = {w: set() for w in workloads}
    for i in range(args.runs):
        seed = args.first_seed + i
        for w in workloads:
            t0 = time.time()
            r = subprocess.run(
                [sys.executable] + spec["command"][1:] +
                ["--workload", w, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=root, stdout=subprocess.PIPE, universal_newlines=True)
            took = time.time() - t0
            if r.returncode != 0:
                print("run %s seed %d failed with %d" % (w, seed, r.returncode))
                return 1
            res = json.loads(r.stdout.strip().splitlines()[-1])
            shares[w].add(res["failed"] / res["attempted"])
            for k, m in res["metrics"].items():
                values[w].setdefault(k, []).append(m["value"])
            print("%-17s seed %3d  %5.1fs  correct=%s attempted=%d failed=%d  %s"
                  % (w, seed, took, res["correct"], res["attempted"],
                     res["failed"],
                     " ".join("%s=%.5g" % (k, m["value"])
                              for k, m in res["metrics"].items())),
                  flush=True)

    worst = 0.0
    print()
    print("%-17s %-18s %12s %12s %12s %8s %6s" %
          ("workload", "metric", "q1", "median", "q3", "spread", "bound"))
    for w in workloads:
        for k, v in values[w].items():
            if len(v) < 2:
                continue
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            b = bounds.get(k)
            flag = ""
            if b is not None and k != "setup_s":
                worst = max(worst, spread / b)
                flag = "ok" if spread < b / 3 else ("WIDE" if spread < b else "OVER")
            print("%-17s %-18s %12.5g %12.5g %12.5g %7.2f%% %6s %s" %
                  (w, k, q1, med, q3, spread * 100,
                   "-" if b is None else "%.2f" % b, flag))
        print("%-17s failed share per run: %s" % (w, sorted(shares[w])))
    print("\nworst spread / bound (setup_s excluded): %.2f" % worst)
    return 0


if __name__ == "__main__":
    sys.exit(main())
