#!/usr/bin/env python3
"""Runs each workload in two sets of runs and prints, per set and metric,
the median and quartiles, the spread (quartile distance over the median)
and how far the second set's median moved from the first's. These figures
are where BENCHMARK.json's bounds come from.

Usage, from the root of a checkout:

    python3 perfbench/steadiness.py [--workloads a,b] [--runs 10] [--sets 2]
                                    [--seconds 10] [--trace 0] [--first-seed 1]

Each run gets its own seed; the second set uses seeds after the first's.
A metric is flagged when its spread exceeds a third of its bound, or the
second median is worse than the first by more than the bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.stderr.write(out.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit {out.returncode}")
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default="")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()

    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    workloads = ([w for w in args.workloads.split(",") if w] or
                 [w["name"] for w in bench["workloads"]])
    metrics = bench["per_layer" if args.trace else "end_to_end"]

    for workload in workloads:
        sets = []
        seed = args.first_seed
        for _ in range(args.sets):
            runs = []
            for _ in range(args.runs):
                runs.append(run_once(workload, seed, seconds, args.trace))
                seed += 1
            sets.append(runs)
        print(f"== {workload} ({args.runs} runs x {args.sets} sets, "
              f"{seconds}s each)")
        for s, runs in enumerate(sets):
            fails = sum(r["failed"] for r in runs)
            tries = sum(r["attempted"] for r in runs)
            ok = all(r["correct"] for r in runs)
            print(f"   set {s + 1}: attempted {tries}, failed {fails}, "
                  f"correct {ok}")
        for m in metrics:
            name = m["name"]
            bound = m.get("bound")
            medians = []
            cells = []
            flag = ""
            for runs in sets:
                vals = [r["metrics"][name]["value"] for r in runs]
                q1, q2, q3 = (statistics.quantiles(vals, n=4)
                              if len(vals) > 1 else (vals[0],) * 3)
                spread = (q3 - q1) / q2 if q2 else float("nan")
                medians.append(q2)
                cells.append(f"{q2:.6g} [{q1:.6g}, {q3:.6g}] "
                             f"spread {spread:.3f}")
                if bound is not None and spread > bound / 3:
                    flag = " <-- spread above bound/3"
            if bound is not None and len(medians) > 1 and medians[0]:
                change = medians[1] / medians[0] - 1
                worse = change if m["better"] == "lower" else -change
                cells.append(f"median moved {change:+.3f}")
                if worse > bound:
                    flag = " <-- second median worse than bound"
            print(f"   {name:28s} " + " | ".join(cells) + flag)
    return 0


if __name__ == "__main__":
    sys.exit(main())
