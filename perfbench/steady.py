#!/usr/bin/env python3
"""Steadiness check: run one workload N times, each with another seed,
and print for each end-to-end metric the median, the quartiles and the
spread (Q3 - Q1) / median next to the metric's bound in BENCHMARK.json.

    python3 perfbench/steady.py --workload road-query --runs 10

Run from the repository root. A spread under a third of its bound is
steady; setup_s is listed but its spread is not held to the bound.
Exits 1 when a run fails, reports correct=false, or a spread other
than setup_s's exceeds its bound.
"""
import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10, help="runs, with seeds 1..runs")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    seeds = range(1, args.runs + 1)

    values = {name: [] for name in bounds}
    shares = []
    ok = True
    for seed in seeds:
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}", file=sys.stderr)
            ok = False
            continue
        res = json.loads(lines[-1])
        if not res["correct"]:
            ok = False
        shares.append(res["failed"] / res["attempted"])
        for name in values:
            values[name].append(res["metrics"][name]["value"])
        print(f"seed {seed}: correct={res['correct']} attempted={res['attempted']} failed={res['failed']}",
              file=sys.stderr)

    print(f"{args.workload}: {len(shares)} runs, failed shares {sorted(set(shares))}")
    print(f"{'metric':16} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6} {'/bound':>7}")
    for name, xs in values.items():
        if len(xs) < 2:
            continue
        q1, med, q3 = statistics.quantiles(xs, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        bound = bounds[name]["bound"]
        flag = ""
        if name != "setup_s" and spread > bound:
            flag, ok = "  OVER", False
        elif spread > bound / 3:
            flag = "  (over a third)"
        print(f"{name:16} {med:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.4f} {bound:6.3f} {spread / bound:7.3f}{flag}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
