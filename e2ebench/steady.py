#!/usr/bin/env python3
"""Steadiness of the end-to-end metrics across seeds.

    python3 e2ebench/steady.py [--runs 10] [--seconds S] [--first-seed 1]
                               [workload ...]

Runs every named workload (all three by default) --runs times, each in a
fresh process with its own seed, through e2ebench/run.py. It prints each
run's metrics, then for every end-to-end metric its median, first and
third quartile (statistics.quantiles, n=4) and the quartile spread
(Q3 - Q1) / median, beside the metric's bound in BENCHMARK.json. A spread
over its bound, `setup_s`'s included, is flagged and makes the exit code 1.
Run from the repository root.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["alibi_serve", "curved_regions", "view_churn"]


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("workloads", nargs="*", default=WORKLOADS)
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ok = True
    for w in args.workloads:
        values, failed, attempted = {}, [], []
        for k in range(args.runs):
            seed = args.first_seed + k
            out = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", w,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", "0"],
                capture_output=True, text=True, cwd=ROOT)
            lines = out.stdout.strip().splitlines()
            if out.returncode != 0 or not lines:
                print(f"{w} seed {seed}: exit {out.returncode}\n{out.stderr}")
                ok = False
                continue
            result = json.loads(lines[-1])
            ok &= result["correct"]
            failed.append(result["failed"])
            attempted.append(result["attempted"])
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"  {w} seed {seed}: " + ", ".join(
                f"{name} {m['value']:.4g}" for name, m in result["metrics"].items()),
                flush=True)
        print(f"{w}: {len(attempted)} runs of {args.seconds} s, seeds "
              f"{args.first_seed}..{args.first_seed + args.runs - 1}; failed "
              f"{sum(failed)} of {sum(attempted)} operations")
        for name, vs in values.items():
            med = statistics.median(vs)
            q1, _, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(name)
            flag = ""
            if bound is not None and spread > bound:
                flag, ok = "  OVER BOUND", False
            print(f"  {name:20s} median {med:12.4f}  q1 {q1:12.4f}  q3 {q3:12.4f}"
                  f"  spread {spread:7.4f}  bound {bound}{flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
