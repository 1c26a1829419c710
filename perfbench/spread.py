#!/usr/bin/env python3
"""Run workloads over several seeds and print each metric's spread.

    python3 perfbench/spread.py [--seeds 1-10] [--seconds 20] [--workloads a,b] [--raw]

Runs `perfbench/run.py` once per (workload, seed), seeds in order and
workloads interleaved, and prints per metric the median and the quartile
spread (Q3 - Q1) / median, with Q1 and Q3 as `statistics.quantiles(v, n=4)`
gives them, next to the bound BENCHMARK.json sets. Run from the repository
root.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--raw", action="store_true", help="also print every value")
    args = ap.parse_args()
    workloads = args.workloads.split(",")
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    values = {w: {} for w in workloads}
    for seed in args.seeds:
        for w in workloads:
            out = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", w,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                stdout=subprocess.PIPE, text=True, check=True,
            ).stdout
            result = json.loads(out.strip().split("\n")[-1])
            if not result["correct"]:
                print(f"{w} seed {seed}: {result['failed']} of {result['attempted']} ops failed")
            for name, m in result["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
            print(f"done {w} seed {seed}", file=sys.stderr)
    for w in workloads:
        print(f"== {w} ({len(args.seeds)} runs)")
        for name, v in values[w].items():
            med = statistics.median(v)
            spread = float("nan")
            if len(v) >= 2 and med:
                q1, _, q3 = statistics.quantiles(v, n=4)
                spread = (q3 - q1) / abs(med)
            bound = bounds.get(name)
            flag = "" if bound is None or spread <= bound / 3 else "  > bound/3"
            print(f"  {name:24} median {med:<14.6g} spread {spread:7.4f}"
                  f"  bound {bound}{flag}")
            if args.raw:
                print("    " + " ".join(f"{x:.6g}" for x in v))


if __name__ == "__main__":
    main()
