#!/usr/bin/env python3
"""Steadiness check: run each workload once per seed and summarize.

Usage, from the root of a source checkout:

    python3 perfbench/steady.py [--first-seed 1] [--trace]

Every workload of BENCHMARK.json runs ten times for its run_seconds, with
seeds first-seed, first-seed + 1, ...  For every end-to-end metric it
prints the median, the
first and third quartiles (statistics.quantiles(values, n=4)), the
sample count and the spread (q3 - q1) / median, next to the metric's
bound from BENCHMARK.json and whether the spread stays under a third of
it.  With --trace it also makes one traced run per workload and prints
the tracing overhead.
"""

import argparse
import json
import statistics
import subprocess
import sys

RUNS = 10


def run_once(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "1" if trace else "0"],
        check=True, capture_output=True, text=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect run: {result}")
    return result


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for w in (w["name"] for w in bench["workloads"]):
        values = {}
        for k in range(RUNS):
            seed = args.first_seed + k
            for name, m in run_once(w, seed, seconds, False)["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"\n{w}: {RUNS} runs, seeds {args.first_seed}.."
              f"{args.first_seed + RUNS - 1}, {seconds} s each")
        print(f"{'metric':20} {'median':>14} {'q1':>14} {'q3':>14} "
              f"{'n':>3} {'spread':>8} {'bound':>6}  ok")
        for name, vs in values.items():
            med = statistics.median(vs)
            q1, _, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            ok = name == "setup_s" or spread < bounds[name] / 3
            print(f"{name:20} {med:14.6g} {q1:14.6g} {q3:14.6g} {len(vs):3d} "
                  f"{spread:8.4f} {bounds[name]:6.3f}  {'yes' if ok else 'NO'}")
        print("values in seed order:")
        for name, vs in values.items():
            print(f"  {name}: " + " ".join(f"{v:.6g}" for v in vs))
        if args.trace:
            traced = run_once(w, args.first_seed, seconds, True)["metrics"]
            print(f"traced run: obs.trace_overhead_permille "
                  f"{traced['obs.trace_overhead_permille']['value']:.1f}, "
                  f"host.calib_ns {traced['host.calib_ns']['value']:.1f}")


if __name__ == "__main__":
    main()
