#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 evbench/spread.py [--seeds 1-10]
    python3 evbench/spread.py --seeds 1,11,2,12,3,13 --split 10

Runs evbench/run.py untraced once per (seed, workload) for every workload
in BENCHMARK.json, one run at a time and seed-major (the workloads
alternate), with the run length from BENCHMARK.json. Prints for every workload and metric the median, the
quartiles (statistics.quantiles(values, n=4)) and the spread: the distance
between the quartiles as a share of the median, next to the metric's bound.
With --split N the runs of seeds <= N and > N are reported as two sets,
with the shift of the second set's median against the first's (positive =
worse). Raw results go to evbench/out/spread-<workload>.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seeds_from(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def report(workload, runs, bounds):
    print(f"\n{workload}: {len(runs)} runs, "
          f"{statistics.median(r['wall_s'] for r in runs):.1f} s median wall")
    print(f"  {'metric':24} {'median':>14} {'q1':>14} {'q3':>14} "
          f"{'spread':>8} {'bound':>6}")
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, median, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median if median else float("inf")
        bound = bounds.get(name)
        flag = ""
        if bound is not None and name != "setup_s" and spread > bound / 3:
            flag = "  above bound/3"
        print(f"  {name:24} {median:14.6g} {q1:14.6g} {q3:14.6g} "
              f"{spread:8.4f} {bound if bound is not None else '':>6}{flag}")
    failed = sorted({r["failed"] / r["attempted"] for r in runs})
    print(f"  failed share per run: {failed}", flush=True)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--split", type=int, default=None)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    lower = {m["name"]: m["better"] == "lower" for m in spec["end_to_end"]}
    workloads = [w["name"] for w in spec["workloads"]]
    out_dir = os.path.join(ROOT, "evbench", "out")
    os.makedirs(out_dir, exist_ok=True)
    runs = {w: [] for w in workloads}
    ok = True
    for seed in seeds_from(args.seeds):
        for workload in workloads:
            cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]),
                                     "--trace", "0"]
            start = time.monotonic()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            wall = time.monotonic() - start
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                sys.stderr.write(proc.stderr[-2000:])
                print(f"{workload} seed {seed}: exit {proc.returncode}")
                ok = False
                continue
            result = json.loads(lines[-1])
            runs[workload].append({"seed": seed, "wall_s": wall, **result})
            ok = ok and result["correct"]
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  f"wall={wall:.1f}s", flush=True)
    for workload in workloads:
        with open(os.path.join(out_dir, f"spread-{workload}.json"), "w") as f:
            json.dump(runs[workload], f, indent=1)
        if args.split is None:
            if len(runs[workload]) >= 2:
                report(workload, runs[workload], bounds)
            continue
        first = [r for r in runs[workload] if r["seed"] <= args.split]
        second = [r for r in runs[workload] if r["seed"] > args.split]
        if len(first) < 2 or len(second) < 2:
            continue
        report(workload + " (set 1)", first, bounds)
        report(workload + " (set 2)", second, bounds)
        print("  second set's median against the first's (+ = worse):")
        for name in first[0]["metrics"]:
            a = statistics.median(r["metrics"][name]["value"] for r in first)
            b = statistics.median(r["metrics"][name]["value"] for r in second)
            shift = (b - a) / a if lower.get(name, True) else (a - b) / a
            bound = bounds.get(name, "")
            print(f"    {name:24} {shift:+8.4f}  bound {bound}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
