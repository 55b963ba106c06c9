#!/usr/bin/env python3
"""Measure a baseline: every workload on several seeds, plus one traced run.

Run from the root of a source checkout:

    python3 perfbench/baseline.py --seeds 1-10 --out baseline-new.json

For each workload and end-to-end metric it records the median, the first
and third quartiles (``statistics.quantiles(values, n=4)``) and the spread
(third minus first quartile, as a share of the median) over the seeds.  The
traced run, on the first seed, adds the per-layer metrics.  Runs go one at a
time, never in parallel.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import run


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def one_run(workload, seed, seconds, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True,
                          timeout=900)
    wall = time.perf_counter() - t0
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    print(f"{workload} seed {seed} trace {trace}: exit {proc.returncode}, "
          f"correct {result['correct']}, {wall:.1f} s", flush=True)
    return result, wall


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        run_seconds = json.load(fh)["run_seconds"]
    parser.add_argument("--seconds", type=int, default=run_seconds)
    parser.add_argument("--workloads", default="sweep512,pointwise,profile")
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    report = {"seeds": args.seeds, "seconds": args.seconds, "workloads": {}}
    for workload in args.workloads.split(","):
        values, walls, correct = {}, [], True
        for seed in args.seeds:
            result, wall = one_run(workload, seed, args.seconds, 0)
            correct &= result["correct"]
            walls.append(wall)
            for name, entry in result["metrics"].items():
                values.setdefault(name, []).append(entry["value"])
        summary = {}
        for name, vals in values.items():
            q1, _, q3 = statistics.quantiles(vals, n=4)
            median = statistics.median(vals)
            summary[name] = {"median": median, "q1": q1, "q3": q3,
                             "spread": (q3 - q1) / median, "values": vals}
        traced, _ = one_run(workload, args.seeds[0], args.seconds, 1)
        report["workloads"][workload] = {
            "all_correct": correct and traced["correct"],
            "run_wall_s": {"median": statistics.median(walls), "max": max(walls)},
            "end_to_end": summary,
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
        for name, entry in summary.items():
            print(f"  {name:14s} median {entry['median']:.6g}  "
                  f"spread {entry['spread']:.4f}", flush=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
