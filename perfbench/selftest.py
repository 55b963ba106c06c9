#!/usr/bin/env python3
"""Self-test of the benchmark at a tiny size (about a minute).

Run from the root of a source checkout:

    python3 perfbench/selftest.py

It checks that
  1. BENCHMARK.json lists exactly the metrics the code reports;
  2. every workload, untraced and traced, exits 0 with correct answers and
     emits every named metric with its unit;
  3. the exact counts of a traced run repeat identically on a second run;
  4. the correctness gates fire: a sweep512 reference value perturbed by
     1e-12 relative makes the run report a wrong answer, and the pointwise
     and profile checks reject doctored results and refused requests;
  5. in a directory holding only BENCHMARK.json and this directory, the
     command exits non-zero without printing a result.
Exits 0 when every check passes.
"""

import itertools
import json
import math
import os
import shutil
import subprocess
import sys

import run  # pins BLAS threads before numpy loads

HERE = os.path.dirname(os.path.abspath(__file__))
EXACT_PREFIXES = ("quadrature.nodes.", "christoffel.orthonormalize.cmacs",
                  "christoffel.orthonormalize.model_bytes")
FAILURES = []


def expect(ok, what):
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        FAILURES.append(what)


def bench(workload, trace, *extra, cwd=run.ROOT, script=None):
    cmd = [sys.executable, script or os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", "1",
           "--trace", str(trace), "--scale", "tiny", *extra]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=170)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result


def check_spec(spec):
    import tracing
    expect([(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]]
           == run.END_TO_END, "BENCHMARK.json end_to_end matches run.END_TO_END")
    expect([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
           == tracing.PER_LAYER, "BENCHMARK.json per_layer matches tracing.PER_LAYER")


def check_outputs(spec):
    wanted = {0: spec["end_to_end"], 1: spec["per_layer"]}
    for workload in ("sweep512", "pointwise", "profile"):
        counts = []
        for trace in (0, 1, 1):
            code, result = bench(workload, trace)
            label = f"{workload} --trace {trace}"
            expect(code == 0 and result is not None and result["correct"]
                   and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{label}: exit 0, correct, nothing failed")
            if result is None:
                continue
            metrics = result["metrics"]
            expect(list(metrics) == [m["name"] for m in wanted[trace]]
                   and all(metrics[m["name"]]["unit"] == m["unit"]
                           and math.isfinite(metrics[m["name"]]["value"])
                           for m in wanted[trace]),
                   f"{label}: every named metric, with its unit")
            if trace:
                counts.append({k: v["value"] for k, v in metrics.items()
                               if k.endswith(".calls") or k.startswith(EXACT_PREFIXES)})
        expect(len(counts) == 2 and counts[0] == counts[1],
               f"{workload}: exact counts repeat on a second traced run")


def check_sweep_gate():
    import workloads
    with open(workloads.REFERENCE_PATH, encoding="utf-8") as fh:
        table = json.load(fh)
    table["tiny"]["n_lambda_n"]["circle"][-1] *= 1 + 1e-12
    path = os.path.join(run.OUT_DIR, "perturbed-reference.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(table, fh)
    code, result = bench("sweep512", 0, "--reference", path)
    expect(code == 1 and result is not None and not result["correct"]
           and result["failed"] >= 1,
           "sweep512: a reference value perturbed by 1e-12 fails the gate")


def check_pointwise_gate(workloads):
    pw = workloads.Pointwise(7, "tiny", run.OUT_DIR)
    pw.setup()
    ops = list(itertools.islice(pw.ops(), 600))
    expect(not any(op["file"] == "circle_uniform" and op["z"] == "auto-jump"
                   for op in ops),
           "pointwise: the generator never asks auto-jump of a jump-free measure")
    op = next(op for op in ops if op["file"] == "circle_uniform")
    good = pw.run(op)
    expect(pw.check(op, good) == [None], "pointwise: a real answer passes")
    lam, z = pw.parse(good[1])
    doctored = (0, good[1].replace(repr(lam), repr(lam * (1 + 1e-9))), "")
    expect(pw.check(op, doctored) != [None],
           "pointwise: lambda_n off 2 pi/(n+1) by 1e-9 fails")
    refused = dict(op, z="auto-jump")
    expect(pw.check(refused, pw.run(refused)) != [None],
           "pointwise: a refused request (exit 2) counts as failed")
    flagged = dict(op, direct=True)
    late = pw.finish([(flagged, doctored, 0.0)])
    expect(list(late) == [(0, 0)],
           "pointwise: the direct recomputation catches a wrong value")


def check_profile_gate(workloads):
    import numpy as np
    pr = workloads.Profile(7, "tiny", run.OUT_DIR)
    pr.setup()
    scalar = next(op for op in pr.ops() if op[0] == "scalar")
    values = pr.run(scalar)
    expect(pr.check(scalar, values) == [None] * 4, "profile: real answers pass")
    expect(pr.check(scalar, [float("nan")] + values[1:]) != [None] * 4,
           "profile: a non-finite lambda_n fails")
    grid = ("grid", scalar[1][0][0], 0, 1.0)
    grid_values = pr.run(grid).copy()
    grid_values[0] = np.nan
    expect(pr.check(grid, grid_values) != [None],
           "profile: a non-finite grid value fails")
    flagged = ("scalar", scalar[1], True, 1.0)
    late = pr.finish([(flagged, [values[0] * (1 + 1e-9)] + values[1:], 0.0)])
    expect(list(late) == [(0, 0)], "profile: kernel vs direct catches a 1e-9 error")


def check_bare_directory():
    bare = os.path.join(run.OUT_DIR, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, result = bench("sweep512", 0, cwd=bare,
                         script=os.path.join(bare, "perfbench", "run.py"))
    expect(code != 0 and result is None,
           "without the sources the command fails and prints no result")
    shutil.rmtree(bare)


def main():
    workloads = run.load_program()
    if workloads is None:
        sys.exit("error: run from a source checkout")
    os.makedirs(run.OUT_DIR, exist_ok=True)
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    check_spec(spec)
    check_outputs(spec)
    check_sweep_gate()
    check_pointwise_gate(workloads)
    check_profile_gate(workloads)
    check_bare_directory()
    print(f"{len(FAILURES)} failed" if FAILURES else "all checks passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
