#!/usr/bin/env python3
"""Benchmark for the xlab Christoffel-function pipeline.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload sweep512 --seed 1 --seconds 30 --trace 0

Workloads are ``sweep512``, ``pointwise`` and ``profile`` (see README.md in
this directory).  With ``--trace 0`` the run is untimed by any recorder and
reports the end-to-end metrics; with ``--trace 1`` it wraps the library's
public functions in span recorders, runs a fixed amount of seeded work and
reports the per-layer metrics.  Human-readable lines come first; the last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A full record (and the spans of
a traced run) is written under ``.perfbench_out/`` in the checkout.

Exit codes: 0 all answers correct, 1 some answer wrong, 2 the checkout does
not hold the xlab sources.
"""

import argparse
import itertools
import json
import os
import resource
import statistics
import sys
import time

import meta
import tracing

STEAL_START = meta.steal_seconds()
T_START = time.perf_counter()

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
BLAS_THREADS = min(2, len(os.sched_getaffinity(0)))
SETUP_PROBES = 4           # fresh-process set-ups per run, at most
SETUP_PROBE_BUDGET_S = 8  # ... and fewer (but two) once they take this long

# pin BLAS threads before numpy is imported, for this process and its probes
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

# every end-to-end metric an untraced run reports: (name, unit, better)
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("op_p50_ms", "ms", "lower"),
    ("op_p90_ms", "ms", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("points_per_s", "1/s", "higher"),
]


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("sweep512", "pointwise", "profile"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every size, for the self-test")
    parser.add_argument("--reference", default=None,
                        help="sweep512 reference table (default: "
                             "reference.json beside this script)")
    parser.add_argument("--setup-probe", action="store_true",
                        help="only time the set-up, print it and exit")
    return parser.parse_args(argv)


def load_program():
    """Import numpy and xlab from this checkout; None if it has no sources."""
    if not os.path.isfile(os.path.join(SRC, "xlab", "__init__.py")):
        return None
    sys.path.insert(0, SRC)
    import xlab
    if not os.path.abspath(xlab.__file__).startswith(SRC + os.sep):
        return None
    import workloads
    return workloads


def make_workload(workloads, args):
    cls = workloads.WORKLOADS[args.workload]
    if cls is workloads.Sweep512 and args.reference:
        return cls(args.seed, args.scale, OUT_DIR, reference_path=args.reference)
    return cls(args.seed, args.scale, OUT_DIR)


def timed_loop(workload, seconds):
    """Closed loop of whole rounds until another round would overrun."""
    records, spent, round_start = [], 0.0, 0.0
    for op in workload.ops():
        result, dt = run_once(workload, op)
        records.append((op, result, dt))
        spent += dt
        if len(records) % workload.round_size == 0:
            if (len(records) >= workload.min_ops
                    and spent + (spent - round_start) > seconds):
                return records
            round_start = spent


def run_once(workload, op):
    t0 = time.perf_counter()
    try:
        result = workload.run(op)
    except Exception as exc:  # a failed operation, checked later
        result = exc
    return result, time.perf_counter() - t0


def traced_section(workload, tracer, ops):
    """Run each op traced and untraced, alternating which goes first.

    Returns the traced records and the untraced time of the same ops, whose
    difference from the traced time is the tracing overhead.
    """
    records, untraced = [], 0.0
    for i, op in enumerate(ops):
        if i % 2:
            untraced += run_once(workload, op)[1]
        tracer.install()
        with tracer.span("bench.op", {"geometry": workload.geometry(op)}):
            result, dt = run_once(workload, op)
        tracer.uninstall()
        records.append((op, result, dt))
        if not i % 2:
            untraced += run_once(workload, op)[1]
    return records, untraced


def verdicts(workload, records):
    """(attempted, failure messages) over every checked unit of work."""
    attempted, failures = 0, []
    late = workload.finish(records)
    for i, (op, result, _) in enumerate(records):
        if isinstance(result, Exception):
            units = [f"{op}: {type(result).__name__}: {result}"]
        else:
            units = workload.check(op, result)
        units = [late.get((i, j), unit) if unit is None else unit
                 for j, unit in enumerate(units)]
        attempted += len(units)
        failures.extend(u for u in units if u is not None)
    attempted += len(workload.setup_failures)
    failures.extend(workload.setup_failures)
    return attempted, failures


def setup_probe_times(args):
    """Set-up times of fresh processes, each importing from scratch."""
    import subprocess
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--scale", args.scale]
    times, t0 = [], time.perf_counter()
    while len(times) < SETUP_PROBES and (
            len(times) < 2 or time.perf_counter() - t0 < SETUP_PROBE_BUDGET_S):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=170)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def end_to_end(summary, setup_times):
    import numpy as np
    lat = summary["latencies"]
    values = {
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "op_p50_ms": 1e3 * float(np.median(lat)),
        "op_p90_ms": 1e3 * float(np.percentile(lat, 90)),
        "ops_per_s": len(lat) / summary["ops_time"],
        "points_per_s": summary["points"] / summary["points_time"],
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit, _ in END_TO_END}


def nodes_at_512():
    import xlab.suites
    return {name: int(xlab.build_rule(measure, 512).node_count)
            for name, measure in xlab.suites.standard_jump_measures().items()}


def main(argv=None):
    args = parse_args(argv)
    workloads = load_program()
    if workloads is None:
        print(f"error: no xlab sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    workload = make_workload(workloads, args)

    if args.setup_probe:
        workload.setup()
        print(repr(time.perf_counter() - T_START))
        return 0

    tracer = tracing.Tracer().install() if args.trace else None
    if tracer:
        with tracer.span("bench.setup"):
            workload.setup()
    else:
        workload.setup()
    setup_s = time.perf_counter() - T_START

    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "scale": args.scale}
    if tracer:
        ops = list(itertools.islice(workload.ops(),
                                    workload.trace_ops(args.seconds)))
        tracer.uninstall()
        records, untraced_s = traced_section(workload, tracer, ops)
        traced_s = sum(dt for _, _, dt in records)
        metrics = tracing.per_layer(tracer.spans, nodes_at_512(),
                                    traced_s - untraced_s, untraced_s)
        spans_path = os.path.join(
            OUT_DIR, f"spans-{args.workload}-seed{args.seed}.json")
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "attrs"],
                       "spans": tracer.spans}, fh)
        record["spans_file"] = os.path.relpath(spans_path, ROOT)
    else:
        records = timed_loop(workload, args.seconds)
    attempted, failures = verdicts(workload, records)
    summary = workload.summary(records)

    if not tracer:
        probes = setup_probe_times(args)
        metrics = end_to_end(summary, [setup_s] + probes)
        record["setup_samples_s"] = [setup_s] + probes
    named = {key: {"value": value, "unit": unit}
             for key, (unit, value) in summary["named"].items()}
    named["failed_frac"] = {"value": len(failures) / attempted, "unit": "1"}
    steal = meta.steal_seconds()
    record.update(meta.collect(ROOT, SRC, BLAS_THREADS),
                  wall_s=time.perf_counter() - T_START,
                  host_steal_s=None if steal is None else steal - STEAL_START,
                  counts=summary["counts"], named=named, failures=failures[:20])
    result = {"correct": not failures, "attempted": attempted,
              "failed": len(failures), "metrics": metrics}
    record["result"] = result
    with open(os.path.join(OUT_DIR, f"result-{args.workload}-seed{args.seed}"
                           f"-trace{args.trace}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, default=repr)

    print(f"workload {args.workload}, seed {args.seed}, scale {args.scale}, "
          f"trace {args.trace}: {attempted} attempted, {len(failures)} failed")
    for message in failures[:5]:
        print(f"  FAILED {message}")
    for title, table in (("metrics", metrics), ("workload metrics", named)):
        print(title)
        for key, entry in table.items():
            print(f"  {key} = {entry['value']:.6g} {entry['unit']}")
    print("counts " + json.dumps(summary["counts"]))
    print("meta " + json.dumps({k: record[k] for k in meta.KEYS + [
        "wall_s", "host_steal_s"]}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
