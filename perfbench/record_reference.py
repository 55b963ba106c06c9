#!/usr/bin/env python3
"""Record the sweep512 reference table that the correctness gate compares to.

Run from the root of a source checkout at the commit whose answers are the
reference (the table in reference.json was recorded at the commit that
introduced the benchmark):

    python3 perfbench/record_reference.py

For each scale it stores the schedule, n lambda_n of every row, the
extrapolated limit and the predicted limit of the four standard measures.
"""

import json
import os
import sys
import warnings

import meta
import run  # pins BLAS threads before numpy loads


def record(workloads):
    import xlab.suites
    table = {"recorded_at": meta.git_commit(run.ROOT)}
    measures = xlab.suites.standard_jump_measures()
    for scale, params in sorted(workloads.SCHEDULES.items()):
        schedule = xlab.geometric_schedule(*params)
        entry = {"schedule": schedule, "n_lambda_n": {}, "extrapolated": {},
                 "predicted": {}}
        for name, measure in sorted(measures.items()):
            result = xlab.run_sweep(measure, schedule=schedule)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                entry["extrapolated"][name] = xlab.extrapolate(result)
            entry["n_lambda_n"][name] = [r.n_lambda_n for r in result.rows]
            entry["predicted"][name] = xlab.predicted_limit(measure)
        table[scale] = entry
    return table


def main():
    workloads = run.load_program()
    if workloads is None:
        sys.exit("error: run from a source checkout")
    table = record(workloads)
    with open(workloads.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1)
        fh.write("\n")
    print(f"wrote {os.path.relpath(workloads.REFERENCE_PATH)}")


if __name__ == "__main__":
    main()
