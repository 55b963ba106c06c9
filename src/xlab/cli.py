"""Command-line front end: lambda evaluation, sweeps, densities, suites.

Exit codes: 0 success, 1 verification failure, 2 input error, 3 numeric
error.  All file output is deterministic (floats are written with repr).
"""

import argparse
import json
import os
import sys

from .christoffel import christoffel_lambda
from .equilibrium import density_profile
from .errors import InputError, NumericError
from .measures import _resolve_z0, load_measure_file
from .suites import SUITE_NAMES, verify
from .sweep import extrapolate, geometric_schedule, run_sweep, write_sweep_csv

EQUILIBRIUM_CSV_HEADER = "t_param,re(z),im(z),density,normal_derivative"


def _cmd_lambda(args):
    measure = load_measure_file(args.measure)
    z = _resolve_z0(args.z, measure.support, measure.weight)
    value = christoffel_lambda(measure, args.n, z=z, method=args.method)
    print(f"n = {value.n}")
    print(f"z = {value.z!r}")
    print(f"method = {value.method}")
    print(f"route = {value.route}")
    print(f"lambda_n = {value.lambda_n!r}")
    print(f"n_lambda_n = {value.n * value.lambda_n!r}")
    return 0


def _check_writable(path):
    """Raise OSError now, not after the work, when ``path`` cannot be written.

    The probe opens for appending, so an existing file keeps its contents,
    and a file the probe created is removed again.
    """
    existed = os.path.lexists(path)
    open(path, "a").close()
    if not existed:
        os.remove(path)


def _cmd_sweep(args):
    measure = load_measure_file(args.measure)
    z = _resolve_z0(args.z, measure.support, measure.weight)
    schedule = geometric_schedule(args.n_min, args.n_max, args.ratio)
    _check_writable(args.out)
    result = run_sweep(measure, z=z, schedule=schedule)
    if args.extrapolate:
        limit = extrapolate(result)
        print(f"extrapolated_limit = {limit!r}")
        print(f"fit: {result.fit_model.description}")
    rows = result.ok_rows
    if rows:
        last = rows[-1]
        print(f"predicted_limit = {last.predicted_limit!r}")
        print(f"n_lambda_n at n={last.n}: {last.n_lambda_n!r} "
              f"(relative error {last.relative_error:+.3e})")
    failed = [r.n for r in result.rows if not r.ok]
    if failed:
        print(f"failed rows: n in {failed}", file=sys.stderr)
    write_sweep_csv(result, args.out)
    print(f"wrote {len(result.rows)} rows to {args.out}")
    return 0


def _cmd_equilibrium(args):
    measure = load_measure_file(args.measure)
    t, points, density, normal = density_profile(measure.support, args.samples)
    with open(args.out, "w") as fh:
        fh.write(EQUILIBRIUM_CSV_HEADER + "\n")
        for tk, zk, dk, nk in zip(t, points, density, normal):
            fh.write(",".join([repr(float(tk)), repr(float(zk.real)),
                               repr(float(zk.imag)), repr(float(dk)),
                               repr(float(nk))]) + "\n")
    print(f"wrote {len(t)} samples to {args.out}")
    return 0


def _cmd_verify(args):
    report = verify(args.suite, tol=args.tol)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        for line in report.lines():
            print(line)
    return 0 if report.passed else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="xlab",
        description="Christoffel-function asymptotics on curves with "
                    "jump-discontinuous weights")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("lambda", help="evaluate lambda_n at a point")
    p.add_argument("--measure", required=True, help="measure-spec file")
    p.add_argument("--z", required=True, help="re,im or auto-jump")
    p.add_argument("--n", required=True, type=int, help="polynomial degree")
    p.add_argument("--method", choices=("kernel", "direct"), default="kernel")
    p.set_defaults(func=_cmd_lambda)

    p = sub.add_parser("sweep", help="sweep n lambda_n over a degree schedule")
    p.add_argument("--measure", required=True, help="measure-spec file")
    p.add_argument("--z", default="auto-jump", help="re,im or auto-jump")
    p.add_argument("--n-min", type=int, default=8)
    p.add_argument("--n-max", type=int, default=512)
    p.add_argument("--ratio", type=float, default=1.25)
    p.add_argument("--extrapolate", action="store_true",
                   help="fit and report the extrapolated limit")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("equilibrium", help="sample the equilibrium density")
    p.add_argument("--measure", required=True, help="measure-spec file")
    p.add_argument("--samples", required=True, type=int)
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=_cmd_equilibrium)

    p = sub.add_parser("verify", help="run a named verification suite")
    p.add_argument("--suite", required=True, choices=SUITE_NAMES)
    p.add_argument("--tol", type=float, default=None,
                   help="override the suite's headline tolerance")
    p.add_argument("--json", action="store_true",
                   help="emit the report as JSON")
    p.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
