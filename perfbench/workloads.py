"""The three benchmark workloads: sweep512, pointwise and profile.

A workload builds its inputs from a seed in ``setup`` (counted as set-up
time), then ``ops`` yields operations in a seeded order, in rounds of
``round_size`` that each hold the workload's full mix; a timed run stops
only at the end of a round, and not before ``min_ops`` operations.
``run`` performs one operation; that call is the timed part.  ``check``
validates a result outside the timing and returns one verdict per attempted
unit of work (None when correct, else a message).  ``finish`` recomputes a
seeded sample by a second method, also outside the timing, and returns extra
verdicts keyed by (record index, unit index).

Every workload is a closed loop: one client in one process issues the next
operation only after the previous one returned.
"""

import contextlib
import io
import itertools
import json
import math
import os
import random
import time
import warnings

import numpy as np

import xlab
import xlab.cli
import xlab.suites

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")

# (n_min, n_max, ratio) of the sweep schedule at each scale
SCHEDULES = {"full": (32, 512, 1.25), "tiny": (32, 64, 1.25)}
ROW_RTOL = 1e-13                 # n lambda_n against the recorded reference
SUITE_TOL = {"circle": 0.02, "interval": 0.02, "lemniscate": 0.03,
             "ellipse": 0.05}    # extrapolated vs predicted, as in suites.py
EXACT_LAW_RTOL = 1e-12           # uniform circle: lambda_n = 2 pi / (n + 1)
DIRECT_RTOL = 1e-10              # kernel vs direct lambda_n
RESIDUAL_MAX = 1e-10             # basis orthonormality certificate
NODE_RTOL = 1e-8                 # recurrence vs stored node values
REFERENCE_SEED = 1504            # the reference loops are the same in every run


def support_point(shape, rng):
    """A seeded point on a support described by ``shape`` (see _shape_*)."""
    kind = shape["kind"]
    if kind == "interval":
        a, b = shape["interval"]
        return complex(a + (b - a) * rng.uniform(0.02, 0.98), 0.0)
    t = rng.uniform(0.0, 2.0 * math.pi)
    if kind == "circle":
        return shape["center"] + shape["radius"] * complex(math.cos(t), math.sin(t))
    if kind == "ellipse":
        a, b = shape["axes"]
        rot = complex(math.cos(shape["rotation"]), math.sin(shape["rotation"]))
        return shape["center"] + rot * complex(a * math.cos(t), b * math.sin(t))
    # lemniscate |T| = 1: a root of T(z) = exp(i t)
    coeffs = np.array(shape["coeffs"], dtype=complex)
    coeffs[0] -= complex(math.cos(t), math.sin(t))
    roots = np.roots(coeffs[::-1])
    return complex(roots[rng.randrange(roots.size)])


def _shape_of_support(support):
    return {"kind": support.kind, "interval": support.interval,
            "center": support.center, "radius": support.radius,
            "axes": support.axes, "rotation": support.rotation,
            "coeffs": None if support.poly is None
            else [complex(c) for c in support.poly.coeffs]}


def _shape_of_file(path):
    """Support shape read from a measure file, without the library parser."""
    entries = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.split("#", 1)[0]
            if "=" in line:
                key, value = (s.strip() for s in line.split("=", 1))
                entries[key] = value
    kind = entries["support.kind"]
    toks = entries.get("support.params", "").split()
    shape = {"kind": kind, "center": 0j, "rotation": 0.0,
             "jump": "weight.jump_param" in entries}
    if kind == "interval":
        shape["interval"] = (float(toks[0]), float(toks[1]))
    elif kind == "circle":
        shape["radius"] = float(toks[0])
        if len(toks) == 3:
            shape["center"] = complex(float(toks[1]), float(toks[2]))
    elif kind == "ellipse":
        shape["axes"] = (float(toks[0]), float(toks[1]))
        if len(toks) >= 3:
            shape["rotation"] = float(toks[2])
        if len(toks) == 5:
            shape["center"] = complex(float(toks[3]), float(toks[4]))
    elif kind == "lemniscate":
        shape["coeffs"] = [complex(*map(float, t.split(","))) if "," in t
                           else complex(float(t)) for t in toks]
    else:
        raise ValueError(f"{path}: unsupported support kind {kind!r}")
    return shape


def _van_der_corput(i):
    """The i-th term (from 0) of the base-2 van der Corput sequence."""
    x, scale, i = 0.0, 0.5, i + 1
    while i:
        x += scale * (i & 1)
        i >>= 1
        scale /= 2
    return x


def _rel(a, b):
    return abs(a - b) / abs(b)


class Sweep512:
    """The paper's experiment: n lambda_n(mu, z0) for n = 32 .. 512.

    One operation is a pass over the four standard jump measures in a
    seeded order: run_sweep on the geometric schedule, then extrapolate and
    predicted_limit.  Each measure's sweep is one attempted unit.
    """

    name = "sweep512"
    round_size = 1
    min_ops = 1

    def __init__(self, seed, scale, out_dir, reference_path=REFERENCE_PATH):
        self.rng = random.Random(seed)
        self.scale = scale
        with open(reference_path, encoding="utf-8") as fh:
            self.reference = json.load(fh)[scale]
        self.setup_failures = []

    def setup(self):
        self.measures = xlab.suites.standard_jump_measures()
        self.schedule = xlab.geometric_schedule(*SCHEDULES[self.scale])
        if self.schedule != self.reference["schedule"]:
            self.setup_failures.append("schedule differs from the reference")

    def geometry(self, op):
        return None

    def ops(self):
        names = sorted(self.measures)
        while True:
            order = list(names)
            self.rng.shuffle(order)
            yield order

    def trace_ops(self, seconds):
        return 1

    def run(self, order):
        out = {}
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            for name in order:
                measure = self.measures[name]
                result = xlab.run_sweep(measure, schedule=self.schedule)
                limit = xlab.extrapolate(result)
                out[name] = (result, limit, xlab.predicted_limit(measure))
        return out

    def check(self, order, out):
        verdicts = []
        for name in order:
            result, limit, predicted = out[name]
            expected = self.reference["n_lambda_n"][name]
            got = [r.n_lambda_n for r in result.rows]
            msg = None
            if [r.n for r in result.rows] != self.schedule or not all(
                    r.ok for r in result.rows):
                msg = f"{name}: rows missing or failed"
            else:
                worst = max(_rel(g, e) for g, e in zip(got, expected))
                if not worst <= ROW_RTOL:
                    msg = f"{name}: n lambda_n off the reference by {worst:.2e}"
                elif not _rel(limit, predicted) <= SUITE_TOL[name]:
                    msg = (f"{name}: extrapolated {limit!r} vs predicted "
                           f"{predicted!r} exceeds {SUITE_TOL[name]}")
            verdicts.append(msg)
        return verdicts

    def finish(self, records):
        return {}

    def summary(self, records):
        times = [dt for _, _, dt in records]
        errs = [_rel(limit, predicted)
                for _, out, _ in records if isinstance(out, dict)
                for _, limit, predicted in out.values()]
        rows = sum(len(result.rows) for _, out, _ in records
                   if isinstance(out, dict) for result, _, _ in out.values())
        return {
            "latencies": times,
            "ops_time": sum(times),
            "points": rows,
            "points_time": sum(times),
            "named": {
                "sweep_s": ("s", float(np.median(times))),
                "extrap_rel_err_max": ("1", max(errs) if errs else math.nan),
            },
            "counts": {"passes": len(records), "sweeps": 4 * len(records),
                       "rows": rows},
        }


class Pointwise:
    """A seeded stream of ``xlab lambda`` requests run through xlab.cli.main.

    Requests come in rounds.  A round asks every (file, n bin) pair once in
    a seeded order, so every run sees the same mix of files and degrees;
    the bins split [8, 96] into four, and round r places n at the same
    fraction of every bin, the r-th term of the van der Corput sequence
    (1/2, 1/4, 3/4, 1/8, ...), so the degrees fill the range evenly and do
    not depend on the seed.  Measures with a jump ask for ``auto-jump`` or a
    seeded point on the support, half and half; the uniform circle has no
    jump and always gets a point.  One request in six, seeded, is recomputed by the
    direct method after the timing.
    """

    name = "pointwise"
    FILES = ["circle_jump", "circle_uniform", "ellipse_jump", "interval_jump",
             "lemniscate_z2_jump"]
    CUBIC = "cubic_lemniscate_jump"
    N_RANGE = {"full": (8, 96, 4), "tiny": (8, 24, 2)}   # (lo, hi, bins)

    def __init__(self, seed, scale, out_dir):
        self.rng = random.Random(seed)
        self.scale = scale
        self.out_dir = out_dir
        self.root = os.path.dirname(HERE)
        self.setup_failures = []
        self.round_size = 6 * self.N_RANGE[scale][2]
        # at least ten requests beyond p90 in a full-size run
        self.min_ops = 100 if scale == "full" else 1

    def setup(self):
        cubic = os.path.join(self.out_dir, self.CUBIC + ".measure")
        with open(cubic, "w", encoding="utf-8") as fh:
            fh.write("# |z^3 - z/2| = 1, a circle jump pulled back\n"
                     "support.kind = lemniscate\n"
                     "support.params = 0,0 -0.5,0 0,0 1,0\n"
                     "weight.A = 2.0\nweight.B = 1.0\n"
                     f"weight.jump_param = {math.pi / 2!r}\n"
                     "weight.w0 = 1.0\neval.z0 = auto-jump\n")
        self.paths = {name: os.path.join(self.root, "measures", name + ".measure")
                      for name in self.FILES}
        self.paths[self.CUBIC] = cubic
        self.shapes = {name: _shape_of_file(path)
                       for name, path in self.paths.items()}

    def geometry(self, op):
        return self.shapes[op["file"]]["kind"]

    def ops(self):
        lo, hi, bins = self.N_RANGE[self.scale]
        width = (hi - lo) / bins
        pairs = [(name, b) for name in sorted(self.paths) for b in range(bins)]
        for rnd in itertools.count():
            offset = _van_der_corput(rnd)
            order = list(pairs)
            self.rng.shuffle(order)
            direct = set(self.rng.sample(range(len(order)), len(order) // 6))
            for i, (name, b) in enumerate(order):
                n = round(lo + width * (b + offset))
                shape = self.shapes[name]
                if shape["jump"] and self.rng.random() < 0.5:
                    z = "auto-jump"
                else:
                    p = support_point(shape, self.rng)
                    z = f"{p.real!r},{p.imag!r}"
                yield {"file": name, "n": n, "z": z, "direct": i in direct}

    def trace_ops(self, seconds):
        return self.round_size * max(1, math.ceil(seconds / 15))

    def argv(self, op):
        return ["lambda", "--measure", self.paths[op["file"]], f"--z={op['z']}",
                "--n", str(op["n"])]

    def run(self, op):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = xlab.cli.main(self.argv(op))
            except SystemExit as exc:
                code = exc.code
        return code, out.getvalue(), err.getvalue()

    @staticmethod
    def parse(stdout):
        fields = dict(line.split(" = ", 1) for line in stdout.splitlines()
                      if " = " in line)
        return float(fields["lambda_n"]), complex(fields["z"])

    def check(self, op, result):
        code, stdout, stderr = result
        if code != 0:
            return [f"{op}: exit {code}: {stderr.strip()}"]
        try:
            lam, _ = self.parse(stdout)
        except (KeyError, ValueError):
            return [f"{op}: unreadable output {stdout!r}"]
        if not (math.isfinite(lam) and lam > 0):
            return [f"{op}: lambda_n = {lam!r}"]
        if op["file"] == "circle_uniform":
            exact = 2.0 * math.pi / (op["n"] + 1)
            if not _rel(lam, exact) <= EXACT_LAW_RTOL:
                return [f"{op}: {lam!r} vs exact {exact!r}"]
        return [None]

    def finish(self, records):
        """Recompute the flagged requests with method='direct'."""
        measures, verdicts = {}, {}
        for i, (op, result, _) in enumerate(records):
            if not op["direct"] or isinstance(result, Exception) or result[0] != 0:
                continue
            lam, z = self.parse(result[1])
            path = self.paths[op["file"]]
            if path not in measures:
                measures[path] = xlab.load_measure_file(path)
            direct = xlab.christoffel_lambda(measures[path], op["n"], z=z,
                                             method="direct").lambda_n
            if not _rel(direct, lam) <= DIRECT_RTOL:
                verdicts[i, 0] = f"{op}: kernel {lam!r} vs direct {direct!r}"
        return verdicts

    def summary(self, records):
        times = [dt for _, _, dt in records]
        lemniscates = sum(self.shapes[op["file"]]["kind"] == "lemniscate"
                          for op, _, _ in records)
        p90 = float(np.percentile(times, 90))
        return {
            "latencies": times,
            "ops_time": sum(times),
            "points": len(times),
            "points_time": sum(times),
            "named": {
                "queries_per_s": ("1/s", len(times) / sum(times)),
                "query_p50_ms": ("ms", 1e3 * float(np.median(times))),
                "query_p90_ms": ("ms", 1e3 * p90),
            },
            "counts": {"requests": len(records),
                       "beyond_p90": sum(t > p90 for t in times),
                       "lemniscate_share": lemniscates / len(records),
                       "distinct_files": len({op["file"] for op, _, _ in records}),
                       "direct_checked": sum(op["direct"] for op, _, _ in records)},
        }


class ReferenceLoop:
    """A fixed Hessenberg recurrence in plain numpy, timed next to operations.

    The machine's speed changes by up to 1.9x from second to second, and for
    whole runs, with load the benchmark cannot see.  This loop has the shape
    of OrthoBasis.evaluate (a Python loop of short numpy products) on a
    random Hessenberg matrix and points fixed once for all runs, so it slows
    with the machine as the library's recurrence does, and no change to xlab
    changes it.  ``normalize`` scales an operation's time by ``nominal_s``
    over the time of the loop run just before the operation: the time the
    operation would take when the loop takes ``nominal_s``.
    """

    def __init__(self, degree, points, nominal_s):
        rng = np.random.default_rng(REFERENCE_SEED)
        shape = (degree + 2, degree + 1)
        h = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        self.h = h * (0.1 / math.sqrt(degree))
        self.h[np.arange(1, degree + 1), np.arange(degree)] = 1.0
        self.z = 0.9 * np.exp(2j * math.pi * np.arange(points) / points)
        self.nominal_s = nominal_s

    def run(self):
        h, z = self.h, self.z
        p = np.empty((h.shape[1], z.size), dtype=complex)
        p[0] = 1.0
        for k in range(h.shape[1] - 1):
            p[k + 1] = (z * p[k] - h[:k + 1, k] @ p[:k + 1]) / h[k + 1, k].real
        return p

    def time(self):
        t0 = time.perf_counter()
        self.run()
        return time.perf_counter() - t0

    def normalize(self, dt, reference_s):
        return dt * self.nominal_s / reference_s


class Profile:
    """Read side of the christoffel layer on bases built once per measure.

    Set-up builds one basis of degree N per standard measure and the direct
    lambda_n at z0, whose extremal polynomial the grid path evaluates.  A
    round is eight scalar operations, each one christoffel_lambda call per
    measure at a seeded point on, near or off its curve, then one grid
    operation per measure in a seeded order: a chunk of a jittered grid over
    the support's bounding box evaluated by extremal_polynomial_values.  A
    scalar operation spans all four measures because their call costs
    differ, and a per-call median would sit between the groups.

    Each operation carries, last, the time of a ReferenceLoop of its own
    shape, run just before the operation is handed out, and the end-to-end
    figures use the operation times normalized by it.
    """

    name = "profile"
    DEGREE = {"full": 256, "tiny": 32}
    GRID = {"full": (64, 512), "tiny": (16, 64)}   # (side, chunk)
    SCALAR_PER_ROUND = 8
    min_ops = 1
    DIRECT_EVERY = 16    # one scalar operation in 16 is recomputed, per call
    NODE_SAMPLE = 64
    # reference loops (degree, points, nominal seconds): nominal is the loop's
    # time on an unloaded core of the 2-vCPU Xeon host of baseline.json
    SCALAR_REF = (64, 1, 0.26e-3)
    GRID_REF = (128, 512, 2.7e-3)

    def __init__(self, seed, scale, out_dir):
        self.seed = seed
        self.rng = random.Random(seed)
        self.scale = scale
        self.setup_failures = []
        self.round_size = self.SCALAR_PER_ROUND + 4
        self.scalar_ref = ReferenceLoop(*self.SCALAR_REF)
        self.grid_ref = ReferenceLoop(*self.GRID_REF)

    def setup(self):
        n = self.DEGREE[self.scale]
        side, chunk = self.GRID[self.scale]
        self.n = n
        self.measures = xlab.suites.standard_jump_measures()
        self.bases, self.values, self.chunks, self.shapes = {}, {}, {}, {}
        for name, measure in sorted(self.measures.items()):
            rule = xlab.build_rule(measure, n)
            basis = xlab.orthonormalize(rule, n)
            worst = float(basis.norm_residuals.max())
            if not worst <= RESIDUAL_MAX:
                self.setup_failures.append(f"{name}: norm residual {worst:.2e}")
            self.bases[name] = basis
            self.values[name] = xlab.christoffel_lambda(measure, n, basis=basis,
                                                        method="direct")
            self.shapes[name] = _shape_of_support(measure.support)
            self.chunks[name] = self._grid(rule.nodes, side, chunk)

    def _grid(self, nodes, side, chunk):
        """Jittered side x side grid over the support's box plus a margin."""
        lo_re, hi_re = nodes.real.min() - 0.2, nodes.real.max() + 0.2
        lo_im, hi_im = nodes.imag.min() - 0.2, nodes.imag.max() + 0.2
        cell = np.array([(hi_re - lo_re) / side, (hi_im - lo_im) / side])
        jitter = cell * np.array([self.rng.random(), self.rng.random()])
        xs = lo_re + jitter[0] + cell[0] * np.arange(side)
        ys = lo_im + jitter[1] + cell[1] * np.arange(side)
        grid = (xs[:, None] + 1j * ys[None, :]).ravel()
        return [grid[i:i + chunk] for i in range(0, grid.size, chunk)]

    def _point(self, name):
        """On the curve, within 1e-4 .. 1e-2 of it, or 0.05 .. 0.3 off it."""
        p = support_point(self.shapes[name], self.rng)
        band = self.rng.randrange(3)
        if band == 0:
            return p
        size = (self.rng.uniform(1e-4, 1e-2) if band == 1
                else self.rng.uniform(0.05, 0.3))
        if self.shapes[name]["kind"] == "interval":
            return p + 1j * size * self.rng.choice((-1, 1))
        centre = self.shapes[name]["center"]
        return centre + (p - centre) * (1.0 + size * self.rng.choice((-1, 1)))

    def geometry(self, op):
        return self.shapes[op[1]]["kind"] if op[0] == "grid" else None

    def ops(self):
        names = sorted(self.measures)
        cursor = {name: 0 for name in names}
        for count in itertools.count():
            order = list(names)
            self.rng.shuffle(order)
            for i in range(self.SCALAR_PER_ROUND):
                direct = (count * self.SCALAR_PER_ROUND + i) % self.DIRECT_EVERY == 0
                points = [(name, self._point(name)) for name in order]
                yield ("scalar", points, direct, self.scalar_ref.time())
            for name in order:
                chunks = self.chunks[name]
                index = cursor[name] % len(chunks)
                cursor[name] += 1
                yield ("grid", name, index, self.grid_ref.time())

    def trace_ops(self, seconds):
        return self.round_size * max(1, math.ceil(2 * seconds))

    def run(self, op):
        if op[0] == "scalar":
            return [xlab.christoffel_lambda(self.measures[name], self.n, z=z,
                                            basis=self.bases[name]).lambda_n
                    for name, z in op[1]]
        _, name, index, _ = op
        return xlab.extremal_polynomial_values(self.bases[name], self.values[name],
                                               self.chunks[name][index])

    def check(self, op, result):
        if op[0] == "scalar":
            return [None if math.isfinite(lam) and lam > 0
                    else f"{name} at {z!r}: lambda_n = {lam!r}"
                    for (name, z), lam in zip(op[1], result)]
        _, name, index, _ = op
        ok = result.size == self.chunks[name][index].size and bool(
            np.all(np.isfinite(result)))
        return [None if ok else f"{op}: non-finite grid values"]

    def finish(self, records):
        """Kernel vs direct on flagged operations; recurrence vs node values."""
        verdicts = {}
        for i, (op, result, _) in enumerate(records):
            if op[0] != "scalar" or not op[2] or isinstance(result, Exception):
                continue
            for j, ((name, z), lam) in enumerate(zip(op[1], result)):
                direct = xlab.christoffel_lambda(self.measures[name], self.n, z=z,
                                                 basis=self.bases[name],
                                                 method="direct").lambda_n
                if not _rel(direct, lam) <= DIRECT_RTOL:
                    verdicts[i, j] = (f"{name} at {z!r}: kernel {lam!r} vs "
                                      f"direct {direct!r}")
        rng = random.Random(self.seed)
        for name, basis in sorted(self.bases.items()):
            idx = np.array(sorted(rng.sample(range(basis.rule.node_count),
                                             self.NODE_SAMPLE)))
            value = self.values[name]
            got = xlab.extremal_polynomial_values(basis, value,
                                                  basis.rule.nodes[idx])
            stored = value.extremal_coeffs @ basis.node_values[:, idx]
            worst = float(np.max(np.abs(got - stored)) / np.max(np.abs(stored)))
            if not worst <= NODE_RTOL:
                self.setup_failures.append(
                    f"{name}: grid path off the node values by {worst:.2e}")
        return verdicts

    def summary(self, records):
        scalar = [(dt, op[3]) for op, _, dt in records if op[0] == "scalar"]
        grid = [(self.chunks[op[1]][op[2]].size, dt, op[3])
                for op, _, dt in records if op[0] == "grid"]
        latencies = [self.scalar_ref.normalize(dt, ref) for dt, ref in scalar]
        grid_time = sum(self.grid_ref.normalize(dt, ref) for _, dt, ref in grid)
        points = sum(p for p, _, _ in grid)
        calls = 4 * len(scalar)
        raw_grid_time = sum(dt for _, dt, _ in grid)
        speed = [self.scalar_ref.nominal_s / ref for _, ref in scalar]
        return {
            "latencies": latencies,
            "ops_time": sum(latencies),
            "points": points,
            "points_time": grid_time,
            "named": {
                "lambda_points_per_s": ("1/s", calls / sum(dt for dt, _ in scalar)),
                "grid_points_per_s": ("1/s", points / raw_grid_time
                                      if raw_grid_time else math.nan),
                "host_speed_p10": ("1", float(np.percentile(speed, 10))),
                "host_speed_p50": ("1", float(np.median(speed))),
            },
            "counts": {"scalar_calls": calls, "grid_chunks": len(grid),
                       "grid_points": points, "degree": self.n},
        }


WORKLOADS = {cls.name: cls for cls in (Sweep512, Pointwise, Profile)}
