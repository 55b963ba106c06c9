"""Span recorders around the public functions of the xlab modules.

``install`` wraps each traced function and rebinds every attribute of every
loaded ``xlab`` module that refers to it (``xlab.sweep.orthonormalize``,
``xlab.cli.christoffel_lambda``, the package-level re-export, ...), so calls
made inside the library are recorded too.  The library source is untouched.

A span is a list ``[name, start, end, parent, attrs]`` kept in memory; the
caller writes them out when the run ends.  A span's self time is its
duration minus the durations of its direct children (calls are nested on one
thread, so the children never overlap).
"""

import contextlib
import functools
import sys
import time
import weakref

# (module, attribute, span name); a dotted attribute names a method
TRACED = [
    ("xlab.geometry", "trace_lemniscate", "geometry.trace_lemniscate"),
    ("xlab.measures", "load_measure_file", "measures.load_measure_file"),
    ("xlab.cli", "main", "cli.main"),
    ("xlab.quadrature", "build_rule", "quadrature.build_rule"),
    ("xlab.christoffel", "orthonormalize", "christoffel.orthonormalize"),
    ("xlab.christoffel", "OrthoBasis.evaluate", "christoffel.evaluate"),
    ("xlab.christoffel", "christoffel_lambda", "christoffel.christoffel_lambda"),
    ("xlab.christoffel", "kernel_prefix", "christoffel.kernel_prefix"),
    ("xlab.christoffel", "extremal_polynomial_values",
     "christoffel.extremal_polynomial_values"),
    ("xlab.equilibrium", "equilibrium_density", "equilibrium.equilibrium_density"),
    ("xlab.sweep", "predicted_limit", "sweep.predicted_limit"),
    ("xlab.sweep", "run_sweep", "sweep.run_sweep"),
    ("xlab.sweep", "extrapolate", "sweep.extrapolate"),
]

GEOMETRIES = ("circle", "interval", "lemniscate", "ellipse")
BENCH_PREFIX = "bench."
COMPLEX_BYTES = 16


def _count(name):
    return (name, "count", "lower")


def _secs(name):
    return (name, "s", "lower")


# every per-layer metric a traced run reports: (name, unit, better)
PER_LAYER = [
    _count("geometry.trace_lemniscate.calls"),
    _secs("geometry.trace_lemniscate.self_s"),
    _count("measures.load_measure_file.calls"),
    _secs("measures.load_measure_file.self_s"),
    _count("cli.main.calls"),
    _secs("cli.main.self_s"),
    _count("quadrature.build_rule.calls"),
    _secs("quadrature.build_rule.self_s"),
    *[_count(f"quadrature.nodes.{g}") for g in GEOMETRIES],
    _count("christoffel.orthonormalize.calls"),
    _secs("christoffel.orthonormalize.self_s"),
    *[m for g in GEOMETRIES
      for m in (_count(f"christoffel.orthonormalize.{g}.calls"),
                _secs(f"christoffel.orthonormalize.{g}.self_s"))],
    _count("christoffel.orthonormalize.cmacs"),
    ("christoffel.orthonormalize.model_bytes", "B", "lower"),
    ("christoffel.orthonormalize.gbps", "GB/s", "higher"),
    ("christoffel.orthonormalize.residual_max", "1", "lower"),
    _count("christoffel.orthonormalize.degenerate"),
    _count("christoffel.evaluate.calls"),
    _count("christoffel.evaluate.points"),
    _secs("christoffel.evaluate.self_s"),
    _count("christoffel.christoffel_lambda.calls"),
    _secs("christoffel.christoffel_lambda.self_s"),
    _count("christoffel.kernel_prefix.calls"),
    _secs("christoffel.kernel_prefix.self_s"),
    _count("christoffel.extremal_polynomial_values.calls"),
    _secs("christoffel.extremal_polynomial_values.self_s"),
    _count("equilibrium.equilibrium_density.calls"),
    _secs("equilibrium.equilibrium_density.self_s"),
    _count("sweep.predicted_limit.calls"),
    _secs("sweep.predicted_limit.self_s"),
    _count("sweep.run_sweep.calls"),
    _secs("sweep.run_sweep.self_s"),
    _count("sweep.extrapolate.calls"),
    _secs("sweep.extrapolate.self_s"),
    _count("sweep.fit_flagged"),
    _secs("trace.wall_s"),
    ("trace.uncovered_frac", "1", "lower"),
    _secs("trace.overhead_s"),
    ("trace.overhead_frac", "1", "lower"),
]


def cgs2_cmacs(degree, m):
    """Complex multiply-adds of CGS2 Arnoldi to ``degree`` on m nodes.

    Step k projects against k + 1 basis rows twice, and each projection is
    one product and one update: 4 (k + 1) m multiply-adds.
    """
    return sum(4 * (k + 1) * m for k in range(degree))


def cgs2_model_bytes(degree, m):
    """Basis bytes the CGS2 Arnoldi must stream (a model, not a counter).

    Each of the four passes of step k reads the (k + 1) x m basis prefix
    once; the closing Gram check reads the (degree + 1) x m basis twice and
    writes one weighted copy.  Copies the implementation makes beyond
    these are not counted.
    """
    return COMPLEX_BYTES * (4 * sum((k + 1) * m for k in range(degree))
                            + 3 * (degree + 1) * m)


def _geometry_of(measure):
    kind = getattr(getattr(measure, "support", None), "kind", None)
    return kind if kind in GEOMETRIES else None


def _attrs_in(name, args, kwargs):
    if name in ("sweep.run_sweep", "christoffel.christoffel_lambda",
                "quadrature.build_rule", "sweep.predicted_limit"):
        measure = args[0] if args else kwargs.get("measure")
        geometry = _geometry_of(measure)
        return {"geometry": geometry} if geometry else {}
    if name == "christoffel.evaluate":
        z = args[1] if len(args) > 1 else kwargs["z"]
        return {"points": int(getattr(z, "size", 1))}
    return {}


def _attrs_out(name, args, kwargs, result):
    if name == "christoffel.orthonormalize":
        rule, degree = args[0], int(args[1] if len(args) > 1 else kwargs["degree"])
        return {"degree": degree, "m": int(rule.node_count),
                "residual": float(result.norm_residuals.max())}
    if name == "sweep.extrapolate":
        result_arg = args[0] if args else kwargs["result"]
        return {"flagged": bool(result_arg.fit_model.flagged)}
    return {}


class Tracer:
    """In-memory span recorder with a stack of open spans."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self._patches = []
        self._rule_geometry = {}   # id(rule) -> (weak reference, geometry)

    def open(self, name, attrs=None):
        parent = self.stack[-1] if self.stack else None
        attrs = dict(attrs or {})
        if "geometry" not in attrs and parent is not None:
            inherited = self.spans[parent][4].get("geometry")
            if inherited:
                attrs["geometry"] = inherited
        self.spans.append([name, time.perf_counter(), None, parent, attrs])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def close(self, sid, attrs=None):
        span = self.spans[sid]
        span[2] = time.perf_counter()
        if attrs:
            span[4].update(attrs)
        self.stack.pop()

    @contextlib.contextmanager
    def span(self, name, attrs=None):
        sid = self.open(name, attrs)
        try:
            yield sid
        finally:
            self.close(sid)

    def _geometry_of_rule(self, rule):
        ref, geometry = self._rule_geometry.get(id(rule), (None, None))
        return geometry if ref is not None and ref() is rule else None

    def _wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            attrs = _attrs_in(name, args, kwargs)
            if name == "christoffel.orthonormalize":
                geometry = tracer._geometry_of_rule(args[0] if args else kwargs["rule"])
                if geometry:
                    attrs["geometry"] = geometry
            sid = tracer.open(name, attrs)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                extra = {"error": type(exc).__name__}
                if getattr(exc, "achieved_degree", None) is not None:
                    extra["degenerate"] = True
                tracer.close(sid, extra)
                raise
            tracer.close(sid, _attrs_out(name, args, kwargs, result))
            if name == "quadrature.build_rule" and "geometry" in attrs:
                tracer._rule_geometry[id(result)] = (weakref.ref(result),
                                                     attrs["geometry"])
            return result

        return wrapper

    def _find_patches(self):
        """(target, attribute, original, wrapper) for every binding."""
        modules = [mod for key, mod in sorted(sys.modules.items())
                   if key == "xlab" or key.startswith("xlab.")]
        patches = []
        for module_name, attr, span_name in TRACED:
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                patches.append((cls, meth, original,
                                self._wrap(span_name, original)))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(span_name, original)
            for mod in modules:
                for key, value in vars(mod).items():
                    if value is original:
                        patches.append((mod, key, original, wrapper))
        return patches

    def install(self):
        """Wrap every traced function wherever an xlab module binds it."""
        if not self._patches:
            self._patches = self._find_patches()
        for target, key, _, wrapper in self._patches:
            setattr(target, key, wrapper)
        return self

    def uninstall(self):
        for target, key, original, _ in self._patches:
            setattr(target, key, original)


def self_times(spans):
    """Duration minus the durations of direct children, per span."""
    out = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent is not None:
            out[parent] -= end - start
    return out


def per_layer(spans, nodes_at_512, overhead_s, untraced_s):
    """Aggregate spans into every metric named in PER_LAYER."""
    values = {name: 0 for name, _, _ in PER_LAYER}
    selfs = self_times(spans)
    total = covered = 0.0
    for (name, start, end, parent, attrs), self_s in zip(spans, selfs):
        if name.startswith(BENCH_PREFIX):
            if parent is None:
                total += end - start
            continue
        if parent is not None and spans[parent][0].startswith(BENCH_PREFIX):
            covered += end - start
        values[f"{name}.calls"] += 1
        values[f"{name}.self_s"] += self_s
        if name == "christoffel.orthonormalize":
            geometry = attrs.get("geometry")
            if geometry:
                values[f"{name}.{geometry}.calls"] += 1
                values[f"{name}.{geometry}.self_s"] += self_s
            if attrs.get("degenerate"):
                values[f"{name}.degenerate"] += 1
            elif "degree" in attrs:
                values[f"{name}.cmacs"] += cgs2_cmacs(attrs["degree"], attrs["m"])
                values[f"{name}.model_bytes"] += cgs2_model_bytes(attrs["degree"],
                                                                  attrs["m"])
                values[f"{name}.residual_max"] = max(
                    values[f"{name}.residual_max"], attrs["residual"])
        elif name == "christoffel.evaluate":
            values[f"{name}.points"] += attrs.get("points", 0)
        elif name == "sweep.extrapolate" and attrs.get("flagged"):
            values["sweep.fit_flagged"] += 1
    ortho_s = values["christoffel.orthonormalize.self_s"]
    if ortho_s > 0:
        values["christoffel.orthonormalize.gbps"] = (
            values["christoffel.orthonormalize.model_bytes"] / ortho_s / 1e9)
    for geometry, count in nodes_at_512.items():
        values[f"quadrature.nodes.{geometry}"] = count
    values["trace.wall_s"] = total
    values["trace.uncovered_frac"] = 1.0 - covered / total if total > 0 else 0.0
    values["trace.overhead_s"] = overhead_s
    values["trace.overhead_frac"] = overhead_s / untraced_s if untraced_s > 0 else 0.0
    return {name: {"value": values[name], "unit": unit}
            for name, unit, _ in PER_LAYER}
