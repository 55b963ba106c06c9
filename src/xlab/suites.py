"""Named verification suites over the asymptotic-law experiments.

Each suite runs a self-contained experiment (exact circle law, jump
sweeps per geometry, or the structural property checks) and reports
measured values against tolerances.  The sweep tolerances are engineering
choices: no convergence rate is known for the scaled values.
"""

import cmath
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .christoffel import christoffel_lambda, kernel_prefix, orthonormalize
from .equilibrium import equilibrium_density, green_potential
from .errors import InputError
from .geometry import ComplexPolynomial, SupportSpec, parametrize, preimages
from .measures import (ConstantWeight, MeasureSpec, circle_jump_measure,
                       ellipse_jump_measure, lemniscate_pullback_measure,
                       symmetrize_to_interval, uniform_circle_measure)
from .quadrature import build_rule, integrate
from .sweep import (extrapolate, geometric_schedule, predicted_limit,
                    run_sweep)

SUITE_NAMES = ("circle-exact", "circle-jump", "interval-jump",
               "lemniscate-jump", "ellipse-jump", "properties")

CIRCLE_LIMIT = 2.0 * math.pi / math.log(2.0)
INTERVAL_LIMIT = math.pi / math.log(2.0)
ELLIPSE_LIMIT = 3.0 * math.pi / (2.0 * math.log(2.0))


@dataclass
class CheckResult:
    name: str
    passed: bool
    measured: float
    tolerance: float
    detail: str = ""

    def line(self):
        flag = "PASS" if self.passed else "FAIL"
        text = (f"[{flag}] {self.name}: measured {self.measured:.6e}"
                f" (tolerance {self.tolerance:.6e})")
        if self.detail:
            text += f" -- {self.detail}"
        return text


@dataclass
class SuiteReport:
    suite: str
    checks: list = field(default_factory=list)
    wall_time: float = 0.0

    @property
    def passed(self):
        return all(c.passed for c in self.checks)

    def lines(self):
        out = [c.line() for c in self.checks]
        verdict = "PASS" if self.passed else "FAIL"
        out.append(f"suite {self.suite}: {verdict} "
                   f"({len(self.checks)} checks, {self.wall_time:.1f} s)")
        return out

    def to_dict(self):
        return {
            "suite": self.suite,
            "passed": self.passed,
            "wall_time": self.wall_time,
            "checks": [{"name": c.name, "passed": bool(c.passed),
                        "measured": c.measured, "tolerance": c.tolerance,
                        "detail": c.detail} for c in self.checks],
        }


def _check(name, measured, tolerance, detail=""):
    measured = float(measured)
    ok = math.isfinite(measured) and measured <= tolerance
    return CheckResult(name, ok, measured, float(tolerance), detail)


def standard_jump_measures():
    """The four jump measures (A=2, B=1) used across the experiments."""
    return {
        "circle": circle_jump_measure(),
        "interval": symmetrize_to_interval(circle_jump_measure()),
        "lemniscate": lemniscate_pullback_measure(
            ComplexPolynomial([0.0, 0.0, 1.0]),
            z0=cmath.exp(1j * math.pi / 4)),
        "ellipse": ellipse_jump_measure(1.25, 0.75),
    }


def _suite_circle_exact(tol):
    tol = 1e-12 if tol is None else tol
    n_max = 100
    measure = uniform_circle_measure(z0=1.0)
    rule = build_rule(measure, n_max)
    basis = orthonormalize(rule, n_max)
    prefix = kernel_prefix(basis, 1.0 + 0j)
    ns = np.arange(n_max + 1)
    lam = 1.0 / prefix
    exact = 2.0 * math.pi / (ns + 1)
    worst = float(np.max(np.abs(lam - exact) / exact))
    return [_check("exact-law-max-rel-error", worst, tol,
                   f"lambda_n vs 2 pi/(n+1) for n <= {n_max}")]


def _jump_sweep_checks(name, measure, target, tol_extrap, tol_raw=None):
    sched = geometric_schedule(32, 512, 1.25)
    result = run_sweep(measure, schedule=sched)
    limit = extrapolate(result)
    checks = [_check(f"{name}-extrapolated", abs(limit - target) / target,
                     tol_extrap,
                     f"extrapolated {limit:.6f} vs predicted {target:.6f}")]
    if tol_raw is not None:
        raw = result.rows[-1].n_lambda_n
        checks.append(_check(f"{name}-raw-512", abs(raw - target) / target,
                             tol_raw, f"n=512 value {raw:.6f}"))
    if result.fit_model.flagged:
        checks.append(CheckResult(f"{name}-fit-conditioning", False,
                                  result.fit_model.residual,
                                  0.1 * result.fit_model.spread,
                                  "ill-conditioned extrapolation fit"))
    return checks, result


def _suite_circle_jump(tol):
    tol = 0.02 if tol is None else tol
    checks, _ = _jump_sweep_checks("circle", circle_jump_measure(),
                                   CIRCLE_LIMIT, tol, tol_raw=0.05)

    # continuity in the jump: A -> B degenerates to the smooth-case 2 pi
    tiny = circle_jump_measure(A=1.0 + 1e-6, B=1.0)
    pred = predicted_limit(tiny)
    checks.append(_check("continuity-predicted",
                         abs(pred - 2.0 * math.pi) / (2.0 * math.pi), 1e-5,
                         f"A=1+1e-6 predicted {pred!r}"))
    row = run_sweep(tiny, schedule=[256]).rows[0]
    checks.append(_check("continuity-n256",
                         abs(row.n_lambda_n - 2.0 * math.pi) / (2.0 * math.pi),
                         0.05, f"n=256 value {row.n_lambda_n:.6f}"))
    return checks


def _suite_interval_jump(tol):
    tol = 0.02 if tol is None else tol
    measure = symmetrize_to_interval(circle_jump_measure())
    checks, _ = _jump_sweep_checks("interval", measure, INTERVAL_LIMIT, tol)
    return checks


def _suite_lemniscate_jump(tol):
    tol = 0.03 if tol is None else tol
    poly = ComplexPolynomial([0.0, 0.0, 1.0])
    measure = lemniscate_pullback_measure(poly, z0=cmath.exp(1j * math.pi / 4))
    checks, result = _jump_sweep_checks("lemniscate", measure, CIRCLE_LIMIT,
                                        tol)

    # degree halving: even and odd polynomials are orthogonal on the z^2
    # lemniscate, so K_n(z0) = K_{n//2}(z0^2) + |z0|^2 K_{(n-1)//2}(z0^2)
    # with K of the circle measure, from its own rule and recurrence
    circle = run_sweep(circle_jump_measure(), z=measure.z0 ** 2,
                       schedule=list(range(1, 257)))
    K = {r.n: 1.0 / r.lambda_n for r in circle.rows}
    worst = max(abs(1.0 / r.lambda_n - K[r.n // 2]
                    - abs(measure.z0) ** 2 * K[(r.n - 1) // 2]) * r.lambda_n
                for r in result.rows)
    checks.append(_check("degree-halving", worst, 1e-12,
                         "K_n on the z^2 lemniscate (Gram route) vs two "
                         "circle kernels at z0^2 (Szegő recurrence)"))

    # the paper's case proper: |z^2 - 2| = 1 has two components, around
    # -sqrt(2) and sqrt(2); z0, the first preimage of the circle's jump
    # point i, lies on the one around -sqrt(2)
    two = lemniscate_pullback_measure(ComplexPolynomial([-2.0, 0.0, 1.0]))
    more, _ = _jump_sweep_checks("two-component", two, predicted_limit(two),
                                 tol)
    # a cubic, |z^3 - 1.5 z + 0.3| = 1: two components, winding 1 and 2
    cubic = lemniscate_pullback_measure(ComplexPolynomial([0.3, -1.5, 0.0, 1.0]))
    third, _ = _jump_sweep_checks("cubic", cubic, predicted_limit(cubic), tol)
    return checks + more + third


def _suite_ellipse_jump(tol):
    tol = 0.05 if tol is None else tol
    measure = ellipse_jump_measure(1.25, 0.75)
    pred = predicted_limit(measure)
    checks = [_check("predicted-closed-form",
                     abs(pred - ELLIPSE_LIMIT) / ELLIPSE_LIMIT, 1e-12,
                     f"predicted {pred!r} vs 3 pi/(2 ln 2)")]
    more, _ = _jump_sweep_checks("ellipse", measure, ELLIPSE_LIMIT, tol)
    return checks + more


def _constant_measure(support):
    return MeasureSpec(support, ConstantWeight(1.0))


def _fiber_sum(poly, f, images):
    """Sum of f over the fiber T^{-1}(w), for each image point w."""
    return np.array([np.sum(f(preimages(poly, complex(w)))) for w in images])


def _integral_identity_checks(coeffs, tag):
    poly = ComplexPolynomial(coeffs)
    n = poly.degree
    dpoly = poly.derivative()
    support = SupportSpec.make_lemniscate(poly)
    rule = build_rule(_constant_measure(support), 16)

    def f(z):
        return 0.7 * z ** 3 - 0.2 * z + (0.3 + 0.1j)

    speed = lambda z: np.abs(dpoly(z))
    rhs = complex(integrate(rule, lambda z: f(z) * speed(z)))
    scale = abs(rhs)

    # |T'| ds = d(theta) on the curve, so integrating the fiber sum once
    # around the image circle recovers the full integral
    circle_rule = build_rule(uniform_circle_measure(), 16)
    lhs1 = complex(np.sum(circle_rule.weights
                          * _fiber_sum(poly, f, circle_rule.nodes)))
    checks = [_check(f"fiber-arc-integral-{tag}", abs(lhs1 - rhs) / scale,
                     1e-9, "fiber sum over the image circle vs full curve")]

    # whole curve: the fiber sum integrates to N times the plain integral
    fsum_full = _fiber_sum(poly, f, poly(rule.nodes))
    lhs2 = complex(np.sum(rule.weights * fsum_full * speed(rule.nodes)))
    checks.append(_check(f"fiber-sum-integral-{tag}",
                         abs(lhs2 - n * rhs) / (n * scale),
                         1e-9, "fiber sum over the curve vs N times"))

    # pullback: integrating g(T(z)) |T'| matches N times the circle integral
    worst = 0.0
    for g, ref in ((lambda w: np.ones_like(w), 2.0 * math.pi * n),
                   (np.real, 0.0),
                   (lambda w: np.abs(w) ** 2, 2.0 * math.pi * n)):
        val = complex(integrate(rule, lambda z: g(poly(z)) * speed(z)))
        worst = max(worst, abs(val - ref) / (2.0 * math.pi * n))
    checks.append(_check(f"pullback-integral-{tag}", worst, 1e-9,
                         "g(T(z))|T'| vs N times the unit-circle integral"))
    return checks


def _capacity(support):
    """Logarithmic capacity in closed form (Ransford, Potential Theory in
    the Complex Plane, 1995, section 5.2)."""
    if support.kind == "circle":
        return support.radius
    if support.kind == "interval":
        a, b = support.interval
        return (b - a) / 4.0
    if support.kind == "ellipse":
        return sum(support.axes) / 2.0
    poly = support.poly
    return abs(poly.coeffs[-1]) ** (-1.0 / poly.degree)


def _green_residuals(support, nodes):
    """Residuals of g = Re G, with G from ``green_potential``.

    Returns the largest |g| at ``nodes`` on the support, the largest
    |g(z) - log|z| + log cap| on eight rays at |z| = 1e10, and the largest
    relative error of a finite-difference outward normal derivative of g
    against 2 pi times the equilibrium density, at 16 parameter midpoints
    per arc (clear of an interval's endpoints, where the density is
    infinite).  An interval has no inside, and g is even across it: there
    the difference is one-sided and each side carries half of the merged
    density.
    """
    G, _ = green_potential(support)
    g = lambda z: np.real(G(z))
    density = equilibrium_density(support)
    on_support = float(np.max(np.abs(g(nodes))))
    far = 1e10 * np.exp(0.25j * math.pi * (np.arange(8) + 0.5))
    at_infinity = float(np.max(np.abs(g(far) - np.log(np.abs(far))
                                      + math.log(_capacity(support)))))
    normal = 0.0
    for arc in parametrize(support):
        t = arc.t_lo + (np.arange(16) + 0.5) * arc.span / 16
        z, v = arc.point_velocity(t)
        step = -1e-6j * v / np.abs(v)
        dens = np.array([density(p) for p in z])
        if support.kind == "interval":
            slope = (g(z + step) - g(z)) / 1e-6
            target = math.pi * dens
        else:
            slope = (g(z + step) - g(z - step)) / 2e-6
            target = 2.0 * math.pi * dens
        normal = max(normal, float(np.max(np.abs(slope - target) / target)))
    return on_support, at_infinity, normal


def _suite_properties(tol):
    del tol  # per-check tolerances are structural here
    checks = []
    measures = standard_jump_measures()

    # lambda_n is non-increasing and n lambda_n stays bounded
    sched = geometric_schedule(8, 128, 1.25)
    worst_mono = -np.inf
    worst_major = 0.0
    for measure in measures.values():
        result = run_sweep(measure, schedule=sched)
        lam = np.array([r.lambda_n for r in result.rows])
        worst_mono = max(worst_mono, float(np.max(np.diff(lam))))
        worst_major = max(worst_major,
                          max(r.n_lambda_n for r in result.rows))
    checks.append(_check("lambda-monotone", worst_mono, 0.0,
                         "max increase of lambda_n across schedules"))
    checks.append(_check("majorization-bound", worst_major, 20.0,
                         "max n lambda_n over all jump measures"))

    # linearity under measure scaling
    base = measures["circle"]
    lam0 = christoffel_lambda(base, 24).lambda_n
    worst = max(abs(christoffel_lambda(base.scaled(c), 24).lambda_n
                    - c * lam0) / (c * lam0) for c in (0.5, 2.0, 10.0))
    checks.append(_check("scaling-linearity", worst, 1e-12,
                         "lambda(c mu) vs c lambda(mu), c in {0.5, 2, 10}"))

    # kernel and direct methods agree
    worst = 0.0
    for measure in measures.values():
        basis = orthonormalize(build_rule(measure, 60), 60)
        for n in (5, 17, 33, 60):
            a = christoffel_lambda(measure, n, basis=basis).lambda_n
            b = christoffel_lambda(measure, n, method="direct",
                                   basis=basis).lambda_n
            worst = max(worst, abs(a - b) / a)
    checks.append(_check("method-agreement", worst, 1e-10,
                         "kernel vs direct on the four jump measures"))

    # predicted limit: scaling invariance
    worst = max(abs(predicted_limit(base.scaled(c)) - c * predicted_limit(base))
                / (c * predicted_limit(base)) for c in (0.5, 2.0, 10.0))
    checks.append(_check("predicted-limit-scaling", worst, 1e-12,
                         "predicted_limit(c mu) vs c predicted_limit(mu)"))

    # fiber and pullback integral identities on z^2 and z^3
    checks.extend(_integral_identity_checks([0.0, 0.0, 1.0], "z2"))
    checks.extend(_integral_identity_checks([0.0, 0.0, 0.0, 1.0], "z3"))

    # equilibrium densities integrate to 1, and the Green's potential they
    # come from is the Green's function of potential theory
    supports = [SupportSpec.make_circle(radius=2.0),
                SupportSpec.make_interval(-1.0, 1.0),
                SupportSpec.make_ellipse(1.25, 0.75),
                SupportSpec.make_ellipse(0.75, 1.25, rotation=0.3),
                SupportSpec.make_lemniscate(ComplexPolynomial([0, 0, 1.0])),
                SupportSpec.make_lemniscate(ComplexPolynomial([-4.0, 0, 1.0]))]
    worst_mass = worst_green = 0.0
    for support in supports:
        rule = build_rule(_constant_measure(support), 24)
        density = equilibrium_density(support)
        dens = np.array([density(z) for z in rule.nodes])
        worst_mass = max(worst_mass, abs(float(rule.weights @ dens) - 1.0))
        worst_green = max(worst_green, *_green_residuals(support, rule.nodes))
    checks.append(_check("density-normalization", worst_mass, 1e-8,
                         "equilibrium mass on all supported geometries"))
    checks.append(_check("green-potential", worst_green, 1e-8,
                         "Re G = 0 on the support, Re G - log|z| -> "
                         "-log cap, normal derivative of Re G vs 2 pi "
                         "density"))

    # sup-norm vs L2-norm growth of the extremal polynomials
    measure = measures["circle"]
    rule = build_rule(measure, 128)
    basis = orthonormalize(rule, 128)
    z0 = measure.z0
    ts = np.linspace(0.0, 2.0 * math.pi, 2048, endpoint=False)
    zs = np.exp(1j * ts)
    p_at_z0 = basis.evaluate(z0)
    p_at_zs = basis.evaluate(zs)
    ratios, ns = [], (8, 16, 32, 64, 128)
    for n in ns:
        kernel = np.conj(p_at_z0[:n + 1, None]) * p_at_zs[:n + 1]
        values = np.abs(np.sum(kernel, axis=0)) / np.sum(np.abs(p_at_z0[:n + 1]) ** 2)
        lam = 1.0 / float(np.sum(np.abs(p_at_z0[:n + 1]) ** 2))
        ratios.append(float(np.max(values)) / math.sqrt(lam))
    slope = np.polyfit(np.log(ns), np.log(ratios), 1)[0]
    checks.append(_check("nikolskii-exponent", slope, 1.1,
                         "fitted growth of sup norm over L2 norm"))

    # orthonormality residual of a float64 basis
    basis100 = orthonormalize(build_rule(circle_jump_measure(), 100), 100)
    checks.append(_check("orthonormality-53bit",
                         float(np.max(basis100.norm_residuals)), 1e-10,
                         "circle jump basis, n = 100"))
    return checks


_SUITES = {
    "circle-exact": _suite_circle_exact,
    "circle-jump": _suite_circle_jump,
    "interval-jump": _suite_interval_jump,
    "lemniscate-jump": _suite_lemniscate_jump,
    "ellipse-jump": _suite_ellipse_jump,
    "properties": _suite_properties,
}


def verify(suite, tol=None):
    """Run a named suite and return its report.

    ``tol`` overrides the headline tolerance of the suite (the max
    relative error for circle-exact, the extrapolated-limit tolerance for
    the jump suites); secondary checks keep their own tolerances.
    """
    if suite not in _SUITES:
        raise InputError(f"unknown suite {suite!r}; expected one of "
                         + ", ".join(SUITE_NAMES))
    if tol is not None and not tol > 0:
        raise InputError("tolerance must be positive")
    t0 = time.perf_counter()
    checks = _SUITES[suite](tol)
    report = SuiteReport(suite=suite, checks=checks,
                         wall_time=time.perf_counter() - t0)
    return report
