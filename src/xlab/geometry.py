"""Supports for measures: intervals, circles, ellipses, polynomial lemniscates.

Every support is a list of smooth arcs, each given by one callable that
returns points and velocities together.  Circles and ellipses share the
closed form c + e^{i rotation}(a cos t + i b sin t), with a = b = radius on
a circle.  For a polynomial lemniscate sigma = {z : |T(z)| = 1} =
T^{-1}(unit circle) the arcs come from carrying the fiber
T^{-1}(exp(i*theta)) once around the circle and are parametrized by the
continuous image angle theta, meaning T(z(theta)) = exp(i*theta).  In that
parametrization a jump of a circle weight at angle t0 pulls back to
parameter jumps at t0 mod 2*pi on every component, which is what the
measure layer relies on.

The fiber is carried by predictor-corrector continuation in at most
TURN_STEPS steps per turn.  A step is accepted only if no corrector moves a
root by more than a quarter of the smallest root distance at the step's
ends; otherwise it is halved.  Points on an arc are Newton solves started
from the traced grid, each stopped at its own residual, so a point does not
depend on which other points are solved with it.  ``parametrize`` traces a
level polynomial once per process and hands every support of it the same
tuple of frozen arcs.
"""

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, GeometryError, TracingError

# Tracing and root-finding tolerances.
CRITICAL_POINT_TOL = 1e-6   # ||T(c)| - 1| below this at a root c of T' is a node
IMAGE_NEWTON_TOL = 5e-14    # residual at which a point leaves the image Newton solve
IMAGE_NEWTON_MAXIT = 40     # Newton steps of the image solve, at most
OFF_CURVE_TOL = 1e-8        # times the capacity: farther from the support is off it
TURN_STEPS = 8              # continuation steps per turn of the image circle, at most
GRID_PER_TURN = 1024        # Newton start points per turn along each arc
TRACE_MEMO_SIZE = 32        # traced level polynomials kept, ~16 KB per degree each


class ComplexPolynomial:
    """Polynomial with complex coefficients stored lowest degree first."""

    def __init__(self, coeffs):
        if isinstance(coeffs, ComplexPolynomial):
            coeffs = coeffs.coeffs
        c = np.atleast_1d(np.asarray(coeffs, dtype=complex))
        if c.ndim != 1 or c.size == 0:
            raise GeometryError("coefficients must be a nonempty 1-d sequence")
        if c.size > 1 and c[-1] == 0:
            raise GeometryError("leading coefficient must be nonzero")
        if not np.all(np.isfinite(c)):
            raise GeometryError("coefficients must be finite")
        self.coeffs = c

    @property
    def degree(self):
        return self.coeffs.size - 1

    def __call__(self, z):
        # Horner's rule in numpy's polyval order, without its per-call set-up
        if isinstance(z, (tuple, list)):
            z = np.asarray(z)
        c = self.coeffs
        out = c[-1] + z * 0
        for a in c[-2::-1]:
            out = a + out * z
        return out

    def derivative(self):
        if self.degree == 0:
            return ComplexPolynomial([0.0])
        return ComplexPolynomial(np.polynomial.polynomial.polyder(self.coeffs))

    def __repr__(self):
        return f"ComplexPolynomial({list(self.coeffs)})"


@dataclass(frozen=True)
class ArcParametrization:
    """One smooth arc of a support, read-only: supports of one level
    polynomial share their traced arcs.

    ``point_velocity`` maps parameters (scalars or numpy arrays) to the
    arc's points and their derivatives in one evaluation; ``point`` and
    ``velocity`` read its halves.  For lemniscate components the parameter
    is the continuous angle of T(z) and ``winding`` counts how many times T
    covers the image circle along the component.
    """

    point_velocity: object
    t_lo: float
    t_hi: float
    winding: int = None

    @property
    def span(self):
        return self.t_hi - self.t_lo

    def point(self, t):
        return self.point_velocity(t)[0]

    def velocity(self, t):
        return self.point_velocity(t)[1]


def arc_length(arc):
    """Length of ``arc`` by 16-point Gauss rules on 64 equal parameter panels."""
    x, w = np.polynomial.legendre.leggauss(16)
    edges = np.linspace(arc.t_lo, arc.t_hi, 65)
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        t = 0.5 * (b - a) * x + 0.5 * (a + b)
        total += 0.5 * (b - a) * np.sum(w * np.abs(arc.velocity(t)))
    return total


@dataclass
class SupportSpec:
    """Geometric description of where a measure lives.

    ``kind`` is one of ``interval``, ``circle``, ``ellipse`` or
    ``lemniscate``; only the fields relevant to the kind are set.  A
    lemniscate is traced on the first ``parametrize`` of its level
    polynomial in the process, not on construction (see ``parametrize``).
    """

    kind: str
    interval: tuple = None
    center: complex = 0j
    radius: float = 1.0
    axes: tuple = None
    rotation: float = 0.0
    poly: ComplexPolynomial = None

    @classmethod
    def make_interval(cls, a, b):
        a, b = float(a), float(b)
        if not (math.isfinite(a) and math.isfinite(b)) or a >= b:
            raise GeometryError(f"interval endpoints must satisfy a < b, got [{a}, {b}]")
        return cls(kind="interval", interval=(a, b))

    @classmethod
    def make_circle(cls, radius=1.0, center=0j):
        radius, center = float(radius), complex(center)
        if not (0 < radius < math.inf and cmath.isfinite(center)):
            raise GeometryError("circle radius must be positive and finite, "
                                "and its center finite")
        return cls(kind="circle", radius=radius, center=center)

    @classmethod
    def make_ellipse(cls, a, b, center=0j, rotation=0.0):
        a, b, center, rotation = (float(a), float(b), complex(center),
                                  float(rotation))
        if not (0 < a < math.inf and 0 < b < math.inf):
            raise GeometryError("ellipse semi-axes must be positive and finite")
        if not (cmath.isfinite(center) and math.isfinite(rotation)):
            raise GeometryError("ellipse center and rotation must be finite")
        return cls(kind="ellipse", axes=(a, b), center=center,
                   rotation=rotation)

    @classmethod
    def make_lemniscate(cls, poly):
        poly = ComplexPolynomial(poly)
        if poly.degree < 1:
            raise GeometryError("lemniscate polynomial must have degree >= 1")
        return cls(kind="lemniscate", poly=poly)

    @property
    def level_polynomial(self):
        """T with the support = {|T| = 1}: ``poly`` on a lemniscate and
        (z - c)/r, of degree 1, on the circle |z - c| = r; None otherwise."""
        if self.kind == "circle":
            return ComplexPolynomial([-self.center / self.radius,
                                      1.0 / self.radius])
        return self.poly if self.kind == "lemniscate" else None

    @property
    def capacity(self):
        """The support's length scale: its logarithmic capacity in closed
        form (Ransford, Potential Theory in the Complex Plane, 1995, 5.2)."""
        if self.kind == "interval":
            return (self.interval[1] - self.interval[0]) / 4.0
        if self.kind == "ellipse":
            return sum(self.axes) / 2.0
        poly = self.level_polynomial  # |c_1|^(-1) = r on a circle
        return abs(poly.coeffs[-1]) ** (-1.0 / poly.degree)

    @property
    def joukowski_frame(self):
        """(c, rho, a, b), a >= b >= 0, with the support traced by
        c + e^{i rho} (a cos t + i b sin t): an ellipse, turned by pi/2 when
        tall, and the interval [lo, hi] as the flat ellipse
        ((lo + hi)/2, 0, (hi - lo)/2, 0); None otherwise."""
        if self.kind == "interval":
            lo, hi = self.interval
            return 0.5 * (lo + hi), 0.0, 0.5 * (hi - lo), 0.0
        if self.kind != "ellipse":
            return None
        (a, b), rho = self.axes, self.rotation
        if a < b:
            a, b, rho = b, a, rho + 0.5 * math.pi
        return self.center, rho, a, b

    def joukowski_root(self, z):
        """(zeta, sqrt(zeta - f) sqrt(zeta + f)) at z, with
        zeta = e^{-i rho}(z - c) and the foci +-f, f = sqrt(a^2 - b^2), of the
        ``joukowski_frame``.  The root is split because the principal
        sqrt(zeta^2 - f^2) takes the wrong sheet when Re zeta < 0."""
        c, rho, a, b = self.joukowski_frame
        f = math.sqrt((a - b) * (a + b))
        zeta = np.exp(-1j * rho) * (np.asarray(z, dtype=complex) - c)
        return zeta, np.sqrt(zeta - f) * np.sqrt(zeta + f)


def parametrize(support):
    """Smooth arcs covering the support, as a tuple of frozen arcs.

    Intervals, circles and ellipses get their closed-form arcs on each call.
    A lemniscate's arcs depend on its level polynomial T alone, so they come
    from a memo of the last TRACE_MEMO_SIZE polynomials traced in this
    process, keyed on T's coefficients with -0.0 read as 0.0: supports with
    equal coefficients share one trace.  A curve that ``trace_lemniscate``
    refuses is not kept, and is refused again on the next call.
    """
    kind = support.kind
    if kind == "interval":
        a, b = support.interval
        return (ArcParametrization(lambda t: (np.asarray(t, dtype=complex),
                                              np.ones(np.shape(t), complex)),
                                   t_lo=a, t_hi=b),)
    if kind in ("circle", "ellipse"):
        a, b = support.axes or (support.radius, support.radius)
        c, rot = support.center, cmath.exp(1j * support.rotation)

        def conic(t):
            t = np.asarray(t, dtype=float)
            cos, sin = np.cos(t), np.sin(t)
            return (c + rot * (a * cos + 1j * b * sin),
                    rot * (-a * sin + 1j * b * cos))

        return (ArcParametrization(conic, t_lo=0.0, t_hi=2.0 * math.pi),)
    if kind == "lemniscate":
        return _traced_arcs((support.poly.coeffs + 0.0).tobytes())
    raise GeometryError(f"unknown support kind {kind!r}")


@functools.lru_cache(maxsize=TRACE_MEMO_SIZE)
def _traced_arcs(coeff_bytes):
    """The arcs of |T| = 1 for T's complex128 coefficients as bytes.  A miss
    calls ``trace_lemniscate`` by its module-level name, so a wrapper bound
    to that name sees every real trace."""
    return trace_lemniscate(np.frombuffer(coeff_bytes, dtype=complex))


def preimages(poly, w):
    """All solutions of T(z) = w, as a deterministically ordered array.

    Roots come from the companion matrix of T - w and are polished by
    ``_image_newton`` on T/s = w/s, s = max(1, |w|), so that its residual
    test is relative to |w|.
    """
    poly = ComplexPolynomial(poly)
    if poly.degree < 1:
        raise GeometryError("preimages need a polynomial of degree >= 1")
    c = poly.coeffs.copy()
    c[0] -= w
    s = max(1.0, abs(w))
    scaled = ComplexPolynomial(poly.coeffs / s)
    z = _image_newton(scaled, scaled.derivative(),
                      np.polynomial.polynomial.polyroots(c), w / s)
    order = np.lexsort((np.round(z.imag, 9), np.round(z.real, 9)))
    return z[order]


def _image_newton(poly, dpoly, z, w_target):
    """Full Newton solve of T(z) = w_target, vectorized over points.

    Each point stops once its own residual is below IMAGE_NEWTON_TOL, and one closing
    Newton step on every point then takes it to rounding level, so a point
    comes out the same whichever other points share its solve.  No step is
    divided by a T' of 0: a point that has stopped there, a multiple root,
    stays where it is.
    """
    z = np.asarray(z, dtype=complex)
    w_target = np.asarray(w_target, dtype=complex)
    for _ in range(IMAGE_NEWTON_MAXIT):
        f = poly(z) - w_target
        live = np.abs(f) >= IMAGE_NEWTON_TOL
        if not live.any():
            break
        g = dpoly(z)
        if np.min(np.abs(g), where=live, initial=np.inf) < 1e-300:
            raise TracingError("Newton hit a critical point of T")
        z = z - np.divide(f, g, out=np.zeros_like(z), where=live)
    else:
        f = poly(z) - w_target
        res = np.max(np.abs(f))
        if not res <= 100 * IMAGE_NEWTON_TOL:
            raise TracingError(f"image Newton residual {res:.3e} did not converge")
    g = dpoly(z)
    return z - np.divide(f, g, out=np.zeros_like(z), where=g != 0)


def _component_arc(poly, dpoly, grid_z, winding):
    """Arc of the image angle from 0, by Newton solves from its grid."""
    samples = grid_z.size
    dt = 2.0 * math.pi * winding / samples

    def point_velocity(theta):
        theta = np.asarray(theta, dtype=float)
        th = np.atleast_1d(theta)
        idx = np.mod(np.round(th / dt).astype(int), samples)
        z = _image_newton(poly, dpoly, grid_z[idx], np.exp(1j * th))
        z = z.reshape(theta.shape)
        return z, 1j * np.exp(1j * theta) / dpoly(z)

    return ArcParametrization(point_velocity, t_lo=0.0,
                              t_hi=2.0 * math.pi * winding, winding=winding)


def _fiber_gap(z):
    """Smallest distance between two points of a fiber (inf for one point)."""
    d = np.abs(z[:, None] - z[None, :])
    np.fill_diagonal(d, np.inf)
    return d.min()


def _carry_fiber(poly, dpoly, fiber):
    """Carry the fiber T^{-1}(exp(i*theta)) from theta = 0 once around.

    Each step, at most 1/TURN_STEPS of a turn, moves all roots together with
    the tangent predictor z + h*i*exp(i*theta)/T'(z) and corrects them, and
    the grid points the step passes, in one batched Newton solve.  The step
    is halved, so that no root changes branch, while any corrector moves a
    root by more than a quarter of the smallest root distance in the fibers
    at either end of the step.  After an accepted step the step length
    doubles again, up to its cap.
    Returns the tracks (row i follows root i through
    theta = 2*pi*k/GRID_PER_TURN, k < GRID_PER_TURN) and the fiber reached
    at theta = 2*pi.
    """
    # the position s is measured in grid steps; halving keeps it dyadic, exact
    turn = float(GRID_PER_TURN)
    tracks = np.empty((fiber.size, GRID_PER_TURN + 1), dtype=complex)
    tracks[:, 0] = fiber
    z, s, gap = fiber, 0.0, _fiber_gap(fiber)
    step_max = step = turn / TURN_STEPS
    while s < turn:
        s_new = min(s + step, turn)
        ks = np.arange(math.floor(s) + 1, math.floor(s_new) + 1)
        targets = np.append(ks, s_new)
        theta = 2.0 * math.pi * s / turn
        tangent = 1j * cmath.exp(1j * theta) / dpoly(z)
        pred = z[:, None] + (2.0 * math.pi / turn) * (targets - s) * tangent[:, None]
        try:
            sol = _image_newton(poly, dpoly, pred,
                                np.exp(2j * math.pi * targets / turn))
            gap_new = _fiber_gap(sol[:, -1])
            ok = np.max(np.abs(sol - pred)) <= 0.25 * min(gap, gap_new)
        except TracingError:
            ok = False
        if not ok:
            step *= 0.5
            if step < 1e-9:
                raise TracingError("fiber continuation step underflow")
            continue
        tracks[:, ks] = sol[:, :-1]
        z, s, gap = sol[:, -1], s_new, gap_new
        step = min(2.0 * step, step_max)
    return tracks[:, :GRID_PER_TURN], z


def trace_lemniscate(poly):
    """Trace every component of |T(z)| = 1 for a polynomial T.

    The N = deg T preimages of 1 are carried together once around the image
    circle.  They return permuted; each cycle of that permutation is one
    component, its length is the winding, and the cycle's tracks joined in
    order form the component's image-angle grid.  Components are ordered by
    their smallest root index.  A curve through a critical point of T is
    rejected with GeometryError.  Every call traces; ``parametrize`` keeps
    the results.
    """
    poly = ComplexPolynomial(poly)
    if poly.degree < 1:
        raise GeometryError("lemniscate polynomial must have degree >= 1")
    dpoly = poly.derivative()
    critical = np.polynomial.polynomial.polyroots(dpoly.coeffs)
    if np.any(np.abs(np.abs(poly(critical)) - 1.0) < CRITICAL_POINT_TOL):
        raise GeometryError("lemniscate has a critical point on the curve; "
                            "the trace is not well defined there")

    fiber = preimages(poly, 1.0)
    tracks, end = _carry_fiber(poly, dpoly, fiber)
    dist = np.abs(end[:, None] - fiber[None, :])
    perm = np.argmin(dist, axis=1)
    if (np.unique(perm).size != perm.size
            or dist.min(axis=1).max() > 0.25 * _fiber_gap(fiber)):
        raise TracingError("carried fiber does not return onto the start fiber")

    arcs = []
    seen = np.zeros(perm.size, dtype=bool)
    for i in range(perm.size):
        if seen[i]:
            continue
        cycle = [i]
        while perm[cycle[-1]] != i:
            cycle.append(int(perm[cycle[-1]]))
        seen[cycle] = True
        arcs.append(_component_arc(poly, dpoly, tracks[cycle].ravel(),
                                   len(cycle)))
    return tuple(arcs)


def project_to_support(support, z):
    """Locate z on the support: returns (arc index, parameter, nearest point).

    An interval clamps Re z, a conic reads the angle of z in its frame, a
    lemniscate takes the nearest arc point over the angle of T(z).  A z not
    finite or farther than OFF_CURVE_TOL * ``support.capacity`` from that
    point raises DomainError."""
    z = complex(z)
    if not cmath.isfinite(z):
        raise DomainError(f"{z} is not a finite point")
    arcs = parametrize(support)
    if support.kind == "interval":
        t = min(max(z.real, support.interval[0]), support.interval[1])
        i, point = 0, complex(t)
    elif support.kind in ("circle", "ellipse"):
        a, b = support.axes or (support.radius, support.radius)
        zeta = (z - support.center) * cmath.exp(-1j * support.rotation)
        t = math.atan2(zeta.imag / b, zeta.real / a) % (2.0 * math.pi)
        i, point = 0, complex(arcs[0].point(t))
    else:  # lemniscate; parametrize has already rejected unknown kinds
        w = complex(support.poly(z))
        # T(z) overflows only far off the curve, where any angle is refused
        phi = math.atan2(w.imag, w.real) if cmath.isfinite(w) else 0.0
        for k, arc in enumerate(arcs):
            cand = phi % (2 * math.pi) + 2 * math.pi * np.arange(arc.winding)
            pts = arc.point(cand)
            j = int(np.argmin(np.abs(pts - z)))
            if k == 0 or abs(pts[j] - z) < abs(point - z):
                i, t, point = k, float(cand[j]), complex(pts[j])
    d = abs(point - z)
    if not d <= OFF_CURVE_TOL * support.capacity:
        raise DomainError(f"{z} is not on the {support.kind} (distance {d:.2e})")
    return i, t, point
