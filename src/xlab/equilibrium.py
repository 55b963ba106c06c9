"""Equilibrium-measure densities and Green's-function normal derivatives.

Each supported geometry has a closed-form density domega/ds with respect
to arc length: constant on circles, the arcsine law on intervals (both
traversal sides merged, so the mass over the segment is 1), |T'|/(2 pi N)
on the lemniscate |T(z)| = 1, and |Phi'|/(2 pi) through the exterior
conformal map for ellipses.  The outward normal derivative of the Green's
function with pole at infinity is 2 pi times the density.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import CapabilityError, DomainError, GeometryError
from .geometry import parametrize, project_to_support

OFF_CURVE_TOL = 1e-8  # points farther than this from the support are rejected


@dataclass
class EquilibriumDensity:
    """Density of the equilibrium measure with respect to arc length.

    ``evaluator`` maps a point on (or within OFF_CURVE_TOL of) the support
    to the positive density value; ``provenance`` records which closed form
    produced it.
    """

    support: object
    evaluator: object
    provenance: str

    def __call__(self, z):
        return self.evaluator(z)


@dataclass
class ExteriorMapSpec:
    """Conformal map from the curve exterior onto the unit-disk exterior.

    ``to_disk`` sends a curve point z to w = Phi(z) with |w| = 1;
    ``dz_dw`` is the derivative of the inverse map at w, so the density of
    the equilibrium measure is 1 / (2 pi |dz_dw|).
    """

    name: str
    support: object
    to_disk: object
    dz_dw: object


def density_circle(radius=1.0, center=0j):
    """Constant density 1/(2 pi r) on a circle of radius r."""
    from .geometry import SupportSpec

    if not radius > 0:
        raise DomainError("circle radius must be positive")
    support = SupportSpec.make_circle(radius=radius, center=center)
    value = 1.0 / (2.0 * math.pi * radius)

    def _eval(z, support=support, value=value):
        project_to_support(support, z, tol=OFF_CURVE_TOL)
        return value

    return EquilibriumDensity(support, _eval, "closed-form-circle")


def density_interval(a, b, x):
    """Arcsine density at an interior point of [a, b].

    With s = (2x - a - b)/(b - a) the value is 2/(pi (b-a) sqrt(1 - s^2));
    the two traversal sides of the segment are merged so the total mass
    over [a, b] is 1.
    """
    a, b, x = float(a), float(b), float(np.real(x))
    if not a < b:
        raise DomainError("interval endpoints must satisfy a < b")
    if not a < x < b:
        raise DomainError(f"x = {x} is not interior to [{a}, {b}]")
    s = (2.0 * x - a - b) / (b - a)
    return 2.0 / (math.pi * (b - a) * math.sqrt(1.0 - s * s))


def exterior_map_circle(radius=1.0, center=0j):
    """Phi(z) = (z - c)/r; the inverse has constant derivative r."""
    from .geometry import SupportSpec

    support = SupportSpec.make_circle(radius=radius, center=center)
    r, c = float(radius), complex(center)
    return ExteriorMapSpec(
        name="circle",
        support=support,
        to_disk=lambda z: (complex(z) - c) / r,
        dz_dw=lambda w: complex(r),
    )


def exterior_map_ellipse(a, b, center=0j, rotation=0.0):
    """Inverse Joukowski map for the ellipse with semi-axes a >= b > 0.

    The curve is z = c + e^{i rho} ((a+b) w + (a-b)/w)/2 on |w| = 1, so
    Phi solves the quadratic (a+b) w^2 - 2 zeta w + (a-b) = 0 with
    zeta = e^{-i rho}(z - c), picking the root on the unit circle.
    """
    from .geometry import SupportSpec

    a, b = float(a), float(b)
    if not (a >= b > 0):
        raise DomainError("ellipse semi-axes must satisfy a >= b > 0")
    support = SupportSpec.make_ellipse(a, b, center=center, rotation=rotation)
    c, rot = complex(center), float(rotation)

    def _to_disk(z, a=a, b=b, c=c, rot=rot):
        zeta = (complex(z) - c) * cmath.exp(-1j * rot)
        disc = cmath.sqrt(zeta * zeta - (a * a - b * b))
        w1 = (zeta + disc) / (a + b)
        w2 = (zeta - disc) / (a + b)
        w = w1 if abs(abs(w1) - 1.0) <= abs(abs(w2) - 1.0) else w2
        if abs(abs(w) - 1.0) > 1e-6:
            raise DomainError(f"{z} does not map to the unit circle")
        return w / abs(w)

    def _dz_dw(w, a=a, b=b, rot=rot):
        w = complex(w)
        return cmath.exp(1j * rot) * ((a + b) - (a - b) / (w * w)) / 2.0

    return ExteriorMapSpec(name="ellipse", support=support,
                           to_disk=_to_disk, dz_dw=_dz_dw)


def density_exterior_map(emap, z):
    """Density |Phi'(z)| / (2 pi) = 1 / (2 pi |dz/dw|) at a curve point."""
    _, _, point = project_to_support(emap.support, z, tol=OFF_CURVE_TOL)
    w = emap.to_disk(point)
    dzdw = complex(emap.dz_dw(w))
    if abs(dzdw) < 1e-12:
        raise GeometryError(f"exterior map is not invertible at w = {w}")
    return 1.0 / (2.0 * math.pi * abs(dzdw))


def green_normal_derivative(density_value):
    """Outward normal derivative of the Green's function: 2 pi * density."""
    density_value = float(density_value)
    if not density_value > 0:
        raise DomainError("density value must be positive")
    return 2.0 * math.pi * density_value


def equilibrium_density(support):
    """Closed-form equilibrium density for a supported geometry."""
    if support.kind == "circle":
        base = density_circle(support.radius, support.center)
        return EquilibriumDensity(support, base.evaluator, base.provenance)
    if support.kind == "interval":
        a, b = support.interval

        def _eval(z, support=support, a=a, b=b):
            _, x, _ = project_to_support(support, z, tol=OFF_CURVE_TOL)
            return density_interval(a, b, x)

        return EquilibriumDensity(support, _eval, "closed-form-interval")
    if support.kind == "lemniscate":
        poly = support.poly
        dpoly = poly.derivative()
        n = poly.degree

        def _eval(z, support=support, dpoly=dpoly, n=n):
            _, _, point = project_to_support(support, z, tol=OFF_CURVE_TOL)
            return abs(complex(dpoly(point))) / (2.0 * math.pi * n)

        return EquilibriumDensity(support, _eval, "lemniscate")
    if support.kind == "ellipse":
        a, b = support.axes
        emap = exterior_map_ellipse(a, b, center=support.center,
                                    rotation=support.rotation)

        def _eval(z, emap=emap):
            return density_exterior_map(emap, z)

        return EquilibriumDensity(support, _eval, "exterior-map")
    raise CapabilityError(
        f"no closed-form equilibrium density for support kind {support.kind!r}")


def density_profile(support, samples):
    """Sample the density along the support for reporting.

    Returns arrays (t_param, points, density, normal_derivative) with
    ``samples`` points distributed over the arcs proportionally to their
    parameter spans.  Closed arcs are sampled on [t_lo, t_hi) and interval
    supports at midpoint-offset interior points (the arcsine density
    diverges at the endpoints).
    """
    samples = int(samples)
    if samples < 1:
        raise DomainError("samples must be at least 1")
    dens = equilibrium_density(support)
    arcs = parametrize(support)
    spans = np.array([arc.span for arc in arcs], dtype=float)
    counts = np.maximum(1, np.round(samples * spans / spans.sum()).astype(int))
    while counts.sum() > samples and np.any(counts > 1):
        counts[int(np.argmax(counts))] -= 1
    while counts.sum() < samples:
        counts[int(np.argmin(counts))] += 1

    ts, pts = [], []
    for arc, m in zip(arcs, counts):
        if arc.closed or support.kind == "interval":
            t = arc.t_lo + (np.arange(m) + (0.5 if support.kind == "interval"
                                            else 0.0)) * arc.span / m
        else:
            t = np.linspace(arc.t_lo, arc.t_hi, m)
        ts.append(t)
        pts.append(np.asarray(arc.point(t), dtype=complex))
    t_param = np.concatenate(ts)
    points = np.concatenate(pts)
    density = np.array([dens(z) for z in points], dtype=float)
    normal = 2.0 * math.pi * density
    return t_param, points, density, normal
