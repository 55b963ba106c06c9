"""Equilibrium measures through the complex Green's potential of each support.

For a support E the Green's function g of its exterior with pole at
infinity is g = Re G, where G is analytic off E: g vanishes on E and
g(z) - log|z| -> -log cap(E) as z -> infinity.  The outward normal
derivative of g on E is |G'|, and the equilibrium density with respect
to arc length is |G'|/(2 pi).  An interval has two sides, both facing the
exterior; its density merges them, so it is |G'|/pi and the mass over the
segment is 1.
"""

import math

import numpy as np

from .errors import DomainError, as_index
from .geometry import parametrize, project_to_support


def green_potential(support):
    """Complex Green's potential G of the support and its derivative G'.

    Returns numpy-vectorized callables (G, dG) with Re G the Green's
    function of the exterior with pole at infinity:

    * a support with a ``joukowski_frame`` (c, rho, a, b), an ellipse or an
      interval as the flat ellipse b = 0:
      G = log((zeta + root)/(a + b)) and G' = e^{-i rho}/root, with
      (zeta, root) the ``joukowski_root`` at z, zeta = e^{-i rho}(z - c).
      On [lo, hi] this is log(s + sqrt(s - 1) sqrt(s + 1)) with
      s = (2z - lo - hi)/(hi - lo);
    * a support |T(z)| = 1 with a ``level_polynomial`` T of degree N:
      G = (1/N) log T.  On a lemniscate T is its polynomial; on the circle
      |z - c| = r it is (z - c)/r, so G = log((z - c)/r) and G' = 1/(z - c).
    """
    frame = support.joukowski_frame
    if frame is not None:
        _, rho, a, b = frame

        def G(z):
            zeta, root = support.joukowski_root(z)
            return np.log((zeta + root) / (a + b))

        return G, lambda z: np.exp(-1j * rho) / support.joukowski_root(z)[1]
    T = support.level_polynomial  # a circle or a lemniscate
    dT, n = T.derivative(), T.degree
    return (lambda z: np.log(T(z)) / n,
            lambda z: dT(z) / (n * T(z)))


def _sides(support):
    """How many sides of the support face the exterior."""
    return 2.0 if support.kind == "interval" else 1.0


def equilibrium_density(support):
    """Equilibrium density z -> |G'(z)|/(2 pi) at points of the support,
    doubled on an interval, whose two sides are merged.

    Points that ``project_to_support`` does not place on the support, and
    the endpoints of an interval, where the density is infinite, raise
    DomainError.
    """
    _, dG = green_potential(support)
    sides = _sides(support)

    def density(z):
        _, x, point = project_to_support(support, z)
        if support.kind == "interval" and not (
                support.interval[0] < x < support.interval[1]):
            raise DomainError(f"x = {x} is not interior to {support.interval}")
        return sides * abs(complex(dG(point))) / (2.0 * math.pi)

    return density


def density_profile(support, samples):
    """Sample the density along the support for reporting.

    Returns arrays (t_param, points, density, normal_derivative) with
    ``samples`` points distributed over the arcs proportionally to their
    parameter spans, at least one per arc.  Closed arcs are sampled on
    [t_lo, t_hi) and interval supports at midpoint-offset interior points
    (the density diverges at the endpoints).  ``normal_derivative`` is
    |G'|, the outward normal derivative of the Green's function; on an
    interval it is the sum over the two sides, 2 |G'|.
    """
    samples = as_index(samples, "samples")
    _, dG = green_potential(support)
    arcs = parametrize(support)
    if samples < len(arcs):
        raise DomainError(f"samples must be at least the number of arcs "
                          f"({len(arcs)})")
    spans = np.array([arc.span for arc in arcs], dtype=float)
    counts = np.maximum(1, np.round(samples * spans / spans.sum()).astype(int))
    while counts.sum() > samples:
        counts[int(np.argmax(counts))] -= 1
    while counts.sum() < samples:
        counts[int(np.argmin(counts))] += 1

    offset = 0.5 if support.kind == "interval" else 0.0
    ts = [arc.t_lo + (np.arange(m) + offset) * arc.span / m
          for arc, m in zip(arcs, counts)]
    t_param = np.concatenate(ts)
    points = np.concatenate([np.asarray(arc.point(t), dtype=complex)
                             for arc, t in zip(arcs, ts)])
    normal = _sides(support) * np.abs(dG(points))
    return t_param, points, normal / (2.0 * math.pi), normal
