"""Composite Gauss-Legendre quadrature adapted to jump measures.

Panels never straddle a weight jump: the parameter domain is split at every
switch point of the weight, and each segment between those points gets equal
panels.  On a segment the integrand of a polynomial product is analytic, so
no refinement toward the segment ends is needed, and the rule is a function
of the measure alone, whatever its evaluation point z0.  Every segment's
panel parameters are laid out first; then each arc is evaluated once, at
all of its parameters (on a lemniscate, one batched Newton solve per arc
gives the nodes and their velocities), and the weight and the smooth factor
once, at all of the rule's.  A Newton point stops on its own residual, so
the nodes are those of one solve per panel, bit for bit.
Interval measures are integrated in the angle theta of x = c + h cos(theta),
with the centre c and half-length h of the support's ``joukowski_frame``:
their switch points map through acos onto [0, pi], and an arcsine factor
1/sqrt(1 - ((x - c)/h)^2) becomes a bounded integrand.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, NumericError, as_index
from .geometry import parametrize

PANEL_ORDER = 24
NODES_PER_DEGREE = 6   # the node budget per degree of exactness
_GL_X, _GL_W = np.polynomial.legendre.leggauss(PANEL_ORDER)


@dataclass
class QuadratureRule:
    """Discrete measure: complex nodes with positive weights.

    ``params`` holds the angle each node was placed at: its arc parameter on
    a closed arc, and theta with x = c + h cos(theta) on an interval, exact
    where the rounded x is not.
    """

    nodes: np.ndarray
    weights: np.ndarray
    params: np.ndarray
    max_exact_degree: int

    @property
    def node_count(self):
        return self.nodes.size

    @property
    def mass(self):
        return float(self.weights.sum())


def _segments(measure):
    """Jump-free segments (arc_index, lo, hi) of the integration parameter.

    Each arc splits at the weight's switch points.  On an interval the
    parameter is theta with x = c + h*cos(theta), so the x breaks map
    through acos onto [0, pi].
    """
    segs = []
    for i, arc in enumerate(parametrize(measure.support)):
        lo, hi = arc.t_lo, arc.t_hi
        breaks = measure.weight.breakpoints(lo, hi)
        if measure.support.kind == "interval":
            c, _, h, _ = measure.support.joukowski_frame
            breaks = [math.acos(min(1.0, max(-1.0, (x - c) / h)))
                      for x in breaks]
            lo, hi = 0.0, math.pi
        edges = sorted({lo, hi, *breaks})
        edges = [e for j, e in enumerate(edges)
                 if j == 0 or e - edges[j - 1] > 1e-13]
        segs.extend((i, a, b) for a, b in zip(edges[:-1], edges[1:]))
    return segs


def _interval_factors(measure, theta):
    """Node x values and weight factor d(mu)/d(theta) for interval supports."""
    c, _, h, _ = measure.support.joukowski_frame
    x = c + h * np.cos(theta)
    factor = measure.smooth(x) * measure.weight.value(x) * h
    if not measure.chebyshev:
        factor = factor * np.sin(theta)
    return x, factor


def build_rule(measure, max_degree):
    """Quadrature rule integrating polynomial products up to ``max_degree``.

    The node budget is NODES_PER_DEGREE * (max_degree + 1), spread over the
    jump-free segments in proportion to parameter length; each segment gets
    at least one panel, so the rule may carry a few panels more.  The rule
    does not depend on the measure's z0.  A weight that is not positive, or
    a mass that overflows, raises NumericError.
    """
    max_degree = as_index(max_degree, "max_degree")
    if max_degree < 0:
        raise InputError("max_degree must be nonnegative")

    segs = _segments(measure)
    total_len = sum(hi - lo for (_, lo, hi) in segs)
    total_panels = math.ceil(NODES_PER_DEGREE * (max_degree + 1) / PANEL_ORDER)

    # every segment's panel parameters and Gauss weights, gathered by arc
    # (the segments of an arc are consecutive), then one evaluation per arc
    # and one per rule
    arcs = parametrize(measure.support)
    params, gauss = [[] for _ in arcs], [[] for _ in arcs]
    for arc_i, lo, hi in segs:
        n_panels = max(1, math.ceil(total_panels * (hi - lo) / total_len))
        edges = np.linspace(lo, hi, n_panels + 1)
        mid_p = (0.5 * (edges[:-1] + edges[1:]))[:, None]
        half_p = (0.5 * (edges[1:] - edges[:-1]))[:, None]
        params[arc_i].append((mid_p + half_p * _GL_X).ravel())
        gauss[arc_i].append((half_p * _GL_W).ravel())
    params = [np.concatenate(p) for p in params]
    t = np.concatenate(params)
    if measure.support.kind == "interval":
        nodes, factor = _interval_factors(measure, t)
    else:
        z, v = zip(*(arc.point_velocity(p) for arc, p in zip(arcs, params)))
        nodes, speed = np.concatenate(z), np.abs(np.concatenate(v))
        factor = measure.smooth(t) * measure.weight.value(t) * speed
    weights = np.concatenate([g for arc in gauss for g in arc]) * factor
    with np.errstate(over="ignore"):  # an overflowing mass is refused
        finite = math.isfinite(weights.sum())
    if not (weights.min() > 0 and finite):
        raise NumericError("quadrature weights must be positive, with a "
                           "finite sum")
    return QuadratureRule(nodes=np.asarray(nodes, dtype=complex),
                          weights=weights, params=t,
                          max_exact_degree=max_degree)


def integrate(rule, f):
    """Integral of a node-evaluable function against the rule's measure."""
    vals = np.asarray(f(rule.nodes))
    if vals.shape != rule.nodes.shape:
        vals = np.broadcast_to(vals, rule.nodes.shape)
    finite = np.isfinite(vals)
    if not np.all(finite):
        bad = int(np.argmin(finite))
        raise NumericError(f"integrand is not finite at node {bad} "
                           f"(z = {rule.nodes[bad]})")
    return complex(np.dot(rule.weights, vals))
