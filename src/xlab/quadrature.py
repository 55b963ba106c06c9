"""Composite Gauss-Legendre quadrature adapted to jump measures.

Panels never straddle a weight jump: the parameter domain is split at every
switch point and at the evaluation point z0, then panels are geometrically
graded toward those points down to a floor length of min(1e-3, 4/degree^2).
Interval measures are integrated in the substituted variable x = cos(theta),
which turns an arcsine factor 1/sqrt(1 - x^2) into a bounded integrand.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, NumericError, ResolutionError
from .geometry import parametrize

PANEL_ORDER = 24


@dataclass
class GradingPolicy:
    """How panels shrink toward jumps and the evaluation point."""

    ratio: float = 0.5
    floor_coefficient: float = 4.0
    floor_cap: float = 1e-3
    min_panel: float = 1e-15

    def floor(self, max_degree):
        return min(self.floor_cap,
                   self.floor_coefficient / max(1, max_degree) ** 2)


@dataclass
class QuadratureRule:
    """Discrete measure: complex nodes with positive weights.

    ``params`` holds the arc parameter of each node (the x coordinate for
    interval supports) and ``arc_index`` which arc it came from.
    """

    nodes: np.ndarray
    weights: np.ndarray
    params: np.ndarray
    arc_index: np.ndarray
    max_exact_degree: int

    @property
    def node_count(self):
        return self.nodes.size

    @property
    def mass(self):
        return float(self.weights.sum())


_GL_CACHE = {}


def _gl_reference(order):
    if order not in _GL_CACHE:
        _GL_CACHE[order] = np.polynomial.legendre.leggauss(order)
    return _GL_CACHE[order]


def _segment_edges(lo, hi, at_lo, at_hi, n_uniform, policy, floor):
    """Panel edges on one smooth segment, graded toward attracting ends."""
    length = hi - lo
    pts = {lo, hi}
    start = 0.5 * length if (at_lo and at_hi) else length
    if at_lo:
        d = start * policy.ratio
        while d > floor:
            pts.add(lo + d)
            d *= policy.ratio
    if at_hi:
        d = start * policy.ratio
        while d > floor:
            pts.add(hi - d)
            d *= policy.ratio
    edges = sorted(pts)
    h_max = length / max(1, n_uniform)
    out = [lo]
    for a, b in zip(edges[:-1], edges[1:]):
        k = max(1, math.ceil((b - a) / h_max - 1e-12))
        out.extend(np.linspace(a, b, k + 1)[1:].tolist())
    return out


def _near(t, values, tol=1e-12):
    return any(abs(t - v) <= tol for v in values)


def _arc_segments(measure):
    """Smooth segments (arc_index, lo, hi, at_lo, at_hi) for non-intervals."""
    arcs = parametrize(measure.support)
    z0_arc, z0_t = None, None
    if measure.z0 is not None:
        z0_arc, z0_t, _ = measure.z0_location()
    segs = []
    for i, arc in enumerate(arcs):
        piece = measure.piece_for(i)
        breaks = list(piece.weight.breakpoints(arc.t_lo, arc.t_hi))
        attract = list(breaks)
        if z0_arc == i:
            span = arc.t_hi - arc.t_lo
            for cand in (z0_t, z0_t - span, z0_t + span) if arc.closed else (z0_t,):
                if arc.t_lo - 1e-12 <= cand <= arc.t_hi + 1e-12:
                    cand = min(max(cand, arc.t_lo), arc.t_hi)
                    attract.append(cand)
                    if arc.t_lo + 1e-12 < cand < arc.t_hi - 1e-12:
                        breaks.append(cand)
        edges = sorted({arc.t_lo, arc.t_hi, *breaks})
        edges = [e for j, e in enumerate(edges)
                 if j == 0 or e - edges[j - 1] > 1e-13]
        for a, b in zip(edges[:-1], edges[1:]):
            segs.append((i, a, b, _near(a, attract), _near(b, attract)))
    return segs


def _interval_segments(measure):
    """Segments in the substituted angle with x = mid + half*cos(theta)."""
    a, b = measure.support.interval
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    piece = measure.piece_for(0)
    x_breaks = list(piece.weight.breakpoints(a, b))
    if measure.z0 is not None:
        _, x0, _ = measure.z0_location()
        if a + 1e-12 < x0 < b - 1e-12:
            x_breaks.append(x0)
    thetas = sorted(math.acos(min(1.0, max(-1.0, (x - mid) / half)))
                    for x in x_breaks)
    attract = list(thetas)
    edges = sorted({0.0, math.pi, *thetas})
    edges = [e for j, e in enumerate(edges) if j == 0 or e - edges[j - 1] > 1e-13]
    segs = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        segs.append((0, lo, hi, _near(lo, attract), _near(hi, attract)))
    return segs


def _interval_factors(measure, theta):
    """Node x values and weight factor d(mu)/d(theta) for interval supports."""
    a, b = measure.support.interval
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    x = mid + half * np.cos(theta)
    piece = measure.piece_for(0)
    factor = piece.smooth(x) * piece.weight.value(x) * half
    if not measure.chebyshev:
        factor = factor * np.sin(theta)
    return x, factor


def build_rule(measure, max_degree, nodes_per_degree=6, grading=None):
    """Quadrature rule integrating polynomial products up to ``max_degree``.

    The node budget is nodes_per_degree * (max_degree + 1) spread over the
    arcs in proportion to parameter length, before grading refinement.
    """
    if max_degree < 0:
        raise InputError("max_degree must be nonnegative")
    if nodes_per_degree < 4:
        raise InputError("nodes_per_degree below 4 cannot resolve the degree")
    policy = grading or GradingPolicy()
    floor = policy.floor(max_degree)
    if floor < policy.min_panel:
        raise ResolutionError(
            f"panel floor {floor:.3e} is below the minimum panel length "
            f"{policy.min_panel:.3e}")

    interval = measure.support.kind == "interval"
    segs = _interval_segments(measure) if interval else _arc_segments(measure)
    lengths = [hi - lo for (_, lo, hi, _, _) in segs]
    total_len = sum(lengths)
    total_panels = math.ceil(nodes_per_degree * (max_degree + 1) / PANEL_ORDER)

    arcs = parametrize(measure.support)
    xr, wr = _gl_reference(PANEL_ORDER)
    nodes, weights, params, arc_idx = [], [], [], []
    for (arc_i, lo, hi, at_lo, at_hi), ell in zip(segs, lengths):
        n_uniform = max(1, math.ceil(total_panels * ell / total_len))
        edges = _segment_edges(lo, hi, at_lo, at_hi, n_uniform, policy, floor)
        for pa, pb in zip(edges[:-1], edges[1:]):
            if pb - pa < policy.min_panel:
                raise ResolutionError("panel collapsed below the minimum length")
            mid_p, half_p = 0.5 * (pa + pb), 0.5 * (pb - pa)
            t = mid_p + half_p * xr
            if interval:
                x, factor = _interval_factors(measure, t)
                nodes.append(x.astype(complex))
                params.append(x)
            else:
                arc = arcs[arc_i]
                piece = measure.piece_for(arc_i)
                z = np.asarray(arc.point(t), dtype=complex)
                factor = (piece.smooth(t) * piece.weight.value(t)
                          * np.abs(arc.velocity(t)))
                nodes.append(z)
                params.append(t)
            weights.append(half_p * wr * factor)
            arc_idx.append(np.full(t.size, arc_i, dtype=int))

    nodes = np.concatenate(nodes)
    weights = np.concatenate(weights)
    params = np.concatenate(params)
    arc_idx = np.concatenate(arc_idx)
    if not np.all(np.isfinite(weights)) or weights.min() <= 0:
        raise NumericError("quadrature weights must be positive and finite")

    return QuadratureRule(nodes=nodes, weights=weights, params=params,
                          arc_index=arc_idx, max_exact_degree=max_degree)


def integrate(rule, f):
    """Integral of a node-evaluable function against the rule's measure."""
    vals = np.asarray(f(rule.nodes))
    if vals.shape != rule.nodes.shape:
        vals = np.broadcast_to(vals, rule.nodes.shape)
    finite = np.isfinite(vals.real if np.iscomplexobj(vals) else vals)
    if np.iscomplexobj(vals):
        finite &= np.isfinite(vals.imag)
    if not np.all(finite):
        bad = int(np.argmin(finite))
        raise NumericError(f"integrand is not finite at node {bad} "
                           f"(z = {rule.nodes[bad]})")
    return complex(np.dot(rule.weights, vals))
