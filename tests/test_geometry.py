import cmath
import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from xlab import geometry
from xlab.errors import DomainError, GeometryError
from xlab.geometry import (ComplexPolynomial, SupportSpec, arc_length,
                           parametrize, preimages, project_to_support,
                           trace_lemniscate)


def test_polynomial_basics():
    p = ComplexPolynomial([-4.0, 0.0, 1.0])
    assert p.degree == 2
    assert p(3.0) == 5.0
    assert np.allclose(p(np.array([0.0, 1j])), [-4.0, -5.0])
    d = p.derivative()
    assert d.degree == 1
    assert d(1.5) == 3.0
    # Horner's rule in polyval's order gives polyval's values bit for bit
    c = [0.3 - 1.0j, 2.0, -1.5j, 0.5]
    z = np.array([[0.3 - 1.2j, 2.0], [1.0j, -0.7 + 0.1j]])
    assert np.array_equal(ComplexPolynomial(c)(z), np.polynomial.polynomial.polyval(z, c))
    assert np.array_equal(p([3.0, 1j]), [5.0, -5.0])


def test_preimages_sorted_and_polished():
    roots = preimages(ComplexPolynomial([-4.0, 0.0, 1.0]), 1.0 + 0j)
    assert np.allclose(roots, [-math.sqrt(5), math.sqrt(5)])
    cube = preimages(ComplexPolynomial([0, 0, 0, 1.0]), 1.0 + 0j)
    s3 = math.sqrt(3) / 2
    assert np.allclose(cube, [-0.5 - s3 * 1j, -0.5 + s3 * 1j, 1.0])
    # polished to full precision
    assert max(abs(c ** 3 - 1.0) for c in cube) < 1e-12
    # far from the unit circle the polish is relative to |w|
    far = preimages(ComplexPolynomial([-4.0, 0.0, 1.0]), 1e6)
    assert np.max(np.abs(far ** 2 - 4.0 - 1e6)) <= 1e-15 * 1e6


def test_preimages_multiple_root_without_warning():
    # T' vanishes at a multiple root, where a Newton step of the polish would
    # divide 0 by 0; the root is returned as it is, also while the simple
    # roots beside it are still being polished
    simple = [2.1, -0.4 + 1.0j, 0.9j]
    mixed = np.polynomial.polynomial.polyfromroots([0.0, 0.0, 0.0] + simple)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cube = preimages(ComplexPolynomial([0.0, 0.0, 0.0, 1.0]), 0.0)
        square = preimages(ComplexPolynomial([-2.0, 0.0, 1.0]), -2.0)
        roots = preimages(ComplexPolynomial(mixed), 0.0)
    assert np.array_equal(cube, np.zeros(3)) and np.array_equal(square, np.zeros(2))
    assert np.count_nonzero(roots == 0) == 3
    assert np.allclose(sorted(roots[roots != 0], key=abs), sorted(simple, key=abs),
                       rtol=0, atol=1e-14)


def test_trace_identity_polynomial_is_circle():
    arcs = parametrize(SupportSpec.make_lemniscate(ComplexPolynomial([0, 1.0])))
    assert len(arcs) == 1
    arc = arcs[0]
    assert arc.winding == 1
    assert abs(arc_length(arc) - 2.0 * math.pi) < 1e-9
    ts = np.linspace(arc.t_lo, arc.t_hi, 37)
    assert np.max(np.abs(np.abs(arc.point(ts)) - 1.0)) < 1e-10


def test_trace_z2_covers_circle_twice():
    arcs = parametrize(SupportSpec.make_lemniscate(ComplexPolynomial([0, 0, 1.0])))
    assert len(arcs) == 1
    arc = arcs[0]
    assert arc.winding == 2
    assert abs(arc.span - 4.0 * math.pi) < 1e-9
    assert abs(arc_length(arc) - 2.0 * math.pi) < 1e-9
    # the trace starts at the first preimage of w = 1 in sorted order
    assert abs(complex(arc.point(arc.t_lo)) - (-1.0)) < 1e-9
    # parameter is the continuous image angle
    poly = ComplexPolynomial([0, 0, 1.0])
    for t in (0.3, 2.0, 7.0, 11.5):
        w = complex(poly(complex(arc.point(t))))
        assert abs(w - cmath.exp(1j * t)) < 1e-8


def test_trace_two_component_lemniscate():
    poly = ComplexPolynomial([-4.0, 0.0, 1.0])
    arcs = trace_lemniscate(poly)
    assert len(arcs) == 2
    assert sorted(arc.winding for arc in arcs) == [1, 1]
    lengths = sorted(arc_length(arc) for arc in arcs)
    # the two ovals around +-2 are congruent
    assert abs(lengths[0] - lengths[1]) < 1e-8
    assert abs(lengths[0] - 1.577088) < 1e-4
    for arc in arcs:
        ts = np.linspace(arc.t_lo, arc.t_hi, 50)
        assert np.max(np.abs(np.abs(poly(arc.point(ts))) - 1.0)) < 1e-8


@pytest.mark.parametrize("support", [
    SupportSpec.make_interval(-0.5, 2.0),
    SupportSpec.make_circle(radius=1.7, center=0.3 - 0.2j),
    SupportSpec.make_ellipse(0.7, 1.3, rotation=0.4),
    SupportSpec.make_lemniscate(ComplexPolynomial([-4.0, 0.0, 1.0]))],
    ids=["interval", "off-centre-circle", "rotated-tall-ellipse", "lemniscate"])
def test_velocity_matches_finite_difference(support):
    # one callable gives both halves: point and velocity read it bit for bit
    arc = parametrize(support)[0]
    h = 1e-6
    ts = arc.t_lo + np.array([0.1, 0.4, 0.7]) * arc.span
    for t in (*ts, ts):
        z, v = arc.point_velocity(t)
        assert np.array_equal(z, arc.point(t))
        assert np.array_equal(v, arc.velocity(t))
        assert np.shape(z) == np.shape(v) == np.shape(t)
    for t in ts:
        fd = (complex(arc.point(t + h)) - complex(arc.point(t - h))) / (2 * h)
        assert abs(fd - complex(arc.velocity(t))) < 1e-6


def test_circle_is_the_round_ellipse():
    # circles and ellipses share one closed form, so a circle of radius r
    # and the ellipse with both semi-axes r agree bit for bit
    r, c = 1.7, 0.3 - 0.2j
    circle = SupportSpec.make_circle(radius=r, center=c)
    ellipse = SupportSpec.make_ellipse(r, r, center=c)
    ts = np.linspace(0.0, 2.0 * math.pi, 61)
    (arc,), (round_arc,) = parametrize(circle), parametrize(ellipse)
    for got, want in zip(arc.point_velocity(ts), round_arc.point_velocity(ts)):
        assert np.array_equal(got, want)
    for z in arc.point(ts[:-1]) + 1e-10 * np.exp(0.3j * np.arange(60)):
        assert project_to_support(circle, z) == project_to_support(ellipse, z)
    for support in (circle, ellipse):
        with pytest.raises(DomainError, match=support.kind):
            project_to_support(support, c + 1.01 * r)


def _assert_image_angle_arcs(poly, arcs):
    for arc in arcs:
        ts = np.linspace(arc.t_lo, arc.t_hi, 97)
        w = poly(arc.point(ts))
        assert np.max(np.abs(np.abs(w) - 1.0)) < 1e-8
        assert np.max(np.abs(w - np.exp(1j * ts))) < 1e-8
        assert abs(complex(arc.point(arc.t_hi)) - complex(arc.point(arc.t_lo))) < 1e-12


def test_trace_components_of_different_winding():
    # T(z) = z^2 (z - 2) / 0.5: a double loop around 0 and a single one around 2
    poly = ComplexPolynomial([0.0, 0.0, -4.0, 2.0])
    arcs = trace_lemniscate(poly)
    assert [arc.winding for arc in arcs] == [2, 1]
    assert sum(arc.winding for arc in arcs) == poly.degree
    assert arcs[0].t_lo == 0.0
    _assert_image_angle_arcs(poly, arcs)


@pytest.mark.parametrize("coeffs, windings", [
    ([-1e-4, -2.0, 1.0], [1, 1]),
    ([1e-4, -2.0, 1.0], [2]),
    ([2.0 + (1.0 + 1e-4) * cmath.exp(1.0j), -3.0, 0.0, 1.0], [1, 1, 1]),
    ([2.0 + (1.0 - 1e-4) * cmath.exp(2.5j), -3.0, 0.0, 1.0], [1, 2]),
])
def test_trace_near_figure_eight_node(coeffs, windings):
    # a critical value of T lies 1e-4 off the unit circle, so two fiber roots
    # pass within about 0.02 of each other and must not swap branches; the
    # cubics lack the z -> 2 - z symmetry that makes a swap in the quadratics
    # harmless
    poly = ComplexPolynomial(coeffs)
    arcs = trace_lemniscate(poly)
    assert [arc.winding for arc in arcs] == windings
    _assert_image_angle_arcs(poly, arcs)


@pytest.mark.parametrize("coeffs", [[0.0, 0.0, 1.0], [-2.0, 0.0, 1.0],
                                    [0.0, -0.5, 0.0, 1.0]])
def test_trace_takes_one_solve_per_step(coeffs, monkeypatch):
    # on curves far from a critical value no continuation step is halved;
    # the one solve more polishes the start fiber, the preimages of 1.
    # Each call traces, also with the curve already in parametrize's memo
    parametrize(SupportSpec.make_lemniscate(coeffs))
    calls = []
    solve = geometry._image_newton

    def counted(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(geometry, "_image_newton", counted)
    trace_lemniscate(ComplexPolynomial(coeffs))
    trace_lemniscate(ComplexPolynomial(coeffs))
    assert len(calls) == 2 * (geometry.TURN_STEPS + 1)


@pytest.fixture
def cold_memo():
    # start without traced curves, and keep none a patched tracer returned
    geometry._traced_arcs.cache_clear()
    yield
    geometry._traced_arcs.cache_clear()


def _count_traces(monkeypatch, trace=trace_lemniscate):
    """Patch the module-level tracer with one that records each call."""
    calls = []

    def counted(poly):
        calls.append(poly)
        return trace(poly)

    monkeypatch.setattr(geometry, "trace_lemniscate", counted)
    return calls


def test_parametrize_traces_each_level_polynomial_once(cold_memo, monkeypatch):
    calls = _count_traces(monkeypatch)
    arcs = parametrize(SupportSpec.make_lemniscate([0.0, 0.0, 1.0]))
    # equal coefficients, signed zeros included, share the traced arcs
    same = SupportSpec.make_lemniscate([-0.0, complex(0.0, -0.0), 1.0])
    assert parametrize(same) is arcs and len(calls) == 1
    assert isinstance(arcs, tuple)
    with pytest.raises(dataclasses.FrozenInstanceError):
        arcs[0].t_hi = 1.0
    other = parametrize(SupportSpec.make_lemniscate([-4.0, 0.0, 1.0]))
    assert len(calls) == 2 and [arc.winding for arc in other] == [1, 1]


def test_refused_curve_is_traced_on_every_call(cold_memo, monkeypatch):
    calls = _count_traces(monkeypatch)
    singular = SupportSpec.make_lemniscate([0.0, -2.0, 1.0])
    for _ in range(2):
        with pytest.raises(GeometryError):
            parametrize(singular)
    assert len(calls) == 2


def test_memo_keeps_the_latest_polynomials(cold_memo, monkeypatch):
    calls = _count_traces(monkeypatch, trace=lambda poly: ())
    supports = [SupportSpec.make_lemniscate([k, 0.0, 1.0])
                for k in range(geometry.TRACE_MEMO_SIZE + 1)]
    for support in supports:
        parametrize(support)
    parametrize(supports[-1])
    assert len(calls) == geometry.TRACE_MEMO_SIZE + 1
    parametrize(supports[0])
    assert len(calls) == geometry.TRACE_MEMO_SIZE + 2
    assert np.array_equal(calls[-1], supports[0].poly.coeffs)


@pytest.mark.parametrize("coeffs", [[0.0, 0.0, 1.0], [-2.0, 0.0, 1.0],
                                    [0.3, -1.5, 0.0, 1.0]])
def test_arc_point_independent_of_batch(coeffs):
    # every point stops at its own residual, so batching changes no bit
    for arc in trace_lemniscate(ComplexPolynomial(coeffs)):
        ts = arc.t_lo + (np.arange(257) + 0.37) * arc.span / 257
        batched = arc.point(ts)
        alone = np.array([complex(arc.point(t)) for t in ts])
        assert np.array_equal(batched, alone)


@settings(max_examples=20, derandomize=True, deadline=None)
@given(roots=st.lists(st.complex_numbers(max_magnitude=1.5), min_size=2, max_size=5),
       pick=st.integers(0, 3), gap=st.floats(-3.0, -1.0), inside=st.booleans())
def test_trace_matches_short_step_trace(roots, pick, gap, inside):
    # the long-step trace follows the same branches as one capped at 64
    # steps a turn; T is scaled so that one critical value lies 10**gap off
    # the unit circle, and every critical value must lie 1e-3 off it
    npp = np.polynomial.polynomial
    monic = npp.polyfromroots(roots)
    critical = npp.polyroots(npp.polyder(monic))
    value = abs(npp.polyval(critical[pick % critical.size], monic))
    assume(value > 1e-3)
    poly = ComplexPolynomial(monic * (1.0 + (-1.0 if inside else 1.0) * 10.0 ** gap) / value)
    assume(np.min(np.abs(np.abs(poly(critical)) - 1.0)) >= 1e-3)
    arcs = trace_lemniscate(poly)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(geometry, "TURN_STEPS", 64)
        short = trace_lemniscate(poly)
    assert [arc.winding for arc in arcs] == [arc.winding for arc in short]
    for arc, ref in zip(arcs, short):
        ts = np.linspace(arc.t_lo, arc.t_hi, 97)
        assert np.max(np.abs(arc.point(ts) - ref.point(ts))) < 1e-12


@pytest.mark.parametrize("value", [(1.0 + 1e-4) * cmath.exp(2.0j),
                                   (1.0 - 3e-3) * cmath.exp(2.0j),
                                   (1.0 + 3e-3) * cmath.exp(-1.0j),
                                   -(1.0 - 1e-4)])
def test_near_pinch_trace_matches_grid_step_trace(value):
    # T = z^2 + value has its critical value 1e-4 or 3e-3 off the circle.
    # There accepted steps move a root by more than a quarter of the fiber
    # gap between consecutive grid angles, and the corrector test alone must
    # still keep every branch: compare with one step per grid angle
    poly = ComplexPolynomial([value, 0.0, 1.0])
    arcs = trace_lemniscate(poly)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(geometry, "TURN_STEPS", geometry.GRID_PER_TURN)
        fine = trace_lemniscate(poly)
    assert [arc.winding for arc in arcs] == [arc.winding for arc in fine]
    for arc, ref in zip(arcs, fine):
        ts = np.linspace(arc.t_lo, arc.t_hi, 97)
        assert np.max(np.abs(arc.point(ts) - ref.point(ts))) < 1e-12
        _assert_image_angle_arcs(poly, [arc])


def test_trace_rejects_singular_lemniscate():
    # T'(1) = 0 with |T(1)| = 1: the curve crosses itself at z = 1.  For
    # z^2 - 2z the node sits at image angle pi; for (z - 1)^2 + e^{i alpha}
    # at alpha, off any uniform grid of image angles
    for coeffs in ([0.0, -2.0, 1.0],
                   [1.0 + cmath.exp(1.0j), -2.0, 1.0],
                   [1.0 + cmath.exp(2.5j), -2.0, 1.0]):
        with pytest.raises(GeometryError):
            trace_lemniscate(ComplexPolynomial(coeffs))


def test_project_to_support_circle_and_interval():
    circle = SupportSpec.make_circle()
    i, t, pt = project_to_support(circle, (1.0 + 2e-9) * 1j)
    assert i == 0
    assert abs(t - math.pi / 2) < 1e-12
    assert abs(pt - 1j) < 1e-12
    with pytest.raises(DomainError):
        project_to_support(circle, 1.5 + 0j)

    interval = SupportSpec.make_interval(-1.0, 1.0)
    assert project_to_support(interval, 0.25 + 0j)[1] == 0.25
    with pytest.raises(DomainError):
        project_to_support(interval, 0.25 + 0.5j)


def test_geometry_refuses_non_finite_numbers():
    # a nan or inf parameter, coefficient or point is refused, not carried
    nan, inf = float("nan"), float("inf")
    makers = (lambda: SupportSpec.make_circle(center=complex(nan, 0.0)),
              lambda: SupportSpec.make_circle(radius=inf),
              lambda: SupportSpec.make_ellipse(inf, 1.0),
              lambda: SupportSpec.make_ellipse(1.25, 0.75, rotation=nan),
              lambda: ComplexPolynomial([nan, 0.0, 1.0]))
    for make in makers:
        with pytest.raises(GeometryError, match="finite"):
            make()
    supports = (SupportSpec.make_circle(), SupportSpec.make_interval(-1.0, 1.0),
                SupportSpec.make_ellipse(1.25, 0.75),
                SupportSpec.make_lemniscate(ComplexPolynomial([0, 0, 1.0])))
    for support in supports:
        for z in (nan, complex(0.5, nan), inf):
            with pytest.raises(DomainError):
                project_to_support(support, z)


def test_project_to_support_ellipse_and_lemniscate():
    ellipse = SupportSpec.make_ellipse(1.25, 0.75)
    i, t, pt = project_to_support(ellipse, 0.75j + 1e-10)
    assert abs(t - math.pi / 2) < 1e-9
    assert abs(pt - 0.75j) < 1e-9
    with pytest.raises(DomainError):
        project_to_support(ellipse, 0.76j)

    lemn = SupportSpec.make_lemniscate(ComplexPolynomial([0, 0, 1.0]))
    z = cmath.exp(1j * math.pi / 4)
    i, t, pt = project_to_support(lemn, z)
    # the traced branch reaches e^{i pi/4} at image angle pi/2 + 2 pi
    assert abs(t - (math.pi / 2 + 2.0 * math.pi)) < 1e-9
    assert abs(pt - z) < 1e-12
    with pytest.raises(DomainError):
        project_to_support(lemn, 1.4 + 1.4j)
