import cmath
import math

import numpy as np
import pytest

from xlab.christoffel import kernel_prefix, orthonormalize
from xlab.errors import InputError, NumericError
from xlab.geometry import (ComplexPolynomial, SupportSpec, parametrize,
                           project_to_support)
from xlab.measures import (JumpWeight, MeasureSpec, circle_jump_measure, ellipse_jump_measure,
                           interval_jump_measure, lemniscate_pullback_measure,
                           symmetrize_to_interval, uniform_circle_measure)
from xlab import quadrature
from xlab.quadrature import NODES_PER_DEGREE, PANEL_ORDER, build_rule, integrate
from xlab.suites import standard_jump_measures


def _constant_measure(support):
    return MeasureSpec(support, JumpWeight(1.0))


def test_circle_mass_and_moments():
    rule = build_rule(uniform_circle_measure(), 16)
    assert rule.mass == pytest.approx(2.0 * math.pi, abs=1e-13)
    assert rule.node_count >= 6 * 16
    assert np.all(rule.weights > 0)
    worst = max(abs(complex(integrate(rule, lambda z, k=k: z ** k)))
                for k in range(1, 33))
    assert worst < 1e-12


def test_jump_mass_splits_at_jump():
    rule = build_rule(circle_jump_measure(), 16)
    assert rule.mass == pytest.approx(3.0 * math.pi, abs=1e-13)
    # the B arc [pi/2, 3 pi/2] carries exactly mass pi
    indicator = lambda z: np.where((np.angle(z) >= math.pi / 2 - 1e-15)
                                   | (np.angle(z) <= -math.pi / 2 + 1e-15),
                                   1.0, 0.0)
    b_mass = complex(integrate(rule, indicator)).real
    assert b_mass == pytest.approx(math.pi, abs=1e-13)
    # no panel straddles the jump parameters
    jumps = np.array([math.pi / 2, 3 * math.pi / 2])
    for t in rule.params:
        assert np.min(np.abs(jumps - t)) > 1e-15


def test_interval_arcsine_mass():
    m = MeasureSpec(SupportSpec.make_interval(-1.0, 1.0), JumpWeight(1.0),
                    chebyshev=True)
    rule = build_rule(m, 12)
    assert rule.mass == pytest.approx(math.pi, abs=1e-13)
    # odd moments vanish by symmetry
    assert abs(complex(integrate(rule, lambda z: z)).real) < 1e-13


def test_symmetrized_interval_mass():
    rule = build_rule(symmetrize_to_interval(circle_jump_measure()), 12)
    assert rule.mass == pytest.approx(1.5 * math.pi, abs=1e-13)


def _on_curve(support, t, arc=0):
    return complex(parametrize(support)[arc].point(t))


def _refined(measure, n, f):
    # f times the node budget of build_rule(measure, n): the budget is
    # NODES_PER_DEGREE * (degree + 1), so degree f * (n + 1) - 1 gives it
    return build_rule(measure, f * (n + 1) - 1)


def _at(measure, z0):
    return MeasureSpec(measure.support, measure.weight, measure.smooth, z0=z0,
                       chebyshev=measure.chebyshev)


def _off_switch(measure):
    # z0 sits at no switch point: the weight is the same on both sides
    _, t0, _ = project_to_support(measure.support, measure.z0)
    left, right = measure.weight.sides(t0)
    return left == right


def _exactness_measure(name):
    # every z0 but the plain ellipse's sits inside a jump-free segment,
    # between two switch points; the rule does not split there
    if name == "ellipse":
        return ellipse_jump_measure(1.25, 0.75)
    if name == "off-centre-circle":
        return circle_jump_measure(radius=0.8, center=0.5 - 0.3j,
                                   z0=0.5 - 0.3j + 0.8 * cmath.exp(1j))
    if name == "arcsine-interval":
        return interval_jump_measure(-0.5, 2.0, jump_param=0.2,
                                     chebyshev=True, z0=1.3)
    if name == "rotated-ellipse":
        m = ellipse_jump_measure(0.9, 0.5, center=0.4 + 0.3j, rotation=1.1,
                                 jump_param=0.4)
        return _at(m, _on_curve(m.support, 2.0))
    # two components each; the cubics' second one winds twice
    poly = {"two-component": [-2.0, 0.0, 1.0],
            "cubic": [1.0, -1.2, 0.0, 1.0],
            "near-pinched-cubic": [0.3, -1.5, 0.0, 1.0]}[name]
    m = lemniscate_pullback_measure(ComplexPolynomial(poly))
    return _at(m, _on_curve(m.support, 0.4, arc=len(poly) - 3))


# |z^3 - 1.5 z + 0.3| = 1 passes within 0.007 of the critical value 1.007 at
# -1/sqrt(2): its parametrization has a branch point 0.007 off the real
# theta axis at theta = 0, which equal panels do not resolve
NEAR_PINCHED = pytest.mark.xfail(strict=True, reason="equal panels miss the "
                                 "branch point near a critical value of T")


@pytest.mark.parametrize("name", ["ellipse", "off-centre-circle",
                                  "arcsine-interval", "rotated-ellipse",
                                  "two-component", "cubic",
                                  pytest.param("near-pinched-cubic",
                                               marks=NEAR_PINCHED)])
def test_polynomial_exactness_vs_refined(name):
    measure = _exactness_measure(name)
    if name != "ellipse":
        assert _off_switch(measure)
    coarse = build_rule(measure, 20)
    fine = _refined(measure, 20, 4)
    rng = np.random.default_rng(7)
    for _ in range(3):
        p = rng.standard_normal(21) + 1j * rng.standard_normal(21)
        q = rng.standard_normal(21) + 1j * rng.standard_normal(21)
        f = lambda z: np.polyval(p, z) * np.conj(np.polyval(q, z))
        a = complex(integrate(coarse, f))
        b = complex(integrate(fine, f))
        assert abs(a - b) <= 1e-11 * abs(b)


def test_pullback_jump_integral():
    # int v(z^2) |2 z| ds over |z^2| = 1 equals twice the circle mass of v
    measure = lemniscate_pullback_measure(ComplexPolynomial([0.0, 0.0, 1.0]))
    rule = build_rule(measure, 16)
    assert rule.mass == pytest.approx(3.0 * math.pi, abs=1e-13)
    val = complex(integrate(rule, lambda z: np.abs(2.0 * z))).real
    assert val == pytest.approx(6.0 * math.pi, abs=1e-12)


def test_lemniscate_constant_mass():
    support = SupportSpec.make_lemniscate(ComplexPolynomial([-4.0, 0.0, 1.0]))
    rule = build_rule(_constant_measure(support), 16)
    lengths = 2.0 * 1.5770880163321998  # two congruent ovals
    assert rule.mass == pytest.approx(lengths, abs=1e-6)


def test_node_budget_and_panel_order():
    rule = build_rule(uniform_circle_measure(), 10)
    assert rule.node_count >= NODES_PER_DEGREE * 11
    assert rule.node_count % PANEL_ORDER == 0


def test_negative_degree_is_rejected():
    with pytest.raises(InputError):
        build_rule(uniform_circle_measure(), -1)


def test_non_integer_degree_is_rejected():
    # a rule exact to degree 3.5 means nothing: refuse it, do not truncate
    for degree in (3.5, "4"):
        with pytest.raises(InputError, match="integer"):
            build_rule(circle_jump_measure(), degree)
    rule = build_rule(circle_jump_measure(), np.int64(4))
    assert rule.max_exact_degree == 4
    assert rule.weights.size == build_rule(circle_jump_measure(), 4).weights.size


@pytest.mark.parametrize("name", ["off-centre-circle", "arcsine-interval",
                                  "rotated-ellipse", "cubic"])
def test_rule_does_not_depend_on_z0(name):
    # the rule is a function of the measure: moving z0 off the switch points,
    # or dropping it, changes no node and no weight
    measure = _exactness_measure(name)
    arc = len(parametrize(measure.support)) - 1
    t_lo = parametrize(measure.support)[arc].t_lo
    other = _at(measure, _on_curve(measure.support, t_lo + 1.3, arc=arc))
    assert _off_switch(other)
    want = build_rule(measure, 20)
    for m in (other, _at(measure, None)):
        got = build_rule(m, 20)
        for field in ("nodes", "weights", "params"):
            assert np.array_equal(getattr(got, field), getattr(want, field))


def test_integrate_rejects_nonfinite():
    rule = build_rule(uniform_circle_measure(), 8)
    bad = complex(rule.nodes[3])
    with pytest.raises(NumericError) as err:
        with np.errstate(divide="ignore", invalid="ignore"):
            integrate(rule, lambda z: 1.0 / (z - bad))
    assert "node 3" in str(err.value)


def test_kernel_matches_refined_rule():
    # equal panels between the jumps already resolve the kernel:
    # doubling the nodes moves K_n(z0) by rounding only
    n = 256
    for name, measure in standard_jump_measures().items():
        got = kernel_prefix(orthonormalize(build_rule(measure, n), n),
                            measure.z0)
        fine = _refined(measure, n, 2)
        want = kernel_prefix(orthonormalize(fine, n), measure.z0)
        assert np.max(np.abs(got - want) / want) <= 1e-12, name


def test_rule_determinism():
    a = build_rule(circle_jump_measure(), 24)
    b = build_rule(circle_jump_measure(), 24)
    assert np.array_equal(a.nodes, b.nodes)
    assert np.array_equal(a.weights, b.weights)


def _panel_by_panel_rule(measure, max_degree):
    # build_rule's layout evaluated one panel at a time, as a reference
    interval = measure.support.kind == "interval"
    segs = quadrature._segments(measure)
    total_len = sum(hi - lo for (_, lo, hi) in segs)
    total_panels = math.ceil(6 * (max_degree + 1) / PANEL_ORDER)
    xr, wr = np.polynomial.legendre.leggauss(PANEL_ORDER)
    nodes, weights, params = [], [], []
    for arc_i, lo, hi in segs:
        n_panels = max(1, math.ceil(total_panels * (hi - lo) / total_len))
        edges = np.linspace(lo, hi, n_panels + 1)
        for pa, pb in zip(edges[:-1], edges[1:]):
            t = 0.5 * (pa + pb) + 0.5 * (pb - pa) * xr
            if interval:
                x, factor = quadrature._interval_factors(measure, t)
                nodes.append(x.astype(complex))
            else:
                arc = parametrize(measure.support)[arc_i]
                nodes.append(arc.point(t))
                factor = (measure.smooth(t) * measure.weight.value(t)
                          * np.abs(arc.velocity(t)))
            weights.append(0.5 * (pb - pa) * wr * factor)
            params.append(t)
    return (np.concatenate(nodes), np.concatenate(weights),
            np.concatenate(params))


def test_rule_matches_panel_by_panel_reference():
    # one evaluation per arc changes no arithmetic: the standard measures,
    # the cubic |z^3 - z/2| = 1, the two components of
    # |z^3 - 1.5 z + 0.3| = 1 (winding 1 and 2, with three and five
    # segments) and an off-centre interval without the arcsine factor
    measures = dict(standard_jump_measures())
    measures["cubic"] = lemniscate_pullback_measure(
        ComplexPolynomial([0.0, -0.5, 0.0, 1.0]))
    measures["two-component"] = lemniscate_pullback_measure(
        ComplexPolynomial([0.3, -1.5, 0.0, 1.0]))
    measures["off-centre interval"] = interval_jump_measure(
        a=0.5, b=3.0, jump_param=1.2)
    segs = quadrature._segments(measures["two-component"])
    assert [arc for arc, _, _ in segs] == [0] * 3 + [1] * 5
    for name, measure in measures.items():
        for n in (8, 52, 256):
            rule = build_rule(measure, n)
            nodes, weights, params = _panel_by_panel_rule(measure, n)
            assert np.array_equal(rule.nodes, nodes), (name, n)
            assert np.array_equal(rule.weights, weights), (name, n)
            assert np.array_equal(rule.params, params), (name, n)
