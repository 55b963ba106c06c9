import math

import numpy as np
import pytest

from xlab.christoffel import kernel_prefix, orthonormalize
from xlab.errors import InputError, NumericError
from xlab.geometry import ComplexPolynomial, SupportSpec
from xlab.measures import (ConstantWeight, MeasureSpec, Piece, SmoothFactor,
                           circle_jump_measure, ellipse_jump_measure,
                           lemniscate_pullback_measure,
                           symmetrize_to_interval, uniform_circle_measure)
from xlab.quadrature import PANEL_ORDER, build_rule, integrate
from xlab.suites import standard_jump_measures


def _constant_measure(support):
    return MeasureSpec(support, Piece(ConstantWeight(1.0), SmoothFactor()))


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
    m = MeasureSpec(SupportSpec.make_interval(-1.0, 1.0),
                    Piece(ConstantWeight(1.0), SmoothFactor()),
                    chebyshev=True)
    rule = build_rule(m, 12)
    assert rule.mass == pytest.approx(math.pi, abs=1e-13)
    # odd moments vanish by symmetry
    assert abs(complex(integrate(rule, lambda z: z)).real) < 1e-13


def test_symmetrized_interval_mass():
    rule = build_rule(symmetrize_to_interval(circle_jump_measure()), 12)
    assert rule.mass == pytest.approx(1.5 * math.pi, abs=1e-13)


def test_polynomial_exactness_vs_refined():
    measure = ellipse_jump_measure(1.25, 0.75)
    coarse = build_rule(measure, 20, nodes_per_degree=6)
    fine = build_rule(measure, 20, nodes_per_degree=24)
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
    rule = build_rule(uniform_circle_measure(), 10, nodes_per_degree=8)
    assert rule.node_count >= 8 * 11
    assert rule.node_count % PANEL_ORDER == 0


def test_nodes_per_degree_validation():
    with pytest.raises(InputError):
        build_rule(uniform_circle_measure(), 10, nodes_per_degree=3)


def test_integrate_rejects_nonfinite():
    rule = build_rule(uniform_circle_measure(), 8)
    bad = complex(rule.nodes[3])
    with pytest.raises(NumericError) as err:
        with np.errstate(divide="ignore", invalid="ignore"):
            integrate(rule, lambda z: 1.0 / (z - bad))
    assert "node 3" in str(err.value)


def test_kernel_matches_refined_rule():
    # equal panels between the jumps and z0 already resolve the kernel:
    # doubling the nodes moves K_n(z0) by rounding only
    n = 256
    for name, measure in standard_jump_measures().items():
        got = kernel_prefix(orthonormalize(build_rule(measure, n), n),
                            measure.z0)
        fine = build_rule(measure, n, nodes_per_degree=12)
        want = kernel_prefix(orthonormalize(fine, n), measure.z0)
        assert np.max(np.abs(got - want) / want) <= 1e-12, name


def test_rule_determinism():
    a = build_rule(circle_jump_measure(), 24)
    b = build_rule(circle_jump_measure(), 24)
    assert np.array_equal(a.nodes, b.nodes)
    assert np.array_equal(a.weights, b.weights)
