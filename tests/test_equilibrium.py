import cmath
import math

import numpy as np
import pytest

from xlab.equilibrium import (density_circle, density_exterior_map,
                              density_interval, density_profile,
                              equilibrium_density, exterior_map_circle,
                              exterior_map_ellipse, green_normal_derivative)
from xlab.errors import CapabilityError, DomainError
from xlab.geometry import ComplexPolynomial, SupportSpec, partition_arcs
from xlab.measures import ConstantWeight, MeasureSpec, Piece, SmoothFactor
from xlab.quadrature import build_rule, integrate


def _mass(support, dens):
    measure = MeasureSpec(support, Piece(ConstantWeight(1.0), SmoothFactor()))
    rule = build_rule(measure, 24)
    total = integrate(rule, lambda z: np.array([dens(p)
                                                for p in np.atleast_1d(z)]))
    return complex(total).real


def test_circle_density():
    dens = density_circle(1.0)
    assert dens(1.0 + 0j) == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-15)
    assert density_circle(2.0)(2j) == pytest.approx(1.0 / (4.0 * math.pi),
                                                    rel=1e-15)
    with pytest.raises(DomainError):
        dens(1.5 + 0j)
    with pytest.raises(DomainError):
        density_circle(0.0)


def test_interval_density_closed_form():
    assert density_interval(-1, 1, 0.0) == pytest.approx(1.0 / math.pi,
                                                         rel=1e-15)
    assert density_interval(-2, 2, 0.0) == pytest.approx(1.0 / (2.0 * math.pi),
                                                         rel=1e-15)
    # the arcsine law blows up toward the endpoints
    assert density_interval(-1, 1, 0.999) > 7.0
    for bad in (-1.0, 1.0, 1.5):
        with pytest.raises(DomainError):
            density_interval(-1, 1, bad)


def test_lemniscate_density():
    dens = equilibrium_density(
        SupportSpec.make_lemniscate(ComplexPolynomial([0.0, 0.0, 1.0])))
    z = cmath.exp(1j * math.pi / 4)
    assert dens(z) == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-12)
    with pytest.raises(DomainError):
        dens(1.3 + 0j)


def test_lemniscate_z_n_equals_circle():
    poly = ComplexPolynomial([0.0, 0.0, 0.0, 1.0])
    dens = equilibrium_density(SupportSpec.make_lemniscate(poly))
    for t in np.linspace(0.1, 6.0, 17):
        z = cmath.exp(1j * t)
        assert abs(dens(z) - 1.0 / (2.0 * math.pi)) < 1e-12


def test_ellipse_density_oracle():
    emap = exterior_map_ellipse(1.25, 0.75)
    # at (1.25, 0): w = 1 and dz/dw = (2 - 0.5)/2 = 0.75
    val = density_exterior_map(emap, 1.25 + 0j)
    assert val == pytest.approx(2.0 / (3.0 * math.pi), rel=1e-14)
    assert green_normal_derivative(val) == pytest.approx(4.0 / 3.0, rel=1e-14)
    # degenerate ellipse is the circle
    circle_like = exterior_map_ellipse(1.0, 1.0)
    assert density_exterior_map(circle_like, 1j) == pytest.approx(
        1.0 / (2.0 * math.pi), rel=1e-14)
    assert density_exterior_map(exterior_map_circle(2.0), 2.0 + 0j) == (
        pytest.approx(1.0 / (4.0 * math.pi), rel=1e-14))


def test_ellipse_map_consistency_finite_difference():
    # pull the uniform unit-circle measure through the inverse Joukowski
    # map: density per arc length is 1 / (2 pi |dz/dt|), differentiated
    # numerically, and must match the implicit-derivative route
    a, b = 1.25, 0.75
    emap = exterior_map_ellipse(a, b)
    h = 1e-6
    z_of = lambda t: ((a + b) * cmath.exp(1j * t)
                      + (a - b) * cmath.exp(-1j * t)) / 2.0
    worst = 0.0
    for t in np.linspace(0.0, 2.0 * math.pi, 17)[:-1]:
        fd = abs(z_of(t + h) - z_of(t - h)) / (2.0 * h)
        worst = max(worst, abs(1.0 / (2.0 * math.pi * fd)
                               - density_exterior_map(emap, z_of(t))))
    assert worst < 1e-9


def test_bridge_identity():
    for d in (1.0 / (2.0 * math.pi), 0.2122, 7.3):
        assert green_normal_derivative(d) == 2.0 * math.pi * d
    with pytest.raises(DomainError):
        green_normal_derivative(0.0)


def test_densities_normalize_to_one():
    supports = [SupportSpec.make_circle(radius=2.0),
                SupportSpec.make_interval(-1.0, 1.0),
                SupportSpec.make_ellipse(1.25, 0.75),
                SupportSpec.make_lemniscate(ComplexPolynomial([0, 0, 1.0])),
                SupportSpec.make_lemniscate(ComplexPolynomial([-4.0, 0, 1.0]))]
    for support in supports:
        dens = equilibrium_density(support)
        assert abs(_mass(support, dens) - 1.0) < 1e-8


def test_equilibrium_density_dispatch_and_provenance():
    cases = {
        "circle": (SupportSpec.make_circle(), "closed-form-circle"),
        "interval": (SupportSpec.make_interval(-1, 1), "closed-form-interval"),
        "ellipse": (SupportSpec.make_ellipse(1.25, 0.75), "exterior-map"),
        "lemniscate": (SupportSpec.make_lemniscate(
            ComplexPolynomial([0, 0, 1.0])), "lemniscate"),
    }
    for support, provenance in cases.values():
        assert equilibrium_density(support).provenance == provenance
    arcs = partition_arcs(ComplexPolynomial([0, 0, 1.0]))[:1]
    with pytest.raises(CapabilityError):
        equilibrium_density(SupportSpec.from_arcs(arcs))


def test_interval_density_through_projection():
    dens = equilibrium_density(SupportSpec.make_interval(-1.0, 1.0))
    assert dens(0.0 + 0j) == pytest.approx(1.0 / math.pi, rel=1e-14)
    with pytest.raises(DomainError):
        dens(1.0 + 0j)  # endpoint


def test_density_profile_shapes():
    t, pts, density, normal = density_profile(SupportSpec.make_circle(), 16)
    assert len(t) == len(pts) == len(density) == len(normal) == 16
    assert np.allclose(density, 1.0 / (2.0 * math.pi))
    assert np.allclose(normal, 2.0 * math.pi * density)
    # interval samples stay interior
    t, pts, density, _ = density_profile(SupportSpec.make_interval(-1, 1), 9)
    assert np.all(np.abs(t) < 1.0)
    assert np.all(density > 0)
    # two-component lemniscate gets points on both ovals
    sup = SupportSpec.make_lemniscate(ComplexPolynomial([-4.0, 0.0, 1.0]))
    _, pts, density, _ = density_profile(sup, 20)
    assert np.any(pts.real > 0) and np.any(pts.real < 0)
    assert np.all(density > 0)
