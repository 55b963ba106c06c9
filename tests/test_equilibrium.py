import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from xlab.equilibrium import (density_profile, equilibrium_density,
                              green_potential)
from xlab.errors import DomainError, GeometryError, InputError
from xlab.geometry import ComplexPolynomial, SupportSpec
from xlab.quadrature import build_rule, integrate
from xlab.suites import _constant_measure, _green_residuals


def _mass(support, dens):
    rule = build_rule(_constant_measure(support), 24)
    total = integrate(rule, lambda z: np.array([dens(p)
                                                for p in np.atleast_1d(z)]))
    return complex(total).real


def test_circle_density():
    dens = equilibrium_density(SupportSpec.make_circle(1.0))
    assert dens(1.0 + 0j) == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-15)
    assert equilibrium_density(SupportSpec.make_circle(2.0))(2j) == (
        pytest.approx(1.0 / (4.0 * math.pi), rel=1e-15))
    with pytest.raises(DomainError):
        dens(1.5 + 0j)
    with pytest.raises(GeometryError):
        SupportSpec.make_circle(0.0)


def test_interval_density_closed_form():
    dens = equilibrium_density(SupportSpec.make_interval(-1, 1))
    assert dens(0.0) == pytest.approx(1.0 / math.pi, rel=1e-15)
    assert equilibrium_density(SupportSpec.make_interval(-2, 2))(0.0) == (
        pytest.approx(1.0 / (2.0 * math.pi), rel=1e-15))
    # the arcsine law blows up toward the endpoints
    assert dens(0.999) > 7.0
    for bad in (-1.0, 1.0, 1.5):
        with pytest.raises(DomainError):
            dens(bad)


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
    dens = equilibrium_density(SupportSpec.make_ellipse(1.25, 0.75))
    # at (1.25, 0): w = 1 and dz/dw = (2 - 0.5)/2 = 0.75
    assert dens(1.25 + 0j) == pytest.approx(2.0 / (3.0 * math.pi), rel=1e-14)
    # degenerate ellipse is the circle
    circle_like = equilibrium_density(SupportSpec.make_ellipse(1.0, 1.0))
    assert circle_like(1j) == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-14)
    assert equilibrium_density(SupportSpec.make_circle(2.0))(2.0 + 0j) == (
        pytest.approx(1.0 / (4.0 * math.pi), rel=1e-14))


def test_ellipse_map_consistency_finite_difference():
    # pull the uniform unit-circle measure through the inverse Joukowski
    # map: density per arc length is 1 / (2 pi |dz/dt|), differentiated
    # numerically, and must match |G'|/(2 pi)
    a, b = 1.25, 0.75
    dens = equilibrium_density(SupportSpec.make_ellipse(a, b))
    h = 1e-6
    z_of = lambda t: ((a + b) * cmath.exp(1j * t)
                      + (a - b) * cmath.exp(-1j * t)) / 2.0
    worst = 0.0
    for t in np.linspace(0.0, 2.0 * math.pi, 17)[:-1]:
        fd = abs(z_of(t + h) - z_of(t - h)) / (2.0 * h)
        worst = max(worst, abs(1.0 / (2.0 * math.pi * fd) - dens(z_of(t))))
    assert worst < 1e-9


def test_tall_ellipse_matches_rotated_wide():
    # a tall ellipse is the wide one turned by pi/2: same curve, same density
    for rotation, center in ((0.0, 0j), (0.4, 0.5 - 1j)):
        tall = SupportSpec.make_ellipse(0.75, 1.25, center=center,
                                        rotation=rotation)
        wide = SupportSpec.make_ellipse(1.25, 0.75, center=center,
                                        rotation=rotation + math.pi / 2)
        for t in np.linspace(0.0, 2.0 * math.pi, 13)[:-1]:
            z = center + cmath.exp(1j * rotation) * (0.75 * math.cos(t)
                                                     + 1.25j * math.sin(t))
            d_tall = equilibrium_density(tall)(z)
            assert abs(d_tall - equilibrium_density(wide)(z)) <= 1e-14 * d_tall
    # the minor vertex of the 1.25 x 0.75 ellipse has |dz/dw| = 1.25
    assert equilibrium_density(SupportSpec.make_ellipse(0.75, 1.25))(0.75) == (
        pytest.approx(1.0 / (2.5 * math.pi), rel=1e-14))


def test_green_potential():
    # Re G vanishes on the support, Re G(z) - log|z| -> -log cap, and the
    # outward normal derivative of Re G is 2 pi times the density
    supports = [SupportSpec.make_circle(radius=2.0),
                SupportSpec.make_circle(0.5, center=1.0 + 2.0j),
                SupportSpec.make_interval(-1.0, 1.0),
                SupportSpec.make_interval(0.5, 3.0),
                SupportSpec.make_ellipse(1.25, 0.75),
                SupportSpec.make_ellipse(0.75, 1.25, rotation=0.3),
                SupportSpec.make_ellipse(2.0, 0.5, center=-1.0 + 1.0j,
                                         rotation=2.0),
                SupportSpec.make_lemniscate(ComplexPolynomial([0, 0, 1.0])),
                SupportSpec.make_lemniscate(ComplexPolynomial([-4.0, 0, 1.0])),
                SupportSpec.make_lemniscate(
                    ComplexPolynomial([0.3, -1.5, 0, 1.0])),
                SupportSpec.make_lemniscate(
                    ComplexPolynomial([-1.5, 0, 0.5j]))]
    for support in supports:
        nodes = build_rule(_constant_measure(support), 24).nodes
        on_support, at_infinity, normal = _green_residuals(support, nodes)
        assert on_support < 1e-13, support
        # an off-center support keeps a true O(|c|/|z|) term at |z| = 1e10
        assert at_infinity < 1e-9, support
        assert normal < 1e-8, support


def test_circle_green_potential_is_the_closed_form():
    # the circle |z - c| = r is the lemniscate of T = (z - c)/r; its
    # (1/N) log T and T'/(N T) at N = 1 are log((z - c)/r) and 1/(z - c)
    t = 2.0 * math.pi * (np.arange(7) + 0.3) / 7
    for r, c in ((0.5, 1.0 + 2.0j), (2.0, 0j)):
        support = SupportSpec.make_circle(r, center=c)
        T = support.level_polynomial
        assert T.degree == 1
        on = c + r * np.exp(1j * t)
        assert np.max(np.abs(np.abs(T(on)) - 1.0)) <= 1e-14
        G, dG = green_potential(support)
        for z in (on, c + 0.4 * (on - c), c + 3.0 * (on - c)):
            assert np.max(np.abs(G(z) - np.log((z - c) / r))) <= 1e-14
            want = 1.0 / (z - c)
            assert np.max(np.abs(dG(z) - want) / np.abs(want)) <= 1e-14
    lemniscate = SupportSpec.make_lemniscate(ComplexPolynomial([0, 0, 1.0]))
    assert lemniscate.level_polynomial is lemniscate.poly
    assert SupportSpec.make_interval(-1, 1).level_polynomial is None
    assert SupportSpec.make_ellipse(1.25, 0.75).level_polynomial is None


def test_interval_green_potential_is_the_closed_form():
    # the interval [lo, hi] is the flat ellipse of its joukowski_frame; its
    # own closed form G = log(s + sqrt(s - 1) sqrt(s + 1)), G' = (2/(hi - lo))
    # / (sqrt(s - 1) sqrt(s + 1)), s = (2z - lo - hi)/(hi - lo), at 40 digits
    for lo, hi in ((-1.0, 1.0), (-0.5, 2.0), (0.3, 0.7)):
        support = SupportSpec.make_interval(lo, hi)
        assert support.joukowski_frame == (0.5 * (lo + hi), 0.0,
                                           0.5 * (hi - lo), 0.0)
        x = lo + (hi - lo) * np.array([0.001, 0.1, 0.37, 0.5, 0.82, 0.999])
        z = np.concatenate([x + 0j, x + 0.3j, x - 0.2j,
                            [lo - 0.5, hi + 0.5, 3.0 + 1.0j, -2.0 - 4.0j]])
        G, dG = green_potential(support)
        with mp.workdps(40):
            for zk, g, dg in zip(z, G(z), dG(z)):
                s = (2 * mp.mpc(zk.real, zk.imag) - lo - hi) / (mp.mpf(hi) - lo)
                root = mp.sqrt(s - 1) * mp.sqrt(s + 1)
                for got, want in ((g, mp.log(s + root)),
                                  (dg, 2 / ((mp.mpf(hi) - lo) * root))):
                    assert abs(got - want) <= 1e-13 * abs(want), (lo, hi, zk)
    assert SupportSpec.make_circle().joukowski_frame is None


def test_densities_normalize_to_one():
    supports = [SupportSpec.make_circle(radius=2.0),
                SupportSpec.make_interval(-1.0, 1.0),
                SupportSpec.make_ellipse(1.25, 0.75),
                SupportSpec.make_lemniscate(ComplexPolynomial([0, 0, 1.0])),
                SupportSpec.make_lemniscate(ComplexPolynomial([-4.0, 0, 1.0]))]
    for support in supports:
        dens = equilibrium_density(support)
        assert abs(_mass(support, dens) - 1.0) < 1e-8


def test_green_potential_dispatch():
    for support in (SupportSpec.make_circle(),
                    SupportSpec.make_interval(-1, 1),
                    SupportSpec.make_ellipse(1.25, 0.75),
                    SupportSpec.make_lemniscate(ComplexPolynomial([0, 0, 1]))):
        G, dG = green_potential(support)
        z = np.array([3.0 + 1.0j, -2.0 - 4.0j])
        assert G(z).shape == dG(z).shape == (2,)


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
    # interval samples stay interior; the normal column sums both sides
    t, pts, density, normal = density_profile(SupportSpec.make_interval(-1, 1),
                                              9)
    assert np.all(np.abs(t) < 1.0)
    assert np.all(density > 0)
    assert np.allclose(normal, 2.0 / np.sqrt(1.0 - t ** 2), rtol=1e-14)
    # two-component lemniscate gets points on both ovals
    sup = SupportSpec.make_lemniscate(ComplexPolynomial([-4.0, 0.0, 1.0]))
    _, pts, density, _ = density_profile(sup, 20)
    assert np.any(pts.real > 0) and np.any(pts.real < 0)
    assert np.all(density > 0)
    # fewer samples than arcs cannot give every arc a point
    with pytest.raises(DomainError):
        density_profile(sup, 1)
    # the count is an integer, numpy integers included
    assert density_profile(sup, np.int64(4))[1].size == 4
    for samples in (3.5, "5", 4.0):
        with pytest.raises(InputError, match="integer"):
            density_profile(sup, samples)


@pytest.mark.parametrize("samples", [3, 5])
def test_density_profile_balances_counts(samples):
    # |z^2 - 2| = 1 has two arcs of equal span, so the proportional counts
    # round to 2 + 2: three samples trim one, five add one
    sup = SupportSpec.make_lemniscate(ComplexPolynomial([-2.0, 0.0, 1.0]))
    _, pts, density, _ = density_profile(sup, samples)
    assert pts.size == samples
    assert 1 <= np.sum(pts.real > 0) < samples
    exact = equilibrium_density(sup)
    assert np.allclose(density, [exact(p) for p in pts], rtol=1e-12, atol=0)


@settings(max_examples=20, derandomize=True, deadline=None)
@given(alpha=st.complex_numbers(min_magnitude=0.2, max_magnitude=5.0,
                                allow_nan=False, allow_infinity=False),
       beta=st.complex_numbers(max_magnitude=3.0, allow_nan=False,
                               allow_infinity=False),
       a=st.floats(0.5, 2.0), b=st.floats(0.5, 2.0),
       rotation=st.floats(-math.pi, math.pi),
       t=st.floats(0.0, 2.0 * math.pi))
def test_similarity_covariance(alpha, beta, a, b, rotation, t):
    # the equilibrium measure moves with z -> alpha z + beta, so the
    # density per arc length scales by 1/|alpha| and the mass stays 1;
    # b > a draws tall ellipses
    scale, turn = abs(alpha), cmath.phase(alpha)
    c = 0.5 - 0.3j
    pairs = [
        (SupportSpec.make_circle(a, center=c),
         SupportSpec.make_circle(scale * a, center=alpha * c + beta),
         c + a * cmath.exp(1j * t)),
        (SupportSpec.make_ellipse(a, b, center=c, rotation=rotation),
         SupportSpec.make_ellipse(scale * a, scale * b,
                                  center=alpha * c + beta,
                                  rotation=rotation + turn),
         c + cmath.exp(1j * rotation) * complex(a * math.cos(t),
                                                b * math.sin(t))),
    ]
    for support, image, z in pairs:
        d = equilibrium_density(support)(z)
        d_image = equilibrium_density(image)(alpha * z + beta)
        assert abs(d_image - d / scale) <= 1e-12 * d / scale
        assert abs(_mass(image, equilibrium_density(image)) - 1.0) < 1e-10
