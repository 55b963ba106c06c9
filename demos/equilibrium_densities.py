"""
Equilibrium densities from the Green's potential
================================================

The asymptotic law divides the jump factor by the equilibrium-measure
density at the evaluation point.  Every supported geometry has a complex
Green's potential G in closed form, whose real part is the Green's
function of the exterior with pole at infinity: log((z - c)/r) on
circles, log(s + sqrt(s - 1) sqrt(s + 1)) on intervals, the inverse
Joukowski map on ellipses and (1/N) log T on the lemniscate |T| = 1.  The
density is |G'|/(2 pi).  Re G vanishes on the support, and
Re G(z) - log|z| tends to -log cap at infinity, so the capacity is the
limit of |z| exp(-Re G(z)).
"""

import math

import numpy as np

from xlab import (ComplexPolynomial, ConstantWeight, MeasureSpec, SupportSpec,
                  build_rule, density_profile, equilibrium_density,
                  green_potential, integrate)

supports = {
    "circle r=1": (SupportSpec.make_circle(), 1.0),
    "interval [-1,1]": (SupportSpec.make_interval(-1.0, 1.0), 0.5),
    "ellipse 1.25 x 0.75": (SupportSpec.make_ellipse(1.25, 0.75), 1.0),
    "lemniscate z^2-4": (SupportSpec.make_lemniscate(
        ComplexPolynomial([-4.0, 0.0, 1.0])), 1.0),
}

far = 1e10 * np.exp(0.25j * math.pi * (np.arange(8) + 0.5))
print(f"{'support':20s} {'mass':>14s} {'max|Re G| on E':>15s} "
      f"{'cap':>5s} {'|z| exp(-Re G), |z|=1e10':>23s}")
for name, (support, cap) in supports.items():
    dens = equilibrium_density(support)
    G, _ = green_potential(support)
    rule = build_rule(MeasureSpec(support, ConstantWeight(1.0)), 24)
    mass = integrate(rule, lambda z: np.array([dens(p)
                                               for p in np.atleast_1d(z)]))
    on_curve = np.max(np.abs(G(rule.nodes).real))
    limit = np.exp(np.log(np.abs(far)) - G(far).real)
    print(f"{name:20s} {complex(mass).real:14.12f} {on_curve:15.2e} "
          f"{cap:5.2f} {limit.mean():23.12f}")

# closed-form spot checks
interval = equilibrium_density(supports["interval [-1,1]"][0])
print("\ninterval density at 0:", interval(0.0), "= 1/pi =", 1 / math.pi)
ellipse = equilibrium_density(supports["ellipse 1.25 x 0.75"][0])
print("ellipse density at (1.25, 0):", ellipse(1.25 + 0j), "= 2/(3 pi) =",
      2 / (3 * math.pi))

# the arcsine blow-up toward the endpoints, sampled on a profile
t, z, density, normal = density_profile(supports["interval [-1,1]"][0], 9)
print("\ninterval profile (x, density):")
for xk, dk in zip(t, density):
    print(f"  {xk:+.3f}  {dk:.4f}")
