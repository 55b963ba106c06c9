"""
Tracing polynomial lemniscates
==============================

The level curve sigma = { z : |T(z)| = 1 } of a degree-N polynomial is
the inverse image of the unit circle.  It is traced by carrying the N
points of the fiber T^{-1}(e^{i theta}) once around the circle; they come
back permuted, and each cycle of the permutation is one component.  The
trace yields arc parametrizations (by continuous image angle) and
windings that sum to N.
"""

import numpy as np

from xlab import (ComplexPolynomial, SupportSpec, arc_length,
                  lemniscate_pullback_measure, parametrize, preimages,
                  weight_at)

# T(z) = z^2 - 4 separates into two ovals around the roots +-2
poly = ComplexPolynomial([-4.0, 0.0, 1.0])
support = SupportSpec.make_lemniscate(poly)
arcs = parametrize(support)
print(f"T(z) = z^2 - 4 traced into {len(arcs)} components")
for arc in arcs:
    print(f"  winding {arc.winding}, parameter span {arc.span:.4f}, "
          f"length {arc_length(arc):.6f}")

# fibers: the preimages of a unit-circle point, one per component here
fiber = preimages(poly, 1.0 + 0j)
print("preimages of w = 1:", np.round(fiber, 6))
print("|T| at the fiber:", [abs(complex(poly(z))) for z in fiber])

# T(z) = z^2 keeps the unit circle as its curve but covers it twice, so a
# circle weight with a jump at angle pi/2 pulls back through T with the
# pulled-back weight at z equal to the circle weight at T(z)
poly2 = ComplexPolynomial([0.0, 0.0, 1.0])
measure = lemniscate_pullback_measure(poly2, A=2.0, B=1.0)
arc = parametrize(measure.support)[0]
for theta in (0.1, 0.6, 2.0, 3.3):
    z = complex(arc.point(theta))
    w = complex(poly2(z))
    print(f"theta {theta:4.1f}: weight {float(weight_at(measure, theta)):.1f} "
          f"at z = {z:.3f}, angle of T(z) = {np.angle(w):+.3f}")
