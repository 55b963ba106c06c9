"""Measures on supports: a jump weight times a smooth factor.

A measure is d(mu) = w0(t) * v(t) * (arc speed) dt on every arc of its
support, with w0 a positive polynomial ``SmoothFactor`` and v a
``JumpWeight``, the constant A when it has no switch parameter t0.  Without
a period a jump weight takes the value A for t <= t0 and B for t > t0.
With a period P it takes the value B on the closed half [t0, t0 + P/2] and
A on the open complement, so there are two switch points, t0 and its
antipode, and the one-sided limits (left, right) are (A, B) at t0 and
(B, A) at the antipode.  On a closed arc the seam, where [t_lo, t_hi)
wraps around, is one more switch point wherever the weight or the smooth
factor takes different values at t_hi and t_lo: an aperiodic weight with
t_lo < t0 < t_hi switches there from B back to A.
One builder makes every jump measure: period 2 pi on a closed support, t0
kept in its first period, none on an interval; z0 = "jump" is at t0.
Interval measures may additionally carry an inverse square root factor
1/sqrt(1 - s(x)^2), s(x) = (x - c)/h in the support's ``joukowski_frame``;
that factor is what cosine symmetrization of a circle measure produces.
"""

import cmath
import math

import numpy as np

from .errors import (CapabilityError, DomainError, InputError,
                     MeasureFormatError, SymmetryError, as_index)
from .geometry import SupportSpec, parametrize, project_to_support

_polyval = np.polynomial.polynomial.polyval

JUMP_SNAP_TOL = 1e-9  # parameter distance below which a point sits "at" a jump


class SmoothFactor:
    """Polynomial factor of the weight, in the arc parameter, positive there."""

    def __init__(self, coeffs=(1.0,)):
        c = np.atleast_1d(np.asarray(coeffs, dtype=float))
        if c.ndim != 1 or c.size == 0:
            raise InputError("smooth factor needs a nonempty coefficient list")
        if not np.all(np.isfinite(c)):
            raise InputError("smooth factor coefficients must be finite")
        self.coeffs = c

    @property
    def is_constant(self):
        return self.coeffs.size == 1 or not np.any(self.coeffs[1:])

    def __call__(self, t):
        return _polyval(np.asarray(t, dtype=float), self.coeffs)

    def __repr__(self):
        return f"SmoothFactor({[float(c) for c in self.coeffs]})"


class JumpWeight:
    """Two-valued weight switching at jump_param (and its antipode if periodic).

    Without a jump_param the weight is the constant A, and B, if given, must
    equal A; with one, A equals B is allowed and keeps the switch point.  A
    periodic jump_param is kept in its first period: jump_param % period.
    """

    def __init__(self, A, B=None, jump_param=None, period=None):
        A = float(A)
        B = A if B is None else float(B)
        if not (0 < A < math.inf and 0 < B < math.inf):
            what = "weight" if jump_param is None else "jump weight values"
            raise InputError(f"{what} must be positive and finite")
        if jump_param is None and B != A:
            raise InputError("a weight with A != B needs a jump_param")
        self.A = A
        self.B = B
        self.jump_param = None if jump_param is None else float(jump_param)
        self.period = None if period is None else float(period)
        if not ((jump_param is None or math.isfinite(self.jump_param))
                and (period is None or 0 < self.period < math.inf)):
            raise InputError("jump parameter and period must be finite")
        if jump_param is not None and period is not None:
            # the second % takes a remainder rounded up to the period to 0
            self.jump_param = self.jump_param % self.period % self.period

    def value(self, t):
        t = np.asarray(t, dtype=float)
        if self.jump_param is None:
            return np.full_like(t, self.A)
        if self.period is None:
            return np.where(t <= self.jump_param, self.A, self.B)
        tau = np.mod(t - self.jump_param, self.period)
        return np.where(tau <= 0.5 * self.period, self.B, self.A)

    def breakpoints(self, t_lo, t_hi):
        """Switch parameters strictly inside (t_lo, t_hi)."""
        if self.jump_param is None:
            return []
        if self.period is None:
            return [self.jump_param] if t_lo < self.jump_param < t_hi else []
        step = 0.5 * self.period
        k = np.arange(math.floor((t_lo - self.jump_param) / step) + 1,
                      math.ceil((t_hi - self.jump_param) / step) + 1)
        b = self.jump_param + k * step
        return b[(b > t_lo + 1e-14) & (b < t_hi - 1e-14)].tolist()

    def sides(self, t):
        """The values (left, right) just before and after t: (A, B) at a switch
        point, (B, A) at its antipode, else the value twice.  Each side is read
        JUMP_SNAP_TOL or, if wider, 8 ulps of t away, so a large t reads both."""
        h = max(JUMP_SNAP_TOL, 8.0 * float(np.spacing(abs(t))))
        return self.value([t - h, t + h])

    def scaled(self, c):
        return JumpWeight(self.A * c, self.B * c, self.jump_param, self.period)

    def __repr__(self):
        return (f"JumpWeight(A={self.A}, B={self.B}, "
                f"jump_param={self.jump_param}, period={self.period})")


class MeasureSpec:
    """A support, one weight and smooth factor for all its arcs, and z0."""

    def __init__(self, support, weight, smooth=None, z0=None, chebyshev=False):
        if not isinstance(weight, JumpWeight):
            raise InputError("a measure needs a JumpWeight")
        if chebyshev and support.kind != "interval":
            raise CapabilityError("the inverse square root factor is only "
                                  "defined on interval supports")
        self.support = support
        self.weight = weight
        self.smooth = smooth or SmoothFactor()
        self.chebyshev = bool(chebyshev)
        self.z0 = None if z0 is None else complex(z0)
        if self.z0 is not None:
            project_to_support(support, self.z0)  # refuses a z0 off the support
        self._validate_smooth()

    def _validate_smooth(self):
        for arc in parametrize(self.support):
            ts = np.linspace(arc.t_lo, arc.t_hi, 257)
            if not np.min(self.smooth(ts)) > 0:
                raise InputError("smooth factor must stay positive on the arc")

    def point(self, z=None):
        """The evaluation point: z, or z0 when z is None, as a finite complex."""
        z = self.z0 if z is None else complex(z)
        if z is None:
            raise DomainError("no evaluation point: the measure has no z0 "
                              "and no z was given")
        if not cmath.isfinite(z):
            raise InputError(f"evaluation point {z} is not finite")
        return z

    def scaled(self, c):
        """The measure c * mu; Christoffel functions scale the same way."""
        c = float(c)
        if not c > 0:
            raise InputError("scale factor must be positive")
        return MeasureSpec(self.support, self.weight.scaled(c), self.smooth,
                           z0=self.z0, chebyshev=self.chebyshev)

    def __repr__(self):
        return (f"MeasureSpec({self.support.kind}, weight={self.weight}, "
                f"smooth={self.smooth}, z0={self.z0}, "
                f"chebyshev={self.chebyshev})")


def weight_at(measure, t, arc_index=0):
    """The weight w0(t) * v(t) at parameter t, without the arcsine factor."""
    arcs = parametrize(measure.support)
    if not 0 <= as_index(arc_index, "arc_index") < len(arcs):
        raise DomainError(f"no arc with index {arc_index}")
    arc = arcs[arc_index]
    tt = np.asarray(t, dtype=float)
    lo, hi = arc.t_lo - 1e-12, arc.t_hi + 1e-12
    if np.any(tt < lo) or np.any(tt > hi):
        raise DomainError(f"parameter {t} outside [{arc.t_lo}, {arc.t_hi}]")
    return measure.smooth(tt) * measure.weight.value(tt)


def _with_arcsine(measure, t, val):
    if measure.chebyshev:
        c, _, h, _ = measure.support.joukowski_frame
        s = (np.asarray(t, dtype=float) - c) / h
        val = val / np.sqrt(np.maximum(1.0 - s * s, 0.0))
    return val


def density_at(measure, t, arc_index=0):
    """Weight per unit arc length, including the arcsine factor if present."""
    return _with_arcsine(measure, t, weight_at(measure, t, arc_index=arc_index))


def jump_limits(measure, z=None):
    """One-sided density limits (left, right) at ``measure.point(z)``.

    The weight gives its own sides at the point's parameter t
    (``JumpWeight.sides``).  At the seam of a closed arc, where
    [t_lo, t_hi) wraps around, the left side reads the weight and the
    smooth factor at t_hi and the right side reads them at t_lo.
    """
    arc_index, t, _ = project_to_support(measure.support, measure.point(z))
    arc = parametrize(measure.support)[arc_index]
    params = np.array([t, t])
    if (measure.support.kind != "interval"
            and min(abs(t - arc.t_lo), abs(arc.t_hi - t)) < JUMP_SNAP_TOL):
        params = np.array([arc.t_hi, arc.t_lo])
    sides = [measure.weight.sides(params[0])[0],
             measure.weight.sides(params[1])[1]]
    left, right = _with_arcsine(measure, params, measure.smooth(params) * sides)
    return float(left), float(right)


# ---------------------------------------------------------------------------
# measure constructors

def _jump_point(support, t):
    """Arc 0's point at t: every closed arc starts at t_lo = 0, so a switch
    kept in its first period, or a circle's angle, lies on its first turn."""
    return complex(parametrize(support)[0].point(t))


def _jump_measure(support, A, B, jump_param, z0, smooth, chebyshev=False):
    """The measure of weight A, B switching at jump_param, of period 2 pi on
    a closed support, with z0 = "jump" placed at the switch point."""
    period = None if support.kind == "interval" else 2.0 * math.pi
    weight = JumpWeight(A, B, jump_param, period)
    if z0 == "jump":
        z0 = _jump_point(support, weight.jump_param)
    return MeasureSpec(support, weight, smooth, z0=z0, chebyshev=chebyshev)


def uniform_circle_measure(radius=1.0, center=0j, weight=1.0, z0=None):
    support = SupportSpec.make_circle(radius=radius, center=center)
    return MeasureSpec(support, JumpWeight(weight), z0=z0)


def circle_jump_measure(A=2.0, B=1.0, jump_param=math.pi / 2, radius=1.0,
                        center=0j, z0="jump", smooth=None):
    support = SupportSpec.make_circle(radius=radius, center=center)
    return _jump_measure(support, A, B, jump_param, z0, smooth)


def interval_jump_measure(a=-1.0, b=1.0, A=2.0, B=1.0, jump_param=0.0,
                          chebyshev=False, z0="jump", smooth=None):
    support = SupportSpec.make_interval(a, b)
    return _jump_measure(support, A, B, jump_param, z0, smooth, chebyshev)


def ellipse_jump_measure(a, b, A=2.0, B=1.0, jump_param=0.0, center=0j,
                         rotation=0.0, z0="jump", smooth=None):
    support = SupportSpec.make_ellipse(a, b, center=center, rotation=rotation)
    return _jump_measure(support, A, B, jump_param, z0, smooth)


def lemniscate_pullback_measure(poly, A=2.0, B=1.0, jump_param=math.pi / 2,
                                z0=None):
    """Shorthand: pull the standard circle jump back through T."""
    circ = circle_jump_measure(A=A, B=B, jump_param=jump_param)
    return pullback_to_lemniscate(circ, poly, z0=z0)


# ---------------------------------------------------------------------------
# measure transforms

def _require_unit_circle(measure, what):
    sup = measure.support
    if sup.kind != "circle" or sup.radius != 1.0 or sup.center != 0:
        raise CapabilityError(f"{what} requires a measure on the unit circle")
    if not measure.smooth.is_constant:
        raise CapabilityError(f"{what} is only implemented for constant "
                              "smooth factors")


def symmetrize_to_interval(measure):
    """Push a cosine-symmetric unit circle measure down to [-1, 1].

    With x = cos t the image measure has density w0 * v_int(x) / sqrt(1-x^2)
    where v_int inherits the jump; integrals against even test functions
    transfer with a factor two.  A 2 pi-periodic jump weight is symmetric
    under t -> -t exactly when A == B or its switch points sit at +-pi/2
    (|cos t0| <= JUMP_SNAP_TOL); any other weight raises SymmetryError.
    """
    _require_unit_circle(measure, "symmetrization")
    weight = measure.weight
    below, above, x0 = weight.A, weight.A, None
    if weight.A != weight.B:
        t0 = weight.jump_param
        if weight.period != 2.0 * math.pi or abs(math.cos(t0)) > JUMP_SNAP_TOL:
            raise SymmetryError("circle weight is not symmetric under t -> -t")
        # B holds on [t0, t0 + pi]: x <= cos(t0) when t0 is near pi/2
        below, above = ((weight.B, weight.A) if math.sin(t0) > 0
                        else (weight.A, weight.B))
        x0 = math.cos(t0)
    z0 = None
    if measure.z0 is not None:
        _, t, _ = project_to_support(measure.support, measure.z0)
        z0 = complex(min(max(math.cos(t), -1.0), 1.0))
    return _jump_measure(SupportSpec.make_interval(-1.0, 1.0), below, above,
                         x0, z0, SmoothFactor(measure.smooth.coeffs[:1]), True)


def pullback_to_lemniscate(measure, poly, z0=None):
    """Pull a unit circle measure back through T to the lemniscate |T| = 1.

    Arcs of |T| = 1 are parametrized by the image angle, at which the circle
    weight is read: the pullback of a 2 pi-periodic weight; any other weight
    raises CapabilityError.  Without a z0, the circle's z0, at angle t in
    [0, 2 pi), pulls back to arc 0's point at t, as ``auto-jump`` places it.
    """
    _require_unit_circle(measure, "lemniscate pullback")
    weight = measure.weight
    if weight.jump_param is not None and weight.period != 2.0 * math.pi:
        raise CapabilityError("lemniscate pullback needs a 2 pi-periodic "
                              "circle weight")
    support = SupportSpec.make_lemniscate(poly)
    if z0 is None and measure.z0 is not None:
        _, t, _ = project_to_support(measure.support, measure.z0)
        z0 = _jump_point(support, t)
    return MeasureSpec(support, weight, measure.smooth, z0=z0)


# ---------------------------------------------------------------------------
# measure description files

# support.params of the kinds with real parameters: the help text, the
# accepted token counts (omitted trailing values are 0), the support made
# from all the values, and all the values of a support.
_SUPPORT_PARAMS = {
    "interval": ("a b", (2,),
                 SupportSpec.make_interval,
                 lambda sup: sup.interval),
    "circle": ("radius [center_re center_im]", (1, 3),
               lambda r, cx, cy: SupportSpec.make_circle(
                   radius=r, center=complex(cx, cy)),
               lambda sup: (sup.radius, sup.center.real, sup.center.imag)),
    "ellipse": ("a b [rotation center_re center_im]", (2, 3, 5),
                lambda a, b, rot, cx, cy: SupportSpec.make_ellipse(
                    a, b, center=complex(cx, cy), rotation=rot),
                lambda sup: (*sup.axes, sup.rotation, sup.center.real,
                             sup.center.imag)),
}

_ARCSINE_FLAGS = {"0": False, "1": True, "false": False, "true": True,
                  "no": False, "yes": True}


def _finite(value, tok, key):
    if not cmath.isfinite(value):
        raise MeasureFormatError(f"{key}: {tok!r} is not a finite number")
    return value


def _parse_number(tok, key):
    try:
        return _finite(float(tok), tok, key)
    except ValueError:
        raise MeasureFormatError(f"{key}: cannot parse number {tok!r}")


def _parse_complex(tok, key):
    try:
        if "," in tok:
            re_s, im_s = tok.split(",")
            return _finite(complex(float(re_s), float(im_s)), tok, key)
        return _finite(complex(float(tok), 0.0), tok, key)
    except ValueError:
        raise MeasureFormatError(f"{key}: cannot parse complex number {tok!r}")


def _parse_support(kind, toks):
    if kind == "lemniscate":
        if not toks:
            raise MeasureFormatError("support.params for a lemniscate: "
                                     "coefficients, lowest degree first, "
                                     "re or re,im tokens")
        coeffs = [_parse_complex(t, "support.params") for t in toks]
        return SupportSpec.make_lemniscate(coeffs)
    if kind not in _SUPPORT_PARAMS:
        raise MeasureFormatError(f"unknown support.kind {kind!r}")
    help_text, counts, make, _ = _SUPPORT_PARAMS[kind]
    if len(toks) not in counts:
        raise MeasureFormatError(f"support.params for support.kind = {kind}: "
                                 + help_text)
    values = [_parse_number(t, "support.params") for t in toks]
    return make(*values, *[0.0] * (counts[-1] - len(values)))


def parse_measure_text(text):
    """Parse the key = value measure description format."""
    entries = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise MeasureFormatError(f"line {lineno}: expected key = value")
        key, val = (s.strip() for s in line.split("=", 1))
        if not key or not val:
            raise MeasureFormatError(f"line {lineno}: empty key or value")
        if key in entries:
            raise MeasureFormatError(f"line {lineno}: duplicate key {key!r}")
        entries[key] = val.strip().strip('"').strip("'")

    kind = entries.pop("support.kind", None)
    if kind is None:
        raise MeasureFormatError("missing key support.kind")
    params = entries.pop("support.params", "")
    support = _parse_support(kind, params.replace(";", " ").split())

    A = entries.pop("weight.A", None)
    B = entries.pop("weight.B", None)
    jump_param = entries.pop("weight.jump_param", None)
    w0 = entries.pop("weight.w0", "1")
    arcsine = entries.pop("weight.arcsine", "0")
    z0_spec = entries.pop("eval.z0", None)
    if entries:
        raise MeasureFormatError(f"unknown keys: {', '.join(sorted(entries))}")

    smooth = SmoothFactor([_parse_number(t, "weight.w0") for t in w0.split()])
    if A is None:
        raise MeasureFormatError("missing key weight.A")
    A = _parse_number(A, "weight.A")
    if B is not None:
        B = _parse_number(B, "weight.B")
    elif jump_param is not None:
        raise MeasureFormatError("weight.jump_param needs weight.B")
    if jump_param is not None:
        jump_param = _parse_number(jump_param, "weight.jump_param")
    elif B is not None and B != A:
        raise MeasureFormatError("weight.jump_param is required when "
                                 "weight.A and weight.B differ")

    flag = arcsine.strip().lower()
    if flag not in _ARCSINE_FLAGS:
        raise MeasureFormatError(f"weight.arcsine: expected one of "
                                 f"{', '.join(_ARCSINE_FLAGS)}, got {arcsine!r}")
    chebyshev = _ARCSINE_FLAGS[flag]
    if chebyshev and kind != "interval":
        raise MeasureFormatError("weight.arcsine only applies to intervals")

    if z0_spec == "auto-jump" and jump_param is None:
        raise MeasureFormatError("auto-jump needs a jump weight")
    z0 = z0_spec and ("jump" if z0_spec == "auto-jump" else
                      _parse_complex(z0_spec, "point (re,im or auto-jump)"))
    return _jump_measure(support, A, B, jump_param, z0, smooth, chebyshev)


def _resolve_z0(z0_spec, support, weight):
    """A point written 're', 're,im' or 'auto-jump' (the first jump point)."""
    if z0_spec != "auto-jump":
        return _parse_complex(z0_spec, "point (re,im or auto-jump)")
    if weight.jump_param is None:
        raise MeasureFormatError("auto-jump needs a jump weight")
    return _jump_point(support, weight.jump_param)


def format_measure(measure):
    """Serialize a measure back into the key = value text format.

    support.params takes the fewest accepted tokens whose omitted values
    are all 0.
    """
    sup = measure.support
    num = lambda x: repr(float(x))
    if sup.kind == "lemniscate":
        toks = [f"{num(c.real)},{num(c.imag)}" for c in sup.poly.coeffs]
    else:
        _, counts, _, values_of = _SUPPORT_PARAMS[sup.kind]
        values = values_of(sup)
        count = next(c for c in counts if not any(values[c:]))
        toks = [num(v) for v in values[:count]]
    lines = [f"support.kind = {sup.kind}", "support.params = " + " ".join(toks)]

    weight = measure.weight
    lines.append(f"weight.A = {num(weight.A)}")
    if weight.jump_param is not None:
        lines.append(f"weight.B = {num(weight.B)}")
        lines.append(f"weight.jump_param = {num(weight.jump_param)}")
    lines.append("weight.w0 = " + " ".join(num(c) for c in measure.smooth.coeffs))
    if measure.chebyshev:
        lines.append("weight.arcsine = 1")
    if measure.z0 is not None:
        lines.append(f"eval.z0 = {num(measure.z0.real)},{num(measure.z0.imag)}")
    return "\n".join(lines) + "\n"


def load_measure_file(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise MeasureFormatError(f"{path}: not UTF-8 text ({exc.reason})")
    return parse_measure_text(text)


def save_measure_file(measure, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_measure(measure))
