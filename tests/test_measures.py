import cmath
import math
import pathlib

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from xlab.cli import main
from xlab.errors import (CapabilityError, DomainError, InputError,
                         MeasureFormatError, SymmetryError)
from xlab.geometry import ComplexPolynomial, SupportSpec, parametrize
from xlab.measures import (JumpWeight, MeasureSpec,
                           SmoothFactor, circle_jump_measure, density_at,
                           ellipse_jump_measure, format_measure,
                           interval_jump_measure, jump_limits,
                           lemniscate_pullback_measure, load_measure_file,
                           parse_measure_text, pullback_to_lemniscate, symmetrize_to_interval,
                           uniform_circle_measure, weight_at)
from xlab.quadrature import build_rule, integrate

MEASURES = pathlib.Path(__file__).resolve().parent.parent / "measures"


def test_jump_weight_periodic_sides():
    w = JumpWeight(2.0, 1.0, math.pi / 2, period=2.0 * math.pi)
    # B occupies the closed half-period starting at the jump parameter
    assert w.value(math.pi / 2) == 1.0
    assert w.value(3 * math.pi / 2) == 1.0
    assert w.value(0.0) == 2.0
    assert w.value(math.pi) == 1.0
    # one-sided limits (left, right) at z0: (A, B) at the jump, (B, A) at
    # its antipode, whatever parameter names the point
    for t, want in ((math.pi / 2, (2.0, 1.0)), (3 * math.pi / 2, (1.0, 2.0)),
                    (math.pi / 2 + 2.0 * math.pi, (2.0, 1.0)),
                    (-math.pi / 2, (1.0, 2.0))):
        m = circle_jump_measure(z0=cmath.exp(1j * t))
        assert jump_limits(m) == want, t
    for jump_param in (3 * math.pi / 2, -math.pi / 2, math.pi / 2 + 2.0 * math.pi):
        assert jump_limits(circle_jump_measure(jump_param=jump_param)) == (2.0, 1.0)


def test_jump_weight_open_arc_sides():
    w = JumpWeight(2.0, 1.0, 0.0)
    assert w.value(0.0) == 2.0
    assert w.value(-1e-9) == 2.0
    assert w.value(1e-9) == 1.0
    # the smooth factor and the arcsine factor at the jump scale both sides
    smooth = SmoothFactor([1.0, 0.5])
    m = interval_jump_measure(jump_param=0.3, smooth=smooth)
    assert jump_limits(m) == (2.0 * 1.15, 1.15)
    m = interval_jump_measure(jump_param=0.3, smooth=smooth, chebyshev=True)
    scale = 1.15 / math.sqrt(1.0 - 0.3 ** 2)
    assert jump_limits(m) == pytest.approx((2.0 * scale, scale), rel=1e-15)


def test_jump_weight_breakpoints_and_snap():
    w = JumpWeight(2.0, 1.0, math.pi / 2, period=2.0 * math.pi)
    assert np.allclose(w.breakpoints(0.0, 2.0 * math.pi),
                       [math.pi / 2, 3 * math.pi / 2])
    # a parameter within JUMP_SNAP_TOL of a switch point sits at it
    assert list(w.sides(math.pi / 2 + 5e-10)) == [2.0, 1.0]
    assert list(w.sides(3 * math.pi / 2 - 5e-10)) == [1.0, 2.0]
    assert list(w.sides(math.pi / 2 + 1e-6)) == [1.0, 1.0]
    # 1e-9 is below the ulp of a parameter beyond about 1.7e7: there each
    # side is read 8 ulps away
    assert list(JumpWeight(2.0, 1.0, 1e9 / 3).sides(1e9 / 3)) == [2.0, 1.0]


def _stepping_breakpoints(w, t_lo, t_hi):
    # the switch points inside (t_lo, t_hi) found by stepping through them
    step = 0.5 * w.period
    k = math.floor((t_lo - w.jump_param) / step) + 1
    out = []
    while w.jump_param + k * step < t_hi - 1e-14:
        if w.jump_param + k * step > t_lo + 1e-14:
            out.append(w.jump_param + k * step)
        k += 1
    return out


@settings(max_examples=150, derandomize=True, deadline=None)
@given(t0=st.floats(-20.0, 20.0),
       period=st.sampled_from([2.0 * math.pi, 1.0]) | st.floats(0.1, 10.0),
       t_lo=st.floats(-30.0, 30.0), span=st.floats(0.0, 50.0),
       hits=st.tuples(st.integers(-5, 5), st.integers(-5, 8)),
       on=st.sampled_from(["none", "lo", "hi", "both"]))
def test_breakpoints_match_the_stepping_loop(t0, period, t_lo, span, hits, on):
    # the k range by floor and ceil gives what stepping k gives, also with
    # an end exactly on a switch point
    w = JumpWeight(2.0, 1.0, t0, period=period)
    t_hi = t_lo + span
    if on in ("lo", "both"):
        t_lo = t0 + hits[0] * 0.5 * period
    if on in ("hi", "both"):
        t_hi = t0 + hits[1] * 0.5 * period
    assert w.breakpoints(t_lo, t_hi) == _stepping_breakpoints(w, t_lo, t_hi)


def test_jump_weight_positivity_validation():
    with pytest.raises(InputError):
        JumpWeight(-1.0, 1.0, 0.0)
    with pytest.raises(InputError):
        JumpWeight(2.0, 0.0, 0.0)
    # values, jump parameter and period must be finite; an interval measure
    # with a nan jump parameter would build a rule without a jump
    nan, inf = float("nan"), float("inf")
    for args in ((inf, 1.0, 0.0), (2.0, 1.0, nan, 2 * math.pi),
                 (2.0, 1.0, inf), (2.0, 1.0, 0.0, nan)):
        with pytest.raises(InputError, match="finite"):
            JumpWeight(*args)
    for value in (inf, nan):
        with pytest.raises(InputError, match="positive and finite"):
            JumpWeight(value)
    with pytest.raises(InputError, match="finite"):
        interval_jump_measure(jump_param=nan)


def test_weight_without_switch_parameter_is_constant():
    w = JumpWeight(2.0)
    assert (w.A, w.B, w.jump_param) == (2.0, 2.0, None)
    assert np.array_equal(w.value([-3.0, 0.0, 7.0]), [2.0, 2.0, 2.0])
    assert w.breakpoints(-10.0, 10.0) == [] and list(w.sides(0.0)) == [2.0, 2.0]
    assert JumpWeight(2.0, 2.0).jump_param is None
    # two values need the parameter where the weight switches
    with pytest.raises(InputError, match="jump_param"):
        JumpWeight(2.0, 1.0)
    # with a switch parameter, A = B keeps its switch points
    assert JumpWeight(2.0, 2.0, 0.5).breakpoints(0.0, 1.0) == [0.5]


def test_weight_and_density_at():
    m = circle_jump_measure()
    assert float(weight_at(m, 0.2)) == 2.0
    assert float(weight_at(m, 2.0)) == 1.0
    mi = symmetrize_to_interval(circle_jump_measure())
    x = 0.6
    expected = 2.0 / math.sqrt(1.0 - x * x)
    assert abs(float(density_at(mi, x)) - expected) < 1e-14
    # the arc index is an integer, numpy integers included
    assert float(weight_at(m, 0.2, arc_index=np.int64(0))) == 2.0
    for at in (weight_at, density_at):
        for index in (0.0, "0"):
            with pytest.raises(InputError, match="integer"):
                at(m, 0.3, arc_index=index)


def test_jump_limits_left_right():
    assert jump_limits(circle_jump_measure()) == (2.0, 1.0)
    mi = symmetrize_to_interval(circle_jump_measure())
    assert jump_limits(mi) == (1.0, 2.0)


def test_smooth_factor_validation():
    support = uniform_circle_measure().support
    # 1 - 2t goes negative on [0, 2 pi]
    with pytest.raises(InputError, match="positive"):
        MeasureSpec(support, JumpWeight(1.0), SmoothFactor([1.0, -2.0]))
    with pytest.raises(InputError, match="JumpWeight"):
        MeasureSpec(support, SmoothFactor())
    # a factor that reads nan on the arc is not positive there, and a
    # SmoothFactor takes finite coefficients only
    with pytest.raises(InputError, match="positive"):
        MeasureSpec(support, JumpWeight(1.0), lambda t: t * math.nan)
    with pytest.raises(InputError, match="finite"):
        SmoothFactor([1.0, math.inf])


def test_measure_scaling():
    m = circle_jump_measure()
    m2 = m.scaled(2.5)
    assert float(weight_at(m2, 0.0)) == 5.0
    assert jump_limits(m2) == (5.0, 2.5)
    with pytest.raises(InputError):
        m.scaled(0.0)


def test_symmetrize_matches_circle_integrals():
    circle = circle_jump_measure()
    interval = symmetrize_to_interval(circle)
    assert interval.chebyshev
    assert abs(interval.z0) < 1e-12
    rc = build_rule(circle, 16)
    ri = build_rule(interval, 16)
    # pushforward convention: circle integral = 2 x interval integral
    targets = {0: 3.0 * math.pi, 2: 1.5 * math.pi}
    for k in range(4):
        lhs = complex(integrate(rc, lambda z: z.real ** k)).real
        rhs = complex(integrate(ri, lambda z: z.real ** k)).real
        assert abs(lhs - 2.0 * rhs) < 1e-10 * max(1.0, abs(lhs))
        if k in targets:
            assert abs(lhs - targets[k]) < 1e-12


def test_symmetrize_rejects_asymmetric_and_nonunit():
    with pytest.raises(SymmetryError):
        symmetrize_to_interval(circle_jump_measure(jump_param=math.pi / 4))
    with pytest.raises(CapabilityError):
        symmetrize_to_interval(circle_jump_measure(radius=2.0))


@pytest.mark.parametrize("d", [1e-6, 1e-3, 1e-2])
def test_symmetrize_rejects_jump_near_fold_axis(d):
    # switch points at pi/2 + d and 3 pi/2 + d are not mirror images: the
    # image would jump at x = -sin(d), not at the image z0
    with pytest.raises(SymmetryError):
        symmetrize_to_interval(circle_jump_measure(jump_param=math.pi / 2 + d))


def test_symmetrize_jump_at_three_halves_pi():
    circle = circle_jump_measure(jump_param=3 * math.pi / 2)
    assert jump_limits(circle) == (2.0, 1.0)
    interval = symmetrize_to_interval(circle)
    assert jump_limits(interval) == (2.0, 1.0)
    assert float(weight_at(interval, 0.5)) == 1.0
    # same-valued sides and constant weights fold to constants
    for m in (circle_jump_measure(A=1.5, B=1.5, jump_param=0.7),
              uniform_circle_measure(weight=1.5)):
        assert symmetrize_to_interval(m).weight.jump_param is None


# supports for the one-sided limits: a circle, an ellipse, the z^2
# lemniscate (one component, winding 2) and a cubic's (winding 1 and 2)
_SIDE_SUPPORTS = {
    "circle": SupportSpec.make_circle(),
    "ellipse": SupportSpec.make_ellipse(1.25, 0.75),
    "z2": SupportSpec.make_lemniscate([0.0, 0.0, 1.0]),
    "cubic": SupportSpec.make_lemniscate([0.3, -1.5, 0.0, 1.0]),
}


@settings(max_examples=200, derandomize=True, deadline=None)
@given(name=st.sampled_from(sorted(_SIDE_SUPPORTS)), arc_pick=st.integers(0, 1),
       periodic=st.booleans(), u=st.floats(0.05, 0.95),
       where=st.sampled_from(["switch", "antipode", "seam-lo", "seam-hi",
                              "random"]),
       v=st.floats(0.0, 0.999))
def test_jump_limits_match_the_density_either_side(name, arc_pick, periodic, u,
                                                   where, v):
    # jump_limits at z against density_at just before and after z's
    # parameter, wrapped at the seam, for switch points, antipodes, seams
    # and other points, with a sloped smooth factor
    support = _SIDE_SUPPORTS[name]
    arcs = parametrize(support)
    arc_index = arc_pick % len(arcs)
    arc = arcs[arc_index]
    if periodic:  # a switch on any turn of the arc, and its antipode
        weight = JumpWeight(2.0, 1.0, u * math.pi, period=2.0 * math.pi)
        turns = math.floor(v * arc.span / (2.0 * math.pi))
        switch = u * math.pi + 2.0 * math.pi * turns
    else:  # one switch, and no antipode
        weight = JumpWeight(2.0, 1.0, arc.t_lo + u * arc.span)
        switch = weight.jump_param
        assume(where != "antipode")
    t = {"switch": switch, "antipode": switch + math.pi, "seam-lo": arc.t_lo,
         "seam-hi": arc.t_hi, "random": arc.t_lo + v * arc.span}[where]
    if where == "random":  # off the switch points and the seam
        assume(all(abs(t - b) > 1e-6 for b in weight.breakpoints(arc.t_lo - 1.0,
                                                                 arc.t_hi + 1.0)))
        assume(min(t - arc.t_lo, arc.t_hi - t) > 1e-6)
    measure = MeasureSpec(support, weight, SmoothFactor([1.0, 0.03]))

    def wrapped(s):
        return s + arc.span if s < arc.t_lo else s - arc.span if s > arc.t_hi else s

    want = [float(density_at(measure, wrapped(t + d), arc_index=arc_index))
            for d in (-1e-7, 1e-7)]
    got = jump_limits(measure, arc.point(t))
    assert got == pytest.approx(want, abs=1e-6), (where, t, weight)


def test_default_pullback_point_is_the_auto_jump_point():
    # lemniscate_pullback_measure and eval.z0 = auto-jump place the jump
    # point of the same curve and the same jump at the same place
    for coeffs in ([0.0, 0.0, 1.0], [-2.0, 0.0, 1.0], [0.3, -1.5, 0.0, 1.0],
                   [0.0, -0.5, 0.0, 1.0]):
        pulled = lemniscate_pullback_measure(ComplexPolynomial(coeffs))
        text = ("support.kind = lemniscate\nsupport.params = "
                + " ".join(repr(float(c)) for c in coeffs)
                + f"\nweight.A = 2\nweight.B = 1\n"
                f"weight.jump_param = {math.pi / 2!r}\neval.z0 = auto-jump\n")
        assert abs(pulled.z0 - parse_measure_text(text).z0) <= 1e-12, coeffs


def test_pullback_weight_composition():
    poly = ComplexPolynomial([0.0, 0.0, 1.0])
    m = lemniscate_pullback_measure(poly, A=2.0, B=1.0)
    # weight at z equals the circle weight at T(z); theta is the image angle
    assert float(weight_at(m, math.pi / 4)) == 2.0
    assert float(weight_at(m, 2.0)) == 1.0
    # identity pullback reproduces the circle measure values
    ident = pullback_to_lemniscate(circle_jump_measure(),
                                   ComplexPolynomial([0.0, 1.0]))
    for t in (0.3, 1.9, 4.4):
        assert (float(weight_at(ident, t))
                == float(weight_at(circle_jump_measure(), t)))


def test_pullback_needs_a_2pi_periodic_weight():
    # an aperiodic jump at t = 1 would read 2 at theta = 0.5 and 1 at
    # theta = 2 pi + 0.5, over the same circle point: it has no pullback
    poly = ComplexPolynomial([0.0, 0.0, 1.0])
    aperiodic = MeasureSpec(SupportSpec.make_circle(), JumpWeight(2.0, 1.0, 1.0))
    with pytest.raises(CapabilityError, match="2 pi-periodic"):
        pullback_to_lemniscate(aperiodic, poly)
    # periodic and constant weights pull back unchanged, and read the same
    # on every turn of the image angle
    for circle in (circle_jump_measure(), circle_jump_measure(jump_param=1.0),
                   uniform_circle_measure(weight=1.5)):
        pulled = pullback_to_lemniscate(circle, poly)
        assert pulled.weight is circle.weight
        for t in (0.5, 2.0, 4.0):
            want = float(weight_at(circle, t))
            assert [float(weight_at(pulled, t + 2.0 * math.pi * k))
                    for k in (0, 1)] == [want, want]


def test_pullback_default_z0_is_first_preimage():
    poly = ComplexPolynomial([0.0, 0.0, 1.0])
    m = lemniscate_pullback_measure(poly)
    expected = cmath.exp(-1j * 3.0 * math.pi / 4)
    assert abs(m.z0 - expected) < 1e-12


def test_measure_file_roundtrip():
    for measure in (uniform_circle_measure(z0=1.0), circle_jump_measure(),
                    ellipse_jump_measure(1.25, 0.75),
                    interval_jump_measure(),
                    symmetrize_to_interval(circle_jump_measure()),
                    lemniscate_pullback_measure(
                        ComplexPolynomial([0.0, 0.0, 1.0]),
                        z0=cmath.exp(1j * math.pi / 4))):
        text = format_measure(measure)
        again = parse_measure_text(text)
        assert format_measure(again) == text
    # a weight without a switch parameter is written as weight.A alone
    text = format_measure(MeasureSpec(ellipse_jump_measure(1.25, 0.75).support,
                                      JumpWeight(2.5), z0=1.25))
    assert "weight.A = 2.5\nweight.w0" in text
    assert format_measure(parse_measure_text(text)) == text
    # every shipped measure file reads back byte for byte
    files = sorted(MEASURES.glob("*.measure"))
    assert files
    for path in files:
        assert format_measure(load_measure_file(path)) == path.read_text()


def test_format_keeps_shortest_support_params():
    # trailing support.params that are 0 are left out, and only those
    for measure, params in (
            (ellipse_jump_measure(1.25, 0.75, rotation=0.3), "1.25 0.75 0.3"),
            (ellipse_jump_measure(1.25, 0.75, center=0.5j),
             "1.25 0.75 0.0 0.0 0.5"),
            (circle_jump_measure(radius=2.0, center=0.5), "2.0 0.5 0.0"),
            (uniform_circle_measure(), "1.0"),
            (interval_jump_measure(a=0.0, b=3.0, jump_param=1.0), "0.0 3.0")):
        text = format_measure(measure)
        assert f"support.params = {params}\n" in text
        assert format_measure(parse_measure_text(text)) == text


def test_parse_rejects_bad_input():
    good = format_measure(circle_jump_measure())
    with pytest.raises(MeasureFormatError):
        parse_measure_text(good + "weight.A = 3.0\n")  # duplicate key
    with pytest.raises(MeasureFormatError):
        parse_measure_text(good + "weight.shape = round\n")  # unknown key
    with pytest.raises(MeasureFormatError):
        parse_measure_text("support.kind = hexagon\n")
    with pytest.raises(MeasureFormatError):
        parse_measure_text("support.kind = circle\n")  # missing weight
    with pytest.raises(InputError):
        parse_measure_text(good.replace("weight.A = 2.0", "weight.A = -2.0"))


def test_parse_equal_jump_values_is_constant(tmp_path, capsys):
    base = "support.kind = circle\nsupport.params = 1.0\nweight.A = 2\n"
    for text in ("weight.B = 2\n", "weight.B = 2.0\n", "weight.B = 2e0\n"):
        weight = parse_measure_text(base + text).weight
        assert weight.jump_param is None and weight.A == weight.B == 2.0
    with pytest.raises(MeasureFormatError, match="jump_param"):
        parse_measure_text(base + "weight.B = 3\n")
    path = tmp_path / "unequal.measure"
    path.write_text(base + "weight.B = 3\n")
    assert main(["lambda", "--measure", str(path), "--z", "1,0",
                 "--n", "3"]) == 2
    assert "jump_param" in capsys.readouterr().err


def test_parse_refuses_a_jump_param_without_B():
    # a switch point with no second value is refused, not read as the
    # constant weight A with the jump_param dropped
    text = ("support.kind = circle\nsupport.params = 1.0\nweight.A = 2\n"
            "weight.jump_param = 1.0\n")
    for extra in ("", "eval.z0 = auto-jump\n"):
        with pytest.raises(MeasureFormatError,
                           match="weight.jump_param needs weight.B"):
            parse_measure_text(text + extra)
    weight = parse_measure_text(text + "weight.B = 2\n").weight
    assert (weight.A, weight.B, weight.jump_param) == (2.0, 2.0, 1.0)


def test_parse_arcsine_flag():
    base = "support.kind = interval\nsupport.params = -1 1\nweight.A = 1\n"
    for text, want in (("0", False), ("1", True), ("true", True),
                       ("False", False), ("YES", True), ("No", False)):
        measure = parse_measure_text(base + f"weight.arcsine = {text}\n")
        assert measure.chebyshev is want
    for text in ("off", "on", "2", "y"):
        with pytest.raises(MeasureFormatError, match="arcsine"):
            parse_measure_text(base + f"weight.arcsine = {text}\n")


def test_parse_auto_jump_resolution():
    text = ("support.kind = circle\n"
            "support.params = 1.0\n"
            "weight.A = 2.0\n"
            "weight.B = 1.0\n"
            "weight.jump_param = 1.5707963267948966\n"
            "eval.z0 = auto-jump\n")
    m = parse_measure_text(text)
    assert abs(m.z0 - 1j) < 1e-12


def test_parse_comments_and_defaults():
    text = ("# a plain unit circle\n"
            "support.kind = circle\n"
            "support.params = 1.0\n"
            "weight.A = 1.5\n")
    m = parse_measure_text(text)
    assert m.support.kind == "circle"
    assert m.z0 is None
    assert float(weight_at(m, 1.0)) == 1.5


def test_z0_must_lie_on_support():
    with pytest.raises(DomainError):
        uniform_circle_measure(z0=2.0 + 0j)
