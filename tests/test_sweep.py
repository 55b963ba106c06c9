import cmath
import functools
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from mpmath import mp

import xlab.christoffel as christoffel_mod
import xlab.sweep as sweep_mod
from xlab.christoffel import (christoffel_lambda, kernel_prefix,
                              orthonormalize)
from xlab.equilibrium import equilibrium_density
from xlab.errors import DegeneracyError, DomainError, InputError, NumericError
from xlab.geometry import (ComplexPolynomial, SupportSpec, parametrize,
                           preimages, project_to_support)
from xlab.measures import (JumpWeight, MeasureSpec,
                           SmoothFactor, circle_jump_measure,
                           ellipse_jump_measure, interval_jump_measure,
                           jump_limits, lemniscate_pullback_measure,
                           uniform_circle_measure)
from xlab.quadrature import QuadratureRule, build_rule
from xlab.suites import standard_jump_measures
from xlab.sweep import (SWEEP_CSV_HEADER, SweepResult, SweepRow, extrapolate,
                        format_sweep_csv, geometric_schedule, jump_factor,
                        predicted_limit, run_sweep, write_sweep_csv)


def test_jump_factor_values():
    assert jump_factor(2.0, 1.0) == pytest.approx(1.0 / math.log(2.0),
                                                  rel=1e-15)
    assert jump_factor(4.0, 1.0) == pytest.approx(3.0 / math.log(4.0),
                                                  rel=1e-15)
    assert jump_factor(3.7, 3.7) == 3.7
    assert jump_factor(1.0, 2.0) == jump_factor(2.0, 1.0)
    for bad in ((0.0, 1.0), (-2.0, 1.0), (1.0, -1.0), (1e300, 1e-10)):
        with pytest.raises(DomainError):
            jump_factor(*bad)


def test_jump_factor_between_values():
    for a, b in ((2.0, 1.0), (5.0, 0.1), (1.001, 1.0)):
        f = jump_factor(a, b)
        assert min(a, b) < f < max(a, b)


def test_predicted_limits_closed_forms():
    targets = {"circle": 2.0 * math.pi / math.log(2.0),
               "interval": math.pi / math.log(2.0),
               "lemniscate": 2.0 * math.pi / math.log(2.0),
               "ellipse": 3.0 * math.pi / (2.0 * math.log(2.0))}
    for name, measure in standard_jump_measures().items():
        value = predicted_limit(measure)
        assert value == pytest.approx(targets[name], rel=1e-12)


def test_predicted_limit_scaling():
    m = circle_jump_measure()
    base = predicted_limit(m)
    for c in (0.5, 2.0, 10.0):
        assert predicted_limit(m.scaled(c)) == pytest.approx(c * base,
                                                             rel=1e-12)
    # a nan point is refused as input before it is placed on the support
    with pytest.raises(InputError, match="not finite") as err:
        predicted_limit(m, z=float("nan"))
    assert not isinstance(err.value, DomainError)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(b_exp=st.floats(-300.0, 300.0), x_exp=st.floats(-15.0, 3.0),
       sign=st.sampled_from([1.0, -1.0]))
@example(b_exp=math.log10(2.0), x_exp=math.log10(2e-12), sign=1.0)
@example(b_exp=-300.0, x_exp=-11.0, sign=-1.0)
def test_jump_factor_is_the_exact_log_mean(b_exp, x_exp, sign):
    # B log-uniform over the float range and A = B (1 + x), |x| log-uniform
    # in [1e-15, 1e3]: the logarithmic mean to rounding, against 40 digits
    B = 10.0 ** b_exp
    A = B * (1.0 + sign * 10.0 ** x_exp)
    assume(A > 0 and A != B)
    with mp.workdps(40):
        want = (mp.mpf(A) - mp.mpf(B)) / (mp.log(A) - mp.log(B))
        assert abs(jump_factor(A, B) - want) <= 1e-15 * want, (A, B)
    assert jump_factor(A, A) == A and jump_factor(B, B) == B


def _similar_measures(kind, R, shift, turn):
    """The unit measure of ``kind``, its image under the similarity map
    z -> shift + R e^{i turn} z, and the map.  An interval moves by
    Re shift only and a circle turns with its jump; the z^2 lemniscate is
    only scaled, as the lemniscate of T(z / R)."""
    if kind == "interval":
        move = lambda z: shift.real + R * z
        return (interval_jump_measure(jump_param=1.0 / 3.0),
                interval_jump_measure(move(-1.0), move(1.0),
                                      jump_param=move(1.0 / 3.0)), move)
    if kind == "lemniscate":
        move = lambda z: R * z
        return (lemniscate_pullback_measure(ComplexPolynomial([0, 0, 1.0])),
                lemniscate_pullback_measure(ComplexPolynomial([0, 0, R ** -2])),
                move)
    move = lambda z: shift + R * cmath.exp(1j * turn) * z
    if kind == "circle":
        return (circle_jump_measure(),
                circle_jump_measure(radius=R, center=shift,
                                    jump_param=math.pi / 2 + turn), move)
    return (ellipse_jump_measure(1.25, 0.75),
            ellipse_jump_measure(1.25 * R, 0.75 * R, center=shift,
                                 rotation=turn), move)


@pytest.mark.parametrize("kind", ["circle", "interval", "lemniscate",
                                  "ellipse"])
@settings(max_examples=10, derandomize=True, deadline=None)
@given(exponent=st.floats(-3.0, 9.0),
       shift=st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)),
       turn=st.floats(0.0, 2.0 * math.pi))
@example(exponent=9.0, shift=(3.0, 0.0), turn=0.4)
@example(exponent=-3.0, shift=(0.0, 0.0), turn=0.0)
def test_lambda_and_limit_follow_a_similarity_map(kind, exponent, shift, turn):
    # lambda_n and 1 / omega both scale with the curve, so lambda_n / R and
    # predicted_limit / R are those of the unit measure, the one-sided
    # limits are the same, and a point is on the image exactly where its
    # preimage is on the unit curve
    R = 10.0 ** exponent
    unit, image, move = _similar_measures(kind, R, R * complex(*shift), turn)
    assert abs(image.z0 - move(unit.z0)) <= 1e-12 * R
    MeasureSpec(image.support, image.weight, z0=move(unit.z0))
    assert jump_limits(image) == jump_limits(unit)
    for n in (16, 64):
        want = christoffel_lambda(unit, n).lambda_n
        got = christoffel_lambda(image, n).lambda_n / R
        assert abs(got - want) <= 1e-12 * want, n
    want = predicted_limit(unit)
    assert abs(predicted_limit(image) / R - want) <= 1e-12 * want
    i, t, _ = project_to_support(unit.support, unit.z0)
    v = complex(parametrize(unit.support)[i].velocity(t))
    normal = -1j * v / abs(v)
    project_to_support(image.support, move(unit.z0 + 1e-10 * normal))
    with pytest.raises(DomainError, match="not on the"):
        project_to_support(image.support, move(unit.z0 + 1e-6 * normal))


def test_a_large_circle_takes_its_own_point():
    measure = circle_jump_measure(radius=1e9, z0=1e9j)
    assert jump_limits(measure) == (2.0, 1.0)


@pytest.mark.parametrize("jump", [1e4, 1e6, 1e9, -1e9, 7.0, -math.pi / 2,
                                  2.5 * math.pi, -1e-17])
def test_a_periodic_switch_named_by_any_representative(jump):
    # t0 + 2 pi k names the same switch: the measure keeps it in its first
    # period, so any representative gives the first one's measure, bit for
    # bit; -1e-17 % (2 pi) rounds up to 2 pi, whose first representative is 0
    z2 = ComplexPolynomial([0.0, 0.0, 1.0])
    for make in (lambda t0: circle_jump_measure(jump_param=t0),
                 lambda t0: ellipse_jump_measure(1.25, 0.75, jump_param=t0),
                 lambda t0: lemniscate_pullback_measure(z2, jump_param=t0)):
        measure, first = make(jump), make(jump % (2.0 * math.pi))
        assert jump_limits(measure) == jump_limits(first) == (2.0, 1.0)
        assert measure.weight.jump_param == first.weight.jump_param
        assert measure.z0 == first.z0
        assert predicted_limit(measure) == predicted_limit(first)


def test_lambda_follows_a_real_shift_of_the_support():
    # the interval's route runs on [-1, 1] from its node angles, so on
    # [c - 1, c + 1] it meets the unit interval's numbers however far off c
    # is; the Gram routes take a circle and an ellipse at centre 1e3
    schedule = geometric_schedule(32, 512)
    cases = [(interval_jump_measure(jump_param=0.0, chebyshev=True),
              interval_jump_measure(c - 1.0, c + 1.0, jump_param=c,
                                    chebyshev=True), 1e-14)
             for c in (1e3, 1e6, 1e8)]
    cases += [(circle_jump_measure(), circle_jump_measure(center=1e3), 1e-10),
              (ellipse_jump_measure(1.25, 0.75),
               ellipse_jump_measure(1.25, 0.75, center=1e3), 1e-10)]
    for unit, shifted, residual in cases:
        base, moved = (run_sweep(m, schedule=schedule) for m in (unit, shifted))
        assert moved.stages["residual_max"] <= residual
        assert all(r.ok for r in moved.rows)
        assert max(abs(g.n_lambda_n - w.n_lambda_n) / w.n_lambda_n
                   for g, w in zip(moved.rows, base.rows)) <= 1e-13
        if shifted.support.kind == "interval":
            for n in (16, 64, 256):
                want = christoffel_lambda(unit, n).lambda_n
                got = christoffel_lambda(shifted, n).lambda_n
                assert abs(got - want) <= 1e-13 * want, n


def test_overflowing_rule_or_gram_matrix_is_refused():
    # weights of 1e308 sum to inf, and build_rule refuses the rule; on the
    # ellipse the mass 1.28e308 is finite but G[0, 0], about 4 mu_0, is not,
    # so the Gram factor stops at degree 0 and every row fails with the
    # error christoffel_lambda raises
    big = {"A": 1e308, "B": 1e308}
    for measure in (circle_jump_measure(**big), interval_jump_measure(**big),
                    lemniscate_pullback_measure(ComplexPolynomial([0, 0, 1]),
                                                **big)):
        with pytest.raises(NumericError, match="finite sum"):
            christoffel_lambda(measure, 8)
        with pytest.raises(NumericError, match="finite sum"):
            run_sweep(measure, schedule=[4, 8])
    measure = ellipse_jump_measure(1.25, 0.75, A=2e307, B=2e307)
    with pytest.raises(DegeneracyError) as err:
        christoffel_lambda(measure, 8)
    assert err.value.achieved_degree == -1
    assert str(err.value) == ("the gram route broke down at degree 0: the "
                              "measure supports no polynomial")
    result = run_sweep(measure, schedule=[4, 8])
    assert result.stages["achieved_degree"] == -1
    assert [row.note for row in result.rows] == [str(err.value)] * 2


def test_seam_of_a_closed_arc_is_a_jump_of_the_smooth_factor():
    # w0(t) = 1 + 0.1 t differs at the two ends of [0, 2 pi): at z0 on the
    # seam the left side reads w0(2 pi) and the right side w0(0).  On the
    # ellipse the weight switches there too (A on the left, B on the right);
    # on the circle, z0 = 1 lies inside the A segment
    w0 = SmoothFactor([1.0, 0.1])
    ellipse = ellipse_jump_measure(1.25, 0.75, smooth=w0)
    circle = circle_jump_measure(smooth=w0, z0=1.0)
    end = 2.0 * math.pi
    for measure, left, right in ((ellipse, 2.0 * w0(end), 1.0 * w0(0.0)),
                                 (circle, 2.0 * w0(end), 2.0 * w0(0.0))):
        density = equilibrium_density(measure.support)(measure.z0)
        want = jump_factor(left, right) / density
        assert abs(predicted_limit(measure) - want) <= 1e-12 * want
    result = run_sweep(ellipse, schedule=geometric_schedule(32, 512))
    want = predicted_limit(ellipse)
    assert abs(extrapolate(result) - want) <= 0.05 * want


def test_seam_of_a_closed_arc_is_a_jump_of_an_aperiodic_weight():
    # A on [t_lo, 1], B after: at z0 on the seam the left side reads B at
    # t_hi and the right side A at t_lo, and the sweep converges to the
    # log-mean of (B, A), not to A over the equilibrium density
    supports = (SupportSpec.make_circle(), SupportSpec.make_ellipse(1.25, 0.75),
                SupportSpec.make_lemniscate([0.0, 0.0, 1.0]))
    for support in supports:
        arc = parametrize(support)[0]
        z0 = arc.point(arc.t_lo)
        measure = MeasureSpec(support, JumpWeight(2.0, 1.0, 1.0), z0=z0)
        result = run_sweep(measure, schedule=geometric_schedule(32, 512))
        limit = extrapolate(result)
        assert abs(predicted_limit(measure) - limit) <= 1e-3 * limit, support.kind
        # a switch at t_lo or at t_hi leaves one value on either side of the
        # seam: B just after t_lo and wrapping round from t_hi, or A throughout
        for jump, value in ((arc.t_lo, 1.0), (arc.t_hi, 2.0)):
            measure = MeasureSpec(support, JumpWeight(2.0, 1.0, jump), z0=z0)
            assert jump_limits(measure) == (value, value), (support.kind, jump)


def test_geometric_schedule():
    s = geometric_schedule(8, 512, 1.25)
    assert s[0] == 8 and s[-1] == 512
    assert all(b > a for a, b in zip(s, s[1:]))
    assert geometric_schedule(8, 8, 1.25) == [8]
    with pytest.raises(InputError):
        geometric_schedule(0, 10, 1.25)
    for ratio in (1.0, float("nan"), float("inf")):
        with pytest.raises(InputError, match="ratio"):
            geometric_schedule(8, 512, ratio)
    # a finite ratio whose step overflows stops at n_max
    assert geometric_schedule(8, 16, 1e308) == [8, 16]
    # integer bounds only, numpy integers included
    assert geometric_schedule(np.int64(8), np.int64(16)) == [8, 10, 12, 15, 16]
    for bounds in ((8.7, 16.2), (8, 16.0), ("8", 16)):
        with pytest.raises(InputError, match="integer"):
            geometric_schedule(*bounds)


def test_run_sweep_circle_exact_row():
    result = run_sweep(uniform_circle_measure(z0=1.0), schedule=[4, 9, 16])
    row = next(r for r in result.rows if r.n == 9)
    assert row.ok
    assert row.n_lambda_n == pytest.approx(9.0 * 2.0 * math.pi / 10.0,
                                           rel=1e-12)
    assert row.predicted_limit == pytest.approx(2.0 * math.pi, rel=1e-14)
    assert row.relative_error == pytest.approx(
        (row.n_lambda_n - row.predicted_limit) / row.predicted_limit,
        rel=1e-12)
    lam = [r.lambda_n for r in result.rows]
    assert all(b <= a for a, b in zip(lam, lam[1:]))
    assert set(result.stages) == {"rule_s", "kernel_prefix_s", "route",
                                  "node_count", "achieved_degree",
                                  "residual_max"}
    for key in ("rule_s", "kernel_prefix_s"):
        assert result.stages[key] > 0
    assert result.stages["node_count"] >= 6 * 17
    assert result.stages["achieved_degree"] == 16
    assert result.stages["residual_max"] < 1e-14
    assert result.stages["route"] == "gram"
    interval = run_sweep(_standard("interval"), schedule=[4])
    assert interval.stages["route"] == "recurrence"


def test_run_sweep_validates_schedule():
    m = uniform_circle_measure(z0=1.0)
    # the degrees are read before the schedule is tested for emptiness
    for schedule in ([], np.array([], dtype=int), None):
        with pytest.raises(InputError, match="non-empty"):
            run_sweep(m, schedule=schedule)
    with pytest.raises(InputError):
        run_sweep(m, schedule=[8, 8])
    with pytest.raises(DomainError):
        run_sweep(uniform_circle_measure(), schedule=[4])  # no z0 anywhere


def test_run_sweep_rejects_degrees_below_one_before_work(monkeypatch):
    def no_rule(*args, **kwargs):
        raise AssertionError("build_rule ran before schedule validation")

    monkeypatch.setattr(sweep_mod, "build_rule", no_rule)
    for schedule in ([-2, 4], [0, 4]):
        with pytest.raises(InputError, match="at least 1"):
            run_sweep(uniform_circle_measure(z0=1.0), schedule=schedule)


def test_run_sweep_rejects_non_integer_degrees(monkeypatch):
    m = uniform_circle_measure(z0=1.0)
    want = [(r.n, r.lambda_n) for r in run_sweep(m, schedule=[4, 8]).rows]
    for schedule in ([np.int64(4), np.int64(8)], np.array([4, 8])):
        got = run_sweep(m, schedule=schedule).rows
        assert [(r.n, r.lambda_n) for r in got] == want
    monkeypatch.setattr(sweep_mod, "build_rule", None)  # refused before work
    with pytest.raises(InputError, match="integer"):
        run_sweep(m, schedule=[8.7, 16.2])


def test_extrapolate_synthetic_models():
    def rows_from(ns, f):
        res = SweepResult(measure=None, z=0j)
        for n in ns:
            y = f(n)
            res.rows.append(SweepRow(n=n, lambda_n=y / n, n_lambda_n=y,
                                     predicted_limit=1.0, relative_error=0.0))
        return res

    res = rows_from((10, 20, 40, 80), lambda n: 1.0 + 1.0 / n)
    assert abs(extrapolate(res) - 1.0) < 1e-9
    assert not res.fit_model.flagged

    res = rows_from((8, 16, 32, 64, 128), lambda n: 3.3)
    assert extrapolate(res) == pytest.approx(3.3, rel=1e-12)

    # closed-form circle rows converge to 2 pi through the fit
    res = rows_from(geometric_schedule(8, 512, 1.25),
                    lambda n: 2.0 * math.pi * n / (n + 1.0))
    assert abs(extrapolate(res) - 2.0 * math.pi) < 1e-6


def test_extrapolate_needs_four_rows():
    res = SweepResult(measure=None, z=0j)
    for n in (10, 20, 40):
        res.rows.append(SweepRow(n, 1.0 / n, 1.0, 1.0, 0.0))
    with pytest.raises(DomainError):
        extrapolate(res)


def test_extrapolate_flags_ill_conditioned_fit():
    res = SweepResult(measure=None, z=0j)
    values = [1.0, 2.0, 1.0, 2.0, 1.0, 2.0]
    for n, y in zip((10, 20, 40, 80, 160, 320), values):
        res.rows.append(SweepRow(n, y / n, y, 1.5, 0.0))
    with pytest.warns(RuntimeWarning):
        value = extrapolate(res)
    assert res.fit_model.flagged
    assert value == values[-1]  # raw last value


def test_run_sweep_marks_degenerate_rows_failed(monkeypatch):
    # twelve equispaced nodes of weight pi/6 integrate e^{i p theta} exactly
    # for |p| < 12, so on a round ellipse of constant weight they keep every
    # Gram entry up to degree 11, and the Gram route breaks down at 12
    measure = MeasureSpec(SupportSpec.make_ellipse(1.0, 1.0),
                          JumpWeight(1.0), z0=1.0)
    ts = math.pi / 6 * np.arange(12)
    rule = QuadratureRule(nodes=np.exp(1j * ts), weights=np.full(12, math.pi / 6),
                          params=ts, max_exact_degree=20)
    monkeypatch.setattr(sweep_mod, "build_rule", lambda *args, **kwargs: rule)
    result = run_sweep(measure, schedule=[5, 10, 15, 20])
    assert result.stages["achieved_degree"] == 11
    by_n = {r.n: r for r in result.rows}
    assert by_n[5].ok and by_n[10].ok
    assert not by_n[15].ok and not by_n[20].ok
    assert math.isnan(by_n[20].lambda_n)
    assert by_n[20].note == ("the gram route broke down at degree 12: the "
                             "measure supports polynomials only up to degree 11")
    # an independent basis on a rule of its own size gives the same value
    basis = orthonormalize(build_rule(measure, 10), 10)
    want = 10.0 * christoffel_lambda(measure, 10, basis=basis).lambda_n
    assert by_n[10].n_lambda_n == pytest.approx(want, rel=1e-12)
    with pytest.raises(DomainError):
        extrapolate(result)  # only two surviving rows
    # failed rows serialize as nan without crashing
    assert "nan" in format_sweep_csv(result)


def test_run_sweep_recurrence_breaks_down_on_few_nodes(monkeypatch):
    # four equispaced nodes of weight pi/2 integrate z^j conj(z)^k exactly
    # for |j - k| < 4, so degrees up to 3 keep the exact law 2 pi/(n + 1)
    # and the Gram route's Cholesky factor itself breaks down at degree 4
    ts = 0.5 * math.pi * np.arange(4)
    rule = QuadratureRule(nodes=np.exp(1j * ts),
                          weights=np.full(4, 0.5 * math.pi), params=ts,
                          max_exact_degree=8)
    monkeypatch.setattr(sweep_mod, "build_rule", lambda *args, **kwargs: rule)
    result = run_sweep(uniform_circle_measure(z0=1.0), schedule=[1, 3, 5, 8])
    by_n = {r.n: r for r in result.rows}
    for n in (1, 3):
        assert by_n[n].ok
        assert by_n[n].lambda_n == pytest.approx(2 * math.pi / (n + 1),
                                                 rel=1e-13)
    for n in (5, 8):
        assert not by_n[n].ok and math.isnan(by_n[n].lambda_n)
        assert by_n[n].note == ("the gram route broke down at degree 4: the "
                                "measure supports polynomials only up to "
                                "degree 3")
    assert result.stages["achieved_degree"] == 3
    # the note is the text of the error christoffel_lambda raises on the rule
    monkeypatch.setattr(christoffel_mod, "build_rule",
                        lambda *args, **kwargs: rule)
    with pytest.raises(DegeneracyError) as err:
        christoffel_lambda(uniform_circle_measure(z0=1.0), 8)
    assert by_n[8].note == str(err.value)


def test_run_sweep_fails_every_row_on_an_uncertified_route(monkeypatch):
    # a residual above CERTIFY_TOL (or nan) fails every row with a note; one
    # at CERTIFY_TOL passes
    real = sweep_mod.support_prefix
    for residual in (2e-10, float("nan"), 1e-10):
        monkeypatch.setattr(sweep_mod, "support_prefix",
                            lambda *args: (real(*args)[0], residual, "gram"))
        result = run_sweep(circle_jump_measure(), schedule=[4, 8, 16])
        assert result.stages["residual_max"] is residual
        for row in result.rows:
            if residual <= 1e-10:
                assert row.ok and row.note == ""
            else:
                assert not row.ok and math.isnan(row.lambda_n)
                assert row.note.startswith("the gram route's orthonormality "
                                           "residual")


def test_sweep_csv_deterministic(tmp_path):
    measure = circle_jump_measure()
    a = run_sweep(measure, schedule=[8, 12, 16])
    b = run_sweep(measure, schedule=[8, 12, 16])
    text_a, text_b = format_sweep_csv(a), format_sweep_csv(b)
    assert text_a == text_b
    assert text_a.splitlines()[0] == SWEEP_CSV_HEADER
    assert SWEEP_CSV_HEADER == "n,lambda_n,n_lambda_n,predicted_limit,relative_error"
    out = tmp_path / "sweep.csv"
    write_sweep_csv(a, out)
    assert out.read_text() == text_a
    # a parsed row matches the in-memory value bit for bit
    row = text_a.splitlines()[1].split(",")
    assert float(row[1]) == a.rows[0].lambda_n


def _assert_rows_match_arnoldi(result, measure, z):
    n_max = result.rows[-1].n
    want = kernel_prefix(orthonormalize(build_rule(measure, n_max), n_max), z)
    for row in result.rows:
        assert row.ok
        got = 1.0 / row.lambda_n
        assert abs(got - want[row.n]) <= 1e-12 * want[row.n], row.n


def test_run_sweep_marks_overflowed_rows_failed():
    # far from the support K_n(z) overflows float64 between n = 16 and 64
    for measure in standard_jump_measures().values():
        result = run_sweep(measure, z=1000.0, schedule=[8, 16, 64, 256])
        for row in result.rows[:2]:
            basis = orthonormalize(build_rule(measure, row.n), row.n)
            want = christoffel_lambda(measure, row.n, z=1000.0,
                                      basis=basis).lambda_n
            assert row.ok and row.lambda_n == pytest.approx(want, rel=1e-12)
        for row in result.rows[2:]:
            assert not row.ok and math.isnan(row.lambda_n)
            assert row.note == "kernel overflow: z is too far from the support"


def _lemniscate_poly(degree, coeffs):
    # monic T of the given degree whose critical values stay 0.25 away from
    # the unit circle, so that |T| = 1 is smooth and well traced
    poly = ComplexPolynomial([complex(*c) for c in coeffs[:degree]] + [1.0])
    critical = np.polynomial.polynomial.polyroots(poly.derivative().coeffs)
    assume(np.all(np.abs(np.abs(poly(critical)) - 1.0) > 0.25))
    return poly


# a random jump measure and evaluation point, drawn by hypothesis (see
# _random_jump_measure)
RANDOM_MEASURE = dict(
    size=st.floats(0.3, 2.0), rotation=st.floats(0.0, 2.0 * math.pi),
    center=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
    coeffs=st.lists(st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
                    min_size=4, max_size=4),
    slope=st.sampled_from([0.0, 0.03]), periodic=st.booleans(),
    jump=st.floats(0.0, 2.0 * math.pi), rho=st.sampled_from([0.5, 1.0, 1.5]),
    angle=st.floats(0.0, 2.0 * math.pi))


def _random_jump_measure(shape, size, rotation, center, coeffs, slope,
                         periodic, jump, rho, angle):
    # "circle" and "interval" name those supports; a float shape is the axis
    # ratio b/a of an ellipse (flat, nearly round, round, tall), rotated and
    # off centre; an integer one is the degree of a lemniscate |T| = 1.  The
    # weight has a constant or linear smooth factor and a periodic or
    # aperiodic jump (an interval's is at a point inside it).  z is a curve
    # point scaled by rho about the centre (circle, ellipse), a point of
    # T^{-1}(rho e^{i angle}) (lemniscate) or a point of the interval moved
    # off it by (rho - 1) size: inside, on or outside the support
    center = complex(*center)
    if shape == "interval":
        support = SupportSpec.make_interval(center.real - size,
                                            center.real + size)
        jump = center.real + 0.9 * size * math.cos(jump)
        z = center.real + size * math.cos(angle) + 1j * (rho - 1.0) * size
    elif shape == "circle":
        support = SupportSpec.make_circle(size, center=center)
        z = center + rho * size * cmath.exp(1j * angle)
    elif isinstance(shape, float):
        support = SupportSpec.make_ellipse(size, size * shape, center=center,
                                           rotation=rotation)
        z = complex(parametrize(support)[0].point(angle))
        z = support.center + rho * (z - support.center)
    else:
        poly = _lemniscate_poly(shape, coeffs)
        support = SupportSpec.make_lemniscate(poly)
        z = preimages(poly, rho * cmath.exp(1j * angle))[int(angle) % shape]
    period = 2.0 * math.pi if periodic and shape != "interval" else None
    weight = JumpWeight(2.0, 1.0, jump, period)
    return MeasureSpec(support, weight, SmoothFactor([1.0, slope])), z


@pytest.mark.parametrize("shape", [0.1, 0.999, 1.0, 1.6, 2, 3, 4])
@settings(max_examples=4, derandomize=True, deadline=None)
@given(**RANDOM_MEASURE)
def test_gram_sweep_matches_arnoldi(shape, **draw):
    # every degree up to 40 is compared with Arnoldi on the sweep's own rule
    measure, z = _random_jump_measure(shape, **draw)
    result = run_sweep(measure, z=z, schedule=list(range(1, 41)))
    _assert_rows_match_arnoldi(result, measure, z)


@pytest.mark.parametrize("shape", ["circle", "interval", 0.6, 2, 3])
@settings(max_examples=5, derandomize=True, deadline=None)
@given(n=st.integers(1, 48), **RANDOM_MEASURE)
def test_kernel_lambda_matches_direct(shape, n, **draw):
    # kernel lambda_n by the sweep's route (recurrence or Gram factor) and
    # direct lambda_n, the integral of the extremal polynomial built in an
    # Arnoldi basis, share only the quadrature rule
    measure, z = _random_jump_measure(shape, **draw)
    kernel = christoffel_lambda(measure, n, z=z)
    direct = christoffel_lambda(measure, n, z=z, method="direct")
    assert kernel.route != direct.route == "arnoldi"
    assert abs(kernel.lambda_n - direct.lambda_n) <= 1e-12 * direct.lambda_n


@functools.lru_cache(maxsize=None)
def _standard(kind):
    return standard_jump_measures()[kind]


def _rows_lambda(measure, z, schedule=tuple(range(1, 41))):
    result = run_sweep(measure, z=z, schedule=list(schedule))
    assert all(r.ok for r in result.rows)
    return np.array([r.lambda_n for r in result.rows])


@pytest.mark.parametrize("kind", ["circle", "ellipse"])
@settings(max_examples=5, derandomize=True, deadline=None)
@given(turn=st.floats(0.0, 2.0 * math.pi),
       shift=st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
       jump=st.floats(0.0, 2.0 * math.pi), rho=st.sampled_from([0.5, 1.0, 1.5]),
       angle=st.floats(0.0, 2.0 * math.pi))
def test_lambda_invariant_under_rigid_motion(kind, turn, shift, jump, rho,
                                             angle):
    # the measure turned by `turn` about the origin and moved by `shift`,
    # with z moved alike; z is a curve point scaled by rho (inside, on or
    # outside the curve)
    shift = complex(*shift)
    if kind == "circle":
        base = circle_jump_measure(jump_param=jump)
        moved = circle_jump_measure(jump_param=jump + turn, center=shift)
    else:
        base = ellipse_jump_measure(1.3, 0.7, jump_param=jump)
        moved = ellipse_jump_measure(1.3, 0.7, jump_param=jump, center=shift,
                                     rotation=turn)
    z = rho * complex(parametrize(base.support)[0].point(angle))
    want = _rows_lambda(base, z)
    got = _rows_lambda(moved, shift + cmath.exp(1j * turn) * z)
    assert np.max(np.abs(got - want) / want) <= 1e-12


@pytest.mark.parametrize("kind", ["circle", "interval", "lemniscate",
                                  "ellipse"])
@settings(max_examples=3, derandomize=True, deadline=None)
@given(c=st.floats(1e-3, 1e3),
       offset=st.tuples(st.floats(-0.5, 0.5), st.floats(-0.5, 0.5)))
def test_lambda_scales_with_the_measure(kind, c, offset):
    measure = _standard(kind)
    z = measure.z0 + complex(*offset)
    want = c * _rows_lambda(measure, z)
    got = _rows_lambda(measure.scaled(c), z)
    assert np.max(np.abs(got - want) / want) <= 1e-12


@pytest.mark.parametrize("kind", ["circle", "interval", "lemniscate",
                                  "ellipse"])
@settings(max_examples=3, derandomize=True, deadline=None)
@given(offset=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)))
def test_lambda_decreases_along_a_sweep(kind, offset):
    measure = _standard(kind)
    lam = _rows_lambda(measure, measure.z0 + complex(*offset),
                       schedule=range(1, 65))
    assert np.all(lam[1:] <= lam[:-1])
