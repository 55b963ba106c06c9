import cmath
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

import xlab
import xlab.christoffel as christoffel_mod
from xlab.christoffel import (_finish_basis, christoffel_lambda,
                              extremal_polynomial_values, gram_prefix,
                              kernel_diag, kernel_prefix, orthonormalize,
                              recurrence_values)
from xlab.errors import (CapabilityError, DegeneracyError, DomainError,
                         NumericError)
from xlab.geometry import ComplexPolynomial, SupportSpec, parametrize
from xlab.measures import (ConstantWeight, MeasureSpec, circle_jump_measure,
                           ellipse_jump_measure, interval_jump_measure,
                           lemniscate_pullback_measure, load_measure_file,
                           parse_measure_text, symmetrize_to_interval,
                           uniform_circle_measure)
from xlab.quadrature import QuadratureRule, build_rule
from xlab.suites import standard_jump_measures
from xlab.sweep import run_sweep

MEASURES = pathlib.Path(__file__).resolve().parent.parent / "measures"
CUBIC_TEXT = ("support.kind = lemniscate\n"
              "support.params = 0,0 -0.5,0 0,0 1,0\n"
              "weight.A = 2.0\nweight.B = 1.0\n"
              f"weight.jump_param = {math.pi / 2!r}\n"
              "eval.z0 = auto-jump\n")
ROUTES = {"circle": "recurrence", "interval": "recurrence",
          "ellipse": "gram", "lemniscate": "gram"}


@pytest.fixture(scope="module")
def bases_512():
    """(measure, rule, basis) at degree 512 for each standard jump measure."""
    out = {}
    for name, measure in standard_jump_measures().items():
        rule = build_rule(measure, 512)
        out[name] = (measure, rule, orthonormalize(rule, 512))
    return out


def test_circle_exact_law_small():
    measure = uniform_circle_measure(z0=1.0)
    rule = build_rule(measure, 30)
    basis = orthonormalize(rule, 30)
    prefix = kernel_prefix(basis, 1.0 + 0j)
    for n in range(31):
        exact = 2.0 * math.pi / (n + 1)
        assert abs(1.0 / prefix[n] - exact) <= 1e-13 * exact


def test_orthonormality_residual():
    basis = orthonormalize(build_rule(circle_jump_measure(), 60), 60)
    assert float(np.max(basis.norm_residuals)) < 1e-12


def test_lambda_one_jump_gram_oracle():
    # 2x2 Gram of {1, z} under the A=2, B=1 circle jump measure:
    # G = [[3 pi, 2], [2, 3 pi]], so lambda_1(i) = (9 pi^2 - 4) / (6 pi)
    oracle = (9.0 * math.pi ** 2 - 4.0) / (6.0 * math.pi)
    value = christoffel_lambda(circle_jump_measure(), 1, z=1j)
    assert abs(value.lambda_n - oracle) <= 1e-12 * oracle


def test_chebyshev_kernel_oracle():
    # dmu = dx / sqrt(1 - x^2): orthonormal polynomials are the scaled
    # Chebyshev T_k, so at x = 0 the kernel steps only on even degrees
    m = MeasureSpec(SupportSpec.make_interval(-1.0, 1.0),
                    ConstantWeight(1.0), chebyshev=True)
    rule = build_rule(m, 8)
    basis = orthonormalize(rule, 8)
    prefix = kernel_prefix(basis, 0.0 + 0j)
    for n, expected in ((4, math.pi / 5), (5, math.pi / 5),
                        (6, math.pi / 7), (7, math.pi / 7)):
        assert abs(1.0 / prefix[n] - expected) <= 1e-12 * expected


def test_kernel_vs_direct_methods():
    measure = circle_jump_measure()
    rule = build_rule(measure, 40)
    basis = orthonormalize(rule, 40)
    for n in (3, 17, 40):
        a = christoffel_lambda(measure, n, basis=basis)
        b = christoffel_lambda(measure, n, method="direct", basis=basis)
        assert a.method == "kernel" and b.method == "direct"
        assert abs(a.lambda_n - b.lambda_n) <= 1e-10 * a.lambda_n


def test_extremal_polynomial_degree_one():
    # on the uniform circle at z0 = 1 the degree-1 minimizer is (1 + z)/2
    measure = uniform_circle_measure(z0=1.0)
    value = christoffel_lambda(measure, 1, method="direct")
    assert value.lambda_n == pytest.approx(math.pi, rel=1e-13)
    basis = orthonormalize(build_rule(measure, 1), 1)
    pts = np.array([1.0, -1.0, 1j, 0.5 + 0.1j], dtype=complex)
    got = extremal_polynomial_values(basis, value, pts)
    assert np.max(np.abs(got - (1.0 + pts) / 2.0)) < 1e-12


def test_extremal_values_requires_direct():
    measure = uniform_circle_measure(z0=1.0)
    value = christoffel_lambda(measure, 1)
    basis = orthonormalize(build_rule(measure, 1), 1)
    with pytest.raises(DomainError):
        extremal_polynomial_values(basis, value, [1.0])


def test_lambda_monotone_in_n():
    measure = circle_jump_measure()
    rule = build_rule(measure, 50)
    basis = orthonormalize(rule, 50)
    prefix = kernel_prefix(basis, measure.z0)
    lam = 1.0 / prefix
    assert np.all(np.diff(lam) <= 0)


def test_degree_above_rule_rejected():
    measure = uniform_circle_measure(z0=1.0)
    rule = build_rule(measure, 10)
    with pytest.raises(DomainError):
        orthonormalize(rule, 11)
    basis = orthonormalize(rule, 10)
    with pytest.raises(DomainError):
        christoffel_lambda(measure, 11, basis=basis)


def _four_node_rule():
    # four nodes support only four independent polynomial directions
    ts = np.array([0.0, 0.5 * math.pi, math.pi, 1.5 * math.pi])
    return QuadratureRule(nodes=np.exp(1j * ts),
                          weights=np.full(4, 0.5 * math.pi),
                          params=ts, max_exact_degree=8)


def test_degeneracy_reports_partial_basis():
    with pytest.raises(DegeneracyError) as err:
        orthonormalize(_four_node_rule(), 8)
    exc = err.value
    assert exc.achieved_degree == 3
    assert exc.basis is not None
    assert exc.basis.degree == 3
    assert float(np.max(exc.basis.norm_residuals)) < 1e-12


def test_norm_residuals_match_explicit_gram():
    # the residuals come from Gram blocks formed one block at a time;
    # recompute them from the full product.  Degree 150 spans several blocks.
    full = orthonormalize(build_rule(circle_jump_measure(), 60), 60)
    blocks = orthonormalize(build_rule(ellipse_jump_measure(1.25, 0.75), 150),
                            150)
    with pytest.raises(DegeneracyError) as err:
        orthonormalize(_four_node_rule(), 8)
    for basis in (full, blocks, err.value.basis):
        Q, w = basis.node_values, basis.rule.weights
        explicit = np.abs((Q * w) @ Q.conj().T
                          - np.eye(basis.degree + 1)).max(axis=0)
        assert np.max(np.abs(basis.norm_residuals - explicit)) <= 1e-15
    # unit rows far from orthogonal put the largest entries of |G - I|
    # anywhere off the diagonal, so every block must reach every column
    rng = np.random.default_rng(7)
    Q = rng.standard_normal((150, 200)) + 1j * rng.standard_normal((150, 200))
    w = rng.uniform(0.5, 1.5, 200)
    Q /= np.sqrt((np.abs(Q) ** 2) @ w)[:, None]
    rule = QuadratureRule(nodes=np.zeros(200, dtype=complex), weights=w,
                          params=np.zeros(200), max_exact_degree=149)
    got = _finish_basis(rule, None, Q, 1.0).norm_residuals
    explicit = np.abs((Q * w) @ Q.conj().T - np.eye(150)).max(axis=0)
    assert np.max(np.abs(got - explicit) / explicit) <= 1e-13


def _toeplitz_gram_lambda(A, B, t0, n, z):
    """lambda_n(z) of a circle jump measure from its monomial Gram matrix.

    Shares no code with the pipeline: the moments
    c_m = int e^{-i m theta} w(theta) dtheta are exact over the two constant
    pieces of the weight (B on [t0, t0 + pi], A on the rest), the Gram matrix
    G[j, k] = int z^j conj(z^k) dmu = c_{k-j} is Toeplitz, and
    1 / lambda_n(z) = v* G^{-1} v with v = (1, z, ..., z^n).
    """
    with mp.workdps(50):
        A, B, t0 = mp.mpf(A), mp.mpf(B), mp.mpf(t0)

        def arc_moment(a, b, m):
            if m == 0:
                return b - a
            return 1j * (mp.expj(-m * b) - mp.expj(-m * a)) / m

        c = {m: B * arc_moment(t0, t0 + mp.pi, m)
             + A * arc_moment(t0 + mp.pi, t0 + 2 * mp.pi, m)
             for m in range(-n, n + 1)}
        G = mp.matrix(n + 1, n + 1)
        for j in range(n + 1):
            for k in range(n + 1):
                G[j, k] = c[k - j]
        v = mp.matrix([mp.mpc(z) ** j for j in range(n + 1)])
        y = mp.lu_solve(G, v)
        K = mp.fsum(mp.conj(v[j]) * y[j] for j in range(n + 1))
        return float(1 / mp.re(K))


def test_lambda_toeplitz_gram_oracle():
    # the third weight is not symmetric under conjugation, so its moments
    # are complex and a transposed Gram matrix would not match.  An explicit
    # basis keeps Arnoldi under the oracle; the sweep twin below checks the
    # Szegő recurrence, which kernel lambda takes without a basis
    params = ((2.0, 1.0, math.pi / 2), (1.0, 1.0, math.pi / 2),
              (3.0, 0.5, 0.3))
    for A, B, t0 in params:
        measure = circle_jump_measure(A=A, B=B, jump_param=t0)
        for n in (4, 12, 24):
            basis = orthonormalize(build_rule(measure, n), n)
            for z in (measure.z0, cmath.exp(-2.0j), 0.5 + 0.2j):
                got = christoffel_lambda(measure, n, z=z, basis=basis).lambda_n
                want = _toeplitz_gram_lambda(A, B, t0, n, z)
                assert abs(got - want) <= 1e-13 * want, (A, B, t0, n, z)


def test_run_sweep_toeplitz_gram_oracle():
    # the same 27 cases through the sweep, which takes the Szegő recurrence
    params = ((2.0, 1.0, math.pi / 2), (1.0, 1.0, math.pi / 2),
              (3.0, 0.5, 0.3))
    for A, B, t0 in params:
        measure = circle_jump_measure(A=A, B=B, jump_param=t0)
        for z in (measure.z0, cmath.exp(-2.0j), 0.5 + 0.2j):
            rows = run_sweep(measure, z=z, schedule=[4, 12, 24]).rows
            for row in rows:
                want = _toeplitz_gram_lambda(A, B, t0, row.n, z)
                assert abs(row.lambda_n - want) <= 1e-13 * want, (A, B, t0,
                                                                  row.n, z)


def test_recurrence_breakdown_matches_arnoldi():
    # four circle nodes and three interval nodes support degrees 3 and 2
    three = QuadratureRule(nodes=np.array([-0.5, 0.1, 0.7], dtype=complex),
                           weights=np.array([0.3, 0.5, 0.2]),
                           params=np.array([-0.5, 0.1, 0.7]),
                           max_exact_degree=6)
    cases = ((_four_node_rule(), SupportSpec.make_circle(), 0.3 + 0.9j),
             (three, SupportSpec.make_interval(-1.0, 1.0), 0.2 + 0.1j))
    for rule, support, z in cases:
        with pytest.raises(DegeneracyError) as err:
            orthonormalize(rule, 6)
        partial = err.value.basis
        values, residual = recurrence_values(rule, support, 6, z)
        assert values.size - 1 == err.value.achieved_degree
        assert np.max(np.abs(values - partial.evaluate(z))) <= 1e-13
        assert residual < 1e-13


@pytest.mark.parametrize("name", [p.stem for p in sorted(
    MEASURES.glob("*.measure"))] + ["cubic_lemniscate_jump"])
def test_kernel_lambda_route_matches_arnoldi(name):
    # without a basis kernel lambda_n reads K_n off the sweep's route;
    # Arnoldi on the same rule is the independent value.  z is the measure's
    # z0 and a point on the curve
    if name == "cubic_lemniscate_jump":  # |z^3 - z/2| = 1
        measure = parse_measure_text(CUBIC_TEXT)
    else:
        measure = load_measure_file(MEASURES / f"{name}.measure")
    arc = parametrize(measure.support)[0]
    on_curve = complex(arc.point(arc.t_lo + 0.3 * (arc.t_hi - arc.t_lo)))
    for n in (8, 33, 96):
        basis = orthonormalize(build_rule(measure, n), n)
        for z in (measure.z0, on_curve):
            got = christoffel_lambda(measure, n, z=z)
            want = christoffel_lambda(measure, n, z=z, basis=basis)
            assert (got.route, want.route) == (ROUTES[measure.support.kind],
                                               "arnoldi")
            assert abs(got.lambda_n - want.lambda_n) <= 1e-13 * want.lambda_n


def test_kernel_lambda_route_degeneracy_matches_arnoldi(monkeypatch):
    # the four-node rule is consistent with the unit circle, the round
    # ellipse and the lemniscate |z| = 1, whatever their route
    monkeypatch.setattr(christoffel_mod, "build_rule",
                        lambda *args, **kwargs: _four_node_rule())
    for measure in (circle_jump_measure(), ellipse_jump_measure(1.0, 1.0),
                    lemniscate_pullback_measure(ComplexPolynomial([0, 1]))):
        with pytest.raises(DegeneracyError) as route:
            christoffel_lambda(measure, 8)
        with pytest.raises(DegeneracyError) as arnoldi:
            christoffel_lambda(measure, 8, method="direct")
        assert route.value.achieved_degree == arnoldi.value.achieved_degree == 3
        assert route.value.basis is None
        value = christoffel_lambda(measure, 3)
        assert value.lambda_n == pytest.approx(0.5 * math.pi, rel=1e-14)


def test_recurrence_rejects_other_supports():
    # and the Gram route rejects the recurrences' supports
    measure = ellipse_jump_measure(1.25, 0.75)
    rule = build_rule(measure, 8)
    with pytest.raises(CapabilityError):
        recurrence_values(rule, measure.support, 8, measure.z0)
    with pytest.raises(DomainError):
        recurrence_values(rule, SupportSpec.make_circle(), 9, 1.0)
    for support in (SupportSpec.make_circle(),
                    SupportSpec.make_interval(-1.0, 1.0)):
        with pytest.raises(CapabilityError):
            gram_prefix(rule, support, 8, 1.0)
    with pytest.raises(DomainError):
        gram_prefix(rule, measure.support, 9, 1.0)


def test_golub_welsch_weights_match_recurrence():
    # Golub and Welsch (Math. Comp. 23, 1969): the eigenvalues of the n x n
    # Jacobi matrix are the Gauss nodes x_j, with weights mass * v_{0j}^2
    # from the eigenvectors, and those weights are lambda_{n-1}(x_j)
    measure = symmetrize_to_interval(circle_jump_measure())
    n = 24
    rule = build_rule(measure, n)
    H = orthonormalize(rule, n).hessenberg.real
    J = (np.diag(np.diag(H)[:n]) + np.diag(np.diag(H, -1)[:n - 1], 1)
         + np.diag(np.diag(H, -1)[:n - 1], -1))
    x, V = np.linalg.eigh(J)
    gauss = rule.mass * V[0] ** 2
    for xj, wj in zip(x, gauss):
        values, _ = recurrence_values(rule, measure.support, n - 1, xj)
        lam = 1.0 / float(np.sum(np.abs(values) ** 2))
        assert abs(lam - wj) <= 1e-12 * wj


@settings(max_examples=25, derandomize=True, deadline=None)
@given(circle=st.booleans(), a=st.floats(-2.0, 2.0), b=st.floats(-2.0, 2.0),
       size=st.floats(0.2, 3.0), s=st.floats(0.05, 0.95),
       off=st.sampled_from([0.0, 0.4, -0.4]))
def test_recurrence_matches_arnoldi_prefix(circle, a, b, size, s, off):
    # circles of any centre and radius, intervals with any endpoints; z on
    # the support, inside or outside it (above it for an interval)
    if circle:
        measure = circle_jump_measure(radius=size, center=complex(a, b))
        z = measure.support.center + size * (1.0 + off) * cmath.exp(
            2j * math.pi * s)
    else:
        measure = interval_jump_measure(a, a + size, jump_param=a + 0.5 * size)
        z = complex(a + s * size, off * size)
    rule = build_rule(measure, 40)
    want = kernel_prefix(orthonormalize(rule, 40), z)
    values, residual = recurrence_values(rule, measure.support, 40, z)
    got = np.cumsum(np.abs(values) ** 2)
    assert np.max(np.abs(got - want) / want) <= 1e-12
    assert residual < 1e-13


def test_import_does_not_load_mpmath():
    src = os.path.dirname(os.path.dirname(os.path.abspath(xlab.__file__)))
    code = "import sys, xlab; print('mpmath' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


def test_kernel_prefix_matches_kernel_diag():
    measure = circle_jump_measure()
    basis = orthonormalize(build_rule(measure, 20), 20)
    prefix = kernel_prefix(basis, measure.z0)
    for n in (0, 7, 20):
        assert prefix[n] == pytest.approx(kernel_diag(basis, measure.z0,
                                                      upto=n), rel=1e-14)


@pytest.mark.filterwarnings("error")
def test_arnoldi_far_point_is_numeric_error_without_warning(bases_512):
    # |p_k(1000)|^2 overflows float64 below degree 256 on every standard
    # measure; like the route, an explicit basis reports it only by the error
    for name, (measure, _, basis) in bases_512.items():
        with pytest.raises(NumericError, match="kernel overflow"):
            kernel_diag(basis, 1000.0, upto=256)
        for method in ("kernel", "direct"):
            with pytest.raises(NumericError, match="kernel overflow"):
                christoffel_lambda(measure, 256, z=1000.0, method=method,
                                   basis=basis)


def test_second_pass_only_where_first_cancels(bases_512):
    # z * p_k on a closed curve keeps most of its norm after one pass; on an
    # interval the pass removes p_{k-1} and p_k, and leaves about 1/sqrt(2)
    for name, (_, _, basis) in bases_512.items():
        if name == "interval":
            assert basis.reorthogonalized > 0
        else:
            assert basis.reorthogonalized == 0, name
        assert float(basis.norm_residuals.max()) < 2e-15, name


def test_arnoldi_interval_matches_stieltjes_at_512(bases_512):
    # one Gram-Schmidt pass on every interval step drifts about 6.5e-13 from
    # the three-term recurrence by n = 512; the conditional pass stays near
    # 5e-15
    measure, rule, basis = bases_512["interval"]
    values, _ = recurrence_values(rule, measure.support, 512, measure.z0)
    want = np.cumsum(np.abs(values) ** 2)
    got = kernel_prefix(basis, measure.z0)
    assert np.max(np.abs(got - want) / want) <= 1e-13
