import cmath
import functools
import itertools
import math
import operator
import os
import pathlib
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from mpmath import mp
from mpmath.calculus.quadrature import GaussLegendre

import xlab
import xlab.christoffel as christoffel_mod
import xlab.sweep
from xlab.christoffel import (_finish_basis, christoffel_lambda,
                              extremal_polynomial_values, kernel_prefix,
                              orthonormalize, support_prefix)
from xlab.errors import DegeneracyError, DomainError, InputError, NumericError
from xlab.geometry import (ComplexPolynomial, SupportSpec, parametrize,
                           preimages)
from xlab.measures import (JumpWeight, MeasureSpec, circle_jump_measure,
                           ellipse_jump_measure, interval_jump_measure,
                           lemniscate_pullback_measure, load_measure_file,
                           parse_measure_text, symmetrize_to_interval,
                           uniform_circle_measure)
from xlab.quadrature import QuadratureRule, build_rule
from xlab.suites import standard_jump_measures
from xlab.sweep import geometric_schedule, predicted_limit, run_sweep

MEASURES = pathlib.Path(__file__).resolve().parent.parent / "measures"
CUBIC_TEXT = ("support.kind = lemniscate\n"
              "support.params = 0,0 -0.5,0 0,0 1,0\n"
              "weight.A = 2.0\nweight.B = 1.0\n"
              f"weight.jump_param = {math.pi / 2!r}\n"
              "eval.z0 = auto-jump\n")
ROUTES = {"circle": "gram", "interval": "recurrence",
          "ellipse": "gram", "lemniscate": "gram"}


@pytest.fixture(scope="module")
def bases_512():
    """(measure, rule, basis) at degree 512 for each standard jump measure."""
    out = {}
    for name, measure in standard_jump_measures().items():
        rule = build_rule(measure, 512)
        out[name] = (measure, rule, orthonormalize(rule, 512))
    return out


def test_non_finite_point_is_input_error():
    # a nan or inf z is refused as input, not reported as a kernel overflow
    measure = circle_jump_measure()
    for z in (float("nan"), complex(0.5, float("nan")), float("inf")):
        for method in ("kernel", "direct"):
            with pytest.raises(InputError, match="not finite") as err:
                christoffel_lambda(measure, 8, z=z, method=method)
            assert not isinstance(err.value, DomainError)
        with pytest.raises(InputError, match="not finite"):
            run_sweep(measure, z=z, schedule=[4, 8])
    # no z and no z0 is a point outside the measure's domain
    bare = interval_jump_measure(z0=None)
    with pytest.raises(DomainError, match="no evaluation point"):
        christoffel_lambda(bare, 8)
    with pytest.raises(DomainError, match="no evaluation point"):
        run_sweep(bare, schedule=[4, 8])


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
                    JumpWeight(1.0), chebyshev=True)
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


def _circle_jump_moments(A, B, t0, n):
    """c_m = int e^{-i m theta} w(theta) dtheta, |m| <= n, at the working
    precision, exact over the two constant pieces of a circle jump weight
    (B on [t0, t0 + pi], A on the rest)."""
    A, B, t0 = mp.mpf(A), mp.mpf(B), mp.mpf(t0)

    def arc_moment(a, b, m):
        if m == 0:
            return b - a
        return 1j * (mp.expj(-m * b) - mp.expj(-m * a)) / m

    return {m: B * arc_moment(t0, t0 + mp.pi, m)
            + A * arc_moment(t0 + mp.pi, t0 + 2 * mp.pi, m)
            for m in range(-n, n + 1)}


def _toeplitz_gram_lambda(A, B, t0, n, z):
    """lambda_n(z) of a circle jump measure from its monomial Gram matrix.

    Shares no code with the pipeline: the Gram matrix of the closed-form
    moments, G[j, k] = int z^j conj(z^k) dmu = c_{k-j}, is Toeplitz, and
    1 / lambda_n(z) = v* G^{-1} v with v = (1, z, ..., z^n).
    """
    with mp.workdps(50):
        c = _circle_jump_moments(A, B, t0, n)
        G = mp.matrix(n + 1, n + 1)
        for j in range(n + 1):
            for k in range(n + 1):
                G[j, k] = c[k - j]
        v = mp.matrix([mp.mpc(z) ** j for j in range(n + 1)])
        y = mp.lu_solve(G, v)
        K = mp.fsum(mp.conj(v[j]) * y[j] for j in range(n + 1))
        return float(1 / mp.re(K))


FIXED_BITS = 192  # the oracle's Levinson works in integers times 2^-192


@functools.lru_cache(maxsize=None)
def _szego_levinson(A, B, t0, n):
    """(norms, alphas) of a circle jump measure, in integers times
    2^-FIXED_BITS: ||Phi_j||^2 for j <= n and a_j for j < n (see
    ``_szego_kernel_prefix``), each a_j as (re, im)."""
    one = 1 << FIXED_BITS
    with mp.workdps(60):
        c = _circle_jump_moments(A, B, t0, n + 1)
        M = [(int(mp.nint(c[-d].real * one)), int(mp.nint(c[-d].imag * one)))
             for d in range(n + 2)]
    re, im = [one], [0]  # Phi_j's coefficients, constant term first
    norms, alphas = [M[0][0]], []
    for j in range(n):
        dr = sum(x * M[i + 1][0] - y * M[i + 1][1]
                 for i, (x, y) in enumerate(zip(re, im)))
        di = sum(x * M[i + 1][1] + y * M[i + 1][0]
                 for i, (x, y) in enumerate(zip(re, im)))
        ar, ai = dr // norms[-1], di // norms[-1]
        # Phi_{j+1}[i] = Phi_j[i - 1] - a_j conj(Phi_j[j - i])
        rev_re, rev_im = re[::-1] + [0], im[::-1] + [0]
        re, im = ([u - ((ar * v + ai * w) >> FIXED_BITS)
                   for u, v, w in zip([0] + re, rev_re, rev_im)],
                  [u - ((ai * v - ar * w) >> FIXED_BITS)
                   for u, v, w in zip([0] + im, rev_re, rev_im)])
        norms.append(norms[-1] - ((((ar * ar + ai * ai) >> FIXED_BITS)
                                   * norms[-1]) >> FIXED_BITS))
        alphas.append((ar, ai))
    return tuple(norms), tuple(alphas)


def _szego_kernel_prefix(A, B, t0, n, zs):
    """(prefixes, phis, alphas) of a circle jump measure: for each z of zs,
    [K_0(z), ..., K_n(z)] and the orthonormal [phi_0(z), ..., phi_n(z)];
    and the recursion coefficients [a_0, ..., a_{n-1}].

    Shares no code with the pipeline.  The monic orthogonal polynomials
    satisfy the Szegő recursion Phi_{j+1} = z Phi_j - a_j Phi_j^*, with
    ||Phi_{j+1}||^2 = (1 - |a_j|^2) ||Phi_j||^2 and
    a_j ||Phi_j||^2 = sum_i Phi_j[i] c_{-i-1} from the closed-form moments.
    That Levinson recursion runs in integers scaled by 2^FIXED_BITS, exact
    but for one rounding per product (57 digits); the values at z,
    phi_j = Phi_j / ||Phi_j|| and K_n = sum_{j <= n} |phi_j(z)|^2 at 50
    digits.  K_n are floats; phi_j and a_j are mpmath numbers.
    """
    norms, ints = _szego_levinson(A, B, t0, n)
    prefixes, phis = [], []
    with mp.workdps(50):
        scale = mp.mpf(1 << FIXED_BITS)
        alphas = [mp.mpc(ar, ai) / scale for ar, ai in ints]
        for z in zs:
            z, phi, phi_star = mp.mpc(z), mp.mpc(1), mp.mpc(1)
            values = [phi * mp.sqrt(scale / norms[0])]
            for a, norm in zip(alphas, norms[1:]):
                phi, phi_star = (z * phi - a * phi_star,
                                 phi_star - mp.conj(a) * z * phi)
                values.append(phi * mp.sqrt(scale / norm))
            K = [abs(values[0]) ** 2]
            for v in values[1:]:
                K.append(K[-1] + abs(v) ** 2)
            prefixes.append([float(k) for k in K])
            phis.append(values)
    return prefixes, phis, alphas


def test_lambda_toeplitz_gram_oracle():
    # the third weight is not symmetric under conjugation, so its moments
    # are complex and a transposed Gram matrix would not match.  An explicit
    # basis keeps Arnoldi under the oracle; the sweep twin below checks the
    # Gram route's Toeplitz branch, which kernel lambda takes without a basis
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
    # the same 27 cases through the sweep, which takes the Gram route's
    # Toeplitz branch (the circle as a degree-1 lemniscate), and 9 more at
    # 2 + i, off the curve
    params = ((2.0, 1.0, math.pi / 2), (1.0, 1.0, math.pi / 2),
              (3.0, 0.5, 0.3))
    for A, B, t0 in params:
        measure = circle_jump_measure(A=A, B=B, jump_param=t0)
        for z in (measure.z0, cmath.exp(-2.0j), 0.5 + 0.2j, 2.0 + 1.0j):
            rows = run_sweep(measure, z=z, schedule=[4, 12, 24]).rows
            for row in rows:
                want = _toeplitz_gram_lambda(A, B, t0, row.n, z)
                assert abs(row.lambda_n - want) <= 1e-13 * want, (A, B, t0,
                                                                  row.n, z)


def test_run_sweep_szego_oracle_at_512():
    # the Gram route's block Levinson at N = 1 against a 50-digit Szegő
    # recursion on the closed-form moments, through the sweep up to n = 512,
    # on a symmetric and an asymmetric jump, at z0, inside the circle and
    # just off it; then at N = 2 on the z^2 lemniscate, whose even and odd
    # polynomials a(z^2) + z b(z^2) give
    # K_n(z) = K_{n//2}(z^2) + |z|^2 K_{(n-1)//2}(z^2) in the circle's kernel
    schedule = geometric_schedule(8, 512)
    for A, B, t0 in ((2.0, 1.0, math.pi / 2), (3.0, 0.5, 0.3)):
        measure = circle_jump_measure(A=A, B=B, jump_param=t0)
        points = (measure.z0, 0.5 + 0.2j, 1.02 * measure.z0, 1.1 * measure.z0)
        oracle, _, _ = _szego_kernel_prefix(A, B, t0, 512, points)
        for z, K in zip(points, oracle):
            result = run_sweep(measure, z=z, schedule=schedule)
            assert result.stages["route"] == "gram"
            for row in result.rows:
                want = 1.0 / K[row.n]
                assert abs(row.lambda_n - want) <= 1e-13 * want, (A, B, z,
                                                                  row.n)
    lemniscate = lemniscate_pullback_measure(ComplexPolynomial([0.0, 0.0, 1.0]))
    points = (1.02 * cmath.exp(0.25j * math.pi), 1.1 * cmath.exp(0.25j * math.pi))
    oracle, _, _ = _szego_kernel_prefix(2.0, 1.0, math.pi / 2, 256,
                                        [z * z for z in points])
    for z, K in zip(points, oracle):
        for row in run_sweep(lemniscate, z=z, schedule=schedule).rows:
            want = 1.0 / (K[row.n // 2] + abs(z) ** 2 * K[(row.n - 1) // 2])
            assert abs(row.lambda_n - want) <= 1e-13 * want, (z, row.n)


def test_interval_szego_map_oracle():
    # the standard interval measure is the circle jump measure (A, B) = (2, 1),
    # t0 = pi/2, pushed down by x = cos t.  Its weight is even in t (up to
    # the 6e-17 by which the double t0 misses pi/2), so the a_j are real and
    # phi_j(1/z) = conj(phi_j(z)) on |z| = 1, and the Geronimus relations give the orthonormal polynomials of the normalized
    # interval measure at x = cos(theta), z = e^{i theta}, as
    # p_n(x) = [z^-n phi_2n(z) + z^n phi_2n(1/z)] / sqrt(2 (1 - a_{2n-1}))
    # with phi_j normalized under the probability measure and a_{-1} = -1.
    # The mass-normalized kernel is mass * K_n(x) = sum_{k <= n} p_k(x)^2
    n_max, A, B = 256, 2.0, 1.0
    measure = standard_jump_measures()["interval"]
    mass = 0.5 * (A + B) * math.pi  # half the circle measure's
    xs = (0.0, 0.3, -0.71)
    zs = [cmath.exp(1j * math.acos(x)) for x in xs]
    _, phis, alphas = _szego_kernel_prefix(A, B, math.pi / 2, 2 * n_max, zs)
    assert all(abs(a.imag) <= 1e-16 for a in alphas)
    with mp.workdps(50):
        a = [mp.mpf(-1)] + [alpha.real for alpha in alphas]  # a[j + 1] = a_j
        for x, z, phi in zip(xs, zs, phis):
            z, to_prob = mp.mpc(z), 1 / phi[0]
            K = []
            for n in range(n_max + 1):
                p = (2 * mp.re(z ** -n * phi[2 * n] * to_prob)
                     / mp.sqrt(2 * (1 - a[2 * n])))
                K.append((K[-1] if K else 0) + p * p)
            want = [float(k) for k in K]
            rows = run_sweep(measure, z=x, schedule=range(1, n_max + 1)).rows
            for row in rows:
                got = mass / row.lambda_n
                assert abs(got - want[row.n]) <= 1e-13 * want[row.n], (x, row.n)
            for n in (1, 2, 17, 100, 255, 256):
                got = mass / christoffel_lambda(measure, n, z=x).lambda_n
                assert abs(got - want[n]) <= 1e-13 * want[n], (x, n)


def _gram_lambda(z, w, ns, zs):
    """{(n, z): lambda_n(z)} of the discrete measure sum w delta_z, at the
    working precision: the monomial Gram matrix G[j, k] = sum w z^j conj(z^k),
    by an LU factor of each leading block, gives
    1 / lambda_n(z) = v* G^{-1} v with v = (1, z, ..., z^n)."""
    powers = [[mp.mpc(1)] * len(z)]
    for _ in range(max(ns)):
        powers.append([p * x for p, x in zip(powers[-1], z)])
    weighted = [[wi * p for wi, p in zip(w, row)] for row in powers]
    conjugate = [[mp.conj(p) for p in row] for row in powers]
    G = mp.matrix(max(ns) + 1)
    for j in range(max(ns) + 1):
        for k in range(j, max(ns) + 1):
            G[j, k] = mp.fdot(weighted[j], conjugate[k])
            G[k, j] = mp.conj(G[j, k])
    out = {}
    for n in ns:
        LU, perm = mp.LU_decomp(G[:n + 1, :n + 1])
        for zk in zs:
            v = mp.matrix([mp.mpc(zk) ** j for j in range(n + 1)])
            y = mp.U_solve(LU, mp.L_solve(LU, v, perm))
            K = mp.fsum(mp.conj(v[j]) * y[j] for j in range(n + 1))
            out[n, zk] = float(1 / mp.re(K))
    return out


def _ellipse_gram_lambda(a, b, A, B, t0, ns, zs):
    """{(n, z): lambda_n(z)} of the jump measure on the ellipse
    a cos t + i b sin t, with weight B on [t0, t0 + pi] and A on the rest.

    Shares no code with the pipeline.  At 50 digits, mpmath's Gauss-Legendre
    rule of degree 5 (48 points) on two panels of each jump-free segment
    gives 192 nodes z and weights w times the arc speed for ``_gram_lambda``.
    Returns the values, and the rule's angles t, nodes and weights.
    """
    with mp.workdps(50):
        gauss = GaussLegendre(mp)
        a, b, half = mp.mpf(a), mp.mpf(b), mp.pi / 2
        theta, z, w = [], [], []
        for lo, value in ((t0, B), (t0 + half, B), (t0 + 2 * half, A),
                          (t0 + 3 * half, A)):
            for t, weight in gauss.get_nodes(lo, lo + half, 5, mp.prec):
                c, s = mp.cos(t), mp.sin(t)
                theta.append(t)
                z.append(mp.mpc(a * c, b * s))
                w.append(value * weight * mp.sqrt((a * s) ** 2 + (b * c) ** 2))
        return _gram_lambda(z, w, ns, zs), theta, z, w


# the arc speed of a cos t + i b sin t has branch points atanh(b/a) off the
# real t axis, 0.100 for b/a = 0.1, which equal panels do not resolve at
# small n: kernel and Arnoldi agree there, and both are 5.3e-8 off
FLAT_ELLIPSE = pytest.mark.xfail(strict=True, reason="equal panels miss the "
                                 "arc speed's branch points near the axis")


@pytest.mark.parametrize("a, b, ns, points", [
    pytest.param(1.25, 0.75, (4, 12, 24), ("z0", 0.3 + 0.2j, 2.0 + 1.0j),
                 id="ellipse"),
    pytest.param(1.0, 0.1, (4,), (2.0 + 1.0j,), id="flat-ellipse",
                 marks=FLAT_ELLIPSE)])
def test_ellipse_gram_oracle(a, b, ns, points):
    # the Gram route through the sweep and through kernel lambda, at z0, and
    # inside and outside the curve, against the 50-digit monomial Gram
    measure = ellipse_jump_measure(a, b)
    zs = [measure.z0 if z == "z0" else z for z in points]
    oracle = _ellipse_gram_lambda(a, b, 2.0, 1.0, 0.0, ns, zs)[0]
    for z in zs:
        for row in run_sweep(measure, z=z, schedule=list(ns)).rows:
            want = oracle[row.n, z]
            kernel = christoffel_lambda(measure, row.n, z=z).lambda_n
            for got in (row.lambda_n, kernel):
                assert abs(got - want) <= 1e-13 * want, (row.n, z)


Z2_MINUS_2 = lemniscate_pullback_measure(ComplexPolynomial([-2.0, 0.0, 1.0]))
Z2_MINUS_2_NS = (4, 8, 16, 24)
Z2_MINUS_2_POINTS = (Z2_MINUS_2.z0, 1.02 * Z2_MINUS_2.z0, 2.0 + 1.0j)


@functools.lru_cache(maxsize=None)
def _z2_minus_2_oracle():
    """{(n, z): lambda_n(z)} of the circle jump (B = 1 on [pi/2, 3 pi/2],
    A = 2 on the rest) pulled back to |z^2 - 2| = 1, at Z2_MINUS_2_POINTS.

    Shares no code with the pipeline.  The fiber of e^{i theta} is
    z = +-sqrt(2 + e^{i theta}), one point on each component, and
    d(mu) = w(theta) |dz| = w(theta) d(theta) / |2 z|.  The fiber's branch
    points sit at theta = pi +- i ln 2, so the B segment is split at pi:
    at 50 digits, mpmath's Gauss-Legendre rule of degree 4 (24 points) on
    one panel of each A segment and two of the B segment gives 96 angles
    and 192 nodes for ``_gram_lambda`` (4e-21 from a rule twice as fine).
    Returns the values, and each node's angle, the nodes and the weights.
    """
    with mp.workdps(50):
        gauss = GaussLegendre(mp)
        half = mp.pi / 2
        theta, z, w = [], [], []
        for lo, hi, value in ((0, half, 2), (half, 2 * half, 1),
                              (2 * half, 3 * half, 1), (3 * half, 4 * half, 2)):
            for t, weight in gauss.get_nodes(lo, hi, 4, mp.prec):
                root = mp.sqrt(2 + mp.expj(t))
                for x in (root, -root):
                    theta.append(t)
                    z.append(x)
                    w.append(value * weight / abs(2 * x))
        return (_gram_lambda(z, w, Z2_MINUS_2_NS, Z2_MINUS_2_POINTS), theta, z,
                w)


def test_z2_minus_2_sweep_oracle():
    # the sweep's rows, on a rule built for degree 24, at z0, just outside
    # the curve and far from it, against the 50-digit pullback Gram
    oracle = _z2_minus_2_oracle()[0]
    for z in Z2_MINUS_2_POINTS:
        for row in run_sweep(Z2_MINUS_2, z=z, schedule=Z2_MINUS_2_NS).rows:
            want = oracle[row.n, z]
            assert abs(row.lambda_n - want) <= 1e-13 * want, (row.n, z)


# at n <= 8 build_rule lays one panel on each jump-free segment, and the B
# segment's panel misses the fiber's branch points at theta = pi +- i ln 2:
# kernel lambda is 4e-12 to 3e-11 off there
Z2_MINUS_2_LOW_DEGREE = pytest.mark.xfail(
    strict=True, reason="ROADMAP item 7: one equal panel per segment misses "
    "the fiber's branch points at theta = pi +- i ln 2")


@pytest.mark.parametrize("n", [
    pytest.param(4, marks=Z2_MINUS_2_LOW_DEGREE),
    pytest.param(8, marks=Z2_MINUS_2_LOW_DEGREE), 16, 24])
def test_z2_minus_2_kernel_lambda_oracle(n):
    # kernel lambda on a rule built for degree n, against the same oracle
    oracle = _z2_minus_2_oracle()[0]
    for z in Z2_MINUS_2_POINTS:
        got = christoffel_lambda(Z2_MINUS_2, n, z=z).lambda_n
        assert abs(got - oracle[n, z]) <= 1e-13 * oracle[n, z], z


def _oracle_moments(theta, z, w, count, N):
    """The Gram route's moments M[d, a, b] = sum_j w_j e^{i d theta_j}
    z_j^a conj(z_j)^b, d < count and a, b < N, of a 50-digit rule, rounded
    once to complex128 and shaped as ``_moments`` returns them for N^2
    columns."""
    with mp.workdps(50):
        return np.array([[complex(mp.fsum(
            wj * mp.expj(d * t) * zj ** a * mp.conj(zj) ** b
            for t, zj, wj in zip(theta, z, w)))
            for a in range(N) for b in range(N)] for d in range(count)])


@pytest.mark.parametrize("case", ["flat-ellipse", "z2-2"])
def test_gram_factor_meets_the_oracle_on_its_moments(monkeypatch, case):
    # the float factor and the basis values at z, on the 50-digit oracle's
    # own moments (s = 0 on z^2 - 2), meet the oracle within 1e-14 where the
    # pipeline's rule misses it by 5.3e-8 and 7e-12 to 3e-11 (the strict
    # xfails above): those misses come from the rule, not the factor.  The
    # misfit is not asserted, since the probes read the pipeline's nodes
    if case == "flat-ellipse":
        measure, ns, points = ellipse_jump_measure(1.0, 0.1), (4,), (2 + 1j,)
        oracle, *nodes = _ellipse_gram_lambda(1.0, 0.1, 2.0, 1.0, 0.0, ns,
                                              points)
    else:
        measure, ns, points = Z2_MINUS_2, (4, 8), Z2_MINUS_2_POINTS
        oracle, *nodes = _z2_minus_2_oracle()
    # V holds N^2 columns, one per moment sequence the route asks for
    monkeypatch.setattr(christoffel_mod, "_moments", lambda theta, V, count:
                        _oracle_moments(*nodes, count, math.isqrt(V.shape[1])))
    for n in ns:
        rule = build_rule(measure, n)
        for z in points:
            p = christoffel_mod._gram_rows(rule, measure.support, n, z)[0]
            got = 1 / np.sum(np.abs(p) ** 2)
            assert abs(got - oracle[n, z]) <= 1e-14 * oracle[n, z], (n, z)


@pytest.mark.parametrize("a, b, ns", [
    pytest.param(1.25, 0.75, (48, 96, 300), id="standard"),  # border K = 33
    pytest.param(1.0, 0.1, (48, 96), id="flat"),             # K = 222
    pytest.param(0.9, 0.9, (48, 96), id="round"),            # K = 1
    pytest.param(1.0, 2.0, (48, 96), id="tall")])            # K = 41
def test_ellipse_gram_route_beyond_its_border(a, b, ns):
    # the 50-digit oracle stops at n = 24, inside the Hankel border; beyond
    # it (or with the whole matrix bordered) the route's prefix matches
    # Arnoldi on the same rule, and its certificate stays at rounding level
    measure = ellipse_jump_measure(a, b)
    for n in ns:
        rule = build_rule(measure, n)
        basis = orthonormalize(rule, n)
        for z in (measure.z0, 0.3 + 0.2j):
            got, residual, _ = support_prefix(rule, measure.support, n, z)
            want = kernel_prefix(basis, z)
            assert np.max(np.abs(got - want) / want) <= 1e-13, (n, z)
            assert residual <= 1e-14, (n, z)


def _reference_bordered_cholesky(A):
    # the upper factor R of G = R^H R and R^{-H} phi for A = [G | phi],
    # factored in place GRAM_BLOCK rows at a time, the dense factor the
    # ellipse's Levinson core is checked against: both stop before the
    # first pivot below BREAKDOWN_REL of its diagonal entry of G
    n = A.shape[0]
    diag = A.diagonal().real.copy()
    for lo in range(0, n, christoffel_mod.GRAM_BLOCK):
        hi = min(lo + christoffel_mod.GRAM_BLOCK, n)
        A[lo:hi, lo:] -= np.conjugate(A[:lo, lo:hi]).T @ A[:lo, lo:]
        for k in range(lo, hi):
            A[k, k:] -= np.conjugate(A[lo:k, k]) @ A[lo:k, k:]
            d = A[k, k].real
            if not d > christoffel_mod.BREAKDOWN_REL * diag[k]:
                return A[:k, :k], A[:k, n]
            A[k, k:] /= math.sqrt(d)
    return A[:, :n], A[:, n]


def _reference_ellipse_rows(rule, support, degree, z):
    # the ellipse's Gram route by a dense factor: the (n+1) x (n+2)
    # assembly of G bordered by phi(z), one Cholesky factor and a blocked
    # back substitution for the kept rows
    cm = christoffel_mod
    w, n = rule.weights, degree
    _, rho, a, b = support.joukowski_frame
    q = np.arange(n + 1)
    r = ((a - b) / (a + b)) ** q
    K = int(np.count_nonzero(r >= cm.HANKEL_CUT))
    r = r[:K]
    mu = cm._moments(rule.params + support.rotation - rho, w, n + K)
    u, root = support.joukowski_root(z)
    phi = ((u + root) / (a + b)) ** q + ((u - root) / (a + b)) ** q
    window = np.lib.stride_tricks.sliding_window_view
    T = window(np.concatenate([np.conjugate(mu[n:0:-1]), mu[:n + 1]]),
               n + 1)[:, ::-1]
    X = window(mu, K)[:n + 1] * r
    D = np.conjugate(T[:K, :K]) * np.multiply.outer(r, r)
    A = np.empty((n + 1, n + 2), dtype=complex)
    A[:, :n + 1], A[:, n + 1] = T, phi
    A[:, :K] += X
    A[:K, :n + 1] += np.conjugate(X.T)
    A[:K, :K] += D
    R, p = _reference_bordered_cholesky(A)
    keep = cm._certified(n, p.size - 1)
    Y = np.zeros((p.size, len(keep)), dtype=complex)
    Y[keep, np.arange(len(keep))] = 1.0
    for lo in reversed(range(0, p.size, cm.GRAM_BLOCK)):
        hi = lo + cm.GRAM_BLOCK
        Y[lo:hi] = np.linalg.solve(np.triu(R[lo:hi, lo:hi]),
                                   Y[lo:hi] - R[lo:hi, hi:] @ Y[hi:])
    C = np.conjugate(Y.T)
    M, k = mu[:, None, None], min(K, p.size)
    X = X[:p.size, :k]
    W = cm._toeplitz_rows(M, C) + Y.T[:, :k] @ X.T
    W[:, :k] += Y.T @ np.conjugate(X) + Y.T[:, :k] @ D[:k, :k].T
    u, root = support.joukowski_root(rule.nodes)
    x, V = (u + root) / (a + b), w[:, None, None]
    return p, C, W, cm._probe_misfit(M, x, V)


@pytest.mark.parametrize("a, b", [(1.25, 0.75), (1.0, 0.1), (1.0, 2.0),
                                  (0.9, 0.9)],
                         ids=["standard", "flat", "tall", "round"])
def test_ellipse_route_matches_its_dense_reference(a, b):
    # the Levinson core with the border's Schur complement against the dense
    # bordered Cholesky factor it replaced (K = 33, 222, 41 and 1): the same
    # achieved degree and K_n(z) within 1e-13 at every degree, inside and
    # across the border and its first blocks, at z0, inside the curve and
    # outside it, where the prefix overflows at the same degrees
    measure = ellipse_jump_measure(a, b)
    for n in (8, 32, 33, 34, 96, 512):
        rule = build_rule(measure, n)
        for z in (measure.z0, 0.3 + 0.2j, 2.0 + 1.0j):
            got = support_prefix(rule, measure.support, n, z)[0]
            with np.errstate(over="ignore", invalid="ignore"):
                p = _reference_ellipse_rows(rule, measure.support, n, z)[0]
                want = np.cumsum(np.abs(p) ** 2)
            finite = np.isfinite(want)
            assert got.size == want.size, (n, z)
            assert np.array_equal(np.isfinite(got), finite), (n, z)
            error = np.abs(got[finite] - want[finite]) / want[finite]
            assert error.max() <= 1e-13, (n, z)


def _ellipse_rule(count):
    """``count`` distinct nodes on the 1.25/0.75 ellipse, at uneven angles
    and weights, exact (by fiat) well beyond what they can carry."""
    t = 2 * math.pi * (np.arange(count) + 0.3 * np.sin(np.arange(count))) / count
    return QuadratureRule(nodes=1.25 * np.cos(t) + 0.75j * np.sin(t),
                          weights=np.linspace(0.5, 1.5, count), params=t,
                          max_exact_degree=200)


@pytest.mark.parametrize("count, n", [(5, 8), (41, 64)],
                         ids=["inside-border", "beyond-border"])
def test_ellipse_breakdown_matches_arnoldi(monkeypatch, count, n):
    # count distinct nodes carry degree count - 1: inside the Hankel border
    # (K = 33) and beyond it, the route stops where Arnoldi does, kernel
    # lambda refuses with that degree and the sweep fails every row above it
    measure = ellipse_jump_measure(1.25, 0.75)
    rule = _ellipse_rule(count)
    with pytest.raises(DegeneracyError) as err:
        orthonormalize(rule, n)
    degree = err.value.achieved_degree
    assert degree == count - 1
    for z in (measure.z0, 0.3 + 0.2j):
        prefix, residual, _ = support_prefix(rule, measure.support, n, z)
        assert prefix.size - 1 == degree
        want = kernel_prefix(err.value.basis, z)
        assert np.max(np.abs(prefix - want) / want) <= 1e-12
        assert residual < 1e-13
    monkeypatch.setattr(christoffel_mod, "build_rule", lambda *args: rule)
    monkeypatch.setattr(xlab.sweep, "build_rule", lambda *args: rule)
    with pytest.raises(DegeneracyError) as refused:
        christoffel_lambda(measure, n)
    assert refused.value.achieved_degree == degree
    schedule = [degree - 1, degree, degree + 1, n]
    rows = run_sweep(measure, schedule=schedule).rows
    assert [row.ok for row in rows] == [True, True, False, False]


def test_certificate_refuses_a_wrong_gram_matrix(monkeypatch):
    # conj(G) factored by _szego_border on the ellipse (residual 0.25) and
    # conj(mu) on a circle jump at t = 1, with an empty border (9.0e-2),
    # fail the certificate; the standard circle jump at t = pi/2 is
    # symmetric under conjugation, so there the same mutation changes nothing
    real_border = christoffel_mod._szego_border

    def conjugated_border(mu, phi, G_aa, G_ba, count, keep):
        # every Gram entry the factor reads: the Toeplitz moments and both
        # blocks of the border; the certificate forms its own from mu
        return real_border(np.conjugate(mu), phi, np.conjugate(G_aa),
                           np.conjugate(G_ba), count, keep)

    cases = ((ellipse_jump_measure(1.25, 0.75), 0.2),
             (circle_jump_measure(jump_param=1.0), 5e-2))
    for measure, floor in cases:
        rule = build_rule(measure, 64)
        with monkeypatch.context() as patch:
            patch.setattr(christoffel_mod, "_szego_border", conjugated_border)
            _, residual, _ = support_prefix(rule, measure.support, 64, measure.z0)
            assert residual >= floor
            with pytest.raises(NumericError, match="residual"):
                christoffel_lambda(measure, 64)
            rows = run_sweep(measure, schedule=[8, 32, 64]).rows
            assert not any(row.ok for row in rows)
    symmetric = circle_jump_measure()
    rule = build_rule(symmetric, 64)
    with monkeypatch.context() as patch:
        patch.setattr(christoffel_mod, "_szego_border", conjugated_border)
        assert support_prefix(rule, symmetric.support, 64, 1.0)[1] < 1e-14

    # the one residual, formed by support_prefix, refuses any route whose
    # kept node rows are off: one row scaled by 1.01 on each route
    def scaled_row(route):
        def wrong(*args):
            p, Q, W, misfit = route(*args)
            Q = Q.copy()
            Q[len(Q) // 2] *= 1.01
            return p, Q, W, misfit
        return wrong

    for measure, name in ((interval_jump_measure(), "_recurrence_rows"),
                          (ellipse_jump_measure(1.25, 0.75), "_gram_rows"),
                          (circle_jump_measure(), "_gram_rows")):
        rule = build_rule(measure, 64)
        with monkeypatch.context() as patch:
            patch.setattr(christoffel_mod, name,
                          scaled_row(getattr(christoffel_mod, name)))
            _, residual, _ = support_prefix(rule, measure.support, 64,
                                            measure.z0)
            assert residual >= 9e-3
            with pytest.raises(NumericError, match="residual"):
                christoffel_lambda(measure, 64)
            rows = run_sweep(measure, schedule=[8, 32, 64]).rows
            assert not any(row.ok for row in rows)


def _mutated_moments(kind):
    """A ``_moments`` that builds the moments off the nodes: from angles
    scaled by 1 + 1e-6, with one node's weight zeroed, or with the top
    moment moved by 1e-8 mu_0."""
    real = christoffel_mod._moments

    def wrong(theta, V, count):
        if kind == "angles":
            return real(theta * (1 + 1e-6), V, count)
        if kind == "node":
            V = V.copy()
            V[len(V) // 3] = 0.0
            return real(theta, V, count)
        mu = real(theta, V, count)
        mu[-1] += 1e-8 * mu[0]
        return mu
    return wrong


@pytest.mark.parametrize("n", [64, 512])
@pytest.mark.parametrize("measure", [
    circle_jump_measure(jump_param=1.0),
    lemniscate_pullback_measure(ComplexPolynomial([0, 0, 1])),
    ellipse_jump_measure(1.25, 0.75)], ids=["circle", "z2", "ellipse"])
def test_probes_refuse_moments_off_the_nodes(monkeypatch, measure, n):
    # the probes read T (or the exterior variable) off the node coordinates,
    # so moments built from wrong angles or weights, or a top moment moved
    # by 1e-8 mu_0 (which C G C^H cannot see: G is built from the same
    # moments as C), refuse the route
    rule = build_rule(measure, n)
    assert support_prefix(rule, measure.support, n, measure.z0)[1] <= 1e-12
    for kind in ("angles", "node", "top"):
        with monkeypatch.context() as patch:
            patch.setattr(christoffel_mod, "_moments", _mutated_moments(kind))
            _, residual, _ = support_prefix(rule, measure.support, n,
                                            measure.z0)
            assert residual > christoffel_mod.CERTIFY_TOL, kind
            with pytest.raises(NumericError, match="residual"):
                christoffel_lambda(measure, n)


def _node_basis(rule, support, count):
    """phi_0, ..., phi_{count-1} of the Gram route at the nodes, from
    explicit exponentials of the node angles: (z - s)^a e^{i j theta} at
    index jN + a on |T| = 1, and e^{i k theta} + r^k e^{-i k theta} on an
    ellipse."""
    if support.kind == "ellipse":
        _, rho, a, b = support.joukowski_frame
        k = np.arange(count)[:, None]
        theta = rule.params + support.rotation - rho
        return (np.exp(1j * k * theta)
                + ((a - b) / (a + b)) ** k * np.exp(-1j * k * theta))
    poly = support.level_polynomial
    N = poly.degree
    s = -poly.coeffs[N - 1] / (N * poly.coeffs[N])
    i = np.arange(count)[:, None]
    return (np.exp(1j * (i // N) * rule.params)
            * (rule.nodes - s) ** (i % N))


@pytest.mark.parametrize("measure", [
    circle_jump_measure(jump_param=1.0),
    lemniscate_pullback_measure(ComplexPolynomial([0, 0, 1])),
    lemniscate_pullback_measure(ComplexPolynomial([-2, 0, 1])),
    parse_measure_text(CUBIC_TEXT),
    ellipse_jump_measure(1.25, 0.75),
    ellipse_jump_measure(1.0, 0.1)],
    ids=["circle", "z2", "z2-2", "cubic", "ellipse", "flat-ellipse"])
def test_gram_certificate_matches_the_kept_rows_at_the_nodes(measure):
    # C W^T = C G C^H, with G C^H by FFT, is the Gram matrix the kept p_k
    # have at the nodes: sum_j w_j q_a conj(q_b), q = C phi
    for n in (33, 200):
        rule = build_rule(measure, n)
        _, C, W, misfit = christoffel_mod._gram_rows(rule, measure.support, n,
                                                     measure.z0)
        q = C @ _node_basis(rule, measure.support, C.shape[1])
        want = (q * rule.weights) @ np.conjugate(q.T)
        assert np.max(np.abs(C @ W.T - want)) <= 1e-14, n
        assert misfit <= 1e-13, n


def test_circulant_length_is_the_smallest_5_smooth_one():
    # the circulant of _toeplitz_rows takes the least 2^a 3^b 5^c >= 2J - 1
    def smooth(k):
        for p in (2, 3, 5):
            while k % p == 0:
                k //= p
        return k == 1
    want = [next(m for m in itertools.count(n) if smooth(m))
            for n in range(1, 4200)]
    assert [christoffel_mod._fft_length(n) for n in range(1, 4200)] == want
    assert christoffel_mod._fft_length(2 * 513 - 1) == 1080


@settings(max_examples=40, derandomize=True, deadline=None)
@given(N=st.sampled_from([1, 2, 3]), count=st.integers(1, 300),
       rows=st.integers(1, 5), seed=st.integers(0, 2 ** 32 - 1))
def test_toeplitz_rows_match_a_dense_product(N, count, rows, seed):
    # the circulant product is conj(C) G^T for the dense block Toeplitz G,
    # M[-d] = M[d]^H, whatever N and however many blocks C's rows span
    gen = np.random.default_rng(seed)
    J = -(-count // N)
    M = gen.standard_normal((J, N, N, 2)) @ [1, 1j]
    M[0] += np.conjugate(M[0].T)
    C = gen.standard_normal((rows, count, 2)) @ [1, 1j]
    blocks = np.concatenate([np.conjugate(M[:0:-1]).transpose(0, 2, 1), M])
    d = np.subtract.outer(np.arange(J), np.arange(J)) + J - 1
    G = blocks[d].transpose(0, 2, 1, 3).reshape(J * N, J * N)[:count, :count]
    want = np.conjugate(C) @ G.T
    got = christoffel_mod._toeplitz_rows(M, C)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def _level_measure(N, coeffs, jump):
    """A circle jump measure (N = 1), or one pulled back through a T of
    degree N with the given lower coefficients and a real leading one of at
    least 1/2."""
    if N == 1:
        (a, b), (r, _) = coeffs[0], coeffs[1]
        return circle_jump_measure(radius=0.5 + abs(r), center=complex(a, b),
                                   jump_param=jump, z0=None)
    c = [complex(*ab) for ab in coeffs[:N]]
    lead = 0.5 + abs(c[-1])
    poly = ComplexPolynomial(c[:N] + [lead])
    return lemniscate_pullback_measure(poly, jump_param=jump)


@settings(max_examples=30, derandomize=True, deadline=None)
@given(N=st.sampled_from([1, 2, 3]),
       coeffs=st.lists(st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
                       min_size=3, max_size=3),
       jump=st.floats(0.0, 2 * math.pi), n=st.integers(1, 40),
       arg=st.floats(0.0, 2 * math.pi), level=st.sampled_from([1.0, 0.5, 1.6]))
def test_block_levinson_matches_arnoldi(N, coeffs, jump, n, arg, level):
    # circles and lemniscates of degree 2 and 3, kept 1e-3 away from a
    # pinch, at any degree (a multiple of N or not); z on the curve
    # (|T| = 1), inside it (|T| = 0.5) or outside (|T| = 1.6)
    measure = _level_measure(N, coeffs, jump)
    poly = measure.support.level_polynomial
    critical = poly.derivative()
    if critical.degree >= 1:
        values = np.abs(poly(np.roots(critical.coeffs[::-1])))
        assume(np.min(np.abs(values - 1.0)) >= 1e-3)
    z = complex(preimages(poly, level * cmath.exp(1j * arg))[0])
    rule = build_rule(measure, n)
    want = kernel_prefix(orthonormalize(rule, n), z)
    got, residual, route = support_prefix(rule, measure.support, n, z)
    assert route == "gram"
    assert np.max(np.abs(got - want) / want) <= 1e-12
    assert residual < 1e-13


def test_certificate_keeps_a_bounded_spread():
    # every 32nd polynomial up to degree 512, then 16 spread over the
    # degrees, and always the last one reached
    assert christoffel_mod._certified(512, 512) == list(range(0, 513, 32))
    assert christoffel_mod._certified(8, 8) == [0, 8]
    assert christoffel_mod._certified(8192, 8192) == list(range(0, 8193, 512))
    assert christoffel_mod._certified(2047, 2047)[-2:] == [1920, 2047]
    assert len(christoffel_mod._certified(2047, 2047)) == 17
    assert christoffel_mod._certified(512, 70) == [0, 32, 64, 70]


def test_power_table_is_sized_to_the_call():
    # the moments sum_j e^{i d theta_j} V[j], d < limit, from the doubled
    # power table and its block shifts, against direct sums of the
    # exponentials themselves, below, at and beyond one GRAM_BLOCK; dyadic
    # angles keep every d theta exact, so the direct sums are exact to rounding
    theta = 0.875 * np.arange(7)
    rng = np.random.default_rng(3)
    V = rng.standard_normal((7, 4)) + 1j * rng.standard_normal((7, 4))
    for limit in (1, 5, 64, 200):
        want = np.exp(1j * np.multiply.outer(np.arange(limit), theta)) @ V
        for v, w in ((V, want), (V[:, 0], want[:, 0])):
            got = christoffel_mod._moments(theta, v, limit)
            assert got.shape == w.shape
            assert np.max(np.abs(got - w)) <= 1e-13


@pytest.mark.skipif(np.finfo(np.longdouble).nmant < 63,
                    reason="the reference needs an 80-bit long double")
@pytest.mark.parametrize("measure", [
    circle_jump_measure(), ellipse_jump_measure(1.25, 0.75)],
    ids=["circle", "ellipse"])
def test_moments_match_a_long_double_sum(measure):
    # the 2048 moments of the rule for degree 2047 against sums of long
    # double exponentials: e^{i (lo + p) theta} = e^{i lo theta} e^{i p theta},
    # p < 64 and lo a multiple of 64, each angle exact in a 64-bit mantissa;
    # powers of one rounded e^{i theta} err by about d eps, where
    # e^{i d theta} of a rounded d theta erred by up to 2 pi d eps (1.2e-14
    # to 1.4e-14 mu_0 here)
    support, rule = measure.support, build_rule(measure, 2047)
    theta, w = rule.params, rule.weights
    if support.kind == "ellipse":  # the angles the ellipse route takes
        theta = theta + support.rotation - support.joukowski_frame[1]
    angle = theta.astype(np.longdouble)
    power = np.multiply.outer(np.arange(64), angle)
    table = np.cos(power) + 1j * np.sin(power)
    want = np.concatenate([
        table @ ((np.cos(lo * angle) + 1j * np.sin(lo * angle)) * w)
        for lo in range(0, 2048, 64)])
    got = christoffel_mod._moments(theta, w, 2048)
    assert np.max(np.abs(got - want)) <= 5e-15 * w.sum()


def test_moments_peak_memory_stays_near_the_table():
    # the shifted weights go to the product in groups of at most GRAM_BLOCK
    # rows, so the peak stays within 3 power tables of GRAM_BLOCK x m; one
    # operand of all 32 * 9 shifted rows at count 2048 would take 4.5 tables
    m, c = 12000, 9
    gen = np.random.default_rng(35)
    theta = gen.uniform(0, 2 * math.pi, m)
    V = gen.standard_normal((m, c, 2)) @ [1, 1j]
    table = christoffel_mod.GRAM_BLOCK * m * np.dtype(complex).itemsize
    for count in (700, 2048):
        tracemalloc.start()
        try:
            christoffel_mod._moments(theta, V, count)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * table, count


def _reference_moments(theta, V, count):
    # _moments as it was before it took one exponential per node: a table
    # doubled by exact exponentials e^{i h theta}, h a power of two, and one
    # shift e^{i lo theta} per GRAM_BLOCK moments
    B = np.empty((min(christoffel_mod.GRAM_BLOCK, count), theta.size),
                 dtype=complex)
    B[0], h = 1.0, 1
    while h < len(B):
        k = min(h, len(B) - h)
        np.multiply(B[:k], np.exp(1j * h * theta), out=B[h:h + k])
        h += k
    shape = (-1,) + (1,) * (V.ndim - 1)
    return np.concatenate(
        [B[:count - lo] @ (np.exp(1j * lo * theta).reshape(shape) * V)
         for lo in range(0, count, christoffel_mod.GRAM_BLOCK)])


def _reference_probe_misfit(M, x, V):
    # _probe_misfit as it was before it powered x: (r x)^L taken as
    # |r x|^L e^{i L arg(r x)} for each turn
    L, turns = len(M), christoffel_mod.PROBE_TURNS
    rho, d, turn = 1.0 - 1.0 / L, np.arange(L), np.array([1, 1j, -1, -1j])
    r_d = rho ** d * turn[np.multiply.outer(turns, d) % 4]
    lhs = r_d @ M.reshape(L, -1)
    y = np.multiply.outer(rho * turn[turns], x)
    top = np.abs(y) ** L * np.exp(1j * L * np.angle(y))
    rhs = ((1 - top) / (1 - y)) @ V.reshape(len(x), -1)
    scale = np.sqrt(M[0].diagonal().real)
    return float((np.abs(lhs - rhs) / np.outer(scale, scale).reshape(-1)).max())


@pytest.mark.parametrize("measure, bound", [
    (circle_jump_measure(), 2e-14),
    (lemniscate_pullback_measure(ComplexPolynomial([0, 0, 1])), None),
    (parse_measure_text(CUBIC_TEXT), None),
    (ellipse_jump_measure(1.25, 0.75), 5e-14),
    (ellipse_jump_measure(1.0, 0.1), None)],
    ids=["circle", "z2", "cubic", "ellipse", "flat-ellipse"])
def test_gram_route_matches_its_exponential_reference(monkeypatch, measure,
                                                      bound):
    # K_n off moments and probes from powers of one exponential per node
    # against the same route on the previous exponentials of d theta, at
    # degrees 512 and 2047; the certificate residual at 2047 sits below the
    # previous one's floor (1.0e-13 on the circle, 9.3e-14 on the ellipse)
    for n in (512, 2047):
        rule = build_rule(measure, n)
        for z in (measure.z0, 0.3 + 0.2j):
            got, residual, _ = support_prefix(rule, measure.support, n, z)
            with monkeypatch.context() as patch:
                patch.setattr(christoffel_mod, "_moments", _reference_moments)
                patch.setattr(christoffel_mod, "_probe_misfit",
                              _reference_probe_misfit)
                want = support_prefix(rule, measure.support, n, z)[0]
            assert abs(got[n] - want[n]) <= 1e-13 * want[n], (n, z)
            if n == 2047 and bound is not None:
                assert residual <= bound, z


def test_uncertified_route_is_numeric_error(monkeypatch):
    # kernel lambda_n refuses a route whose orthonormality residual is above
    # CERTIFY_TOL and accepts one at it
    real = christoffel_mod.support_prefix
    measure = circle_jump_measure()
    for residual in (2e-10, float("nan")):
        monkeypatch.setattr(christoffel_mod, "support_prefix",
                            lambda *args: (real(*args)[0], residual, "gram"))
        with pytest.raises(NumericError, match="residual"):
            christoffel_lambda(measure, 8)
    monkeypatch.setattr(christoffel_mod, "support_prefix",
                        lambda *args: (real(*args)[0], 1e-10, "gram"))
    assert christoffel_lambda(measure, 8).lambda_n > 0


def test_recurrence_breakdown_matches_arnoldi():
    # four circle nodes and three interval nodes support degrees 3 and 2;
    # the circle takes the Gram route, which gives kernels, not values
    three = QuadratureRule(nodes=np.array([-0.5, 0.1, 0.7], dtype=complex),
                           weights=np.array([0.3, 0.5, 0.2]),
                           params=np.arccos([-0.5, 0.1, 0.7]),
                           max_exact_degree=6)
    cases = ((_four_node_rule(), SupportSpec.make_circle(), 0.3 + 0.9j),
             (three, SupportSpec.make_interval(-1.0, 1.0), 0.2 + 0.1j))
    for (rule, support, z), degree in zip(cases, (3, 2)):
        with pytest.raises(DegeneracyError) as err:
            orthonormalize(rule, 6)
        partial = err.value.basis
        prefix, residual, route = support_prefix(rule, support, 6, z)
        assert prefix.size - 1 == err.value.achieved_degree == degree
        assert np.max(np.abs(prefix - kernel_prefix(partial, z))
                      / prefix) <= 1e-13
        assert residual < 1e-13
        if route == "recurrence":
            values = christoffel_mod._recurrence_rows(rule, 6, z)[0]
            assert np.max(np.abs(values - partial.evaluate(z))) <= 1e-13


def test_block_levinson_breakdown_matches_arnoldi():
    # K nodes on |z^N| = 1 carry degree K - 1: the route stops at the same
    # degree as Arnoldi, at the first (K = 8, 9) or a later (K = 7) pivot of
    # a block, or at an exactly singular block (K < N), and agrees with the
    # partial basis there; at N = 1, the circle's Toeplitz recursion with
    # an empty border, it stops at a pivot (K = 5, 1)
    z = 0.3 + 0.4j
    for K, N in ((8, 2), (7, 2), (9, 3), (2, 3), (1, 2), (5, 1), (1, 1)):
        nodes = np.exp(2j * math.pi * (np.arange(K) + 0.3) / K)
        rule = QuadratureRule(nodes=nodes, weights=np.linspace(0.5, 1.5, K),
                              params=np.angle(nodes ** N), max_exact_degree=24)
        support = lemniscate_pullback_measure(
            ComplexPolynomial([0] * N + [1])).support
        with pytest.raises(DegeneracyError) as err:
            orthonormalize(rule, 12)
        prefix, residual, _ = support_prefix(rule, support, 12, z)
        assert prefix.size - 1 == err.value.achieved_degree == K - 1
        want = kernel_prefix(err.value.basis, z)
        assert np.max(np.abs(prefix - want) / want) <= 1e-13
        assert residual < 1e-13


def _reference_block_levinson(M, t, f, count, keep):
    # _block_levinson as it was written before its blocks were stacked: one
    # inverse per step of np.array([E, D]), the gains, the bulk updates and
    # D, E each by their own product
    N = M.shape[1]
    J = (count - 1) // N
    if N == 1:
        block, adjoint, mul = (lambda P: P.item(0)), complex.conjugate, operator.mul
        inverses = lambda E, D: (1 / E, 1 / D)
    else:
        block, adjoint, mul = (lambda P: P[:, :N]), (lambda P: P.conj().T), np.matmul
        inverses = lambda E, D: np.linalg.inv(np.array([E, D]))
    W = np.zeros((J + 1, N, N + 1), dtype=complex)
    W[:J, :, :N], W[:, :, N], W[0, :, N] = M[1:J + 1], t, f
    np.multiply.accumulate(W[:, :, N], out=W[:, :, N])
    W = W.reshape(-1, N + 1)
    A = np.zeros((N, (J + 1) * N), dtype=complex)
    B = np.zeros_like(A)
    A[:, J * N:] = B[:, :N] = np.eye(N)
    D = np.full((J + 1, N, N), np.nan, dtype=complex)
    X = np.full((J + 1, N, N + 1), np.nan, dtype=complex)
    D[0] = M[0]
    Dj = E = block(M[0])
    blocks = sorted({k // N for k in keep})
    A_kept = np.zeros((len(blocks), N, count), dtype=complex)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for j in range(J + 1):
            Aj, Bj = A[:, (J - j) * N:], B[:, :(j + 1) * N]
            if j in blocks:
                A_kept[blocks.index(j), :, :(j + 1) * N] = Aj[:, :count]
            X[j] = Aj @ W[:(j + 1) * N]
            if j == J:
                break
            delta = block(X[j])
            deltaH = adjoint(delta)
            try:
                inv_E, inv_D = inverses(E, Dj)
            except (np.linalg.LinAlgError, ZeroDivisionError):
                break
            Kf, Kb = mul(delta, inv_E), mul(deltaH, inv_D)
            back = mul(Kb, Aj)
            A[:, (J - j - 1) * N:J * N] -= mul(Kf, Bj)
            B[:, N:(j + 2) * N] -= back
            Dj, E = Dj - mul(Kf, deltaH), E - mul(Kb, delta)
            D[j + 1] = Dj
        pivots, p = christoffel_mod._block_cholesky(D, X[:, :, N:])
        _, Y = christoffel_mod._block_cholesky(D[blocks], A_kept)
    ok = (pivots > christoffel_mod.BREAKDOWN_REL
          * M[0].diagonal().real).reshape(-1)[:count]
    C = np.array([Y[blocks.index(k // N), k % N] for k in keep])
    return p.reshape(-1)[:count], ok, C


def _assert_same_levinson(args):
    got = christoffel_mod._block_levinson(*args)
    want = _reference_block_levinson(*args)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and np.array_equal(g, w, equal_nan=True)


def _assert_szego_matches_reference(M, t, f, count, keep):
    # _szego_border with an empty border against the reference's scalar
    # branch, which rounds differently: a Levinson-type recursion is weakly
    # stable (Bunch, SIAM J. Sci. Stat. Comput. 6, 1985), its error growing
    # like kappa_k eps for kappa_k the condition number of G to degree k, so
    # p_k and the kept C rows agree within 1e-13 kappa_k, and ok agrees, up
    # to the degree where kappa_k reaches 1e13; past it these few-atom
    # moments are singular to working precision
    mu = M[:, 0, 0]
    phi = np.multiply.accumulate(np.r_[f, np.full(count - 1, t)])
    p, ok, C = christoffel_mod._szego_border(
        mu, phi, np.zeros((0, 0)), np.zeros((count, 0)), count, keep)
    p_ref, ok_ref, C_ref = _reference_block_levinson(M, t, f, count, keep)
    d = np.subtract.outer(np.arange(count), np.arange(count))
    G = np.where(d >= 0, mu[abs(d)], np.conjugate(mu[abs(d)]))
    kappa = np.array([np.linalg.cond(G[:k + 1, :k + 1]) for k in range(count)])
    cut = int(np.argmax(np.r_[kappa, np.inf] >= 1e13))
    assert np.array_equal(ok[:cut], ok_ref[:cut])
    assert np.all(np.abs(p[:cut] - p_ref[:cut])
                  <= 1e-13 * kappa[:cut] * np.abs(p_ref[:cut]))
    for row, row_ref, k in zip(C, C_ref, keep):
        if k < cut:
            assert np.max(np.abs(row - row_ref)) <= (
                1e-13 * kappa[k] * np.max(np.abs(row_ref)))


def test_block_levinson_matches_its_unstacked_reference():
    # seeded random Hermitian block Toeplitz moments, the moments of
    # m weighted vectors at random angles, so that G is positive definite,
    # at N = 1, 2, 3 and counts that are a multiple of N or not: at N = 2
    # and 3 the stacked step gives the same bits as one product per block;
    # N = 1 takes _szego_border with an empty border
    gen = np.random.default_rng(33)
    for N in (1, 2, 3):
        for count in (1, 2, 7, 30, 91, 160):
            J = count // N + 1
            m = N * J + 5
            theta = gen.uniform(0, 2 * math.pi, m)
            Z = gen.standard_normal((m, N, 2)) @ [1, 1j]
            V = gen.uniform(0.5, 1.5, m)[:, None, None] * (
                Z[:, :, None] * np.conjugate(Z[:, None, :]))
            M = np.einsum("dj,jab->dab",
                          np.exp(1j * np.multiply.outer(np.arange(J), theta)), V)
            t = complex(*gen.uniform(-1.2, 1.2, 2))
            f = gen.standard_normal((N, 2)) @ [1, 1j]
            keep = christoffel_mod._certified(count - 1, count - 1)
            if N == 1:
                _assert_szego_matches_reference(M, t, f, count, keep)
            else:
                _assert_same_levinson((M, t, f, count, keep))


def test_block_levinson_breakdown_matches_its_unstacked_reference(monkeypatch):
    # the breakdown rules of test_block_levinson_breakdown_matches_arnoldi:
    # every call the Gram route makes, the second one to the achieved
    # degree included, gives the reference's bits
    calls, real = [], christoffel_mod._block_levinson
    monkeypatch.setattr(christoffel_mod, "_block_levinson",
                        lambda *args: calls.append(args) or real(*args))
    for K, N in ((8, 2), (7, 2), (9, 3), (2, 3), (1, 2)):
        nodes = np.exp(2j * math.pi * (np.arange(K) + 0.3) / K)
        rule = QuadratureRule(nodes=nodes, weights=np.linspace(0.5, 1.5, K),
                              params=np.angle(nodes ** N), max_exact_degree=24)
        support = lemniscate_pullback_measure(
            ComplexPolynomial([0] * N + [1])).support
        support_prefix(rule, support, 12, 0.3 + 0.4j)
    assert len(calls) == 10
    monkeypatch.undo()
    for args in calls:
        _assert_same_levinson(args)


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


def test_degree_one_lemniscate_is_its_circle():
    # the shipped lemniscate of T = e^{i alpha} (z - c)/r, traced and pulled
    # back, is the circle |z - c| = r with its jump at pi/2 - alpha: z0, the
    # predicted limit and kernel lambda agree, at z0, just outside the
    # curve, inside it and far from it.  At n = 512 z0 is left out: the two
    # supports round the jump's position apart, and lambda_512 moves by
    # 8e-14 across that gap
    c, r, alpha = 0.4 - 0.3j, 1.7, 0.9
    path = MEASURES / "lemniscate_degree1_jump.measure"
    lemniscate = load_measure_file(path)
    circle = circle_jump_measure(jump_param=math.pi / 2 - alpha, radius=r,
                                 center=c)
    assert abs(lemniscate.z0 - circle.z0) <= 1e-15
    want = predicted_limit(circle)
    assert abs(predicted_limit(lemniscate) - want) <= 1e-15 * want
    points = (None, 1.02 * (circle.z0 - c) + c, c + 0.3, 3 + 1j)  # None: z0
    for n in (8, 33, 96, 512):
        for z in points[1:] if n == 512 else points:
            got = christoffel_lambda(lemniscate, n, z=z).lambda_n
            want = christoffel_lambda(circle, n, z=z).lambda_n
            assert abs(got - want) <= 1e-13 * want, (n, z)


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


def test_support_prefix_rejects_a_degree_beyond_the_rule():
    # one degree check serves the recurrence (interval) and the Gram route
    measure = ellipse_jump_measure(1.25, 0.75)
    rule = build_rule(measure, 8)
    for support in (SupportSpec.make_interval(-1.0, 1.0), measure.support):
        with pytest.raises(DomainError):
            support_prefix(rule, support, 9, 1.0)


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
        lam = 1.0 / support_prefix(rule, measure.support, n - 1, xj)[0][-1]
        assert abs(lam - wj) <= 1e-12 * wj


@settings(max_examples=25, derandomize=True, deadline=None)
@given(circle=st.booleans(), a=st.floats(-2.0, 2.0), b=st.floats(-2.0, 2.0),
       size=st.floats(0.2, 3.0), s=st.floats(0.05, 0.95),
       off=st.sampled_from([0.0, 0.4, -0.4]))
def test_recurrence_matches_arnoldi_prefix(circle, a, b, size, s, off):
    # the route on circles of any centre and radius (the Gram route) and on
    # intervals with any endpoints (the recurrence); z on the support, inside
    # or outside it (above it for an interval)
    if circle:
        measure = circle_jump_measure(radius=size, center=complex(a, b))
        z = measure.support.center + size * (1.0 + off) * cmath.exp(
            2j * math.pi * s)
    else:
        measure = interval_jump_measure(a, a + size, jump_param=a + 0.5 * size)
        z = complex(a + s * size, off * size)
    rule = build_rule(measure, 40)
    want = kernel_prefix(orthonormalize(rule, 40), z)
    got, residual, _ = support_prefix(rule, measure.support, 40, z)
    assert np.max(np.abs(got - want) / want) <= 1e-12
    assert residual < 1e-13


def test_import_does_not_load_mpmath():
    src = os.path.dirname(os.path.dirname(os.path.abspath(xlab.__file__)))
    code = "import sys, xlab; print('mpmath' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


def test_kernel_prefix_matches_kernel_lambda():
    measure = circle_jump_measure()
    basis = orthonormalize(build_rule(measure, 20), 20)
    prefix = kernel_prefix(basis, measure.z0)
    for n in (0, 7, 20):
        value = christoffel_lambda(measure, n, basis=basis)
        assert prefix[n] == pytest.approx(1.0 / value.lambda_n, rel=1e-14)
    # on an array of points each column is one point's prefix, summed over
    # the degrees only
    points = [measure.z0, 0.3 + 0.2j]
    columns = kernel_prefix(basis, points)
    assert columns.shape == (21, 2)
    for i, z in enumerate(points):
        want = kernel_prefix(basis, z)
        assert np.max(np.abs(columns[:, i] - want) / want) <= 1e-14


def test_arnoldi_readers_reject_bad_input():
    # a non-integral degree is refused, not truncated; an out-of-range one
    # stays a DomainError
    basis = orthonormalize(build_rule(circle_jump_measure(), 8), 8)
    for upto in (2.7, 3.0, "3"):
        with pytest.raises(InputError, match="integer") as err:
            basis.evaluate(0.5, upto=upto)
        assert not isinstance(err.value, DomainError)
    assert basis.evaluate(0.5, upto=np.int64(3)).shape == (4,)
    for upto in (-1, 9):
        with pytest.raises(DomainError):
            basis.evaluate(0.5, upto=upto)
    with pytest.raises(InputError, match="1-D"):
        basis.evaluate(np.zeros((2, 2)))


def test_non_integer_degree_is_input_error():
    # every degree argument goes through operator.index: 3.5 and "4" are
    # refused with InputError, numpy integers are accepted
    measure = circle_jump_measure()
    rule = build_rule(measure, 8)
    basis = orthonormalize(rule, 8)
    for n in (3.5, "4"):
        with pytest.raises(InputError, match="integer"):
            christoffel_lambda(measure, n)
        with pytest.raises(InputError, match="integer"):
            christoffel_lambda(measure, n, basis=basis)
        with pytest.raises(InputError, match="integer"):
            orthonormalize(rule, n)
        with pytest.raises(InputError, match="integer"):
            support_prefix(rule, measure.support, n, measure.z0)
    value = christoffel_lambda(measure, np.int64(8))
    assert value.lambda_n == christoffel_lambda(measure, 8).lambda_n
    assert christoffel_lambda(measure, np.int64(8), basis=basis).lambda_n \
        == christoffel_lambda(measure, 8, basis=basis).lambda_n
    assert orthonormalize(rule, np.int64(8)).degree == 8


def test_evaluate_follows_the_shape_of_z():
    measure = circle_jump_measure()
    basis = orthonormalize(build_rule(measure, 16), 16)
    value = christoffel_lambda(measure, 16, basis=basis, method="direct")
    points = np.array([0.3 + 0.2j, -0.5j, 1.1])
    cases = ((0.3 + 0.2j, (17,)), (np.array(0.3 + 0.2j), (17,)),
             (list(points), (17, 3)), (points, (17, 3)))
    for z, shape in cases:
        assert basis.evaluate(z).shape == shape
        assert basis.evaluate(z, upto=5).shape == (6,) + shape[1:]
    got = extremal_polynomial_values(basis, value, 0.3 + 0.2j)
    assert type(got) is complex
    assert extremal_polynomial_values(basis, value, points).shape == (3,)
    assert got == pytest.approx(
        extremal_polynomial_values(basis, value, points)[0], rel=1e-14)


def test_hessenberg_is_stored_row_by_row():
    # evaluate reads column k of H as one contiguous row; the attribute
    # keeps the shape (degree + 2, degree + 1), the partial basis too
    basis = orthonormalize(build_rule(circle_jump_measure(), 12), 12)
    assert basis.hessenberg.shape == (14, 13)
    assert basis.hessenberg.T.flags.c_contiguous
    assert np.all(np.abs(np.diagonal(basis.hessenberg, -1)[:12]) > 0)
    assert not np.tril(basis.hessenberg, -2).any()
    with pytest.raises(DegeneracyError) as err:
        orthonormalize(_four_node_rule(), 8)
    assert err.value.basis.hessenberg.shape == (5, 4)


def _columnwise_values(basis, z):
    """The recurrence read column by column from a C-ordered H, z as a
    (k + 1) x 1 matrix."""
    H = np.ascontiguousarray(basis.hessenberg)
    zz = np.atleast_1d(np.asarray(z, dtype=complex))
    P = np.empty((basis.degree + 1, zz.size), dtype=complex)
    P[0] = 1.0 / math.sqrt(basis.mass)
    for k in range(basis.degree):
        P[k + 1] = (zz * P[k] - H[:k + 1, k] @ P[:k + 1]) / H[k + 1, k].real
    return P[:, 0]


@pytest.fixture(scope="module")
def bases_256():
    """(measure, basis) at degree 256 for each standard jump measure."""
    return {name: (measure, orthonormalize(build_rule(measure, 256), 256))
            for name, measure in standard_jump_measures().items()}


def test_evaluate_matches_columnwise_recurrence(bases_256):
    # on, near, off the curve and inside it; at z = 1000 the values overflow,
    # and at the same degrees as the column-wise loop's
    for name, (measure, basis) in bases_256.items():
        z0 = complex(measure.z0)
        for z in (z0, z0 + 1e-3j, z0 + 0.2 + 0.1j, 0.3 + 0.2j, 2 + 1j):
            got, want = basis.evaluate(z), _columnwise_values(basis, z)
            assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-14, (name, z)
        with np.errstate(over="ignore", invalid="ignore"):
            got, want = basis.evaluate(1000.0), _columnwise_values(basis, 1000.0)
        finite = np.isfinite(want)
        assert not finite.all(), name
        assert np.array_equal(np.isfinite(got), finite), name
        assert np.max(np.abs(got[finite] - want[finite])
                      / np.abs(want[finite])) <= 1e-14


@pytest.fixture(scope="module")
def bases_64():
    """Degree-64 bases of the standard jump measures and a partial basis."""
    out = {name: orthonormalize(build_rule(measure, 64), 64)
           for name, measure in standard_jump_measures().items()}
    with pytest.raises(DegeneracyError) as err:
        orthonormalize(_four_node_rule(), 8)
    out["partial"] = err.value.basis
    return out


@settings(max_examples=40, derandomize=True, deadline=None)
@given(name=st.sampled_from(["circle", "ellipse", "interval", "lemniscate",
                             "partial"]),
       points=st.lists(st.complex_numbers(max_magnitude=1.5, allow_nan=False,
                                          allow_infinity=False),
                       min_size=1, max_size=6))
def test_evaluate_on_points_matches_each_point(bases_64, name, points):
    # relative to the largest value: p_k(0) = 0 on a uniform circle
    basis = bases_64[name]
    table = basis.evaluate(np.array(points))
    for i, z in enumerate(points):
        want = basis.evaluate(z)
        assert np.max(np.abs(table[:, i] - want)) <= 1e-14 * np.max(np.abs(want))


def _assert_close(got, want, rel=1e-14):
    assert got.shape == want.shape
    assert np.max(np.abs(got - want) / np.abs(want)) <= rel


def test_one_point_matches_its_array_column(bases_256):
    # one point steps on a Python complex, an array of points on arrays: each
    # entry of the one-point values, and of its kernel prefix, is within
    # 1e-14 of that point's column, whatever scalar type names the point
    for measure, basis in bases_256.values():
        z0 = complex(measure.z0)
        points = [z0, z0 + 1e-3j, z0 + 0.2 + 0.1j, 0.3 + 0.2j]
        # real points off every support: on the interval's own segment the
        # real p_k(x) pass near zero, where the two sums' rounding differs
        # by up to 6e-14 relative
        reals = [2, 1.5, np.float64(-1.75)]
        for zs, kinds in ((points, (complex, np.complex128, np.array)),
                          (reals, (lambda x: x,))):
            table = basis.evaluate(np.array(zs, dtype=complex))
            for i, z in enumerate(zs):
                for kind in kinds:
                    _assert_close(basis.evaluate(kind(z)), table[:, i])
        prefixes = kernel_prefix(basis, points)
        for i, z in enumerate(points):
            _assert_close(kernel_prefix(basis, z), prefixes[:, i])
        for upto in (0, 1, basis.degree):
            table = basis.evaluate(np.array(points), upto=upto)
            for i, z in enumerate(points):
                _assert_close(basis.evaluate(z, upto=upto), table[:, i])
    # the partial basis a breakdown carries reads the same way
    with pytest.raises(DegeneracyError) as err:
        orthonormalize(_four_node_rule(), 8)
    partial, points = err.value.basis, [0.3 + 0.2j, 0.1, 1.5 - 0.4j]
    table = partial.evaluate(np.array(points))
    for i, z in enumerate(points):
        _assert_close(partial.evaluate(z), table[:, i])


@settings(max_examples=40, derandomize=True, deadline=None)
@given(ellipse=st.booleans(),
       axes=st.tuples(st.floats(0.3, 2.0), st.floats(0.3, 2.0)),
       center=st.complex_numbers(max_magnitude=1.0),
       weights=st.tuples(st.floats(0.5, 3.0), st.floats(0.5, 3.0)),
       jump=st.floats(0.0, 2 * math.pi),
       degree=st.integers(1, 64),
       box=st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
       zoom=st.sampled_from([1.0, 1e12]))
def test_one_point_matches_the_array_path(ellipse, axes, center, weights,
                                          jump, degree, box, zoom):
    # z in a box around the support, or 1e12 times as far, where the values
    # overflow from about degree 26: the one-point values match the array
    # path's column and the column-wise loop, relative to the largest value
    # so far (a p_k may vanish near z), and turn non-finite at the same
    # degrees
    (A, B), (u, v) = weights, box
    if ellipse:
        a, b = max(axes), min(axes)
        measure = ellipse_jump_measure(a, b, A=A, B=B, jump_param=jump,
                                       center=center)
    else:
        a = b = axes[0]
        measure = circle_jump_measure(A=A, B=B, jump_param=jump, radius=a,
                                      center=center)
    basis = orthonormalize(build_rule(measure, degree), degree)
    z = center + zoom * complex(u * a, v * b)
    with np.errstate(over="ignore", invalid="ignore"):
        got = basis.evaluate(z)
        pair = basis.evaluate(np.array([z, center]))[:, 0]
        loop = _columnwise_values(basis, z)
    finite = np.isfinite(loop)
    scale = np.maximum.accumulate(np.where(finite, np.abs(loop), 0.0))
    for want in (pair, loop):
        assert np.array_equal(np.isfinite(got), np.isfinite(want))
        assert np.all(np.abs(got[finite] - want[finite])
                      <= 1e-14 * scale[finite])


def test_christoffel_value_reports_its_residual():
    # the route's certificate residual, or the basis's largest
    # norm_residuals entry up to degree n
    for measure in standard_jump_measures().values():
        rule = build_rule(measure, 64)
        value = christoffel_lambda(measure, 64)
        _, residual, _ = support_prefix(rule, measure.support, 64,
                                        measure.z0)
        assert value.residual == residual <= christoffel_mod.CERTIFY_TOL
        basis = orthonormalize(rule, 64)
        for n in (0, 20, 64):
            want = float(np.max(basis.norm_residuals[:n + 1]))
            for method in ("kernel", "direct"):
                value = christoffel_lambda(measure, n, basis=basis,
                                           method=method)
                assert value.route == "arnoldi"
                assert value.residual == want < 2e-15


@pytest.mark.filterwarnings("error")
def test_arnoldi_far_point_is_numeric_error_without_warning(bases_512):
    # |p_k(1000)|^2 overflows float64 below degree 256 on every standard
    # measure; like the route, an explicit basis reports it only by the error
    for name, (measure, _, basis) in bases_512.items():
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
    want, _, _ = support_prefix(rule, measure.support, 512, measure.z0)
    got = kernel_prefix(basis, measure.z0)
    assert np.max(np.abs(got - want) / want) <= 1e-13
