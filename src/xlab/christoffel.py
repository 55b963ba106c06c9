"""Orthonormal bases and Christoffel functions for discrete measures.

The Christoffel function follows from the kernel identity
1/lambda_n(z) = K_n(z) = sum_{k <= n} |p_k(z)|^2.  ``support_prefix`` gives
every K_n(z) up to a degree without storing a basis, by a route that depends
on the support kind alone: on intervals the Stieltjes recurrence, and on
ellipses, circles and lemniscates a Gram matrix built from moments of the
rule, by one assembly in which each kind states only its node angles,
weights, border and basis.  On an ellipse that matrix is Toeplitz plus a
Hankel border K wide (33 for axes 5:3), and on a circle, |T| = 1 at
deg T = 1, it is the case K = 0: the scalar Szegő recursion factors the
Toeplitz part and the border enters through a K x K Schur complement, in
O(n^2 K + n m) for m nodes.  On a lemniscate |T| = 1 of degree 2 and up it
is block Toeplitz, and the block Levinson recursion factors it in
O(n^2 deg T + n m).  Each route returns p_k(z) up to the degree it reaches,
rows Q of a few of its polynomials, the rows W that make Q W^T = I, and a
misfit of its moments against the nodes.  The interval's Q holds node values; a
Gram route's Q holds the coefficient rows C, and W^T = G C^H comes from the
moments by FFT, while probes check the moments against the node coordinates:
O(n log n) per kept polynomial and O(m log n) for the probes.
``support_prefix`` alone sums the prefix and certifies Q, and a residual
(the larger of max |Q W^T - I| and the misfit) above CERTIFY_TOL refuses the
result.  Sweeps and kernel ``christoffel_lambda`` calls take this route.

Where node values are needed (``method="direct"``, an explicit ``basis``,
``OrthoBasis`` itself) the basis p_0, ..., p_n orthonormal under a
quadrature rule is built by Arnoldi iteration on the node values.  Each step
runs one classical Gram-Schmidt pass, and a second one only when the first
cancels, that is when the norm falls below REORTH times its value before
projection: the "twice is enough" test of Daniel, Gragg, Kaufman and Stewart
(Math. Comp. 30, 1976).  No Gram matrix of monomials is ever formed, which
keeps the process stable far beyond the degrees where normal equations fail.
The recorded Hessenberg recurrence

    H[k+1, k] * p_{k+1}(z) = z * p_k(z) - sum_{j <= k} H[j, k] * p_j(z)

evaluates the basis anywhere in the plane.  H is stored row by row, column
k of H as one contiguous row, and ``OrthoBasis.evaluate`` returns
(n + 1,) + z.shape values.  Points in a 1-D array step together, one
matrix-vector product per step; a single point steps as a Python complex,
one 1-D dot product per step with no 0-d array arithmetic around it.
The direct method integrates the reconstructed minimal polynomial instead of
inverting the kernel, which checks the kernel against an independent
computation.
"""

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import (DegeneracyError, DomainError, InputError,
                     NumericError, as_index)
from .quadrature import build_rule

BREAKDOWN_REL = 1e-14
# First-pass norm ratio below which a second pass runs.  On an interval one
# pass leaves about 1/sqrt(2) of |z p_k|; at 1/2 every interval step skips the
# second pass and K_512(z0) drifts 6.5e-13 from the Stieltjes recurrence.
REORTH = 2 ** -0.5
GRAM_BLOCK = 64        # rows or columns per block product (certificates,
                       # moments, the ellipse border's correlations)
CERTIFY_STRIDE = 32    # the certificate keeps every CERTIFY_STRIDE-th polynomial,
CERTIFY_COUNT = 16     # and no more than CERTIFY_COUNT + 1 (see _certified)
CERTIFY_TOL = 1e-10    # certificate residual above which a result is refused
# r^k below which the ellipse's Gram matrix and certificate drop phi_k's
# (r/e)^k half: a dropped term is below 2^-64 mu_0, 2^-11 of the rounding
# error of G's diagonal, about 2^-53 mu_0
HANKEL_CUT = 2.0 ** -64
# quarter turns k of the moment probes r = (1 - 1/L) i^k (see _probe_misfit)
PROBE_TURNS = np.array([0, 1, 2])


class OrthoBasis:
    """Orthonormal polynomials stored as node values plus a recurrence.

    ``hessenberg`` has shape (degree + 2, degree + 1); column k holds the
    projection coefficients and the new norm produced while orthogonalizing
    z * p_k.  ``orthonormalize`` stores H row by row, so ``hessenberg`` is
    the transpose of a C-contiguous array and ``evaluate`` reads each step's
    coefficients from one contiguous row, and the norms H[k+1, k] once, as
    Python floats.  ``evaluate`` returns (n + 1,) + z.shape values; a single
    point runs the same loop as an array, on a Python complex, so each step
    is one dot product plus scalar arithmetic.  ``norm_residuals[k]`` is the
    largest observed deviation of <p_j, p_k> from the identity, a direct
    quality certificate of the basis.  ``reorthogonalized`` counts the steps
    that took a second Gram-Schmidt pass.
    """

    def __init__(self, degree, hessenberg, node_values, norm_residuals,
                 mass, rule, reorthogonalized):
        self.degree = degree
        self.hessenberg = hessenberg
        self.node_values = node_values
        self.norm_residuals = norm_residuals
        self.mass = mass
        self.rule = rule
        self.reorthogonalized = reorthogonalized

    def evaluate(self, z, upto=None):
        """Values p_0(z), ..., p_upto(z), shaped (upto + 1,) + z.shape.

        ``z`` is one point or a 1-D array of points; ``upto`` an integer
        degree, the basis degree by default.
        """
        n = self.degree if upto is None else as_index(upto, "upto")
        if not 0 <= n <= self.degree:
            raise DomainError(f"degree {n} outside the basis range")
        zz = np.asarray(z, dtype=complex)
        if zz.ndim > 1:
            raise InputError("z must be a point or a 1-D array of points")
        # one point steps on a Python complex, not on a 0-d array
        z = zz if zz.ndim else complex(zz)
        P = np.empty((n + 1,) + zz.shape, dtype=complex)
        P[0] = 1.0 / math.sqrt(self.mass)
        Ht = self.hessenberg.T
        norms = Ht.diagonal(1).real.tolist()
        for k in range(n):
            P[k + 1] = (z * P[k] - Ht[k, :k + 1] @ P[:k + 1]) / norms[k]
        return P


def _check_degree(rule, degree):
    if as_index(degree, "degree") < 0:
        raise InputError("degree must be nonnegative")
    if degree > rule.max_exact_degree:
        raise DomainError(
            f"rule is only exact for products of degree {rule.max_exact_degree}, "
            f"cannot reach degree {degree}")


def orthonormalize(rule, degree):
    """Orthonormal basis of degree ``degree`` for the rule's measure.

    Each step orthogonalizes z * p_k against p_0, ..., p_k by one classical
    Gram-Schmidt pass, and by a second pass only when the first leaves less
    than REORTH of the norm of z * p_k; ``norm_residuals`` certifies the
    result either way.  Raises DegeneracyError when the discrete measure
    cannot support the requested degree; the exception carries the achieved
    degree and the partial basis.
    """
    _check_degree(rule, degree)

    # <v, p_j> = conj(Q[j] @ conj(w * v)): one GEMV against the stored
    # basis, with no weighted copy of it.
    x, w = rule.nodes, rule.weights
    m = x.size
    mass = float(w.sum())
    Q = np.empty((degree + 1, m), dtype=complex)
    # Ht[k] is column k of the Hessenberg matrix, so evaluate reads each
    # step's coefficients from one contiguous row
    Ht = np.zeros((degree + 1, degree + 2), dtype=complex)
    Q[0] = 1.0 / math.sqrt(mass)
    reorth = 0
    for k in range(degree):
        v = x * Q[k]
        scale = math.sqrt(float(np.dot(w, np.abs(v) ** 2)))
        h = np.conjugate(Q[:k + 1] @ np.conjugate(w * v))
        v -= h @ Q[:k + 1]
        nrm = math.sqrt(float(np.dot(w, np.abs(v) ** 2)))
        if nrm < REORTH * scale:
            h2 = np.conjugate(Q[:k + 1] @ np.conjugate(w * v))
            v -= h2 @ Q[:k + 1]
            h += h2
            nrm = math.sqrt(float(np.dot(w, np.abs(v) ** 2)))
            reorth += 1
        if not math.isfinite(nrm) or nrm <= BREAKDOWN_REL * scale:
            partial = _finish_basis(rule, Ht[:k + 1, :k + 2].T, Q[:k + 1],
                                    mass, reorth)
            raise DegeneracyError(
                f"orthonormalization broke down at degree {k + 1}: the measure "
                f"supports polynomials only up to degree {k}",
                achieved_degree=k, basis=partial)
        Ht[k, :k + 1] = h
        Ht[k, k + 1] = nrm
        np.divide(v, nrm, out=Q[k + 1])
    return _finish_basis(rule, Ht.T, Q, mass, reorth)


def _finish_basis(rule, H, Q, mass, reorthogonalized=0):
    # G[j, k] = <p_j, p_k>; its distance from the identity certifies the
    # basis.  G is Hermitian, so only its upper triangle is formed, block
    # column by block column, and column k's largest |G - I| is the larger of
    # the triangle's column k and row k.
    n, w = Q.shape[0], rule.weights
    col, row = np.zeros(n), np.zeros(n)
    for lo in range(0, n, GRAM_BLOCK):
        hi = min(lo + GRAM_BLOCK, n)
        G = Q[:hi] @ (w * np.conjugate(Q[lo:hi])).T
        G[np.arange(lo, hi), np.arange(hi - lo)] -= 1.0
        G = np.abs(G)
        col[lo:hi] = G.max(axis=0)
        np.maximum(row[:hi], G.max(axis=1), out=row[:hi])
    return OrthoBasis(degree=n - 1, hessenberg=H, node_values=Q,
                      norm_residuals=np.maximum(col, row), mass=mass,
                      rule=rule, reorthogonalized=reorthogonalized)


@dataclass
class ChristoffelValue:
    """lambda_n(mu, z) together with how it was obtained.

    ``route`` names what gave the polynomial values: "recurrence" or "gram"
    (see ``support_prefix``) or "arnoldi" (an ``OrthoBasis``).  ``residual``
    is that route's orthonormality residual: the certificate residual of
    ``support_prefix``, or the largest ``norm_residuals`` entry of the basis
    up to degree n.
    """

    n: int
    z: complex
    lambda_n: float
    method: str
    route: str
    residual: float
    extremal_coeffs: np.ndarray = None


def _checked_kernel(K):
    if not math.isfinite(K):
        raise NumericError("kernel overflow: z is too far from the support")
    if K <= 0:
        raise NumericError("kernel vanished")
    return K


def route_kernel(prefix, residual, route, n):
    """K_n(z) off a ``support_prefix`` result, or the route's refusal: a
    residual above CERTIFY_TOL, then a breakdown below degree n
    (DegeneracyError), then a kernel that overflowed or vanished."""
    if not residual <= CERTIFY_TOL:
        raise NumericError(
            f"the {route} route's orthonormality residual {residual:.1e} "
            f"exceeds {CERTIFY_TOL:g}")
    if prefix.size <= n:
        reach = (f"polynomials only up to degree {prefix.size - 1}"
                 if prefix.size else "no polynomial")
        raise DegeneracyError(
            f"the {route} route broke down at degree {prefix.size}: the "
            f"measure supports {reach}", achieved_degree=prefix.size - 1)
    return _checked_kernel(float(prefix[n]))


def christoffel_lambda(measure, n, z=None, method="kernel", basis=None):
    """The Christoffel function lambda_n(mu, z) at ``measure.point(z)``.

    ``method`` "kernel" inverts the diagonal kernel K_n(z); without a
    ``basis`` it reads K_n(z) off ``support_prefix`` on ``build_rule(measure,
    n)``, the route ``run_sweep`` takes, and stores no basis.  "direct"
    reconstructs the minimizing polynomial from its kernel coefficients in an
    Arnoldi basis, renormalizes it at z, and integrates its square, which
    checks the kernel against an independent computation.  Pass ``basis`` to
    reuse an Arnoldi basis across calls; both methods then read it.  A
    measure that cannot carry degree n raises DegeneracyError with the
    achieved degree, and a kernel that overflows or vanishes NumericError,
    as does a route whose orthonormality residual exceeds CERTIFY_TOL.
    """
    n = as_index(n, "n")
    z = measure.point(z)
    if method not in ("kernel", "direct"):
        raise InputError(f"unknown method {method!r}")
    if basis is None and method == "kernel":
        prefix, residual, route = support_prefix(build_rule(measure, n),
                                                 measure.support, n, z)
        K = route_kernel(prefix, residual, route, n)
        return ChristoffelValue(n=n, z=z, lambda_n=1.0 / K, method=method,
                                route=route, residual=residual)
    if basis is None:
        basis = orthonormalize(build_rule(measure, n), n)
    if basis.degree < n:
        raise DomainError(f"basis degree {basis.degree} is below n = {n}")
    with np.errstate(over="ignore", invalid="ignore"):  # as in support_prefix
        p = basis.evaluate(z, upto=n)
        K = _checked_kernel(float(np.dot(p, np.conjugate(p)).real))
    residual = float(basis.norm_residuals[:n + 1].max())
    if method == "kernel":
        return ChristoffelValue(n=n, z=z, lambda_n=1.0 / K, method=method,
                                route="arnoldi", residual=residual)

    # direct: P = sum_k conj(p_k(z)) p_k / K, then lambda = int |P|^2 dmu
    c = np.conjugate(p) / K
    Pn = c @ basis.node_values[:n + 1]
    lam = float(np.dot(basis.rule.weights, np.abs(Pn) ** 2))
    return ChristoffelValue(n=n, z=z, lambda_n=lam, method=method,
                            route="arnoldi", residual=residual,
                            extremal_coeffs=c)


def extremal_polynomial_values(basis, value, points):
    """Evaluate the stored minimizing polynomial at arbitrary points."""
    if value.extremal_coeffs is None:
        raise DomainError("this ChristoffelValue carries no extremal "
                          "coefficients; compute it with method='direct'")
    out = value.extremal_coeffs @ basis.evaluate(points, upto=value.n)
    return out if np.ndim(out) else complex(out)


def kernel_prefix(basis, z):
    """K_n(z) for every n up to the basis degree, via one evaluation;
    for an array z, column i holds the prefix at z[i]."""
    p = basis.evaluate(z)
    return np.cumsum(np.abs(p) ** 2, axis=0)


def support_prefix(rule, support, degree, z):
    """K_n(z) for every n up to ``degree``, by the route for the support kind.

    Intervals take ``_recurrence_rows``, on [-1, 1] at (z - c)/h with c
    and h from the ``joukowski_frame``, and every other support
    ``_gram_rows``; neither stores a basis.  Each returns (p, Q, W, misfit):
    p(z) up to the degree the route reaches before the discrete measure
    breaks it down, rows Q of the ``_certified`` polynomials and the rows W
    they are checked against (the node values sqrt(w) p_k twice on an
    interval; the coefficient rows C and conj(C) G^T on the Gram routes),
    and the misfit of the route's moments against the nodes (0 on an
    interval, which forms none).  The degree check, the sum and the
    certificate are made here and nowhere else.  Returns (prefix, residual,
    route): the cumsum of |p|^2, the larger of the largest |Q W^T - I| and
    the misfit, and "recurrence" or "gram".  A z far from the support
    overflows entries of the prefix to inf or nan, without a warning;
    callers test them.
    """
    _check_degree(rule, degree)
    z = complex(z)
    with np.errstate(over="ignore", invalid="ignore"):
        if support.kind == "interval":
            c, _, h, _ = support.joukowski_frame
            route, rows = "recurrence", _recurrence_rows(rule, degree,
                                                          (z - c) / h)
        else:
            route, rows = "gram", _gram_rows(rule, support, degree, z)
        p, Q, W, misfit = rows
        G = np.abs(Q @ W.T - np.eye(len(Q)))
        return np.cumsum(np.abs(p) ** 2), float(G.max(initial=misfit)), route


def _recurrence_rows(rule, degree, z):
    """p_0(z), ..., p_degree(z) for a rule on an interval, on [-1, 1].

    The nodes are cos(params), exact from the node angles, and z comes mapped
    alike; orthonormal polynomials keep their values under an affine map, so
    the absolute x never enters.  The polynomials follow the Stieltjes
    three-term recurrence (Gautschi, Orthogonal Polynomials: Computation and
    Approximation, 2004), in O(degree * m) time and O(m) memory: no basis is
    stored, each step keeps only the current node values.  The values stop
    at the achieved degree when the discrete measure breaks the recurrence
    down, under the same relative test as ``orthonormalize``, with |t q_k|
    read off the step's scalars.  Returns (p, Q, Q, 0.0): the kept rows of
    Q are sqrt(w) p_k, real and weighted already, and no moments stand
    between them and the nodes.
    """
    w, t = rule.weights, np.cos(rule.params)
    # the recurrence runs on q_k = sqrt(w) p_k at the nodes, so every inner
    # product is a plain dot; v = t q_k - beta q_{k-1} - a q_k, and the
    # three buffers rotate without an array allocated per step
    p0 = 1.0 / math.sqrt(float(w.sum()))
    q, q_prev, v = np.sqrt(w) * p0, np.zeros_like(w), np.empty_like(w)
    beta, pz_prev = 0.0, 0j
    values, kept, keep = [complex(p0)], [q.copy()], set(_certified(degree, degree))
    for k in range(degree):
        np.multiply(t, q, out=v)
        q_prev *= beta
        v -= q_prev
        a = float(np.dot(v, q))
        v -= np.multiply(a, q, out=q_prev)
        nrm = math.sqrt(float(np.dot(v, v)))
        # |t q_k|, the breakdown reference, is hypot(beta_k, a_k, beta_{k+1})
        if not math.isfinite(nrm) or nrm <= BREAKDOWN_REL * math.hypot(
                beta, a, nrm):
            break
        pz = values[-1]
        values.append((z * pz - beta * pz_prev - a * pz) / nrm)
        pz_prev, beta = pz, nrm
        v /= nrm
        q_prev, q, v = q, v, q_prev
        if k + 1 in keep:
            kept.append(q.copy())
    if len(values) - 1 not in keep:
        kept.append(q.copy())
    Q = np.array(kept)
    return np.array(values), Q, Q, 0.0


def _gram_rows(rule, support, degree, z):
    """p(z) up to ``degree`` for a rule on an ellipse, a circle or a lemniscate.

    The Gram matrix G of a Faber-type basis phi_k, nearly orthonormal on the
    curve (Suetin, Series of Faber Polynomials, 1998), comes from moments
    M[d] = sum_j V[j] e^{i d theta_j} of the rule.  The first part, the only
    code that reads the support kind, states the node angles theta, the
    weights V, the border's r^k, the basis at z and the probe points.  On a
    support |T| = 1 with a ``level_polynomial`` T of degree N, T = e^{i theta}
    at the nodes, phi_{jN+a} = (z - s)^a T^j for a < N with
    s = -c_{N-1}/(N c_N), and V = w Z Z^H with Z = ((node - s)^a)_{a < N}:
    G is block Toeplitz, with no border.  On an ellipse with
    ``joukowski_frame`` axes a >= b, phi_k = e^k + (r/e)^k with e the
    exterior variable, e^{i theta} at the nodes, r = (a-b)/(a+b) and V = w:
    G is Toeplitz plus a Hankel border, its first K rows and columns, K the
    number of r^k that reach HANKEL_CUT (33 at r = 1/4, 1 on a round ellipse).

    The second part reads only the shapes of V and r, and makes the one
    ``_moments`` call.  At N = 1 it forms the border from the moments, empty
    when K = 0, and ``_szego_border`` runs Szegő's recursion on the Toeplitz
    part with the values phi_{K+i}(z) and takes the border in through K x K
    Schur complements, in O(degree^2 K + degree m) for m nodes; at N >= 2
    ``_block_levinson``, the matrix Szegő recursion (Damanik, Pushnitski and
    Simon, Surveys in Approximation Theory 4, 2008), takes
    O(degree^2 N + degree m).  Either stops before its first pivot below
    BREAKDOWN_REL of its diagonal entry of G.  Returns (p, C, W, misfit):
    p(z) up to that degree; C, the coefficient rows of the kept p_k in the
    phi_k; W = conj(C) G^T, with G formed again from the moments, so that
    C W^T = C G C^H is the kept p_k's Gram matrix (its Toeplitz part by FFT
    in ``_toeplitz_rows``, then the border's three products); and
    ``_probe_misfit`` of the moments against T (or e) read from the node
    coordinates, not from the angles the moments were built from.
    """
    w, n = rule.weights, degree
    if support.kind == "ellipse":
        _, rho, a, b = support.joukowski_frame
        theta, V = rule.params + support.rotation - rho, w[:, None, None]
        q = np.arange(n + 1)
        r = ((a - b) / (a + b)) ** q
        r = r[:np.count_nonzero(r >= HANKEL_CUT)]  # r^k on the Hankel border
        u, root = support.joukowski_root(z)
        # phi_k = e^k + e'^k with e e' = r, whichever branch e takes
        phi = ((u + root) / (a + b)) ** q + ((u - root) / (a + b)) ** q
        at_z = (phi,)
        u, root = support.joukowski_root(rule.nodes)
        x = (u + root) / (a + b)
    else:  # |T| = 1
        poly = support.level_polynomial
        N, t = poly.degree, complex(poly(z))
        s = -poly.coeffs[N - 1] / (N * poly.coeffs[N])
        Z = (rule.nodes[:, None] - s) ** np.arange(N)
        theta, r, x = rule.params, np.zeros(0), poly(rule.nodes)
        V = w[:, None, None] * Z[:, :, None] * np.conjugate(Z[:, None, :])
        at_z = ((np.multiply.accumulate(np.r_[1, np.full(n, t)]),) if N == 1
                else (t, (z - s) ** np.arange(N)))  # phi_i = t^i, or T and f
    N, K = V.shape[1], len(r)
    M = _moments(theta, V.reshape(-1, N * N),
                 n + max(K, 1) if N == 1 else n // N + 1).reshape(-1, N, N)
    if N == 1:
        # G = T + r_k H + r_j conj(H) + r_j r_k conj(T) with T[j, k] = mu_{j-k}
        # and H[j, k] = mu_{j+k}; r_j conj(H) = (r_k H)^H, and only the first
        # K columns of X = r_k H reach HANKEL_CUT, so past its first K rows
        # and columns G is T, and below them its first K columns are T + X
        mu, i, k = M[:, 0, 0], np.arange(n + 1)[:, None], np.arange(K)
        T, X = mu[abs(i - k)], mu[i + k] * r  # mu_{-d} = conj(mu_d):
        np.conjugate(T[:K], out=T[:K], where=i[:K] < k)
        D = np.conjugate(T[:K]) * np.multiply.outer(r, r)
        T += X
        factor, args = _szego_border, (
            mu, *at_z, T[:K] + np.conjugate(X[:K].T) + D, T[K:])
    else:
        factor, args = _block_levinson, (M, *at_z)
    keep = _certified(n, n)
    p, ok, C = factor(*args, n + 1, keep)
    if not ok.all():  # again to the achieved degree, to certify its last
        keep = _certified(n, int(ok.argmin()) - 1)
        p, _, C = (factor(*args, keep[-1] + 1, keep) if keep else
                   (p[:0], ok, np.zeros((0, 0), dtype=complex)))
    W = _toeplitz_rows(M, C)
    if K:  # the border over G's first k rows and columns
        k, Ct = min(K, p.size), np.conjugate(C)
        X = X[:p.size, :k]
        W += Ct[:, :k] @ X.T
        W[:, :k] += Ct @ np.conjugate(X) + Ct[:, :k] @ D[:k, :k].T
    return p, C, W, _probe_misfit(M, x, V)


def _certified(degree, last):
    """Degrees of the polynomials the orthonormality certificate keeps on the
    way to ``degree``: every CERTIFY_STRIDE-th one, or every
    ceil(degree / CERTIFY_COUNT)-th beyond degree 512, up to ``last``, and
    ``last``, if any.  At most CERTIFY_COUNT + 1 beyond degree 512, so the
    certificate's products stay O(degree log degree) on circles and
    lemniscates (O(degree K) on an ellipse's border) at any degree."""
    stride = max(CERTIFY_STRIDE, -(-degree // CERTIFY_COUNT))
    return sorted({*range(0, last + 1, stride), last}) if last >= 0 else []


def _moments(theta, V, count):
    """sum_j u_j^d V[j] for d < count, u = e^{i theta}, V of shape (m,) or
    (m, c).

    One exponential per node gives u; every power is a product of rounded
    powers of u, never an exponential of a rounded d theta, so the error of
    u^d grows like d eps where e^{i d theta} carries up to 2 pi d eps.  A
    table holds u^p, p < min(GRAM_BLOCK, count), its rows doubled by
    u^{2h} = (u^h)^2, and the block shifts S_i = u^{i GRAM_BLOCK} follow
    as S_i = S_{i-1} u^GRAM_BLOCK.  The shifted weights S_i V are grouped
    at most GRAM_BLOCK rows to a group, one matrix product against the table
    per group, which reads the table once per group rather than once per
    block; for c <= GRAM_BLOCK no temporary exceeds the table; beyond
    that each group is one c x m block, the size of V."""
    m = theta.size
    B = np.empty((min(GRAM_BLOCK, count), m), dtype=complex)
    B[0], h, step = 1.0, 1, np.exp(1j * theta)
    while h < len(B):
        k = min(h, len(B) - h)
        np.multiply(B[:k], step, out=B[h:h + k])
        h += k
        step = step * step  # u^h, and u^GRAM_BLOCK once the table is full
    VT = V.reshape(m, -1).T
    c, blocks = len(VT), -(-count // GRAM_BLOCK)
    per = min(blocks, max(1, GRAM_BLOCK // c))  # blocks per product
    mu = np.empty((blocks, len(B), c), dtype=complex)
    shifted = np.empty((per, c, m), dtype=complex)
    shift = np.ones(m, dtype=complex)  # S_i, for block i
    for first in range(0, blocks, per):
        group = shifted[:min(per, blocks - first)]
        for rows in group:
            np.multiply(shift, VT, out=rows)
            shift *= step
        k = len(group)
        mu[first:first + k] = (B @ group.reshape(k * c, m).T).reshape(
            len(B), k, c).transpose(1, 0, 2)
    return mu.reshape(-1, c)[:count].reshape((count,) + V.shape[1:])


def _toeplitz_rows(M, C):
    """conj(C) G^T = (G C^H)^T for the block Toeplitz matrix
    G[jN + a, kN + b] = M[j - k, a, b], M[-d] = M[d]^H, of the size of C's
    rows, by circulant embedding (Golub and Van Loan, Matrix Computations,
    section 4.7): G is the leading block of a circulant of length
    P >= 2J - 1 for J blocks, which the FFT diagonalizes; P is the smallest
    such 5-smooth length (``_fft_length``).  One batched FFT of the rows,
    one of the N^2 moment sequences and one inverse, whatever N:
    O(rows N^2 J log J)."""
    rows, count = C.shape
    N = M.shape[1]
    J = max(1, -(-count // N))
    P = _fft_length(2 * J - 1)
    S = np.zeros((N, N, P), dtype=complex)  # S[a, b, d mod P] = M[d, a, b]
    S[:, :, :J] = M[:J].transpose(1, 2, 0)
    S[:, :, P - J + 1:] = np.conjugate(M[J - 1:0:-1]).transpose(2, 1, 0)
    X = np.zeros((rows, J * N), dtype=complex)
    X[:, :count] = np.conjugate(C)
    X = np.fft.fft(X.reshape(rows, J, N).transpose(0, 2, 1), P)
    Y = np.fft.ifft((np.fft.fft(S)[None] * X[:, None]).sum(axis=2))
    return Y[:, :, :J].transpose(0, 2, 1).reshape(rows, J * N)[:, :count]


def _fft_length(n):
    """The smallest 2^a 3^b 5^c >= n >= 1, a length the FFT takes in few
    passes: 1080 for n = 1025, where the next power of two is 2048."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:  # p35 times the least power of two reaching n
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _probe_misfit(M, x, V):
    """How far the moments M[d] = sum_j V[j] x_j^d, d < L, are from the nodes
    x_j, by probes r = (1 - 1/L) i^k, k in PROBE_TURNS (a Freivalds-style
    check; Freivalds, MFCS 1977): the largest
    |sum_d r^d M[d] - sum_j V[j] (1 - (r x_j)^L) / (1 - r x_j)|, entry (a, b)
    relative to sqrt(M[0, a, a] M[0, b, b]), which is mu_0 at N = 1.  |r| so
    near 1 keeps the top moment visible: it weighs (1 - 1/L)^(L-1) > 1/e.
    Each power r^d is exact in phase; x^L is formed once by binary powering,
    and (r x)^L = (1 - 1/L)^L i^{kL} x^L for every turn, in O(m log L) for
    m nodes.  The misfit's floor is the moments' own rounding, which grows
    with L: on the curves tested, at most 3e-14 to degree 512 and 5.4e-14 to
    degree 2047."""
    L = len(M)
    rho, d, turn = 1.0 - 1.0 / L, np.arange(L), np.array([1, 1j, -1, -1j])
    r_d = rho ** d * turn[np.multiply.outer(PROBE_TURNS, d) % 4]  # r^d
    lhs = r_d @ M.reshape(L, -1)
    x_L, power, e = np.ones_like(x), x, L
    while e:
        if e & 1:
            x_L = x_L * power
        e >>= 1
        if e:
            power = power * power
    y = np.multiply.outer(rho * turn[PROBE_TURNS], x)
    top = np.multiply.outer(rho ** L * turn[PROBE_TURNS * L % 4], x_L)
    rhs = ((1 - top) / (1 - y)) @ V.reshape(len(x), -1)
    scale = np.sqrt(M[0].diagonal().real)
    return float((np.abs(lhs - rhs) / np.outer(scale, scale).reshape(-1)).max())


def _block_levinson(M, t, f, count, keep):
    """p_0(z), ..., p_{count-1}(z) from the block Toeplitz Gram matrix
    G[jN + a, kN + b] = M[j - k, a, b], M[-d] = M[d]^H, of Phi_j = T^j f
    with f = ((z - s)^a)_{a < N}, t = T(z) and N >= 2.

    The block Levinson recursion (Whittle, Biometrika 50, 1963; Wiggins and
    Robinson, J. Geophys. Res. 70, 1965) carries the forward polynomials
    F_j = sum_i A_j[i] Phi_i, A_j[j] = I, orthogonal to Phi_0, ..., Phi_{j-1},
    and the backward ones B_j = sum_i B_j[i] Phi_i, B_j[0] = I, orthogonal to
    Phi_1, ..., Phi_j, with D_j = <F_j, F_j> and E_j = <B_j, B_j>.  Since
    multiplying by T is an isometry at the nodes, the reflection block
    Delta_j = <T F_j, Phi_0> = sum_i A_j[i] M[i + 1] and the gains
    Kf = Delta_j E_j^{-1}, Kb = Delta_j^H D_j^{-1} give

        F_{j+1} = T F_j - Kf B_j,      D_{j+1} = D_j - Kf Delta_j^H,
        B_{j+1} = B_j - Kb T F_j,      E_{j+1} = E_j - Kb Delta_j,

    on the coefficients alone, in O(j N^3) per step: the product that gives
    Delta_j gives F_j(z) = sum_i A_j[i] Phi_i(z) too.  The lower Cholesky
    factors D_j = L_j L_j^H, taken after the loop, give the scalar order
    p_{jN+a} = (L_j^{-1} F_j)[a], the same polynomials as the Cholesky
    factor of G, whose pivots they are.

    A numpy call on a small block costs microseconds, and an np.linalg call
    about ten, so the calls per step are counted.  A step makes eleven numpy
    calls: X_j, written in place; the stack [Delta_j, Delta_j^H] (a copy and
    a conjugate); one np.linalg.inv of the stack [E_j, D_j]; one product of
    the two stacks for the gains [Kf, Kb]; a product and an update for each
    of A and B; and one product and one subtraction for [E_{j+1}, D_{j+1}].
    Products and updates write into buffers made once per call.

    Returns (p, ok, C): p(z); ok, whether each pivot exceeds BREAKDOWN_REL
    of its diagonal entry of G; and C, the coefficient rows of p_k in the
    Phi basis (the rows of L_j^{-1} A_j), k in the ascending ``keep``.
    """
    N = M.shape[1]
    J = (count - 1) // N
    # block i of W holds M[i + 1] beside Phi_i(z) = t^i f, one rounding per
    # power, so that X_j = A_j W = [Delta_j | F_j(z)]
    W = np.zeros((J + 1, N, N + 1), dtype=complex)
    W[:J, :, :N], W[:, :, N], W[0, :, N] = M[1:J + 1], t, f
    np.multiply.accumulate(W[:, :, N], out=W[:, :, N])
    W = W.reshape(-1, N + 1)
    A = np.zeros((N, (J + 1) * N), dtype=complex)  # A_j[i] in block J - j + i,
    B = np.zeros_like(A)                            # B_j[i] in block i
    A[:, J * N:] = B[:, :N] = np.eye(N)
    ED = np.full((J + 1, 2, N, N), np.nan, dtype=complex)  # [E_j, D_j]
    X = np.full((J + 1, N, N + 1), np.nan, dtype=complex)
    ED[0] = M[0]
    # [Delta_j, Delta_j^H] and the gains [Kf, Kb]
    dd, gains = np.empty((2, 2, N, N), dtype=complex)
    fwd, back = np.empty_like(A), np.empty_like(A)
    blocks = sorted({k // N for k in keep})
    A_kept = np.zeros((len(blocks), N, count), dtype=complex)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for j in range(J + 1):
            w = (j + 1) * N
            Aj, Bj = A[:, (J - j) * N:], B[:, :w]
            if j in blocks:
                A_kept[blocks.index(j), :, :w] = Aj[:, :count]
            np.dot(Aj, W[:w], out=X[j])
            if j == J:
                break
            dd[0] = X[j, :, :N]
            np.conjugate(dd[0].T, out=dd[1])
            try:
                inv = np.linalg.inv(ED[j])
            except np.linalg.LinAlgError:  # broken down
                break
            np.matmul(dd, inv, out=gains)
            np.matmul(gains[1], Aj, out=back[:, :w])  # before A_j turns A_{j+1}
            np.matmul(gains[0], Bj, out=fwd[:, :w])
            A[:, (J - j - 1) * N:J * N] -= fwd[:, :w]
            B[:, N:w + N] -= back[:, :w]
            # [E_j - Kb Delta_j, D_j - Kf Delta_j^H]
            np.subtract(ED[j], np.matmul(gains[::-1], dd), out=ED[j + 1])
        D = ED[:, 1]
        pivots, p = _block_cholesky(D, X[:, :, N:])
        _, Y = _block_cholesky(D[blocks], A_kept)
    ok = (pivots > BREAKDOWN_REL * M[0].diagonal().real).reshape(-1)[:count]
    C = np.array([Y[blocks.index(k // N), k % N] for k in keep])
    return p.reshape(-1)[:count], ok, C


def _szego_border(mu, phi, G_aa, G_ba, count, keep):
    """p_0(z), ..., p_{count-1}(z) from G = [[G_aa, G_ba^H], [G_ba, T]]:
    K border functions first, then a Toeplitz part T[i, k] = mu_{i-k} whose
    functions Phi_i take the values phi[K + i] at z (phi[:K] are the
    border's); a Toeplitz matrix with a border (Kailath and Sayed, SIAM
    Review 37, 1995).

    Szegő's recursion, the scalar case of ``_block_levinson`` with
    B_j[i] = conj(A_j[j - i]) and E_j = D_j, factors T: its psi_j =
    F_j / sqrt(D_j) are orthonormal and span what Phi_0, ..., Phi_j span,
    so G's polynomials are those of the basis phi_0, ..., phi_{K-1},
    psi_0, psi_1, ..., whose Gram matrix is [[G_aa, g], [g^H, I]] with
    g_j = G_ba^H psi_j^H.  A step makes four numpy calls: A_j times the
    columns [mu_{i+1}, Phi_i(z)] gives Delta_j and F_j(z), and a conjugate,
    a product and a subtraction turn A_j into A_{j+1}.  The last GRAM_BLOCK
    rows A_j stay in a ring, and every GRAM_BLOCK steps one product with
    G_ba gives their correlations with the border; ``_border_blocks`` does
    the rest, unless K = 0 (a circle): then p_j = psi_j(z), the pivots are
    D_j and C holds A_j / sqrt(D_j).  O(count^2 K) time and
    O(count (K + GRAM_BLOCK)) memory.

    Returns (p, ok, C) as ``_block_levinson`` does, over all count
    functions, border first.
    """
    K = min(len(G_aa), count)
    J, R = count - K - 1, GRAM_BLOCK  # the last Toeplitz step
    steps = {r - K for r in keep if r >= K}  # kept steps
    D, A_kept = [], {}
    AG = np.empty((max(J + 1, 0), K + 1), dtype=complex)  # [A_j G_ba, F_j(z)]
    W = np.zeros((max(J + 1, 0), 2), dtype=complex)  # [mu_{i+1}, Phi_i(z)],
    W[:J, 0], W[:, 1] = mu[1:J + 1], phi[K:count]    # Delta_J unused
    # A_j[i] in column i + 1 of row j % R, column 0 zero
    ring = np.zeros((R, J + 3), dtype=complex)
    ring[0, 1], v = 1.0, np.empty(J + 2, dtype=complex)
    Dj, lo = mu[0].item(), 0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for j in range(J + 1):
            row = ring[j % R]
            delta, AG[j, K] = np.dot(row[1:j + 2], W[:j + 1]).tolist()
            D.append(Dj)
            if j in steps:
                A_kept[j] = row[1:j + 2].copy()
            if j % R == R - 1:
                AG[lo:j + 1, :K] = ring[:, 1:j + 2] @ G_ba[:j + 1]
                lo = j + 1
            if j == J:
                break
            try:
                Kf = delta / Dj
            except ZeroDivisionError:  # broken down
                break
            Dj -= Kf * delta.conjugate()
            Bj = np.conjugate(row[j + 1::-1], out=v[:j + 2])  # B_j
            Bj *= Kf
            np.subtract(row[:j + 2], Bj, out=ring[(j + 1) % R, 1:j + 3])
        j, D = len(D), np.array(D).real
        if not K:  # no border: p_j = psi_j(z), and C rows A_j / sqrt(D_j)
            root, C = np.sqrt(D), np.zeros((len(keep), count), dtype=complex)
            for i, r in enumerate(keep):
                if r in A_kept:
                    C[i, :r + 1] = A_kept[r] / root[r]
            return AG[:j, 0] / root, D > BREAKDOWN_REL * mu[0].real, C
        if lo < j:
            AG[lo:j, :K] = ring[:j - lo, 1:j + 1] @ G_ba[:j]
        return _border_blocks(mu[0].real, G_aa[:K, :K], G_ba, phi[:K], D,
                              AG[:j], A_kept, count, keep)


def _border_blocks(mu0, G_aa, G_ba, phi, D, AG, A_kept, count, keep):
    """(p, ok, C) of ``_szego_border`` from the Toeplitz steps it made: D_j,
    the rows [A_j G_ba, F_j(z)] and the kept A_j.

    The steps go in blocks of w, the power-of-two multiple of
    CERTIFY_STRIDE nearest K/2, each starting at a degree divisible by w,
    where the certificate's rows fall when w divides its stride.  Before
    block b the border stands as b_a = phi_a - sum g_j[a] psi_j over the
    earlier steps, whose Gram matrix is the Schur complement
    S_b = G_aa - sum g_j g_j^H.  One Cholesky factor of
    [[S_b, g_b], [g_b^H, I]] per block, all blocks in one batched call,
    turns [b_b(z), psi_b(z)] into p(z) (``_cholesky_solve``); its pivots
    past S_b, times D_j, are G's, so the breakdown test carries over, and
    block 0 gives the border's own polynomials.  The factors cost
    (K + w)^3 / 3 per w steps, least near w = K/2.  The coefficient row of
    p_r, r = K + j, is -x on the border, with x = (S_j^{-1} g_j)^H / root_j
    and root_j the factor's diagonal entry at step j (one batched K x K
    solve), and on the Phi the coefficients of L_rr psi_j plus the
    projection of x . phi onto Phi_0, ..., Phi_j, a Toeplitz solve
    (``_toeplitz_solve``).
    """
    K, n = len(G_aa), len(D)
    w = CERTIFY_STRIDE << max(0, round(math.log2(K / (2 * CERTIFY_STRIDE))))
    s = 1 / np.sqrt(D)
    first = K % w  # step j in row first + j of the blocks, degree K + j
    nb = max(1, -(-(first + n) // w))
    Eb = np.zeros((nb * w, K + 1), dtype=complex)
    E = np.multiply(np.conjugate(AG), s[:, None], out=Eb[first:first + n])
    Eb = Eb.reshape(nb, w, K + 1)  # rows [g_j^T, conj(psi_j(z))]
    # [S_b; conj(b_b)^T]: G_aa and conj(phi) less the running sums of
    # [g_j; conj(psi_j(z))] g_j^H over the earlier blocks
    P = np.empty((nb, K + 1, K), dtype=complex)
    P[0, :K], P[0, K] = G_aa, np.conjugate(phi)
    EE = Eb[:-1].transpose(0, 2, 1) @ np.conjugate(Eb[:-1, :, :K])
    for b in range(1, nb):
        np.subtract(P[b - 1], EE[b - 1], out=P[b])
    F = np.zeros((nb, K + w + 1, K + w + 1), dtype=complex)  # lower halves
    F[:, [*range(K), K + w], :K] = P
    F[:, K:-1, :K] = np.conjugate(Eb[:, :, :K])
    F[:, -1, K:-1] = Eb[:, :, K]
    F[:, range(K, K + w), range(K, K + w)] = 1.0
    pivots, p = _cholesky_solve(F)
    at = first + np.arange(n)
    root = np.sqrt(pivots[:, K:].reshape(-1)[at])  # the factor's diagonal past S_b
    p = np.concatenate([p[0, :K], p[:, K:].reshape(-1)[at]])
    pivots = np.concatenate([pivots[0, :K], root ** 2 * D])
    tol = np.full(K + n, BREAKDOWN_REL * mu0)
    tol[:K] = BREAKDOWN_REL * G_aa.diagonal().real
    C = np.zeros((len(keep), count), dtype=complex)
    for i, r in enumerate(keep):  # L_rr e_r^T G_aa[:r+1, :r+1]^{-1}
        if r < K:
            e = np.zeros(r + 1)
            e[r] = math.sqrt(pivots[r])
            C[i, :r + 1] = np.conjugate(
                np.linalg.solve(G_aa[:r + 1, :r + 1], e))
    kept = [i for i, r in enumerate(keep) if K <= r < K + n]
    if kept:
        j = np.array([keep[i] - K for i in kept])
        b, c = divmod(at[j], w)
        S = P[b, :K]  # S_j, for a kept step past the start of its block
        if c.any():   # less that block's earlier steps
            Ej = Eb[b, :, :K] * (np.arange(w) < c[:, None])[:, :, None]
            S -= Ej.transpose(0, 2, 1) @ np.conjugate(Ej)
        x = np.conjugate(np.linalg.solve(S, E[j, :K, None])[:, :, 0])
        x /= root[j, None]
        A = np.zeros((2, len(j), n), dtype=complex)  # A_j, and right-aligned
        for k, i in enumerate(j):
            A[0, k, :i + 1] = A[1, k, n - 1 - i:] = A_kept[i]
        # x . phi projected on Phi_0, ..., Phi_j, plus L_rr psi_j
        C[kept, :K] = -x
        C[kept, K:K + n] = np.conjugate(_toeplitz_solve(
            A, D[j], j + 1, np.conjugate(x) @ G_ba[:n].T)) + (
                root[j] * s[j])[:, None] * A[0]
    return p, pivots > tol, C


def _toeplitz_solve(A, D, size, v):
    """T_k^{-1} v_k for each row k, T_k the Hermitian Toeplitz matrix of
    order size[k] whose Levinson recursion ends in the monic forward row
    a = A[0, k] (a[size[k] - 1] = 1, zeros beyond; A[1, k] holds it
    right-aligned) with pivot D[k], by the Gohberg-Semencul formula
    (Gohberg and Semencul, Mat. Issled. 7, 1972)

        T^{-1} = (L(J a) L(J a)^H - L(Z conj(a)) L(Z conj(a))^H) / D,

    L(c) the lower triangular Toeplitz matrix with first column c, J the
    reversal and Z the shift down: four triangular Toeplitz products, each
    an FFT product on a circulant of length P >= 2 max(size) - 1, with v
    and the products kept to the first size[k] entries."""
    _, k, n = A.shape
    P = _fft_length(2 * n - 1)
    inside = np.arange(n) < size[:, None]
    gen = np.zeros((2, k, P), dtype=complex)
    gen[0, :, :n] = A[1, :, ::-1]
    gen[1, :, 1:n] = np.conjugate(A[0, :, :-1])
    fg = np.fft.fft(gen)
    half = np.fft.ifft(np.fft.fft(v * inside, P) * np.conjugate(fg))
    half[:, :, :n] *= inside
    half[:, :, n:] = 0.0
    half = np.fft.fft(half)
    half *= fg
    out = np.fft.ifft(half[0] - half[1])[:, :n]
    out *= inside / D[:, None]
    return out


def _cholesky_solve(F):
    """Pivots of G = L L^H and L^{-1} v for each of a stack of
    F = [[G, .], [v^H, .]], given by their lower triangles.

    LAPACK factors F with the largest float in its corner, so that the last
    row of its factor is (L^{-1} v)^H.  Where it fails, on a pivot of G not
    positive or on a v^H G^{-1} v that overflows, ``_block_cholesky``
    eliminates every G instead, so that its pivots show where G stops and
    L^{-1} v overflows as it would."""
    n = F.shape[-1] - 1
    F[..., n, n] = sys.float_info.max
    try:
        L = np.linalg.cholesky(F)
    except np.linalg.LinAlgError:
        pivots, p = _block_cholesky(F[:, :n, :n],
                                    np.conjugate(F[:, n, :n, None]))
        return pivots, p[:, :, 0]
    return L.diagonal(0, -2, -1).real[:, :n] ** 2, np.conjugate(L[:, n, :n])


def _block_cholesky(D, X):
    """Pivots of the lower Cholesky factors D_j = L_j L_j^H, batched over j,
    and L_j^{-1} X_j, by elimination one column at a time."""
    D, X = D.copy(), X.copy()
    pivots = np.empty(D.shape[:2])
    for a in range(D.shape[1]):
        pivots[:, a] = d = D[:, a, a].real
        root = np.sqrt(d)[:, None]
        X[:, a] /= root
        col = D[:, a + 1:, a] / root  # column a of L_j below the diagonal
        X[:, a + 1:] -= col[:, :, None] * X[:, a, None, :]
        D[:, a + 1:, a + 1:] -= col[:, :, None] * np.conjugate(col[:, None, :])
    return pivots, X

