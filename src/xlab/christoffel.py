"""Orthonormal bases and Christoffel functions for discrete measures.

The Christoffel function follows from the kernel identity
1/lambda_n(z) = K_n(z) = sum_{k <= n} |p_k(z)|^2.  ``support_prefix`` gives
every K_n(z) up to a degree without storing a basis, by a route that depends
on the support kind alone: on circles and intervals ``recurrence_values``
gives p_k(z) by the Szegő or Stieltjes recurrence, and on ellipses and
lemniscates ``gram_prefix`` gives the prefix from one Cholesky factor of a
Gram matrix built from moments of the rule.  Sweeps and kernel
``christoffel_lambda`` calls take this route.

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

evaluates the basis anywhere in the plane.  The direct method integrates the
reconstructed minimal polynomial instead of inverting the kernel, which
checks the kernel against an independent computation.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (CapabilityError, DegeneracyError, DomainError,
                     InputError, NumericError)
from .quadrature import build_rule

BREAKDOWN_REL = 1e-14
# First-pass norm ratio below which a second pass runs.  On an interval one
# pass leaves about 1/sqrt(2) of |z p_k|; at 1/2 every interval step skips the
# second pass and K_512(z0) drifts 6.5e-13 from the Stieltjes recurrence.
REORTH = 2 ** -0.5
GRAM_BLOCK = 64        # rows or columns per block product (certificates, Cholesky)
CERTIFY_STRIDE = 32    # sweep polynomials kept for the Gram certificate


class OrthoBasis:
    """Orthonormal polynomials stored as node values plus a recurrence.

    ``hessenberg`` has shape (degree + 2, degree + 1); column k holds the
    projection coefficients and the new norm produced while orthogonalizing
    z * p_k.  ``norm_residuals[k]`` is the largest observed deviation of
    <p_j, p_k> from the identity, a direct quality certificate of the basis.
    ``reorthogonalized`` counts the steps that took a second Gram-Schmidt
    pass.
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
        """Values p_0(z), ..., p_upto(z); columns follow the shape of z."""
        n = self.degree if upto is None else int(upto)
        if not 0 <= n <= self.degree:
            raise DomainError(f"degree {n} outside the basis range")
        scalar = np.isscalar(z) or np.asarray(z).ndim == 0
        zz = np.atleast_1d(np.asarray(z, dtype=complex))
        P = np.empty((n + 1, zz.size), dtype=complex)
        P[0] = 1.0 / math.sqrt(self.mass)
        H = self.hessenberg
        for k in range(n):
            P[k + 1] = (zz * P[k] - H[:k + 1, k] @ P[:k + 1]) / H[k + 1, k].real
        return P[:, 0] if scalar else P


def _check_degree(rule, degree):
    if degree < 0:
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
    H = np.zeros((degree + 2, degree + 1), dtype=complex)
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
            partial = _finish_basis(rule, H[:k + 2, :k + 1], Q[:k + 1],
                                    mass, reorth)
            raise DegeneracyError(
                f"orthonormalization broke down at degree {k + 1}: the measure "
                f"supports polynomials only up to degree {k}",
                achieved_degree=k, basis=partial)
        H[:k + 1, k] = h
        H[k + 1, k] = nrm
        np.divide(v, nrm, out=Q[k + 1])
    return _finish_basis(rule, H, Q, mass, reorth)


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
    (see ``support_prefix``) or "arnoldi" (an ``OrthoBasis``).
    """

    n: int
    z: complex
    lambda_n: float
    method: str
    route: str
    extremal_coeffs: np.ndarray = None


def _checked_kernel(K):
    if not math.isfinite(K):
        raise NumericError("kernel overflow: z is too far from the support")
    if K <= 0:
        raise NumericError("kernel vanished")
    return K


def kernel_diag(basis, z, upto=None):
    """Diagonal kernel value K_n(z) = sum_k |p_k(z)|^2.

    A z far from the support overflows the values to inf or nan without a
    warning, as in ``support_prefix``; the check raises NumericError.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        p = basis.evaluate(z, upto=upto)
        return _checked_kernel(float(np.dot(p, np.conjugate(p)).real))


def christoffel_lambda(measure, n, z=None, method="kernel", basis=None):
    """The Christoffel function lambda_n(mu, z).

    ``method`` "kernel" inverts the diagonal kernel K_n(z); without a
    ``basis`` it reads K_n(z) off ``support_prefix`` on ``build_rule(measure,
    n)``, the route ``run_sweep`` takes, and stores no basis.  "direct"
    reconstructs the minimizing polynomial from its kernel coefficients in an
    Arnoldi basis, renormalizes it at z, and integrates its square, which
    checks the kernel against an independent computation.  Pass ``basis`` to
    reuse an Arnoldi basis across calls; both methods then read it.  A
    measure that cannot carry degree n raises DegeneracyError with the
    achieved degree, and a kernel that overflows or vanishes NumericError.
    """
    if z is None:
        z = measure.z0
    if z is None:
        raise DomainError("no evaluation point: measure.z0 is unset and no z given")
    z = complex(z)
    if method not in ("kernel", "direct"):
        raise InputError(f"unknown method {method!r}")
    if basis is None and method == "kernel":
        prefix, _, route = support_prefix(build_rule(measure, n),
                                          measure.support, n, z)
        if prefix.size <= n:
            raise DegeneracyError(
                f"the {route} route broke down at degree {prefix.size}: the "
                f"measure supports polynomials only up to degree "
                f"{prefix.size - 1}", achieved_degree=prefix.size - 1)
        K = _checked_kernel(float(prefix[n]))
        return ChristoffelValue(n=n, z=z, lambda_n=1.0 / K, method=method,
                                route=route)
    if basis is None:
        basis = orthonormalize(build_rule(measure, n), n)
    if basis.degree < n:
        raise DomainError(f"basis degree {basis.degree} is below n = {n}")

    if method == "kernel":
        K = kernel_diag(basis, z, upto=n)
        return ChristoffelValue(n=n, z=z, lambda_n=1.0 / K, method=method,
                                route="arnoldi")

    # direct: P = sum_k conj(p_k(z)) p_k / K, then lambda = int |P|^2 dmu
    with np.errstate(over="ignore", invalid="ignore"):  # as in kernel_diag
        p = basis.evaluate(z, upto=n)
        K = _checked_kernel(float(np.dot(p, np.conjugate(p)).real))
    c = np.conjugate(p) / K
    value_at_z = complex(np.dot(c, p))
    if abs(value_at_z - 1.0) > 1e-9:
        raise NumericError("reconstructed minimizer is not normalized at z")
    Pn = c @ basis.node_values[:n + 1]
    lam = float(np.dot(basis.rule.weights, np.abs(Pn) ** 2))
    return ChristoffelValue(n=n, z=z, lambda_n=lam, method=method,
                            route="arnoldi", extremal_coeffs=c)


def extremal_polynomial_values(basis, value, points):
    """Evaluate the stored minimizing polynomial at arbitrary points."""
    if value.extremal_coeffs is None:
        raise DomainError("this ChristoffelValue carries no extremal "
                          "coefficients; compute it with method='direct'")
    pts = np.atleast_1d(np.asarray(points, dtype=complex))
    P = basis.evaluate(pts, upto=value.n)
    out = value.extremal_coeffs @ P
    return out if np.asarray(points).ndim else complex(out[0])


def kernel_prefix(basis, z):
    """K_n(z) for every n up to the basis degree, via one evaluation."""
    p = basis.evaluate(z)
    return np.cumsum(np.abs(p) ** 2)


def support_prefix(rule, support, degree, z):
    """K_n(z) for every n up to ``degree``, by the route for the support kind.

    Circles and intervals take ``recurrence_values`` and ellipses and
    lemniscates ``gram_prefix``; neither stores a basis.  Returns (prefix,
    residual, route), route being "recurrence" or "gram".  The prefix stops
    at the achieved degree when the discrete measure breaks the route down.
    A z far from the support overflows entries of the prefix to inf or nan,
    without a warning; callers test them.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        if support.kind in ("circle", "interval"):
            p, residual = recurrence_values(rule, support, degree, z)
            return np.cumsum(np.abs(p) ** 2), residual, "recurrence"
        return (*gram_prefix(rule, support, degree, z), "gram")


def recurrence_values(rule, support, degree, z):
    """p_0(z), ..., p_degree(z) for a rule on a circle or an interval support.

    No basis is stored: each step keeps only the current node values.  On an
    interval the polynomials follow the Stieltjes three-term recurrence
    (Gautschi, Orthogonal Polynomials: Computation and Approximation, 2004);
    on a circle, in u = (z - center) / radius, the Szegő recursion carries
    phi_k together with its reversed polynomial phi*_k (Simon, Orthogonal
    Polynomials on the Unit Circle, 2005).  Both take O(degree * m) time and
    O(m) memory.

    Returns (values, residual).  ``values`` stops at the achieved degree when
    the discrete measure breaks the recurrence down, under the same relative
    test as ``orthonormalize``.  ``residual`` is the largest |<p_j, p_k> -
    delta_jk| over every CERTIFY_STRIDE-th polynomial and the last one, a
    global check of the orthonormality the recurrence assumes.
    """
    _check_degree(rule, degree)
    w = rule.weights
    norm = lambda v: math.sqrt(float(np.dot(w, np.abs(v) ** 2)))
    z = complex(z)
    circle = support.kind == "circle"
    if circle:
        t = (rule.nodes - support.center) / support.radius
        z = (z - support.center) / support.radius
    elif support.kind == "interval":
        t = rule.nodes.real
    else:
        raise CapabilityError(f"no recurrence for {support.kind} supports")

    p = np.full(t.size, 1.0 / math.sqrt(float(w.sum())), dtype=t.dtype)
    p_rev, p_prev, beta = p, np.zeros_like(p), 0.0
    values = [complex(p[0])]
    q_rev, q_prev = values[0], 0j
    kept = [p]
    for k in range(degree):
        v = t * p
        scale = norm(v)
        if circle:
            c = complex(np.dot(w * v, np.conjugate(p_rev)))
            v -= c * p_rev
        else:
            v -= beta * p_prev
            a = float(np.dot(w * v, p))
            v -= a * p
        nrm = norm(v)
        if not math.isfinite(nrm) or nrm <= BREAKDOWN_REL * scale:
            break
        q = values[-1]
        if circle:
            p_rev = (p_rev - c.conjugate() * t * p) / nrm
            q, q_rev = ((z * q - c * q_rev) / nrm,
                        (q_rev - c.conjugate() * z * q) / nrm)
        else:
            q, q_prev = (z * q - beta * q_prev - a * q) / nrm, q
            p_prev, beta = p, nrm
        p = v / nrm
        values.append(q)
        if (k + 1) % CERTIFY_STRIDE == 0:
            kept.append(p)
    if kept[-1] is not p:
        kept.append(p)
    K = np.array(kept)
    G = K @ (w * np.conjugate(K)).T - np.eye(len(kept))
    return np.array(values), float(np.abs(G).max())


def gram_prefix(rule, support, degree, z):
    """K_n(z), n <= degree, for a rule on an ellipse or a lemniscate support.

    The Gram matrix G of a Faber-type basis phi_k, nearly orthonormal on the
    curve (Suetin, Series of Faber Polynomials, 1998), comes from O(degree)
    moments of the rule in the node angle theta.  On an ellipse with axes
    a >= b (a tall one turned by pi/2), phi_k = e^k + (r/e)^k with e the
    exterior variable, e^{i theta} at the nodes, and r = (a-b)/(a+b): G is
    Toeplitz plus Hankel.  On a lemniscate |T| = 1 of degree N, G is block
    Toeplitz in phi_{jN+k} = (z - s)^k T^j, k < N, s = -c_{N-1}/(N c_N),
    since T = e^{i theta} at the nodes.  The Cholesky factor G = R^H R,
    bordered by phi(z), gives p(z) = R^{-H} phi(z): the matrix Szegő
    recursion in O(degree^3) (Damanik, Pushnitski and Simon, Surveys in
    Approximation Theory 4, 2008).  Returns (prefix, residual): K_n(z) up to
    the degree where ``_bordered_cholesky`` stops, and the residual that
    ``recurrence_values`` reports, for the polynomials R^{-H} phi.
    """
    _check_degree(rule, degree)
    z, w, n = complex(z), rule.weights, degree
    q = np.arange(n + 1)
    if support.kind == "ellipse":
        (a, b), rho = support.axes, support.rotation
        if a < b:
            a, b, rho = b, a, rho + 0.5 * math.pi
        powers = _power_blocks(rule.params + support.rotation - rho)
        f = math.sqrt((a - b) * (a + b))
        u = (z - support.center) * complex(math.cos(rho), -math.sin(rho))
        root = np.sqrt(u - f) * np.sqrt(u + f)
        # phi_k = e^k + e'^k with e e' = r, whichever branch e takes
        phi = ((u + root) / (a + b)) ** q + ((u - root) / (a + b)) ** q
        r = ((a - b) / (a + b)) ** q
        mu = np.concatenate([P @ (shift * w) for _, P, shift in powers(2 * n + 1)])
        mu = np.concatenate([np.conjugate(mu[:0:-1]), mu])  # p = -2n .. 2n
        # G = T + r_j r_k conj(T) + r_k H + r_j conj(H), with T[j, k] = mu_{j-k}
        # and H[j, k] = mu_{j+k} strided views of mu; r_j conj(H) = (r_k H)^H
        W = np.lib.stride_tricks.sliding_window_view(mu, n + 1)
        T, H = W[n:2 * n + 1, ::-1], W[2 * n:]
        G = np.conjugate(T) * np.multiply.outer(r, r)
        G += T
        X = H * r
        G += X
        G += np.conjugate(X.T)

        def at_nodes(C):  # sum_k C[:, k] phi_k at the nodes
            Y = series(np.vstack([C, np.conjugate(C * r[:C.shape[1]])]))
            return Y[:len(C)] + np.conjugate(Y[len(C):])
    elif support.kind == "lemniscate":
        poly, N = support.poly, support.poly.degree
        s = -poly.coeffs[N - 1] / (N * poly.coeffs[N])
        phi = (z - s) ** (q % N) * complex(poly(z)) ** (q // N)
        powers, Z = _power_blocks(rule.params), (rule.nodes[:, None] - s) ** np.arange(N)
        V = (w[:, None, None] * Z[:, :, None] * np.conjugate(Z[:, None, :])).reshape(-1, N * N)
        M = np.concatenate([P @ (shift[:, None] * V) for _, P, shift
                            in powers(n // N + 1)]).reshape(-1, N, N)
        M = np.concatenate([np.conjugate(M[:0:-1].transpose(0, 2, 1)), M])
        # G[jN + a, kN + b] = M[j - k, a, b], from a strided view of M
        W = np.lib.stride_tricks.sliding_window_view(M, n // N + 1, axis=0)
        G = W[..., ::-1].transpose(0, 1, 3, 2).reshape(N * len(W), -1)[:n + 1, :n + 1]

        def at_nodes(C):
            return sum(Z[:, k] * series(C[:, k::N]) for k in range(N))
    else:
        raise CapabilityError(f"no Gram route for {support.kind} supports")

    def series(C):  # sum_p C[:, p] e^{i p theta} at the nodes
        return sum((C[:, lo:lo + GRAM_BLOCK] @ P) * shift
                   for lo, P, shift in powers(C.shape[1]))

    R, p = _bordered_cholesky(G, phi)
    keep = sorted({*range(0, p.size, CERTIFY_STRIDE), p.size - 1})
    Y = np.eye(p.size, dtype=complex)[:, keep]  # to become columns of R^{-1}
    for lo in reversed(range(0, p.size, GRAM_BLOCK)):
        hi = lo + GRAM_BLOCK
        Y[lo:hi] = np.linalg.inv(R[lo:hi, lo:hi]) @ (Y[lo:hi] - R[lo:hi, hi:] @ Y[hi:])
    Q = at_nodes(np.conjugate(Y.T))  # p_k at the nodes, k in keep
    residual = np.abs(Q @ (w * np.conjugate(Q)).T - np.eye(len(keep))).max()
    return np.cumsum(np.abs(p) ** 2), float(residual)


def _power_blocks(theta):
    """count -> (lo, rows e^{i p theta}, p < min(GRAM_BLOCK, count - lo),
    e^{i lo theta}), lo < count, whose product is e^{i (lo + p) theta}.  The
    rows come from one table, built once per ``gram_prefix`` call and shared by
    the moments and every ``series``; a row is a product of at most
    log2(GRAM_BLOCK) exact exponentials, so no error grows from power to power."""
    B = np.ones((1, theta.size), dtype=complex)
    while B.shape[0] < GRAM_BLOCK:
        B = np.vstack([B, B * np.exp(1j * B.shape[0] * theta)])
    return lambda count: ((lo, B[:count - lo], np.exp(1j * lo * theta))
                          for lo in range(0, count, GRAM_BLOCK))


def _bordered_cholesky(G, phi):
    """Upper factor R of G = R^H R and R^{-H} phi, GRAM_BLOCK rows at a time,
    both stopped before the first pivot below BREAKDOWN_REL of its diagonal
    entry (a pivot's rounding error is about 1e-16 of that entry)."""
    n = G.shape[0]
    R = np.hstack([G, phi[:, None]])
    for lo in range(0, n, GRAM_BLOCK):
        hi = min(lo + GRAM_BLOCK, n)
        R[lo:hi, lo:] -= np.conjugate(R[:lo, lo:hi]).T @ R[:lo, lo:]
        for k in range(lo, hi):
            R[k, k:] -= np.conjugate(R[lo:k, k]) @ R[lo:k, k:]
            d = R[k, k].real
            if not d > BREAKDOWN_REL * G[k, k].real:
                return np.triu(R[:k, :k]), R[:k, n]
            R[k, k:] /= math.sqrt(d)
    return np.triu(R[:, :n]), R[:, n]
