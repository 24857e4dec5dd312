"""Dual (rational RSvD) side: frame h, f-vector, Cauchy-like Lax matrices,
oscillator-chart objects and the two-branch solution of the unitarity system.

The central objects:

* ``h_matrix``      the real orthogonal frame that rotates diag(lambda, -lambda)
                    into diag(d, -d) - kappa*C,
* ``f_vector``      the distinguished C^N vector carrying the angles,
* ``A_check``       the unitary Gminus matrix solving the rank-one commutator
                    equation (built smoothly through the oscillator chart),
* ``A_tilde``       its globally smooth gauge transform on C^n, and
* ``L_tilde``       the global dual Lax matrix h * A_tilde * h,
* ``F_squared_branches`` / ``w_system_residual``  the quadratic system obeyed
                    by the moduli |F_k|^2 and its two closed-form branches.

Both core matrices are one Cauchy-like expression, with L = (lambda, -lambda):
entry (j, k) = [2mu F_j conj((CF)_k) - 2(mu - nu) C_jk] / (2mu + L_k - L_j),
at F = f (``A_from_F``) or at its gauge transform F = phi(z) (``A_tilde``).
``_cauchy_parts`` alone writes that numerator and denominator; ``A_from_F``,
``A_tilde``, ``commutator_residual`` and ``appendix_chain`` all read it.
On C^n exactly 2n - 1 denominators can vanish, each with its numerator, and
``A_tilde`` writes those entries in cancelled form: the (1,1)-block
superdiagonal and (2,2)-block subdiagonal, where |z_a|^2 = lambda_a -
lambda_{a+1} - 2mu cancels, and the (n, 2n) entry, where lambda_n - mu does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConsistencyError, DomainError
from .matkernel import (StructuredMatrix, _swapped_halves, exchange_matrix,
                        jacobi_minor_residual, structure_residual)
from .params import (TWO_PI, CouplingParams, DualPoint, lambda_of_z,
                     require_inside, require_inside_rows, row_params,
                     strongly_regular, z_from_angle_rows)

#: bound of A_check's optional unitarity and commutator checks
SELFCHECK_TOL = 1e-8


@dataclass(frozen=True)
class DualFrame:
    """Frame data at a spectrum lambda: h (real, Gminus), profiles alpha/beta."""

    h: StructuredMatrix
    alpha: np.ndarray
    beta: np.ndarray


def h_matrix(lam, params: CouplingParams) -> DualFrame:
    """Orthogonal frame [[alpha, beta], [-beta, alpha]] diagonalizing d - kappa*C.

    alpha(x) = sqrt(x + sqrt(x^2 - kappa^2)) / sqrt(2x) and
    beta(x) = kappa / (sqrt(2x) * sqrt(x + sqrt(x^2 - kappa^2))); for kappa = 0
    they are exactly alpha = 1, beta = 0 in floating point (sqrt(x^2) = x and
    x/x = 1), so h is the identity.  The identities alpha^2 + beta^2 = 1 and
    h diag(lambda, -lambda) h^T = diag(d, -d) - kappa*C are measured by the
    verify row ``rsvd.h_frame_identity``.  Over a stack (..., n), h is (..., 2n, 2n),
    and ``params`` may hold one triple per row (:class:`~bcsuth.params.CouplingRows`).
    """
    lam = np.asarray(lam, dtype=float)
    kappa = params.kappa
    if (low := lam < np.abs(kappa)).any():
        bad = low.any(-1)
        raise DomainError(f"every lambda_j must be >= |kappa| = "
                          f"{abs(row_params(params, bad).kappa)}, got {lam[bad][0].tolist()}")
    s = np.sqrt(lam + np.sqrt(lam * lam - kappa * kappa))
    r = np.sqrt(2.0 * lam)
    alpha, beta = s / r, kappa / (r * s)
    n, N = lam.shape[-1], 2 * lam.shape[-1]
    h = np.zeros(lam.shape[:-1] + (N * N,), dtype=complex)  # each h flattened: the diagonals
    h[..., ::N + 1] = np.concatenate((alpha, alpha), -1)    # of its four blocks are slices
    h[..., n:n * N:N + 1] = beta
    h[..., n * N::N + 1] = -beta
    return DualFrame(StructuredMatrix(h.reshape(lam.shape[:-1] + (N, N))), alpha, beta)


def f_vector(dual: DualPoint, params: CouplingParams) -> np.ndarray:
    """The C^N vector with real positive first half and angle phases on the second.

    f_c carries the factors (1 - nu/lambda_c) and (1 -+ 2mu/(lambda_c -+ lambda_a)),
    f_{n+c} = e^{i theta_c} times the analogous plus-sign factors.  Requires a
    strictly interior dual point.  The sum rule |f|^2 = N is measured by the
    verify rows ``rsvd.sum_plus`` and ``rsvd.f_moduli_vs_branch``.
    """
    lam = dual.lam.tolist()
    require_inside(lam, "lambda_theta", params)
    n = dual.n
    mu, nu = params.mu, params.nu
    f = np.zeros(2 * n, dtype=complex)
    for c, (x, t) in enumerate(zip(lam, dual.theta.tolist())):
        minus = 1.0 - nu / x
        plus = 1.0 + nu / x
        for a, y in enumerate(lam):
            if a == c:
                continue
            minus *= (1.0 - 2 * mu / (x - y)) * (1.0 - 2 * mu / (x + y))
            plus *= (1.0 + 2 * mu / (x - y)) * (1.0 + 2 * mu / (x + y))
        if minus < 0 or plus < 0:
            raise DomainError("square-root factor went negative; point too close to a wall")
        f[c] = math.sqrt(minus)
        f[n + c] = complex(math.cos(t), math.sin(t)) * math.sqrt(plus)
    return f


def w_weights(lam, params: CouplingParams) -> np.ndarray:
    """The 2n rational weights relating |F_k|^2 to the branch values W_k."""
    lam = np.asarray(lam, dtype=float)
    n = lam.size
    mu = params.mu
    w = np.zeros(2 * n)
    for a in range(n):
        num = 1.0
        den_minus = 1.0
        den_plus = 1.0
        for b in range(n):
            if b == a:
                continue
            num *= (lam[a] - lam[b]) * (lam[a] + lam[b])
            den_minus *= (2 * mu - (lam[a] - lam[b])) * (2 * mu - (lam[a] + lam[b]))
            den_plus *= (2 * mu + lam[a] - lam[b]) * (2 * mu + lam[a] + lam[b])
        w[a] = num / den_minus
        w[n + a] = num / den_plus
    return w


def F_squared_branches(lam, params: CouplingParams) -> tuple[np.ndarray, np.ndarray]:
    """The two closed-form branches (Fsq_plus, Fsq_minus) of the moduli system.

    Plus branch:  W_c = 1 - nu/lambda_c,            W_{n+c} = 1 + nu/lambda_c.
    Minus branch: W_c = -1 + (2mu - nu)/lambda_c,   W_{n+c} = -1 - (2mu - nu)/lambda_c.
    The moduli are F_k^2 = W_k / w_k.  The sum identities sum(F^+) = N and
    sum(F^-) = -N are measured by the verify rows ``rsvd.sum_plus`` and
    ``rsvd.sum_minus``.
    """
    lam = np.asarray(lam, dtype=float)
    nu, mu = params.nu, params.mu
    w = w_weights(lam, params)
    if np.any(w == 0.0):
        raise DomainError("w weight vanished; lambda violates strong regularity")
    W_plus = np.r_[1.0 - nu / lam, 1.0 + nu / lam]
    shift = 2 * mu - nu
    W_minus = np.r_[-1.0 + shift / lam, -1.0 - shift / lam]
    return W_plus / w, W_minus / w


def w_system_residual(lam, Fsq, params: CouplingParams) -> tuple[float, float]:
    """Max residuals of the linear and quadratic moduli equations for W = w*Fsq."""
    lam = np.asarray(lam, dtype=float)
    Fsq = np.asarray(Fsq, dtype=float)
    n = lam.size
    mu, nu = params.mu, params.nu
    W = w_weights(lam, params) * Fsq
    Wc, Wn = W[:n], W[n:]
    r1 = np.abs((mu + lam) * Wc + (mu - lam) * Wn - 2 * (mu - nu))
    r2 = np.abs(lam**2 * Wc * Wn - mu * (mu - nu) * (Wc + Wn)
                + (mu - nu) ** 2 + mu**2 - lam**2)
    return float(r1.max()), float(r2.max())


# ---------------------------------------------------------------------------
# oscillator-chart building blocks

def g_functions(z, params: CouplingParams) -> np.ndarray:
    """The 2n strictly positive profile functions of the oscillator chart.

    They are the f-vector factors with the vanishing gap factor stripped:
    f_c = |z_c| g_c and f_{n+c} = e^{i theta_c} |z_{c-1}| g_{n+c} (z_0 := 1).
    Each g depends on z only through lambda(z) and extends smoothly and
    positively to all of C^n.
    """
    return _g_profiles(lambda_of_z(z, params), params)


_SIGNS = np.array([-1.0, 1.0])
_SIGNS.flags.writeable = False


@lru_cache
def _g_factors(n: int) -> np.ndarray:
    """The read-only mask of the factors :func:`_g_profiles` takes, over its
    table (c, half, a, kind): all but a = c and the stripped neighbour factor
    of each half (a = c + 1 in the first, a = c - 1 in the second)."""
    take = np.ones((n, 2, n, 2), dtype=bool)
    take[np.arange(n), :, np.arange(n)] = False
    take[np.arange(n - 1), 0, np.arange(1, n), 0] = False
    take[np.arange(1, n), 1, np.arange(n - 1), 0] = False
    take.flags.writeable = False
    return take


def _g_profiles(lam, params: CouplingParams) -> np.ndarray:
    """:func:`g_functions` at the positions lambda(z), over a stack (..., n): (..., 2n).

    Profile c of each half is the product, taken left to right, of its first
    factor and then, for each partner a = 1..n in turn, of a difference
    factor and a sum factor; a factor left out is the exact 1.0.
    """
    lam = np.asarray(lam, dtype=float)
    n = lam.shape[-1]
    mu, nu = params.mu, params.nu
    factors = np.ones(lam.shape + (2, n + 1, 2))  # (..., c, half, 1 + a, kind)
    # first half: strip (lam_c - lam_{c+1} - 2mu) = |z_c|^2 (c < n-1 in
    # 0-based terms), or (lam_n - nu) = |z_n|^2 for the last entry; second
    # half: strip (lam_{c-1} - lam_c - 2mu) = |z_{c-1}|^2 for c > 0
    x = lam[..., None]
    first = np.divide(x + np.multiply.outer(nu, _SIGNS), x, out=factors[..., 0, 0])
    gaps = lam[..., :-1] - lam[..., 1:]
    first[..., :-1, 0] /= gaps
    first[..., -1, 0] = 1.0 / lam[..., -1]
    first[..., 1:, 1] /= gaps
    # then (x - y -+ 2mu) / (x - y) and (x + y -+ 2mu) / (x + y) for y = lam_a;
    # the factors left out, x - y = 0 at a = c among them, are never divided
    base = x[..., None, None] + lam[..., None, None, :, None] * _SIGNS
    np.divide(base + np.multiply.outer(2 * np.asarray(mu), _SIGNS[:, None, None]), base,
              out=factors[..., 1:, :], where=_g_factors(n))
    g = np.sqrt(np.multiply.reduce(factors.reshape(lam.shape + (2, 2 * n + 2)), -1))
    return np.concatenate((g[..., 0], g[..., 1]), -1)


def m_of_theta(theta) -> np.ndarray:
    """Diagonal central element with entries m_k = prod_{j<=k} e^{-i theta_j}.

    The second half repeats the first (m_{k+n} = m_k), so m commutes with the
    h frame and with every Gplus block structure.
    """
    return np.diag(_central_phases(theta))


def _central_phases(theta) -> np.ndarray:
    """The diagonal of :func:`m_of_theta`."""
    m = np.exp(-1j * np.cumsum(np.asarray(theta, dtype=float)))
    return np.concatenate((m, m))


def phi_vector(z, params: CouplingParams) -> np.ndarray:
    """Globally smooth gauge transform of the f-vector: phi_k = conj(z_k) g_k,
    phi_{n+k} = conj(z_{k-1}) g_{n+k} with z_0 := 1 (built with A_tilde)."""
    return _A_tilde_phi(z, lambda_of_z(z, params), params)[1]


def _diag_entry_n2n(lam, params: CouplingParams):
    """The cancelled (n, 2n) entry of A_tilde, smooth through lambda_n = mu.

    Direct form [(mu - nu) - mu(x - nu) gtil(x)] / d with x = lambda_n,
    d = x - mu and
    gtil(x) = (1/x) prod_{a<n} ((x - 2mu)^2 - lambda_a^2) / (x^2 - lambda_a^2).
    Each factor of gtil is 1 + d c_a with c_a = -4mu/(x^2 - lambda_a^2), and
    mu(x - nu)/x = (mu - nu) + d nu/x.  With P the product of the factors and
    S = sum_a c_a prod_{b<a} (1 + d c_b), so that P - 1 = d S, the numerator
    is -d [(mu - nu) S + (nu/x) P], and d divides out exactly.  Over a stack
    (..., n) of lambda: (...), a float for a single lambda.
    """
    lam = np.asarray(lam, dtype=float)
    mu, nu = params.mu, params.nu
    x, y = lam[..., -1:], lam[..., :-1]
    P, S = 1.0, 0.0
    if y.shape[-1]:  # P and S accumulate left to right
        c = -4 * mu / ((x - y) * (x + y))
        P = np.multiply.accumulate(1 + (x - mu) * c, -1)  # P after each factor
        c[..., 1:] *= P[..., :-1]                         # c_a times P before a
        S, P = np.add.accumulate(c, -1)[..., -1:], P[..., -1:]
    entry = -((mu - nu) * S + nu / x * P)[..., 0]
    return float(entry) if entry.ndim == 0 else entry


def A_tilde(z, params: CouplingParams) -> StructuredMatrix:
    """The globally smooth dual Lax core on the oscillator chart.

    The Cauchy-like core matrix of :func:`A_from_F` at F = phi(z) (see
    :func:`phi_vector`).  Its 2n - 1 entries with a vanishing denominator on
    C^n get the denominator 1 and then their cancelled forms: -2mu g_a
    g_{n+a+1} at (a, a+1) and (n+a+1, n+a) for a = 1..n-1, and
    :func:`_diag_entry_n2n` at (n, 2n).  Nothing divides by zero anywhere.
    """
    return StructuredMatrix(_A_tilde_phi(z, lambda_of_z(z, params), params)[0])


def _A_tilde_phi(z, lam, params: CouplingParams) -> tuple[np.ndarray, np.ndarray]:
    """(:func:`A_tilde`, :func:`phi_vector`) at z from one g pass, at the
    caller's positions lam = lambda(z); over a stack (..., n) of z and lam,
    with one coupling triple per row where ``params`` holds them."""
    z = np.asarray(z, dtype=complex)
    n = z.shape[-1]
    N = 2 * n
    g = _g_profiles(lam, params)
    zc = z.conj()
    phi = g.astype(complex)
    phi[..., :n] *= zc
    phi[..., n + 1:] *= zc[..., :-1]
    num, den = _cauchy_parts(phi, lam, params)
    # the cancelled entries, as strided slices of each flattened matrix
    upper = slice(1, (n - 1) * (N + 1), N + 1)  # (a, a+1), a < n-1
    lower = slice(n * N + n + N, None, N + 1)   # (n+a+1, n+a), a < n-1
    corner = n * N - 1                          # (n-1, 2n-1)
    fden = den.reshape(den.shape[:-2] + (N * N,))
    fden[..., upper] = fden[..., lower] = fden[..., corner] = 1.0
    A = num / den
    flat = A.reshape(fden.shape)
    flat[..., upper] = flat[..., lower] = -2 * params.mu * g[..., :n - 1] * g[..., n + 1:]
    flat[..., corner] = _diag_entry_n2n(lam, params)
    return A, phi


def L_tilde(z, params: CouplingParams) -> StructuredMatrix:
    """Global dual Lax matrix h(lambda(z)) A_tilde(z) h(lambda(z))."""
    z = np.asarray(z, dtype=complex)
    lam = lambda_of_z(z, params)
    h = h_matrix(lam, params).h.m
    return StructuredMatrix(h @ _A_tilde_phi(z, lam, params)[0] @ h)


def dual_Hk(z, params: CouplingParams, kmax: int | None = None) -> np.ndarray:
    """Commuting dual Hamiltonians tr(L_tilde^k) / (2k) for k = 1..kmax."""
    kmax = params.n if kmax is None else int(kmax)
    L = L_tilde(z, params).m
    P = np.eye(L.shape[0], dtype=complex)
    out = []
    for k in range(1, kmax + 1):
        P = P @ L
        out.append(float(np.trace(P).real) / (2.0 * k))
    return np.array(out)


def _cauchy_parts(F, lam, params: CouplingParams):
    """Numerator 2mu F (CF)^dag - 2(mu - nu) C and denominator 2mu + L_k - L_j
    (L = (lambda, -lambda)) of the Cauchy-like core matrix, as fresh arrays;
    over a stack (..., n) of lambda and (..., 2n) of F."""
    n = lam.shape[-1]
    N = 2 * n
    mu, nu = params.mu, params.nu
    L = np.concatenate((lam, -lam), -1)
    num = F[..., :, None] * F[..., _swapped_halves(N)[1]].conj()[..., None, :]  # F (CF)^dag
    num *= np.asarray(2 * mu)[..., None]
    flat = num.reshape(num.shape[:-2] + (N * N,))  # C's entries (a, n+a) and (n+a, a), a < n
    flat[..., n:n * N:N + 1] -= 2 * (mu - nu)
    flat[..., n * N::N + 1] -= 2 * (mu - nu)
    return num, (2 * mu + L)[..., None, :] - L[..., :, None]


def A_from_F(F, lam, params: CouplingParams) -> np.ndarray:
    """Raw Cauchy-like formula for the core matrix from an arbitrary F vector.

    Entry (j,k) = (2mu F_j conj((CF)_k) - 2(mu - nu) C_jk) / (2mu + L_k - L_j)
    with L = (lambda, -lambda).  It loses about eps max|lambda| / min|den| of
    max|A| near the resonance set, so it raises DomainError below min|den| =
    1e-5 max(1, max|lambda|), about ten digits (the smooth route is A_tilde).
    """
    lam = np.asarray(lam, dtype=float)
    num, den = _cauchy_parts(np.asarray(F, dtype=complex), lam, params)
    if np.min(np.abs(den)) < 1e-5 * max(1.0, np.max(np.abs(lam))):
        raise DomainError("raw formula too close to a vanishing denominator; "
                          "use the smooth route")
    return num / den


def A_check_direct(dual: DualPoint, params: CouplingParams) -> np.ndarray:
    """Cross-check construction of A_check from the raw entry formula."""
    return A_from_F(f_vector(dual, params), dual.lam, params)


def A_check(dual: DualPoint, params: CouplingParams,
            validate: bool = True) -> StructuredMatrix:
    """The unitary Gminus core matrix at an interior dual point.

    Canonical route: build A_tilde on the oscillator chart and undo the
    central gauge, A_check = m(theta)^{-1} A_tilde(z(lambda, theta)) m(theta);
    the removable singularities never appear.  With ``validate`` the unitarity
    and the rank-one commutator identity are checked against SELFCHECK_TOL.
    """
    At, _ = _A_tilde_phi(z_from_angle_rows(dual.lam, dual.theta, params), dual.lam, params)
    m = _central_phases(dual.theta)
    A = (At * m) / m[:, None]
    if validate:
        runi = structure_residual(A, "unitary")
        if runi > SELFCHECK_TOL:
            raise ConsistencyError(f"A_check unitarity residual {runi:.3e}")
        rcomm = commutator_residual(A, f_vector(dual, params), dual.lam, params)
        if rcomm > SELFCHECK_TOL:
            raise ConsistencyError(f"A_check commutator-identity residual {rcomm:.3e}")
    return StructuredMatrix(A)


def commutator_residual(A, F, lam, params: CouplingParams) -> float:
    """|| 2mu A + A Lam - Lam A - 2mu F (CF)^dag + 2(mu - nu) C ||, Lam = diag(L).

    Entry (j, k) of 2mu A + A Lam - Lam A is A_jk (2mu + L_k - L_j), so the
    residual is || A * den - num || with the Cauchy parts of :func:`A_from_F`.
    """
    num, den = _cauchy_parts(np.asarray(F, dtype=complex),
                             np.asarray(lam, dtype=float), params)
    return float(np.linalg.norm(np.asarray(A, dtype=complex) * den - num))


def _h0_weights(lam: list, params: CouplingParams):
    """The weights of :func:`grad_dual_H0` and their derivatives, on plain floats.

    With H0 = sum_j cos(theta_j) w_j - (nu*kappa/4mu^2) (P - 1) and
    P = prod_j (1 - 4mu^2/lam_j^2), returns w, G and dP: G[j][m] = d log w_j /
    d lam_m, using d/dx (1/2) log(1 - a^2/x^2) = a^2 / (x (x^2 - a^2)), and
    dP[m] = dP/dlam_m.  The caller guarantees lam lies inside the chamber,
    where every factor of w_j is positive.
    """
    # the factors of w_j square with ``** 2`` and those of dP with ``y * y``;
    # the two can round apart in the last bit, and this choice fixes the
    # values of grad_dual_H0 (and so the analytic dual flow) bit for bit
    mu4, nu2, kappa2 = 4 * params.mu**2, params.nu**2, params.kappa**2
    n = len(lam)
    w, G = [], []
    for j, x in enumerate(lam):
        x2 = x ** 2
        wj = math.sqrt(1 - nu2 / x2) * math.sqrt(1 - kappa2 / x2)
        g = [0.0] * n
        g[j] = nu2 / (x * (x2 - nu2)) + kappa2 / (x * (x2 - kappa2))
        for k, y in enumerate(lam):
            if k == j:
                continue
            d, s = x - y, x + y
            d2, s2 = d ** 2, s ** 2
            wj *= math.sqrt(1 - mu4 / d2)
            wj *= math.sqrt(1 - mu4 / s2)
            gd = mu4 / (d * (d2 - mu4))
            gs = mu4 / (s * (s2 - mu4))
            g[j] += gd + gs
            g[k] += gs - gd
        w.append(wj)
        G.append(g)
    # dP/dlam_m = (8mu^2/lam_m^3) prod_{j != m} (1 - 4mu^2/lam_j^2), with no
    # division by the m-th factor, which vanishes at lam_m = 2mu
    dP = []
    for m, x in enumerate(lam):
        rest = 2 * mu4 / (x * x * x)
        for j, y in enumerate(lam):
            if j != m:
                rest *= 1 - mu4 / (y * y)
        dP.append(rest)
    return w, G, dP


def _dual_H0_kernel(lam, theta, params: CouplingParams):
    """:func:`dual_H0` at raw coordinates (..., n), over any leading stack axes.

    Returns an array of shape (...), a float for a single point; each row's
    value is the one that point alone gives, bit for bit.  Every row is
    checked against the chamber by :func:`require_inside_rows`, and the
    first row that is not inside raises its error.  Each theta_j is reduced
    mod 2*pi as :func:`canonical_angle` reduces it, so the value is the one
    ``dual_H0`` returns.  The pair factors of w_j and w_{j+o} are one array
    per neighbour offset o = 1 .. n-1; sum and product run left to right.
    """
    lam = np.asarray(lam, dtype=float)
    require_inside_rows(lam, params)
    mu, nu, kappa = params.mu, params.nu, params.kappa
    mu4 = 4 * mu**2
    x2 = lam * lam
    # canonical_angle maps a theta that rounds up to 2*pi to 0.0; the cosine
    # of the float 2*pi is 1.0 = cos(0.0), so the reduction alone suffices
    terms = np.cos(np.mod(theta, TWO_PI)) * np.sqrt(
        (1 - nu**2 / x2) * (1 - kappa**2 / x2))
    n = lam.shape[-1]
    for o in range(1, n):
        a, b = lam[..., :-o], lam[..., o:]
        d, s = a - b, a + b
        pair = np.sqrt((1 - mu4 / (d * d)) * (1 - mu4 / (s * s)))
        terms[..., :-o] *= pair
        terms[..., o:] *= pair
    factors = 1 - mu4 / x2
    total, P = terms[..., 0], factors[..., 0]
    for j in range(1, n):
        total = total + terms[..., j]
        P = P * factors[..., j]
    H = total - nu * kappa / mu4 * (P - 1.0)
    return float(H) if H.ndim == 0 else H


def dual_H0(dual: DualPoint, params: CouplingParams) -> float:
    """The dual many-body Hamiltonian in closed form.

    H0 = sum_j cos(theta_j) sqrt(1 - nu^2/lam_j^2) sqrt(1 - kappa^2/lam_j^2)
         * prod_{k != j} sqrt(1 - 4mu^2/(lam_j - lam_k)^2) sqrt(1 - 4mu^2/(lam_j + lam_k)^2)
         - (nu*kappa / 4mu^2) * [prod_j (1 - 4mu^2/lam_j^2) - 1].

    Its agreement with tr(h A_check h)/2 is measured by the verify row
    ``rsvd.dual_H0_identity``.
    """
    return _dual_H0_kernel(dual.lam, dual.theta, params)


def grad_dual_H0(lam, theta, params: CouplingParams) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form gradient (dH0/dlambda, dH0/dtheta) of :func:`dual_H0`.

    dH0/dtheta_j = -sin(theta_j) w_j and
    dH0/dlambda_m = sum_j cos(theta_j) w_j dlog w_j/dlambda_m
                    - (nu*kappa/4mu^2) dP/dlambda_m,
    with w_j the square-root product and P the product term of ``dual_H0``.
    Raises DomainError unless lambda is inside the chamber with the slack
    ``dual_H0`` requires.
    """
    lam = np.asarray(lam, dtype=float).tolist()
    theta = np.asarray(theta, dtype=float).tolist()
    require_inside(lam, "lambda_theta", params)
    w, G, dP = _h0_weights(lam, params)
    c = params.nu * params.kappa / (4 * params.mu**2)
    cw = [math.cos(t) * wj for t, wj in zip(theta, w)]
    dlam = [sum(cwj * Gj[m] for cwj, Gj in zip(cw, G)) - c * dPm
            for m, dPm in enumerate(dP)]
    dtheta = [-math.sin(t) * wj for t, wj in zip(theta, w)]
    return np.array(dlam), np.array(dtheta)


# ---------------------------------------------------------------------------
# cofactor / complementary-minor verification chain

def _cofactor(M: np.ndarray, i: int, j: int) -> complex:
    sub = np.delete(np.delete(M, i, axis=0), j, axis=1)
    return (-1) ** (i + j) * np.linalg.det(sub)


def appendix_chain(F, lam, params: CouplingParams, a: int = 0) -> dict:
    """Residuals of the cofactor route from unitarity to the moduli system.

    ``F`` is any vector whose moduli satisfy |F_k|^2 = Fsq of one branch;
    ``a`` selects the distinguished index (0-based).  The Cauchy-determinant
    and cofactor identities are generic in F; the complementary-minor steps
    additionally need the built core matrix to be unitary with unit
    determinant, which holds exactly for the realizable (plus) branch, so
    those entries are emitted only when the unitarity residual is small.

    Psi = conj Q[:n, cols1], Xi = Q[n:, cols2] and the bordered Phi are slices
    of the C-free quotient Q = (num + 2(mu - nu) C) / den of :func:`_cauchy_parts`
    (Feher-Gorbe, J. Math. Phys. 55 (2014) 102704), where cols1 and cols2 are
    0..n-1 and n..2n-1 with the columns a and n + a exchanged.

    Normalization of the Cauchy evaluations: det Psi = mu * D_a W_a/(mu - l_a),
    det Xi = mu * D_a W_{n+a}/(mu + l_a), and likewise the off-corner cofactors
    of Phi carry one factor mu; these constants were fixed against the generic
    scaled-Cauchy determinant (the combined identities are insensitive to
    them, the individual evaluations are not).
    """
    F = np.asarray(F, dtype=complex)
    lam = np.asarray(lam, dtype=float)
    n = lam.size
    mu, nu = params.mu, params.nu
    if not strongly_regular(lam, params):
        raise DomainError("appendix chain needs a strongly regular lambda")
    A = A_from_F(F, lam, params)
    out = {}

    W = w_weights(lam, params) * np.abs(F) ** 2
    Wa, Wna = W[a], W[n + a]

    # D_a: products over b != a and over the pairs c != d with c, d != a
    keep = np.arange(n) != a
    gap = np.subtract.outer(lam[keep], lam[keep])[~np.eye(n - 1, dtype=bool)]
    D_a = np.prod(F[:n][keep].conj() * F[n:][keep]) * np.prod(gap / (2 * mu + gap))

    # Cauchy-like cores (generic in F), sliced from the C-free quotient
    num, den = _cauchy_parts(F, lam, params)
    Q = (num + 2 * (mu - nu) * exchange_matrix(n)) / den
    cols1 = list(range(n))
    cols1[a] = n + a
    cols2 = list(range(n, 2 * n))
    cols2[a] = a
    Psi = Q[:n, cols1].conj()
    Xi = Q[n:, cols2]
    out["cauchy_det_Psi"] = float(abs(np.linalg.det(Psi)
                                      - mu * D_a * Wa / (mu - lam[a])))
    out["cauchy_det_Xi"] = float(abs(np.linalg.det(Xi)
                                     - mu * D_a * Wna / (mu + lam[a])))
    out["cofactor_Psi_aa"] = float(abs(_cofactor(Psi, a, a) - D_a)) if n > 1 else 0.0
    out["linear_equation"] = float(
        abs((mu + lam[a]) * Wa + (mu - lam[a]) * Wna - 2 * (mu - nu)))

    Phi = np.block([[Q[:n, :n].conj(), Q[:n, n + a, None].conj()],
                    [Q[None, n:, a], F[n + a].conj() * F[a]]])
    det_Phi = np.linalg.det(Phi)
    out["cauchy_det_Phi"] = float(abs(
        det_Phi + lam[a] ** 2 / (mu**2 - lam[a] ** 2) * D_a * Wa * Wna))
    c_an = _cofactor(Phi, a, n)
    c_na = _cofactor(Phi, n, a)
    c_aa = _cofactor(Phi, a, a)
    c_nn = _cofactor(Phi, n, n)
    out["cofactor_product"] = float(abs(c_aa * c_nn - D_a**2 * Wa * Wna))
    out["cofactor_an"] = float(abs(c_an + mu * D_a * Wna / (mu + lam[a])))
    out["cofactor_na"] = float(abs(c_na + mu * D_a * Wa / (mu - lam[a])))
    out["quadratic_equation"] = float(abs(
        lam[a] ** 2 * (Wa * Wna - 1.0) - mu * (mu - nu) * (Wa + Wna - 2.0) + nu**2))

    # complementary-minor route (needs the realizable branch: unitary, det 1)
    if structure_residual(A, "unitary") > 1e-8:
        return out
    B = np.linalg.inv(A).T
    out["det_A_minus_1"] = float(abs(np.linalg.det(A) - 1.0))

    xi = B[:n, cols1]
    eta = A[n:, cols2]
    out["minor_identity_1"] = float(abs(np.linalg.det(xi) + np.linalg.det(eta)))

    out["jacobi_oracle_1"] = jacobi_minor_residual(A, range(2 * n), cols1 + cols2, p=n)

    E = np.zeros((n, n))
    E[a, a] = 1.0
    out["xi_decomposition"] = float(
        np.linalg.norm(xi - (Psi - (mu - nu) / (mu - lam[a]) * E)))
    out["eta_decomposition"] = float(
        np.linalg.norm(eta - (Xi - (mu - nu) / (mu + lam[a]) * E)))

    sel = list(range(n)) + [n + a]
    X = B[np.ix_(sel, sel)]
    rest = [c for c in range(n, 2 * n) if c != n + a]
    Y = A[np.ix_(rest, rest)]
    out["minor_identity_2"] = float(abs(np.linalg.det(X) - np.linalg.det(Y)))
    out["det_Y_equals_Da"] = float(abs(np.linalg.det(Y) - D_a))

    E1 = np.zeros((n + 1, n + 1))
    E1[a, n] = 1.0
    E2 = np.zeros((n + 1, n + 1))
    E2[n, a] = 1.0
    out["X_decomposition"] = float(np.linalg.norm(
        X - (Phi - (mu - nu) / (mu - lam[a]) * E1 - (mu - nu) / (mu + lam[a]) * E2)))
    det_X_expand = det_Phi - (mu - nu) * (c_an / (mu - lam[a]) + c_na / (mu + lam[a])) \
        + (mu - nu) ** 2 * (c_an * c_na - c_aa * c_nn) \
        / ((mu - lam[a]) * (mu + lam[a]) * det_Phi)
    out["rank2_expansion"] = float(abs(np.linalg.det(X) - det_X_expand))
    return out
