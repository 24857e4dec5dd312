import math

import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(20240814)


def match_spectra(e1, e2):
    """Greedy bipartite matching distance between two (complex) spectra."""
    e2 = list(np.asarray(e2))
    worst = 0.0
    for w in np.asarray(e1):
        j = int(np.argmin([abs(w - v) for v in e2]))
        worst = max(worst, abs(w - e2[j]))
        e2.pop(j)
    return worst


def lax_K_loop(q, p, params):
    """Reference C-odd Lax matrix K(q, p): a loop over Python floats that
    computes each entry once and places it, negated where the structure
    [[A, B], [-B, -A]] says so, in all its positions."""
    from bcsuth.params import require_inside

    q, p = np.asarray(q, dtype=float).tolist(), np.asarray(p, dtype=float).tolist()
    require_inside(q, "qp", params)
    n = len(q)
    mu, nu, kappa = params.mu, params.nu, params.kappa
    rows = [[0j] * (2 * n) for _ in range(2 * n)]
    for j, x in enumerate(q):
        top, bottom = rows[j], rows[n + j]
        top[j] = 1j * p[j]
        bottom[n + j] = -top[j]
        s2 = math.sin(2.0 * x)
        top[n + j] = nu / s2 + kappa * math.cos(2.0 * x) / s2
        bottom[j] = -top[n + j]
        for k in range(j + 1, n):
            a = -mu / math.sin(x - q[k])
            b = mu / math.sin(x + q[k])
            top[k] = rows[n + k][n + j] = a
            rows[k][j] = bottom[n + k] = -a
            top[n + k] = rows[k][n + j] = b
            bottom[k] = rows[n + k][j] = -b
    return np.array(rows)


def h_matrix_loop(lam, params):
    """Reference dual frame (h, alpha, beta) at one lambda: a loop over Python
    floats, alpha = sqrt(x + sqrt(x^2 - kappa^2)) / sqrt(2x) and
    beta = kappa / (sqrt(2x) sqrt(x + sqrt(x^2 - kappa^2)))."""
    lam = np.asarray(lam, dtype=float).tolist()
    kappa = params.kappa
    alpha, beta = [], []
    for x in lam:
        s = math.sqrt(x + math.sqrt(x * x - kappa * kappa))
        r = math.sqrt(2.0 * x)
        alpha.append(s / r)
        beta.append(kappa / (r * s))
    n = len(lam)
    h = np.zeros((2 * n, 2 * n), dtype=complex)
    for j in range(n):
        h[j, j] = h[n + j, n + j] = alpha[j]
        h[j, n + j] = beta[j]
        h[n + j, j] = -beta[j]
    return h, np.array(alpha), np.array(beta)


def pair_diagonalize_one(Y):
    """Reference paired spectrum (d, g) of one gminus matrix Y (2n x 2n): the
    SVD of M = -i(Y_11 + Y_12), its Jordan-Wielandt eigenvectors paired as
    g = [v, Cv], one first-order step against -iY over the gaps above
    1e-6 max(1, ||Y||_F), and each column's largest entry made real positive."""
    Y = np.asarray(Y, dtype=complex)
    n = Y.shape[0] // 2
    scale = max(1.0, float(np.linalg.norm(Y)))
    X, d, Wh = np.linalg.svd(-1j * (Y[:n, :n] + Y[:n, n:]))
    W = Wh.conj().T
    V = np.concatenate((W + X, W - X)) / 2.0
    g = np.concatenate((V, np.concatenate((V[n:], V[:n]))), axis=1)
    E = g.conj().T @ (Y @ V) * -1j
    d = np.abs(E.diagonal().real)
    gap = d - np.concatenate((d, -d))[:, None]
    Z = E / np.where(np.abs(gap) > 1e-6 * scale, gap, np.inf)
    Z -= np.concatenate((Z[:n].conj().T, Z[n:].conj().T))
    V = V + g @ (Z / 2.0)
    peak = V[np.argmax(np.abs(V), axis=0), np.arange(n)]
    V = V / (peak / np.abs(peak))
    return d, np.concatenate((V, np.concatenate((V[n:], V[:n]))), axis=1)


def g_profiles_loop(lam, params):
    """Reference oscillator-chart profiles g at one lambda: a loop over Python
    floats, each profile its first factor times the gap factors of the
    partners a = 1..n in turn, the difference factor before the sum factor."""
    lam = np.asarray(lam, dtype=float).tolist()
    n = len(lam)
    mu, nu = params.mu, params.nu
    first, second = [], []
    for c, x in enumerate(lam):
        val = (x - nu) / x / (x - lam[c + 1]) if c < n - 1 else 1.0 / x
        for a, y in enumerate(lam):
            if a == c:
                continue
            if a != c + 1:
                val *= (x - y - 2 * mu) / (x - y)
            val *= (x + y - 2 * mu) / (x + y)
        first.append(math.sqrt(val))
        val = (x + nu) / x
        if c > 0:
            val /= lam[c - 1] - x
        for a, y in enumerate(lam):
            if a == c:
                continue
            if a != c - 1:
                val *= (x - y + 2 * mu) / (x - y)
            val *= (x + y + 2 * mu) / (x + y)
        second.append(math.sqrt(val))
    return np.array(first + second)


def diag_entry_n2n_loop(lam, params):
    """Reference cancelled (n, 2n) entry of A_tilde at one lambda, on Python
    floats: P and S accumulated left to right over a < n."""
    lam = np.asarray(lam, dtype=float).tolist()
    mu, nu = params.mu, params.nu
    x = lam[-1]
    d = x - mu
    P, S = 1.0, 0.0
    for y in lam[:-1]:
        c = -4 * mu / ((x - y) * (x + y))
        S += c * P
        P *= 1 + d * c
    return -((mu - nu) * S + nu / x * P)


def cartan_decompose_one(B):
    """Reference Cartan factor (eta, q) of one Gminus matrix B (2n x 2n): eig,
    the primary columns (half-angle in (PAIR_TOL, pi/2 - PAIR_TOL)) made
    orthonormal by one Cholesky-QR, each mirror cluster paired through the C
    eigenbasis of its eigenspace, columns sorted by descending q, one
    Newton-Schulz step and each column's largest entry made real positive."""
    from bcsuth.matkernel import PAIR_TOL

    B = np.asarray(B, dtype=complex)
    n = B.shape[0] // 2
    w, Z = np.linalg.eig(B)
    q = np.angle(w) / 2.0
    q[q <= PAIR_TOL - math.pi / 2] = math.pi / 2
    primary = (q > PAIR_TOL) & (q < math.pi / 2 - PAIR_TOL)
    V = Z[:, primary]
    L = np.linalg.cholesky(V.conj().T @ V)
    cols, values = [np.linalg.solve(L.conj(), V.T).T], [q[primary]]
    for m in (0.0, math.pi / 2):
        basis = Z[:, np.abs(q - m) <= PAIR_TOL]
        if not basis.shape[1]:
            continue
        basis = np.linalg.qr(basis)[0]
        w, u = np.linalg.eigh(basis.conj().T @ np.concatenate((basis[n:], basis[:n])))
        plus, minus = basis @ u[:, w > 0], basis @ u[:, w < 0]
        cols.append((plus + minus) / math.sqrt(2.0))
        values.append(np.full(plus.shape[1], m))
    V, q = np.concatenate(cols, axis=1), np.concatenate(values)
    order = np.argsort(-q, kind="stable")
    V, q = V[:, order], q[order]
    M = np.concatenate((V, np.concatenate((V[n:], V[:n]))), axis=1)
    V = 1.5 * V - 0.5 * (M @ (M.conj().T @ V))
    peak = V[np.argmax(np.abs(V), axis=0), np.arange(n)]
    V = V / (peak / np.abs(peak))
    return np.concatenate((V, np.concatenate((V[n:], V[:n]))), axis=1), q


def lambda_of_z_loop(z, params):
    """Reference positions lambda(z) at one z: a loop over Python floats, the
    tail sums of |z_j|^2 accumulated from the end."""
    sq = (np.abs(np.asarray(z, dtype=complex)) ** 2).tolist()
    n = len(sq)
    lam, tail = [0.0] * n, 0.0
    for k in range(n - 1, -1, -1):
        tail += sq[k]
        lam[k] = params.nu + 2.0 * (n - 1 - k) * params.mu + tail
    return np.array(lam)


def L_tilde_one(z, params):
    """Reference dual Lax matrix h A_tilde h at one z, lambda from the float loop."""
    from bcsuth.rsvd import _A_tilde_phi, h_matrix

    z = np.asarray(z, dtype=complex)
    lam = lambda_of_z_loop(z, params)
    h = h_matrix(lam, params).h.m
    return h @ _A_tilde_phi(z, lam, params)[0] @ h


def dual_Hk_one(z, params, kmax=None):
    """Reference dual Hamiltonians tr(L^k) / (2k), k = 1..kmax, at one z: one
    power of :func:`L_tilde_one` at a time, each trace a Python float."""
    kmax = params.n if kmax is None else int(kmax)
    L = L_tilde_one(z, params)
    P = np.eye(L.shape[0], dtype=complex)
    out = []
    for k in range(1, kmax + 1):
        P = P @ L
        out.append(float(np.trace(P).real) / (2.0 * k))
    return np.array(out)
