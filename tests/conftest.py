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
