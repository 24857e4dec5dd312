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
