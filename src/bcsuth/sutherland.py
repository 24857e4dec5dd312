"""Sutherland side: Lax matrix, commuting Hamiltonians, action map, momentum residuals.

The Lax matrix is Y(q, p) = K(q, p) - i*kappa*C with K in the C-odd part of
u(N).  The Hermitian matrix -i*Y has spectrum {+-sqrt(lambda_j^2 - kappa^2)}
shifted by kappa back to the action vector lambda, and its even traces generate
the commuting family

    H_k(q, p) = tr((-i Y)^(2k)) / (4k),   k = 1..n,

whose k = 1 member is the physical Hamiltonian

    H_1 = p^2/2 + sum_{j<k} [gamma/sin^2(q_j - q_k) + gamma/sin^2(q_j + q_k)]
        + sum_j gamma1/sin^2(q_j) + sum_j gamma2/sin^2(2 q_j).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError, DomainError
from .matkernel import StructuredMatrix, conj_by_C, exchange_matrix
from .params import CouplingParams, SutherlandPoint, chart_membership, require_inside


def real_constraint_vector(n: int) -> np.ndarray:
    """The distinguished vector (1, ..., 1, -1, ..., -1) with C V = -V, |V|^2 = N."""
    return np.repeat(np.array([1.0, -1.0], dtype=complex), n)


@dataclass(frozen=True)
class SutherlandLax:
    """Lax data at a point: Y (anti-Hermitian) and its C-odd part K."""

    Y: StructuredMatrix
    K: StructuredMatrix


def lax_K(point: SutherlandPoint, params: CouplingParams) -> np.ndarray:
    """The C-odd block matrix [[A, B], [-B, -A]] of the Lax construction.

    A_jj = i p_j, A_jk = -mu / sin(q_j - q_k); B_jj = nu/sin(2 q_j)
    + kappa*cot(2 q_j), B_jk = mu / sin(q_j + q_k).  Built so the structure
    relations hold exactly in floating point: each entry is computed once
    and placed, negated where the structure says so, in all its positions.
    Loops over Python floats (``math.*``) and converts the rows once.
    """
    q, p = point.q.tolist(), point.p.tolist()
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


def lax_Y(point: SutherlandPoint, params: CouplingParams) -> SutherlandLax:
    """Full Lax matrix Y = K - i*kappa*C at a strictly interior point."""
    K = lax_K(point, params)
    Y = K - 1j * params.kappa * exchange_matrix(point.n)
    return SutherlandLax(Y=StructuredMatrix(Y), K=StructuredMatrix(K))


def closed_form_H1(point: SutherlandPoint, params: CouplingParams) -> float:
    """The physical Hamiltonian evaluated from its trigonometric closed form."""
    q, p = point.q, point.p
    g, g1, g2 = params.gamma, params.gamma1, params.gamma2
    val = 0.5 * float(p @ p)
    n = point.n
    for j in range(n):
        for k in range(j + 1, n):
            val += g / np.sin(q[j] - q[k]) ** 2 + g / np.sin(q[j] + q[k]) ** 2
    val += float(np.sum(g1 / np.sin(q) ** 2))
    val += float(np.sum(g2 / np.sin(2.0 * q) ** 2))
    return val


def spectrum(point: SutherlandPoint, params: CouplingParams) -> np.ndarray:
    """Eigenvalues of the Hermitian Lax matrix -i*Y, ascending."""
    lax = lax_Y(point, params)
    return np.linalg.eigvalsh(-1j * lax.Y.m)


def hamiltonians(point: SutherlandPoint, params: CouplingParams,
                 kmax: int | None = None) -> np.ndarray:
    """Commuting invariants H_1..H_kmax from the paired Lax spectrum.

    The agreement of H_1 with :func:`closed_form_H1` is measured by the
    verify row ``sutherland.H1_closed_form``.
    """
    kmax = params.n if kmax is None else int(kmax)
    if not 1 <= kmax <= params.n:
        raise ValueError(f"kmax must lie in 1..n = {params.n}")
    eigs = spectrum(point, params)
    return np.array([np.sum(eigs ** (2 * k)) / (4.0 * k) for k in range(1, kmax + 1)])


def hamiltonians_matrix_route(point: SutherlandPoint, params: CouplingParams) -> np.ndarray:
    """H_1..H_n through explicit matrix powers (stability cross-check)."""
    lax = lax_Y(point, params)
    M = -1j * lax.Y.m
    P = np.eye(M.shape[0], dtype=complex)
    out = []
    for k in range(1, params.n + 1):
        P = P @ M @ M
        out.append(float(np.trace(P).real) / (4.0 * k))
    return np.array(out)


def odd_trace_residual(point: SutherlandPoint, params: CouplingParams) -> float:
    """Largest normalized odd trace of -iY, k = 0..n-1; zero for the paired spectrum.

    Each |tr((-iY)^(2k+1))| is divided by max(1, sum |eig|^(2k+1)) so the
    cancellation is measured relative to the scale of the power sums.
    """
    eigs = spectrum(point, params)
    worst = 0.0
    for k in range(params.n):
        power = eigs ** (2 * k + 1)
        worst = max(worst, abs(np.sum(power)) / max(1.0, np.sum(np.abs(power))))
    return float(worst)


def grad_H1(q, p, params: CouplingParams) -> tuple[np.ndarray, np.ndarray]:
    """Analytic gradient (dH/dq, dH/dp) of the closed-form Hamiltonian at raw q, p.

    Loops over Python floats (``math.*``): at n <= 3 numpy's per-call
    overhead would dominate.
    """
    g, g1, g2 = params.gamma, params.gamma1, params.gamma2
    q = np.asarray(q, dtype=float).tolist()
    dq = []
    for j, x in enumerate(q):
        acc = 0.0
        for k, y in enumerate(q):
            if k == j:
                continue
            d = x - y
            s = x + y
            acc += -2.0 * g * math.cos(d) / math.sin(d) ** 3
            acc += -2.0 * g * math.cos(s) / math.sin(s) ** 3
        acc += -2.0 * g1 * math.cos(x) / math.sin(x) ** 3
        acc += -4.0 * g2 * math.cos(2.0 * x) / math.sin(2.0 * x) ** 3
        dq.append(acc)
    return np.array(dq), np.array(p, dtype=float)


def action_map(point: SutherlandPoint, params: CouplingParams) -> np.ndarray:
    """Action vector lambda_j = sqrt(d_j^2 + kappa^2), d descending.

    d is the top half of the spectrum of -i times the C-odd part of Y, which
    pairs as (+d, -d); only eigenvalues are needed, no frame.  The result
    must land in the closure of the dual chamber; a violation beyond 1e-8
    raises ConsistencyError.
    """
    d = np.linalg.eigvalsh(-1j * lax_Y(point, params).K.m)[::-1][:params.n]
    lam = np.sqrt(d**2 + params.kappa**2)
    if chart_membership(lam.tolist(), "lambda_theta", params, 1e-8) == "outside":
        raise ConsistencyError(
            f"action vector {lam.tolist()} exited the closed chamber by more than 1e-8")
    return lam


def upsilon_left(V, params: CouplingParams) -> np.ndarray:
    """Left orbit element i*mu*(V V^dag - 1) + i*(mu - nu)*C for C V = -V, |V|^2 = N."""
    V = np.asarray(V, dtype=complex)
    N = V.size
    C = exchange_matrix(N // 2)
    if np.linalg.norm(C @ V + V) > 1e-8 or abs(V.conj() @ V - N) > 1e-8:
        raise DomainError("V must satisfy C V + V = 0 and |V|^2 = N")
    return 1j * params.mu * (np.outer(V, V.conj()) - np.eye(N)) \
        + 1j * (params.mu - params.nu) * C


def upsilon_right(n: int, params: CouplingParams) -> np.ndarray:
    """Right orbit element -i*kappa*C."""
    return -1j * params.kappa * exchange_matrix(n)


def momentum_residual(y, Y, V, params: CouplingParams) -> tuple[float, float]:
    """Norms of the two constraint defects for the triple (y, Y, V).

    Returns (|| (y Y y^{-1})_+ + upsilon_left(V) ||, || -Y_+ + upsilon_right ||);
    both vanish exactly on the constraint surface.
    """
    y = np.asarray(y, dtype=complex)
    Y = np.asarray(Y, dtype=complex)
    n = y.shape[0] // 2
    conj = y @ Y @ y.conj().T
    plus = (conj + conj_by_C(conj)) / 2.0
    r1 = float(np.linalg.norm(plus + upsilon_left(V, params)))
    Yplus = (Y + conj_by_C(Y)) / 2.0
    r2 = float(np.linalg.norm(-Yplus + upsilon_right(n, params)))
    return r1, r2


def sutherland_section(point: SutherlandPoint, params: CouplingParams):
    """The constraint-surface triple (e^{iQ(q)}, Y(q, p), V_R) at a point."""
    from .matkernel import exp_iQ

    lax = lax_Y(point, params)
    return exp_iQ(point.q), lax.Y.m, real_constraint_vector(point.n)
