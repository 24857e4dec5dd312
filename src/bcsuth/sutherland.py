"""Sutherland side: Lax matrix, commuting Hamiltonians, action map, momentum residuals.

The Lax matrix is Y(q, p) = K(q, p) - i*kappa*C with K in the C-odd part of
u(N).  The Hermitian matrix -i*Y has spectrum {+-lambda_j}, lambda the action
vector, while -i*K has spectrum {+-sqrt(lambda_j^2 - kappa^2)}, as the row
``sutherland.spectrum_pairing`` measures.  The even traces of -i*Y
generate the commuting family

    H_k(q, p) = tr((-i Y)^(2k)) / (4k),   k = 1..n,

whose k = 1 member is the physical Hamiltonian

    H_1 = p^2/2 + sum_{j<k} [gamma/sin^2(q_j - q_k) + gamma/sin^2(q_j + q_k)]
        + sum_j gamma1/sin^2(q_j) + sum_j gamma2/sin^2(2 q_j).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from .errors import ConsistencyError, DomainError
from .matkernel import StructuredMatrix, _exchange, conj_by_C, exchange_matrix, exp_iQ
from .params import CouplingParams, SutherlandPoint, _inside_slack_rows, _slack_rows


def real_constraint_vector(n: int) -> np.ndarray:
    """The distinguished vector (1, ..., 1, -1, ..., -1) with C V = -V, |V|^2 = N."""
    return np.repeat(np.array([1.0, -1.0], dtype=complex), n)


@dataclass(frozen=True)
class SutherlandLax:
    """Lax data at a point: Y (anti-Hermitian) and its C-odd part K."""

    Y: StructuredMatrix
    K: StructuredMatrix


@lru_cache
def _lax_layout(n: int):
    """The pairs (j, k), j < k, and for each entry of K = [[A, B], [-B, -A]]
    flattened its index in (v, -v, i p, -i p), v = (B_jj, -A_jk, B_jk); read-only."""
    j, k = pairs = np.array(np.triu_indices(n, 1))
    d, a, h = np.arange(n), n + np.arange(j.size), n + 2 * j.size
    T = np.empty((2 * n, 2 * n), dtype=np.intp)
    T[d, d], T[n + d, n + d], T[d, n + d], T[n + d, d] = 2 * h + d, 2 * h + n + d, d, h + d
    T[j, k], T[k, j], T[n + j, n + k], T[n + k, n + j] = h + a, a, a, h + a
    T[j, n + k] = T[k, n + j] = a + j.size
    T[n + j, k] = T[n + k, j] = h + a + j.size
    pairs.flags.writeable = T.flags.writeable = False
    return pairs, T.ravel()


def _lax_K_kernel(q, p, params: CouplingParams, check: bool = True) -> np.ndarray:
    """:func:`lax_K` over a stack (..., n) of raw q and p: (..., 2n, 2n), each
    matrix the bits of its point's; ``params`` may hold one triple per row
    (:class:`~bcsuth.params.CouplingRows`).  With ``check``, a row off the
    chamber raises DomainError; without, the caller has checked the rows."""
    q, p = np.asarray(q, dtype=float), np.asarray(p, dtype=float)
    if check:
        _inside_slack_rows(q, "qp", params)
    n = q.shape[-1]
    (j, k), table = _lax_layout(n)
    s = np.sin(np.concatenate((2.0 * q, q[..., j] - q[..., k], q[..., j] + q[..., k]), -1))
    v = np.concatenate((params.nu / s[..., :n] + params.kappa * np.cos(2.0 * q) / s[..., :n],
                        params.mu / s[..., n:]), -1)  # -mu / x is -(mu / x), bit for bit
    K = np.concatenate((v, -v, 1j * p, -(1j * p)), -1).take(table, axis=-1)
    return K.reshape(q.shape[:-1] + (2 * n, 2 * n))


def lax_K(point: SutherlandPoint, params: CouplingParams) -> np.ndarray:
    """The C-odd block matrix [[A, B], [-B, -A]] of the Lax construction.

    A_jj = i p_j, A_jk = -mu / sin(q_j - q_k); B_jj = nu/sin(2 q_j) + kappa*cot(2 q_j),
    B_jk = mu / sin(q_j + q_k).  Built so the structure relations hold exactly in
    floating point: each entry is computed once and placed, negated where the
    structure says so, in all its positions (:func:`_lax_K_kernel`)."""
    return _lax_K_kernel(point.q, point.p, params)


def _lax_Y_of_K(K, params: CouplingParams) -> np.ndarray:
    """Y = K - i*kappa*C over a stack (..., 2n, 2n) of :func:`lax_K`, one kappa per row."""
    kappa = np.asarray(params.kappa)[..., None]
    return K - 1j * kappa * _exchange(K.shape[-1] // 2)


def lax_Y(point: SutherlandPoint, params: CouplingParams) -> SutherlandLax:
    """Full Lax matrix Y = K - i*kappa*C at a strictly interior point."""
    K = lax_K(point, params)
    return SutherlandLax(Y=StructuredMatrix(_lax_Y_of_K(K, params)), K=StructuredMatrix(K))


def _H1_kernel(q, p, params: CouplingParams):
    """:func:`closed_form_H1` at raw coordinates (..., n), over any leading
    stack axes: an array (...), a float for a single point, each row's value
    the one that point alone gives, bit for bit (every sum runs left to right).
    """
    q, p = np.asarray(q, dtype=float), np.asarray(p, dtype=float)
    g, g1, g2 = params.gamma, params.gamma1, params.gamma2
    j, k = _lax_layout(q.shape[-1])[0]
    a, b = q[..., j], q[..., k]

    def total(terms, start=0.0):
        return reduce(np.add, np.moveaxis(terms, -1, 0), start)
    H = total(g / np.sin(a - b) ** 2 + g / np.sin(a + b) ** 2, 0.5 * total(p * p))
    H = H + total(g1 / np.sin(q) ** 2) + total(g2 / np.sin(2.0 * q) ** 2)
    return float(H) if H.ndim == 0 else H


def closed_form_H1(point: SutherlandPoint, params: CouplingParams) -> float:
    """The physical Hamiltonian from its trigonometric closed form (one kernel over stacks)."""
    return _H1_kernel(point.q, point.p, params)


def spectrum(point: SutherlandPoint, params: CouplingParams) -> np.ndarray:
    """Eigenvalues of the Hermitian Lax matrix -i*Y, ascending."""
    return np.linalg.eigvalsh(-1j * lax_Y(point, params).Y.m)


def _Hk_kernel(K, params: CouplingParams, kmax: int | None = None) -> np.ndarray:
    """:func:`hamiltonians` over a stack (..., 2n, 2n) of :func:`lax_K`: one ``eigvalsh``."""
    eigs = np.linalg.eigvalsh(-1j * _lax_Y_of_K(K, params))
    return _Hk_of_spectrum(eigs, params, kmax)


def _Hk_of_spectrum(eigs, params: CouplingParams, kmax: int | None = None) -> np.ndarray:
    """H_1..H_kmax from a stack (..., 2n) of spectra of -i*Y."""
    kmax = params.n if kmax is None else int(kmax)
    if not 1 <= kmax <= params.n:
        raise ValueError(f"kmax must lie in 1..n = {params.n}")
    return np.stack([np.sum(eigs ** (2 * k), -1) / (4.0 * k) for k in range(1, kmax + 1)], -1)


def hamiltonians(point: SutherlandPoint, params: CouplingParams,
                 kmax: int | None = None) -> np.ndarray:
    """Commuting invariants H_1..H_kmax from the paired Lax spectrum.

    The agreement of H_1 with :func:`closed_form_H1` is measured by the
    verify row ``sutherland.H1_closed_form``.
    """
    return _Hk_kernel(lax_K(point, params), params, kmax)


def hamiltonians_matrix_route(point: SutherlandPoint, params: CouplingParams) -> np.ndarray:
    """H_1..H_n through explicit matrix powers (stability cross-check)."""
    M = -1j * lax_Y(point, params).Y.m
    P, out = np.eye(M.shape[0], dtype=complex), []
    for k in range(1, params.n + 1):
        P = P @ M @ M
        out.append(float(np.trace(P).real) / (4.0 * k))
    return np.array(out)


def odd_trace_residual(eigs) -> float:
    """Largest normalized odd trace of -iY, k = 0..n-1, from its spectrum ``eigs``
    (:func:`spectrum`); zero for the paired spectrum.

    Each |tr((-iY)^(2k+1))| is divided by max(1, sum |eig|^(2k+1)) so the
    cancellation is measured relative to the scale of the power sums.
    """
    power = eigs ** (np.arange(1, eigs.size, 2)[:, None])
    return float(np.max(np.abs(power.sum(-1)) / np.maximum(1.0, np.abs(power).sum(-1))))


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


def _action_kernel(K, params: CouplingParams) -> np.ndarray:
    """:func:`action_map` over a stack (..., 2n, 2n) of :func:`lax_K`: one ``eigvalsh``."""
    d = np.linalg.eigvalsh(-1j * K)[..., ::-1][..., :params.n]
    lam = np.sqrt(d**2 + params.kappa_sq)
    slack = _slack_rows(lam, "lambda_theta", params)
    inside = np.all((slack >= -1e-8) & (slack < math.inf), axis=-1)
    if not inside.all():
        raise ConsistencyError(f"action vector {lam[~inside][0].tolist()} "
                               "exited the closed chamber by more than 1e-8")
    return lam


def action_map(point: SutherlandPoint, params: CouplingParams) -> np.ndarray:
    """Action vector lambda_j = sqrt(d_j^2 + kappa^2), d descending.

    d is the top half of the spectrum of -i times the C-odd part of Y, which
    pairs as (+d, -d); only eigenvalues are needed, no frame.  The result
    must land in the closure of the dual chamber; a violation beyond 1e-8
    raises ConsistencyError.
    """
    return _action_kernel(lax_K(point, params), params)


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
    lax = lax_Y(point, params)
    return exp_iQ(point.q), lax.Y.m, real_constraint_vector(point.n)
