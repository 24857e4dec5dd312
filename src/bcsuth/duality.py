"""Action-angle duality maps between the Sutherland and dual charts.

``forward_map`` sends (q, p) to (lambda, theta) by pair-diagonalizing the
C-odd part of the Lax matrix and reading the angles off the gauge-fixed
constraint vector; ``backward_map`` reconstructs (q, p) from a dual point via
the Cartan factorization of the dual Lax data.  They are mutually inverse on
interior points.  Each ``*_full`` map also returns the array its residuals
are read from (F forward, the reconstructed Lax matrix Y backward), which
:func:`forward_residuals` and :func:`backward_residuals` measure.

Measured symplectic normalization
---------------------------------
With the angle convention used here (theta_c = arg F_{n+c} - arg F_c, the
convention under which the closed-form dual Hamiltonian identities hold), the
two-form sum(dlambda ^ dtheta) pulls back along the forward map to
``DUAL_PAIRING`` times sum(dq ^ dp), with the constant

    DUAL_PAIRING = -2.0.

This constant is locked by three independent numerical probes (angle winding
along the flow, small-oscillation frequency at the oscillator origin, and the
finite-difference Jacobian test) and is exact to roundoff.  Canonicity checks
against the uncalibrated convention (scale = 1) therefore fail by exactly this
factor; pass ``scale=DUAL_PAIRING`` for the calibrated test.
"""

from __future__ import annotations

import numpy as np

from .errors import ConsistencyError, DegenerateTorusError, DomainError
from .matkernel import exchange_matrix, exp_iQ, exp_iQ_diagonal, \
    cartan_decompose_gminus, pair_diagonalize_gminus
from .params import (CouplingParams, DualPoint, OscillatorPoint,
                     SutherlandPoint, canonical_angle, chart_membership)
from .rsvd import (A_check, F_squared_branches, dual_H0, f_vector, h_matrix)
from .sutherland import lax_Y, momentum_residual, \
    real_constraint_vector

#: pullback constant: forward_map^* [sum dlambda ^ dtheta] = DUAL_PAIRING * sum dq ^ dp
DUAL_PAIRING = -2.0


def forward_map_full(point: SutherlandPoint, params: CouplingParams):
    """Map (q, p) to the dual chart, returning (dual point, F).

    Steps: Lax matrix -> C-odd part -> paired spectrum d with Gplus frame g ->
    lambda_j = sqrt(d_j^2 + kappa^2) -> gauge-fixed constraint vector
    F = h(lambda)^T g^{-1} e^{-iQ(q)} V_R -> theta_c = arg F_{n+c} - arg F_c.
    The residual central freedom multiplies both args by a common phase, so
    theta is well defined.  Raises DegenerateTorusError when lambda lands on
    the chamber wall (the angle chart is undefined there; use the z chart).
    :func:`forward_residuals` measures F.
    """
    n = point.n
    spec = pair_diagonalize_gminus(lax_Y(point, params).K.m)
    lam = np.sqrt(spec.values**2 + params.kappa**2)
    probe = chart_membership(lam.tolist(), "lambda_theta", params, 1e-9)
    if probe != "inside":
        raise DegenerateTorusError(
            f"degenerate torus: action vector {lam.tolist()} is {probe} "
            "relative to the open chamber; angles are undefined there"
        )
    g = spec.frame.m
    h = h_matrix(lam, params).h.m
    F = h.T @ (g.conj().T @ (exp_iQ_diagonal(point.q).conj() * real_constraint_vector(n)))
    theta = canonical_angle(np.angle(F[n:]) - np.angle(F[:n]))
    return DualPoint(lam=lam, theta=theta), F


def forward_residuals(point: SutherlandPoint, dual: DualPoint, F,
                      params: CouplingParams) -> tuple[float, float]:
    """Defects of a forward image: max | |F|^2 - plus branch | and
    | dual_H0 + sum cos(2q) |, the verify rows ``duality.moduli_vs_plus_branch``
    and ``duality.dual_H0_consistency``."""
    Fsq_plus, _ = F_squared_branches(dual.lam, params)
    return (float(np.max(np.abs(np.abs(F) ** 2 - Fsq_plus))),
            abs(dual_H0(dual, params) + float(np.sum(np.cos(2.0 * point.q)))))


def forward_map(point: SutherlandPoint, params: CouplingParams) -> DualPoint:
    """Action-angle image of an interior Sutherland point."""
    dual, _ = forward_map_full(point, params)
    return dual


def backward_map_full(dual: DualPoint, params: CouplingParams,
                      validate: bool = True):
    """Map (lambda, theta) back to the Sutherland chart, returning (point, Y).

    Steps: f and the core matrix -> B = -(h A h)^dag -> Cartan factorization
    B = eta e^{2iQ(q)} eta^{-1} -> y = eta e^{iQ(q)} eta^{-1}, V = y h f ->
    gauge to the Sutherland section with (eta^{-1}, eta^{-1}) and a central
    phase fixing V -> read p off the diagonal of the transformed Lax matrix Y.
    Raises ConsistencyError when the gauge-fixed V leaves the section by more
    than 1e-6 and, with ``validate``, when || Y - Y(q, p) || exceeds 1e-6.
    """
    n = dual.n
    f = f_vector(dual, params)
    h = h_matrix(dual.lam, params).h.m
    A = A_check(dual, params, validate=False).m
    hAh = h @ A @ h
    B = -hAh.conj().T
    eta_s, q = cartan_decompose_gminus(B)
    eta = eta_s.m
    qpoint_probe = chart_membership(q.tolist(), "qp", params, 1e-12)
    if qpoint_probe != "inside":
        raise DomainError(
            f"recovered q = {q.tolist()} is {qpoint_probe} relative to the "
            "open Sutherland chamber")

    y = (eta * exp_iQ_diagonal(q)) @ eta.conj().T
    V = y @ (h @ f)
    Vpp = eta.conj().T @ V
    u = Vpp[:n]
    unit_defect = float(np.max(np.abs(np.abs(u) - 1.0)))
    mirror_defect = float(np.linalg.norm(Vpp[n:] + u))
    if unit_defect > 1e-6 or mirror_defect > 1e-6:
        raise ConsistencyError(
            f"gauge-fixed constraint vector malformed: |u|-1 defect "
            f"{unit_defect:.3e}, mirror defect {mirror_defect:.3e}")

    Y = 1j * ((h * np.concatenate((dual.lam, -dual.lam))) @ h.conj().T)
    Ypp = eta.conj().T @ Y @ eta
    zeta = u.conj() / np.abs(u)
    zeta = np.concatenate((zeta, zeta))
    Yfinal = (zeta[:, None] * Ypp) * zeta.conj()[None, :]
    p = np.imag(np.diag(Yfinal)[:n])
    point = SutherlandPoint(q=q, p=p)
    if validate:
        lax_err = _lax_defect(point, Yfinal, params)
        if lax_err > 1e-6:
            raise ConsistencyError(
                f"reconstructed Lax matrix deviates by {lax_err:.3e} from the "
                "canonical form at the recovered point")
    return point, Yfinal


def _lax_defect(point: SutherlandPoint, Y, params: CouplingParams) -> float:
    """|| Y - Y(q, p) ||: distance of Y from the Lax matrix at the point."""
    return float(np.linalg.norm(Y - lax_Y(point, params).Y.m))


def backward_residuals(point: SutherlandPoint, Y, params: CouplingParams):
    """Defects of a backward image: || Y - Y(q, p) || and the two constraint
    defects of (e^{iQ(q)}, Y, V_R) (verify row ``duality.momentum_residual``)."""
    return (_lax_defect(point, Y, params),
            momentum_residual(exp_iQ(point.q), Y, real_constraint_vector(point.n),
                              params))


def backward_map(dual: DualPoint, params: CouplingParams) -> SutherlandPoint:
    """Inverse of :func:`forward_map` on interior dual points."""
    point, _ = backward_map_full(dual, params)
    return point


def _wrap_to_reference(delta):
    """Wrap angle differences into (-pi, pi]."""
    return (delta + np.pi) % (2.0 * np.pi) - np.pi


def _fd_pullback(fun, x0, fd_step: float, angle_rows=(),
                 richardson: bool = False):
    """(J^T Omega J, Omega) for the FD Jacobian J of x -> fun(x) in R^{2m}.

    Output components in ``angle_rows`` live on the circle; they are measured
    from their value at x0 and wrapped to the principal branch, so the central
    differences need no wrapping.  Omega is the block symplectic matrix
    [[0, I], [-I, 0]].
    """
    from .dynamics import fd_gradient

    x0 = np.asarray(x0, dtype=float)
    if x0.size % 2:
        raise ValueError("phase-space dimension must be even")
    m = x0.size // 2
    rows = list(angle_rows)
    ref = np.asarray(fun(x0), dtype=float)[rows] if rows else 0.0

    def lifted(x):
        y = np.array(fun(x), dtype=float)
        y[rows] = _wrap_to_reference(y[rows] - ref)
        return y

    J = fd_gradient(lifted, x0, fd_step, richardson)
    Omega = np.block([[np.zeros((m, m)), np.eye(m)], [-np.eye(m), np.zeros((m, m))]])
    return J.T @ Omega @ J, Omega


def _forward_pullback(point: SutherlandPoint, params: CouplingParams,
                      richardson: bool = False):
    """:func:`_fd_pullback` of the forward map (q, p) -> (lambda, theta), step 1e-5."""
    n = point.n

    def fun(x):
        dual, _ = forward_map_full(SutherlandPoint(q=x[:n], p=x[n:]), params)
        return np.r_[dual.lam, dual.theta]

    return _fd_pullback(fun, np.r_[point.q, point.p], 1e-5,
                        angle_rows=range(n, 2 * n), richardson=richardson)


def canonicity_residual(point: SutherlandPoint, params: CouplingParams,
                        scale: float = 1.0, richardson: bool = False) -> float:
    """Finite-difference symplectic-pullback residual of the forward map.

    Builds the Jacobian of (q, p) -> (lambda, theta) by central differences
    and returns || J^T Omega J - scale * Omega ||.  With the default
    ``scale = 1`` this tests the uncalibrated Darboux convention, which fails
    by the constant ``DUAL_PAIRING``; the calibrated test passes
    ``scale=DUAL_PAIRING`` and is FD-exact (see module docstring).
    ``richardson`` combines the steps h and h/2, which suppresses the h^2
    truncation error near steep chamber walls.
    """
    pullback, Omega = _forward_pullback(point, params, richardson)
    return float(np.linalg.norm(pullback - scale * Omega))


def round_trip_report(point: SutherlandPoint, params: CouplingParams) -> dict:
    """Forward-then-backward report with all standing residuals attached.

    Both canonicity residuals, uncalibrated and calibrated, are read off one
    finite-difference Jacobian of the forward map.
    """
    dual, F = forward_map_full(point, params)
    moduli, h0 = forward_residuals(point, dual, F, params)
    back, Y = backward_map_full(dual, params)
    lax_err, mom = backward_residuals(back, Y, params)
    err = float(max(np.max(np.abs(back.q - point.q)),
                    np.max(np.abs(back.p - point.p))))
    pullback, Omega = _forward_pullback(point, params)
    can, can_cal = (float(np.linalg.norm(pullback - s * Omega))
                    for s in (1.0, DUAL_PAIRING))
    return {
        "input": point.to_dict(),
        "output": dual.to_dict(),
        "round_trip_error": err,
        "canonicity_residual": can,
        "canonicity_residual_calibrated": can_cal,
        "constraint_residuals": list(mom),
        "branch_diagnostics": {
            "moduli_vs_plus_branch": moduli,
            "dual_H0_consistency": h0,
            "lax_reconstruction": lax_err,
        },
    }


def invariant_crosscheck(point: SutherlandPoint, params: CouplingParams,
                         mmax: int = 4, kmax: int = 2) -> dict:
    """Gauge-invariant trace functions versus their closed forms at the image.

    phi_m = Re tr(Y^m)/m vanishes for odd m and equals
    (-1)^(m/2) (2/m) sum lambda^m for even m; chi_k = Re tr(Y^k y^{-1} V V^dag y C)
    has closed forms in (lambda, theta) and the plus-branch moduli.
    Returns the evaluated pairs and the maximum absolute errors.
    """
    n = point.n
    dual, _ = forward_map_full(point, params)
    lam, theta = dual.lam, dual.theta
    Fsq, _ = F_squared_branches(lam, params)
    X = np.sqrt(Fsq[:n] * Fsq[n:])
    kappa = params.kappa

    y = exp_iQ(point.q)
    Y = lax_Y(point, params).Y.m
    V = real_constraint_vector(n)
    C = exchange_matrix(n)
    core = y.conj().T @ np.outer(V, V.conj()) @ y @ C

    phi = {}
    phi_closed = {}
    P = np.eye(2 * n, dtype=complex)
    for m in range(1, mmax + 1):
        P = P @ Y
        phi[m] = float(np.trace(P).real) / m
        if m % 2:
            phi_closed[m] = 0.0
        else:
            phi_closed[m] = float((-1) ** (m // 2) * (2.0 / m) * np.sum(lam**m))

    # closed forms in the angle convention fixed by forward_map: the odd-k
    # sign follows the theta orientation, and the kappa term carries the
    # coefficient forced by chi_0 = 2 * H0_dual (checked against the trace
    # definition on random samples, n <= 4, both kappa signs)
    chi = {}
    chi_closed = {}
    Pk = np.eye(2 * n, dtype=complex)
    root = np.sqrt(1.0 - kappa**2 / lam**2)
    for k in range(0, kmax + 1):
        chi[k] = float(np.trace(Pk @ core).real)
        if k % 2:
            chi_closed[k] = float(2.0 * (-1) ** ((k - 1) // 2)
                                  * np.sum(lam**k * root * X * np.sin(theta)))
        else:
            chi_closed[k] = float((-1) ** (k // 2) * (
                2.0 * np.sum(lam**k * root * X * np.cos(theta))
                - kappa * np.sum(lam ** (k - 1) * (Fsq[:n] - Fsq[n:]))))
        Pk = Pk @ Y
    phi_err = max(abs(phi[m] - phi_closed[m]) / max(1.0, abs(phi_closed[m]))
                  for m in phi)
    chi_err = max(abs(chi[k] - chi_closed[k]) / max(1.0, abs(chi_closed[k]))
                  for k in chi)
    return {
        "phi": phi, "phi_closed": phi_closed, "phi_max_error": float(phi_err),
        "chi": chi, "chi_closed": chi_closed, "chi_max_error": float(chi_err),
    }


def rank_of_dlambda(osc: OscillatorPoint, params: CouplingParams) -> int:
    """Numerical rank of the Jacobian of z -> lambda(z) over the real chart.

    lambda_k = const + sum_{j>=k} |z_j|^2, so the Jacobian is exact:
    d lambda_k / d(Re z_j, Im z_j) = 2 (Re z_j, Im z_j) for j >= k.  The rank
    equals the number of nonvanishing components of z (the dimension of the
    span of the action differentials at that point); singular values below
    1e-7 times the largest count as zero.
    """
    z = osc.z
    upper = np.triu(np.ones((z.size, z.size)))
    J = 2.0 * np.hstack((upper * z.real, upper * z.imag))
    sv = np.linalg.svd(J, compute_uv=False)
    return int(np.sum(sv > 1e-7 * sv[0]))


def degeneracy_count(osc: OscillatorPoint) -> int:
    """Number of components of z above 1e-9 in modulus (the torus dimension)."""
    return int(np.sum(np.abs(osc.z) > 1e-9))


def dual_hamiltonian_restricted(q, k: int) -> float:
    """h~_k(q) = ((-1)^k / k) sum_j cos(2 k q_j), the dual Hamiltonians in dual actions."""
    q = np.asarray(q, dtype=float)
    return float((-1) ** k / k * np.sum(np.cos(2 * k * q)))


def superintegrability_data(point: SutherlandPoint, params: CouplingParams) -> tuple:
    """The commutant generators of the dual Hamiltonians on the (q, p) chart.

    X_{i,j} = d h~_i / d q_j = (-1)^(i+1) 2 sin(2 i q_j) (analytic), the
    companion functions f_i = sum_j p_j (X^{-1})_{j,i}, and the
    finite-difference Poisson bracket table {f_i, h~_k} (Richardson, step
    1e-4), which equals
    -delta_{ik}.  det X != 0 throughout the open chamber; a singular X is a
    consistency violation.
    """
    from .dynamics import poisson_bracket_fd

    q, p = point.q, point.p
    n = point.n
    i_idx = np.arange(1, n + 1)
    X = ((-1.0) ** (i_idx[:, None] + 1)) * 2.0 * np.sin(2.0 * i_idx[:, None] * q[None, :])
    det = float(np.linalg.det(X))
    if abs(det) < 1e-12:
        raise ConsistencyError(
            f"dual-action Jacobian X(q) is singular (det = {det!r}) inside the chamber")
    Xinv = np.linalg.inv(X)
    fvals = Xinv.T @ p

    def make_f(i):
        def fi(x):
            qq, pp = x[:n], x[n:]
            Xq = ((-1.0) ** (i_idx[:, None] + 1)) * 2.0 \
                * np.sin(2.0 * i_idx[:, None] * qq[None, :])
            return float(np.linalg.inv(Xq).T[i] @ pp)
        return fi

    def make_h(k):
        def hk(x):
            return dual_hamiltonian_restricted(x[:n], k)
        return hk

    table = poisson_bracket_fd([make_f(i) for i in range(n)],
                               [make_h(k) for k in range(1, n + 1)],
                               np.r_[q, p], step=1e-4, richardson=True)
    return X, fvals, table
