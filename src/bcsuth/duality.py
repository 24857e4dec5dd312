"""Action-angle duality maps between the Sutherland and dual charts.

``forward_map`` sends (q, p) to (lambda, theta) by pair-diagonalizing the
C-odd part K of the Lax matrix and reading the angles off the gauge-fixed
constraint vector; ``backward_map`` fixes the gauge of the dual point in the
oscillator chart z(lambda, theta), where the dual Lax matrix is
h A_tilde(z) h and the constraint vector is phi(z), by one Cartan
factorization and one central phase.  They are mutually inverse on interior
points.  Each ``*_full`` map also returns the array its residuals
are read from (F forward, the reconstructed Lax matrix Y backward), which
:func:`forward_residuals` and :func:`backward_residuals` measure.

Both maps are one-point wrappers of twin stack kernels over raw (..., n)
arrays, :func:`_forward_kernel` of q and p and :func:`_backward_kernel` of
lambda and theta, which take one coupling triple per row
(:class:`~bcsuth.params.CouplingRows`) and give each row the bits of its
point.  The forward kernel also returns its Lax part K, off which
:func:`invariant_crosscheck` reads Y; the backward kernel checks the
recovered q once and builds the Lax matrix of its gate straight from
:func:`~bcsuth.sutherland._lax_K_kernel`, and returns the defect that gate
measured, which :func:`backward_residuals` reuses.

Measured symplectic normalization
---------------------------------
With the angle convention used here (theta_c = arg F_{n+c} - arg F_c, the
convention under which the closed-form dual Hamiltonian identities hold), the
two-form sum(dlambda ^ dtheta) pulls back along the forward map to
``DUAL_PAIRING`` times sum(dq ^ dp), with the constant

    DUAL_PAIRING = -2.0.

Two probes in the code measure it: the FD pullback of the forward map behind
:func:`canonicity_residual`, and the H_1 angle slopes -DUAL_PAIRING * dH/dlambda
of :func:`bcsuth.dynamics.angle_linearity_check`.  The oscillator-origin probe
is ROADMAP.md item 14, the loop-integral normalization item 10.  Uncalibrated
canonicity checks (scale = 1) fail by this factor; pass ``scale=DUAL_PAIRING``.
"""

from __future__ import annotations

import numpy as np

from .errors import ConsistencyError, DegenerateTorusError, DomainError
from .matkernel import _dag, _frobenius, exchange_matrix, exp_iQ, exp_iQ_diagonal, \
    cartan_decompose_gminus, pair_diagonalize_gminus
from .params import (DOMAIN_MARGIN, CouplingParams, DualPoint, OscillatorPoint,
                     SutherlandPoint, _outside_rows, _slack_rows, canonical_angle,
                     chart_membership, require_inside, row_params, z_from_angle_rows)
from .rsvd import F_squared_branches, _A_tilde_phi, dual_H0, h_matrix
from .sutherland import _lax_K_kernel, _lax_Y_of_K, momentum_residual, \
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
    :func:`forward_residuals` measures F.  One point of :func:`_forward_kernel`.
    """
    lam, theta, F, _ = _forward_kernel(point.q, point.p, params)
    return DualPoint(lam=lam, theta=theta), F


def _forward_kernel(q, p, params: CouplingParams):
    """:func:`forward_map_full` over a stack (..., n) of raw q and p: (lambda, theta, F, K),
    each row the bits of its point, K its Lax part :func:`~bcsuth.sutherland.lax_K`;
    ``params`` may hold one coupling triple per row (:class:`~bcsuth.params.CouplingRows`).
    The first row with lambda off the chamber raises its error."""
    n = np.shape(q)[-1]
    K = _lax_K_kernel(q, p, params)
    spec = pair_diagonalize_gminus(K)
    lam = np.sqrt(spec.values**2 + params.kappa_sq)
    slack = _slack_rows(lam, "lambda_theta", params)
    if not (slack.min() > DOMAIN_MARGIN and slack.max() < np.inf):
        bad = _outside_rows(slack)
        row = lam[bad][0].tolist()
        raise DegenerateTorusError(
            f"degenerate torus: action vector {row} is "
            f"{chart_membership(row, 'lambda_theta', row_params(params, bad))} relative "
            "to the open chamber; angles are undefined there")
    w = exp_iQ_diagonal(q).conj() * real_constraint_vector(n)
    F = (h_matrix(lam, params).h.m.swapaxes(-1, -2) @ (_dag(spec.frame.m) @ w[..., None]))[..., 0]
    theta = canonical_angle(np.angle(F[..., n:]) - np.angle(F[..., :n]))
    return lam, theta, F, K


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

    One gauge fixing in the oscillator gauge, z = z(lambda, theta): the
    Cartan factorization B = -(h A_tilde(z) h)^dag = eta e^{2iQ(q)} eta^{-1}
    gives q, W = eta^dag h carries phi(z) to e^{iQ(q)} W phi(z) = (u, -u), the
    central phase zeta = conj(u)/|u| makes u positive, and p is read off the
    diagonal of Y = i (zeta W) diag(lambda, -lambda) (zeta W)^dag.
    Raises DomainError when q leaves the chamber, ConsistencyError when the
    gauge-fixed constraint vector leaves the section by more than 1e-6 and,
    with ``validate``, when || Y - Y(q, p) || exceeds 1e-6.  One point of
    :func:`_backward_kernel`.
    """
    q, p, Y, _ = _backward_kernel(dual.lam, dual.theta, params, validate)
    return SutherlandPoint(q=q, p=p), Y


def _backward_kernel(lam, theta, params: CouplingParams, validate: bool = True):
    """:func:`backward_map_full` over a stack (..., n) of raw lambda and theta:
    (q, p, Y, lax), each row the bits of its point, lax the Lax defect
    || Y - Y(q, p) || of each row that the ``validate`` gate measured (None
    without it); ``params`` may hold one coupling triple per row
    (:class:`~bcsuth.params.CouplingRows`), and theta must be reduced as
    :class:`~bcsuth.params.DualPoint` reduces it.  Each gate raises the error
    of its first failing row: q is checked once, against the open chamber
    within 1e-12 and, with ``validate``, within DOMAIN_MARGIN before the Lax
    matrix is built from it.
    """
    lam = np.asarray(lam, dtype=float)
    n = lam.shape[-1]
    z = z_from_angle_rows(lam, theta, params)
    h = h_matrix(lam, params).h.m
    A, phi = _A_tilde_phi(z, lam, params)
    eta, q = cartan_decompose_gminus(-_dag(h @ A @ h))
    slack = _slack_rows(q, "qp", params)
    inside = slack.min() > DOMAIN_MARGIN and slack.max() < np.inf  # every row, both margins
    if not inside and (bad := _outside_rows(slack, 1e-12)).any():
        row = q[bad][0].tolist()
        raise DomainError(f"recovered q = {row} is {chart_membership(row, 'qp', params, 1e-12)} "
                          "relative to the open Sutherland chamber")

    W = _dag(eta.m) @ h
    v = exp_iQ_diagonal(q) * (W @ phi[..., None])[..., 0]
    u = v[..., :n]
    mirror = np.square((v[..., n:] + u).view(float)).sum(-1)  # squared norms
    if (bad := (np.abs(np.abs(u) - 1.0).max(-1) > 1e-6) | (mirror > 1e-12)).any():
        u, v = u[bad][0], v[bad][0]
        raise ConsistencyError(
            f"gauge-fixed constraint vector malformed: |u|-1 defect "
            f"{float(np.max(np.abs(np.abs(u) - 1.0))):.3e}, mirror defect "
            f"{float(np.linalg.norm(v[n:] + u)):.3e}")

    zeta = u.conj() / np.abs(u)
    ZW = np.concatenate((zeta, zeta), -1)[..., None] * W
    Y = 1j * ((ZW * np.concatenate((lam, -lam), -1)[..., None, :]) @ _dag(ZW))
    p = np.imag(Y.diagonal(0, -2, -1)[..., :n])
    lax = None
    if validate:
        if not inside and (bad := _outside_rows(slack)).any():
            require_inside(q[bad][0].tolist(), "qp", row_params(params, bad))
        lax = _lax_defect(q, p, Y, params, checked=True)
        if (bad := lax > 1e-6).any():
            raise ConsistencyError(
                f"reconstructed Lax matrix deviates by {lax[bad][0]:.3e} from the "
                "canonical form at the recovered point")
    return q, p, Y, lax


def _lax_defect(q, p, Y, params: CouplingParams, checked: bool = False):
    """|| Y - Y(q, p) || over a stack: distance of each Y from the Lax matrix at its
    point, whose q the caller may have ``checked`` against the chamber."""
    return _frobenius(Y - _lax_Y_of_K(_lax_K_kernel(q, p, params, not checked), params))


def backward_residuals(point: SutherlandPoint, Y, params: CouplingParams, lax=None):
    """Defects of a backward image: || Y - Y(q, p) || and the two constraint
    defects of (e^{iQ(q)}, Y, V_R) (verify row ``duality.momentum_residual``).
    ``lax`` is the first defect as the backward map's gate measured it; it is
    measured here only when not given."""
    if lax is None:
        lax = _lax_defect(point.q, point.p, Y, params)
    return (float(lax),
            momentum_residual(exp_iQ(point.q), Y, real_constraint_vector(point.n),
                              params))


def backward_map(dual: DualPoint, params: CouplingParams) -> SutherlandPoint:
    """Inverse of :func:`forward_map` on interior dual points."""
    point, _ = backward_map_full(dual, params)
    return point


def _canonicity(point: SutherlandPoint, theta0, params: CouplingParams, scales,
                richardson: bool = False) -> list:
    """|| J^T Omega J - s * Omega || for each s in ``scales``, J the FD Jacobian, step 1e-5,
    of the forward map (q, p) -> (lambda, theta), its stencil one :func:`_forward_kernel`
    call; Omega = [[0, I], [-I, 0]].  theta is measured from theta0, its value at the point,
    and wrapped to (-pi, pi], so the central differences need no wrapping."""
    from .dynamics import fd_gradient
    n = point.n

    def lifted(x):
        lam, theta, _, _ = _forward_kernel(x[..., :n], x[..., n:], params)
        return np.concatenate((lam, (theta - theta0 + np.pi) % (2.0 * np.pi) - np.pi), -1)

    J = fd_gradient(lifted, np.r_[point.q, point.p], 1e-5, richardson)
    Omega = np.block([[np.zeros((n, n)), np.eye(n)], [-np.eye(n), np.zeros((n, n))]])
    return [float(np.linalg.norm(J.T @ Omega @ J - s * Omega)) for s in scales]


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
    return _canonicity(point, forward_map(point, params).theta, params, (scale,), richardson)[0]


def round_trip_report(point: SutherlandPoint, params: CouplingParams) -> dict:
    """Forward-then-backward report with all standing residuals attached.

    Both canonicity residuals, uncalibrated and calibrated, are read off one
    finite-difference Jacobian of the forward map, measured from the image's angles.
    """
    dual, F = forward_map_full(point, params)
    moduli, h0 = forward_residuals(point, dual, F, params)
    q, p, Y, lax = _backward_kernel(dual.lam, dual.theta, params)
    back = SutherlandPoint(q=q, p=p)
    lax_err, mom = backward_residuals(back, Y, params, lax)
    err = float(max(np.max(np.abs(back.q - point.q)),
                    np.max(np.abs(back.p - point.p))))
    can, can_cal = _canonicity(point, dual.theta, params, (1.0, DUAL_PAIRING))
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


def invariant_crosscheck(point: SutherlandPoint, dual: DualPoint,
                         params: CouplingParams, mmax: int = 4, kmax: int = 2,
                         K=None) -> dict:
    """Gauge-invariant trace functions versus their closed forms at the image ``dual``.

    phi_m = Re tr(Y^m)/m vanishes for odd m and equals
    (-1)^(m/2) (2/m) sum lambda^m for even m; chi_k = Re tr(Y^k y^{-1} V V^dag y C)
    has closed forms in (lambda, theta) and the plus-branch moduli.
    Y = K - i kappa C is read off K, the Lax part the forward map built at the
    point (:func:`_forward_kernel`), which is built here only when not given.
    Returns the evaluated pairs and the maximum absolute errors.
    """
    n = point.n
    lam, theta = dual.lam, dual.theta
    Fsq, _ = F_squared_branches(lam, params)
    X = np.sqrt(Fsq[:n] * Fsq[n:])
    kappa = params.kappa

    if K is None:
        K = _lax_K_kernel(point.q, point.p, params)
    y, Y, V = exp_iQ(point.q), _lax_Y_of_K(K, params), real_constraint_vector(n)
    C = exchange_matrix(n)
    core = y.conj().T @ np.outer(V, V.conj()) @ y @ C

    powers = [np.eye(2 * n, dtype=complex)]  # Y^0 .. Y^max(mmax, kmax)
    for _ in range(max(mmax, kmax)):
        powers.append(powers[-1] @ Y)

    phi = {}
    phi_closed = {}
    for m in range(1, mmax + 1):
        phi[m] = float(np.trace(powers[m]).real) / m
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
    root = np.sqrt(1.0 - kappa**2 / lam**2)
    for k in range(0, kmax + 1):
        chi[k] = float(np.trace(powers[k] @ core).real)
        if k % 2:
            chi_closed[k] = float(2.0 * (-1) ** ((k - 1) // 2)
                                  * np.sum(lam**k * root * X * np.sin(theta)))
        else:
            chi_closed[k] = float((-1) ** (k // 2) * (
                2.0 * np.sum(lam**k * root * X * np.cos(theta))
                - kappa * np.sum(lam ** (k - 1) * (Fsq[:n] - Fsq[n:]))))
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


def dual_hamiltonian_restricted(q, k: int):
    """h~_k(q) = ((-1)^k / k) sum_j cos(2 k q_j), the dual Hamiltonians in dual
    actions, over a stack q of shape (..., n); a float for a single q."""
    q = np.asarray(q, dtype=float)
    h = (-1) ** k / k * np.sum(np.cos(2 * k * q), axis=-1)
    return float(h) if h.ndim == 0 else h


def superintegrability_data(point: SutherlandPoint, params: CouplingParams) -> tuple:
    """The commutant generators of the dual Hamiltonians on the (q, p) chart.

    X_{i,j} = d h~_i / d q_j = (-1)^(i+1) 2 sin(2 i q_j) (analytic), the
    companion functions f = X(q)^{-T} p, i.e. f_i = sum_j p_j (X^{-1})_{j,i},
    at the point, and the finite-difference Poisson bracket table
    {f_i, h~_k} of the maps f and h~ = (h~_1, ..., h~_n) (Richardson, step
    1e-4), which equals -delta_{ik}.  det X != 0 throughout the open chamber;
    a singular X is a consistency violation.
    """
    from .dynamics import poisson_bracket_fd

    q, p = point.q, point.p
    n = point.n
    rows = np.arange(1, n + 1)[:, None]  # i = 1..n

    def X_of(q):  # (..., n) -> (..., n, n)
        return (-1.0) ** (rows + 1) * 2.0 * np.sin(2.0 * rows * q[..., None, :])

    X = X_of(q)
    det = float(np.linalg.det(X))
    if abs(det) < 1e-12:
        raise ConsistencyError(
            f"dual-action Jacobian X(q) is singular (det = {det!r}) inside the chamber")

    def f(x):
        inv = np.linalg.inv(X_of(x[..., :n]))
        return (inv.swapaxes(-1, -2) @ x[..., n:, None])[..., 0]

    def h(x):
        return np.stack([dual_hamiltonian_restricted(x[..., :n], k)
                         for k in range(1, n + 1)], axis=-1)

    x0 = np.r_[q, p]
    table = poisson_bracket_fd(f, h, x0, step=1e-4, richardson=True)
    return X, f(x0), table
