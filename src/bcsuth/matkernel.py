"""Structured N x N complex matrices (N = 2n) and their decompositions.

Everything revolves around the exchange matrix C (off-diagonal identity
blocks) and conjugation by it.  Five structure tags are supported:

* ``unitary``  X^dag X = 1
* ``Gplus``    unitary with C X C =  X      (block form [[a, b], [b, a]])
* ``Gminus``   unitary with C X C =  X^{-1}
* ``gplus``    anti-Hermitian with C X C =  X
* ``gminus``   anti-Hermitian with C X C = -X

The three workhorse factorizations:

* :func:`gamma_split`             Y = Y_plus + Y_minus (exact sum)
* :func:`pair_diagonalize_gminus` Y_minus = g * i*diag(d, -d) * g^{-1}, g in Gplus
* :func:`cartan_decompose_gminus` B = eta * exp(2i*diag(q, -q)) * eta^{-1}, eta in Gplus

The paired spectrum is one n x n SVD: in C's eigenbasis a gminus element is
the Jordan-Wielandt matrix of one block M.  The Cartan factor selects the
eigenvectors of B with 0 < q < pi/2 as its primary columns, orthonormal
after one Cholesky-QR, and pairs q = 0 or pi/2 (their own mirrors) inside
their eigenspace.  Everything runs on numpy alone.
Plus a numerical oracle for Jacobi's complementary-minor identity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import PairingError, StructureError

#: mirror tolerance of the Cartan factor
PAIR_TOL = 1e-9
#: default residual bound accepted for structure membership of inputs
CHECK_TOL = 1e-8

STRUCTURE_TAGS = ("unitary", "Gplus", "Gminus", "gplus", "gminus")


def exchange_matrix(n: int) -> np.ndarray:
    """The 2n x 2n Hermitian unitary C with identity off-diagonal blocks."""
    C = np.zeros((2 * n, 2 * n), dtype=complex)
    C[:n, n:] = C[n:, :n] = np.eye(n)
    return C


def conj_by_C(X: np.ndarray) -> np.ndarray:
    """C X C over a stack (..., N, N), an exact index permutation (no float arithmetic)."""
    n = X.shape[-1] // 2
    idx = np.arange(-n, n)  # -n..-1 index the second half: the halves swapped
    return X[..., idx[:, None], idx]


def _dag(X: np.ndarray) -> np.ndarray:
    """The conjugate transpose of each matrix of a stack (..., M, N)."""
    return X.conj().swapaxes(-1, -2)


def exp_iQ(q) -> np.ndarray:
    """Diagonal unitary exp(i*diag(q, -q))."""
    return np.diag(exp_iQ_diagonal(q))


def exp_iQ_diagonal(q) -> np.ndarray:
    """The diagonal exp(i*(q, -q)) of :func:`exp_iQ`, for broadcasting."""
    q = np.asarray(q, dtype=float)
    return np.exp(1j * np.concatenate((q, -q), -1))


#: tag -> (its own relation: X^dag X = 1 if True, else X^dag = -X; the matrix
#: C X C must equal, None for unitary).  For Gminus that is X^{-1} = X^dag,
#: since unitarity is checked in the same max.
_RELATIONS = {
    "unitary": (True, None),
    "Gplus": (True, lambda X: X),
    "Gminus": (True, _dag),
    "gplus": (False, lambda X: X),
    "gminus": (False, lambda X: -X),
}


def _relation_defects(X: np.ndarray, tag: str) -> tuple:
    """The defects of the relation(s) of ``tag`` (_RELATIONS) over a stack X (..., N, N)."""
    if X.ndim < 2 or X.shape[-1] != X.shape[-2] or X.shape[-1] % 2:
        raise ValueError("X must be square of even size")
    if tag not in _RELATIONS:
        raise ValueError(f"unknown structure tag {tag!r}; expected one of {STRUCTURE_TAGS}")
    unitary, image = _RELATIONS[tag]
    own = _dag(X) @ X - np.eye(X.shape[-1]) if unitary else _dag(X) + X
    return (own,) if image is None else (own, conj_by_C(X) - image(X))


def structure_residual(X, tag: str) -> float:
    """Frobenius norm of the violation of the defining relation(s) of ``tag``.

    For compound tags the maximum over the individual relations is returned,
    so 0 still means exact membership.
    """
    X = np.asarray(X, dtype=complex)
    if X.ndim != 2:
        raise ValueError("X must be square of even size")
    return max(float(np.linalg.norm(D)) for D in _relation_defects(X, tag))


@dataclass(frozen=True)
class StructuredMatrix:
    """An N x N complex matrix."""

    m: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "m", np.asarray(self.m, dtype=complex))


@dataclass(frozen=True)
class PairedSpectrum:
    """Output of :func:`pair_diagonalize_gminus`: values d (descending) and Gplus frame."""

    values: np.ndarray
    frame: StructuredMatrix


def _require_structure(X, tag):
    """Raise StructureError for the first matrix of the stack X (..., N, N) whose residual
    exceeds CHECK_TOL, screening X at half that by the norm of all defects, which bounds each."""
    screen = np.linalg.norm(np.concatenate(_relation_defects(X, tag), -1), axis=(-2, -1))
    for M in X[screen > CHECK_TOL / 2]:
        if (r := structure_residual(M, tag)) > CHECK_TOL:
            raise StructureError(f"input fails {tag} residual check: {r:.3e} > {CHECK_TOL:.1e}")


def gamma_split(Y) -> tuple[np.ndarray, np.ndarray]:
    """Split an anti-Hermitian Y into its C-even and C-odd parts.

    Returns (Y_plus, Y_minus) with Y_plus = (Y + CYC)/2 and Y_minus = Y - Y_plus.
    The reconstruction Y_plus + Y_minus carries two roundings, of Y_minus and
    of the sum: with M = max(1, max|Y|) each real component of its defect is
    at most 1.5 eps M, so each entry's modulus at most 1.5 sqrt(2) eps M.
    """
    Y = np.asarray(Y, dtype=complex)
    if Y.ndim != 2 or Y.shape[0] != Y.shape[1] or Y.shape[0] % 2:
        raise ValueError("Y must be square of even size")
    r = float(np.linalg.norm(Y.conj().T + Y))
    if r > CHECK_TOL:
        raise StructureError(f"gamma_split needs an anti-Hermitian input, residual {r:.3e}")
    Y_plus = (Y + conj_by_C(Y)) / 2.0
    Y_minus = Y - Y_plus
    return Y_plus, Y_minus


def _paired_frame(V: np.ndarray) -> np.ndarray:
    """The Gplus frames [v, Cv] of a stack (..., 2n, n) of primary columns V,
    each column's largest-magnitude entry made real positive (this fixes the
    residual Z freedom, one phase per pair of columns)."""
    n = V.shape[-1]
    Vs = V.reshape(-1, 2 * n, n)
    peak = Vs[np.arange(len(Vs))[:, None], np.argmax(np.abs(Vs), axis=1), np.arange(n)]
    V = (Vs / (peak / np.abs(peak))[:, None, :]).reshape(V.shape)
    return np.concatenate((V, np.concatenate((V[..., n:, :], V[..., :n, :]), -2)), -1)


def pair_diagonalize_gminus(Yminus) -> PairedSpectrum:
    """Write a gminus element as g * i*diag(d, -d) * g^{-1} with g in Gplus.

    In C's eigenbasis U = [[1, 1], [1, -1]]/sqrt(2), -i*Y_minus is the
    Jordan-Wielandt matrix [[0, M^dag], [M, 0]] of M = -i(Y_11 + Y_12)
    (Golub-Van Loan, Matrix Computations, section 8.6).  With the SVD
    M = X diag(d) W^dag, U carries its +-d_j eigenvectors (w_j, +-x_j)/sqrt(2)
    to v_j = (w_j + x_j, w_j - x_j)/2 and C v_j: g = [v, Cv] is in Gplus for
    every d, zero included.  The bidiagonal SVD stops near 90 eps relative,
    which can leave close columns mixed, so one first-order step against
    -i*Y_minus follows: with E = g^dag (-i*Y_minus) v and L = (d, -d), d_j
    becomes E_jj and v_j gains g z_j, z the anti-Hermitian part of
    E_kj / (d_j - L_k) over the gaps above 1e-6 * max(1, ||Y_minus||_F).
    The input must be gminus within CHECK_TOL.  A stack (..., 2n, 2n) takes one
    batched SVD; each item gets its own bits, and the first that fails raises its error.
    """
    Y = np.asarray(Yminus, dtype=complex)
    _require_structure(Y, "gminus")
    n = Y.shape[-1] // 2
    scale = np.maximum(1.0, np.linalg.norm(Y, axis=(-2, -1)))[..., None, None]
    X, d, Wh = np.linalg.svd(-1j * (Y[..., :n, :n] + Y[..., :n, n:]))
    W = _dag(Wh)
    V = np.concatenate((W + X, W - X), -2) / 2.0
    g = np.concatenate((V, np.concatenate((V[..., n:, :], V[..., :n, :]), -2)), -1)  # [v, Cv]
    E = _dag(g) @ (Y @ V) * -1j
    d = np.abs(E.diagonal(0, -2, -1).real)
    gap = d[..., None, :] - np.concatenate((d, -d), -1)[..., None]
    Z = E / np.where(np.abs(gap) > 1e-6 * scale, gap, np.inf)
    Z -= _dag(np.concatenate((Z[..., :n, :], Z[..., n:, :]), -1))  # twice its anti-Hermitian part
    g = _paired_frame(V + g @ (Z / 2.0))

    recon = (g * (1j * np.concatenate((d, -d), -1))[..., None, :]) @ _dag(g)
    err = np.linalg.norm(recon - Y, axis=(-2, -1))
    if (bad := err > 1e-8 * scale[..., 0, 0]).any():
        raise PairingError(f"pair diagonalization reconstruction residual {err[bad][0]:.3e}")
    return PairedSpectrum(values=d, frame=StructuredMatrix(g))


def cartan_decompose_gminus(B):
    """Factor a (decomposable) Gminus element as eta * exp(2i*Q(q)) * eta^{-1}.

    Returns (eta, q) with eta in Gplus and q sorted descending in [0, pi/2].
    q is half the angle of each eigenvalue of B (``np.linalg.eig``); C maps
    the eigenvector of exp(2iq) to one of exp(-2iq).  The eigenvectors whose
    half-angle lies in (PAIR_TOL, pi/2 - PAIR_TOL) are the primary columns v
    of eta = [v, Cv].  B is unitary, so eigenvectors of distinct eigenvalues
    are orthogonal, but inside an exactly degenerate cluster eig's vectors
    overlap by O(1): one Cholesky-QR makes the primary columns orthonormal
    and mixes columns of different clusters only at roundoff.  Eigenvalues at +-1 (q
    within PAIR_TOL of 0 or pi/2) are paired through the C eigenbasis of
    their eigenspace, orthonormalized by QR first; if that space is not
    C-balanced the element admits no such factorization and PairingError is
    raised.  Next to a mirror eig mixes v with Cv by about eps/q, so one
    Newton-Schulz step makes the blocks a + b and a - b of eta unitary
    again.  The input must be Gminus within CHECK_TOL.
    """
    B = np.asarray(B, dtype=complex)
    _require_structure(B, "Gminus")
    n = B.shape[0] // 2

    w, Z = np.linalg.eig(B)
    q = np.angle(w) / 2.0
    # eigenvalue -1 has angle +pi or -pi: both are the mirror q = pi/2
    q[q <= PAIR_TOL - math.pi / 2] = math.pi / 2
    primary = (q > PAIR_TOL) & (q < math.pi / 2 - PAIR_TOL)
    V = Z[:, primary]
    # Cholesky-QR: V^dag V = L L^dag, so V L^{-dag} = (conj(L)^{-1} V^T)^T has
    # orthonormal columns
    L = np.linalg.cholesky(V.conj().T @ V)
    cols, values = [np.linalg.solve(L.conj(), V.T).T], [q[primary]]
    for m in (0.0, math.pi / 2):
        basis = Z[:, np.abs(q - m) <= PAIR_TOL]
        if not basis.shape[1]:
            continue
        basis = np.linalg.qr(basis)[0]
        # C restricted to the cluster; C @ basis swaps the halves of each column
        w, u = np.linalg.eigh(basis.conj().T @ np.concatenate((basis[n:], basis[:n])))
        plus, minus = basis @ u[:, w > 0], basis @ u[:, w < 0]
        if plus.shape != minus.shape:
            raise PairingError(f"cartan_decompose_gminus ({m:g}): unbalanced C signature "
                               f"in cluster ({plus.shape[1]} vs {minus.shape[1]})")
        cols.append((plus + minus) / math.sqrt(2.0))
        values.append(np.full(plus.shape[1], m))
    V, q = np.concatenate(cols, axis=1), np.concatenate(values)
    if V.shape[1] != n:
        raise PairingError(f"cartan_decompose_gminus: {V.shape[1]} primary columns, expected {n}")
    order = np.argsort(-q, kind="stable")
    V, q = V[:, order], q[order]
    # one Newton-Schulz step eta <- eta (3 - eta^dag eta) / 2 on eta = [V, CV]
    # (Higham, Functions of Matrices, section 8.3): in C's eigenbasis eta is
    # diag(a + b, a - b), a and b the halves of V, so both blocks move toward
    # unitary and eta stays in Gplus
    M = np.concatenate((V, np.concatenate((V[n:], V[:n]))), axis=1)
    eta = _paired_frame(1.5 * V - 0.5 * (M @ (M.conj().T @ V)))

    recon = (eta * exp_iQ_diagonal(2.0 * q)) @ eta.conj().T
    err = float(np.linalg.norm(recon - B))
    if err > 1e-7:
        raise PairingError(f"Cartan reconstruction residual {err:.3e}")
    return StructuredMatrix(eta), q


def jacobi_minor_residual(A, rows, cols, p: int, det_tol: float = 1e-8) -> float:
    """Numerical residual of the complementary-minor identity for det(A) = 1.

    With B = (A^{-1})^T and (rows, cols) a pair of full index permutations,
    compares the p x p leading minor of B against sign * complementary minor
    of A and returns the absolute difference.
    """
    A = np.asarray(A, dtype=complex)
    N = A.shape[0]
    rows = list(rows)
    cols = list(cols)
    if sorted(rows) != list(range(N)) or sorted(cols) != list(range(N)):
        raise ValueError("rows and cols must each be a permutation of 0..N-1")
    if not 1 <= p < N:
        raise ValueError("need 1 <= p < N")
    det_A = np.linalg.det(A)
    if abs(det_A - 1.0) > det_tol:
        raise StructureError(f"det(A) = {det_A} is not 1 within {det_tol:.1e}")
    B = np.linalg.inv(A).T
    minor_B = np.linalg.det(B[np.ix_(rows[:p], cols[:p])])
    minor_A = np.linalg.det(A[np.ix_(rows[p:], cols[p:])])
    # the determinant of a permutation matrix is its sign, exactly: LU pivots only
    sign = round(np.linalg.det(np.eye(N)[rows]) * np.linalg.det(np.eye(N)[cols]))
    return float(abs(minor_B - sign * minor_A))


# ---------------------------------------------------------------------------
# random structured elements (used by tests and the verification suites)

def random_unitary(rng: np.random.Generator, m: int) -> np.ndarray:
    zr = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    qmat, r = np.linalg.qr(zr)
    return qmat * (np.diag(r) / np.abs(np.diag(r)))


def random_gplus(rng: np.random.Generator, n: int) -> np.ndarray:
    """Random element of Gplus built from two n x n unitaries u, w.

    With u = (a + b) and w = (a - b) unitary, [[a, b], [b, a]] is unitary and
    C-symmetric.
    """
    u = random_unitary(rng, n)
    w = random_unitary(rng, n)
    a = (u + w) / 2.0
    b = (u - w) / 2.0
    g = np.block([[a, b], [b, a]])
    return g


def random_gminus_algebra(rng: np.random.Generator, n: int) -> np.ndarray:
    """Random anti-Hermitian Y with C Y C = -Y (block form [[A, B], [-B, -A]])."""
    ar = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    A = (ar - ar.conj().T) / 2.0
    br = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    B = (br + br.conj().T) / 2.0  # Hermitian = i * anti-Hermitian block
    return np.block([[A, B], [-B.conj().T, -A]])


def random_gplus_algebra(rng: np.random.Generator, n: int) -> np.ndarray:
    """Random anti-Hermitian Y with C Y C = Y (block form [[A, B], [B, A]])."""
    ar = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    A = (ar - ar.conj().T) / 2.0
    br = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    B = (br - br.conj().T) / 2.0
    return np.block([[A, B], [B, A]])


def random_Gminus_group(rng: np.random.Generator, n: int):
    """Random decomposable Gminus element eta0 exp(2i Q(q0)) eta0^{-1}.

    Returns (B, eta0, q0) with q0 sorted descending in (0.05, pi/2 - 0.05).
    """
    eta0 = random_gplus(rng, n)
    q0 = np.sort(rng.uniform(0.05, math.pi / 2 - 0.05, size=n))[::-1]
    B = eta0 @ exp_iQ(2.0 * q0) @ eta0.conj().T
    return B, eta0, q0
