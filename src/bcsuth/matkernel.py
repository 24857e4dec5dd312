"""Structured N x N complex matrices (N = 2n) and their decompositions.

Everything revolves around the exchange matrix C (off-diagonal identity
blocks) and conjugation by it.  Six structure tags are supported:

* ``unitary``  X^dag X = 1
* ``Gplus``    unitary with C X C =  X      (block form [[a, b], [b, a]])
* ``Gminus``   unitary with C X C =  X^{-1}
* ``gplus``    anti-Hermitian with C X C =  X
* ``gminus``   anti-Hermitian with C X C = -X
* ``antihermitian``  X^dag = -X  (the input gate of :func:`gamma_split`)

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
from functools import lru_cache

import numpy as np

from .errors import PairingError, StructureError

#: mirror tolerance of the Cartan factor
PAIR_TOL = 1e-9
#: default residual bound accepted for structure membership of inputs
CHECK_TOL = 1e-8

STRUCTURE_TAGS = ("unitary", "Gplus", "Gminus", "gplus", "gminus", "antihermitian")


def exchange_matrix(n: int) -> np.ndarray:
    """The 2n x 2n Hermitian unitary C with identity off-diagonal blocks."""
    return _exchange(n).copy()


@lru_cache
def _exchange(n: int) -> np.ndarray:
    """:func:`exchange_matrix`, read-only, for the kernels that only read it."""
    C = np.zeros((2 * n, 2 * n), dtype=complex)
    C[:n, n:] = C[n:, :n] = np.eye(n)
    C.flags.writeable = False
    return C


def conj_by_C(X: np.ndarray) -> np.ndarray:
    """C X C over a stack (..., N, N), an exact index permutation (no float arithmetic)."""
    rows, cols = _swapped_halves(X.shape[-1])
    return X[..., rows, cols]


@lru_cache
def _swapped_halves(N: int):
    """Row and column indices of :func:`conj_by_C`: -n..-1 index the second
    half, so the halves are swapped."""
    idx = np.arange(-(N // 2), N // 2)
    idx.flags.writeable = False
    return idx[:, None], idx



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
#: C X C must equal, None if there is no C relation).  For Gminus that is
#: X^{-1} = X^dag, since unitarity is checked in the same max.
_RELATIONS = {
    "unitary": (True, None),
    "Gplus": (True, lambda X: X),
    "Gminus": (True, _dag),
    "gplus": (False, lambda X: X),
    "gminus": (False, lambda X: -X),
    "antihermitian": (False, None),
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
    defects = np.concatenate(_relation_defects(X, tag), -1)
    flagged = np.square(defects.view(float)).sum((-2, -1)) > (CHECK_TOL / 2) ** 2
    for M in X[flagged]:
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
    r = structure_residual(Y, "antihermitian")
    if r > CHECK_TOL:
        raise StructureError(f"gamma_split needs an anti-Hermitian input, residual {r:.3e}")
    Y_plus = (Y + conj_by_C(Y)) / 2.0
    Y_minus = Y - Y_plus
    return Y_plus, Y_minus


def _frame(V: np.ndarray) -> np.ndarray:
    """[V, CV] for a stack (..., 2n, n) of columns V: C swaps the halves of each column."""
    return np.concatenate((V, V[..., _swapped_halves(V.shape[-2])[1], :]), -1)


def _paired_frame(V: np.ndarray) -> np.ndarray:
    """The Gplus frames [v, Cv] of a stack (..., 2n, n) of primary columns V,
    each column's largest-magnitude entry made real positive (this fixes the
    residual Z freedom, one phase per pair of columns)."""
    n = V.shape[-1]
    Vs = V.reshape(-1, 2 * n, n)
    peak = Vs[np.arange(len(Vs))[:, None], np.argmax(np.abs(Vs), axis=1), np.arange(n)]
    V = (Vs / (peak / np.abs(peak))[:, None, :]).reshape(V.shape)
    return _frame(V)


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
    g = _frame(V)
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
    again.  The input must be Gminus within CHECK_TOL.  A stack (..., 2n, 2n)
    takes one batched eig, Cholesky-QR and Newton-Schulz step; only an item
    with an eigenvalue at a mirror takes the cluster path, and each item gets
    its own bits.  The first item that fails raises its error.
    """
    B = np.asarray(B, dtype=complex)
    _require_structure(B, "Gminus")
    N = B.shape[-1]
    n = N // 2
    Bs = B.reshape(-1, N, N)
    w, Z = np.linalg.eig(Bs)
    q = np.angle(w) / 2.0
    # eigenvalue -1 has angle +pi or -pi: both are the mirror q = pi/2
    q[q <= PAIR_TOL - math.pi / 2] = math.pi / 2
    primary = (q > PAIR_TOL) & (q < math.pi / 2 - PAIR_TOL)
    # an item is plain when n half-angles are primary and the other n lie in
    # (PAIR_TOL - pi/2, -PAIR_TOL): none at a mirror
    plain = (primary.sum(-1) == n) & ((q < -PAIR_TOL).sum(-1) == n)
    every = plain.all()
    # the n primary columns of each plain item, in eig's order
    take = primary if every else primary & plain[:, None]
    V = np.ascontiguousarray(Z.swapaxes(-1, -2)[take].reshape(-1, n, N).swapaxes(-1, -2))
    # Cholesky-QR: V^dag V = L L^dag, so V L^{-dag} = (conj(L)^{-1} V^T)^T has
    # orthonormal columns
    L = np.linalg.cholesky(_dag(V) @ V)
    V, q_V = np.linalg.solve(L.conj(), V.swapaxes(-1, -2)).swapaxes(-1, -2), q[take].reshape(-1, n)
    if not every:
        V, q_V = _with_mirror_items(Z, q, primary, plain, V, q_V)
    order = np.argsort(-q_V, axis=-1, kind="stable")
    rows = np.arange(len(Bs))[:, None]
    V, q = V[rows[:, None], np.arange(N)[:, None], order[:, None, :]], q_V[rows, order]
    # one Newton-Schulz step eta <- eta (3 - eta^dag eta) / 2 on eta = [V, CV]
    # (Higham, Functions of Matrices, section 8.3): in C's eigenbasis eta is
    # diag(a + b, a - b), a and b the halves of V, so both blocks move toward
    # unitary and eta stays in Gplus
    M = _frame(V)
    eta = _paired_frame(1.5 * V - 0.5 * (M @ (_dag(M) @ V)))

    defect = (eta * exp_iQ_diagonal(2.0 * q)[:, None, :]) @ _dag(eta) - Bs
    if (bad := np.square(defect.view(float)).sum((-2, -1)) > 1e-14).any():
        raise PairingError(f"Cartan reconstruction residual "
                           f"{float(np.linalg.norm(defect[bad][0])):.3e}")
    return StructuredMatrix(eta.reshape(B.shape)), q.reshape(B.shape[:-2] + (n,))


def _with_mirror_items(Z, q, primary, plain, V, q_V):
    """The primary columns and half-angles of every item of
    :func:`cartan_decompose_gminus`: those of the plain items (V, q_V), and,
    for an item with an eigenvalue at a mirror, the Cholesky-QR of its primary
    columns and each mirror cluster paired through the C eigenbasis of its
    eigenspace."""
    N, n = Z.shape[-1], Z.shape[-1] // 2
    cols, values = np.empty((len(Z), N, n), dtype=complex), np.empty((len(Z), n))
    cols[plain], values[plain] = V, q_V
    for i in np.flatnonzero(~plain):
        Zi, qi = Z[i], q[i]
        Vi = Zi[:, primary[i]]
        L = np.linalg.cholesky(Vi.conj().T @ Vi)
        parts, angles = [np.linalg.solve(L.conj(), Vi.T).T], [qi[primary[i]]]
        for m in (0.0, math.pi / 2):
            basis = Zi[:, np.abs(qi - m) <= PAIR_TOL]
            if not basis.shape[1]:
                continue
            basis = np.linalg.qr(basis)[0]
            # C restricted to the cluster; C @ basis swaps the halves of each column
            w, u = np.linalg.eigh(basis.conj().T @ np.concatenate((basis[n:], basis[:n])))
            plus, minus = basis @ u[:, w > 0], basis @ u[:, w < 0]
            if plus.shape != minus.shape:
                raise PairingError(f"cartan_decompose_gminus ({m:g}): unbalanced C signature "
                                   f"in cluster ({plus.shape[1]} vs {minus.shape[1]})")
            parts.append((plus + minus) / math.sqrt(2.0))
            angles.append(np.full(plus.shape[1], m))
        if sum(part.shape[1] for part in parts) != n:
            raise PairingError(f"cartan_decompose_gminus: "
                               f"{sum(part.shape[1] for part in parts)} primary columns, expected {n}")
        cols[i], values[i] = np.concatenate(parts, axis=1), np.concatenate(angles)
    return cols, values


def _frobenius(D: np.ndarray) -> np.ndarray:
    """The Frobenius norm of each matrix of a stack (..., M, N), the bits
    ``np.linalg.norm`` gives that matrix alone: one dot product each of its
    real and imaginary parts."""
    re = D.real.reshape(D.shape[:-2] + (1, -1))
    im = D.imag.reshape(re.shape)
    return np.sqrt((re @ re.swapaxes(-1, -2) + im @ im.swapaxes(-1, -2))[..., 0, 0])


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
