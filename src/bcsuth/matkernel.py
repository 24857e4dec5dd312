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

The last two are thin callers of one pairing core, :func:`_pair_spectrum`:
the frame pairs each eigenvector v of +x with Cv, one of -x, and pairs values
that are their own mirror (0; or 0 and pi/2) inside their eigenspace.
Plus a numerical oracle for Jacobi's complementary-minor identity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import PairingError, StructureError

#: default tolerance for eigenvalue pairing decisions
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
    """C X C computed as an exact index permutation (no float arithmetic)."""
    n = X.shape[0] // 2
    idx = np.arange(-n, n)  # -n..-1 index the second half: the halves swapped
    return X[idx[:, None], idx]


def exp_iQ(q) -> np.ndarray:
    """Diagonal unitary exp(i*diag(q, -q))."""
    return np.diag(exp_iQ_diagonal(q))


def exp_iQ_diagonal(q) -> np.ndarray:
    """The diagonal exp(i*(q, -q)) of :func:`exp_iQ`, for broadcasting."""
    q = np.asarray(q, dtype=float)
    return np.exp(1j * np.concatenate((q, -q)))


def structure_residual(X, tag: str) -> float:
    """Frobenius norm of the violation of the defining relation(s) of ``tag``.

    For compound tags the maximum over the individual relations is returned,
    so 0 still means exact membership.
    """
    X = np.asarray(X, dtype=complex)
    N = X.shape[0]
    if X.shape != (N, N) or N % 2:
        raise ValueError("X must be square of even size")
    eye = np.eye(N)
    if tag == "unitary":
        return float(np.linalg.norm(X.conj().T @ X - eye))
    if tag == "Gplus":
        return max(
            float(np.linalg.norm(X.conj().T @ X - eye)),
            float(np.linalg.norm(conj_by_C(X) - X)),
        )
    if tag == "Gminus":
        r_unit = float(np.linalg.norm(X.conj().T @ X - eye))
        try:
            Xinv = np.linalg.inv(X)
        except np.linalg.LinAlgError as exc:
            raise StructureError("Gminus residual needs an invertible matrix") from exc
        return max(r_unit, float(np.linalg.norm(conj_by_C(X) - Xinv)))
    if tag == "gplus":
        return max(
            float(np.linalg.norm(X.conj().T + X)),
            float(np.linalg.norm(conj_by_C(X) - X)),
        )
    if tag == "gminus":
        return max(
            float(np.linalg.norm(X.conj().T + X)),
            float(np.linalg.norm(conj_by_C(X) + X)),
        )
    raise ValueError(f"unknown structure tag {tag!r}; expected one of {STRUCTURE_TAGS}")


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
    r = structure_residual(X, tag)
    if r > CHECK_TOL:
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


def _fix_frame_phases(g: np.ndarray) -> np.ndarray:
    """Make each primary column's largest-magnitude entry real positive.

    The same phase is applied to the paired column n+j, which keeps the frame
    inside Gplus (this is exactly the residual Z freedom).
    """
    n = g.shape[0] // 2
    peak = g[np.argmax(np.abs(g[:, :n]), axis=0), np.arange(n)]
    phase = peak / np.abs(peak)
    return g / np.concatenate((phase, phase))


def _pair_zero_modes(basis: np.ndarray, C: np.ndarray, context: str) -> list[np.ndarray]:
    """Pair a C-invariant subspace into (v, Cv) couples via the C eigenbasis.

    ``basis`` holds orthonormal columns spanning the subspace.  Returns the
    primary vectors v; their partners are C @ v.
    """
    w, u = np.linalg.eigh(basis.conj().T @ C @ basis)
    if np.any(np.abs(np.abs(w) - 1.0) > 1e-6):
        raise PairingError(
            f"{context}: cluster is not C-invariant (restricted C eigenvalues {w})"
        )
    plus, minus = basis @ u[:, w > 0], basis @ u[:, w < 0]
    if plus.shape != minus.shape:
        raise PairingError(f"{context}: unbalanced C signature in cluster "
                           f"({plus.shape[1]} vs {minus.shape[1]})")
    return list(((plus + minus) / math.sqrt(2.0)).T)


def _pair_spectrum(vals, vecs, mirrors, tol: float, scale: float, context: str):
    """Pair the spectrum of an element that C conjugates to its mirror image.

    ``vals`` (length 2n) belong to the orthonormal columns of ``vecs``; C maps
    the eigenvector of x to one of -x, so the values off ``mirrors`` (those
    equal to their own mirror) come in (+x, -x) pairs, matched within
    10*max(tol, 1e-12*max(1, scale)).  A value within ``tol`` of a mirror m
    is m; its cluster is paired through the C eigenbasis.  Returns the n
    primary values, descending, and the Gplus frame [v, Cv].
    """
    n = vecs.shape[0] // 2
    vals = vals.tolist()  # floats: at n <= 8 numpy's per-call cost dominates
    free = [i for i, x in enumerate(vals) if min(abs(x - m) for m in mirrors) > tol]
    up = [i for i in free if vals[i] > 0]
    down = sorted(-vals[i] for i in free if vals[i] < 0)
    if len(up) != len(down):
        raise PairingError(f"{context}: spectrum does not pair into +-: "
                           f"{len(up)} positive vs {len(down)} negative")
    bound = 10 * max(tol, 1e-12 * max(1.0, scale))
    if any(abs(a - b) > bound for a, b in zip(sorted(vals[i] for i in up), down)):
        raise PairingError(f"{context}: positive and negative values do not match in +- pairs")
    cols, values = [vecs[:, i] for i in up], [vals[i] for i in up]
    for m in mirrors:
        cluster = [i for i, x in enumerate(vals) if abs(x - m) <= tol]
        if cluster:
            vs = _pair_zero_modes(vecs[:, cluster], exchange_matrix(n), f"{context} ({m:g})")
            cols.extend(vs)
            values.extend([m] * len(vs))
    order = sorted(range(n), key=lambda j: -values[j])
    P = np.array([cols[j] for j in order]).T
    g = np.concatenate((P, np.concatenate((P[n:], P[:n]))), axis=1)  # [v, Cv]
    return np.array([values[j] for j in order]), _fix_frame_phases(g)


def pair_diagonalize_gminus(Yminus) -> PairedSpectrum:
    """Write a gminus element as g * i*diag(d, -d) * g^{-1} with g in Gplus.

    The Hermitian matrix -i*Y_minus anticommutes with C, so its spectrum comes
    in (+d, -d) pairs and C maps the +d eigenvector v to a -d eigenvector; the
    frame takes columns (v_j, C v_j).  Eigenvalues within PAIR_TOL of zero
    count as zero and are paired inside the kernel through the C eigenbasis;
    the +- match scales with ||Y_minus||_F, as eigh's error does.  The input
    must be gminus within CHECK_TOL.
    """
    Y = np.asarray(Yminus, dtype=complex)
    _require_structure(Y, "gminus")
    scale = float(np.linalg.norm(Y))
    d, g = _pair_spectrum(*np.linalg.eigh(-1j * Y), (0.0,), PAIR_TOL, scale,
                          "pair_diagonalize_gminus")

    recon = (g * (1j * np.concatenate((d, -d)))) @ g.conj().T
    err = float(np.linalg.norm(recon - Y))
    if err > 1e-8 * max(1.0, scale):
        raise PairingError(f"pair diagonalization reconstruction residual {err:.3e}")
    return PairedSpectrum(values=d, frame=StructuredMatrix(g))


def cartan_decompose_gminus(B):
    """Factor a (decomposable) Gminus element as eta * exp(2i*Q(q)) * eta^{-1}.

    Returns (eta, q) with eta in Gplus and q sorted descending in [0, pi/2].
    Eigenvalues of B pair as exp(+-2i*q_j); the exp(2iq) eigenvector v and
    C v span each pair.  Eigenvalues at +-1 (q within PAIR_TOL of 0 or pi/2)
    are paired through the C eigenbasis of the corresponding eigenspace; if
    that space is not C-balanced the element admits no such factorization and
    PairingError is raised.  The input must be Gminus within CHECK_TOL.
    """
    B = np.asarray(B, dtype=complex)
    _require_structure(B, "Gminus")

    # B is normal (unitary): complex Schur gives orthonormal eigenvectors.
    T, Zs = scipy.linalg.schur(B, output="complex")
    if np.linalg.norm(T - np.diag(np.diag(T))) > 1e-6:
        raise PairingError("input is too far from normal for spectral pairing")
    q = np.angle(np.diag(T)) / 2.0
    # eigenvalue -1 has angle +pi or -pi: both are the mirror q = pi/2
    q[q <= PAIR_TOL - math.pi / 2] = math.pi / 2
    q, eta = _pair_spectrum(q, Zs, (0.0, math.pi / 2), PAIR_TOL, 1.0,
                            "cartan_decompose_gminus")

    recon = (eta * exp_iQ_diagonal(2.0 * q)) @ eta.conj().T
    err = float(np.linalg.norm(recon - B))
    if err > 1e-7:
        raise PairingError(f"Cartan reconstruction residual {err:.3e}")
    return StructuredMatrix(eta), q


def _perm_parity(perm) -> int:
    """Sign of a permutation given as a list of 0-based indices."""
    perm = list(perm)
    seen = [False] * len(perm)
    sign = 1
    for i in range(len(perm)):
        if seen[i]:
            continue
        j = i
        length = 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


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
    sign = _perm_parity(rows) * _perm_parity(cols)
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


def random_Gminus_group(rng: np.random.Generator, n: int):
    """Random decomposable Gminus element eta0 exp(2i Q(q0)) eta0^{-1}.

    Returns (B, eta0, q0) with q0 sorted descending in (0.05, pi/2 - 0.05).
    """
    eta0 = random_gplus(rng, n)
    q0 = np.sort(rng.uniform(0.05, math.pi / 2 - 0.05, size=n))[::-1]
    B = eta0 @ exp_iQ(2.0 * q0) @ eta0.conj().T
    return B, eta0, q0
