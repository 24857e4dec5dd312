import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import pair_diagonalize_one

import bcsuth
from bcsuth.errors import PairingError, StructureError
from bcsuth.matkernel import (PAIR_TOL, STRUCTURE_TAGS, cartan_decompose_gminus,
                              conj_by_C, exchange_matrix, exp_iQ, gamma_split,
                              jacobi_minor_residual, pair_diagonalize_gminus,
                              random_Gminus_group, random_gminus_algebra,
                              random_gplus, random_gplus_algebra, random_unitary,
                              structure_residual)
from bcsuth.verification import DEFAULT_TOLERANCES


def test_structure_residual_examples():
    C = exchange_matrix(1)
    assert structure_residual(C, "Gplus") == pytest.approx(0.0, abs=1e-15)
    I2 = np.eye(2, dtype=complex)
    assert structure_residual(I2, "gminus") == pytest.approx(np.linalg.norm(2 * I2))
    X = np.array([[0.0, 2.0], [-2.0, 0.0]], dtype=complex)
    assert structure_residual(X, "gminus") == pytest.approx(0.0, abs=1e-15)


def test_structure_residual_rejects_unknown_tag():
    with pytest.raises(ValueError, match=r"unknown structure tag 'nonsense'; expected one "
                       r"of \('unitary', 'Gplus', 'Gminus', 'gplus', 'gminus'\)"):
        structure_residual(np.eye(2), "nonsense")


def _reference_residual(X, tag):
    # each tag's relations written out: the residual is their max
    N = X.shape[0]
    C = exchange_matrix(N // 2)
    Xh = X.conj().T
    unitarity = float(np.linalg.norm(Xh @ X - np.eye(N)))
    anti_hermiticity = float(np.linalg.norm(Xh + X))
    return {
        "unitary": unitarity,
        "Gplus": max(unitarity, float(np.linalg.norm(C @ X @ C - X))),
        "Gminus": max(unitarity, float(np.linalg.norm(C @ X @ C - Xh))),
        "gplus": max(anti_hermiticity, float(np.linalg.norm(C @ X @ C - X))),
        "gminus": max(anti_hermiticity, float(np.linalg.norm(C @ X @ C + X))),
    }[tag]


_MEMBERS = {
    "unitary": lambda rng, n: random_unitary(rng, 2 * n),
    "Gplus": random_gplus,
    "Gminus": lambda rng, n: random_Gminus_group(rng, n)[0],
    "gplus": random_gplus_algebra,
    "gminus": random_gminus_algebra,
}


@pytest.mark.parametrize("tag", STRUCTURE_TAGS)
def test_structure_residual_matches_written_out_relations(tag):
    rng = np.random.default_rng(7)
    for n in (1, 2, 3, 4):
        for _ in range(50):
            X = _MEMBERS[tag](rng, n)
            noise = rng.standard_normal((2 * n, 2 * n)) + 1j * rng.standard_normal((2 * n, 2 * n))
            X_bad = X + 1e-3 * noise
            r, r_bad = structure_residual(X, tag), structure_residual(X_bad, tag)
            assert r == _reference_residual(X, tag) and r < 1e-13
            assert r_bad == _reference_residual(X_bad, tag) and r_bad > 1e-4


@pytest.mark.parametrize("tag", STRUCTURE_TAGS + ("nonsense",))
def test_structure_residual_checks_shape_before_tag(tag):
    for bad in (np.eye(3), np.ones((2, 4))):
        with pytest.raises(ValueError, match="X must be square of even size"):
            structure_residual(bad, tag)


def test_gamma_split_fixed_points():
    C = exchange_matrix(2)
    Yp, Ym = gamma_split(1j * C)
    assert np.array_equal(Yp, 1j * C)
    assert np.linalg.norm(Ym) == 0.0
    A = 1j * np.diag([0.3, -0.1, -0.3, 0.1])
    Yp, Ym = gamma_split(A)
    assert np.linalg.norm(Yp) == 0.0
    assert np.array_equal(Ym, A)


def test_gamma_split_rejects_non_antihermitian():
    with pytest.raises(StructureError, match="anti-Hermitian"):
        gamma_split(np.eye(4, dtype=complex))


@given(st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=2**31))
@settings(max_examples=40, deadline=None)
def test_gamma_split_property(n, seed):
    rng = np.random.default_rng(seed)
    zr = rng.standard_normal((2 * n, 2 * n)) + 1j * rng.standard_normal((2 * n, 2 * n))
    Y = (zr - zr.conj().T) / 2.0
    Yp, Ym = gamma_split(Y)
    # Y_minus and the sum round once each: 1.5 sqrt(2) eps M bounds the defect
    scale = max(1.0, float(np.max(np.abs(Y))))
    assert np.max(np.abs((Yp + Ym) - Y)) <= \
        DEFAULT_TOLERANCES["structure.gamma_split_sum"] * scale
    assert structure_residual(Yp, "gplus") < 1e-13 * max(1, np.linalg.norm(Y))
    assert structure_residual(Ym, "gminus") < 1e-13 * max(1, np.linalg.norm(Y))


def test_pair_diagonalize_worked_example():
    Y = np.array([[0.0, 2.0], [-2.0, 0.0]], dtype=complex)
    spec = pair_diagonalize_gminus(Y)
    assert spec.values == pytest.approx([2.0], abs=1e-14)
    g = spec.frame.m
    assert structure_residual(g, "Gplus") < 1e-13
    D = 1j * np.diag([2.0, -2.0])
    assert np.linalg.norm(g @ D @ g.conj().T - Y) < 1e-13


def test_pair_diagonalize_zero_matrix():
    spec = pair_diagonalize_gminus(np.zeros((4, 4), dtype=complex))
    assert spec.values == pytest.approx([0.0, 0.0])
    g = spec.frame.m
    assert structure_residual(g, "Gplus") < 1e-13


def test_pair_diagonalize_random(rng):
    for n in (1, 2, 3, 4):
        for _ in range(20):
            Y = random_gminus_algebra(rng, n)
            spec = pair_diagonalize_gminus(Y)
            d = spec.values
            assert np.all(np.diff(d) <= 1e-12) and np.all(d >= -1e-12)
            g = spec.frame.m
            recon = g @ (1j * np.diag(np.r_[d, -d])) @ g.conj().T
            assert np.linalg.norm(recon - Y) < 1e-10
            assert structure_residual(g, "Gplus") < 1e-12


def test_pair_diagonalize_phase_freedom_invariance(rng):
    n = 3
    Y = random_gminus_algebra(rng, n)
    spec = pair_diagonalize_gminus(Y)
    phases = np.exp(1j * rng.uniform(0, 2 * np.pi, n))
    zeta = np.diag(np.r_[phases, phases])
    g2 = spec.frame.m @ zeta
    d = spec.values
    Y2 = g2 @ (1j * np.diag(np.r_[d, -d])) @ g2.conj().T
    spec2 = pair_diagonalize_gminus(Y2)
    assert spec2.values == pytest.approx(d, abs=1e-11)


def _bits(a):
    """The raw words of a float or complex array: equal bits, signed zeros included."""
    return np.ascontiguousarray(a).view(np.uint64)


def _gminus_stack(rng, n, shape=(3, 4)):
    """Random gminus matrices, the zero matrix and one with a repeated pair."""
    Ys = np.array([random_gminus_algebra(rng, n) for _ in range(int(np.prod(shape)))])
    Ys[1] = 0.0
    Ys[2] *= 1e-3
    d = np.r_[1.5, 1.5, rng.uniform(0.0, 2.0, max(n - 2, 0))][:n]
    g = random_gplus(rng, n)
    Ys[3] = g @ (1j * np.diag(np.r_[d, -d])) @ g.conj().T
    return Ys.reshape(shape + Ys.shape[1:])


def test_pair_diagonalize_stack_matches_each_matrix_bit_for_bit(rng):
    # one batched SVD: each matrix's values and frame are the bits it gets
    # alone, and those of the single-matrix reference (and 1,040 more draws)
    for n in range(1, 9):
        for _ in range(130):
            Y = random_gminus_algebra(rng, n)
            spec, (d, g) = pair_diagonalize_gminus(Y), pair_diagonalize_one(Y)
            assert np.array_equal(_bits(spec.values), _bits(d))
            assert np.array_equal(_bits(spec.frame.m), _bits(g))
        Ys = _gminus_stack(rng, n)
        spec = pair_diagonalize_gminus(Ys)
        assert spec.values.shape == (3, 4, n) and spec.frame.m.shape == (3, 4, 2 * n, 2 * n)
        for i in np.ndindex(3, 4):
            alone = pair_diagonalize_gminus(Ys[i])
            d, g = pair_diagonalize_one(Ys[i])
            for got in (spec.values[i], alone.values):
                assert np.array_equal(_bits(got), _bits(d))
            for got in (spec.frame.m[i], alone.frame.m):
                assert np.array_equal(_bits(got), _bits(g))


def _raised(fn, *args):
    with pytest.raises(Exception) as info:
        fn(*args)
    return type(info.value), str(info.value)


def test_pair_diagonalize_stack_raises_the_error_of_its_failing_matrix(rng, monkeypatch):
    n = 3
    Ys = _gminus_stack(rng, n)
    bad = Ys.copy()
    bad[1, 2] += 1e-3 * random_gplus_algebra(rng, n)  # not gminus
    error = _raised(pair_diagonalize_gminus, bad[1, 2])
    assert error[0] is StructureError
    assert _raised(pair_diagonalize_gminus, bad) == error
    # an SVD that leaves the large matrices' frames off by 1e-3 trips the
    # reconstruction gate of those matrices only; the first of them is named
    svd = np.linalg.svd

    def rough_svd(M):
        X, d, Wh = svd(M)
        return X + 1e-3 * (d[..., :1, None] > 50.0), d, Wh

    big = Ys.copy()
    big[2, 1] *= 100.0
    big[2, 3] *= 300.0
    monkeypatch.setattr(np.linalg, "svd", rough_svd)
    error = _raised(pair_diagonalize_gminus, big[2, 1])
    assert error[0] is PairingError
    assert _raised(pair_diagonalize_gminus, big) == error
    assert _raised(pair_diagonalize_gminus, big[2, 3]) != error
    pair_diagonalize_gminus(Ys)


def test_cartan_decompose_diagonal_example():
    B = np.diag([np.exp(1j * np.pi / 3), np.exp(-1j * np.pi / 3)])
    eta, q = cartan_decompose_gminus(B)
    assert q == pytest.approx([np.pi / 6], abs=1e-14)
    recon = eta.m @ exp_iQ(2 * q) @ eta.m.conj().T
    assert np.linalg.norm(recon - B) < 1e-13


def test_cartan_decompose_identity():
    eta, q = cartan_decompose_gminus(np.eye(4, dtype=complex))
    assert q == pytest.approx([0.0, 0.0], abs=1e-14)


def test_cartan_generate_and_recover(rng):
    for n in (1, 2, 3, 4):
        for _ in range(15):
            B, eta0, q0 = random_Gminus_group(rng, n)
            eta, q = cartan_decompose_gminus(B)
            assert np.max(np.abs(q - q0)) < 1e-10
            recon = eta.m @ exp_iQ(2 * q) @ eta.m.conj().T
            assert np.linalg.norm(recon - B) < 1e-10
            assert structure_residual(eta.m, "Gplus") < 1e-12


@pytest.mark.parametrize("q0, q_tol, recon_tol", [
    # q components exactly at 0 and pi/2: the eigenspace pairing through the
    # exchange-matrix eigenbasis must still produce a valid frame
    pytest.param([np.pi / 2, 0.0], 1e-10, 1e-10, id="mirrors"),
    # the CS angles min(2q, pi - 2q) of this pair coincide
    pytest.param([np.pi / 4 + 0.3, np.pi / 4 - 0.3], 1e-10, 1e-10, id="folded"),
    # within PAIR_TOL of the mirror 0, q snaps to it
    pytest.param([0.7, 5e-10], PAIR_TOL, 1e-8, id="snapped"),
])
def test_cartan_boundary_values(rng, q0, q_tol, recon_tol):
    n = 2
    eta0 = random_gplus(rng, n)
    q0 = np.array(q0)
    B = eta0 @ exp_iQ(2 * q0) @ eta0.conj().T
    eta, q = cartan_decompose_gminus(B)
    assert q == pytest.approx(q0, abs=q_tol)
    recon = eta.m @ exp_iQ(2 * q) @ eta.m.conj().T
    assert np.linalg.norm(recon - B) < recon_tol


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("q_near", [1.5e-9, np.pi / 2 - 1.5e-9], ids=["zero", "half-pi"])
def test_cartan_next_to_a_mirror(n, q_near):
    # just outside PAIR_TOL, eig mixes the eigenvector v of exp(2iq) with
    # C v by about eps/q; the frame must still be Gplus and rebuild B
    for seed in range(20):
        rng = np.random.default_rng(seed)
        eta0 = random_gplus(rng, n)
        q0 = np.sort(np.r_[rng.uniform(0.05, np.pi / 2 - 0.05, n - 1), q_near])[::-1]
        B = eta0 @ exp_iQ(2 * q0) @ eta0.conj().T
        eta, q = cartan_decompose_gminus(B)
        assert np.max(np.abs(q - q0)) < 1e-14
        recon = eta.m @ exp_iQ(2 * q) @ eta.m.conj().T
        assert np.linalg.norm(recon - B) < 1e-12
        assert structure_residual(eta.m, "Gplus") < 1e-12


def _clustered_q(case, n, rng):
    a = rng.uniform(0.05, np.pi / 2 - 0.05)
    if case == "pair":
        return np.sort(np.r_[a, a, rng.uniform(0.05, np.pi / 2 - 0.05, n - 2)])[::-1]
    if case == "all-equal":
        return np.full(n, a)
    k = n - 2  # "pair-and-mirrors": the pair between q = pi/2 and q = 0 clusters
    return np.r_[np.full(k - k // 2, np.pi / 2), a, a, np.zeros(k // 2)]


# at n = 2 every case is the one degenerate pair
@pytest.mark.parametrize("case, n", [("all-equal", 2)] + [
    (c, n) for c in ("pair", "all-equal", "pair-and-mirrors") for n in (3, 4, 8)])
def test_cartan_degenerate_clusters(case, n):
    # inside an exactly degenerate cluster eig's eigenvectors overlap by O(1),
    # so one Newton-Schulz step alone leaves eta far from unitary
    for seed in range(20):
        rng = np.random.default_rng(seed)
        eta0 = random_gplus(rng, n)
        q0 = _clustered_q(case, n, rng)
        B = eta0 @ exp_iQ(2 * q0) @ eta0.conj().T
        eta, q = cartan_decompose_gminus(B)
        assert np.max(np.abs(q - q0)) <= 1e-14
        recon = eta.m @ exp_iQ(2 * q) @ eta.m.conj().T
        assert np.linalg.norm(recon - B) < 1e-12
        assert structure_residual(eta.m, "Gplus") < 1e-12


def test_package_runs_without_scipy():
    # the package's one heavy import is gone: a fresh process that maps a
    # point both ways and factors an element with a mirror cluster loads no
    # scipy module
    code = textwrap.dedent("""
        import sys
        import numpy as np
        import bcsuth
        from bcsuth.matkernel import exp_iQ, random_gplus
        pr = bcsuth.couplings_from_rsvd(1.0, 1.8, 0.6, 2)
        pt = bcsuth.SutherlandPoint(q=[1.0, 0.5], p=[0.3, -0.2])
        back = bcsuth.backward_map(bcsuth.forward_map(pt, pr), pr)
        assert np.allclose(back.q, pt.q) and np.allclose(back.p, pt.p)
        eta0 = random_gplus(np.random.default_rng(0), 3)
        B = eta0 @ exp_iQ(2 * np.array([np.pi / 2, 0.8, 0.0])) @ eta0.conj().T
        assert np.allclose(bcsuth.cartan_decompose_gminus(B)[1], [np.pi / 2, 0.8, 0.0])
        print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
    """)
    src = str(Path(bcsuth.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("sign", [1, -1])
def test_cartan_rejects_unbalanced_mirror_cluster(n, sign):
    # +-C is Gminus, but each of its +-1 eigenspaces carries one C sign only
    B = sign * exchange_matrix(n)
    assert structure_residual(B, "Gminus") == 0.0
    with pytest.raises(PairingError, match="unbalanced"):
        cartan_decompose_gminus(B)


_SPREAD = st.floats(min_value=0.05, max_value=np.pi / 2 - 0.05)


@given(st.sampled_from(["pair", "cartan"]), st.integers(min_value=1, max_value=4),
       st.integers(min_value=0, max_value=2**31), st.data())
@settings(max_examples=60, deadline=None)
def test_pairing_core_property(kind, n, seed, data):
    # both factorizations through the shared core, with values that are their
    # own mirror (d = 0; q = 0 or pi/2) forming clusters the core must pair
    g0 = random_gplus(np.random.default_rng(seed), n)
    if kind == "pair":
        d0 = np.array(data.draw(st.lists(st.one_of(st.just(0.0), _SPREAD),
                                         min_size=n, max_size=n)
                                .filter(lambda d: 0.0 in d)))
        Y = g0 @ (1j * np.diag(np.r_[d0, -d0])) @ g0.conj().T
        spec = pair_diagonalize_gminus(Y)
        values, g, target = spec.values, spec.frame.m, d0
        recon = g @ (1j * np.diag(np.r_[values, -values])) @ g.conj().T - Y
    else:
        q0 = np.array(data.draw(st.lists(st.sampled_from([0.0, np.pi / 2]) | _SPREAD,
                                         min_size=n, max_size=n)))
        B = g0 @ exp_iQ(2 * q0) @ g0.conj().T
        eta, values = cartan_decompose_gminus(B)
        g, target = eta.m, q0
        recon = g @ exp_iQ(2 * values) @ g.conj().T - B
    assert np.max(np.abs(values - np.sort(target)[::-1])) < 1e-10
    assert structure_residual(g, "Gplus") < 1e-12
    assert np.linalg.norm(recon) < 1e-10


def test_cartan_rejects_garbage(rng):
    M = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    with pytest.raises((StructureError, PairingError)):
        cartan_decompose_gminus(M)


def test_jacobi_2x2_cofactor():
    A = np.array([[2.0, 3.0], [1.0, 2.0]])  # det = 1
    assert jacobi_minor_residual(A, [0, 1], [0, 1], 1) < 1e-14


def test_jacobi_identity_matrix(rng):
    perm = list(rng.permutation(6))
    perm2 = list(rng.permutation(6))
    # identity matrix: minors vanish unless the permuted blocks match, and the
    # identity holds in all cases
    assert jacobi_minor_residual(np.eye(6), perm, perm2, 3) < 1e-12


def test_jacobi_random_unitaries(rng):
    for N in (4, 6, 8):
        for _ in range(30):
            U = random_unitary(rng, N)
            A = U / np.linalg.det(U) ** (1.0 / N)
            rows = list(rng.permutation(N))
            cols = list(rng.permutation(N))
            p = int(rng.integers(1, N))
            assert jacobi_minor_residual(A, rows, cols, p) < 1e-10


def test_jacobi_rejects_bad_determinant():
    with pytest.raises(StructureError, match="det"):
        jacobi_minor_residual(2.0 * np.eye(4), list(range(4)), list(range(4)), 2)


def test_conj_by_C_is_permutation(rng):
    X = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    C = exchange_matrix(3)
    assert np.array_equal(conj_by_C(X), C @ X @ C)
