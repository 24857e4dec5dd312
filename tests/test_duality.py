import sys

import numpy as np
import pytest

import bcsuth.duality as duality
import bcsuth.params as params_module
import bcsuth.rsvd as rsvd
from bcsuth.duality import (DUAL_PAIRING, backward_map, backward_map_full,
                            backward_residuals, canonicity_residual,
                            degeneracy_count, forward_map, forward_map_full,
                            forward_residuals,
                            invariant_crosscheck, rank_of_dlambda,
                            round_trip_report, superintegrability_data)
from bcsuth.errors import ConsistencyError, DegenerateTorusError
from bcsuth.matkernel import (cartan_decompose_gminus, exchange_matrix,
                              exp_iQ_diagonal)
from bcsuth.params import (CouplingRows, DualPoint, OscillatorPoint, SutherlandPoint,
                           couplings_from_rsvd)
from bcsuth.sutherland import closed_form_H1, lax_Y
from bcsuth.verification import (SuiteConfig, sample_dual, sample_params,
                                 sample_sutherland)

P1 = couplings_from_rsvd(1.0, 2.0, 0.0, 1)
CFG = SuiteConfig(suite="duality")


def test_forward_boundary_is_degenerate_torus():
    with pytest.raises(DegenerateTorusError, match="degenerate torus"):
        forward_map(SutherlandPoint(q=[np.pi / 4], p=[0.0]), P1)


def test_forward_worked_example():
    dual = forward_map(SutherlandPoint(q=[np.pi / 4], p=[1.0]), P1)
    assert dual.lam == pytest.approx([np.sqrt(5.0)], abs=1e-12)
    # orientation fixed by the implementation's arg convention
    assert dual.theta == pytest.approx([3 * np.pi / 2], abs=1e-12)


def test_round_trip_worked_example():
    pt = SutherlandPoint(q=[np.pi / 4], p=[1.0])
    dual = forward_map(pt, P1)
    back = backward_map(dual, P1)
    assert back.q == pytest.approx(pt.q, abs=1e-12)
    assert back.p == pytest.approx(pt.p, abs=1e-12)


def test_round_trip_random(rng):
    for n in (1, 2, 3, 4):
        for _ in range(10):
            p = sample_params(rng, n, CFG)
            pt = sample_sutherland(rng, n)
            dual, F = forward_map_full(pt, p)
            back, Y = backward_map_full(dual, p)
            moduli, h0 = forward_residuals(pt, dual, F, p)
            lax_err, mom = backward_residuals(back, Y, p)
            assert np.max(np.abs(back.q - pt.q)) < 1e-8
            assert np.max(np.abs(back.p - pt.p)) < 1e-8
            assert moduli < 1e-9
            assert h0 < 1e-9
            assert max(mom) < 1e-9
            assert lax_err < 1e-8


def test_backward_reconstructs_lax(rng):
    for n in (1, 2, 3):
        p = sample_params(rng, n, CFG)
        dual = sample_dual(rng, n, p)
        pt, Y = backward_map_full(dual, p)
        assert backward_residuals(pt, Y, p)[0] < 1e-8
        # spectral duality: the actions of the recovered point are lambda
        from bcsuth.sutherland import action_map

        assert np.max(np.abs(action_map(pt, p) - dual.lam)) < 1e-9


def test_backward_unreduced_lax_spectrum(rng):
    # eigenvalues of B = -(h A h)^dag are exp(+-2i q_j) at the recovered point
    for n in (1, 2, 3):
        p = sample_params(rng, n, CFG)
        dual = sample_dual(rng, n, p)
        from bcsuth.rsvd import A_check, h_matrix

        h = h_matrix(dual.lam, p).h.m
        B = -(h @ A_check(dual, p, validate=False).m @ h).conj().T
        pt, _ = backward_map_full(dual, p)
        expected = np.sort(np.angle(np.linalg.eigvals(B)))
        target = np.sort(np.r_[2 * pt.q, -2 * pt.q])
        assert np.max(np.abs(expected - target)) < 1e-9


def test_canonicity_identity_map_sanity():
    from bcsuth.dynamics import poisson_bracket_fd

    def identity(x):
        return x

    # a linear map has no truncation error, so a coarse step isolates roundoff
    table = poisson_bracket_fd(identity, identity, np.array([0.3, -1.2, 0.7, 0.1]), 1e-3)
    Omega = np.block([[np.zeros((2, 2)), np.eye(2)], [-np.eye(2), np.zeros((2, 2))]])
    assert np.linalg.norm(table - Omega) < 1e-12


def test_canonicity_calibrated(rng):
    # the pullback of sum(dlambda ^ dtheta) equals DUAL_PAIRING * sum(dq ^ dp)
    for n in (1, 2, 3):
        p = sample_params(rng, n, CFG)
        pt = sample_sutherland(rng, n)
        res = canonicity_residual(pt, p, scale=DUAL_PAIRING)
        assert res < 1e-4


def test_canonicity_uncalibrated_offset_is_exactly_the_pairing(rng):
    # the residual against the raw Darboux convention equals
    # |DUAL_PAIRING - 1| * ||Omega|| up to FD error, confirming the constant
    n = 2
    p = sample_params(rng, n, CFG)
    pt = sample_sutherland(rng, n)
    res = canonicity_residual(pt, p, scale=1.0)
    Omega_norm = np.sqrt(2.0 * n)
    assert res == pytest.approx(abs(DUAL_PAIRING - 1.0) * Omega_norm, rel=1e-4)


def test_invariant_crosscheck(rng):
    for n in (1, 2, 3):
        for kappa_zero in (True, False):
            p = sample_params(rng, n, CFG, force_kappa_zero=kappa_zero)
            pt = sample_sutherland(rng, n)
            dual = forward_map(pt, p)
            rep = invariant_crosscheck(pt, dual, p, mmax=6, kmax=4)
            assert rep["phi"][1] == pytest.approx(0.0, abs=1e-10)
            lam = dual.lam
            assert rep["phi"][2] == pytest.approx(-np.sum(lam**2), rel=1e-9)
            assert rep["phi_max_error"] < 1e-9
            assert rep["chi_max_error"] < 1e-8


def test_rank_of_dlambda_patterns():
    p2 = couplings_from_rsvd(1.0, 2.0, 0.0, 2)
    assert rank_of_dlambda(OscillatorPoint(z=[1.0 + 0j, 0.0j]), p2) == 1
    assert rank_of_dlambda(OscillatorPoint(z=[0.0j, 0.0j]), p2) == 0
    p3 = couplings_from_rsvd(1.0, 2.0, 0.0, 3)
    z = OscillatorPoint(z=[1.0 + 0.5j, -0.3 + 0.2j, 0.9j])
    assert rank_of_dlambda(z, p3) == 3
    assert degeneracy_count(z) == 3


def test_rank_of_dlambda_random_patterns(rng):
    for n in (2, 3, 4):
        p = couplings_from_rsvd(0.8, 1.7, 0.3, n)
        for nzero in range(n + 1):
            z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            z[rng.permutation(n)[:nzero]] = 0.0
            osc = OscillatorPoint(z=z)
            assert rank_of_dlambda(osc, p) == degeneracy_count(osc)


def test_superintegrability_single_particle():
    X, f, table = superintegrability_data(
        SutherlandPoint(q=[np.pi / 4], p=[1.0]), P1)
    assert np.allclose(X, [[2.0]])
    assert np.allclose(f, [0.5])
    assert np.allclose(table, [[-1.0]], atol=1e-7)


def test_superintegrability_brackets(rng):
    for n in (1, 2, 3):
        p = sample_params(rng, n, CFG)
        pt = sample_sutherland(rng, n)
        X, f, table = superintegrability_data(pt, p)
        assert abs(np.linalg.det(X)) > 1e-9
        assert np.max(np.abs(table + np.eye(n))) < 1e-6


def test_superintegrability_computes_each_gradient_once(monkeypatch):
    # the bracket table reads one FD Jacobian of f and one of h~
    from bcsuth import dynamics

    calls = []
    fd = dynamics.fd_gradient
    monkeypatch.setattr(dynamics, "fd_gradient",
                        lambda *a, **k: calls.append(1) or fd(*a, **k))
    n = 3
    _, _, table = superintegrability_data(
        SutherlandPoint(q=[1.2, 0.7, 0.3], p=[0.4, -0.1, 0.2]),
        couplings_from_rsvd(1.0, 1.8, 0.6, n))
    assert len(calls) == 2
    assert np.max(np.abs(table + np.eye(n))) < 1e-6


@pytest.mark.parametrize("qn", [5e-9, 2e-9, 1.2e-9])
def test_forward_map_next_to_the_q_wall(qn):
    # ||Y||_F ~ 1/qn is huge here, and eigh's error on the small +-d pair
    # grows with it: the pairing check must scale with ||Y||, not with |d|
    p = couplings_from_rsvd(1.0, 1.8, 0.6, 2)
    pt = SutherlandPoint(q=[1.0, qn], p=[0.3, -0.2])
    dual = forward_map(pt, p)
    h1 = closed_form_H1(pt, p)
    assert abs(0.5 * float(dual.lam @ dual.lam) - h1) <= 1e-13 * abs(h1)


def test_dual_energy_minimum_at_origin(rng):
    # H1(z) > H1(0) away from the origin; the origin value is the half sum of
    # the squared equilibrium actions
    for n in (1, 2, 3):
        p = couplings_from_rsvd(0.9, 1.8, 0.4, n)
        lam0 = p.nu + 2 * (n - 1 - np.arange(n)) * p.mu
        from bcsuth.params import lambda_of_z

        H1_0 = 0.5 * np.sum(lambda_of_z(np.zeros(n, complex), p) ** 2)
        assert H1_0 == pytest.approx(0.5 * np.sum(lam0[::-1] ** 2))
        for _ in range(200):
            z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            H1 = 0.5 * np.sum(lambda_of_z(z, p) ** 2)
            assert H1 > H1_0


def test_report_serialization(rng):
    p = sample_params(rng, 2, CFG)
    pt = sample_sutherland(rng, 2)
    d = round_trip_report(pt, p)
    assert d["round_trip_error"] < 1e-8
    assert set(d) >= {"input", "output", "canonicity_residual",
                      "canonicity_residual_calibrated", "constraint_residuals"}


def test_round_trip_report_reads_one_jacobian(rng, monkeypatch):
    p = sample_params(rng, 2, CFG)
    pt = sample_sutherland(rng, 2)
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return forward_map_full(*args, **kwargs)

    monkeypatch.setattr(duality, "forward_map_full", counted)
    kernel, stacks = duality._forward_kernel, []
    monkeypatch.setattr(duality, "_forward_kernel",
                        lambda q, *a: stacks.append(np.shape(q)) or kernel(q, *a))
    rep = round_trip_report(pt, p)
    # the point is mapped once; its image's angles are the Jacobian's origin
    assert len(calls) == 1 and stacks == [(2,), (8, 2)]
    assert rep["canonicity_residual"] == canonicity_residual(pt, p, scale=1.0)
    assert rep["canonicity_residual_calibrated"] == canonicity_residual(
        pt, p, scale=DUAL_PAIRING)


def test_hamiltonian_pullbacks(rng):
    # dual Hamiltonians through the global Lax matrix match their closed forms
    # in the dual action variables q
    from bcsuth.params import z_from_angles
    from bcsuth.rsvd import dual_Hk
    from bcsuth.duality import dual_hamiltonian_restricted

    for n in (1, 2, 3):
        p = sample_params(rng, n, CFG)
        pt = sample_sutherland(rng, n)
        dual, _ = forward_map_full(pt, p)
        z = z_from_angles(dual, p).z
        vals = dual_Hk(z, p, kmax=n)
        for k in range(1, n + 1):
            ref = dual_hamiltonian_restricted(pt.q, k)
            assert vals[k - 1] == pytest.approx(ref, abs=1e-8)


def test_dual_section_satisfies_constraints(rng):
    # the raw dual-section triple (y, i h Lam h^{-1}, V) sits on the
    # constraint surface before any gauge fixing
    from bcsuth.matkernel import cartan_decompose_gminus, exp_iQ
    from bcsuth.rsvd import A_check, f_vector, h_matrix
    from bcsuth.sutherland import momentum_residual

    for n in (1, 2, 3):
        p = sample_params(rng, n, CFG)
        dual = sample_dual(rng, n, p)
        h = h_matrix(dual.lam, p).h.m
        A = A_check(dual, p, validate=False).m
        B = -(h @ A @ h).conj().T
        eta, q = cartan_decompose_gminus(B)
        y = eta.m @ exp_iQ(q) @ eta.m.conj().T
        f = f_vector(dual, p)
        V = y @ (h @ f)
        Lam = np.diag(np.r_[dual.lam, -dual.lam]).astype(complex)
        Y = 1j * (h @ Lam @ h.conj().T)
        r1, r2 = momentum_residual(y, Y, V, p)
        assert max(r1, r2) < 1e-10


def test_forward_map_computes_no_diagnostics(rng, monkeypatch):
    # the moduli branch and the dual H0 are measured by forward_residuals;
    # the map itself needs neither
    def boom(*args, **kwargs):
        raise AssertionError("forward_map evaluated a diagnostic")

    pts = [(sample_sutherland(rng, n), sample_params(rng, n, CFG)) for n in (1, 2, 3)]
    expected = [forward_map(pt, p) for pt, p in pts]
    monkeypatch.setattr(duality, "F_squared_branches", boom)
    monkeypatch.setattr(duality, "dual_H0", boom)
    for (pt, p), ref in zip(pts, expected):
        dual = forward_map(pt, p)
        assert np.array_equal(dual.lam, ref.lam)
        assert np.array_equal(dual.theta, ref.theta)
        _, F = forward_map_full(pt, p)
        assert F.shape == (2 * pt.n,)


def test_backward_map_computes_no_residuals(rng, monkeypatch):
    # backward_residuals measures the constraint defects; the map needs none,
    # and without validate it does not evaluate the Lax matrix either
    def boom(*args, **kwargs):
        raise AssertionError("backward_map evaluated a residual")

    cases = []
    for n in (1, 2, 3):
        p = sample_params(rng, n, CFG)
        dual = sample_dual(rng, n, p)
        cases.append((dual, p, backward_map(dual, p)))
    monkeypatch.setattr(duality, "momentum_residual", boom)
    for dual, p, ref in cases:
        pt = backward_map(dual, p)
        assert np.array_equal(pt.q, ref.q) and np.array_equal(pt.p, ref.p)
    monkeypatch.setattr(duality, "_lax_K_kernel", boom)
    for dual, p, ref in cases:
        pt, _ = backward_map_full(dual, p, validate=False)
        assert np.array_equal(pt.q, ref.q) and np.array_equal(pt.p, ref.p)


def _forbid(monkeypatch, *funcs):
    """Make every bcsuth module attribute that holds one of ``funcs`` raise."""
    def make_boom(func):
        def boom(*args, **kwargs):
            raise AssertionError(f"{func.__name__} called")
        return boom

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "bcsuth":
            for attr, value in list(vars(module).items()):
                for func in funcs:
                    if value is func:
                        monkeypatch.setattr(module, attr, make_boom(func))


def test_maps_read_the_C_odd_part_off_lax_K(rng, monkeypatch):
    # lax_K is the C-odd part of Y: neither map builds Y or splits it again
    import bcsuth.matkernel as matkernel
    import bcsuth.sutherland as sutherland

    cases = []
    for n in (1, 2, 3, 4):
        p = sample_params(rng, n, CFG)
        pt = sample_sutherland(rng, n)
        cases.append((pt, p, forward_map_full(pt, p), sutherland.action_map(pt, p)))
    _forbid(monkeypatch, matkernel.gamma_split, sutherland.lax_Y)
    for pt, p, (dual, F), lam in cases:
        image, F2 = forward_map_full(pt, p)
        assert np.array_equal(image.lam, dual.lam)
        assert np.array_equal(image.theta, dual.theta)
        assert np.array_equal(F2, F)
        assert np.array_equal(sutherland.action_map(pt, p), lam)


def test_backward_map_builds_no_angle_gauge_object(rng, monkeypatch):
    # the backward map fixes the gauge in the oscillator chart: it builds
    # neither the angle-gauge core matrix nor the angle-gauge vector f
    cases = []
    for n in (1, 2, 3, 4):
        p = sample_params(rng, n, CFG)
        dual = sample_dual(rng, n, p)
        cases.append((dual, p, backward_map_full(dual, p)))
    _forbid(monkeypatch, rsvd.A_check, rsvd.f_vector)
    for dual, p, (ref, Y_ref) in cases:
        pt, Y = backward_map_full(dual, p)
        assert np.array_equal(pt.q, ref.q) and np.array_equal(pt.p, ref.p)
        assert np.array_equal(Y, Y_ref)


def test_z_chart_builds_no_oscillator_point(rng, monkeypatch):
    # the backward map and A_check read z(lambda, theta) as an array; the
    # OscillatorPoint wrapper of z_from_angles is not on their path
    cases = []
    for n in (1, 2, 3, 4):
        p = sample_params(rng, n, CFG)
        dual = sample_dual(rng, n, p)
        cases.append((dual, p, backward_map_full(dual, p)[0],
                      rsvd.A_check(dual, p).m))
    _forbid(monkeypatch, params_module.z_from_angles)
    for dual, p, ref, A_ref in cases:
        pt, _ = backward_map_full(dual, p)
        assert np.array_equal(pt.q, ref.q) and np.array_equal(pt.p, ref.p)
        assert np.array_equal(rsvd.A_check(dual, p).m, A_ref)


def _angle_gauge_backward(dual, p):
    """(q, p) through the angle gauge: the Cartan factor of B = -(h A h)^dag
    with A = A_check, V = y h f, then eta^dag Y eta and the phase zeta."""
    n = dual.n
    h = rsvd.h_matrix(dual.lam, p).h.m
    A = rsvd.A_check(dual, p, validate=False).m
    eta_s, q = cartan_decompose_gminus(-(h @ A @ h).conj().T)
    eta = eta_s.m
    y = (eta * exp_iQ_diagonal(q)) @ eta.conj().T
    V = y @ (h @ rsvd.f_vector(dual, p))
    u = (eta.conj().T @ V)[:n]
    zeta = np.r_[u.conj() / np.abs(u), u.conj() / np.abs(u)]
    Y = 1j * ((h * np.r_[dual.lam, -dual.lam]) @ h.conj().T)
    Yfinal = zeta[:, None] * (eta.conj().T @ Y @ eta) * zeta.conj()
    return q, np.imag(np.diag(Yfinal)[:n])


@pytest.mark.parametrize("n", [1, 2, 3, 4, 8])
def test_backward_map_matches_the_angle_gauge_route(n):
    # (q, p) are gauge invariants: m(theta) is central and commutes with h
    rng = np.random.default_rng(7000 + n)
    worst_q = worst_p = 0.0
    for _ in range(200):
        p = sample_params(rng, n, CFG)
        dual = sample_dual(rng, n, p)
        q_ref, p_ref = _angle_gauge_backward(dual, p)
        pt = backward_map(dual, p)
        worst_q = max(worst_q, float(np.max(np.abs(pt.q - q_ref))))
        worst_p = max(worst_p, float(np.max(np.abs(pt.p - p_ref)))
                      / max(1.0, float(np.max(np.abs(p_ref)))))
    assert worst_q <= 1e-12 and worst_p <= 1e-12, (worst_q, worst_p)


def test_backward_map_and_A_check_read_the_given_lambda(rng, monkeypatch):
    # A_tilde and phi of the backward map and of A_check are built at the
    # dual point's own lambda, not at lambda(z(lambda, theta)) recomputed
    cases = []
    for n in (1, 2, 3, 4):
        p = sample_params(rng, n, CFG)
        dual = sample_dual(rng, n, p)
        cases.append((dual, p, backward_map_full(dual, p)[0], rsvd.A_check(dual, p).m))
    _forbid(monkeypatch, params_module.lambda_of_z)
    for dual, p, ref, A_ref in cases:
        pt, _ = backward_map_full(dual, p)
        assert np.array_equal(pt.q, ref.q) and np.array_equal(pt.p, ref.p)
        assert np.array_equal(rsvd.A_check(dual, p).m, A_ref)


def _bits(a):
    """The raw words of a float or complex array: equal bits, signed zeros included."""
    return np.ascontiguousarray(a).view(np.uint64)


def test_forward_kernel_rows_match_the_point_map_bit_for_bit(rng):
    # the Richardson stencil rows of canonicity_residual around points at
    # n = 1-8, kappa = 0 at every fifth, and stencils around q_n = 1e-7 at a
    # step that keeps them inside: every row's lambda, theta and F are the
    # bits forward_map_full gives its point
    from bcsuth.dynamics import _unit_stencil

    for n in range(1, 9):
        for s in range(10):
            p = sample_params(rng, n, CFG, force_kappa_zero=(s % 5 == 0))
            q, mom = sample_sutherland(rng, n).q.copy(), rng.standard_normal(n)
            step = 1e-5
            if s % 5 == 3:
                q[-1], step = 1e-7, 1e-8
            x = np.r_[q, mom] + step * _unit_stencil(2 * n, True)
            lam, theta, F, _ = duality._forward_kernel(x[:, :n], x[:, n:], p)
            assert lam.shape == theta.shape == (8 * n, n) and F.shape == (8 * n, 2 * n)
            for row, xr in enumerate(x):
                dual, F1 = forward_map_full(SutherlandPoint(q=xr[:n], p=xr[n:]), p)
                assert np.array_equal(_bits(lam[row]), _bits(dual.lam))
                assert np.array_equal(_bits(theta[row]), _bits(dual.theta))
                assert np.array_equal(_bits(F[row]), _bits(F1))


def test_forward_kernel_degenerate_row_raises_the_error_of_its_point():
    # at n = 1, kappa = 0 the action is nu / sin(2q) at p = 0: q = pi/4 lies
    # on the wall and q = pi/4 + 1e-6 within the margin of it
    q = np.array([[0.5], [np.pi / 4], [np.pi / 4 + 1e-6]])
    p = np.array([[0.3], [0.0], [0.0]])
    with pytest.raises(DegenerateTorusError) as alone:
        forward_map_full(SutherlandPoint(q=q[1], p=p[1]), P1)
    with pytest.raises(DegenerateTorusError) as stacked:
        duality._forward_kernel(q, p, P1)
    assert str(stacked.value) == str(alone.value)
    with pytest.raises(DegenerateTorusError) as last:
        duality._forward_kernel(q[::2], p[::2], P1)
    assert str(last.value) != str(alone.value)


def _backward_cases(rng, n, count):
    """Dual points at n with couplings of their own, kappa = 0 at every fifth:
    sampled interior points and, at every third, the forward image of a
    Sutherland point with q_n = 1e-7 (its backward map trips the Lax gate)."""
    cases = []
    for s in range(count):
        p = sample_params(rng, n, CFG, force_kappa_zero=(s % 5 == 0))
        if s % 3 == 2:
            pt = sample_sutherland(rng, n)
            q = pt.q.copy()
            q[-1] = 1e-7
            cases.append((forward_map(SutherlandPoint(q=q, p=pt.p), p), p))
        else:
            cases.append((sample_dual(rng, n, p), p))
    return cases


def test_backward_kernel_rows_match_the_point_map_bit_for_bit(rng):
    # n = 1-8: every row's q, p and Y are the bits backward_map_full gives
    # its point, near-wall rows included (without the gate), and with the
    # gate on the interior rows the defect it measured is the one
    # backward_residuals measures at the point
    for n in range(1, 9):
        cases = _backward_cases(rng, n, 24)
        lam = np.array([d.lam for d, _ in cases])
        theta = np.array([d.theta for d, _ in cases])
        q, p, Y, lax = duality._backward_kernel(lam, theta, CouplingRows([p for _, p in cases]),
                                                validate=False)
        assert lax is None and Y.shape == (24, 2 * n, 2 * n)
        for i, (dual, pr) in enumerate(cases):
            pt, Y1 = backward_map_full(dual, pr, validate=False)
            for got, ref in ((q[i], pt.q), (p[i], pt.p), (Y[i], Y1)):
                assert np.array_equal(_bits(got), _bits(ref))
        inner = [i for i in range(24) if i % 3 != 2]
        q, p, Y, lax = duality._backward_kernel(
            lam[inner], theta[inner], CouplingRows([cases[i][1] for i in inner]))
        for row, i in enumerate(inner):
            dual, pr = cases[i]
            pt, Y1 = backward_map_full(dual, pr)
            assert np.array_equal(_bits(q[row]), _bits(pt.q))
            assert np.array_equal(_bits(Y[row]), _bits(Y1))
            assert _bits(lax[row]) == _bits(backward_residuals(pt, Y1, pr)[0])


def test_backward_kernel_reads_the_dual_Lax_matrix_from_one_kernel_call(rng, monkeypatch):
    # h, L = h A_tilde h and phi of a whole stack come from one _L_tilde_kernel
    # call at the points' own lambda
    lams = []
    kernel = duality._L_tilde_kernel
    monkeypatch.setattr(duality, "_L_tilde_kernel",
                        lambda z, lam, params: lams.append(lam) or kernel(z, lam, params))
    for n in (1, 2, 4):
        cases = _backward_cases(rng, n, 6)[::3]
        lam = np.array([d.lam for d, _ in cases])
        theta = np.array([d.theta for d, _ in cases])
        lams.clear()
        duality._backward_kernel(lam, theta, CouplingRows([p for _, p in cases]))
        assert len(lams) == 1 and np.array_equal(lams[0], lam)


def test_backward_kernel_failing_row_raises_the_error_of_its_point(rng):
    # a near-wall row trips the Lax gate inside a stack as it does alone
    (good, p), (wall, p_wall) = _backward_cases(rng, 3, 3)[1:]
    with pytest.raises(ConsistencyError) as alone:
        backward_map_full(wall, p_wall)
    rows = CouplingRows([p, p_wall, p])
    with pytest.raises(ConsistencyError) as stacked:
        duality._backward_kernel(np.array([good.lam, wall.lam, good.lam]),
                                 np.array([good.theta, wall.theta, good.theta]), rows)
    assert str(stacked.value) == str(alone.value)
    assert "reconstructed Lax matrix" in str(alone.value)


@pytest.mark.parametrize("richardson", [False, True])
def test_canonicity_residual_is_one_kernel_call_per_jacobian(rng, monkeypatch, richardson):
    # theta0 from the point's own map, then the whole stencil in one call
    n = 3
    p = sample_params(rng, n, CFG)
    pt = sample_sutherland(rng, n)
    expected = canonicity_residual(pt, p, scale=DUAL_PAIRING, richardson=richardson)
    kernel, stacks = duality._forward_kernel, []
    monkeypatch.setattr(duality, "_forward_kernel",
                        lambda q, *a: stacks.append(np.shape(q)) or kernel(q, *a))
    assert canonicity_residual(pt, p, scale=DUAL_PAIRING, richardson=richardson) == expected
    assert stacks == [(n,), ((8 if richardson else 4) * n, n)]
