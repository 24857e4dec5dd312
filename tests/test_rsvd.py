import mpmath
import numpy as np
import pytest

from conftest import (L_tilde_one, diag_entry_n2n_loop, dual_Hk_one, g_profiles_loop,
                      h_matrix_loop, lambda_of_z_loop, match_spectra)

from bcsuth.dynamics import _rows, fd_gradient
from bcsuth.errors import DomainError
from bcsuth.matkernel import structure_residual
from bcsuth.params import (CouplingRows, DualPoint, couplings_from_rsvd, lambda_of_z,
                           z_from_angle_rows, z_from_angles)
from bcsuth.rsvd import (A_check, A_check_direct, A_from_F, A_tilde, F_squared_branches,
                         L_tilde, _A_tilde_phi, _diag_entry_n2n, _dual_H0_kernel,
                         _g_profiles, _L_tilde_kernel, appendix_chain,
                         commutator_residual, dual_H0, dual_Hk, f_vector,
                         g_functions, grad_dual_H0, h_matrix, m_of_theta,
                         phi_vector, w_system_residual, w_weights)
from bcsuth.verification import (SuiteConfig, sample_dual, sample_params,
                                 sample_oscillator)

P1 = couplings_from_rsvd(1.0, 2.0, 0.0, 1)
CFG = SuiteConfig(suite="rsvd")


def test_h_matrix_identity_for_kappa_zero(rng):
    frame = h_matrix([5.0, 3.0], couplings_from_rsvd(1.0, 2.0, 0.0, 2))
    assert np.array_equal(frame.h.m, np.eye(4))
    # the general profiles are exactly alpha = 1, beta = 0 at kappa = 0:
    # sqrt(lambda^2) = lambda and x/x = 1 in floating point
    for n in range(1, 9):
        p = couplings_from_rsvd(1.0, 2.0, 0.0, n)
        for _ in range(50):
            lam = np.sort(10.0 ** rng.uniform(-4.0, 4.0, n))[::-1]
            assert np.array_equal(h_matrix(lam, p).h.m, np.eye(2 * n))


def test_h_matrix_profile_values():
    p = couplings_from_rsvd(1.0, 4.0, 3.0, 1)
    frame = h_matrix([5.0], p)
    assert frame.alpha[0] == pytest.approx(np.sqrt(0.9), abs=1e-14)
    assert frame.beta[0] == pytest.approx(1.0 / np.sqrt(10.0), abs=1e-14)
    assert frame.alpha[0] ** 2 + frame.beta[0] ** 2 == pytest.approx(1.0)


def test_h_matrix_is_Gminus(rng):
    for n in (1, 2, 3):
        p = sample_params(rng, n, CFG)
        dual = sample_dual(rng, n, p)
        assert structure_residual(h_matrix(dual.lam, p).h.m, "Gminus") < 1e-12


def test_h_matrix_rejects_small_lambda():
    with pytest.raises(DomainError):
        h_matrix([0.5], couplings_from_rsvd(1.0, 2.0, 1.0, 1))


def _bits(a):
    """The raw words of a float or complex array: equal bits, signed zeros included."""
    return np.ascontiguousarray(a).view(np.uint64)


def test_h_matrix_matches_the_float_loop_bit_for_bit(rng):
    # 1,200 lambda draws at n = 1-8, a fifth of them at kappa = 0 (and one
    # row exactly at |kappa|): every word of h, alpha and beta, signed zeros
    # included, is the float loop's, for a point and for each row of a stack
    for n in range(1, 9):
        for s in range(150):
            p = sample_params(rng, n, CFG, force_kappa_zero=(s % 5 == 0))
            lam = sample_dual(rng, n, p).lam.copy() if s % 2 else \
                np.sort(abs(p.kappa) + 10.0 ** rng.uniform(-3.0, 3.0, n))[::-1]
            if s == 7:
                lam[-1] = abs(p.kappa)
            frame, (h, alpha, beta) = h_matrix(lam, p), h_matrix_loop(lam, p)
            for got, ref in ((frame.h.m, h), (frame.alpha, alpha), (frame.beta, beta)):
                assert np.array_equal(_bits(got), _bits(ref))
        lams = np.sort(abs(p.kappa) + rng.uniform(0.0, 5.0, (3, 4, n)))[..., ::-1]
        stack = h_matrix(lams, p)
        assert stack.h.m.shape == (3, 4, 2 * n, 2 * n)
        for i in np.ndindex(3, 4):
            h, alpha, beta = h_matrix_loop(lams[i], p)
            assert np.array_equal(_bits(stack.h.m[i]), _bits(h))
            assert np.array_equal(_bits(stack.alpha[i]), _bits(alpha))
            assert np.array_equal(_bits(stack.beta[i]), _bits(beta))


def test_h_matrix_stack_raises_the_error_of_its_first_low_row():
    p = couplings_from_rsvd(1.0, 2.0, 1.0, 2)
    rows = np.array([[3.0, 2.0], [3.0, 0.5], [0.2, 0.1]])
    with pytest.raises(DomainError) as alone:
        h_matrix(rows[1], p)
    with pytest.raises(DomainError) as stacked:
        h_matrix(rows, p)
    assert str(stacked.value) == str(alone.value)
    assert "got [3.0, 0.5]" in str(alone.value)


def test_oscillator_profiles_match_the_float_loop_bit_for_bit(rng):
    # g and the cancelled (n, 2n) entry of A_tilde at 1,200 lambda draws,
    # n = 1-8, a fifth at kappa = 0 and some next to the walls: every word is
    # the float loop's, for a point and for each row of a stack with its own
    # couplings
    for n in range(1, 9):
        rows, lams = [], []
        for s in range(150):
            p = sample_params(rng, n, CFG, force_kappa_zero=(s % 5 == 0))
            lam = sample_dual(rng, n, p).lam
            if s % 3 == 1:  # within 1e-7 of the walls
                lam = p.nu + 1e-7 + np.arange(n)[::-1] * (2 * p.mu + 1e-7)
            assert np.array_equal(_bits(_g_profiles(lam, p)), _bits(g_profiles_loop(lam, p)))
            entry = _diag_entry_n2n(lam, p)
            assert isinstance(entry, float)
            assert _bits(entry) == _bits(diag_entry_n2n_loop(lam, p))
            rows.append(p)
            lams.append(lam)
        stack = CouplingRows(rows)
        g, entries = _g_profiles(np.array(lams), stack), _diag_entry_n2n(np.array(lams), stack)
        for i, (lam, p) in enumerate(zip(lams, rows)):
            assert np.array_equal(_bits(g[i]), _bits(g_profiles_loop(lam, p)))
            assert _bits(entries[i]) == _bits(diag_entry_n2n_loop(lam, p))


def test_A_tilde_stack_rows_are_the_bits_of_their_points(rng):
    # A_tilde and phi over a stack of dual points, each row with its own
    # couplings (kappa = 0 at every fifth), against one point at a time
    for n in range(1, 9):
        rows = [sample_params(rng, n, CFG, force_kappa_zero=(s % 5 == 0)) for s in range(20)]
        duals = [sample_dual(rng, n, p) for p in rows]
        lam = np.array([d.lam for d in duals])
        stack = CouplingRows(rows)
        z = z_from_angle_rows(lam, np.array([d.theta for d in duals]), stack)
        A, phi = _A_tilde_phi(z, lam, stack)
        for i, (d, p) in enumerate(zip(duals, rows)):
            A1, phi1 = _A_tilde_phi(z_from_angles(d, p).z, d.lam, p)
            assert np.array_equal(_bits(A[i]), _bits(A1))
            assert np.array_equal(_bits(phi[i]), _bits(phi1))


def test_dual_Lax_stack_rows_match_the_float_loop_bit_for_bit(rng):
    # lambda(z), g, phi, A_tilde, L_tilde, dual_Hk and the kernel's (h, L, phi)
    # over stacks of 20 z at n = 1-8: z = 0 in the first row, where lambda_j =
    # nu + 2(n - j)mu, components zeroed at random in the others, kappa = 0 at
    # every fifth row; shared couplings (with kappa = 0 and without) and one
    # triple per row.  Every row is the bits of its point's reference
    for n in range(1, 9):
        rows = [sample_params(rng, n, CFG, force_kappa_zero=(s % 5 == 0)) for s in range(20)]
        z = rng.standard_normal((20, n)) + 1j * rng.standard_normal((20, n))
        z[rng.uniform(size=(20, n)) < 0.3] = 0.0
        z[0] = 0.0
        for stack in (rows[0], rows[1], CouplingRows(rows)):
            per_row = isinstance(stack, CouplingRows)
            lam = lambda_of_z(z, stack)
            h, L, phi = _L_tilde_kernel(z, lam, stack)
            got = {"lambda": lam, "g": g_functions(z, stack), "phi": phi_vector(z, stack),
                   "A": A_tilde(z, stack).m, "L": L_tilde(z, stack).m, "Hk": dual_Hk(z, stack),
                   "kernel h": h, "kernel L": L, "kernel phi": phi}
            assert got["Hk"].shape == (20, n) and L.shape == (20, 2 * n, 2 * n)
            p0 = rows[0] if per_row else stack
            assert np.array_equal(lam[0], p0.nu + 2 * p0.mu * np.arange(n - 1, -1, -1))
            for i, zi in enumerate(z):
                p = rows[i] if per_row else stack
                lam1 = lambda_of_z_loop(zi, p)
                A1, phi1 = _A_tilde_phi(zi, lam1, p)
                h1 = h_matrix_loop(lam1, p)[0]
                ref = {"lambda": lam1, "g": g_profiles_loop(lam1, p), "phi": phi1, "A": A1,
                       "L": L_tilde_one(zi, p), "Hk": dual_Hk_one(zi, p),
                       "kernel h": h1, "kernel L": h1 @ A1 @ h1, "kernel phi": phi1}
                for key, value in ref.items():
                    assert np.array_equal(_bits(got[key][i]), _bits(value)), (n, i, key)
            if not per_row:  # any leading axes, and one point, give the same bits
                assert np.array_equal(_bits(dual_Hk(z.reshape(4, 5, n), stack, kmax=1)),
                                      _bits(got["Hk"][:, :1].reshape(4, 5, 1)))
                assert np.array_equal(_bits(L_tilde(z[3], stack).m), _bits(L[3]))
                assert np.array_equal(_bits(lambda_of_z(z[3], stack)), _bits(lam[3]))


def test_f_vector_single_particle():
    lam = np.sqrt(5.0)
    dual = DualPoint(lam=[lam], theta=[0.0])
    f = f_vector(dual, P1)
    assert f[0] == pytest.approx(np.sqrt(1 - 2 / lam))
    assert f[1] == pytest.approx(np.sqrt(1 + 2 / lam))
    assert np.vdot(f, f).real == pytest.approx(2.0, abs=1e-13)


def test_f_vector_moduli_equal_plus_branch(rng):
    for n in (1, 2, 3, 4):
        p = sample_params(rng, n, CFG)
        dual = sample_dual(rng, n, p)
        f = f_vector(dual, p)
        Fsq_plus, _ = F_squared_branches(dual.lam, p)
        assert np.max(np.abs(np.abs(f) ** 2 - Fsq_plus)) < 1e-12


def test_branch_values_single_particle():
    # w = 1 at n = 1, so the moduli equal the branch values themselves;
    # 2*mu - nu = 0 collapses the minus branch to (-1, -1)
    Fsq_plus, Fsq_minus = F_squared_branches([3.0], P1)
    assert Fsq_plus == pytest.approx([1.0 / 3.0, 5.0 / 3.0])
    assert Fsq_minus == pytest.approx([-1.0, -1.0])
    assert Fsq_plus.sum() == pytest.approx(2.0, abs=1e-14)
    assert Fsq_minus.sum() == pytest.approx(-2.0, abs=1e-14)


def test_sum_identities_random(rng):
    for n in (1, 2, 3, 4):
        p = sample_params(rng, n, CFG)
        dual = sample_dual(rng, n, p)
        Fsq_plus, Fsq_minus = F_squared_branches(dual.lam, p)
        assert abs(Fsq_plus.sum() - 2 * n) < 1e-10
        assert abs(Fsq_minus.sum() + 2 * n) < 1e-10


def test_w_system_residuals_both_branches(rng):
    for n in (1, 2, 3, 4):
        p = sample_params(rng, n, CFG)
        dual = sample_dual(rng, n, p)
        Fsq_plus, Fsq_minus = F_squared_branches(dual.lam, p)
        assert max(w_system_residual(dual.lam, Fsq_plus, p)) < 1e-9
        assert max(w_system_residual(dual.lam, Fsq_minus, p)) < 1e-9


def test_w_system_detects_perturbation(rng):
    p = sample_params(rng, 2, CFG)
    dual = sample_dual(rng, 2, p)
    Fsq_plus, _ = F_squared_branches(dual.lam, p)
    bad = Fsq_plus.copy()
    bad[0] += 1e-3
    assert max(w_system_residual(dual.lam, bad, p)) > 1e-4


def test_minus_branch_sign_obstruction(rng):
    for n in (1, 2, 3):
        p = sample_params(rng, n, CFG)
        dual = sample_dual(rng, n, p)
        Fsq_plus, Fsq_minus = F_squared_branches(dual.lam, p)
        assert np.all(Fsq_plus > 0)
        for c in range(n):
            assert Fsq_minus[c] < 0 or Fsq_minus[n + c] < 0


def test_A_check_unitary_and_commutator(rng):
    for n in (1, 2, 3, 4):
        p = sample_params(rng, n, CFG)
        dual = sample_dual(rng, n, p)
        A = A_check(dual, p).m
        assert structure_residual(A, "Gminus") < 1e-10
        f = f_vector(dual, p)
        assert commutator_residual(A, f, dual.lam, p) < 1e-10
        assert abs(np.linalg.det(A) - 1.0) < 1e-10


def test_A_check_single_particle_trace():
    lam = np.sqrt(5.0)
    dual = DualPoint(lam=[lam], theta=[0.0])
    h = h_matrix(dual.lam, P1).h.m
    A = A_check(dual, P1).m
    val = np.trace(h @ A @ h).real / 2.0
    assert val == pytest.approx(1.0 / np.sqrt(5.0), abs=1e-13)


def test_A_check_smooth_route_matches_direct(rng):
    for n in (1, 2, 3):
        p = sample_params(rng, n, CFG)
        dual = sample_dual(rng, n, p)
        A1 = A_check(dual, p).m
        A2 = A_check_direct(dual, p)
        assert np.max(np.abs(A1 - A2)) < 1e-9


def test_dual_H0_closed_form_single_particle():
    lam = np.sqrt(5.0)
    assert dual_H0(DualPoint(lam=[lam], theta=[np.pi / 2]), P1) \
        == pytest.approx(0.0, abs=1e-13)
    assert dual_H0(DualPoint(lam=[lam], theta=[0.0]), P1) \
        == pytest.approx(1.0 / np.sqrt(5.0), abs=1e-13)


def test_dual_H0_vanishes_towards_wall():
    # the boundary factor kills the Hamiltonian as lambda -> nu
    val = dual_H0(DualPoint(lam=[2.0 + 1e-7], theta=[0.3]), P1)
    assert abs(val) < 1e-3


def test_dual_H0_kernel_equals_dual_point_route_bit_for_bit(rng):
    # the raw kernel reduces theta with Python's float %; DualPoint with
    # canonical_angle's numpy %.  Both must give the same H0 to the last bit,
    # also where theta rounds up to 2*pi.
    edges = [0.0, -1e-17, 2 * np.pi, -2 * np.pi, 4 * np.pi - 1e-15]
    for i in range(20000):
        n = 1 + i % 3
        p = sample_params(rng, n, CFG)
        lam = sample_dual(rng, n, p).lam
        theta = rng.uniform(-20.0, 20.0, n)
        if i < len(edges):
            theta[0] = edges[i]
        assert _dual_H0_kernel(lam, theta, p) \
            == dual_H0(DualPoint(lam=lam, theta=theta), p)


def test_dual_H0_matches_trace_random(rng):
    for n in (1, 2, 3):
        p = sample_params(rng, n, CFG)
        dual = sample_dual(rng, n, p)
        h = h_matrix(dual.lam, p).h.m
        A = A_check(dual, p, validate=False).m
        ref = np.trace(h @ A @ h).real / 2.0
        assert dual_H0(dual, p) == pytest.approx(ref, abs=1e-10)


def test_grad_dual_H0_matches_richardson_fd(rng):
    for n in (1, 2, 3, 4, 8):
        for kappa_frac in (0.0, 0.6, -0.8):
            p = sample_params(rng, n, CFG)
            p = couplings_from_rsvd(p.mu, p.nu, kappa_frac * p.nu, n)
            dual = sample_dual(rng, n, p)
            x = np.r_[dual.lam, dual.theta]
            ref = fd_gradient(
                _rows(lambda x: dual_H0(DualPoint(lam=x[:n], theta=x[n:]), p)),
                x, 1e-5, richardson=True)
            dlam, dtheta = grad_dual_H0(dual.lam, dual.theta, p)
            err = np.max(np.abs(np.r_[dlam, dtheta] - ref))
            assert err <= 1e-8 * np.max(np.abs(ref)), (n, kappa_frac, err)


def test_grad_dual_H0_refuses_points_off_the_chamber():
    p = couplings_from_rsvd(1.0, 2.0, 0.5, 2)
    grad_dual_H0([5.0, 2.0 + 1e-6], [0.1, 0.2], p)
    for lam in ([5.0, 2.0 + 1e-10], [5.0, 1.9], [5.0 + 1e-10, 3.0]):
        with pytest.raises(DomainError):
            grad_dual_H0(lam, [0.1, 0.2], p)
        with pytest.raises(DomainError):
            dual_H0(DualPoint(lam=lam, theta=[0.1, 0.2]), p)


def test_g_functions_positive_everywhere(rng):
    for n in (1, 2, 3):
        p = sample_params(rng, n, CFG)
        for _ in range(20):
            z = sample_oscillator(rng, n).z.copy()
            z[rng.integers(0, n)] *= rng.integers(0, 2)
            g = g_functions(z, p)
            assert np.all(g > 0)


def test_g_functions_single_particle_value():
    p = couplings_from_rsvd(1.0, 2.0, 0.0, 1)
    g = g_functions(np.array([1.0 + 0j]), p)
    assert g[0] == pytest.approx(np.sqrt(1.0 / 3.0), abs=1e-14)


def test_m_of_theta_identity():
    assert np.array_equal(m_of_theta(np.zeros(3)), np.eye(6))


def test_f_factorizes_through_g(rng):
    for n in (1, 2, 3):
        p = sample_params(rng, n, CFG)
        dual = sample_dual(rng, n, p)
        z = z_from_angles(dual, p).z
        g = g_functions(z, p)
        f = f_vector(dual, p)
        zprev = np.r_[1.0 + 0j, z[:-1]]
        ref = np.r_[np.abs(z) * g[:n],
                    np.exp(1j * dual.theta) * np.abs(zprev) * g[n:]]
        assert np.max(np.abs(f - ref)) < 1e-12
        phi = phi_vector(z, p)
        m = np.diag(m_of_theta(dual.theta))
        assert np.max(np.abs(phi - m * f)) < 1e-12


def test_A_tilde_superdiagonal_relation(rng):
    for n in (2, 3):
        p = sample_params(rng, n, CFG)
        z = sample_oscillator(rng, n).z
        A = A_tilde(z, p).m
        g = g_functions(z, p)
        for k in range(n - 1):
            ref = -2.0 * p.mu * g[k] * g[n + k + 1]
            assert A[k, k + 1] == pytest.approx(ref, abs=1e-13)
            assert A[n + k + 1, n + k] == pytest.approx(ref, abs=1e-13)


def test_A_tilde_at_origin_single_particle():
    A = A_tilde(np.zeros(1, complex), P1).m
    assert np.allclose(A, [[0.0, -1.0], [1.0, 0.0]], atol=1e-14)
    L = L_tilde(np.zeros(1, complex), P1).m
    assert structure_residual(L, "unitary") < 1e-12


def test_L_tilde_unitary_on_full_chart(rng):
    for n in (1, 2, 3):
        p = sample_params(rng, n, CFG)
        for _ in range(10):
            z = sample_oscillator(rng, n).z.copy()
            z[rng.integers(0, n)] *= rng.integers(0, 2)
            L = L_tilde(z, p).m
            assert structure_residual(L, "Gminus") < 1e-10


def test_L_tilde_smooth_through_removable_singularity():
    # with mu > nu the last action can cross the value mu, where the raw
    # diagonal entry is 0/0; the smooth route must stay unitary through it
    p = couplings_from_rsvd(1.5, 1.0, 0.2, 2)
    for eps in (0.5, 1e-3, 1e-7, 1e-12, 0.0):
        z = np.array([1.3 * np.exp(0.7j),
                      np.sqrt(p.mu + eps - p.nu) * np.exp(0.3j)])
        L = L_tilde(z, p).m
        assert structure_residual(L, "unitary") < 1e-12


def _diag_entry_n2n_mp(lam, params):
    """The (n, 2n) entry of A_tilde from its direct quotient at 50 digits,
    and at lambda_n = mu from the derivative of the numerator there."""
    mp = mpmath.mp
    with mpmath.workdps(50):
        mu, nu = mp.mpf(params.mu), mp.mpf(params.nu)
        head = [mp.mpf(y) for y in lam[:-1]]

        def num(x):
            gtil = 1 / x
            for y in head:
                gtil *= ((x - 2 * mu) ** 2 - y**2) / (x**2 - y**2)
            return (mu - nu) - mu * (x - nu) * gtil
        x = mp.mpf(lam[-1])
        return mp.diff(num, mu) if x == mu else num(x) / (x - mu)


def test_diag_entry_n2n_matches_mpmath_near_lambda_n_equal_mu(rng):
    # the removable singularity at lambda_n = mu is divided out exactly, so
    # the entry keeps full precision at every distance from it
    worst = 0.0
    for n in (1, 2, 3, 4):
        for i in range(400):
            mu = 10.0 ** rng.uniform(-1.0, 1.0)
            nu = mu * rng.uniform(0.05, 0.95)
            p = couplings_from_rsvd(mu, nu, rng.uniform(-0.9, 0.9) * nu, n)
            gap = 0.0 if i < 20 else 10.0 ** rng.uniform(-12.0, 0.0) * max(1.0, mu)
            x = mu - gap if mu - gap >= nu and rng.uniform() < 0.5 else mu + gap
            lam = np.empty(n)
            lam[-1] = x
            for k in range(n - 2, -1, -1):
                lam[k] = lam[k + 1] + 2 * mu + rng.uniform(0.0, 3.0) * max(1.0, mu)
            exact = _diag_entry_n2n_mp(lam, p)
            err = abs((_diag_entry_n2n(lam, p) - exact) / exact)
            worst = max(worst, float(err))
    assert worst <= 1e-15


def _A_tilde_mp(z, params):
    """A_tilde from its per-block entry formulas at 50 digits.

    The four n x n blocks in terms of z, the g profiles and lambda(z), with
    the cancelled forms at the (1,1) superdiagonal, the (2,2) subdiagonal
    and the (n, 2n) entry (see :func:`_diag_entry_n2n_mp`).
    """
    mp = mpmath.mp
    with mpmath.workdps(50):
        n = len(z)
        mu, nu = mp.mpf(params.mu), mp.mpf(params.nu)
        zs = [mp.mpc(complex(w)) for w in z]
        zc = [w.conjugate() for w in zs]
        zprev = [mp.mpc(1)] + zs[:-1]
        lam = [nu + 2 * (n - 1 - k) * mu + sum(abs(w) ** 2 for w in zs[k:])
               for k in range(n)]
        g = [None] * (2 * n)
        for c, x in enumerate(lam):
            val = (x - nu) / x / (x - lam[c + 1]) if c < n - 1 else 1 / x
            for a, y in enumerate(lam):
                if a != c:
                    if a != c + 1:
                        val *= (x - y - 2 * mu) / (x - y)
                    val *= (x + y - 2 * mu) / (x + y)
            g[c] = mp.sqrt(val)
            val = (x + nu) / x / (lam[c - 1] - x) if c > 0 else (x + nu) / x
            for a, y in enumerate(lam):
                if a != c:
                    if a != c - 1:
                        val *= (x - y + 2 * mu) / (x - y)
                    val *= (x + y + 2 * mu) / (x + y)
            g[n + c] = mp.sqrt(val)
        A = mp.matrix(2 * n, 2 * n)
        for a in range(n):
            for b in range(n):
                A[a, b] = (-2 * mu * g[a] * g[n + b] if b == a + 1 else
                           -2 * mu * zc[a] * zprev[b] * g[a] * g[n + b]
                           / (lam[a] - lam[b] - 2 * mu))
                if a != n - 1 or b != n - 1:
                    A[a, n + b] = (-2 * mu * zc[a] * zs[b] * g[a] * g[b]
                                   / (lam[a] + lam[b] - 2 * mu))
                A[n + a, b] = (2 * mu * zprev[a].conjugate() * zprev[b] * g[n + a]
                               * g[n + b] / (lam[a] + lam[b] + 2 * mu))
                A[n + a, n + b] = (-2 * mu * g[b] * g[n + a] if a == b + 1 else
                                   2 * mu * zprev[a].conjugate() * zs[b] * g[n + a]
                                   * g[b] / (lam[a] - lam[b] + 2 * mu))
            A[n + a, a] -= (mu - nu) / (lam[a] + mu)
            if a < n - 1:
                A[a, n + a] += (mu - nu) / (lam[a] - mu)
        A[n - 1, 2 * n - 1] = _diag_entry_n2n_mp(lam, params)
        return np.array(A.tolist(), dtype=complex)


def test_A_tilde_matches_mpmath_block_formulas(rng):
    # an independent reference for the Cauchy form and its 2n - 1 cancelled
    # entries: zeroed z components put entries on the resonance set, and
    # z_n = 1 with mu - nu = 1 puts lambda_n exactly at mu
    worst = 0.0
    for n in (1, 2, 3):
        for i in range(30):
            p = sample_params(rng, n, CFG)
            z = sample_oscillator(rng, n).z.copy()
            if i % 3:
                z[rng.choice(n, size=rng.integers(1, n + 1), replace=False)] = 0.0
            if i == 0:
                p = couplings_from_rsvd(1.5, 0.5, 0.2, n)
                z[-1] = 1.0
            exact = _A_tilde_mp(z, p)
            err = np.max(np.abs(A_tilde(z, p).m - exact)) / np.max(np.abs(exact))
            worst = max(worst, float(err))
    assert worst <= 1e-14


def test_A_tilde_equals_raw_formula_off_resonance(rng):
    # at n = 4 and 8 the cancelled entries reach a = n - 2; off the resonance
    # set they agree with the raw quotient.  That quotient loses about
    # eps * max(lambda) / |d| at a denominator d, so every |z_a| >= 1 keeps
    # each resonance denominator at least 1 away from zero
    for n in (4, 8):
        for _ in range(20):
            p = sample_params(rng, n, CFG)
            z = rng.uniform(1.0, 2.0, n) * np.exp(2j * np.pi * rng.uniform(size=n))
            A = A_tilde(z, p).m
            raw = A_from_F(phi_vector(z, p), lambda_of_z(z, p), p)
            assert np.max(np.abs(A - raw)) <= 1e-14 * np.max(np.abs(A))
            z[rng.choice(n, size=rng.integers(1, n + 1), replace=False)] = 0.0
            assert structure_residual(L_tilde(z, p).m, "Gminus") <= 1e-10


def test_A_from_F_refuses_where_it_would_lose_digits(rng):
    # with |z_a|^2 = lambda_a - lambda_(a+1) - 2mu the denominator of entry
    # (a, a+1) is -|z_a|^2; the raw quotient loses about eps max(lambda) /
    # min|den| of max|A|, so it refuses below 1e-5 max(1, max lambda)
    n = 8
    for _ in range(10):
        p = sample_params(rng, n, CFG)
        z = rng.uniform(1.0, 2.0, n) * np.exp(2j * np.pi * rng.uniform(size=n))
        a = int(rng.integers(0, n - 1))
        z[a] = 0.0
        bound = 1e-5 * lambda_of_z(z, p)[0]
        z[a] = np.sqrt(0.99 * bound)
        with pytest.raises(DomainError):
            A_from_F(phi_vector(z, p), lambda_of_z(z, p), p)
        z[a] = np.sqrt(1.01 * bound)
        A = A_tilde(z, p).m
        raw = A_from_F(phi_vector(z, p), lambda_of_z(z, p), p)
        assert np.max(np.abs(A - raw)) <= 1e-10 * np.max(np.abs(A))


def test_commutator_residual_scales_with_each_entry(rng):
    # (2mu A + A Lam - Lam A)_jk = A_jk (2mu + L_k - L_j): a defect delta at
    # one entry of the exact solution shows as |delta| |2mu + L_k - L_j|
    for n in (1, 2, 3, 4):
        for _ in range(10):
            p = sample_params(rng, n, CFG)
            lam = sample_dual(rng, n, p).lam
            F = rng.standard_normal(2 * n) + 1j * rng.standard_normal(2 * n)
            A = A_from_F(F, lam, p)
            L = np.r_[lam, -lam]
            den = 2 * p.mu + L[None, :] - L[:, None]
            scale = np.max(np.abs(A)) * np.max(np.abs(den))
            assert commutator_residual(A, F, lam, p) <= 1e-14 * n * scale
            j, k = rng.integers(0, 2 * n, size=2)
            delta = 1e-3 * np.exp(2j * np.pi * rng.uniform())
            A[j, k] += delta
            expected = abs(delta) * abs(den[j, k])
            assert (abs(commutator_residual(A, F, lam, p) - expected)
                    <= 1e-14 * n * scale)


def test_L_tilde_spectrum_matches_angle_chart(rng):
    for n in (1, 2, 3):
        p = sample_params(rng, n, CFG)
        dual = sample_dual(rng, n, p)
        z = z_from_angles(dual, p).z
        L = L_tilde(z, p).m
        h = h_matrix(dual.lam, p).h.m
        ref = h @ A_check(dual, p, validate=False).m @ h
        assert match_spectra(np.linalg.eigvals(L), np.linalg.eigvals(ref)) < 1e-10


def test_dual_Hk_at_origin():
    # H1 at the oscillator origin equals the trace value of the origin matrix
    vals = dual_Hk(np.zeros(1, complex), P1, kmax=1)
    assert vals[0] == pytest.approx(0.0, abs=1e-14)


def test_appendix_chain_plus_branch(rng):
    for n in (1, 2, 3, 4):
        p = sample_params(rng, n, CFG)
        dual = sample_dual(rng, n, p)
        f = f_vector(dual, p)
        for a in range(n):
            chain = appendix_chain(f, dual.lam, p, a=a)
            assert "minor_identity_1" in chain  # unitary route ran
            assert max(chain.values()) < 1e-8


def test_appendix_chain_minus_branch_equations(rng):
    # the minus branch is not realizable by a vector (negative moduli), but
    # its signed branch values satisfy the same two polynomial equations
    for n in (1, 2, 3):
        p = sample_params(rng, n, CFG)
        dual = sample_dual(rng, n, p)
        _, Fsq_minus = F_squared_branches(dual.lam, p)
        assert max(w_system_residual(dual.lam, Fsq_minus, p)) < 1e-9


def test_f_vector_requires_interior():
    with pytest.raises(DomainError):
        f_vector(DualPoint(lam=[2.0], theta=[0.0]), P1)


def test_w_weights_positive_inside(rng):
    for n in (2, 3):
        p = sample_params(rng, n, CFG)
        dual = sample_dual(rng, n, p)
        assert np.all(w_weights(dual.lam, p) > 0)


def test_stress_n8(rng):
    # larger-system stress: structure and unitarity residuals stay at 1e-10
    from bcsuth.matkernel import pair_diagonalize_gminus, random_gminus_algebra

    n = 8
    p = sample_params(rng, n, CFG)
    dual = sample_dual(rng, n, p)
    A = A_check(dual, p).m
    assert structure_residual(A, "Gminus") < 1e-10
    z = z_from_angles(dual, p).z
    assert structure_residual(L_tilde(z, p).m, "Gminus") < 1e-10
    Y = random_gminus_algebra(rng, n)
    spec = pair_diagonalize_gminus(Y)
    d = spec.values
    g = spec.frame.m
    recon = g @ (1j * np.diag(np.r_[d, -d])) @ g.conj().T
    assert np.linalg.norm(recon - Y) < 1e-10
