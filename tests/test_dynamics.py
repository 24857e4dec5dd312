import json
import math
from dataclasses import replace

import numpy as np
import pytest
from conftest import dual_Hk_one, lax_K_loop

from bcsuth.duality import DUAL_PAIRING, backward_map, backward_map_full, forward_map_full
import bcsuth.dynamics as dynamics
import bcsuth.rsvd as rsvd
from bcsuth.dynamics import (NEWTON_TOL, STATS, FlowSpec, angle_linearity_check,
                             default_monitors, fd_gradient,
                             hamiltonian_function, implicit_midpoint_step,
                             integrate, poisson_bracket_fd, vector_field)
from bcsuth.errors import (BoundaryApproachError, DegenerateTorusError,
                           DomainError, NonConvergenceError)
from bcsuth.matkernel import exchange_matrix
from bcsuth.params import (DualPoint, SutherlandPoint, couplings_from_rsvd,
                           lambda_of_z, require_inside, z_from_angles)
from bcsuth.sutherland import action_map, closed_form_H1, hamiltonians
from bcsuth.verification import (SuiteConfig, run_suite, sample_dual,
                                 sample_lambda, sample_params,
                                 sample_sutherland)

P1 = couplings_from_rsvd(1.0, 2.0, 0.0, 1)
CFG = SuiteConfig(suite="dynamics")


def test_flow_spec_validation():
    with pytest.raises(ValueError):
        FlowSpec(system="bogus", chart="qp", dt=1e-3, T=1.0)
    with pytest.raises(ValueError):
        FlowSpec(system="sutherland_H1", chart="qp", dt=2.0, T=1.0)
    for system, chart in (("sutherland_Hk", "qp"), ("dual_Hk", "lambda_theta")):
        with pytest.raises(ValueError, match="analytic gradients exist only"):
            FlowSpec(system=system, chart=chart, dt=1e-3, T=1.0, k=2)
        FlowSpec(system=system, chart=chart, dt=1e-3, T=1.0, k=2, gradient="fd")
    FlowSpec(system="dual_H0", chart="lambda_theta", dt=1e-3, T=1.0)
    for system, chart in (("dual_H0", "qp"), ("sutherland_H1", "lambda_theta")):
        with pytest.raises(ValueError, match="is defined in the"):
            FlowSpec(system=system, chart=chart, dt=1e-3, T=1.0)


@pytest.mark.parametrize("fd_step", [0.0, -1e-6, math.nan, math.inf])
def test_flow_spec_refuses_an_fd_step_that_is_not_finite_and_positive(fd_step):
    # a zero step divided by zero in the stencil, a NaN one surfaced as a
    # degenerate torus at lambda = [nan]
    with pytest.raises(ValueError, match="fd_step must be finite and > 0"):
        FlowSpec(system="dual_H0", chart="lambda_theta", dt=1e-3, T=0.01,
                 gradient="fd", fd_step=fd_step)


def test_flow_spec_requires_a_whole_number_of_steps():
    # a fractional T / dt used to end the trajectory short of T
    for dt, T in ((0.03, 0.1), (0.3, 1.0)):
        with pytest.raises(ValueError, match="T / dt must be an integer"):
            FlowSpec(system="sutherland_H1", chart="qp", dt=dt, T=T)
    flow = FlowSpec(system="sutherland_H1", chart="qp", dt=0.025, T=0.1)
    traj = integrate(flow, np.array([np.pi / 4, 1.0]), P1)
    assert traj.times[-1] == pytest.approx(0.1, rel=1e-12)


def _counting_fd_gradient(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return fd_gradient(*args, **kwargs)
    monkeypatch.setattr(dynamics, "fd_gradient", counted)
    return calls


def test_sweeps_stop_when_converged(rng, monkeypatch):
    # a typical orbit, its start drawn on the dual side: each sweep gains
    # about two digits, so a step from the Euler predictor takes about five
    # evaluations of f (5.2 per step measured on such orbits).  Newton
    # belongs only to the few steps next to a wall, where a sweep shrinks the
    # increment by less than half.
    n = 2
    p = sample_params(rng, n, CFG)
    dual = DualPoint(lam=sample_lambda(rng, n, p),
                     theta=rng.uniform(0, 2 * np.pi, n))
    pt = backward_map(dual, p)
    f = vector_field(FlowSpec(system="sutherland_H1", chart="qp", dt=1e-3,
                              T=0.2), p)
    evals = []

    def counted_f(x):
        evals.append(1)
        return f(x)
    jacobians = _counting_fd_gradient(monkeypatch)
    x = np.r_[pt.q, pt.p]
    for _ in range(200):
        x0 = x
        x = implicit_midpoint_step(counted_f, x0, 1e-3)
        defect = x - x0 - 1e-3 * f(0.5 * (x0 + x))
        assert np.linalg.norm(defect) <= 1e-13 * max(1.0, np.linalg.norm(x))
    assert len(evals) / 200 < 10
    assert len(jacobians) <= 10


def test_stalled_sweeps_fall_back_to_newton(monkeypatch):
    # a stiff linear field: each sweep shrinks the increment by dt*omega/2 =
    # 0.75 only, so the second sweep hands the step to Newton, which solves it
    dt, omega = 0.1, 15.0
    A = np.array([[0.0, 1.0], [-omega**2, 0.0]])
    x0 = np.array([1.0, 0.5])
    jacobians = _counting_fd_gradient(monkeypatch)
    evals = []

    def f(x):
        if not jacobians:
            evals.append(1)
        return A @ x
    x1 = implicit_midpoint_step(f, x0, dt)
    assert len(jacobians) == 1
    assert len(evals) == 4  # Euler predictor, two sweeps, Newton's residual
    defect = x1 - x0 - dt * A @ (0.5 * (x0 + x1))
    assert np.linalg.norm(defect) <= 1e-13 * max(1.0, np.linalg.norm(x1))
    exact = np.linalg.solve(np.eye(2) - 0.5 * dt * A, x0 + 0.5 * dt * A @ x0)
    assert np.max(np.abs(x1 - exact)) < 1e-13
    # x1 = dt (1 + ((x0 + x1)/2)^2) has no real root at dt = 2, x0 = 0
    with pytest.raises(NonConvergenceError):
        implicit_midpoint_step(lambda x: 1.0 + x**2, np.array([0.0]), 2.0)


def test_alternating_sweeps_stay_off_newton(rng):
    # in the (q, p) chart strong and weak sweeps alternate, so an increment
    # is compared with the one two sweeps back: this H_1 orbit converges by
    # sweeps alone at every step, where a one-back comparison builds Newton
    # Jacobians on hundreds of them
    flow, x0, p = _flow_start(rng, "sutherland_H1", 3, T=2.0)
    traj = integrate(flow, x0, p)
    assert traj.stats["steps"] == 2000
    assert traj.stats["jacobians"] == 0


def test_default_start_is_the_euler_predictor(rng):
    # the first sweep from x0 evaluates f at (x0 + x0)/2 = x0, which is the
    # Euler predictor bit for bit, so the step is the one started from it
    for system in ("sutherland_H1", "dual_H0"):
        for n in (1, 2, 3):
            flow, x, p = _flow_start(rng, system, n)
            f = vector_field(flow, p)
            for _ in range(50):
                x1 = implicit_midpoint_step(f, x, flow.dt)
                euler = implicit_midpoint_step(f, x, flow.dt,
                                               start=x + flow.dt * f(x))
                assert np.array_equal(x1, euler)
                x = x1


def test_time_reversal_returns_to_start():
    # verify's 2000-step H_1 orbits at n = 1, 2, 3, stepped back with the same
    # rule; steps solved to the tolerance retrace them to roundoff
    report = run_suite(SuiteConfig(suite="dynamics", seed=42))
    row, = [c for c in report.checks if c.name == "dynamics.time_reversal"]
    assert row.max_residual < 1e-12


def test_equilibrium_is_stationary():
    flow = FlowSpec(system="sutherland_H1", chart="qp", dt=1e-3, T=0.5)
    traj = integrate(flow, np.array([np.pi / 4, 0.0]), P1)
    assert np.max(np.abs(traj.states - traj.states[0])) < 1e-12


def test_energy_conservation_and_reversal():
    # the midpoint rule's energy oscillation is O(dt^2) with a constant set by
    # the trajectory's distance from equilibrium; a moderate orbit sits well
    # below 1e-8 at this step size
    flow = FlowSpec(system="sutherland_H1", chart="qp", dt=1e-3, T=2.0,
                    monitor_stride=50)
    x0 = np.array([np.pi / 4, 0.3])
    traj = integrate(flow, x0, P1)
    H = traj.monitors["H_flow"]
    assert np.max(np.abs(H - H[0])) < 1e-8
    f = vector_field(flow, P1)
    back = traj.states[-1].copy()
    for _ in range(traj.states.shape[0] - 1):
        back = implicit_midpoint_step(f, back, -flow.dt)
    assert np.max(np.abs(back - x0)) < 1e-9


def test_action_conservation_along_flow():
    flow = FlowSpec(system="sutherland_H1", chart="qp", dt=1e-3, T=2.0,
                    monitor_stride=100)
    traj = integrate(flow, np.array([np.pi / 4, 1.0]), P1)
    lam = traj.monitors["lambda1"]
    assert np.max(np.abs(lam - np.sqrt(5.0))) < 1e-6


def test_boundary_abort():
    # aim a fast particle at the wall; the integrator must stop cleanly
    flow = FlowSpec(system="sutherland_H1", chart="qp", dt=1e-3, T=2.0,
                    boundary_margin=0.1)
    with pytest.raises(BoundaryApproachError) as exc:
        integrate(flow, np.array([0.8, 20.0]), P1)
    partial = exc.value.partial
    assert partial is not None and partial.times.size > 1


def test_canonical_coordinate_brackets(rng):
    n = 2
    x0 = np.array([1.0, 0.5, 0.3, -0.2])
    table = poisson_bracket_fd(lambda x: x[..., :n], lambda x: x[..., n:], x0,
                               step=1e-5)
    for i in range(n):
        for j in range(n):
            assert table[i, j] == pytest.approx(1.0 if i == j else 0.0, abs=1e-9)


def test_bracket_of_families_of_different_sizes():
    # {q_i, p_j} = delta_ij and {q_i, q_j} = 0: a 2 x 3 table
    x0 = np.array([0.9, 0.4, 0.1, 0.7, -0.3, 0.5])
    table = poisson_bracket_fd(lambda x: x[..., :2], lambda x: x[..., [3, 4, 2]],
                               x0, step=1e-5)
    assert table.shape == (2, 3)
    assert np.allclose(table, [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], atol=1e-9)


def test_bracket_of_scalar_maps_is_one_by_one():
    # {q p, q} = -q at (q, p) = (0.6, 1.3)
    table = poisson_bracket_fd(lambda x: x[..., 0] * x[..., 1], lambda x: x[..., 0],
                               np.array([0.6, 1.3]), step=1e-5)
    assert table.shape == (1, 1)
    assert table[0, 0] == pytest.approx(-0.6, abs=1e-9)


def test_bracket_of_a_map_with_itself_builds_one_jacobian(monkeypatch):
    calls = []
    fd = dynamics.fd_gradient
    monkeypatch.setattr(dynamics, "fd_gradient",
                        lambda *a, **k: calls.append(1) or fd(*a, **k))
    x0 = np.array([0.3, -0.8, 1.1, 0.2])

    @dynamics._rows
    def H(x):
        return np.array([x @ x, x[0] * x[3] - x[1] * x[2]])

    table = poisson_bracket_fd(H, H, x0)
    assert len(calls) == 1
    assert np.array_equal(table, poisson_bracket_fd(H, lambda x: H(x), x0))
    assert len(calls) == 3


def test_bracket_needs_an_even_dimension():
    with pytest.raises(ValueError, match="even"):
        poisson_bracket_fd(lambda x: x, lambda x: x, np.zeros(3))


def test_involutivity_of_invariants(rng):
    # brackets of the unit-normalized invariants: the raw H_k grow like
    # lambda^(2k), so only the scale-free residual is FD-meaningful
    for n in (2, 3):
        p = sample_params(rng, n, CFG)
        pt = sample_sutherland(rng, n, gap=0.15)
        x0 = np.r_[pt.q, pt.p]
        scale = np.maximum(1.0, np.abs(hamiltonians(pt, p)))

        @dynamics._rows
        def H(x):
            return hamiltonians(SutherlandPoint(q=x[:n], p=x[n:]), p) / scale

        table = poisson_bracket_fd(H, H, x0, step=1e-5, richardson=True)
        for i, j in zip(*np.triu_indices(n, 1)):
            assert abs(table[i, j]) < 1e-6


def test_involutivity_table_evaluates_each_stencil_point_once(monkeypatch):
    # one Richardson Jacobian of the family (H_1, H_2, H_3) evaluates the
    # invariants once, on the stack of 2 * 2 * 2n = 24 stencil points; a
    # gradient per H_k took 72 points
    import bcsuth.verification as verification

    calls, counts = [], []
    kernel = verification.sutherland._Hk_kernel
    bracket = verification.dynamics.poisson_bracket_fd

    def counted_bracket(*a, **k):
        calls.clear()
        table = bracket(*a, **k)
        counts.append(list(calls))
        return table

    monkeypatch.setattr(verification.sutherland, "_Hk_kernel",
                        lambda K, *a: calls.append(K.shape[:-2]) or kernel(K, *a))
    monkeypatch.setattr(verification.dynamics, "poisson_bracket_fd", counted_bracket)
    run_suite(SuiteConfig("dynamics", n_values=(3,), samples=1))
    assert counts == [[(24,)]]


def test_actions_commute_under_pullback(rng):
    n = 2
    p = sample_params(rng, n, CFG)
    pt = sample_sutherland(rng, n)
    x0 = np.r_[pt.q, pt.p]

    @dynamics._rows
    def lam(x):
        dual, _ = forward_map_full(SutherlandPoint(q=x[:n], p=x[n:]), p)
        return dual.lam

    table = poisson_bracket_fd(lam, lam, x0, step=1e-4)
    assert abs(table[0, 1]) < 1e-5


def test_angle_linearity_single_particle():
    flow = FlowSpec(system="sutherland_H1", chart="qp", dt=1e-3, T=2.0,
                    monitor_stride=10)
    traj = integrate(flow, np.array([np.pi / 4, 1.0]), P1)
    rep = angle_linearity_check(traj, P1)
    lam = np.sqrt(5.0)
    # the fitted slope matches the calibrated rate -DUAL_PAIRING * dH/dlambda
    assert rep["slopes"][0] == pytest.approx(-DUAL_PAIRING * lam, abs=1e-4)
    assert rep["dH_dlambda"][0] == pytest.approx(lam, abs=1e-6)
    assert rep["slope_error_calibrated"][0] < 1e-4
    assert rep["fit_residuals"][0] < 1e-5
    assert rep["lambda_drift"] < 1e-6
    assert not rep["unwrap_hazard"]


def test_angle_linearity_maps_each_stack_in_one_kernel_call(rng, monkeypatch):
    # the sampled states in one forward-kernel call, the energy stencil in one
    # backward-kernel call; each row is the bits its point's maps give
    n = 2
    p = sample_params(rng, n, CFG)
    pt = sample_sutherland(rng, n, gap=0.15)
    flow = FlowSpec(system="sutherland_H1", chart="qp", dt=1e-3, T=0.2, monitor_stride=10)
    traj = integrate(flow, np.r_[pt.q, pt.p], p)
    calls = {"_forward_kernel": [], "_backward_kernel": []}
    for name in calls:
        fn = getattr(dynamics, name)
        monkeypatch.setattr(dynamics, name, lambda x, *a, name=name, fn=fn, **k:
                            calls[name].append(np.shape(x)) or fn(x, *a, **k))
    rep = angle_linearity_check(traj, p)
    assert calls == {"_forward_kernel": [(21, n)], "_backward_kernel": [(2 * n, n)]}
    idx = np.arange(0, traj.times.size, flow.monitor_stride)
    duals = [forward_map_full(SutherlandPoint(q=x[:n], p=x[n:]), p)[0] for x in traj.states[idx]]
    lams = np.array([d.lam for d in duals])
    assert rep["lambda_drift"] == float(np.max(np.abs(lams - lams[0, None])))

    def energy_at(lam):
        back = backward_map_full(DualPoint(lam=lam, theta=duals[0].theta), p, validate=False)[0]
        return closed_form_H1(back, p)

    assert np.array_equal(rep["dH_dlambda"], dynamics.fd_gradient(dynamics._rows(energy_at),
                                                                  lams[0], 1e-5))


def test_dual_flow_conserves_positions(rng):
    n = 2
    p = sample_params(rng, n, CFG)
    pt = sample_sutherland(rng, n, gap=0.15)
    pt = SutherlandPoint(q=pt.q, p=0.3 * pt.p)
    dual, _ = forward_map_full(pt, p)
    flow = FlowSpec(system="dual_H0", chart="lambda_theta", dt=1e-3, T=0.5,
                    gradient="fd", monitor_stride=100)
    traj = integrate(flow, np.r_[dual.lam, dual.theta], p)
    for j in range(n):
        qj = traj.monitors[f"q{j+1}"]
        assert np.max(np.abs(qj - qj[0])) < 1e-7


def test_dual_flow_analytic_matches_fd(rng):
    n = 2
    p = sample_params(rng, n, CFG)
    pt = sample_sutherland(rng, n, gap=0.15)
    dual, _ = forward_map_full(pt, p)
    x0 = np.r_[dual.lam, dual.theta]
    ends = [integrate(FlowSpec(system="dual_H0", chart="lambda_theta", dt=1e-3,
                               T=0.05, gradient=g),
                      x0, p).states[-1]
            for g in ("analytic", "fd")]
    assert np.max(np.abs(ends[0] - ends[1])) <= 1e-8


def test_trajectory_csv(tmp_path):
    flow = FlowSpec(system="sutherland_H1", chart="qp", dt=1e-2, T=0.1,
                    monitor_stride=5)
    traj = integrate(flow, np.array([np.pi / 4, 1.0]), P1)
    lines = traj.to_csv().splitlines()
    assert lines[0].startswith("# {")
    assert lines[1].split(",")[:3] == ["t", "q1", "p1"]
    assert len(lines) == 2 + traj.times.size


def test_monitor_selection():
    # one group per call shape: H_flow alone, then the chart's Lax data
    flow = FlowSpec(system="sutherland_H1", chart="qp", dt=1e-2, T=0.1)
    assert [tuple(names) for names, _ in default_monitors(flow, P1)] == [
        ("H_flow",), ("H1", "lambda1")]
    dflow = FlowSpec(system="dual_H0", chart="lambda_theta", dt=1e-2, T=0.1)
    assert [tuple(names) for names, _ in default_monitors(dflow, P1)] == [
        ("H_flow",), ("q1",)]


def _count_monitor_calls(monkeypatch):
    """Count the calls of the monitors' Lax-data functions on ``dynamics``:
    the stack kernels of the qp chart, the backward-map kernel."""
    calls = {"_Hk_kernel": 0, "_action_kernel": 0, "_backward_kernel": 0}

    def counted(name):
        fn = getattr(dynamics, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(dynamics, name, counted(name))
    return calls


def test_monitors_evaluate_lax_data_once_per_sample(rng, monkeypatch):
    n = 2
    p = sample_params(rng, n, CFG)
    pt = sample_sutherland(rng, n, gap=0.15)
    calls = _count_monitor_calls(monkeypatch)
    flow = FlowSpec(system="sutherland_H1", chart="qp", dt=1e-3, T=0.02,
                    monitor_stride=5)
    traj = integrate(flow, np.r_[pt.q, pt.p], p)
    for name in traj.monitors:
        traj.monitors[name]
    assert calls["_Hk_kernel"] == calls["_action_kernel"] == 1
    for row, i in enumerate(np.searchsorted(traj.times, traj.monitor_times)):
        x = SutherlandPoint(q=traj.states[i, :n], p=traj.states[i, n:])
        Hs = hamiltonians(x, p)
        lam = action_map(x, p)
        for k in range(n):
            assert traj.monitors[f"H{k+1}"][row] == Hs[k]
            assert traj.monitors[f"lambda{k+1}"][row] == lam[k]

    dual, _ = forward_map_full(pt, p)
    dflow = FlowSpec(system="dual_H0", chart="lambda_theta", dt=1e-3,
                     T=0.005, gradient="fd", monitor_stride=1)
    dtraj = integrate(dflow, np.r_[dual.lam, dual.theta], p)
    for name in dtraj.monitors:
        dtraj.monitors[name]
    assert calls["_backward_kernel"] == 1
    assert {f"q{j+1}" for j in range(n)} <= set(dtraj.monitors)
    for row, i in enumerate(np.searchsorted(dtraj.times, dtraj.monitor_times)):
        x = DualPoint(lam=dtraj.states[i, :n], theta=dtraj.states[i, n:])
        q = backward_map_full(x, p, validate=False)[0].q
        for j in range(n):
            assert dtraj.monitors[f"q{j+1}"][row] == q[j]


@pytest.mark.parametrize("system", ["sutherland_H1", "dual_H0"])
def test_monitors_are_evaluated_on_first_read(rng, monkeypatch, system):
    n = 2
    p = sample_params(rng, n, CFG)
    pt = sample_sutherland(rng, n, gap=0.15)
    calls = _count_monitor_calls(monkeypatch)
    if system == "sutherland_H1":
        chart, x0 = "qp", np.r_[pt.q, pt.p]
        first, group = "lambda1", ["H1", "H2", "lambda1", "lambda2"]
        once = {"_Hk_kernel": 1, "_action_kernel": 1, "_backward_kernel": 0}
    else:
        dual, _ = forward_map_full(pt, p)
        chart, x0 = "lambda_theta", np.r_[dual.lam, dual.theta]
        first, group = "q1", ["q1", "q2"]
        once = {"_Hk_kernel": 0, "_action_kernel": 0, "_backward_kernel": 1}
    flow = FlowSpec(system=system, chart=chart, dt=1e-3, T=0.02, monitor_stride=5)
    traj = integrate(flow, x0, p)
    assert sum(calls.values()) == 0
    assert set(traj.monitors) == {"H_flow", *group}
    assert len(traj.monitors) == 1 + len(group)
    assert first in traj.monitors and "p1" not in traj.monitors
    assert sum(calls.values()) == 0
    assert traj.monitors["H_flow"].shape == traj.monitor_times.shape
    assert sum(calls.values()) == 0
    assert traj.monitors[first].shape == traj.monitor_times.shape
    assert calls == once
    for name in group:
        traj.monitors[name]
    assert calls == once


def test_monitor_columns_are_a_snapshot_of_the_run():
    flow = FlowSpec(system="sutherland_H1", chart="qp", dt=1e-2, T=0.1,
                    monitor_stride=5)
    traj = integrate(flow, np.array([np.pi / 4, 1.0]), P1)
    sampled = [SutherlandPoint(q=x[:1], p=x[1:])
               for x in traj.states[np.searchsorted(traj.times, traj.monitor_times)]]
    H = [closed_form_H1(x, P1) for x in sampled]
    lam = [action_map(x, P1)[0] for x in sampled]
    traj.states[:] = np.array([0.3, -2.0])
    assert traj.monitors["H_flow"].tolist() == H
    assert traj.monitors["lambda1"].tolist() == lam


def test_boundary_partial_has_one_monitor_row_per_sample():
    flow = FlowSpec(system="sutherland_H1", chart="qp", dt=1e-3, T=2.0,
                    boundary_margin=0.1, monitor_stride=3)
    with pytest.raises(BoundaryApproachError) as exc:
        integrate(flow, np.array([0.8, 20.0]), P1)
    partial = exc.value.partial
    assert partial.monitor_times.size > 1
    assert partial.monitor_times[-1] < partial.times[-1]
    for name in partial.monitors:
        assert partial.monitors[name].shape == partial.monitor_times.shape
        assert np.all(np.isfinite(partial.monitors[name]))


@pytest.mark.parametrize("system, x0, error", [
    ("sutherland_H1", [0.3, 0.9, 1.0, 1.0], DomainError),
    ("dual_H0", [1.0, 2.0, 0.1, 0.2], DomainError),
    ("dual_H0", [4.0, 2.0, 0.1, 0.2], DegenerateTorusError)])
def test_integrate_refuses_a_start_outside_its_chart(system, x0, error):
    # the start is checked before any step; on the chamber wall the angle
    # chart is undefined
    p = couplings_from_rsvd(1.0, 2.0, 0.0, 2)
    flow = FlowSpec(system=system, chart=dynamics.SYSTEMS[system], dt=1e-3, T=0.01)
    with pytest.raises(error, match="point is"):
        integrate(flow, np.array(x0), p)


@pytest.mark.parametrize("system, x0, message", [
    ("sutherland_H1", [0.7, 0.3, 0.1, math.inf], "p must be finite, got p2 = inf"),
    ("dual_H0", [5.0, 2.5, math.nan, 0.2], "theta must be finite, got theta1 = nan")])
def test_integrate_refuses_a_non_finite_momentum_or_angle(system, x0, message):
    # the first step would turn the state NaN, and the next chamber check
    # would blame the positions
    p = couplings_from_rsvd(1.0, 2.0, 0.0, 2)
    flow = FlowSpec(system=system, chart=dynamics.SYSTEMS[system], dt=1e-3, T=0.01)
    with pytest.raises(DomainError) as exc:
        integrate(flow, np.array(x0), p)
    assert str(exc.value) == message


def test_fd_gradient_jacobian_of_vector_function():
    A = np.array([[1.0, -2.0, 0.5, 3.0], [0.25, 4.0, -1.5, 2.0],
                  [-3.0, 0.0, 1.0, -0.75]])
    x0 = np.array([0.3, -1.1, 0.7, 2.0])
    J = fd_gradient(dynamics._rows(lambda x: A @ x), x0, 1e-2)
    assert J.shape == A.shape
    assert np.max(np.abs(J - A)) < 1e-12

    @dynamics._rows
    def cubic(x):
        return np.array([x[0] ** 3 + x[1], x[0] * x[1] ** 2, x[2] ** 3 * x[3]])

    a, b, c, d = x0
    exact = np.array([[3 * a**2, 1.0, 0.0, 0.0], [b**2, 2 * a * b, 0.0, 0.0],
                      [0.0, 0.0, 3 * c**2 * d, c**3]])
    plain = np.max(np.abs(fd_gradient(cubic, x0, 1e-2) - exact))
    rich = np.max(np.abs(fd_gradient(cubic, x0, 1e-2, richardson=True) - exact))
    assert rich < 1e-3 * plain


def _flow_start(rng, system, n, gradient="analytic", dt=1e-3, T=0.2):
    """A flow and a start drawn on the dual side, its actions a controlled
    distance inside the chamber."""
    p = sample_params(rng, n, CFG)
    dual = sample_dual(rng, n, p)
    if system == "sutherland_H1":
        pt = backward_map(dual, p)
        flow = FlowSpec(system=system, chart="qp", dt=dt, T=T)
        return flow, np.r_[pt.q, pt.p], p
    flow = FlowSpec(system=system, chart="lambda_theta", dt=dt, T=T,
                    gradient=gradient)
    return flow, np.r_[dual.lam, dual.theta], p


def _euler_started(flow, x0, p):
    """The states of a loop of Euler-started implicit_midpoint_step calls."""
    f = vector_field(flow, p)
    xs = [np.asarray(x0, dtype=float)]
    for _ in range(int(round(flow.T / flow.dt))):
        xs.append(implicit_midpoint_step(f, xs[-1], flow.dt))
    return np.array(xs)


@pytest.mark.parametrize("system, gradient", [("sutherland_H1", "analytic"),
                                              ("dual_H0", "analytic"),
                                              ("dual_H0", "fd")])
def test_extrapolated_start_reaches_the_same_fixed_point(rng, system, gradient):
    # the start only moves the accepted state inside the residual bound, so
    # the trajectory matches the Euler-started steps to roundoff
    for n in (1, 2, 3):
        flow, x0, p = _flow_start(rng, system, n, gradient)
        traj = integrate(flow, x0, p)
        ref = _euler_started(flow, x0, p)
        assert (np.linalg.norm(traj.states[-1] - ref[-1])
                <= 1e-11 * np.linalg.norm(ref[-1]))
        f = vector_field(flow, p)
        for x0_, x1 in zip(traj.states[:-1], traj.states[1:]):
            defect = x1 - x0_ - flow.dt * f(0.5 * (x0_ + x1))
            assert (np.linalg.norm(defect)
                    <= NEWTON_TOL * max(1.0, np.linalg.norm(x1)))


def test_near_wall_dual_orbit_drift_unchanged(monkeypatch):
    # seed 9's n = 3 dual orbit passes within 1.9e-6 of a chamber wall; its
    # q drift (the dual_q_drift row) is the same with the Euler start
    orbits = []

    def capture(flow, x0, params):
        traj = integrate(flow, x0, params)
        if flow.system == "dual_H0":
            orbits.append((flow, x0, params, traj))
        return traj
    monkeypatch.setattr(dynamics, "integrate", capture)
    report = run_suite(SuiteConfig(suite="dynamics", seed=9))
    monkeypatch.undo()
    row, = [c for c in report.checks if c.name == "dynamics.dual_q_drift"]

    def q_drift(traj):
        n = traj.params.n
        return max(float(np.max(np.abs(traj.monitors[f"q{j+1}"]
                                       - traj.monitors[f"q{j+1}"][0])))
                   for j in range(n))
    flow, x0, params, traj = max(orbits, key=lambda o: q_drift(o[3]))
    assert params.n == 3 and q_drift(traj) == row.max_residual
    monkeypatch.setattr(dynamics, "START_ORDER", 1)
    assert abs(q_drift(integrate(flow, x0, params)) - row.max_residual) <= 1e-15


def test_extrapolated_start_halves_the_evaluations(rng, monkeypatch):
    def evaluations(flow, x0, p, order=None):
        if order is not None:
            monkeypatch.setattr(dynamics, "START_ORDER", order)
        stats = integrate(flow, x0, p).stats
        monkeypatch.undo()
        assert stats["steps"] == int(round(flow.T / flow.dt))
        return stats["evaluations"]

    # a 2000-step H_1 orbit near equilibrium, as verify's dynamics suite
    # runs them (actions of |z| ~ 0.01): about 5.2 evaluations per step
    # from the Euler predictor, 2.0 from an order-5 start and 1.01 from the
    # order-7 start of the closed-form fields
    n = 2
    p = sample_params(rng, n, CFG)
    z = 0.01 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    pt = backward_map(DualPoint(lam=lambda_of_z(z, p),
                                theta=rng.uniform(0, 2 * np.pi, n)), p)
    flow = FlowSpec(system="sutherland_H1", chart="qp", dt=1e-3, T=2.0)
    assert evaluations(flow, np.r_[pt.q, pt.p], p) <= 1.2 * 2000
    # a fast orbit that bounces off the walls: Newton takes more of its steps
    flow, x0, p = _flow_start(rng, "sutherland_H1", 2, T=2.0)
    assert evaluations(flow, x0, p) <= 0.7 * evaluations(flow, x0, p, 1)
    flow, x0, p = _flow_start(rng, "dual_H0", 2, "fd")
    assert evaluations(flow, x0, p) <= 0.65 * evaluations(flow, x0, p, 1)


def test_fd_flows_take_the_start_order(rng):
    # the ~1e-12 noise of the Richardson FD field, times the 2^7 - 1 weight
    # sum of an order-7 start, stays below the tolerance: FD flows step
    # exactly as an order-START_ORDER march does, as the closed-form ones do
    assert dynamics.START_ORDER == 7
    for n in (1, 2, 3):
        flow, x0, p = _flow_start(rng, "dual_H0", n, "fd")
        traj = integrate(flow, x0, p)
        steps = dynamics.march(vector_field(flow, p), x0, flow.dt,
                               dynamics.START_ORDER)
        ref = [next(steps) for _ in range(traj.states.shape[0] - 1)]
        assert np.array_equal(traj.states[1:], np.array(ref))


def test_verify_reverses_time_with_the_analytic_order(monkeypatch):
    # the time-reversal row steps the closed-form H_1 field back from the
    # orbit's endpoint; its march takes the closed-form fields' start order
    orders = []
    march = dynamics.march

    def recording(f, x0, dt, order, stats=None):
        orders.append((dt < 0, order))
        return march(f, x0, dt, order, stats)
    monkeypatch.setattr(dynamics, "march", recording)
    run_suite(SuiteConfig(suite="dynamics", seed=1, n_values=(1,)))
    reversal = [order for backward, order in orders if backward]
    assert reversal == [dynamics.START_ORDER]


def test_nonconvergence_carries_the_counters(monkeypatch):
    # a field that vanishes for 30 evaluations, one per step, and then has
    # no midpoint solution at this step size: x1 = x0 + 10 (1 + m^2) with
    # m = (x0 + x1)/2 has no real root for x0 > 0
    evals = []

    def stalling_field(flow, params):
        def f(x):
            evals.append(1)
            return np.zeros_like(x) if len(evals) <= 30 else 100.0 * (1.0 + x**2)
        return f
    monkeypatch.setattr(dynamics, "vector_field", stalling_field)
    flow = FlowSpec(system="sutherland_H1", chart="qp", dt=0.1, T=10.0)
    with pytest.raises(NonConvergenceError) as info:
        integrate(flow, np.array([np.pi / 4, 1.0]), P1)
    stats = info.value.stats
    assert set(stats) == set(STATS)
    # the failed step adds its evaluations and its Newton Jacobian, no step
    assert stats["steps"] == 30
    assert stats["evaluations"] == len(evals) > 31
    assert stats["jacobians"] == 1


def test_trajectory_stats_count_the_integrator_work(rng, monkeypatch):
    evals = []

    def counting_field(flow, params):
        f = vector_field(flow, params)

        def counted(x):
            evals.append(1)
            return f(x)
        return counted
    monkeypatch.setattr(dynamics, "vector_field", counting_field)
    jacobians = _counting_fd_gradient(monkeypatch)
    flow, x0, p = _flow_start(rng, "sutherland_H1", 2, T=0.5)
    traj = integrate(flow, x0, p)
    assert set(traj.stats) == set(STATS)
    assert traj.stats["steps"] == 500
    assert traj.stats["evaluations"] == len(evals)
    assert traj.stats["jacobians"] == len(jacobians)
    header = json.loads(traj.to_csv().splitlines()[0][2:])
    assert header["stats"] == traj.stats
    # the stiff field of test_stalled_sweeps_fall_back_to_newton
    A = np.array([[0.0, 1.0], [-225.0, 0.0]])
    evals.clear()

    def f(x):
        evals.append(1)
        return A @ x
    stats = dict.fromkeys(STATS, 0)
    implicit_midpoint_step(f, np.array([1.0, 0.5]), 0.1, stats=stats)
    assert stats == {"steps": 1, "evaluations": len(evals), "jacobians": 1,
                     "stalls": 0}


def test_fd_gradient_matches_per_column_stencils(rng):
    # the stencil offsets are the rows of h I; each column's values are the
    # same bits as with one zero vector per column
    def per_column(fn, x, h):
        cols = []
        for j in range(x.size):
            e = np.zeros_like(x)
            e[j] = h
            cols.append(np.subtract(fn(x + e), fn(x - e)) / (2.0 * h))
        return np.stack(cols, axis=-1)

    for n in (1, 2, 3):
        for system in ("sutherland_H1", "dual_H0"):
            flow, x0, p = _flow_start(rng, system, n, "fd")
            H = hamiltonian_function(flow, p)
            for h in (flow.fd_step, 1e-5):
                assert np.array_equal(fd_gradient(H, x0, h), per_column(H, x0, h))
                rich = (4.0 * per_column(H, x0, h / 2) - per_column(H, x0, h)) / 3.0
                assert np.array_equal(fd_gradient(H, x0, h, richardson=True), rich)


def test_fd_gradient_calls_fn_once_on_the_whole_stencil():
    x0 = np.array([0.3, -1.1, 0.7])
    for richardson, rows in ((False, 6), (True, 12)):
        shapes = []

        def cubic(x):
            shapes.append(x.shape)
            return np.sum(x ** 3, axis=-1)
        g = fd_gradient(cubic, x0, 1e-3, richardson)
        assert shapes == [(rows, 3)]
        assert np.allclose(g, 3 * x0 ** 2, atol=1e-5)


@pytest.mark.parametrize("system", list(dynamics.SYSTEMS))
def test_hamiltonian_function_maps_stacks_row_by_row(rng, system):
    # every system takes a stack (..., 2n) to (...), each row the value of
    # that point alone, bit for bit, and a single point to a float
    for n in (1, 2, 3):
        p = sample_params(rng, n, CFG)
        dual = sample_dual(rng, n, p)
        chart = dynamics.SYSTEMS[system]
        if chart == "qp":
            pt = backward_map(dual, p)
            x0 = np.r_[pt.q, pt.p]
        else:
            x0 = np.r_[dual.lam, dual.theta]
        flow = FlowSpec(system=system, chart=chart, dt=1e-3, T=0.01, k=n,
                        gradient="fd")
        H = hamiltonian_function(flow, p)
        stack = x0 + 1e-4 * rng.standard_normal((6, 2 * n))
        values = H(stack)
        assert values.shape == (6,)
        assert np.array_equal(values, [H(x) for x in stack])
        assert np.array_equal(H(stack.reshape(2, 3, 2 * n)), values.reshape(2, 3))
        assert type(H(x0)) is float


def _stack_raises_the_error_of_its_first_row_off_the_chamber(H, p):
    inside, wall, outside, nan = [5.0, 2.5], [5.0, 2.0], [5.0, 1.9], [math.nan, 2.5]
    for lams, first in (([inside, wall, outside], wall),
                        ([inside, outside, wall], outside),
                        ([inside, nan, wall], nan)):
        with pytest.raises(DomainError) as one:
            require_inside(first, "lambda_theta", p)
        with pytest.raises(DomainError) as stacked:
            H(np.c_[lams, np.zeros((3, 2))])
        assert type(stacked.value) is type(one.value)
        assert str(stacked.value) == str(one.value)


def test_dual_H0_stack_raises_the_error_of_its_first_row_off_the_chamber():
    p = couplings_from_rsvd(1.0, 2.0, 0.5, 2)
    H = hamiltonian_function(FlowSpec(system="dual_H0", chart="lambda_theta",
                                      dt=1e-3, T=0.01, gradient="fd"), p)
    _stack_raises_the_error_of_its_first_row_off_the_chamber(H, p)
    # an FD stencil whose h-step below lambda_2 leaves the chamber
    x0 = np.array([5.0, 2.0 + 5e-7, 0.1, 0.2])
    with pytest.raises(DomainError) as one:
        require_inside([5.0, float(x0[1] - 1e-6)], "lambda_theta", p)
    with pytest.raises(DomainError) as stencil:
        fd_gradient(H, x0, 1e-6)
    assert type(stencil.value) is type(one.value) is DomainError
    assert str(stencil.value) == str(one.value)


def test_fd_dual_H0_flow_equals_the_row_by_row_kernel(rng, monkeypatch):
    # the FD field evaluates the whole stencil in one kernel call; the same
    # kernel called once per stencil row gives the same trajectory bits
    for n in (1, 2, 3):
        flow, x0, p = _flow_start(rng, "dual_H0", n, "fd", T=0.05)
        stacked = integrate(flow, x0, p)
        with monkeypatch.context() as m:
            H = dynamics.hamiltonian_function
            m.setattr(dynamics, "hamiltonian_function",
                      lambda flow, params: dynamics._rows(H(flow, params)))
            rowwise = integrate(flow, x0, p)
        assert np.array_equal(stacked.states, rowwise.states)
        assert stacked.stats == rowwise.stats


def test_analytic_field_calls_the_module_gradient(rng, monkeypatch):
    # vector_field looks the gradient up on the module when it builds the
    # field, so a wrapper set there (as a tracer sets one) sees every call
    calls = []
    grad = dynamics.grad_H1

    def counted(q, p, params):
        calls.append(1)
        return grad(q, p, params)
    monkeypatch.setattr(dynamics, "grad_H1", counted)
    flow, x0, p = _flow_start(rng, "sutherland_H1", 2, T=0.05)
    traj = integrate(flow, x0, p)
    assert len(calls) == traj.stats["evaluations"] > 0


def test_dual_Hk_stack_raises_the_error_of_its_first_row_off_the_chamber():
    p = couplings_from_rsvd(1.0, 2.0, 0.5, 2)
    for k in (1, 2):
        H = hamiltonian_function(FlowSpec(system="dual_Hk", chart="lambda_theta",
                                          dt=1e-3, T=0.01, k=k, gradient="fd"), p)
        _stack_raises_the_error_of_its_first_row_off_the_chamber(H, p)


def test_dual_Hk_stack_matches_the_point_route_bit_for_bit(rng):
    # z is read for the whole stack in one pass, the angles reduced as
    # canonical_angle reduces them, and h_k is one dual_Hk call on the stack:
    # each row keeps the bits of DualPoint -> z_from_angles -> the per-point
    # reference dual_Hk_one, also at angles just below 0 (which reduce to
    # 0.0) and just below 2 pi
    below_2pi = np.nextafter(2 * np.pi, 0.0)
    for n in (1, 2, 3):
        p = sample_params(rng, n, CFG)
        lam = np.array([sample_lambda(rng, n, p) for _ in range(6)])
        theta = rng.uniform(-10.0, 20.0, (6, n))
        theta[0] = -1e-17
        theta[1] = below_2pi
        theta[2, -1] = -np.nextafter(0.0, 1.0)
        stack = np.c_[lam, theta]
        for k in range(1, n + 1):
            flow = FlowSpec(system="dual_Hk", chart="lambda_theta", dt=1e-3,
                            T=0.01, k=k, gradient="fd")
            H = hamiltonian_function(flow, p)
            ref = [float(dual_Hk_one(z_from_angles(DualPoint(lam=x[:n], theta=x[n:]), p).z,
                                     p, kmax=k)[k - 1]) for x in stack]
            assert np.array_equal(H(stack), ref)
            assert np.array_equal(H(stack.reshape(2, 3, 2 * n)), np.reshape(ref, (2, 3)))
            assert H(stack[1]) == ref[1]


def test_dual_Hk_stencil_is_one_dual_Lax_kernel_call(rng, monkeypatch):
    # the FD dual h_k field evaluates its whole Richardson stencil with one
    # _L_tilde_kernel call on the (8n, n) stack of z, at every k
    shapes, kernel = [], rsvd._L_tilde_kernel
    monkeypatch.setattr(rsvd, "_L_tilde_kernel",
                        lambda z, lam, params: shapes.append(z.shape) or kernel(z, lam, params))
    for n in (1, 2, 3):
        flow, x0, p = _flow_start(rng, "dual_Hk", n, gradient="fd")
        for k in range(1, n + 1):
            shapes.clear()
            H = hamiltonian_function(replace(flow, k=k), p)
            g = fd_gradient(H, x0, flow.fd_step, richardson=True)
            assert shapes == [(8 * n, n)] and g.shape == (2 * n,)


@pytest.mark.parametrize("system, kernel", [("sutherland_H1", "_H1_kernel"),
                                            ("sutherland_Hk", "_Hk_kernel"),
                                            ("dual_H0", "_dual_H0_kernel"),
                                            ("dual_Hk", "dual_Hk")])
def test_hamiltonian_is_one_kernel_call_per_stack(rng, monkeypatch, system, kernel):
    # each of the four systems' H maps an (m, 2n) stack with one call of its
    # kernel, and gives every row the value of that row alone
    n, m = 3, 12
    flow, x0, p = _flow_start(rng, "sutherland_H1" if system.startswith("s") else "dual_H0", n)
    flow = replace(flow, system=system, k=2, gradient="fd")
    xs = x0 + 1e-4 * rng.standard_normal((m, 2 * n))
    H = hamiltonian_function(flow, p)
    ref = [H(x) for x in xs]
    calls, fn = [], getattr(dynamics, kernel)
    monkeypatch.setattr(dynamics, kernel,
                        lambda *a, **kw: calls.append(np.shape(a[0])) or fn(*a, **kw))
    values = H(xs)
    assert len(calls) == 1 and np.array_equal(values, ref)


def test_monitor_H_flow_is_one_call_on_the_sampled_stack(rng, monkeypatch):
    # the H_flow group maps the (samples, 2n) stack of sampled states in one
    # hamiltonian_function call: one kernel call (the dual H0's, then the
    # Sutherland H_1's), same values
    for system, name in (("dual_H0", "_dual_H0_kernel"), ("sutherland_H1", "_H1_kernel")):
        kernel = getattr(dynamics, name)
        shapes = []

        def counted(a, b, params, kernel=kernel):
            shapes.append(np.shape(a))
            return kernel(a, b, params)
        flow, x0, p = _flow_start(rng, system, 2, T=0.05)
        traj = integrate(flow, x0, p)
        with monkeypatch.context() as m:
            m.setattr(dynamics, name, counted)
            H = traj.monitors["H_flow"]
        samples = traj.monitor_times.size
        assert samples > 1 and shapes == [(samples, 2)]
        sampled = traj.states[np.searchsorted(traj.times, traj.monitor_times)]
        assert H.tolist() == [kernel(x[:2], x[2:], p) for x in sampled]


def test_H1_stencil_builds_no_sutherland_point(rng, monkeypatch):
    # the FD H_1 field evaluates its Richardson stencil in one kernel call on
    # raw arrays: no validated point per row
    built = []
    init = SutherlandPoint.__post_init__

    def counted(self):
        built.append(1)
        init(self)
    for n in (1, 2, 3):
        flow, x0, p = _flow_start(rng, "sutherland_H1", n)
        H = hamiltonian_function(flow, p)
        with monkeypatch.context() as m:
            m.setattr(SutherlandPoint, "__post_init__", counted)
            g = fd_gradient(H, x0, flow.fd_step, richardson=True)
            f = vector_field(replace(flow, gradient="fd"), p)(x0)
        assert built == [] and g.shape == f.shape == (2 * n,)


@pytest.mark.parametrize("richardson", [False, True])
def test_fd_gradient_stencil_bits_at_any_step(rng, richardson):
    # the stencil is a cached unit table scaled by the step; the scaling by
    # +-1 and +-1/2 is exact, so at every step each column has the bits of
    # its own per-column stencil x +- h e_j (and x +- (h/2) e_j)
    def column(H, x, j, h):
        e = np.zeros_like(x)
        e[j] = h
        return np.subtract(H(x + e), H(x - e)) / (2.0 * h)

    for n in (1, 2, 3):
        for system in ("sutherland_H1", "dual_H0"):
            flow, x0, p = _flow_start(rng, system, n, "fd")
            H = hamiltonian_function(flow, p)
            for h in np.geomspace(1e-9, 1e-4, 20):
                ref = np.array([column(H, x0, j, h) for j in range(2 * n)])
                if richardson:
                    half = np.array([column(H, x0, j, h / 2) for j in range(2 * n)])
                    ref = (4.0 * half - ref) / 3.0
                assert np.array_equal(fd_gradient(H, x0, h, richardson), ref)


def test_fd_field_matches_the_closed_form_field(rng):
    # the Richardson stencil at the 1e-4 base step is good to about 1e-12
    # relative (a central difference at 1e-6 reached up to about 1e-9)
    for n in (1, 2, 3):
        for system in ("sutherland_H1", "dual_H0"):
            for _ in range(10):
                flow, x0, p = _flow_start(rng, system, n)
                exact = vector_field(flow, p)(x0)
                fd = vector_field(replace(flow, gradient="fd"), p)(x0)
                assert np.linalg.norm(fd - exact) <= 1e-10 * np.linalg.norm(exact)


def test_fd_dual_H0_flow_takes_about_one_evaluation_per_step(rng):
    # starts drawn as the flow-exact benchmark draws them (action gaps
    # uniform in (0.05, 0.3)): with a field far below the tolerance and the
    # order-7 start, a step takes about 1.1 evaluations (about 1.9 with the
    # central difference at 1e-6 and the order-5 start)
    for n in (1, 2, 3):
        p = sample_params(rng, n, CFG)
        gaps = rng.uniform(0.05, 0.3, n) + 2 * p.mu * (np.arange(n) < n - 1)
        lam = p.nu + np.cumsum(gaps[::-1])[::-1]
        x0 = np.r_[lam, rng.uniform(0, 2 * np.pi, n)]
        flow = FlowSpec(system="dual_H0", chart="lambda_theta", dt=1e-3, T=0.1,
                        gradient="fd")
        stats = integrate(flow, x0, p).stats
        assert stats["steps"] == 100
        assert stats["evaluations"] <= 1.3 * stats["steps"]


@pytest.mark.parametrize("system", ["dual_H0", "dual_Hk"])
def test_fd_dual_flows_integrate_at_a_slack_below_the_step(system):
    # the base step is capped at half the smallest chamber slack, so a start
    # 5e-5 from the wall integrates; a fixed 1e-4 stencil leaves the chamber
    p = couplings_from_rsvd(1.0, 2.0, 0.5, 2)
    x0 = np.array([p.nu + 2 * p.mu + 0.2 + 5e-5, p.nu + 5e-5, 0.4, 1.3])
    flow = FlowSpec(system=system, chart="lambda_theta", dt=1e-3, T=0.02,
                    gradient="fd")
    assert integrate(flow, x0, p).stats["steps"] == 20
    with pytest.raises(DomainError):
        fd_gradient(hamiltonian_function(flow, p), x0, flow.fd_step, richardson=True)


@pytest.mark.parametrize("dt", [0.01, 0.001])
def test_fd_H1_flow_from_a_former_stall_follows_the_closed_form(dt):
    # the start whose FD H_k flows stalled Newton above its 1e-10 floor: the
    # FD k = 1 flow now follows the closed-form H_1 flow to about 1e-11 (the
    # central difference at 1e-6 to 1.7e-10)
    p = couplings_from_rsvd(1.0, 2.0, 0.0, 2)
    x0 = np.array([1.1, 0.4, 0.3, -0.7])
    exact = integrate(FlowSpec(system="sutherland_H1", chart="qp", dt=dt, T=0.05),
                      x0, p)
    fd = integrate(FlowSpec(system="sutherland_Hk", chart="qp", dt=dt, T=0.05,
                            k=1, gradient="fd"), x0, p)
    assert np.max(np.abs(fd.states - exact.states)) <= 5e-11


def test_Hk_stencil_is_one_kernel_call_and_builds_no_sutherland_point(rng, monkeypatch):
    # the FD H_k field evaluates its Richardson stencil as one Lax stack on
    # raw arrays: one kernel call, no validated point per row
    built, stacks = [], []
    init, kernel = SutherlandPoint.__post_init__, dynamics._lax_K_kernel

    def counted(self):
        built.append(1)
        init(self)
    monkeypatch.setattr(SutherlandPoint, "__post_init__", counted)
    monkeypatch.setattr(dynamics, "_lax_K_kernel",
                        lambda q, p, params: stacks.append(q.shape) or kernel(q, p, params))
    for n in (1, 2, 3):
        p = sample_params(rng, n, CFG)
        x0 = np.r_[sample_sutherland(rng, n, gap=0.15).q, rng.standard_normal(n)]
        for k in range(1, n + 1):
            flow = FlowSpec(system="sutherland_Hk", chart="qp", dt=1e-3, T=0.01, k=k,
                            gradient="fd")
            built.clear()
            stacks.clear()
            g = fd_gradient(hamiltonian_function(flow, p), x0, flow.fd_step, richardson=True)
            assert stacks == [(8 * n, n)] and built == [] and g.shape == (2 * n,)


@pytest.mark.parametrize("dt, evaluations", [(0.01, 122), (0.001, 1050)])
def test_Hk_flow_keeps_the_bits_of_the_row_by_row_float_loop(monkeypatch, dt, evaluations):
    # the k = 2 flow of ROADMAP item 3 through the Lax stack kernel: every
    # state and monitor, the counters (each step an accepted stall) and the end
    # state are those of the per-row field on the float-loop Lax matrix
    p = couplings_from_rsvd(1.0, 2.0, 0.0, 2)
    flow = FlowSpec(system="sutherland_Hk", chart="qp", dt=dt, T=0.05, k=2, gradient="fd")
    x0 = np.array([1.1, 0.4, 0.3, -0.7])
    stacked = integrate(flow, x0, p)
    steps = round(0.05 / dt)
    assert stacked.stats == {"steps": steps, "evaluations": evaluations,
                             "jacobians": steps, "stalls": steps}
    end = {0.01: [1.1169583552010638, 0.4027014808072941, 0.05221638889833177,
                  -0.7056105774430314],
           0.001: [1.0958061453235763, 0.3955320098814236, -0.36957176503946204,
                   0.6166373107076071]}[dt]
    assert stacked.states[-1].tolist() == end

    def H2(x):
        eigs = np.linalg.eigvalsh(-1j * (lax_K_loop(x[:2], x[2:], p)
                                         - 1j * p.kappa * exchange_matrix(2)))
        return float(np.sum(eigs ** 4) / 8.0)
    monkeypatch.setattr(dynamics, "hamiltonian_function", lambda flow, params: dynamics._rows(H2))
    rowwise = integrate(flow, x0, p)
    assert np.array_equal(stacked.states, rowwise.states)
    assert stacked.stats == rowwise.stats
    for name in ("H1", "H2", "lambda1", "lambda2"):
        assert np.array_equal(stacked.monitors[name], rowwise.monitors[name])
