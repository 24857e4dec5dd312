"""The benchmark's calls into bcsuth still work.

``perfbench/micro.py`` calls bcsuth functions by name and signature, and
``perfbench/tracer.py`` wraps them by name; the benchmark's own test runs
outside this suite.  Calling every micro row once at n = 1 and 2 and
resolving every traced name catches a change that would break the benchmark;
the two factorization rows must also keep their residuals below 1e-12, at
n = 4 and 8 as well.  One
small round of each workload (map-roundtrip, flow-exact and verify-all)
checks the calls and the outcomes those workloads rely on, and the reads
flow-exact makes of a trajectory are checked one by one.
"""

import dataclasses
import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def perfbench():
    """Import a module of perfbench by name."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        yield importlib.import_module
    finally:
        sys.path.remove(str(PERFBENCH))


def _run_micro_rows(perfbench, n):
    rows = perfbench("micro").rows_for(n)
    assert rows
    for name, call, resid in rows:
        r = resid(call())
        assert r == r and r >= 0.0, name  # a number, not NaN
        if name in ("pair_diagonalize_gminus", "cartan_decompose_gminus"):
            # reconstruction against perfbench's own inputs, not bcsuth's check
            assert r < 1e-12, (name, r)


def test_micro_rows_run_at_n1(perfbench):
    _run_micro_rows(perfbench, 1)


def test_micro_rows_run_at_n2(perfbench):
    _run_micro_rows(perfbench, 2)


@pytest.mark.parametrize("n", [4, 8])
def test_factorization_rows_at_n(perfbench, n):
    # perfbench also times the two factorizations at n = 4 and 8
    rows = {name: (call, resid) for name, call, resid in perfbench("micro").rows_for(n)}
    for name in ("pair_diagonalize_gminus", "cartan_decompose_gminus"):
        call, resid = rows[name]
        assert resid(call()) < 1e-12, (name, n)


def test_map_roundtrip_round(perfbench):
    # the near-wall slice point trips the Lax gate and is mapped again with
    # validate=False
    rnd = perfbench("workloads").MapRoundtrip(
        seed=1, per_n=1, ns=(1, 2), slice_ns=(2,), slice_per_n=1).run_round()
    assert (rnd.attempted, rnd.failed, rnd.problems) == (3, 1, [])


def test_flow_exact_round(perfbench):
    rnd = perfbench("workloads").FlowExact(seed=1, T=0.01, ns=(1,)).run_round()
    assert (rnd.failed, rnd.problems) == (0, [])


def test_flow_exact_reads_of_a_trajectory(perfbench):
    # what the flow-exact check and perfbench's own tests read of a
    # Trajectory: the H_flow column, the end state and time, and a copy with
    # the H_flow column replaced
    W = perfbench("workloads")
    wl = W.FlowExact(seed=1, T=0.01, ns=(1,))
    for job in wl.inputs():
        traj = wl.integrate(job)
        H = traj.monitors["H_flow"]
        assert H.shape == traj.monitor_times.shape
        assert traj.states[-1].shape == (2,)
        assert traj.times[-1] == pytest.approx(wl.T)
        assert W.check_trajectory(job, traj, wl.dt, wl.T)[1] == []
        drifted = H.copy()
        drifted[-1] += 1.0
        moved = dataclasses.replace(
            traj, monitors={**traj.monitors, "H_flow": drifted})
        assert moved.monitors["H_flow"] is drifted
        assert set(moved.monitors) == set(traj.monitors)
        problems = W.check_trajectory(job, moved, wl.dt, wl.T)[1]
        assert any("energy" in p for p in problems)


def test_verify_all_round(perfbench, tmp_path):
    rnd = perfbench("workloads").VerifyAll(seed=1, n_max=2, samples=3,
                                           out_dir=str(tmp_path)).run_round()
    assert (rnd.failed, rnd.problems) == (0, [])


def test_traced_layers_exist(perfbench):
    for modname, funcs in perfbench("tracer").LAYERS.items():
        module = importlib.import_module("bcsuth." + modname)
        for func in funcs:
            assert callable(getattr(module, func, None)), f"{modname}.{func}"


def test_dynamics_shares_the_forward_map_object():
    # the tracer patches every module attribute holding the original
    # function, and perfbench's own test expects dynamics among them
    from bcsuth import duality, dynamics

    assert dynamics.forward_map_full is duality.forward_map_full


def test_map_roundtrip_full_near_wall_slice(perfbench):
    # the benchmark's whole near-wall slice (q_n = 1e-7 at n = 2, 3, 4): each
    # of its six points trips the Lax gate and passes check_slice
    rnd = perfbench("workloads").MapRoundtrip(
        seed=1, per_n=1, ns=(1,), slice_ns=(2, 3, 4), slice_per_n=2).run_round()
    assert (rnd.attempted, rnd.failed, rnd.problems) == (7, 6, [])
