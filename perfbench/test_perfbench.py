"""Reduced-size test of the benchmark itself.

Not part of the tier-1 run (``testpaths`` names ``tests/`` only).  Run it with

    python3 -m pytest perfbench -q

Every workload runs a round to its end, every check trips on a deliberately
corrupted output, and the command prints exactly the metrics that
``BENCHMARK.json`` declares.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run

run.bootstrap()

import tracer as tr  # noqa: E402
import workloads as W  # noqa: E402
from bcsuth import duality, dynamics, params as bparams  # noqa: E402

ROOT = run.ROOT
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def small_map(seed=3):
    return W.MapRoundtrip(seed, per_n=2, ns=(1, 2, 4), slice_ns=(2, 3), slice_per_n=1)


def small_flow(seed=3):
    return W.FlowExact(seed, T=0.02, ns=(1, 2))


def small_verify(tmp_path, extra=()):
    return W.VerifyAll(2, n_max=1, samples=2, out_dir=str(tmp_path), extra=extra)


def mapped_point(seed=5, n=3):
    rng = np.random.default_rng(seed)
    pr = W.sample_couplings(rng, n)
    pt = bparams.SutherlandPoint(q=W.sample_q(rng, n, 0.05), p=rng.standard_normal(n))
    dual = duality.forward_map(pt, pr)
    return pt, pr, dual, duality.backward_map(dual, pr)


# ---------------------------------------------------------------------------
# every workload runs to its end

def test_map_roundtrip_round_is_correct_and_slice_fails():
    wl = small_map()
    wl.warm_up()
    rnd = wl.run_round()
    assert rnd.problems == []
    assert rnd.attempted == 2 * 3 + 2
    assert rnd.failed == 2
    assert 1e-16 <= rnd.worst <= W.ROUND_TRIP_TOL


def test_flow_exact_round_is_correct():
    wl = small_flow()
    wl.warm_up()
    rnd = wl.run_round()
    assert rnd.problems == []
    assert (rnd.attempted, rnd.failed) == (4, 0)
    assert 0 < rnd.worst < 1e-3


def test_verify_all_round_is_correct(tmp_path):
    wl = small_verify(tmp_path)
    rnd = wl.run_round()
    assert rnd.problems == []
    assert rnd.failed == 0 and rnd.attempted > 20
    assert 0 < rnd.worst < 1e-10
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# every check trips on a corrupted output

def test_map_checks_pass_on_true_output():
    pt, pr, dual, back = mapped_point()
    err, problems = W.check_map(pt, pr, dual, back)
    assert problems == [] and err < 1e-10


def test_theta_shift_trips_dual_H0_check():
    pt, pr, dual, back = mapped_point()
    shifted = bparams.DualPoint(lam=dual.lam, theta=dual.theta + 0.3)
    _, problems = W.check_map(pt, pr, shifted, back)
    assert any("dual H0" in p for p in problems)


def test_lambda_shift_trips_H1_check():
    pt, pr, dual, back = mapped_point()
    moved = bparams.DualPoint(lam=dual.lam + 1e-6, theta=dual.theta)
    _, problems = W.check_map(pt, pr, moved, back)
    assert any("H_1" in p for p in problems)


def test_round_trip_check_trips():
    pt, pr, dual, back = mapped_point()
    off = bparams.SutherlandPoint(q=back.q, p=back.p + 10 * W.ROUND_TRIP_TOL)
    _, problems = W.check_map(pt, pr, dual, off)
    assert any("round trip" in p for p in problems)


def test_chamber_check_trips():
    pt, pr, dual, back = mapped_point()
    lam = dual.lam.copy()
    lam[-1] = pr.nu * (1 - 1e-3)
    with np.errstate(invalid="ignore"):
        _, problems = W.check_map(pt, pr, bparams.DualPoint(lam=lam, theta=dual.theta), back)
    assert any("chamber" in p for p in problems)


def test_slice_check_trips():
    wl = small_map()
    pt, pr = wl.slice[0]
    dual = duality.forward_map(pt, pr)
    back, _ = duality.backward_map_full(dual, pr, validate=False)
    assert W.check_slice(pt, pr, back) == []
    scale = W.lax_norm(pt.q, pt.p, pr.mu, pr.nu, pr.kappa)
    off = bparams.SutherlandPoint(q=back.q, p=back.p + 10 * W.SLICE_TOL * scale)
    assert W.check_slice(pt, pr, off)


@pytest.fixture(scope="module")
def flow_run():
    wl = small_flow(seed=8)
    jobs = wl.inputs()
    return wl, [(job, dynamics.integrate(wl.specs[job.system], job.x0, job.params))
                for job in jobs]


def test_flow_end_state_moved_by_10x_tolerance_trips(flow_run):
    wl, pairs = flow_run
    for job, traj in pairs:
        assert W.check_trajectory(job, traj, wl.dt, wl.T)[1] == []
        tol, _ = W.flow_tolerances(job, wl.dt, wl.T)
        states = traj.states.copy()
        states[-1, 0] += 10 * tol * (job.dual0.lam[0] if job.system == "dual_H0" else 1.0)
        moved = dataclasses.replace(traj, states=states)
        assert any("exact flow" in p
                   for p in W.check_trajectory(job, moved, wl.dt, wl.T)[1])


def test_flow_energy_drift_trips(flow_run):
    wl, pairs = flow_run
    job, traj = pairs[0]
    _, energy_tol = W.flow_tolerances(job, wl.dt, wl.T)
    H = traj.monitors["H_flow"].copy()
    H[-1] += 10 * energy_tol * max(1.0, abs(H[0]))
    drifted = dataclasses.replace(traj, monitors={**traj.monitors, "H_flow": H})
    assert any("energy" in p for p in W.check_trajectory(job, drifted, wl.dt, wl.T)[1])


def test_verify_tol_override_trips(tmp_path):
    wl = small_verify(tmp_path, extra=("--tol", "duality.round_trip=1e-30"))
    rnd = wl.run_round()
    assert rnd.failed == 1
    assert any("exited with 1" in p for p in rnd.problems)


def test_verify_verdict_check_trips_on_inconsistent_rows():
    row = {"name": "x", "max_residual": 1.0, "tol": 1e-8, "passed": True,
           "negative_control": False}
    control = {"name": "y", "max_residual": 1e-12, "tol": 1e-8, "passed": True,
               "negative_control": True}
    assert W.check_verdict(0, {"passed": True, "checks": [row, control]})
    good = dict(row, max_residual=1e-9)
    tripped = dict(control, max_residual=1.0)
    assert W.check_verdict(0, {"passed": True, "checks": [good, tripped]}) == []
    assert W.check_verdict(0, {"passed": True, "checks": [good]})


# ---------------------------------------------------------------------------
# tracing and the command line

def test_tracer_counts_calls_and_restores_functions():
    wl = small_map()
    original = duality.forward_map_full
    tracer = tr.Tracer()
    with tracer.installed():
        assert duality.forward_map_full is not original
        assert dynamics.forward_map_full is duality.forward_map_full
        wl.run_round(tracer.recording)
    assert duality.forward_map_full is original
    totals = tracer.totals()
    calls, total, self_time = totals["duality.forward_map_full"]
    assert calls == 8 and 0 < self_time < total
    assert totals["linalg.schur"][0] == 8


def names(section):
    return [m["name"] for m in SPEC[section]]


def run_cli(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_command_prints_declared_metrics(trace, section):
    proc = run_cli("--workload", "map-roundtrip", "--seed", "4", "--seconds", "1",
                   "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] * 38 == result["attempted"] * 6
    assert list(result["metrics"]) == names(section)
    units = {m["name"]: m["unit"] for m in SPEC[section]}
    assert all(m["unit"] == units[k] for k, m in result["metrics"].items())


def test_command_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_cli("--workload", "map-roundtrip", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
