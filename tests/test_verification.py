import json
import math

import numpy as np
import pytest

from bcsuth.errors import ConsistencyError
from bcsuth.verification import (DEFAULT_TOLERANCES, ROWS, SUITES, SuiteConfig,
                                 _Collector, run_suite, sample_lambda, sample_params,
                                 sample_sutherland)

FAST = SuiteConfig(suite="structure", n_values=(1, 2, 3), samples=5, seed=42)


def _cfg(name, **kw):
    base = dict(n_values=(1, 2), samples=4, seed=42)
    base.update(kw)
    return SuiteConfig(suite=name, **base)


def _passing_cfg(suite):
    if suite == "dynamics":
        return _cfg(suite, n_values=(1, 2), samples=2)
    return _cfg(suite)


@pytest.mark.parametrize("suite", SUITES)
def test_each_suite_passes(suite):
    report = run_suite(_passing_cfg(suite))
    failed = [c.name for c in report.checks if not c.passed]
    assert report.passed, f"failed checks: {failed}"


def test_suites_emit_a_row_for_every_tolerance():
    # an identity checked nowhere else cannot silently drop out of verify
    emitted = {c.name for suite in SUITES
               for c in run_suite(_passing_cfg(suite)).checks}
    assert emitted == set(DEFAULT_TOLERANCES)


def test_reports_are_deterministic():
    r1 = run_suite(_cfg("rsvd"))
    r2 = run_suite(_cfg("rsvd"))
    assert r1.to_json() == r2.to_json()
    assert r1.to_csv() == r2.to_csv()


def test_seed_changes_report():
    r1 = run_suite(_cfg("rsvd"))
    r2 = run_suite(_cfg("rsvd", seed=43))
    assert r1.to_json() != r2.to_json()


def test_negative_controls_present_and_flagged():
    for suite in SUITES:
        kw = dict(n_values=(1, 2), samples=2)
        report = run_suite(_cfg(suite, **kw))
        controls = [c for c in report.checks if c.negative_control]
        assert controls, f"suite {suite} has no negative control"
        for c in controls:
            assert c.passed, f"control in {suite} was not flagged: {c}"
            assert c.max_residual > 10 * c.tol or c.tol == 0.0


def test_rows_report_headroom():
    report = run_suite(_cfg("sutherland", n_values=(1, 2), samples=3))
    for c in report.checks:
        if c.max_residual == 0.0:
            assert c.headroom is None
        elif c.negative_control:
            assert c.headroom == c.max_residual / (10.0 * c.tol)
        else:
            assert c.headroom == c.tol / c.max_residual
        assert (c.headroom is None) or ((c.headroom > 1.0) == c.passed)
    rows = report.to_csv().splitlines()
    assert rows[0].split(",")[-1] == "headroom"
    assert [float(r.split(",")[-1]) for r in rows[1:]] \
        == [c.headroom for c in report.checks]
    assert '"headroom"' in report.to_json()


def test_tolerance_override_fails_suite():
    for name in ("rsvd.unitarity", "rsvd.h_frame_identity"):
        report = run_suite(_cfg("rsvd", tolerances={name: 1e-18}))
        assert not report.passed
        assert [c.name for c in report.checks if not c.passed] == [name]


def test_unknown_suite_rejected():
    with pytest.raises(ValueError, match="unknown suite"):
        run_suite(_cfg("nonsense"))


def test_samplers_respect_domains(rng):
    cfg = FAST
    for n in (1, 2, 4):
        p = sample_params(rng, n, cfg)
        assert p.mu > 0 and p.nu > abs(p.kappa) >= 0
        pt = sample_sutherland(rng, n)
        assert np.all(np.diff(pt.q) < 0)
        assert pt.q[0] < np.pi / 2 and pt.q[-1] > 0
        lam = sample_lambda(rng, n, p)
        assert np.all(lam[:-1] - lam[1:] > 2 * p.mu)
        assert lam[-1] > p.nu


@pytest.mark.parametrize("first", [True, False])
def test_a_nan_residual_fails_its_row(first):
    # max() keeps its running value when compared against NaN, so the
    # worst value must rank NaN itself, in either order of arrival
    name = "duality.round_trip"
    col = _Collector(FAST)
    vals = [(1e-17, {"sample": "finite"}), (float("nan"), {"sample": "nan"})]
    for residual, ctx in (vals[::-1] if first else vals):
        col.add(name, residual, ctx)
    col.add(name, 2e-17, {"sample": "later"})
    row = col.result(name)
    assert np.isnan(row.max_residual) and np.isnan(row.mean_residual)
    assert not row.passed
    assert row.counterexample == {"sample": "nan"}
    assert row.headroom is None


def test_dual_H0_control_runs_the_row_code(monkeypatch):
    # the control measures its corrupted input with the row's own residual
    # function, so a residual that reads zero cannot pass the row unseen
    import bcsuth.duality as duality

    monkeypatch.setattr(duality, "forward_residuals", lambda *args: (0.0, 0.0))
    report = run_suite(_cfg("duality", n_values=(1,), samples=2))
    [control] = [c for c in report.checks if c.negative_control]
    assert control.name == "duality.dual_H0_consistency"
    assert control.max_residual == 0.0 and not control.passed


def test_structure_control_runs_the_row_code(monkeypatch):
    import bcsuth.verification as verification

    monkeypatch.setattr(verification, "_pair_diag_residual", lambda *args: 0.0)
    report = run_suite(_cfg("structure", n_values=(1,), samples=2))
    [control] = [c for c in report.checks if c.negative_control]
    assert control.name == "structure.pair_diag_reconstruction"
    assert control.max_residual == 0.0 and not control.passed


@pytest.mark.parametrize("seed", [1, 42])
def test_no_toleranced_row_reads_exactly_zero(seed):
    # a residual that is zero by construction can never fail its row; the
    # 0/1 indicator rows have tolerance 0 and are exempt
    report = run_suite(SuiteConfig("all", seed=seed))
    zero = [c.name for c in report.checks if c.tol > 0 and c.max_residual == 0.0]
    assert zero == []


@pytest.mark.parametrize("jobs, workers", [(2, 2), (len(SUITES), len(SUITES)),
                                           (64, len(SUITES))])
def test_all_pool_has_at_most_one_worker_per_suite(monkeypatch, jobs, workers):
    # under fork the executor starts all max_workers processes at once; the
    # fake records the pool size and starts none
    import concurrent.futures

    sizes = []

    class FakePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return [[] for _ in tasks]

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    run_suite(_cfg("all"), jobs=jobs)
    assert sizes == [workers]


def test_collector_keeps_the_first_worst_counterexample():
    # a residual replaces the row's example only when it is strictly worse
    # than every earlier one, context or not
    name = "duality.round_trip"
    col = _Collector(FAST)
    for residual, sample in ((1.0, "a"), (1.0, "b"), (0.5, "c")):
        col.add(name, residual, {"sample": sample})
    assert col.result(name).counterexample == {"sample": "a"}
    col.add(name, 2.0)
    col.add(name, 2.0, {"sample": "d"})
    row = col.result(name)
    assert row.max_residual == 2.0 and row.counterexample == {"sample": "a"}
    col.add(name, 3.0, {"sample": "e"})
    assert col.result(name).counterexample == {"sample": "e"}


def test_collector_ranks_each_residual_once(monkeypatch):
    # a running worst per row: two severity keys per add, not a rescan of
    # every earlier residual
    import bcsuth.verification as verification
    calls = []
    severity = verification._severity

    def counted(residual):
        calls.append(1)
        return severity(residual)
    monkeypatch.setattr(verification, "_severity", counted)
    col = _Collector(FAST)
    for i in range(300):
        col.add("duality.round_trip", float(i % 7), {"i": i})
    assert len(calls) <= 2 * 300
    assert col.result("duality.round_trip").max_residual == 6.0


_DUALITY_SAMPLE_ROWS = {
    "duality.round_trip", "duality.moduli_vs_plus_branch",
    "duality.momentum_residual", "duality.dual_H0_consistency",
    "duality.invariant_phi", "duality.invariant_chi",
    "duality.superintegrability_brackets", "duality.detX_margin"}


def _raise_consistency(*args, **kwargs):
    raise ConsistencyError("gate tripped on purpose")


def test_an_error_in_a_sample_fails_its_rows_and_the_run_goes_on(monkeypatch):
    # every row of the duality sampler reads the backward map, the other
    # samplers' rows and the control do not
    import bcsuth.duality as duality

    monkeypatch.setattr(duality, "backward_map_full", _raise_consistency)
    report = run_suite(_cfg("duality", n_values=(1, 2), samples=3))
    failed = {c.name: c for c in report.checks if not c.passed}
    assert set(failed) == _DUALITY_SAMPLE_ROWS
    for row in failed.values():
        assert np.isnan(row.max_residual) and not row.negative_control
        assert "gate tripped on purpose" in row.counterexample["error"]
        assert set(row.counterexample) == {"n", "params", "point", "error"}


def test_verify_writes_the_report_when_a_sample_raises(monkeypatch, tmp_path):
    import bcsuth.duality as duality
    from bcsuth import cli

    monkeypatch.setattr(duality, "backward_map_full", _raise_consistency)
    out = tmp_path / "verify.json"
    code = cli.main(["verify", "--suite", "duality", "--n-max", "1",
                     "--samples", "2", "--out", str(out)])
    report = json.loads(out.read_text())
    assert code == 1 and report["passed"] is False
    assert {c["name"] for c in report["checks"]
            if not c["passed"]} == _DUALITY_SAMPLE_ROWS


def test_a_control_that_raises_fails(monkeypatch):
    import bcsuth.duality as duality

    monkeypatch.setattr(duality, "forward_map_full", _raise_consistency)
    report = run_suite(_cfg("duality", n_values=(1,), samples=2))
    [control] = [c for c in report.checks if c.negative_control]
    assert np.isnan(control.max_residual) and not control.passed
    assert "gate tripped on purpose" in control.counterexample["error"]


def test_seed_9_fails_only_the_known_dual_q_drift():
    # the known near-wall defect of the dynamics suite stays visible: its
    # sampler keeps the bare seed's stream
    report = run_suite(SuiteConfig("all", seed=9))
    [failed] = [c for c in report.checks if not c.passed]
    assert failed.name == "dynamics.dual_q_drift"
    assert failed.max_residual == pytest.approx(1.0950155597821976e-6, rel=1e-9)


@pytest.mark.parametrize("name", ["duality.rank_dlambda",
                                  "duality.canonicity_calibrated"])
def test_deleting_a_row_moves_no_other_row(monkeypatch, name):
    # each of these rows has a sampler of its own, which goes with it
    import bcsuth.verification as verification

    cfg = _cfg("duality", n_values=(1, 2, 3), samples=6)
    full = {c.name: c for c in run_suite(cfg).checks if not c.negative_control}
    rows = tuple(r for r in ROWS if r.name != name)
    assert {r.sampler for r in rows} < {r.sampler for r in ROWS}
    monkeypatch.setattr(verification, "ROWS", rows)
    trimmed = run_suite(cfg).checks
    assert name not in {c.name for c in trimmed}
    for c in trimmed:
        if not c.negative_control:
            assert c == full[c.name]


def test_sampler_ids_are_unique_and_only_dynamics_reads_the_bare_seed():
    # SeedSequence reads [seed, 0] as seed: id 0 is the dynamics suite's
    # historical default_rng(seed) stream, and no other sampler may alias it
    samplers = {r.sampler for r in ROWS}
    ids = [s.id for s in samplers]
    assert len(ids) == len(set(ids))
    assert {r.name.split(".")[0] for r in ROWS if r.sampler.id == 0} == {"dynamics"}
    assert {r.sampler.id for r in ROWS if r.name.startswith("dynamics.")} == {0}


def _H1_float(q, p, params) -> float:
    """The closed-form H_1 at n = 1 on Python floats: the per-step reference."""
    return (0.5 * p * p + params.gamma1 / math.sin(q) ** 2
            + params.gamma2 / math.sin(2.0 * q) ** 2)


@pytest.mark.parametrize("seed", [0, 1, 42])
def test_energy_control_trips_and_matches_a_per_step_reference(seed):
    # the explicit Euler control evaluates H_1 once over its 2001 states; a
    # float evaluation after each step reads the same drift to 1e-12
    import bcsuth.dynamics as dynamics
    import bcsuth.verification as verification
    cfg = SuiteConfig(suite="dynamics", seed=seed)
    drift = verification._control_dynamics(np.random.default_rng(seed + 1), cfg)
    rng = np.random.default_rng(seed + 1)
    params = sample_params(rng, 1, cfg)
    pt = sample_sutherland(rng, 1)
    f = dynamics.vector_field(dynamics.FlowSpec(system="sutherland_H1", chart="qp",
                                                dt=1e-3, T=2.0), params)
    y = np.r_[pt.q, pt.p]
    H0, ref = _H1_float(y[0], y[1], params), 0.0
    for _ in range(2000):
        y = y + 1e-3 * f(y)
        ref = max(ref, abs(_H1_float(y[0], y[1], params) - H0))
    assert abs(drift - ref) <= 1e-12 * ref
    assert drift > 10 * DEFAULT_TOLERANCES["dynamics.energy_drift"]


def test_sutherland_suite_builds_one_lax_matrix_and_two_spectra_per_sample(monkeypatch):
    # 75 samples at seed 1 and the negative control: one Lax matrix per
    # sample, one eigvalsh of -iY and one of -iK (the parent built the Lax
    # matrix five times and took four eigvalsh per sample: 376 and 300)
    import bcsuth.sutherland as sutherland

    calls = {"lax": 0, "eigvalsh": 0}
    kernel, eigvalsh = sutherland._lax_K_kernel, np.linalg.eigvalsh

    def counted(name, fn):
        return lambda *a, **k: calls.__setitem__(name, calls[name] + 1) or fn(*a, **k)

    monkeypatch.setattr(sutherland, "_lax_K_kernel", counted("lax", kernel))
    monkeypatch.setattr(np.linalg, "eigvalsh", counted("eigvalsh", eigvalsh))
    report = run_suite(SuiteConfig("sutherland", seed=1))
    assert report.passed
    assert calls == {"lax": 76, "eigvalsh": 150}
