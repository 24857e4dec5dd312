import json
import warnings

import numpy as np
import pytest

from bcsuth.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_lax_sutherland_worked_example(capsys):
    code, out, _ = run_cli(
        capsys, "--deterministic", "lax", "--side", "sutherland",
        "--n", "1", "--mu", "1", "--nu", "2", "--kappa", "0",
        "--q", "0.7853981633974483", "--p", "1")
    assert code == 0
    payload = json.loads(out)
    eigs = [complex(re, im) for re, im in payload["eigenvalues"]]
    mags = sorted(abs(w) for w in eigs)
    assert mags == pytest.approx([np.sqrt(5)] * 2, abs=1e-10)
    assert all(abs(w.real) < 1e-10 for w in eigs)  # eigenvalues of Y are +-i*sqrt(5)
    assert payload["params"]["gamma2"] == 2.0


def test_lax_invalid_order_exit_code(capsys):
    code, _, err = run_cli(
        capsys, "lax", "--side", "sutherland", "--n", "2",
        "--mu", "1", "--nu", "2", "--q", "0.3,0.5", "--p", "0,0")
    assert code == 2
    assert "q must satisfy" in err


def test_map_forward_and_exit_codes(capsys):
    code, out, _ = run_cli(
        capsys, "--deterministic", "map", "--direction", "forward",
        "--n", "1", "--mu", "1", "--nu", "2", "--kappa", "0",
        "--q", "0.7853981633974483", "--p", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["output"]["lambda"][0] == pytest.approx(np.sqrt(5), abs=1e-12)
    assert payload["round_trip_error"] < 1e-8


def test_map_boundary_is_degenerate(capsys):
    code, _, err = run_cli(
        capsys, "map", "--direction", "forward", "--n", "1",
        "--mu", "1", "--nu", "2", "--q", "0.7853981633974483", "--p", "0")
    assert code == 3
    assert "degenerate" in err


def test_map_backward_boundary_is_degenerate(capsys):
    # lambda_n = nu: the dual point sits on the chamber wall
    code, out, err = run_cli(
        capsys, "map", "--direction", "backward", "--n", "1",
        "--mu", "1", "--nu", "2", "--lam", "2.0", "--theta", "0")
    assert code == 3 and out == ""
    assert "degenerate" in err


def test_lax_rsvd_angle_boundary_is_degenerate(capsys):
    code, out, err = run_cli(
        capsys, "lax", "--side", "rsvd-angle", "--n", "2", "--mu", "1",
        "--nu", "2", "--lam", "4.5,2.5", "--theta", "0,0")
    assert code == 3 and out == ""
    assert "degenerate" in err


def test_map_backward_outside_the_chamber_is_a_domain_error(capsys):
    code, _, err = run_cli(
        capsys, "map", "--direction", "backward", "--n", "1",
        "--mu", "1", "--nu", "2", "--lam", "1.5", "--theta", "0")
    assert code == 2
    assert "point is outside" in err


@pytest.mark.parametrize("argv", [
    ("map", "--direction", "backward", "--n", "1", "--mu", "1", "--nu", "2",
     "--lam", "nan", "--theta", "0.3"),
    ("map", "--direction", "backward", "--n", "1", "--mu", "1", "--nu", "2",
     "--lam", "inf", "--theta", "0.3"),
    ("flow", "--system", "dual_H0", "--n", "1", "--mu", "1", "--nu", "2",
     "--x0", "nan,0.3", "--T", "0.01", "--dt", "0.001")])
def test_non_finite_positions_are_outside_the_chart(capsys, argv):
    # NaN read as a degenerate boundary point (exit 3); inf reached the
    # eigensolver with RuntimeWarnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert "point is outside" in err


def test_map_backward(capsys):
    code, out, _ = run_cli(
        capsys, "--deterministic", "map", "--direction", "backward",
        "--n", "1", "--mu", "1", "--nu", "2",
        "--lam", "2.23606797749979", "--theta", "4.71238898038469")
    assert code == 0
    payload = json.loads(out)
    assert payload["output"]["q"][0] == pytest.approx(np.pi / 4, abs=1e-10)
    assert payload["output"]["p"][0] == pytest.approx(1.0, abs=1e-10)
    assert payload["round_trip_error"] < 1e-8


def test_map_backward_prints_strict_json(capsys):
    # RFC 8259 has no NaN: the backward map measures no canonicity and says null
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    code, out, _ = run_cli(
        capsys, "--deterministic", "map", "--direction", "backward",
        "--n", "1", "--mu", "1", "--nu", "2",
        "--lam", "2.5785910319", "--theta", "3.6849307341")
    assert code == 0
    payload = json.loads(out, parse_constant=reject)
    assert payload["canonicity_residual"] is None
    assert payload["canonicity_residual_calibrated"] is None


def test_flow_row_count(tmp_path, capsys):
    out_csv = tmp_path / "t.csv"
    code, out, _ = run_cli(
        capsys, "--out", str(out_csv), "flow", "--system", "sutherland_H1",
        "--chart", "qp", "--n", "1", "--mu", "1", "--nu", "2",
        "--x0", "0.7853981633974483,1.0", "--dt", "1e-3", "--T", "0.1")
    assert code == 0
    lines = out_csv.read_text().splitlines()
    assert len(lines) == 2 + 101  # header comment + column row + T/dt + 1 states
    stats = json.loads(lines[0][2:])["stats"]
    assert stats["steps"] == 100 and stats["evaluations"] >= 100
    summary = json.loads(out)
    assert summary["rows"] == 101


@pytest.mark.parametrize("system, x0, columns", [
    ("sutherland_H1", "0.7853981633974483,1.0", "t,q1,p1"),
    ("dual_H0", "2.23606797749979,4.71238898038469", "t,lambda1,theta1"),
])
def test_flow_chart_defaults_to_the_systems_chart(capsys, system, x0, columns):
    common = ("flow", "--system", system, "--n", "1", "--mu", "1", "--nu", "2",
              "--x0", x0, "--dt", "1e-2", "--T", "0.1")
    code, out, err = run_cli(capsys, *common)
    assert code == 0, err
    assert out.splitlines()[1].startswith(columns + ",")
    other = "lambda_theta" if system == "sutherland_H1" else "qp"
    code, _, err = run_cli(capsys, *common, "--chart", other)
    assert code == 2
    assert "is defined in the" in err


def test_flow_stdout_equals_out_file(tmp_path, capsys):
    argv = ("flow", "--system", "sutherland_H1", "--chart", "qp", "--n", "1",
            "--mu", "1", "--nu", "2", "--x0", "0.7853981633974483,1.0",
            "--dt", "1e-2", "--T", "0.1")
    out_csv = tmp_path / "t.csv"
    code, _, _ = run_cli(capsys, "--out", str(out_csv), *argv)
    assert code == 0
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out == out_csv.read_text()
    assert out.splitlines()[1].startswith("t,q1,p1")


def test_flow_rejects_a_fractional_step_count(tmp_path, capsys):
    # T / dt = 10/3 would have stopped the trajectory at t = 0.09
    out_csv = tmp_path / "t.csv"
    code, _, err = run_cli(
        capsys, "--out", str(out_csv), "flow", "--system", "sutherland_H1",
        "--chart", "qp", "--n", "1", "--mu", "1", "--nu", "2",
        "--x0", "0.7853981633974483,1.0", "--dt", "0.03", "--T", "0.1")
    assert code == 2
    assert "T / dt must be an integer" in err
    assert not out_csv.exists()


@pytest.mark.parametrize("stride", ["0", "-3"])
def test_flow_rejects_a_monitor_stride_below_one(capsys, stride):
    # a usage error (exit 2), neither a division by zero nor every-step sampling
    code, out, err = run_cli(
        capsys, "flow", "--system", "sutherland_H1", "--chart", "qp", "--n", "1",
        "--mu", "1", "--nu", "2", "--x0", "0.7,1", "--T", "0.01", "--dt", "0.001",
        "--monitor-stride", stride)
    assert code == 2
    assert "monitor_stride must be >= 1" in err
    assert out == ""


def test_flow_dual_H0_default_analytic_gradient(tmp_path, capsys):
    out_csv = tmp_path / "d.csv"
    code, out, err = run_cli(
        capsys, "--out", str(out_csv), "flow", "--system", "dual_H0",
        "--chart", "lambda_theta", "--n", "1", "--mu", "1", "--nu", "2",
        "--x0", "2.23606797749979,4.71238898038469", "--dt", "1e-3",
        "--T", "0.1")
    assert code == 0, err
    summary = json.loads(out)
    assert summary["flow"]["gradient"] == "analytic"
    assert summary["rows"] == 101
    lines = out_csv.read_text().splitlines()
    header = lines[1].split(",")
    assert header[:3] == ["t", "lambda1", "theta1"]
    # the dual H0 flow leaves the Sutherland position q1 = pi/4 where it is
    q1 = [row.split(",")[header.index("q1")] for row in lines[2:]]
    assert max(abs(float(q) - np.pi / 4) for q in q1 if q) < 1e-9


def test_flow_default_gradient_is_fd_without_a_closed_form(capsys):
    # --gradient defaults to the closed form only where one exists
    for argv in (("--system", "sutherland_Hk", "--chart", "qp", "--x0", "0.7,1"),
                 ("--system", "dual_Hk", "--chart", "lambda_theta",
                  "--x0", "2.5,0.3")):
        common = ("flow", *argv, "--k", "1", "--n", "1", "--mu", "1",
                  "--nu", "2", "--T", "0.01", "--dt", "0.001")
        code, out, err = run_cli(capsys, *common)
        assert code == 0, err
        header = json.loads(out.splitlines()[0].removeprefix("# "))
        assert header["flow"]["gradient"] == "fd"
        code, _, err = run_cli(capsys, *common, "--gradient", "analytic")
        assert code == 2
        assert "analytic gradients exist only" in err


def test_flow_stall_prints_the_integrator_counters(capsys, monkeypatch):
    # a field that vanishes for 30 evaluations, one per step, and then has no
    # midpoint solution at this step size (as in test_dynamics'
    # test_nonconvergence_carries_the_counters): Newton stalls in step 31
    import bcsuth.dynamics as dynamics
    evals = []

    def stalling_field(flow, params):
        def f(x):
            evals.append(1)
            return np.zeros_like(x) if len(evals) <= 30 else 100.0 * (1.0 + x**2)
        return f
    monkeypatch.setattr(dynamics, "vector_field", stalling_field)
    code, out, err = run_cli(
        capsys, "flow", "--system", "sutherland_H1", "--n", "1", "--mu", "1",
        "--nu", "2", "--x0", "0.7853981633974483,1", "--T", "10", "--dt", "0.1")
    assert code == 1 and out == ""
    message, counters = err.splitlines()
    assert message.startswith("error: implicit midpoint Newton stalled")
    label = "integrator counters: "
    assert counters.startswith(label)
    stats = json.loads(counters[len(label):])
    assert set(stats) == {"steps", "evaluations", "jacobians", "stalls"}
    assert stats["steps"] == 30
    assert stats["evaluations"] == len(evals) > stats["steps"]


@pytest.mark.parametrize("argv, message", [
    (("map", "--direction", "backward", "--n", "1", "--mu", "1", "--nu", "2",
      "--lam", "3", "--theta", "nan"), "theta must be finite, got theta1 = nan"),
    (("flow", "--system", "dual_H0", "--n", "1", "--mu", "1", "--nu", "2",
      "--x0", "3,nan", "--T", "0.01", "--dt", "0.001"),
     "theta must be finite, got theta1 = nan"),
    (("flow", "--system", "sutherland_H1", "--n", "1", "--mu", "1", "--nu", "2",
      "--x0", "0.7,nan", "--T", "0.01", "--dt", "0.001"),
     "p must be finite, got p1 = nan"),
    (("map", "--direction", "forward", "--n", "1", "--mu", "1", "--nu", "2",
      "--q", "0.7", "--p", "inf"), "p must be finite, got p1 = inf")])
def test_non_finite_momenta_and_angles_are_refused(capsys, argv, message):
    # a NaN angle used to reach the Cauchy core (RuntimeWarning, then "Array
    # must not contain infs or NaNs") or, in a flow, to be blamed on lambda;
    # a NaN momentum stalled Newton at residual nan, an infinite one stopped
    # the SVD
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


def test_flow_monitor_failure_writes_no_file(tmp_path, capsys, monkeypatch):
    # the monitors are evaluated when the CSV is built, before --out is opened
    import bcsuth.dynamics as dynamics
    from bcsuth.errors import ConsistencyError

    def refuse(*args, **kwargs):
        raise ConsistencyError("monitor backward map refused")

    monkeypatch.setattr(dynamics, "_backward_kernel", refuse)
    out_csv = tmp_path / "dual.csv"
    code, out, err = run_cli(
        capsys, "--out", str(out_csv), "flow", "--system", "dual_H0", "--n", "1",
        "--mu", "1", "--nu", "2", "--x0", "2.5785910319,3.6849307341",
        "--dt", "1e-2", "--T", "0.1")
    assert code == 1 and out == ""
    assert "monitor backward map refused" in err
    assert not out_csv.exists()


def test_verify_pass_and_fail(tmp_path, capsys):
    code, out, err = run_cli(
        capsys, "verify", "--suite", "rsvd", "--seed", "42", "--n-max", "2",
        "--samples", "3")
    assert code == 0
    assert "PASS" in err
    report = json.loads(out)
    assert report["passed"] is True
    # forced-failure control: absurd tolerance override
    code, out, err = run_cli(
        capsys, "verify", "--suite", "rsvd", "--seed", "42", "--n-max", "2",
        "--samples", "3", "--tol", "rsvd.unitarity=1e-18")
    assert code == 1
    assert "FAIL" in err


def test_verify_unknown_suite(capsys):
    code, _, _ = run_cli(capsys, "verify", "--suite", "bogus")
    assert code == 2


def test_verify_deterministic_output(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for path in (a, b):
        code, _, _ = run_cli(
            capsys, "verify", "--suite", "structure", "--seed", "7",
            "--n-max", "2", "--samples", "2", "--out", str(path))
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_verify_csv_format(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "structure", "--n-max", "1",
        "--samples", "2", "--format", "csv")
    assert code == 0
    header = out.splitlines()[0]
    assert header.split(",")[:3] == ["check", "max_residual", "mean_residual"]


def test_params_file_and_gamma_input(tmp_path, capsys):
    pfile = tmp_path / "params.json"
    pfile.write_text(json.dumps({"n": 1, "mu": 1.0, "nu": 2.0, "kappa": 0.0}))
    code, out, _ = run_cli(
        capsys, "--deterministic", "lax", "--side", "rsvd-angle",
        "--params-file", str(pfile), "--lam", "3.0", "--theta", "0.0")
    assert code == 0
    payload = json.loads(out)
    assert payload["structure_residuals"]["unitary"] < 1e-10
    # same via the Sutherland coupling triple
    code2, out2, _ = run_cli(
        capsys, "--deterministic", "lax", "--side", "rsvd-angle",
        "--n", "1", "--gamma", "1.0", "--gamma1", "0.0", "--gamma2", "2.0",
        "--lam", "3.0", "--theta", "0.0")
    assert code2 == 0
    assert json.loads(out2)["params"]["nu"] == pytest.approx(2.0)


def test_lax_global_chart(capsys):
    code, out, _ = run_cli(
        capsys, "--deterministic", "lax", "--side", "rsvd-global",
        "--n", "2", "--mu", "1", "--nu", "2", "--kappa", "0", "--z", "0,0")
    assert code == 0
    payload = json.loads(out)
    assert payload["structure_residuals"]["unitary"] < 1e-10


def test_verify_all_parallel_matches_serial(tmp_path, capsys):
    a = tmp_path / "serial.json"
    b = tmp_path / "parallel.json"
    base = ["verify", "--suite", "all", "--seed", "5", "--n-max", "1",
            "--samples", "2"]
    code, _, _ = run_cli(capsys, *base, "--out", str(a))
    assert code == 0
    code, _, _ = run_cli(capsys, *base, "--jobs", "2", "--out", str(b))
    assert code == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("argv, flag", [
    (("lax", "--side", "sutherland", "--n", "2", "--q", "0.7", "--p", "1"), "--q"),
    (("map", "--direction", "forward", "--n", "3", "--q", "0.7", "--p", "1"), "--q"),
    (("map", "--direction", "backward", "--n", "1", "--lam", "3,5",
      "--theta", "1"), "--lam"),
    (("lax", "--side", "rsvd-global", "--n", "2", "--z", "1+1j"), "--z"),
    (("flow", "--system", "sutherland_H1", "--chart", "qp", "--n", "2",
      "--x0", "0.7,1"), "--x0"),
], ids=["lax-q", "map-q", "map-lam", "lax-z", "flow-x0"])
def test_vector_inputs_must_have_n_entries(capsys, argv, flag):
    code, out, err = run_cli(capsys, *argv, "--mu", "1", "--nu", "2")
    assert code == 2 and out == ""
    assert err.startswith(f"error: {flag} needs ")


@pytest.mark.parametrize("argv, flag", [
    (("lax", "--side", "sutherland", "--n", "1", "--p", "1"), "--q"),
    (("lax", "--side", "rsvd-angle", "--n", "1", "--theta", "0"), "--lam"),
    (("lax", "--side", "rsvd-global", "--n", "1"), "--z"),
    (("map", "--direction", "forward", "--n", "1", "--q", "0.7"), "--p"),
    (("map", "--direction", "backward", "--n", "1", "--lam", "3"), "--theta"),
], ids=["lax-q", "lax-lam", "lax-z", "map-p", "map-theta"])
def test_missing_vector_input_is_a_usage_error(capsys, argv, flag):
    code, out, err = run_cli(capsys, *argv, "--mu", "1", "--nu", "2")
    assert code == 2 and out == ""
    assert err == f"error: missing {flag}\n"


@pytest.mark.parametrize("argv, message", [
    (("--n-max", "0"), "--n-max and --samples must be >= 1"),
    (("--samples", "0"), "--n-max and --samples must be >= 1"),
    (("--tol", "duality.round_trp=1e-7"), "--tol names no check"),
    (("--tol", "duality.round_trip=nan"), "needs a finite value >= 0"),
    (("--tol", "duality.round_trip=-1e-9"), "needs a finite value >= 0"),
    (("--jobs", "0"), "--jobs must be >= 1"),
    (("--jobs", "-3"), "--jobs must be >= 1"),
], ids=["n-max", "samples", "tol-name", "tol-nan", "tol-negative", "jobs-0", "jobs-negative"])
def test_verify_refuses_a_vacuous_or_unknown_setting(capsys, argv, message):
    code, out, err = run_cli(capsys, "verify", "--suite", "rsvd", *argv)
    assert code == 2 and out == ""
    assert message in err
