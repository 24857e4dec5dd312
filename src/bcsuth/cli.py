"""Command-line front end: build Lax matrices, run duality maps, integrate
flows, run verification suites, emit JSON/CSV.

Exit codes: 0 success / suite pass, 1 verification failure, 2 usage or domain
error, 3 degenerate input (chamber-boundary point).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import asdict

import numpy as np

from . import verification
from .duality import (backward_map_full, backward_residuals, forward_map_full,
                      round_trip_report)
from .dynamics import GRADIENTS, SYSTEMS, FlowSpec, integrate
from .errors import (BcsuthError, BoundaryApproachError, DegenerateChartError,
                     DegenerateTorusError, DomainError, NonConvergenceError,
                     ParameterError)
from .matkernel import structure_residual
from .params import (CouplingParams, DualPoint, SutherlandPoint,
                     couplings_from_rsvd, couplings_from_sutherland)
from .rsvd import A_check, L_tilde
from .sutherland import lax_Y


def _parse_reals(text):
    return np.array([float(tok) for tok in text.split(",") if tok.strip() != ""])


def _parse_complexes(text):
    vals = []
    for tok in text.split(","):
        tok = tok.strip()
        if tok:
            vals.append(complex(tok.replace("i", "j")))
    return np.array(vals, dtype=complex)


def _vector(args, flag: str, size: int, parse=_parse_reals):
    """The comma-separated vector given as ``--flag``, which must have ``size``
    entries."""
    text = getattr(args, flag)
    if text is None:
        raise ParameterError(f"missing --{flag}")
    vec = parse(text)
    if vec.size != size:
        raise ParameterError(f"--{flag} needs {size} entries, got {vec.size}")
    return vec


def _tolerance(override: str) -> tuple[str, float]:
    """(check name, tolerance) of a ``--tol NAME=VALUE`` override."""
    name, _, text = override.partition("=")
    if name not in verification.DEFAULT_TOLERANCES:
        raise ParameterError(f"--tol names no check: {name!r}")
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0.0 <= value < math.inf:
        raise ParameterError(f"--tol {name} needs a finite value >= 0, got {text!r}")
    return name, value


def _add_param_args(p):
    p.add_argument("--n", type=int, help="particle number")
    p.add_argument("--mu", type=float)
    p.add_argument("--nu", type=float)
    p.add_argument("--kappa", type=float)
    p.add_argument("--gamma", type=float)
    p.add_argument("--gamma1", type=float)
    p.add_argument("--gamma2", type=float)
    p.add_argument("--params-file", help="JSON file with {n, mu, nu, kappa}")


def _params_from_args(args) -> CouplingParams:
    if args.params_file:
        with open(args.params_file) as fh:
            return CouplingParams.from_dict(json.load(fh))
    if args.n is None:
        raise ParameterError("missing --n (or --params-file)")
    have_rsvd = args.mu is not None and args.nu is not None
    have_suth = args.gamma is not None and args.gamma2 is not None
    if have_rsvd:
        return couplings_from_rsvd(args.mu, args.nu, args.kappa or 0.0, args.n)
    if have_suth:
        return couplings_from_sutherland(args.gamma, args.gamma1 or 0.0,
                                         args.gamma2, args.n)
    raise ParameterError(
        "give either (--mu, --nu[, --kappa]) or (--gamma[, --gamma1], --gamma2)")


def _params_echo(params: CouplingParams):
    return {
        "n": params.n, "mu": params.mu, "nu": params.nu, "kappa": params.kappa,
        "gamma": params.gamma, "gamma1": params.gamma1, "gamma2": params.gamma2,
    }


def _emit(payload, args):
    if not args.deterministic:
        payload = dict(payload)
        payload["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S")
    text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _matrix_payload(M: np.ndarray, tags=("unitary",)):
    eigs = np.linalg.eigvals(M)
    return {
        "shape": list(M.shape),
        "entries": [[float(w.real), float(w.imag)] for w in M.reshape(-1)],
        "eigenvalues": [[float(w.real), float(w.imag)] for w in eigs],
        "structure_residuals": {t: structure_residual(M, t) for t in tags},
    }


def cmd_lax(args) -> int:
    params = _params_from_args(args)
    n = params.n
    if args.side == "sutherland":
        point = SutherlandPoint(q=_vector(args, "q", n), p=_vector(args, "p", n))
        lax = lax_Y(point, params)
        payload = _matrix_payload(lax.Y.m, tags=())
        payload["matrix"] = "Y"
        payload["structure_residuals"] = {
            "gminus(K)": structure_residual(lax.K.m, "gminus")}
    elif args.side == "rsvd-global":
        z = _vector(args, "z", n, parse=_parse_complexes)
        M = L_tilde(z, params).m
        payload = _matrix_payload(M, tags=("unitary", "Gminus"))
        payload["matrix"] = "L_tilde"
    else:  # rsvd-angle
        dual = DualPoint(lam=_vector(args, "lam", n), theta=_vector(args, "theta", n))
        M = A_check(dual, params).m
        payload = _matrix_payload(M, tags=("unitary", "Gminus"))
        payload["matrix"] = "A_check"
    payload["params"] = _params_echo(params)
    _emit(payload, args)
    return 0


def cmd_map(args) -> int:
    params = _params_from_args(args)
    n = params.n
    if args.direction == "forward":
        point = SutherlandPoint(q=_vector(args, "q", n), p=_vector(args, "p", n))
        payload = round_trip_report(point, params)
    else:
        dual = DualPoint(lam=_vector(args, "lam", n), theta=_vector(args, "theta", n))
        point, Y = backward_map_full(dual, params)
        image, _ = forward_map_full(point, params)
        err = max(float(np.max(np.abs(image.lam - dual.lam))),
                  float(np.max(np.abs(np.minimum(
                      np.abs(image.theta - dual.theta),
                      2 * np.pi - np.abs(image.theta - dual.theta))))))
        lax_err, mom = backward_residuals(point, Y, params)
        # the canonicity residuals are measured on the forward map only
        payload = {"input": dual.to_dict(), "output": point.to_dict(),
                   "round_trip_error": err, "canonicity_residual": None,
                   "canonicity_residual_calibrated": None,
                   "constraint_residuals": list(mom),
                   "branch_diagnostics": {"lax_reconstruction": lax_err}}
    payload["params"] = _params_echo(params)
    _emit(payload, args)
    return 0


def cmd_flow(args) -> int:
    params = _params_from_args(args)
    gradient = args.gradient or ("analytic" if args.system in GRADIENTS else "fd")
    flow = FlowSpec(system=args.system, chart=args.chart or SYSTEMS[args.system],
                    dt=args.dt, T=args.T, k=args.k, gradient=gradient,
                    monitor_stride=args.monitor_stride)
    x0 = _vector(args, "x0", 2 * params.n)
    try:
        traj = integrate(flow, x0, params)
    except NonConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print("integrator counters: "
              + json.dumps(exc.stats, sort_keys=True), file=sys.stderr)
        return 1
    text = traj.to_csv()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        summary = {"rows": int(traj.times.size), "out": args.out,
                   "params": _params_echo(params), "flow": asdict(flow)}
        print(json.dumps(summary, sort_keys=True))
    else:
        sys.stdout.write(text)
    return 0


def cmd_verify(args) -> int:
    if args.n_max < 1 or args.samples < 1:
        raise ParameterError(f"--n-max and --samples must be >= 1, got "
                             f"{args.n_max} and {args.samples}")
    if args.jobs < 1:
        raise ParameterError(f"--jobs must be >= 1, got {args.jobs}")
    tolerances = dict(_tolerance(override) for override in args.tol or [])
    config = verification.SuiteConfig(
        suite=args.suite,
        n_values=tuple(range(1, args.n_max + 1)),
        samples=args.samples, seed=args.seed, tolerances=tolerances)
    report = verification.run_suite(config, jobs=args.jobs)
    if args.format == "csv":
        text = report.to_csv()
    else:
        text = report.to_json()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)
    print(f"suite {report.suite}: {'PASS' if report.passed else 'FAIL'}",
          file=sys.stderr)
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="bcsuth",
        description="Trigonometric BC_n Sutherland / rational RSvD duality toolkit")
    ap.add_argument("--out", help="write the main payload to this file")
    ap.add_argument("--deterministic", action="store_true",
                    help="suppress the timestamp field for byte-stable output")
    # the same options are accepted after the subcommand; SUPPRESS keeps the
    # subparser from clobbering a value given at the top level
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=argparse.SUPPRESS)
    common.add_argument("--deterministic", action="store_true",
                        default=argparse.SUPPRESS)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("lax", parents=[common],
                       help="construct a Lax matrix and its residuals")
    _add_param_args(p)
    p.add_argument("--side", choices=("sutherland", "rsvd-global", "rsvd-angle"),
                   required=True)
    p.add_argument("--q")
    p.add_argument("--p")
    p.add_argument("--z", help="comma-separated complex entries, e.g. 1+2j,0")
    p.add_argument("--lam", "--lambda", dest="lam")
    p.add_argument("--theta")
    p.set_defaults(func=cmd_lax)

    p = sub.add_parser("map", parents=[common],
                       help="run the duality map and report residuals")
    _add_param_args(p)
    p.add_argument("--direction", choices=("forward", "backward"), required=True)
    p.add_argument("--q")
    p.add_argument("--p")
    p.add_argument("--lam", "--lambda", dest="lam")
    p.add_argument("--theta")
    p.set_defaults(func=cmd_map)

    p = sub.add_parser("flow", parents=[common],
                       help="integrate a Hamiltonian flow to CSV")
    _add_param_args(p)
    p.add_argument("--system", choices=tuple(SYSTEMS), required=True)
    p.add_argument("--chart", choices=tuple(dict.fromkeys(SYSTEMS.values())),
                   help="default: the system's chart, the only one it accepts")
    p.add_argument("--x0", required=True,
                   help="initial state, chart ordering (positions then momenta)")
    p.add_argument("--dt", type=float, default=1e-3)
    p.add_argument("--T", type=float, default=1.0)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--gradient", choices=("analytic", "fd"),
                   help="default: analytic where a closed form exists, else fd")
    p.add_argument("--monitor-stride", type=int, default=10)
    p.set_defaults(func=cmd_flow)

    p = sub.add_parser("verify", parents=[common],
                       help="run a verification suite")
    p.add_argument("--suite", default="all",
                   help="structure|sutherland|rsvd|duality|dynamics|appendix|all")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--n-max", type=int, default=3)
    p.add_argument("--samples", type=int, default=25)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--tol", action="append",
                   help="tolerance override, e.g. duality.round_trip=1e-7")
    p.add_argument("--jobs", type=int, default=1,
                   help="process pool size for --suite all (ordered assembly)")
    p.set_defaults(func=cmd_verify)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (DegenerateTorusError, DegenerateChartError) as exc:
        print(f"degenerate input: {exc}", file=sys.stderr)
        return 3
    except BoundaryApproachError as exc:
        print(f"boundary approach: {exc}", file=sys.stderr)
        return 3
    except (ParameterError, DomainError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BcsuthError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
