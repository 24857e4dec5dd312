"""Seedable verification suites aggregating the numerical identities.

Each suite draws seeded random samples, evaluates a family of named residual
checks at fixed tolerances, and returns a deterministic report (same config
and seed give byte-identical JSON).  Every suite carries at least one
negative control: a deliberately corrupted input whose residual must exceed
ten times the tolerance, guarding against vacuous passes.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import duality, dynamics, matkernel, rsvd, sutherland
from .errors import BcsuthError
from .params import (CouplingParams, DualPoint, OscillatorPoint,
                     SutherlandPoint, lambda_of_z, strongly_regular,
                     z_from_angles)

SUITES = ("structure", "sutherland", "rsvd", "duality", "dynamics", "appendix")

DEFAULT_TOLERANCES = {
    "structure.gamma_split_sum": 5e-16,
    "structure.gamma_split_parts": 1e-13,
    "structure.pair_diag_reconstruction": 1e-10,
    "structure.cartan_recovery": 1e-10,
    "structure.frame_centrality": 1e-12,
    "structure.phase_invariance": 1e-10,
    "sutherland.spectrum_pairing": 1e-10,
    "sutherland.odd_traces": 1e-10,
    "sutherland.Hk_spectral_identity": 1e-10,
    "sutherland.H1_closed_form": 1e-10,
    "sutherland.grad_H1_fd": 1e-6,
    "sutherland.momentum_residual": 1e-10,
    "rsvd.unitarity": 1e-10,
    "rsvd.commutator_identity": 1e-10,
    "rsvd.sum_plus": 1e-10,
    "rsvd.sum_minus": 1e-10,
    "rsvd.w_system_plus": 1e-9,
    "rsvd.w_system_minus": 1e-9,
    "rsvd.moduli_positive": 0.0,
    "rsvd.minus_branch_obstruction": 0.0,
    "rsvd.f_moduli_vs_branch": 1e-10,
    "rsvd.smooth_vs_direct": 1e-9,
    "rsvd.dual_H0_identity": 1e-10,
    "rsvd.h_frame_identity": 1e-10,
    "rsvd.f_vs_g_factorization": 1e-10,
    "rsvd.boundary_exclusion": 0.0,
    "duality.round_trip": 1e-8,
    "duality.moduli_vs_plus_branch": 1e-9,
    "duality.momentum_residual": 1e-9,
    "duality.dual_H0_consistency": 1e-8,
    "duality.canonicity_calibrated": 1e-4,
    "duality.invariant_phi": 1e-9,
    "duality.invariant_chi": 1e-8,
    "duality.rank_dlambda": 0.0,
    "duality.superintegrability_brackets": 1e-6,
    "duality.detX_margin": 0.0,
    "dynamics.energy_drift": 1e-8,
    "dynamics.action_conservation": 1e-6,
    "dynamics.Hk_conservation": 1e-6,
    "dynamics.involutivity": 1e-6,
    "dynamics.time_reversal": 1e-9,
    "dynamics.dual_q_drift": 1e-6,
    "appendix.jacobi_minors": 1e-10,
    "appendix.cofactor_chain": 1e-8,
    "appendix.w_system_from_chain": 1e-9,
}


@dataclass(frozen=True)
class SuiteConfig:
    """Suite name, sample sizes, parameter ranges, seed and tolerances."""

    suite: str
    n_values: tuple = (1, 2, 3)
    samples: int = 25
    seed: int = 42
    mu_range: tuple = (0.6, 1.4)
    nu_range: tuple = (1.2, 2.4)
    kappa_frac_range: tuple = (0.0, 0.7)
    tolerances: dict = field(default_factory=dict)

    def tol(self, name: str) -> float:
        return self.tolerances.get(name, DEFAULT_TOLERANCES[name])


@dataclass
class CheckResult:
    """One report row.  ``headroom`` is how far the row is from flipping:
    tol / max_residual for a check, max_residual / (10 tol) for a negative
    control (whose residual must exceed ten times tol).  Above 1 the row
    passes, below 1 it fails; None where the ratio is not finite (a zero or
    missing residual).
    """

    name: str
    max_residual: float
    mean_residual: float
    tol: float
    passed: bool
    negative_control: bool = False
    counterexample: dict | None = None
    headroom: float | None = None


@dataclass
class SuiteReport:
    suite: str
    config: dict
    checks: list

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> str:
        return json.dumps({
            "suite": self.suite, "config": self.config,
            "passed": self.passed,
            "checks": [asdict(c) for c in self.checks],
        }, sort_keys=True, indent=2)

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["check", "max_residual", "mean_residual", "tol",
                         "passed", "negative_control", "headroom"])
        for c in self.checks:
            writer.writerow([c.name, repr(c.max_residual), repr(c.mean_residual),
                             repr(c.tol), c.passed, c.negative_control,
                             "" if c.headroom is None else repr(c.headroom)])
        return buf.getvalue()


def _severity(residual: float):
    """Sort key of residuals, worst last: a NaN ranks above every number."""
    return (math.isnan(residual), residual)


class _Collector:
    """Accumulates residuals per check, keeps each row's running worst (the
    first of equals) and freezes the context of the add that set it; a NaN
    residual is the worst and fails its row."""

    def __init__(self, config: SuiteConfig):
        self.config = config
        self.data: dict[str, list] = {}
        self.worst: dict[str, float] = {}
        self.examples: dict[str, dict] = {}

    def add(self, name: str, residual: float, context: dict | None = None):
        residual = float(residual)
        if name not in self.worst or _severity(residual) > _severity(self.worst[name]):
            self.worst[name] = residual
            if context is not None:
                self.examples[name] = context
        self.data.setdefault(name, []).append(residual)

    def result(self, name: str, negative_control: bool = False) -> CheckResult:
        vals = self.data.get(name, [])
        if not vals:
            return CheckResult(name, math.nan, math.nan, self.config.tol(name),
                               False, negative_control,
                               {"error": "no samples evaluated"})
        mx = self.worst[name]
        mean = sum(vals) / len(vals)
        tol = self.config.tol(name)
        if negative_control:
            trip = 10.0 * tol if tol > 0 else 1e-3
            passed = mx > trip
            headroom = mx / trip
        else:
            passed = mx <= tol
            headroom = tol / mx if mx > 0 else math.inf
        example = None if passed else self.examples.get(name)
        return CheckResult(name, mx, mean, tol, passed, negative_control, example,
                           headroom if math.isfinite(headroom) else None)

    def report(self, control: str, residual: float, note: str) -> list:
        """Every row, sorted by name, then the negative-control row ``control``
        of one deliberately corrupted input with the given residual."""
        neg = _Collector(self.config)
        neg.add(control, residual, {"note": note})
        return ([self.result(name) for name in sorted(self.data)]
                + [neg.result(control, negative_control=True)])


# ---------------------------------------------------------------------------
# samplers (conventions fixed so that reports are reproducible)

def sample_params(rng: np.random.Generator, n: int, config: SuiteConfig,
                  force_kappa_zero: bool = False) -> CouplingParams:
    mu = rng.uniform(*config.mu_range)
    nu = rng.uniform(*config.nu_range)
    frac = 0.0 if force_kappa_zero else rng.uniform(*config.kappa_frac_range)
    sign = 1.0 if rng.uniform() < 0.5 else -1.0
    return CouplingParams(n=n, mu=mu, nu=nu, kappa=sign * frac * nu)


def sample_sutherland(rng: np.random.Generator, n: int,
                      gap: float = 0.05) -> SutherlandPoint:
    """q sorted in (gap, pi/2 - gap) with pairwise gaps >= gap; p ~ N(0, 1)."""
    for _ in range(1000):
        q = np.sort(rng.uniform(gap, math.pi / 2 - gap, size=n))[::-1]
        if n == 1 or np.min(q[:-1] - q[1:]) >= gap:
            break
    else:
        q = math.pi / 2 - gap - 2 * gap * np.arange(n, dtype=float)
    p = rng.standard_normal(n)
    return SutherlandPoint(q=q, p=p)


def sample_lambda(rng: np.random.Generator, n: int,
                  params: CouplingParams) -> np.ndarray:
    """lambda by positive gaps: lambda_n = nu + u_n, lambda_k = lambda_{k+1} + 2mu + u_k."""
    u = rng.uniform(0.1, 3.0, size=n)
    lam = np.empty(n)
    lam[n - 1] = params.nu + u[n - 1]
    for k in range(n - 2, -1, -1):
        lam[k] = lam[k + 1] + 2 * params.mu + u[k]
    return lam


def sample_dual(rng: np.random.Generator, n: int,
                params: CouplingParams) -> DualPoint:
    lam = sample_lambda(rng, n, params)
    theta = rng.uniform(0.0, 2 * math.pi, size=n)
    return DualPoint(lam=lam, theta=theta)


def sample_oscillator(rng: np.random.Generator, n: int) -> OscillatorPoint:
    z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return OscillatorPoint(z=z)


# ---------------------------------------------------------------------------
# suites

def _suite_structure(config: SuiteConfig) -> list:
    rng = np.random.default_rng(config.seed)
    col = _Collector(config)
    for n in config.n_values:
        for _ in range(config.samples):
            Y = matkernel.random_gminus_algebra(rng, n)
            ctx = {"n": n, "Y_norm": float(np.linalg.norm(Y))}
            Ytot = Y + matkernel.random_gplus_algebra(rng, n)
            Yp, Ym = matkernel.gamma_split(Ytot)
            scale = max(1.0, float(np.max(np.abs(Ytot))))
            col.add("structure.gamma_split_sum",
                    float(np.max(np.abs((Yp + Ym) - Ytot))) / scale, ctx)
            col.add("structure.gamma_split_parts",
                    max(matkernel.structure_residual(Yp, "gplus"),
                        matkernel.structure_residual(Ym, "gminus")), ctx)
            spec = matkernel.pair_diagonalize_gminus(Y)
            g = spec.frame.m
            d = spec.values
            col.add("structure.pair_diag_reconstruction",
                    _pair_diag_residual(Y, g, d), ctx)
            col.add("structure.frame_centrality",
                    matkernel.structure_residual(g, "Gplus"), ctx)

            B, eta0, q0 = matkernel.random_Gminus_group(rng, n)
            eta, q = matkernel.cartan_decompose_gminus(B)
            col.add("structure.cartan_recovery", float(np.max(np.abs(q - q0))),
                    {"n": n, "q0": q0.tolist()})

            # phase changes of the input eigenvectors only move the frame
            # inside the central subgroup: recovered values are unchanged
            phases = np.exp(1j * rng.uniform(0, 2 * math.pi, size=n))
            zeta = np.diag(np.r_[phases, phases])
            spec2 = matkernel.pair_diagonalize_gminus(
                (zeta @ g) @ (1j * np.diag(np.r_[d, -d])) @ (zeta @ g).conj().T)
            col.add("structure.phase_invariance",
                    float(np.max(np.abs(spec2.values - d))), ctx)
    # negative control: Y rebuilt from its frame with one entry moved must
    # fail the reconstruction row
    rng2 = np.random.default_rng(config.seed + 1)
    Y = matkernel.random_gminus_algebra(rng2, 2)
    spec = matkernel.pair_diagonalize_gminus(Y)
    g_bad = spec.frame.m.copy()
    g_bad[0, 0] += 1e-2
    return col.report("structure.pair_diag_reconstruction",
                      _pair_diag_residual(Y, g_bad, spec.values),
                      "deliberately perturbed frame")


def _pair_diag_residual(Y, g, d) -> float:
    """|| g i*diag(d, -d) g^dag - Y ||, Y rebuilt from its paired spectrum."""
    recon = g @ (1j * np.diag(np.r_[d, -d])) @ g.conj().T
    return float(np.linalg.norm(recon - Y))


def _suite_sutherland(config: SuiteConfig) -> list:
    rng = np.random.default_rng(config.seed)
    col = _Collector(config)
    for n in config.n_values:
        for s in range(config.samples):
            params = sample_params(rng, n, config, force_kappa_zero=(s % 5 == 0))
            pt = sample_sutherland(rng, n)
            ctx = {"n": n, "params": params.to_dict(), "point": pt.to_dict()}

            eigs = sutherland.spectrum(pt, params)
            lam = sutherland.action_map(pt, params)
            paired = np.sort(np.r_[lam, -lam])
            col.add("sutherland.spectrum_pairing",
                    float(np.max(np.abs(np.sort(eigs) - paired))), ctx)
            col.add("sutherland.odd_traces",
                    sutherland.odd_trace_residual(pt, params), ctx)

            H = sutherland.hamiltonians(pt, params)
            Hlam = np.array([np.sum(lam ** (2 * k)) / (2.0 * k)
                             for k in range(1, n + 1)])
            scale = np.maximum(1.0, np.abs(Hlam))
            col.add("sutherland.Hk_spectral_identity",
                    float(np.max(np.abs(H - Hlam) / scale)), ctx)
            col.add("sutherland.H1_closed_form",
                    abs(H[0] - sutherland.closed_form_H1(pt, params))
                    / max(1.0, abs(H[0])), ctx)

            dq, dp = sutherland.grad_H1(pt.q, pt.p, params)
            fd = dynamics.fd_gradient(
                dynamics._rows(lambda x: sutherland.closed_form_H1(
                    SutherlandPoint(q=x[:n], p=x[n:]), params)),
                np.r_[pt.q, pt.p], 1e-6)
            col.add("sutherland.grad_H1_fd",
                    float(np.max(np.abs(np.r_[dq, dp] - fd)))
                    / max(1.0, float(np.max(np.abs(fd)))), ctx)

            y, Y, V = sutherland.sutherland_section(pt, params)
            r1, r2 = sutherland.momentum_residual(y, Y, V, params)
            col.add("sutherland.momentum_residual", max(r1, r2), ctx)
    # negative control: corrupt one Lax entry, the constraint must be violated
    rngn = np.random.default_rng(config.seed + 1)
    params = sample_params(rngn, 2, config)
    pt = sample_sutherland(rngn, 2)
    y, Y, V = sutherland.sutherland_section(pt, params)
    Y_bad = Y.copy()
    Y_bad[0, 1] += 1e-2
    Y_bad[1, 0] -= 1e-2
    r1, r2 = sutherland.momentum_residual(y, Y_bad, V, params)
    return col.report("sutherland.momentum_residual", max(r1, r2),
                      "deliberately corrupted Lax entry")


def _suite_rsvd(config: SuiteConfig) -> list:
    rng = np.random.default_rng(config.seed)
    col = _Collector(config)
    for n in config.n_values:
        for s in range(config.samples):
            params = sample_params(rng, n, config, force_kappa_zero=(s % 5 == 0))
            dual = sample_dual(rng, n, params)
            lam = dual.lam
            ctx = {"n": n, "params": params.to_dict(), "point": dual.to_dict()}

            A = rsvd.A_check(dual, params, validate=False).m
            col.add("rsvd.unitarity",
                    matkernel.structure_residual(A, "Gminus"), ctx)
            f = rsvd.f_vector(dual, params)
            col.add("rsvd.commutator_identity",
                    rsvd.commutator_residual(A, f, lam, params), ctx)

            Fsq_plus, Fsq_minus = rsvd.F_squared_branches(lam, params)
            N = 2 * n
            col.add("rsvd.sum_plus", abs(Fsq_plus.sum() - N), ctx)
            col.add("rsvd.sum_minus", abs(Fsq_minus.sum() + N), ctx)
            col.add("rsvd.w_system_plus",
                    max(rsvd.w_system_residual(lam, Fsq_plus, params)), ctx)
            col.add("rsvd.w_system_minus",
                    max(rsvd.w_system_residual(lam, Fsq_minus, params)), ctx)
            col.add("rsvd.moduli_positive",
                    0.0 if np.all(Fsq_plus > 0) else 1.0, ctx)
            minus_ok = all(Fsq_minus[c] < 0 or Fsq_minus[n + c] < 0
                           for c in range(n))
            col.add("rsvd.minus_branch_obstruction",
                    0.0 if minus_ok else 1.0, ctx)
            col.add("rsvd.f_moduli_vs_branch",
                    float(np.max(np.abs(np.abs(f) ** 2 - Fsq_plus))), ctx)

            # smooth z-route against the raw entry formula, away from resonance
            try:
                A_raw = rsvd.A_check_direct(dual, params)
                mask_err = float(np.max(np.abs(A - A_raw)))
                col.add("rsvd.smooth_vs_direct", mask_err, ctx)
            except BcsuthError:
                pass

            h0 = rsvd.dual_H0(dual, params)
            frame = rsvd.h_matrix(lam, params)
            h = frame.h.m
            col.add("rsvd.dual_H0_identity",
                    abs(h0 - float(np.trace(h @ A @ h).real) / 2.0), ctx)
            # h rotates diag(lambda, -lambda) into diag(d, -d) - kappa*C
            d = np.sqrt(lam**2 - params.kappa**2)
            target = np.diag(np.r_[d, -d]) - params.kappa * matkernel.exchange_matrix(n)
            col.add("rsvd.h_frame_identity", max(
                float(np.max(np.abs(frame.alpha**2 + frame.beta**2 - 1.0))),
                float(np.linalg.norm(h @ np.diag(np.r_[lam, -lam]) @ h.conj().T
                                     - target))), ctx)

            z = z_from_angles(dual, params).z
            g = rsvd.g_functions(z, params)
            zprev = np.r_[1.0 + 0j, z[:-1]]
            f_from_g = np.r_[np.abs(z) * g[:n],
                             np.exp(1j * dual.theta) * np.abs(zprev) * g[n:]]
            col.add("rsvd.f_vs_g_factorization",
                    float(np.max(np.abs(f - f_from_g))), ctx)

            # boundary exclusion probe: for strongly regular lambda just
            # outside the chamber, some plus-branch modulus must go negative
            lam_bad = _lambda_just_outside(rng, lam, params,
                                           shrink_gap=(n > 1 and s % 2 == 0))
            if lam_bad is not None:
                obstructed = np.any(rsvd.F_squared_branches(lam_bad, params)[0] < 0)
                col.add("rsvd.boundary_exclusion",
                        0.0 if obstructed else 1.0,
                        {"lambda_outside": lam_bad.tolist()})
    # negative control: perturbed plus branch must violate the moduli system
    rngn = np.random.default_rng(config.seed + 1)
    params = sample_params(rngn, 2, config)
    dual = sample_dual(rngn, 2, params)
    Fsq_bad, _ = rsvd.F_squared_branches(dual.lam, params)
    Fsq_bad[0] += 1e-3
    return col.report("rsvd.w_system_plus",
                      max(rsvd.w_system_residual(dual.lam, Fsq_bad, params)),
                      "plus branch perturbed by 1e-3")


def _lambda_just_outside(rng, lam, params, shrink_gap: bool):
    """A strongly regular lambda slightly outside the closed chamber, or None.

    Either one consecutive gap is shrunk below 2*mu (earlier gaps stay wide)
    or the last component is pulled below the wall; ordering is preserved.
    """
    lam_bad = lam.copy()
    n = lam.size
    if shrink_gap:
        a = int(rng.integers(0, n - 1))
        lam_bad[a + 1] = lam_bad[a] - (2.0 - 0.63) * params.mu
        for b in range(a + 2, n):
            lam_bad[b] = lam_bad[b - 1] - 2.2 * params.mu - 0.1 * (n - b)
        if lam_bad[-1] <= params.nu:
            return None
    else:
        lam_bad[-1] = abs(params.kappa) + 0.69 * (params.nu - abs(params.kappa))
        if n > 1 and lam_bad[-2] - lam_bad[-1] <= 2 * params.mu:
            return None
    if not strongly_regular(lam_bad, params):
        return None
    return lam_bad


def _suite_duality(config: SuiteConfig) -> list:
    rng = np.random.default_rng(config.seed)
    col = _Collector(config)
    for n in config.n_values:
        for s in range(config.samples):
            params = sample_params(rng, n, config, force_kappa_zero=(s % 5 == 0))
            pt = sample_sutherland(rng, n)
            ctx = {"n": n, "params": params.to_dict(), "point": pt.to_dict()}
            try:
                dual, F = duality.forward_map_full(pt, params)
            except BcsuthError:
                continue
            back, Y = duality.backward_map_full(dual, params)
            err = max(float(np.max(np.abs(back.q - pt.q))),
                      float(np.max(np.abs(back.p - pt.p))))
            moduli, h0 = duality.forward_residuals(pt, dual, F, params)
            _, mom = duality.backward_residuals(back, Y, params)
            col.add("duality.round_trip", err, ctx)
            col.add("duality.moduli_vs_plus_branch", moduli, ctx)
            col.add("duality.momentum_residual", max(mom), ctx)
            col.add("duality.dual_H0_consistency", h0, ctx)
            inv = duality.invariant_crosscheck(pt, params, mmax=4, kmax=2)
            col.add("duality.invariant_phi", inv["phi_max_error"], ctx)
            col.add("duality.invariant_chi", inv["chi_max_error"], ctx)
            if n <= 3 and s < max(3, config.samples // 5):
                col.add("duality.canonicity_calibrated",
                        duality.canonicity_residual(
                            pt, params, scale=duality.DUAL_PAIRING,
                            richardson=True), ctx)
            X, fvals, table = duality.superintegrability_data(pt, params)
            col.add("duality.superintegrability_brackets",
                    float(np.max(np.abs(table + np.eye(n)))), ctx)
            col.add("duality.detX_margin",
                    0.0 if abs(np.linalg.det(X)) > 1e-9 else 1.0, ctx)

            z = sample_oscillator(rng, n)
            zpat = z.z.copy()
            nzero = int(rng.integers(0, n + 1))
            zpat[rng.permutation(n)[:nzero]] = 0.0
            osc = OscillatorPoint(z=zpat)
            rank = duality.rank_of_dlambda(osc, params)
            col.add("duality.rank_dlambda",
                    abs(rank - duality.degeneracy_count(osc)),
                    {"z": osc.to_dict()})
    # negative control: an angle offset breaks the dual Hamiltonian consistency
    rngn = np.random.default_rng(config.seed + 1)
    params = sample_params(rngn, 2, config)
    pt = sample_sutherland(rngn, 2)
    dual, F = duality.forward_map_full(pt, params)
    shifted = DualPoint(lam=dual.lam, theta=dual.theta + 0.3)
    _, h0 = duality.forward_residuals(pt, shifted, F, params)
    return col.report("duality.dual_H0_consistency", h0, "angles shifted by 0.3")


def _suite_dynamics(config: SuiteConfig) -> list:
    rng = np.random.default_rng(config.seed)
    col = _Collector(config)
    for n in config.n_values:
        if n > 3:
            continue
        params = sample_params(rng, n, config)
        # gentle orbit near the dual-chart origin: the midpoint energy
        # oscillation grows quadratically with the orbit amplitude and
        # quartically with the fastest mode frequency, so the amplitude is
        # shrunk with n to keep the drift at the 1e-8 scale
        zscale = {1: 0.05, 2: 0.01}.get(n, 0.003)
        z = zscale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        z[np.abs(z) < 0.05 * zscale] += 0.1 * zscale
        dual0 = DualPoint(lam=lambda_of_z(z, params),
                          theta=rng.uniform(0, 2 * math.pi, n))
        pt, _ = duality.backward_map_full(dual0, params, validate=False)
        ctx = {"n": n, "params": params.to_dict(), "point": pt.to_dict()}

        flow = dynamics.FlowSpec(system="sutherland_H1", chart="qp",
                                 dt=1e-3, T=2.0, monitor_stride=50)
        x0 = np.r_[pt.q, pt.p]
        traj = dynamics.integrate(flow, x0, params)
        H_series = traj.monitors["H_flow"]
        col.add("dynamics.energy_drift",
                float(np.max(np.abs(H_series - H_series[0]))), ctx)
        lam_cols = [traj.monitors[f"lambda{j+1}"] for j in range(n)]
        col.add("dynamics.action_conservation",
                max(float(np.max(np.abs(c - c[0]))) for c in lam_cols), ctx)
        for k in range(1, n + 1):
            Hk = traj.monitors[f"H{k}"]
            col.add("dynamics.Hk_conservation",
                    float(np.max(np.abs(Hk - Hk[0]))) / max(1.0, abs(Hk[0])),
                    ctx)

        # time reversal: step the endpoint back with the same rule
        steps = dynamics.march(dynamics.vector_field(flow, params),
                               traj.states[-1], -flow.dt,
                               dynamics.START_ORDER)
        for _ in range(traj.states.shape[0] - 1):
            back = next(steps)
        col.add("dynamics.time_reversal", float(np.max(np.abs(back - x0))), ctx)

        # involutivity of the unit-normalized spectral invariants (the raw
        # H_k scale like lambda^(2k); only the scale-free bracket is
        # FD-meaningful)
        scale = np.maximum(1.0, np.abs(sutherland.hamiltonians(pt, params)))

        H = dynamics._rows(lambda x: sutherland.hamiltonians(
            SutherlandPoint(q=x[:n], p=x[n:]), params) / scale)
        table = dynamics.poisson_bracket_fd(H, H, x0, step=1e-5, richardson=True)
        for i, j in zip(*np.triu_indices(n, 1)):
            col.add("dynamics.involutivity", abs(float(table[i, j])), ctx)
        if n == 1:
            col.add("dynamics.involutivity", 0.0, ctx)

        # dual flow conserves the Sutherland positions; run it on a separate
        # orbit at moderate amplitude (tiny |z| puts the angle chart next to
        # the chamber wall, where the dual Hamiltonian's lambda-derivatives
        # steepen like 1/sqrt(gap) and the fixed-step integrator loses digits)
        z2 = 0.2 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        z2[np.abs(z2) < 0.02] += 0.1
        dual = DualPoint(lam=lambda_of_z(z2, params),
                         theta=rng.uniform(0, 2 * math.pi, n))
        dflow = dynamics.FlowSpec(system="dual_H0", chart="lambda_theta",
                                  dt=5e-4, T=1.0, monitor_stride=200)
        dtraj = dynamics.integrate(dflow, np.r_[dual.lam, dual.theta], params)
        q_cols = [dtraj.monitors[f"q{j+1}"] for j in range(n)]
        col.add("dynamics.dual_q_drift",
                max(float(np.max(np.abs(c - c[0]))) for c in q_cols), ctx)
    # negative control: explicit Euler at the same step size drifts visibly
    rngn = np.random.default_rng(config.seed + 1)
    params = sample_params(rngn, 1, config)
    pt = sample_sutherland(rngn, 1)
    flow = dynamics.FlowSpec(system="sutherland_H1", chart="qp", dt=1e-3, T=2.0)
    f = dynamics.vector_field(flow, params)
    x = np.r_[pt.q, pt.p]
    H0 = sutherland.closed_form_H1(pt, params)
    drift = 0.0
    for _ in range(2000):
        x = x + flow.dt * f(x)
        drift = max(drift, abs(sutherland.closed_form_H1(
            SutherlandPoint(q=x[:1], p=x[1:]), params) - H0))
    return col.report("dynamics.energy_drift", drift, "explicit Euler control")


def _suite_appendix(config: SuiteConfig) -> list:
    rng = np.random.default_rng(config.seed)
    col = _Collector(config)
    # generic complementary-minor identity on random det-1 matrices
    for N in (4, 6, 8):
        for _ in range(config.samples):
            U = matkernel.random_unitary(rng, N)
            A = U / np.linalg.det(U) ** (1.0 / N)
            rows = list(rng.permutation(N))
            cols = list(rng.permutation(N))
            p = N // 2
            col.add("appendix.jacobi_minors",
                    matkernel.jacobi_minor_residual(A, rows, cols, p),
                    {"N": N})
    # the cofactor chain on dual-chamber data (realizable branch); the minus
    # branch has negative moduli, so no actual vector represents it and only
    # the signed polynomial system applies to it
    for n in config.n_values:
        for s in range(config.samples):
            params = sample_params(rng, n, config, force_kappa_zero=(s % 4 == 0))
            dual = sample_dual(rng, n, params)
            lam = dual.lam
            branches = rsvd.F_squared_branches(lam, params)
            F = rsvd.f_vector(dual, params)
            a = int(rng.integers(0, n))
            ctx = {"n": n, "a": a, "lambda": lam.tolist()}
            chain = rsvd.appendix_chain(F, lam, params, a=a)
            worst = max(v for k, v in chain.items()
                        if k not in ("linear_equation", "quadratic_equation"))
            col.add("appendix.cofactor_chain", worst, ctx)
            col.add("appendix.w_system_from_chain",
                    max(chain["linear_equation"],
                        chain["quadratic_equation"]), ctx)
            for Fsq in branches:
                col.add("appendix.w_system_from_chain",
                        max(rsvd.w_system_residual(lam, Fsq, params)), ctx)
    # negative control: det != 1 must be rejected / show a large residual
    rngn = np.random.default_rng(config.seed + 1)
    U = matkernel.random_unitary(rngn, 4)
    A = U / np.linalg.det(U) ** (1.0 / 4)
    A = 1.05 * A
    try:
        res = matkernel.jacobi_minor_residual(A, list(range(4)), list(range(4)),
                                              2, det_tol=np.inf)
    except BcsuthError:
        res = 1.0
    return col.report("appendix.jacobi_minors", res, "det scaled off 1")


_SUITE_RUNNERS = {
    "structure": _suite_structure,
    "sutherland": _suite_sutherland,
    "rsvd": _suite_rsvd,
    "duality": _suite_duality,
    "dynamics": _suite_dynamics,
    "appendix": _suite_appendix,
}


def _run_named(config: SuiteConfig) -> list:
    return _SUITE_RUNNERS[config.suite](config)


def run_suite(config: SuiteConfig, jobs: int = 1) -> SuiteReport:
    """Run one named suite (or 'all') and return its deterministic report.

    For 'all' with jobs > 1 the member suites run in a process pool of at most
    one worker per suite; report assembly stays ordered, so the output is
    byte-identical to a serial run.
    """
    if config.suite == "all":
        tasks = [replace(config, suite=name) for name in SUITES]
        if jobs > 1:
            import concurrent.futures

            with concurrent.futures.ProcessPoolExecutor(max_workers=min(jobs, len(SUITES))) as ex:
                results = list(ex.map(_run_named, tasks))
        else:
            results = [_run_named(t) for t in tasks]
        checks = [c for group in results for c in group]
        return SuiteReport(suite="all", config=asdict(config), checks=checks)
    if config.suite not in _SUITE_RUNNERS:
        raise ValueError(f"unknown suite {config.suite!r}; "
                         f"expected one of {SUITES + ('all',)}")
    checks = _SUITE_RUNNERS[config.suite](config)
    return SuiteReport(suite=config.suite, config=asdict(config), checks=checks)
