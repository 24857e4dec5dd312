"""Seedable verification: one table of residual rows and one runner.

``ROWS`` is the table.  Each entry names one numerical identity, its
tolerance, the sampler that draws its inputs and its residual function, which
reads one sample; one row per suite also carries the suite's negative control.
A row's suite is the prefix of its name, and ``SUITES`` and
``DEFAULT_TOLERANCES`` are views of the table.

Each sampler draws one sample per (n, sample index) of its cases, in order,
from its own stream ``np.random.default_rng([seed, id])``, the id written in
the table.  It draws every sample of one n first, then computes that n's
maps once for every row that reads them.  So a row's samples depend only on
the seed, its sampler's id, n and the sample index: adding or deleting a row
moves no other row.  The structure, sutherland and duality samplers compute
an n in one stacked kernel call per quantity, each sample with its own
couplings (:class:`~bcsuth.params.CouplingRows`); if that call raises a
``BcsuthError``, the n is computed again one sample at a time, so each
sample keeps the outcome it has alone.  No id is 0 but the dynamics sampler's:
SeedSequence reads [seed, 0] as the bare seed, so that sampler keeps the
stream ``default_rng(seed)`` and the draw order it has always had.

A negative control is a deliberately corrupted input, drawn from
``default_rng(seed + 1)`` and measured with its row's code; its residual must
exceed ten times the row's tolerance, guarding against vacuous passes.

A ``BcsuthError`` in a sample gives each row it left without a value a NaN
residual, which fails the row, with the counterexample {n, params, point,
error}; a control that raises fails too, and the run goes on.  Expected
refusals skip the sample instead: a degenerate torus in the duality sampler's
forward map, and the raw entry formula's near-resonance ``DomainError`` in
``rsvd.smooth_vs_direct``.  Same config and seed give byte-identical JSON.
"""

from __future__ import annotations

import csv
import functools
import io
import itertools
import json
import math
from collections.abc import Callable
from dataclasses import asdict, dataclass, field, replace
from types import SimpleNamespace

import numpy as np

from . import duality, dynamics, matkernel, rsvd, sutherland
from .errors import BcsuthError, DegenerateTorusError, DomainError
from .params import (CouplingParams, CouplingRows, DualPoint, OscillatorPoint,
                     SutherlandPoint, lambda_of_z, strongly_regular,
                     z_from_angles)


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


# ---------------------------------------------------------------------------
# point samplers (conventions fixed so that reports are reproducible)

def sample_params(rng: np.random.Generator, n: int, config: SuiteConfig,
                  force_kappa_zero: bool = False) -> CouplingParams:
    mu = rng.uniform(*config.mu_range)
    nu = rng.uniform(*config.nu_range)
    frac = 0.0 if force_kappa_zero else rng.uniform(*config.kappa_frac_range)
    sign = 1.0 if rng.uniform() < 0.5 else -1.0
    return CouplingParams(n=n, mu=mu, nu=nu, kappa=sign * frac * nu)


def sample_sutherland(rng: np.random.Generator, n: int,
                      gap: float = 0.05) -> SutherlandPoint:
    """q sorted in (gap, pi/2 - gap) with pairwise gaps >= gap; p ~ N(0, 1).

    After 1000 draws that miss, q is a fixed lattice inside the chamber."""
    for _ in range(1000):
        q = np.sort(rng.uniform(gap, math.pi / 2 - gap, size=n))[::-1]
        if n == 1 or np.min(q[:-1] - q[1:]) >= gap:
            break
    else:  # the lattice of step 2 gap down from pi/2 - gap while it stays inside
        q = math.pi / 2 - gap - 2 * gap * np.arange(n, dtype=float)
        if not q[-1] > 0:
            q = math.pi / 2 * np.arange(n, 0, -1, dtype=float) / (n + 1)
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
# the table

@dataclass(frozen=True)
class Sampler:
    """``draw(x, rng, config)`` fills the namespace x, which holds n and the
    sample index s, with one sample, or returns False to skip it (an expected
    refusal); ``cases(config)`` gives the (n, s) drawn, in stream order.
    ``compute(xs, config)``, where given, computes the maps of the drawn
    samples xs of one n, one kernel call per quantity; a sample whose own
    compute raises ``skip`` is skipped (an expected refusal)."""

    id: int
    draw: Callable
    cases: Callable = lambda config: ((n, s) for n in config.n_values
                                      for s in range(config.samples))
    compute: Callable | None = None
    skip: type | tuple = ()


@dataclass(frozen=True)
class Row:
    """``residual(x)`` gives a sample's residual, a list of them, or None to
    skip the sample.  ``control(rng, config)``, where given, is the residual
    of the suite's negative control, the corrupted input ``note``."""

    name: str
    tol: float
    sampler: Sampler
    residual: Callable
    control: Callable | None = None
    note: str = ""


def _draw_structure(x, rng, config):
    x.Y = matkernel.random_gminus_algebra(rng, x.n)
    x.Ytot = x.Y + matkernel.random_gplus_algebra(rng, x.n)
    x.B, _, x.q0 = matkernel.random_Gminus_group(rng, x.n)
    x.phases = np.exp(1j * rng.uniform(0, 2 * math.pi, size=x.n))


def _map_structure(xs, config):
    """Each sample's gamma split, then the n's paired spectra, rephased paired
    spectra and Cartan factors, one stacked call each."""
    for x in xs:
        x.Yp, x.Ym = matkernel.gamma_split(x.Ytot)
    spec = matkernel.pair_diagonalize_gminus(np.array([x.Y for x in xs]))
    rephased = []
    for x, g, d in zip(xs, spec.frame.m, spec.values):
        x.g, x.d = g, d
        # phase changes of the input eigenvectors only move the frame inside
        # the central subgroup: recovered values are unchanged
        zg = np.diag(np.r_[x.phases, x.phases]) @ g
        rephased.append(zg @ (1j * np.diag(np.r_[d, -d])) @ zg.conj().T)
    d_rephased = matkernel.pair_diagonalize_gminus(np.array(rephased)).values
    q = matkernel.cartan_decompose_gminus(np.array([x.B for x in xs]))[1]
    for x, d, qc in zip(xs, d_rephased, q):
        x.d_rephased, x.q_cartan = d, qc


def _pair_diag_residual(Y, g, d) -> float:
    """|| g i*diag(d, -d) g^dag - Y ||, Y rebuilt from its paired spectrum."""
    recon = g @ (1j * np.diag(np.r_[d, -d])) @ g.conj().T
    return float(np.linalg.norm(recon - Y))


def _control_structure(rng, config) -> float:
    Y = matkernel.random_gminus_algebra(rng, 2)
    spec = matkernel.pair_diagonalize_gminus(Y)
    g_bad = spec.frame.m.copy()
    g_bad[0, 0] += 1e-2
    return _pair_diag_residual(Y, g_bad, spec.values)


def _draw_point(x, rng, config):
    """Couplings, kappa = 0 at every fifth sample, and a Sutherland point."""
    x.params = sample_params(rng, x.n, config, force_kappa_zero=(x.s % 5 == 0))
    x.point = sample_sutherland(rng, x.n)


def _stack(xs):
    """The points of the samples xs of one n as rows (q, p), and their couplings."""
    return (np.array([x.point.q for x in xs]), np.array([x.point.p for x in xs]),
            CouplingRows([x.params for x in xs]))


def _map_sutherland(xs, config):
    """The n's Lax matrices, their spectra and their actions: one stack each."""
    q, p, rows = _stack(xs)
    K = sutherland._lax_K_kernel(q, p, rows)
    Y = sutherland._lax_Y_of_K(K, rows)
    spectra = np.linalg.eigvalsh(-1j * Y)
    lam = sutherland._action_kernel(K, rows)
    H = sutherland._Hk_of_spectrum(spectra, rows)
    for x, *values in zip(xs, Y, spectra, lam, H):
        x.Y, x.spectrum, x.lam, x.H = values
        x.Hlam = np.array([np.sum(x.lam ** (2 * k)) / (2.0 * k)
                           for k in range(1, x.n + 1)])


def _grad_H1_fd(x) -> float:
    n, pt, params = x.n, x.point, x.params
    dq, dp = sutherland.grad_H1(pt.q, pt.p, params)
    fd = dynamics.fd_gradient(
        lambda y: sutherland._H1_kernel(y[..., :n], y[..., n:], params),
        np.r_[pt.q, pt.p], 1e-6)
    return (float(np.max(np.abs(np.r_[dq, dp] - fd)))
            / max(1.0, float(np.max(np.abs(fd)))))


def _control_sutherland(rng, config) -> float:
    params = sample_params(rng, 2, config)
    y, Y, V = sutherland.sutherland_section(sample_sutherland(rng, 2), params)
    Y_bad = Y.copy()
    Y_bad[0, 1] += 1e-2
    Y_bad[1, 0] -= 1e-2
    return max(sutherland.momentum_residual(y, Y_bad, V, params))


def _draw_rsvd(x, rng, config):
    x.params = params = sample_params(rng, x.n, config, force_kappa_zero=(x.s % 5 == 0))
    x.point = dual = sample_dual(rng, x.n, params)
    x.lam = dual.lam
    x.lam_bad = _lambda_just_outside(rng, x.lam, params,
                                     shrink_gap=(x.n > 1 and x.s % 2 == 0))
    x.A = rsvd.A_check(dual, params, validate=False).m
    x.f = rsvd.f_vector(dual, params)
    x.Fsq_plus, x.Fsq_minus = rsvd.F_squared_branches(x.lam, params)
    x.frame = rsvd.h_matrix(x.lam, params)


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
        ordered = lam_bad[-1] > params.nu
    else:
        lam_bad[-1] = abs(params.kappa) + 0.69 * (params.nu - abs(params.kappa))
        ordered = n == 1 or lam_bad[-2] - lam_bad[-1] > 2 * params.mu
    return lam_bad if ordered and strongly_regular(lam_bad, params) else None


def _smooth_vs_direct(x):
    # the smooth z-route against the raw entry formula, away from resonance
    try:
        return float(np.max(np.abs(x.A - rsvd.A_check_direct(x.point, x.params))))
    except DomainError:
        return None


def _h_frame_identity(x) -> float:
    # h rotates diag(lambda, -lambda) into diag(d, -d) - kappa*C
    kappa, frame, h = x.params.kappa, x.frame, x.frame.h.m
    d = np.sqrt(x.lam**2 - kappa**2)
    target = np.diag(np.r_[d, -d]) - kappa * matkernel.exchange_matrix(x.n)
    return max(float(np.max(np.abs(frame.alpha**2 + frame.beta**2 - 1.0))),
               float(np.linalg.norm(h @ np.diag(np.r_[x.lam, -x.lam]) @ h.conj().T
                                    - target)))


def _f_vs_g_factorization(x) -> float:
    z = z_from_angles(x.point, x.params).z
    g = rsvd.g_functions(z, x.params)
    zprev = np.r_[1.0 + 0j, z[:-1]]
    f_from_g = np.r_[np.abs(z) * g[:x.n],
                     np.exp(1j * x.point.theta) * np.abs(zprev) * g[x.n:]]
    return float(np.max(np.abs(x.f - f_from_g)))


def _control_rsvd(rng, config) -> float:
    params = sample_params(rng, 2, config)
    dual = sample_dual(rng, 2, params)
    Fsq_bad, _ = rsvd.F_squared_branches(dual.lam, params)
    Fsq_bad[0] += 1e-3
    return max(rsvd.w_system_residual(dual.lam, Fsq_bad, params))


def _map_duality(xs, config):
    """The n's forward maps, then the backward maps of their images, one kernel
    call each; the residuals of each sample reuse the Lax part K of its
    forward map and the Lax defect the backward map's gate measured."""
    q, p, rows = _stack(xs)
    lam, theta, F, K = duality._forward_kernel(q, p, rows)
    q, p, Y, lax = duality._backward_kernel(lam, theta, rows)
    for i, x in enumerate(xs):
        pt, params = x.point, x.params
        dual = DualPoint(lam=lam[i], theta=theta[i])
        x.back = SutherlandPoint(q=q[i], p=p[i])
        x.moduli, x.h0 = duality.forward_residuals(pt, dual, F[i], params)
        x.momentum = max(duality.backward_residuals(x.back, Y[i], params, lax[i])[1])
        x.inv = duality.invariant_crosscheck(pt, dual, params, mmax=4, kmax=2, K=K[i])
        x.X, _, x.brackets = duality.superintegrability_data(pt, params)


def _draw_oscillator(x, rng, config):
    """Couplings and an oscillator point with a random set of z_k = 0."""
    x.params = sample_params(rng, x.n, config, force_kappa_zero=(x.s % 5 == 0))
    z = sample_oscillator(rng, x.n).z.copy()
    nzero = int(rng.integers(0, x.n + 1))
    z[rng.permutation(x.n)[:nzero]] = 0.0
    x.point = OscillatorPoint(z=z)


def _control_duality(rng, config) -> float:
    params = sample_params(rng, 2, config)
    pt = sample_sutherland(rng, 2)
    dual, F = duality.forward_map_full(pt, params)
    shifted = DualPoint(lam=dual.lam, theta=dual.theta + 0.3)
    return duality.forward_residuals(pt, shifted, F, params)[1]


def _draw_dynamics(x, rng, config):
    n = x.n
    x.params = params = sample_params(rng, n, config)
    # gentle orbit near the dual-chart origin: the midpoint energy
    # oscillation grows quadratically with the orbit amplitude and
    # quartically with the fastest mode frequency, so the amplitude is
    # shrunk with n to keep the drift at the 1e-8 scale
    zscale = {1: 0.05, 2: 0.01}.get(n, 0.003)
    z = zscale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    z[np.abs(z) < 0.05 * zscale] += 0.1 * zscale
    dual0 = DualPoint(lam=lambda_of_z(z, params),
                      theta=rng.uniform(0, 2 * math.pi, n))
    # the dual flow conserves the Sutherland positions; it runs on a separate
    # orbit at moderate amplitude (tiny |z| puts the angle chart next to the
    # chamber wall, where the dual Hamiltonian's lambda-derivatives steepen
    # like 1/sqrt(gap) and the fixed-step integrator loses digits)
    z2 = 0.2 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    z2[np.abs(z2) < 0.02] += 0.1
    dual = DualPoint(lam=lambda_of_z(z2, params),
                     theta=rng.uniform(0, 2 * math.pi, n))
    x.point, _ = duality.backward_map_full(dual0, params, validate=False)
    x.x0 = np.r_[x.point.q, x.point.p]
    flow = dynamics.FlowSpec(system="sutherland_H1", chart="qp",
                             dt=1e-3, T=2.0, monitor_stride=50)
    x.traj = dynamics.integrate(flow, x.x0, params)
    # time reversal: step the endpoint back with the same rule
    steps = dynamics.march(dynamics.vector_field(flow, params),
                           x.traj.states[-1], -flow.dt, dynamics.START_ORDER)
    for _ in range(x.traj.states.shape[0] - 1):
        x.back = next(steps)
    # involutivity of the unit-normalized spectral invariants (the raw H_k
    # scale like lambda^(2k); only the scale-free bracket is FD-meaningful)
    scale = np.maximum(1.0, np.abs(sutherland.hamiltonians(x.point, params)))

    def H(y):
        K = sutherland._lax_K_kernel(y[..., :n], y[..., n:], params)
        return sutherland._Hk_kernel(K, params) / scale
    x.brackets = dynamics.poisson_bracket_fd(H, H, x.x0, step=1e-5, richardson=True)
    dflow = dynamics.FlowSpec(system="dual_H0", chart="lambda_theta",
                              dt=5e-4, T=1.0, monitor_stride=200)
    x.dtraj = dynamics.integrate(dflow, np.r_[dual.lam, dual.theta], params)


def _drift(traj, names) -> float:
    """Largest excursion of the monitor columns ``names`` from their start."""
    return max(float(np.max(np.abs(traj.monitors[k] - traj.monitors[k][0])))
               for k in names)


def _control_dynamics(rng, config) -> float:
    params = sample_params(rng, 1, config)
    pt = sample_sutherland(rng, 1)
    flow = dynamics.FlowSpec(system="sutherland_H1", chart="qp", dt=1e-3, T=2.0)
    f = dynamics.vector_field(flow, params)
    ys = np.tile(np.r_[pt.q, pt.p], (2001, 1))
    for i in range(2000):
        ys[i + 1] = ys[i] + flow.dt * f(ys[i])
    H = sutherland._H1_kernel(ys[:, :1], ys[:, 1:], params)
    return float(np.max(np.abs(H - H[0])))


def _draw_unitary(x, rng, config):
    """A random det-1 matrix of size N = x.n, a row order and a column order."""
    U = matkernel.random_unitary(rng, x.n)
    x.A = U / np.linalg.det(U) ** (1.0 / x.n)
    x.rows = list(rng.permutation(x.n))
    x.cols = list(rng.permutation(x.n))


def _draw_chain(x, rng, config):
    # the cofactor chain on dual-chamber data (realizable branch); the minus
    # branch has negative moduli, so no actual vector represents it and only
    # the signed polynomial system applies to it
    x.params = sample_params(rng, x.n, config, force_kappa_zero=(x.s % 4 == 0))
    x.point = sample_dual(rng, x.n, x.params)
    a = int(rng.integers(0, x.n))
    x.lam = x.point.lam
    x.chain = rsvd.appendix_chain(rsvd.f_vector(x.point, x.params),
                                  x.lam, x.params, a=a)


def _control_appendix(rng, config) -> float:
    U = matkernel.random_unitary(rng, 4)
    A = 1.05 * (U / np.linalg.det(U) ** (1.0 / 4))
    return matkernel.jacobi_minor_residual(A, list(range(4)), list(range(4)), 2,
                                           det_tol=np.inf)


_STRUCTURE = Sampler(1, _draw_structure, compute=_map_structure)
_SUTHERLAND = Sampler(2, _draw_point, compute=_map_sutherland)
_RSVD = Sampler(3, _draw_rsvd)
# a degenerate torus in the forward map skips its sample
_DUALITY = Sampler(4, _draw_point, compute=_map_duality, skip=DegenerateTorusError)
_CANONICITY = Sampler(5, _draw_point, lambda config: (
    (n, s) for n in config.n_values if n <= 3
    for s in range(min(config.samples, max(3, config.samples // 5)))))
_OSCILLATOR = Sampler(6, _draw_oscillator)
# id 0 is the bare seed's stream (see the module docstring); one orbit per n
_DYNAMICS = Sampler(0, _draw_dynamics,
                    lambda config: ((n, 0) for n in config.n_values if n <= 3))
_UNITARY = Sampler(7, _draw_unitary, lambda config: (
    (N, s) for N in (4, 6, 8) for s in range(config.samples)))
_CHAIN = Sampler(8, _draw_chain)

ROWS = (
    Row("structure.gamma_split_sum", 5e-16, _STRUCTURE,
        lambda x: float(np.max(np.abs((x.Yp + x.Ym) - x.Ytot)))
        / max(1.0, float(np.max(np.abs(x.Ytot))))),
    Row("structure.gamma_split_parts", 1e-13, _STRUCTURE,
        lambda x: max(matkernel.structure_residual(x.Yp, "gplus"),
                      matkernel.structure_residual(x.Ym, "gminus"))),
    Row("structure.pair_diag_reconstruction", 1e-10, _STRUCTURE,
        lambda x: _pair_diag_residual(x.Y, x.g, x.d),
        _control_structure, "deliberately perturbed frame"),
    Row("structure.cartan_recovery", 1e-10, _STRUCTURE,
        lambda x: float(np.max(np.abs(x.q_cartan - x.q0)))),
    Row("structure.frame_centrality", 1e-12, _STRUCTURE,
        lambda x: matkernel.structure_residual(x.g, "Gplus")),
    Row("structure.phase_invariance", 1e-10, _STRUCTURE,
        lambda x: float(np.max(np.abs(x.d_rephased - x.d)))),
    Row("sutherland.spectrum_pairing", 1e-10, _SUTHERLAND, lambda x: float(np.max(
        np.abs(np.sort(x.spectrum) - np.sort(np.r_[x.lam, -x.lam]))))),
    Row("sutherland.odd_traces", 1e-10, _SUTHERLAND,
        lambda x: sutherland.odd_trace_residual(x.spectrum)),
    Row("sutherland.Hk_spectral_identity", 1e-10, _SUTHERLAND, lambda x: float(
        np.max(np.abs(x.H - x.Hlam) / np.maximum(1.0, np.abs(x.Hlam))))),
    Row("sutherland.H1_closed_form", 1e-10, _SUTHERLAND,
        lambda x: abs(x.H[0] - sutherland.closed_form_H1(x.point, x.params))
        / max(1.0, abs(x.H[0]))),
    Row("sutherland.grad_H1_fd", 1e-6, _SUTHERLAND, _grad_H1_fd),
    Row("sutherland.momentum_residual", 1e-10, _SUTHERLAND,
        lambda x: max(sutherland.momentum_residual(
            matkernel.exp_iQ(x.point.q), x.Y, sutherland.real_constraint_vector(x.n), x.params)),
        _control_sutherland, "deliberately corrupted Lax entry"),
    Row("rsvd.unitarity", 1e-10, _RSVD,
        lambda x: matkernel.structure_residual(x.A, "Gminus")),
    Row("rsvd.commutator_identity", 1e-10, _RSVD,
        lambda x: rsvd.commutator_residual(x.A, x.f, x.lam, x.params)),
    Row("rsvd.sum_plus", 1e-10, _RSVD, lambda x: abs(x.Fsq_plus.sum() - 2 * x.n)),
    Row("rsvd.sum_minus", 1e-10, _RSVD, lambda x: abs(x.Fsq_minus.sum() + 2 * x.n)),
    Row("rsvd.w_system_plus", 1e-9, _RSVD,
        lambda x: max(rsvd.w_system_residual(x.lam, x.Fsq_plus, x.params)),
        _control_rsvd, "plus branch perturbed by 1e-3"),
    Row("rsvd.w_system_minus", 1e-9, _RSVD,
        lambda x: max(rsvd.w_system_residual(x.lam, x.Fsq_minus, x.params))),
    Row("rsvd.moduli_positive", 0.0, _RSVD,
        lambda x: 0.0 if np.all(x.Fsq_plus > 0) else 1.0),
    Row("rsvd.minus_branch_obstruction", 0.0, _RSVD, lambda x: 0.0 if np.all(
        (x.Fsq_minus[:x.n] < 0) | (x.Fsq_minus[x.n:] < 0)) else 1.0),
    Row("rsvd.f_moduli_vs_branch", 1e-10, _RSVD,
        lambda x: float(np.max(np.abs(np.abs(x.f) ** 2 - x.Fsq_plus)))),
    Row("rsvd.smooth_vs_direct", 1e-9, _RSVD, _smooth_vs_direct),
    Row("rsvd.dual_H0_identity", 1e-10, _RSVD,
        lambda x: abs(rsvd.dual_H0(x.point, x.params) - float(
            np.trace(x.frame.h.m @ x.A @ x.frame.h.m).real) / 2.0)),
    Row("rsvd.h_frame_identity", 1e-10, _RSVD, _h_frame_identity),
    Row("rsvd.f_vs_g_factorization", 1e-10, _RSVD, _f_vs_g_factorization),
    # strongly regular lambda just outside the chamber: some plus-branch
    # modulus must go negative
    Row("rsvd.boundary_exclusion", 0.0, _RSVD, lambda x: None if x.lam_bad is None
        else float(not np.any(rsvd.F_squared_branches(x.lam_bad, x.params)[0] < 0))),
    Row("duality.round_trip", 1e-8, _DUALITY,
        lambda x: max(float(np.max(np.abs(x.back.q - x.point.q))),
                      float(np.max(np.abs(x.back.p - x.point.p))))),
    Row("duality.moduli_vs_plus_branch", 1e-9, _DUALITY, lambda x: x.moduli),
    Row("duality.momentum_residual", 1e-9, _DUALITY, lambda x: x.momentum),
    Row("duality.dual_H0_consistency", 1e-8, _DUALITY, lambda x: x.h0,
        _control_duality, "angles shifted by 0.3"),
    Row("duality.canonicity_calibrated", 1e-4, _CANONICITY,
        lambda x: duality.canonicity_residual(
            x.point, x.params, scale=duality.DUAL_PAIRING, richardson=True)),
    Row("duality.invariant_phi", 1e-9, _DUALITY, lambda x: x.inv["phi_max_error"]),
    Row("duality.invariant_chi", 1e-8, _DUALITY, lambda x: x.inv["chi_max_error"]),
    Row("duality.rank_dlambda", 0.0, _OSCILLATOR,
        lambda x: abs(duality.rank_of_dlambda(x.point, x.params)
                      - duality.degeneracy_count(x.point))),
    Row("duality.superintegrability_brackets", 1e-6, _DUALITY,
        lambda x: float(np.max(np.abs(x.brackets + np.eye(x.n))))),
    Row("duality.detX_margin", 0.0, _DUALITY,
        lambda x: 0.0 if abs(np.linalg.det(x.X)) > 1e-9 else 1.0),
    Row("dynamics.energy_drift", 1e-8, _DYNAMICS, lambda x: _drift(x.traj, ["H_flow"]),
        _control_dynamics, "explicit Euler control"),
    Row("dynamics.action_conservation", 1e-6, _DYNAMICS,
        lambda x: _drift(x.traj, [f"lambda{j + 1}" for j in range(x.n)])),
    Row("dynamics.Hk_conservation", 1e-6, _DYNAMICS, lambda x: [
        _drift(x.traj, [f"H{k}"]) / max(1.0, abs(x.traj.monitors[f"H{k}"][0]))
        for k in range(1, x.n + 1)]),
    Row("dynamics.involutivity", 1e-6, _DYNAMICS, lambda x: [
        abs(float(x.brackets[i, j])) for i, j in zip(*np.triu_indices(x.n, 1))]
        or [0.0]),
    Row("dynamics.time_reversal", 1e-9, _DYNAMICS,
        lambda x: float(np.max(np.abs(x.back - x.x0)))),
    Row("dynamics.dual_q_drift", 1e-6, _DYNAMICS,
        lambda x: _drift(x.dtraj, [f"q{j + 1}" for j in range(x.n)])),
    Row("appendix.jacobi_minors", 1e-10, _UNITARY,
        lambda x: matkernel.jacobi_minor_residual(x.A, x.rows, x.cols, x.n // 2),
        _control_appendix, "det scaled off 1"),
    Row("appendix.cofactor_chain", 1e-8, _CHAIN, lambda x: max(
        v for k, v in x.chain.items()
        if k not in ("linear_equation", "quadratic_equation"))),
    Row("appendix.w_system_from_chain", 1e-9, _CHAIN, lambda x: [
        max(x.chain["linear_equation"], x.chain["quadratic_equation"])] + [
        max(rsvd.w_system_residual(x.lam, Fsq, x.params))
        for Fsq in rsvd.F_squared_branches(x.lam, x.params)]),
)

SUITES = tuple(dict.fromkeys(row.name.split(".")[0] for row in ROWS))

DEFAULT_TOLERANCES = {row.name: row.tol for row in ROWS}


# ---------------------------------------------------------------------------
# the runner

def _context(x) -> dict:
    """A sample's counterexample: n, and the params and point if drawn."""
    return {"n": x.n, **{key: getattr(x, key).to_dict()
                         for key in ("params", "point") if hasattr(x, key)}}


def _attempt(fn, skip, *args):
    """None when fn(*args) completes, False when it returns False or raises
    ``skip``, else the BcsuthError it raised."""
    try:
        return False if fn(*args) is False else None
    except skip:
        return False
    except BcsuthError as exc:
        return exc


def _compute(sampler, samples, status, config):
    """Compute the drawn samples of one n in one call; if that raises, compute
    them again one at a time, so that each sample keeps the outcome it has alone."""
    drawn = [i for i, st in enumerate(status) if st is None]
    batch = [samples[i] for i in drawn]
    if batch and _attempt(sampler.compute, (), batch, config) is not None:
        for i in drawn:
            status[i] = _attempt(sampler.compute, sampler.skip, [samples[i]], config)


def _read(readers, x, error, col):
    """Add the residual of each row in ``readers`` at the sample x to ``col``;
    a BcsuthError, the sample's ``error`` or one a row raises, gives each row
    left without a value a NaN residual and the error's counterexample."""
    done = 0
    if error is None:
        ctx = _context(x)
        try:
            for row in readers:
                values = row.residual(x)
                for value in np.atleast_1d(() if values is None else values):
                    col.add(row.name, value, ctx)
                done += 1
        except BcsuthError as exc:
            error = exc
    if error is not None:
        ctx = {**_context(x), "error": repr(error)}
        for row in readers[done:]:
            col.add(row.name, math.nan, ctx)


def _run_rows(suite: str, config: SuiteConfig) -> list:
    """The suite's rows, sorted by name, then the suite's negative control."""
    rows = sorted((r for r in ROWS if r.name.startswith(suite + ".")),
                  key=lambda r: r.name)
    col, neg = _Collector(config), _Collector(config)
    for sampler in dict.fromkeys(r.sampler for r in rows):
        readers = [r for r in rows if r.sampler is sampler]
        rng = np.random.default_rng([config.seed, sampler.id])
        for n, cases in itertools.groupby(sampler.cases(config), key=lambda case: case[0]):
            samples = [SimpleNamespace(n=n, s=s) for _, s in cases]
            status = [_attempt(sampler.draw, (), x, rng, config) for x in samples]
            if sampler.compute is not None:
                _compute(sampler, samples, status, config)
            for x, error in zip(samples, status):
                if error is not False:
                    _read(readers, x, error, col)
    controls = [r for r in rows if r.control is not None]
    for row in controls:
        try:
            value = row.control(np.random.default_rng(config.seed + 1), config)
            neg.add(row.name, value, {"note": row.note})
        except BcsuthError as exc:
            neg.add(row.name, math.nan, {"note": row.note, "error": repr(exc)})
    return ([col.result(r.name) for r in rows]
            + [neg.result(r.name, negative_control=True) for r in controls])


_SUITE_RUNNERS = {suite: functools.partial(_run_rows, suite) for suite in SUITES}


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
