"""Hamiltonian flows in both charts, FD Poisson brackets, conservation monitors.

The integrator is the implicit midpoint rule (symplectic, second order).  Each
step iterates the fixed point x_{k+1} = x0 + dt f((x0 + x_k)/2) until the
increment, which is the residual of x_k, falls to the Newton tolerance; only
when the iteration stops contracting (an increment fails to halve the one two
sweeps back, since in the (q, p) chart strong and weak sweeps alternate) does
Newton with an FD Jacobian take over.  ``march`` starts each step's
iteration from the polynomial extrapolation of the trajectory's last states,
which leaves it fewer sweeps to go than the Euler predictor; only the first
step starts from x0, whose first sweep is the Euler predictor.  The order of
the extrapolation is one constant, ``START_ORDER`` = 7 past states, with
which smooth orbits take about one evaluation per step.  The steps of the H_1
and dual H0 flows work on raw coordinate arrays and build no point value
types.

Gradients are closed-form where a closed form is known,
``gradient="analytic"``: ``grad_H1`` for the Sutherland H_1 and
``grad_dual_H0`` for the dual H0.  ``gradient="fd"`` uses Richardson-
extrapolated central differences (steps h and h/2, error O(h^4)) at the base
step h = min(``FlowSpec.fd_step``, half the point's smallest chamber slack),
so the stencil never leaves the chamber; at the default h = 1e-4 the field's
rounding noise is about 1e-12 relative, well below the integrator's
tolerance.  It is the only mode for the higher H_k and the dual h_k, and the
reference the closed forms are tested against.  ``fd_gradient`` evaluates a
whole stencil in one call: the maps it and ``poisson_bracket_fd`` take send
a stack of points (..., d) to values (...) or (..., p).  The Sutherland H_k,
the dual H0 and both duality maps are numpy kernels over such stacks, and
the dual h_k read z for the whole stack in one pass: the lambda_theta
monitors, and ``angle_linearity_check``'s forward maps and energy stencil,
make one kernel call each.  ``_rows`` lifts only the Newton Jacobian's vector
field, a map of one point, row by row.

Chart conventions: the Sutherland systems live on the (q, p) chart and the
dual systems on the (lambda, theta) chart.  In the (q, p) chart the equations
are the canonical qdot = dH/dp, pdot = -dH/dq.  In the (lambda, theta) chart
the equations are

    lambdadot = DUAL_PAIRING * dH/dtheta,
    thetadot  = -DUAL_PAIRING * dH/dlambda,

with DUAL_PAIRING = -2 the measured pullback constant of the duality maps
(see :mod:`bcsuth.duality`); these are exactly the equations whose flows are
carried to Sutherland-chart flows by the backward map.

Monitors cost nothing until read: each column group of ``default_monitors``
is a map of the stack of states ``integrate`` sampled, evaluated when one of
its columns is first read.
"""

from __future__ import annotations

import functools
import json
import math
from collections.abc import Mapping
from dataclasses import asdict, dataclass

import numpy as np

# forward_map_full is read here by perfbench's tracer test, which patches every alias
from .duality import DUAL_PAIRING, _backward_kernel, _forward_kernel, forward_map_full  # noqa: F401
from .errors import BoundaryApproachError, NonConvergenceError
from .params import (CouplingParams, canonical_angle, chart_membership, chart_slacks,
                     require_finite, require_inside, z_from_angle_rows)
from .rsvd import _dual_H0_kernel, dual_Hk, grad_dual_H0
from .sutherland import _H1_kernel, _Hk_kernel, _action_kernel, _lax_K_kernel, grad_H1

#: each system and the chart it lives in
SYSTEMS = {"sutherland_H1": "qp", "sutherland_Hk": "qp",
           "dual_H0": "lambda_theta", "dual_Hk": "lambda_theta"}
#: the names of the closed-form gradients (``FlowSpec.gradient ==
#: "analytic"``) in this module, each a map (positions, momenta, params) ->
#: (dH/dpositions, dH/dmomenta); ``vector_field`` looks the name up when it
#: builds the field, so a wrapper set on the module attribute sees every call
GRADIENTS = {"sutherland_H1": "grad_H1", "dual_H0": "grad_dual_H0"}
#: implicit midpoint: relative residual to stop at, sweep and Newton
#: iteration caps, and the FD step of the Newton Jacobian
NEWTON_TOL = 1e-13
MAX_ITER = 50
JAC_STEP = 1e-7
#: ``integrate`` starts each step from the extrapolation of this many past
#: states.  The weights of an order-m start sum to 2^m - 1 in absolute value,
#: so the start carries the field's noise times that: the roundoff of a
#: closed-form field, and the ~1e-12 noise of the Richardson FD field, stay
#: far below ``NEWTON_TOL`` at order 7 (about one evaluation per step on
#: smooth orbits)
START_ORDER = 7
#: integrator counters of ``Trajectory.stats``: steps taken, vector-field
#: evaluations (the Newton Jacobian's included), Newton Jacobians built and
#: Newton stalls accepted below the 1e-10 floor
STATS = ("steps", "evaluations", "jacobians", "stalls")


@dataclass(frozen=True)
class FlowSpec:
    """Which Hamiltonian to integrate, in which chart, and how."""

    system: str
    chart: str
    dt: float
    T: float
    k: int = 1
    gradient: str = "analytic"
    #: base step h of the FD field's Richardson stencil (steps h and h/2),
    #: capped at half the point's smallest chamber slack
    fd_step: float = 1e-4
    monitor_stride: int = 10
    boundary_margin: float = 1e-6

    def __post_init__(self):
        if self.system not in SYSTEMS:
            raise ValueError(f"unknown system {self.system!r}; "
                             f"expected one of {tuple(SYSTEMS)}")
        chart = SYSTEMS[self.system]
        if self.chart != chart:
            raise ValueError(f"system {self.system} is defined in the {chart} chart, "
                             f"not in {self.chart}")
        if not (self.dt > 0 and self.T > 0 and self.dt < self.T):
            raise ValueError("need 0 < dt < T")
        steps = self.T / self.dt
        if not abs(steps - round(steps)) <= 1e-9 * steps:
            raise ValueError(f"T / dt must be an integer, got T = {self.T!r}, "
                             f"dt = {self.dt!r} (T / dt = {steps!r})")
        if not 0 < self.fd_step < math.inf:
            raise ValueError(f"fd_step must be finite and > 0, got {self.fd_step!r}")
        if not self.boundary_margin >= 0:
            raise ValueError("boundary_margin must be >= 0")
        if self.monitor_stride < 1:
            raise ValueError(f"monitor_stride must be >= 1, got {self.monitor_stride}")
        if self.gradient not in ("analytic", "fd"):
            raise ValueError("gradient mode must be 'analytic' or 'fd'")
        if self.gradient == "analytic" and self.system not in GRADIENTS:
            raise ValueError(
                f"analytic gradients exist only for {' and '.join(GRADIENTS)}; "
                "use gradient='fd' for the other systems")
        if self.system in ("sutherland_Hk", "dual_Hk") and self.k < 1:
            raise ValueError("k must be >= 1")


class _Monitors(Mapping):
    """Column name -> series over a copy of the sampled states.  The first read
    of a column evaluates its whole group on the (samples, 2n) stack of
    states; a raise keeps none."""

    def __init__(self, groups, states):
        self._groups = {name: group for group in groups for name in group[0]}
        self._states, self._columns = states, {}

    def __getitem__(self, name):
        if name not in self._columns:
            names, values = self._groups[name]
            table = np.asarray(values(self._states), dtype=float)
            self._columns.update(zip(names, table.T.copy()))
        return self._columns[name]

    def __contains__(self, name):
        return name in self._groups

    def __iter__(self):
        return iter(self._groups)

    def __len__(self):
        return len(self._groups)


@dataclass
class Trajectory:
    """Times, states in the chart of ``flow`` and sampled monitor series; from
    ``integrate``, ``monitors`` evaluates each column group on first read."""

    times: np.ndarray
    states: np.ndarray
    monitor_times: np.ndarray
    monitors: Mapping
    flow: FlowSpec
    params: CouplingParams
    stats: dict

    def to_csv(self) -> str:
        """CSV rows t, state components, monitors; JSON header line with the
        flow settings and the integrator counters."""
        n = self.states.shape[1] // 2
        if self.flow.chart == "qp":
            cols = [f"q{i+1}" for i in range(n)] + [f"p{i+1}" for i in range(n)]
        else:
            cols = [f"lambda{i+1}" for i in range(n)] + [f"theta{i+1}" for i in range(n)]
        mon_names = sorted(self.monitors)
        header_meta = {"flow": asdict(self.flow), "params": self.params.to_dict(),
                       "stats": self.stats}
        lines = ["# " + json.dumps(header_meta, sort_keys=True),
                 ",".join(["t"] + cols + mon_names)]
        mon_lookup = {t: i for i, t in enumerate(self.monitor_times)}
        for i, t in enumerate(self.times):
            row = [repr(float(t))] + [repr(float(v)) for v in self.states[i]]
            if t in mon_lookup:
                j = mon_lookup[t]
                row += [repr(float(self.monitors[mname][j])) for mname in mon_names]
            else:
                row += [""] * len(mon_names)
            lines.append(",".join(row))
        return "\n".join(lines) + "\n"


def fd_gradient(fn, x, step: float = 1e-6, richardson: bool = False) -> np.ndarray:
    """Central-difference derivative of fn at x: the package's one FD stencil.

    ``fn`` maps a stack of points (..., d) to values (...) or (..., p); it is
    called once, on the (2d, d) stencil x + h e_j, x - h e_j, or with
    ``richardson`` on the (4d, d) stencil of the steps h and h/2, combined as
    (4 D(h/2) - D(h)) / 3 to cancel the h^2 error.  Returns the gradient for a
    scalar fn and the Jacobian, one column per component of x, for a vector
    fn.  A map of one point goes through :func:`_rows`, as the Newton field does."""
    x = np.asarray(x, dtype=float)
    d = x.size
    steps = (step, step / 2.0) if richardson else (step,)
    values = np.asarray(fn(x + step * _unit_stencil(d, richardson)))
    v = values.reshape((len(steps), 2, d) + values.shape[1:])
    diffs = [(v[i, 0] - v[i, 1]) / (2.0 * h) for i, h in enumerate(steps)]
    D = (4.0 * diffs[1] - diffs[0]) / 3.0 if richardson else diffs[0]
    return np.moveaxis(D, 0, -1) if D.ndim > 1 else D


@functools.lru_cache
def _unit_stencil(d: int, richardson: bool) -> np.ndarray:
    """The read-only rows e_j, -e_j (then e_j/2, -e_j/2 with ``richardson``)
    that :func:`fd_gradient` scales by its step, exactly: by powers of two."""
    scales = (1.0, 0.5) if richardson else (1.0,)
    table = np.concatenate([sign * h * np.eye(d) for h in scales for sign in (1.0, -1.0)])
    table.flags.writeable = False
    return table


def _rows(fn):
    """The map of one point ``fn`` as a map of stacks (..., d), evaluated row
    by row; a single point gets fn's own value."""
    def stacked(x):
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            return fn(x)
        values = np.array([fn(row) for row in x.reshape(-1, x.shape[-1])])
        return values.reshape(x.shape[:-1] + values.shape[1:])
    return stacked


def hamiltonian_function(flow: FlowSpec, params: CouplingParams):
    """The Hamiltonian as a map of stacks (..., 2n) -> (...) in the flow's
    chart coordinates, a float at a single point: the Sutherland H_1, the
    higher H_k (one Lax stack, one ``eigvalsh``) and the dual H0 are array
    kernels, the dual h_k read z for the whole stack in one pass and
    evaluate ``dual_Hk`` row by row."""
    n = params.n
    k = flow.k
    if flow.system == "dual_H0":
        return lambda x: _dual_H0_kernel(x[..., :n], x[..., n:], params)
    if flow.system == "sutherland_H1":
        return lambda x: _H1_kernel(x[..., :n], x[..., n:], params)
    if flow.system == "sutherland_Hk":
        def Hk(x):
            H = _Hk_kernel(_lax_K_kernel(x[..., :n], x[..., n:], params), params, k)
            return float(H[k - 1]) if H.ndim == 1 else H[..., k - 1]
        return Hk
    # dual Hamiltonians restricted to the angle chart, via the global Lax
    # matrix; a row's z is the one its DualPoint gives, bit for bit
    def H(x):
        x = np.asarray(x, dtype=float)
        z = z_from_angle_rows(x[..., :n], canonical_angle(x[..., n:]), params)
        values = np.array([dual_Hk(row, params, kmax=k)[k - 1]
                           for row in z.reshape(-1, n)])
        return float(values[0]) if x.ndim == 1 else values.reshape(x.shape[:-1])
    return H


def vector_field(flow: FlowSpec, params: CouplingParams):
    """Vector field f(x) = (s dH/dmomenta, -s dH/dpositions) of the flow's
    Hamiltonian, with s = 1 in the qp chart and DUAL_PAIRING in lambda_theta.

    The FD field is the Richardson stencil of :func:`fd_gradient` at the base
    step min(``fd_step``, slack / 2), slack the smallest chamber slack of x
    (:func:`chart_slacks`): no row of the stencil leaves the chamber.
    """
    n = params.n
    s = 1.0 if flow.chart == "qp" else DUAL_PAIRING
    signs = np.r_[np.full(n, s), np.full(n, -s)]
    if flow.gradient == "analytic":
        grad = globals()[GRADIENTS[flow.system]]

        def f(x):
            dx, dy = grad(x[:n], x[n:], params)
            return np.concatenate((dy, dx)) * signs
    else:
        H = hamiltonian_function(flow, params)

        def f(x):
            slack = min(chart_slacks(x[:n].tolist(), flow.chart, params))
            g = fd_gradient(H, x, min(flow.fd_step, 0.5 * slack), richardson=True)
            return np.concatenate((g[n:], g[:n])) * signs
    return f


def implicit_midpoint_step(f, x0, dt, start=None, stats=None):
    """One implicit-midpoint step: x1 = x0 + dt f((x0 + x1)/2).

    Fixed-point sweeps x_{k+1} = x0 + dt f((x0 + x_k)/2) start from ``start``,
    by default x0, whose first sweep is the Euler predictor x0 + dt f(x0).  The
    increment |x_{k+1} - x_k| is the residual of x_k; once it is at most
    ``NEWTON_TOL`` * max(1, |x_{k+1}|), x_{k+1} is returned if every earlier
    increment halved, else x_k (Hairer-Lubich-Wanner, Geometric Numerical
    Integration, VIII.6).  Only when an increment fails to halve the one two
    sweeps back (strong and weak sweeps alternate in the (q, p) chart), or
    after ``MAX_ITER`` sweeps, does Newton with an FD Jacobian take over from
    the last sweep and polish the residual x1 - x0 - dt f((x0 + x1)/2) below
    ``NEWTON_TOL``.  A Newton stall strictly below 1e-10 is accepted (the
    attainable floor when f is itself a finite-difference field); anything
    worse raises NonConvergenceError.  ``stats``, a dict keyed by ``STATS``,
    gets the step's counts added; a step that raises adds its evaluations and
    Jacobians but no step.
    """
    x0 = np.asarray(x0, dtype=float)
    if stats is None:
        stats = dict.fromkeys(STATS, 0)
    x1 = x0 if start is None else start
    last = prev = math.inf  # the increments one and two sweeps back
    halving = True
    for _ in range(MAX_ITER):
        x_next = x0 + dt * f(0.5 * (x0 + x1))
        stats["evaluations"] += 1
        d = x_next - x1
        inc = math.sqrt(d @ d)
        if inc <= NEWTON_TOL * max(1.0, math.sqrt(x_next @ x_next)):
            stats["steps"] += 1
            return x_next if halving else x1
        x1 = x_next
        if not inc <= 0.5 * prev:
            break
        halving = halving and inc <= 0.5 * last
        prev, last = last, inc
    Jg = None
    best = math.inf
    for _ in range(MAX_ITER):
        mid = 0.5 * (x0 + x1)
        F = x1 - x0 - dt * f(mid)
        stats["evaluations"] += 1
        nrm = math.sqrt(F @ F)
        if nrm <= NEWTON_TOL * max(1.0, math.sqrt(x1 @ x1)):
            stats["steps"] += 1
            return x1
        if nrm >= 0.9 * best:
            if nrm <= 1e-10:
                stats["stalls"] += 1
                stats["steps"] += 1
                return x1
            break
        best = nrm
        if Jg is None:
            Jg = np.eye(x0.size) - 0.5 * dt * fd_gradient(_rows(f), mid, JAC_STEP)
            stats["evaluations"] += 2 * x0.size
            stats["jacobians"] += 1
        x1 = x1 - np.linalg.solve(Jg, F)
    raise NonConvergenceError(
        f"implicit midpoint Newton stalled at residual {nrm:.3e}")


def march(f, x0, dt, order, stats=None):
    """Yield the implicit-midpoint states x1, x2, ... of the flow of f from x0.

    Each step starts its sweeps from the polynomial through the last m =
    ``order`` states, evaluated one step ahead: x_start = sum_j (-1)^j
    C(m, j+1) x_{k-j}, j = 0 .. m-1 (Hairer-Lubich-Wanner, VIII.6.1).  It is
    off the step's solution by O(dt^m), against O(dt^2) for the Euler
    predictor, so fewer sweeps reach the tolerance; the accepted state meets
    the same residual bound.  The weights sum to 2^m - 1 in absolute value, so
    the start also carries f's own noise times that; ``integrate`` takes the
    order ``START_ORDER``.  While fewer than m states exist the order
    is lower; the first step's order-1 start is x0 itself, whose first sweep
    is the Euler predictor.  ``stats`` is passed to every
    ``implicit_midpoint_step``.
    """
    x = np.asarray(x0, dtype=float)
    m = order
    weights = [np.array([(-1) ** j * math.comb(k, j + 1) for j in range(k)], dtype=float)
               for k in range(m + 1)]
    recent = np.empty((m, x.size))  # newest first
    recent[0] = x
    k = 1
    while True:
        start = weights[k] @ recent[:k]
        x = implicit_midpoint_step(f, x, dt, start, stats)
        recent[1:] = recent[:-1]
        recent[0] = x
        k = min(k + 1, m)
        yield x


def default_monitors(flow: FlowSpec, params: CouplingParams):
    """The flow's monitor column groups, each a pair (names, map of a stack
    of states (samples, 2n) -> table (samples, len(names))).

    ``H_flow``, the flow Hamiltonian, alone, from one
    :func:`hamiltonian_function` call; qp chart: every H_k and every action
    component, from one Lax stack and its two ``eigvalsh`` stacks;
    lambda_theta chart: the dual actions q_j, from one backward-map stack.
    """
    n = params.n
    H = hamiltonian_function(flow, params)
    groups = [(("H_flow",), lambda xs: H(xs)[:, None])]
    if flow.chart == "qp":
        def lax(xs):
            K = _lax_K_kernel(xs[:, :n], xs[:, n:], params)
            return np.concatenate((_Hk_kernel(K, params), _action_kernel(K, params)), axis=1)
        groups.append(([f"H{k+1}" for k in range(n)] + [f"lambda{j+1}" for j in range(n)], lax))
    else:
        groups.append(([f"q{j+1}" for j in range(n)],
                       lambda xs: _backward_kernel(xs[:, :n], canonical_angle(xs[:, n:]),
                                                   params, False)[0]))
    return groups


def integrate(flow: FlowSpec, x0, params: CouplingParams) -> Trajectory:
    """Integrate the flow from x0 with ``march``, sampling the state every
    ``monitor_stride`` steps and at the end; the integrator counters go to
    ``stats``.  No monitor is evaluated here: ``Trajectory.monitors`` runs
    each group of ``default_monitors`` over a copy of the sampled states when
    one of its columns is first read.

    Refuses an x0 outside its chart, or with a momentum or angle that is not
    finite (DomainError, naming the component).  Aborts with
    BoundaryApproachError (carrying the truncated trajectory) if the state
    comes within ``boundary_margin`` of a chamber wall.
    """
    x0 = np.asarray(x0, dtype=float)
    n = params.n
    require_inside(x0[:n].tolist(), flow.chart, params)
    require_finite(x0[n:], "p" if flow.chart == "qp" else "theta")
    nsteps = int(round(flow.T / flow.dt))
    f = vector_field(flow, params)

    states = np.empty((nsteps + 1, x0.size))
    states[0] = x0
    times = flow.dt * np.arange(nsteps + 1)
    mon_idx = [0]

    stats = dict.fromkeys(STATS, 0)
    steps = march(f, x0, flow.dt, START_ORDER, stats)
    for step in range(1, nsteps + 1):
        try:
            x = next(steps)
        except NonConvergenceError as exc:
            exc.stats = dict(stats)
            raise
        states[step] = x
        inside = chart_membership(x[:n].tolist(), flow.chart, params,
                                  flow.boundary_margin) == "inside"
        if not inside:
            break
        if step % flow.monitor_stride == 0 or step == nsteps:
            mon_idx.append(step)
    traj = Trajectory(
        times=times[: step + 1], states=states[: step + 1],
        monitor_times=times[mon_idx],
        monitors=_Monitors(default_monitors(flow, params), states[mon_idx]),
        flow=flow, params=params, stats=stats)
    if not inside:
        raise BoundaryApproachError(
            f"state approached a domain wall at t = {times[step]!r}", partial=traj)
    return traj


def poisson_bracket_fd(fa, fb, x, step: float = 1e-5,
                       richardson: bool = False) -> np.ndarray:
    """Table of brackets {fa_i, fb_j} at x of two maps fa: R^{2m} -> R^p and
    fb: R^{2m} -> R^q (a scalar map is a family of one), by central
    differences in canonical coordinates.

    x is ordered (positions, momenta).  Both maps take stacks (..., 2m), as
    for :func:`fd_gradient`.  The p x q table is J_a Omega J_b^T,
    Omega = [[0, I], [-I, 0]], from one :func:`fd_gradient` Jacobian per map
    (one in all when ``fb is fa``), with ``richardson`` as there.
    """
    x = np.asarray(x, dtype=float)
    if x.size % 2:
        raise ValueError("phase-space dimension must be even")
    m = x.size // 2
    Ja = np.atleast_2d(fd_gradient(fa, x, step, richardson))
    Jb = Ja if fb is fa else np.atleast_2d(fd_gradient(fb, x, step, richardson))
    return Ja[:, :m] @ Jb[:, m:].T - Ja[:, m:] @ Jb[:, :m].T


def angle_linearity_check(traj: Trajectory, params: CouplingParams) -> dict:
    """Linearity of the image angles along a Sutherland-chart trajectory.

    Maps every sampled state through the forward map, unwraps theta(t), fits a
    line per component, and compares the slopes with the finite-difference
    energy derivative dH/dlambda (step 1e-5) at the (constant) action vector,
    as well as with its duality-calibrated value -DUAL_PAIRING * dH/dlambda.  Also
    reports the action drift and flags too-coarse sampling (unwrap hazard).
    """
    if traj.flow.chart != "qp":
        raise ValueError("angle linearity is measured on qp-chart trajectories")
    n = params.n
    idx = np.arange(0, traj.times.size, traj.flow.monitor_stride)
    ts = traj.times[idx]
    lams, thetas, _, _ = _forward_kernel(traj.states[idx, :n], traj.states[idx, n:], params)
    thetas = np.unwrap(thetas, axis=0)

    slopes = np.empty(n)
    fit_residuals = np.empty(n)
    for j in range(n):
        coef = np.polyfit(ts, thetas[:, j], 1)
        slopes[j] = coef[0]
        fit = np.polyval(coef, ts)
        fit_residuals[j] = float(np.max(np.abs(fit - thetas[:, j])))

    lam0 = lams[0]
    theta0 = canonical_angle(thetas[0])
    flow_H = hamiltonian_function(traj.flow, params)

    def energy(lam):
        q, p, _, _ = _backward_kernel(lam, theta0, params, validate=False)
        return flow_H(np.concatenate((q, p), -1))

    dHdlam = fd_gradient(energy, lam0, 1e-5)

    sample_dt = float(ts[1] - ts[0]) if ts.size > 1 else float(traj.flow.dt)
    unwrap_hazard = bool(sample_dt * float(np.max(np.abs(slopes))) > np.pi)
    return {
        "slopes": slopes,
        "dH_dlambda": dHdlam,
        "slope_error_vs_dH": np.abs(slopes - dHdlam),
        "slope_error_calibrated": np.abs(slopes - (-DUAL_PAIRING) * dHdlam),
        "fit_residuals": fit_residuals,
        "lambda_drift": float(np.max(np.abs(lams - lams[0, None]))),
        "unwrap_hazard": unwrap_hazard,
    }
