"""The benchmark's workloads: seeded inputs, timed calls into bcsuth, checks.

A workload is built from a seed and runs whole rounds.  Each round draws fresh
inputs from the seeded generator, times only the calls into bcsuth, and then
checks their outputs against closed forms written out in this file or against
the exact flows the duality provides.  The checks never compare with a stored
copy of earlier output.

Import this module only after ``run.bootstrap()`` has put the checkout's
``src`` directory first on ``sys.path``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import tempfile
import time
from dataclasses import dataclass, field

import numpy as np

from bcsuth import cli, duality, dynamics, errors, params as bparams

#: coupling ranges, drawn as ``verification.sample_params`` draws them
MU_RANGE = (0.6, 1.4)
NU_RANGE = (1.2, 2.4)
KAPPA_FRAC_RANGE = (0.0, 0.7)

#: seed of the inputs that must not depend on ``--seed`` (the near-wall slice)
FIXED_SEED = 20140708

#: smallest error reported, so that an exact result reads as 16 digits
ERROR_FLOOR = 1e-16


@dataclass
class Round:
    """What one round did: time in bcsuth, operation counts, checks."""

    seconds: float
    attempted: int
    failed: int
    worst: float
    problems: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# inputs

def sample_couplings(rng: np.random.Generator, n: int) -> bparams.CouplingParams:
    mu = rng.uniform(*MU_RANGE)
    nu = rng.uniform(*NU_RANGE)
    frac = rng.uniform(*KAPPA_FRAC_RANGE)
    sign = 1.0 if rng.uniform() < 0.5 else -1.0
    return bparams.couplings_from_rsvd(mu, nu, sign * frac * nu, n)


def sample_q(rng: np.random.Generator, n: int, gap: float) -> np.ndarray:
    """pi/2 - gap > q_1 > ... > q_n > gap with neighbours at least gap apart.

    Uniform on that set: the free length left after the gaps is split by a
    flat Dirichlet draw (the spacings of sorted uniforms).
    """
    free = math.pi / 2 - (n + 1) * gap
    if free <= 0:
        raise ValueError(f"gap {gap} leaves no room for {n} positions")
    extra = free * rng.dirichlet(np.ones(n + 1))[:n]
    ascending = gap * np.arange(1, n + 1) + np.cumsum(extra)
    return ascending[::-1].copy()


# ---------------------------------------------------------------------------
# closed forms, written out from the formulas in the README

def trig_H1(q, p, mu, nu, kappa) -> float:
    """H_1 = p^2/2 + sum_{j<k} mu^2 [1/sin^2(q_j - q_k) + 1/sin^2(q_j + q_k)]
    + sum_j (nu kappa / 2)/sin^2 q_j + sum_j ((nu - kappa)^2 / 2)/sin^2 2q_j."""
    j, k = np.triu_indices(q.size, 1)
    pairs = np.sum(1.0 / np.sin(q[j] - q[k]) ** 2 + 1.0 / np.sin(q[j] + q[k]) ** 2)
    return float(0.5 * p @ p + mu**2 * pairs
                 + nu * kappa / 2.0 * np.sum(1.0 / np.sin(q) ** 2)
                 + (nu - kappa) ** 2 / 2.0 * np.sum(1.0 / np.sin(2.0 * q) ** 2))


def dual_weights(lam, mu, nu, kappa) -> np.ndarray:
    """w_j = sqrt(1 - nu^2/l_j^2) sqrt(1 - kappa^2/l_j^2)
    * prod_{k != j} sqrt(1 - 4mu^2/(l_j - l_k)^2) sqrt(1 - 4mu^2/(l_j + l_k)^2)."""
    n = lam.size
    off = ~np.eye(n, dtype=bool)
    diff = (lam[:, None] - lam[None, :])[off]
    summ = (lam[:, None] + lam[None, :])[off]
    factors = np.ones((n, n))
    factors[off] = np.sqrt(1 - 4 * mu**2 / diff**2) * np.sqrt(1 - 4 * mu**2 / summ**2)
    return (np.sqrt(1 - nu**2 / lam**2) * np.sqrt(1 - kappa**2 / lam**2)
            * np.prod(factors, axis=1))


def dual_H0(lam, theta, mu, nu, kappa) -> float:
    """H0 = sum_j cos(theta_j) w_j - (nu kappa / 4mu^2) [prod_j (1 - 4mu^2/l_j^2) - 1]."""
    return float(np.cos(theta) @ dual_weights(lam, mu, nu, kappa)
                 - nu * kappa / (4 * mu**2) * (np.prod(1 - 4 * mu**2 / lam**2) - 1.0))


def lax_K(q, p, mu, nu, kappa) -> np.ndarray:
    """K = [[A, B], [-B, -A]] with A_jj = i p_j, A_jk = -mu/sin(q_j - q_k),
    B_jj = nu/sin 2q_j + kappa cot 2q_j, B_jk = mu/sin(q_j + q_k)."""
    n = q.size
    A = np.diag(1j * p)
    B = np.diag(nu / np.sin(2 * q) + kappa / np.tan(2 * q)).astype(complex)
    j, k = np.triu_indices(n, 1)
    A[j, k] = -mu / np.sin(q[j] - q[k])
    A[k, j] = -A[j, k]
    B[j, k] = B[k, j] = mu / np.sin(q[j] + q[k])
    return np.block([[A, B], [-B, -A]])


def lax_norm(q, p, mu, nu, kappa) -> float:
    """Frobenius norm of Y(q, p) = K - i kappa C, C the block exchange matrix."""
    n = q.size
    C = np.block([[np.zeros((n, n)), np.eye(n)], [np.eye(n), np.zeros((n, n))]])
    return float(np.linalg.norm(lax_K(q, p, mu, nu, kappa) - 1j * kappa * C))


def circle_distance(a, b) -> np.ndarray:
    d = np.abs(np.asarray(a) - np.asarray(b)) % (2 * math.pi)
    return np.minimum(d, 2 * math.pi - d)


# ---------------------------------------------------------------------------
# map-roundtrip

#: round trip, relative to the scale max(1, |p|) of the point
ROUND_TRIP_TOL = 1e-8
#: sum lambda^2 / 2 against H_1, relative to |H_1|
H1_TOL = 1e-12
#: closed-form dual H0 against -sum cos 2q, relative to n
H0_TOL = 1e-11
#: near-wall round trip with the Lax gate off, relative to ||Y(q, p)||_F
SLICE_TOL = 5e-8
#: smallest gap between positions, and from the walls, of the scattered points
MAP_GAP = 0.05
#: q_n of the near-wall slice
NEAR_WALL_Q = 1e-7


def check_map(pt, pr, dual, back) -> tuple[float, list]:
    """Scaled error and failed checks of one interior round trip."""
    q, p, lam, theta = pt.q, pt.p, dual.lam, dual.theta
    mu, nu, kappa = pr.mu, pr.nu, pr.kappa
    problems = []
    rt = max(float(np.max(np.abs(back.q - q))),
             float(np.max(np.abs(back.p - p))) / max(1.0, float(np.max(np.abs(p)))))
    h1 = trig_H1(q, p, mu, nu, kappa)
    e_h1 = abs(0.5 * float(lam @ lam) - h1) / abs(h1)
    e_h0 = abs(dual_H0(lam, theta, mu, nu, kappa) + float(np.sum(np.cos(2 * q)))) / q.size
    for label, err, tol in (("round trip", rt, ROUND_TRIP_TOL),
                            ("sum lambda^2/2 vs H_1", e_h1, H1_TOL),
                            ("dual H0 vs -sum cos 2q", e_h0, H0_TOL)):
        if not err <= tol:
            problems.append(f"{label}: {err:.3e} > {tol:.0e} at n = {q.size}")
    if not (np.all(lam[:-1] - lam[1:] > 2 * mu) and lam[-1] > nu):
        problems.append(f"lambda {lam.tolist()} outside the open chamber")
    return max(rt, e_h1, e_h0), problems


def check_slice(pt, pr, back) -> list:
    """The near-wall round trip with the gate off, relative to ||Y||_F."""
    scale = lax_norm(pt.q, pt.p, pr.mu, pr.nu, pr.kappa)
    err = max(float(np.max(np.abs(back.q - pt.q))),
              float(np.max(np.abs(back.p - pt.p)))) / scale
    if not err <= SLICE_TOL:
        return [f"near-wall round trip {err:.3e} > {SLICE_TOL:.0e} of ||Y|| at n = {pt.n}"]
    return []


class MapRoundtrip:
    """forward_map then backward_map at scattered interior points, n = 1, 2, 4, 8.

    Every round also maps a fixed near-wall slice (q_n = 1e-7 at n = 2, 3, 4)
    whose backward map trips the absolute 1e-6 Lax-reconstruction gate of
    ``backward_map_full``; those operations count as failed.
    """

    name = "map-roundtrip"

    def __init__(self, seed: int, per_n: int = 8, ns=(1, 2, 4, 8),
                 slice_ns=(2, 3, 4), slice_per_n: int = 2):
        self.rng = np.random.default_rng(seed)
        self.per_n, self.ns = per_n, ns
        fixed = np.random.default_rng(FIXED_SEED)
        self.slice = []
        for n in slice_ns:
            for _ in range(slice_per_n):
                pr = sample_couplings(fixed, n)
                q = sample_q(fixed, n, MAP_GAP)
                q[-1] = NEAR_WALL_Q
                self.slice.append((bparams.SutherlandPoint(q=q, p=fixed.standard_normal(n)), pr))

    def inputs(self):
        out = []
        for n in self.ns:
            for _ in range(self.per_n):
                pr = sample_couplings(self.rng, n)
                q = sample_q(self.rng, n, MAP_GAP)
                out.append((bparams.SutherlandPoint(q=q, p=self.rng.standard_normal(n)), pr))
        return out

    def warm_up(self):
        pt, pr = self.inputs()[0]
        duality.backward_map(duality.forward_map(pt, pr), pr)

    def run_round(self, timed=contextlib.nullcontext) -> Round:
        points = self.inputs()
        outputs = []
        with timed():
            t0 = time.perf_counter()
            for pt, pr in points + self.slice:
                outputs.append(round_trip(pt, pr))
            seconds = time.perf_counter() - t0
        worst, failed, problems = 0.0, 0, []
        for (pt, pr), (dual, back) in zip(points, outputs):
            if isinstance(back, errors.BcsuthError):
                failed += 1
                problems.append(f"interior round trip at n = {pt.n} raised {back!r}")
                continue
            err, bad = check_map(pt, pr, dual, back)
            worst = max(worst, err)
            problems += bad
        for (pt, pr), (dual, back) in zip(self.slice, outputs[len(points):]):
            if isinstance(back, errors.BcsuthError):
                failed += 1
                if not (isinstance(back, errors.ConsistencyError) and dual is not None):
                    problems.append(f"near-wall map at n = {pt.n} raised {back!r}")
                    continue
                back, _ = duality.backward_map_full(dual, pr, validate=False)
            problems += check_slice(pt, pr, back)
        return Round(seconds, len(outputs), failed, worst, problems)


def round_trip(pt, pr):
    """(dual, back) of forward_map then backward_map; an error takes the
    place of the output it prevented (dual is None when forward_map raised)."""
    try:
        dual = duality.forward_map(pt, pr)
    except errors.BcsuthError as exc:
        return None, exc
    try:
        return dual, duality.backward_map(dual, pr)
    except errors.BcsuthError as exc:
        return dual, exc


# ---------------------------------------------------------------------------
# flow-exact

FLOW_DT = 1e-3
#: action gaps of the start points: lambda_n = nu + u_n and
#: lambda_k = lambda_(k+1) + 2 mu + u_k, u uniform in this range
FLOW_GAP_RANGE = (0.05, 0.3)
#: the midpoint rule's global error after time T is O(dt^2 T omega^3), with
#: omega = 2 lambda_1 the fastest angle frequency of the H_1 flow; its energy
#: error is O(dt^2 omega^2) relative to max(1, |H|).  The constants leave 10x
#: headroom or more over the largest ratios in 300 seeded trajectories per flow.
H1_FLOW_C = 100.0
H1_ENERGY_C = 10.0
#: the dual H0 flow stays far from its stiff walls, so fixed tolerances fit
DUAL_FLOW_TOL = 1e-5
DUAL_ENERGY_TOL = 1e-5


def sample_lambda(rng: np.random.Generator, pr) -> np.ndarray:
    u = rng.uniform(*FLOW_GAP_RANGE, size=pr.n)
    lam = np.empty(pr.n)
    lam[-1] = pr.nu + u[-1]
    for k in range(pr.n - 2, -1, -1):
        lam[k] = lam[k + 1] + 2 * pr.mu + u[k]
    return lam


@dataclass
class FlowJob:
    """One trajectory: its start state and the duality data of that state."""

    system: str
    params: bparams.CouplingParams
    dual0: bparams.DualPoint
    point0: bparams.SutherlandPoint

    @property
    def x0(self) -> np.ndarray:
        if self.system == "sutherland_H1":
            return np.r_[self.point0.q, self.point0.p]
        return np.r_[self.dual0.lam, self.dual0.theta]


def exact_end_state(job: FlowJob, T: float) -> np.ndarray:
    """End state of the flow, from the duality's exact solution.

    H_1 flow: lambda is fixed and theta(t) = theta(0) + 2 lambda t, mapped back
    with the backward map.  Dual H0 flow: q is fixed and
    p(t) = p(0) - 2t sin 2q, mapped with the forward map.  The 2 is the
    pairing constant |DUAL_PAIRING| of the angle chart.
    """
    lam, theta = job.dual0.lam, job.dual0.theta
    q, p = job.point0.q, job.point0.p
    if job.system == "sutherland_H1":
        pt = duality.backward_map(bparams.DualPoint(lam=lam, theta=theta + 2 * lam * T),
                                  job.params)
        return np.r_[pt.q, pt.p]
    dual = duality.forward_map(
        bparams.SutherlandPoint(q=q, p=p - 2 * T * np.sin(2 * q)), job.params)
    return np.r_[dual.lam, dual.theta]


def flow_error(system, end, exact, n) -> float:
    """Scaled end-state error: q absolute, p relative to max(1, |p|);
    lambda relative to lambda_1, theta on the circle."""
    if system == "sutherland_H1":
        return max(float(np.max(np.abs(end[:n] - exact[:n]))),
                   float(np.max(np.abs(end[n:] - exact[n:])))
                   / max(1.0, float(np.max(np.abs(exact[n:])))))
    return max(float(np.max(np.abs(end[:n] - exact[:n]))) / float(exact[0]),
               float(np.max(circle_distance(end[n:], exact[n:]))))


def flow_tolerances(job: FlowJob, dt: float, T: float) -> tuple[float, float]:
    """(end-state tolerance, energy tolerance) of one trajectory."""
    if job.system == "sutherland_H1":
        omega = 2.0 * float(job.dual0.lam[0])
        return H1_FLOW_C * dt**2 * T * omega**3, H1_ENERGY_C * dt**2 * omega**2
    return DUAL_FLOW_TOL, DUAL_ENERGY_TOL


def check_trajectory(job: FlowJob, traj, dt: float, T: float) -> tuple[float, list]:
    n = job.params.n
    tol, energy_tol = flow_tolerances(job, dt, T)
    problems = []
    if not math.isclose(float(traj.times[-1]), T, rel_tol=1e-12):
        problems.append(f"{job.system} at n = {n} stopped at t = {traj.times[-1]!r}")
    err = flow_error(job.system, traj.states[-1], exact_end_state(job, T), n)
    if not err <= tol:
        problems.append(f"{job.system} at n = {n}: end state off the exact flow by "
                        f"{err:.3e} > {tol:.3e}")
    H = traj.monitors["H_flow"]
    drift = float(np.max(np.abs(H - H[0]))) / max(1.0, abs(float(H[0])))
    if not drift <= energy_tol:
        problems.append(f"{job.system} at n = {n}: energy drift {drift:.3e} > "
                        f"{energy_tol:.3e}")
    return err, problems


class FlowExact:
    """``dynamics.integrate`` of the H_1 flow (qp chart, analytic gradient) and
    of the dual H0 flow (lambda-theta chart, FD gradient) at n = 1, 2, 3,
    checked against the exact flows the duality provides."""

    name = "flow-exact"

    def __init__(self, seed: int, T: float = 0.1, ns=(1, 2, 3)):
        self.rng = np.random.default_rng(seed)
        self.T, self.dt, self.ns = T, FLOW_DT, ns
        self.specs = {
            "sutherland_H1": dynamics.FlowSpec(system="sutherland_H1", chart="qp",
                                               dt=FLOW_DT, T=T),
            "dual_H0": dynamics.FlowSpec(system="dual_H0", chart="lambda_theta",
                                         dt=FLOW_DT, T=T, gradient="fd"),
        }

    def inputs(self) -> list:
        """One start point per n and flow, drawn on the dual side so that its
        actions sit a controlled distance inside the chamber."""
        jobs = []
        for n in self.ns:
            for system in self.specs:
                pr = sample_couplings(self.rng, n)
                dual0 = bparams.DualPoint(lam=sample_lambda(self.rng, pr),
                                          theta=self.rng.uniform(0, 2 * math.pi, n))
                jobs.append(FlowJob(system, pr, dual0, duality.backward_map(dual0, pr)))
        return jobs

    def warm_up(self):
        job = self.inputs()[0]
        dynamics.integrate(self.specs[job.system], job.x0, job.params)

    def run_round(self, timed=contextlib.nullcontext) -> Round:
        jobs = self.inputs()
        with timed():
            t0 = time.perf_counter()
            trajs = [self.integrate(j) for j in jobs]
            seconds = time.perf_counter() - t0
        worst, failed, problems = 0.0, 0, []
        for job, traj in zip(jobs, trajs):
            if isinstance(traj, errors.BcsuthError):
                failed += 1
                problems.append(f"{job.system} at n = {job.params.n} raised {traj!r}")
                continue
            err, bad = check_trajectory(job, traj, self.dt, self.T)
            worst = max(worst, err)
            problems += bad
        return Round(seconds, len(jobs), failed, worst, problems)

    def integrate(self, job: FlowJob):
        try:
            return dynamics.integrate(self.specs[job.system], job.x0, job.params)
        except errors.BcsuthError as exc:
            return exc


# ---------------------------------------------------------------------------
# verify-all

#: verify seeds seen to complete with every row passed; ``--seed`` picks one.
#: Seed 9 is left out: its dynamics suite raises NonConvergenceError.
VERIFY_SEEDS = tuple(s for s in range(30) if s != 9) + (42, 2024)


def check_verdict(rc: int, report: dict) -> list:
    """Verify's verdict against its own rows: exit code, ``passed``, and each
    row's pass flag recomputed from its residual and tolerance (a negative
    control passes only when it trips)."""
    problems = []
    rows = report.get("checks", [])
    if not rows:
        problems.append("verify reported no check rows")
    if not any(r["negative_control"] for r in rows):
        problems.append("verify reported no negative control")
    for r in rows:
        mx, tol = r["max_residual"], r["tol"]
        if r["negative_control"]:
            expect = mx > 10.0 * tol if tol > 0 else mx > 1e-3
        else:
            expect = mx <= tol
        if r["passed"] != expect:
            problems.append(f"row {r['name']} says passed={r['passed']} for "
                            f"residual {mx!r} against tol {tol!r}")
    all_rows = all(r["passed"] for r in rows)
    if report.get("passed") is not all_rows:
        problems.append(f"report passed={report.get('passed')} but rows say {all_rows}")
    if rc != 0 or report.get("passed") is not True:
        problems.append(f"verify exited with {rc}, passed={report.get('passed')}")
    return problems


def verify_digits(report: dict) -> float:
    """The error verify reports against an exact reference: the mean
    round-trip error of its duality suite (the worst of its samples swings
    by more than a digit between seeds)."""
    for r in report["checks"]:
        if r["name"] == "duality.round_trip" and not r["negative_control"]:
            return float(r["mean_residual"])
    return 1.0


class VerifyAll:
    """``bcsuth verify --suite all`` through ``cli.main``, in-process, one job,
    JSON written to a temporary file.  One operation is one check row."""

    name = "verify-all"

    def __init__(self, seed: int, n_max: int = 3, samples: int = 25,
                 out_dir: str = ".", extra=()):
        self.seed = VERIFY_SEEDS[seed % len(VERIFY_SEEDS)]
        self.out_dir = out_dir
        self.argv = ["verify", "--suite", "all", "--n-max", str(n_max),
                     "--samples", str(samples), "--seed", str(self.seed),
                     "--jobs", "1", "--format", "json", *extra]

    def _verify(self, argv):
        fd, path = tempfile.mkstemp(prefix="verify-", suffix=".json", dir=self.out_dir)
        os.close(fd)
        try:
            with contextlib.redirect_stderr(io.StringIO()) as said:
                t0 = time.perf_counter()
                rc = cli.main(argv + ["--out", path])
                seconds = time.perf_counter() - t0
            with open(path) as fh:
                text = fh.read()
        finally:
            os.unlink(path)
        return rc, (json.loads(text) if text else {}), seconds, said.getvalue()

    def warm_up(self):
        self._verify(["verify", "--suite", "structure", "--n-max", "1",
                      "--samples", "1", "--seed", str(self.seed), "--jobs", "1"])

    def run_round(self, timed=contextlib.nullcontext) -> Round:
        with timed():
            rc, report, seconds, said = self._verify(self.argv)
        rows = report.get("checks", [])
        failed = sum(1 for r in rows if not r["passed"])
        problems = check_verdict(rc, report)
        if rc != 0:
            problems.append(f"verify said: {said.strip()}")
        worst = verify_digits(report) if rows else 1.0
        return Round(seconds, max(1, len(rows)), failed, worst, problems)


WORKLOADS = {w.name: w for w in (MapRoundtrip, FlowExact, VerifyAll)}
