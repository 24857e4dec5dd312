"""Micro rows of the traced run: median time per call at n = 1, 2, 4, 8.

Each row calls one bcsuth function on fixed inputs (they do not depend on the
workload seed) and records, next to its time, the residual its last call
reached against a reference computed apart from the function.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

from bcsuth import (duality, dynamics, matkernel, params as bparams, rsvd,
                    sutherland)

from workloads import dual_weights, lax_K, trig_H1

NS = (1, 2, 4, 8)
#: a row stops after at least MIN_CALLS calls once it has spent MIN_SECONDS
MIN_CALLS = 5
MIN_SECONDS = 0.05
DT = 1e-3


def _rel(a, b) -> float:
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))


def fixed_point(n: int):
    """Evenly spaced positions, momenta cos(j), one fixed coupling triple."""
    pr = bparams.couplings_from_rsvd(1.0, 1.8, 0.6, n)
    j = np.arange(1, n + 1)
    pt = bparams.SutherlandPoint(q=math.pi / 2 * (n + 1 - j) / (n + 1), p=np.cos(j))
    return pt, pr


def rows_for(n: int):
    """(name, call, residual-of-output) for every micro row at size n."""
    pt, pr = fixed_point(n)
    q, p, mu, nu, kappa = pt.q, pt.p, pr.mu, pr.nu, pr.kappa
    dual = duality.forward_map(pt, pr)
    Kodd = matkernel.gamma_split(sutherland.lax_Y(pt, pr).Y.m)[1]
    h = rsvd.h_matrix(dual.lam, pr).h.m
    B = -(h @ rsvd.A_check(dual, pr, validate=False).m @ h).conj().T
    z = bparams.z_from_angles(dual, pr).z
    specs = {s: dynamics.FlowSpec(system=s, chart=c, dt=DT, T=1.0, gradient=g)
             for s, c, g in (("sutherland_H1", "qp", "analytic"),
                             ("dual_H0", "lambda_theta", "fd"))}
    H0 = dynamics.hamiltonian_function(specs["dual_H0"], pr)
    x_dual = np.r_[dual.lam, dual.theta]
    w = dual_weights(dual.lam, mu, nu, kappa)
    h1 = trig_H1(q, p, mu, nu, kappa)

    def pair_resid(spec):
        d, g = spec.values, spec.frame.m
        return _rel(g @ np.diag(1j * np.r_[d, -d]) @ g.conj().T, Kodd)

    def cartan_resid(out):
        eta, qq = out[0].m, out[1]
        phase = np.diag(np.exp(2j * np.r_[qq, -qq]))
        return max(_rel(eta @ phase @ eta.conj().T, B), float(np.max(np.abs(qq - q))))

    def grad_resid(g):
        return float(np.max(np.abs(g[n:] + np.sin(dual.theta) * w)) / np.max(w))

    def step_row(system, x0):
        f = dynamics.vector_field(specs[system], pr)

        def resid(x1):
            defect = x1 - x0 - DT * f(0.5 * (x0 + x1))
            return float(np.linalg.norm(defect)) / max(1.0, float(np.linalg.norm(x1)))
        return (f"step_{system}", lambda: dynamics.implicit_midpoint_step(f, x0, DT), resid)

    return [
        ("lax_K", lambda: sutherland.lax_K(pt, pr),
         lambda K: _rel(K, lax_K(q, p, mu, nu, kappa))),
        ("pair_diagonalize_gminus", lambda: matkernel.pair_diagonalize_gminus(Kodd),
         pair_resid),
        ("cartan_decompose_gminus", lambda: matkernel.cartan_decompose_gminus(B),
         cartan_resid),
        ("forward_map", lambda: duality.forward_map(pt, pr),
         lambda d: abs(0.5 * float(d.lam @ d.lam) - h1) / abs(h1)),
        ("backward_map", lambda: duality.backward_map(dual, pr),
         lambda b: max(float(np.max(np.abs(b.q - q))), float(np.max(np.abs(b.p - p))))),
        ("A_tilde", lambda: rsvd.A_tilde(z, pr),
         lambda A: float(np.linalg.norm(A.m.conj().T @ A.m - np.eye(2 * n)))),
        ("dual_H0", lambda: rsvd.dual_H0(dual, pr),
         lambda v: abs(v + float(np.sum(np.cos(2 * q)))) / n),
        ("dual_H0_fd_gradient",
         lambda: dynamics.fd_gradient(H0, x_dual, specs["dual_H0"].fd_step), grad_resid),
        step_row("sutherland_H1", np.r_[q, p]),
        step_row("dual_H0", x_dual),
    ]


def time_call(call):
    """Median seconds per call, and the last output."""
    out = call()
    times = []
    while len(times) < MIN_CALLS or sum(times) < MIN_SECONDS:
        t0 = time.perf_counter()
        out = call()
        times.append(time.perf_counter() - t0)
    return statistics.median(times), out


def metrics() -> dict:
    out = {}
    for n in NS:
        for name, call, resid in rows_for(n):
            seconds, value = time_call(call)
            out[f"{name}.n{n}.us"] = (1e6 * seconds, "us", "lower")
            out[f"{name}.n{n}.resid"] = (resid(value), "rel", "lower")
    return out
