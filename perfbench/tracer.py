"""Per-layer tracing for the traced benchmark run.

The tracer wraps public functions of bcsuth from outside the package: every
module attribute that holds the original function object, including names
other modules imported (``bcsuth.dynamics.dual_H0`` is ``bcsuth.rsvd.dual_H0``),
is replaced by a wrapper that records one span per call.  A span is
(name, start, end, parent); spans stay in memory in flat arrays and are
written out once, when the run ends.  Self time is a span's duration minus
the time its child spans cover.

Only the calls made while ``recording()`` is active produce spans, so the
benchmark's own checks, which call the maps again, do not count.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from array import array

import numpy as np

#: instrumented functions per bcsuth module
LAYERS = {
    "sutherland": ("lax_Y", "hamiltonians", "action_map", "grad_H1"),
    "matkernel": ("gamma_split", "pair_diagonalize_gminus",
                  "cartan_decompose_gminus"),
    "rsvd": ("h_matrix", "f_vector", "A_tilde", "A_check", "dual_H0"),
    "duality": ("forward_map_full", "backward_map_full", "canonicity_residual"),
    "dynamics": ("integrate", "implicit_midpoint_step", "fd_gradient"),
}

#: eigen and Schur solvers, counted together as ``linalg.eig.calls``
LINALG = (("numpy.linalg", "eigh"), ("numpy.linalg", "eigvalsh"),
          ("numpy.linalg", "eigvals"), ("scipy.linalg", "schur"))

SUITE_SPAN = "verification."


class Tracer:
    """In-memory span recorder for one single-threaded run."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self._on = False
        self._patches: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        """Return ``fn`` wrapped so that each recorded call leaves one span."""
        sid = self._name_id(name)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self._on:
                return fn(*args, **kwargs)
            idx = len(names)
            names.append(sid)
            parents.append(stack[-1] if stack else -1)
            starts.append(clock())
            ends.append(0.0)
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                ends[idx] = clock()

        return traced

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self):
        """Wrap the instrumented bcsuth functions, the solvers and the suites."""
        from bcsuth import verification

        modules = [m for key, m in sorted(sys.modules.items())
                   if (key == "bcsuth" or key.startswith("bcsuth.")) and m is not None]
        for modname, funcs in LAYERS.items():
            home = sys.modules["bcsuth." + modname]
            for func in funcs:
                orig = getattr(home, func)
                wrapper = self.wrap(f"{modname}.{func}", orig)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            self._patch(mod, attr, wrapper)
        for modname, func in LINALG:
            mod = importlib.import_module(modname)
            self._patch(mod, func, self.wrap(f"linalg.{func}", getattr(mod, func)))
        runners = verification._SUITE_RUNNERS
        for suite, fn in list(runners.items()):
            self._patches.append((runners, suite, fn))
            runners[suite] = self.wrap(SUITE_SPAN + suite, fn)

    def uninstall(self):
        for owner, attr, orig in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = orig
            else:
                setattr(owner, attr, orig)
        self._patches.clear()

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    @contextlib.contextmanager
    def recording(self):
        self._on = True
        try:
            yield
        finally:
            self._on = False

    def arrays(self):
        return (np.frombuffer(self.name, dtype=np.int32),
                np.frombuffer(self.parent, dtype=np.int32),
                np.frombuffer(self.start, dtype=np.float64),
                np.frombuffer(self.end, dtype=np.float64))

    def totals(self):
        """Per span name: (calls, total duration s, self time s)."""
        name, parent, start, end = self.arrays()
        k = len(self.names)
        dur = end - start
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent],
                              minlength=dur.size)
        own = dur - covered
        calls = np.bincount(name, minlength=k)
        total = np.bincount(name, weights=dur, minlength=k)
        selft = np.bincount(name, weights=own, minlength=k)
        return {n: (int(calls[i]), float(total[i]), float(selft[i]))
                for i, n in enumerate(self.names)}

    def save(self, path):
        name, parent, start, end = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), name=name,
                            parent=parent, start=start, end=end)


def layer_metrics(tracer: Tracer, rounds: int, suites) -> dict:
    """Per-round calls and self time of each layer, solver calls, suite wall time."""
    totals = tracer.totals()
    out = {}
    for modname, funcs in LAYERS.items():
        for func in funcs:
            calls, _, selft = totals.get(f"{modname}.{func}", (0, 0.0, 0.0))
            out[f"{modname}.{func}.calls"] = (calls / rounds, "count", "lower")
            out[f"{modname}.{func}.self_ms"] = (1e3 * selft / rounds, "ms", "lower")
    eig = sum(totals.get(f"linalg.{func}", (0, 0.0, 0.0))[0] for _, func in LINALG)
    out["linalg.eig.calls"] = (eig / rounds, "count", "lower")
    for suite in suites:
        _, total, _ = totals.get(SUITE_SPAN + suite, (0, 0.0, 0.0))
        out[f"verification.{suite}.wall_ms"] = (1e3 * total / rounds, "ms", "lower")
    return out
