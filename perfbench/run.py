"""Benchmark of bcsuth: the duality maps, the two flows and ``bcsuth verify``.

Run from the root of a checkout; bcsuth need not be installed, the sources
under ``src/`` are imported directly::

    python3 perfbench/run.py --workload map-roundtrip --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1     # every workload, one summary each

``--trace 0`` reports the end-to-end metrics (``setup_s``, ``wall_s``,
``peak_rss_mb``, ``digits``); ``--trace 1`` reports the per-layer metrics of
a traced run instead.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
Result and trace files go to ``perfbench/out/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOAD_NAMES = ("map-roundtrip", "flow-exact", "verify-all")
#: fresh processes whose set-up time is measured; the median is reported
SETUP_PROBES = 5
PROBE_TIMEOUT = 120


def bootstrap():
    """Import bcsuth from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "bcsuth" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no bcsuth sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import bcsuth

    if Path(bcsuth.__file__).resolve().parent != (SRC / "bcsuth").resolve():
        raise SystemExit(f"perfbench: imported bcsuth from {bcsuth.__file__}, "
                         f"not from {SRC}")


def make_workload(name: str, seed: int):
    import workloads

    if name == "verify-all":
        return workloads.VerifyAll(seed, out_dir=str(OUT))
    return workloads.WORKLOADS[name](seed)


def probe_setup(name: str, seed: int) -> float:
    """Seconds from starting a fresh interpreter until it is ready for the
    first timed operation: imports, seeded inputs, one warm-up operation."""
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, str(Path(__file__).resolve()),
                           "--workload", name, "--seed", str(seed), "--setup-probe"],
                          cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        rc = proc.wait(timeout=PROBE_TIMEOUT)
    if line.strip() != "ready" or rc != 0:
        raise RuntimeError(f"set-up probe for {name} failed with exit code {rc}")
    return elapsed


def run_rounds(workload, seconds: float, traced=None):
    """Whole rounds until the next one would end past ``seconds``.

    With a tracer, rounds alternate untraced and traced (at least one each).
    Returns the untraced and the traced rounds.
    """
    plain, recorded, spent = [], [], []
    start = time.perf_counter()
    while True:
        trace_this = traced is not None and len(recorded) < len(plain)
        t0 = time.perf_counter()
        if trace_this:
            with traced.installed():
                recorded.append(workload.run_round(traced.recording))
        else:
            plain.append(workload.run_round())
        spent.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        done = traced is None or recorded
        if done and elapsed + statistics.median(spent) > seconds:
            return plain, recorded


def digits(rounds) -> float:
    import workloads

    return statistics.median(-math.log10(max(r.worst, workloads.ERROR_FLOOR))
                             for r in rounds)


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    setup = ([] if trace else
             [probe_setup(name, seed) for _ in range(SETUP_PROBES)])
    workload = make_workload(name, seed)
    workload.warm_up()
    if trace:
        import micro
        import tracer as tr
        from bcsuth.verification import SUITES

        tracer = tr.Tracer()
        plain, recorded = run_rounds(workload, seconds, tracer)
        rounds = plain + recorded
        metrics = tr.layer_metrics(tracer, len(recorded), SUITES)
        metrics.update(micro.metrics())
        untraced = statistics.median(r.seconds for r in plain)
        traced = statistics.median(r.seconds for r in recorded)
        metrics["trace.overhead_pct"] = (100.0 * (traced / untraced - 1.0), "%", "lower")
        tracer.save(OUT / f"trace-{name}-seed{seed}.npz")
    else:
        rounds, _ = run_rounds(workload, seconds)
        metrics = {
            "setup_s": (statistics.median(setup), "s", "lower"),
            "wall_s": (statistics.median(r.seconds for r in rounds), "s", "lower"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "MB", "lower"),
            "digits": (digits(rounds), "digits", "higher"),
        }
    problems = [p for r in rounds for p in r.problems]
    for p in problems[:20]:
        print(f"check failed: {p}", file=sys.stderr)
    return {
        "correct": not problems,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u, _) in metrics.items()},
        "rounds": len(rounds),
    }


def run_all(args) -> int:
    """Every workload in its own process; their summaries, then one JSON line."""
    results = {}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                               "--workload", name, "--seed", str(args.seed),
                               "--seconds", str(args.seconds), "--trace", str(args.trace)],
                              cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit code {proc.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]), flush=True)
        results[name] = json.loads(lines[-1])
    print(json.dumps(results, sort_keys=True))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0,
                    help="length of the measured phase")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    bootstrap()
    OUT.mkdir(exist_ok=True)
    if args.workload == "all":
        return run_all(args)
    if args.setup_probe:
        make_workload(args.workload, args.seed).warm_up()
        print("ready", flush=True)
        return 0

    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    rounds = result.pop("rounds")
    print(f"{args.workload}: seed {args.seed}, {rounds} rounds, attempted "
          f"{result['attempted']}, failed {result['failed']}, correct {result['correct']}")
    for metric, m in result["metrics"].items():
        print(f"  {metric:<40} {m['value']!r} {m['unit']}")
    line = json.dumps(result)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
