"""Run one duotherm benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a checkout that holds ``src/duotherm``.  The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of a traced run with ``--trace 1``.  Progress and broken
properties go to standard error.  See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
# Set-up is timed this many times per run, spread over the timed rounds so
# that it samples the machine over the same stretch as the other metrics.
SETUP_PROBES = 11


def cpu_seconds() -> float:
    """User + system CPU of this process (all threads) and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def measure_setup(setup_ids: str) -> float:
    """Set-up time of one fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), str(SRC), setup_ids],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.split()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "duotherm" / "__init__.py").is_file():
        print(f"no duotherm sources under {SRC}", file=sys.stderr)
        return 2

    import numpy as np

    import oracle
    import tracing
    from workloads import WORKLOADS, Checker

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    cls = WORKLOADS[args.workload]

    sys.path.insert(0, str(SRC))
    import duotherm as dt

    workload = cls(dt, np.random.default_rng(args.seed), OUT)
    for setup_id in dt.SETUP_IDS if cls.setups == "all" else cls.setups.split(","):
        dt.evaluate_bounds(dt.make_setup(setup_id), 0.3, 0.7)
    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        tracer.install(dt)
    span = tracer.request_span if tracer else contextlib.nullcontext

    chk = Checker()
    setup_times = []
    latencies = []
    rounds = attempted = failed = finite = 0
    timed = cpu = main_cpu = 0.0
    while timed < args.seconds:
        items = workload.next_round()
        outputs, points = [], 0
        cpu0, main0, wall0 = cpu_seconds(), time.thread_time(), time.perf_counter()
        for item in items:
            t0 = time.perf_counter()
            with span():
                n, out = workload.request(item)
            latencies.append(time.perf_counter() - t0)
            points += n
            outputs.append(out)
        timed += time.perf_counter() - wall0
        cpu += cpu_seconds() - cpu0
        main_cpu += time.thread_time() - main0
        rounds += 1
        attempted += points
        round_failed, round_finite = workload.check(chk, items, outputs)
        failed += round_failed
        finite += round_finite
        while not tracer and len(setup_times) < SETUP_PROBES * min(1.0, timed / args.seconds):
            setup_times.append(measure_setup(cls.setups))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    for problem in oracle.self_check():
        chk.require(False, f"oracle self-check: {problem}")
    for problem in chk.problems:
        print(f"BROKEN: {problem}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed}: {rounds} rounds, {len(latencies)} requests, "
          f"{attempted} points, {failed} failed, {chk.count} broken properties, "
          f"{timed:.2f} s timed", file=sys.stderr)

    if tracer:
        spans = tracer.spans()
        tracing.save(spans, OUT / "trace" / f"{args.workload}.npz")
        metrics = layer_metrics(tracing.summarize(spans), attempted, finite, timed,
                                cpu - main_cpu)
    else:
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "points_per_s": (attempted / timed, "1/s"),
            "latency_p50_ms": (1e3 * statistics.median(latencies), "ms"),
            "cpu_ms_per_point": (1e3 * cpu / attempted, "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    print(json.dumps({
        "correct": chk.count == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def layer_metrics(summary: dict, attempted: int, finite: int, timed: float,
                  helper_cpu: float) -> dict:
    """Per-layer metrics of a traced run, each per attempted point."""
    per_ms = 1e-6 / attempted
    calls = summary["calls"]
    self_ns = summary["self_ns"]
    out = {
        "setups.state_calls_per_point":
            (calls.get("setups.SetupEvaluator.__call__", 0) / attempted, "count"),
        "tensor.embed_operator_calls_per_point":
            (calls.get("tensor.embed_operator", 0) / attempted, "count"),
        "tensor.herm_eig_calls_per_point": (calls.get("tensor.herm_eig", 0) / attempted, "count"),
        "tensor.validate_density_matrix_calls_per_point":
            (calls.get("tensor.validate_density_matrix", 0) / attempted, "count"),
        "interferometer.operator_bytes_per_point":
            (summary["interferometer_bytes"] / attempted, "B"),
    }
    for layer, ns in self_ns.items():
        out[f"{layer}.self_ms_per_point"] = (ns * per_ms, "ms")
    out["runtime.helper_cpu_ms_per_point"] = (1e3 * helper_cpu / attempted, "ms")
    out["estimation.finite_bound_share"] = (finite / attempted, "ratio")
    out["trace.wall_ms_per_point"] = (1e3 * timed / attempted, "ms")
    out["trace.self_sum_gap_share"] = (1.0 - sum(self_ns.values()) * 1e-9 / timed, "ratio")
    return out


if __name__ == "__main__":
    sys.exit(main())
