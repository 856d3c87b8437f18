"""Wall time and per-layer cost of the nine default 46x46 sweeps.

    python3 tools/bench_layers.py --out BENCH.json LABEL=SRC [LABEL=SRC ...]

Each SRC is the ``src`` directory of a checkout.  Each of ``REPEATS`` rounds
measures every source once, in turn and each in a fresh interpreter:

* end to end: the nine default sweeps (19,044 grid points) run back to back
  with ``run_sweep`` at 1 worker and at auto workers (``workers=0``);
* per setup, at 1 worker in one process: building the evaluator (once per
  sweep), then per sweep task (a block of whole grid rows) the state build
  with its derivative stencil, the validating eigendecomposition
  (``tensor.density_eig``), and the SLDs with the QFIM and the bounds, then
  the whole sweep, and writing its CSV and PGM files.  Each layer is given
  in microseconds per grid point;
* cold queries, the unit of work of a point query: first, before anything
  else in the interpreter, the first ``make_setup`` of each setup (it
  builds whatever the setup builds once); then, after one warm-up point per
  setup, ``COLD_ROUNDS`` rounds of one query per setup, setups in turn, each
  a ``make_setup`` at a fresh seeded (phi, eta) and a one-point
  ``evaluate_bounds`` at a seeded (t1, t2), drawn as the regular queries of
  the benchmark's ``point_queries`` are.  It records, per setup, the median
  microseconds of each call.  Every checkout gets the same queries.

Every checkout must provide ``tensor.density_eig`` and
``sweep._block_rows``.  The JSON file holds, per label, the median over the
repeats of every figure, the rows per task, the effective worker count and
the BLAS library with its thread count.
"""
from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time

GRID_POINTS = 46 * 46
REPEATS = 5
COLD_ROUNDS = 200
COLD_SEED = 20261018


def blas_info() -> dict:
    """OpenBLAS configuration and thread count of this process, read from the
    library numpy loaded; empty when no OpenBLAS is mapped or the process map
    cannot be read (it is read from /proc, so on Linux only)."""
    try:
        with open("/proc/self/maps") as handle:
            paths = sorted({line.split()[-1] for line in handle if "openblas" in line.lower()})
    except OSError:
        return {}
    for path in paths:
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if threads is not None and config is not None:
                    config.restype = ctypes.c_char_p
                    return {"config": config().decode(), "threads": int(threads())}
    return {}


def measure(src: str) -> dict:
    """One measurement of the checkout whose package lives in ``src``."""
    sys.path.insert(0, src)
    import numpy as np

    import duotherm as dt
    from duotherm import estimation, sweep, tensor
    from duotherm.sweep import resolve_workers

    first_compile = {}
    for setup_id in dt.SETUP_IDS:
        start = time.perf_counter()
        dt.make_setup(setup_id)
        first_compile[setup_id] = 1e6 * (time.perf_counter() - start)
    cold = cold_queries(dt, np)
    stencil, slds_of = pipeline(estimation)

    end_to_end = {}
    for name, workers in (("workers_1", 1), ("workers_auto", 0)):
        start = time.perf_counter()
        for setup_id in dt.SETUP_IDS:
            dt.run_sweep(dt.SweepSpec(setup_id), workers=workers)
        end_to_end[name] = time.perf_counter() - start

    layers = {}
    with tempfile.TemporaryDirectory() as tmp:
        for setup_id in dt.SETUP_IDS:
            spec = dt.SweepSpec(setup_id)
            cfg = dt.DerivativeConfig(step=spec.step)
            grid = spec.grid()
            rows = sweep._block_rows(spec.grid_n)
            spent = dict.fromkeys(("state_build", "eig", "slds_qfim_bounds"), 0.0)
            start = time.perf_counter()
            setup = dt.make_setup(setup_id, phi=spec.phi, eta=spec.eta,
                                  beta_convention=spec.beta_convention)
            setup_build = time.perf_counter() - start
            for first in range(0, spec.grid_n, rows):
                t1s = np.repeat(grid[first:first + rows], grid.size)
                t2s = np.tile(grid, t1s.size // grid.size)
                t0 = time.perf_counter()
                rho, d_rho = stencil(setup, t1s, t2s, cfg)
                t1_ = time.perf_counter()
                vals, vecs = tensor.density_eig(rho)
                t2_ = time.perf_counter()
                slds = slds_of(vals, vecs, d_rho, cfg)
                estimation.crb_bounds(estimation.qfim(vals, slds[..., 0, :, :],
                                                      slds[..., 1, :, :], cfg))
                t3_ = time.perf_counter()
                spent["state_build"] += t1_ - t0
                spent["eig"] += t2_ - t1_
                spent["slds_qfim_bounds"] += t3_ - t2_
            start = time.perf_counter()
            records = dt.run_sweep(spec, workers=1)
            spent["sweep"] = time.perf_counter() - start
            start = time.perf_counter()
            dt.emit_csv(records, os.path.join(tmp, f"{setup_id}.csv"))
            dt.emit_pgm_heatmap(records, "total_var", os.path.join(tmp, f"{setup_id}.pgm"))
            spent["emit"] = time.perf_counter() - start
            layers[setup_id] = {k: 1e6 * v / GRID_POINTS for k, v in spent.items()}
            layers[setup_id]["setup_build_us_per_sweep"] = 1e6 * setup_build

    auto = resolve_workers(0)
    return {
        "end_to_end_s": end_to_end,
        "per_setup_us_per_point": layers,
        "cold_query_us": {"first_make_setup": first_compile,
                          "first_make_setup_total": sum(first_compile.values()),
                          **cold},
        "rows_per_task": sweep._block_rows(46),
        "workers": {"auto": auto,
                    "auto_effective": min(auto, -(-46 // sweep._block_rows(46)))},
        "numpy": np.__version__,
        "blas": blas_info(),
    }


def pipeline(estimation):
    """The state build with its stencil, returning the states and their
    derivatives, and the eigenbasis SLDs from those derivatives, of a
    checkout's ``evaluate_bounds``: the derivatives are a stack (..., 2, d,
    d) where the checkout has ``estimation._stencil``, a pair before."""
    if hasattr(estimation, "_stencil"):
        return estimation._stencil, estimation._eigenbasis_slds

    def stencil(setup, t1s, t2s, cfg):
        rho, d1, d2 = estimation.state_and_derivatives(setup, t1s, t2s, cfg)
        return rho, (d1, d2)

    return stencil, lambda vals, vecs, d_rho, cfg: estimation._eigenbasis_slds(
        vals, vecs, *d_rho, cfg)


def cold_queries(dt, np) -> dict:
    """Median microseconds, per setup, of ``make_setup`` at a fresh (phi, eta)
    and of a one-point ``evaluate_bounds`` (see the module docstring)."""
    for setup_id in dt.SETUP_IDS:
        dt.evaluate_bounds(dt.make_setup(setup_id), 0.3, 0.7)
    rng = np.random.default_rng(COLD_SEED)
    spent = {setup_id: ([], []) for setup_id in dt.SETUP_IDS}
    for _ in range(COLD_ROUNDS):
        for setup_id in dt.SETUP_IDS:
            phi = float(rng.uniform(0.1, math.pi - 0.1) + math.pi * rng.integers(2))
            eta = float(rng.uniform(0.2, 1.0))
            t1, t2 = rng.uniform(0.15, 1.0, size=2)
            while abs(t1 - t2) < 0.02:
                t1, t2 = rng.uniform(0.15, 1.0, size=2)
            start = time.perf_counter()
            setup = dt.make_setup(setup_id, phi=phi, eta=eta)
            built = time.perf_counter()
            dt.evaluate_bounds(setup, float(t1), float(t2))
            done = time.perf_counter()
            spent[setup_id][0].append(built - start)
            spent[setup_id][1].append(done - built)
    return {name: {setup_id: 1e6 * statistics.median(times[i])
                   for setup_id, times in spent.items()}
            for i, name in enumerate(("make_setup", "evaluate_bounds"))}


def median_of(runs: list) -> object:
    """Element-wise median of equal-shape nested dicts of numbers."""
    first = runs[0]
    if isinstance(first, dict):
        return {k: median_of([r[k] for r in runs]) for k in first}
    if isinstance(first, (int, float)) and not isinstance(first, bool):
        return statistics.median(runs)
    return first


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("sources", nargs="*", metavar="LABEL=SRC")
    parser.add_argument("--out", help="JSON file to write (default: standard output)")
    parser.add_argument("--measure", metavar="SRC", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.measure:
        print(json.dumps(measure(args.measure)))
        return 0
    if not args.sources:
        parser.error("give at least one LABEL=SRC")
    sources = dict(item.split("=", 1) for item in args.sources)
    runs = {label: [] for label in sources}
    for _ in range(REPEATS):
        for label, src in sources.items():
            proc = subprocess.run([sys.executable, __file__, "--measure", os.path.abspath(src)],
                                  capture_output=True, text=True, check=True)
            runs[label].append(json.loads(proc.stdout))
    report = {
        "unit_of_work": "nine default 46x46 sweeps, 19,044 grid points",
        "machine": {"cpus": os.cpu_count(), "python": platform.python_version(),
                    "platform": platform.platform()},
        "repeats": REPEATS,
        "statistic": "median over repeats",
        "runs": {label: median_of(r) for label, r in runs.items()},
    }
    text = json.dumps(report, indent=1) + "\n"
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
