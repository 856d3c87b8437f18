"""The three workloads: their seeded inputs, their requests and their checks.

A workload hands out *rounds*.  Every round of a workload is the same list of
operations (setups, grid sizes, query kinds); only the seeded values inside
them change from round to round.  ``request`` is the timed call into
duotherm; ``check`` runs after the round, untimed, and returns how many of
the round's points failed and how many have a finite bound.  A point fails
when the oracle says the program's answer is wrong on a slice the program is
known to get wrong; a wrong answer anywhere else is a broken property.
"""
from __future__ import annotations

import math
from pathlib import Path

import numpy as np

import oracle

# Setups whose variance fields are symmetric under t1 <-> t2 at eta = 1.
SWAP_SYMMETRIC = ("mz1b_wc", "mz2b_wc", "mz1b_2q", "mz2b_2q", "swi2", "swi3", "swi4")
# Setups whose joint bounds are attainable (vanishing commutator residual).
ATTAINABLE = ("mz1b_wc", "mz2b_wc", "swi2", "swi3", "swi4")
# Postselected single-qubit probes carry one degree of freedom: always singular.
ALWAYS_SINGULAR = ("mz1b", "mz2b")

SWAP_TOL = 1e-8
RESIDUAL_TOL = 1e-8


class Checker:
    """Collects broken properties; bounded so a broken program cannot flood it."""

    def __init__(self) -> None:
        self.problems: list[str] = []
        self.count = 0

    def require(self, ok: bool, message: str) -> None:
        if not ok:
            self.count += 1
            if len(self.problems) < 20:
                self.problems.append(message)

    def bounds(self, where: str, var_t1: float, var_t2: float, total: float,
               q11: float, singular: bool) -> None:
        """Var_T1 >= 1/Q11 and total_var = Var_T1 + Var_T2 on finite points;
        +inf in every variance on singular ones."""
        if singular:
            self.require(math.isinf(var_t1) and math.isinf(total), f"{where}: singular but finite")
            return
        self.require(all(math.isfinite(v) for v in (var_t1, var_t2, total)),
                     f"{where}: non-singular point with a non-finite variance")
        self.require(var_t1 * q11 >= 1.0 - 1e-9, f"{where}: Var_T1 {var_t1!r} < 1/Q11")
        self.require(abs(total - (var_t1 + var_t2)) <= 1e-12 * abs(total),
                     f"{where}: total_var {total!r} != Var_T1 + Var_T2")

    def swap(self, where: str, a: float, b: float) -> None:
        self.require(abs(a - b) <= SWAP_TOL * max(1.0, abs(a)),
                     f"{where}: swap defect {abs(a - b):.3e}")


def finite_points(records) -> int:
    return sum(math.isfinite(r.total_var) for r in records)


def record_q11(r) -> float:
    """Q11 of a sweep record: Var_T2 = Q11 / det Q."""
    return r.var_t2 * r.det_qfim


def check_grid(chk: Checker, setup_id: str, records, eta_one: bool) -> None:
    """Properties of one square t1-major sweep of ``setup_id``."""
    n = math.isqrt(len(records))
    for r in records:
        where = f"{setup_id} ({r.t1!r}, {r.t2!r})"
        chk.bounds(where, r.var_t1, r.var_t2, r.total_var, record_q11(r), r.singular)
        if setup_id in ALWAYS_SINGULAR:
            chk.require(r.singular, f"{where}: expected singular")
        if setup_id == "mz2b_2q":
            chk.require(r.singular == (r.t1 == r.t2), f"{where}: singular={r.singular}")
        if setup_id in ATTAINABLE:
            chk.require(r.attain_residual < RESIDUAL_TOL, f"{where}: residual {r.attain_residual:.3e}")
        if eta_one and setup_id in oracle.ORACLE_SETUPS:
            want = oracle.switch_bounds(setup_id, r.t1, r.t2)
            chk.require(oracle.agrees(vars(r), want), f"{where}: disagrees with the oracle")
    if eta_one and setup_id in SWAP_SYMMETRIC:
        for i in range(n):
            for j in range(n):
                a, b = records[i * n + j], records[j * n + i]
                chk.require(a.singular == b.singular, f"{setup_id}: singular mask not symmetric")
                if not a.singular:
                    chk.swap(f"{setup_id} ({a.t1!r}, {a.t2!r})", a.var_t1, b.var_t2)


class FigureGrid:
    """All nine setups on the default range, with CSV/PGM files and summaries.

    A request is one setup's serial sweep plus its files: ``emit_csv``,
    ``emit_pgm_heatmap``, ``read_csv`` and ``summarize_ranges``.  A round is
    the nine setups in a seeded order.
    """

    name = "figure_grid"
    setups = "all"
    grid_n = 6
    field = "total_var"

    def __init__(self, dt, rng: np.random.Generator, out_dir: Path) -> None:
        self.dt = dt
        self.rng = rng
        self.out_dir = out_dir / self.name
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.setup_ids = dt.SETUP_IDS
        self.first: dict[str, list] = {}

    def next_round(self) -> list[str]:
        return [self.setup_ids[i] for i in self.rng.permutation(len(self.setup_ids))]

    def request(self, setup_id: str):
        dt = self.dt
        records = dt.run_sweep(dt.SweepSpec(setup_id, grid_n=self.grid_n), workers=1)
        csv = self.out_dir / f"{setup_id}.csv"
        pgm = self.out_dir / f"{setup_id}.pgm"
        dt.emit_csv(records, str(csv))
        dt.emit_pgm_heatmap(records, self.field, str(pgm))
        back = dt.read_csv(str(csv))
        (summary,) = dt.summarize_ranges({setup_id: back})
        return len(records), (records, back, summary)

    def check(self, chk: Checker, round_ids: list[str], outputs) -> tuple[int, int]:
        summaries = {}
        for setup_id, (records, back, summary) in zip(round_ids, outputs):
            summaries[setup_id] = summary
            chk.require(back == records, f"{setup_id}: read_csv(emit_csv(r)) != r")
            first = self.first.setdefault(setup_id, records)
            chk.require(records == first, f"{setup_id}: sweep differs between rounds")
            chk.require(self._white_cells(setup_id) == [r.singular for r in records],
                        f"{setup_id}: PGM white cells are not the singular cells")
            if first is records:
                check_grid(chk, setup_id, records, eta_one=True)
        worst = {s: summaries[s].max_total for s in ("swi2", "swi3", "swi4")}
        chk.require(worst["swi4"] <= worst["swi3"] < worst["swi2"],
                    f"worst-case total variance not ordered swi4 <= swi3 < swi2: {worst}")
        return 0, sum(finite_points(records) for records, _, _ in outputs)

    def _white_cells(self, setup_id: str) -> list[bool]:
        data = (self.out_dir / f"{setup_id}.pgm").read_bytes()
        n = self.grid_n
        header = f"P5\n{n} {n}\n255\n".encode("ascii")
        if not data.startswith(header) or len(data) != len(header) + n * n:
            return []
        return [p == 255 for p in data[len(header):]]


class PhaseScan:
    """``mz2b_2q`` on a finer grid at seeded arm phases, serially, no files.

    A request, and a round, is one phase's sweep.  Phases are drawn from
    [0.1, pi - 0.1], strictly inside (0, pi).
    """

    name = "phase_scan"
    setups = setup_id = "mz2b_2q"
    grid_n = 32

    def __init__(self, dt, rng: np.random.Generator, out_dir: Path) -> None:
        self.dt = dt
        self.rng = rng

    def next_round(self) -> list[float]:
        return [float(self.rng.uniform(0.1, math.pi - 0.1))]

    def request(self, phi: float):
        dt = self.dt
        records = dt.run_sweep(dt.SweepSpec(self.setup_id, grid_n=self.grid_n, phi=phi), workers=1)
        return len(records), records

    def check(self, chk: Checker, phis: list[float], outputs) -> tuple[int, int]:
        for records in outputs:
            chk.require(len(records) == self.grid_n ** 2, "short sweep")
            check_grid(chk, self.setup_id, records, eta_one=True)
        return 0, sum(finite_points(records) for records in outputs)


HOT = (20.0, 40.0)
COLD = (0.015, 0.03)
REGULAR = (0.15, 1.0)
# Regular queries keep this far from t1 = t2 and from the arm phases 0 and
# pi.  The 2-qubit and with-control probes degenerate there, and in thin
# bands around them the program breaks properties or raises now and then
# (see README.md), which would make the failed share depend on the seed.
OFF_DIAGONAL = 0.02
OFF_PHASE = 0.1
SLICE_SETUPS = ("swi2", "swi3", "swi4", "mz2b_wc")
# The slice points are a fixed cycle, the same for every seed.
SLICE_SEED = 20240322
SLICE_CYCLE = 16


def slice_points() -> dict[tuple[str, str], list[tuple[float, float]]]:
    """``SLICE_CYCLE`` (t1, t2) points per slice setup and slice."""
    rng = np.random.default_rng(SLICE_SEED)
    points = {}
    for sid in SLICE_SETUPS:
        hot = rng.uniform(*HOT, size=(SLICE_CYCLE, 2))
        cold = np.column_stack([rng.uniform(*COLD, size=SLICE_CYCLE),
                                rng.uniform(*REGULAR, size=SLICE_CYCLE)])
        points[sid, "hot"] = [(float(a), float(b)) for a, b in hot]
        points[sid, "cold"] = [(float(a), float(b)) for a, b in cold]
    return points


class PointQueries:
    """A seeded stream of single ``evaluate_bounds(make_setup(...), t1, t2)`` calls.

    One round is 44 queries in a seeded order:

    * 36 regular ones, four per setup: two at eta = 1 and two with eta drawn
      from (0.2, 1); t1, t2 uniform in [0.15, 1] at least 0.02 apart, phi
      uniform in [0.1, pi - 0.1] or [pi + 0.1, 2 pi - 0.1];
    * 8 slice ones at eta = 1 and phi = pi/2, on swi2, swi3, swi4 and
      mz2b_wc: one hot (t1, t2 in [20, 40]) and one cold (t1 in
      [0.015, 0.03], t2 in [0.15, 1]) each, taken in turn from a fixed cycle
      of 16 points that does not depend on the seed.  The program answers
      all of them wrongly today, so every run fails exactly 8 of every 44
      points.
    """

    name = "point_queries"
    setups = "all"

    def __init__(self, dt, rng: np.random.Generator, out_dir: Path) -> None:
        self.dt = dt
        self.rng = rng
        kinds = [(sid, "eta1") for sid in dt.SETUP_IDS for _ in range(2)]
        kinds += [(sid, "eta") for sid in dt.SETUP_IDS for _ in range(2)]
        kinds += [(sid, sl) for sid in SLICE_SETUPS for sl in ("hot", "cold")]
        self.kinds = kinds
        self.slices = slice_points()
        self.rounds = 0

    def next_round(self) -> list[tuple]:
        rng = self.rng
        turn = self.rounds % SLICE_CYCLE
        self.rounds += 1
        out = []
        for i in rng.permutation(len(self.kinds)):
            sid, kind = self.kinds[i]
            if kind in ("hot", "cold"):
                t1, t2 = self.slices[sid, kind][turn]
                out.append((sid, kind, math.pi / 2, 1.0, t1, t2))
                continue
            phi = float(rng.uniform(OFF_PHASE, math.pi - OFF_PHASE) + math.pi * rng.integers(2))
            eta = float(rng.uniform(0.2, 1.0)) if kind == "eta" else 1.0
            t1, t2 = rng.uniform(*REGULAR, size=2)
            while abs(t1 - t2) < OFF_DIAGONAL:
                t1, t2 = rng.uniform(*REGULAR, size=2)
            out.append((sid, kind, phi, eta, float(t1), float(t2)))
        return out

    def request(self, query):
        sid, _, phi, eta, t1, t2 = query
        dt = self.dt
        return 1, dt.evaluate_bounds(dt.make_setup(sid, phi=phi, eta=eta), t1, t2)

    def check(self, chk: Checker, queries, outputs) -> tuple[int, int]:
        dt = self.dt
        failed = finite = 0
        for (sid, kind, phi, eta, t1, t2), (info, b) in zip(queries, outputs):
            finite += math.isfinite(b.total_var)
            where = f"{sid} phi={phi!r} eta={eta!r} ({t1!r}, {t2!r})"
            got = {"var_t1": b.var_t1, "var_t2": b.var_t2, "total_var": b.total_var}
            if kind in ("hot", "cold"):
                failed += not oracle.agrees(got, oracle.switch_bounds(sid, t1, t2))
                continue
            chk.bounds(where, b.var_t1, b.var_t2, b.total_var, info.qfim[0, 0], info.singular)
            if sid in ALWAYS_SINGULAR:
                chk.require(info.singular, f"{where}: expected singular")
            if sid == "mz2b_2q":
                chk.require(not info.singular, f"{where}: singular off the diagonal")
            if sid in ATTAINABLE:
                chk.require(info.attainability_residual < RESIDUAL_TOL,
                            f"{where}: residual {info.attainability_residual:.3e}")
            if kind == "eta1" and sid in oracle.ORACLE_SETUPS:
                chk.require(oracle.agrees(got, oracle.switch_bounds(sid, t1, t2)),
                            f"{where}: disagrees with the oracle")
            if kind == "eta1" and sid in SWAP_SYMMETRIC and not info.singular:
                _, swapped = dt.evaluate_bounds(dt.make_setup(sid, phi=phi), t2, t1)
                chk.swap(where, b.var_t1, swapped.var_t2)
        return failed, finite


WORKLOADS = {w.name: w for w in (FigureGrid, PhaseScan, PointQueries)}
