"""Temperature-grid sweeps with CSV and PGM emitters.

A sweep evaluates one estimation setup on a square (t1, t2) grid and collects
per-point bounds into flat records.  The setup is compiled once per sweep,
and the grid is cut into blocks of whole rows, as many rows as fit a budget
of _BLOCK_POINTS points and at least one.  A block is one task and one
stacked evaluation of the compiled setup: its states, with their stencil
neighbours, come from one feature contraction and go through one validating
eigendecomposition, so memory stays bounded by the block budget (five states
per point), whatever the grid size.  Records are
ordered t1-major (row-major), equal bit for bit to single-point
``evaluate_bounds`` results, and the evaluation is deterministic for a fixed
spec regardless of how many worker processes are used, so emitted CSV files
are byte-identical across runs and worker counts.
"""
from __future__ import annotations

import math
import numbers
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields

import numpy as np

from .errors import ConfigurationError, DuothermError, ValidationError
from .channels import BETA_CONVENTIONS
from .estimation import DerivativeConfig, evaluate_bounds
from .setups import (SETUP_IDS, SetupEvaluator, check_setup_id, effective_dimension,
                     make_setup)

CSV_HEADER = "t1,t2,var_t1,var_t2,cov,total_var,det_qfim,attain_residual,singular"

#: Numeric record fields that can be rendered as a heatmap.
HEATMAP_FIELDS = ("var_t1", "var_t2", "cov", "total_var", "det_qfim", "attain_residual")

#: Reserved pixel for singular / infinite cells; finite data spans 0..254.
PGM_WHITE = 255
PGM_MAXVAL = 255

# Grid points per sweep task: a block of whole rows is one stacked
# evaluation.  Larger blocks spread the fixed costs of a stacked call
# further, smaller ones keep the stacks in cache and the peak memory low.
# On a 2-CPU machine 128, 192 and 256 points ran 32x32 mz2b_2q sweeps and
# the nine default sweeps within 10% of each other, 192 the nine fastest;
# 384 points and more were slower.
_BLOCK_POINTS = 192


@dataclass(frozen=True)
class SweepSpec:
    """Plan for one grid sweep of a single setup."""

    setup_id: str
    t_min: float = 0.1
    t_max: float = 1.0
    grid_n: int = 46
    phi: float = math.pi / 2
    eta: float = 1.0
    beta_convention: str = "natural"
    step: float = 1e-5

    def __post_init__(self) -> None:
        check_setup_id(self.setup_id)
        for name in ("t_min", "t_max", "phi", "eta", "step"):
            value = getattr(self, name)
            if (isinstance(value, bool) or not isinstance(value, numbers.Real)
                    or not math.isfinite(value)):
                raise ConfigurationError(f"{name} must be a finite real number, got {value!r}")
        if isinstance(self.grid_n, bool) or not isinstance(self.grid_n, numbers.Integral):
            raise ConfigurationError(f"grid_n must be an integer, got {self.grid_n!r}")
        if not (0.0 < self.t_min < self.t_max):
            raise ConfigurationError(
                f"need 0 < t_min < t_max, got ({self.t_min!r}, {self.t_max!r})"
            )
        if self.grid_n < 2:
            raise ConfigurationError(f"grid_n must be at least 2, got {self.grid_n!r}")
        if not 0.0 <= self.eta <= 1.0:
            raise ConfigurationError(f"eta must lie in [0, 1], got {self.eta!r}")
        if self.beta_convention not in BETA_CONVENTIONS:
            raise ConfigurationError(f"unknown beta convention {self.beta_convention!r}")
        if not self.step > 0:
            raise ConfigurationError(f"derivative step must be positive, got {self.step!r}")

    def grid(self) -> np.ndarray:
        return np.linspace(self.t_min, self.t_max, self.grid_n)


@dataclass(frozen=True)
class SweepRecord:
    """Bounds at one grid point; variances are +inf where the QFIM is singular."""

    t1: float
    t2: float
    var_t1: float
    var_t2: float
    cov: float
    total_var: float
    det_qfim: float
    attain_residual: float
    singular: bool


@dataclass(frozen=True)
class RangeSummary:
    """Min/max of the finite grid values for one setup (the comparison bars)."""

    setup_id: str
    min_var: float
    max_var: float
    min_total: float
    max_total: float
    effective_dimension: int
    empty: bool = False


def _block_rows(grid_n: int) -> int:
    """Grid rows per block: as many as fit the point budget, at least one."""
    return max(1, _BLOCK_POINTS // grid_n)


def _sweep_block(task: tuple[SweepSpec, SetupEvaluator, int, int]) -> list[SweepRecord]:
    """Records of the grid rows start..stop-1, t1-major, from one stacked
    evaluation."""
    spec, setup, start, stop = task
    grid = spec.grid()
    cfg = DerivativeConfig(step=spec.step)
    t1s = np.repeat(grid[start:stop], grid.size)
    t2s = np.tile(grid, stop - start)
    try:
        info, bounds = evaluate_bounds(setup, t1s, t2s, cfg)
    except ConfigurationError:
        # an input the spec let through, such as a grid temperature within
        # one derivative step of zero: the error names it already
        raise
    except Exception as block_exc:
        # The block failed as one stack; name its first failing point.
        for t1, t2 in zip(t1s.tolist(), t2s.tolist()):
            try:
                evaluate_bounds(setup, t1, t2, cfg)
            except Exception as exc:
                raise DuothermError(
                    f"sweep of {spec.setup_id!r} failed at grid point "
                    f"(t1={t1!r}, t2={t2!r}): {exc}"
                ) from exc
        raise DuothermError(
            f"sweep of {spec.setup_id!r} failed on the rows "
            f"t1={float(grid[start])!r}..{float(grid[stop - 1])!r}: {block_exc}"
        ) from block_exc
    columns = (t1s, t2s, bounds.var_t1, bounds.var_t2, bounds.cov, bounds.total_var,
               info.determinant, info.attainability_residual, info.singular)
    return [SweepRecord(*values) for values in zip(*(c.tolist() for c in columns))]


def resolve_workers(requested: int | None) -> int:
    """Worker count, at most one per CPU, after applying the DUOTHERM_THREADS
    cap (0 or None means one per CPU)."""
    auto = os.cpu_count() or 1
    count = auto if requested is None else requested
    if count < 0:
        raise ConfigurationError(f"worker count must be >= 0, got {requested!r}")
    count = min(count or auto, auto)
    env = os.environ.get("DUOTHERM_THREADS")
    if env is not None:
        try:
            cap = int(env)
        except ValueError as exc:
            raise ConfigurationError(f"DUOTHERM_THREADS must be an integer, got {env!r}") from exc
        if cap < 0:
            raise ConfigurationError(f"DUOTHERM_THREADS must be >= 0, got {env!r}")
        if cap == 0:
            cap = auto
        count = min(count, cap)
    return max(1, count)


def run_sweep(spec: SweepSpec, workers: int | None = 1) -> list[SweepRecord]:
    """Evaluate the grid; t1-major order, deterministic for any worker count."""
    count = resolve_workers(workers)
    # One compiled evaluator serves every block, in this process or pickled
    # with the blocks' tasks.
    setup = make_setup(spec.setup_id, phi=spec.phi, eta=spec.eta,
                       beta_convention=spec.beta_convention)
    rows = _block_rows(spec.grid_n)
    tasks = [(spec, setup, start, min(start + rows, spec.grid_n))
             for start in range(0, spec.grid_n, rows)]
    if count == 1:
        blocks = [_sweep_block(task) for task in tasks]
    else:
        with ProcessPoolExecutor(max_workers=min(count, len(tasks))) as pool:
            blocks = list(pool.map(_sweep_block, tasks))
    return [record for block in blocks for record in block]


def summarize_ranges(records_by_setup: dict[str, list[SweepRecord]]) -> list[RangeSummary]:
    """Per-setup min/max of finite var_t1 and total_var values."""
    out = []
    for setup_id, records in records_by_setup.items():
        check_setup_id(setup_id)
        vars_t1 = [r.var_t1 for r in records if math.isfinite(r.var_t1)]
        totals = [r.total_var for r in records if math.isfinite(r.total_var)]
        dim = effective_dimension(setup_id)
        if not vars_t1 or not totals:
            out.append(RangeSummary(setup_id, math.nan, math.nan, math.nan, math.nan,
                                    dim, empty=True))
            continue
        out.append(RangeSummary(setup_id, min(vars_t1), max(vars_t1),
                                min(totals), max(totals), dim))
    return out


def _format_value(value) -> str:
    if isinstance(value, bool):
        return str(value)
    return repr(float(value))


def emit_csv(records: list[SweepRecord], path: str) -> None:
    """Write records in shortest round-trip decimal form; +inf as ``inf``."""
    names = [f.name for f in fields(SweepRecord)]
    lines = [CSV_HEADER]
    for record in records:
        lines.append(",".join(_format_value(getattr(record, name)) for name in names))
    with open(path, "w", newline="") as handle:
        handle.write("\n".join(lines) + "\n")


def read_csv(path: str) -> list[SweepRecord]:
    """Parse a file written by emit_csv back into records (exact round trip)."""
    with open(path, "r", newline="") as handle:
        lines = handle.read().splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise ValidationError(f"{path}: missing or mismatched CSV header")
    out = []
    for line in lines[1:]:
        parts = line.split(",")
        if len(parts) != 9:
            raise ValidationError(f"{path}: expected 9 columns, got {len(parts)}")
        if parts[8] not in ("True", "False"):
            raise ValidationError(f"{path}: invalid singular flag {parts[8]!r}")
        out.append(SweepRecord(
            t1=float(parts[0]), t2=float(parts[1]), var_t1=float(parts[2]),
            var_t2=float(parts[3]), cov=float(parts[4]), total_var=float(parts[5]),
            det_qfim=float(parts[6]), attain_residual=float(parts[7]),
            singular=parts[8] == "True",
        ))
    return out


def records_to_grid(records: list[SweepRecord], field: str) -> np.ndarray:
    """Reshape t1-major records into an (n, n) array of one numeric field.

    Rows index t1, columns index t2.  Validates that the records really form
    a rectangular t1-major grid.
    """
    if field not in HEATMAP_FIELDS:
        raise ConfigurationError(
            f"unknown heatmap field {field!r}; choose one of {HEATMAP_FIELDS}"
        )
    n = math.isqrt(len(records))
    if n < 1 or n * n != len(records):
        raise ValidationError(f"record count {len(records)} is not a square grid")
    t1s = np.array([r.t1 for r in records]).reshape(n, n)
    t2s = np.array([r.t2 for r in records]).reshape(n, n)
    if not (np.ptp(t1s, axis=1) == 0).all() or not (t2s == t2s[0]).all():
        raise ValidationError("records are not a rectangular t1-major grid")
    values = np.array([getattr(r, field) for r in records], dtype=float)
    return values.reshape(n, n)


def emit_pgm_heatmap(records: list[SweepRecord], field: str, path: str) -> None:
    """Render one record field as a binary 8-bit PGM (P5) heatmap.

    Finite values are min-max normalized onto 0..254; singular or infinite
    cells render as 255 (white).  A constant field maps to all zeros.
    """
    grid = records_to_grid(records, field)
    n = grid.shape[0]
    singular = np.array([r.singular for r in records]).reshape(n, n)
    white = singular | ~np.isfinite(grid)
    pixels = np.zeros((n, n), dtype=np.uint8)
    finite = grid[~white]
    if finite.size:
        lo, hi = finite.min(), finite.max()
        if hi > lo:
            scaled = np.clip((grid - lo) / (hi - lo), 0.0, 1.0) * 254.0
            with np.errstate(invalid="ignore"):
                pixels = np.where(white, 0, np.rint(np.nan_to_num(scaled))).astype(np.uint8)
    pixels[white] = PGM_WHITE
    header = f"P5\n{n} {n}\n{PGM_MAXVAL}\n".encode("ascii")
    with open(path, "wb") as handle:
        handle.write(header + pixels.tobytes())


__all__ = [
    "CSV_HEADER",
    "HEATMAP_FIELDS",
    "RangeSummary",
    "SweepRecord",
    "SweepSpec",
    "emit_csv",
    "emit_pgm_heatmap",
    "read_csv",
    "records_to_grid",
    "resolve_workers",
    "run_sweep",
    "summarize_ranges",
]
