"""Command-line front end: grid sweeps, point bounds, setup comparison, self-checks.

Exit codes: 0 success, 1 validation/check failure, 2 configuration error
(including argparse rejections), 3 I/O error.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict

from .errors import ConfigurationError, DuothermError
from .estimation import DerivativeConfig, evaluate_bounds
from .setups import SETUP_IDS, make_setup
from .sweep import (HEATMAP_FIELDS, SweepSpec, emit_csv, emit_pgm_heatmap, run_sweep,
                    summarize_ranges)
from .validate import CHECKS, as_report, run_checks

_SPEC_KEYS = ("setup_id", "t_min", "t_max", "grid_n", "phi", "eta", "beta_convention", "step")

# Headline orderings of the comparison: more switched levels should shrink the
# worst-case total variance, and the best single-temperature variance among
# the probes built from one qubit.
_SWITCH_CHAIN = ("swi4", "swi3", "swi2")
_QUBIT_PROBES = ("mz1b_wc", "mz1b_2q", "mz2b_wc", "mz2b_2q", "swi2")


def _add_sweep_flags(parser: argparse.ArgumentParser, with_setup: bool = True) -> None:
    if with_setup:
        parser.add_argument("--setup", choices=SETUP_IDS, help="setup identifier")
    parser.add_argument("--tmin", type=float, help="grid lower temperature (default 0.1)")
    parser.add_argument("--tmax", type=float, help="grid upper temperature (default 1.0)")
    parser.add_argument("--grid", type=int, help="grid points per axis (default 46)")
    parser.add_argument("--phi", type=float, help="interferometer phase (default pi/2)")
    parser.add_argument("--eta", type=float, help="thermalization strength (default 1.0)")
    parser.add_argument("--beta-convention", choices=("natural", "log2"),
                        help="Gibbs weight convention (default natural)")
    parser.add_argument("--step", type=float, help="finite-difference step (default 1e-5)")
    parser.add_argument("--config", help="JSON file with sweep fields; flags override")
    parser.add_argument("--workers", type=int, default=1,
                        help="worker processes (default 1; 0 means one per CPU); at most "
                             "one per CPU, capped by DUOTHERM_THREADS")


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    with open(path) as handle:
        data = json.load(handle)
    if not isinstance(data, dict):
        raise ConfigurationError(f"{path}: config must be a JSON object")
    unknown = sorted(set(data) - set(_SPEC_KEYS))
    if unknown:
        raise ConfigurationError(f"{path}: unknown config keys {unknown}")
    return data


def _build_spec(args: argparse.Namespace, setup_id: str | None = None) -> SweepSpec:
    config = _load_config(getattr(args, "config", None))
    merged = dict(config)
    overrides = {
        "setup_id": setup_id if setup_id is not None else args.setup,
        "t_min": args.tmin, "t_max": args.tmax, "grid_n": args.grid,
        "phi": args.phi, "eta": args.eta,
        "beta_convention": args.beta_convention, "step": args.step,
    }
    for key, value in overrides.items():
        if value is not None:
            merged[key] = value
    if "setup_id" not in merged:
        raise ConfigurationError("no setup selected: pass --setup or put setup_id in --config")
    return SweepSpec(**merged)


def _cmd_sweep(args: argparse.Namespace) -> int:
    spec = _build_spec(args)
    records = run_sweep(spec, workers=args.workers)
    wrote = []
    if args.format in ("csv", "both"):
        path = args.out if args.format == "csv" else args.out + ".csv"
        emit_csv(records, path)
        wrote.append(path)
    if args.format in ("pgm", "both"):
        path = args.out if args.format == "pgm" else args.out + ".pgm"
        emit_pgm_heatmap(records, args.field, path)
        wrote.append(path)
    singular = sum(r.singular for r in records)
    print(f"{spec.setup_id}: {len(records)} points "
          f"({singular} singular) -> {', '.join(wrote)}")
    return 0


def _cmd_bounds(args: argparse.Namespace) -> int:
    setup = make_setup(args.setup, phi=args.phi, eta=args.eta,
                       beta_convention=args.beta_convention)
    cfg = DerivativeConfig(step=args.step)
    info, bounds = evaluate_bounds(setup, args.t1, args.t2, cfg,
                                   repetitions=args.repetitions)
    payload = {
        "setup_id": args.setup, "t1": args.t1, "t2": args.t2,
        "var_t1": bounds.var_t1, "var_t2": bounds.var_t2, "cov": bounds.cov,
        "total_var": bounds.total_var, "det_qfim": info.determinant,
        "attain_residual": info.attainability_residual, "singular": info.singular,
        "repetitions": args.repetitions,
    }
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        for key, value in payload.items():
            print(f"{key}: {value}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    if args.setups is None:
        ids = list(SETUP_IDS)
    else:
        ids = [token.strip() for token in args.setups.split(",") if token.strip()]
    by_setup = {}
    for setup_id in ids:
        spec = _build_spec(args, setup_id=setup_id)
        by_setup[setup_id] = run_sweep(spec, workers=args.workers)
    summaries = summarize_ranges(by_setup)
    if args.json or args.out:
        payload = [asdict(s) for s in summaries]
        text = json.dumps(payload, indent=2)
        if args.out:
            with open(args.out, "w") as handle:
                handle.write(text + "\n")
        if args.json:
            print(text)
    if not args.json:
        header = f"{'setup':10s} {'dim':>4s} {'min_var':>10s} {'max_var':>10s} {'min_total':>10s} {'max_total':>10s}"
        print(header)
        for s in summaries:
            if s.empty:
                print(f"{s.setup_id:10s} {s.effective_dimension:4d} {'(all grid points singular)':>43s}")
            else:
                print(f"{s.setup_id:10s} {s.effective_dimension:4d} {s.min_var:10.4f} "
                      f"{s.max_var:10.4f} {s.min_total:10.4f} {s.max_total:10.4f}")
        for line in _headlines(summaries):
            print(line)
    return 0


def _headlines(summaries) -> list[str]:
    """Headline lines for the setups in the run that are not all-singular."""
    finite = {s.setup_id: s for s in summaries if not s.empty}
    lines = []
    if all(setup_id in finite for setup_id in _SWITCH_CHAIN):
        chain = [finite[setup_id] for setup_id in _SWITCH_CHAIN]
        text = f"{chain[0].setup_id} {chain[0].max_total:.4f}"
        for lower, upper in zip(chain, chain[1:]):
            relation = "<=" if lower.max_total <= upper.max_total else ">"
            text += f" {relation} {upper.setup_id} {upper.max_total:.4f}"
        lines.append(f"switch worst-case totals: {text}")
    probes = [finite[setup_id] for setup_id in _QUBIT_PROBES if setup_id in finite]
    if probes:
        best = min(probes, key=lambda s: s.min_var)
        lines.append(f"best qubit-probe variance: {best.setup_id} reaches "
                     f"min_var {best.min_var:.4f}")
    return lines


def _cmd_validate(args: argparse.Namespace) -> int:
    names = None
    if args.checks is not None:
        names = [token.strip() for token in args.checks.split(",") if token.strip()]
    results = run_checks(names=names, seed=args.seed, inject_defect=args.inject_defect)
    report = as_report(results)
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        for entry in report["checks"]:
            flag = "PASS" if entry["passed"] else "FAIL"
            detail = f"  {entry['detail']}" if entry["detail"] else ""
            print(f"{flag} {entry['name']:28s} {entry['seconds']*1000:8.1f} ms{detail}")
    return 0 if report["passed"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="duotherm",
        description="Two-temperature estimation bounds for interferometer and "
                    "switch thermometer setups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sweep = sub.add_parser("sweep", help="evaluate a setup on a temperature grid")
    _add_sweep_flags(p_sweep)
    p_sweep.add_argument("--out", required=True, help="output path")
    p_sweep.add_argument("--format", choices=("csv", "pgm", "both"), default="csv")
    p_sweep.add_argument("--field", choices=HEATMAP_FIELDS, default="var_t1",
                         help="record field rendered by the PGM heatmap")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_bounds = sub.add_parser("bounds", help="bounds at a single temperature pair")
    p_bounds.add_argument("--setup", choices=SETUP_IDS, required=True)
    p_bounds.add_argument("--t1", type=float, required=True)
    p_bounds.add_argument("--t2", type=float, required=True)
    p_bounds.add_argument("--phi", type=float, default=math.pi / 2)
    p_bounds.add_argument("--eta", type=float, default=1.0)
    p_bounds.add_argument("--beta-convention", choices=("natural", "log2"), default="natural")
    p_bounds.add_argument("--step", type=float, default=1e-5)
    p_bounds.add_argument("--repetitions", type=int, default=1)
    p_bounds.add_argument("--json", action="store_true")
    p_bounds.set_defaults(func=_cmd_bounds)

    p_compare = sub.add_parser("compare", help="variance ranges across setups")
    _add_sweep_flags(p_compare, with_setup=False)
    p_compare.add_argument("--setups", help="comma-separated ids (default: all)")
    p_compare.add_argument("--out", help="optional JSON output path")
    p_compare.add_argument("--json", action="store_true")
    p_compare.set_defaults(func=_cmd_compare)

    p_validate = sub.add_parser("validate", help="run the named invariant checks")
    p_validate.add_argument("--checks", help=f"comma-separated names (default: all "
                                             f"{len(CHECKS)})")
    p_validate.add_argument("--seed", type=int, default=0)
    p_validate.add_argument("--json", action="store_true")
    p_validate.add_argument("--inject-defect", help=argparse.SUPPRESS)
    p_validate.set_defaults(func=_cmd_validate)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except DuothermError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
