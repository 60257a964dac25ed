"""Command-line front end.

Subcommands:
  bearing           generate and solve a journal-bearing instance
  solve             solve a problem bundle described by a JSON manifest
  compare-preconds  run one bearing instance per preconditioner and tabulate

Exit codes: 0 converged, 1 solver did not converge or failed, 2 bad usage or
unreadable input files.  GPCG_LOG=info or GPCG_LOG=debug turns on progress
logging on stderr; it takes no other value.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from dataclasses import fields

import numpy as np

from . import io as gio
from .bearing import BearingSpec, generate
from .model import BoundQP
from .solver import SolveOutcome, SolveStatus, SolverConfig, SolverStats, solve

log = logging.getLogger("gpcg")

STATS_FIELDS = tuple(f.name for f in fields(SolverStats) if f.name != "trace")
# Every SolverConfig field as (name, field, help), in the field order:
# --<name> with "-" for "_" is its flag, <name> the argparse dest and the
# report's config key.  compare-preconds takes --preconds for --precond.
SOLVER_FLAGS = (
    ("tau", "tol", "projected-gradient norm tolerance"),
    ("eta1", "gp_progress", "gradient-projection progress tolerance"),
    ("eta2", "cg_progress", "initial CG progress tolerance"),
    ("mu", "sufficient_decrease", "sufficient decrease constant"),
    ("max_outer", "max_outer", "outer iteration limit"),
    ("precond", "precond", "none | jacobi | bjacobi-ilu<k>, e.g. bjacobi-ilu2 "
                           "(block count: --blocks)"),
    ("blocks", "blocks", "diagonal block count for block Jacobi"),
)
CSV_HEADER = ",".join(("precond", "status") + STATS_FIELDS)


def _configure_logging():
    level_name = os.environ.get("GPCG_LOG", "").strip().lower()
    if not level_name:
        return
    if level_name not in ("info", "debug"):
        raise ValueError(f"GPCG_LOG must be info or debug, not {level_name!r}")
    if not log.handlers:  # once, however often main() runs in this process
        handler = logging.StreamHandler(sys.stderr)
        handler.setFormatter(logging.Formatter("gpcg: %(message)s"))
        log.addHandler(handler)
    log.setLevel(level_name.upper())


def _add_bearing_flags(p: argparse.ArgumentParser):
    p.add_argument("--nx", type=int, required=True)
    p.add_argument("--ny", type=int, required=True)
    p.add_argument("--eps", type=float, required=True,
                   help="eccentricity in [0, 1)")
    p.add_argument("--bdom", type=float, default=10.0,
                   help="domain half-height")


def _add_solver_flags(p: argparse.ArgumentParser, precond: bool = True):
    default = SolverConfig()
    for name, field, text in SOLVER_FLAGS:
        if name == "precond" and not precond:
            continue
        value = getattr(default, field)
        p.add_argument("--" + name.replace("_", "-"), type=type(value),
                       default=value, help=text)
    p.add_argument("--x0", default="lower",
                   help="starting point: lower | zero | a vector file path")


def _add_run_flags(p: argparse.ArgumentParser):
    p.add_argument("--trace", metavar="PATH",
                   help="write the per-iterate CSV trace here")
    p.add_argument("--out", choices=("json", "csv"), default="json",
                   help="report format on stdout")
    p.add_argument("--xout", metavar="PATH",
                   help="write the final point as a vector file")


def _config_from_args(args, precond: str) -> SolverConfig:
    values = {**vars(args), "precond": precond}
    return SolverConfig(**{field: values[name] for name, field, _ in SOLVER_FLAGS})


def _starting_point(qp: BoundQP, spec: str) -> np.ndarray:
    if spec == "lower":
        return np.where(np.isfinite(qp.l), qp.l, 0.0)
    if spec == "zero":
        return np.zeros(qp.n)
    path = spec[5:] if spec.startswith("file:") else spec
    x0 = gio.read_vector(path)
    if x0.shape[0] != qp.n:
        raise ValueError(f"starting vector has length {x0.shape[0]}, "
                         f"expected {qp.n}")
    return x0


def build_report(problem_meta: dict, cfg: SolverConfig, x0: str,
                 outcome: SolveOutcome) -> dict:
    return {
        "problem": problem_meta,
        "config": {**{name: getattr(cfg, field)
                      for name, field, _ in SOLVER_FLAGS}, "x0": x0},
        "status": outcome.status.value,
        "failure_reason": outcome.failure_reason,
        "stats": {name: getattr(outcome.stats, name) for name in STATS_FIELDS},
    }


def _csv_row(report: dict) -> str:
    return gio.csv_row((report["config"]["precond"], report["status"],
                        *report["stats"].values()))


def _finish(qp: BoundQP, problem_meta: dict, args) -> int:
    cfg = _config_from_args(args, args.precond)
    outcome = solve(qp, _starting_point(qp, args.x0), cfg)
    if args.trace:
        gio.write_trace(args.trace, outcome.stats.trace)
    if args.xout:
        gio.write_vector(args.xout, outcome.x_star)
    report = build_report(problem_meta, cfg, args.x0, outcome)
    if args.out == "json":
        print(json.dumps(report, indent=2))
    else:
        print(CSV_HEADER)
        print(_csv_row(report))
    if outcome.status is SolveStatus.CONVERGED:
        return 0
    print(f"solver did not converge: {outcome.status.value}"
          + (f" ({outcome.failure_reason})" if outcome.failure_reason else ""),
          file=sys.stderr)
    return 1


def _bearing(args) -> tuple[BoundQP, dict]:
    spec = BearingSpec(args.nx, args.ny, args.eps, args.bdom)
    meta = {"kind": "bearing", "n": spec.n, "nx": spec.nx, "ny": spec.ny,
            "eps": spec.eccentricity, "bdom": spec.b_dom}
    return generate(spec), meta


def cmd_bearing(args) -> int:
    qp, meta = _bearing(args)
    if args.dump:
        gio.save_problem(args.dump, qp, stem="bearing")
    return _finish(qp, meta, args)


def cmd_solve(args) -> int:
    try:
        qp = gio.load_problem(args.manifest)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"cannot load problem: {exc}", file=sys.stderr)
        return 2
    meta = {"kind": "file", "n": qp.n, "manifest": args.manifest}
    return _finish(qp, meta, args)


def cmd_compare_preconds(args) -> int:
    qp, meta = _bearing(args)
    x0 = _starting_point(qp, args.x0)
    preconds = [p.strip() for p in args.preconds.split(",") if p.strip()]
    if not preconds:
        print("no preconditioners given", file=sys.stderr)
        return 2
    # every entry is checked here, before the first row is printed
    configs = [_config_from_args(args, precond) for precond in preconds]
    print(CSV_HEADER)
    worst = 0
    for cfg in configs:
        outcome = solve(qp, x0, cfg)
        print(_csv_row(build_report(meta, cfg, args.x0, outcome)))
        if outcome.status is not SolveStatus.CONVERGED:
            worst = 1
    return worst


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gpcg",
        description="Bound-constrained convex QP solver (gradient projection "
                    "plus reduced-space preconditioned CG)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_bear = sub.add_parser("bearing", help="solve a journal-bearing instance")
    _add_bearing_flags(p_bear)
    p_bear.add_argument("--dump", metavar="DIR",
                        help="also write the generated problem bundle here")
    _add_solver_flags(p_bear)
    _add_run_flags(p_bear)
    p_bear.set_defaults(func=cmd_bearing)

    p_solve = sub.add_parser("solve", help="solve a problem bundle")
    p_solve.add_argument("manifest", help="path to the JSON manifest")
    _add_solver_flags(p_solve)
    _add_run_flags(p_solve)
    p_solve.set_defaults(func=cmd_solve)

    # no abbreviations: --precond would be taken for --preconds
    p_cmp = sub.add_parser("compare-preconds", allow_abbrev=False,
                           help="compare preconditioners on one instance; "
                                "CSV on stdout")
    _add_bearing_flags(p_cmp)
    p_cmp.add_argument("--preconds",
                       default="jacobi,bjacobi-ilu0,bjacobi-ilu2",
                       help="comma-separated preconditioner list")
    _add_solver_flags(p_cmp, precond=False)
    p_cmp.set_defaults(func=cmd_compare_preconds)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _configure_logging()
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
