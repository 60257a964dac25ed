"""Command-line front end.

Subcommands:
  bearing           generate and solve a journal-bearing instance
  solve             solve a problem bundle described by a JSON manifest
  compare-preconds  run one bearing instance per preconditioner and tabulate

Exit codes: 0 converged, 1 solver did not converge or failed, 2 bad usage or
unreadable input files.  Set GPCG_LOG=info or GPCG_LOG=debug for progress
logging on stderr.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys

import numpy as np

from . import io as gio
from .bearing import BearingSpec, generate
from .model import BoundQP
from .solver import SolveOutcome, SolveStatus, SolverConfig, solve

log = logging.getLogger("gpcg")


def _configure_logging():
    level_name = os.environ.get("GPCG_LOG", "").strip().lower()
    if not level_name:
        return
    levels = {"debug": logging.DEBUG, "info": logging.INFO,
              "warning": logging.WARNING, "1": logging.INFO,
              "2": logging.DEBUG}
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("gpcg: %(message)s"))
    log.addHandler(handler)
    log.setLevel(levels.get(level_name, logging.INFO))


def _add_solver_flags(p: argparse.ArgumentParser):
    default = SolverConfig()
    p.add_argument("--tau", type=float, default=default.tol,
                   help="projected-gradient norm tolerance")
    p.add_argument("--eta1", type=float, default=default.gp_progress,
                   help="gradient-projection progress tolerance")
    p.add_argument("--eta2", type=float, default=default.cg_progress,
                   help="initial CG progress tolerance")
    p.add_argument("--mu", type=float, default=default.sufficient_decrease,
                   help="sufficient decrease constant")
    p.add_argument("--precond", default=default.precond,
                   help="none | jacobi | bjacobi-ilu<k>, e.g. bjacobi-ilu2 "
                        "(block count: --blocks)")
    p.add_argument("--blocks", type=int, default=default.blocks,
                   help="diagonal block count for block Jacobi")
    p.add_argument("--max-outer", type=int, default=default.max_outer)
    p.add_argument("--x0", default="lower",
                   help="starting point: lower | zero | a vector file path")
    p.add_argument("--trace", metavar="PATH",
                   help="write the per-iterate CSV trace here")
    p.add_argument("--out", choices=("json", "csv"), default="json",
                   help="report format on stdout")
    p.add_argument("--xout", metavar="PATH",
                   help="write the final point as a vector file")


def _config_from_args(args) -> SolverConfig:
    return SolverConfig(tol=args.tau, gp_progress=args.eta1,
                        cg_progress=args.eta2,
                        sufficient_decrease=args.mu, precond=args.precond,
                        blocks=args.blocks, max_outer=args.max_outer)


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


def _stats_dict(outcome: SolveOutcome) -> dict:
    s = outcome.stats
    return {
        "outer_iters": s.outer_iters,
        "gp_iters_total": s.gp_iters_total,
        "cg_iters_total": s.cg_iters_total,
        "cg_calls": s.cg_calls,
        "faces_visited": s.faces_visited,
        "free_fraction_final": s.free_fraction_final,
        "final_pg_norm": s.final_pg_norm,
        "objective_final": s.objective_final,
        "wall_time_seconds": s.wall_time_seconds,
    }


def build_report(problem_meta: dict, args, outcome: SolveOutcome) -> dict:
    return {
        "problem": problem_meta,
        "config": {"tau": args.tau, "eta1": args.eta1, "eta2": args.eta2,
                   "mu": args.mu, "precond": args.precond,
                   "blocks": args.blocks, "x0": args.x0},
        "status": outcome.status.value,
        "failure_reason": outcome.failure_reason,
        "stats": _stats_dict(outcome),
    }


_CSV_FIELDS = ("status", "outer_iters", "gp_iters_total", "cg_iters_total",
               "cg_calls", "faces_visited", "free_fraction_final",
               "final_pg_norm", "objective_final", "wall_time_seconds")


def _report_csv_row(report: dict) -> str:
    row = {"precond": report["config"]["precond"],
           "status": report["status"], **report["stats"]}
    return ",".join(repr(row[f]) if isinstance(row[f], float) else str(row[f])
                    for f in ("precond",) + _CSV_FIELDS)


def _emit_report(report: dict, args) -> None:
    if args.out == "json":
        print(json.dumps(report, indent=2))
    else:
        print("precond," + ",".join(_CSV_FIELDS))
        print(_report_csv_row(report))


def _finish(qp: BoundQP, problem_meta: dict, args) -> int:
    cfg = _config_from_args(args)
    x0 = _starting_point(qp, args.x0)
    outcome = solve(qp, x0, cfg)
    if args.trace:
        gio.write_trace(args.trace, outcome.stats.trace)
    if args.xout:
        gio.write_vector(args.xout, outcome.x_star)
    _emit_report(build_report(problem_meta, args, outcome), args)
    if outcome.status is SolveStatus.CONVERGED:
        return 0
    print(f"solver did not converge: {outcome.status.value}"
          + (f" ({outcome.failure_reason})" if outcome.failure_reason else ""),
          file=sys.stderr)
    return 1


def cmd_bearing(args) -> int:
    spec = BearingSpec(args.nx, args.ny, args.eps, args.bdom)
    qp = generate(spec)
    if args.dump:
        gio.save_problem(args.dump, qp, stem="bearing")
    meta = {"kind": "bearing", "n": spec.n, "nx": spec.nx, "ny": spec.ny,
            "eps": spec.eccentricity, "bdom": spec.b_dom}
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
    spec = BearingSpec(args.nx, args.ny, args.eps, args.bdom)
    qp = generate(spec)
    x0 = _starting_point(qp, args.x0)
    preconds = [p.strip() for p in args.preconds.split(",") if p.strip()]
    if not preconds:
        print("no preconditioners given", file=sys.stderr)
        return 2
    print("precond," + ",".join(_CSV_FIELDS))
    worst = 0
    for precond in preconds:
        run_args = argparse.Namespace(**vars(args))
        run_args.precond = precond
        cfg = _config_from_args(run_args)
        outcome = solve(qp, x0, cfg)
        meta = {"kind": "bearing", "n": spec.n, "nx": spec.nx, "ny": spec.ny,
                "eps": spec.eccentricity, "bdom": spec.b_dom}
        print(_report_csv_row(build_report(meta, run_args, outcome)))
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
    p_bear.add_argument("--nx", type=int, required=True)
    p_bear.add_argument("--ny", type=int, required=True)
    p_bear.add_argument("--eps", type=float, required=True,
                        help="eccentricity in [0, 1)")
    p_bear.add_argument("--bdom", type=float, default=10.0,
                        help="domain half-height")
    p_bear.add_argument("--dump", metavar="DIR",
                        help="also write the generated problem bundle here")
    _add_solver_flags(p_bear)
    p_bear.set_defaults(func=cmd_bearing)

    p_solve = sub.add_parser("solve", help="solve a problem bundle")
    p_solve.add_argument("manifest", help="path to the JSON manifest")
    _add_solver_flags(p_solve)
    p_solve.set_defaults(func=cmd_solve)

    p_cmp = sub.add_parser("compare-preconds",
                           help="compare preconditioners on one instance")
    p_cmp.add_argument("--nx", type=int, required=True)
    p_cmp.add_argument("--ny", type=int, required=True)
    p_cmp.add_argument("--eps", type=float, required=True)
    p_cmp.add_argument("--bdom", type=float, default=10.0)
    p_cmp.add_argument("--preconds",
                       default="jacobi,bjacobi-ilu0,bjacobi-ilu2",
                       help="comma-separated preconditioner list")
    _add_solver_flags(p_cmp)
    p_cmp.set_defaults(func=cmd_compare_preconds)
    return parser


def main(argv=None) -> int:
    _configure_logging()
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
