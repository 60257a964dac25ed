"""Outer solver loop: alternate the gradient-projection phase with reduced
preconditioned CG steps, sharpening the CG progress tolerance whenever the
binding set matches the active set, until the projected-gradient norm meets
the tolerance.
"""

from __future__ import annotations

import enum
import logging
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import GPCGError, NoFreeVariables, SearchFailed
from .gradproj import gp_phase
from .linalg import dot, gather, norm2, scatter
from .model import (BoundQP, _active_mask, _binding_mask, free_set, gradient,
                    objective, project, projected_gradient)
from .precond import make_preconditioner, parse_precond
from .reduced import CGStop, build_reduced, pcg_progress

log = logging.getLogger("gpcg")


@dataclass
class SolverConfig:
    """Tolerances and limits; defaults match the benchmark settings."""
    tol: float = 1e-4                 # projected-gradient norm target
    gp_progress: float = 0.1          # decrease ratio ending the GP phase
    cg_progress: float = 0.05         # initial CG decrease ratio
    cg_progress_shrink: float = 0.1   # refinement factor on the optimal face
    cg_progress_floor: float = 1e-12
    sufficient_decrease: float = 0.1  # fraction of the linear model required
    max_outer: int = 500
    gp_cap: int = 100                 # GP iterates per phase
    precond: str = "none"
    blocks: int = 1
    warm_start_cg: bool = False
    max_refines: int = 30             # CG re-entries per outer iterate
    max_halvings: int = 50
    cg_maxiter: int | None = None     # None: the reduced dimension

    def __post_init__(self):
        if not 0.0 < self.sufficient_decrease < 0.5:
            raise ValueError("sufficient decrease constant must lie in (0, 1/2)")
        if not 0.0 < self.gp_progress < 1.0:
            raise ValueError("GP progress tolerance must lie in (0, 1)")
        if not 0.0 < self.cg_progress < 1.0:
            raise ValueError("CG progress tolerance must lie in (0, 1)")
        if not 0.0 < self.cg_progress_shrink < 1.0:
            raise ValueError("CG progress shrink factor must lie in (0, 1)")
        if self.tol <= 0.0:
            raise ValueError("convergence tolerance must be positive")
        if self.blocks < 1:
            raise ValueError("block count must be at least 1")
        parse_precond(self.precond)


class SolveStatus(enum.Enum):
    CONVERGED = "converged"
    MAX_OUTER_REACHED = "max_outer_reached"
    FAILED = "failed"


@dataclass
class TraceRecord:
    outer: int
    phase: str  # "gp", "cg", or "outer"
    q: float
    pg_norm: float
    nfree: int
    cg_iters: int
    eta2: float


@dataclass
class SolverStats:
    outer_iters: int = 0
    gp_iters_total: int = 0
    cg_iters_total: int = 0
    cg_calls: int = 0
    faces_visited: int = 0
    free_fraction_final: float = 0.0
    final_pg_norm: float = float("inf")
    objective_final: float = float("nan")
    wall_time_seconds: float = 0.0
    trace: list[TraceRecord] = field(default_factory=list)


@dataclass
class SolveOutcome:
    x_star: np.ndarray
    stats: SolverStats
    status: SolveStatus
    failure_reason: str | None = None


def projected_search_cg(qp: BoundQP, x: np.ndarray, d: np.ndarray, mu: float,
                        max_halvings: int = 50) -> tuple[np.ndarray, float]:
    """Backtrack over alpha in {1, 1/2, 1/4, ...} until the projected step
    along d satisfies the sufficient decrease test."""
    if not 0.0 < mu < 0.5:
        raise ValueError("sufficient decrease constant must lie in (0, 1/2)")
    g = gradient(qp, x)
    q_x = objective(qp, x)
    alpha = 1.0
    for _ in range(max_halvings + 1):
        x_trial = project(qp, x + alpha * d)
        if objective(qp, x_trial) <= q_x + mu * dot(g, x_trial - x):
            return x_trial, alpha
        alpha *= 0.5
    raise SearchFailed(f"no acceptable step within {max_halvings} halvings")


def _free_count(qp: BoundQP, x: np.ndarray) -> int:
    return int((~_active_mask(qp, x)).sum())


def solve(qp: BoundQP, x0: np.ndarray, cfg: SolverConfig | None = None) -> SolveOutcome:
    """Minimize the bound-constrained quadratic starting from x0 (projected
    onto the box first)."""
    if cfg is None:
        cfg = SolverConfig()
    start = time.perf_counter()
    stats = SolverStats()
    precond_spec = parse_precond(cfg.precond)
    n = qp.n
    x = project(qp, x0)
    g = gradient(qp, x)
    pg_norm = norm2(projected_gradient(qp, x, g))
    faces: set[bytes] = set()
    status = SolveStatus.MAX_OUTER_REACHED
    reason = None
    if pg_norm <= cfg.tol:
        status = SolveStatus.CONVERGED
    else:
        try:
            for outer in range(1, cfg.max_outer + 1):
                stats.outer_iters = outer
                converged_now = False
                eta2 = cfg.cg_progress
                outer_cg_iters = 0
                try:
                    gp = gp_phase(qp, x, cfg.gp_progress,
                                  cfg.sufficient_decrease, cfg.tol,
                                  cfg.gp_cap, cfg.max_halvings)
                    x = gp.x_out
                    g = gradient(qp, x)
                    stats.gp_iters_total += gp.iterates_taken
                    for rec in gp.records:
                        stats.trace.append(TraceRecord(
                            outer, "gp", rec.q, rec.pg_norm,
                            n - rec.n_active, 0, eta2))
                    pg_norm = norm2(projected_gradient(qp, x, g))
                    log.info("outer %d: gp took %d iterates (%s), pg_norm=%.3e",
                             outer, gp.iterates_taken, gp.termination.value,
                             pg_norm)
                    if pg_norm <= cfg.tol:
                        converged_now = True
                    refines = 0
                    last_d = None
                    last_alpha = 1.0
                    while not converged_now:
                        free = free_set(qp, x)
                        if len(free) == 0:
                            raise NoFreeVariables(
                                "degenerate iterate: every variable is on a "
                                "bound but the projected gradient is above "
                                "the tolerance")
                        sys = build_reduced(qp, x, g, free)
                        P = make_preconditioner(sys.A_k, precond_spec,
                                                cfg.blocks)
                        if cfg.warm_start_cg and refines > 0 and last_d is not None:
                            w0 = (1.0 - last_alpha) * gather(last_d, free)
                        else:
                            w0 = np.zeros(sys.m)
                        cg = pcg_progress(sys, P, w0, eta2, cfg.cg_maxiter)
                        stats.cg_iters_total += cg.iterations
                        outer_cg_iters += cg.iterations
                        stats.cg_calls += 1
                        if cg.termination is CGStop.BREAKDOWN:
                            stats.trace.append(TraceRecord(
                                outer, "cg", objective(qp, x), pg_norm,
                                sys.m, cg.iterations, eta2))
                            raise GPCGError(f"CG breakdown: the {cg.breakdown} "
                                            "is not positive definite")
                        d = scatter(cg.w, free, np.zeros(n))
                        try:
                            x, alpha = projected_search_cg(
                                qp, x, d, cfg.sufficient_decrease,
                                cfg.max_halvings)
                        except SearchFailed:
                            stats.trace.append(TraceRecord(
                                outer, "cg", objective(qp, x), pg_norm,
                                sys.m, cg.iterations, eta2))
                            raise
                        g = gradient(qp, x)
                        pg_norm = norm2(projected_gradient(qp, x, g))
                        stats.trace.append(TraceRecord(
                            outer, "cg", objective(qp, x), pg_norm,
                            sys.m, cg.iterations, eta2))
                        log.debug("outer %d: cg %d iters (%s), step %.3g, "
                                  "pg_norm=%.3e, eta2=%.2e", outer,
                                  cg.iterations, cg.termination.value, alpha,
                                  pg_norm, eta2)
                        last_d, last_alpha = d, alpha
                        if pg_norm <= cfg.tol:
                            converged_now = True
                            break
                        if not np.array_equal(_binding_mask(qp, x, g),
                                              _active_mask(qp, x)):
                            break  # face not yet optimal: back to a GP phase
                        if (eta2 <= cfg.cg_progress_floor
                                or refines >= cfg.max_refines):
                            break
                        eta2 = max(eta2 * cfg.cg_progress_shrink,
                                   cfg.cg_progress_floor)
                        refines += 1
                finally:
                    faces.add(_active_mask(qp, x).tobytes())
                    stats.trace.append(TraceRecord(
                        outer, "outer", objective(qp, x), pg_norm,
                        _free_count(qp, x), outer_cg_iters, eta2))
                if converged_now:
                    status = SolveStatus.CONVERGED
                    break
        except GPCGError as exc:
            status = SolveStatus.FAILED
            reason = f"{type(exc).__name__}: {exc}"
            log.info("solve failed: %s", reason)

    stats.faces_visited = len(faces)
    stats.free_fraction_final = _free_count(qp, x) / n if n else 0.0
    stats.final_pg_norm = norm2(projected_gradient(qp, x, gradient(qp, x)))
    stats.objective_final = objective(qp, x)
    stats.wall_time_seconds = time.perf_counter() - start
    return SolveOutcome(x, stats, status, reason)
