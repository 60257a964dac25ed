"""Outer solver loop: alternate the gradient-projection phase with reduced
preconditioned CG steps, sharpening the CG progress tolerance whenever the
binding set matches the active set, until the projected-gradient norm meets
the tolerance.
"""

from __future__ import annotations

import enum
import logging
import operator
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import GPCGError
from .gradproj import Iterate, gp_phase, projected_search_cg
# gradient is made in gradproj's Iterate, but stays a name of this module:
# perfbench's tracer test reads gpcg.solver.gradient
from .model import BoundQP, gradient, project  # noqa: F401
from .precond import FaceRule, parse_precond
from .reduced import CGStop, ReducedSystem, build_reduced, pcg_progress

log = logging.getLogger("gpcg")

CG_PROGRESS_SHRINK = 0.1    # refinement factor of eta2 on the optimal face
CG_PROGRESS_FLOOR = 1e-12   # smallest eta2, reached within 13 refinements


@dataclass
class SolverConfig:
    """The solver's settings; defaults match the benchmark settings.  GP and
    CG steps share one search, ``gradproj.projected_search``.  The other
    limits are fixed: ``gradproj.GP_CAP`` iterates per GP phase,
    ``gradproj.MAX_HALVINGS`` halvings per search, and as many CG
    iterations as the reduced dimension."""
    tol: float = 1e-4                 # projected-gradient norm target
    gp_progress: float = 0.1          # decrease ratio ending the GP phase
    cg_progress: float = 0.05         # initial CG decrease ratio
    sufficient_decrease: float = 0.1  # fraction of the linear model required
    max_outer: int = 500
    precond: str = "none"
    blocks: int = 1                   # diagonal blocks of block Jacobi

    def __post_init__(self):
        if not isinstance(self.precond, str):
            raise ValueError("preconditioner must be a string such as 'jacobi'")
        if not 0.0 < self.sufficient_decrease < 0.5:
            raise ValueError("sufficient decrease constant must lie in (0, 1/2)")
        if not 0.0 < self.gp_progress < 1.0:
            raise ValueError("GP progress tolerance must lie in (0, 1)")
        if not 0.0 < self.cg_progress < 1.0:
            raise ValueError("CG progress tolerance must lie in (0, 1)")
        if not self.tol > 0.0:
            raise ValueError("convergence tolerance must be positive")
        for what, count in (("block count", self.blocks),
                            ("outer iteration limit", self.max_outer)):
            try:  # numpy integers pass, floats do not
                operator.index(count)
            except TypeError:
                raise ValueError(f"{what} must be an integer") from None
            if count < 1:
                raise ValueError(f"{what} must be at least 1")
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
    precond_builds: int = 0           # make_preconditioner calls
    precond_reuses: int = 0           # faces that kept the IC(k) factors
    precond_extensions: int = 0       # faces that kept them and factored the joined
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


def solve(qp: BoundQP, x0: np.ndarray, cfg: SolverConfig | None = None) -> SolveOutcome:
    """Minimize the bound-constrained quadratic starting from x0 (projected
    onto the box first).  The iterate travels as one ``Iterate``, x with
    Ax = A x, q = q(x), g = grad q(x), the projected gradient, its norm
    and the active mask, so each is computed once per point.

    The record is the only holder of the point's arrays: a GP phase
    advances it in place, and each CG step goes from it with none of the
    last step's arrays.  Before each CG call the solve lets go of the last
    CGResult, the last search direction d, Ax and pg, which the CG search
    makes anew; the reduced system goes to ``pcg_progress`` as its only
    holder, and the CG step w goes once d is made from it.  Across a face's
    CG calls the solve holds the free set, A_k and the preconditioner; a GP
    phase runs without them."""
    if cfg is None:
        cfg = SolverConfig()
    start = time.perf_counter()
    stats = SolverStats()
    n = qp.n
    x = project(qp, x0)
    if not np.isfinite(x).all():  # NaN, or infinite where the bound is
        raise ValueError("starting point must be finite after projection")
    it = Iterate.at(qp, x)
    del x  # the record is its only holder
    faces: set[bytes] = set()
    rule = FaceRule(cfg.precond, cfg.blocks)  # each new face's preconditioner
    held = None  # free set, A_k and preconditioner of the last CG call

    def reduced_system(free: np.ndarray) -> ReducedSystem:
        """The reduced system of the face ``free`` at the iterate; a new
        face's A_k and preconditioner are made and held, the same face
        keeps them."""
        nonlocal held
        if held is not None and free.size == held[0].size and (free == held[0]).all():
            return ReducedSystem(held[1], it.g[free])  # only the gradient is new
        held = None  # let the last A_k go before the next is extracted
        sys = build_reduced(qp, it.g, free)
        P, outcome = rule.for_face(free, sys.A_k)
        stats.precond_builds += outcome == "build"
        stats.precond_reuses += outcome == "reuse"
        stats.precond_extensions += outcome == "extend"
        log.debug("outer %d: face of %d free: %s", outer, free.size, outcome)
        held = (free, sys.A_k, P)
        return sys

    status = SolveStatus.MAX_OUTER_REACHED
    reason = None
    try:
        for outer in range(1, cfg.max_outer + 1):
            if it.pg_norm <= cfg.tol:
                break
            stats.outer_iters = outer
            eta2 = cfg.cg_progress
            outer_cg_iters = 0
            try:
                gp = gp_phase(qp, it, cfg.gp_progress, cfg.sufficient_decrease, cfg.tol)
                stats.gp_iters_total += gp.iterates_taken
                for rec in gp.records:
                    stats.trace.append(TraceRecord(
                        outer, "gp", rec.q, rec.pg_norm, n - rec.n_active, 0,
                        eta2))
                log.info("outer %d: gp took %d iterates (%s), pg_norm=%.3e",
                         outer, gp.iterates_taken, gp.termination.value, it.pg_norm)
                while it.pg_norm > cfg.tol:
                    free = (~it.active).nonzero()[0]
                    # the search makes the next Ax and pg; held is the
                    # face's once reduced_system returns, as arguments are
                    # taken in order
                    it.Ax = it.pg = cg = d = None
                    cg = pcg_progress(reduced_system(free), held[2], eta2)
                    stats.cg_iters_total += cg.iterations
                    outer_cg_iters += cg.iterations
                    stats.cg_calls += 1
                    try:
                        if cg.termination is CGStop.BREAKDOWN:
                            raise GPCGError(f"CG breakdown: the {cg.breakdown} "
                                            "is not positive definite")
                        d = np.zeros(n)  # the search steps along -d
                        d[free] = -cg.w
                        cg.w = None  # its last read: the search runs without it
                        it.x, alpha, _, it.Ax, it.q = projected_search_cg(
                            qp, it.x, it.g, it.q, d, 1.0, cfg.sufficient_decrease)
                        it.regrade(qp)
                    finally:  # the row describes the point kept
                        stats.trace.append(TraceRecord(
                            outer, "cg", it.q, it.pg_norm, free.size, cg.iterations, eta2))
                    log.debug("outer %d: cg %d iters (%s), step %.3g, "
                              "pg_norm=%.3e, eta2=%.2e", outer, cg.iterations,
                              cg.termination.value, alpha, it.pg_norm, eta2)
                    # the binding set is the active set exactly when the
                    # projected gradient is zero on every active variable
                    if it.pg[it.active].any():
                        break  # face not yet optimal: back to a GP phase
                    if eta2 <= CG_PROGRESS_FLOOR:
                        break
                    eta2 = max(eta2 * CG_PROGRESS_SHRINK, CG_PROGRESS_FLOOR)
                held = cg = d = None  # the GP phase runs without A_k; an IC(k) factor stays
            finally:
                faces.add(np.packbits(it.active).tobytes())  # n / 8 bytes a face
                stats.trace.append(TraceRecord(
                    outer, "outer", it.q, it.pg_norm, n - int(np.count_nonzero(it.active)),
                    outer_cg_iters, eta2))
        if it.pg_norm <= cfg.tol:
            status = SolveStatus.CONVERGED
    except GPCGError as exc:
        status = SolveStatus.FAILED
        reason = f"{type(exc).__name__}: {exc}"
        log.info("solve failed: %s", reason)

    stats.faces_visited = len(faces)
    stats.free_fraction_final = (
        (n - int(np.count_nonzero(it.active))) / n if n else 0.0)
    stats.final_pg_norm = it.pg_norm
    stats.objective_final = it.q
    stats.wall_time_seconds = time.perf_counter() - start
    return SolveOutcome(it.x, stats, status, reason)
