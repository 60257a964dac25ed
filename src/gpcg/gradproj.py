"""Gradient-projection phase: exact first step size along the projected
gradient, projected backtracking search, and a loop that stops once the
active set settles or the per-iterate decrease stalls.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .errors import AlreadyStationary, NotConvexError, SearchFailed
from .linalg import dot, mat_vec, norm2
from .model import (BoundQP, _active_mask, _project, _projected_gradient,
                    gradient, objective)

GP_CAP = 100        # iterates per GP phase
MAX_HALVINGS = 50   # step halvings per projected search, GP and CG alike


class GPStop(enum.Enum):
    ACTIVE_SET_SETTLED = "active_set_settled"
    INSUFFICIENT_PROGRESS = "insufficient_progress"
    CONVERGED = "converged"
    ITERATION_CAP = "iteration_cap"


@dataclass
class GPIterate:
    """One accepted iterate of the phase (for traces and audits)."""
    index: int
    q: float
    step: float
    halvings: int
    n_active: int
    pg_norm: float


@dataclass
class GPResult:
    """Where the phase ended: x_out with Ax = A x_out, q = q(x_out) and
    g = grad q(x_out), computed exactly as ``objective``/``gradient`` would."""
    x_out: np.ndarray
    iterates_taken: int
    termination: GPStop
    decreases: np.ndarray
    Ax: np.ndarray
    q: float
    g: np.ndarray
    records: list[GPIterate] = field(default_factory=list)


def cauchy_step_size(qp: BoundQP, g: np.ndarray, d: np.ndarray) -> float:
    """Exact minimizer of the quadratic along -d from a point whose gradient
    is g: <g, d> / <d, Ad>.  One matvec, A d."""
    if not d.any():
        raise AlreadyStationary("direction is zero")
    curvature = dot(d, mat_vec(qp.A, d))
    if curvature <= 0.0:
        raise NotConvexError(f"curvature along the step is {curvature}")
    return dot(g, d) / curvature


def projected_search_gp(qp: BoundQP, y: np.ndarray, g: np.ndarray, q_y: float,
                        alpha0: float, mu: float
                        ) -> tuple[np.ndarray, float, int, np.ndarray, float]:
    """Backtrack over alpha0 * (1/2)^j until the projected full-gradient step
    from y satisfies the sufficient decrease test; one matvec per trial.
    Returns (y+, alpha, halvings, A y+, q(y+)); q_y is q(y)."""
    if not 0.0 < mu < 0.5:
        raise ValueError("sufficient decrease constant must lie in (0, 1/2)")
    if alpha0 <= 0.0:
        raise ValueError("initial step size must be positive")
    alpha = alpha0
    step = np.empty_like(y)  # y - alpha g, then y_trial - y
    for halvings in range(MAX_HALVINGS + 1):
        np.multiply(g, alpha, out=step)
        np.subtract(y, step, out=step)
        y_trial = _project(qp, step)
        Ay = mat_vec(qp.A, y_trial)
        q_trial = objective(qp, y_trial, Ay)
        if q_trial <= q_y + mu * dot(g, np.subtract(y_trial, y, out=step)):
            return y_trial, alpha, halvings, Ay, q_trial
        alpha *= 0.5
    raise SearchFailed(f"no acceptable step within {MAX_HALVINGS} halvings")


def gp_phase(qp: BoundQP, x: np.ndarray, eta1: float, mu: float, tau: float,
             Ax: np.ndarray | None = None) -> GPResult:
    """Run projected-gradient iterates from x until the active set repeats,
    the decrease falls below eta1 times the best decrease so far, the
    convergence test fires, or GP_CAP iterates are taken.  Given Ax = A x, each
    iterate costs one matvec for the Cauchy step and one per search trial."""
    if not 0.0 < eta1 < 1.0:
        raise ValueError("progress tolerance must lie in (0, 1)")
    y = x
    Ay = mat_vec(qp.A, y) if Ax is None else Ax
    q_y = objective(qp, y, Ay)
    g = gradient(qp, y, Ay)
    pg = _projected_gradient(qp, y, g)
    decreases: list[float] = []
    records: list[GPIterate] = []
    if norm2(pg) <= tau:
        return GPResult(y, 0, GPStop.CONVERGED, np.zeros(0), Ay, q_y, g, records)
    prev_active = _active_mask(qp, y)
    termination = GPStop.ITERATION_CAP
    for j in range(1, GP_CAP + 1):
        alpha0 = cauchy_step_size(qp, g, pg)
        y_next, alpha, halvings, Ay, q_next = projected_search_gp(
            qp, y, g, q_y, alpha0, mu)
        decreases.append(q_y - q_next)
        y, q_y = y_next, q_next
        g = gradient(qp, y, Ay)
        pg = _projected_gradient(qp, y, g)
        pg_norm = norm2(pg)
        cur_active = _active_mask(qp, y)
        records.append(GPIterate(j, q_y, alpha, halvings,
                                 int(np.count_nonzero(cur_active)), pg_norm))
        if pg_norm <= tau:
            termination = GPStop.CONVERGED
            break
        if np.array_equal(cur_active, prev_active):
            termination = GPStop.ACTIVE_SET_SETTLED
            break
        if j >= 2 and decreases[-1] <= eta1 * best:
            termination = GPStop.INSUFFICIENT_PROGRESS
            break
        best = max(best, decreases[-1]) if j >= 2 else decreases[0]  # max(decreases)
        prev_active = cur_active
    return GPResult(y, len(decreases), termination, np.asarray(decreases),
                    Ay, q_y, g, records)
