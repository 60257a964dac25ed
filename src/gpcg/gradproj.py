"""Gradient-projection phase: exact first step size along the projected
gradient, the projected backtracking search of the GP and CG steps, and a
loop that stops once the active set settles or the decrease stalls.
"""

from __future__ import annotations

import enum
import types
from dataclasses import dataclass, field

import numpy as np

from .errors import AlreadyStationary, NotConvexError, SearchFailed
from .linalg import dot, mat_vec, norm2
from .model import BoundQP, _bound_test, _project, gradient, objective

GP_CAP = 100        # iterates per GP phase
MAX_HALVINGS = 50   # step halvings per projected search


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
    """Where the phase ended: x_out with Ax = A x_out, q = q(x_out),
    g = grad q(x_out), pg_norm = ||projected gradient|| and its active mask,
    computed exactly as ``objective``/``gradient``/``norm2``/``active_set``
    would."""
    x_out: np.ndarray
    iterates_taken: int
    termination: GPStop
    decreases: np.ndarray
    Ax: np.ndarray
    q: float
    g: np.ndarray
    pg_norm: float
    active: np.ndarray
    records: list[GPIterate] = field(default_factory=list)


def cauchy_step_size(qp: BoundQP, g: np.ndarray, d: np.ndarray) -> float:
    """Exact minimizer of the quadratic along -d from a point whose gradient
    is g: <g, d> / <d, Ad>.  One matvec, A d."""
    curvature = dot(d, mat_vec(qp.A, d))
    if curvature <= 0.0:
        if not d.any():
            raise AlreadyStationary("direction is zero")
        raise NotConvexError(f"curvature along the step is {curvature}")
    return dot(g, d) / curvature


def projected_search(qp: BoundQP, x: np.ndarray, g: np.ndarray, q_x: float,
                     d: np.ndarray, alpha0: float, mu: float
                     ) -> tuple[np.ndarray, float, int, np.ndarray, float]:
    """Backtrack over alpha0 * (1/2)^j until P(x - alpha d) satisfies the
    sufficient decrease test; one matvec per trial.  GP steps take d = g,
    CG steps d = -w (w the CG step) and alpha0 = 1.  Returns (x+, alpha,
    halvings, A x+, q(x+)); g and q_x are the gradient and q at x."""
    if not 0.0 < mu < 0.5:
        raise ValueError("sufficient decrease constant must lie in (0, 1/2)")
    if alpha0 <= 0.0:
        raise ValueError("initial step size must be positive")
    alpha = alpha0
    step = np.empty_like(x)  # x - alpha d, then x_trial - x
    for halvings in range(MAX_HALVINGS + 1):
        np.multiply(d, alpha, out=step)
        np.subtract(x, step, out=step)
        x_trial = _project(qp, step)
        Ax = mat_vec(qp.A, x_trial)
        q_trial = objective(qp, x_trial, Ax)
        if q_trial <= q_x + mu * dot(g, np.subtract(x_trial, x, out=step)):
            return x_trial, alpha, halvings, Ax, q_trial
        alpha *= 0.5
    raise SearchFailed(f"no acceptable step within {MAX_HALVINGS} halvings")


# gp_phase and solve call the search by these names; the CG one is a copy, not
# a wrapper, so rebinding every reference to one name leaves the other alone.
projected_search_gp = projected_search
projected_search_cg = types.FunctionType(projected_search.__code__, globals(),
                                         "projected_search_cg")


def gp_phase(qp: BoundQP, x: np.ndarray, Ax: np.ndarray, q: float,
             g: np.ndarray, pg: np.ndarray, pg_norm: float, active: np.ndarray,
             eta1: float, mu: float, tau: float) -> GPResult:
    """Run projected-gradient iterates from x (with Ax = A x, q = q(x),
    g = grad q(x), and pg, pg_norm and active as ``_bound_test`` and
    ``norm2`` give them) until the active set repeats, the decrease falls
    below eta1 times the best so far, the convergence test fires, or GP_CAP
    iterates are taken; each costs one matvec plus one per search trial."""
    if not 0.0 < eta1 < 1.0:
        raise ValueError("progress tolerance must lie in (0, 1)")
    decreases: list[float] = []
    records: list[GPIterate] = []
    if pg_norm <= tau:
        return GPResult(x, 0, GPStop.CONVERGED, np.zeros(0), Ax, q, g, pg_norm,
                        active)
    termination = GPStop.ITERATION_CAP
    for j in range(1, GP_CAP + 1):
        alpha0 = cauchy_step_size(qp, g, pg)
        x_next, alpha, halvings, Ax, q_next = projected_search_gp(
            qp, x, g, q, g, alpha0, mu)
        decreases.append(q - q_next)
        x, q = x_next, q_next
        g = gradient(qp, x, Ax)
        prev_active = active
        pg, active = _bound_test(qp, x, g)
        pg_norm = norm2(pg)
        records.append(GPIterate(j, q, alpha, halvings,
                                 int(np.count_nonzero(active)), pg_norm))
        if pg_norm <= tau:
            termination = GPStop.CONVERGED
            break
        if (active == prev_active).all():
            termination = GPStop.ACTIVE_SET_SETTLED
            break
        if j >= 2 and decreases[-1] <= eta1 * best:
            termination = GPStop.INSUFFICIENT_PROGRESS
            break
        best = max(best, decreases[-1]) if j >= 2 else decreases[0]  # max(decreases)
    return GPResult(x, len(decreases), termination, np.asarray(decreases),
                    Ax, q, g, pg_norm, active, records)
