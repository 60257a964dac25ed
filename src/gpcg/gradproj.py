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

GP_CAP = 100               # iterates per GP phase
MAX_HALVINGS = 50          # step halvings per projected search
GP_PROGRESS = 0.1          # eta1: decrease ratio ending the GP phase
SUFFICIENT_DECREASE = 0.1  # mu: fraction of the linear model a search step needs


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
class Iterate:
    """The point a solve carries: x with Ax = A x, q = q(x), g = grad q(x),
    pg, pg_norm and active as ``_bound_test`` and ``norm2`` give them, each
    computed once.  ``gp_phase`` and the solver's CG step advance it in
    place, rebinding each field, so the old array goes once the record
    lets it go; Ax and pg are None while a search makes the next ones."""
    x: np.ndarray
    Ax: np.ndarray | None
    q: float
    g: np.ndarray
    pg: np.ndarray | None
    pg_norm: float
    active: np.ndarray

    @classmethod
    def at(cls, qp: BoundQP, x: np.ndarray) -> Iterate:
        """The record of x, a point in the box."""
        Ax = mat_vec(qp.A, x)
        it = cls(x, Ax, objective(qp, x, Ax), None, None, 0.0, None)
        it.regrade(qp)
        return it

    def regrade(self, qp: BoundQP):
        """Make g, pg, pg_norm and active those of x, from Ax; the old g
        goes before the new is made."""
        self.g = None
        self.g = gradient(qp, self.x, self.Ax)
        self.pg, self.active = _bound_test(qp, self.x, self.g)
        self.pg_norm = norm2(self.pg)


@dataclass
class GPResult:
    """How the phase ended; the point it reached is in the ``Iterate`` it
    advanced."""
    iterates_taken: int
    termination: GPStop
    decreases: np.ndarray
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
                     d: np.ndarray, alpha0: float
                     ) -> tuple[np.ndarray, float, int, np.ndarray, float]:
    """Backtrack over alpha0 * (1/2)^j until x+ = P(x - alpha d) satisfies
    q(x+) <= q_x + SUFFICIENT_DECREASE * <g, x+ - x>; one matvec per trial.
    GP steps take d = g, CG steps d = -w (w the CG step) and alpha0 = 1.
    Returns (x+, alpha, halvings, A x+, q(x+)); g and q_x are the gradient
    and q at x."""
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
        if q_trial <= q_x + SUFFICIENT_DECREASE * dot(g, np.subtract(x_trial, x, out=step)):
            return x_trial, alpha, halvings, Ax, q_trial
        alpha *= 0.5
    raise SearchFailed(f"no acceptable step within {MAX_HALVINGS} halvings")


# gp_phase and solve call the search by these names; the CG one is a copy, not
# a wrapper, so rebinding every reference to one name leaves the other alone.
projected_search_gp = projected_search
projected_search_cg = types.FunctionType(projected_search.__code__, globals(),
                                         "projected_search_cg")


def gp_phase(qp: BoundQP, it: Iterate, tau: float) -> GPResult:
    """Run projected-gradient iterates from the point ``it`` until the
    active set repeats, the decrease falls to GP_PROGRESS times the best so
    far, the convergence test fires, or GP_CAP iterates are taken; each
    costs one matvec plus one per search trial.  The phase advances ``it``
    in place and holds no array of its own past an iterate: pg, read once
    for the step size, and Ax, which the search makes anew, go before the
    search; the old x as the search returns, and the old g before the next
    is made.  On an error ``it`` still describes the last point accepted,
    without Ax or pg."""
    decreases: list[float] = []
    records: list[GPIterate] = []
    if it.pg_norm <= tau:
        return GPResult(0, GPStop.CONVERGED, np.zeros(0))
    termination = GPStop.ITERATION_CAP
    for j in range(1, GP_CAP + 1):
        alpha0 = cauchy_step_size(qp, it.g, it.pg)
        it.Ax = it.pg = None
        it.x, alpha, halvings, it.Ax, q = projected_search_gp(
            qp, it.x, it.g, it.q, it.g, alpha0)
        decreases.append(it.q - q)
        it.q, prev_active = q, it.active
        it.regrade(qp)
        records.append(GPIterate(j, q, alpha, halvings,
                                 int(np.count_nonzero(it.active)), it.pg_norm))
        if it.pg_norm <= tau:
            termination = GPStop.CONVERGED
            break
        if (it.active == prev_active).all():
            termination = GPStop.ACTIVE_SET_SETTLED
            break
        if j >= 2 and decreases[-1] <= GP_PROGRESS * best:
            termination = GPStop.INSUFFICIENT_PROGRESS
            break
        best = max(best, decreases[-1]) if j >= 2 else decreases[0]  # max(decreases)
    return GPResult(len(decreases), termination, np.asarray(decreases), records)
