"""Reduced subproblem over the free variables and its preconditioned CG
solver with progress-based termination.

The reduced objective is q_r(w) = 0.5 w'(A_r)w + r'w where A_r is the
principal submatrix of A on the free set and r the matching gradient slice.
CG stops when one iteration's decrease in q_r drops to eta2 times the best
decrease seen so far, when the residual is at machine-precision level, or at
the dimension bound.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import NoFreeVariables
from .linalg import IndexSet, SparseMatrixCSR, dot, extract_submatrix, gather, mat_vec, norm2
from .model import BoundQP
from .precond import Preconditioner, apply_precond


@dataclass
class ReducedSystem:
    A_k: SparseMatrixCSR
    r_k: np.ndarray
    free: IndexSet

    @property
    def m(self) -> int:
        return self.A_k.nrows


class CGStop(enum.Enum):
    PROGRESS_TEST = "progress_test"
    MAX_ITER = "max_iter"
    EXACT_SOLVE = "exact_solve"
    BREAKDOWN = "breakdown"


@dataclass
class CGResult:
    w: np.ndarray
    iterations: int
    decreases: np.ndarray
    termination: CGStop
    # on BREAKDOWN, what lost positivity: "preconditioner" (r'z <= 0) or
    # "reduced matrix" (p'Ap <= 0)
    breakdown: str | None = None


def build_reduced(qp: BoundQP, x: np.ndarray, g: np.ndarray,
                  free: IndexSet) -> ReducedSystem:
    """Restrict the Hessian and gradient to the free variables."""
    if len(free) == 0:
        raise NoFreeVariables("every variable is on a bound")
    A_k = extract_submatrix(qp.A, free, free)
    r_k = gather(g, free)
    return ReducedSystem(A_k, r_k, free)


def _reduced_objective(sys: ReducedSystem, w: np.ndarray) -> float:
    return 0.5 * dot(w, mat_vec(sys.A_k, w)) + dot(sys.r_k, w)


def pcg_progress(sys: ReducedSystem, P: Preconditioner, w0: np.ndarray,
                 eta2: float, maxiter: int | None = None) -> CGResult:
    """Preconditioned CG on the reduced objective starting from w0."""
    if eta2 <= 0.0:
        raise ValueError("progress tolerance must be positive")
    m = sys.m
    if w0.shape[0] != m:
        raise ValueError(f"start vector has length {w0.shape[0]}, expected {m}")
    cap = m if maxiter is None else min(maxiter, m)
    w = w0.copy()
    # residual of A_k w = -r_k, i.e. the negative reduced gradient at w
    res = -(mat_vec(sys.A_k, w) + sys.r_k) if w.any() else -sys.r_k
    exact_tol = 1e-14 * (1.0 + norm2(sys.r_k))
    decreases: list[float] = []
    if norm2(res) <= exact_tol:
        return CGResult(w, 0, np.zeros(0), CGStop.EXACT_SOLVE)
    z = apply_precond(P, res)
    rho = dot(res, z)
    p = z
    termination = CGStop.MAX_ITER
    breakdown = None
    for j in range(1, cap + 1):
        if rho <= 0.0:
            termination, breakdown = CGStop.BREAKDOWN, "preconditioner"
            break
        Ap = mat_vec(sys.A_k, p)
        pAp = dot(p, Ap)
        if pAp <= 0.0:
            termination, breakdown = CGStop.BREAKDOWN, "reduced matrix"
            break
        alpha = rho / pAp
        # exact decrease of the quadratic: alpha*<res,p> - alpha^2/2*<p,Ap>
        decreases.append(alpha * (dot(res, p) - 0.5 * alpha * pAp))
        w = w + alpha * p
        res = res - alpha * Ap
        if norm2(res) <= exact_tol:
            termination = CGStop.EXACT_SOLVE
            break
        if j >= 2 and decreases[-1] <= eta2 * max(decreases[:-1]):
            termination = CGStop.PROGRESS_TEST
            break
        z = apply_precond(P, res)
        rho_next = dot(res, z)
        p = z + (rho_next / rho) * p
        rho = rho_next
    return CGResult(w, len(decreases), np.asarray(decreases), termination,
                    breakdown)
