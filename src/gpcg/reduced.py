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
from .linalg import SparseMatrixCSR, dot, extract_submatrix, mat_vec, norm2
from .model import BoundQP
from .precond import Preconditioner


@dataclass
class ReducedSystem:
    A_k: SparseMatrixCSR
    r_k: np.ndarray

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


def build_reduced(qp: BoundQP, g: np.ndarray, free: np.ndarray) -> ReducedSystem:
    """Restrict the Hessian and gradient to the free variables, given as a
    strictly increasing index array."""
    if free.size == 0:
        raise NoFreeVariables("degenerate iterate: every variable is on a bound "
                              "but the projected gradient is above the tolerance")
    return ReducedSystem(extract_submatrix(qp.A, free), g[free])


def pcg_progress(sys: ReducedSystem, P: Preconditioner, eta2: float) -> CGResult:
    """Preconditioned CG on the reduced objective starting from w = 0.
    w, the residual and the direction are updated in place, with the
    operations, and so the bits, of forming each anew."""
    if eta2 <= 0.0:
        raise ValueError("progress tolerance must be positive")
    m = sys.m
    w = np.zeros(m)
    scaled = np.empty(m)  # alpha p, then alpha Ap
    # residual of A_k w = -r_k, i.e. the negative reduced gradient at w = 0
    res = -sys.r_k
    res_norm = norm2(sys.r_k)  # also norm2(res): negation is exact
    exact_tol = 1e-14 * (1.0 + res_norm)
    decreases: list[float] = []
    if res_norm <= exact_tol:
        return CGResult(w, 0, np.zeros(0), CGStop.EXACT_SOLVE)
    z = P.apply(res)
    rho = dot(res, z)
    p = z
    termination = CGStop.MAX_ITER
    breakdown = None
    for j in range(1, m + 1):
        if rho <= 0.0:
            termination, breakdown = CGStop.BREAKDOWN, "preconditioner"
            break
        Ap = mat_vec(sys.A_k, p)
        pAp = dot(p, Ap)
        if pAp <= 0.0:
            termination, breakdown = CGStop.BREAKDOWN, "reduced matrix"
            break
        alpha = rho / pAp
        # the decrease of the quadratic, alpha*<res,p> - alpha^2/2*<p,Ap>, is
        # alpha*rho/2: from w = 0, <res,p> = rho and alpha*<p,Ap> = rho
        decreases.append(0.5 * alpha * rho)
        w += np.multiply(p, alpha, out=scaled)
        res -= np.multiply(Ap, alpha, out=scaled)
        if norm2(res) <= exact_tol:
            termination = CGStop.EXACT_SOLVE
            break
        if j >= 2 and decreases[-1] <= eta2 * best:
            termination = CGStop.PROGRESS_TEST
            break
        best = max(best, decreases[-1]) if j >= 2 else decreases[0]  # max(decreases)
        z = P.apply(res)
        rho_next = dot(res, z)
        p *= rho_next / rho
        p += z  # z + beta p: IEEE addition commutes
        rho = rho_next
    return CGResult(w, len(decreases), np.asarray(decreases), termination,
                    breakdown)
