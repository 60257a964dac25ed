"""Brute-force reference solvers for tiny problems, used by tests only:
a dense SPD solve and an exhaustive bound-assignment enumerator that checks
the sign conditions of optimality for every candidate face.
"""

from __future__ import annotations

import itertools

import numpy as np

from .model import BoundQP

_AT_LOWER, _AT_UPPER, _FREE = 0, 1, 2
_ENUM_LIMIT = 12


def dense_solve(A: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve A x = rhs by dense Cholesky; raises on a non-SPD matrix."""
    import scipy.linalg  # here: loading it costs every gpcg process, and only tests need it
    A = np.asarray(A, dtype=np.float64)
    rhs = np.asarray(rhs, dtype=np.float64)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("matrix must be square")
    if rhs.shape != (A.shape[0],):
        raise ValueError("right-hand side length mismatch")
    L = np.linalg.cholesky(A)  # LinAlgError when not positive definite
    y = scipy.linalg.solve_triangular(L, rhs, lower=True)
    return scipy.linalg.solve_triangular(L.T, y, lower=False)


def solve_enum(qp: BoundQP) -> np.ndarray:
    """Enumerate every lower/upper/free assignment, solve the free block,
    and keep the candidates satisfying feasibility and the gradient sign
    conditions; the minimizer is unique, so all survivors must coincide."""
    n = qp.n
    if n > _ENUM_LIMIT:
        raise ValueError(f"enumeration limited to n <= {_ENUM_LIMIT}")
    A = qp.A.to_dense()
    b, l, u = qp.b, qp.l, qp.u
    options = []
    for i in range(n):
        opts = [_FREE]
        if np.isfinite(l[i]):
            opts.append(_AT_LOWER)
        if np.isfinite(u[i]):
            opts.append(_AT_UPPER)
        options.append(opts)

    candidates = []
    for assign in itertools.product(*options):
        assign = np.asarray(assign)
        free = assign == _FREE
        x = np.where(assign == _AT_LOWER, l, u)
        x[free] = 0.0
        if free.any():
            rhs = -(b[free] + A[np.ix_(free, ~free)] @ x[~free])
            x[free] = dense_solve(A[np.ix_(free, free)], rhs)
        g = A @ x + b
        slack = 1e-10 * (1.0 + np.abs(x).max(initial=0.0)
                         + np.abs(g).max(initial=0.0))
        if (x[free] < l[free] - slack).any() or (x[free] > u[free] + slack).any():
            continue
        if (g[assign == _AT_LOWER] < -slack).any():
            continue
        if (g[assign == _AT_UPPER] > slack).any():
            continue
        candidates.append(x)

    if not candidates:
        raise ArithmeticError("no optimality candidate survived enumeration")
    best = min(candidates, key=lambda x: 0.5 * x @ A @ x + b @ x)
    for x in candidates:
        if np.abs(x - best).max() > 1e-8:
            raise ArithmeticError("enumeration produced distinct candidates")
    return best
