"""Bound-constrained quadratic program and its optimality machinery.

The objective is q(x) = 0.5 x'Ax + b'x + c with A symmetric positive
definite, minimized over the box l <= x <= u.  Bounds may be infinite;
equal bounds (fixed variables) are allowed and count as permanently active
with a zero projected-gradient component.  A side of the box with no finite
bound (u = +inf throughout, as on the journal bearing) costs no pass in the
bound tests.  The active, free and binding sets are returned as strictly
increasing int64 index arrays; the matrix's CSR indices follow
``linalg.index_dtype``.
"""

from __future__ import annotations

import numpy as np

from .linalg import SparseMatrixCSR, as_vector, dot, mat_vec, norm2


class BoundQP:
    """Problem data (A, b, c, l, u); checked on construction, then immutable.
    ``l`` and ``u`` are read-only views, so ``has_lower`` and ``has_upper``,
    whether any lower or upper bound is finite, stay true to them."""

    __slots__ = ("A", "b", "c", "l", "u", "has_lower", "has_upper")

    def __init__(self, A: SparseMatrixCSR, b, c: float, l, u):
        self.A = A
        self.b = as_vector(b)
        self.c = float(c)
        self.l = as_vector(l).view()
        self.u = as_vector(u).view()
        self.l.flags.writeable = self.u.flags.writeable = False
        n = self.A.nrows
        if self.A.ncols != n:
            raise ValueError("matrix must be square")
        if not self.A.symmetric:
            raise ValueError("matrix must be flagged symmetric")
        for name, v in (("b", self.b), ("l", self.l), ("u", self.u)):
            if v.shape[0] != n:
                raise ValueError(f"{name} has length {v.shape[0]}, expected {n}")
        if not (np.isfinite(self.b).all() and np.isfinite(self.c)):
            raise ValueError("linear and constant terms must be finite")
        if not (self.l <= self.u).all():  # also false where a bound is NaN
            raise ValueError("lower bound exceeds upper bound, or a bound is NaN")
        if (self.l == np.inf).any() or (self.u == -np.inf).any():
            raise ValueError("bounds leave an empty feasible interval")
        self.has_lower = bool((self.l > -np.inf).any())
        self.has_upper = bool((self.u < np.inf).any())

    @property
    def n(self) -> int:
        return self.A.nrows

    def __repr__(self) -> str:
        return f"BoundQP(n={self.n}, nnz={self.A.nnz})"


def _check_dim(qp: BoundQP, x: np.ndarray):
    if x.shape[0] != qp.n:
        raise ValueError(f"vector has length {x.shape[0]}, expected {qp.n}")


def _check_feasible(qp: BoundQP, x: np.ndarray):
    _check_dim(qp, x)
    if ((x < qp.l) | (x > qp.u)).any():
        raise ValueError("point is infeasible")


def objective(qp: BoundQP, x: np.ndarray, Ax: np.ndarray | None = None) -> float:
    """q(x); pass Ax = mat_vec(qp.A, x) to reuse a product already made."""
    _check_dim(qp, x)
    Ax = mat_vec(qp.A, x) if Ax is None else Ax
    return 0.5 * dot(x, Ax) + dot(qp.b, x) + qp.c


def gradient(qp: BoundQP, x: np.ndarray, Ax: np.ndarray | None = None) -> np.ndarray:
    """Ax + b; pass Ax = mat_vec(qp.A, x) to reuse a product already made."""
    if Ax is None:
        _check_dim(qp, x)
        Ax = mat_vec(qp.A, x)
    else:  # x is not read: the product must be of the right length
        _check_dim(qp, Ax)
    return Ax + qp.b


def project(qp: BoundQP, x: np.ndarray) -> np.ndarray:
    """Componentwise median of (l, x, u): x clipped into the box."""
    _check_dim(qp, x)
    return _project(qp, x)


def _project(qp: BoundQP, x: np.ndarray) -> np.ndarray:
    """``project`` without the checks, for points made inside the solver;
    clipping at an infinite bound changes no value, so a side without a
    finite bound is skipped."""
    y = np.maximum(x, qp.l) if qp.has_lower else x.copy()
    if qp.has_upper:
        np.minimum(y, qp.u, out=y)
    return y


def projected_gradient(qp: BoundQP, x: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Gradient with components clipped at active bounds; zero exactly at
    optimal points."""
    _check_feasible(qp, x)
    return _bound_test(qp, x, g)[0]


def _bound_test(qp: BoundQP, x: np.ndarray, g: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray]:
    """The projected gradient and the active mask of x, without the
    feasibility check, from one comparison per finite bound side: the
    projected gradient is min(g, 0) at a lower bound, max(g, 0) at an upper
    one, 0 at both."""
    pg = g.copy()
    if qp.has_lower:
        active = x == qp.l
        np.minimum(g, 0.0, out=pg, where=active)
    else:
        active = np.zeros(x.shape, dtype=bool)
    if qp.has_upper:
        at_u = x == qp.u
        np.maximum(g, 0.0, out=pg, where=at_u)
        pg[active & at_u] = 0.0
        active |= at_u
    return pg, active


def _active_mask(qp: BoundQP, x: np.ndarray) -> np.ndarray:
    mask = x == qp.l if qp.has_lower else np.zeros(x.shape, dtype=bool)
    if qp.has_upper:
        mask |= x == qp.u
    return mask


def active_set(qp: BoundQP, x: np.ndarray) -> np.ndarray:
    """Indices sitting exactly on a bound (floating-point equality)."""
    _check_feasible(qp, x)
    return np.flatnonzero(_active_mask(qp, x))


def free_set(qp: BoundQP, x: np.ndarray) -> np.ndarray:
    """Complement of the active set."""
    _check_feasible(qp, x)
    return np.flatnonzero(~_active_mask(qp, x))


def binding_set(qp: BoundQP, x: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Active indices whose gradient sign certifies staying on the bound:
    those where the projected gradient is zero, that is g >= 0 at a lower
    bound, g <= 0 at an upper one, and every fixed variable."""
    _check_feasible(qp, x)
    pg, active = _bound_test(qp, x, g)
    return np.flatnonzero(active & (pg == 0.0))


def converged(qp: BoundQP, x: np.ndarray, g: np.ndarray, tau: float) -> bool:
    """True when the Euclidean norm of the projected gradient is <= tau."""
    if tau <= 0.0:
        raise ValueError("tolerance must be positive")
    return norm2(projected_gradient(qp, x, g)) <= tau
