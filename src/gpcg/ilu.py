"""Incomplete Cholesky factorization with level-of-fill control, IC(k).

A matrix flagged symmetric is factored as A ~ U^T D^-1 U, D the diagonal of
U, and only U is filled, stored and updated (``_kernels``).  Fill entries
enter while their level, min over pivots p of lev(p,i) + lev(p,j) + 1 with
originals at level 0, stays within the bound.  Large blocks are factored
by levels, small ones row by row, with the same bits; every factor solves
in two compiled calls.  The factor's index arrays, and those of its solve
operands, take the matrix's index dtype (``linalg.index_dtype``) unless
fill outgrows int32; set-up by levels peaks below 1.8 times the factor's
bytes.
"""

from __future__ import annotations

import numpy as np

from . import _kernels
from .errors import ZeroPivot
from .linalg import SparseMatrixCSR


# The level form of the numeric phase overtakes the row loop, schedule
# included, at 150-300 rows on grid and random SPD blocks; on 1-D chains it
# stays 2-3x slower at any size, which no benchmark block resembles.
LEVEL_MIN_ROWS = 256


class ILUFactorization:
    """IC(k) factor U in CSR, each row starting with its pivot, and the
    operands of ``_kernels.lu_solve``."""

    __slots__ = ("n", "u_indptr", "u_indices", "u_data", "lower", "upper", "pivots")

    def __init__(self, n, u_indptr, u_indices, u_data):
        self.n, self.u_indptr, self.u_indices, self.u_data = n, u_indptr, u_indices, u_data
        self.lower, self.upper, self.pivots = _kernels.lu_solve_operands(
            u_indptr, u_indices, u_data)

    nnz = property(lambda self: self.u_indices.size, doc="Stored entries of U.")

    def solve(self, r: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Forward/back substitution: returns (U^T D^-1 U)^-1 r, written
        into ``out`` when given, a contiguous float64 vector of length n
        that may be r itself, else as a new array."""
        if r.shape[0] != self.n:
            raise ValueError(f"vector has length {r.shape[0]}, expected {self.n}")
        if out is not None and not (out.shape == (self.n,) and out.dtype == np.float64
                                    and out.flags.c_contiguous):
            # a strided output would be solved in a copy, not in place
            raise ValueError(f"out must be a contiguous float64 vector of length {self.n}")
        return _kernels.lu_solve(self.lower, self.upper, self.pivots, r, out)


def ilu_k(M: SparseMatrixCSR, k: int) -> ILUFactorization:
    """IC(k) factor of M with fill level k (k=0 keeps the input pattern).
    M must be flagged symmetric, which makes it square.  The numeric phase
    runs by levels when M has at least LEVEL_MIN_ROWS rows, else row by
    row."""
    if not M.symmetric:
        raise ValueError("IC(k) needs a matrix flagged symmetric")
    if k < 0:
        raise ValueError("fill level must be nonnegative")
    zero = np.flatnonzero(M.diagonal() == 0.0)
    if zero.size:
        raise ZeroPivot(int(zero[0]))
    n = M.nrows
    u_indptr, u_indices = _kernels.ilu_symbolic(n, M.indptr, M.indices, k)
    lower = _kernels.lower_pattern(u_indptr, u_indices)
    steps = None
    if n >= LEVEL_MIN_ROWS:  # the level form reads the schedule alone
        steps = _kernels.elimination_steps(u_indptr, lower)
        lower = None
    u_data, fail_row = _kernels.ilu_numeric(
        n, M.indptr, M.indices, M.data, u_indptr, u_indices, lower, steps)
    del lower, steps  # before the solve operands are built
    if fail_row >= 0:
        raise ZeroPivot(int(fail_row))
    return ILUFactorization(n, u_indptr, u_indices, u_data)
