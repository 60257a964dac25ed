"""Incomplete LU factorization with level-of-fill control.

The symbolic phase grows the input pattern by fill entries whose level
(min over pivots of lev(i,p) + lev(p,j) + 1, originals at level 0) stays
within the requested bound; without fill the factor shares the input's
pattern arrays.  The numeric phase runs row-wise Gaussian elimination
restricted to that pattern, with no pivoting: on large blocks with wide
levels it eliminates entries of many rows at once, on small or chain-like
ones row by row, with the same bits.  Every factor solves in two compiled
calls, one per triangle.
"""

from __future__ import annotations

import numpy as np

from . import _kernels
from .errors import ZeroPivot
from .linalg import SparseMatrixCSR


# The level form of the numeric phase costs a pass over strict L (the L
# levels and the elimination steps) and a few numpy calls per step and
# chunk, so it pays only on large blocks whose levels are wide; the gate
# picks the numeric form only, as the solves are the same on every factor.
# Measured on a 2-vCPU host (numeric phase plus four solves, the row loops
# against the level forms): the level forms win from n = 144 on 2-D grid
# Laplacians (ILU(0) and ILU(2)) and from n = 200 on random SPD patterns
# with about five entries a row (ILU(0)), and lose 1.3x on n = 60 random
# SPD blocks.  At n = 1024-4096 they lose 2x when levels average one or two
# rows (chain-like patterns), break even near four or five rows a level and
# win by 13-36 % at six to eight.  LEVEL_MIN_ROWS stays above both n
# crossovers; the L pass gives up as soon as it finds more levels than
# n / LEVEL_MIN_WIDTH, so chain-like blocks pay a fraction of it.
LEVEL_MIN_ROWS = 256
LEVEL_MIN_WIDTH = 5


class ILUFactorization:
    """Combined LU factor in CSR; the unit diagonal of L is implicit and the
    stored diagonal entries belong to U.  ``lower``, ``upper`` and
    ``pivots`` are the operands of ``_kernels.lu_solve``, built once."""

    __slots__ = ("n", "indptr", "indices", "data", "diag", "lower", "upper", "pivots")

    def __init__(self, n, indptr, indices, data, diag):
        self.n = n
        self.indptr = indptr
        self.indices = indices
        self.data = data
        self.diag = diag
        self.lower, self.upper, self.pivots = _kernels.lu_solve_operands(
            indptr, indices, data, diag)

    @property
    def nnz(self) -> int:
        return self.indices.size

    def solve(self, r: np.ndarray) -> np.ndarray:
        """Forward/back substitution: returns (LU)^-1 r."""
        if r.shape[0] != self.n:
            raise ValueError(f"vector has length {r.shape[0]}, expected {self.n}")
        return _kernels.lu_solve(self.lower, self.upper, self.pivots, r)


def ilu_k(M: SparseMatrixCSR, k: int) -> ILUFactorization:
    """Factor square M with fill level k (k=0 keeps the input pattern)."""
    if M.nrows != M.ncols:
        raise ValueError("matrix must be square")
    if k < 0:
        raise ValueError("fill level must be nonnegative")
    diag = M.diagonal()
    if (diag == 0.0).any():
        raise ZeroPivot(int(np.flatnonzero(diag == 0.0)[0]))
    n = M.nrows
    lu_indptr, lu_indices, lu_diag = _kernels.ilu_symbolic(n, M.indptr, M.indices, k)
    finish = None
    if n >= LEVEL_MIN_ROWS:
        # None unless the levels average LEVEL_MIN_WIDTH rows
        finish = _kernels.lower_schedule(lu_indptr, lu_indices, lu_diag,
                                         n // LEVEL_MIN_WIDTH)
    lu_data, fail_row = _kernels.ilu_numeric(
        n, M.indptr, M.indices, M.data, lu_indptr, lu_indices, lu_diag, finish)
    if fail_row >= 0:
        raise ZeroPivot(int(fail_row))
    return ILUFactorization(n, lu_indptr, lu_indices, lu_data, lu_diag)
