"""Incomplete LU factorization with level-of-fill control.

The symbolic phase grows the input pattern by fill entries whose level
(min over pivots of lev(i,p) + lev(p,j) + 1, originals at level 0) stays
within the requested bound; without fill the factor shares the input's
pattern arrays.  The numeric phase runs row-wise Gaussian elimination
restricted to that pattern, with no pivoting.  Large blocks with a
symmetric pattern and wide levels are eliminated and solved level by level;
small, unsymmetric or chain-like ones row by row.  Both give the same bits.
"""

from __future__ import annotations

import numpy as np

from . import _kernels
from .errors import ZeroPivot
from .linalg import SparseMatrixCSR


# Level scheduling costs a pass over strict L (the L levels and the
# elimination steps), a plan per factor and a few numpy calls per level and
# chunk, so it pays only on large blocks whose levels are wide.  The back
# substitution walks the L levels in reverse, which needs a symmetric
# pattern; every block of a symmetric Hessian has one.
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
    stored diagonal entries belong to U.  ``plan`` runs the triangular
    solves: a ``_kernels.SolvePlan`` on the level path, a
    ``_kernels.RowPlan`` on the row path."""

    __slots__ = ("n", "indptr", "indices", "data", "diag", "plan")

    def __init__(self, n, indptr, indices, data, diag, plan):
        self.n = n
        self.indptr = indptr
        self.indices = indices
        self.data = data
        self.diag = diag
        self.plan = plan

    @property
    def nnz(self) -> int:
        return self.indices.size

    def solve(self, r: np.ndarray) -> np.ndarray:
        """Forward/back substitution: returns (LU)^-1 r."""
        if r.shape[0] != self.n:
            raise ValueError(f"vector has length {r.shape[0]}, expected {self.n}")
        return self.plan.solve(r)


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
    schedule = finish = None
    if n >= LEVEL_MIN_ROWS and _kernels.symmetric_pattern(n, M.indptr, M.indices):
        # None unless the levels average LEVEL_MIN_WIDTH rows
        schedules = _kernels.lower_schedule(lu_indptr, lu_indices, lu_diag,
                                            n // LEVEL_MIN_WIDTH)
        if schedules is not None:
            schedule, finish = schedules
    lu_data, fail_row = _kernels.ilu_numeric(
        n, M.indptr, M.indices, M.data, lu_indptr, lu_indices, lu_diag, finish)
    if fail_row >= 0:
        raise ZeroPivot(int(fail_row))
    if schedule is None:
        plan = _kernels.RowPlan(lu_indptr, lu_indices, lu_data, lu_diag)
    else:
        plan = _kernels.SolvePlan(lu_indptr, lu_indices, lu_data, lu_diag, schedule)
    return ILUFactorization(n, lu_indptr, lu_indices, lu_data, lu_diag, plan)
