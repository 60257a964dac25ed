"""Incomplete Cholesky factorization with level-of-fill control, IC(k).

A matrix flagged symmetric is factored as A ~ U^T D^-1 U, D the diagonal of
U, and only U is filled, stored and updated (``_kernels``).  Fill entries
enter while their level, min over pivots p of lev(p,i) + lev(p,j) + 1 with
originals at level 0, stays within the bound.  Large blocks with wide
levels are factored by levels, small or chain-like ones row by row, with
the same bits; every factor solves in two compiled calls.
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
    """IC(k) factor U in CSR, each row starting with its pivot, and the
    operands of ``_kernels.lu_solve``.  ``indptr``, ``indices`` and ``data``
    view it as a combined LU factor, L = U^T D^-1 below the diagonal (its
    unit diagonal implicit), built on first use and not by the solves."""

    __slots__ = ("n", "u_indptr", "u_indices", "u_data", "lower", "upper", "pivots",
                 "_lu")

    def __init__(self, n, u_indptr, u_indices, u_data):
        self.n, self.u_indptr, self.u_indices, self.u_data = n, u_indptr, u_indices, u_data
        self.lower, self.upper, self.pivots = _kernels.lu_solve_operands(
            u_indptr, u_indices, u_data)
        self._lu = None

    def _combined(self):
        if self._lu is None:
            # row i: strict L, the negated forward operand, then U
            l_indptr, l_indices, l_data = self.lower
            at = self.u_indptr[:-1].repeat(np.diff(l_indptr))
            self._lu = (l_indptr + self.u_indptr, np.insert(self.u_indices, at, l_indices),
                        np.insert(self.u_data, at, -l_data))
        return self._lu

    nnz = property(lambda self: self.u_indices.size, doc="Stored entries of U.")
    indptr = property(lambda self: self._combined()[0])
    indices = property(lambda self: self._combined()[1])
    data = property(lambda self: self._combined()[2])

    def solve(self, r: np.ndarray) -> np.ndarray:
        """Forward/back substitution: returns (U^T D^-1 U)^-1 r."""
        if r.shape[0] != self.n:
            raise ValueError(f"vector has length {r.shape[0]}, expected {self.n}")
        return _kernels.lu_solve(self.lower, self.upper, self.pivots, r)


def ilu_k(M: SparseMatrixCSR, k: int) -> ILUFactorization:
    """IC(k) factor of M with fill level k (k=0 keeps the input pattern).
    M must be flagged symmetric, which makes it square."""
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
    # None unless the levels average LEVEL_MIN_WIDTH rows
    finish = _kernels.lower_schedule(lower[0], lower[1], lower[0][1:] - 1,
                                     n // LEVEL_MIN_WIDTH) if n >= LEVEL_MIN_ROWS else None
    u_data, fail_row = _kernels.ilu_numeric(
        n, M.indptr, M.indices, M.data, u_indptr, u_indices, lower, finish)
    if fail_row >= 0:
        raise ZeroPivot(int(fail_row))
    return ILUFactorization(n, u_indptr, u_indices, u_data)
