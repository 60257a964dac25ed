"""Incomplete Cholesky factorization with level-of-fill control, IC(k).

A matrix flagged symmetric is factored as A ~ U^T D^-1 U, D the diagonal of
U, and only U is filled, stored and updated (``_kernels``).  Fill entries
enter while their level, min over pivots p of lev(p,i) + lev(p,j) + 1 with
originals at level 0, stays within the bound.  Large blocks whose
elimination takes few steps for their size are factored by levels, small
or chain-like ones row by row, with the same bits; every factor solves in
two compiled calls.
"""

from __future__ import annotations

import numpy as np

from . import _kernels
from .errors import ZeroPivot
from .linalg import SparseMatrixCSR


# The level form of the numeric phase costs a pass over strict L (its
# schedule) and a few numpy calls per elimination step and chunk, so it
# pays only on large blocks with few steps; the gate picks the numeric form
# only, as the solves are the same on every factor.  Measured on a 2-vCPU
# host, schedule plus numeric phase against the row loop:
# * on interleaved chains of n = 1024-4096 (row i coupled to row i - w,
#   one or two entries a row), the level form loses 2.5-4.7x at one or two
#   rows a step and 1.3-2.2x at five; it breaks even near eight rows a
#   step with two entries a row and 12-14 with one;
# * on bearing blocks (nx = 30-70, n = 480-3306), whose steps hold more
#   work, it takes 0.40-0.82 of the row loop's time at ILU(2) from 3.7 rows
#   a step on, and at ILU(0) from 7.8 rows a step on; on grid Laplacians of
#   1024-4096 rows, 0.37-0.65 from 6.6 rows a step on.
# LEVEL_MIN_WIDTH = 5 keeps bearing ILU(2) blocks from nx = 40 on the level
# form at the cost of thin chains.  The schedule gives up as soon as it
# takes more steps than n / LEVEL_MIN_WIDTH, so chain-like blocks pay a
# fraction of it.  Near LEVEL_MIN_ROWS the two forms are close: on grid20
# and random-300 blocks (n = 400, 300) the level form takes 0.98-1.29 of
# the row loop's time where the gate lets it run.
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
    M must be flagged symmetric, which makes it square.  The numeric phase
    runs by levels when M has at least LEVEL_MIN_ROWS rows and takes at
    most n / LEVEL_MIN_WIDTH elimination steps, else row by row."""
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
    # None unless the steps average LEVEL_MIN_WIDTH rows
    steps = (_kernels.elimination_steps(u_indptr, lower, n // LEVEL_MIN_WIDTH)
             if n >= LEVEL_MIN_ROWS else None)
    u_data, fail_row = _kernels.ilu_numeric(
        n, M.indptr, M.indices, M.data, u_indptr, u_indices, lower, steps)
    if fail_row >= 0:
        raise ZeroPivot(int(fail_row))
    return ILUFactorization(n, u_indptr, u_indices, u_data)
