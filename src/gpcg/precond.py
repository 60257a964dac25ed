"""The preconditioner of the reduced CG solve: IC(k) factors of diagonal
blocks, then point Jacobi or the identity on the rows they leave.

Selection strings: ``none``, ``jacobi``, ``bjacobi-ilu<k>`` (for example
``bjacobi-ilu0`` or ``bjacobi-ilu2``).  The block count of block Jacobi is
a separate argument, ``SolverConfig.blocks`` in the solver.
"""

from __future__ import annotations

import copy

import numpy as np

from .errors import NotConvexError
from .ilu import ILUFactorization, ilu_k
from .linalg import SparseMatrixCSR, extract_submatrix


def parse_precond(text: str) -> int | None:
    """Check a selection string; return the fill level k of
    ``bjacobi-ilu<k>``, None for ``none`` and ``jacobi``."""
    body = text.strip()
    if body in ("none", "jacobi"):
        return None
    if body.startswith("bjacobi-ilu"):
        # ASCII digits only: int() also takes signs, spaces, underscores
        # and other scripts' digits
        digits = body[len("bjacobi-ilu"):]
        if digits.isascii() and digits.isdigit():
            return int(digits)
    raise ValueError(f"unrecognized preconditioner {text!r}")


def block_ranges(m: int, blocks: int) -> list[tuple[int, int]]:
    """Contiguous ranges covering [0, m) with sizes differing by at most 1.
    The block count is clamped to m so no block is empty."""
    p = max(1, min(blocks, m))
    base, extra = divmod(m, p)
    ranges = []
    start = 0
    for i in range(p):
        size = base + (1 if i < extra else 0)
        ranges.append((start, start + size))
        start += size
    return ranges


def _inverse_diagonal(M: SparseMatrixCSR, rows: np.ndarray | None = None) -> np.ndarray:
    """1 / a_ii of M on ``rows``, or on every row when None."""
    diag = M.diagonal()
    if rows is not None:
        diag = diag[rows]
    bad = np.flatnonzero(diag <= 0.0)
    if bad.size:  # a_ii is the curvature e_i' M e_i
        row = bad[0] if rows is None else rows[bad[0]]
        raise NotConvexError(f"point Jacobi: diagonal entry {diag[bad[0]]} "
                             f"in row {row} is not positive")
    return 1.0 / diag


class Preconditioner:
    """IC(k) factors of diagonal blocks of an m-row matrix M, then point
    Jacobi on the rows they leave, or the identity there when ``inv_diag``
    is None: ``none`` has no factors and no ``inv_diag``, ``jacobi`` no
    factors.  ``order`` lists M's rows: first each factor's rows, at the
    range ``blocks`` pairs with it, then the rows left, whose 1 / a_ii are
    ``inv_diag``; None is M's own order.  The operator is block diagonal,
    so it is symmetric positive definite when each factor is.  ``grown``
    and ``extended`` put the factors to work on a matrix with more rows.
    ``apply`` returns a new array, which CG then updates in place."""

    def __init__(self, m: int, fill_level: int | None = None):
        self.m = m
        self.fill_level = fill_level
        self.order = self.inverse = self.inv_diag = None
        self.blocks: list[tuple[slice, ILUFactorization]] = []

    @property
    def factored(self) -> int:
        """How many rows, the first of ``order``, the factors cover."""
        return self.blocks[-1][0].stop if self.blocks else 0

    def _moved(self, pos: np.ndarray, M: SparseMatrixCSR
               ) -> tuple[Preconditioner, np.ndarray]:
        """A copy for M, whose rows ``pos`` (increasing) are this
        preconditioner's rows in order, with the factors' rows first in its
        ``order``; and the rows of M after them, for the caller to give an
        operator."""
        factored = self.factored
        head = pos if self.order is None else pos[self.order[:factored]]
        rest = np.ones(M.nrows, dtype=bool)
        rest[head] = False
        moved = copy.copy(self)
        moved.m = M.nrows
        moved.order = np.concatenate((head, np.flatnonzero(rest)))
        moved.inverse = np.empty_like(moved.order)
        moved.inverse[moved.order] = np.arange(M.nrows)
        return moved, moved.order[factored:]

    def grown(self, pos: np.ndarray, M: SparseMatrixCSR) -> Preconditioner:
        """This preconditioner for M, whose rows ``pos`` (increasing) are
        its rows in order: the factors on their rows, point Jacobi on the
        others.  Returns self when M has no other rows."""
        if pos.size == M.nrows:
            return self
        grown, rows = self._moved(pos, M)
        grown.inv_diag = _inverse_diagonal(M, rows)
        return grown

    def extended(self, pos: np.ndarray, M: SparseMatrixCSR) -> Preconditioner:
        """This preconditioner for M, whose rows ``pos`` (increasing) are
        its rows in order: the factors on their rows, and the IC(k) factor
        of M's principal submatrix on the others as one more block."""
        extended, rows = self._moved(pos, M)
        extended.inv_diag = None
        extended.blocks = [*self.blocks, (slice(M.nrows - rows.size, M.nrows),
                                          ilu_k(extract_submatrix(M, rows), self.fill_level))]
        return extended

    def apply(self, r: np.ndarray) -> np.ndarray:
        if r.shape[0] != self.m:
            raise ValueError("dimension mismatch")
        if self.order is not None:
            r = r.take(self.order)
        z = np.empty_like(r)
        for rows, factor in self.blocks:
            z[rows] = factor.solve(r[rows])
        factored = self.factored
        if factored < self.m:
            left = slice(factored, self.m)
            if self.inv_diag is None:
                z[left] = r[left]
            else:
                np.multiply(r[left], self.inv_diag, out=z[left])
        return z if self.order is None else z.take(self.inverse)


def make_preconditioner(M: SparseMatrixCSR, precond: str,
                        blocks: int = 1) -> Preconditioner:
    """Build the preconditioner that the selection string names for M;
    ``blocks`` is the diagonal block count of block Jacobi."""
    fill_level = parse_precond(precond)
    P = Preconditioner(M.nrows, fill_level)
    if fill_level is not None:
        for lo, hi in block_ranges(M.nrows, blocks):
            # one block spanning M factors M itself, with any zeros M
            # stores; an extracted block drops them
            block = M if hi - lo == M.nrows else extract_submatrix(
                M, np.arange(lo, hi, dtype=np.int64))
            P.blocks.append((slice(lo, hi), ilu_k(block, fill_level)))
    elif precond.strip() == "jacobi":
        P.inv_diag = _inverse_diagonal(M)
    return P
