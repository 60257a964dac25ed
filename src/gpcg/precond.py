"""Preconditioners for the reduced CG solve: identity, inverse diagonal, and
block Jacobi with an incomplete LU solve per diagonal block.

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


class Preconditioner:
    """Base preconditioner: identity.  ``apply`` returns a new array, which
    CG then updates in place."""

    def apply(self, r: np.ndarray) -> np.ndarray:
        return r.copy()


class PointJacobi(Preconditioner):
    def __init__(self, M: SparseMatrixCSR):
        diag = M.diagonal()
        bad = np.flatnonzero(diag <= 0.0)
        if bad.size:  # a_ii is the curvature e_i' M e_i
            raise NotConvexError(f"point Jacobi: diagonal entry {diag[bad[0]]} "
                                 f"in row {bad[0]} is not positive")
        self.inv_diag = 1.0 / diag

    def apply(self, r: np.ndarray) -> np.ndarray:
        if r.shape[0] != self.inv_diag.shape[0]:
            raise ValueError("dimension mismatch")
        return r * self.inv_diag


class BlockJacobiILU(Preconditioner):
    """IC(k) factors of M's diagonal blocks.  ``grown`` puts the same
    factors to work on a matrix with more rows: the factored rows sit at
    positions ``pos`` among them, and the rows that joined get point Jacobi
    from ``inv_diag``."""

    def __init__(self, M: SparseMatrixCSR, fill_level: int, blocks: int):
        self.m = M.nrows
        self.ranges = block_ranges(M.nrows, blocks)
        self.fill_level = fill_level
        self.pos = self.inv_diag = None
        self.factors: list[ILUFactorization] = []
        for lo, hi in self.ranges:
            # one block spanning M factors M itself, with any zeros M
            # stores; an extracted block drops them
            block = M if hi - lo == M.nrows else extract_submatrix(
                M, np.arange(lo, hi, dtype=np.int64))
            self.factors.append(ilu_k(block, fill_level))

    def grown(self, pos: np.ndarray, M: SparseMatrixCSR) -> BlockJacobiILU:
        """This preconditioner, built on its own matrix, for M, whose rows
        ``pos`` (increasing) are the rows factored here, in order: the
        factors on those rows, point Jacobi on the others.  The operator is
        block diagonal, so it is symmetric positive definite when the
        factors are.  Returns self when M has no other rows."""
        if pos.size == M.nrows:
            return self
        grown = copy.copy(self)
        grown.m, grown.pos, grown.inv_diag = M.nrows, pos, PointJacobi(M).inv_diag
        return grown

    def apply(self, r: np.ndarray) -> np.ndarray:
        if r.shape[0] != self.m:
            raise ValueError("dimension mismatch")
        kept = r if self.pos is None else r[self.pos]
        z = np.empty_like(kept)
        for (lo, hi), factor in zip(self.ranges, self.factors):
            z[lo:hi] = factor.solve(kept[lo:hi])
        if self.pos is None:
            return z
        out = r * self.inv_diag  # the factored positions are overwritten
        out[self.pos] = z
        return out


def make_preconditioner(M: SparseMatrixCSR, precond: str,
                        blocks: int = 1) -> Preconditioner:
    """Build the preconditioner that the selection string names for M;
    ``blocks`` is the diagonal block count of block Jacobi."""
    fill_level = parse_precond(precond)
    if fill_level is not None:
        return BlockJacobiILU(M, fill_level, blocks)
    if precond.strip() == "none":
        return Preconditioner()
    return PointJacobi(M)
