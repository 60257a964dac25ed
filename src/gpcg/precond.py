"""Preconditioners for the reduced CG solve: identity, inverse diagonal, and
block Jacobi with an incomplete LU solve per diagonal block.

Selection strings: ``none``, ``jacobi``, ``bjacobi-ilu<k>`` (for example
``bjacobi-ilu0`` or ``bjacobi-ilu2``).  The block count of block Jacobi is
a separate argument, ``SolverConfig.blocks`` in the solver.
"""

from __future__ import annotations

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
    def __init__(self, M: SparseMatrixCSR, fill_level: int, blocks: int):
        self.m = M.nrows
        self.ranges = block_ranges(M.nrows, blocks)
        self.fill_level = fill_level
        self.factors: list[ILUFactorization] = []
        for lo, hi in self.ranges:
            # one block spanning M factors M itself, with any zeros M
            # stores; an extracted block drops them
            block = M if hi - lo == M.nrows else extract_submatrix(
                M, np.arange(lo, hi, dtype=np.int64))
            self.factors.append(ilu_k(block, fill_level))

    def apply(self, r: np.ndarray) -> np.ndarray:
        if r.shape[0] != self.m:
            raise ValueError("dimension mismatch")
        z = np.empty_like(r)
        for (lo, hi), factor in zip(self.ranges, self.factors):
            z[lo:hi] = factor.solve(r[lo:hi])
        return z


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
