"""The preconditioner of the reduced CG solve: IC(k) factors of diagonal
blocks, then point Jacobi or the identity on the rows they leave; and
``FaceRule``, which decides the operator of each new face of a solve.

Selection strings: ``none``, ``jacobi``, ``bjacobi-ilu<k>`` (for example
``bjacobi-ilu0`` or ``bjacobi-ilu2``).  The block count of block Jacobi is
a separate argument, ``SolverConfig.blocks`` in the solver.
"""

from __future__ import annotations

import numpy as np

from .errors import NotConvexError
from .ilu import ILUFactorization, ilu_k
from .linalg import SparseMatrixCSR, extract_submatrix

REUSE_JOINED = 0.10  # largest share of a face's variables that ``reuse`` leaves unfactored


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
    ``inv_diag``; None is M's own order.  ``order`` and its ``inverse``
    are int64, numpy's index dtype, unlike the factors' index arrays:
    ``apply`` takes with them, and ``take`` would cast an int32 index array
    on every call.  The operator is block diagonal, so it is symmetric
    positive definite when each factor is.  ``apply`` returns a new array,
    which CG then updates in place."""

    def __init__(self, m: int, fill_level: int | None = None):
        self.m = m
        self.fill_level = fill_level
        self.order = self.inverse = self.inv_diag = None
        self.blocks: list[tuple[slice, ILUFactorization]] = []

    @property
    def factored(self) -> int:
        """How many rows, the first of ``order``, the factors cover."""
        return self.blocks[-1][0].stop if self.blocks else 0

    def _follow(self, pos: np.ndarray, M: SparseMatrixCSR,
                extend: bool) -> Preconditioner:
        """This preconditioner for M, whose rows ``pos`` (increasing) are
        its rows in order: the factors on their rows, first in ``order``,
        then point Jacobi on M's other rows, or with ``extend`` the IC(k)
        factor of their principal submatrix; self when M has no others."""
        if pos.size == M.nrows:
            return self
        factored = self.factored
        head = pos if self.order is None else pos[self.order[:factored]]
        rest = np.ones(M.nrows, dtype=bool)
        rest[head] = False
        moved = Preconditioner(M.nrows, self.fill_level)
        moved.order = np.concatenate((head, rest.nonzero()[0]))
        moved.inverse = np.empty_like(moved.order)
        moved.inverse[moved.order] = np.arange(M.nrows)
        rows = moved.order[factored:]
        if extend:
            moved.blocks = [*self.blocks, (slice(factored, M.nrows),
                                           ilu_k(extract_submatrix(M, rows), self.fill_level))]
        else:
            moved.blocks, moved.inv_diag = self.blocks, _inverse_diagonal(M, rows)
        return moved

    def apply(self, r: np.ndarray) -> np.ndarray:
        if r.shape[0] != self.m:
            raise ValueError("dimension mismatch")
        # each block is solved in z: in place in the gathered copy of r, or
        # from r itself, which is never written
        z = np.empty_like(r) if self.order is None else r.take(self.order)
        src = r if self.order is None else z
        for rows, factor in self.blocks:
            factor.solve(src[rows], out=z[rows])
        left = slice(self.factored, self.m)
        if self.inv_diag is not None:
            np.multiply(src[left], self.inv_diag, out=z[left])
        elif src is r:
            z[left] = r[left]
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


def _grown_positions(factored: np.ndarray, free: np.ndarray) -> np.ndarray | None:
    """Where the variables ``factored`` sit in ``free`` (both strictly
    increasing index sets) when ``free`` holds them all; else None."""
    if free.size < factored.size:
        return None
    pos = free.searchsorted(factored)
    return pos if (free.take(pos, mode="clip") == factored).all() else None


class FaceRule:
    """The preconditioner of each new face of one solve.  A face that holds
    every variable factored keeps the IC(k) factors and gives the variables
    joined since point Jacobi (``reuse``) or one more factor (``extend``);
    any other face gets a new preconditioner (``build``)."""

    def __init__(self, precond: str, blocks: int = 1):
        self.precond, self.blocks = precond, blocks
        self.kept = None  # free set the IC(k) factors cover, and their preconditioner

    def for_face(self, free: np.ndarray, A_k: SparseMatrixCSR
                 ) -> tuple[Preconditioner, str]:
        """The preconditioner of A_k, the reduced matrix of the free set
        ``free``, and how it was made: ``build``, ``reuse`` or ``extend``."""
        pos = None if self.kept is None else _grown_positions(self.kept[0], free)
        if pos is None:  # the first face, or one that lost a factored variable
            self.kept = None  # let the factors go before the next are built
            P, outcome = make_preconditioner(A_k, self.precond, self.blocks), "build"
        elif free.size - pos.size <= REUSE_JOINED * free.size:
            return self.kept[1]._follow(pos, A_k, extend=False), "reuse"
        else:
            P, outcome = self.kept[1]._follow(pos, A_k, extend=True), "extend"
        self.kept = (free, P) if P.blocks else None
        return P, outcome
