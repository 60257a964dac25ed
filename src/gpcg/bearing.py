"""Journal-bearing benchmark: five-point finite-difference discretization of
the lubrication variational problem on (0, 2*pi) x (0, 2*b_dom), with a
nonnegativity constraint on the film pressure (l = 0, u = +inf).

Grid counts refer to interior points; the variable at grid cell (i, j) has
index (j-1)*nx + (i-1), so consecutive indices sweep the first coordinate.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .linalg import SparseMatrixCSR, index_dtype
from .model import BoundQP


@dataclass(frozen=True)
class BearingSpec:
    nx: int
    ny: int
    eccentricity: float
    b_dom: float = 10.0  # domain half-height

    def __post_init__(self):
        try:  # numpy integers pass, floats do not
            counts = operator.index(self.nx), operator.index(self.ny)
        except TypeError:
            raise ValueError("grid counts must be integers") from None
        if min(counts) < 1:
            raise ValueError("grid counts must be at least 1")
        if not 0.0 <= self.eccentricity < 1.0:
            raise ValueError("eccentricity must lie in [0, 1)")
        if not (math.isfinite(self.b_dom) and self.b_dom > 0.0):
            raise ValueError("domain half-height must be positive and finite")

    @property
    def n(self) -> int:
        return self.nx * self.ny


def wq(xi1, eps: float):
    """Coefficient (1 + eps*cos(xi1))^3 weighting the quadratic term."""
    return (1.0 + eps * np.cos(xi1)) ** 3


def wl(xi1, eps: float):
    """Coefficient eps*sin(xi1) driving the linear term."""
    return eps * np.sin(xi1)


def generate(spec: BearingSpec) -> BoundQP:
    """Assemble the bound-constrained QP for the given grid."""
    nx, ny = spec.nx, spec.ny
    eps = spec.eccentricity
    hx = 2.0 * np.pi / (nx + 1)
    hy = 2.0 * spec.b_dom / (ny + 1)
    n = nx * ny

    # midpoint samples of the quadratic weight, one per vertical cell edge;
    # row (i, j) weighs its edges with (i-1, j) and (i+1, j) by lam_w[i-1]
    # and lam_e[i-1], so every coefficient depends on i alone
    lam = wq((np.arange(nx + 1) + 0.5) * hx, eps)
    lam_w, lam_e = lam[:-1], lam[1:]
    diag = (hy / hx + hx / hy) * (lam_w + lam_e)
    horiz_w = -(hy / hx) * lam_w
    horiz_e = -(hy / hx) * lam_e
    vert = -(hx / hy) * 0.5 * (lam_w + lam_e)

    # the stencil in column order: the rows (i, j), on the ny x nx grid,
    # that have the entry, its column less the row's, and its value by i
    stencil = [(np.s_[1:, :], -nx, vert), (np.s_[:, 1:], -1, horiz_w),
               (np.s_[:, :], 0, diag), (np.s_[:, :-1], 1, horiz_e),
               (np.s_[:-1, :], nx, vert)]
    idx = index_dtype(n, 5 * n - 2 * nx - 2 * ny)  # built in it, not cast
    count = np.zeros((ny, nx), dtype=idx)
    for rows, _, _ in stencil:
        count[rows] += 1
    indptr = np.zeros(n + 1, dtype=idx)
    np.cumsum(count, out=indptr[1:])
    del count
    grid = np.arange(n, dtype=idx).reshape(ny, nx)
    slot = indptr[:-1].reshape(ny, nx).copy()  # each row's next entry
    indices = np.empty(indptr[n], dtype=idx)
    data = np.empty(indptr[n], dtype=np.float64)
    for rows, offset, value in stencil:
        at = slot[rows]
        indices[at] = grid[rows] + offset
        data[at] = value[rows[1]]
        at += 1
    del grid, slot
    A = SparseMatrixCSR(n, n, indptr, indices, data, symmetric=True, validate=False)

    b = np.tile(-hx * hy * wl(np.arange(1, nx + 1) * hx, eps), ny)
    l = np.zeros(n)
    u = np.full(n, np.inf)
    return BoundQP(A, b, 0.0, l, u)
