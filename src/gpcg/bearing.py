"""Journal-bearing benchmark: five-point finite-difference discretization of
the lubrication variational problem on (0, 2*pi) x (0, 2*b_dom), with a
nonnegativity constraint on the film pressure (l = 0, u = +inf).

Grid counts refer to interior points; the variable at grid cell (i, j) has
index (j-1)*nx + (i-1), so consecutive indices sweep the first coordinate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import SparseMatrixCSR
from .model import BoundQP


@dataclass(frozen=True)
class BearingSpec:
    nx: int
    ny: int
    eccentricity: float
    b_dom: float = 10.0  # domain half-height

    def __post_init__(self):
        if self.nx < 1 or self.ny < 1:
            raise ValueError("grid counts must be at least 1")
        if not 0.0 <= self.eccentricity < 1.0:
            raise ValueError("eccentricity must lie in [0, 1)")
        if self.b_dom <= 0.0:
            raise ValueError("domain half-height must be positive")

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

    # midpoint samples of the quadratic weight, one per vertical cell edge
    lam = wq((np.arange(nx + 1) + 0.5) * hx, eps)

    ii = np.tile(np.arange(1, nx + 1), ny)       # first-coordinate index
    jj = np.repeat(np.arange(1, ny + 1), nx)     # second-coordinate index
    lam_w = lam[ii - 1]                          # edge shared with (i-1, j)
    lam_e = lam[ii]                              # edge shared with (i+1, j)

    diag = (hy / hx + hx / hy) * (lam_w + lam_e)
    horiz_w = -(hy / hx) * lam_w
    horiz_e = -(hy / hx) * lam_e
    vert = -(hx / hy) * 0.5 * (lam_w + lam_e)

    v = np.arange(n, dtype=np.int64)
    cols = np.stack([v - nx, v - 1, v, v + 1, v + nx], axis=1)
    vals = np.stack([vert, horiz_w, diag, horiz_e, vert], axis=1)
    keep = np.stack([jj > 1, ii > 1, np.ones(n, dtype=bool),
                     ii < nx, jj < ny], axis=1)

    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(keep.sum(axis=1), out=indptr[1:])
    A = SparseMatrixCSR(n, n, indptr, cols[keep], vals[keep],
                        symmetric=True, validate=False)

    b = -hx * hy * wl(ii * hx, eps)
    l = np.zeros(n)
    u = np.full(n, np.inf)
    return BoundQP(A, b, 0.0, l, u)
