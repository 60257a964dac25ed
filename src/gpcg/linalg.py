"""Dense vectors, CSR matrices and the products and principal submatrices
the solver takes of them.

Vectors are plain float64 numpy arrays.  Bound vectors may hold +/-inf; all
other vectors are expected to be finite.  An index set is a strictly
increasing int64 array, as ``np.flatnonzero`` returns it.  ``mat_vec`` sums each row left to
right, so its result does not depend on the machine or thread count;
``dot`` and ``norm2`` call BLAS, whose summation order may depend on both.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from . import _kernels


def as_vector(values) -> np.ndarray:
    """Coerce to a contiguous float64 vector."""
    v = np.ascontiguousarray(values, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError(f"expected a 1-D vector, got shape {v.shape}")
    return v


class SparseMatrixCSR:
    """Compressed-sparse-row matrix with sorted column indices per row.

    Symmetric matrices are stored in full (both triangles) and carry a
    ``symmetric`` flag that is verified on construction.
    """

    __slots__ = ("nrows", "ncols", "indptr", "indices", "data", "symmetric",
                 "_scipy")

    def __init__(self, nrows, ncols, indptr, indices, data,
                 symmetric: bool = False, validate: bool = True):
        self.nrows = int(nrows)
        self.ncols = int(ncols)
        self.indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        self.indices = np.ascontiguousarray(indices, dtype=np.int64)
        self.data = np.ascontiguousarray(data, dtype=np.float64)
        self.symmetric = bool(symmetric)
        self._scipy = None
        if validate:
            self._validate()

    def _validate(self):
        if self.nrows < 0 or self.ncols < 0:
            raise ValueError("negative dimension")
        if self.indptr.shape != (self.nrows + 1,):
            raise ValueError("row offsets must have length nrows+1")
        if self.indptr[0] != 0 or self.indptr[-1] != self.indices.size:
            raise ValueError("row offsets must start at 0 and end at nnz")
        if (np.diff(self.indptr) < 0).any():
            raise ValueError("row offsets must be nondecreasing")
        if self.indices.size != self.data.size:
            raise ValueError("indices and values length mismatch")
        if self.indices.size:
            if self.indices.min() < 0 or self.indices.max() >= self.ncols:
                raise ValueError("column index out of range")
            # strictly increasing within each row (row changes excuse the reset)
            rows = np.repeat(np.arange(self.nrows, dtype=np.int64),
                             np.diff(self.indptr))
            ok = (np.diff(self.indices) > 0) | (np.diff(rows) > 0)
            if not ok.all():
                raise ValueError("column indices must be strictly increasing per row")
        if not np.isfinite(self.data).all():
            raise ValueError("matrix values must be finite")
        if self.symmetric:
            if self.nrows != self.ncols:
                raise ValueError("symmetric flag on a non-square matrix")
            if not self._symmetry_holds():
                raise ValueError("symmetric flag set but storage is not symmetric")

    def _symmetry_holds(self) -> bool:
        rows = np.repeat(np.arange(self.nrows, dtype=np.int64),
                         np.diff(self.indptr))
        order = np.lexsort((rows, self.indices))
        return (np.array_equal(self.indices[order], rows)
                and np.array_equal(rows[order], self.indices)
                and np.array_equal(self.data[order], self.data))

    @property
    def nnz(self) -> int:
        return self.indices.size

    @property
    def scipy(self) -> sp.csr_array:
        """A ``scipy.sparse`` view sharing this matrix's arrays, built on
        first use."""
        if self._scipy is None:
            self._scipy = sp.csr_array((self.data, self.indices, self.indptr),
                                       shape=(self.nrows, self.ncols), copy=False)
        return self._scipy

    @classmethod
    def from_coo(cls, rows, cols, vals, nrows, ncols,
                 symmetric: bool = False, validate: bool = True) -> "SparseMatrixCSR":
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        vals = np.asarray(vals, dtype=np.float64)
        order = np.lexsort((cols, rows))
        rows, cols, vals = rows[order], cols[order], vals[order]
        if rows.size:
            dup = np.zeros(rows.size, dtype=bool)
            dup[1:] = (rows[1:] == rows[:-1]) & (cols[1:] == cols[:-1])
            if dup.any():
                group = np.cumsum(~dup) - 1
                vals = np.bincount(group, weights=vals)
                rows = rows[~dup]
                cols = cols[~dup]
        indptr = np.zeros(nrows + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=nrows), out=indptr[1:])
        return cls(nrows, ncols, indptr, cols, vals,
                   symmetric=symmetric, validate=validate)

    @classmethod
    def from_dense(cls, arr, symmetric: bool = False) -> "SparseMatrixCSR":
        a = np.asarray(arr, dtype=np.float64)
        if a.ndim != 2:
            raise ValueError("expected a 2-D array")
        rows, cols = np.nonzero(a)
        return cls.from_coo(rows, cols, a[rows, cols], a.shape[0], a.shape[1],
                            symmetric=symmetric)

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self.nrows, self.ncols))
        rows = np.repeat(np.arange(self.nrows), np.diff(self.indptr))
        out[rows, self.indices] = self.data
        return out

    def diagonal(self) -> np.ndarray:
        if self.nrows != self.ncols:
            raise ValueError("diagonal of a non-square matrix")
        rows = np.repeat(np.arange(self.nrows, dtype=np.int64),
                         np.diff(self.indptr))
        out = np.zeros(self.nrows)
        hit = rows == self.indices
        out[rows[hit]] = self.data[hit]
        return out

    def __repr__(self) -> str:
        return (f"SparseMatrixCSR({self.nrows}x{self.ncols}, nnz={self.nnz}, "
                f"symmetric={self.symmetric})")


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def mat_vec(A: SparseMatrixCSR, x: np.ndarray) -> np.ndarray:
    """Return A @ x; each row is summed left to right, starting from zero."""
    if A.ncols != x.shape[0]:
        raise ValueError(f"matrix has {A.ncols} columns but vector has {x.shape[0]}")
    return A.scipy @ x


def extract_submatrix(A: SparseMatrixCSR, idx: np.ndarray) -> SparseMatrixCSR:
    """Return the principal submatrix A[idx, idx] for a strictly increasing
    index array; entries stored as zero are dropped.  It keeps A's symmetry
    flag."""
    if idx.size and (idx[0] < 0 or idx[-1] >= A.nrows):
        raise ValueError("index out of range")
    colmap = np.full(A.ncols, -1, dtype=np.int64)
    colmap[idx] = np.arange(idx.size, dtype=np.int64)
    indptr, indices, data = _kernels.csr_extract(A.indptr, A.indices, A.data,
                                                 idx, colmap)
    return SparseMatrixCSR(idx.size, idx.size, indptr, indices, data,
                           symmetric=A.symmetric, validate=False)


def dot(x: np.ndarray, y: np.ndarray) -> float:
    if x.shape != y.shape:
        raise ValueError("shape mismatch")
    return float(np.dot(x, y))


def norm2(x: np.ndarray) -> float:
    if x.size == 0:
        return 0.0
    return float(np.linalg.norm(x))
