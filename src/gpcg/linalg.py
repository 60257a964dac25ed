"""Dense vectors, CSR matrices, index sets, and the gather/scatter kernels.

Vectors are plain float64 numpy arrays.  Bound vectors may hold +/-inf; all
other vectors are expected to be finite.  ``mat_vec`` sums each row left to
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


class IndexSet:
    """Strictly increasing set of integer indices in [0, n)."""

    __slots__ = ("indices",)

    def __init__(self, indices, n: int | None = None, validate: bool = True):
        idx = np.ascontiguousarray(indices, dtype=np.int64)
        if idx.ndim != 1:
            raise ValueError("index set must be one dimensional")
        if validate and idx.size:
            if not (np.diff(idx) > 0).all():
                raise ValueError("indices must be strictly increasing")
            if idx[0] < 0:
                raise ValueError("negative index")
            if n is not None and idx[-1] >= n:
                raise ValueError(f"index {idx[-1]} out of range for n={n}")
        self.indices = idx

    @classmethod
    def from_mask(cls, mask) -> "IndexSet":
        return cls(np.flatnonzero(mask), validate=False)

    @classmethod
    def full(cls, n: int) -> "IndexSet":
        return cls(np.arange(n, dtype=np.int64), validate=False)

    @classmethod
    def empty(cls) -> "IndexSet":
        return cls(np.empty(0, dtype=np.int64), validate=False)

    def complement(self, n: int) -> "IndexSet":
        mask = np.ones(n, dtype=bool)
        mask[self.indices] = False
        return IndexSet.from_mask(mask)

    def __len__(self) -> int:
        return self.indices.size

    def __array__(self, dtype=None, copy=None):
        return np.array(self.indices, dtype=dtype, copy=bool(copy))

    def __eq__(self, other) -> bool:
        if isinstance(other, IndexSet):
            return np.array_equal(self.indices, other.indices)
        return NotImplemented

    def __hash__(self):
        return hash(self.indices.tobytes())

    def __repr__(self) -> str:
        return f"IndexSet({self.indices.tolist()!r})"


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


def extract_submatrix(A: SparseMatrixCSR, rows: IndexSet, cols: IndexSet) -> SparseMatrixCSR:
    """Return the submatrix A[rows, cols]; entries stored as zero are dropped."""
    r = rows.indices
    c = cols.indices
    if r.size and (r[0] < 0 or r[-1] >= A.nrows):
        raise ValueError("row index out of range")
    if c.size and (c[0] < 0 or c[-1] >= A.ncols):
        raise ValueError("column index out of range")
    colmap = np.full(A.ncols, -1, dtype=np.int64)
    colmap[c] = np.arange(c.size, dtype=np.int64)
    indptr, indices, data = _kernels.csr_extract(A.indptr, A.indices, A.data, r, colmap)
    sym = A.symmetric and np.array_equal(r, c)
    return SparseMatrixCSR(r.size, c.size, indptr, indices, data,
                           symmetric=sym, validate=False)


def gather(v: np.ndarray, s: IndexSet) -> np.ndarray:
    """Pick out v at the indices of s, in order."""
    idx = s.indices
    if idx.size and (idx[0] < 0 or idx[-1] >= v.shape[0]):
        raise ValueError("index out of range")
    return v[idx]


def scatter(w: np.ndarray, s: IndexSet, base: np.ndarray) -> np.ndarray:
    """Write w into a copy of base at the indices of s."""
    idx = s.indices
    if w.shape[0] != idx.size:
        raise ValueError(f"got {w.shape[0]} values for {idx.size} indices")
    if idx.size and (idx[0] < 0 or idx[-1] >= base.shape[0]):
        raise ValueError("index out of range")
    out = base.copy()
    out[idx] = w
    return out


def pointwise_median(l: np.ndarray, u: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Componentwise median of (l, u, x); clips x into the box [l, u]."""
    if not (l.shape == u.shape == x.shape):
        raise ValueError("shape mismatch")
    if (l > u).any():
        raise ValueError("lower bound exceeds upper bound")
    return np.minimum(np.maximum(x, l), u)


def dot(x: np.ndarray, y: np.ndarray) -> float:
    if x.shape != y.shape:
        raise ValueError("shape mismatch")
    return float(np.dot(x, y))


def norm2(x: np.ndarray) -> float:
    if x.size == 0:
        return 0.0
    return float(np.linalg.norm(x))
