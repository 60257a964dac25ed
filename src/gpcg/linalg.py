"""Dense vectors, CSR matrices and the products and principal submatrices
the solver takes of them.

``SparseMatrixCSR`` is a checked record of CSR arrays; ``scipy.sparse``
converts it and checks its format, and its compiled CSR routines take the
diagonal, compute ``mat_vec``, extract principal submatrices and factor
them (``_kernels``) on the arrays directly, so the solver's hot path,
factorization included, builds no ``scipy.sparse`` object.
Vectors are plain float64 numpy arrays.  Bound vectors may hold +/-inf; all
other vectors are expected to be finite.  An index set is a strictly
increasing integer array, as ``np.flatnonzero`` returns it.  CSR index
arrays are int32 when the matrix's dimensions and entry count fit, else
int64 (``index_dtype``, scipy's own rule): every product then reads half
the index bytes.  ``mat_vec`` sums
each row left to right, so its result does not depend on the machine or
thread count; ``dot`` and ``norm2`` call BLAS, whose summation order may
depend on both.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp

from . import _kernels


def index_dtype(*sizes) -> type:
    """The CSR index dtype of a matrix whose dimensions and entry count are
    ``sizes``: int32 when all fit, else int64."""
    return np.int32 if max(sizes) <= np.iinfo(np.int32).max else np.int64


def as_vector(values) -> np.ndarray:
    """Coerce to a contiguous float64 vector."""
    v = np.ascontiguousarray(values, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError(f"expected a 1-D vector, got shape {v.shape}")
    return v


class SparseMatrixCSR:
    """Compressed-sparse-row matrix: row offsets and column indices, sorted
    and distinct within each row, of the ``index_dtype`` of its shape and
    entry count, and float64 values.

    ``scipy`` is a ``csr_array`` over the same arrays; it converts and
    checks the format.  Validation adds what scipy lets through: offsets
    that end before the last entry, non-finite values, and a ``symmetric``
    flag on storage that does not equal its transpose.
    Symmetric matrices are stored in full (both triangles).
    """

    __slots__ = ("nrows", "ncols", "indptr", "indices", "data", "symmetric",
                 "_scipy")

    def __init__(self, nrows, ncols, indptr, indices, data,
                 symmetric: bool = False, validate: bool = True):
        self.nrows = int(nrows)
        self.ncols = int(ncols)
        dtype = index_dtype(self.nrows, self.ncols, np.size(indices))
        self.indptr = np.ascontiguousarray(indptr, dtype=dtype)
        self.indices = np.ascontiguousarray(indices, dtype=dtype)
        self.data = np.ascontiguousarray(data, dtype=np.float64)
        self.symmetric = bool(symmetric)
        self._scipy = None
        if validate:
            # the cast wraps a value too wide for the dtype, and any such
            # value is out of range
            for given, kept in ((indptr, self.indptr), (indices, self.indices)):
                if not np.array_equal(given, kept):
                    raise ValueError("row offset or column index out of range")
            self._validate()

    def _validate(self):
        S = self.scipy  # raises on shapes, lengths and the first offset
        S.check_format(full_check=True)  # column range, nondecreasing offsets
        if self.indptr[-1] != self.nnz:
            raise ValueError("row offsets must end at nnz")
        if not S.has_canonical_format:
            raise ValueError("column indices must be strictly increasing per row")
        if not np.isfinite(self.data).all():
            raise ValueError("matrix values must be finite")
        if self.symmetric:
            if self.nrows != self.ncols:
                raise ValueError("symmetric flag on a non-square matrix")
            if not _kernels.symmetry_holds(self.nrows, self.indptr, self.indices,
                                           self.data):
                raise ValueError("symmetric flag set but storage is not symmetric")

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
    def from_dense(cls, arr, symmetric: bool = False) -> "SparseMatrixCSR":
        a = np.asarray(arr, dtype=np.float64)
        if a.ndim != 2:
            raise ValueError("expected a 2-D array")
        S = sp.csr_array(a)
        return cls(*S.shape, S.indptr, S.indices, S.data, symmetric=symmetric)

    def to_dense(self) -> np.ndarray:
        return self.scipy.toarray()

    def diagonal(self) -> np.ndarray:
        if self.nrows != self.ncols:
            raise ValueError("diagonal of a non-square matrix")
        diag = np.empty(self.nrows, dtype=np.float64)
        _kernels.csr_diagonal(0, self.nrows, self.ncols, self.indptr, self.indices,
                              self.data, diag)
        return diag

    def __repr__(self) -> str:
        return (f"SparseMatrixCSR({self.nrows}x{self.ncols}, nnz={self.nnz}, "
                f"symmetric={self.symmetric})")


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def mat_vec(A: SparseMatrixCSR, x: np.ndarray) -> np.ndarray:
    """Return A @ x; each row is summed left to right, starting from zero,
    as ``A.scipy @ x`` does."""
    if x.shape != (A.ncols,):
        raise ValueError(f"vector has shape {x.shape}, expected ({A.ncols},)")
    y = np.zeros(A.nrows, dtype=np.float64)
    _kernels.csr_matvec(A.nrows, A.ncols, A.indptr, A.indices, A.data, x, y)
    return y


def extract_submatrix(A: SparseMatrixCSR, idx: np.ndarray) -> SparseMatrixCSR:
    """Return the principal submatrix A[idx, idx] for a strictly increasing
    index array of a square matrix; entries stored as zero are dropped.  It
    keeps A's symmetry flag, and the extracted arrays take A's index dtype."""
    if A.nrows != A.ncols:
        raise ValueError("principal submatrix of a non-square matrix")
    if idx.size and (idx[0] < 0 or idx[-1] >= A.nrows or (idx[1:] <= idx[:-1]).any()):
        raise ValueError("index set must be strictly increasing and in range")
    indptr, indices, data = _kernels.csr_extract(A.nrows, A.indptr, A.indices,
                                                 A.data, idx)
    return SparseMatrixCSR(idx.size, idx.size, indptr, indices, data,
                           symmetric=A.symmetric, validate=False)


def dot(x: np.ndarray, y: np.ndarray) -> float:
    return float(np.dot(x, y))  # unequal lengths raise ValueError


def norm2(x: np.ndarray) -> float:
    """sqrt(x . x), what ``np.linalg.norm`` computes for a 1-D float64
    vector, without its dispatch."""
    return math.sqrt(x.dot(x))
