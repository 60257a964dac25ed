import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

import gpcg
from gpcg import (BearingSpec, SparseMatrixCSR, dot, extract_submatrix, generate,
                  mat_vec, norm2)

from conftest import random_sparse_spd


class TestSparseMatrixCSR:
    def test_from_dense_round_trip(self):
        rng = np.random.default_rng(0)
        D = rng.standard_normal((7, 5))
        D[rng.random((7, 5)) < 0.5] = 0.0
        M = SparseMatrixCSR.from_dense(D)
        assert_array_equal(M.to_dense(), D)
        assert M.nnz == np.count_nonzero(D)

    def test_rejects_unsorted_columns(self):
        with pytest.raises(ValueError):
            SparseMatrixCSR(2, 2, np.array([0, 2, 2]), np.array([1, 0]),
                            np.array([1.0, 2.0]))

    def test_rejects_duplicate_columns_in_row(self):
        with pytest.raises(ValueError):
            SparseMatrixCSR(1, 3, np.array([0, 2]), np.array([1, 1]),
                            np.array([1.0, 2.0]))

    def test_accepts_empty_leading_row(self):
        # strictly-increasing check must reset between rows even when the
        # first row has no entries
        M = SparseMatrixCSR(3, 2, np.array([0, 0, 1, 2]), np.array([1, 0]),
                            np.array([5.0, 6.0]))
        assert_array_equal(M.to_dense(),
                           [[0.0, 0.0], [0.0, 5.0], [6.0, 0.0]])

    def test_rejects_nondecreasing_indptr(self):
        with pytest.raises(ValueError):
            SparseMatrixCSR(2, 2, np.array([0, 2, 1]), np.array([0, 1]),
                            np.array([1.0, 2.0]))

    def test_rejects_column_out_of_range(self):
        with pytest.raises(ValueError):
            SparseMatrixCSR(1, 2, np.array([0, 1]), np.array([2]),
                            np.array([1.0]))

    def test_rejects_false_symmetry_flag(self):
        D = np.array([[1.0, 2.0], [0.0, 1.0]])
        with pytest.raises(ValueError):
            SparseMatrixCSR.from_dense(D, symmetric=True)

    def test_rejects_symmetry_flag_on_unequal_values(self):
        # the pattern is symmetric, the values are not
        with pytest.raises(ValueError, match="not symmetric"):
            SparseMatrixCSR(2, 2, np.array([0, 2, 4]), np.array([0, 1, 0, 1]),
                            np.array([1.0, 2.0, 3.0, 1.0]), symmetric=True)

    def test_rejects_symmetry_flag_on_a_stored_zero_without_its_transpose(self):
        # equal as dense matrices, but (0, 1) is stored and (1, 0) is not
        with pytest.raises(ValueError, match="not symmetric"):
            SparseMatrixCSR(2, 2, np.array([0, 2, 3]), np.array([0, 1, 1]),
                            np.array([1.0, 0.0, 1.0]), symmetric=True)

    def test_rejects_offsets_ending_before_nnz(self):
        # scipy alone accepts this and ignores the last entry
        with pytest.raises(ValueError, match="end at nnz"):
            SparseMatrixCSR(2, 2, np.array([0, 1, 1]), np.array([0, 1]),
                            np.array([1.0, 2.0]))

    # the malformed inputs the tests above do not cover
    @pytest.mark.parametrize("nrows, ncols, indptr, indices, data, symmetric", [
        (-1, 2, [0], [], [], False),                     # negative dimension
        (2, 2, [0, 1], [0], [1.0], False),               # offsets too short
        (1, 2, [1, 1], [0], [1.0], False),               # first offset not 0
        (1, 2, [0, 2], [0], [1.0], False),               # last offset past nnz
        (1, 2, [0, 1], [0], [1.0, 2.0], False),          # length mismatch
        (1, 2, [0, 1], [-1], [1.0], False),              # negative column
        (1, 1, [0, 1], [0], [np.nan], False),            # NaN value
        (1, 1, [0, 1], [0], [np.inf], False),            # infinite value
        (1, 2, [0, 1], [0], [1.0], True),                # symmetric, not square
    ], ids=["negative-dim", "short-indptr", "indptr-start", "indptr-end-past",
            "length-mismatch", "negative-col", "nan", "inf", "symmetric-nonsquare"])
    def test_rejects_malformed_input(self, nrows, ncols, indptr, indices, data,
                                     symmetric):
        with pytest.raises(ValueError):
            SparseMatrixCSR(nrows, ncols, np.array(indptr, dtype=np.int64),
                            np.array(indices, dtype=np.int64), np.array(data),
                            symmetric=symmetric)

    def test_accepts_true_symmetry_flag(self):
        _, D = random_sparse_spd(np.random.default_rng(1), 12)
        M = SparseMatrixCSR.from_dense(D, symmetric=True)
        assert M.symmetric

    def test_diagonal(self):
        D = np.array([[3.0, 1.0], [0.0, 0.0]])
        assert_array_equal(SparseMatrixCSR.from_dense(D).diagonal(),
                           [3.0, 0.0])


class TestMatVec:
    def test_identity(self):
        M = SparseMatrixCSR.from_dense(np.eye(3), symmetric=True)
        x = np.array([1.0, -2.0, 3.0])
        assert_array_equal(mat_vec(M, x), x)

    def test_small_by_hand(self):
        # [[2,-1],[-1,2]] @ [1,1] = [1,1]
        M = SparseMatrixCSR.from_dense(np.array([[2.0, -1.0], [-1.0, 2.0]]),
                                       symmetric=True)
        assert_array_equal(mat_vec(M, np.ones(2)), [1.0, 1.0])

    def test_empty_rows_give_zero(self):
        M = SparseMatrixCSR(3, 3, np.array([0, 1, 1, 2]), np.array([0, 2]),
                            np.array([4.0, 5.0]))
        assert_array_equal(mat_vec(M, np.array([1.0, 1.0, 1.0])),
                           [4.0, 0.0, 5.0])

    def test_matches_dense_product(self):
        rng = np.random.default_rng(2)
        M, D = random_sparse_spd(rng, 60)
        x = rng.standard_normal(60)
        assert_allclose(mat_vec(M, x), D @ x, rtol=0, atol=1e-12)

    def test_dimension_mismatch(self):
        M = SparseMatrixCSR.from_dense(np.eye(3))
        with pytest.raises(ValueError):
            mat_vec(M, np.zeros(4))


class TestIndexDtype:
    def test_int32_when_dimensions_and_entries_fit(self):
        assert gpcg.linalg.index_dtype(3, 2**31 - 1) is np.int32
        assert gpcg.linalg.index_dtype(2**31, 3) is np.int64

    def test_int64_input_is_stored_as_int32(self):
        M = SparseMatrixCSR(2, 2, np.array([0, 1, 2], dtype=np.int64),
                            np.array([0, 1], dtype=np.int64), np.ones(2))
        assert M.indptr.dtype == M.indices.dtype == np.int32

    def test_index_values_too_wide_for_the_dtype_rejected(self):
        # 2**32 would wrap to column 0 in int32
        with pytest.raises(ValueError, match="out of range"):
            SparseMatrixCSR(2, 2, np.array([0, 1, 2], dtype=np.int64),
                            np.array([0, 2**32], dtype=np.int64), np.ones(2))

    def test_mat_vec_same_bytes_for_int32_and_int64_indices(self):
        A = generate(BearingSpec(200, 200, 0.1)).A
        wide = SparseMatrixCSR(A.nrows, A.ncols, A.indptr, A.indices, A.data,
                               symmetric=True, validate=False)
        wide.indptr = A.indptr.astype(np.int64)
        wide.indices = A.indices.astype(np.int64)
        x = np.random.default_rng(3).standard_normal(A.ncols)
        assert A.indices.dtype == np.int32
        assert mat_vec(wide, x).tobytes() == mat_vec(A, x).tobytes()

    def test_extraction_keeps_the_index_dtype(self):
        A = generate(BearingSpec(9, 7, 0.3)).A
        S = extract_submatrix(A, np.arange(0, A.nrows, 2))
        assert S.indptr.dtype == S.indices.dtype == np.int32


class TestExtractSubmatrix:
    def test_full_index_set_is_identity(self):
        M, _ = random_sparse_spd(np.random.default_rng(3), 15)
        S = extract_submatrix(M, np.arange(15))
        assert_array_equal(S.indptr, M.indptr)
        assert_array_equal(S.indices, M.indices)
        assert_array_equal(S.data, M.data)

    def test_tridiagonal_slice_by_hand(self):
        D = np.diag([2.0, 2.0, 2.0]) + np.diag([-1.0, -1.0], 1) + \
            np.diag([-1.0, -1.0], -1)
        M = SparseMatrixCSR.from_dense(D, symmetric=True)
        S = extract_submatrix(M, np.array([0, 2]))
        assert_array_equal(S.to_dense(), [[2.0, 0.0], [0.0, 2.0]])

    def test_matches_dense_slicing(self):
        rng = np.random.default_rng(4)
        M, D = random_sparse_spd(rng, 30)
        for _ in range(10):
            idx = np.flatnonzero(rng.random(30) < 0.5)
            if idx.size == 0:
                continue
            S = extract_submatrix(M, idx)
            assert_array_equal(S.to_dense(), D[np.ix_(idx, idx)])

    def test_symmetry_flag_propagates_for_principal_submatrix(self):
        M, D = random_sparse_spd(np.random.default_rng(5), 20)
        keep = np.arange(0, 20, 2)
        assert extract_submatrix(M, keep).symmetric
        unflagged = SparseMatrixCSR.from_dense(D)
        assert not extract_submatrix(unflagged, keep).symmetric

    def test_stored_zero_is_dropped(self):
        M = SparseMatrixCSR(2, 2, np.array([0, 2, 3]), np.array([0, 1, 1]),
                            np.array([1.0, 0.0, 2.0]))
        assert M.nnz == 3
        S = extract_submatrix(M, np.arange(2))
        assert S.nnz == 2
        assert_array_equal(S.to_dense(), M.to_dense())

    def test_out_of_range_rejected(self):
        M = SparseMatrixCSR.from_dense(np.eye(3))
        with pytest.raises(ValueError):
            extract_submatrix(M, np.array([0, 3]))

    def test_non_square_rejected(self):
        # the compiled column selection sizes its column map by the rows
        M = SparseMatrixCSR.from_dense(np.ones((2, 3)))
        with pytest.raises(ValueError, match="non-square"):
            extract_submatrix(M, np.array([0, 1]))

    @pytest.mark.parametrize("idx", [[0, 0], [1, 0], [2, 1, 0], [0, 2, 2]])
    def test_rejects_index_sets_not_strictly_increasing(self, idx):
        # a repeated or descending index would give a wrong submatrix,
        # still flagged symmetric, or rows with unsorted indices
        D = np.array([[4.0, 1.0, 0.0], [1.0, 4.0, 1.0], [0.0, 1.0, 4.0]])
        M = SparseMatrixCSR.from_dense(D, symmetric=True)
        with pytest.raises(ValueError, match="strictly increasing"):
            extract_submatrix(M, np.array(idx, dtype=np.int64))


def matrix_with_stored_zeros_and_empty_rows(rng, n):
    """A random sparse n x n matrix, not symmetric, with some entries
    stored as zero and some rows empty."""
    D = rng.standard_normal((n, n))
    D[rng.random((n, n)) < 0.7] = 0.0
    empty = rng.random(n) < 0.1
    stored = (D != 0.0) | (rng.random((n, n)) < 0.05)
    stored[empty] = False
    rows, cols = np.nonzero(stored)
    return SparseMatrixCSR(n, n, np.searchsorted(rows, np.arange(n + 1)), cols,
                           D[rows, cols])


class TestExtractionByChunks:
    """``extract_submatrix`` against scipy's fancy indexing, at chunk sizes
    that split every matrix into many chunks."""

    def reference(self, A, idx):
        ref = A.scipy[idx][:, idx]
        ref.eliminate_zeros()
        return ref

    def assert_matches_scipy(self, A, idx):
        S = extract_submatrix(A, idx)
        ref = self.reference(A, np.asarray(idx, dtype=np.int64))
        assert (S.nrows, S.ncols) == ref.shape
        for got, want, dtype in ((S.indptr, ref.indptr, np.int32),
                                 (S.indices, ref.indices, np.int32),
                                 (S.data, ref.data, np.float64)):
            assert got.dtype == dtype
            assert_array_equal(got, want)
        assert (S.data != 0.0).all()

    @pytest.fixture(params=[1, 2, 3, None], ids=["chunk1", "chunk2", "chunk3", "default"])
    def chunk(self, request, monkeypatch):
        if request.param is not None:
            monkeypatch.setattr(gpcg._kernels, "EXTRACT_CHUNK", request.param)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_index_sets(self, chunk, seed):
        rng = np.random.default_rng(seed)
        A = matrix_with_stored_zeros_and_empty_rows(rng, 25)
        assert (A.data == 0.0).any() and (np.diff(A.indptr) == 0).any()
        for fraction in (0.2, 0.5, 0.9):
            self.assert_matches_scipy(A, np.flatnonzero(rng.random(25) < fraction))

    @pytest.mark.parametrize("idx", [[], [7], list(range(25)), [0, 24], [3, 4, 5, 6]],
                             ids=["empty", "one", "all", "ends", "run"])
    def test_edge_index_sets(self, chunk, idx):
        A = matrix_with_stored_zeros_and_empty_rows(np.random.default_rng(9), 25)
        self.assert_matches_scipy(A, np.array(idx, dtype=np.int64))

    def test_int32_index_array(self, chunk):
        A = matrix_with_stored_zeros_and_empty_rows(np.random.default_rng(10), 25)
        idx = np.flatnonzero(np.random.default_rng(11).random(25) < 0.6)
        self.assert_matches_scipy(A, idx.astype(np.int32))
        assert_array_equal(extract_submatrix(A, idx.astype(np.int32)).indices,
                           extract_submatrix(A, idx).indices)

    def test_bearing_free_set(self, chunk):
        A = generate(BearingSpec(9, 7, 0.3)).A
        idx = np.flatnonzero(np.random.default_rng(12).random(A.nrows) < 0.6)
        self.assert_matches_scipy(A, idx)

    def test_peak_memory_is_the_result_plus_one_chunk(self):
        # bearing 200x200 and a fixed 60 % free set: about 24,000 rows, a
        # dozen chunks at the default size
        A = generate(BearingSpec(200, 200, 0.1)).A
        idx = np.flatnonzero(np.random.default_rng(0).random(A.nrows) < 0.6)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            S = extract_submatrix(A, idx)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        result = S.indptr.nbytes + S.indices.nbytes + S.data.nbytes
        assert peak <= 1.5 * result


class TestVectorOps:
    def test_dot_by_hand(self):
        assert dot(np.array([1.0, 2.0]), np.array([3.0, 4.0])) == 11.0

    def test_dot_empty_is_zero(self):
        assert dot(np.zeros(0), np.zeros(0)) == 0.0

    def test_dot_length_mismatch(self):
        with pytest.raises(ValueError):
            dot(np.zeros(2), np.zeros(3))

    def test_forward_only_helpers_are_gone(self):
        # axpy, norm_inf and apply_precond only forwarded to numpy or to
        # Preconditioner.apply, and IndexSet, gather, scatter and
        # pointwise_median to numpy indexing and clipping; BlockJacobiILU and
        # PointJacobi are Preconditioner with factors or with point Jacobi
        # on every row.  They are deleted, not kept as aliases
        gone = {"axpy", "norm_inf", "apply_precond", "IndexSet", "gather",
                "scatter", "pointwise_median", "BlockJacobiILU", "PointJacobi"}
        for name in gone:
            for module in (gpcg, gpcg.linalg, gpcg.precond, gpcg.model):
                assert not hasattr(module, name), (module, name)
        assert not gone & set(gpcg.__all__)

    def test_norms(self):
        v = np.array([3.0, -4.0])
        assert norm2(v) == 5.0
        assert norm2(np.zeros(0)) == 0.0
