import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

import gpcg
from gpcg import (IndexSet, SparseMatrixCSR, dot, extract_submatrix,
                  gather, mat_vec, norm2, pointwise_median, scatter)

from conftest import random_sparse_spd


class TestSparseMatrixCSR:
    def test_from_dense_round_trip(self):
        rng = np.random.default_rng(0)
        D = rng.standard_normal((7, 5))
        D[rng.random((7, 5)) < 0.5] = 0.0
        M = SparseMatrixCSR.from_dense(D)
        assert_array_equal(M.to_dense(), D)
        assert M.nnz == np.count_nonzero(D)

    def test_from_coo_sums_duplicates(self):
        M = SparseMatrixCSR.from_coo(
            np.array([0, 0, 1]), np.array([1, 1, 0]),
            np.array([2.0, 3.0, 4.0]), 2, 2)
        assert_array_equal(M.to_dense(), [[0.0, 5.0], [4.0, 0.0]])

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


class TestExtractSubmatrix:
    def test_full_index_set_is_identity(self):
        M, _ = random_sparse_spd(np.random.default_rng(3), 15)
        S = extract_submatrix(M, IndexSet.full(15), IndexSet.full(15))
        assert_array_equal(S.indptr, M.indptr)
        assert_array_equal(S.indices, M.indices)
        assert_array_equal(S.data, M.data)

    def test_tridiagonal_slice_by_hand(self):
        D = np.diag([2.0, 2.0, 2.0]) + np.diag([-1.0, -1.0], 1) + \
            np.diag([-1.0, -1.0], -1)
        M = SparseMatrixCSR.from_dense(D, symmetric=True)
        keep = IndexSet(np.array([0, 2]))
        S = extract_submatrix(M, keep, keep)
        assert_array_equal(S.to_dense(), [[2.0, 0.0], [0.0, 2.0]])

    def test_matches_dense_slicing(self):
        rng = np.random.default_rng(4)
        M, D = random_sparse_spd(rng, 30)
        for _ in range(10):
            rows = IndexSet.from_mask(rng.random(30) < 0.5)
            cols = IndexSet.from_mask(rng.random(30) < 0.5)
            if len(rows) == 0 or len(cols) == 0:
                continue
            S = extract_submatrix(M, rows, cols)
            assert_array_equal(S.to_dense(),
                               D[np.ix_(rows.indices, cols.indices)])

    def test_symmetry_flag_propagates_for_principal_submatrix(self):
        M, _ = random_sparse_spd(np.random.default_rng(5), 20)
        keep = IndexSet(np.arange(0, 20, 2))
        assert extract_submatrix(M, keep, keep).symmetric
        assert not extract_submatrix(M, keep, IndexSet(np.arange(3))).symmetric

    def test_stored_zero_is_dropped(self):
        M = SparseMatrixCSR.from_coo(
            np.array([0, 0, 1]), np.array([0, 1, 1]),
            np.array([1.0, 0.0, 2.0]), 2, 2)
        assert M.nnz == 3
        S = extract_submatrix(M, IndexSet.full(2), IndexSet.full(2))
        assert S.nnz == 2
        assert_array_equal(S.to_dense(), M.to_dense())

    def test_out_of_range_rejected(self):
        M = SparseMatrixCSR.from_dense(np.eye(3))
        with pytest.raises(ValueError):
            extract_submatrix(M, IndexSet(np.array([0, 3])), IndexSet.full(3))


class TestGatherScatter:
    def test_gather_picks_components(self):
        x = np.array([10.0, 11.0, 12.0, 13.0])
        assert_array_equal(gather(x, IndexSet(np.array([1, 3]))),
                           [11.0, 13.0])

    def test_scatter_places_components(self):
        out = scatter(np.array([5.0, 6.0]), IndexSet(np.array([0, 2])),
                      np.zeros(4))
        assert_array_equal(out, [5.0, 0.0, 6.0, 0.0])

    def test_scatter_leaves_base_untouched(self):
        base = np.ones(3)
        out = scatter(np.array([9.0]), IndexSet(np.array([1])), base)
        assert_array_equal(base, 1.0)
        assert_array_equal(out, [1.0, 9.0, 1.0])

    def test_round_trip(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal(9)
        idx = IndexSet.from_mask(rng.random(9) < 0.6)
        out = scatter(gather(x, idx), idx, np.zeros(9))
        mask = np.zeros(9, dtype=bool)
        mask[idx.indices] = True
        assert_array_equal(out[mask], x[mask])
        assert_array_equal(out[~mask], 0.0)

    def test_scatter_length_mismatch(self):
        with pytest.raises(ValueError):
            scatter(np.zeros(3), IndexSet(np.array([0, 1])), np.zeros(4))


class TestPointwiseMedian:
    def test_clips_to_box(self):
        x = np.array([-5.0, 0.5, 5.0])
        out = pointwise_median(np.zeros(3), np.ones(3), x)
        assert_array_equal(out, [0.0, 0.5, 1.0])

    def test_infinite_bounds_pass_through(self):
        x = np.array([-7.0, 7.0])
        out = pointwise_median(np.array([-np.inf, 0.0]),
                               np.array([0.0, np.inf]), x)
        assert_array_equal(out, [-7.0, 7.0])

    def test_idempotent(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal(20)
        l = np.full(20, -0.5)
        u = np.full(20, 0.5)
        once = pointwise_median(l, u, x)
        assert_array_equal(pointwise_median(l, u, once), once)

    def test_rejects_crossed_bounds(self):
        with pytest.raises(ValueError):
            pointwise_median(np.ones(2), np.zeros(2), np.zeros(2))


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
        # Preconditioner.apply; they are deleted, not kept as aliases
        for module, name in [(gpcg, "axpy"), (gpcg, "norm_inf"),
                             (gpcg, "apply_precond"), (gpcg.linalg, "axpy"),
                             (gpcg.linalg, "norm_inf"),
                             (gpcg.precond, "apply_precond")]:
            assert not hasattr(module, name)
        assert not {"axpy", "norm_inf", "apply_precond"} & set(gpcg.__all__)

    def test_norms(self):
        v = np.array([3.0, -4.0])
        assert norm2(v) == 5.0
        assert norm2(np.zeros(0)) == 0.0


class TestIndexSet:
    def test_requires_strictly_increasing(self):
        with pytest.raises(ValueError):
            IndexSet(np.array([2, 1]))
        with pytest.raises(ValueError):
            IndexSet(np.array([1, 1]))
        with pytest.raises(ValueError):
            IndexSet(np.array([-1]))

    def test_from_mask(self):
        idx = IndexSet.from_mask(np.array([True, False, True]))
        assert_array_equal(idx.indices, [0, 2])

    def test_full_empty_complement(self):
        full = IndexSet.full(4)
        assert len(full) == 4
        empty = IndexSet.empty()
        assert len(empty) == 0
        idx = IndexSet(np.array([1, 2]))
        assert_array_equal(idx.complement(4).indices, [0, 3])

    def test_equality_and_hash(self):
        a = IndexSet(np.array([0, 2]))
        b = IndexSet(np.array([0, 2]))
        assert a == b
        assert hash(a) == hash(b)
        assert a != IndexSet(np.array([0, 1]))
