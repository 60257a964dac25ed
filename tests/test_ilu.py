import numpy as np
import pytest
from numpy.testing import assert_allclose

from gpcg import SparseMatrixCSR, ZeroPivot, ilu_k

from conftest import random_sparse_spd


def dense_lu_nopivot(M):
    """Textbook Gaussian elimination without pivoting; returns the combined
    factor with the unit diagonal of L implicit."""
    A = np.array(M, dtype=float)
    n = A.shape[0]
    for k in range(n - 1):
        piv = A[k, k]
        A[k + 1:, k] /= piv
        A[k + 1:, k + 1:] -= np.outer(A[k + 1:, k], A[k, k + 1:])
    return A


def combined_to_dense(fact):
    """The ILU(k) factor that the IC(k) factor U stands for, as one dense
    matrix: U on and above the diagonal, and below it strict L, the strict
    part of (U / diag U)^T, whose unit diagonal is implicit."""
    n = fact.n
    rows = np.repeat(np.arange(n), np.diff(fact.u_indptr))
    cols = fact.u_indices
    out = np.zeros((n, n))
    out[rows, cols] = fact.u_data
    strict = cols > rows
    pivots = fact.u_data[fact.u_indptr[:-1]]  # each row starts with its pivot
    out[cols[strict], rows[strict]] = fact.u_data[strict] / pivots[rows[strict]]
    return out


def split_lu(fact):
    C = combined_to_dense(fact)
    return np.tril(C, -1) + np.eye(fact.n), np.triu(C)


def pattern(indptr, indices):
    out = set()
    for i in range(indptr.size - 1):
        for j in indices[indptr[i]:indptr[i + 1]]:
            out.add((i, int(j)))
    return out


def _tridiag(n, rng=None):
    main = np.full(n, 2.0) if rng is None else rng.uniform(2.5, 4.0, n)
    off = np.full(n - 1, -1.0)
    D = np.diag(main) + np.diag(off, 1) + np.diag(off, -1)
    return SparseMatrixCSR.from_dense(D, symmetric=True), D


class TestZeroFill:
    def test_tridiagonal_factorization_is_exact(self):
        # no fill is possible, so the level-0 factor reproduces the matrix
        M, D = _tridiag(9, np.random.default_rng(40))
        fact = ilu_k(M, 0)
        L, U = split_lu(fact)
        assert np.abs(L @ U - D).max() <= 1e-12

    def test_pattern_matches_input(self):
        M, _ = random_sparse_spd(np.random.default_rng(41), 25, 3)
        fact = ilu_k(M, 0)
        assert pattern(fact.u_indptr, fact.u_indices) == {
            (i, j) for i, j in pattern(M.indptr, M.indices) if j >= i}

    def test_tridiagonal_solve_is_exact(self):
        rng = np.random.default_rng(42)
        M, D = _tridiag(12, rng)
        fact = ilu_k(M, 0)
        r = rng.standard_normal(12)
        assert_allclose(fact.solve(r), np.linalg.solve(D, r),
                        rtol=0, atol=1e-12)


class TestFullFill:
    def test_high_level_equals_dense_lu(self):
        # with the level bound at n every fill entry is admitted, so the
        # factor must agree with unpivoted dense elimination everywhere
        rng = np.random.default_rng(43)
        M, D = random_sparse_spd(rng, 20, 3)
        fact = ilu_k(M, 20)
        dense = dense_lu_nopivot(D)
        assert np.abs(combined_to_dense(fact) - dense).max() <= 1e-10

    def test_high_level_reconstructs_matrix(self):
        M, D = random_sparse_spd(np.random.default_rng(44), 15, 3)
        L, U = split_lu(ilu_k(M, 15))
        assert np.abs(L @ U - D).max() <= 1e-12 * np.abs(D).max()

    def test_high_level_solve_inverts(self):
        rng = np.random.default_rng(45)
        M, D = random_sparse_spd(rng, 18, 3)
        fact = ilu_k(M, 18)
        r = rng.standard_normal(18)
        assert_allclose(fact.solve(r), np.linalg.solve(D, r),
                        rtol=0, atol=1e-10)


class TestPatternGrowth:
    def test_patterns_are_monotone_in_fill_level(self):
        M, _ = random_sparse_spd(np.random.default_rng(46), 30, 3)
        pats = [pattern(f.u_indptr, f.u_indices)
                for f in (ilu_k(M, k) for k in range(4))]
        for small, big in zip(pats, pats[1:]):
            assert small <= big
        nnzs = [ilu_k(M, k).nnz for k in range(4)]
        assert all(a <= b for a, b in zip(nnzs, nnzs[1:]))

    def test_level_one_adds_fill_on_a_grid_stencil(self):
        # 2-D grid matrices gain fill between the band and the diagonal
        D = _grid_laplacian(5)
        M = SparseMatrixCSR.from_dense(D, symmetric=True)
        assert ilu_k(M, 1).nnz > ilu_k(M, 0).nnz

    def test_values_on_common_pattern_differ_between_levels(self):
        # extra fill feeds back into the original positions
        D = _grid_laplacian(4)
        M = SparseMatrixCSR.from_dense(D, symmetric=True)
        f0 = combined_to_dense(ilu_k(M, 0))
        f2 = combined_to_dense(ilu_k(M, 2))
        mask = f0 != 0.0
        assert np.abs(np.where(mask, f0 - f2, 0.0)).max() > 1e-8


class TestFailures:
    def test_missing_diagonal_entry(self):
        D = np.array([[0.0, 1.0], [1.0, 0.0]])
        M = SparseMatrixCSR.from_dense(D, symmetric=True)
        with pytest.raises(ZeroPivot) as err:
            ilu_k(M, 0)
        assert err.value.row == 0

    def test_pivot_cancellation_during_elimination(self):
        D = np.array([[1.0, 1.0], [1.0, 1.0]])
        M = SparseMatrixCSR.from_dense(D, symmetric=True)
        with pytest.raises(ZeroPivot) as err:
            ilu_k(M, 0)
        assert err.value.row == 1

    def test_rejects_negative_level(self):
        M, _ = _tridiag(3)
        with pytest.raises(ValueError):
            ilu_k(M, -1)

    def test_rejects_rectangular(self):
        M = SparseMatrixCSR.from_dense(np.ones((2, 3)))
        with pytest.raises(ValueError):
            ilu_k(M, 0)

    @pytest.mark.parametrize("dense", [[[2.0, 1.0], [0.5, 2.0]],
                                       [[2.0, 1.0], [1.0, 2.0]]])
    def test_rejects_a_matrix_not_flagged_symmetric(self, dense):
        # IC(k) reads only the upper triangle, so it needs the flag even
        # when the values are symmetric
        M = SparseMatrixCSR.from_dense(np.array(dense))
        with pytest.raises(ValueError, match="symmetric"):
            ilu_k(M, 0)

    def test_solve_checks_length(self):
        M, _ = _tridiag(4)
        with pytest.raises(ValueError):
            ilu_k(M, 0).solve(np.zeros(3))


def _grid_laplacian(side):
    """Five-point stencil on a side x side interior grid, dense."""
    n = side * side
    D = np.zeros((n, n))
    for j in range(side):
        for i in range(side):
            v = j * side + i
            D[v, v] = 4.0
            if i > 0:
                D[v, v - 1] = -1.0
            if i < side - 1:
                D[v, v + 1] = -1.0
            if j > 0:
                D[v, v - side] = -1.0
            if j < side - 1:
                D[v, v + side] = -1.0
    return D
