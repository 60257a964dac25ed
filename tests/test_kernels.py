"""The CSR and ILU kernels against reference row loops.

The reference loops below are the straightforward interpreted forms of the
kernels (level-of-fill row merge, row-wise elimination, forward/back
substitution, left-to-right matvec).  The kernels must reproduce them byte
for byte, not just to a tolerance: the arithmetic order is the same.
"""

import numpy as np
import pytest

from gpcg import SparseMatrixCSR, ZeroPivot, ilu_k, mat_vec
from gpcg import _kernels


# ---------------------------------------------------------------------------
# reference loops
# ---------------------------------------------------------------------------

def ref_ilu_symbolic(n, a_indptr, a_indices, fill_level):
    lu_indices, lu_levels = [], []
    lu_indptr = np.zeros(n + 1, dtype=np.int64)
    lu_diag = np.full(n, -1, dtype=np.int64)
    nxt = np.empty(n, dtype=np.int64)
    lev = np.empty(n, dtype=np.int64)
    for i in range(n):
        # seed the working row (a sorted linked list over columns) from the input
        head = -1
        last = -1
        for t in range(a_indptr[i], a_indptr[i + 1]):
            c = a_indices[t]
            lev[c] = 0
            if last == -1:
                head = c
            else:
                nxt[last] = c
            last = c
        if last != -1:
            nxt[last] = -1
        # merge fill candidates from each pivot row's upper part
        p = head
        while p != -1 and p < i:
            lev_p = lev[p]
            scan = p
            for t in range(lu_diag[p] + 1, lu_indptr[p + 1]):
                q = lu_indices[t]
                new_lev = lev_p + lu_levels[t] + 1
                if new_lev > fill_level:
                    continue
                while nxt[scan] != -1 and nxt[scan] < q:
                    scan = nxt[scan]
                if nxt[scan] == q:
                    if new_lev < lev[q]:
                        lev[q] = new_lev
                else:
                    nxt[q] = nxt[scan]
                    nxt[scan] = q
                    lev[q] = new_lev
            p = nxt[p]
        c = head
        while c != -1:
            if c == i:
                lu_diag[i] = len(lu_indices)
            lu_indices.append(c)
            lu_levels.append(lev[c])
            c = nxt[c]
        lu_indptr[i + 1] = len(lu_indices)
    return (lu_indptr, np.array(lu_indices, dtype=np.int64),
            np.array(lu_levels, dtype=np.int64), lu_diag)


def ref_ilu_numeric(n, a_indptr, a_indices, a_data, lu_indptr, lu_indices, lu_diag):
    lu_data = np.zeros(lu_indptr[n], dtype=np.float64)
    pos = np.full(n, -1, dtype=np.int64)
    for i in range(n):
        ta = a_indptr[i]
        ea = a_indptr[i + 1]
        for t in range(lu_indptr[i], lu_indptr[i + 1]):
            c = lu_indices[t]
            while ta < ea and a_indices[ta] < c:
                ta += 1
            if ta < ea and a_indices[ta] == c:
                lu_data[t] = a_data[ta]
                ta += 1
    for i in range(n):
        rs = lu_indptr[i]
        re = lu_indptr[i + 1]
        for t in range(rs, re):
            pos[lu_indices[t]] = t
        t = rs
        while t < re and lu_indices[t] < i:
            p = lu_indices[t]
            mult = lu_data[t] / lu_data[lu_diag[p]]
            lu_data[t] = mult
            for s in range(lu_diag[p] + 1, lu_indptr[p + 1]):
                tq = pos[lu_indices[s]]
                if tq != -1:
                    lu_data[tq] -= mult * lu_data[s]
            t += 1
        for t in range(rs, re):
            pos[lu_indices[t]] = -1
        if lu_data[lu_diag[i]] == 0.0:
            return lu_data, i
    return lu_data, -1


def ref_lu_solve(lu_indptr, lu_indices, lu_data, lu_diag, r):
    n = r.shape[0]
    z = np.empty(n, dtype=np.float64)
    for i in range(n):
        s = r[i]
        for t in range(lu_indptr[i], lu_diag[i]):
            s -= lu_data[t] * z[lu_indices[t]]
        z[i] = s
    for i in range(n - 1, -1, -1):
        s = z[i]
        for t in range(lu_diag[i] + 1, lu_indptr[i + 1]):
            s -= lu_data[t] * z[lu_indices[t]]
        z[i] = s / lu_data[lu_diag[i]]
    return z


def ref_matvec(A, x):
    out = np.empty(A.nrows)
    for i in range(A.nrows):
        s = 0.0
        for t in range(A.indptr[i], A.indptr[i + 1]):
            s += A.data[t] * x[A.indices[t]]
        out[i] = s
    return out


# ---------------------------------------------------------------------------
# seeded test matrices
# ---------------------------------------------------------------------------

def random_pattern_matrix(seed, n, density, symmetric):
    """Random sparse matrix with a stored, dominant-ish diagonal; the values
    are not chosen to make elimination stable, only nonzero."""
    rng = np.random.default_rng(seed)
    M = rng.uniform(-1.0, 1.0, (n, n)) * (rng.random((n, n)) < density)
    if symmetric:
        M = np.triu(M, 1) + np.triu(M, 1).T
    M[np.arange(n), np.arange(n)] = rng.uniform(1.0, 3.0, n)
    return SparseMatrixCSR.from_dense(M, symmetric=symmetric)


def grid_laplacian(side):
    n = side * side
    M = 4.0 * np.eye(n)
    for i in range(n):
        if i % side:
            M[i, i - 1] = M[i - 1, i] = -1.0
        if i >= side:
            M[i, i - side] = M[i - side, i] = -1.0
    return SparseMatrixCSR.from_dense(M, symmetric=True)


CASES = ([(seed, n, d, sym) for seed, (n, d) in enumerate(
             [(7, 0.3), (20, 0.15), (35, 0.08), (60, 0.05), (60, 0.02)])
          for sym in (True, False)])


def case_matrix(case):
    if case == "grid":
        return grid_laplacian(7)
    return random_pattern_matrix(*case)


def assert_bytes_equal(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("case", CASES + ["grid"], ids=str)
@pytest.mark.parametrize("k", [0, 1, 2, 3, "n"])
def test_factor_and_solve_match_reference_loops(case, k):
    A = case_matrix(case)
    n = A.nrows
    fill = n if k == "n" else k
    sym = _kernels.ilu_symbolic(n, A.indptr, A.indices, fill)
    ref = ref_ilu_symbolic(n, A.indptr, A.indices, fill)
    for got, want in zip(sym, ref):
        assert_bytes_equal(got, want)
    lu_indptr, lu_indices, _levels, lu_diag = ref
    data, fail = _kernels.ilu_numeric(n, A.indptr, A.indices, A.data,
                                      lu_indptr, lu_indices, lu_diag)
    ref_data, ref_fail = ref_ilu_numeric(n, A.indptr, A.indices, A.data,
                                         lu_indptr, lu_indices, lu_diag)
    assert fail == ref_fail == -1
    assert_bytes_equal(data, ref_data)
    r = np.random.default_rng(n).standard_normal(n)
    assert_bytes_equal(_kernels.lu_solve(lu_indptr, lu_indices, data, lu_diag, r),
                       ref_lu_solve(lu_indptr, lu_indices, ref_data, lu_diag, r))


def test_full_fill_level_gives_the_full_elimination_pattern():
    # with k = n every fill path is admitted: the pattern is closed under
    # elimination, so one more level changes nothing
    A = random_pattern_matrix(3, 40, 0.05, False)
    a = _kernels.ilu_symbolic(40, A.indptr, A.indices, 40)
    b = _kernels.ilu_symbolic(40, A.indptr, A.indices, 10**6)
    for got, want in zip(a, b):
        assert_bytes_equal(got, want)


@pytest.mark.parametrize("dense, row", [
    ([[1.0, 1.0], [1.0, 1.0]], 1),
    # the pivot of row 1 cancels only through elimination: 1 - 0.5 * 2
    ([[2.0, 2.0, 0.0], [1.0, 1.0, 1.0], [0.0, 1.0, 3.0]], 1),
    # the cancellation in row 2 runs through two level-1 fill entries
    ([[1.0, -1.0, 1.0], [-1.0, 2.0, 0.0], [1.0, 0.0, 2.0]], 2),
])
def test_zero_pivot_row_matches_reference(dense, row):
    A = SparseMatrixCSR.from_dense(np.array(dense))
    n = A.nrows
    lu_indptr, lu_indices, _levels, lu_diag = _kernels.ilu_symbolic(
        n, A.indptr, A.indices, n)
    _data, fail = _kernels.ilu_numeric(n, A.indptr, A.indices, A.data,
                                       lu_indptr, lu_indices, lu_diag)
    _ref_data, ref_fail = ref_ilu_numeric(n, A.indptr, A.indices, A.data,
                                          lu_indptr, lu_indices, lu_diag)
    assert fail == ref_fail == row
    with pytest.raises(ZeroPivot) as err:
        ilu_k(A, n)
    assert err.value.row == row


@pytest.mark.parametrize("seed", range(4))
def test_matvec_matches_left_to_right_loop(seed):
    rng = np.random.default_rng(seed)
    nrows, ncols = int(rng.integers(1, 80)), int(rng.integers(1, 80))
    M = rng.standard_normal((nrows, ncols)) * (rng.random((nrows, ncols)) < 0.3)
    M[rng.integers(0, nrows)] = 0.0  # an empty row
    A = SparseMatrixCSR.from_dense(M)
    x = rng.standard_normal(ncols) * 10.0 ** rng.integers(-8, 8, ncols)
    assert_bytes_equal(mat_vec(A, x), ref_matvec(A, x))


def test_matvec_view_shares_the_matrix_arrays():
    A = grid_laplacian(5)
    view = A.scipy
    assert view is A.scipy
    assert np.shares_memory(view.data, A.data)
    assert np.shares_memory(view.indices, A.indices)
