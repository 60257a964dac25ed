"""The CSR and IC(k) kernels against reference loops.

The reference loops below are the straightforward interpreted forms of the
kernels (IC(k) row elimination, forward/back substitution over U and its
transpose, left-to-right matvec, row-by-row elimination schedule).  The
kernels, row-loop and level forms alike, must reproduce them byte for byte,
not just to a tolerance: the arithmetic order is the same.  The ILU(k)
loops (level-of-fill row merge, row-wise Gaussian elimination, the
combined-LU solves) are the references the IC(k) factor must agree with:
its pattern is the upper triangle of theirs, byte for byte, and its values
and solves agree to rounding.
"""

import warnings

import numpy as np
import pytest
import scipy.sparse as sp

from gpcg import (BearingSpec, SolverConfig, SparseMatrixCSR, ZeroPivot, extract_submatrix,
                  generate, ilu_k, mat_vec, solve)
from gpcg import _kernels, ilu, precond


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
    return lu_indptr, np.array(lu_indices, dtype=np.int64), lu_diag


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


def ref_forward(lu_indptr, lu_indices, lu_data, lu_diag, r):
    n = r.shape[0]
    z = np.empty(n, dtype=np.float64)
    for i in range(n):
        s = r[i]
        for t in range(lu_indptr[i], lu_diag[i]):
            s -= lu_data[t] * z[lu_indices[t]]
        z[i] = s
    return z


def ref_lu_solve(lu_indptr, lu_indices, lu_data, lu_diag, r):
    """Back substitution with each strict-U entry divided by its pivot:
    z_i = z_i / u_ii - sum over j of (u_ij / u_ii) z_j, in column order."""
    z = ref_forward(lu_indptr, lu_indices, lu_data, lu_diag, r)
    for i in range(z.size - 1, -1, -1):
        d = lu_data[lu_diag[i]]
        s = z[i] / d
        for t in range(lu_diag[i] + 1, lu_indptr[i + 1]):
            s -= (lu_data[t] / d) * z[lu_indices[t]]
        z[i] = s
    return z


def ref_lu_solve_divide_after_sum(lu_indptr, lu_indices, lu_data, lu_diag, r):
    """Back substitution as z_i = (z_i - sum over j of u_ij z_j) / u_ii."""
    z = ref_forward(lu_indptr, lu_indices, lu_data, lu_diag, r)
    for i in range(z.size - 1, -1, -1):
        s = z[i]
        for t in range(lu_diag[i] + 1, lu_indptr[i + 1]):
            s -= lu_data[t] * z[lu_indices[t]]
        z[i] = s / lu_data[lu_diag[i]]
    return z


def ref_schedule(u_indptr, l_indptr, l_indices, l_at):
    """The level form's schedule by plain loops, given U's pattern and its
    transpose with positions (``lower_pattern``): row i takes its strict-L
    entries in column order, the k-th, with pivot row p, only after row p
    is complete, at step T(i, k) = max(T(i, k - 1), F(p)) + 1, where F(p)
    is the step of row p's last entry (-1 for a row without any).  Returns
    ``elimination_steps``'s arrays: the entries sorted stably by step, as
    the position in U of u_pi, the row, the step, the position of u_pp and
    the length of U's row p from u_pi on; and where each step starts."""
    n = len(l_indptr) - 1
    finish = [-1] * n
    entries = []  # (at, row, step, pivot, count), in row order
    for i in range(n):
        step = -1
        for t in range(l_indptr[i], l_indptr[i + 1] - 1):  # the diagonal is last
            p = l_indices[t]
            step = max(step, finish[p]) + 1
            entries.append((l_at[t], i, step, u_indptr[p], u_indptr[p + 1] - l_at[t]))
        finish[i] = step
    entries.sort(key=lambda entry: entry[2])
    starts = [0] * (max(finish, default=-1) + 2)
    for entry in entries:
        starts[entry[2] + 1] += 1
    for s in range(1, len(starts)):
        starts[s] += starts[s - 1]
    columns = [[entry[c] for entry in entries] for c in range(5)]
    return [np.array(c, dtype=np.int64) for c in columns + [starts]]


def ref_matvec(A, x):
    out = np.empty(A.nrows)
    for i in range(A.nrows):
        s = 0.0
        for t in range(A.indptr[i], A.indptr[i + 1]):
            s += A.data[t] * x[A.indices[t]]
        out[i] = s
    return out


def ref_ic_numeric(n, a_indptr, a_indices, a_data, u_indptr, u_indices):
    """IC(k) on an upper pattern: u_ij = a_ij - sum over p < i of
    (u_pi / u_pp) u_pj, each row taking its pivot rows p in ascending order.
    Returns the values and the first row whose pivot is exactly zero, -1
    when there is none."""
    where = {}
    for i in range(n):
        for t in range(u_indptr[i], u_indptr[i + 1]):
            where[i, u_indices[t]] = t
    u_data = np.zeros(u_indptr[n], dtype=np.float64)
    for i in range(n):
        for t in range(a_indptr[i], a_indptr[i + 1]):
            if a_indices[t] >= i:
                u_data[where[i, a_indices[t]]] = a_data[t]
    for i in range(n):
        for p in range(i):
            tp = where.get((p, i))
            if tp is None:
                continue
            mult = u_data[tp] / u_data[where[p, p]]
            for s in range(tp, u_indptr[p + 1]):
                tq = where.get((i, u_indices[s]))
                if tq is not None:
                    u_data[tq] -= mult * u_data[s]
        if u_data[where[i, i]] == 0.0:
            return u_data, i
    return u_data, -1


def ref_ic_solve(u_indptr, u_indices, u_data, r):
    """(U^T D^-1 U)^-1 r: z_i = r_i - sum over j < i of (u_ji / u_jj) z_j,
    then z_i = z_i / u_ii - sum over j > i of (u_ij / u_ii) z_j, each sum
    in column order."""
    n = r.shape[0]
    u_diag = [u_indptr[i] + list(u_indices[u_indptr[i]:u_indptr[i + 1]]).index(i)
              for i in range(n)]
    z = np.array(r, dtype=np.float64)
    column = [[] for _ in range(n)]  # the strict-U entries of each column
    for j in range(n):
        for t in range(u_diag[j] + 1, u_indptr[j + 1]):
            column[u_indices[t]].append((j, t))
    for i in range(n):
        for j, t in column[i]:
            z[i] -= (u_data[t] / u_data[u_diag[j]]) * z[j]
    for i in range(n - 1, -1, -1):
        d = u_data[u_diag[i]]
        s = z[i] / d
        for t in range(u_diag[i] + 1, u_indptr[i + 1]):
            s -= (u_data[t] / d) * z[u_indices[t]]
        z[i] = s
    return z


def upper_triangle(n, indptr, indices):
    """The entries on and above the diagonal of a CSR pattern: their indptr,
    indices and a mask of them over the pattern; int64, as ``ilu_symbolic``
    returns a pattern whatever the input's index dtype."""
    rows = np.repeat(np.arange(n), np.diff(indptr))
    keep = indices >= rows
    up = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows[keep], minlength=n), out=up[1:])
    return up, indices[keep].astype(np.int64), keep


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
# Above ilu.LEVEL_MIN_ROWS, so ilu_k factors the symmetric ones by levels.
LARGE_CASES = [(5, 300, 0.01, True), (5, 300, 0.01, False), "grid20"]
FACTOR_CASES = ([(case, k) for k in (0, 1, 2, 3, "n") for case in CASES + ["grid"]]
                + [(case, k) for k in (0, 1, 2, 3, "n") for case in LARGE_CASES])


def case_matrix(case):
    if case == "grid":
        return grid_laplacian(7)
    if case == "grid20":
        return grid_laplacian(20)
    return random_pattern_matrix(*case)


def assert_bytes_equal(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("case, k", FACTOR_CASES,
                         ids=[f"{k}-{case}" for case, k in FACTOR_CASES])
def test_factor_and_solve_match_reference_loops(case, k):
    A = case_matrix(case)
    n = A.nrows
    fill = n if k == "n" else k
    if not A.symmetric:
        # IC(k) has no factor for an unsymmetric case: it refuses it
        with pytest.raises(ValueError, match="symmetric"):
            ilu_k(A, fill)
        return
    lu_indptr, lu_indices, lu_diag = ref_ilu_symbolic(n, A.indptr, A.indices, fill)
    u_indptr, u_indices, upper = upper_triangle(n, lu_indptr, lu_indices)
    for got, want in zip(_kernels.ilu_symbolic(n, A.indptr, A.indices, fill),
                         (u_indptr, u_indices)):
        assert_bytes_equal(got, want)
    ic_data, ic_fail = ref_ic_numeric(n, A.indptr, A.indices, A.data,
                                      u_indptr, u_indices)
    assert ic_fail == -1
    # both numeric forms on every case
    lower = _kernels.lower_pattern(u_indptr, u_indices)
    for steps in (None, assert_schedule_matches_reference(u_indptr, lower)):
        data, fail = _kernels.ilu_numeric(n, A.indptr, A.indices, A.data,
                                          u_indptr, u_indices, lower, steps)
        assert fail == -1
        assert_bytes_equal(data, ic_data)
    factor = ilu_k(A, fill)
    assert_bytes_equal(factor.u_data, ic_data)
    # the ILU(k) factor: U is its upper part, and U^T D^-1 its strict L
    lu_data, _fail = ref_ilu_numeric(n, A.indptr, A.indices, A.data,
                                     lu_indptr, lu_indices, lu_diag)
    scale = np.abs(lu_data).max()
    assert_bytes_equal(factor.u_indptr, u_indptr)
    assert_bytes_equal(factor.u_indices, u_indices)
    assert np.abs(ic_data - lu_data[upper]).max() <= 1e-12 * scale
    rows = np.repeat(np.arange(n), np.diff(u_indptr))
    strict = u_indices > rows
    l_rows, l_cols = u_indices[strict], rows[strict]
    order = np.lexsort((l_cols, l_rows))  # the reference's row-major order
    lu_rows = np.repeat(np.arange(n), np.diff(lu_indptr))
    assert_bytes_equal(l_rows[order], lu_rows[~upper])
    assert_bytes_equal(l_cols[order], lu_indices[~upper])
    l_data = ic_data[strict] / ic_data[u_indptr[l_cols]]  # rows start with their pivots
    assert np.abs(l_data[order] - lu_data[~upper]).max(initial=0.0) <= 1e-12 * scale
    assert_solves_match_reference_loops(factor, lu_indptr, lu_indices, lu_data, lu_diag)


def assert_solves_match_reference_loops(factor, lu_indptr, lu_indices, lu_data,
                                        lu_diag):
    """The factor's solves equal the IC(k) loop byte for byte, and the
    ILU(k) factor's solves, pre-divided and divide-after-sum, to 1e-12
    relative, on a random right-hand side and on one of mostly signed
    zeros (most of the solution's entries are then zeros whose sign the
    loops fix)."""
    n = factor.n
    rng = np.random.default_rng(n)
    signed = np.where(rng.random(n) < 0.5, -0.0, 0.0)
    signed[rng.random(n) < 0.1] = 1.0
    for r in (rng.standard_normal(n), signed):
        got = factor.solve(r)
        assert_bytes_equal(got, ref_ic_solve(factor.u_indptr, factor.u_indices,
                                             factor.u_data, r))
        for ref_solve in (ref_lu_solve, ref_lu_solve_divide_after_sum):
            want = ref_solve(lu_indptr, lu_indices, lu_data, lu_diag, r)
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_solve_makes_two_compiled_calls(monkeypatch):
    calls = []
    csr_matvec = _kernels.csr_matvec

    def spy(*args):
        calls.append(args[0])
        return csr_matvec(*args)

    monkeypatch.setattr(_kernels, "csr_matvec", spy)
    for A in (grid_laplacian(20), random_pattern_matrix(5, 300, 0.01, True),
              random_pattern_matrix(3, 60, 0.05, True)):
        factor = ilu_k(A, 2)
        calls.clear()
        factor.solve(np.ones(A.nrows))
        assert calls == [A.nrows, A.nrows]


def test_ilu_k_solves_by_levels_only_on_large_blocks_with_wide_levels(monkeypatch):
    # every block of LEVEL_MIN_ROWS rows or more goes by levels, however
    # few rows its steps hold: a tridiagonal block is one chain, n - 1
    # steps of one row each, and gives the reference loop's bits there
    by_levels = spy_on_numeric(monkeypatch)
    n = 2 * ilu.LEVEL_MIN_ROWS
    chain = SparseMatrixCSR.from_dense(
        2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1), symmetric=True)
    assert_ic_matches_reference_loop(ilu_k(chain, 0), chain)
    blocks = [case_matrix(case) for case in ("grid", "grid20", (5, 300, 0.01, True))]
    for A in blocks:
        for k in range(4):
            ilu_k(A, k)
    assert by_levels == [True] + [A.nrows >= ilu.LEVEL_MIN_ROWS
                                  for A in blocks for _k in range(4)]


def test_ilu_k_takes_the_level_path_up_to_n_over_min_width_levels(monkeypatch):
    # interleaved chains of five rows a step take the level path exactly
    # from LEVEL_MIN_ROWS on, and give the reference loop's bits there
    by_levels = spy_on_numeric(monkeypatch)
    m = ilu.LEVEL_MIN_ROWS
    for n in (m - 1, m, m + 1):
        A = interleaved_chains(n, 5)
        assert_ic_matches_reference_loop(ilu_k(A, 0), A)
    assert by_levels == [False, True, True]


def assert_ic_matches_reference_loop(factor, A):
    want, _fail = ref_ic_numeric(A.nrows, A.indptr, A.indices, A.data,
                                 factor.u_indptr, factor.u_indices)
    assert_bytes_equal(factor.u_data, want)


def spy_on_numeric(monkeypatch):
    """A list that records, for each later ``ilu_numeric`` call, whether it
    received ``steps``: whether ``ilu_k`` took the level path."""
    ilu_numeric = _kernels.ilu_numeric
    by_levels = []

    def spy(*args):
        by_levels.append(args[-1] is not None)
        return ilu_numeric(*args)

    monkeypatch.setattr(_kernels, "ilu_numeric", spy)
    return by_levels


def interleaved_chains(n, w):
    """Row i coupled to row i - w: w interleaved chains, whose elimination
    steps hold w rows each."""
    M = 3.0 * np.eye(n) - np.eye(n, k=w) - np.eye(n, k=-w)
    return SparseMatrixCSR.from_dense(M, symmetric=True)


def test_full_fill_level_gives_the_full_elimination_pattern():
    # with k = n every fill path is admitted: the pattern is closed under
    # elimination, so one more level changes nothing
    A = random_pattern_matrix(3, 40, 0.05, True)
    a = _kernels.ilu_symbolic(40, A.indptr, A.indices, 40)
    b = _kernels.ilu_symbolic(40, A.indptr, A.indices, 10**6)
    for got, want in zip(a, b):
        assert_bytes_equal(got, want)


def both_numeric_forms(A, k):
    """The (values, first zero-pivot row) of each numeric form, the row loop
    first, on A's IC(k) pattern, with any floating-point warning raised;
    and the level form's schedule."""
    n = A.nrows
    u_indptr, u_indices = _kernels.ilu_symbolic(n, A.indptr, A.indices, k)
    lower = _kernels.lower_pattern(u_indptr, u_indices)
    schedule = _kernels.elimination_steps(u_indptr, lower)
    ref = ref_ic_numeric(n, A.indptr, A.indices, A.data, u_indptr, u_indices)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        forms = [_kernels.ilu_numeric(n, A.indptr, A.indices, A.data, u_indptr,
                                      u_indices, lower, steps)
                 for steps in (None, schedule)]
    return ref, forms, schedule


@pytest.mark.parametrize("dense, row", [
    ([[1.0, 1.0], [1.0, 1.0]], 1),
    # the pivot of row 1 cancels only through elimination: 2 - (2 / 2) * 2
    ([[2.0, 2.0, 0.0], [2.0, 2.0, 1.0], [0.0, 1.0, 3.0]], 1),
    # the cancellation in row 2 runs through two level-1 fill entries
    ([[1.0, -1.0, 1.0], [-1.0, 2.0, 0.0], [1.0, 0.0, 2.0]], 2),
])
def test_zero_pivot_row_matches_reference(dense, row):
    A = SparseMatrixCSR.from_dense(np.array(dense), symmetric=True)
    (_ref_data, ref_fail), forms, _schedule = both_numeric_forms(A, A.nrows)
    assert ref_fail == row
    assert [fail for _data, fail in forms] == [row, row]
    with pytest.raises(ZeroPivot) as err:
        ilu_k(A, A.nrows)
    assert err.value.row == row


def symmetric_planted_zero_pivots(n=400):
    """2x2 blocks [[2, 1], [1, 2]] on the diagonal, except [[1, 1], [1, 1]]
    at rows 300-301 and [[2.5, 1], [1, 1]] at rows 100-101, coupled to row
    99 by 1.5 at (99, 100) and (100, 99).  Row 99's pivot is 2 - 1/2 = 1.5,
    so row 100's is 2.5 - (1.5/1.5) * 1.5 = 1, and the second pivot of
    both planted blocks is exactly 1 - 1 * 1 = 0.  Through the chain
    98-99-100, row 101 completes at a later elimination step than row 301.
    Row 399 depends on row 101, so a later step divides by the zero pivot."""
    M = np.zeros((n, n))
    for i in range(0, n, 2):
        M[i:i + 2, i:i + 2] = [[2.0, 1.0], [1.0, 2.0]]
    M[100:102, 100:102] = [[2.5, 1.0], [1.0, 1.0]]
    M[300:302, 300:302] = [[1.0, 1.0], [1.0, 1.0]]
    M[99, 100] = M[100, 99] = 1.5
    M[101, n - 1] = M[n - 1, 101] = 1.0
    return SparseMatrixCSR.from_dense(M, symmetric=True)


@pytest.mark.parametrize("k", [0, 2])
def test_zero_pivot_on_the_level_path(k):
    # the level form runs on past the zero pivot that stops the row loop,
    # and still reports the first zero-pivot row, not the first to finish
    (_ref_data, ref_fail), forms, (_at, row, step, *_rest) = both_numeric_forms(
        symmetric_planted_zero_pivots(), k)
    assert step[row == 301].max() < step[row == 101].max()
    assert ref_fail == 101
    assert [fail for _data, fail in forms] == [101, 101]


@pytest.mark.parametrize("k", [0, 2])
def test_zero_pivot_on_the_level_path_of_a_symmetric_block(monkeypatch, k):
    A = symmetric_planted_zero_pivots()
    assert A.nrows >= ilu.LEVEL_MIN_ROWS
    by_levels = spy_on_numeric(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ZeroPivot) as err:
            ilu_k(A, k)
    assert by_levels == [True]
    assert err.value.row == 101


def test_tiny_pivot_solve_warns_of_nothing():
    # 1e10 / 1e-300 overflows in the numeric phase (row 1's pivot becomes
    # -inf), when strict U is divided by its pivot and when the solve
    # divides by the pivots; -inf / -inf and inf * nan then give nan
    A = SparseMatrixCSR.from_dense(np.array([[1e-300, 1e10], [1e10, 1.0]]),
                                   symmetric=True)
    r = np.array([1e10, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        factor = ilu_k(A, 0)
        got = factor.solve(r)
    with np.errstate(over="ignore", invalid="ignore"):
        want = ref_ic_solve(factor.u_indptr, factor.u_indices, factor.u_data, r)
    assert factor.pivots[0] == -np.inf
    assert np.isnan(got).all()
    assert_bytes_equal(got, want)


def grid_block(side, seed):
    """The principal submatrix of a grid Laplacian on a random 70 % of its
    points, as the solver factors on a face of the bearing."""
    rng = np.random.default_rng(seed)
    A = grid_laplacian(side)
    return extract_submatrix(A, np.flatnonzero(rng.random(A.nrows) < 0.7))


def chain_with_jumps(n=400):
    """Tridiagonal plus the entries (i, i - 9) for every seventh i: runs of
    rows that depend only on their predecessor, cut by longer jumps."""
    M = 2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
    for i in range(9, n, 7):
        M[i, i - 9] = M[i - 9, i] = -0.5
    return SparseMatrixCSR.from_dense(M, symmetric=True)


SCHEDULE_PATTERNS = ([(case, k) for k in (0, 2) for case in CASES + LARGE_CASES]
                     + [(grid_block(30, seed), k) for seed in (1, 2) for k in (0, 1, 2)]
                     + [(chain_with_jumps(), 0), (chain_with_jumps(), 2)])


@pytest.mark.parametrize("case, k", SCHEDULE_PATTERNS,
                         ids=[f"{i}-k{k}" for i, (_c, k) in enumerate(SCHEDULE_PATTERNS)])
def test_level_schedule_matches_reference_loop(case, k):
    A = case if isinstance(case, SparseMatrixCSR) else case_matrix(case)
    if A.symmetric:
        u_indptr, u_indices = _kernels.ilu_symbolic(A.nrows, A.indptr, A.indices, k)
    else:
        # the schedule reads any upper pattern with its diagonal: here the
        # upper triangle of the unsymmetric ILU(k) pattern
        lu_indptr, lu_indices, _lu_diag = ref_ilu_symbolic(A.nrows, A.indptr, A.indices, k)
        u_indptr, u_indices, _upper = upper_triangle(A.nrows, lu_indptr, lu_indices)
    assert_schedule_matches_reference(u_indptr, _kernels.lower_pattern(u_indptr, u_indices))


def assert_schedule_matches_reference(u_indptr, lower):
    """``elimination_steps`` equals ``ref_schedule`` byte for byte.
    Returns the schedule."""
    schedule = _kernels.elimination_steps(u_indptr, lower)
    for got, ref in zip(schedule, ref_schedule(u_indptr, *lower), strict=True):
        assert_bytes_equal(got, ref)
    return schedule


def test_level_schedule_matches_reference_loop_on_a_bearing_block(monkeypatch):
    # the first block an ILU(2) solve of a small bearing factors
    blocks = []
    real = precond.ilu_k

    def record(M, k):
        blocks.append((M, k))
        return real(M, k)

    monkeypatch.setattr(precond, "ilu_k", record)
    qp = generate(BearingSpec(30, 30, 0.1))
    solve(qp, qp.l.copy(), SolverConfig(precond="bjacobi-ilu2", tol=1e-4))
    M, k = blocks[0]
    assert k == 2 and M.nrows >= ilu.LEVEL_MIN_ROWS
    u_indptr, u_indices = _kernels.ilu_symbolic(M.nrows, M.indptr, M.indices, k)
    assert_schedule_matches_reference(u_indptr, _kernels.lower_pattern(u_indptr, u_indices))


def test_lower_pattern_is_the_transpose_with_positions():
    A = grid_block(12, 4)
    u_indptr, u_indices = _kernels.ilu_symbolic(A.nrows, A.indptr, A.indices, 2)
    l_indptr, l_indices, at = _kernels.lower_pattern(u_indptr, u_indices)
    rows = np.repeat(np.arange(A.nrows), np.diff(l_indptr))
    # entry t of the lower pattern is (rows[t], l_indices[t]), U's entry
    # (l_indices[t], rows[t]) at position at[t]
    assert_bytes_equal(u_indices[at], rows)
    assert (np.diff(l_indices)[np.diff(rows) == 0] > 0).all()
    assert_bytes_equal(at[l_indptr[1:] - 1], u_indptr[:-1])  # the diagonal
    assert_bytes_equal(np.sort(at), np.arange(u_indices.size))


@pytest.mark.parametrize("dtype", [np.int32, np.int64])
@pytest.mark.parametrize("seed", range(4))
def test_upper_matches_the_searchsorted_form(seed, dtype):
    # the running sum of the kept entries' row counts gives the offsets
    # that searching the kept positions for each row's start gives, dtypes
    # included, on rows in any order, empty rows and rows with no upper entry
    rng = np.random.default_rng(seed)
    n = 80
    rows = [rng.permutation(n)[:rng.integers(0, 12)] for _ in range(n)]
    rows[rng.integers(n)] = np.arange(rng.integers(1, n))  # all below a late diagonal
    indptr = np.concatenate([[0], np.cumsum([r.size for r in rows])]).astype(dtype)
    indices = np.concatenate(rows).astype(dtype)
    kept = (indices >= np.arange(n).repeat(np.diff(indptr))).nonzero()[0]
    got = _kernels._upper(n, indptr, indices)
    assert_bytes_equal(got[0], kept.searchsorted(indptr))
    assert_bytes_equal(got[1], indices[kept])


# ---------------------------------------------------------------------------
# wide blocks
# ---------------------------------------------------------------------------

def skewed_grid():
    """grid20 with entry (0, 1) moved to (0, 2): strict L and strict U keep
    their sizes, but the pattern is no longer symmetric."""
    M = grid_laplacian(20).to_dense()
    M[0, 1], M[0, 2] = 0.0, -1.0
    return SparseMatrixCSR.from_dense(M)


# symmetric and unsymmetric, all large enough for the level form
WIDE_CASES = [("grid20", grid_laplacian(20)),
              ("sym300", random_pattern_matrix(5, 300, 0.01, True)),
              ("unsym300", random_pattern_matrix(5, 300, 0.01, False)),
              ("skewed-grid20", skewed_grid())]


def dense_pattern(n, indptr, indices):
    pattern = np.zeros((n, n), dtype=bool)
    pattern[np.repeat(np.arange(n), np.diff(indptr[:n + 1])), indices] = True
    return pattern


def test_symmetric_pattern_matches_the_transpose():
    # symmetry_holds on a pattern's zeros and on its values, as read_matrix
    # and the matrix record call it
    inputs = ([case_matrix(case) for case in CASES + LARGE_CASES + ["grid"]]
              + [A for _name, A in WIDE_CASES])
    for A in inputs:
        n = A.nrows
        pattern = dense_pattern(n, A.indptr, A.indices)
        dense = A.to_dense()
        want = bool((pattern == pattern.T).all())
        assert _kernels.symmetry_holds(n, A.indptr, A.indices,
                                       np.zeros(A.nnz, dtype=bool)) == want
        assert _kernels.symmetry_holds(n, A.indptr, A.indices, A.data) == want
        assert want == A.symmetric == bool((dense == dense.T).all())


SYMMETRIC_INPUTS = ([case for case in CASES + LARGE_CASES
                     if case == "grid20" or case[3]]
                    + [("grid_block", seed) for seed in (1, 2)])


@pytest.mark.parametrize("k", [0, 1, 2, 3, "n"])
@pytest.mark.parametrize("case", SYMMETRIC_INPUTS, ids=str)
def test_ilu_symbolic_keeps_a_symmetric_pattern_symmetric(case, k):
    # the ILU(k) pattern of a symmetric pattern is symmetric, so its upper
    # triangle, which ilu_symbolic returns, holds all of it
    A = grid_block(30, case[1]) if case[0] == "grid_block" else case_matrix(case)
    n = A.nrows
    fill = n if k == "n" else k
    lu_indptr, lu_indices, _lu_diag = ref_ilu_symbolic(n, A.indptr, A.indices, fill)
    pattern = dense_pattern(n, lu_indptr, lu_indices)
    assert (pattern == pattern.T).all()
    u_indptr, u_indices, _keep = upper_triangle(n, lu_indptr, lu_indices)
    got = _kernels.ilu_symbolic(n, A.indptr, A.indices, fill)
    assert_bytes_equal(got[0], u_indptr)
    assert_bytes_equal(got[1], u_indices)


@pytest.mark.parametrize("k", [0, 2])
@pytest.mark.parametrize("name, A", WIDE_CASES, ids=[c[0] for c in WIDE_CASES])
def test_ilu_k_takes_the_level_path_for_wide_blocks_of_any_pattern(
        monkeypatch, name, A, k):
    # the symmetric blocks go by levels, with the reference loop's bits; the
    # unsymmetric ones are refused before any numeric work
    by_levels = spy_on_numeric(monkeypatch)
    if not A.symmetric:
        with pytest.raises(ValueError, match="symmetric"):
            ilu_k(A, k)
        assert by_levels == []
        return
    factor = ilu_k(A, k)
    assert by_levels == [True]
    n = A.nrows
    lu_indptr, lu_indices, lu_diag = ref_ilu_symbolic(n, A.indptr, A.indices, k)
    ic_data, _fail = ref_ic_numeric(n, A.indptr, A.indices, A.data, factor.u_indptr,
                                    factor.u_indices)
    assert_bytes_equal(factor.u_data, ic_data)
    lu_data, _fail = ref_ilu_numeric(n, A.indptr, A.indices, A.data,
                                     lu_indptr, lu_indices, lu_diag)
    assert_solves_match_reference_loops(factor, lu_indptr, lu_indices, lu_data, lu_diag)


def test_without_fill_the_factor_keeps_the_upper_input_pattern():
    A = random_pattern_matrix(3, 60, 0.05, True)
    n = 2 * A.nrows
    tridiagonal = SparseMatrixCSR.from_dense(
        3.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1), symmetric=True)
    # IC(0) keeps every pattern; a tridiagonal pattern gains no fill at
    # any level, the random one gains some at level 1
    for M, k, kept in ((A, 0, True), (tridiagonal, 2, True), (A, 1, False)):
        u_indptr, u_indices, _keep = upper_triangle(M.nrows, M.indptr, M.indices)
        got = _kernels.ilu_symbolic(M.nrows, M.indptr, M.indices, k)
        assert (got[1].size == u_indices.size) == kept
        if kept:
            assert_bytes_equal(got[0], u_indptr)
            assert_bytes_equal(got[1], u_indices)


@pytest.mark.parametrize("k", [0, 2])
def test_one_block_factors_the_matrix_itself(monkeypatch, k):
    A = grid_block(12, 3)
    want = ilu_k(extract_submatrix(A, np.arange(A.nrows)), k)
    calls = []

    def spy(M, idx):
        calls.append(idx.size)
        return extract_submatrix(M, idx)

    monkeypatch.setattr(precond, "extract_submatrix", spy)
    [(_rows, got)] = precond.make_preconditioner(A, f"bjacobi-ilu{k}", 1).blocks
    assert calls == []
    for name in ("u_indptr", "u_indices", "u_data"):
        assert_bytes_equal(getattr(got, name), getattr(want, name))
    # more blocks are extracted, one call each
    precond.make_preconditioner(A, f"bjacobi-ilu{k}", 2)
    assert len(calls) == 2




def test_reduced_matrices_build_no_scipy_view(monkeypatch):
    # extraction, products, the diagonal and IC(k) setup, fill included,
    # run on the CSR arrays: no scipy.sparse object is built
    A = grid_laplacian(12)

    def refuse(self, *args, **kwargs):
        raise AssertionError("a csr_array was built")

    monkeypatch.setattr(sp.csr_array, "__init__", refuse)
    B = extract_submatrix(A, np.flatnonzero(np.random.default_rng(4).random(A.nrows) < 0.7))
    x = np.linspace(-1.0, 1.0, B.ncols)
    y, diag = mat_vec(B, x), B.diagonal()
    for k in (0, 2):
        ilu_k(B, k)
    monkeypatch.undo()
    assert B._scipy is None
    assert_bytes_equal(B.indices, grid_block(12, 4).indices)  # the same block
    # the compiled routines the view's product and diagonal call
    assert_bytes_equal(y, B.scipy @ x)
    assert_bytes_equal(diag, B.scipy.diagonal())


@pytest.mark.parametrize("seed", range(4))
def test_matvec_matches_left_to_right_loop(seed):
    rng = np.random.default_rng(seed)
    nrows, ncols = int(rng.integers(1, 80)), int(rng.integers(1, 80))
    M = rng.standard_normal((nrows, ncols)) * (rng.random((nrows, ncols)) < 0.3)
    M[rng.integers(0, nrows)] = 0.0  # an empty row
    A = SparseMatrixCSR.from_dense(M)
    x = rng.standard_normal(ncols) * 10.0 ** rng.integers(-8, 8, ncols)
    assert_bytes_equal(mat_vec(A, x), ref_matvec(A, x))
    assert_bytes_equal(mat_vec(A, x), A.scipy @ x)


def test_matvec_view_shares_the_matrix_arrays():
    A = grid_laplacian(5)
    view = A.scipy
    assert view is A.scipy
    assert np.shares_memory(view.data, A.data)
    assert np.shares_memory(view.indices, A.indices)
