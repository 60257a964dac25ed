"""Low-level CSR and incomplete-factorization kernels.

There is one implementation of each kernel.  Submatrix extraction and the
ILU(k) symbolic phase are vectorized with numpy and ``scipy.sparse``.  The
ILU numeric phase and the triangular solves are row loops whose arithmetic
order is part of their contract; they index ``memoryview``s of the numpy
arrays, which yields plain Python floats instead of numpy scalars but the
same IEEE double results.
"""

import numpy as np
import scipy.sparse as sp

# No compiled backend exists; the constant stays for readers of the
# benchmark's environment record.
JIT_ENABLED = False


# ---------------------------------------------------------------------------
# principal/rectangular submatrix extraction
# ---------------------------------------------------------------------------

def csr_extract(indptr, indices, data, rows, colmap):
    m = rows.shape[0]
    counts = indptr[rows + 1] - indptr[rows] if m else np.zeros(0, dtype=np.int64)
    total = int(counts.sum())
    if total == 0:
        return (np.zeros(m + 1, dtype=np.int64),
                np.empty(0, dtype=np.int64),
                np.empty(0, dtype=np.float64))
    shift = np.repeat(np.cumsum(counts) - counts, counts)
    pos = np.repeat(indptr[rows], counts) + (np.arange(total) - shift)
    cols = colmap[indices[pos]]
    vals = data[pos]
    keep = (cols >= 0) & (vals != 0.0)
    out_counts = np.bincount(np.repeat(np.arange(m), counts)[keep], minlength=m)
    out_indptr = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(out_counts, out=out_indptr[1:])
    return out_indptr, cols[keep].astype(np.int64), vals[keep]


# ---------------------------------------------------------------------------
# ILU(k): level-of-fill symbolic phase, pattern-restricted numeric phase
# ---------------------------------------------------------------------------

def _keys(n, indptr, indices):
    """Row-major keys ``row * n + col`` of an n-row CSR pattern; sorted when
    the indices are sorted within each row."""
    keys = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr[:n + 1]))
    keys *= n
    keys += indices[:indptr[n]]
    return keys


def _triangles(n, keys):
    """Strictly lower and strictly upper parts of the pattern given by the
    sorted row-major keys ``row * n + col``, as boolean CSR matrices."""
    rows, cols = np.divmod(keys, n)
    parts = []
    for sel in (rows > cols, rows < cols):
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows[sel], minlength=n), out=indptr[1:])
        parts.append(sp.csr_array((np.ones(indptr[n], dtype=bool), cols[sel], indptr),
                                  shape=(n, n)))
    return parts


def ilu_symbolic(n, a_indptr, a_indices, fill_level):
    """Pattern of the ILU(k) factor of an n x n CSR pattern.

    Entry (i, j) has level min over p < min(i, j) of lev(i, p) + lev(p, j) + 1,
    with input entries at level 0, and is kept when its level is at most
    ``fill_level``.  So the level-l entries are the pattern of the sum over
    a + b = l - 1 of tril(level a) @ triu(level b), minus the entries of lower
    levels.  Returns the factor's indptr, sorted indices, per-entry levels
    and the position of each row's diagonal entry (-1 where it is absent).
    """
    keys = _keys(n, a_indptr, a_indices)  # of the pattern so far
    levels = np.zeros(keys.size, dtype=np.int64)
    lower, upper = [], []
    fresh = keys  # the entries of the last level
    top = 0       # highest level with an entry
    lev = 1
    # a level-l entry needs two entries whose levels sum to l - 1
    while lev <= fill_level and lev - 1 <= 2 * top:
        low, up = _triangles(n, fresh)
        lower.append(low)
        upper.append(up)
        cand = None
        for a in range(lev):
            if lower[a].nnz and upper[lev - 1 - a].nnz:
                prod = lower[a] @ upper[lev - 1 - a]
                cand = prod if cand is None else cand + prod
        fresh = np.empty(0, dtype=np.int64)
        if cand is not None:
            cand = cand.tocoo()
            ck = cand.row.astype(np.int64) * n + cand.col
            fresh = np.sort(ck[keys.take(np.searchsorted(keys, ck), mode="clip") != ck])
        if fresh.size:
            at = np.searchsorted(keys, fresh)
            keys = np.insert(keys, at, fresh)
            levels = np.insert(levels, at, lev)
            top = lev
        lev += 1
    rows, lu_indices = np.divmod(keys, n)
    lu_indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=lu_indptr[1:])
    lu_diag = np.full(n, -1, dtype=np.int64)
    on_diag = np.flatnonzero(rows == lu_indices)
    lu_diag[rows[on_diag]] = on_diag
    return lu_indptr, lu_indices, levels, lu_diag


def ilu_numeric(n, a_indptr, a_indices, a_data, lu_indptr, lu_indices, lu_diag):
    """Values of the combined LU factor on a symbolic pattern.

    Row-wise Gaussian elimination restricted to the pattern, without
    pivoting; the pattern must contain the input's, as the one from
    ``ilu_symbolic`` does.  Returns the factor values and the first row whose
    pivot is exactly zero (-1 when there is none); the values are then
    incomplete.
    """
    lu_data = np.zeros(int(lu_indptr[n]), dtype=np.float64)
    # scatter the input values onto the (sorted) factor pattern
    at = np.searchsorted(_keys(n, lu_indptr, lu_indices), _keys(n, a_indptr, a_indices))
    lu_data[at] = a_data[:at.size]

    ptr = memoryview(lu_indptr)
    ind = memoryview(lu_indices)
    dg = memoryview(lu_diag)
    val = memoryview(lu_data)
    pos = [-1] * n
    for i in range(n):
        rs = ptr[i]
        re = ptr[i + 1]
        for t in range(rs, re):
            pos[ind[t]] = t
        t = rs
        while t < re and ind[t] < i:
            p = ind[t]
            mult = val[t] / val[dg[p]]
            val[t] = mult
            for s in range(dg[p] + 1, ptr[p + 1]):
                tq = pos[ind[s]]
                if tq != -1:
                    val[tq] -= mult * val[s]
            t += 1
        for t in range(rs, re):
            pos[ind[t]] = -1
        if val[dg[i]] == 0.0:
            return lu_data, i
    return lu_data, -1


def lu_solve(lu_indptr, lu_indices, lu_data, lu_diag, r):
    """Forward substitution with unit-diagonal L, then back substitution
    with U; each row subtracts its terms left to right."""
    z = np.array(r, dtype=np.float64)
    ptr = memoryview(lu_indptr)
    ind = memoryview(lu_indices)
    val = memoryview(lu_data)
    dg = memoryview(lu_diag)
    zv = memoryview(z)
    n = z.shape[0]
    for i in range(n):
        s = zv[i]
        for t in range(ptr[i], dg[i]):
            s -= val[t] * zv[ind[t]]
        zv[i] = s
    for i in range(n - 1, -1, -1):
        s = zv[i]
        for t in range(dg[i] + 1, ptr[i + 1]):
            s -= val[t] * zv[ind[t]]
        zv[i] = s / val[dg[i]]
    return z
