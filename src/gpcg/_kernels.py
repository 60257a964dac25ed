"""Low-level CSR and incomplete-factorization kernels.

Submatrix extraction and the ILU(k) symbolic phase are vectorized with numpy
and ``scipy.sparse``.  The ILU numeric phase and the triangular solves have
two forms with the same arithmetic, operation for operation:

* row loops (``ilu_numeric`` without a schedule, ``lu_solve``), which index
  ``memoryview``s of the numpy arrays and so work on plain Python floats;
* level-scheduled forms (``ilu_numeric`` with a schedule from
  ``level_schedule``, and ``SolvePlan``).  Rows of equal dependency depth
  do not depend on each other, so each level is one vectorized step
  (Anderson & Saad 1989; Saad, *Iterative Methods for Sparse Linear
  Systems*, 2nd ed., section 11.6).  Every row still performs its
  subtractions in column order, so the results are bit-for-bit those of
  the row loops.

The level forms cost a schedule and a plan per factor, which only pays off
on large blocks; ``ilu.ilu_k`` picks the form.
"""

import numpy as np
import scipy.sparse as sp
# Accumulates into its output array and sums each row left to right; the
# public ``csr_array @ x`` starts every row from +0.0 instead.
from scipy.sparse._sparsetools import csr_matvec

# No compiled backend exists; the constant stays for readers of the
# benchmark's environment record.
JIT_ENABLED = False


# ---------------------------------------------------------------------------
# principal/rectangular submatrix extraction
# ---------------------------------------------------------------------------

def _spans(starts, counts):
    """Concatenated ranges ``starts[i] .. starts[i] + counts[i] - 1``."""
    total = int(counts.sum())
    return np.arange(total) - np.repeat(np.cumsum(counts) - counts - starts, counts)


def csr_extract(indptr, indices, data, rows, colmap):
    m = rows.shape[0]
    counts = indptr[rows + 1] - indptr[rows] if m else np.zeros(0, dtype=np.int64)
    total = int(counts.sum())
    if total == 0:
        return (np.zeros(m + 1, dtype=np.int64),
                np.empty(0, dtype=np.int64),
                np.empty(0, dtype=np.float64))
    pos = _spans(indptr[rows], counts)
    cols = colmap[indices[pos]]
    vals = data[pos]
    keep = (cols >= 0) & (vals != 0.0)
    out_counts = np.bincount(np.repeat(np.arange(m), counts)[keep], minlength=m)
    out_indptr = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(out_counts, out=out_indptr[1:])
    return out_indptr, cols[keep].astype(np.int64), vals[keep]


# ---------------------------------------------------------------------------
# ILU(k): level-of-fill symbolic phase, level schedules, pattern-restricted
# numeric phase and triangular solves
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


def level_schedule(lu_indptr, lu_indices, lu_diag, upper=False):
    """Level schedule of strict L (or, with ``upper``, strict U) of a
    combined LU pattern.

    Level 0 holds the rows without strict-L entries; level l > 0 the rows
    whose strict-L entries reach rows of level l - 1 at most, and one at
    least.  For U, the same with strict-U entries.  Returns ``(order,
    bounds)``: the rows of level l are ``order[bounds[l]:bounds[l + 1]]``,
    in ascending order.
    """
    # An interpreted loop, about 1 us a row: a vectorized form with a handful
    # of numpy calls per level measured no faster on bearing factors.  It
    # indexes memoryviews, as lists of Python ints would take 3 MB more.
    n = lu_diag.size
    ind = memoryview(lu_indices)
    if upper:
        lo, hi = memoryview(lu_diag + 1), memoryview(lu_indptr[1:])
        visit = range(n - 1, -1, -1)
    else:
        lo, hi, visit = memoryview(lu_indptr), memoryview(lu_diag), range(n)
    depth = np.zeros(n, dtype=np.int64)
    dv = memoryview(depth)
    get = dv.__getitem__
    for i in visit:
        a = lo[i]
        b = hi[i]
        if a < b:
            dv[i] = max(map(get, ind[a:b])) + 1
    order = np.argsort(depth, kind="stable")
    bounds = np.zeros(int(depth.max(initial=-1)) + 2, dtype=np.int64)
    np.cumsum(np.bincount(depth), out=bounds[1:])
    return order, bounds


def ilu_numeric(n, a_indptr, a_indices, a_data, lu_indptr, lu_indices, lu_diag,
                forward=None):
    """Values of the combined LU factor on a symbolic pattern.

    Row-wise Gaussian elimination restricted to the pattern, without
    pivoting; the pattern must contain the input's, as the one from
    ``ilu_symbolic`` does.  With ``forward``, the schedule of strict L from
    ``level_schedule``, the rows of a level are eliminated together, with the
    same result.  Returns the factor values and the first row whose pivot is
    exactly zero (-1 when there is none); the values are then incomplete.
    """
    lu_data = np.zeros(int(lu_indptr[n]), dtype=np.float64)
    # scatter the input values onto the (sorted) factor pattern
    keys = _keys(n, lu_indptr, lu_indices)
    at = np.searchsorted(keys, _keys(n, a_indptr, a_indices))
    lu_data[at] = a_data[:at.size]
    if forward is None:
        return lu_data, _eliminate_rows(n, lu_indptr, lu_indices, lu_diag, lu_data)
    # Later levels divide by the zero pivot, if there is one; the row loop
    # would have stopped there, so the values are incomplete either way.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        _eliminate_levels(n, lu_indptr, lu_indices, lu_diag, lu_data, keys, *forward)
    zero = np.flatnonzero(lu_data[lu_diag] == 0.0)
    return lu_data, int(zero[0]) if zero.size else -1


def _eliminate_rows(n, lu_indptr, lu_indices, lu_diag, lu_data):
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
            return i
    return -1


def _steps(lu_indptr, lu_indices, lu_diag, order, bounds):
    """The strict-L entries t in step order, where step (l, k) holds the
    k-th strict-L entry of every row of level l; with each entry's row, step
    and pivot position, the number of strict-U entries of its pivot row, and
    where each step starts in these arrays, plus the end."""
    nl = (lu_diag - lu_indptr[:-1])[order]        # strict-L entries, level order
    width = np.maximum.reduceat(nl, bounds[:-1])  # steps of each level
    first = np.cumsum(width) - width
    starts = lu_indptr[:-1][order]
    t = _spans(starts, nl)
    step = t + np.repeat(np.repeat(first, np.diff(bounds)) - starts, nl)
    by_step = np.argsort(step, kind="stable")
    t, step = t[by_step], step[by_step]
    row = np.repeat(order, nl)[by_step]
    pivot = lu_diag[lu_indices[t]]
    u_count = lu_indptr[lu_indices[t] + 1] - pivot - 1
    step_starts = np.searchsorted(step, np.arange(int(width.sum()) + 1))
    return t, row, step, pivot, u_count, step_starts


# Largest number of candidate (L entry, pivot-row U entry) pairs that
# ``_eliminate_levels`` expands at once; bounds its temporary memory to
# about 1 MB whatever the factor's size.
PAIR_CHUNK = 1 << 14


def _eliminate_levels(n, lu_indptr, lu_indices, lu_diag, lu_data, keys, order, bounds):
    """The row loop of ``_eliminate_rows``, run one step per (level, pivot
    position): step (l, k) takes the k-th strict-L entry t of every row i of
    level l, sets ``val[t] /= val[diag[p]]`` for its pivot row p, and
    subtracts ``val[t] * val[s]`` from row i's entry in the column of every
    entry s of U's row p.  The rows of a level and the columns of a row are
    distinct, so no step updates an entry twice, and every entry sees its
    updates in the row loop's order."""
    t, row, step, pivot, u_count, step_starts = _steps(
        lu_indptr, lu_indices, lu_diag, order, bounds)
    nsteps = step_starts.size - 1
    # chunks of whole steps, of about PAIR_CHUNK candidate pairs each
    before = np.concatenate(([0], np.cumsum(u_count)))[step_starts]
    cuts = np.unique(np.concatenate(
        ([0], np.searchsorted(before, np.arange(PAIR_CHUNK, before[-1], PAIR_CHUNK)),
         [nsteps]))).tolist()
    val = lu_data
    ss = step_starts.tolist()
    for c0, c1 in zip(cuts[:-1], cuts[1:]):
        a, b = ss[c0], ss[c1]
        cnt = u_count[a:b]
        src = _spans(pivot[a:b] + 1, cnt)             # U entries of the pivot rows
        key = np.repeat(row[a:b] * n, cnt) + lu_indices[src]
        dst = np.searchsorted(keys, key)              # same column in row i
        hit = keys.take(dst, mode="clip") == key
        src, dst = src[hit], dst[hit]
        mult = np.repeat(t[a:b], cnt)[hit]
        ps = np.searchsorted(np.repeat(step[a:b], cnt)[hit],
                             np.arange(c0, c1 + 1)).tolist()
        for j in range(c0, c1):
            ts = t[ss[j]:ss[j + 1]]
            val[ts] = val[ts] / val[pivot[ss[j]:ss[j + 1]]]
            q = slice(ps[j - c0], ps[j - c0 + 1])
            val[dst[q]] -= val[mult[q]] * val[src[q]]


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


def _level_rows(lu_indices, lu_data, order, starts, counts, rank):
    """The entries ``starts[i] .. starts[i] + counts[i] - 1`` of the rows
    ``order``, as CSR with columns renumbered by ``rank`` and values negated;
    each row keeps its column order."""
    counts = counts[order]
    pos = _spans(starts[order], counts)
    indptr = np.zeros(order.size + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return indptr, rank[lu_indices[pos]], -lu_data[pos]


class SolvePlan:
    """``lu_solve`` by levels.

    The vector is permuted so that each level is a contiguous slice, and
    strict L and strict U are stored in level order with negated values.
    Level by level, ``csr_matvec`` adds ``(-L) z`` into the level's slice of
    z itself: every row starts from its own z_i and adds ``(-v) * z_j`` in
    column order, which is bit for bit the row loop's ``s -= v * z_j``
    (signed zeros included).  The rows it reads belong to lower levels.
    """

    __slots__ = ("forward", "lower", "lower_levels", "to_backward", "upper",
                 "pivots", "upper_levels", "restore")

    def __init__(self, lu_indptr, lu_indices, lu_data, lu_diag, forward, backward):
        n = lu_diag.size
        (f_order, f_bounds), (b_order, b_bounds) = forward, backward
        f_rank = np.empty(n, dtype=np.int64)
        f_rank[f_order] = np.arange(n)
        b_rank = np.empty(n, dtype=np.int64)
        b_rank[b_order] = np.arange(n)
        self.forward = f_order
        self.lower = _level_rows(lu_indices, lu_data, f_order, lu_indptr[:-1],
                                 lu_diag - lu_indptr[:-1], f_rank)
        # level 0 has no strict-L entries
        self.lower_levels = list(zip(f_bounds[1:-1].tolist(), f_bounds[2:].tolist()))
        self.to_backward = f_rank[b_order]
        self.upper = _level_rows(lu_indices, lu_data, b_order, lu_diag + 1,
                                 lu_indptr[1:] - lu_diag - 1, b_rank)
        self.pivots = lu_data[lu_diag[b_order]]
        self.upper_levels = list(zip(b_bounds[:-1].tolist(), b_bounds[1:].tolist()))
        self.restore = b_rank

    def solve(self, r):
        z = np.asarray(r, dtype=np.float64)[self.forward]
        n = z.size
        indptr, indices, data = self.lower
        for a, b in self.lower_levels:
            csr_matvec(b - a, n, indptr[a:b + 1], indices, data, z, z[a:b])
        z = z[self.to_backward]
        indptr, indices, data = self.upper
        # the row loop's float division overflows silently
        with np.errstate(over="ignore", invalid="ignore"):
            for a, b in self.upper_levels:
                y = z[a:b]
                csr_matvec(b - a, n, indptr[a:b + 1], indices, data, z, y)
                y /= self.pivots[a:b]
        return z[self.restore]
