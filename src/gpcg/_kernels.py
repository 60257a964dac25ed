"""Low-level CSR and incomplete-factorization kernels.

Submatrix extraction and the ILU(k) symbolic phase are vectorized with numpy
and ``scipy.sparse``.  The ILU numeric phase has two forms with the same
arithmetic, operation for operation:

* the row loop (``ilu_numeric`` without ``finish``), which indexes Python
  lists, made with ``tolist()`` once per factor, and so works on plain
  Python floats;
* the level form (``ilu_numeric`` with ``finish``).  Entries whose pivot
  rows are complete do not depend on each other, so each step eliminates
  one strict-L entry of many rows in a few vectorized calls (the
  entry-wise variant of level scheduling: Anderson & Saad 1989; Saad,
  *Iterative Methods for Sparse Linear Systems*, 2nd ed., section 11.6).
  Every row still performs its subtractions in column order, so the
  results are bit-for-bit those of the row loop.

The level form costs a pass over strict L (``lower_schedule``) per factor,
which only pays off on large blocks; ``ilu.ilu_k`` picks the form from the
size and the number of levels of strict L.  The triangular solves are the
same on every factor: ``lu_solve_operands`` stores strict L and strict U,
the latter pre-divided by its pivots and in reverse order, once per factor,
and ``lu_solve`` runs each substitution as one compiled CSR product.
"""

import numpy as np
import scipy.sparse as sp
# The diagonal of a CSR matrix, 0 where an entry is absent, into an output
# array; what ``csr_array.diagonal()`` calls.
from scipy.sparse._sparsetools import csr_diagonal
# Accumulates into its output array and sums each row left to right; the
# public ``csr_array @ x`` calls it on an output of zeros.
from scipy.sparse._sparsetools import csr_matvec
# Position of each (row, column) pair in a canonical CSR pattern, -1 where
# the pattern has no such entry.
from scipy.sparse._sparsetools import csr_sample_offsets
# The transpose of a CSR matrix, as CSR arrays with sorted indices.
from scipy.sparse._sparsetools import csr_tocsc

# No compiled backend exists; the constant stays for readers of the
# benchmark's environment record.
JIT_ENABLED = False


# ---------------------------------------------------------------------------
# principal/rectangular submatrix extraction
# ---------------------------------------------------------------------------

def _spans(starts, counts):
    """Concatenated ranges ``starts[i] .. starts[i] + counts[i] - 1``."""
    ends = counts.cumsum()
    total = ends[-1] if ends.size else 0
    return np.arange(total) - (ends - counts - starts).repeat(counts)


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
# ILU(k): level-of-fill symbolic phase, elimination schedule and
# pattern-restricted numeric phase
# ---------------------------------------------------------------------------

def _keys(n, indptr, indices):
    """Row-major keys ``row * n + col`` of an n-row CSR pattern; sorted when
    the indices are sorted within each row."""
    keys = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr[:n + 1]))
    keys *= n
    keys += indices[:indptr[n]]
    return keys


def symmetry_holds(n, indptr, indices, data):
    """Whether an n x n CSR matrix with sorted, distinct indices per row
    equals its transpose, array for array: ``csr_tocsc`` forms the
    transpose with sorted indices too."""
    arrays = indptr, indices, data
    transposed = [np.empty_like(a) for a in arrays]
    csr_tocsc(n, n, *arrays, *transposed)
    return all(map(np.array_equal, transposed, arrays))


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
    levels.  Returns the factor's indptr, sorted indices and the position
    of each row's diagonal entry (-1 where it is absent).  Without fill the
    indptr and indices are the input's own arrays.
    """
    keys = fresh = None  # of the pattern so far, and of its last level
    lower, upper = [], []
    top = 0       # highest level with an entry
    lev = 1
    # a level-l entry needs two entries whose levels sum to l - 1
    while lev <= fill_level and lev - 1 <= 2 * top:
        if keys is None:
            keys = fresh = _keys(n, a_indptr, a_indices)
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
            keys = np.insert(keys, np.searchsorted(keys, fresh), fresh)
            top = lev
        lev += 1
    if top == 0:  # no fill: the input's own pattern
        lu_indptr, lu_indices = a_indptr[:n + 1], a_indices[:a_indptr[n]]
    else:
        rows, lu_indices = np.divmod(keys, n)
        lu_indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=n), out=lu_indptr[1:])
    rows = np.arange(n, dtype=np.int64)
    lu_diag = np.empty(n, dtype=np.int64)
    csr_sample_offsets(n, n, lu_indptr, lu_indices, n, rows, rows, lu_diag)
    return lu_indptr, lu_indices, lu_diag


def _longest_paths(n, ptr, deps, weights, bases, limit=None):
    """For each weight vector w and its base: value(i) = max(base, value(d)
    + w over the dependencies d of row i), for a DAG whose row i depends on
    the rows ``deps[ptr[i]:ptr[i + 1]]``, all less than i and ascending,
    through edges of weight ``w[ptr[i]:ptr[i + 1]]``; an edge to row i - 1
    that comes last in its row must weigh 1.  Returns one value array per
    weight vector, or None once the last value of a chunk (see below) of
    the first vector exceeds ``limit``.

    The rows run in chunks [s, e) whose rows depend on one another only
    through their predecessor: the other dependencies of row i lie before s.
    Within a chunk, value(i) = max(ext(i), value(i - 1) + 1) along each run
    of rows that depend on their predecessor, where ext(i) is the best over
    base and the other dependencies.  So value(i) - i is a running maximum
    of ext(k) - k over the run, one vectorized step per chunk and weight
    vector.  On a grid in natural order a chunk is about one grid line; on
    chain-like patterns chunks are a few rows long, and the per-chunk numpy
    calls cost more than a row loop would.
    """
    ends = ptr[1:]
    link = np.zeros(n, dtype=bool)  # row i depends on row i - 1, last
    rows = np.flatnonzero(ends > ptr[:-1])
    link[rows] = deps[ends[rows] - 1] == rows - 1
    keep = np.ones(deps.size, dtype=bool)
    keep[ends[link] - 1] = False
    # each row's other dependencies, then row n (value 0) at weight base
    others = np.diff(ptr) - link
    other_ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(others + 1, out=other_ptr[1:])
    slot = np.ones(int(other_ptr[n]), dtype=bool)
    slot[other_ptr[1:] - 1] = False
    other = np.full(slot.size, n, dtype=np.int64)
    other[slot] = deps[keep]
    other_weights = []
    for weight, base in zip(weights, bases):
        other_weight = np.full(slot.size, base, dtype=np.int64)
        other_weight[slot] = weight[keep]
        other_weights.append(other_weight)
    last_other = np.where(others > 0, other[other_ptr[1:] - 2], -1)
    # a chunk starting at s ends at the first row with another dependency >= s
    reach = np.searchsorted(np.maximum.accumulate(last_other), np.arange(n)).tolist()
    # Run offsets: a new run starts above anything the last one reached.  A
    # path meets every row once, so values lie in [base, deps.size].
    shift = np.cumsum(~link) * (deps.size + n + 2) - np.arange(n)
    values = [np.zeros(n + 1, dtype=np.int64) for _ in other_weights]
    s = 0
    while s < n:
        e = reach[s]
        a, b = other_ptr[s], other_ptr[e]
        chunk, starts, chunk_shift = other[a:b], other_ptr[s:e] - a, shift[s:e]
        for value, other_weight in zip(values, other_weights):
            ext = np.maximum.reduceat(value[chunk] + other_weight[a:b], starts)
            if link[s]:
                ext[0] = max(ext[0], value[s - 1] + 1)
            ext += chunk_shift
            np.maximum.accumulate(ext, out=ext)
            ext -= chunk_shift
            value[s:e] = ext
        if limit is not None and values[0][e - 1] > limit:
            return None
        s = e
    return [value[:n] for value in values]


def lower_schedule(lu_indptr, lu_indices, lu_diag, max_levels=None):
    """``finish``, the elimination step at which each row of
    ``ilu_numeric``'s level form is complete (-1 for rows without strict-L
    entries), from one pass over strict L of a combined LU pattern; or None
    when strict L has more than ``max_levels`` levels.  The pass stops at
    the first chunk that ends that deep, so a chain-like pattern costs a
    fraction of its full pass.

    Level 0 holds the rows without strict-L entries; level l > 0 the rows
    whose strict-L entries reach rows of level l - 1 at most, and one at
    least.

    Row i takes its strict-L entries in column order, and the one with pivot
    row p only after row p is complete: its k-th entry runs at step
    T(i, k) = max(T(i, k - 1), F(p)) + 1, where F(p) = ``finish[p]``.
    Unrolled, T(i, k) = k + 1 + the largest F(p_j) - j over j <= k, and F is
    the longest path over strict L with weight n_i - j on the j-th of row
    i's n_i entries.
    """
    n = lu_diag.size
    counts = lu_diag - lu_indptr[:-1]
    ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=ptr[1:])
    deps = lu_indices[_spans(lu_indptr[:-1], counts)]
    k = np.arange(deps.size) - np.repeat(ptr[:-1], counts)
    paths = _longest_paths(
        n, ptr, deps, (np.ones(deps.size, dtype=np.int64), np.repeat(counts, counts) - k),
        (0, -1), None if max_levels is None else max_levels - 1)
    if paths is None:
        return None
    depth, finish = paths
    if max_levels is not None and depth.max(initial=-1) >= max_levels:
        return None
    return finish


def ilu_numeric(n, a_indptr, a_indices, a_data, lu_indptr, lu_indices, lu_diag,
                finish=None):
    """Values of the combined LU factor on a symbolic pattern.

    Row-wise Gaussian elimination restricted to the pattern, without
    pivoting; the pattern must contain the input's and every diagonal entry,
    as the one from ``ilu_symbolic`` does for an input with a full diagonal.
    Given ``finish`` from ``lower_schedule``, the strict-L entries of many
    rows are eliminated together (``_steps``), with the same result.
    Returns the factor values and the first row whose pivot is exactly zero
    (-1 when there is none); the values are then incomplete.
    """
    nnz = int(a_indptr[n])
    if lu_indptr[n] == nnz:
        # a pattern that contains the input's and is no larger is the input's
        lu_data = np.array(a_data[:nnz], dtype=np.float64)
    else:
        lu_data = np.zeros(int(lu_indptr[n]), dtype=np.float64)
        # scatter the input values onto the (sorted) factor pattern
        keys = _keys(n, lu_indptr, lu_indices)
        at = np.searchsorted(keys, _keys(n, a_indptr, a_indices))
        lu_data[at] = a_data[:nnz]
    if finish is None:
        return lu_data, _eliminate_rows(n, lu_indptr, lu_indices, lu_diag, lu_data)
    # Later steps divide by the zero pivot, if there is one; the row loop
    # would have stopped there, so the values are incomplete either way.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        _eliminate_steps(n, lu_indptr, lu_indices, lu_diag, lu_data, finish)
    zero = np.flatnonzero(lu_data[lu_diag] == 0.0)
    return lu_data, int(zero[0]) if zero.size else -1


def _eliminate_rows(n, lu_indptr, lu_indices, lu_diag, lu_data):
    ptr = lu_indptr.tolist()
    ind = lu_indices.tolist()
    dg = lu_diag.tolist()
    val = lu_data.tolist()
    # pos[c]: position of column c in the latest row that has it, so it is
    # in row i exactly when it is at least the row's start
    pos = [-1] * n
    fail = -1
    for i in range(n):
        rs = ptr[i]
        for t in range(rs, ptr[i + 1]):
            pos[ind[t]] = t
        for t in range(rs, dg[i]):
            p = ind[t]
            dp = dg[p]
            mult = val[t] / val[dp]
            val[t] = mult
            for s in range(dp + 1, ptr[p + 1]):
                tq = pos[ind[s]]
                if tq >= rs:
                    val[tq] -= mult * val[s]
        if val[dg[i]] == 0.0:
            fail = i
            break
    lu_data[:] = val
    return fail


def _steps(lu_indptr, lu_indices, lu_diag, finish):
    """The strict-L entries t in step order, with each entry's row, step and
    pivot position, the number of strict-U entries of its pivot row, and
    where each step starts in these arrays, plus the end.

    The k-th strict-L entry of row i, with pivot row p_k, runs at step
    T(i, k) = k + 1 + the largest F(p_j) - j over j <= k, F being
    ``finish`` (see ``lower_schedule``).  Rows need not wait for a whole
    level, so there are fewer steps than in a level schedule's (level,
    entry) steps: 447 against 1382 on a 5200-row bearing factor.
    """
    n = lu_diag.size
    nl = lu_diag - lu_indptr[:-1]
    ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(nl, out=ptr[1:])
    t = _spans(lu_indptr[:-1], nl)
    p = lu_indices[t]
    k = np.arange(t.size) - np.repeat(ptr[:-1], nl)
    # running maximum of F(p_j) - j within each row
    offset = np.repeat(np.arange(n) * (t.size + n + 2), nl)
    step = np.maximum.accumulate(finish[p] - k + offset) - offset + k + 1
    by_step = np.argsort(step, kind="stable")
    t, step = t[by_step], step[by_step]
    row = np.repeat(np.arange(n), nl)[by_step]
    pivot = lu_diag[lu_indices[t]]
    u_count = lu_indptr[lu_indices[t] + 1] - pivot - 1
    step_starts = np.searchsorted(step, np.arange(int(finish.max(initial=-1)) + 2))
    return t, row, step, pivot, u_count, step_starts


# Largest number of candidate (L entry, pivot-row U entry) pairs that
# ``_eliminate_steps`` expands at once; bounds its temporary memory to
# about 1 MB whatever the factor's size.
PAIR_CHUNK = 1 << 14


def _eliminate_steps(n, lu_indptr, lu_indices, lu_diag, lu_data, finish):
    """The row loop of ``_eliminate_rows``, run by the steps of ``_steps``:
    a step takes the next strict-L entry t of each of its rows i, sets
    ``val[t] /= val[diag[p]]`` for its pivot row p, and subtracts
    ``val[t] * val[s]`` from row i's entry in the column of every entry s of
    U's row p.  The rows of a step are distinct and their pivot rows
    complete, and the columns of a row are distinct, so no step updates an
    entry twice, and every entry sees its updates in the row loop's order."""
    t, row, step, pivot, u_count, step_starts = _steps(lu_indptr, lu_indices, lu_diag,
                                                       finish)
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
        dst = np.empty(src.size, dtype=np.int64)      # same column in row i
        csr_sample_offsets(n, n, lu_indptr, lu_indices, src.size,
                           np.repeat(row[a:b], cnt), lu_indices[src], dst)
        hit = dst >= 0
        src, dst = src[hit], dst[hit]
        mult = np.repeat(t[a:b], cnt)[hit]
        ps = np.searchsorted(np.repeat(step[a:b], cnt)[hit],
                             np.arange(c0, c1 + 1)).tolist()
        for j in range(c0, c1):
            ts = t[ss[j]:ss[j + 1]]
            val[ts] = val[ts] / val[pivot[ss[j]:ss[j + 1]]]
            q = slice(ps[j - c0], ps[j - c0 + 1])
            val[dst[q]] -= val[mult[q]] * val[src[q]]


# ---------------------------------------------------------------------------
# triangular solves
# ---------------------------------------------------------------------------

def lu_solve_operands(lu_indptr, lu_indices, lu_data, lu_diag):
    """What ``lu_solve`` needs of a combined LU factor: strict L as CSR with
    values negated; strict U as CSR with each row divided by its pivot and
    negated, its rows and columns in reverse order (index i becomes
    n - 1 - i), each row keeping its column order; and the pivots in
    reverse order."""
    # array methods, not the numpy functions: a factor of n = 40 costs
    # tens of calls, and the functions' dispatch doubles their cost
    n = lu_diag.size
    starts = lu_indptr[:-1]
    below = lu_indices < np.arange(n).repeat(lu_indptr[1:] - starts)
    lower_indptr = np.zeros(n + 1, dtype=np.int64)
    (lu_diag - starts).cumsum(out=lower_indptr[1:])
    lower = lower_indptr, lu_indices[below], -lu_data[below]
    counts = (lu_indptr[1:] - lu_diag - 1)[::-1]
    at = _spans(lu_diag[::-1] + 1, counts)
    upper_indptr = np.zeros(n + 1, dtype=np.int64)
    counts.cumsum(out=upper_indptr[1:])
    pivots = lu_data[lu_diag[::-1]]
    # a tiny pivot overflows a quotient to inf, without a warning
    with np.errstate(over="ignore", invalid="ignore"):
        data = lu_data[at] / (-pivots).repeat(counts)
    return lower, (upper_indptr, (n - 1) - lu_indices[at], data), pivots


def lu_solve(lower, upper, pivots, r):
    """(LU)^-1 r as a new float64 array, given ``lu_solve_operands``: two
    ``csr_matvec`` calls, each in place.

    ``csr_matvec`` adds a CSR product into its output, taking the rows in
    order and each row's entries in stored order, and reads its input as it
    writes it.  Forward substitution starts from z = r and adds ``(-L) z``
    into z itself: row i reads the final z_j of every j < i, and adding
    ``(-v) * z_j`` is bit for bit subtracting ``v * z_j``, signed zeros
    included.  Back substitution runs on w, z reversed and divided by the
    pivots, and adds the reversed ``-(U / pivot)`` product into w: the
    strict-U columns j > i of row i come before it in reverse order.  So
    z_i = z_i / u_ii - sum over j of (u_ij / u_ii) z_j, subtracted in
    column order.
    """
    n = pivots.size
    z = np.array(r, dtype=np.float64)
    csr_matvec(n, n, *lower, z, z)
    with np.errstate(over="ignore", invalid="ignore"):
        w = z[::-1] / pivots
    csr_matvec(n, n, *upper, w, w)
    return w[::-1]
