"""Low-level CSR and incomplete-factorization kernels.

Submatrix extraction and the ILU(k) symbolic phase are vectorized with numpy
and ``scipy.sparse``.  The ILU numeric phase and the triangular solves have
two forms with the same arithmetic, operation for operation:

* the row path (``ilu_numeric`` without ``finish``, ``RowPlan``): the
  numeric phase and the back substitution are row loops that index Python
  lists, made with ``tolist()`` once per factor, and so work on plain
  Python floats;
* level-scheduled forms (``ilu_numeric`` with ``finish``, and
  ``SolvePlan``).  Rows of equal dependency depth do not depend on each
  other, so each level is one vectorized step (Anderson & Saad 1989; Saad,
  *Iterative Methods for Sparse Linear Systems*, 2nd ed., section 11.6).
  The numeric phase schedules single strict-L entries instead of whole
  rows, each as soon as its pivot row is complete; ``SolvePlan``'s back
  substitution walks the strict-L levels from last to first.
  Every row still performs its subtractions in column order, so the
  results are bit-for-bit those of the row loops, whichever valid schedule
  orders the rows.

Both solves run the forward substitution as one compiled call over the
negated strict L (``_forward``).  The level forms cost a schedule and a plan
per factor, which only pays off on large blocks; ``ilu.ilu_k`` picks the
form from the size, the pattern's symmetry and the width of the levels of
strict L.  One longest-path pass over strict L (``lower_schedule``) gives
both those levels and the steps of the numeric phase.  The back substitution
by levels needs a pattern whose strict U is the transposed strict L: ILU(k)
keeps the pattern of a symmetric block symmetric, and the level forms serve
symmetric blocks only.
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


def symmetry_holds(n, indptr, indices, data):
    """Whether an n x n CSR matrix with sorted, distinct indices per row
    equals its transpose, array for array: ``csr_tocsc`` forms the
    transpose with sorted indices too."""
    arrays = indptr, indices, data
    transposed = [np.empty_like(a) for a in arrays]
    csr_tocsc(n, n, *arrays, *transposed)
    return all(map(np.array_equal, transposed, arrays))


def symmetric_pattern(n, indptr, indices):
    """Whether an n x n CSR pattern with sorted, distinct indices per row
    is symmetric: whether a matrix of that pattern and equal values is."""
    return symmetry_holds(n, indptr, indices, np.zeros(indices.size, dtype=bool))


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


def _by_level(depth):
    """``(order, bounds)``: the rows of depth l are ``order[bounds[l]:bounds[l
    + 1]]``, in ascending order."""
    order = np.argsort(depth, kind="stable")
    bounds = np.zeros(int(depth.max(initial=-1)) + 2, dtype=np.int64)
    np.cumsum(np.bincount(depth), out=bounds[1:])
    return order, bounds


def lower_schedule(lu_indptr, lu_indices, lu_diag, max_levels=None):
    """Level schedule of strict L of a combined LU pattern, and ``finish``,
    the elimination step at which each row of ``ilu_numeric``'s level form
    is complete (-1 for rows without strict-L entries), from one pass over
    strict L; or None when there are more than ``max_levels`` levels.  The
    pass stops at the first chunk that ends that deep, so a chain-like
    pattern costs a fraction of its full schedule.

    Level 0 holds the rows without strict-L entries; level l > 0 the rows
    whose strict-L entries reach rows of level l - 1 at most, and one at
    least.  The schedule is ``(order, bounds)``: the rows of level l are
    ``order[bounds[l]:bounds[l + 1]]``, in ascending order.

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
    return _by_level(depth), finish


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


def _rows(lu_indices, lu_data, order, starts, counts):
    """The entries ``starts[i] .. starts[i] + counts[i] - 1`` of the rows
    ``order``, as CSR with values negated; each row keeps its column order."""
    counts = counts[order]
    pos = _spans(starts[order], counts)
    indptr = np.zeros(order.size + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return indptr, lu_indices[pos], -lu_data[pos]


def _strict_lower(lu_indptr, lu_indices, lu_data, lu_diag):
    """Strict L of a combined LU factor as CSR, with values negated."""
    n = lu_diag.size
    return _rows(lu_indices, lu_data, np.arange(n), lu_indptr[:-1],
                 lu_diag - lu_indptr[:-1])


def _forward(lower, r):
    """Forward substitution with unit-diagonal L, given ``_strict_lower``:
    a copy of r as float64, overwritten with L^-1 r.

    ``csr_matvec`` adds ``(-L) z`` into z itself: every row starts from its
    own z_i and adds ``(-v) * z_j`` in column order, which is bit for bit
    the row loop's ``s -= v * z_j`` (signed zeros included).  The call takes
    its rows in order and reads z as it writes it, so row i reads the final
    z_j of every j < i.
    """
    z = np.array(r, dtype=np.float64)
    n = z.size
    csr_matvec(n, n, *lower, z, z)
    return z


class RowPlan:
    """The triangular solves of a combined LU factor on the row path:
    ``_forward``, then back substitution with U as a row loop from the last
    row up, over Python lists made once per factor; each row subtracts its
    terms left to right and then divides by its pivot.  Python's float
    division raises ``ZeroDivisionError`` on a zero pivot."""

    __slots__ = ("lower", "indptr", "indices", "data", "diag")

    def __init__(self, lu_indptr, lu_indices, lu_data, lu_diag):
        self.lower = _strict_lower(lu_indptr, lu_indices, lu_data, lu_diag)
        self.indptr = lu_indptr.tolist()
        self.indices = lu_indices.tolist()
        self.data = lu_data.tolist()
        self.diag = lu_diag.tolist()

    def solve(self, r):
        z = _forward(self.lower, r).tolist()
        ptr, ind, val, dg = self.indptr, self.indices, self.data, self.diag
        for i in range(len(z) - 1, -1, -1):
            s = z[i]
            d = dg[i]
            for t in range(d + 1, ptr[i + 1]):
                s -= val[t] * z[ind[t]]
            z[i] = s / val[d]
        return np.array(z, dtype=np.float64)


class SolvePlan:
    """``RowPlan``'s solves in a few compiled calls, for a factor whose
    strict U is the transposed strict L, given ``schedule``, the strict-L
    schedule of ``lower_schedule``.

    Strict U is stored with negated values, like strict L for ``_forward``.
    Back substitution divides each row by its pivot before other rows may
    read it, so it runs one ``csr_matvec`` call and one division per level,
    on z permuted so that each L level is a contiguous slice, with U stored
    in that order.  It walks the L levels from last to first: a strict-U
    entry (i, j) is the strict-L entry (j, i), so row j lies in a later L
    level than row i and is solved before it.
    """

    __slots__ = ("lower", "order", "upper", "pivots", "upper_levels", "restore")

    def __init__(self, lu_indptr, lu_indices, lu_data, lu_diag, schedule):
        n = lu_diag.size
        order, bounds = schedule
        self.lower = _strict_lower(lu_indptr, lu_indices, lu_data, lu_diag)
        self.order = order
        rank = np.empty(n, dtype=np.int64)
        rank[order] = np.arange(n)
        indptr, indices, data = _rows(lu_indices, lu_data, order, lu_diag + 1,
                                      lu_indptr[1:] - lu_diag - 1)
        self.upper = indptr, rank[indices], data
        self.pivots = lu_data[lu_diag[order]]
        self.upper_levels = list(zip(bounds[:-1].tolist(), bounds[1:].tolist()))[::-1]
        self.restore = rank

    def solve(self, r):
        z = _forward(self.lower, r)[self.order]
        n = z.size
        indptr, indices, data = self.upper
        # the row loop's float division overflows silently
        with np.errstate(over="ignore", invalid="ignore"):
            for a, b in self.upper_levels:
                y = z[a:b]
                csr_matvec(b - a, n, indptr[a:b + 1], indices, data, z, y)
                y /= self.pivots[a:b]
        return z[self.restore]
