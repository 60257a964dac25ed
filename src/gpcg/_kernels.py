"""Low-level CSR and incomplete-Cholesky kernels.

IC(k) factors a matrix equal to its transpose as A ~ U^T D^-1 U, D the
diagonal of U: incomplete Cholesky in LDL^T form with level of fill (Saad,
*Iterative Methods for Sparse Linear Systems*, 2nd ed., section 10.3).  U
is the upper triangle of the ILU(k) factor, whose strict L is U^T D^-1, so
only U is filled, stored and updated.  The kernels call scipy's compiled
CSR routines on CSR arrays and build no ``scipy.sparse`` object.
Principal-submatrix extraction selects columns with ``csr_column_index1``
and ``csr_column_index2`` and gathers rows ``EXTRACT_CHUNK`` at a time, so
it holds one chunk besides its result.  The symbolic phase multiplies, adds
and compares bool patterns; the numeric phase has two forms with the same
arithmetic, operation for operation:

* the row loop (``ilu_numeric`` without ``steps``), which indexes Python
  lists, made with ``tolist()`` once per factor, and so works on plain
  Python floats;
* the level form (``ilu_numeric`` with ``steps``).  Entries whose pivot
  rows are complete do not depend on each other, so each step eliminates
  one strict-L entry of many rows in a few vectorized calls (the
  entry-wise variant of level scheduling: Anderson & Saad 1989; Saad,
  section 11.6).  Every row still takes its pivot rows in order, so the
  results are bit-for-bit those of the row loop.

Both read strict L as the transpose of strict U (``lower_pattern``); the
level form's schedule, one pass over it (``elimination_steps``), only pays
off on large blocks, and ``ilu.ilu_k`` picks the form from the size.
``lu_solve_operands`` stores strict U divided by its pivots, reversed, and
its transpose, and ``lu_solve`` runs each substitution as one compiled CSR
product.

Index arrays follow one rule, scipy's (``index_dtype``): int32 when the
matrix's size and entry count fit, else int64.  The kernels keep the
input's index dtype, the IC(k) factor, its schedule and its solve operands
included, and widen only where a pattern outgrows int32.  A compiled
routine takes one index dtype a call; numpy's indexing casts other dtypes
to int64 on every call, so the level form casts each chunk's pair indices
once.
"""

import numpy as np
# Each row's entries in the columns of an index set, counted in one pass,
# then written with the set's positions as columns: ``csr_array[:, idx]``.
from scipy.sparse._sparsetools import csr_column_index1, csr_column_index2
# The diagonal of a CSR matrix, 0 where an entry is absent, into an output
# array; what ``csr_array.diagonal()`` calls.
from scipy.sparse._sparsetools import csr_diagonal
# ``+``, ``>`` and ``@`` of two ``csr_array``s, on sorted or unsorted rows;
# the product's rows come out unsorted, and ``csr_sort_indices`` sorts.
from scipy.sparse._sparsetools import csr_gt_csr, csr_plus_csr, csr_sort_indices
from scipy.sparse._sparsetools import csr_matmat, csr_matmat_maxnnz
# Accumulates into its output array and sums each row left to right; the
# public ``csr_array @ x`` calls it on an output of zeros.
from scipy.sparse._sparsetools import csr_matvec
# Copies the given rows' indices and values, in order, into output arrays;
# what ``csr_array[rows]`` calls.
from scipy.sparse._sparsetools import csr_row_index
# Position of each (row, column) pair in a canonical CSR pattern, -1 where
# the pattern has no such entry; and its value, 0 where there is none.
from scipy.sparse._sparsetools import csr_sample_offsets, csr_sample_values
# The transpose of a CSR matrix, as CSR arrays with sorted indices.
from scipy.sparse._sparsetools import csr_tocsc

# No compiled backend exists; the constant stays for readers of the
# benchmark's environment record.
JIT_ENABLED = False

INT32_MAX = np.iinfo(np.int32).max


def index_dtype(*sizes) -> type:
    """The CSR index dtype of a matrix whose dimensions and entry count are
    ``sizes``: int32 when all fit, else int64."""
    return np.int32 if max(sizes) <= INT32_MAX else np.int64


# ---------------------------------------------------------------------------
# principal submatrix extraction
# ---------------------------------------------------------------------------

# Rows that ``csr_extract`` gathers at once: on a five-point stencil a
# chunk's entries take about 120 KB whatever the matrix's size.
EXTRACT_CHUNK = 1 << 11


def csr_extract(n, indptr, indices, data, idx):
    """The principal submatrix on the strictly increasing index set ``idx``
    of an n x n CSR matrix, without the entries stored as zero: indptr and
    indices of the input's index dtype and float64 data, entries in the
    input's order.

    ``csr_column_index1`` counts each row's kept entries in one pass over
    the matrix, which sizes the output, and maps the kept columns; then
    ``csr_column_index2`` writes the entries of each ``EXTRACT_CHUNK`` rows
    that ``csr_row_index`` gathers straight into the output.  So only one
    chunk's entries exist besides the result.
    """
    idx_dtype = indices.dtype  # sparsetools: one index dtype a call
    m = idx.size
    out_indptr = np.zeros(m + 1, dtype=idx_dtype)
    col_offsets = np.zeros(n, dtype=idx_dtype)  # kept columns up to each column
    kept = np.empty(n + 1, dtype=idx_dtype)  # kept entries before each row
    csr_column_index1(m, idx.astype(idx_dtype, copy=False), n, n, indptr, indices,
                      col_offsets, kept)
    np.cumsum(kept[1:][idx] - kept[idx], out=out_indptr[1:])
    del kept
    nnz = out_indptr[m]
    out_indices = np.empty(nnz, dtype=idx_dtype)
    out_data = np.empty(nnz, dtype=np.float64)
    order = np.arange(m, dtype=idx_dtype)  # the columns of the kept ones
    for a in range(0, m, EXTRACT_CHUNK):
        rows = idx[a:a + EXTRACT_CHUNK].astype(idx_dtype, copy=False)
        size = int((indptr[1:][rows] - indptr[rows]).sum())
        cols, vals = np.empty(size, dtype=idx_dtype), np.empty(size, dtype=np.float64)
        csr_row_index(rows.size, rows, indptr, indices, data, cols, vals)
        span = slice(out_indptr[a], out_indptr[a + rows.size])
        csr_column_index2(order, col_offsets, size, cols, vals,
                          out_indices[span], out_data[span])
    if np.count_nonzero(out_data) < nnz:
        keep = out_data != 0.0
        out_indptr -= np.flatnonzero(~keep).searchsorted(out_indptr)  # zeros before
        out_indices, out_data = out_indices[keep], out_data[keep]
    return out_indptr, out_indices, out_data


# ---------------------------------------------------------------------------
# IC(k): level-of-fill symbolic phase, elimination schedule and
# pattern-restricted numeric phase, on the upper triangle
# ---------------------------------------------------------------------------

def _spans(starts, counts):
    """Concatenated ranges ``starts[i] .. starts[i] + counts[i] - 1``, as
    int64 whatever the inputs' dtype."""
    ends = counts.cumsum()
    out = np.arange(ends[-1] if ends.size else 0)
    out -= (ends - counts - starts).repeat(counts)
    return out


def _transpose(n, indptr, indices, data):
    """The transpose of an n x n CSR matrix, with sorted indices, as arrays
    of the input's dtypes."""
    out = np.empty_like(indptr), np.empty_like(indices), np.empty_like(data)
    csr_tocsc(n, n, indptr, indices, data, *out)
    return out


def symmetry_holds(n, indptr, indices, data):
    """Whether an n x n CSR matrix with sorted, distinct indices per row
    equals its transpose, array for array."""
    arrays = indptr, indices, data
    return all(map(np.array_equal, _transpose(n, *arrays), arrays))


def _upper(n, indptr, indices):
    """The entries (i, j) with j >= i of an n-row CSR pattern, in stored
    order, as indptr and indices of its index dtype (by array methods: see
    ``lu_solve_operands``).  The offsets are a running count of the kept
    entries, read at each row's start."""
    ptr = indptr[:n + 1]
    nnz = int(ptr[n])
    keep = indices[:nnz] >= np.arange(n, dtype=indices.dtype).repeat(ptr[1:] - ptr[:-1])
    kept = np.zeros(nnz + 1, dtype=indices.dtype)  # kept entries before each one
    keep.cumsum(out=kept[1:])
    return kept[ptr], indices[:nnz][keep]


def _combine(op, n, a, b):
    """``csr_matmat``, ``csr_plus_csr`` or ``csr_gt_csr`` on n x n CSR
    patterns a and b as bool matrices: a @ b, a + b (their union) or a > b
    (the entries of a not in b), as indptr and indices of the inputs'
    index dtype, or int64 when the result could outgrow it."""
    (a_indptr, a_indices), (b_indptr, b_indices) = a, b
    size = (csr_matmat_maxnnz(n, n, a_indptr, a_indices, b_indptr, b_indices)
            if op is csr_matmat else a_indices.size + b_indices.size)
    dtype = np.result_type(a_indices, b_indices, index_dtype(n, size))
    indptr, indices = np.empty(n + 1, dtype=dtype), np.empty(size, dtype=dtype)
    op(n, n, a_indptr, a_indices, np.ones(a_indices.size, dtype=bool), b_indptr,
       b_indices, np.ones(b_indices.size, dtype=bool), indptr, indices,
       np.empty(size, dtype=bool))
    indices.resize(indptr[n], refcheck=False)  # in place: no view of it exists
    return indptr, indices


def ilu_symbolic(n, a_indptr, a_indices, fill_level):
    """Indptr and sorted indices of U, the IC(k) factor's pattern, for an
    n x n CSR pattern equal to its transpose and holding its diagonal; each
    row of U starts with its pivot.

    Entry (i, j) has level min over p < min(i, j) of lev(p, i) + lev(p, j) + 1,
    input entries level 0, and is kept up to level ``fill_level``: the
    ILU(k) levels, which are symmetric.  So the level-l entries of U are
    the upper triangle of the pattern of the sum over a + b = l - 1 of
    U_a^T @ U_b, U_a the strict-U entries of level a, less lower levels.
    The patterns are CSR arrays of the input's index dtype, which scipy's
    compiled routines multiply, add, compare and transpose as bool matrices.
    """
    indptr, indices = _upper(n, a_indptr, a_indices)
    if fill_level > 0:
        pattern = indptr, indices
        # U_l by level; U_0 is U less each row's first entry, its pivot
        first = np.ones(indices.size, dtype=bool)
        first[indptr[:-1]] = False
        strict = [(indptr - np.arange(n + 1, dtype=indptr.dtype), indices[first])]
        top, lev = 0, 1  # the highest level with an entry, the next level
        # a level-l entry needs two entries whose levels sum to l - 1
        while lev <= fill_level and lev - 1 <= 2 * top:
            cand = None
            # U_b^T @ U_a is the transpose of U_a^T @ U_b: one product a pair
            for a in range((lev + 1) // 2):
                prod = _combine(csr_matmat, n, lower_pattern(*strict[a])[:2],
                                strict[lev - 1 - a])
                if 2 * a < lev - 1:
                    prod = _combine(csr_plus_csr, n, prod, lower_pattern(*prod)[:2])
                cand = prod if cand is None else _combine(csr_plus_csr, n, cand, prod)
            fresh = _combine(csr_gt_csr, n, _upper(n, *cand), pattern)
            if fresh[1].size:
                pattern = _combine(csr_plus_csr, n, pattern, fresh)
                top = lev
            # the diagonal is at level 0, so fresh entries are strictly upper
            strict.append(fresh)
            lev += 1
        if top:
            indptr, indices = pattern
            csr_sort_indices(n, indptr, indices, np.empty(indices.size, dtype=bool))
    return indptr, indices


def lower_pattern(u_indptr, u_indices):
    """The transpose of the pattern U and the position in U of each entry:
    row i holds the rows p <= i whose U has column i, in ascending order,
    its pivot rows (strict L) and then its diagonal."""
    positions = np.arange(u_indices.size, dtype=u_indices.dtype)
    return _transpose(u_indptr.size - 1, u_indptr, u_indices, positions)


def _longest_paths(n, ptr, deps, weight):
    """value(i) = max(-1, value(d) + w over the dependencies d of row i),
    for a DAG whose row i depends on the rows ``deps[ptr[i]:ptr[i + 1]]``,
    all less than i and ascending, through edges of weight
    ``w = weight[ptr[i]:ptr[i + 1]]``; an edge to row i - 1 that comes last
    in its row must weigh 1, and every value must lie in [-1, deps.size].
    The values come in the dtype of ``deps``, which holds deps.size + n.

    The rows run in chunks [s, e) whose rows depend on one another only
    through their predecessor: the other dependencies of row i lie before s.
    Within a chunk, value(i) = max(ext(i), value(i - 1) + 1) along each run
    of rows that depend on their predecessor, where ext(i) is the best over
    -1 and the other dependencies.  So value(i) - i is a running maximum
    of ext(k) - k over the run, one vectorized step per chunk.  On a grid
    in natural order a chunk is about one grid line; on chain-like patterns
    chunks are a few rows long, and the per-chunk numpy calls cost more
    than a row loop would.
    """
    dtype = deps.dtype
    ends = ptr[1:]
    link = np.zeros(n, dtype=bool)  # row i depends on row i - 1, last
    rows = (ends > ptr[:-1]).nonzero()[0]
    link[rows] = deps[ends[rows] - 1] == rows - 1
    keep = np.ones(deps.size, dtype=bool)
    keep[ends[link] - 1] = False
    del rows
    # each row's other dependencies, then row n (value 0) at weight -1
    others = np.diff(ptr) - link
    other_ptr = np.zeros(n + 1, dtype=dtype)
    np.cumsum(others + 1, out=other_ptr[1:])
    slot = np.ones(int(other_ptr[n]), dtype=bool)
    slot[other_ptr[1:] - 1] = False
    other = np.full(slot.size, n, dtype=dtype)
    other[slot] = deps[keep]
    other_weight = np.full(slot.size, -1, dtype=dtype)
    other_weight[slot] = weight[keep]
    del slot, keep
    last_other = np.where(others > 0, other[other_ptr[1:] - 2], -1)
    # a chunk starting at s ends at the first row with another dependency >= s
    reach = np.maximum.accumulate(last_other).searchsorted(np.arange(n, dtype=dtype))
    del others, last_other
    # run offsets: a new run starts above anything the last one reached
    shift = np.cumsum(~link) * (deps.size + n + 2) - np.arange(n)
    value = np.zeros(n + 1, dtype=np.int64)
    s = 0
    while s < n:
        e = int(reach[s])
        a, b = other_ptr[s], other_ptr[e]
        ext = np.maximum.reduceat(value[other[a:b]] + other_weight[a:b], other_ptr[s:e] - a)
        if link[s]:
            ext[0] = max(ext[0], value[s - 1] + 1)
        ext += shift[s:e]
        np.maximum.accumulate(ext, out=ext)
        ext -= shift[s:e]
        value[s:e] = ext
        s = e
    return value[:n].astype(dtype)


def elimination_steps(u_indptr, lower):
    """The level form's schedule of ``ilu_numeric``, from one pass over
    strict L (``lower`` less each row's last entry, its diagonal).

    Row i takes its strict-L entries in column order, the one with pivot
    row p only after row p is complete: its k-th entry runs at step
    T(i, k) = max(T(i, k - 1), F(p)) + 1, F(p) the step of row p's last
    entry (-1 for none).  Unrolled, T(i, k) = k + 1 + the largest
    F(p_j) - j over j <= k, and F is the longest path over strict L with
    weight n_i - j on the j-th of row i's n_i entries.  Rows need not wait
    for a whole level: 447 steps against 1382 (level, entry) steps on a
    5200-row bearing factor.

    Returns the strict-L entries in step order, as the position in U of
    each entry's u_pi (p its pivot row, i its row), its row and step, the
    position of u_pp and the number of entries of U's row p from u_pi on;
    and where each step starts in these arrays, plus the end.  All are of
    the pattern's index dtype, as is every per-entry temporary but the
    sort's permutation.
    """
    l_indptr, pivot_rows, l_at = lower
    dtype = pivot_rows.dtype
    n = l_indptr.size - 1
    nl = np.diff(l_indptr) - 1
    ptr = l_indptr - np.arange(n + 1, dtype=dtype)  # strict L's rows
    strict = np.ones(pivot_rows.size, dtype=bool)
    strict[l_indptr[1:] - 1] = False
    p = pivot_rows[strict]
    weight = ptr[1:].repeat(nl)  # n_i - j: the row's end less the entry's place
    weight -= np.arange(p.size, dtype=dtype)
    finish = _longest_paths(n, ptr, p, weight)
    del weight
    # the largest F(p_j) - j over j <= k within each row: a running maximum
    # by doubling distances (Hillis & Steele 1986), one pass per power of
    # two below the longest row; numpy reads an overlapping input as it
    # was before the pass
    k = np.arange(p.size, dtype=dtype)
    k -= ptr[:-1].repeat(nl)
    step = finish[p]
    step -= k
    d, longest = 1, nl.max(initial=0)
    while d < longest:
        np.maximum(step[d:], step[:-d], out=step[d:], where=k[d:] >= d)
        d *= 2
    step += k
    step += 1
    del k
    by_step = step.argsort(kind="stable")
    step = step[by_step]
    rows = np.arange(n, dtype=dtype).repeat(nl)[by_step]
    at = l_at[strict][by_step]
    p = p[by_step]
    del by_step, strict
    pivot = u_indptr[p]
    p += 1
    count = u_indptr[p]  # the end of row p
    count -= at
    step_starts = step.searchsorted(np.arange(finish.max(initial=-1) + 2, dtype=dtype))
    return at, rows, step, pivot, count, step_starts.astype(dtype)


def ilu_numeric(n, a_indptr, a_indices, a_data, u_indptr, u_indices, lower, steps=None):
    """Values of U on the pattern from ``ilu_symbolic``, ``lower`` its
    transpose: u_ij = a_ij - sum over p < i of (u_pi / u_pp) u_pj for
    j >= i, without pivoting, each row taking its pivot rows in ascending
    order.  Given ``steps`` from ``elimination_steps``, the pivots of
    many rows are eliminated together, with the same result, and
    ``lower`` is not read.
    Returns the values and the first row whose pivot is exactly zero (-1
    when there is none); the values are then incomplete.
    """
    # a_ij on the pattern, 0 at the fill entries
    u_data = np.empty(u_indices.size, dtype=np.float64)
    u_rows = np.arange(n, dtype=u_indices.dtype).repeat(u_indptr[1:] - u_indptr[:-1])
    csr_sample_values(n, n, a_indptr, a_indices, a_data, u_indices.size, u_rows,
                      u_indices, u_data)
    del u_rows
    if steps is None:
        return u_data, _eliminate_rows(n, u_indptr, u_indices, u_data, lower)
    # Later steps divide by the zero pivot, if there is one; the row loop
    # would have stopped there, so the values are incomplete either way.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        _eliminate_steps(n, u_indptr, u_indices, u_data, steps)
    zero = (u_data[u_indptr[:-1]] == 0.0).nonzero()[0]
    return u_data, int(zero[0]) if zero.size else -1


def _eliminate_rows(n, u_indptr, u_indices, u_data, lower):
    ptr = u_indptr.tolist()  # each row starts with its pivot
    ind = u_indices.tolist()
    val = u_data.tolist()
    lptr, pivot_rows, at = (a.tolist() for a in lower)
    # pos[c]: position of column c in the latest row that has it, so it is
    # in row i exactly when it is at least the row's start
    pos = [-1] * n
    fail = -1
    for i in range(n):
        rs = ptr[i]
        for t in range(rs, ptr[i + 1]):
            pos[ind[t]] = t
        # each pivot row p, with u_pi at position tp, from column i on
        for t in range(lptr[i], lptr[i + 1] - 1):
            p = pivot_rows[t]
            tp = at[t]
            mult = val[tp] / val[ptr[p]]
            for s in range(tp, ptr[p + 1]):
                tq = pos[ind[s]]
                if tq >= rs:
                    val[tq] -= mult * val[s]
        if val[rs] == 0.0:
            fail = i
            break
    u_data[:] = val
    return fail


# Largest number of candidate (L entry, pivot-row U entry) pairs that
# ``_eliminate_steps`` expands at once: about 1 MB of temporaries whatever
# the factor's size.  A small schedule takes chunks of a quarter as many
# pairs as it has entries, about 16 bytes each, so that its chunks' 30-40
# bytes a pair stay below a third of its factor's bytes.
PAIR_CHUNK = 1 << 14


def _eliminate_steps(n, u_indptr, u_indices, u_data, steps):
    """The row loop of ``_eliminate_rows``, run by ``elimination_steps``:
    a step takes the next pivot row p of each of its rows i, forms
    m = u_pi / u_pp, and subtracts ``m * val[s]`` from row i's entry in the
    column of every entry s of U's row p from u_pi on.  The rows of a step
    are distinct and their pivot rows complete, and the columns of a row
    are distinct, so no step updates an entry twice, and every entry sees
    its updates in the row loop's order."""
    at, row, step, pivot, count, step_starts = steps
    # the pairs before each step, and chunks of whole steps of about
    # ``chunk`` pairs each
    before = np.zeros(step_starts.size, dtype=np.int64)
    np.add.reduceat(count, step_starts[:-1], dtype=np.int64).cumsum(out=before[1:])
    chunk = min(PAIR_CHUNK, max(at.size // 4, 1))
    cuts = np.unique(np.concatenate(
        ([0], before.searchsorted(np.arange(chunk, before[-1], chunk)),
         [step_starts.size - 1]))).tolist()
    del before
    val = u_data
    ss = step_starts.tolist()
    for c0, c1 in zip(cuts[:-1], cuts[1:]):
        a, b = ss[c0], ss[c1]
        cnt = count[a:b]
        src = _spans(at[a:b], cnt)                       # row p from u_pi on
        dst = np.empty(src.size, dtype=u_indices.dtype)  # same column in row i
        csr_sample_offsets(n, n, u_indptr, u_indices, src.size, row[a:b].repeat(cnt),
                           u_indices[src], dst)
        hit = dst >= 0
        # the pairs that update an entry, in int64, which numpy indexes with:
        # cast once a chunk, not once a step
        src, dst = src[hit], dst[hit].astype(np.int64)
        # u_pi and u_pp of each pair: dividing once a pair gives the bits
        # of dividing once an entry
        num = at[a:b].astype(np.int64).repeat(cnt)[hit]
        den = pivot[a:b].astype(np.int64).repeat(cnt)[hit]
        ps = step[a:b].repeat(cnt)[hit].searchsorted(
            np.arange(c0, c1 + 1, dtype=step.dtype)).tolist()
        for q0, q1 in zip(ps[:-1], ps[1:]):
            q = slice(q0, q1)
            val[dst[q]] -= val[num[q]] / val[den[q]] * val[src[q]]


# ---------------------------------------------------------------------------
# triangular solves
# ---------------------------------------------------------------------------

def lu_solve_operands(u_indptr, u_indices, u_data):
    """What ``lu_solve`` needs of U, each row starting with its pivot:
    V = -(strict U divided row by row by its pivot), transposed, its row i
    holding -u_ji / u_jj for j < i in column order; V with rows and
    columns reversed (index i becomes n - 1 - i), each row keeping its
    column order; and the pivots reversed.  Index arrays keep U's dtype."""
    # array methods, not the numpy functions: a factor of n = 40 costs
    # tens of calls, and the functions' dispatch doubles their cost
    n = u_indptr.size - 1
    strict = np.ones(u_indices.size, dtype=bool)
    strict[u_indptr[:-1]] = False
    v_indptr = u_indptr - np.arange(n + 1, dtype=u_indptr.dtype)
    pivots = u_data[u_indptr[:-1]]
    v_data = u_data[strict]
    # a tiny pivot overflows a quotient to inf, without a warning
    with np.errstate(over="ignore", invalid="ignore"):
        v_data /= (-pivots).repeat(v_indptr[1:] - v_indptr[:-1])
    lower = _transpose(n, v_indptr, u_indices[strict], v_data)
    del strict, v_data
    # the transpose of the lower operand with its columns reversed holds
    # V's rows reversed, each in column order, with V's columns as indices;
    # the lower operand's columns are reversed in place, and back
    columns = lower[1]
    np.subtract(n - 1, columns, out=columns)
    upper = _transpose(n, lower[0], columns, lower[2])
    np.subtract(n - 1, columns, out=columns)
    np.subtract(n - 1, upper[1], out=upper[1])
    return lower, upper, pivots[::-1]


def lu_solve(lower, upper, pivots, r, out=None):
    """(U^T D^-1 U)^-1 r, given ``lu_solve_operands``: two ``csr_matvec``
    calls, each in place.  The result goes into ``out``, a contiguous
    float64 vector that may be r itself, or else into a new array.

    ``csr_matvec`` adds a CSR product into its output, taking the rows in
    order and each row's entries in stored order, and reads its input as it
    writes it.  Forward substitution starts from z = r and adds V^T z into
    z itself: row i reads the final z_j of every j < i, and adding
    ``(-v) * z_j`` is bit for bit subtracting ``v * z_j``, signed zeros
    included.  Back substitution runs on w, z reversed and divided by the
    pivots, and adds the reversed V's product into w: the strict-U columns
    j > i of row i come before it in reverse order.  So
    z_i = z_i / u_ii - sum over j of (u_ij / u_ii) z_j, each sum in column
    order.
    """
    n = pivots.size
    if out is None:
        z = np.array(r, dtype=np.float64)
    else:
        z = out
        if out is not r:
            out[...] = r
    csr_matvec(n, n, *lower, z, z)
    with np.errstate(over="ignore", invalid="ignore"):
        w = z[::-1] / pivots
    csr_matvec(n, n, *upper, w, w)
    if out is None:
        return w[::-1]
    out[...] = w[::-1]
    return out
