import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from gpcg import BearingSpec, generate, wl, wq


def dense_bearing(nx, ny, eps, b_dom):
    """Independent dense assembly of the same discretization, scalar loops."""
    hx = 2.0 * np.pi / (nx + 1)
    hy = 2.0 * b_dom / (ny + 1)
    n = nx * ny

    def lam(t):
        return (1.0 + eps * np.cos(t)) ** 3

    A = np.zeros((n, n))
    rhs = np.zeros(n)
    for j in range(1, ny + 1):
        for i in range(1, nx + 1):
            k = (j - 1) * nx + (i - 1)
            lw = lam((i - 0.5) * hx)
            le = lam((i + 0.5) * hx)
            A[k, k] = (hy / hx + hx / hy) * (lw + le)
            if i > 1:
                A[k, k - 1] = -(hy / hx) * lw
            if i < nx:
                A[k, k + 1] = -(hy / hx) * le
            if j > 1:
                A[k, k - nx] = -(hx / hy) * 0.5 * (lw + le)
            if j < ny:
                A[k, k + nx] = -(hx / hy) * 0.5 * (lw + le)
            rhs[k] = -hx * hy * eps * np.sin(i * hx)
    return A, rhs


def stacked_bearing(nx, ny, eps, b_dom):
    """A second assembly from the same formulas, row by row: every row's
    five candidate entries, stacked n x 5 and masked where the neighbor
    lies outside the grid.  Returns indptr, indices, data and b."""
    hx = 2.0 * np.pi / (nx + 1)
    hy = 2.0 * b_dom / (ny + 1)
    n = nx * ny
    lam = wq((np.arange(nx + 1) + 0.5) * hx, eps)
    ii = np.tile(np.arange(1, nx + 1), ny)
    jj = np.repeat(np.arange(1, ny + 1), nx)
    lam_w = lam[ii - 1]
    lam_e = lam[ii]
    diag = (hy / hx + hx / hy) * (lam_w + lam_e)
    horiz_w = -(hy / hx) * lam_w
    horiz_e = -(hy / hx) * lam_e
    vert = -(hx / hy) * 0.5 * (lam_w + lam_e)
    v = np.arange(n, dtype=np.int32)  # int32 CSR indices: n and nnz fit
    cols = np.stack([v - nx, v - 1, v, v + 1, v + nx], axis=1)
    vals = np.stack([vert, horiz_w, diag, horiz_e, vert], axis=1)
    keep = np.stack([jj > 1, ii > 1, np.ones(n, dtype=bool),
                     ii < nx, jj < ny], axis=1)
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(keep.sum(axis=1), out=indptr[1:])
    return indptr, cols[keep], vals[keep], -hx * hy * wl(ii * hx, eps)


class TestSpec:
    def test_dimensions(self):
        assert BearingSpec(7, 5, 0.1).n == 35

    @pytest.mark.parametrize("kwargs", [
        {"nx": 0, "ny": 3, "eccentricity": 0.1},
        {"nx": 3, "ny": 0, "eccentricity": 0.1},
        {"nx": 3, "ny": 3, "eccentricity": 1.0},
        {"nx": 3, "ny": 3, "eccentricity": -0.1},
        {"nx": 3, "ny": 3, "eccentricity": 0.1, "b_dom": 0.0},
        {"nx": 2.5, "ny": 3, "eccentricity": 0.1},
        {"nx": 3, "ny": 3.0, "eccentricity": 0.1},
        {"nx": 3, "ny": 3, "eccentricity": float("nan")},
        {"nx": 3, "ny": 3, "eccentricity": 0.1, "b_dom": float("nan")},
        {"nx": 3, "ny": 3, "eccentricity": 0.1, "b_dom": float("inf")},
    ])
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(ValueError):
            BearingSpec(**kwargs)

    def test_numpy_integer_grid_counts_allowed(self):
        spec = BearingSpec(np.int64(4), np.int32(3), 0.1)
        assert spec.n == 12
        assert generate(spec).n == 12

    def test_zero_eccentricity_allowed(self):
        assert BearingSpec(3, 3, 0.0).eccentricity == 0.0


class TestCoefficients:
    def test_quadratic_weight_by_hand(self):
        assert wq(0.0, 0.1) == pytest.approx(1.1 ** 3, rel=0, abs=1e-15)
        assert wq(np.pi, 0.5) == pytest.approx(0.125, rel=0, abs=1e-15)

    def test_linear_weight_by_hand(self):
        assert wl(np.pi / 2.0, 0.5) == pytest.approx(0.5, rel=0, abs=1e-15)
        assert wl(0.0, 0.9) == 0.0


class TestGenerate:
    @pytest.mark.parametrize("nx,ny,eps,b_dom", [
        (3, 3, 0.5, 8.0), (4, 2, 0.0, 10.0), (2, 5, 0.9, 3.0),
        (6, 4, 0.25, 10.0),
    ])
    def test_matches_independent_dense_assembly(self, nx, ny, eps, b_dom):
        qp = generate(BearingSpec(nx, ny, eps, b_dom))
        D, rhs = dense_bearing(nx, ny, eps, b_dom)
        assert np.abs(qp.A.to_dense() - D).max() <= 1e-14 * np.abs(D).max()
        assert_allclose(qp.b, rhs, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("eps", [0.0, 0.1, 0.9])
    @pytest.mark.parametrize("b_dom", [10.0, 3.7])
    def test_bytes_match_stacked_assembly(self, eps, b_dom):
        for nx in (1, 2, 3, 7, 30):
            for ny in (1, 2, 3, 7, 30):
                qp = generate(BearingSpec(nx, ny, eps, b_dom))
                want = stacked_bearing(nx, ny, eps, b_dom)
                got = qp.A.indptr, qp.A.indices, qp.A.data, qp.b
                for g, w in zip(got, want):
                    assert g.dtype == w.dtype
                    assert g.tobytes() == w.tobytes(), (nx, ny)

    def test_peak_memory_near_what_it_returns(self):
        tracemalloc.start()
        try:
            qp = generate(BearingSpec(200, 200, 0.1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        returned = sum(a.nbytes for a in (qp.A.indptr, qp.A.indices, qp.A.data,
                                          qp.b, qp.l, qp.u))
        assert peak <= 1.5 * returned

    def test_index_arrays_are_int32(self):
        # built in int32, not cast from int64: n and nnz fit
        A = generate(BearingSpec(30, 20, 0.4)).A
        assert A.indptr.dtype == A.indices.dtype == np.int32
        assert np.shares_memory(A.scipy.indices, A.indices)  # no copy

    def test_bounds_and_constant(self):
        qp = generate(BearingSpec(5, 4, 0.3))
        assert_array_equal(qp.l, 0.0)
        assert (qp.u == np.inf).all()
        assert qp.c == 0.0

    def test_matrix_is_validated_symmetric(self):
        qp = generate(BearingSpec(7, 6, 0.6))
        assert qp.A.symmetric
        qp.A._validate()  # full structural check including symmetry

    def test_nonzero_count_formula(self):
        for nx, ny in ((3, 3), (5, 2), (10, 7)):
            qp = generate(BearingSpec(nx, ny, 0.4))
            n = nx * ny
            assert qp.A.nnz == 5 * n - 2 * nx - 2 * ny

    def test_average_entries_per_row_at_benchmark_size(self):
        qp = generate(BearingSpec(100, 100, 0.1))
        assert qp.A.nnz / qp.n == pytest.approx(4.96, rel=0, abs=1e-12)

    def test_off_diagonals_nonpositive_and_rows_dominant(self):
        qp = generate(BearingSpec(8, 8, 0.7))
        D = qp.A.to_dense()
        off = D - np.diag(np.diag(D))
        assert (off <= 0.0).all()
        assert (np.diag(D) > 0.0).all()
        # weak diagonal dominance, strict on boundary rows
        row_off = np.abs(off).sum(axis=1)
        assert (np.diag(D) >= row_off - 1e-12).all()
        assert (np.diag(D) - row_off > 1e-12).any()

    def test_matrix_is_positive_definite(self):
        qp = generate(BearingSpec(6, 6, 0.8))
        assert np.linalg.eigvalsh(qp.A.to_dense()).min() > 0.0

    def test_index_ordering_sweeps_first_coordinate_fastest(self):
        nx, ny = 4, 3
        qp = generate(BearingSpec(nx, ny, 0.2))
        D = qp.A.to_dense()
        # neighbor in the first coordinate is one index away
        assert D[0, 1] != 0.0
        assert D[nx - 1, nx] == 0.0  # row wraps are not coupled
        # neighbor in the second coordinate is nx away
        assert D[0, nx] != 0.0

    def test_linear_term_sign_pattern(self):
        # forcing is -hx*hy*eps*sin(i*hx): negative on the first half of the
        # period, positive on the second
        nx = 9
        qp = generate(BearingSpec(nx, 1, 0.5))
        i = np.arange(1, nx + 1)
        expected_sign = -np.sign(np.sin(i * 2.0 * np.pi / (nx + 1)))
        assert_array_equal(np.sign(qp.b), expected_sign)
