import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from gpcg import (BearingSpec, BoundQP, SparseMatrixCSR, active_set,
                  binding_set, converged, free_set, generate, gradient,
                  mat_vec, objective, project, projected_gradient)
from gpcg.model import _bound_test

from conftest import dense_spd, random_bound_qp


def _tiny_qp():
    # q(x) = 0.5 (x1^2 + 2 x2^2) + x1 - x2 + 3 over [0,1] x [-1,1]
    A = SparseMatrixCSR.from_dense(np.diag([1.0, 2.0]), symmetric=True)
    return BoundQP(A, np.array([1.0, -1.0]), 3.0,
                   np.array([0.0, -1.0]), np.array([1.0, 1.0]))


class TestBoundQP:
    def test_validates_square(self):
        M = SparseMatrixCSR.from_dense(np.ones((2, 3)))
        with pytest.raises(ValueError):
            BoundQP(M, np.zeros(3), 0.0, np.zeros(3), np.ones(3))

    def test_requires_symmetric_flag(self):
        M = SparseMatrixCSR.from_dense(np.eye(2))
        with pytest.raises(ValueError):
            BoundQP(M, np.zeros(2), 0.0, np.zeros(2), np.ones(2))

    def test_rejects_crossed_bounds(self):
        M = SparseMatrixCSR.from_dense(np.eye(2), symmetric=True)
        with pytest.raises(ValueError):
            BoundQP(M, np.zeros(2), 0.0, np.ones(2), np.zeros(2))

    def test_rejects_crossed_bounds_in_one_component(self):
        M = SparseMatrixCSR.from_dense(np.eye(2), symmetric=True)
        with pytest.raises(ValueError):
            BoundQP(M, np.zeros(2), 0.0, np.array([0.0, 1.0]),
                    np.array([1.0, 0.0]))

    def test_rejects_empty_interval_from_infinite_bounds(self):
        M = SparseMatrixCSR.from_dense(np.eye(1), symmetric=True)
        with pytest.raises(ValueError):
            BoundQP(M, np.zeros(1), 0.0, np.full(1, np.inf), np.full(1, np.inf))

    @pytest.mark.parametrize("which", ["l", "u"])
    def test_rejects_nan_bound(self, which):
        M = SparseMatrixCSR.from_dense(np.eye(2), symmetric=True)
        bounds = {"l": np.zeros(2), "u": np.ones(2)}
        bounds[which][1] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            BoundQP(M, np.zeros(2), 0.0, bounds["l"], bounds["u"])

    @pytest.mark.parametrize("c", [np.nan, np.inf])
    def test_rejects_nonfinite_constant(self, c):
        M = SparseMatrixCSR.from_dense(np.eye(2), symmetric=True)
        with pytest.raises(ValueError, match="constant"):
            BoundQP(M, np.zeros(2), c, np.zeros(2), np.ones(2))

    def test_allows_fixed_variables(self):
        M = SparseMatrixCSR.from_dense(np.eye(2), symmetric=True)
        qp = BoundQP(M, np.zeros(2), 0.0, np.array([1.0, 0.0]),
                     np.array([1.0, 2.0]))
        assert qp.n == 2


    def test_bounds_are_read_only(self):
        qp = _tiny_qp()
        with pytest.raises(ValueError):
            qp.u[0] = 5.0
        with pytest.raises(ValueError):
            qp.l[1] = -5.0

    def test_bounds_stay_the_callers_arrays_views(self):
        l, u = np.zeros(2), np.ones(2)
        M = SparseMatrixCSR.from_dense(np.eye(2), symmetric=True)
        qp = BoundQP(M, np.zeros(2), 0.0, l, u)
        assert np.shares_memory(qp.l, l) and np.shares_memory(qp.u, u)
        assert l.flags.writeable and u.flags.writeable

    @pytest.mark.parametrize("l, u, has", [
        (np.zeros(3), np.full(3, np.inf), (True, False)),
        (np.full(3, -np.inf), [np.inf, 1.0, np.inf], (False, True)),
        (np.full(3, -np.inf), np.full(3, np.inf), (False, False)),
        ([-np.inf, -np.inf, 0.0], [1.0, np.inf, np.inf], (True, True)),
    ])
    def test_records_which_sides_have_a_finite_bound(self, l, u, has):
        M = SparseMatrixCSR.from_dense(np.eye(3), symmetric=True)
        qp = BoundQP(M, np.zeros(3), 0.0, l, u)
        assert (qp.has_lower, qp.has_upper) == has


class TestObjectiveGradient:
    def test_objective_by_hand(self):
        qp = _tiny_qp()
        x = np.array([1.0, 1.0])
        # 0.5*(1 + 2) + (1 - 1) + 3 = 4.5
        assert objective(qp, x) == 4.5

    def test_objective_at_zero_is_constant(self):
        qp = _tiny_qp()
        assert objective(qp, np.zeros(2)) == 3.0

    def test_gradient_by_hand(self):
        qp = _tiny_qp()
        assert_array_equal(gradient(qp, np.array([1.0, 1.0])), [2.0, 1.0])

    def test_gradient_matches_central_differences(self):
        # central differences are exact for quadratics up to rounding
        rng = np.random.default_rng(10)
        qp = random_bound_qp(rng, 10)
        x = rng.standard_normal(10)
        g = gradient(qp, x)
        h = 1e-6
        fd = np.empty(10)
        for i in range(10):
            e = np.zeros(10)
            e[i] = h
            fd[i] = (objective(qp, x + e) - objective(qp, x - e)) / (2 * h)
        assert_allclose(g, fd, rtol=0, atol=1e-5 * (1 + np.abs(g).max()))

    def test_dimension_check(self):
        with pytest.raises(ValueError):
            objective(_tiny_qp(), np.zeros(3))

    def test_product_of_the_wrong_length_is_rejected(self):
        # a length-1 product would broadcast into an n-vector gradient
        qp = generate(BearingSpec(3, 3, 0.1))
        Ax = np.array([5.0])
        with pytest.raises(ValueError):
            objective(qp, qp.l, Ax)
        with pytest.raises(ValueError, match="length 1, expected 9"):
            gradient(qp, qp.l, Ax)
        assert_array_equal(gradient(qp, qp.l, mat_vec(qp.A, qp.l)), gradient(qp, qp.l))


class TestProjection:
    def test_clips_to_box(self):
        M = SparseMatrixCSR.from_dense(np.eye(3), symmetric=True)
        qp = BoundQP(M, np.zeros(3), 0.0, np.zeros(3), np.ones(3))
        assert_array_equal(project(qp, np.array([-5.0, 0.5, 5.0])),
                           [0.0, 0.5, 1.0])

    def test_project_clips(self):
        qp = _tiny_qp()
        assert_array_equal(project(qp, np.array([-2.0, 5.0])), [0.0, 1.0])

    def test_project_keeps_interior(self):
        qp = _tiny_qp()
        x = np.array([0.5, 0.0])
        assert_array_equal(project(qp, x), x)

    def test_infinite_bounds_pass_through(self):
        M = SparseMatrixCSR.from_dense(np.eye(2), symmetric=True)
        qp = BoundQP(M, np.zeros(2), 0.0, np.array([-np.inf, 0.0]),
                     np.array([0.0, np.inf]))
        assert_array_equal(project(qp, np.array([-7.0, 7.0])), [-7.0, 7.0])

    def test_idempotent(self):
        rng = np.random.default_rng(7)
        M = SparseMatrixCSR.from_dense(np.eye(20), symmetric=True)
        qp = BoundQP(M, np.zeros(20), 0.0, np.full(20, -0.5),
                     np.full(20, 0.5))
        once = project(qp, rng.standard_normal(20))
        assert_array_equal(project(qp, once), once)


class TestProjectedGradient:
    def test_interior_equals_gradient(self):
        qp = _tiny_qp()
        x = np.array([0.5, 0.0])
        g = gradient(qp, x)
        assert_array_equal(projected_gradient(qp, x, g), g)

    def test_lower_bound_keeps_only_descent_part(self):
        qp = _tiny_qp()
        x = np.array([0.0, 0.0])  # x1 at its lower bound
        g = gradient(qp, x)       # g = (1, -1); g1 > 0 pushes outward
        pg = projected_gradient(qp, x, g)
        assert pg[0] == 0.0
        assert pg[1] == -1.0

    def test_upper_bound_keeps_only_descent_part(self):
        qp = _tiny_qp()
        x = np.array([1.0, 1.0])  # both at upper bounds
        g = gradient(qp, x)       # g = (2, 1): moving down still descends
        assert_array_equal(projected_gradient(qp, x, g), [2.0, 1.0])
        # negative gradient at an upper bound is clipped to zero
        g2 = np.array([-1.0, -2.0])
        assert_array_equal(projected_gradient(qp, x, g2), [0.0, 0.0])

    def test_fixed_variable_component_is_zero(self):
        M = SparseMatrixCSR.from_dense(np.eye(2), symmetric=True)
        qp = BoundQP(M, np.array([5.0, 0.0]), 0.0, np.array([1.0, 0.0]),
                     np.array([1.0, 2.0]))
        x = np.array([1.0, 0.5])
        pg = projected_gradient(qp, x, gradient(qp, x))
        assert pg[0] == 0.0

    def test_infeasible_point_rejected(self):
        qp = _tiny_qp()
        with pytest.raises(ValueError):
            projected_gradient(qp, np.array([-1.0, 0.0]), np.zeros(2))

    def test_zero_exactly_at_minimizer(self):
        # unconstrained minimizer of _tiny_qp is (-1, 0.5); constrained
        # optimum is (0, 0.5): x1 pinned at lower bound with g1 = 1 >= 0
        qp = _tiny_qp()
        x = np.array([0.0, 0.5])
        pg = projected_gradient(qp, x, gradient(qp, x))
        assert_array_equal(pg, 0.0)


class TestIndexSets:
    def test_active_and_free_partition(self):
        qp = _tiny_qp()
        x = np.array([0.0, 0.5])
        act = active_set(qp, x)
        fre = free_set(qp, x)
        assert_array_equal(act, [0])
        assert_array_equal(fre, [1])
        assert act.dtype == fre.dtype == np.int64

    def test_fixed_variable_is_active(self):
        M = SparseMatrixCSR.from_dense(np.eye(2), symmetric=True)
        qp = BoundQP(M, np.zeros(2), 0.0, np.array([1.0, 0.0]),
                     np.array([1.0, 2.0]))
        assert_array_equal(active_set(qp, np.array([1.0, 0.5])), [0])

    def test_binding_requires_matching_sign(self):
        qp = _tiny_qp()
        x = np.array([0.0, -1.0])
        # g = (1, -3): x1 at lower with g >= 0 binds; x2 at lower with g < 0
        # does not
        g = gradient(qp, x)
        assert_array_equal(binding_set(qp, x, g), [0])

    def test_binding_subset_of_active(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            qp = random_bound_qp(rng, 6)
            x = project(qp, rng.standard_normal(6))
            g = gradient(qp, x)
            act = set(active_set(qp, x).tolist())
            bnd = set(binding_set(qp, x, g).tolist())
            assert bnd <= act


BOX_KINDS = ("lower-only", "upper-only", "two-sided", "fixed", "infinite sides")


def _box_point(kind, rng, n=60):
    """A box of the given kind, a feasible point with components on every
    finite bound and between them, and a gradient with both signs and
    zeros."""
    lo, hi = -rng.uniform(0.5, 2.0, n), rng.uniform(0.5, 2.0, n)
    inf = np.full(n, np.inf)
    if kind == "lower-only":
        hi = inf
    elif kind == "upper-only":
        lo = -inf
    elif kind == "fixed":  # two-sided, a third of the variables with l == u
        fixed = rng.random(n) < 0.33
        lo[fixed] = hi[fixed]
    elif kind == "infinite sides":  # some sides infinite, some fixed
        lo[rng.random(n) < 0.3] = -np.inf
        hi[rng.random(n) < 0.3] = np.inf
        fixed = (rng.random(n) < 0.2) & np.isfinite(lo)
        hi[fixed] = lo[fixed]
    M = SparseMatrixCSR.from_dense(np.eye(n), symmetric=True)
    qp = BoundQP(M, np.zeros(n), 0.0, lo, hi)
    pick = rng.integers(0, 3, n)
    x = np.where((pick == 0) & np.isfinite(lo), lo,
                 np.where((pick == 1) & np.isfinite(hi), hi,
                          np.clip(rng.uniform(-0.4, 0.4, n), lo, hi)))
    g = rng.standard_normal(n) * (rng.random(n) < 0.85)
    return qp, x, g


class TestBoundTest:
    """``_bound_test``, which the solver and the GP phase call once per
    point, agrees bit for bit with the public ``projected_gradient``,
    ``active_set`` and ``binding_set`` and with the definitions written out
    here, on every kind of box; no bearing has a finite upper bound, so
    only these boxes reach its upper-bound branches."""

    @pytest.mark.parametrize("kind", BOX_KINDS)
    def test_matches_the_public_sets_and_the_definitions(self, kind):
        rng = np.random.default_rng(BOX_KINDS.index(kind))
        seen = []
        for _ in range(10):
            qp, x, g = _box_point(kind, rng)
            assert (qp.has_lower, qp.has_upper) == {
                "lower-only": (True, False), "upper-only": (False, True)
            }.get(kind, (True, True))
            pg, active = _bound_test(qp, x, g)
            assert active.dtype == bool
            at_l, at_u = x == qp.l, x == qp.u
            want_pg = np.where(at_l & at_u, 0.0,
                               np.where(at_l, np.minimum(g, 0.0),
                                        np.where(at_u, np.maximum(g, 0.0), g)))
            want_binding = (at_l & (g >= 0.0)) | (at_u & (g <= 0.0))
            assert pg.tobytes() == want_pg.tobytes()
            assert_array_equal(active, at_l | at_u)
            assert pg.tobytes() == projected_gradient(qp, x, g).tobytes()
            assert_array_equal(np.flatnonzero(active), active_set(qp, x))
            assert_array_equal(np.flatnonzero(active & (pg == 0.0)),
                               binding_set(qp, x, g))
            assert_array_equal(np.flatnonzero(want_binding), binding_set(qp, x, g))
            # the solver's test that the binding set is the active set
            assert (not pg[active].any()) == np.array_equal(want_binding, active)
            # where each side of the box bites, with either gradient sign
            for where in (at_l & at_u, at_l & ~at_u, at_u & ~at_l):
                seen.append([np.count_nonzero(where & (g > 0.0)),
                             np.count_nonzero(where & (g < 0.0))])
        seen = np.asarray(seen).reshape(10, 3, 2).sum(axis=0)
        assert (seen[0] > 0).all() == (kind in ("fixed", "infinite sides"))
        assert (seen[1] > 0).all() == qp.has_lower
        assert (seen[2] > 0).all() == qp.has_upper


class TestConverged:
    def test_converged_at_optimum(self):
        qp = _tiny_qp()
        x = np.array([0.0, 0.5])
        assert converged(qp, x, gradient(qp, x), 1e-12)

    def test_not_converged_away_from_optimum(self):
        qp = _tiny_qp()
        x = np.array([0.5, 0.0])
        assert not converged(qp, x, gradient(qp, x), 1e-4)

    def test_tolerance_must_be_positive(self):
        qp = _tiny_qp()
        with pytest.raises(ValueError):
            converged(qp, np.array([0.5, 0.0]), np.zeros(2), 0.0)
