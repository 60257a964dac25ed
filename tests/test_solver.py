import os

import numpy as np
import pytest
import scipy.sparse
from numpy.testing import assert_allclose, assert_array_equal

from gpcg import (BearingSpec, BoundQP, SearchFailed, SolveStatus,
                  SolverConfig, SparseMatrixCSR, dense_solve, generate,
                  gradient, objective, projected_search_cg, solve,
                  solve_enum)

from conftest import (hand_qp, random_bound_qp, reference_objective,
                      reference_pg_norm, unconstrained_qp)


def _trace_invariant(outcome):
    s = outcome.stats
    assert len(s.trace) == s.outer_iters + s.gp_iters_total + s.cg_calls


class TestProjectedSearchCG:
    def test_full_step_accepted_on_descent_direction(self):
        qp = hand_qp()
        x = np.array([1.0, 1.0])
        d = np.array([0.5, -0.5])  # strict descent: <g, d> < 0
        x_next, alpha = projected_search_cg(qp, x, d, 0.1)
        assert alpha == 1.0
        assert_array_equal(x_next, [1.5, 0.5])

    def test_projection_keeps_trial_feasible(self):
        qp = hand_qp()
        x = np.array([1.0, 1.0])
        x_next, _ = projected_search_cg(qp, x, np.array([5.0, -5.0]), 0.1)
        assert (x_next >= qp.l).all() and (x_next <= qp.u).all()

    def test_zero_direction_is_degenerate_accept(self):
        qp = hand_qp()
        x = np.array([1.0, 1.0])
        x_next, alpha = projected_search_cg(qp, x, np.zeros(2), 0.1)
        assert alpha == 1.0
        assert_array_equal(x_next, x)

    def test_ascent_direction_raises(self):
        A = SparseMatrixCSR.from_dense(np.eye(1), symmetric=True)
        qp = BoundQP(A, np.zeros(1), 0.0, np.full(1, -np.inf),
                     np.full(1, np.inf))
        with pytest.raises(SearchFailed):
            projected_search_cg(qp, np.ones(1), np.ones(1), 0.1)

    def test_invalid_mu(self):
        with pytest.raises(ValueError):
            projected_search_cg(hand_qp(), np.zeros(2), np.zeros(2), 0.6)


class TestSolveBasics:
    def test_hand_instance_lands_exactly_on_minimizer(self):
        out = solve(hand_qp(), np.zeros(2))
        assert out.status is SolveStatus.CONVERGED
        assert_array_equal(out.x_star, [2.0, 0.0])
        assert out.stats.final_pg_norm == 0.0
        assert out.stats.outer_iters == 1
        assert out.stats.cg_calls == 0
        _trace_invariant(out)

    def test_start_at_minimizer_takes_zero_outer_iterations(self):
        out = solve(hand_qp(), np.array([2.0, 0.0]))
        assert out.status is SolveStatus.CONVERGED
        assert out.stats.outer_iters == 0
        assert out.stats.trace == []
        assert out.stats.faces_visited == 0

    def test_infeasible_start_is_projected(self):
        out = solve(hand_qp(), np.array([50.0, -50.0]))
        assert out.status is SolveStatus.CONVERGED
        assert_array_equal(out.x_star, [2.0, 0.0])

    def test_unconstrained_solves_linear_system(self):
        rng = np.random.default_rng(70)
        for _ in range(5):
            qp = unconstrained_qp(rng, 30)
            out = solve(qp, np.zeros(30), SolverConfig(tol=1e-6))
            assert out.status is SolveStatus.CONVERGED
            x_ref = dense_solve(qp.A.to_dense(), -qp.b)
            assert np.abs(out.x_star - x_ref).max() <= 1e-6 * (
                1 + np.abs(x_ref).max())
            _trace_invariant(out)

    def test_matches_enumeration_on_spot_checks(self):
        rng = np.random.default_rng(71)
        for _ in range(20):
            qp = random_bound_qp(rng, 5)
            out = solve(qp, np.clip(np.zeros(5), qp.l, qp.u),
                        SolverConfig(tol=1e-8))
            assert out.status is SolveStatus.CONVERGED
            assert np.abs(out.x_star - solve_enum(qp)).max() <= 1e-6

    def test_fixed_variables_stay_fixed(self):
        A = SparseMatrixCSR.from_dense(
            np.array([[2.0, 0.5], [0.5, 1.0]]), symmetric=True)
        qp = BoundQP(A, np.array([1.0, -2.0]), 0.0,
                     np.array([3.0, -np.inf]), np.array([3.0, np.inf]))
        out = solve(qp, np.zeros(2))
        assert out.status is SolveStatus.CONVERGED
        assert out.x_star[0] == 3.0
        # second variable minimizes with the first pinned: x2 = 2 - 0.5*3
        assert_allclose(out.x_star[1], 0.5, rtol=0, atol=1e-10)

    def test_objective_final_matches_independent_evaluation(self):
        rng = np.random.default_rng(72)
        qp = random_bound_qp(rng, 8)
        out = solve(qp, np.zeros(8))
        assert_allclose(out.stats.objective_final,
                        reference_objective(qp, out.x_star),
                        rtol=1e-12, atol=1e-12)


class TestSolveTermination:
    def test_search_failure_reports_failed_status(self):
        # the exact first trial jumps to the opposite corner where the
        # objective is higher, and zero halvings are allowed
        A = SparseMatrixCSR.from_dense(np.diag([1.0, 50.0]), symmetric=True)
        qp = BoundQP(A, np.array([13.0, -48.0]), 0.0, np.zeros(2),
                     np.ones(2))
        out = solve(qp, np.ones(2), SolverConfig(max_halvings=0))
        assert out.status is SolveStatus.FAILED
        assert "SearchFailed" in out.failure_reason
        _trace_invariant(out)

    def test_cg_breakdown_names_the_indefinite_preconditioner(self):
        # A = R R' + 1e-2 I is SPD, but its ILU(0) factor is not: CG under
        # bjacobi-ilu0 breaks down on r'z <= 0, and without a
        # preconditioner the same problem converges
        rng = np.random.default_rng(0)
        n = 30
        R = scipy.sparse.random(n, n, density=0.08, format="csr",
                                random_state=rng, data_rvs=rng.standard_normal)
        M = (R @ R.T + 1e-2 * scipy.sparse.identity(n, format="csr")).tocsr()
        M = (0.5 * (M + M.T)).tocsr()
        M.eliminate_zeros()
        M.sort_indices()
        A = SparseMatrixCSR(n, n, M.indptr, M.indices, M.data, symmetric=True)
        qp = BoundQP(A, rng.standard_normal(n), 0.0, -np.ones(n), np.ones(n))
        out = solve(qp, np.zeros(n), SolverConfig(precond="bjacobi-ilu0"))
        assert out.status is SolveStatus.FAILED
        assert out.failure_reason == ("GPCGError: CG breakdown: the "
                                      "preconditioner is not positive definite")
        _trace_invariant(out)
        plain = solve(qp, np.zeros(n), SolverConfig(precond="none"))
        assert plain.status is SolveStatus.CONVERGED

    def test_max_outer_reached(self):
        qp = generate(BearingSpec(16, 16, 0.5))
        out = solve(qp, qp.l, SolverConfig(max_outer=1))
        assert out.status is SolveStatus.MAX_OUTER_REACHED
        assert out.stats.outer_iters == 1
        _trace_invariant(out)

    def test_invalid_configs_rejected(self):
        for kwargs in ({"sufficient_decrease": 0.5},
                       {"sufficient_decrease": 0.0},
                       {"gp_progress": 1.0}, {"cg_progress": 0.0},
                       {"cg_progress_shrink": 1.0}, {"tol": 0.0},
                       {"blocks": 0}, {"precond": "nope"}):
            with pytest.raises(ValueError):
                SolverConfig(**kwargs)


class TestSolveOnBearing:
    def test_small_instance_converges_with_each_preconditioner(self):
        qp = generate(BearingSpec(20, 20, 0.3))
        for precond in ("none", "jacobi", "bjacobi-ilu0", "bjacobi-ilu2"):
            out = solve(qp, qp.l, SolverConfig(precond=precond))
            assert out.status is SolveStatus.CONVERGED, precond
            assert reference_pg_norm(qp, out.x_star) <= 1e-4
            _trace_invariant(out)

    def test_trace_structure(self):
        qp = generate(BearingSpec(16, 16, 0.8))
        out = solve(qp, qp.l, SolverConfig(precond="bjacobi-ilu0"))
        trace = out.stats.trace
        assert {rec.phase for rec in trace} <= {"gp", "cg", "outer"}
        outers = [rec for rec in trace if rec.phase == "outer"]
        assert [rec.outer for rec in outers] == list(
            range(1, out.stats.outer_iters + 1))
        # eta2 never grows within one outer iterate's cg records
        for k in range(1, out.stats.outer_iters + 1):
            etas = [rec.eta2 for rec in trace
                    if rec.phase == "cg" and rec.outer == k]
            assert all(a >= b for a, b in zip(etas, etas[1:]))
        # cg iteration counts on the outer records sum to the total
        assert sum(rec.cg_iters for rec in outers) == out.stats.cg_iters_total
        _trace_invariant(out)

    def test_objective_decreases_across_outer_iterates(self):
        qp = generate(BearingSpec(24, 24, 0.6))
        out = solve(qp, qp.l, SolverConfig(precond="bjacobi-ilu2"))
        assert out.status is SolveStatus.CONVERGED
        qs = [rec.q for rec in out.stats.trace if rec.phase == "outer"]
        assert all(a > b for a, b in zip(qs, qs[1:]))

    def test_face_refinement_shrinks_eta2_within_an_outer_iterate(self):
        # high eccentricity keeps the iterate on the optimal face while the
        # projected gradient is still large, forcing tolerance refinement
        qp = generate(BearingSpec(32, 32, 0.9))
        out = solve(qp, qp.l, SolverConfig(precond="bjacobi-ilu2"))
        assert out.status is SolveStatus.CONVERGED
        assert out.stats.cg_calls > out.stats.outer_iters
        refined = False
        for k in range(1, out.stats.outer_iters + 1):
            etas = [rec.eta2 for rec in out.stats.trace
                    if rec.phase == "cg" and rec.outer == k]
            if len(etas) >= 2 and etas[-1] < etas[0]:
                refined = True
        assert refined

    def test_warm_start_reaches_the_same_minimum(self):
        qp = generate(BearingSpec(24, 24, 0.9))
        cold = solve(qp, qp.l, SolverConfig(precond="bjacobi-ilu2"))
        warm = solve(qp, qp.l, SolverConfig(precond="bjacobi-ilu2",
                                            warm_start_cg=True))
        assert cold.status is SolveStatus.CONVERGED
        assert warm.status is SolveStatus.CONVERGED
        assert abs(cold.stats.objective_final - warm.stats.objective_final) \
            <= 1e-8 * (1 + abs(cold.stats.objective_final))

    def test_cg_iteration_cap_applies_per_call(self):
        qp = generate(BearingSpec(16, 16, 0.2))
        out = solve(qp, qp.l, SolverConfig(precond="jacobi", cg_maxiter=3))
        for rec in out.stats.trace:
            if rec.phase == "cg":
                assert rec.cg_iters <= 3
        _trace_invariant(out)

    def test_faces_visited_bounded_by_outer_iterates(self):
        qp = generate(BearingSpec(20, 20, 0.7))
        out = solve(qp, qp.l)
        assert 1 <= out.stats.faces_visited <= out.stats.outer_iters

    def test_determinism_on_repeat_solves(self):
        qp = generate(BearingSpec(40, 40, 0.5))
        cfg = SolverConfig(precond="bjacobi-ilu2", blocks=4)
        a = solve(qp, qp.l, cfg)
        b = solve(qp, qp.l, cfg)
        assert a.x_star.tobytes() == b.x_star.tobytes()
        assert a.stats.trace == b.stats.trace
        assert a.stats.cg_iters_total == b.stats.cg_iters_total


@pytest.mark.skipif(os.environ.get("GPCG_HEAVY", "") != "1",
                    reason="set GPCG_HEAVY=1 to run the large instance")
def test_large_instance_converges():
    qp = generate(BearingSpec(800, 800, 0.1))
    out = solve(qp, qp.l, SolverConfig(precond="bjacobi-ilu2"))
    assert out.status is SolveStatus.CONVERGED
    assert reference_pg_norm(qp, out.x_star) <= 1e-4
    assert out.stats.outer_iters <= 60
