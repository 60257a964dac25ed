import dataclasses
import gc
import logging
import os
import re
import sys
import weakref

import numpy as np
import pytest
import scipy.sparse
from numpy.testing import assert_allclose, assert_array_equal

import gpcg.gradproj
import gpcg.linalg
import gpcg.precond
import gpcg.solver
from gpcg import (BearingSpec, BoundQP, CGStop, SearchFailed, SolveStatus,
                  SolverConfig, SparseMatrixCSR, build_reduced, dense_solve,
                  free_set, generate, gradient, make_preconditioner, mat_vec,
                  norm2, objective, project, projected_gradient,
                  projected_search_cg, solve, solve_enum)

from conftest import (dense_spd, hand_qp, random_bound_qp, reference_objective,
                      reference_pg_norm, unconstrained_qp)


def _trace_invariant(outcome):
    s = outcome.stats
    assert len(s.trace) == s.outer_iters + s.gp_iters_total + s.cg_calls


class TestProjectedSearchCG:
    """The search as the solver takes it after CG: along d = -w from
    alpha0 = 1, where w is the CG step."""

    def test_full_step_accepted_on_descent_direction(self):
        qp = hand_qp()
        x = np.array([1.0, 1.0])
        w = np.array([0.5, -0.5])  # strict descent: <g, w> < 0
        x_next, alpha, halvings, _, _ = projected_search_cg(
            qp, x, gradient(qp, x), objective(qp, x), -w, 1.0, 0.1)
        assert alpha == 1.0 and halvings == 0
        assert_array_equal(x_next, [1.5, 0.5])

    def test_projection_keeps_trial_feasible(self):
        qp = hand_qp()
        x = np.array([1.0, 1.0])
        x_next, _, _, _, _ = projected_search_cg(
            qp, x, gradient(qp, x), objective(qp, x), -np.array([5.0, -5.0]),
            1.0, 0.1)
        assert (x_next >= qp.l).all() and (x_next <= qp.u).all()

    def test_zero_direction_is_degenerate_accept(self):
        qp = hand_qp()
        x = np.array([1.0, 1.0])
        x_next, alpha, _, _, _ = projected_search_cg(
            qp, x, gradient(qp, x), objective(qp, x), np.zeros(2), 1.0, 0.1)
        assert alpha == 1.0
        assert_array_equal(x_next, x)

    def test_ascent_direction_raises(self):
        A = SparseMatrixCSR.from_dense(np.eye(1), symmetric=True)
        qp = BoundQP(A, np.zeros(1), 0.0, np.full(1, -np.inf),
                     np.full(1, np.inf))
        x = np.ones(1)
        with pytest.raises(SearchFailed):
            projected_search_cg(qp, x, gradient(qp, x), objective(qp, x),
                                -np.ones(1), 1.0, 0.1)

    def test_invalid_mu(self):
        with pytest.raises(ValueError):
            projected_search_cg(hand_qp(), np.zeros(2), np.zeros(2), 0.0,
                                np.zeros(2), 1.0, 0.6)

    def test_halved_step_clipped_at_both_bounds(self):
        # box [-1, 1]^2, both bounds finite: the full step from x lands
        # outside both sides and is clipped to (-1, 1), which fails the
        # decrease test; half the step is accepted
        A = SparseMatrixCSR.from_dense(np.array([[2.0, 0.5], [0.5, 1.0]]),
                                       symmetric=True)
        qp = BoundQP(A, np.zeros(2), 0.0, -np.ones(2), np.ones(2))
        x = np.array([0.9, -0.8])
        w = np.array([-3.1, 2.7])
        g = gradient(qp, x)
        full = np.clip(x + w, qp.l, qp.u)
        assert full[0] == qp.l[0] and full[1] == qp.u[1]
        x_next, alpha, halvings, Ax, q = projected_search_cg(
            qp, x, g, objective(qp, x), -w, 1.0, 0.1)
        assert halvings == 1 and alpha == 0.5
        assert x_next.tobytes() == project(qp, x + alpha * w).tobytes()
        assert Ax.tobytes() == mat_vec(qp.A, x_next).tobytes()
        assert q == objective(qp, x_next)


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

    @pytest.mark.parametrize("lower", [0.0, -np.inf])
    def test_one_finite_upper_bound_binds(self, lower):
        # u = +inf except u[6], which the unconstrained minimizer (x_6 = 3)
        # violates: whether any upper bound is finite must not be read off
        # u[0], or the bound is never enforced
        rng = np.random.default_rng(21)
        D = dense_spd(rng, 10)
        target = rng.uniform(0.5, 1.5, 10)
        target[6] = 3.0
        u = np.full(10, np.inf)
        u[6] = 1.0
        qp = BoundQP(SparseMatrixCSR.from_dense(D, symmetric=True), -D @ target,
                     0.0, np.full(10, lower), u)
        out = solve(qp, np.zeros(10), SolverConfig(tol=1e-10))
        assert out.status is SolveStatus.CONVERGED
        assert out.x_star[6] == 1.0
        assert_allclose(out.x_star, solve_enum(qp), rtol=0, atol=1e-9)

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
    def test_search_failure_reports_failed_status(self, monkeypatch):
        # the exact first trial jumps to the opposite corner where the
        # objective is higher, and zero halvings are allowed
        A = SparseMatrixCSR.from_dense(np.diag([1.0, 50.0]), symmetric=True)
        qp = BoundQP(A, np.array([13.0, -48.0]), 0.0, np.zeros(2),
                     np.ones(2))
        monkeypatch.setattr(gpcg.gradproj, "MAX_HALVINGS", 0)
        out = solve(qp, np.ones(2))
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

    def test_point_jacobi_on_a_nonpositive_diagonal_fails_as_not_convex(self):
        # an indefinite matrix whose reduced system has a_11 < 0: the solve
        # reports the nonpositive curvature instead of raising
        rng = np.random.default_rng(3)
        B = rng.standard_normal((6, 6))
        A = SparseMatrixCSR.from_dense(0.5 * (B + B.T), symmetric=True)
        qp = BoundQP(A, rng.standard_normal(6), 0.0, -np.ones(6), np.ones(6))
        out = solve(qp, np.zeros(6), SolverConfig(precond="jacobi"))
        assert out.status is SolveStatus.FAILED
        assert out.failure_reason.startswith("NotConvexError: point Jacobi")
        assert "row 1 " in out.failure_reason
        _trace_invariant(out)

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
                       {"tol": 0.0},
                       {"blocks": 0}, {"blocks": 2.5}, {"precond": "nope"},
                       {"precond": None}, {"precond": 2}):
            with pytest.raises(ValueError):
                SolverConfig(**kwargs)

    @pytest.mark.parametrize("kwargs", [
        {"max_outer": 0}, {"max_outer": -3}, {"max_outer": -1},
        {"max_outer": np.int64(0)}, {"max_outer": None},
        {"max_outer": 10.0}, {"max_outer": "5"}, {"max_outer": 3.5}])
    def test_nonpositive_limits_rejected(self, kwargs):
        # these once reached a solve: max_outer <= 0 returned
        # max_outer_reached after no iteration, and max_outer=10.0 raised a
        # TypeError from range()
        with pytest.raises(ValueError, match="limit"):
            SolverConfig(**kwargs)

    def test_smallest_limits_accepted(self):
        cfg = SolverConfig(max_outer=1, blocks=1)
        assert solve(hand_qp(), np.zeros(2), cfg).status is not SolveStatus.FAILED
        assert SolverConfig(max_outer=np.int64(1)).max_outer == 1

    def test_nan_tolerance_rejected(self):
        # NaN fails every comparison, so a NaN tolerance would never be met
        with pytest.raises(ValueError, match="tolerance"):
            SolverConfig(tol=float("nan"))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_starting_point_rejected(self, bad):
        # hand_qp's box is [0, 2]^2: +inf projects onto 2
        assert solve(hand_qp(), np.array([np.inf, 0.0])).status is SolveStatus.CONVERGED
        A = SparseMatrixCSR.from_dense(np.eye(2), symmetric=True)
        qp = BoundQP(A, np.ones(2), 0.0, np.zeros(2), np.full(2, np.inf))
        with pytest.raises(ValueError, match="finite"):
            solve(qp, np.array([bad, 1.0]))

    def test_warm_start_option_is_gone(self):
        # CG always starts from zero; the warm start changed no iteration
        # count on the bearing problems and was removed
        with pytest.raises(TypeError):
            SolverConfig(warm_start_cg=True)
        # constants of the solver module, not config fields
        for name in ("gp_cap", "max_refines", "cg_progress_floor",
                     "cg_progress_shrink"):
            with pytest.raises(TypeError):
                SolverConfig(**{name: 1})


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

    def test_cg_iteration_cap_applies_per_call(self):
        # each CG call stops by the dimension of its own face; on a diagonal
        # with condition number 1e8 rounding keeps CG going that far
        qp = generate(BearingSpec(16, 16, 0.2))
        out = solve(qp, qp.l, SolverConfig(precond="jacobi"))
        assert all(rec.cg_iters <= rec.nfree for rec in out.stats.trace
                   if rec.phase == "cg")
        _trace_invariant(out)
        A = SparseMatrixCSR.from_dense(np.diag(np.logspace(0, 8, 40)),
                                       symmetric=True)
        qp = BoundQP(A, np.random.default_rng(64).standard_normal(40), 0.0,
                     np.full(40, -np.inf), np.full(40, np.inf))
        out = solve(qp, np.zeros(40), SolverConfig(max_outer=1))
        iters = [rec.cg_iters for rec in out.stats.trace if rec.phase == "cg"]
        assert max(iters) == 40
        _trace_invariant(out)

    def test_faces_visited_bounded_by_outer_iterates(self):
        qp = generate(BearingSpec(20, 20, 0.7))
        out = solve(qp, qp.l)
        assert 1 <= out.stats.faces_visited <= out.stats.outer_iters

    @pytest.mark.parametrize("precond", ["jacobi", "bjacobi-ilu0"])
    def test_stats_and_trace_hold_python_numbers(self, precond):
        # the CLI writes floats by repr, where a numpy scalar reads
        # np.float64(...), and JSON refuses numpy integers
        qp = generate(BearingSpec(12, 12, 0.1))
        st = solve(qp, qp.l, SolverConfig(precond=precond)).stats
        values = [getattr(st, f.name) for f in dataclasses.fields(st) if f.name != "trace"]
        values += [v for rec in st.trace for v in dataclasses.astuple(rec)]
        assert {type(v) for v in values} <= {int, float, str}

    def test_determinism_on_repeat_solves(self):
        qp = generate(BearingSpec(40, 40, 0.5))
        cfg = SolverConfig(precond="bjacobi-ilu2", blocks=4)
        a = solve(qp, qp.l, cfg)
        b = solve(qp, qp.l, cfg)
        assert a.x_star.tobytes() == b.x_star.tobytes()
        assert a.stats.trace == b.stats.trace
        assert a.stats.cg_iters_total == b.stats.cg_iters_total


class TestReducedSystemReuse:
    """Consecutive CG calls of one outer iteration on the same free set share
    the reduced matrix and the preconditioner; only g[free] is taken anew."""

    @staticmethod
    def sparse_box_qp(seed, n=40):
        """A = R R' + 1e-2 I, R sparse (density 0.08), over [-1, 1]^n: CG
        stops short of the face's minimizer, so faces repeat."""
        rng = np.random.default_rng(seed)
        R = scipy.sparse.random(n, n, density=0.08, format="csr",
                                random_state=rng, data_rvs=rng.standard_normal)
        M = (R @ R.T + 1e-2 * scipy.sparse.identity(n, format="csr")).tocsr()
        M = (0.5 * (M + M.T)).tocsr()
        M.eliminate_zeros()
        M.sort_indices()
        A = SparseMatrixCSR(n, n, M.indptr, M.indices, M.data, symmetric=True)
        return BoundQP(A, rng.standard_normal(n), 0.0, -np.ones(n), np.ones(n))

    @pytest.mark.parametrize("precond", ["jacobi", "bjacobi-ilu0"])
    @pytest.mark.parametrize("seed", [0, 1, 3, 4])
    def test_one_setup_per_distinct_consecutive_free_set(self, monkeypatch,
                                                         precond, seed):
        qp = self.sparse_box_qp(seed)
        # "gp" per GP phase; per CG call its A_k, r_k and preconditioner,
        # then the point and gradient its search starts from
        events, setups = [], []

        def spy(name, record, module=gpcg.solver):
            original = getattr(module, name)

            def wrapped(*args, **kwargs):
                record(*args)
                return original(*args, **kwargs)
            monkeypatch.setattr(module, name, wrapped)

        spy("gp_phase", lambda *args: events.append("gp"))
        spy("make_preconditioner", lambda *args: setups.append(args[0].nrows), gpcg.precond)
        spy("pcg_progress", lambda sys, P, *args: events.append([sys.A_k, sys.r_k, P]))
        spy("projected_search_cg", lambda qp, x, g, *args: events[-1].extend([x, g]))
        out = solve(qp, np.zeros(qp.n), SolverConfig(precond=precond))
        assert out.status is SolveStatus.CONVERGED

        distinct, last, v = 0, None, np.random.default_rng(9).standard_normal(qp.n)
        for event in events:
            if event == "gp":
                last = None
                continue
            A_k, r_k, P, x, g = event
            free = free_set(qp, x)
            distinct += last is None or not np.array_equal(free, last)
            last = free
            fresh = build_reduced(qp, g, free)
            for got, want in ((A_k.indptr, fresh.A_k.indptr),
                              (A_k.indices, fresh.A_k.indices),
                              (A_k.data, fresh.A_k.data), (r_k, fresh.r_k)):
                assert got.tobytes() == want.tobytes()
            fresh_P = make_preconditioner(fresh.A_k, precond)
            assert P.apply(v[:free.size]).tobytes() == fresh_P.apply(v[:free.size]).tobytes()
        assert len(setups) == distinct < out.stats.cg_calls


class TestFactorReuse:
    """A new face that holds every variable factored keeps the IC(k)
    factors: with point Jacobi on the variables joined since while they are
    at most REUSE_JOINED of its own, else with the joined variables
    factored as one more block.  A face that loses a factored variable, and
    the first face, build the preconditioner."""

    def test_positions_only_for_a_face_that_holds_every_factored_variable(self):
        factored = np.arange(0, 90, 2)  # 45 variables
        same = gpcg.precond._grown_positions(factored, factored)
        assert_array_equal(same, np.arange(45))
        for joined in ([1, 3, 5, 7, 89], np.arange(1, 200, 2)):  # 5 of 50, 100 of 145
            free = np.union1d(factored, joined)
            pos = gpcg.precond._grown_positions(factored, free)
            assert_array_equal(free[pos], factored)
        for free in (np.union1d(factored[:-1], [1, 3]),  # the last one left
                     np.union1d(np.delete(factored, 7), [1, 3]),  # one inside left
                     factored[1:]):
            assert gpcg.precond._grown_positions(factored, free) is None

    @staticmethod
    def new_faces(monkeypatch, qp, x0, precond):
        """Solve; return the outcome and, for each free set a reduced matrix
        was built on, whether a preconditioner was built with it and the
        row counts of the IC(k) factors made for it."""
        faces = []
        real_build, real_make = gpcg.solver.build_reduced, gpcg.precond.make_preconditioner
        real_ilu_k = gpcg.precond.ilu_k

        def build_reduced(qp, g, free):
            faces.append([free, False, []])
            return real_build(qp, g, free)

        def make_preconditioner(*args):
            faces[-1][1] = True
            return real_make(*args)

        def ilu_k(M, k):
            faces[-1][2].append(M.nrows)
            return real_ilu_k(M, k)

        monkeypatch.setattr(gpcg.solver, "build_reduced", build_reduced)
        monkeypatch.setattr(gpcg.precond, "make_preconditioner", make_preconditioner)
        monkeypatch.setattr(gpcg.precond, "ilu_k", ilu_k)
        return solve(qp, x0, SolverConfig(precond=precond)), faces

    @pytest.mark.parametrize("case", ["bearing", 0, 1, 3, 4, 8])
    def test_each_new_face_builds_exactly_when_the_rule_says(self, monkeypatch, case):
        # the bearing's faces only grow, by too much once; the random boxes'
        # faces lose variables, box 8's once without getting smaller
        if case == "bearing":
            qp = generate(BearingSpec(30, 30, 0.1))
            x0, precond = qp.l, "bjacobi-ilu2"
        else:
            qp = TestReducedSystemReuse.sparse_box_qp(case)
            x0, precond = np.zeros(qp.n), "bjacobi-ilu0"
        out, faces = self.new_faces(monkeypatch, qp, x0, precond)
        assert out.status is SolveStatus.CONVERGED
        factored, outcomes = None, []
        for free, built, factors in faces:
            F = set(free.tolist())
            if factored is None or not factored <= F:
                outcome = "build"
                assert built and factors == [len(F)], (outcomes, outcome)
                factored = F
            elif len(F - factored) <= gpcg.precond.REUSE_JOINED * len(F):
                outcome = "reuse"
                assert not built and factors == [], (outcomes, outcome)
            else:
                outcome = "extend"
                assert not built and factors == [len(F - factored)], (outcomes, outcome)
                factored = F
            outcomes.append(outcome)
        st = out.stats
        for outcome, count in (("build", st.precond_builds), ("reuse", st.precond_reuses),
                               ("extend", st.precond_extensions)):
            assert count == outcomes.count(outcome)
        assert st.precond_builds + st.precond_reuses + st.precond_extensions == len(faces)
        if case == "bearing":
            assert outcomes[0] == "build" and set(outcomes[1:]) == {"extend", "reuse"}
        else:  # the first face, then only faces that lost a variable
            assert len(outcomes) > 1 and set(outcomes) == {"build"}

    def test_bearing_builds_fewer_factors_than_faces(self):
        qp = generate(BearingSpec(30, 30, 0.1))
        st = solve(qp, qp.l, SolverConfig(precond="bjacobi-ilu2")).stats
        assert st.precond_builds == 1 < st.faces_visited
        assert st.precond_extensions >= 1 and st.precond_reuses > 0

    def test_each_new_face_is_logged_with_its_size_and_outcome(self, caplog):
        qp = generate(BearingSpec(30, 30, 0.1))
        with caplog.at_level(logging.DEBUG, logger="gpcg"):
            out = solve(qp, qp.l, SolverConfig(precond="bjacobi-ilu2"))
        faces = [re.fullmatch(r"outer (\d+): face of (\d+) free: (\w+)", r.getMessage())
                 for r in caplog.records]
        outer, sizes, outcomes = zip(*(m.groups() for m in faces if m))
        st = out.stats
        assert [outcomes.count(o) for o in ("build", "reuse", "extend")] == [
            st.precond_builds, st.precond_reuses, st.precond_extensions]
        assert len(outcomes) > 1 and outcomes[0] == "build"
        sizes = [int(size) for size in sizes]  # the bearing's faces only grow
        assert sizes == sorted(sizes) and 0 < sizes[0] and sizes[-1] < qp.n
        outer = [int(o) for o in outer]
        assert outer == sorted(outer) and outer[-1] <= st.outer_iters

    @pytest.mark.parametrize("case", ["bearing", 0, 1, 3, 4])
    def test_earlier_preconditioners_are_freed_before_each_build(self, monkeypatch, case):
        # the bearing under point Jacobi builds on every face; the random
        # boxes' faces lose variables, so IC(0) factors are built again.  An
        # operator still alive at the next build would hold its memory
        # through it; with gc off, only reference counts free them
        if case == "bearing":
            qp = generate(BearingSpec(30, 30, 0.1))
            x0, precond = qp.l, "jacobi"
        else:
            qp = TestReducedSystemReuse.sparse_box_qp(case)
            x0, precond = np.zeros(qp.n), "bjacobi-ilu0"
        real_make, made, alive = gpcg.precond.make_preconditioner, [], []

        def make_preconditioner(*args):
            alive.append(sum(ref() is not None for ref in made))
            P = real_make(*args)
            made.append(weakref.ref(P))
            return P

        monkeypatch.setattr(gpcg.precond, "make_preconditioner", make_preconditioner)
        gc.disable()
        try:
            out = solve(qp, x0, SolverConfig(precond=precond))
        finally:
            gc.enable()
        assert out.status is SolveStatus.CONVERGED
        assert len(alive) > 1 and not any(alive), alive

    @pytest.mark.parametrize("precond", ["jacobi", "none"])
    def test_diagonal_and_identity_build_on_every_face(self, monkeypatch, precond):
        qp = generate(BearingSpec(30, 30, 0.1))
        out, faces = self.new_faces(monkeypatch, qp, qp.l, precond)
        assert out.stats.precond_reuses == out.stats.precond_extensions == 0
        assert all(built for _, built, _ in faces)
        assert out.stats.precond_builds == len(faces) > 1


class TestMatvecEconomy:
    """Each point's product A x is made once and carried with it."""

    @pytest.mark.parametrize("precond", ["jacobi", "bjacobi-ilu2"])
    def test_one_matvec_per_cauchy_step_and_search_trial(self, monkeypatch,
                                                         precond):
        counts = {"all": 0, "gp": 0, "cg": 0, "gp_trials": 0}
        original = gpcg.linalg.mat_vec

        def counted_mat_vec(A, x):
            counts["all"] += 1
            return original(A, x)

        # rebind every module's own name for mat_vec, as the tracer does
        for name, module in list(sys.modules.items()):
            if (name.split(".")[0] == "gpcg"
                    and getattr(module, "mat_vec", None) is original):
                monkeypatch.setattr(module, "mat_vec", counted_mat_vec)

        def phase(key, fn):
            def wrapped(*args, **kwargs):
                before = counts["all"]
                try:
                    return fn(*args, **kwargs)
                finally:
                    counts[key] += counts["all"] - before
            return wrapped

        original_search_gp = gpcg.gradproj.projected_search_gp

        def search_gp(*args, **kwargs):
            result = original_search_gp(*args, **kwargs)
            counts["gp_trials"] += result[2] + 1
            return result

        monkeypatch.setattr(gpcg.gradproj, "projected_search_gp", search_gp)
        monkeypatch.setattr(gpcg.solver, "gp_phase",
                            phase("gp", gpcg.solver.gp_phase))
        monkeypatch.setattr(gpcg.solver, "pcg_progress",
                            phase("cg", gpcg.solver.pcg_progress))
        qp = generate(BearingSpec(30, 30, 0.1))
        out = solve(qp, qp.l, SolverConfig(precond=precond))
        st = out.stats
        assert out.status is SolveStatus.CONVERGED
        assert st.gp_iters_total > 0 and st.cg_calls > 0
        # every CG call ended in a search: no breakdown, no failure
        assert counts["gp"] == st.gp_iters_total + counts["gp_trials"]
        assert counts["cg"] == st.cg_iters_total
        assert counts["all"] - counts["gp"] - counts["cg"] <= st.cg_calls + 1

    def test_cached_final_values_equal_fresh_ones(self):
        qp = generate(BearingSpec(30, 30, 0.1))
        out = solve(qp, qp.l, SolverConfig(precond="jacobi"))
        x = out.x_star
        assert out.stats.objective_final == objective(qp, x)
        assert out.stats.final_pg_norm == norm2(
            projected_gradient(qp, x, gradient(qp, x)))
        for rec in out.stats.trace:
            if rec.phase == "outer" and rec.outer == out.stats.outer_iters:
                assert rec.q == objective(qp, x)


def _rebind_everywhere(monkeypatch, original, wrapped):
    """Rebind every gpcg module's own names for ``original``, as the tracer
    does."""
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "gpcg":
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, wrapped)


class TestOneEvaluationPerPoint:
    """q is computed once at each point the solver evaluates (the start and
    every search trial), grad q once at each point it keeps (the start and
    every accepted trial): a GP phase continues from the point, product,
    value and gradient that solve hands it, and reports the norm of its
    projected gradient.  The GP and CG searches, one code under two names,
    are counted apart."""

    @pytest.mark.parametrize("case", ["bearing", "box"])
    def test_objective_and_gradient_once_per_point(self, monkeypatch, case):
        if case == "bearing":
            qp = generate(BearingSpec(30, 30, 0.1))
            x0 = qp.l
        else:  # finite upper bounds: [-1, 1]^40
            qp = TestReducedSystemReuse.sparse_box_qp(0)
            x0 = np.zeros(qp.n)
        counts = {"objective": 0, "gradient": 0, "trials": 0, "gp": 0, "cg": 0}
        phases = []

        def counted(key, fn):
            def wrapped(*args, **kwargs):
                counts[key] += 1
                result = fn(*args, **kwargs)
                if key in ("gp", "cg"):
                    counts["trials"] += result[2] + 1
                return result
            return wrapped

        def phase(*args, **kwargs):
            phases.append(real_phase(*args, **kwargs))
            return phases[-1]

        real_phase = gpcg.solver.gp_phase
        originals = {"objective": gpcg.model.objective,
                     "gradient": gpcg.model.gradient,
                     "gp": gpcg.gradproj.projected_search_gp,
                     "cg": gpcg.solver.projected_search_cg}
        for key, original in originals.items():
            _rebind_everywhere(monkeypatch, original, counted(key, original))
        monkeypatch.setattr(gpcg.solver, "gp_phase", phase)
        out = solve(qp, x0, SolverConfig(precond="jacobi"))
        st = out.stats
        assert out.status is SolveStatus.CONVERGED
        assert counts["gp"] == st.gp_iters_total > 0
        assert counts["cg"] == st.cg_calls > 0
        assert counts["objective"] == 1 + counts["trials"]
        assert counts["gradient"] == 1 + counts["gp"] + counts["cg"]
        monkeypatch.undo()
        assert len(phases) == st.outer_iters
        for gp in phases:
            fresh = norm2(projected_gradient(qp, gp.x_out, gradient(qp, gp.x_out)))
            assert gp.pg_norm == fresh


class TestReductionsOncePerPoint:
    """Each point the solver keeps (the start and every accepted search
    trial) pays for one bound-test pass and one norm2, a GP phase does not
    repeat those of the point it is handed, and no active mask is made
    apart.  A CG iteration takes two
    dots (p'Ap and the next rho) and one norm2 (the exact-solve test); its
    decrease is alpha*rho/2, and the exact-solve test at w = 0 reuses
    norm2(r_k).  Every dot is counted: two per objective, one per
    sufficient-decrease test and two per Cauchy step."""

    @pytest.mark.parametrize("case", ["bearing", "box"])
    def test_counts_per_phase_call(self, monkeypatch, case):
        if case == "bearing":
            qp = generate(BearingSpec(30, 30, 0.1))
            x0 = qp.l
        else:  # finite upper bounds: [-1, 1]^40
            qp = TestReducedSystemReuse.sparse_box_qp(0)
            x0 = np.zeros(qp.n)
        counts = {"dot": 0, "norm2": 0, "bound_test": 0, "active_mask": 0,
                  "trials": 0}
        calls = {"gp": [], "cg": [], "solver": []}  # (result, count deltas)

        def counted(key, fn):
            def wrapped(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)
            return wrapped

        def searched(fn):
            def wrapped(*args, **kwargs):
                result = fn(*args, **kwargs)
                counts["trials"] += result[2] + 1
                return result
            return wrapped

        def phase(key, fn):
            def wrapped(*args, **kwargs):
                before = dict(counts)
                result = fn(*args, **kwargs)
                calls[key].append((result, {k: counts[k] - before[k] for k in counts}))
                return result
            return wrapped

        originals = {"dot": gpcg.linalg.dot, "norm2": gpcg.linalg.norm2,
                     "bound_test": gpcg.model._bound_test,
                     "active_mask": gpcg.model._active_mask}
        for key, original in originals.items():
            _rebind_everywhere(monkeypatch, original, counted(key, original))
        monkeypatch.setattr(gpcg.gradproj, "projected_search_gp",
                            searched(gpcg.gradproj.projected_search_gp))
        monkeypatch.setattr(gpcg.solver, "projected_search_cg",
                            searched(gpcg.solver.projected_search_cg))
        monkeypatch.setattr(gpcg.solver, "gp_phase", phase("gp", gpcg.solver.gp_phase))
        monkeypatch.setattr(gpcg.solver, "pcg_progress",
                            phase("cg", gpcg.solver.pcg_progress))
        out = phase("solver", solve)(qp, x0, SolverConfig(precond="jacobi"))
        st = out.stats
        assert out.status is SolveStatus.CONVERGED  # so no CG call broke down
        assert len(calls["gp"]) == st.outer_iters
        assert len(calls["cg"]) == st.cg_calls > 0
        assert st.gp_iters_total > 0 and st.cg_iters_total > st.cg_calls
        for gp, n in calls["gp"]:
            k = gp.iterates_taken
            assert n["bound_test"] == n["norm2"] == k
            assert n["dot"] == 2 * k + 3 * n["trials"]
        for cg, n in calls["cg"]:
            k = cg.iterations
            assert n["bound_test"] == 0
            assert n["norm2"] == k + 1
            assert n["dot"] == 2 * k + (cg.termination is CGStop.MAX_ITER)
        # the start, and the point after every CG call's search
        [(_, total)] = calls["solver"]
        solver = {key: total[key] - sum(n[key] for _, n in calls["gp"] + calls["cg"])
                  for key in total}
        assert solver["bound_test"] == 1 + st.cg_calls
        assert solver["norm2"] == 1 + st.cg_calls
        assert solver["dot"] == 2 + 3 * solver["trials"]
        # free sets, binding tests and face records use the masks kept
        assert total["active_mask"] == 0


@pytest.mark.skipif(os.environ.get("GPCG_HEAVY", "") != "1",
                    reason="set GPCG_HEAVY=1 to run the large instance")
def test_large_instance_converges():
    qp = generate(BearingSpec(800, 800, 0.1))
    out = solve(qp, qp.l, SolverConfig(precond="bjacobi-ilu2"))
    assert out.status is SolveStatus.CONVERGED
    assert reference_pg_norm(qp, out.x_star) <= 1e-4
    assert out.stats.outer_iters <= 60
