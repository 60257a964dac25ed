import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

import gpcg.solver
from gpcg import (BearingSpec, BoundQP, CGStop, NoFreeVariables, SolverConfig,
                  SolveStatus, SparseMatrixCSR, build_reduced, dot, generate,
                  gradient, make_preconditioner, mat_vec, pcg_progress, solve)
from gpcg.precond import Preconditioner
from gpcg.reduced import ReducedSystem

from conftest import dense_spd, random_bound_qp, random_sparse_spd

from test_ilu import _grid_laplacian


def _system(D, r):
    M = SparseMatrixCSR.from_dense(D, symmetric=True)
    return ReducedSystem(M, np.asarray(r, dtype=float))


class TestBuildReduced:
    def test_slices_match_dense(self):
        rng = np.random.default_rng(60)
        qp = random_bound_qp(rng, 9)
        x = np.clip(rng.standard_normal(9), qp.l, qp.u)
        g = gradient(qp, x)
        free = np.array([0, 3, 4, 8])
        sys = build_reduced(qp, g, free)
        D = qp.A.to_dense()
        assert_array_equal(sys.A_k.to_dense(), D[np.ix_(free, free)])
        assert_array_equal(sys.r_k, g[free])
        assert sys.m == 4
        assert sys.A_k.symmetric

    def test_empty_free_set_rejected(self):
        rng = np.random.default_rng(61)
        qp = random_bound_qp(rng, 4)
        x = np.clip(np.zeros(4), qp.l, qp.u)
        with pytest.raises(NoFreeVariables):
            build_reduced(qp, gradient(qp, x), np.empty(0, dtype=np.int64))


class TestPCG:
    def test_exact_solve_on_small_system(self):
        D = np.diag([1.0, 2.0, 4.0])
        r = np.array([1.0, -2.0, 8.0])
        sys = _system(D, r)
        out = pcg_progress(sys, Preconditioner(sys.m), 1e-12)
        assert out.termination is CGStop.EXACT_SOLVE
        assert_allclose(out.w, -r / np.diag(D), rtol=0, atol=1e-12)

    def test_finite_termination_with_few_distinct_eigenvalues(self):
        # three distinct eigenvalues: exact arithmetic finishes in three
        # steps, and floating point gets close enough to trip the
        # machine-precision exit
        rng = np.random.default_rng(62)
        D = np.diag(rng.choice([1.0, 2.0, 4.0], size=25))
        sys = _system(D, rng.standard_normal(25))
        out = pcg_progress(sys, Preconditioner(sys.m), 1e-30)
        assert out.termination is CGStop.EXACT_SOLVE
        assert out.iterations <= 3
        assert_allclose(D @ out.w, -sys.r_k, rtol=0, atol=1e-12)

    def test_dimension_bound_with_inactive_progress_test(self):
        # a tiny ratio tolerance disables the progress exit, so the solver
        # runs until the residual floors or the dimension cap is reached
        rng = np.random.default_rng(68)
        D = dense_spd(rng, 25)
        sys = _system(D, rng.standard_normal(25))
        out = pcg_progress(sys, Preconditioner(sys.m), 1e-30)
        assert out.termination in (CGStop.EXACT_SOLVE, CGStop.MAX_ITER)
        assert out.iterations <= 25
        assert np.abs(D @ out.w + sys.r_k).max() <= 1e-6 * (
            1 + np.abs(sys.r_k).max())

    def test_start_at_solution_takes_no_iterations(self):
        # CG starts from w = 0, which solves the system when r_k = 0
        sys = _system(np.diag([2.0, 5.0]), np.zeros(2))
        out = pcg_progress(sys, Preconditioner(sys.m), 1e-12)
        assert out.termination is CGStop.EXACT_SOLVE
        assert out.iterations == 0
        assert_array_equal(out.w, 0.0)

    def test_iteration_cap_respected(self):
        # a condition number of 1e8 keeps rounding from letting CG finish in
        # 40 steps: it stops at the dimension cap
        D = np.diag(np.logspace(0, 8, 40))
        rng = np.random.default_rng(64)
        sys = _system(D, rng.standard_normal(40))
        out = pcg_progress(sys, Preconditioner(sys.m), 1e-12)
        assert out.termination is CGStop.MAX_ITER
        assert out.iterations == 40

    def test_cap_never_exceeds_dimension(self):
        D = np.diag([1.0, 3.0])
        sys = _system(D, np.array([1.0, 1.0]))
        out = pcg_progress(sys, Preconditioner(sys.m), 1e-12)
        assert out.iterations <= 2

    def test_progress_test_stops_early(self):
        # wide spectrum: once the dominant directions are resolved the
        # per-iteration decrease collapses and the ratio test fires
        D = np.diag(np.logspace(0, 10, 50))
        rng = np.random.default_rng(65)
        sys = _system(D, rng.standard_normal(50))
        out = pcg_progress(sys, Preconditioner(sys.m), 0.25)
        assert out.termination is CGStop.PROGRESS_TEST
        assert 2 <= out.iterations < 50

    @pytest.mark.parametrize("eta2", [0.5, 0.25, 1e-2, 1e-4])
    def test_progress_test_fires_at_the_first_small_decrease(self, eta2):
        # the rule replayed on the returned decreases, with max() over
        # each prefix: only the last decrease, if any, falls to eta2 times
        # the largest before it
        D = np.diag(np.logspace(0, 10, 50))
        sys = _system(D, np.random.default_rng(65).standard_normal(50))
        out = pcg_progress(sys, Preconditioner(sys.m), eta2)
        d = out.decreases.tolist()
        fired = [j for j in range(1, len(d)) if d[j] <= eta2 * max(d[:j])]
        if out.termination is CGStop.PROGRESS_TEST:
            assert fired == [len(d) - 1]
        else:
            assert fired == []

    def test_decreases_are_positive_and_sum_to_drop(self):
        rng = np.random.default_rng(66)
        D = dense_spd(rng, 12)
        sys = _system(D, rng.standard_normal(12))
        out = pcg_progress(sys, Preconditioner(sys.m), 0.05)
        assert (out.decreases > 0).all()
        # q_r(0) = 0, so the drop is -q_r(w) = -(w'D w / 2 + r'w)
        drop = -(0.5 * out.w @ D @ out.w + sys.r_k @ out.w)
        assert_allclose(drop, out.decreases.sum(), rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("precond", ["jacobi", "bjacobi-ilu2"])
    def test_decrease_is_half_alpha_rho(self, monkeypatch, precond):
        # from w = 0, <res,p> = rho and alpha <p,Ap> = rho in exact
        # arithmetic, so each recorded decrease alpha*rho/2 is the decrease
        # alpha*(<res,p> - alpha/2 <p,Ap>) of the quadratic; checked on the
        # faces of a bearing solve, replayed with both formulas
        calls = []

        def captured(sys, P, eta2):
            calls.append((sys, P, pcg_progress(sys, P, eta2)))
            return calls[-1][2]

        monkeypatch.setattr(gpcg.solver, "pcg_progress", captured)
        qp = generate(BearingSpec(30, 30, 0.1))
        assert solve(qp, qp.l, SolverConfig(precond=precond)).status is SolveStatus.CONVERGED
        assert sum(out.iterations for _, _, out in calls) > 2 * len(calls) > 0
        for sys, P, out in calls:
            res, p = -sys.r_k, P.apply(-sys.r_k)
            rho = dot(res, p)
            want = []
            for _ in range(out.iterations):
                Ap = mat_vec(sys.A_k, p)
                pAp = dot(p, Ap)
                alpha = rho / pAp
                want.append(alpha * (dot(res, p) - 0.5 * alpha * pAp))
                res = res - alpha * Ap
                z = P.apply(res)
                rho_next = dot(res, z)
                p, rho = z + (rho_next / rho) * p, rho_next
            assert_allclose(out.decreases, want, rtol=1e-10, atol=0.0)

    def test_breakdown_on_indefinite_matrix(self):
        D = np.diag([1.0, -1.0])
        sys = _system(D, np.array([0.0, 1.0]))
        out = pcg_progress(sys, Preconditioner(sys.m), 0.05)
        assert out.termination is CGStop.BREAKDOWN
        assert out.iterations == 0

    def test_breakdown_names_what_lost_positivity(self):
        class Negated(Preconditioner):
            def apply(self, r):
                return -r

        sys = _system(np.diag([1.0, -1.0]), np.array([0.0, 1.0]))
        out = pcg_progress(sys, Preconditioner(sys.m), 0.05)
        assert out.breakdown == "reduced matrix"  # p'Ap <= 0
        sys = _system(np.eye(2), np.ones(2))
        out = pcg_progress(sys, Negated(sys.m), 0.05)
        assert out.termination is CGStop.BREAKDOWN
        assert out.breakdown == "preconditioner"  # r'z <= 0
        out = pcg_progress(sys, Preconditioner(sys.m), 0.05)
        assert out.termination is not CGStop.BREAKDOWN
        assert out.breakdown is None

    def test_invalid_tolerance(self):
        sys = _system(np.eye(2), np.ones(2))
        with pytest.raises(ValueError):
            pcg_progress(sys, Preconditioner(sys.m), 0.0)

    def test_preconditioning_cuts_iterations_on_grid_problem(self):
        D = _grid_laplacian(12)
        M = SparseMatrixCSR.from_dense(D, symmetric=True)
        rng = np.random.default_rng(67)
        r = rng.standard_normal(144)
        sys = ReducedSystem(M, r)
        counts = {}
        for name in ("none", "jacobi", "bjacobi-ilu0", "bjacobi-ilu2"):
            P = make_preconditioner(M, name)
            out = pcg_progress(sys, P, 1e-10)
            assert out.termination in (CGStop.EXACT_SOLVE,
                                       CGStop.PROGRESS_TEST)
            counts[name] = out.iterations
        assert counts["bjacobi-ilu2"] < counts["bjacobi-ilu0"]
        assert counts["bjacobi-ilu0"] < counts["none"]
        assert counts["bjacobi-ilu2"] < counts["jacobi"]
