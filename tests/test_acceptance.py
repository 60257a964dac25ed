"""Acceptance suite: one test per advertised behavior bundle, pinned
tolerances, shared cached benchmark runs."""

import numpy as np
import pytest

from gpcg import (BearingSpec, SolveStatus, SolverConfig, active_set,
                  binding_set, dense_solve, generate, gradient, ilu_k,
                  solve, solve_enum)

from conftest import (random_bound_qp, random_sparse_spd, reference_pg_norm,
                      unconstrained_qp)
from test_ilu import (_tridiag, combined_to_dense, dense_lu_nopivot, pattern,
                      split_lu)

ILU2 = "bjacobi-ilu2"


def test_criterion_01_benchmark_converges_within_tolerance_and_time(bearing_runs):
    for eps in (0.1, 0.9):
        qp, out, elapsed = bearing_runs(100, eps, ILU2)
        assert out.status is SolveStatus.CONVERGED, f"eps={eps}"
        assert reference_pg_norm(qp, out.x_star) <= 1e-4, f"eps={eps}"
        assert elapsed < 60.0, f"eps={eps}: took {elapsed:.1f}s"


def test_criterion_02_matches_enumeration_on_200_random_instances():
    rng = np.random.default_rng(2024)
    for trial in range(200):
        n = int(rng.integers(2, 9))
        qp = random_bound_qp(rng, n)
        out = solve(qp, np.clip(np.zeros(n), qp.l, qp.u),
                    SolverConfig(tol=1e-8))
        assert out.status is SolveStatus.CONVERGED, f"trial {trial}"
        gap = np.abs(out.x_star - solve_enum(qp)).max()
        assert gap <= 1e-6, f"trial {trial}: gap {gap:.3e}"


def test_criterion_03_unconstrained_matches_dense_solve():
    rng = np.random.default_rng(2025)
    for trial in range(50):
        n = int(rng.integers(2, 51))
        qp = unconstrained_qp(rng, n)
        out = solve(qp, np.zeros(n), SolverConfig(tol=1e-6))
        assert out.status is SolveStatus.CONVERGED, f"trial {trial}"
        residual = np.abs(qp.A.to_dense() @ out.x_star + qp.b).max()
        bound = 1e-6 * (1.0 + np.abs(qp.b).max())
        assert residual <= bound, f"trial {trial}: {residual:.3e} > {bound:.3e}"
        x_ref = dense_solve(qp.A.to_dense(), -qp.b)
        assert np.abs(out.x_star - x_ref).max() <= 1e-6 * (
            1.0 + np.abs(x_ref).max()), f"trial {trial}"


def test_criterion_04_free_variable_fractions_at_200(bearing_runs):
    _, out_low, _ = bearing_runs(200, 0.1, ILU2)
    _, out_high, _ = bearing_runs(200, 0.9, ILU2)
    assert out_low.status is SolveStatus.CONVERGED
    assert out_high.status is SolveStatus.CONVERGED
    assert 0.60 <= out_low.stats.free_fraction_final <= 0.76, \
        out_low.stats.free_fraction_final
    assert 0.46 <= out_high.stats.free_fraction_final <= 0.62, \
        out_high.stats.free_fraction_final


def test_criterion_05_outer_iteration_scale_and_growth(bearing_runs):
    outer = {}
    for nx in (100, 200):
        for eps in (0.1, 0.9):
            _, out, _ = bearing_runs(nx, eps, ILU2)
            assert out.status is SolveStatus.CONVERGED, (nx, eps)
            outer[nx, eps] = out.stats.outer_iters
            assert out.stats.outer_iters <= 40, (nx, eps, out.stats.outer_iters)
    growth = outer[200, 0.1] / outer[100, 0.1]
    assert growth <= 3.0, f"outer grew {growth:.2f}x from 100 to 200"


def test_criterion_06_preconditioner_cg_iteration_ordering(bearing_runs):
    totals = {}
    for precond in ("jacobi", "bjacobi-ilu0", ILU2):
        _, out, _ = bearing_runs(100, 0.1, precond)
        assert out.status is SolveStatus.CONVERGED, precond
        totals[precond] = out.stats.cg_iters_total
    assert totals["jacobi"] > totals["bjacobi-ilu0"] > totals[ILU2], totals
    ratio = totals["jacobi"] / totals[ILU2]
    assert ratio >= 2.0, f"jacobi/ilu2 CG ratio {ratio:.2f}"


def test_criterion_07_outer_iterations_insensitive_to_preconditioner(bearing_runs):
    counts = []
    for precond in ("jacobi", "bjacobi-ilu0", ILU2):
        _, out, _ = bearing_runs(100, 0.1, precond)
        counts.append(out.stats.outer_iters)
    assert max(counts) - min(counts) <= 5, counts


def test_criterion_08_ilu_suite():
    rng = np.random.default_rng(2026)
    # tridiagonal: the zero-fill factor reconstructs the matrix
    for trial in range(5):
        n = int(rng.integers(3, 40))
        M, D = _tridiag(n, rng)
        L, U = split_lu(ilu_k(M, 0))
        assert np.abs(L @ U - D).max() <= 1e-12, f"trial {trial}"
    # saturated fill equals unpivoted dense elimination
    for trial in range(5):
        n = int(rng.integers(5, 25))
        M, D = random_sparse_spd(rng, n, 3)
        got = combined_to_dense(ilu_k(M, n))
        assert np.abs(got - dense_lu_nopivot(D)).max() <= 1e-10, f"trial {trial}"
    # fill patterns grow monotonically with the level
    for trial in range(5):
        M, _ = random_sparse_spd(rng, 30, 3)
        f0 = ilu_k(M, 0)
        f2 = ilu_k(M, 2)
        assert pattern(f0.u_indptr, f0.u_indices) <= pattern(f2.u_indptr,
                                                             f2.u_indices)


def test_criterion_09_descent_and_certificates(bearing_runs):
    keys = [(100, 0.1, ILU2), (100, 0.9, ILU2), (200, 0.1, ILU2),
            (200, 0.9, ILU2), (100, 0.1, "jacobi"),
            (100, 0.1, "bjacobi-ilu0"), (100, 0.1, ILU2, 4),
            (100, 0.1, ILU2, 16)]
    runs = [bearing_runs(*key) for key in keys]
    rng = np.random.default_rng(2027)
    for _ in range(20):
        qp = random_bound_qp(rng, 7)
        out = solve(qp, np.clip(np.zeros(7), qp.l, qp.u))
        runs.append((qp, out, 0.0))
    for qp, out, _ in runs:
        qs = [rec.q for rec in out.stats.trace if rec.phase == "outer"]
        assert all(a > b for a, b in zip(qs, qs[1:])), "objective stalled"
        if out.status is SolveStatus.CONVERGED:
            assert reference_pg_norm(qp, out.x_star) <= 1e-4
    # face identification is exact once the tolerance sits below the
    # smallest gradient over the bound-active variables (5.4e-6 here)
    for nx, eps in ((100, 0.1), (100, 0.9), (200, 0.1), (200, 0.9)):
        qp = generate(BearingSpec(nx, nx, eps))
        out = solve(qp, qp.l.copy(), SolverConfig(tol=1e-6, precond=ILU2))
        assert out.status is SolveStatus.CONVERGED
        g = gradient(qp, out.x_star)
        assert np.array_equal(binding_set(qp, out.x_star, g),
                              active_set(qp, out.x_star))


def test_criterion_10_determinism_is_bit_identical(tmp_path):
    from gpcg.io import write_trace
    qp = generate(BearingSpec(60, 60, 0.5))
    cfg = SolverConfig(precond=ILU2, blocks=4)
    first = solve(qp, qp.l, cfg)
    second = solve(qp, qp.l, cfg)
    assert first.x_star.tobytes() == second.x_star.tobytes()
    s1, s2 = first.stats, second.stats
    for name in ("outer_iters", "gp_iters_total", "cg_iters_total",
                 "cg_calls", "faces_visited", "free_fraction_final",
                 "final_pg_norm", "objective_final"):
        assert getattr(s1, name) == getattr(s2, name), name
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_trace(str(p1), s1.trace)
    write_trace(str(p2), s2.trace)
    assert p1.read_bytes() == p2.read_bytes()


def test_criterion_11_block_count_does_not_change_the_solution(bearing_runs):
    objectives = []
    for blocks in (1, 4, 16):
        _, out, _ = bearing_runs(100, 0.1, ILU2, blocks)
        assert out.status is SolveStatus.CONVERGED, blocks
        objectives.append(out.stats.objective_final)
    scale = max(abs(q) for q in objectives)
    spread = max(objectives) - min(objectives)
    assert spread <= 1e-6 * scale, (objectives, spread)
