import numpy as np
import pytest
import scipy.optimize
from numpy.testing import assert_allclose

from gpcg import (AlreadyStationary, BearingSpec, BoundQP, GPStop,
                  NotConvexError, SearchFailed, SparseMatrixCSR,
                  cauchy_step_size, dot, generate, gradient, mat_vec, norm2,
                  objective, project, projected_gradient)

import gpcg.gradproj
from gpcg.gradproj import (GP_PROGRESS, SUFFICIENT_DECREASE, Iterate,
                           projected_search)

from conftest import random_bound_qp, unconstrained_qp


def _one_d(curv, lin, lo, hi):
    A = SparseMatrixCSR.from_dense(np.array([[curv]]), symmetric=True)
    return BoundQP(A, np.array([lin]), 0.0, np.array([lo]), np.array([hi]))


def gp_phase(qp, x, tau):
    """The phase from x, whose record ``Iterate.at`` makes; returns the
    phase's result and the record it advanced to the point it reached."""
    it = Iterate.at(qp, x)
    return gpcg.gradproj.gp_phase(qp, it, tau), it


class TestCauchyStepSize:
    def test_exact_on_one_d(self):
        # q(x) = x^2 - 4x: step from 0 along -pg lands on the minimizer 2
        qp = _one_d(2.0, -4.0, -10.0, 10.0)
        y = np.zeros(1)
        g = gradient(qp, y)
        d = projected_gradient(qp, y, g)
        alpha = cauchy_step_size(qp, g, d)
        assert alpha == 0.5
        assert (y - alpha * d)[0] == 2.0

    def test_mixed_numerator_by_hand(self):
        # clipped component contributes nothing: alpha = 1/2 exactly
        A = SparseMatrixCSR.from_dense(np.diag([1.0, 2.0]), symmetric=True)
        qp = BoundQP(A, np.array([1.0, -1.0]), 0.0,
                     np.array([0.0, -1.0]), np.array([1.0, 1.0]))
        y = np.zeros(2)
        g = gradient(qp, y)
        d = projected_gradient(qp, y, g)
        assert_allclose(d, [0.0, -1.0], rtol=0, atol=0)
        assert cauchy_step_size(qp, g, d) == 0.5

    def test_matches_scalar_minimization(self):
        rng = np.random.default_rng(30)
        qp = random_bound_qp(rng, 8, inf_prob=0.0)
        y = np.clip(rng.standard_normal(8), qp.l, qp.u)
        g = gradient(qp, y)
        d = projected_gradient(qp, y, g)
        alpha = cauchy_step_size(qp, g, d)
        # independent check: minimize q(y - a d) over a by golden section
        res = scipy.optimize.minimize_scalar(
            lambda a: objective(qp, y - a * d), bounds=(0.0, 10.0 * alpha),
            method="bounded", options={"xatol": 1e-12})
        assert abs(alpha - res.x) <= 1e-6 * (1.0 + alpha)

    def test_zero_direction_rejected(self):
        qp = _one_d(1.0, 0.0, -1.0, 1.0)
        with pytest.raises(AlreadyStationary):
            cauchy_step_size(qp, np.zeros(1), np.zeros(1))

    def test_nonconvex_direction_rejected(self):
        # indefinite symmetric matrix: curvature along (1, -1) is negative
        A = SparseMatrixCSR.from_dense(np.array([[1.0, 2.0], [2.0, 1.0]]),
                                       symmetric=True)
        qp = BoundQP(A, np.zeros(2), 0.0, np.full(2, -5.0), np.full(2, 5.0))
        with pytest.raises(NotConvexError):
            cauchy_step_size(qp, gradient(qp, np.zeros(2)),
                             np.array([1.0, -1.0]))


class TestProjectedSearchGP:
    """The search as the GP phase takes it: along d = g."""

    def test_accepts_exact_step_immediately(self):
        qp = _one_d(1.0, 0.0, -np.inf, np.inf)
        y = np.ones(1)
        g = gradient(qp, y)
        y_next, alpha, halvings, _, _ = projected_search(
            qp, y, g, objective(qp, y), g, 1.0)
        assert y_next[0] == 0.0
        assert alpha == 1.0
        assert halvings == 0

    def test_halves_an_oversized_step(self):
        # from y=1 on q = x^2/2: trials 8, 4, 2 fail the decrease test, 1
        # succeeds
        qp = _one_d(1.0, 0.0, -np.inf, np.inf)
        y = np.ones(1)
        g = gradient(qp, y)
        y_next, alpha, halvings, _, _ = projected_search(
            qp, y, g, objective(qp, y), g, 8.0)
        assert alpha == 1.0
        assert halvings == 3
        assert y_next[0] == 0.0

    def test_projection_clips_trial_to_box(self):
        # q = x^2/2 + 3x on [0, inf): full step from 2 leaves the box and is
        # projected back to the bound
        qp = _one_d(1.0, 3.0, 0.0, np.inf)
        y = np.full(1, 2.0)
        g = gradient(qp, y)
        y_next, alpha, halvings, _, _ = projected_search(
            qp, y, g, objective(qp, y), g, 1.0)
        assert y_next[0] == 0.0
        assert halvings == 0

    def test_decrease_test_uses_full_gradient_inner_product(self, monkeypatch):
        # the acceptance threshold moves with <g, y+ - y>, checked by hand:
        # q = x^2/2 from y=1 with mu just below the exact-step margin
        qp = _one_d(1.0, 0.0, -np.inf, np.inf)
        y = np.ones(1)
        g = gradient(qp, y)
        monkeypatch.setattr(gpcg.gradproj, "SUFFICIENT_DECREASE", 0.49)
        # trial alpha=1 gives q drop 0.5 and <g, dy> = -1; accepted iff
        # 0 <= 0.5 - mu, true for every mu in (0, 1/2)
        _, alpha, _, _, _ = projected_search(qp, y, g, objective(qp, y), g,
                                             1.0)
        assert alpha == 1.0

    def test_invalid_initial_step_rejected(self):
        qp = _one_d(1.0, 0.0, -1.0, 1.0)
        for alpha0 in (0.0, -1.0):
            with pytest.raises(ValueError, match="initial step"):
                projected_search(qp, np.ones(1), np.ones(1), 0.5, np.ones(1),
                                 alpha0)

    def test_exhaustion_raises(self, monkeypatch):
        qp = _one_d(1.0, 0.0, -np.inf, np.inf)
        y = np.ones(1)
        g = gradient(qp, y)
        monkeypatch.setattr(gpcg.gradproj, "MAX_HALVINGS", 3)
        with pytest.raises(SearchFailed, match="within 3 halvings"):
            projected_search(qp, y, g, objective(qp, y), g, 2.0 ** 40)


class TestGPPhase:
    def test_already_converged_takes_no_iterates(self):
        qp = _one_d(2.0, -4.0, -10.0, 10.0)
        out, _ = gp_phase(qp, np.full(1, 2.0), 1e-8)
        assert out.iterates_taken == 0
        assert out.termination is GPStop.CONVERGED

    def test_interior_minimizer_found_in_one_iterate(self):
        qp = _one_d(2.0, -4.0, -10.0, 10.0)
        out, it = gp_phase(qp, np.zeros(1), 1e-8)
        assert out.termination is GPStop.CONVERGED
        assert out.iterates_taken == 1
        assert it.x[0] == 2.0

    def test_unconstrained_settles_after_one_iterate(self):
        # the active set is empty before and after the first step
        rng = np.random.default_rng(31)
        qp = unconstrained_qp(rng, 12)
        out, _ = gp_phase(qp, np.zeros(12), 1e-12)
        assert out.termination is GPStop.ACTIVE_SET_SETTLED
        assert out.iterates_taken == 1

    def test_iteration_cap(self, monkeypatch):
        qp = generate(BearingSpec(8, 8, 0.5))
        monkeypatch.setattr(gpcg.gradproj, "GP_CAP", 1)
        out, _ = gp_phase(qp, qp.l, 1e-12)
        assert out.termination is GPStop.ITERATION_CAP
        assert out.iterates_taken == 1

    def test_decreases_are_positive_and_objective_falls(self, monkeypatch):
        rng = np.random.default_rng(32)
        monkeypatch.setattr(gpcg.gradproj, "GP_CAP", 50)
        for _ in range(10):
            qp = random_bound_qp(rng, 7)
            x0 = np.clip(rng.standard_normal(7), qp.l, qp.u)
            out, it = gp_phase(qp, x0, 1e-10)
            if out.iterates_taken == 0:
                continue
            assert (out.decreases > 0).all()
            assert objective(qp, it.x) < objective(qp, x0)

    def test_result_carries_exact_product_objective_and_gradient(
            self, monkeypatch):
        qp = generate(BearingSpec(16, 16, 0.8))
        for cap in (0, 1, 40):
            monkeypatch.setattr(gpcg.gradproj, "GP_CAP", cap)
            _, it = gp_phase(qp, qp.l, 1e-6)
            assert np.array_equal(it.Ax, mat_vec(qp.A, it.x))
            assert it.q == objective(qp, it.x)
            assert np.array_equal(it.g, gradient(qp, it.x))
            assert np.array_equal(it.pg, projected_gradient(qp, it.x, it.g))
            assert it.pg_norm == norm2(projected_gradient(qp, it.x, it.g))
            assert np.array_equal(it.active, (it.x == qp.l) | (it.x == qp.u))

    def test_search_returns_product_and_objective_of_accepted_point(self):
        qp = generate(BearingSpec(8, 8, 0.5))
        y = qp.l
        g = gradient(qp, y)
        y_next, _, _, Ay, q_next = projected_search(
            qp, y, g, objective(qp, y), g, 64.0)
        assert np.array_equal(Ay, mat_vec(qp.A, y_next))
        assert q_next == objective(qp, y_next)

    def test_same_bits_as_recomputing_every_value(self, monkeypatch):
        # the carried products change no value: every record and the final
        # point match a loop that recomputes q, g and the projected gradient
        # from scratch at each use
        monkeypatch.setattr(gpcg.gradproj, "GP_CAP", 40)
        for spec in (BearingSpec(16, 16, 0.8), BearingSpec(20, 12, 0.1)):
            qp = generate(spec)
            out, it = gp_phase(qp, qp.l, 1e-6)
            x_ref, qs, steps = _uncached_gp_reference(
                qp, qp.l, GP_PROGRESS, SUFFICIENT_DECREASE, 1e-6, 40)
            assert it.x.tobytes() == x_ref.tobytes()
            assert [rec.q for rec in out.records] == qs
            assert [rec.step for rec in out.records] == steps

    def test_matches_independent_dense_reference(self, monkeypatch):
        # same iterates as a freshly coded dense implementation
        qp = generate(BearingSpec(16, 16, 0.8))
        monkeypatch.setattr(gpcg.gradproj, "GP_CAP", 40)
        out, _ = gp_phase(qp, qp.l, 1e-6)
        ref_qs = _dense_gp_reference(qp.A.to_dense(), qp.b, qp.l, qp.u,
                                     np.array(qp.l), GP_PROGRESS,
                                     SUFFICIENT_DECREASE, 1e-6, 40)
        got_qs = [rec.q for rec in out.records]
        assert len(got_qs) == len(ref_qs)
        assert_allclose(got_qs, ref_qs, rtol=1e-10, atol=1e-12)
        assert out.iterates_taken <= 25
        assert out.records[-1].n_active < qp.n


def _uncached_gp_reference(qp, y, eta1, mu, tau, cap):
    """The phase with every product recomputed where it is used."""
    qs, steps, drops = [], [], []
    if norm2(projected_gradient(qp, y, gradient(qp, y))) <= tau:
        return y, qs, steps
    prev_active = (y == qp.l) | (y == qp.u)
    for _ in range(cap):
        g = gradient(qp, y)
        d = projected_gradient(qp, y, g)
        alpha = dot(g, d) / dot(d, mat_vec(qp.A, d))
        q_y = objective(qp, y)
        while True:
            trial = project(qp, y - alpha * g)
            if objective(qp, trial) <= q_y + mu * dot(g, trial - y):
                break
            alpha *= 0.5
        drops.append(q_y - objective(qp, trial))
        y = trial
        qs.append(objective(qp, y))
        steps.append(alpha)
        active = (y == qp.l) | (y == qp.u)
        if norm2(projected_gradient(qp, y, gradient(qp, y))) <= tau:
            break
        if np.array_equal(active, prev_active):
            break
        if len(drops) >= 2 and drops[-1] <= eta1 * max(drops[:-1]):
            break
        prev_active = active
    return y, qs, steps


def _dense_gp_reference(A, b, l, u, y, eta1, mu, tau, cap):
    """Plain dense restatement of the phase, kept free of package kernels."""
    def q(x):
        return 0.5 * x @ A @ x + b @ x

    def pg(x, g):
        out = g.copy()
        for i in range(x.size):
            if l[i] == u[i]:
                out[i] = 0.0
            elif x[i] == l[i]:
                out[i] = min(g[i], 0.0)
            elif x[i] == u[i]:
                out[i] = max(g[i], 0.0)
        return out

    qs = []
    drops = []
    prev_active = (y == l) | (y == u)
    g = A @ y + b
    if np.linalg.norm(pg(y, g)) <= tau:
        return qs
    for _ in range(cap):
        d = pg(y, g)
        alpha = (g @ d) / (d @ A @ d)
        q_y = q(y)
        while True:
            trial = np.clip(y - alpha * g, l, u)
            if q(trial) <= q_y + mu * (g @ (trial - y)):
                break
            alpha *= 0.5
        drops.append(q_y - q(trial))
        y = trial
        g = A @ y + b
        qs.append(q(y))
        active = (y == l) | (y == u)
        if np.linalg.norm(pg(y, g)) <= tau:
            break
        if np.array_equal(active, prev_active):
            break
        if len(drops) >= 2 and drops[-1] <= eta1 * max(drops[:-1]):
            break
        prev_active = active
    return qs
