"""The benchmark's workloads and the independent certificate for a solve.

Every workload has a fixed number of distinct inputs per seed and builds
input ``i`` for a seed on demand, so a run can rebuild the exact sequence
it solved.  The certificate recomputes
feasibility, the projected-gradient norm and the objective with
``scipy.sparse`` arithmetic on the benchmark's own copy of the matrix; it
calls no gpcg kernel.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse as sp

import gpcg

TOL = 1e-4


@dataclass
class Instance:
    qp: gpcg.BoundQP
    x0: np.ndarray
    A: sp.csr_matrix  # the benchmark's copy of qp.A, used by the certificate


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    params: dict
    precond: str
    build: Callable[[int, int], Instance]   # (seed, index) -> instance
    warmup: Callable[[], Instance]           # small instance of the same kind
    inputs: int                              # distinct inputs per seed
    reference_objective: float | None = None

    def solver_config(self) -> gpcg.SolverConfig:
        return gpcg.SolverConfig(precond=self.precond, tol=TOL)


def _scipy_copy(M: gpcg.SparseMatrixCSR) -> sp.csr_matrix:
    return sp.csr_matrix((M.data.copy(), M.indices.copy(), M.indptr.copy()),
                         shape=(M.nrows, M.ncols))


def _bearing(nx: int, eps: float) -> Instance:
    # A fresh problem object per solve, so no state can carry from one solve
    # of the same bearing to the next.
    qp = gpcg.generate(gpcg.BearingSpec(nx, nx, eps))
    return Instance(qp, qp.l.copy(), _scipy_copy(qp.A))


RANDOM_N = 60
RANDOM_DENSITY = 0.05
RANDOM_SHIFT = 1e-2
# Distinct random instances per seed: enough that the median solve time over
# them barely depends on the seed, few enough that one pass over them takes
# about half a 35 s run.
RANDOM_INPUTS = 1000


def random_spd_instance(seed: int, index: int) -> Instance:
    """n = 60, A = R R' + 1e-2 I with R sparse (density 0.05, normal values),
    box [-1, 1], b ~ N(0, 1), x0 = 0.  Built with numpy/scipy only."""
    rng = np.random.default_rng([seed, index])
    n = RANDOM_N
    R = sp.random(n, n, density=RANDOM_DENSITY, format="csr", random_state=rng,
                  data_rvs=rng.standard_normal)
    M = (R @ R.T + RANDOM_SHIFT * sp.identity(n, format="csr")).tocsr()
    M = (0.5 * (M + M.T)).tocsr()  # exact symmetry regardless of summation order
    M.eliminate_zeros()
    M.sort_indices()
    A = gpcg.SparseMatrixCSR(n, n, M.indptr, M.indices, M.data, symmetric=True)
    b = rng.standard_normal(n)
    qp = gpcg.BoundQP(A, b, 0.0, -np.ones(n), np.ones(n))
    return Instance(qp, np.zeros(n), M)


# Reference objectives from an independent solver: scipy L-BFGS-B with
# ftol=1e-16, gtol=1e-12 (projected-gradient norm below 1e-7); see
# reference.py.  A solve at tol 1e-4 agrees to a relative 2e-7.
REFERENCE_OBJECTIVE = {
    (100, 0.1): -0.1805725503760982,
    (200, 0.1): -0.18059708581881,
}
REFERENCE_RTOL = 1e-6

WORKLOADS = {w.name: w for w in [
    Workload(
        name="bearing-ilu2",
        why="bearing 100x100 eps 0.1, bjacobi-ilu2, x0=l, tol 1e-4: about 98% of "
            "solve time is ILU symbolic, ILU numeric and triangular solves",
        params={"nx": 100, "ny": 100, "eps": 0.1, "x0": "l", "tol": TOL},
        precond="bjacobi-ilu2",
        build=lambda seed, i: _bearing(100, 0.1),
        warmup=lambda: _bearing(12, 0.1),
        inputs=1,
        reference_objective=REFERENCE_OBJECTIVE[(100, 0.1)],
    ),
    Workload(
        name="bearing-jacobi",
        why="bearing 200x200 eps 0.1, jacobi, x0=l, tol 1e-4: never calls ILU; "
            "matvecs in the GP phase, CG and solver take most of the time",
        params={"nx": 200, "ny": 200, "eps": 0.1, "x0": "l", "tol": TOL},
        precond="jacobi",
        build=lambda seed, i: _bearing(200, 0.1),
        warmup=lambda: _bearing(12, 0.1),
        inputs=1,
        reference_objective=REFERENCE_OBJECTIVE[(200, 0.1)],
    ),
    Workload(
        name="random-ilu0",
        why="seeded sparse random SPD, n=60, box [-1,1], bjacobi-ilu0, x0=0: many "
            "tiny irregular factorizations, per-call overhead, CG breakdowns",
        params={"n": RANDOM_N, "density": RANDOM_DENSITY, "shift": RANDOM_SHIFT,
                "box": [-1.0, 1.0], "x0": "0", "tol": TOL, "inputs": RANDOM_INPUTS},
        precond="bjacobi-ilu0",
        build=random_spd_instance,
        warmup=lambda: random_spd_instance(0, 0),
        inputs=RANDOM_INPUTS,
    ),
]}


@dataclass
class Check:
    feasible: bool
    pg_norm: float
    objective: float
    objective_agrees: bool   # with the solver's reported objective
    reference_agrees: bool   # with the stored reference, where there is one

    def certified(self, converged: bool) -> bool:
        return (converged and self.feasible and self.pg_norm <= TOL
                and self.objective_agrees and self.reference_agrees)


def certify(inst: Instance, x: np.ndarray, reported_objective: float,
            reference: float | None) -> Check:
    qp, A = inst.qp, inst.A
    l, u, b = qp.l, qp.u, qp.b
    feasible = bool(x.shape == l.shape and np.isfinite(x).all()
                    and (x >= l).all() and (x <= u).all())
    if not feasible:
        return Check(False, float("inf"), float("nan"), False, False)
    Ax = A @ x
    g = Ax + b
    pg = g.copy()
    fixed = l == u
    at_l = (x == l) & ~fixed
    at_u = (x == u) & ~fixed
    pg[at_l] = np.minimum(g[at_l], 0.0)
    pg[at_u] = np.maximum(g[at_u], 0.0)
    pg[fixed] = 0.0
    q = float(0.5 * (x @ Ax) + b @ x + qp.c)
    agrees = abs(q - reported_objective) <= 1e-9 * max(1.0, abs(q))
    ref_ok = reference is None or abs(q - reference) <= REFERENCE_RTOL * abs(reference)
    return Check(True, float(np.sqrt(pg @ pg)), q, agrees, ref_ok)


def digest(x: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(x).tobytes()).hexdigest()[:16]
