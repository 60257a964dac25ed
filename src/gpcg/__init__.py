"""Bound-constrained convex quadratic programming by gradient projection
plus reduced-space preconditioned conjugate gradients, with the
journal-bearing benchmark generator and brute-force reference solvers."""

from .bearing import BearingSpec, generate, wl, wq
from .errors import (AlreadyStationary, GPCGError, NoFreeVariables,
                     NotConvexError, SearchFailed, ZeroPivot)
from .gradproj import GPResult, GPStop, cauchy_step_size, gp_phase, projected_search_gp
from .ilu import ILUFactorization, ilu_k
from .io import load_problem, read_matrix, read_vector, save_problem, write_matrix, write_trace, write_vector
from .linalg import SparseMatrixCSR, dot, extract_submatrix, mat_vec, norm2
from .model import (BoundQP, active_set, binding_set, converged, free_set,
                    gradient, objective, project, projected_gradient)
from .oracle import dense_solve, solve_enum
from .precond import Preconditioner, make_preconditioner, parse_precond
from .reduced import CGResult, CGStop, ReducedSystem, build_reduced, pcg_progress
from .solver import (SolveOutcome, SolveStatus, SolverConfig, SolverStats,
                     TraceRecord, projected_search_cg, solve)

__version__ = "1.0.0"

__all__ = [
    "AlreadyStationary", "BearingSpec", "BoundQP", "CGResult", "CGStop",
    "GPCGError", "GPResult", "GPStop", "ILUFactorization",
    "NoFreeVariables", "NotConvexError", "Preconditioner", "ReducedSystem",
    "SearchFailed", "SolveOutcome", "SolveStatus", "SolverConfig",
    "SolverStats", "SparseMatrixCSR", "TraceRecord", "ZeroPivot",
    "active_set", "binding_set", "build_reduced", "cauchy_step_size",
    "converged", "dense_solve", "dot", "extract_submatrix", "free_set",
    "generate", "gp_phase", "gradient", "ilu_k", "load_problem",
    "make_preconditioner", "mat_vec", "norm2", "objective", "parse_precond",
    "pcg_progress", "project", "projected_gradient", "projected_search_cg",
    "projected_search_gp", "read_matrix", "read_vector", "save_problem",
    "solve", "solve_enum", "wl", "wq", "write_matrix", "write_trace",
    "write_vector",
]
