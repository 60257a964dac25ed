"""Which gpcg functions the traced run wraps, and the per-layer metrics made
from their spans and counters.

Counts and times are means per traced solve (unit ``*/solve``); ratios
are taken over the whole traced pass and read 0 when their base is 0.
``*.self_s`` is span time minus the time of child spans.  Metrics of a hook
whose target no longer exists read 0 and the hook is listed as absent.
"""

from __future__ import annotations

from tracer import Hook, Span, Tracer, call_counts, self_times

GP_STOPS = ("active_set_settled", "insufficient_progress", "converged", "iteration_cap")
CG_STOPS = ("progress_test", "max_iter", "exact_solve", "breakdown")
PHASES = ("gradproj.gp_phase", "reduced.pcg_progress")


def _count_matvec(tracer, args, kwargs, result):
    A, x = args
    # CSR arrays read once, one gathered x value per stored entry, one write
    # per row: bytes the kernel must touch, not bytes measured.
    nbytes = (A.data.nbytes + A.indices.nbytes + A.indptr.nbytes
              + A.indices.size * x.itemsize + result.nbytes)
    tracer.counters["linalg.mat_vec.bytes"] += nbytes


def _count_gp_phase(tracer, args, kwargs, result):
    tracer.counters["gradproj.gp_phase.iterates"] += result.iterates_taken
    tracer.counters[f"gradproj.gp_phase.stop.{result.termination.value}"] += 1


def _count_gp_search(tracer, args, kwargs, result):
    tracer.counters["gradproj.search.trials"] += result[2] + 1
    tracer.counters["gradproj.search.returns"] += 1


def _count_pcg(tracer, args, kwargs, result):
    tracer.counters["reduced.pcg_progress.iterations"] += result.iterations
    tracer.counters[f"reduced.pcg_progress.stop.{result.termination.value}"] += 1


def _count_cg_search(tracer, args, kwargs, result):
    tracer.counters["solver.search_cg.returns"] += 1
    tracer.counters["solver.search_cg.full_steps"] += result[1] == 1.0


def _count_ilu(tracer, args, kwargs, result):
    tracer.counters["ilu.factor_nnz"] = max(tracer.counters["ilu.factor_nnz"], result.nnz)


def _count_solve(tracer, args, kwargs, result):
    st = result.stats
    for key in ("outer_iters", "cg_calls", "faces_visited", "gp_iters_total",
                "cg_iters_total"):
        tracer.counters[f"solver.{key}"] += getattr(st, key)


HOOKS = [
    Hook("linalg.mat_vec", "gpcg.linalg", "mat_vec", _count_matvec),
    Hook("linalg.dot", "gpcg.linalg", "dot"),
    Hook("linalg.norm2", "gpcg.linalg", "norm2"),
    Hook("linalg.extract_submatrix", "gpcg.linalg", "extract_submatrix"),
    Hook("model.objective", "gpcg.model", "objective"),
    Hook("model.gradient", "gpcg.model", "gradient"),
    Hook("model.project", "gpcg.model", "project"),
    Hook("model.projected_gradient", "gpcg.model", "projected_gradient"),
    Hook("model.free_set", "gpcg.model", "free_set"),
    Hook("gradproj.gp_phase", "gpcg.gradproj", "gp_phase", _count_gp_phase),
    Hook("gradproj.cauchy_step_size", "gpcg.gradproj", "cauchy_step_size"),
    Hook("gradproj.search", "gpcg.gradproj", "projected_search_gp", _count_gp_search),
    Hook("reduced.build_reduced", "gpcg.reduced", "build_reduced"),
    Hook("reduced.pcg_progress", "gpcg.reduced", "pcg_progress", _count_pcg),
    Hook("precond.setup", "gpcg.precond", "make_preconditioner"),
    Hook("precond.apply", "gpcg.precond", "Preconditioner.apply"),
    Hook("ilu.ilu_k", "gpcg.ilu", "ilu_k", _count_ilu),
    Hook("ilu.solve", "gpcg.ilu", "ILUFactorization.solve"),
    Hook("kernels.ilu_symbolic", "gpcg._kernels", "ilu_symbolic"),
    Hook("kernels.ilu_numeric", "gpcg._kernels", "ilu_numeric"),
    Hook("solver.projected_search_cg", "gpcg.solver", "projected_search_cg",
         _count_cg_search),
    Hook("solver.solve", "gpcg.solver", "solve", _count_solve),
]


def matvecs_by_phase(spans: list[Span]) -> dict[str, int]:
    """Count mat_vec spans by the nearest enclosing GP or CG phase span;
    the rest are solver-level."""
    by_id = {s.span_id: s for s in spans}
    counts = {"gp": 0, "cg": 0, "solver": 0}
    for s in spans:
        if s.name != "linalg.mat_vec":
            continue
        phase = "solver"
        parent = by_id.get(s.parent_id)
        while parent is not None:
            if parent.name in PHASES:
                phase = "gp" if parent.name == PHASES[0] else "cg"
                break
            parent = by_id.get(parent.parent_id)
        counts[phase] += 1
    return counts


def per_layer_metrics(tracer: Tracer, solves: int, overhead_ratio: float
                      ) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of a traced run of ``solves`` solves."""
    selfs = self_times(tracer.spans)
    calls = call_counts(tracer.spans)
    c = tracer.counters
    mv = matvecs_by_phase(tracer.spans)

    def self_s(name):
        return selfs.get(name, 0.0) / solves, "s/solve"

    def ncalls(name):
        return calls.get(name, 0) / solves, "count/solve"

    def count(key):
        return c[key] / solves, "count/solve"

    def ratio(num, den):
        return (num / den if den else 0.0), "ratio"

    m = {
        "linalg.mat_vec.calls": ncalls("linalg.mat_vec"),
        "linalg.mat_vec.self_s": self_s("linalg.mat_vec"),
        "linalg.mat_vec.gb_computed": (c["linalg.mat_vec.bytes"] / 1e9 / solves, "GB/solve"),
        "linalg.dot.calls": ncalls("linalg.dot"),
        "linalg.norm2.calls": ncalls("linalg.norm2"),
        "model.gradient.calls": ncalls("model.gradient"),
        "model.objective.calls": ncalls("model.objective"),
        "model.projected_gradient.calls": ncalls("model.projected_gradient"),
        "model.self_s": (sum(v for k, v in selfs.items() if k.startswith("model."))
                         / solves, "s/solve"),
        "gradproj.gp_phase.self_s": self_s("gradproj.gp_phase"),
        "gradproj.gp_phase.iterates": count("gradproj.gp_phase.iterates"),
        "gradproj.matvecs_per_iterate": ratio(mv["gp"], c["gradproj.gp_phase.iterates"]),
        "gradproj.search.trials_per_call": ratio(c["gradproj.search.trials"],
                                                 c["gradproj.search.returns"]),
        "reduced.pcg_progress.self_s": self_s("reduced.pcg_progress"),
        "reduced.pcg_progress.iterations": count("reduced.pcg_progress.iterations"),
        "reduced.matvecs_per_cg_iter": ratio(mv["cg"], c["reduced.pcg_progress.iterations"]),
        "reduced.build_reduced.self_s": self_s("reduced.build_reduced"),
        "linalg.extract_submatrix.self_s": self_s("linalg.extract_submatrix"),
        "precond.setup.calls": ncalls("precond.setup"),
        "precond.setup.self_s": self_s("precond.setup"),
        "precond.apply.calls": ncalls("precond.apply"),
        "precond.apply.self_s": self_s("precond.apply"),
        "ilu.ilu_k.self_s": self_s("ilu.ilu_k"),
        "ilu.factor_nnz": (c["ilu.factor_nnz"], "count"),  # largest factor built
        "ilu.solve.calls": ncalls("ilu.solve"),
        "ilu.solve.self_s": self_s("ilu.solve"),
        "kernels.ilu_symbolic.self_s": self_s("kernels.ilu_symbolic"),
        "kernels.ilu_numeric.self_s": self_s("kernels.ilu_numeric"),
        "solver.self_s": self_s("solver.solve"),
        "solver.projected_search_cg.self_s": self_s("solver.projected_search_cg"),
        "solver.search_cg.full_step_ratio": ratio(c["solver.search_cg.full_steps"],
                                                  c["solver.search_cg.returns"]),
        "solver.outer_iters": count("solver.outer_iters"),
        "solver.cg_calls": count("solver.cg_calls"),
        "solver.faces_visited": count("solver.faces_visited"),
        "solver.matvecs_outside_phases": (mv["solver"] / solves, "count/solve"),
        "trace.overhead_ratio": (overhead_ratio, "ratio"),
    }
    for stop in GP_STOPS:
        m[f"gradproj.gp_phase.stop.{stop}"] = count(f"gradproj.gp_phase.stop.{stop}")
    for stop in CG_STOPS:
        m[f"reduced.pcg_progress.stop.{stop}"] = count(f"reduced.pcg_progress.stop.{stop}")
    return m
