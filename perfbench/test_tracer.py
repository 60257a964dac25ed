"""Tests of the benchmark's tracer.  Run with ``python3 -m pytest perfbench``."""

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import gpcg  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
from tracer import Hook, Span, Tracer, self_times  # noqa: E402
from workloads import WORKLOADS, random_spd_instance  # noqa: E402


def _bindings():
    """Identity of every attribute of every gpcg module and class."""
    snap = {}
    for name, mod in list(sys.modules.items()):
        if name == "gpcg" or name.startswith("gpcg."):
            for key, value in vars(mod).items():
                snap[(name, key)] = id(value)
                if isinstance(value, type):
                    for attr, member in vars(value).items():
                        snap[(name, key, attr)] = id(member)
    return snap


def test_self_time_subtracts_direct_children_only():
    spans = [
        Span(0, -1, 0, "root", 0.0, 10.0),
        Span(1, 0, 0, "a", 1.0, 4.0),
        Span(2, 0, 0, "b", 5.0, 9.0),
        Span(3, 2, 0, "a", 6.0, 7.0),
        Span(4, -1, 1, "root", 20.0, 22.0),
    ]
    got = self_times(spans)
    assert got["root"] == pytest.approx((10 - 3 - 4) + 2)
    assert got["b"] == pytest.approx(4 - 1)
    assert got["a"] == pytest.approx(3 + 1)
    assert sum(got.values()) == pytest.approx(10 + 2)


def test_every_rebinding_is_undone_and_calls_nest():
    before = _bindings()
    original = gpcg.solver.gradient
    inst = random_spd_instance(0, 1)
    with Tracer(layers.HOOKS) as tracer:
        assert gpcg.solver.gradient is not original
        assert gpcg.solver.gradient.perfbench_hook == "model.gradient"
        tracer.solve_id = 7
        out = gpcg.solve(inst.qp, inst.x0, gpcg.SolverConfig(precond="bjacobi-ilu0"))
    assert _bindings() == before
    assert tracer.absent == []
    names = {s.name for s in tracer.spans}
    # functions the solver imported by name and methods on subclasses are traced
    assert {"model.gradient", "gradproj.gp_phase", "precond.apply", "ilu.solve",
            "kernels.ilu_symbolic"} <= names
    roots = [s for s in tracer.spans if s.parent_id == -1]
    assert [s.name for s in roots] == ["solver.solve"]
    assert {s.solve_id for s in tracer.spans} == {7}
    assert tracer.counters["solver.outer_iters"] == out.stats.outer_iters


def test_untraced_and_traced_solves_are_identical():
    inst = random_spd_instance(3, 2)
    cfg = gpcg.SolverConfig(precond="bjacobi-ilu0")
    plain = gpcg.solve(inst.qp, inst.x0, cfg)
    with Tracer(layers.HOOKS):
        traced = gpcg.solve(inst.qp, inst.x0, cfg)
    assert plain.x_star.tobytes() == traced.x_star.tobytes()
    assert plain.stats.outer_iters == traced.stats.outer_iters


def test_missing_target_is_reported_absent():
    before = _bindings()
    hooks = [Hook("kernels.gone", "gpcg._kernels", "no_such_kernel"),
             Hook("gone.module", "gpcg.no_such_module", "f"),
             Hook("gone.method", "gpcg.ilu", "ILUFactorization.no_such_method"),
             Hook("gone.class", "gpcg.ilu", "NoSuchClass.solve"),
             Hook("linalg.dot", "gpcg.linalg", "dot")]
    with Tracer(hooks) as tracer:
        assert gpcg.linalg.dot(np.ones(3), np.ones(3)) == 3.0
    assert tracer.absent == ["kernels.gone", "gone.module", "gone.method", "gone.class"]
    assert [s.name for s in tracer.spans] == ["linalg.dot"]
    assert _bindings() == before
    metrics = layers.per_layer_metrics(tracer, 1, 1.0)
    assert metrics["kernels.ilu_symbolic.self_s"] == (0.0, "s/solve")


def test_exception_in_traced_call_closes_its_span():
    with Tracer([Hook("linalg.dot", "gpcg.linalg", "dot")]) as tracer:
        with pytest.raises(ValueError):
            gpcg.linalg.dot(np.ones(2), np.ones(3))
        gpcg.linalg.dot(np.ones(2), np.ones(2))
    assert [s.parent_id for s in tracer.spans] == [-1, -1]


def test_matvecs_are_attributed_to_the_enclosing_phase():
    spans = [
        Span(0, -1, 0, "solver.solve", 0, 10),
        Span(1, 0, 0, "gradproj.gp_phase", 1, 3),
        Span(2, 1, 0, "model.gradient", 1, 2),
        Span(3, 2, 0, "linalg.mat_vec", 1, 2),
        Span(4, 0, 0, "reduced.pcg_progress", 4, 6),
        Span(5, 4, 0, "linalg.mat_vec", 4, 5),
        Span(6, 0, 0, "linalg.mat_vec", 7, 8),
    ]
    assert layers.matvecs_by_phase(spans) == {"gp": 1, "cg": 1, "solver": 1}


def test_runner_lists_every_workload():
    assert run.WORKLOAD_NAMES == tuple(WORKLOADS)
