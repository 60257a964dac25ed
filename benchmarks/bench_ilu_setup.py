"""Layer benchmark of block-Jacobi IC(k) setup and apply.

Collects the blocks that ``ilu_k`` factors in two kinds of solve and then
times the factorization's layers on those blocks, each on its own:

* the journal bearing (nx = ny, eps 0.1, ``bjacobi-ilu2``, x0 = l, tol
  1e-4), solved once per size: large blocks, most factored by levels;
* the benchmark's ``random-ilu0`` workload, inputs 0-99 of seed 0, built by
  ``perfbench/workloads.py`` (read, not changed): blocks of n <= 60, all
  factored by the row loop, where per-call overhead dominates.

The layers:

  symbolic   ``_kernels.ilu_symbolic``: the upper pattern
  forward    ``_kernels.lower_pattern``, the transpose of the pattern, and
             on large blocks ``_kernels.elimination_steps``: the level
             form's schedule
  numeric    ``_kernels.ilu_numeric`` in the form ``ilu_k`` would use
  plan       ``ILUFactorization`` construction: the operands of the solves
  apply      one ``ILUFactorization.solve`` of a fixed right-hand side
  ilu_k      the whole factorization, as the solver calls it

The schedule runs on blocks of n >= ``ilu.LEVEL_MIN_ROWS`` only, so not on
the ``random-ilu0`` blocks; the other layers run on every block.  Each
layer takes the best of ``--repeat`` runs per block; the report sums the
bests over the blocks and divides by the number of solves.  Each bearing
block's record holds the number of elimination steps of its level form
(0 below ``LEVEL_MIN_ROWS``), counted by a row loop here, whether
``ilu_k`` factors it by levels (``by_levels``: n >= ``LEVEL_MIN_ROWS``)
and its best ``ilu_k`` time; every run counts its blocks factored by
levels.  BLAS is pinned to one
thread before numpy loads.

Results are merged into ``--out`` (default ``BENCH_ilu_setup.json`` at the
repo root) under ``--label``.  The script measures the tree it sits in; to
compare with another commit, run a copy of it from a checkout of that
commit (a ``git worktree``, say) into the same file.  The copy calls the
kernels by their names and signatures here, so a tree with others needs
it adapted:

  python3 benchmarks/bench_ilu_setup.py --label change
  cp benchmarks/bench_ilu_setup.py ../parent/benchmarks/
  python3 ../parent/benchmarks/bench_ilu_setup.py --label parent \
      --out BENCH_ilu_setup.json
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
LAYERS = ("symbolic", "forward", "numeric", "plan", "apply", "ilu_k")


FILL_LEVEL = 2
RANDOM_SEED = 0
RANDOM_INPUTS = 100


def captured_blocks(gpcg, solves):
    """The (matrix, fill level) of every ilu_k call in the solves, given as
    (problem, starting point, config) triples; a solve that fails counts
    with the blocks it factored."""
    blocks = []
    real = gpcg.precond.ilu_k

    def record(M, k):
        blocks.append((M, k))
        return real(M, k)

    gpcg.precond.ilu_k = record
    try:
        for qp, x0, cfg in solves:
            try:
                gpcg.solve(qp, x0, cfg)
            except gpcg.GPCGError:
                pass
    finally:
        gpcg.precond.ilu_k = real
    return blocks


def bearing_solves(gpcg, nx):
    qp = gpcg.generate(gpcg.BearingSpec(nx, nx, 0.1))
    return [(qp, qp.l.copy(), gpcg.SolverConfig(precond=f"bjacobi-ilu{FILL_LEVEL}",
                                                tol=1e-4))]


def random_solves():
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import WORKLOADS
    workload = WORKLOADS["random-ilu0"]
    for i in range(RANDOM_INPUTS):
        inst = workload.build(RANDOM_SEED, i)
        yield inst.qp, inst.x0.copy(), workload.solver_config()


def best_of(repeat, fn):
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return best, out


def elimination_step_count(l_indptr, l_indices):
    """The number of steps of the level form, given the lower pattern whose
    row i ends with its diagonal: row i takes its strict-L entries in
    column order, the one with pivot row p a step after both the entry
    before it and row p's last entry."""
    ind = l_indices.tolist()
    ptr = l_indptr.tolist()
    finish = []
    for start, end in zip(ptr[:-1], ptr[1:]):
        step = -1
        for p in ind[start:end - 1]:
            step = max(step, finish[p]) + 1
        finish.append(step)
    return max(finish, default=-1) + 1


def time_block(gpcg, M, k, repeat, rng):
    kern, ilu = gpcg._kernels, gpcg.ilu
    n = M.nrows
    t = dict.fromkeys(LAYERS, 0.0)
    t["symbolic"], (ip, ix) = best_of(
        repeat, lambda: kern.ilu_symbolic(n, M.indptr, M.indices, k))
    by_levels = n >= ilu.LEVEL_MIN_ROWS

    def forward():
        lower = kern.lower_pattern(ip, ix)
        return lower, kern.elimination_steps(ip, lower) if by_levels else None

    t["forward"], (lower, steps) = best_of(repeat, forward)
    step_count = elimination_step_count(lower[0], lower[1]) if by_levels else 0
    t["numeric"], (data, _fail) = best_of(
        repeat, lambda: kern.ilu_numeric(n, M.indptr, M.indices, M.data, ip, ix, lower,
                                         steps))
    t["plan"], _factor = best_of(
        repeat, lambda: ilu.ILUFactorization(n, ip, ix, data))
    t["ilu_k"], factor = best_of(repeat, lambda: ilu.ilu_k(M, k))
    r = rng.standard_normal(n)
    t["apply"], _z = best_of(repeat, lambda: factor.solve(r))
    shape = {"n": n, "factor_nnz": int(factor.nnz), "steps": step_count,
             "by_levels": by_levels, "ilu_k_s": round(t["ilu_k"], 7)}
    return t, shape


def time_blocks(gpcg, blocks, solves, repeat, seed, keep_shapes):
    rng = np.random.default_rng(seed)
    totals = dict.fromkeys(LAYERS, 0.0)
    shapes = []
    for M, k in blocks:
        t, shape = time_block(gpcg, M, k, repeat, rng)
        for layer in LAYERS:
            totals[layer] += t[layer]
        shapes.append(shape)
    run = {"blocks": len(blocks), "solves": solves,
           "seconds_per_solve": {k: round(v / solves, 7) for k, v in totals.items()},
           "n_range": [min(s["n"] for s in shapes), max(s["n"] for s in shapes)],
           "by_levels_blocks": sum(s["by_levels"] for s in shapes)}
    if keep_shapes:
        run["block_shapes"] = shapes
    return run


def environment(gpcg):
    import scipy
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_env": {v: os.environ.get(v) for v in
                     ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--sizes", type=int, nargs="+", default=[100, 200],
                    help="bearing grid sizes nx = ny")
    ap.add_argument("--repeat", type=int, default=5, help="runs per layer and block")
    ap.add_argument("--label", default="change")
    ap.add_argument("--out", default=str(ROOT / "BENCH_ilu_setup.json"))
    args = ap.parse_args()
    sys.path.insert(0, str(ROOT / "src"))
    import gpcg

    runs = {}
    for nx in args.sizes:
        blocks = captured_blocks(gpcg, bearing_solves(gpcg, nx))
        runs[f"bearing-{nx}-eps0.1-ilu{FILL_LEVEL}"] = time_blocks(
            gpcg, blocks, 1, args.repeat, nx, keep_shapes=True)
    blocks = captured_blocks(gpcg, random_solves())
    runs[f"random-ilu0-seed{RANDOM_SEED}-inputs0-{RANDOM_INPUTS - 1}"] = time_blocks(
        gpcg, blocks, RANDOM_INPUTS, args.repeat, RANDOM_SEED, keep_shapes=False)
    for name, run in runs.items():
        print(name, f"{run['blocks']} blocks, {run['solves']} solves, per solve:",
              " ".join(f"{k}={v * 1e3:.3f}ms" for k, v in run["seconds_per_solve"].items()))

    out = Path(args.out)
    report = json.loads(out.read_text()) if out.exists() else {}
    report["description"] = ("Best-of-repeat seconds per solve, summed over the "
                             "ILU blocks the solves factor and divided by the number "
                             "of solves; apply is one solve per block. "
                             "benchmarks/bench_ilu_setup.py")
    report.setdefault("runs", {})[args.label] = {
        "environment": environment(gpcg), "repeat": args.repeat, "results": runs}
    out.write_text(json.dumps(report, indent=1) + "\n")


if __name__ == "__main__":
    main()
