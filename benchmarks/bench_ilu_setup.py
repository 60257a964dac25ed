"""Layer benchmark of block-Jacobi ILU(k) setup and apply.

Solves the journal bearing (nx = ny, eps 0.1, ``bjacobi-ilu2``, x0 = l,
tol 1e-4) once per size, keeps every block that ``ilu_k`` factors during
that solve, and then times ILU's layers on those blocks, each on its own:

  symbolic   ``_kernels.ilu_symbolic``
  symmetry   ``_kernels.symmetric_pattern`` on the input block: one
             compiled transpose (``csr_tocsc``) and two array comparisons
  forward    ``_kernels.lower_schedule`` with ``ilu_k``'s level budget: the
             strict-L schedule and the numeric phase's elimination steps
  numeric    ``_kernels.ilu_numeric`` in the form ``ilu_k`` would use
  plan       ``_kernels.SolvePlan`` construction
  apply      one ``ILUFactorization.solve`` of a fixed right-hand side
  ilu_k      the whole factorization, as the solver calls it

The symmetry test is timed on blocks of n >= ``ilu.LEVEL_MIN_ROWS``, the
schedule on those of them with a symmetric pattern, and the plan on the
blocks ``ilu_k`` factors by levels; the other layers on every block.  Each
layer takes the best of ``--repeat`` runs per block; the report sums the
bests over the blocks of a solve.  Each block's record holds its number of
strict-L levels (0 below ``LEVEL_MIN_ROWS``) and whether ``ilu_k`` gave it
a level-scheduled solve.  BLAS is pinned to one thread before numpy loads.

Results are merged into ``--out`` (default ``BENCH_ilu_setup.json`` at the
repo root) under ``--label``.  The script measures the tree it sits in; to
compare with another commit, run that commit's own copy from a checkout of
it (a ``git worktree``, say) into the same file:

  python3 benchmarks/bench_ilu_setup.py --label change
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

ROOT = Path(__file__).resolve().parent.parent
LAYERS = ("symbolic", "symmetry", "forward", "numeric", "plan", "apply", "ilu_k")


FILL_LEVEL = 2


def captured_blocks(gpcg, nx):
    """The (matrix, fill level) of every ilu_k call in one ILU(2) bearing
    solve."""
    blocks = []
    real = gpcg.precond.ilu_k

    def record(M, k):
        blocks.append((M, k))
        return real(M, k)

    qp = gpcg.generate(gpcg.BearingSpec(nx, nx, 0.1))
    cfg = gpcg.SolverConfig(precond=f"bjacobi-ilu{FILL_LEVEL}", tol=1e-4)
    gpcg.precond.ilu_k = record
    try:
        gpcg.solve(qp, qp.l.copy(), cfg)
    finally:
        gpcg.precond.ilu_k = real
    return blocks


def best_of(repeat, fn):
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return best, out


def time_block(gpcg, M, k, repeat, rng):
    kern, ilu = gpcg._kernels, gpcg.ilu
    n = M.nrows
    t = dict.fromkeys(LAYERS, 0.0)
    t["symbolic"], (ip, ix, dg) = best_of(
        repeat, lambda: kern.ilu_symbolic(n, M.indptr, M.indices, k))
    schedule = finish = None
    levels = 0
    if n >= ilu.LEVEL_MIN_ROWS:
        (_order, bounds), _finish = kern.lower_schedule(ip, ix, dg)
        levels = bounds.size - 1
        t["symmetry"], symmetric = best_of(
            repeat, lambda: kern.symmetric_pattern(n, M.indptr, M.indices))
        if symmetric:
            t["forward"], schedules = best_of(
                repeat, lambda: kern.lower_schedule(ip, ix, dg, n // ilu.LEVEL_MIN_WIDTH))
            if schedules is not None:
                schedule, finish = schedules
    t["numeric"], (data, _fail) = best_of(
        repeat, lambda: kern.ilu_numeric(n, M.indptr, M.indices, M.data, ip, ix, dg,
                                         finish))
    if schedule is not None:
        t["plan"], _plan = best_of(
            repeat, lambda: kern.SolvePlan(ip, ix, data, dg, schedule))
    t["ilu_k"], factor = best_of(repeat, lambda: ilu.ilu_k(M, k))
    r = rng.standard_normal(n)
    t["apply"], _z = best_of(repeat, lambda: factor.solve(r))
    shape = {"n": n, "factor_nnz": int(factor.nnz), "levels": levels,
             "by_levels": factor.plan is not None}
    return t, shape


def environment(gpcg):
    import numpy as np
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
    import numpy as np
    import gpcg

    runs = {}
    for nx in args.sizes:
        blocks = captured_blocks(gpcg, nx)
        rng = np.random.default_rng(nx)
        totals = dict.fromkeys(LAYERS, 0.0)
        shapes = []
        for M, k in blocks:
            t, shape = time_block(gpcg, M, k, args.repeat, rng)
            for layer in LAYERS:
                totals[layer] += t[layer]
            shapes.append(shape)
        name = f"bearing-{nx}-eps0.1-ilu{FILL_LEVEL}"
        runs[name] = {"blocks": len(blocks),
                      "seconds_per_solve": {k: round(v, 6) for k, v in totals.items()},
                      "block_shapes": shapes}
        print(name, f"{len(blocks)} blocks",
              " ".join(f"{k}={v * 1e3:.1f}ms" for k, v in totals.items()))

    out = Path(args.out)
    report = json.loads(out.read_text()) if out.exists() else {}
    report.setdefault("description", "Best-of-repeat seconds per bearing solve, "
                      "summed over the ILU blocks the solve factors; "
                      "apply is one solve per block. benchmarks/bench_ilu_setup.py")
    report.setdefault("runs", {})[args.label] = {
        "environment": environment(gpcg), "repeat": args.repeat, "results": runs}
    out.write_text(json.dumps(report, indent=1) + "\n")


if __name__ == "__main__":
    main()
