"""Scale benchmark: the journal bearing at the paper's sizes, one solve per
size and preconditioner, each in a fresh interpreter.

The paper's claim is size: GPCG solved bearing problems with over 2.5
million variables.  Each run generates bearing nx = ny, eps 0.1 and solves
it from x0 = l to a projected-gradient norm of 1e-4, as the benchmark's
bearing workloads do, with BLAS pinned to one thread.  It records:

  base_rss_mb     peak RSS after importing numpy and scipy.sparse
  import_rss_mb   peak RSS after also importing gpcg: the fixed cost of a
                  process
  peak_rss_mb     peak RSS after the solve (``ru_maxrss``)
  generate_s      wall time of ``gpcg.generate``
  generate_peak_ratio
                  ``generate``'s tracemalloc peak over the bytes it returns
  solve_s         wall time of ``gpcg.solve``
  extract_s       the part of it spent in ``extract_submatrix``, summed
                  over the calls with ``perf_counter``
  status, outer, gp_iters, cg_iters, cg_calls, faces, precond_builds,
  precond_reuses, precond_extensions
                  the solve's status and ``SolverStats`` counts;
                  ``precond_builds`` is the preconditioners built, fewer
                  than the faces where IC(k) factors were kept,
                  ``precond_reuses`` the faces that kept them and gave
                  point Jacobi to the variables joined since, and
                  ``precond_extensions`` the faces that kept them and
                  factored the joined variables as one more block; each
                  reads null on a commit whose ``SolverStats`` lacks it
  pg_norm         the projected-gradient norm at x_star, recomputed with
                  ``scipy.sparse`` arithmetic from the problem's arrays
  x_digest        the first 16 hex digits of sha256(x_star)

With ``--memory`` each run is repeated in another interpreter under
tracemalloc (which slows it, so it is timed apart), adding
``extract_calls`` and ``extract_peak_ratio``: the largest ratio, over the
solve's ``extract_submatrix`` calls, of a call's tracemalloc peak to the
bytes of the matrix it returns; and ``ilu_calls`` and ``ilu_peak_ratio``:
the same for the solve's ``ilu_k`` calls that factor by levels (blocks of
``ilu.LEVEL_MIN_ROWS`` rows or more) and the bytes of the factor each
returns, U, both solve operands and the pivots (0.0 when none does);
``ilu_factor_mb``, the bytes of the largest factor, by levels or not; and
``solve_peak_mb``, the tracemalloc peak of ``gpcg.solve`` above the state
it starts from, which parts the solver's own memory from the imports and
the problem that ``peak_rss_mb`` also counts.

Results are merged run by run into ``--out`` (default ``BENCH_scale.json``
at the repo root) under ``--label``.  The script measures the tree it sits
in; to compare with another commit, run a copy of it from a checkout of
that commit into the same file:

  python3 benchmarks/bench_scale.py --label change
  python3 benchmarks/bench_scale.py --label change --sizes 1600 --preconds jacobi
  cp benchmarks/bench_scale.py ../parent/benchmarks/
  python3 ../parent/benchmarks/bench_scale.py --label parent --out BENCH_scale.json

Fresh-process runs of two trees minutes apart differ by the host's drift,
often more than the effect in question.  ``--against PATH --pairs N``
instead imports ``PATH/src/gpcg`` as a second package (``gpcg_against``;
gpcg uses only relative imports) and, in this one process, alternates
cold solves of the two trees, N pairs per size and preconditioner, the
first of a pair alternating between the trees.  A warm-up solve of each
tree on a small bearing comes first.  Each row holds, per tree (``this``
and ``against``): the solve times, their median, the pairs it won, the
status, counts (the preconditioner's among them) and pg_norm of its first
solve, its x_digest and whether every repeat reproduced it; ``commits``
names both trees (``git describe --always --dirty``, or null outside a
checkout), each with the first 16 hex digits of a sha256 over its
``src/gpcg/*.py`` (``this_src``, ``against_src``), which tells two dirty
checkouts of one commit apart:

  git clone -q . ../parent && git -C ../parent checkout -q HEAD~1
  python3 benchmarks/bench_scale.py --sizes 400 --preconds jacobi bjacobi-ilu2 \
      --against ../parent --pairs 8 --label ab-parent

``--against .`` (an A/A run) must give equal digests.  RSS is not
recorded in this mode, since both trees share the process.

The default grid (400 and 800, three preconditioners) takes a few minutes
on one core; 1600 under ``jacobi`` alone takes five to six minutes.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import importlib.util
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EPS = 0.1
TOL = 1e-4
WARMUP_NX = 20


def rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def projected_gradient_norm(qp, x) -> float:
    import numpy as np
    import scipy.sparse as sp
    A = sp.csr_array((qp.A.data, qp.A.indices, qp.A.indptr), shape=(qp.n, qp.n))
    g = A @ x + qp.b
    pg = np.where(x == qp.l, np.minimum(g, 0.0), g)
    pg = np.where(x == qp.u, np.maximum(pg, 0.0), pg)
    return float(np.sqrt(np.sum(pg * pg)))


def rebind_extraction(gpcg, wrap):
    """Rebind ``extract_submatrix`` where the solver calls it to
    ``wrap(real, A, idx)``."""
    real = gpcg.linalg.extract_submatrix
    gpcg.reduced.extract_submatrix = gpcg.precond.extract_submatrix = (
        lambda A, idx: wrap(real, A, idx))


def time_extraction(gpcg):
    """Add up the wall time of the solve's ``extract_submatrix`` calls."""
    seconds = [0.0]

    def timed(real, A, idx):
        t0 = time.perf_counter()
        S = real(A, idx)
        seconds[0] += time.perf_counter() - t0
        return S

    rebind_extraction(gpcg, timed)
    return seconds


def reset_peak(seen):
    """``tracemalloc.reset_peak``, first raising ``seen[0]`` to the peak it
    ends, so a caller still learns the peak of the whole solve."""
    seen[0] = max(seen[0], tracemalloc.get_traced_memory()[1])
    tracemalloc.reset_peak()


def spy_on_extraction(gpcg, seen):
    """Record each ``extract_submatrix`` call's tracemalloc peak over the
    bytes it returns; ``seen`` as for ``reset_peak``."""
    ratios = []

    def traced(real, A, idx):
        reset_peak(seen)
        start = tracemalloc.get_traced_memory()[0]
        S = real(A, idx)
        result = S.indptr.nbytes + S.indices.nbytes + S.data.nbytes
        ratios.append((tracemalloc.get_traced_memory()[1] - start) / result)
        return S

    rebind_extraction(gpcg, traced)
    return ratios


def spy_on_factoring(gpcg, seen):
    """Record each ``ilu_k`` call's tracemalloc peak over the bytes of the
    factor it returns, None for a block the row loop factors, and those
    bytes; ``seen`` as for ``reset_peak``."""
    ratios, kept_bytes = [], []
    real = gpcg.precond.ilu_k

    def traced(M, k):
        reset_peak(seen)
        start = tracemalloc.get_traced_memory()[0]
        factor = real(M, k)
        peak = tracemalloc.get_traced_memory()[1] - start
        kept = sum(a.nbytes for a in (factor.u_indptr, factor.u_indices, factor.u_data,
                                      *factor.lower, *factor.upper, factor.pivots))
        ratios.append(peak / kept if M.nrows >= gpcg.ilu.LEVEL_MIN_ROWS else None)
        kept_bytes.append(kept)
        return factor

    gpcg.precond.ilu_k = traced
    return ratios, kept_bytes


def import_this_tree():
    sys.path.insert(0, str(ROOT / "src"))
    import gpcg
    if not Path(gpcg.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.exit(f"gpcg was imported from {gpcg.__file__}, not from this checkout")
    return gpcg


def digest(x) -> str:
    import numpy as np
    return hashlib.sha256(np.ascontiguousarray(x).tobytes()).hexdigest()[:16]


def precond_counts(st) -> dict:
    """The solve's preconditioner builds, reuses and extensions, each None
    on a commit whose ``SolverStats`` lacks it."""
    return {key: getattr(st, key, None)
            for key in ("precond_builds", "precond_reuses", "precond_extensions")}


def one_run(nx: int, precond: str, memory: bool) -> dict:
    """Generate and solve one bearing in this interpreter."""
    import numpy  # noqa: F401
    import scipy.sparse  # noqa: F401
    base = rss_mb()
    gpcg = import_this_tree()
    imported = rss_mb()

    tracemalloc.start()
    t0 = time.perf_counter()
    qp = gpcg.generate(gpcg.BearingSpec(nx, nx, EPS))
    generate_s = time.perf_counter() - t0
    returned = sum(a.nbytes for a in (qp.A.indptr, qp.A.indices, qp.A.data,
                                      qp.b, qp.l, qp.u))
    generate_peak_ratio = tracemalloc.get_traced_memory()[1] / returned
    x0 = qp.l.copy()
    if memory:
        seen = [0]  # the solve's peak before the spies' last reset
        ratios = spy_on_extraction(gpcg, seen)
        factorings, kept_bytes = spy_on_factoring(gpcg, seen)
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
    else:
        tracemalloc.stop()
        extract_s = time_extraction(gpcg)

    t0 = time.perf_counter()
    out = gpcg.solve(qp, x0, gpcg.SolverConfig(precond=precond, tol=TOL))
    solve_s = time.perf_counter() - t0
    peak = rss_mb()
    if memory:
        solve_peak = max(seen[0], tracemalloc.get_traced_memory()[1]) - start
        tracemalloc.stop()
        by_levels = [r for r in factorings if r is not None]
        return {"extract_calls": len(ratios),
                "extract_peak_ratio": round(max(ratios, default=0.0), 4),
                "ilu_calls": len(factorings),
                "ilu_peak_ratio": round(max(by_levels, default=0.0), 4),
                "ilu_factor_mb": round(max(kept_bytes, default=0) / 2**20, 3),
                "solve_peak_mb": round(solve_peak / 2**20, 3)}
    st = out.stats
    return {
        "n": qp.n, "precond": precond,
        "base_rss_mb": round(base, 1), "import_rss_mb": round(imported, 1),
        "peak_rss_mb": round(peak, 1),
        "generate_s": round(generate_s, 4),
        "generate_peak_ratio": round(generate_peak_ratio, 4),
        "solve_s": round(solve_s, 3), "extract_s": round(extract_s[0], 4),
        "status": out.status.value,
        "outer": st.outer_iters, "gp_iters": st.gp_iters_total,
        "cg_iters": st.cg_iters_total, "cg_calls": st.cg_calls,
        "faces": st.faces_visited, **precond_counts(st),
        "pg_norm": projected_gradient_norm(qp, out.x_star),
        "x_digest": digest(out.x_star),
    }


def load_tree(path: Path, name: str):
    """Import ``path/src/gpcg`` as the package ``name``."""
    init = path / "src" / "gpcg" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


def describe(path: Path) -> str | None:
    try:
        proc = subprocess.run(["git", "-C", str(path), "describe", "--always", "--dirty"],
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    except OSError:  # no git
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def src_digest(path: Path) -> str:
    """The first 16 hex digits of a sha256 over the names and contents of
    ``path/src/gpcg/*.py``, in name order."""
    h = hashlib.sha256()
    for file in sorted((path / "src" / "gpcg").glob("*.py")):
        h.update(file.name.encode() + b"\0" + file.read_bytes() + b"\0")
    return h.hexdigest()[:16]


def timed_solve(gpcg, nx: int, precond: str):
    """One cold solve: a fresh bearing, solved from x0 = l."""
    qp = gpcg.generate(gpcg.BearingSpec(nx, nx, EPS))
    t0 = time.perf_counter()
    out = gpcg.solve(qp, qp.l.copy(), gpcg.SolverConfig(precond=precond, tol=TOL))
    return time.perf_counter() - t0, qp, out


def ab_row(trees: dict, nx: int, precond: str, pairs: int) -> dict:
    """Alternate ``pairs`` pairs of cold solves of the trees in ``trees``
    (name -> package) on one bearing."""
    times = {name: [] for name in trees}
    first, digests = {}, {name: set() for name in trees}
    for i in range(pairs):
        for name in (list(trees) if i % 2 == 0 else list(trees)[::-1]):
            seconds, qp, out = timed_solve(trees[name], nx, precond)
            times[name].append(seconds)
            digests[name].add(digest(out.x_star))
            first.setdefault(name, (qp, out))
    this, against = times.values()
    wins = (sum(a < b for a, b in zip(this, against)),
            sum(b < a for a, b in zip(this, against)))
    row = {"n": nx * nx, "precond": precond, "pairs": pairs}
    for name, won in zip(trees, wins):
        qp, out = first[name]
        st = out.stats
        row[name] = {
            "solve_s": [round(t, 4) for t in times[name]],
            "median_s": round(statistics.median(times[name]), 4),
            "wins": won, "status": out.status.value,
            "outer": st.outer_iters, "gp_iters": st.gp_iters_total,
            "cg_iters": st.cg_iters_total, **precond_counts(st),
            "pg_norm": projected_gradient_norm(qp, out.x_star),
            "x_digest": digest(out.x_star),
            "repeats_identical": len(digests[name]) == 1,
        }
    return row


def ab_runs(args) -> tuple[dict, dict]:
    """The rows of an A/B run of this tree against ``args.against``, and
    the commits of both trees."""
    gpcg = import_this_tree()
    against = Path(args.against).resolve()
    trees = {"this": gpcg, "against": load_tree(against, "gpcg_against")}
    for precond in args.preconds:
        for package in trees.values():
            timed_solve(package, WARMUP_NX, precond)
    results = {}
    for nx in args.sizes:
        for precond in args.preconds:
            row = ab_row(trees, nx, precond, args.pairs)
            results[f"bearing-{nx}-eps{EPS}-{precond}"] = row
            this, other = row["this"], row["against"]
            print(f"bearing {nx}x{nx} {precond}: median {this['median_s']:.3f} s "
                  f"against {other['median_s']:.3f} s, won {this['wins']}/{args.pairs}, "
                  f"digests {this['x_digest']} / {other['x_digest']}, "
                  f"{this['status']} / {other['status']}", flush=True)
    return results, {"this": describe(ROOT), "this_src": src_digest(ROOT),
                     "against": describe(against), "against_src": src_digest(against)}


def child(nx: int, precond: str, memory: bool) -> dict:
    cmd = [sys.executable, __file__, "--one", str(nx), precond]
    if memory:
        cmd.append("--memory")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(proc.stdout)


def fresh_runs(args) -> dict:
    """One solve per size and preconditioner, each in a fresh interpreter."""
    results = {}
    for nx in args.sizes:
        for precond in args.preconds:
            run = child(nx, precond, memory=False)
            if args.memory:
                run.update(child(nx, precond, memory=True))
            results[f"bearing-{nx}-eps{EPS}-{precond}"] = run
            print(f"bearing {nx}x{nx} {precond}: {run['solve_s']:.2f} s, "
                  f"{run['outer']} outer / {run['cg_iters']} CG / "
                  f"{run['precond_builds']} builds / "
                  f"{run['precond_reuses']} reuses / "
                  f"{run['precond_extensions']} extensions, "
                  f"peak RSS {run['peak_rss_mb']:.1f} MB "
                  f"(imports {run['import_rss_mb']:.1f} MB), "
                  f"pg {run['pg_norm']:.2e}, {run['status']}", flush=True)
    return results


def environment() -> dict:
    import numpy
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
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_env": {v: os.environ.get(v) for v in
                     ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--sizes", type=int, nargs="+", default=[400, 800],
                    help="bearing grid sizes nx = ny")
    ap.add_argument("--preconds", nargs="+",
                    default=["jacobi", "bjacobi-ilu0", "bjacobi-ilu2"])
    ap.add_argument("--memory", action="store_true",
                    help="also trace extraction's and IC(k) set-up's memory, in a second run")
    ap.add_argument("--label", default="change")
    ap.add_argument("--out", default=str(ROOT / "BENCH_scale.json"))
    ap.add_argument("--against", metavar="PATH",
                    help="another checkout to alternate solves with, in this process")
    ap.add_argument("--pairs", type=int, default=6,
                    help="pairs of solves per row with --against")
    ap.add_argument("--one", nargs=2, metavar=("NX", "PRECOND"), help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.one:
        print(json.dumps(one_run(int(args.one[0]), args.one[1], args.memory)))
        return
    if args.against and args.memory:
        ap.error("--memory needs a process per tree; it does not combine with --against")
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")

    results, commits = ab_runs(args) if args.against else (fresh_runs(args), None)

    out = Path(args.out)
    report = json.loads(out.read_text()) if out.exists() else {}
    report["description"] = (
        "Bearing eps 0.1, nx = ny, x0 = l, tol 1e-4: one solve per run, each in a "
        "fresh interpreter with BLAS on one thread; RSS from ru_maxrss. Runs with "
        "'commits' alternate cold solves of two trees in one process instead. "
        "benchmarks/bench_scale.py")
    entry = report.setdefault("runs", {}).setdefault(args.label, {"results": {}})
    entry["environment"] = environment()
    if commits:
        entry["commits"] = commits
    entry["results"].update(results)
    out.write_text(json.dumps(report, indent=1) + "\n")


if __name__ == "__main__":
    main()
