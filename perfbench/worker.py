"""Run one workload in this fresh interpreter and print its raw results as
one JSON line.  ``run.py`` starts this; it is not meant to be run by hand.

Set-up is timed from the first line of this file: imports, building the
first input and one warm-up solve on a small instance of the same kind.
The untraced pass then solves the workload's inputs 0, 1, ..., in a closed
loop (one caller, the next solve starts when the previous one returns),
going round them again until ``--seconds`` have passed; the first round is
always completed.  ``attempted`` and ``failed`` count the distinct inputs,
so they depend on the seed alone; every repeated solve of an input must
reproduce its first solve bit for bit and serves as a further time sample.

Between solves a fixed calibration routine that uses no gpcg code is timed.
The ``*_cal_*`` metrics scale the solve times by ``CAL_REF_S`` over the
run's median calibration time: the time the solves would take on a host
where the routine takes ``CAL_REF_S``.  This takes out much of the drift in
CPU speed that a shared host shows over seconds to minutes.

With ``--trace 1`` each of the first solves is repeated right after with
the tracer installed; the traced fingerprints must equal the untraced ones.
"""

import time

T_START = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

# Pin BLAS to one thread before numpy loads: with two threads the bearing
# workloads run slower and their results differ in the last bits.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import argparse  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
from collections import Counter  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402
import scipy.sparse as sp  # noqa: E402

import gpcg  # noqa: E402
from workloads import WORKLOADS, certify, digest  # noqa: E402

FINGERPRINT_FIELDS = ("outer_iters", "gp_iters_total", "cg_iters_total",
                      "cg_calls", "faces_visited")
# Enough traced solves for steady per-solve means while keeping the spans
# held in memory to a few tens of megabytes.
MAX_TRACED_SOLVES = 200


# Between two solves a fixed calibration routine runs for about CAL_SHARE of
# the last solve's time, at least once.  CAL_REF_S is its median time on the
# 2-vCPU host the benchmark was written on.
CAL_SHARE = 0.1
CAL_REF_S = 2.0e-3


def make_calibration():
    """Return a routine that times a fixed mix of the work a solve does,
    using no gpcg code: an interpreter loop, many numpy calls on short
    vectors and a scipy sparse matrix-vector product on a banded matrix of
    bearing size."""
    a = np.linspace(0.0, 1.0, 60)
    b = np.ones(60)
    n = 40_000
    band = sp.diags([4.0, -1.0, -1.0, -1.0, -1.0], [0, 1, -1, 200, -200],
                    shape=(n, n), format="csr")
    v = np.ones(n)

    def sample():
        t0 = time.perf_counter()
        acc = 0
        for k in range(10_000):
            acc += k * k
        for _ in range(150):
            w = a * 0.5 + b
            acc += float(w @ w)
        for _ in range(3):
            band @ v
        return time.perf_counter() - t0

    return sample


def calibrate(sample, budget, into):
    """Append calibration samples to ``into`` until ``budget`` seconds."""
    spent = 0.0
    while True:
        into.append(sample())
        spent += into[-1]
        if spent >= budget:
            return


def solve_one(wl, cfg, inst):
    """Time one solve, certify it and return its row."""
    t0 = time.perf_counter()
    out = gpcg.solve(inst.qp, inst.x0.copy(), cfg)
    elapsed = time.perf_counter() - t0
    converged = out.status is gpcg.SolveStatus.CONVERGED
    check = certify(inst, out.x_star, out.stats.objective_final, wl.reference_objective)
    return {
        "seconds": elapsed,
        "status": out.status.value,
        "reason": out.failure_reason,
        "certified": check.certified(converged),
        # A returned point outside the box, a convergence claim the
        # certificate rejects, or a misreported objective is a wrong output.
        "wrong": (not check.feasible or not check.objective_agrees
                  or (converged and not check.certified(True))),
        "fingerprint": [out.status.value,
                        *(getattr(out.stats, f) for f in FINGERPRINT_FIELDS),
                        digest(out.x_star)],
    }


def run_pass(wl, cfg, seed, first, seconds, tracer=None):
    """Solve the inputs round and round in a closed loop until the first
    round is done and ``seconds`` have passed, calibrating between solves.
    With a tracer, each of the first ``MAX_TRACED_SOLVES`` solves is
    repeated right after with the tracer installed, so both see the same
    machine state.  Returns the untraced rows, the traced rows and the
    calibration samples."""
    rows, traced, cal = [], [], []
    sample = make_calibration()
    calibrate(sample, 0.0, cal)
    begin = time.perf_counter()
    i = 0
    while i < wl.inputs or time.perf_counter() - begin < seconds:
        inst = first if i == 0 else wl.build(seed, i % wl.inputs)
        rows.append(solve_one(wl, cfg, inst))
        calibrate(sample, CAL_SHARE * rows[-1]["seconds"], cal)
        if tracer is not None and i < MAX_TRACED_SOLVES:
            tracer.solve_id = i
            with tracer:
                traced.append(solve_one(wl, cfg, inst))
        i += 1
    return rows, traced, cal


def fingerprint(rows):
    """Exact, timing-free summary of the given solves."""
    return {
        "solves": len(rows),
        "converged": sum(r["status"] == "converged" for r in rows),
        **{f: sum(r["fingerprint"][1 + k] for r in rows)
           for k, f in enumerate(FINGERPRINT_FIELDS)},
        "x_star_digest": hashlib.sha256("".join(r["fingerprint"][-1] for r in rows)
                                        .encode()).hexdigest()[:16],
    }


def p90(times):
    """90th percentile, or None unless at least ten samples lie above it."""
    if len(times) < 2:
        return None
    q = statistics.quantiles(times, n=10)[-1]
    return q if sum(t > q for t in times) >= 10 else None


def end_to_end(rows, distinct, cal):
    """Times over every solve; certification over the distinct inputs.  The
    ``*_cal_*`` times are scaled by CAL_REF_S over the run's median
    calibration time."""
    n = len(rows)
    times = [r["seconds"] for r in rows]
    scale = CAL_REF_S / statistics.median(cal)
    solved = sum(r["certified"] for r in rows)
    certified = sum(r["certified"] for r in distinct)
    p90_s = p90(times)
    return {
        "solve_cal_s": (statistics.median(times) * scale, "s", n),
        "solve_cal_s_p90": (None if p90_s is None else p90_s * scale, "s", n),
        "solved_per_cal_s": (solved / sum(times) / scale, "1/s", n),
        "solve_s": (statistics.median(times), "s", n),
        "solve_s_p90": (p90_s, "s", n),
        "solved_per_s": (solved / sum(times), "1/s", n),
        "cal_s": (statistics.median(cal), "s", len(cal)),
        "fail_ratio": ((len(distinct) - certified) / len(distinct), "ratio", len(distinct)),
        "certified_ratio": (certified / len(distinct), "ratio", len(distinct)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1),
    }


def blas_threads():
    """Thread count reported by each OpenBLAS loaded in this process."""
    found = {}
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()
                       and ".so" in line})
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[Path(path).name] = fn()
                break
    return found


def environment():
    try:
        import numba  # noqa: F401
        numba_imports = True
    except ImportError:
        numba_imports = False
    from gpcg import _kernels
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_threads(),
        "blas_env": {v: os.environ.get(v) for v in
                     ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "numba_imports": numba_imports,
        "jit_enabled": bool(_kernels.JIT_ENABLED),
    }


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", help="where the traced run writes its spans")
    args = ap.parse_args()
    if Path(gpcg.__file__).resolve().parent != ROOT / "src" / "gpcg":
        sys.exit(f"gpcg was imported from {gpcg.__file__}, not from this checkout")

    wl = WORKLOADS[args.workload]
    cfg = wl.solver_config()
    first = wl.build(args.seed, 0)
    warm = wl.warmup()
    gpcg.solve(warm.qp, warm.x0, cfg)
    setup_s = time.perf_counter() - T_START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return

    tracer = None
    if args.trace:
        from layers import HOOKS, matvecs_by_phase, per_layer_metrics
        from tracer import Tracer
        tracer = Tracer(HOOKS)
    rows, traced, cal = run_pass(wl, cfg, args.seed, first, args.seconds, tracer)
    distinct = rows[:wl.inputs]
    result = {
        "setup_s": setup_s,
        "metrics": end_to_end(rows, distinct, cal),
        "solves": len(rows),
        "attempted": len(distinct),
        "failed": sum(not r["certified"] for r in distinct),
        "wrong": sum(r["wrong"] for r in rows),
        "failure_reasons": dict(Counter(r["reason"] or r["status"]
                                        for r in distinct if not r["certified"])),
        "fingerprint": fingerprint(distinct),
        "solve_times_s": [r["seconds"] for r in rows],
        "cal_times_s": cal,
        "problems": [],
    }
    if any(r["fingerprint"] != rows[i % wl.inputs]["fingerprint"]
           for i, r in enumerate(rows)):
        result["problems"].append("repeated solves of one input differ")
    if wl.reference_objective is not None and result["failed"]:
        result["problems"].append(f"{result['failed']} bearing solves not certified")
    if result["wrong"]:
        result["problems"].append(f"{result['wrong']} solves returned a wrong output")

    if tracer is not None:
        overhead = statistics.median(t["seconds"] / r["seconds"]
                                     for r, t in zip(rows, traced))
        layers = per_layer_metrics(tracer, len(traced), overhead)
        result["per_layer"] = {k: (v, unit, len(traced)) for k, (v, unit) in layers.items()}
        result["absent_hooks"] = tracer.absent
        result["matvecs_by_phase"] = matvecs_by_phase(tracer.spans)
        result["traced_fingerprint"] = fingerprint(traced)
        result["spans"] = len(tracer.spans)
        if [r["fingerprint"] for r in traced] != [r["fingerprint"] for r in rows[:len(traced)]]:
            result["problems"].append("traced run differs from the untraced run")
        # the tracer's own counts must agree with the solver's statistics
        c = tracer.counters
        for stat, hook, counted in (
                ("gp_iters_total", "gradproj.gp_phase", c["gradproj.gp_phase.iterates"]),
                ("cg_iters_total", "reduced.pcg_progress",
                 c["reduced.pcg_progress.iterations"]),
                ("cg_calls", "reduced.pcg_progress",
                 sum(s.name == "reduced.pcg_progress" for s in tracer.spans))):
            if ({hook, "solver.solve"}.isdisjoint(tracer.absent)
                    and counted != c[f"solver.{stat}"]):
                result["problems"].append(f"traced {stat} {counted} != solver stats "
                                          f"{c[f'solver.{stat}']}")
        if args.spans:
            tracer.write_spans(args.spans)

    result["environment"] = environment()
    print(json.dumps(result))


if __name__ == "__main__":
    main()
