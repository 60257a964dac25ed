"""Benchmark of the gpcg solver: time to solve bound-constrained QPs to a
projected-gradient tolerance of 1e-4, checked against an independent
certificate.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py            # every workload, seed 0, 35 s each

Each workload runs in its own fresh, single-threaded interpreter (BLAS
pinned to one thread); the load is a closed loop with one caller.  Solve
times are reported as measured (``solve_s``) and scaled to a reference CPU
speed by a calibration loop timed between solves (``solve_cal_s``, see
worker.py); the scaled ones are the benchmark's end-to-end metrics, because
a shared host drifts in speed by a quarter over minutes.  ``attempted`` and
``failed`` count the workload's distinct inputs.  Set-up is measured in
``SETUP_SAMPLES`` fresh interpreters and reported as the median.  ``--trace 0`` prints the end-to-end metrics; ``--trace 1`` also
re-solves the first instances with every gpcg layer wrapped by the tracer and
prints the per-layer metrics.  A table with sample counts goes to stdout
first, the last line is one JSON object, and the full record (environment,
fingerprint, failure reasons) is written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

WORKLOAD_NAMES = ("bearing-ilu2", "bearing-jacobi", "random-ilu0")
E2E_METRICS = ("solve_cal_s", "solved_per_cal_s", "certified_ratio", "setup_s", "peak_rss_mb")
SETUP_SAMPLES = 5   # the measured run's own set-up plus four set-up-only runs
TIME_LIMIT_S = 170  # every child of one workload run ends within this
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(Exception):
    pass


def child(args: list[str], deadline: float) -> dict:
    """Run worker.py with ``args`` in a fresh interpreter; return its JSON."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env={**os.environ, **PINNED_ENV},
                              stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker did not finish within {TIME_LIMIT_S} s") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def fmt(value) -> str:
    return "n/a" if value is None else f"{value:.6g}"


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    deadline = time.monotonic() + TIME_LIMIT_S
    common = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds)]
    setups = [child([*common, "--setup-only"], deadline)["setup_s"]
              for _ in range(SETUP_SAMPLES - 1)]
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"spans-{name}-seed{seed}.csv.gz"
    res = child([*common, "--trace", str(trace), "--spans", str(spans)], deadline)
    setups.append(res["setup_s"])
    res["metrics"]["setup_s"] = (statistics.median(setups), "s", len(setups))
    res["setup_samples_s"] = setups
    res["workload"] = {"name": name, "seed": seed, "seconds": seconds, "trace": trace}
    (OUT / f"result-{name}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(res, indent=1) + "\n")

    env = res["environment"]
    print(f"workload {name}  seed {seed}  seconds {seconds}  trace {trace}")
    print(f"environment: python {env['python']}, numpy {env['numpy']}, scipy "
          f"{env['scipy']}, BLAS threads {env['blas_threads']}, nproc {env['nproc']}, "
          f"numba imports: {env['numba_imports']}, JIT enabled: {env['jit_enabled']}")
    for key, (value, unit, n) in res["metrics"].items():
        note = "  (fewer than 10 samples above p90)" if value is None else ""
        print(f"  {key:<34} {fmt(value):>12} {unit:<12} n={n}{note}")
    print(f"  inputs attempted {res['attempted']}, failed {res['failed']}, "
          f"solves timed {res['solves']}")
    print(f"  failure reasons: {res['failure_reasons'] or 'none'}")
    print(f"  fingerprint: {res['fingerprint']}")
    if trace:
        for key, (value, unit, n) in res["per_layer"].items():
            print(f"  {key:<40} {fmt(value):>12} {unit:<12} n={n}")
        print(f"  matvecs by phase: {res['matvecs_by_phase']}  spans: {res['spans']} "
              f"-> {spans.relative_to(ROOT)}")
        print(f"  absent hooks: {res['absent_hooks'] or 'none'}")
    for problem in res["problems"]:
        print(f"  PROBLEM: {problem}")

    chosen = res["per_layer"] if trace else {k: res["metrics"][k] for k in E2E_METRICS}
    return {"correct": not res["problems"], "attempted": res["attempted"],
            "failed": res["failed"],
            "metrics": {k: {"value": v, "unit": u} for k, (v, u, _n) in chosen.items()}}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=(*WORKLOAD_NAMES, "all"), default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "gpcg" / "__init__.py").is_file():
        print(f"error: no gpcg sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    try:
        for name in names:
            summary = run_workload(name, args.seed, args.seconds, args.trace)
            print(json.dumps(summary), flush=True)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
