"""The benchmark worker still runs against this checkout: one certified
bearing solve, no problems reported."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_worker_solves_and_certifies_bearing_jacobi():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "worker.py"),
         "--workload", "bearing-jacobi", "--seed", "0", "--seconds", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["attempted"] == 1
    assert result["failed"] == 0
    assert result["problems"] == []
