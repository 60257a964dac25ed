"""What a solve loads: numpy and scipy.sparse only.  ``scipy.io`` (Matrix
Market files) and ``scipy.linalg`` (the dense test oracle) are imported by
the functions that use them, so a process that only solves never pays for
them.  Checked in a fresh interpreter, since the test process itself
imports both."""

import json
import os
import subprocess
import sys
from pathlib import Path

import gpcg

SCRIPT = r"""
import json, sys
import numpy as np
import gpcg

loaded = {}
for precond in ("jacobi", "bjacobi-ilu2"):
    qp = gpcg.generate(gpcg.BearingSpec(30, 30, 0.1))
    out = gpcg.solve(qp, qp.l.copy(), gpcg.SolverConfig(precond=precond))
    assert out.status is gpcg.SolveStatus.CONVERGED, out.status
    loaded[precond] = [m for m in ("scipy.io", "scipy.linalg") if m in sys.modules]

# the local imports still work when first needed
path = sys.argv[1]
gpcg.write_matrix(path, qp.A)
back = gpcg.read_matrix(path)
same = bool((back.indptr == qp.A.indptr).all() and (back.indices == qp.A.indices).all()
            and (back.data == qp.A.data).all() and back.symmetric)
x = gpcg.dense_solve(np.array([[4.0, 1.0], [1.0, 3.0]]), np.array([1.0, 2.0]))
print(json.dumps({"loaded": loaded, "round_trip": same, "dense": x.tolist(),
                  "after": [m for m in ("scipy.io", "scipy.linalg") if m in sys.modules]}))
"""


def test_solving_loads_neither_scipy_io_nor_scipy_linalg(tmp_path):
    src = str(Path(gpcg.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", SCRIPT, str(tmp_path / "A.mtx")],
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["loaded"] == {"jacobi": [], "bjacobi-ilu2": []}
    assert report["round_trip"]
    assert abs(report["dense"][0] - 1.0 / 11.0) < 1e-15
    assert abs(report["dense"][1] - 7.0 / 11.0) < 1e-15
    assert report["after"] == ["scipy.io", "scipy.linalg"]
