"""Recompute the reference objectives stored in workloads.py with an
independent solver (scipy L-BFGS-B on the same bearing matrices).

    python3 perfbench/reference.py      # about 15 s on one core
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402
import scipy.sparse as sp  # noqa: E402
from scipy.optimize import minimize  # noqa: E402

import gpcg  # noqa: E402


def reference(nx: int, eps: float) -> tuple[float, float]:
    qp = gpcg.generate(gpcg.BearingSpec(nx, nx, eps))
    A = sp.csr_matrix((qp.A.data, qp.A.indices, qp.A.indptr), shape=(qp.n, qp.n))

    def fun(x):
        Ax = A @ x
        return 0.5 * x @ Ax + qp.b @ x, Ax + qp.b

    res = minimize(fun, np.zeros(qp.n), jac=True, method="L-BFGS-B",
                   bounds=[(0.0, None)] * qp.n,
                   options={"maxiter": 100000, "maxfun": 200000, "ftol": 1e-16,
                            "gtol": 1e-12, "maxcor": 30})
    g = A @ res.x + qp.b
    pg = np.where(res.x <= 0.0, np.minimum(g, 0.0), g)
    return float(res.fun), float(np.linalg.norm(pg))


if __name__ == "__main__":
    for nx in (100, 200):
        q, pg = reference(nx, 0.1)
        print(f"bearing {nx}x{nx} eps 0.1: objective {q!r}  projected-gradient norm {pg:.1e}")
