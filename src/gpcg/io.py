"""Problem file formats: Matrix Market matrices, one-value-per-line vectors,
and a JSON manifest bundling a full problem.

Text vectors accept "inf"/"-inf" entries (used by bound vectors).  Files
ending in ``.npy`` are read and written in numpy's binary format instead.
"""

from __future__ import annotations

import json
import os

import numpy as np
import scipy.io
import scipy.sparse

from .linalg import SparseMatrixCSR, as_vector
from .model import BoundQP


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------

def write_matrix(path: str, M: SparseMatrixCSR) -> None:
    """Write in Matrix Market coordinate format (symmetric storage when the
    matrix is flagged symmetric)."""
    if M.symmetric:
        scipy.io.mmwrite(path, scipy.sparse.tril(M.scipy, format="coo"),
                         symmetry="symmetric")
    else:
        scipy.io.mmwrite(path, M.scipy.tocoo(), symmetry="general")


def read_matrix(path: str) -> SparseMatrixCSR:
    """Read a Matrix Market file; symmetric files come back in full storage
    with the symmetric flag set."""
    info = scipy.io.mminfo(path)
    declared_symmetric = info[5] == "symmetric"
    S = scipy.sparse.csr_matrix(scipy.io.mmread(path))
    S.sum_duplicates()
    S.sort_indices()
    M = SparseMatrixCSR(S.shape[0], S.shape[1],
                        S.indptr.astype(np.int64),
                        S.indices.astype(np.int64),
                        S.data.astype(np.float64),
                        symmetric=False, validate=True)
    if declared_symmetric:
        return SparseMatrixCSR(M.nrows, M.ncols, M.indptr, M.indices, M.data,
                               symmetric=True, validate=True)
    if M.nrows == M.ncols and M._symmetry_holds():
        M.symmetric = True
    return M


# ---------------------------------------------------------------------------
# vectors
# ---------------------------------------------------------------------------

def write_vector(path: str, v: np.ndarray) -> None:
    v = as_vector(v)
    if path.endswith(".npy"):
        np.save(path, v)
        return
    with open(path, "w") as fh:
        for val in v:
            fh.write(repr(float(val)) + "\n")


def read_vector(path: str) -> np.ndarray:
    if path.endswith(".npy"):
        return as_vector(np.load(path))
    values = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            values.append(float(line))
    return np.asarray(values, dtype=np.float64)


# ---------------------------------------------------------------------------
# problem manifest
# ---------------------------------------------------------------------------

def save_problem(directory: str, qp: BoundQP, stem: str = "problem") -> str:
    """Write matrix, vectors, and a manifest into ``directory``; returns the
    manifest path.  The scalar objective offset lives in the manifest."""
    os.makedirs(directory, exist_ok=True)
    names = {
        "matrix": f"{stem}_A.mtx",
        "linear": f"{stem}_b.txt",
        "lower": f"{stem}_l.txt",
        "upper": f"{stem}_u.txt",
    }
    write_matrix(os.path.join(directory, names["matrix"]), qp.A)
    write_vector(os.path.join(directory, names["linear"]), qp.b)
    write_vector(os.path.join(directory, names["lower"]), qp.l)
    write_vector(os.path.join(directory, names["upper"]), qp.u)
    manifest = {"constant": qp.c, **names}
    manifest_path = os.path.join(directory, f"{stem}.json")
    with open(manifest_path, "w") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")
    return manifest_path


def load_problem(manifest_path: str) -> BoundQP:
    """Load a problem bundle written by save_problem."""
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    for key in ("matrix", "linear", "lower", "upper"):
        if key not in manifest:
            raise ValueError(f"manifest is missing the '{key}' entry")
    base = os.path.dirname(os.path.abspath(manifest_path))
    A = read_matrix(os.path.join(base, manifest["matrix"]))
    b = read_vector(os.path.join(base, manifest["linear"]))
    l = read_vector(os.path.join(base, manifest["lower"]))
    u = read_vector(os.path.join(base, manifest["upper"]))
    return BoundQP(A, b, float(manifest.get("constant", 0.0)), l, u)


# ---------------------------------------------------------------------------
# trace
# ---------------------------------------------------------------------------

TRACE_HEADER = "outer,phase,q,pg_norm,nfree,cg_iters,eta2"


def write_trace(path: str, trace) -> None:
    """Write per-iterate trace records as CSV."""
    with open(path, "w") as fh:
        fh.write(TRACE_HEADER + "\n")
        for rec in trace:
            fh.write(f"{rec.outer},{rec.phase},{rec.q!r},{rec.pg_norm!r},"
                     f"{rec.nfree},{rec.cg_iters},{rec.eta2!r}\n")
