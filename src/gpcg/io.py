"""Problem file formats: Matrix Market matrices, one-value-per-line vectors,
and a JSON manifest bundling a full problem; and the per-iterate trace CSV.

Text vectors accept "inf"/"-inf" entries (used by bound vectors).  Files
ending in ``.npy`` are read and written in numpy's binary format instead.
"""

from __future__ import annotations

import json
import os
from dataclasses import astuple, fields

import numpy as np
import scipy.sparse

from . import _kernels
from .linalg import SparseMatrixCSR, as_vector
from .model import BoundQP
from .solver import TraceRecord


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------

def write_matrix(path: str, M: SparseMatrixCSR) -> None:
    """Write in Matrix Market coordinate format (symmetric storage when the
    matrix is flagged symmetric)."""
    import scipy.io  # here: loading it costs every gpcg process, and only files need it
    if M.symmetric:
        scipy.io.mmwrite(path, scipy.sparse.tril(M.scipy, format="coo"),
                         symmetry="symmetric")
    else:
        scipy.io.mmwrite(path, M.scipy.tocoo(), symmetry="general")


def read_matrix(path: str) -> SparseMatrixCSR:
    """Read a Matrix Market file, summing duplicate entries; symmetric files
    come back in full storage with the symmetric flag set, and so do
    general ones whose storage is symmetric.  Complex files are refused."""
    import scipy.io  # here: loading it costs every gpcg process, and only files need it
    info = scipy.io.mminfo(path)
    if info[4] == "complex":
        raise ValueError(f"{path}: complex entries are not supported")
    S = scipy.sparse.csr_array(scipy.io.mmread(path))
    S.sum_duplicates()  # and sorts the indices
    n, m = S.shape
    arrays = S.indptr, S.indices, S.data
    symmetric = (info[5] == "symmetric"
                 or (n == m and _kernels.symmetry_holds(n, *arrays)))
    return SparseMatrixCSR(n, m, *arrays, symmetric=symmetric)


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
        v = np.load(path)
        if np.iscomplexobj(v):
            raise ValueError(f"{path}: complex entries are not supported")
        return as_vector(v)
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
    if not isinstance(manifest, dict):
        raise ValueError("manifest is not a JSON object")
    for key in ("matrix", "linear", "lower", "upper"):
        if key not in manifest:
            raise ValueError(f"manifest is missing the '{key}' entry")
        if not isinstance(manifest[key], str):
            raise ValueError(f"manifest entry '{key}' is not a file name")
    constant = manifest.get("constant", 0.0)
    if isinstance(constant, bool) or not isinstance(constant, (int, float)):
        raise ValueError("manifest entry 'constant' is not a number")
    base = os.path.dirname(os.path.abspath(manifest_path))
    A = read_matrix(os.path.join(base, manifest["matrix"]))
    b = read_vector(os.path.join(base, manifest["linear"]))
    l = read_vector(os.path.join(base, manifest["lower"]))
    u = read_vector(os.path.join(base, manifest["upper"]))
    return BoundQP(A, b, float(constant), l, u)


# ---------------------------------------------------------------------------
# trace
# ---------------------------------------------------------------------------

TRACE_HEADER = ",".join(f.name for f in fields(TraceRecord))


def csv_row(values) -> str:
    """One CSV line: floats by repr, which is exact, the rest by str."""
    return ",".join(repr(v) if isinstance(v, float) else str(v)
                    for v in values)


def write_trace(path: str, trace) -> None:
    """Write per-iterate trace records as CSV, one column per field."""
    with open(path, "w") as fh:
        fh.write(TRACE_HEADER + "\n")
        for rec in trace:
            fh.write(csv_row(astuple(rec)) + "\n")
