import json
import warnings
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from gpcg import (SparseMatrixCSR, load_problem, read_matrix, read_vector,
                  save_problem, write_matrix, write_vector)
from gpcg.io import TRACE_HEADER, write_trace
from gpcg.solver import TraceRecord

from conftest import random_bound_qp, random_sparse_spd


class TestMatrixFiles:
    def test_general_round_trip(self, tmp_path):
        rng = np.random.default_rng(20)
        D = rng.standard_normal((6, 4))
        D[rng.random((6, 4)) < 0.6] = 0.0
        M = SparseMatrixCSR.from_dense(D)
        path = str(tmp_path / "m.mtx")
        write_matrix(path, M)
        R = read_matrix(path)
        assert_array_equal(R.to_dense(), D)
        assert not R.symmetric

    def test_symmetric_round_trip_restores_flag(self, tmp_path):
        M, D = random_sparse_spd(np.random.default_rng(21), 12)
        path = str(tmp_path / "m.mtx")
        write_matrix(path, M)
        with open(path) as fh:
            assert "symmetric" in fh.readline()
        R = read_matrix(path)
        assert R.symmetric
        assert_array_equal(R.to_dense(), D)

    def test_values_round_trip_exactly(self, tmp_path):
        # shortest round-trip decimal output must reproduce the doubles
        vals = np.array([1.0 / 3.0, np.pi, 1e-17, -2.5])
        M = SparseMatrixCSR.from_dense(np.diag(vals))
        path = str(tmp_path / "m.mtx")
        write_matrix(path, M)
        assert_array_equal(read_matrix(path).to_dense(), np.diag(vals))

    def test_symmetric_storage_writes_one_triangle(self, tmp_path):
        M, _ = random_sparse_spd(np.random.default_rng(22), 10)
        path = str(tmp_path / "m.mtx")
        write_matrix(path, M)
        with open(path) as fh:
            lines = [ln for ln in fh if not ln.startswith("%")]
        # first non-comment line is the size header
        nnz_stored = int(lines[0].split()[2])
        assert nnz_stored < M.nnz

    def test_general_square_symmetric_file_detected(self, tmp_path):
        # full-storage general file that happens to be symmetric
        path = str(tmp_path / "m.mtx")
        with open(path, "w") as fh:
            fh.write("%%MatrixMarket matrix coordinate real general\n")
            fh.write("2 2 4\n1 1 2.0\n1 2 -1.0\n2 1 -1.0\n2 2 2.0\n")
        R = read_matrix(path)
        assert R.symmetric

    def test_complex_file_rejected(self, tmp_path):
        # keeping only the real part would solve a different problem
        path = str(tmp_path / "m.mtx")
        with open(path, "w") as fh:
            fh.write("%%MatrixMarket matrix coordinate complex general\n")
            fh.write("2 2 2\n1 1 2.0 1.0\n2 2 3.0 0.0\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="complex"):
                read_matrix(path)


class TestVectorFiles:
    def test_text_round_trip_with_infinities(self, tmp_path):
        v = np.array([1.5, -np.inf, np.inf, 1.0 / 3.0, -0.0])
        path = str(tmp_path / "v.txt")
        write_vector(path, v)
        assert_array_equal(read_vector(path), v)

    def test_text_skips_blank_and_comment_lines(self, tmp_path):
        path = str(tmp_path / "v.txt")
        with open(path, "w") as fh:
            fh.write("# starting point\n\n1.0\n\n2.0\n")
        assert_array_equal(read_vector(path), [1.0, 2.0])

    def test_npy_round_trip(self, tmp_path):
        rng = np.random.default_rng(23)
        v = rng.standard_normal(17)
        path = str(tmp_path / "v.npy")
        write_vector(path, v)
        assert_array_equal(read_vector(path), v)

    def test_complex_npy_rejected(self, tmp_path):
        path = str(tmp_path / "v.npy")
        np.save(path, np.array([1.0 + 2.0j, 3.0 + 0.0j]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="complex"):
                read_vector(path)


class TestProblemBundle:
    def test_round_trip_preserves_everything(self, tmp_path):
        qp = random_bound_qp(np.random.default_rng(24), 8)
        manifest = save_problem(str(tmp_path), qp, stem="case")
        back = load_problem(manifest)
        assert_array_equal(back.A.to_dense(), qp.A.to_dense())
        assert back.A.symmetric
        assert_array_equal(back.b, qp.b)
        assert back.c == qp.c
        assert_array_equal(back.l, qp.l)
        assert_array_equal(back.u, qp.u)

    def test_manifest_paths_relative_to_manifest(self, tmp_path):
        qp = random_bound_qp(np.random.default_rng(25), 4)
        sub = tmp_path / "nested"
        manifest = save_problem(str(sub), qp)
        back = load_problem(manifest)
        assert back.n == 4

    def test_missing_key_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"matrix": "a.mtx"}\n')
        with pytest.raises(ValueError):
            load_problem(str(path))

    @pytest.mark.parametrize("edit", [
        lambda m: 3,
        lambda m: {**m, "matrix": 5, "linear": "b"},
        lambda m: {**m, "lower": None},
        lambda m: {**m, "constant": [1]},
        lambda m: {**m, "constant": "1.5"},
        lambda m: {**m, "constant": True},
    ], ids=["number", "matrix-number", "lower-null", "constant-list",
            "constant-string", "constant-bool"])
    def test_malformed_manifest_rejected(self, tmp_path, edit):
        qp = random_bound_qp(np.random.default_rng(27), 3)
        manifest = save_problem(str(tmp_path), qp)
        with open(manifest) as fh:
            data = json.load(fh)
        with open(manifest, "w") as fh:
            json.dump(edit(data), fh)
        with pytest.raises(ValueError):
            load_problem(manifest)

    def test_missing_constant_defaults_to_zero(self, tmp_path):
        qp = random_bound_qp(np.random.default_rng(26), 3)
        manifest = save_problem(str(tmp_path), qp)
        import json
        with open(manifest) as fh:
            data = json.load(fh)
        del data["constant"]
        with open(manifest, "w") as fh:
            json.dump(data, fh)
        assert load_problem(manifest).c == 0.0


class TestTraceFile:
    def test_header_and_rows(self, tmp_path):
        recs = [TraceRecord(1, "gp", -1.25, 0.5, 7, 0, 0.05),
                TraceRecord(1, "cg", -2.0, 0.25, 6, 3, 0.05)]
        path = str(tmp_path / "t.csv")
        write_trace(path, recs)
        lines = Path(path).read_text().splitlines()
        assert lines[0] == TRACE_HEADER
        assert lines[1] == "1,gp,-1.25,0.5,7,0,0.05"
        assert len(lines) == 3
