import json
import logging
from dataclasses import fields
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from gpcg import (SolverConfig, SolverStats, TraceRecord, read_vector,
                  save_problem, write_vector)
from gpcg import cli
from gpcg.cli import _build_parser, _config_from_args, main
from gpcg.io import TRACE_HEADER

from conftest import random_bound_qp


def _schema():
    with resources.files("gpcg").joinpath("report_schema.json").open() as fh:
        return json.load(fh)


def _run(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestBearingCommand:
    def test_json_report_converges_and_validates(self, capsys):
        rc, out, _ = _run(capsys, ["bearing", "--nx", "12", "--ny", "12",
                                   "--eps", "0.1"])
        assert rc == 0
        report = json.loads(out)
        jsonschema.validate(report, _schema())
        assert report["status"] == "converged"
        assert report["problem"]["kind"] == "bearing"
        assert report["problem"]["n"] == 144
        assert report["stats"]["final_pg_norm"] <= 1e-4

    def test_csv_report(self, capsys):
        rc, out, _ = _run(capsys, ["bearing", "--nx", "10", "--ny", "10",
                                   "--eps", "0.2", "--out", "csv",
                                   "--precond", "jacobi"])
        assert rc == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("precond,status,outer_iters")
        row = lines[1].split(",")
        assert row[0] == "jacobi"
        assert row[1] == "converged"
        assert len(row) == len(lines[0].split(","))

    def test_trace_file_row_count_matches_stats(self, capsys, tmp_path):
        trace_path = str(tmp_path / "trace.csv")
        rc, out, _ = _run(capsys, ["bearing", "--nx", "14", "--ny", "14",
                                   "--eps", "0.5", "--trace", trace_path])
        assert rc == 0
        stats = json.loads(out)["stats"]
        lines = Path(trace_path).read_text().splitlines()
        assert lines[0] == TRACE_HEADER
        expected = (stats["outer_iters"] + stats["gp_iters_total"]
                    + stats["cg_calls"])
        assert len(lines) == 1 + expected

    def test_xout_written_and_feasible(self, capsys, tmp_path):
        xout = str(tmp_path / "x.txt")
        rc, out, _ = _run(capsys, ["bearing", "--nx", "9", "--ny", "9",
                                   "--eps", "0.4", "--xout", xout])
        assert rc == 0
        x = read_vector(xout)
        assert x.shape == (81,)
        assert (x >= 0.0).all()

    def test_nonconvergence_exits_one(self, capsys):
        rc, out, err = _run(capsys, ["bearing", "--nx", "32", "--ny", "32",
                                     "--eps", "0.9", "--max-outer", "1"])
        assert rc == 1
        assert json.loads(out)["status"] == "max_outer_reached"
        assert "did not converge" in err

    def test_missing_required_flag_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bearing", "--ny", "4", "--eps", "0.1"])
        assert exc.value.code == 2

    def test_bad_eccentricity_exits_two(self, capsys):
        rc, _, err = _run(capsys, ["bearing", "--nx", "4", "--ny", "4",
                                   "--eps", "1.5"])
        assert rc == 2
        assert "error" in err

    @pytest.mark.parametrize("bdom", ["nan", "inf", "-1"])
    def test_bad_domain_half_height_exits_two(self, capsys, bdom):
        rc, out, err = _run(capsys, ["bearing", "--nx", "4", "--ny", "4",
                                     "--eps", "0.1", "--bdom", bdom])
        assert rc == 2
        assert out == ""
        assert "half-height" in err

    def test_nan_tau_exits_two(self, capsys):
        rc, out, err = _run(capsys, ["bearing", "--nx", "4", "--ny", "4",
                                     "--eps", "0.1", "--tau", "nan"])
        assert rc == 2
        assert out == ""
        assert "tolerance" in err

    def test_zero_outer_limit_exits_two(self, capsys):
        rc, out, err = _run(capsys, ["bearing", "--nx", "4", "--ny", "4",
                                     "--eps", "0.1", "--max-outer", "0"])
        assert rc == 2
        assert out == ""
        assert "limit" in err

    def test_bare_command_uses_the_solver_config_defaults(self):
        args = _build_parser().parse_args(["bearing", "--nx", "4", "--ny", "4",
                                           "--eps", "0.1"])
        assert _config_from_args(args, args.precond) == SolverConfig()

    def test_bad_precond_exits_two(self, capsys):
        rc, _, err = _run(capsys, ["bearing", "--nx", "4", "--ny", "4",
                                   "--eps", "0.1", "--precond", "whatever"])
        assert rc == 2


class TestSolveCommand:
    def test_solves_saved_problem(self, capsys, tmp_path):
        qp = random_bound_qp(np.random.default_rng(90), 6)
        manifest = save_problem(str(tmp_path), qp)
        rc, out, _ = _run(capsys, ["solve", manifest, "--x0", "zero",
                                   "--tau", "1e-8"])
        assert rc == 0
        report = json.loads(out)
        jsonschema.validate(report, _schema())
        assert report["problem"]["kind"] == "file"
        assert report["problem"]["n"] == 6

    def test_dump_then_solve_reproduces_the_run(self, capsys, tmp_path):
        x1 = str(tmp_path / "x1.txt")
        x2 = str(tmp_path / "x2.txt")
        rc1, out1, _ = _run(capsys, ["bearing", "--nx", "11", "--ny", "11",
                                     "--eps", "0.3", "--precond",
                                     "bjacobi-ilu0", "--dump",
                                     str(tmp_path / "bundle"),
                                     "--xout", x1])
        manifest = str(tmp_path / "bundle" / "bearing.json")
        rc2, out2, _ = _run(capsys, ["solve", manifest, "--x0", "lower",
                                     "--precond", "bjacobi-ilu0",
                                     "--xout", x2])
        assert rc1 == 0 and rc2 == 0
        s1 = json.loads(out1)["stats"]
        s2 = json.loads(out2)["stats"]
        s1.pop("wall_time_seconds")
        s2.pop("wall_time_seconds")
        assert s1 == s2
        assert Path(x1).read_text() == Path(x2).read_text()

    def test_x0_from_file(self, capsys, tmp_path):
        qp = random_bound_qp(np.random.default_rng(91), 5)
        manifest = save_problem(str(tmp_path), qp)
        x0_path = str(tmp_path / "x0.txt")
        write_vector(x0_path, np.clip(np.zeros(5), qp.l, qp.u))
        for spec in (x0_path, "file:" + x0_path):
            rc, out, _ = _run(capsys, ["solve", manifest, "--x0", spec])
            assert rc == 0

    def test_x0_length_mismatch_exits_two(self, capsys, tmp_path):
        qp = random_bound_qp(np.random.default_rng(92), 5)
        manifest = save_problem(str(tmp_path), qp)
        x0_path = str(tmp_path / "x0.txt")
        write_vector(x0_path, np.zeros(4))
        rc, _, err = _run(capsys, ["solve", manifest, "--x0", x0_path])
        assert rc == 2
        assert "length" in err

    def test_unreadable_manifest_exits_two(self, capsys, tmp_path):
        rc, _, err = _run(capsys, ["solve", str(tmp_path / "missing.json")])
        assert rc == 2
        assert "cannot load problem" in err

    @pytest.mark.parametrize("edit", [
        lambda m: 3,
        lambda m: {"matrix": 5, "linear": "b", "lower": "l", "upper": "u"},
        lambda m: {**m, "constant": [1]},
    ], ids=["number", "matrix-number", "constant-list"])
    def test_malformed_manifest_exits_two(self, capsys, tmp_path, edit):
        qp = random_bound_qp(np.random.default_rng(5), 3)
        manifest = save_problem(str(tmp_path), qp)
        with open(manifest) as fh:
            body = edit(json.load(fh))
        with open(manifest, "w") as fh:
            json.dump(body, fh)
        rc, _, err = _run(capsys, ["solve", manifest])
        assert rc == 2
        assert "cannot load problem" in err

    @pytest.mark.parametrize("entry", ["matrix", "linear"])
    def test_complex_file_exits_two(self, capsys, tmp_path, entry):
        qp = random_bound_qp(np.random.default_rng(5), 3)
        manifest = save_problem(str(tmp_path), qp)
        with open(manifest) as fh:
            body = json.load(fh)
        if entry == "matrix":
            with open(tmp_path / body["matrix"], "w") as fh:
                fh.write("%%MatrixMarket matrix coordinate complex general\n")
                fh.write("3 3 3\n1 1 2.0 1.0\n2 2 2.0 0.0\n3 3 2.0 0.0\n")
        else:
            body["linear"] = "b.npy"
            np.save(tmp_path / "b.npy", qp.b + 1.0j)
            with open(manifest, "w") as fh:
                json.dump(body, fh)
        rc, _, err = _run(capsys, ["solve", manifest])
        assert rc == 2
        assert "complex entries are not supported" in err


class TestComparePrecondsCommand:
    def test_tabulates_all_preconditioners(self, capsys):
        rc, out, _ = _run(capsys, ["compare-preconds", "--nx", "16",
                                   "--ny", "16", "--eps", "0.1"])
        assert rc == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("precond,")
        names = [ln.split(",", 1)[0] for ln in lines[1:]]
        assert names == ["jacobi", "bjacobi-ilu0", "bjacobi-ilu2"]
        for ln in lines[1:]:
            assert ln.split(",")[1] == "converged"

    def test_custom_list(self, capsys):
        rc, out, _ = _run(capsys, ["compare-preconds", "--nx", "8",
                                   "--ny", "8", "--eps", "0.2",
                                   "--preconds", "none,jacobi"])
        assert rc == 0
        lines = out.strip().splitlines()
        assert len(lines) == 3

    def test_bad_entry_exits_two_before_any_solve(self, capsys):
        rc, out, err = _run(capsys, ["compare-preconds", "--nx", "8",
                                     "--ny", "8", "--eps", "0.1",
                                     "--preconds", "jacobi,bogus"])
        assert rc == 2
        assert out == ""
        assert "bogus" in err

    @pytest.mark.parametrize("flag", [
        ["--precond", "jacobi"], ["--trace", "t.csv"], ["--xout", "x.txt"],
        ["--out", "json"]], ids=lambda f: f[0])
    def test_single_run_flags_are_refused(self, capsys, tmp_path,
                                          monkeypatch, flag):
        # the table solves several configs, so these flags have no meaning
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["compare-preconds", "--nx", "8", "--ny", "8", "--eps", "0.1",
                  *flag])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""
        assert list(tmp_path.iterdir()) == []

    def test_empty_list_exits_two(self, capsys):
        rc, _, err = _run(capsys, ["compare-preconds", "--nx", "4",
                                   "--ny", "4", "--eps", "0.1",
                                   "--preconds", ", ,"])
        assert rc == 2


class TestOutputsFollowTheRecords:
    """The report, the CSV columns and the trace header are the fields of
    SolverStats (without its trace) and TraceRecord, in their order."""

    STATS = [f.name for f in fields(SolverStats) if f.name != "trace"]

    def test_schema_stats_keys(self):
        stats = _schema()["properties"]["stats"]
        assert stats["required"] == self.STATS
        assert list(stats["properties"]) == self.STATS

    def test_report_stats_keys(self, capsys):
        rc, out, _ = _run(capsys, ["bearing", "--nx", "6", "--ny", "6",
                                   "--eps", "0.1"])
        assert rc == 0
        assert list(json.loads(out)["stats"]) == self.STATS

    @pytest.mark.parametrize("argv", [
        ["bearing", "--out", "csv"], ["compare-preconds", "--preconds", "none"]])
    def test_csv_columns(self, capsys, argv):
        rc, out, _ = _run(capsys, [argv[0], "--nx", "6", "--ny", "6",
                                   "--eps", "0.1", *argv[1:]])
        assert rc == 0
        header, row = out.strip().splitlines()
        assert header.split(",") == ["precond", "status"] + self.STATS
        assert len(row.split(",")) == 2 + len(self.STATS)

    def test_trace_header(self):
        assert TRACE_HEADER.split(",") == [f.name for f in fields(TraceRecord)]


class TestConfigFollowsTheFlags:
    """SolverConfig's fields, the solver flags and the report's config are
    one list, cli.SOLVER_FLAGS: each (name, field) pair is a flag --<name>,
    a SolverConfig field, and a config key of the report and the schema,
    which adds the starting point x0."""

    @staticmethod
    def _config_keys():
        return [name for name, _, _ in cli.SOLVER_FLAGS] + ["x0"]

    def test_config_fields_are_the_flags(self):
        assert ([f.name for f in fields(SolverConfig)]
                == [field for _, field, _ in cli.SOLVER_FLAGS])

    def test_report_config_keys(self, capsys):
        # the report of a run stopped by --max-outer records the limit
        rc, out, _ = _run(capsys, ["bearing", "--nx", "12", "--ny", "12",
                                   "--eps", "0.1", "--max-outer", "1"])
        assert rc == 1
        report = json.loads(out)
        jsonschema.validate(report, _schema())
        assert report["status"] == "max_outer_reached"
        assert list(report["config"]) == self._config_keys()
        assert report["config"]["max_outer"] == 1

    def test_schema_config_keys(self):
        config = _schema()["properties"]["config"]
        assert config["required"] == self._config_keys()
        assert list(config["properties"]) == self._config_keys()


class TestLogging:
    @pytest.fixture
    def gpcg_log(self, monkeypatch):
        logger = logging.getLogger("gpcg")
        level, handlers = logger.level, logger.handlers[:]
        yield lambda value: monkeypatch.setenv("GPCG_LOG", value)
        logger.setLevel(level)
        logger.handlers[:] = handlers

    def test_repeated_runs_print_each_line_once(self, capsys, gpcg_log):
        gpcg_log("debug")
        errs = []
        for _ in range(2):
            rc, _, err = _run(capsys, ["bearing", "--nx", "8", "--ny", "8",
                                       "--eps", "0.1"])
            assert rc == 0
            lines = err.splitlines()
            assert sum(ln.startswith("gpcg: outer 1: gp") for ln in lines) == 1
            assert any(ln.startswith("gpcg: outer 1: cg") for ln in lines)
            errs.append(err)
        assert errs[0] == errs[1]

    @pytest.mark.parametrize("value", ["warning", "1", "2", "verbose"])
    def test_undocumented_values_exit_two(self, capsys, gpcg_log, value):
        gpcg_log(value)
        rc, out, err = _run(capsys, ["bearing", "--nx", "4", "--ny", "4",
                                     "--eps", "0.1"])
        assert rc == 2
        assert out == ""
        assert "GPCG_LOG must be info or debug" in err
