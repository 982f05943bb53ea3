"""Tests for CSV/JSON persistence and the command line front end."""

import csv
import json
import logging
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from mirrorselect import (
    ConfigurationError,
    Dataset,
    DesignSpec,
    InvalidDataError,
    MirrorSelectError,
    NumericalError,
    RngSeed,
    TrainingError,
    evaluate,
    load_csv,
    load_truth,
    sample_design,
    write_dataset_csv,
    write_json,
)
from mirrorselect.cli import main


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadCsv:
    def test_integer_codes_parsed_as_reals(self, tmp_path):
        path = _write(tmp_path / "snp.csv", "snp1,snp2,y\n0,1,2\n1,2,0\n2,0,1\n")
        ds = load_csv(path)
        assert ds.x.dtype == np.float64
        np.testing.assert_array_equal(ds.x, [[0, 1], [1, 2], [2, 0]])
        np.testing.assert_array_equal(ds.y, [2, 0, 1])
        assert ds.names == ("snp1", "snp2")
        assert ds.response_name == "y"

    def test_response_by_name_anywhere(self, tmp_path):
        path = _write(tmp_path / "d.csv", "a,y,b\n1,2,3\n4,5,6\n")
        ds = load_csv(path, "y")
        assert ds.names == ("a", "b")
        np.testing.assert_array_equal(ds.y, [2, 5])

    def test_response_by_position(self, tmp_path):
        path = _write(tmp_path / "d.csv", "a,b,c\n1,2,3\n4,5,6\n")
        for response in (2, "2"):
            ds = load_csv(path, response)
            assert ds.response_name == "c"
            np.testing.assert_array_equal(ds.y, [3, 6])

    def test_header_name_wins_over_position(self, tmp_path):
        # a column literally named "1" is a name match, not an index
        path = _write(tmp_path / "d.csv", "a,1\n5,6\n7,8\n")
        ds = load_csv(path, "1")
        assert ds.response_name == "1"
        np.testing.assert_array_equal(ds.y, [6, 8])

    def test_missing_response_lists_columns(self, tmp_path):
        path = _write(tmp_path / "d.csv", "a,b\n1,2\n")
        with pytest.raises(InvalidDataError, match="available: a, b"):
            load_csv(path, "target")

    def test_response_index_out_of_range(self, tmp_path):
        path = _write(tmp_path / "d.csv", "a,b\n1,2\n")
        with pytest.raises(InvalidDataError, match="out of range"):
            load_csv(path, 2)

    def test_nan_cell_named(self, tmp_path):
        path = _write(tmp_path / "d.csv", "a,b,y\n1,2,3\nnan,5,6\n")
        with pytest.raises(InvalidDataError, match=r"row 2, column 'a'"):
            load_csv(path)

    def test_text_cell_named(self, tmp_path):
        path = _write(tmp_path / "d.csv", "a,b,y\n1,oops,3\n")
        with pytest.raises(InvalidDataError, match=r"row 1, column 'b'"):
            load_csv(path)

    def test_ragged_row(self, tmp_path):
        path = _write(tmp_path / "d.csv", "a,b,y\n1,2,3\n4,5\n")
        with pytest.raises(InvalidDataError, match="row 2 has 2 cells"):
            load_csv(path)

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("", "empty"),
            ("a,b,y\n", "no data rows"),
            ("a,a,y\n1,2,3\n", "duplicate"),
            ("a,,y\n1,2,3\n", "empty column names"),
            ("y\n1\n", "at least one feature"),
        ],
    )
    def test_malformed_files(self, tmp_path, text, fragment):
        path = _write(tmp_path / "d.csv", text)
        with pytest.raises(InvalidDataError, match=fragment):
            load_csv(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(InvalidDataError, match="cannot read"):
            load_csv(tmp_path / "absent.csv")

    def test_constant_column_warns(self, tmp_path, caplog):
        path = _write(tmp_path / "d.csv", "a,b,y\n1,7,3\n2,7,4\n")
        with caplog.at_level(logging.WARNING, logger="mirrorselect"):
            ds = load_csv(path)
        assert [r.levelno for r in caplog.records] == [logging.WARNING]
        assert re.search("constant.*: b", caplog.text)
        assert ds.p == 2

    def test_round_trip_exact(self, tmp_path):
        x = sample_design(DesignSpec(40, 5), RngSeed(3))
        y = RngSeed(4).generator().standard_normal(40)
        ds = Dataset(x, y, names=("c0", "c1", "c2", "c3", "c4"))
        write_dataset_csv(ds, tmp_path / "round.csv")
        back = load_csv(tmp_path / "round.csv")
        # %.17g formatting reproduces doubles exactly
        np.testing.assert_allclose(back.x, ds.x, rtol=0, atol=1e-15)
        np.testing.assert_allclose(back.y, ds.y, rtol=0, atol=1e-15)
        assert back.names == ds.names


class TestLoadTruth:
    def test_valid(self, tmp_path):
        path = tmp_path / "truth.json"
        write_json({"support": [4, 1], "beta": [0.0]}, path)
        assert load_truth(path) == frozenset({1, 4})

    @pytest.mark.parametrize(
        "doc",
        [[1, 2], {"beta": [1]}, {"support": "1,2"}, {"support": [1, True]}],
    )
    def test_malformed(self, tmp_path, doc):
        path = tmp_path / "truth.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(InvalidDataError):
            load_truth(path)

    def test_invalid_json(self, tmp_path):
        path = _write(tmp_path / "truth.json", "{not json")
        with pytest.raises(InvalidDataError, match="invalid JSON"):
            load_truth(path)


def test_error_exit_codes():
    # the command line maps every error family to its own exit code
    assert ConfigurationError("x").exit_code == 2
    assert InvalidDataError("x").exit_code == 3
    assert NumericalError("x").exit_code == 4
    assert TrainingError("x").exit_code == 5
    assert MirrorSelectError("x").exit_code == 1


def _simulate(tmp_path, name, seed="5", n="80", p="5", k="1"):
    out = tmp_path / name
    code = main(
        [
            "simulate", "--n", n, "--p", p, "--k", k, "--coef-sd", "12",
            "--seed", seed, "--out", str(out),
        ]
    )
    assert code == 0
    return out


SELECT_FLAGS = [
    "--q", "0.2", "--method", "sngm", "--hidden", "8,4",
    "--epochs", "60", "--learning-rate", "0.005", "--seed", "1",
]


class TestCli:
    def test_constant_column_keeps_stderr_empty(self, tmp_path, gen):
        # a fresh interpreter, so no test harness handler is attached
        x = np.column_stack([gen.standard_normal((80, 3)), np.full(80, 7.0)])
        y = 2.0 * x[:, 0] + gen.standard_normal(80)
        ds = Dataset(x, y, names=("a", "b", "c", "konst"))
        write_dataset_csv(ds, tmp_path / "d.csv")
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run(
            [sys.executable, "-m", "mirrorselect.cli", "select", "--data", str(tmp_path / "d.csv"),
             *SELECT_FLAGS, "--out", str(tmp_path / "out")],
            env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True,
            timeout=300,
        )
        assert proc.returncode == 0
        assert proc.stderr == ""
        doc = json.loads((tmp_path / "out" / "result.json").read_text())
        assert [f["constant"] for f in doc["features"]] == [False, False, False, True]

    def test_simulate_deterministic(self, tmp_path):
        a = _simulate(tmp_path, "a")
        b = _simulate(tmp_path, "b")
        assert (a / "dataset.csv").read_bytes() == (b / "dataset.csv").read_bytes()
        assert (a / "truth.json").read_bytes() == (b / "truth.json").read_bytes()
        c = _simulate(tmp_path, "c", seed="6")
        assert (a / "dataset.csv").read_bytes() != (c / "dataset.csv").read_bytes()

    def test_simulate_manifest(self, tmp_path):
        out = _simulate(tmp_path, "m")
        doc = json.loads((out / "manifest.json").read_text())
        assert doc["command"] == "simulate"
        assert doc["config"]["seed"] == 5
        assert doc["config"]["n"] == 80
        for key in ("mirrorselect", "numpy", "scipy", "python"):
            assert key in doc["versions"]
        assert doc["timings"]["total_s"] > 0

    def test_structure_aliases(self, tmp_path):
        out = tmp_path / "alias"
        code = main(
            [
                "simulate", "--n", "30", "--p", "4", "--k", "1",
                "--structure", "toeplitz", "--rho", "0.5",
                "--seed", "2", "--out", str(out),
            ]
        )
        assert code == 0
        doc = json.loads((out / "truth.json").read_text())
        assert doc["design"]["structure"] == "toeplitz_pc"

    def test_select_with_truth_sidecar(self, tmp_path):
        sim = _simulate(tmp_path, "sim", p="6", k="2")
        out = tmp_path / "sel"
        code = main(
            [
                "select", "--data", str(sim / "dataset.csv"),
                "--truth", str(sim / "truth.json"), *SELECT_FLAGS,
                "--out", str(out),
            ]
        )
        assert code == 0
        result = json.loads((out / "result.json").read_text())
        assert result["schema"] == "mirrorselect/selection/v1"
        assert result["method"] == "sngm"
        assert result["q"] == 0.2
        assert len(result["features"]) == 6
        # the sidecar echoes evaluate() on the selected set
        metrics = json.loads((out / "metrics.json").read_text())
        truth = load_truth(sim / "truth.json")
        expected = evaluate(set(result["selected"]), truth, 6)
        assert metrics["fdp"] == expected.fdp
        assert metrics["power"] == expected.power
        assert metrics["selected_count"] == expected.selected_count

    def test_select_deterministic_modulo_timing(self, tmp_path):
        sim = _simulate(tmp_path, "sim2")
        docs = []
        for name in ("s1", "s2"):
            out = tmp_path / name
            code = main(
                [
                    "select", "--data", str(sim / "dataset.csv"),
                    *SELECT_FLAGS, "--out", str(out),
                ]
            )
            assert code == 0
            doc = json.loads((out / "result.json").read_text())
            del doc["timing"]
            docs.append(doc)
        assert docs[0] == docs[1]

    def test_benchmark_outputs(self, tmp_path):
        out = tmp_path / "bench"
        code = main(
            [
                "benchmark", "--n", "60", "--p", "5", "--k", "1",
                "--coef-sd", "12", "--reps", "2", "--method", "sngm",
                "--q", "0.2", "--hidden", "8", "--epochs", "30",
                "--learning-rate", "0.005", "--seed", "3", "--out", str(out),
            ]
        )
        assert code == 0
        with (out / "reps.csv").open(newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["seed", "fdp", "power", "fpr", "threshold", "runtime_ms"]
        assert len(rows) == 3
        summary = json.loads((out / "summary.json").read_text())
        assert summary["reps"] == 2
        assert summary["completed"] == 2
        assert summary["failures"] == []
        assert 0.0 <= summary["mean_fdp"] <= 1.0

    def test_roc_outputs(self, tmp_path):
        sim = _simulate(tmp_path, "sim3", p="6", k="2")
        out = tmp_path / "roc"
        code = main(
            [
                "roc", "--data", str(sim / "dataset.csv"),
                "--truth", str(sim / "truth.json"), *SELECT_FLAGS,
                "--out", str(out),
            ]
        )
        assert code == 0
        doc = json.loads((out / "roc.json").read_text())
        assert 0.0 <= doc["auc"] <= 1.0
        with (out / "roc_points.csv").open(newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["fpr", "tpr"]
        fprs = [float(r[0]) for r in rows[1:]]
        assert fprs == sorted(fprs)
        assert doc["n_points"] == len(rows) - 1

    def test_unknown_flag_exits_2(self, tmp_path, capsys):
        code = main(["simulate", "--n", "10", "--p", "4", "--frobnicate",
                     "--out", str(tmp_path / "x")])
        capsys.readouterr()
        assert code == 2

    def test_threads_only_for_benchmark(self, tmp_path, capsys):
        sim = _simulate(tmp_path, "sim8")
        data = ["--data", str(sim / "dataset.csv")]
        truth = ["--truth", str(sim / "truth.json")]
        for argv in (
            ["select", *data, *SELECT_FLAGS],
            ["roc", *data, *truth, *SELECT_FLAGS],
            ["simulate", "--n", "10", "--p", "4"],
        ):
            out = tmp_path / f"threads-{argv[0]}"
            code = main([*argv, "--threads", "2", "--out", str(out)])
            assert code == 2
            assert not out.exists()
        assert "unrecognized arguments: --threads" in capsys.readouterr().err
        out = tmp_path / "bench"
        code = main(
            [
                "benchmark", "--n", "60", "--p", "5", "--k", "1",
                "--coef-sd", "12", "--reps", "2", "--method", "sngm",
                "--q", "0.2", "--hidden", "8", "--epochs", "5",
                "--threads", "2", "--seed", "3", "--out", str(out),
            ]
        )
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["threads"] == 2

    def test_negative_polynomial_offset_exits_2(self, tmp_path, capsys):
        sim = _simulate(tmp_path, "sim9")
        out = tmp_path / "poly"
        code = main(["select", "--data", str(sim / "dataset.csv"), *SELECT_FLAGS,
                     "--kernel", "polynomial", "--offset", "-0.5",
                     "--out", str(out)])
        capsys.readouterr()
        assert code == 2
        record = json.loads((out / "error.json").read_text())
        assert record["error"] == "ConfigurationError"

    def test_overflowing_kernel_exits_4(self, tmp_path, capsys):
        sim = _simulate(tmp_path, "sim10")
        out = tmp_path / "overflow"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["select", "--data", str(sim / "dataset.csv"), *SELECT_FLAGS,
                         "--kernel", "polynomial", "--degree", "400",
                         "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 4
        assert [str(w.message) for w in caught] == []
        # stderr holds only the JSON error line
        lines = err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "NumericalError"
        record = json.loads((out / "error.json").read_text())
        assert record["error"] == "NumericalError"
        assert record["exit_code"] == 4
        assert "polynomial kernel overflowed" in record["message"]

    def test_missing_data_file_exits_3(self, tmp_path, capsys):
        out = tmp_path / "x"
        code = main(["select", "--data", str(tmp_path / "absent.csv"),
                     *SELECT_FLAGS, "--out", str(out)])
        capsys.readouterr()
        assert code == 3
        record = json.loads((out / "error.json").read_text())
        assert record["error"] == "InvalidDataError"
        assert record["exit_code"] == 3

    def test_bad_q_exits_2(self, tmp_path, capsys):
        sim = _simulate(tmp_path, "sim4")
        code = main(["select", "--data", str(sim / "dataset.csv"),
                     "--q", "1.5", "--epochs", "10",
                     "--out", str(tmp_path / "x")])
        capsys.readouterr()
        assert code == 2

    def test_m_keep_without_screening_exits_2(self, tmp_path, capsys):
        sim = _simulate(tmp_path, "sim5")
        code = main(["select", "--data", str(sim / "dataset.csv"),
                     "--method", "sngm", "--m-keep", "3", "--epochs", "10",
                     "--out", str(tmp_path / "x")])
        capsys.readouterr()
        assert code == 2

    def test_divergent_training_exits_5(self, tmp_path, capsys):
        sim = _simulate(tmp_path, "sim6")
        out = tmp_path / "div"
        with np.errstate(all="ignore"):
            code = main(
                [
                    "select", "--data", str(sim / "dataset.csv"),
                    "--method", "sngm", "--hidden", "8", "--epochs", "20",
                    "--learning-rate", "1e8", "--activation", "relu",
                    "--q", "0.2", "--seed", "1", "--out", str(out),
                ]
            )
        capsys.readouterr()
        assert code == 5
        record = json.loads((out / "error.json").read_text())
        assert record["error"] == "TrainingError"

    def test_screening_method_via_cli(self, tmp_path):
        sim = _simulate(tmp_path, "sim7", n="120", p="6", k="2")
        out = tmp_path / "scr"
        code = main(
            [
                "select", "--data", str(sim / "dataset.csv"),
                "--method", "s_sngm", "--m-keep", "4", "--q", "0.2",
                "--hidden", "8,4", "--epochs", "60",
                "--learning-rate", "0.005", "--seed", "1", "--out", str(out),
            ]
        )
        assert code == 0
        doc = json.loads((out / "result.json").read_text())
        assert doc["method"] == "s_sngm"
        assert sum(rec["screened_out"] for rec in doc["features"]) == 2
