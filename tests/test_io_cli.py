"""Tests for CSV/JSON persistence and the command line front end."""

import argparse
import csv
import json
import logging
import math
import os
import re
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest

import mirrorselect.io as csv_io
from mirrorselect import (
    ConfigurationError,
    Dataset,
    DesignSpec,
    InvalidDataError,
    MirrorSelectError,
    NumericalError,
    RngSeed,
    TrainingError,
    default_coef_sd,
    evaluate,
    load_csv,
    load_truth,
    sample_design,
    write_dataset_csv,
    write_json,
)
from mirrorselect.cli import _parse_hidden, _parse_threads, main


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

    def test_first_faulty_row_is_named(self, tmp_path):
        # rows are checked in file order: the bad cell in row 1 is reported,
        # not the short row 2 or the unparsable row 3 after it
        path = _write(tmp_path / "d.csv", "a,b,y\n1,inf,3\n4,5\nx,1,2\n")
        with pytest.raises(InvalidDataError, match=r"row 1, column 'b': non-finite"):
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

    @pytest.mark.parametrize(
        "head, body",
        [
            (b"a,\xff,y\n", b"1,2,3\n"),
            (b"a,b,y\n", b"1,2,3\n4,\xff,6\n"),
            # past the first decoded chunk: the fast parser meets it first
            (b"a,b,y\n", b"1,2,3\n" * 5000 + b"4,\xff,6\n"),
        ],
        ids=["header", "body", "late-body"],
    )
    def test_non_utf8_bytes_are_invalid_data(self, tmp_path, head, body):
        path = tmp_path / "d.csv"
        path.write_bytes(head + body)
        with pytest.raises(InvalidDataError, match=r"d\.csv: not UTF-8 text: .*0xff"):
            load_csv(path)

    @pytest.mark.parametrize("parser", ["fast", "rows"])
    def test_byte_order_mark_is_not_part_of_the_header(
        self, tmp_path, monkeypatch, parser
    ):
        path = tmp_path / "d.csv"
        cell = "4" if parser == "fast" else "1_000"
        path.write_bytes(f"\ufeffy,x0,x1\n3,1,2\n6,{cell},5\n".encode("utf-8"))
        if parser == "fast":
            monkeypatch.setattr(csv_io, "_parse_rows", None)
        ds = load_csv(path)
        assert ds.names == ("x0", "x1")
        assert ds.response_name == "y"
        np.testing.assert_array_equal(ds.y, [3, 6])
        np.testing.assert_array_equal(ds.x, [[1, 2], [float(cell), 5]])

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
        assert np.array_equal(back.x, ds.x)
        assert np.array_equal(back.y, ds.y)
        assert back.names == ds.names
        # Dataset stores C order, whatever layout the parser builds
        # (see test_results_do_not_depend_on_memory_layout)
        assert back.x.flags.c_contiguous

    def test_dataset_csv_bytes_match_per_cell_writer(self, tmp_path):
        def per_cell(dataset, path):
            # the row-by-row csv.writer this writer must reproduce byte for byte
            with path.open("w", newline="", encoding="utf-8") as fh:
                writer = csv.writer(fh)
                writer.writerow(list(dataset.names) + [dataset.response_name])
                for i in range(dataset.n):
                    writer.writerow(
                        [format(float(v), ".17g") for v in dataset.x[i]]
                        + [format(float(dataset.y[i]), ".17g")]
                    )

        x = sample_design(DesignSpec(30, 6, "toeplitz_pc", 0.5), RngSeed(3))
        x[0] = [-0.0, 1e-300, 1e300, 3.0, -7.0, 5e-324]
        y = RngSeed(4).generator().standard_normal(30)
        y[1:3] = [-0.0, 2.0]
        ds = Dataset(x, y, names=("a,b", "c1", 'q"t', "c3", "c4", "c5"),
                     response_name="y,z")
        write_dataset_csv(ds, tmp_path / "fast.csv")
        per_cell(ds, tmp_path / "oracle.csv")
        assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()
        assert (tmp_path / "fast.csv").read_bytes().startswith(b'"a,b",c1,"q""t"')


# Cells on which numpy's reader and float() may disagree.
_ODD_CELLS = [
    "", " ", "1_000", "\u0661", '"1.5"', "  2.5  ", "+.5", "1.", ".", "1e",
    "0x1p3", "1d5", "#1", "nan", "NaN", "inf", "Infinity", "1e400", "1e-400",
    "\x1c1", "1\x1f", "\x0c1", "1\x85", "\uff11",
]
_LAYOUTS = {
    "lf": "a,b,y\n1,2,3\n4,5,6\n",
    "crlf": "a,b,y\r\n1,2,3\r\n4,5,6\r\n",
    "lone-cr": "a,b,y\r1,2,3\r4,5,6\r",
    "no-final-newline": "a,b,y\n1,2,3\n4,5,6",
    "quoted-newline-in-header": '"a\nb",b,y\n1,2,3\n4,5,6\n',
    "blank-mid": "a,b,y\n1,2,3\n\n4,5,6\n",
    "blank-end": "a,b,y\n1,2,3\n4,5,6\n\n",
    "blank-mid-crlf": "a,b,y\r\n1,2,3\r\n\r\n4,5,6\r\n",
    "blank-end-crlf": "a,b,y\r\n1,2,3\r\n4,5,6\r\n\r\n",
    "blank-only-body": "a,b,y\n\n",
    "whitespace-line": "a,b,y\n1,2,3\n   \n4,5,6\n",
    "every-row-short": "a,b,y\n1,2\n4,5\n",
    "lone-cr-and-blank": "a,b,y\n1,2,3\r4,5,6\n\n7,8,9\n",
}
# Files the fast path must serve without reparsing row by row.
_FAST = {"lf", "crlf", "lone-cr", "no-final-newline", "quoted-newline-in-header"}


def _load_or_message(path):
    try:
        return load_csv(path)
    except InvalidDataError as err:
        return str(err)


class TestLoadCsvFastPath:
    """load_csv parses with np.loadtxt and falls back to its row parser
    wherever the two could differ; either way the outcome is the row
    parser's."""

    def _assert_same_as_row_parser(self, path, monkeypatch):
        fast = _load_or_message(path)
        with monkeypatch.context() as m:
            m.setattr(csv_io, "_parse_fast", lambda *args: None)
            rows = _load_or_message(path)
        if isinstance(rows, str):
            assert fast == rows
        else:
            assert not isinstance(fast, str), fast
            assert np.array_equal(fast.x, rows.x)
            assert np.array_equal(fast.y, rows.y)
            assert fast.names == rows.names
            assert fast.x.flags.f_contiguous == rows.x.flags.f_contiguous

    @pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
    @pytest.mark.parametrize("cell", _ODD_CELLS)
    def test_cell_matches_row_parser(self, tmp_path, monkeypatch, cell, newline):
        text = newline.join(["a,b,y", "1,2,3", f"4,{cell},6", "7,8,9", ""])
        path = tmp_path / "d.csv"
        path.write_bytes(text.encode("utf-8"))
        self._assert_same_as_row_parser(path, monkeypatch)

    @pytest.mark.parametrize("layout", sorted(_LAYOUTS))
    def test_layout_matches_row_parser(self, tmp_path, monkeypatch, layout):
        path = tmp_path / "d.csv"
        path.write_bytes(_LAYOUTS[layout].encode("utf-8"))
        self._assert_same_as_row_parser(path, monkeypatch)

    @pytest.mark.parametrize("layout", sorted(_FAST))
    def test_clean_file_skips_row_parser(self, tmp_path, monkeypatch, layout):
        path = tmp_path / "d.csv"
        path.write_bytes(_LAYOUTS[layout].encode("utf-8"))
        monkeypatch.setattr(csv_io, "_parse_rows", None)
        np.testing.assert_array_equal(load_csv(path).y, [3, 6])


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

    def test_byte_order_mark(self, tmp_path):
        path = tmp_path / "truth.json"
        path.write_bytes(b'\xef\xbb\xbf{"support": [3, 0]}')
        assert load_truth(path) == frozenset({0, 3})


def test_threads_and_hidden_parsers():
    assert _parse_threads("auto") == (os.cpu_count() or 1)
    assert _parse_threads("3") == 3
    for value, message in (("two", "must be an integer or 'auto'"), ("0", "at least 1")):
        with pytest.raises(argparse.ArgumentTypeError, match=message):
            _parse_threads(value)
    assert _parse_hidden("auto") is None
    assert _parse_hidden("8, 4,") == (8, 4)
    for value, message in (("8,x", "comma-separated integers"), (" , ", "must not be empty")):
        with pytest.raises(argparse.ArgumentTypeError, match=message):
            _parse_hidden(value)


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

    def test_commands_run_on_numpy_alone(self, tmp_path):
        # a fresh interpreter runs every command, then lists the scipy
        # modules it has loaded: the runtime needs none
        script = textwrap.dedent("""
            import sys
            from mirrorselect.cli import _parse_hidden, _parse_threads, main
            out = sys.argv[1]
            design = ["--n", "40", "--p", "4", "--k", "1",
                      "--structure", "toeplitz", "--rho", "0.5"]
            net = ["--hidden", "4", "--epochs", "5", "--q", "0.2", "--seed", "1"]
            data = ["--data", out + "/sim/dataset.csv"]
            truth = ["--truth", out + "/sim/truth.json"]
            for argv in (
                ["simulate", *design, "--out", out + "/sim"],
                ["select", *data, *net, "--kernel", "gaussian", "--out", out + "/select"],
                ["roc", *data, *truth, *net, "--out", out + "/roc"],
                ["benchmark", *design, *net, "--reps", "2", "--threads", "1",
                 "--out", out + "/bench"],
            ):
                assert main(argv) == 0, argv
            print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
        """)
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path)],
            env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[]"

    def test_simulate_deterministic(self, tmp_path):
        a = _simulate(tmp_path, "a")
        b = _simulate(tmp_path, "b")
        assert (a / "dataset.csv").read_bytes() == (b / "dataset.csv").read_bytes()
        assert (a / "truth.json").read_bytes() == (b / "truth.json").read_bytes()
        c = _simulate(tmp_path, "c", seed="6")
        assert (a / "dataset.csv").read_bytes() != (c / "dataset.csv").read_bytes()

    def test_simulate_records_the_default_coef_sd(self, tmp_path):
        # the default scale is the one the draw used: giving it explicitly
        # draws the same data, and both runs record it
        sd = default_coef_sd(60, 8)
        runs = []
        for name, extra in (("default", []), ("explicit", ["--coef-sd", repr(sd)])):
            out = tmp_path / name
            args = ["simulate", "--n", "60", "--p", "8", "--k", "3", "--seed", "5"]
            assert main([*args, *extra, "--out", str(out)]) == 0
            truth = json.loads((out / "truth.json").read_text())
            runs.append(((out / "dataset.csv").read_bytes(), truth))
        (csv_default, default), (csv_explicit, explicit) = runs
        assert csv_default == csv_explicit
        assert default["beta"] == explicit["beta"]
        assert default["model"]["coef_sd"] == explicit["model"]["coef_sd"]
        assert default["model"]["coef_sd"] == 20.0 * math.sqrt(math.log(8) / 60)

    def test_simulate_manifest(self, tmp_path):
        out = _simulate(tmp_path, "m")
        doc = json.loads((out / "manifest.json").read_text())
        assert doc["command"] == "simulate"
        assert doc["config"]["seed"] == 5
        assert doc["config"]["n"] == 80
        assert sorted(doc["versions"]) == ["mirrorselect", "numpy", "python"]
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

    @pytest.mark.parametrize(
        "base, flag, key, value",
        [
            (["--kernel", "gaussian"], ["--bandwidth", "0.7"], "bandwidth", 0.7),
            ([], ["--init-scale", "0.5"], "init_scale", 0.5),
        ],
        ids=["bandwidth", "init-scale"],
    )
    def test_select_flag_reaches_its_setting(self, tmp_path, base, flag, key, value):
        sim = _simulate(tmp_path, "sim")
        docs = []
        for name, flags in (("default", base), ("flag", [*base, *flag])):
            out = tmp_path / name
            args = ["select", "--data", str(sim / "dataset.csv"), *SELECT_FLAGS, *flags]
            assert main([*args, "--out", str(out)]) == 0
            doc = json.loads((out / "result.json").read_text())
            del doc["timing"]
            docs.append(doc)
        manifest = json.loads((tmp_path / "flag" / "manifest.json").read_text())
        assert manifest["config"][key] == value
        assert docs[0] != docs[1]

    @pytest.mark.parametrize(
        "base, flagged",
        [
            ([], ["--model", "single_index", "--link", "f2"]),
            (["--model", "single_index", "--link", "f1"],
             ["--model", "single_index", "--link", "f3"]),
        ],
        ids=["model", "link"],
    )
    def test_simulate_model_flags_reach_the_draw(self, tmp_path, base, flagged):
        runs = []
        for name, flags in (("default", base), ("flag", flagged)):
            out = tmp_path / name
            args = ["simulate", "--n", "30", "--p", "4", "--k", "2", "--seed", "3", *flags]
            assert main([*args, "--out", str(out)]) == 0
            runs.append(out)
        default, flagged_out = runs
        config = json.loads((flagged_out / "manifest.json").read_text())["config"]
        assert (config["model"], config["link"]) == ("single_index", flagged[-1])
        truths = [json.loads((out / "truth.json").read_text()) for out in runs]
        model = truths[1]["model"]
        assert (model["kind"], model["link"]) == (config["model"], config["link"])
        # the same support and coefficients, passed through another link
        assert truths[0]["beta"] == truths[1]["beta"]
        assert (default / "dataset.csv").read_bytes() != (flagged_out / "dataset.csv").read_bytes()

    def test_single_index_without_link_exits_2(self, tmp_path, capsys):
        out = tmp_path / "nolink"
        code = main(["simulate", "--n", "30", "--p", "4", "--k", "1",
                     "--model", "single_index", "--out", str(out)])
        capsys.readouterr()
        assert code == 2
        record = json.loads((out / "error.json").read_text())
        assert record["error"] == "ConfigurationError"
        assert "unknown link None" in record["message"]
        assert sorted(path.name for path in out.iterdir()) == ["error.json"]

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

    @pytest.mark.parametrize(
        "command, bad",
        [("select", "data"), ("roc", "data"), ("select", "truth"), ("roc", "truth")],
        ids=["select", "roc", "select-truth", "roc-truth"],
    )
    def test_non_utf8_data_exits_3(self, tmp_path, capsys, command, bad):
        data = tmp_path / "data.csv"
        truth = tmp_path / "truth.json"
        data.write_bytes(b"a,b,y\n1,2,3\n4,%s,6\n7,8,9\n" % (b"\xff" if bad == "data" else b"5"))
        truth.write_bytes(b'{"support": [0], "x": "%s"}' % (b"\xff" if bad == "truth" else b"a"))
        out = tmp_path / "x"
        code = main([command, "--data", str(data), "--truth", str(truth),
                     *SELECT_FLAGS, "--out", str(out)])
        capsys.readouterr()
        assert code == 3
        record = json.loads((out / "error.json").read_text())
        assert record["error"] == "InvalidDataError"
        bad_path = data if bad == "data" else truth
        assert f"{bad_path}: not UTF-8 text: cannot decode byte 0xff" in record["message"]
        assert sorted(os.listdir(out)) == ["error.json"]

    @pytest.mark.parametrize(
        "command, support, message",
        [
            ("select", [0, 9], "truth indices out of range: [9]"),
            ("roc", [0, 9], "truth indices out of range"),
            ("roc", [0, 1, 2, 3, 4],
             "truth must be a nonempty proper subset of the features"),
        ],
        ids=["select-range", "roc-range", "roc-all-features"],
    )
    def test_bad_truth_exits_3_before_the_fit(self, tmp_path, capsys, monkeypatch,
                                              command, support, message):
        sim = _simulate(tmp_path, "sim11")

        def no_fit(*args):
            raise AssertionError("the selection ran before the truth was checked")

        monkeypatch.setattr("mirrorselect.cli._run_selection", no_fit)
        write_json({"support": support}, tmp_path / "truth.json")
        out = tmp_path / "bad-truth"
        code = main([command, "--data", str(sim / "dataset.csv"),
                     "--truth", str(tmp_path / "truth.json"), *SELECT_FLAGS,
                     "--out", str(out)])
        capsys.readouterr()
        assert code == 3
        record = json.loads((out / "error.json").read_text())
        assert record["message"] == message
        # nothing was fitted, so nothing but the error was written
        assert sorted(os.listdir(out)) == ["error.json"]

    @pytest.mark.parametrize("command, written", [("select", "metrics.json"), ("roc", "roc.json")])
    def test_truth_with_byte_order_mark_is_read(self, tmp_path, capsys, command, written):
        # as on the CSV, a byte order mark is not part of the truth document
        sim = _simulate(tmp_path, "sim12")
        truth = tmp_path / "truth.json"
        truth.write_bytes(b'\xef\xbb\xbf{"support": [0]}')
        out = tmp_path / "bom"
        code = main([command, "--data", str(sim / "dataset.csv"), "--truth", str(truth),
                     *SELECT_FLAGS, "--out", str(out)])
        capsys.readouterr()
        assert code == 0
        assert (out / written).exists()

    @pytest.mark.parametrize(
        "command, flag, value, message",
        [
            ("benchmark", "--noise-sd", "nan", "noise_sd must be nonnegative and finite"),
            ("benchmark", "--coef-sd", "inf", "coef_sd must be positive and finite"),
            ("benchmark", "--rho", "nan", "rho must be finite"),
            ("simulate", "--rho", "nan", "rho must be finite"),
        ],
        ids=["benchmark-noise-sd", "benchmark-coef-sd", "benchmark-rho", "simulate-rho"],
    )
    def test_non_finite_setting_exits_2_before_any_file(self, tmp_path, capsys,
                                                        command, flag, value, message):
        out = tmp_path / "x"
        extra = ["--reps", "2", "--hidden", "4", "--epochs", "2"] if command == "benchmark" else []
        code = main([command, "--n", "30", "--p", "4", "--k", "1", *extra,
                     flag, value, "--out", str(out)])
        capsys.readouterr()
        assert code == 2
        record = json.loads((out / "error.json").read_text())
        assert record["error"] == "ConfigurationError"
        assert message in record["message"]
        assert sorted(os.listdir(out)) == ["error.json"]

    def test_too_few_rows_exits_3_for_every_method(self, tmp_path, capsys):
        # the row count is a property of the data, whichever stage meets it first
        data = _write(tmp_path / "two.csv", "a,b,c,y\n1,2,3,4\n5,6,7,9\n")
        for method in ("sngm", "ingm", "s_sngm", "s_ingm"):
            out = tmp_path / method
            code = main(["select", "--data", str(data), *SELECT_FLAGS,
                         "--method", method, "--out", str(out)])
            capsys.readouterr()
            assert code == 3, method
            record = json.loads((out / "error.json").read_text())
            assert record["error"] == "InvalidDataError"
            assert sorted(os.listdir(out)) == ["error.json"]

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

    def test_divergent_training_stderr_is_one_json_line(self, tmp_path):
        # a fresh interpreter, so numpy's warnings reach stderr unfiltered
        sim = _simulate(tmp_path, "sim8")
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run(
            [sys.executable, "-m", "mirrorselect.cli", "select",
             "--data", str(sim / "dataset.csv"), "--method", "ingm",
             "--activation", "relu", "--hidden", "8", "--epochs", "20",
             "--batch-size", "16", "--learning-rate", "5",
             "--out", str(tmp_path / "div")],
            env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True,
            timeout=300,
        )
        assert proc.returncode == 5
        lines = proc.stderr.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "TrainingError"

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--q", "1.5"], "q must lie in"),
            (["--q", "0.2", "--method", "s_sngm", "--m-keep", "9"], "m_keep must lie in"),
            (["--q", "0.2", "--n", "2"], "sngm needs at least 3 rows, got n=2"),
            (["--q", "0.2", "--n", "5", "--method", "s_sngm"],
             "s_sngm needs at least 6 rows, got n=5"),
            (["--q", "0.2", "--k", "6"], "k_signals=6 exceeds p=5"),
            (["--q", "0.2", "--p", "1", "--k", "1"],
             "default coefficient scale needs p >= 2"),
        ],
        ids=[
            "q", "m_keep", "n-mirroring", "n-screening", "k-above-p", "coef-sd-p1",
        ],
    )
    def test_benchmark_rejects_before_any_rep(self, tmp_path, capsys, flags, message):
        out = tmp_path / "bench"
        code = main(
            [
                "benchmark", "--n", "30", "--p", "5", "--k", "2", "--reps", "2",
                "--hidden", "4", "--epochs", "2", *flags, "--out", str(out),
            ]
        )
        assert code == 2
        assert message in json.loads(capsys.readouterr().err)["message"]
        assert not (out / "summary.json").exists()

    def test_benchmark_with_no_completed_rep_writes_null_means(self, tmp_path, capsys):
        # training diverges, so every repetition fails
        out = tmp_path / "bench"
        code = main(
            [
                "benchmark", "--n", "30", "--p", "4", "--k", "1", "--reps", "2",
                "--method", "sngm", "--q", "0.2", "--hidden", "8",
                "--activation", "relu", "--epochs", "20",
                "--learning-rate", "1e8", "--out", str(out),
            ]
        )
        assert code == 0
        assert "no rep completed" in capsys.readouterr().out
        summary = json.loads((out / "summary.json").read_text())
        assert summary["completed"] == 0
        assert len(summary["failures"]) == 2
        for key in ("mean_fdp", "se_fdp", "mean_power", "se_power", "mean_fpr"):
            assert summary[key] is None

    def test_one_rep_benchmark_writes_zero_standard_errors(self, tmp_path, capsys):
        out = tmp_path / "bench1"
        code = main(["benchmark", "--n", "30", "--p", "4", "--k", "1", "--reps", "1",
                     "--q", "0.2", "--hidden", "4", "--epochs", "2", "--out", str(out)])
        capsys.readouterr()
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["completed"] == 1
        assert (summary["se_fdp"], summary["se_power"]) == (0.0, 0.0)

    def test_out_under_a_regular_file_exits_2(self, tmp_path, capsys):
        blocker = _write(tmp_path / "file", "")
        code = main(["simulate", "--n", "10", "--p", "3", "--k", "1",
                     "--out", str(blocker / "sub")])
        err = capsys.readouterr().err
        assert code == 2
        assert "Traceback" not in err
        record = json.loads(err)
        assert record["error"] == "ConfigurationError"
        assert "cannot create output directory" in record["message"]
        assert blocker.read_text() == ""
        assert not (blocker / "sub" / "error.json").exists()

    def test_truth_that_is_a_directory_exits_3(self, tmp_path, capsys):
        sim = _simulate(tmp_path, "sim13")
        out = tmp_path / "dir-truth"
        code = main(["select", "--data", str(sim / "dataset.csv"), "--truth", str(tmp_path),
                     *SELECT_FLAGS, "--out", str(out)])
        capsys.readouterr()
        assert code == 3
        record = json.loads((out / "error.json").read_text())
        assert record["error"] == "InvalidDataError"
        assert record["message"].startswith(f"cannot read {tmp_path}")
        assert sorted(os.listdir(out)) == ["error.json"]

    def test_module_runs_as_a_script(self):
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run(
            [sys.executable, "-m", "mirrorselect.cli", "--version"],
            env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True,
            timeout=120,
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == "0.1.0"

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
