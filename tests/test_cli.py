import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import logitkit.cli as cli
from logitkit import FitConfig
from logitkit.cli import (
    CsvSpec,
    DataError,
    UsageError,
    cmd_cv,
    cmd_curve,
    cmd_fit,
    cmd_test,
    ingest,
    main,
)

CV_FIXTURE = """y,thickness,area
0,0.932322,-0.134842
0,-1.097771,1.209314
0,-1.520061,-0.365906
0,0.087537,-0.673526
0,-0.312201,0.651751
0,0.101883,2.118328
0,-0.174710,-0.053022
0,1.177655,1.034070
1,2.557064,0.536540
1,1.856353,-0.251036
1,0.904843,0.196385
1,1.627573,1.964091
1,1.016507,0.730493
1,2.166560,0.182080
"""

SEPARABLE = "y,x\n0,-2\n0,-2\n1,2\n1,2\n"
INTERCEPT_ONLY = "y\n1\n1\n1\n0\n"


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestIngest:
    def test_two_row_literal_parse(self, tmp_path):
        path = write(tmp_path, "mini.csv", "y,x\n1,2.0\n0,-1.0\n")
        data = ingest(CsvSpec(path))
        assert np.array_equal(data.design, [[1.0, 2.0], [1.0, -1.0]])
        assert np.array_equal(data.labels, [1.0, 0.0])
        assert data.feature_names == ("intercept", "x")

    def test_label_value_two_names_row_and_column(self, tmp_path):
        path = write(tmp_path, "bad.csv", "y,x\n2,1.0\n0,2.0\n")
        with pytest.raises(DataError, match=r"row 1, column 'y'"):
            ingest(CsvSpec(path))

    def test_fourteen_rows_two_features(self, tmp_path):
        path = write(tmp_path, "cv.csv", CV_FIXTURE)
        data = ingest(CsvSpec(path))
        assert data.n == 14
        assert data.design.shape == (14, 3)
        assert data.feature_names == ("intercept", "thickness", "area")

    def test_unparseable_cell_names_row_and_column(self, tmp_path):
        path = write(tmp_path, "bad.csv", "y,x\n1,2.0\n0,oops\n")
        with pytest.raises(DataError, match=r"row 2, column 'x'"):
            ingest(CsvSpec(path, feature_columns=("x",)))

    def test_non_finite_feature_rejected(self, tmp_path):
        path = write(tmp_path, "bad.csv", "y,x\n1,inf\n0,1.0\n")
        with pytest.raises(DataError, match=r"row 1, column 'x'"):
            ingest(CsvSpec(path, feature_columns=("x",)))

    def test_missing_file(self):
        with pytest.raises(DataError, match="cannot read"):
            ingest(CsvSpec("does-not-exist.csv"))

    def test_empty_and_headerless_files(self, tmp_path):
        with pytest.raises(DataError, match="empty"):
            ingest(CsvSpec(write(tmp_path, "empty.csv", "")))
        with pytest.raises(DataError, match="no data rows"):
            ingest(CsvSpec(write(tmp_path, "hdr.csv", "y,x\n")))

    def test_default_features_skip_non_numeric_columns(self, tmp_path):
        path = write(tmp_path, "named.csv", "id,y,x\nalice,1,2.0\nbob,0,-1.0\n")
        data = ingest(CsvSpec(path))
        assert data.feature_names == ("intercept", "x")

    def test_explicit_feature_selection_and_order(self, tmp_path):
        path = write(tmp_path, "multi.csv", "y,a,b\n1,1.0,10.0\n0,2.0,20.0\n")
        data = ingest(CsvSpec(path, feature_columns=("b", "a")))
        assert data.feature_names == ("intercept", "b", "a")
        assert np.array_equal(data.design[:, 1], [10.0, 20.0])

    def test_unknown_columns_are_usage_errors(self, tmp_path):
        path = write(tmp_path, "mini.csv", "y,x\n1,2.0\n0,-1.0\n")
        with pytest.raises(UsageError, match="label column"):
            ingest(CsvSpec(path, label_column="nope"))
        with pytest.raises(UsageError, match="not found"):
            ingest(CsvSpec(path, feature_columns=("nope",)))
        with pytest.raises(UsageError, match="cannot also be a feature"):
            CsvSpec(path, feature_columns=("y",))

    def test_no_header_synthesizes_column_names(self, tmp_path):
        path = write(tmp_path, "raw.csv", "1,2.0\n0,-1.0\n")
        data = ingest(CsvSpec(path, label_column="col1", has_header=False))
        assert data.feature_names == ("intercept", "col2")
        assert np.array_equal(data.labels, [1.0, 0.0])

    @pytest.mark.parametrize("argv", [[], ["--features", "intercept"]], ids=["auto", "explicit"])
    def test_a_column_named_intercept_is_a_data_error(self, tmp_path, capsys, argv):
        # its coefficient and the intercept's would share one key in the fit json
        path = write(tmp_path, "intercept.csv", "intercept,x,y\n1,0.5,0\n2,-1,1\n3,2,1\n")
        assert main(["fit", path, *argv]) == 2
        assert capsys.readouterr() == ("", "error: duplicate feature names: ['intercept']\n")

    def test_row_order_preserved(self, tmp_path):
        path = write(tmp_path, "ord.csv", "y,x\n0,5\n1,6\n0,7\n")
        data = ingest(CsvSpec(path))
        assert np.array_equal(data.design[:, 1], [5.0, 6.0, 7.0])


class TestCmdFit:
    def test_intercept_only_payload(self, tmp_path):
        path = write(tmp_path, "icept.csv", INTERCEPT_ONLY)
        output = cmd_fit(CsvSpec(path))
        payload = output.payload
        assert payload["coef"]["intercept"] == pytest.approx(math.log(3.0), abs=1e-4)
        assert payload["status"] == "Converged"
        assert payload["deviance"] == -2.0 * payload["log_lik"]

    def test_json_payload_round_trips(self, tmp_path):
        path = write(tmp_path, "icept.csv", INTERCEPT_ONLY)
        output = cmd_fit(CsvSpec(path))
        assert json.loads(output.render()) == output.payload

    def test_separable_fit_is_a_result_not_a_crash(self, tmp_path, capsys):
        path = write(tmp_path, "sep.csv", SEPARABLE)
        assert main(["fit", str(path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] in ("Converged", "MaxIterations", "Diverged")

    def test_iteration_cap_reported_with_exit_zero(self, tmp_path, capsys):
        path = write(tmp_path, "sep.csv", SEPARABLE)
        assert main(["fit", str(path), "--max-iter", "3"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "MaxIterations"

    def test_default_tol_matches_explicit_flag(self, tmp_path, capsys):
        path = write(tmp_path, "icept.csv", INTERCEPT_ONLY)
        assert main(["fit", path]) == 0
        first = capsys.readouterr().out
        assert main(["fit", path, "--tol", "0.001"]) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_deterministic_output(self, tmp_path, capsys):
        path = write(tmp_path, "cv.csv", CV_FIXTURE)
        assert main(["fit", path]) == 0
        first = capsys.readouterr().out
        assert main(["fit", path]) == 0
        assert capsys.readouterr().out == first

    def test_json_and_tsv_agree_numerically(self, tmp_path):
        path = write(tmp_path, "cv.csv", CV_FIXTURE)
        json_payload = cmd_fit(CsvSpec(path)).payload
        tsv = cmd_fit(CsvSpec(path), out="tsv").render()
        values = dict(line.split("\t") for line in tsv.splitlines())
        assert float(values["coef.thickness"]) == json_payload["coef"]["thickness"]
        assert float(values["log_lik"]) == json_payload["log_lik"]
        assert (
            float(values["covariance.area.thickness"])
            == json_payload["covariance"]["area"]["thickness"]
        )


class TestCmdTest:
    def test_zero_column_statistic(self, tmp_path):
        rows = ["y,x,z"]
        rng = np.random.default_rng(51)
        for _ in range(40):
            x = rng.standard_normal()
            y = int(rng.random() < 1 / (1 + math.exp(-(0.3 + 0.8 * x))))
            rows.append(f"{y},{x:.6f},0.0")
        path = write(tmp_path, "zero.csv", "\n".join(rows) + "\n")
        payload = cmd_test(CsvSpec(path), ["x"]).payload
        assert payload["df"] == 1
        assert abs(payload["statistic"]) <= 1e-6

    def test_reduced_must_be_strict_subset(self, tmp_path):
        path = write(tmp_path, "cv.csv", CV_FIXTURE)
        with pytest.raises(UsageError, match="strict subset"):
            cmd_test(CsvSpec(path), ["thickness", "area"])
        with pytest.raises(UsageError, match="not among features"):
            cmd_test(CsvSpec(path), ["nope"])

    def test_intercept_only_reduced_model(self, tmp_path):
        path = write(tmp_path, "cv.csv", CV_FIXTURE)
        payload = cmd_test(CsvSpec(path), []).payload
        assert payload["df"] == 2
        assert payload["reduced_features"] == ["intercept"]
        assert payload["statistic"] >= -1e-9

    def test_non_convergence_exits_two_naming_fit(self, tmp_path, capsys):
        path = write(tmp_path, "cv.csv", CV_FIXTURE)
        code = main(["test", path, "--reduced", "thickness", "--max-iter", "1"])
        assert code == 2
        assert "full-model" in capsys.readouterr().err


class TestCmdCv:
    def test_fourteen_subject_fixture(self, tmp_path):
        path = write(tmp_path, "cv.csv", CV_FIXTURE)
        payload = cmd_cv(CsvSpec(path)).payload
        assert payload["n"] == 14
        assert sum(payload["per_subject_errors"]) == 4
        assert payload["error_rate"] == pytest.approx(4 / 14, abs=1e-15)
        assert payload["press_q"]["q_statistic"] == pytest.approx(2.571, abs=1e-3)
        assert payload["press_q"]["p_value"] == pytest.approx(0.109, abs=1e-3)

    def test_separated_four_points(self, tmp_path):
        path = write(tmp_path, "sep.csv", SEPARABLE)
        payload = cmd_cv(CsvSpec(path)).payload
        assert payload["error_rate"] == 0.0
        assert payload["discriminant_power"] == 1.0

    def test_single_class_file_is_data_error(self, tmp_path, capsys):
        path = write(tmp_path, "one.csv", "y,x\n1,1\n1,2\n1,3\n")
        assert main(["cv", path]) == 2
        assert "both classes" in capsys.readouterr().err

    def test_bad_threshold_is_usage_error(self, tmp_path):
        path = write(tmp_path, "cv.csv", CV_FIXTURE)
        with pytest.raises(UsageError):
            cmd_cv(CsvSpec(path), FitConfig(), threshold=1.5)


class TestCmdPressqAndCurve:
    def test_pressq_study_point(self, capsys):
        assert main(["pressq", "--n", "28", "--rate", "0.85"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert 1.9e-4 < payload["p_value"] < 2.3e-4

    def test_pressq_rejects_bad_rate(self, capsys):
        assert main(["pressq", "--n", "28", "--rate", "1.5"]) == 1

    def test_curve_table_shape_and_reference_rows(self):
        payload = cmd_curve(28).payload
        rows = payload["rows"]
        assert len(rows) == 1000
        by_power = {p: v for p, v in rows}
        assert by_power[0.5] == 1.0
        assert 1.9e-4 <= by_power[0.85] <= 2.3e-4

    def test_curve_tsv_is_two_columns(self):
        tsv = cmd_curve(28, out="tsv").render()
        lines = tsv.splitlines()
        assert len(lines) == 1000
        power, pval = lines[499].split("\t")
        assert float(power) == 0.5
        assert float(pval) == 1.0

    def test_curve_monotone_comparison_across_n(self):
        small = cmd_curve(28).payload["rows"]
        large = cmd_curve(1000).payload["rows"]
        for (p1, v1), (p2, v2) in zip(small, large):
            if p1 > 0.5:
                assert v2 <= v1

    @pytest.mark.parametrize("argv", [["pressq", "--rate", "0.3"], ["curve"]], ids=["pressq", "curve"])
    def test_n_beyond_float_range_is_usage_error(self, capsys, argv):
        assert main([*argv, "--n", "1" + "0" * 400]) == 1
        assert capsys.readouterr().err == "error: n is too large to convert to float\n"


class TestCmdPredict:
    def test_predict_matches_library(self, tmp_path, capsys):
        train = write(tmp_path, "cv.csv", CV_FIXTURE)
        assert main(["fit", train]) == 0
        model_path = tmp_path / "model.json"
        model_path.write_text(capsys.readouterr().out, encoding="utf-8")

        new = write(tmp_path, "new.csv", "thickness,area\n2.0,0.5\n-1.0,0.0\n")
        assert main(["predict", new, "--model", str(model_path)]) == 0
        payload = json.loads(capsys.readouterr().out)

        model = json.loads(model_path.read_text(encoding="utf-8"))
        beta = np.array([model["coef"][nm] for nm in model["feature_names"]])
        scores = np.array([[1.0, 2.0, 0.5], [1.0, -1.0, 0.0]]) @ beta
        expected = 1 / (1 + np.exp(-scores))
        assert np.allclose(payload["probabilities"], expected, atol=1e-12)
        assert payload["labels"] == [int(s > 0) for s in scores]

    def test_predict_missing_model_column_is_data_error(self, tmp_path, capsys):
        train = write(tmp_path, "cv.csv", CV_FIXTURE)
        assert main(["fit", train]) == 0
        model_path = tmp_path / "model.json"
        model_path.write_text(capsys.readouterr().out, encoding="utf-8")

        new = write(tmp_path, "new.csv", "thickness\n2.0\n")
        assert main(["predict", new, "--model", str(model_path)]) == 2

    def test_predict_bad_model_file(self, tmp_path):
        bad = tmp_path / "model.json"
        bad.write_text("{not json", encoding="utf-8")
        new = write(tmp_path, "new.csv", "x\n1.0\n")
        assert main(["predict", new, "--model", str(bad)]) == 2

    @pytest.mark.parametrize(
        "payload, part",
        [
            ([1, 2], "feature_names"),
            ({"feature_names": ["intercept", ["x"]], "coef": {}}, "feature_names"),
            ({"feature_names": ["intercept", "x"], "coef": {"intercept": "abc", "x": 1.0}}, "coef"),
            ({"feature_names": ["intercept", "x"], "coef": {"intercept": None, "x": 1.0}}, "coef"),
            ({"feature_names": ["intercept", "x"], "coef": {"intercept": 10**400, "x": 1.0}},
             "coef"),
            ({"feature_names": ["intercept", "x"], "coef": [0.5, 1.0]}, "coef"),
            ({"feature_names": ["intercept", "x"], "coef": {"intercept": 0.5}}, "coef"),
            ({"feature_names": ["intercept", "x", "x"], "coef": {"intercept": 0, "x": 1}},
             "feature_names"),
        ],
        ids=["list", "list name", "string coef", "null coef", "huge int coef", "coef list",
             "coef missing", "repeated name"],
    )
    def test_malformed_model_json_is_data_error(self, tmp_path, capsys, payload, part):
        model = write(tmp_path, "model.json", json.dumps(payload))
        new = write(tmp_path, "new.csv", "x\n1.0\n")
        assert main(["predict", new, "--model", model]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: model file {model}: missing or malformed {part}\n"


class TestExitCodes:
    def test_unknown_flag_is_usage_error(self, capsys):
        assert main(["fit", "whatever.csv", "--bogus"]) == 1

    def test_missing_subcommand_is_usage_error(self, capsys):
        assert main([]) == 1

    def test_unknown_label_column_is_usage_error(self, tmp_path, capsys):
        path = write(tmp_path, "mini.csv", "y,x\n1,2.0\n0,-1.0\n")
        assert main(["fit", path, "--label-col", "nope"]) == 1

    def test_label_validation_failure_is_data_error(self, tmp_path, capsys):
        path = write(tmp_path, "bad.csv", "y,x\n2,1.0\n")
        assert main(["fit", path]) == 2

    def test_negative_tol_is_usage_error(self, tmp_path, capsys):
        path = write(tmp_path, "mini.csv", "y,x\n1,2.0\n0,-1.0\n")
        assert main(["fit", path, "--tol", "-1"]) == 1


MODEL = {"feature_names": ["intercept", "x"], "coef": {"intercept": 0.25, "x": -1.5}}


class TestSharedCsvReader:
    def test_predict_bad_delimiter_is_usage_error(self, tmp_path, capsys):
        model = write(tmp_path, "model.json", json.dumps(MODEL))
        new = write(tmp_path, "new.csv", "x\n1.0\n")
        assert main(["predict", new, "--model", model, "--delimiter", "ab"]) == 1
        assert capsys.readouterr() == ("", "error: delimiter must be a single character\n")

    def test_duplicate_features_are_usage_errors(self, tmp_path, capsys):
        path = write(tmp_path, "cv.csv", CV_FIXTURE)
        with pytest.raises(UsageError, match=r"duplicate feature columns: \['area', 'thickness'\]"):
            CsvSpec(path, feature_columns=("area", "thickness", "area", "thickness"))
        assert main(["fit", path, "--features", "thickness,area,thickness"]) == 1
        assert capsys.readouterr() == ("", "error: duplicate feature columns: ['thickness']\n")

    def test_byte_order_mark_gives_identical_output(self, tmp_path, capsys):
        model = write(tmp_path, "model.json", json.dumps(MODEL))
        new = "x\n2.0\n-1.0\n0.5\n"
        outputs = {}
        for encoding in ("utf-8", "utf-8-sig"):
            train = tmp_path / f"train-{encoding}.csv"
            train.write_text(CV_FIXTURE, encoding=encoding)
            rows = tmp_path / f"new-{encoding}.csv"
            rows.write_text(new, encoding=encoding)
            for argv in (["fit", str(train)], ["cv", str(train)],
                         ["predict", str(rows), "--model", model]):
                assert main(argv) == 0
                captured = capsys.readouterr()
                assert captured.err == ""
                outputs.setdefault(argv[0], []).append(captured.out)
        assert (tmp_path / "train-utf-8-sig.csv").read_bytes().startswith(b"\xef\xbb\xbf")
        for name, (plain, with_bom) in outputs.items():
            assert plain == with_bom, name


class TestDispatch:
    """main looks each cmd_* function up on the module when it runs, so a
    patched module global (as a tracing wrapper installs) is the one called."""

    @pytest.mark.parametrize(
        "name, argv, expected",
        [
            ("cmd_fit", ["fit", "d.csv"], (CsvSpec("d.csv"), FitConfig(), "json")),
            (
                "cmd_predict",
                ["predict", "n.csv", "--model", "m.json", "--threshold", "0.3", "--no-header"],
                ("m.json", "n.csv", 0.3, ",", False, "json"),
            ),
            (
                "cmd_cv",
                ["cv", "d.csv", "--features", "a, b", "--tol", "0.01", "--format", "tsv"],
                (CsvSpec("d.csv", feature_columns=("a", "b")), FitConfig(grad_tol=0.01), 0.5, "tsv"),
            ),
        ],
    )
    def test_main_calls_the_patched_module_global(self, monkeypatch, capsys, name, argv, expected):
        calls = []

        def patched(*args):
            calls.append(args)
            return cli.RunOutput("json", {"patched": name}, name)

        monkeypatch.setattr(cli, name, patched)
        assert main(argv) == 0
        assert calls == [expected]
        assert json.loads(capsys.readouterr().out) == {"patched": name}


def test_curve_with_a_grid_too_large_to_allocate_is_usage_error(capsys):
    assert main(["curve", "--n", "10", "--grid-points", str(10**17)]) == 1
    assert capsys.readouterr() == (
        "", "error: grid_points is too large to tabulate, got 100000000000000000\n")


@pytest.mark.parametrize(
    "data",
    [b"y,x\n1,2\n0,3\n1,\xff\n", b"y,\xff\n1,2\n0,3\n"],
    ids=["data row", "header"],
)
def test_a_byte_outside_utf8_is_data_error(tmp_path, capsys, data):
    path = tmp_path / "bad.csv"
    path.write_bytes(data)
    assert main(["fit", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot decode {path} as UTF-8: ")
    assert captured.err.count("\n") == 1


def test_predict_with_a_directory_as_model_is_data_error(tmp_path, capsys):
    new = write(tmp_path, "new.csv", "x\n1.0\n")
    assert main(["predict", new, "--model", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot read model file {tmp_path}: ")


def test_predict_with_an_infinite_coefficient_is_data_error(tmp_path, capsys):
    # json reads 1e999 as inf
    model = write(tmp_path, "model.json",
                  '{"feature_names": ["intercept", "x"], "coef": {"intercept": 1e999, "x": 1}}')
    new = write(tmp_path, "new.csv", "x\n1.0\n")
    assert main(["predict", new, "--model", model]) == 2
    assert capsys.readouterr() == ("", f"error: model file {model}: coefficients must be finite\n")


@pytest.mark.parametrize(
    "data, offset",
    [(b"x,y\n" + b"1,0\n" * 5000 + b"\xff,1\n", 20_004), (b"\xef\xbb\xbfx,y\n1,\xff\n", 9)],
    ids=["past the first 8 KiB", "after a byte-order mark"],
)
def test_a_decode_error_gives_the_byte_offset_in_the_file(tmp_path, capsys, data, offset):
    path = tmp_path / "bad.csv"
    path.write_bytes(data)
    assert data[offset] == 0xFF
    assert main(["fit", str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: cannot decode {path} as UTF-8: 'utf-8' codec "
                                   f"can't decode byte 0xff in position {offset}: "
                                   "invalid start byte\n")


@pytest.mark.parametrize("value", ['"1.5"', '" 2 "', '"1_0"', "true", "false"])
def test_a_coefficient_that_is_not_a_json_number_is_data_error(tmp_path, capsys, value):
    text = '{"feature_names": ["intercept", "x"], "coef": {"intercept": 1, "x": %s}}'
    model = write(tmp_path, "model.json", text % value)
    new = write(tmp_path, "new.csv", "x\n1.0\n")
    assert main(["predict", new, "--model", model]) == 2
    assert capsys.readouterr() == ("", f"error: model file {model}: missing or malformed coef\n")
    write(tmp_path, "model.json", text % "0")  # a JSON integer is a number
    assert main(["predict", new, "--model", model]) == 0


def test_an_intercept_only_design_reads_alike_on_both_readers(tmp_path, capsys, monkeypatch):
    # auto-detection keeps no column of id, so each reader hands back an (n, 0) table
    path = write(tmp_path, "ionly.csv", "id,y\na,0\nb,1\nc,1\nd,0\n")
    model = write(tmp_path, "model.json",
                  json.dumps({"feature_names": ["intercept"], "coef": {"intercept": 0.25}}))
    calls = [["fit", path], ["fit", path, "--features", ""], ["cv", path],
             ["predict", path, "--model", model]]
    csv_reads = []
    read_rows = cli._read_csv_rows
    monkeypatch.setattr(cli, "_read_csv_rows",
                        lambda spec, data: csv_reads.append(spec) or read_rows(spec, data))
    outputs = []
    for numpy_off in (False, True):
        if numpy_off:
            monkeypatch.setattr(cli, "_loadtxt_columns", lambda *_: None)
        for argv in calls:
            assert main(argv) == 0, argv
            captured = capsys.readouterr()
            assert captured.err == "", argv
            outputs.append(captured.out)
        assert len(csv_reads) == (len(calls) if numpy_off else 0)
    assert outputs[:len(calls)] == outputs[len(calls):]
    for argv, out in zip(calls, outputs):
        if argv[0] != "cv":
            assert json.loads(out)["feature_names"] == ["intercept"], argv
    assert json.loads(outputs[2])["n"] == 4


def test_a_closed_stdout_exits_141_with_nothing_on_stderr(tmp_path):
    # 128 + SIGPIPE, the status a shell reports for `yes | head`, and no traceback
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    logitkit = [sys.executable, "-m", "logitkit"]
    path = write(tmp_path, "smoke.csv", "x,y\n1,0\n2,1\n3,0\n4,1\n")
    read_end, write_end = os.pipe()
    os.close(read_end)  # stdout is closed before fit writes
    with open(write_end, "wb") as closed:
        fit = subprocess.run([*logitkit, "fit", path], stdout=closed, stderr=subprocess.PIPE,
                             env=env, timeout=120)
    assert (fit.returncode, fit.stderr) == (141, b"")
    # a payload larger than the pipe's buffer, whose reader leaves after 20 bytes
    with subprocess.Popen([*logitkit, "curve", "--n", "200", "--grid-points", "50000"],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as curve:
        assert len(curve.stdout.read(20)) == 20
        curve.stdout.close()
        assert curve.communicate(timeout=120)[1] == b""
        assert curve.returncode == 141
