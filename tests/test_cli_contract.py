"""The command line's contract over seeded, generated input.

Whatever the argv, CSV bytes or model json, `main` returns 0, 1 or 2 and
raises nothing, warnings included; an exit of 1 or 2 prints nothing on
stdout and one stderr line that starts "error: "; json output is strict
JSON. Every generated CSV is also read with numpy's reader switched off, and
the csv path must give the same exit code, stdout and stderr."""

import contextlib
import csv
import io
import json
import random
import warnings
from unittest import mock

import pytest

from logitkit import cli

FEATURES = ["x", "a", "b"]
NUMBERS = ["0", "1", "-2.5", "3e-4", " 7 ", "1e300", "-1e300", "1e-300", "0.5", "12"]
BAD_CELLS = ["", "NA", "nan", "inf", "-inf", "1e999", "abc", "0x1", '"1.5"', '"1,5"', "2"]
# each flag's usual values, then after None values that are usage errors
FLAG_VALUES = {
    "--label-col": ["y", "y", "x", None, "z", ""],
    "--delimiter": [",", None, ";", "\t", "ab", ""],
    "--tol": ["1e-3", "1e-8", "0.5", "inf", None, "0", "-1", "nan", "abc"],
    "--max-iter": ["100", "5", "1", None, "0", "-3", "2.5", "x"],
    "--threshold": ["0.5", "0.3", "0.999", None, "0", "1", "nan", "-0.1", "2"],
    "--n": ["1", "10", "28", "1000", None, "0", "-5", "1" + "0" * 400, "abc"],
    "--rate": ["0.5", "0.15", "0", "1", None, "1.5", "-0.1", "nan"],
    "--grid-points": ["2", "5", "1000", "5000", None, "1", "0", "-1", "x"],
    "--format": ["json", "tsv", None, "xml"],
}
COMMAND_FLAGS = {
    "fit": ["--label-col", "--features", "--delimiter", "--no-header", "--tol", "--max-iter"],
    "test": ["--label-col", "--features", "--delimiter", "--no-header", "--tol", "--max-iter",
             "--reduced"],
    "cv": ["--label-col", "--features", "--delimiter", "--no-header", "--tol", "--max-iter",
           "--threshold"],
    "predict": ["--model", "--threshold", "--delimiter", "--no-header"],
    "pressq": ["--n", "--rate"],
    "curve": ["--n", "--grid-points"],
}
CSV_COMMANDS = ("fit", "test", "cv", "predict")


def random_number(rng):
    if rng.random() < 0.5:
        return rng.choice(NUMBERS)
    return repr(rng.gauss(0.0, 3.0))


def random_columns(rng, pool):
    """Some of the names in pool, in random order, and now and then one that
    is not there."""
    names = rng.sample(pool, rng.randint(0, len(pool)))
    return names + ["z"] if rng.random() < 0.1 else names


def random_csv(rng, delimiter):
    """The column names and CSV bytes of a table with label y and some of
    FEATURES: mostly clean, sometimes with bad cells, quoted cells, blank
    lines, rows of the wrong width, no header, a column named intercept or
    no label, CRLF, a byte-order mark or a byte that is not UTF-8."""
    names = ["y", *rng.sample(FEATURES, rng.randint(0, 3))]
    rng.shuffle(names)
    if rng.random() < 0.1:
        names[rng.randrange(len(names))] = "intercept"
    bad_rate = rng.choice([0.0, 0.0, 0.0, 0.05, 0.3])
    lines = [delimiter.join(names)] if rng.random() < 0.95 else []
    for _ in range(rng.randint(1, 12)):
        if rng.random() < 0.05:
            lines.append("")
        cells = [rng.choice(BAD_CELLS) if rng.random() < bad_rate
                 else rng.choice("01") if name == "y" else random_number(rng)
                 for name in names]
        if rng.random() < 0.03:
            cells = cells[:-1] if rng.random() < 0.5 else cells + ["1"]
        lines.append(delimiter.join(cells))
    text = (rng.choice(["\n", "\n", "\r\n"])).join(lines) + rng.choice(["\n", "\n", ""])
    data = text.encode()
    if rng.random() < 0.05:
        data = b"\xef\xbb\xbf" + data
    if rng.random() < 0.02:
        cut = rng.randrange(len(data) + 1)
        data = data[:cut] + b"\xff" + data[cut:]
    return names, data


def random_model(rng, features):
    """Model json text: mostly a valid model over some of the file's features,
    with a huge coefficient now and then, so a score can overflow; sometimes
    malformed."""
    names = ["intercept", *random_columns(rng, features)]
    coef = {name: rng.choice([rng.gauss(0.0, 2.0), 0.0, 1e300, -1e300]) for name in names}
    defect = rng.random()
    if defect < 0.05:
        return "{not json"
    if defect < 0.1:
        return json.dumps({"feature_names": names})
    if defect < 0.15:
        return json.dumps({"feature_names": [*names, names[-1]], "coef": coef})
    text = json.dumps({"feature_names": names, "coef": coef})
    return text.replace("1e+300", "1e999") if defect < 0.2 else text


def random_argv(rng, tmp_path, case):
    """An argv list for a random command, with its CSV and model files written
    under tmp_path; mostly the command's own flags with random values, now
    and then a flag the command does not take, or a missing file."""
    command = rng.choice([*CSV_COMMANDS, *CSV_COMMANDS, "pressq", "curve"])
    argv = [command]
    delimiter = rng.choice(",,,,;\t")
    features = []
    if command in CSV_COMMANDS:
        path = tmp_path / f"data{case}.csv"
        names, data = random_csv(rng, delimiter)
        path.write_bytes(data)
        features = [name for name in names if name != "y"]
        argv.append(str(path) if rng.random() < 0.97 else str(tmp_path / "missing.csv"))
    flags = COMMAND_FLAGS[command] + ["--format"]
    if rng.random() < 0.05:
        flags = flags + rng.sample(sorted(FLAG_VALUES), 1) + ["--bogus"]
    for flag in flags:
        required = flag in ("--model", "--reduced", "--n", "--rate") or (
            flag == "--delimiter" and delimiter != ",")
        if not required and rng.random() < 0.75 or required and rng.random() < 0.03:
            continue
        if flag == "--no-header":  # the label is then a usage error
            argv += [flag] if rng.random() < 0.2 else []
        elif flag == "--features":
            argv += [flag, ", ".join(random_columns(rng, features))]
        elif flag == "--reduced":  # a strict subset of the features, mostly
            argv += [flag, ", ".join(random_columns(rng, features[1:]))]
        elif flag == "--delimiter" and rng.random() < 0.9:
            argv += [flag, delimiter]
        elif flag == "--model":
            model = tmp_path / f"model{case}.json"
            model.write_text(random_model(rng, features), encoding="utf-8")
            argv += [flag, str(model)]
        else:
            values = FLAG_VALUES.get(flag, ["1", None, "x"])
            usual, usage_errors = values[:values.index(None)], values[values.index(None) + 1:]
            argv += [flag, rng.choice(usual if rng.random() < 0.9 else usage_errors)]
    return argv


def run(argv):
    """(exit code, stdout, stderr) of main(argv), with every warning an error."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def reject_constant(name):
    raise ValueError(f"json output holds {name}")


@pytest.mark.parametrize("seed", range(4))
def test_generated_command_lines_keep_the_contract(tmp_path, seed):
    rng = random.Random(seed)
    codes = {0: 0, 1: 0, 2: 0}
    for case in range(300):
        argv = random_argv(rng, tmp_path, case)
        code, out, err = outcome = run(argv)
        assert code in (0, 1, 2), argv
        codes[code] += 1
        if code:
            assert out == "", argv
            assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), (
                argv, err)
        else:
            assert err == "", argv
            if "tsv" not in argv:
                json.loads(out, parse_constant=reject_constant)
        if argv[0] in CSV_COMMANDS:
            with mock.patch.object(cli, "_loadtxt_columns", lambda *_: None):
                assert run(argv) == outcome, argv
    # every exit code is reached, so the generator covers each branch of the contract
    assert min(codes.values()) > 20, codes


def test_help_returns_zero_with_the_usage_on_stdout():
    for argv in (["-h"], ["--help"], *([command, "-h"] for command in COMMAND_FLAGS)):
        code, out, err = run(argv)
        assert (code, err) == (0, ""), argv
        assert out.startswith("usage: logitkit"), argv


# (cells, the error text after "row r, column c: ") of a bad cell
UNPARSABLE = (["", "NA", "abc", "0x1", "\x1c1", "1\x1f", "1 2"], "cannot parse ")
NON_FINITE = (["nan", "inf", "-inf", "1e999", "NaN"], "value must be finite, got ")
NOT_A_LABEL = (["2", "-1", "0.5", "1e-300"], "label must be 0 or 1, got ")


def write_table(rng, path, names, rows, quote, newline):
    """Write rows under the header names, some cells quoted when quote is
    set, with random blank lines; return the delimiter and the data row
    number of each row, blank lines counted."""
    delimiter = rng.choice(",;\t")
    lines, numbers = [delimiter.join(names)], []
    for row in rows:
        while rng.random() < 0.1:
            lines.append("")
        lines.append(delimiter.join(f'"{cell}"' if quote and rng.random() < 0.5 else cell
                                    for cell in row))
        numbers.append(len(lines) - 1)
    path.write_bytes(newline.join(lines).encode() + b"\n")
    return delimiter, numbers


def command_argv(rng, tmp_path, command, path, delimiter, features):
    """argv for a CSV command that reads every one of features."""
    argv = [command, str(path), "--delimiter", delimiter]
    if command == "predict":
        model = tmp_path / "model.json"
        coef = {name: rng.gauss(0.0, 1.0) for name in ["intercept", *features]}
        model.write_text(json.dumps({"feature_names": list(coef), "coef": coef}))
        return argv + ["--model", str(model)]
    argv += ["--features", ",".join(features)]
    return argv + ["--reduced", ""] if command == "test" else argv


@pytest.mark.parametrize("seed", range(2))
def test_a_planted_bad_cell_is_named_by_row_and_column(tmp_path, seed):
    rng = random.Random(100 + seed)
    for case in range(100):
        features = rng.sample(FEATURES, rng.randint(1, 3))
        names = rng.sample(["y", *features], len(features) + 1)
        rows = [[rng.choice("01") if name == "y" else random_number(rng) for name in names]
                for _ in range(rng.randint(1, 12))]
        command = rng.choice(CSV_COMMANDS)
        column = rng.choice(features if command == "predict" else names)  # predict reads no y
        cells, text = rng.choice([UNPARSABLE, NON_FINITE, *[NOT_A_LABEL] * (column == "y")])
        r = rng.randrange(len(rows))
        rows[r][names.index(column)] = rng.choice(cells)
        path = tmp_path / f"bad{case}.csv"
        delimiter, numbers = write_table(rng, path, names, rows, rng.random() < 0.5,
                                         rng.choice(["\n", "\r\n"]))
        argv = command_argv(rng, tmp_path, command, path, delimiter, features)
        code, out, err = run(argv)
        assert (code, out) == (2, ""), (argv, err)
        assert err.startswith(f"error: row {numbers[r]}, column {column!r}: {text}"), (argv, err)


def test_separators_and_the_field_limit_read_alike_on_both_paths(tmp_path):
    rng = random.Random(7)
    limit = csv.field_size_limit()
    for case in range(80):
        features = rng.sample(FEATURES, rng.randint(1, 3))
        names = rng.sample(["y", *features], len(features) + 1)
        rows = [[rng.choice("01") if name == "y" else random_number(rng) for name in names]
                for _ in range(rng.randint(2, 8))]
        if rng.random() < 0.3:  # separators U+001C..U+001F next to numbers
            for row in rows:
                for j in range(len(row)):
                    if rng.random() < 0.1:
                        sep = rng.choice("\x1c\x1d\x1e\x1f")
                        row[j] = rng.choice([sep + row[j], row[j] + sep, " " + sep + row[j]])
        quote, newline = rng.random() < 0.2, rng.choice(["\n", "\r\n"])
        if rng.random() < 0.8:  # a field, or its unquoted line, of limit - 1, limit or limit + 1
            row, j = rng.choice(rows), rng.randrange(len(names))
            size = limit + rng.choice([-1, 0, 1])
            if rng.random() < 0.5:  # the line counts its delimiters and a CR, if any
                quote = False
                size -= len(",".join(row)) - len(row[j]) + len(newline) - 1
            row[j] = rng.choice([" " * (size - 1) + "1", "0" * (size - 1) + "1", "a" * size])
        path = tmp_path / f"edge{case}.csv"
        delimiter, _ = write_table(rng, path, names, rows, quote, newline)
        command = rng.choice(["fit", "fit", "predict"])
        argv = command_argv(rng, tmp_path, command, path, delimiter, features)
        if command == "fit" and rng.random() < 0.5:
            argv = argv[:-2]  # automatic feature choice
        outcome = run(argv)
        with mock.patch.object(cli, "_loadtxt_columns", lambda *_: None):
            assert run(argv) == outcome, argv
