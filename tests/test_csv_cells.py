"""Which CSV cells the command line accepts, which error a bad file reports,
and parity of `ingest` / `cmd_predict` with a row-major reference parse."""

import csv
import itertools
import json
import math
import os
import random
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import logitkit
from logitkit import Dataset, logistic, logit
from logitkit import cli
from logitkit.cli import CsvSpec, DataError, UsageError, cmd_predict, ingest, main

# each accepted cell with the value Python float() gives it
ACCEPTED = {
    " 1.5 ": 1.5,
    "\t2\t": 2.0,
    " 3 ": 3.0,
    "1_000": 1000.0,
    "+.5": 0.5,
    "1e5": 1e5,
    "1E-3": 1e-3,
    "١٢٣": 123.0,
    "４２": 42.0,
    "-0": -0.0,
}
UNPARSEABLE = ["_1", "1_", "0x10", "", "abc", " 1 2 "]
NON_FINITE = ["nan", "inf", "-inf", "1e400", " nan "]


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def data_error(call) -> str:
    with pytest.raises(DataError) as info:
        call()
    return str(info.value)


class TestAcceptedCells:
    @pytest.mark.parametrize("cell", list(ACCEPTED))
    def test_explicit_feature(self, tmp_path, cell):
        path = write(tmp_path, "ok.csv", f"y,x\n1,{cell}\n0,2\n")
        data = ingest(CsvSpec(path, feature_columns=("x",)))
        assert data.design[:, 1].tobytes() == np.array([ACCEPTED[cell], 2.0]).tobytes()

    @pytest.mark.parametrize("cell", list(ACCEPTED))
    def test_auto_detection_keeps_column(self, tmp_path, cell):
        path = write(tmp_path, "ok.csv", f"y,x,z\n1,{cell},1\n0,2,oops\n")
        data = ingest(CsvSpec(path))
        assert data.feature_names == ("intercept", "x")
        assert data.design[:, 1].tobytes() == np.array([ACCEPTED[cell], 2.0]).tobytes()

    @pytest.mark.parametrize("cell", ["0", "1", " 1 ", "1.0", "-0", "0e0", "١"])
    def test_label(self, tmp_path, cell):
        path = write(tmp_path, "ok.csv", f"y,x\n{cell},1\n")
        assert ingest(CsvSpec(path)).labels[0] == float(cell)

    @pytest.mark.parametrize("cell", list(ACCEPTED))
    def test_predict(self, tmp_path, cell):
        model = write(tmp_path, "model.json", json.dumps(
            {"feature_names": ["intercept", "x"], "coef": {"intercept": 0.0, "x": 1.0}}))
        path = write(tmp_path, "new.csv", f"x\n{cell}\n")
        payload = cmd_predict(model, path).payload
        assert payload["probabilities"] == [logistic(ACCEPTED[cell])]


class TestRejectedCells:
    @pytest.mark.parametrize("cell", UNPARSEABLE)
    def test_unparseable_explicit_feature(self, tmp_path, cell):
        path = write(tmp_path, "bad.csv", f"y,x\n0,1\n1,{cell}\n")
        message = data_error(lambda: ingest(CsvSpec(path, feature_columns=("x",))))
        assert message == f"row 2, column 'x': cannot parse {cell.strip()!r} as a number"

    @pytest.mark.parametrize("cell", NON_FINITE)
    def test_non_finite_explicit_feature(self, tmp_path, cell):
        path = write(tmp_path, "bad.csv", f"y,x\n0,1\n1,{cell}\n")
        message = data_error(lambda: ingest(CsvSpec(path, feature_columns=("x",))))
        assert message == f"row 2, column 'x': value must be finite, got {cell.strip()!r}"

    @pytest.mark.parametrize("cell", UNPARSEABLE + NON_FINITE)
    def test_auto_detection_drops_column(self, tmp_path, cell):
        path = write(tmp_path, "bad.csv", f"y,x,z\n0,1,5\n1,{cell},6\n")
        data = ingest(CsvSpec(path))
        assert data.feature_names == ("intercept", "z")
        assert np.array_equal(data.design[:, 1], [5.0, 6.0])

    @pytest.mark.parametrize("cell", UNPARSEABLE + NON_FINITE + ["2", "0.5", "-1"])
    def test_label(self, tmp_path, cell):
        path = write(tmp_path, "bad.csv", f"y,x\n0,1\n{cell},2\n")
        message = data_error(lambda: ingest(CsvSpec(path)))
        stripped = cell.strip()
        if cell in UNPARSEABLE:
            assert message == f"row 2, column 'y': cannot parse {stripped!r} as a number"
        elif cell in NON_FINITE:
            assert message == f"row 2, column 'y': value must be finite, got {stripped!r}"
        else:
            assert message == f"row 2, column 'y': label must be 0 or 1, got {stripped!r}"

    @pytest.mark.parametrize("cell", ["abc", "inf"])
    def test_predict(self, tmp_path, cell):
        model = write(tmp_path, "model.json", json.dumps(
            {"feature_names": ["intercept", "x"], "coef": {"intercept": 0.0, "x": 1.0}}))
        path = write(tmp_path, "new.csv", f"x\n1\n\n{cell}\n")
        assert data_error(lambda: cmd_predict(model, path)).startswith("row 3, column 'x': ")


class TestErrorPrecedence:
    def test_later_bad_label_outranks_earlier_bad_feature(self, tmp_path):
        path = write(tmp_path, "bad.csv", "y,x\n1,abc\n0,1\n5,2\n")
        message = data_error(lambda: ingest(CsvSpec(path, feature_columns=("x",))))
        assert message == "row 3, column 'y': label must be 0 or 1, got '5'"

    def test_lower_row_wins_across_columns(self, tmp_path):
        path = write(tmp_path, "bad.csv", "y,x,z\n1,1,1\n0,1,bad\n1,bad,1\n")
        message = data_error(lambda: ingest(CsvSpec(path, feature_columns=("x", "z"))))
        assert message == "row 2, column 'z': cannot parse 'bad' as a number"

    def test_feature_order_breaks_ties_within_a_row(self, tmp_path):
        path = write(tmp_path, "bad.csv", "y,x,z\n1,inf,bad\n")
        message = data_error(lambda: ingest(CsvSpec(path, feature_columns=("z", "x"))))
        assert message == "row 1, column 'z': cannot parse 'bad' as a number"

    def test_predict_lower_row_wins_across_columns(self, tmp_path):
        model = write(tmp_path, "model.json", json.dumps(
            {"feature_names": ["intercept", "x", "z"],
             "coef": {"intercept": 0.0, "x": 1.0, "z": 1.0}}))
        path = write(tmp_path, "new.csv", "x,z\n1,1\n1,nan\nbad,1\n")
        message = data_error(lambda: cmd_predict(model, path))
        assert message == "row 2, column 'z': value must be finite, got 'nan'"

    def test_bad_width_counts_blank_rows(self, tmp_path):
        path = write(tmp_path, "bad.csv", "\ny,x\n1,1\n\n\n0,1,2\n1,2\n")
        assert data_error(lambda: ingest(CsvSpec(path))) == "row 4: expected 2 cells, got 3"


class TestPredictOverflow:
    def test_non_finite_score_is_a_data_error(self, tmp_path, capsys):
        model = write(tmp_path, "model.json", json.dumps(
            {"feature_names": ["intercept", "x"], "coef": {"intercept": 0, "x": 1e10}}))
        path = write(tmp_path, "new.csv", "x\n1\n1e300\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["predict", path, "--model", model]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: row 2: score x·beta is not finite\n"

    def test_opposite_infinities_name_their_row(self, tmp_path):
        model = write(tmp_path, "model.json", json.dumps(
            {"feature_names": ["intercept", "x", "z"],
             "coef": {"intercept": 0, "x": 1e10, "z": -1e10}}))
        path = write(tmp_path, "new.csv", "x,z\n1,1\n\n1e300,1e300\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            message = data_error(lambda: cmd_predict(model, path))
        assert message == "row 3: score x·beta is not finite"


def test_python_dash_m_runs_the_command_line():
    env = dict(os.environ, PYTHONPATH=str(Path(logitkit.__file__).resolve().parents[1]))
    ok = subprocess.run([sys.executable, "-m", "logitkit", "pressq", "--n", "28", "--rate", "0.85"],
                        capture_output=True, text=True, env=env, timeout=60)
    assert ok.returncode == 0
    assert json.loads(ok.stdout)["n"] == 28
    usage = subprocess.run([sys.executable, "-m", "logitkit"],
                           capture_output=True, text=True, env=env, timeout=60)
    assert usage.returncode == 1
    assert usage.stderr.startswith("error: ")


# ---- seeded parity with a row-major reference parse -------------------------


def reference_rows(path, delimiter=",", has_header=True):
    with open(path, "r", encoding="utf-8-sig", newline="") as handle:
        raw = list(csv.reader(handle, delimiter=delimiter))
    numbered = [(i, row) for i, row in enumerate(raw) if row]
    if not numbered:
        raise DataError(f"{path}: file is empty")
    if has_header:
        first, header = numbered[0]
        names = [cell.strip() for cell in header]
        rows = [(i - first, row) for i, row in numbered[1:]]
    else:
        names = [f"col{j}" for j in range(1, len(numbered[0][1]) + 1)]
        rows = [(i + 1, row) for i, row in numbered]
    if len(set(names)) != len(names):
        raise DataError(f"{path}: duplicate column names in header")
    if not rows:
        raise DataError(f"{path}: no data rows")
    for r, row in rows:
        if len(row) != len(names):
            raise DataError(f"row {r}: expected {len(names)} cells, got {len(row)}")
    return names, rows


def reference_cell(cell, r, name):
    cell = cell.strip()
    try:
        value = float(cell)
    except ValueError:
        raise DataError(f"row {r}, column {name!r}: cannot parse {cell!r} as a number") from None
    if not math.isfinite(value):
        raise DataError(f"row {r}, column {name!r}: value must be finite, got {cell!r}")
    return value


def reference_matrix(rows, names, columns):
    return np.array(
        [[reference_cell(row[names.index(c)], r, c) for c in columns] for r, row in rows]
    ).reshape(len(rows), len(columns))


def reference_ingest(path, features, label="y", delimiter=",", has_header=True):
    names, rows = reference_rows(path, delimiter, has_header)
    if label not in names:
        raise UsageError(f"label column {label!r} not found; file has {names}")
    labels = []
    for r, row in rows:
        value = reference_cell(row[names.index(label)], r, label)
        if value not in (0.0, 1.0):
            raise DataError(
                f"row {r}, column {label!r}: label must be 0 or 1, "
                f"got {row[names.index(label)].strip()!r}"
            )
        labels.append(value)
    if features is None:
        def numeric(cell):
            try:
                return math.isfinite(float(cell))
            except ValueError:
                return False
        features = [c for c in names if c != label
                    and all(numeric(row[names.index(c)]) for _, row in rows)]
    return Dataset.from_features(reference_matrix(rows, names, features), labels, features)


def reference_predict(model, path, delimiter=",", has_header=True):
    names, rows = reference_rows(path, delimiter, has_header)
    missing = [c for c in model["feature_names"][1:] if c not in names]
    if missing:
        raise DataError(f"{path}: model feature columns not found: {missing}")
    matrix = reference_matrix(rows, names, model["feature_names"][1:])
    beta = np.array([model["coef"][c] for c in model["feature_names"]])
    with np.errstate(over="ignore", invalid="ignore"):
        scores = np.column_stack([np.ones(len(rows)), matrix]) @ beta
    for (r, _), score in zip(rows, scores):
        if not math.isfinite(score):
            raise DataError(f"row {r}: score x·beta is not finite")
    return {
        "feature_names": model["feature_names"],
        "threshold": 0.5,
        "probabilities": [float(p) for p in logistic(scores)],
        "labels": [int(s > logit(0.5)) for s in scores],
    }


def random_cell(rng, bad_rate):
    if rng.random() < bad_rate:
        return rng.choice(UNPARSEABLE + NON_FINITE)
    if rng.random() < 0.3:
        return rng.choice(list(ACCEPTED) + ["1e300", "-1e300"])
    value = rng.gauss(0.0, 10.0 ** rng.randint(-3, 4))
    return rng.choice([repr(value), f"{value:.3e}", f"{value:.6g}", f" {value:.2f}"])


def random_table(rng):
    """A small CSV text: label y among features a..d, some blank lines, rows of
    the wrong width now and then, and a per-table rate of bad cells."""
    names = ["y"] + list("abcd")[: rng.randint(0, 4)]
    rng.shuffle(names)
    bad_rate = rng.choice([0.0, 0.0, 0.03, 0.15, 0.4])
    lines = [",".join(names)]
    for _ in range(rng.randint(1, 7)):
        if rng.random() < 0.15:
            lines.append("")
        cells = [
            rng.choice(["0", "1", " 1 ", "1.0", "-0"]) if c == "y" and rng.random() > bad_rate
            else random_cell(rng, bad_rate)
            for c in names
        ]
        if rng.random() < 0.03:
            cells = cells[:-1] if rng.random() < 0.5 else cells + ["1"]
        lines.append(",".join(cells))
    return names, "\n".join(lines) + "\n"


def outcome(call):
    try:
        return call()
    except DataError as exc:
        return str(exc)


def test_seeded_parity_with_reference_parse(tmp_path):
    counts = {"ingest": [0, 0], "predict": [0, 0]}
    for seed in range(200):
        rng = random.Random(seed)
        names, text = random_table(rng)
        path = write(tmp_path, f"t{seed}.csv", text)
        others = [c for c in names if c != "y"]
        features = None
        if rng.random() >= 0.5:
            features = tuple(rng.sample(others, rng.randint(0, len(others))))

        got = outcome(lambda: ingest(CsvSpec(path, feature_columns=features)))
        want = outcome(lambda: reference_ingest(path, features))
        if isinstance(want, str):
            assert got == want, (seed, text)
        else:
            assert isinstance(got, Dataset), (seed, text, got)
            assert got.feature_names == want.feature_names, (seed, text)
            assert got.design.tobytes() == want.design.tobytes(), (seed, text)
            assert got.labels.tobytes() == want.labels.tobytes(), (seed, text)
        counts["ingest"][isinstance(want, str)] += 1

        used = rng.sample(names, rng.randint(0, len(names)))
        model = {"feature_names": ["intercept"] + used,
                 "coef": {c: rng.choice([rng.gauss(0, 2), 1e10]) for c in ["intercept"] + used}}
        model_path = write(tmp_path, f"m{seed}.json", json.dumps(model))
        got = outcome(lambda: cmd_predict(model_path, path).payload)
        want = outcome(lambda: reference_predict(model, path))
        assert got == want, (seed, text, model)
        counts["predict"][isinstance(want, str)] += 1
    # the sweep exercises both the parsed and the error outcome of each entry point
    assert min(min(pair) for pair in counts.values()) >= 40, counts


# ---- the loadtxt reader against the reference, across dialects --------------

# csv.reader gives 2 rows here and a line-by-line reader 3: the quote joins two lines
JOINED_BY_QUOTE = 'id,a,y\n"s,1,0\nt",2,1\nu,3,0\n'


def plain_number(rng):
    value = rng.gauss(0.0, 10.0 ** rng.randint(-3, 4))
    return rng.choice([repr(value), f"{value:.3e}", f"{value:.6g}", f"{value:.2f}"])


def random_dialect_table(rng):
    """random_table's mix plus the cases where csv.reader and a line-oriented
    reader part ways: quoted cells (a quoted delimiter in an id column, a quoted
    number, JOINED_BY_QUOTE), CRLF and lone-CR line ends, a BOM, blank and
    whitespace-only lines (also before the header), no header, and the
    delimiters ; tab space |. Clean tables have none of quotes, lone CRs,
    whitespace-only lines or cells float() rejects.

    Returns the file text, the delimiter, whether it has a header, the label
    column's name, the names of the other columns, the numeric ones among them,
    and whether the table is clean."""
    if rng.random() < 0.04:
        return JOINED_BY_QUOTE, ",", True, "y", ["id", "a"], ["a"], False
    delimiter = rng.choice([",", ";", "\t", " ", "|"])
    clean = rng.random() < 0.5
    numeric = list("abcd")[: rng.randint(0, 4)]
    columns = ["y"] + numeric + (["id"] if rng.random() < 0.4 else [])
    rng.shuffle(columns)
    bad_rate = 0.0 if clean else rng.choice([0.0, 0.03, 0.15, 0.4])
    end = rng.choice(["\n", "\r\n"] if clean else ["\n", "\r\n", "\r"])
    gap = rng.choice([""] if clean or len(columns) == 1 else ["", " ", "\t "])

    def cell(name, i):
        if name == "id":
            if not clean and rng.random() < 0.3:
                return f'"s{i}{delimiter}{i}"'
            return f"s{i}"
        if name == "y":
            if clean:
                return rng.choice(["0", "1"])
            return rng.choice(["0", "1", " 1 ", "1.0", "-0", '"1"']) \
                if rng.random() > bad_rate else random_cell(rng, bad_rate)
        if clean:
            return plain_number(rng)
        return random_cell(rng, bad_rate) if rng.random() > 0.05 else f'"{plain_number(rng)}"'

    has_header = rng.random() < 0.8
    lines = [rng.choice(["", gap]) for _ in range(rng.randint(0, 2))]
    if has_header:
        lines.append(delimiter.join(columns))
    for i in range(rng.randint(1, 7)):
        if rng.random() < 0.15:
            lines.append(rng.choice(["", gap]))
        cells = [cell(name, i) for name in columns]
        if not clean and rng.random() < 0.03:
            cells = cells[:-1] if rng.random() < 0.5 else cells + ["1"]
        lines.append(delimiter.join(cells))
    text = ("\ufeff" if rng.random() < 0.2 else "") + end.join(lines) + end
    named = {c: c if has_header else f"col{j}" for j, c in enumerate(columns, 1)}
    others = [named[c] for c in columns if c != "y"]
    return text, delimiter, has_header, named["y"], others, [named[c] for c in numeric], clean


def test_loadtxt_reader_matches_the_reference_across_dialects(tmp_path, monkeypatch):
    csv_reads = []
    read_rows = cli._read_csv_rows
    monkeypatch.setattr(cli, "_read_csv_rows",
                        lambda spec, data: csv_reads.append(spec) or read_rows(spec, data))

    def outcome_of(call):
        try:
            return call()
        except (DataError, UsageError) as exc:
            return f"{type(exc).__name__}: {exc}"

    counts = {"parsed": 0, "error": 0, "clean tables": 0, "ingest by loadtxt": 0,
              "predict by loadtxt": 0}
    for seed in range(300):
        rng = random.Random(seed)
        text, delimiter, has_header, label, others, numeric, clean = random_dialect_table(rng)
        path = str(tmp_path / f"d{seed}.csv")
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        pool = numeric if clean else others
        features = None
        if rng.random() >= 0.5:
            features = tuple(rng.sample(pool, rng.randint(0, len(pool))))
        where = (seed, text, delimiter, has_header, features)

        before = len(csv_reads)
        got = outcome_of(lambda: ingest(CsvSpec(path, label, features, delimiter, has_header)))
        if clean:
            counts["clean tables"] += 1
            counts["ingest by loadtxt"] += len(csv_reads) == before
        want = outcome_of(lambda: reference_ingest(path, features, label, delimiter, has_header))
        if isinstance(want, str):
            assert got == want, where
        else:
            assert isinstance(got, Dataset), (where, got)
            assert got.feature_names == want.feature_names, where
            assert got.design.tobytes() == want.design.tobytes(), where
            assert got.labels.tobytes() == want.labels.tobytes(), where
        counts["error" if isinstance(want, str) else "parsed"] += 1

        used = rng.sample([label, *pool], rng.randint(0, len(pool) + 1))
        model = {"feature_names": ["intercept"] + used,
                 "coef": {c: rng.choice([rng.gauss(0, 2), 1e10]) for c in ["intercept"] + used}}
        model_path = write(tmp_path, f"dm{seed}.json", json.dumps(model))
        before = len(csv_reads)
        got = outcome_of(lambda: cmd_predict(model_path, path, 0.5, delimiter, has_header).payload)
        if clean:
            counts["predict by loadtxt"] += len(csv_reads) == before
        assert got == outcome_of(lambda: reference_predict(model, path, delimiter, has_header)), \
            (where, model)
    assert min(counts["parsed"], counts["error"]) >= 60, counts
    # a reader that always fell back to the csv path would pass every comparison above
    assert min(counts["ingest by loadtxt"], counts["predict by loadtxt"]) >= \
        counts["clean tables"] / 2, counts


# ---- row width on the loadtxt reader, which reads only the needed and last columns

def width_table(rng, delimiter, end, blank_lines, defect, where, row):
    """A clean, unquoted table of columns y, a, b, c and id in random order,
    and the csv reference's error text for it (None when well formed). The
    model features are a and b, so predict skips y, c and id, and ingest
    c and id.

    `defect` "long" or "short" gives data row `row` (an index into the rows)
    one cell more, or one fewer, at a feature column, at a skipped column, or
    at the last column (`where`). "short+long" also gives another row one
    cell more, so that the file holds as many delimiters as a well-formed one.
    """
    columns = ["y", "a", "b", "c", "id"]
    rng.shuffle(columns)
    rows = []
    for i in range(rng.randint(3, 6)):
        rows.append([f"s{i}" if name == "id" else rng.choice(["0", "1"]) if name == "y"
                     else plain_number(rng) for name in columns])
    bad = []
    if defect:
        last = len(columns) - 1
        at = {"needed": [j for j, name in enumerate(columns) if name in "ab" and j != last],
              "skipped": [j for j, name in enumerate(columns) if name in ("c", "id") and j != last],
              "last": [last]}[where]
        row %= len(rows)
        if defect == "long":
            rows[row].insert(rng.choice(at), plain_number(rng))
        else:
            del rows[row][rng.choice(at)]
        bad.append(row)
        if defect == "short+long":
            other = rng.choice([i for i in range(len(rows)) if i != row])
            rows[other].insert(rng.randrange(len(columns)), plain_number(rng))
            bad.append(other)
    lines = [""] * blank_lines + [delimiter.join(columns)] + [delimiter.join(r) for r in rows]
    error = None
    if bad:
        first = min(bad)
        error = f"row {first + 1}: expected 5 cells, got {len(rows[first])}"
    return end.join(lines) + end, error


def test_loadtxt_reader_rejects_every_row_of_the_wrong_width(tmp_path, monkeypatch):
    csv_reads = []
    read_rows = cli._read_csv_rows
    monkeypatch.setattr(cli, "_read_csv_rows",
                        lambda spec, data: csv_reads.append(spec) or read_rows(spec, data))
    model = {"feature_names": ["intercept", "a", "b"],
             "coef": {"intercept": 0.25, "a": -0.5, "b": 0.125}}
    model_path = write(tmp_path, "width-model.json", json.dumps(model))
    well_formed = by_loadtxt = 0
    cases = itertools.product([",", ";", "\t", " ", "|"], ["\n", "\r\n"], [0, 2],
                              [None, "long", "short", "short+long"], ["needed", "skipped", "last"],
                              [0, 1, -1])
    for n, (delimiter, end, blank_lines, defect, where, row) in enumerate(cases):
        if defect is None and (where, row) != ("needed", 0):
            continue
        text, error = width_table(random.Random(n), delimiter, end, blank_lines, defect, where, row)
        path = str(tmp_path / f"w{n}.csv")
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        where_ = (n, text, delimiter)

        before = len(csv_reads)
        spec = CsvSpec(path, feature_columns=("a", "b"), delimiter=delimiter)
        got = [outcome(lambda: ingest(spec)),
               outcome(lambda: cmd_predict(model_path, path, 0.5, delimiter).payload)]
        want = [outcome(lambda: reference_ingest(path, ("a", "b"), delimiter=delimiter)),
                outcome(lambda: reference_predict(model, path, delimiter=delimiter))]
        if error:
            assert got == want == [error] * 2, where_
            continue
        well_formed += 1
        by_loadtxt += len(csv_reads) == before
        assert isinstance(got[0], Dataset), (where_, got[0])
        assert got[0].design.tobytes() == want[0].design.tobytes(), where_
        assert got[0].labels.tobytes() == want[0].labels.tobytes(), where_
        assert got[1] == want[1], where_
    # a reader that always fell back to the csv path would pass every comparison above
    assert well_formed == by_loadtxt == 20, (well_formed, by_loadtxt)


def test_a_skipped_last_column_that_turns_non_numeric_stays_on_the_loadtxt_reader(
        tmp_path, monkeypatch):
    # y is parsed as a number while it is one; its NA cells then take the converter
    csv_reads = []
    read_rows = cli._read_csv_rows
    monkeypatch.setattr(cli, "_read_csv_rows",
                        lambda spec, data: csv_reads.append(spec) or read_rows(spec, data))
    path = write(tmp_path, "na.csv", "id,x,y\na,1.5,1\nb,-2,0\nc,0.25,NA\nd,3,\n")
    model = {"feature_names": ["intercept", "x"], "coef": {"intercept": 0.5, "x": -1.0}}
    model_path = write(tmp_path, "model.json", json.dumps(model))
    assert cmd_predict(model_path, path).payload == reference_predict(model, path)
    assert csv_reads == []


@pytest.fixture
def csv_path_reads(monkeypatch):
    """The specs of the files the csv path reads while the test runs."""
    reads = []
    read_rows = cli._read_csv_rows
    monkeypatch.setattr(cli, "_read_csv_rows",
                        lambda spec, data: reads.append(spec) or read_rows(spec, data))
    return reads


def test_a_line_within_the_csv_field_limit_stays_on_the_loadtxt_reader(tmp_path, csv_path_reads):
    # no field of a line at most csv.field_size_limit() bytes long is one csv.reader refuses
    long = "s" * 100_000
    assert csv.field_size_limit() // 2 < len(long) < csv.field_size_limit()
    path = write(tmp_path, "long.csv", f"id,x,y\n{long},1.5,1\nb,-2,0\nc,0.25,1\n")
    got, want = ingest(CsvSpec(path)), reference_ingest(path, None)
    assert got.feature_names == want.feature_names == ("intercept", "x")
    assert got.design.tobytes() == want.design.tobytes()
    assert got.labels.tobytes() == want.labels.tobytes()
    model = {"feature_names": ["intercept", "x"], "coef": {"intercept": 0.5, "x": -1.0}}
    model_path = write(tmp_path, "model.json", json.dumps(model))
    assert cmd_predict(model_path, path).payload == reference_predict(model, path)
    assert csv_path_reads == []


def test_a_skipped_column_that_turns_non_numeric_late_costs_one_loadtxt_pass(
        tmp_path, monkeypatch, csv_path_reads):
    # predict reads x alone; y, last in the row and NA from data row 10,001 on, is skipped
    loadtxt_calls = []
    loadtxt = np.loadtxt
    monkeypatch.setattr(np, "loadtxt",
                        lambda *args, **kwargs: loadtxt_calls.append(1) or loadtxt(*args, **kwargs))
    x = np.random.default_rng(10).normal(size=20_000).tolist()
    rows = [f"s{i},{v!r},{'NA' if i >= 10_000 else i % 2}" for i, v in enumerate(x)]
    path = write(tmp_path, "late-na.csv", "\n".join(["id,x,y", *rows]) + "\n")
    model = {"feature_names": ["intercept", "x"], "coef": {"intercept": 0.5, "x": -1.0}}
    model_path = write(tmp_path, "model.json", json.dumps(model))
    got = cmd_predict(model_path, path).payload
    assert len(loadtxt_calls) == 1
    assert csv_path_reads == []
    assert got == reference_predict(model, path)


def test_a_line_of_carriage_returns_before_the_header_is_blank(tmp_path):
    # csv.reader reads "\r\r\n" as two blank lines, the byte framing as one line whose
    # record, with no cell, is narrower than its delimiter count says: the csv path reads it
    path = write(tmp_path, "cr.csv", "\r\r\nx\n1\n2\n")
    model = {"feature_names": ["intercept"], "coef": {"intercept": 0.3}}
    model_path = write(tmp_path, "model.json", json.dumps(model))
    assert cmd_predict(model_path, path).payload == reference_predict(model, path)


# ---- cells and fields the csv path refuses -----------------------------------


def test_float_space_is_what_float_strips():
    blanks = {chr(c) for c in range(sys.maxunicode + 1) if chr(c).isspace()}
    assert set(cli._FLOAT_SPACE) == blanks - set("\x1c\x1d\x1e\x1f")
    for char in blanks:
        accepted = char in cli._FLOAT_SPACE
        try:
            assert float(f"{char}1{char}") == 1.0 and accepted, repr(char)
        except ValueError:
            assert not accepted, repr(char)


@pytest.mark.parametrize("text, argv, error", [
    ("y,x,z\n1,\x1c1,3\n0,2,4\n1,3,3\n", ["--features", "x,z"],
     "row 1, column 'x': cannot parse '\\x1c1' as a number"),
    ("y,x,z\n1,2,3\n0,2,1\x1f\n1,3,3\n", ["--features", "x,z"],
     "row 2, column 'z': cannot parse '1\\x1f' as a number"),
    ("y,x\n1,2\n\x1c1,3\n0,4\n", [], "row 2, column 'y': cannot parse '\\x1c1' as a number"),
], ids=["feature", "trailing separator", "label"])
def test_separator_characters_in_a_needed_cell_are_data_errors(tmp_path, capsys, text, argv, error):
    path = write(tmp_path, "sep.csv", text)
    assert main(["fit", path, *argv]) == 2
    assert capsys.readouterr() == ("", f"error: {error}\n")
    model = {"feature_names": ["intercept", "x", "z"],
             "coef": {"intercept": 0.5, "x": -1.0, "z": 0.25}}
    model_path = write(tmp_path, "model.json", json.dumps(model))
    if "column 'y'" not in error:  # predict reads no label
        assert main(["predict", path, "--model", model_path]) == 2
        assert capsys.readouterr() == ("", f"error: {error}\n")


LONG = "s" * 200_000


@pytest.mark.parametrize("text, no_header, error", [
    (f"id,x,y\n{LONG},1,0\nb,2,1\nc,3,0\n", False, "row 1: "),
    (f"id,x,y\nb,2,1\nc,3,0\n\n{LONG},1,0\nd,1,1\n", False, "row 4: "),
    (f'"id",x,y\nb,2,1\nc,3,0\n\n{LONG},1,0\nd,1,1\n', False, "row 4: "),
    (f"id{LONG},x,y\nb,2,1\nc,3,0\n", False, "{path}: header: "),
    (f"\r\n{LONG},1,0\r\nb,2,1\r\n", True, "row 2: "),
], ids=["first data row", "late row", "late row, quoted file", "header", "no header, CRLF"])
def test_a_field_over_the_csv_limit_is_a_data_error(tmp_path, capsys, text, no_header, error):
    path = write(tmp_path, "long.csv", text)
    model_path = write(tmp_path, "model.json", json.dumps(
        {"feature_names": ["intercept", "x"], "coef": {"intercept": 0.5, "x": -1.0}}))
    flags = ["--no-header", "--label-col", "col3"] if no_header else []
    limit = csv.field_size_limit()
    want = f"error: {error.format(path=path)}field larger than field limit ({limit})\n"
    assert main(["fit", path, *flags]) == 2
    assert capsys.readouterr() == ("", want)
    assert main(["predict", path, "--model", model_path, *flags[:1]]) == 2
    assert capsys.readouterr() == ("", want)
    assert csv.field_size_limit() == limit


EDGE_MODELS = {
    "y,x": {"feature_names": ["intercept", "x"], "coef": {"intercept": 0.5, "x": -1.0}},
    "y": {"feature_names": ["intercept"], "coef": {"intercept": 0.5}},
}


@pytest.mark.parametrize("text, code, error", [
    ("y,x\n", 2, "no data rows"),
    ("y,x\n\n\n", 2, "no data rows"),
    ("\n\ny,x\n\n1,2.5\n", 0, None),
    ("y\n1\n0\n1\n", 0, None),
], ids=["header only", "blank data rows", "one row", "one column"])
def test_edge_files_leak_no_warning(tmp_path, capsys, text, code, error):
    path = write(tmp_path, "edge.csv", text)
    model = EDGE_MODELS[text.split()[0]]
    model_path = write(tmp_path, "model.json", json.dumps(model))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        codes = [main(["fit", path]), main(["predict", path, "--model", model_path])]
    captured = capsys.readouterr()
    assert codes == [code, code]
    if error:
        assert captured.out == ""
        assert captured.err == f"error: {path}: {error}\n" * 2
    else:
        assert captured.err == ""
        fit, end = json.JSONDecoder().raw_decode(captured.out)
        assert fit["feature_names"] == model["feature_names"]
        assert json.loads(captured.out[end:]) == reference_predict(model, path)


def test_separator_characters_are_left_to_the_csv_path(tmp_path):
    # loadtxt reads "\x1c1" as 1.0 where float() rejects it, so x is not numeric
    path = write(tmp_path, "sep.csv", "y,x,z\n0,2,4\n1,\x1c1,3\n")
    assert ingest(CsvSpec(path)).feature_names == ("intercept", "z")



# ---- a missing column is reported only after the file's own errors ----------

FILE_DEFECTS = {  # header, data rows, and the error the file gives whatever is read from it
    "well formed": ("id,x,z", ["s1,1.5,1", "s2,-2,0", "s3,0.5,1"], None),
    "long row": ("id,x,z", ["s1,1.5,1", "s2,-2,0,7", "s3,0.5,1"], "row 2: expected 3 cells, got 4"),
    "short row": ("id,x,z", ["s1,1.5,1", "s2,-2,0", "s3,0.5"], "row 3: expected 3 cells, got 2"),
    "duplicate header": ("id,x,x", ["s1,1.5,1", "s2,-2,0"], "{path}: duplicate column names in header"),
    "header only": ("id,x,z", [], "{path}: no data rows"),
}


@pytest.mark.parametrize("quoted", [False, True], ids=["clean", "quoted"])
@pytest.mark.parametrize("defect", list(FILE_DEFECTS))
def test_a_file_error_comes_before_a_missing_column(tmp_path, capsys, defect, quoted):
    header, rows, error = FILE_DEFECTS[defect]
    lines = [header, *rows]
    if quoted:  # the csv path reads every quoted file
        lines = ['"{}",{}'.format(*line.split(",", 1)) for line in lines]
    path = write(tmp_path, "missing.csv", "\n".join(lines) + "\n")
    model_path = write(tmp_path, "model.json", json.dumps(
        {"feature_names": ["intercept", "x", "y"], "coef": {"intercept": 0.5, "x": -1.0, "y": 2.0}}))
    calls = [  # each names a column the file lacks: the label y, the feature q, the model's y
        (["fit", path], 1, "label column 'y' not found; file has ['id', 'x', 'z']"),
        (["fit", path, "--label-col", "z", "--features", "x,q"], 1, "feature columns not found: ['q']"),
        (["predict", path, "--model", model_path], 2, f"{path}: model feature columns not found: ['y']"),
    ]
    for argv, code, missing in calls:
        want = (2, error.format(path=path)) if error else (code, missing)
        assert main(argv) == want[0], argv
        assert capsys.readouterr() == ("", f"error: {want[1]}\n"), argv


def test_a_delimiter_outside_ascii_is_left_to_the_csv_path(tmp_path, monkeypatch):
    # the C reader's width check counts the delimiter's byte, so it takes ASCII delimiters only
    csv_reads = []
    read_rows = cli._read_csv_rows
    monkeypatch.setattr(cli, "_read_csv_rows",
                        lambda spec, data: csv_reads.append(spec) or read_rows(spec, data))
    path = write(tmp_path, "section.csv", "id§x§y\na§1.5§1\nb§-2§0\nc§0.25§1\n")
    data = ingest(CsvSpec(path, delimiter="§"))
    assert data.feature_names == ("intercept", "x")
    assert data.design[:, 1].tolist() == [1.5, -2.0, 0.25]
    assert len(csv_reads) == 1
