"""Command-line front-end: CSV files in, fitted models and test results out.

Subcommands mirror the library surface: fit, predict, test, cv, pressq,
curve. Results go to stdout as json or tsv; diagnostics go to stderr.
Exit codes: 0 for any computed result (a non-converged fit is a result),
1 for usage errors, 2 for data validation errors.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import itertools
import json
import math
import sys
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from operator import itemgetter

import numpy as np

from .classify import _threshold_cut, evaluate_with_press_q, loocv
from .fit import FitConfig, FitResult, fit_irls
from .inference import FitNotConvergedError, lrt_nested, power_curve, press_q
from .model import Dataset, logistic


class UsageError(Exception):
    """Bad invocation: unknown columns, malformed flags. Exit code 1."""


class DataError(Exception):
    """File content failed validation. Exit code 2."""


@dataclass(frozen=True)
class CsvSpec:
    """Where and how to read a dataset from disk.

    feature_columns = None selects every non-label column whose cells all
    parse as finite numbers. Without a header row, columns are named
    col1..colN.
    """

    path: str
    label_column: str = "y"
    feature_columns: tuple[str, ...] | None = None
    delimiter: str = ","
    has_header: bool = True

    def __post_init__(self):
        if len(self.delimiter) != 1:
            raise UsageError("delimiter must be a single character")
        features = self.feature_columns or ()
        if self.label_column in features:
            raise UsageError(
                f"label column {self.label_column!r} cannot also be a feature"
            )
        repeated = [c for c in dict.fromkeys(features) if features.count(c) > 1]
        if repeated:
            raise UsageError(f"duplicate feature columns: {repeated}")


@dataclass(frozen=True)
class RunOutput:
    """A rendered-ready result: output format plus the json-compatible payload."""

    format: str
    payload: dict
    kind: str

    def render(self) -> str:
        if self.format == "json":
            try:  # strict JSON: NaN and Infinity are written as null
                return _indented(self.payload, allow_nan=False)
            except ValueError:
                loose = json.loads(json.dumps(self.payload), parse_constant=lambda _: None)
                return _indented(loose)
        # str() of a float is the shortest decimal that round-trips it
        if self.kind in ("curve", "predict"):  # one tab-separated line per table row
            p = self.payload
            rows = p["rows"] if self.kind == "curve" else zip(p["probabilities"], p["labels"])
            return "\n".join("\t".join(map(str, row)) for row in rows)
        return "\n".join(f"{key}\t{val}" for key, val in _flatten(self.payload))


def _indented(obj, allow_nan: bool = True, depth: int = 0) -> str:
    """json.dumps(obj, indent=2, allow_nan=allow_nan) of a value `depth`
    levels in, byte for byte. json.dumps skips its C encoder when it indents,
    so a container of scalars is one C call with its items' line break and
    indent as the separator. A list of containers, such as curve's short
    rows, goes to the Python encoder whole, each line shifted by `depth`
    (an encoded string holds no line break); a dict of containers goes key
    by key."""
    if not isinstance(obj, (dict, list, tuple)) or not obj:
        return json.dumps(obj, allow_nan=allow_nan)
    pad = "\n" + "  " * depth
    values = obj.values() if isinstance(obj, dict) else obj
    if not any(issubclass(kind, (dict, list, tuple)) for kind in set(map(type, values))):
        text = json.dumps(obj, separators=("," + pad + "  ", ": "), allow_nan=allow_nan)
        return text[0] + pad + "  " + text[1:-1] + pad + text[-1]
    if not isinstance(obj, dict):
        return json.dumps(obj, indent=2, allow_nan=allow_nan).replace("\n", pad)
    # a one-item dict gives each key json's own conversion to a string
    items = (json.dumps({key: 0}, allow_nan=allow_nan)[1:-4] + ": "
             + _indented(val, allow_nan, depth + 1) for key, val in obj.items())
    return "{" + ",".join(pad + "  " + item for item in items) + pad + "}"


def _flatten(obj, prefix: str = ""):
    if isinstance(obj, dict):
        for key, val in obj.items():
            yield from _flatten(val, f"{prefix}.{key}" if prefix else str(key))
    elif isinstance(obj, (list, tuple)):
        for i, val in enumerate(obj):
            yield from _flatten(val, f"{prefix}.{i}" if prefix else str(i))
    else:
        yield prefix, obj


@contextmanager
def _reraise(error):
    """Re-raise a library ValueError as this front-end's UsageError or DataError."""
    try:
        yield
    except ValueError as exc:
        raise error(str(exc)) from exc


# what float() strips around a number: str.strip()'s whitespace but U+001C..U+001F
_FLOAT_SPACE = ("\t\n\x0b\x0c\r \x85\xa0\u1680\u2000\u2001\u2002\u2003\u2004\u2005\u2006"
                "\u2007\u2008\u2009\u200a\u2028\u2029\u202f\u205f\u3000")


def _parse_number(cell: str, row: int, column: str) -> float:
    try:
        value = float(cell)
    except ValueError:
        raise DataError(
            f"row {row}, column {column!r}: cannot parse {cell!r} as a number"
        ) from None
    if not math.isfinite(value):
        raise DataError(f"row {row}, column {column!r}: value must be finite, got {cell!r}")
    return value


def _read_bytes(path: str) -> bytes:
    try:
        with open(path, "rb") as handle:
            return handle.read()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc


def _read_csv_rows(spec: CsvSpec, data: bytes):
    """The column index of each header name, the non-blank records of the
    file's bytes `data`, and their data row numbers (blank rows are skipped
    but counted, so "row r" is the r-th row after the header). A leading
    UTF-8 byte-order mark is dropped."""
    path = spec.path
    lines = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8-sig", newline="")
    raw, error = [], None
    try:
        for row in csv.reader(lines, delimiter=spec.delimiter):
            raw.append(row)
    except UnicodeDecodeError as exc:
        raise DataError(f"cannot decode {path} as UTF-8: {exc}") from exc
    except csv.Error as exc:  # such as a field longer than csv.field_size_limit()
        error = exc
    first = next((i for i, row in enumerate(raw) if row), None) if spec.has_header else -1
    if error is not None:  # raw ends before the record csv.reader refused
        where = f"{path}: header" if first is None else f"row {len(raw) - first}"
        raise DataError(f"{where}: {error}") from error
    records = list(filter(None, raw))
    if not records:
        raise DataError(f"{path}: file is empty")
    numbers = [i - first for i, row in enumerate(raw) if row]
    if spec.has_header:
        header = [cell.strip() for cell in records[0]]
        records, numbers = records[1:], numbers[1:]
    else:
        header = [f"col{i}" for i in range(1, len(records[0]) + 1)]
    column_of = {name: j for j, name in enumerate(header)}
    if len(column_of) != len(header):
        raise DataError(f"{path}: duplicate column names in header")
    if not records:
        raise DataError(f"{path}: no data rows")
    width = len(header)
    if set(map(len, records)) != {width}:
        for r, record in zip(numbers, records):
            if len(record) != width:
                raise DataError(f"row {r}: expected {width} cells, got {len(record)}")
    return column_of, records, numbers


def _parse_column(records, j: int, out: np.ndarray) -> bool:
    """Parse cell j of every record into `out` with float(), which strips
    _FLOAT_SPACE; True when every cell gives a finite number."""
    try:
        out[:] = np.fromiter(map(float, map(itemgetter(j), records)), float, len(records))
    except ValueError:
        return False
    return bool(np.isfinite(out).all())


def _design_matrix(records, numbers, columns, drop_bad: bool = False):
    """The intercept column and the (name, index) `columns`, each parsed once,
    plus the names kept. With drop_bad a column with a bad cell is left out;
    otherwise a row-major rescan raises the DataError of the first bad cell."""
    matrix = np.empty((len(records), 1 + len(columns)))
    matrix[:, 0] = 1.0
    kept = []
    for name, j in columns:
        if _parse_column(records, j, matrix[:, 1 + len(kept)]):
            kept.append(name)
        elif not drop_bad:
            for r, record in zip(numbers, records):
                for bad_name, bad_j in columns:
                    _parse_number(record[bad_j].strip(_FLOAT_SPACE), r, bad_name)
    return matrix[:, : 1 + len(kept)], kept


# csv.reader and np.loadtxt split a file alike only without these: a quote
# joins lines in csv.reader, and loadtxt strips the ASCII separators
# U+001C..U+001F around a number where float() rejects them
_LOADTXT_UNSAFE = ('"', "\x1c", "\x1d", "\x1e", "\x1f")


def _skip_cell(_cell: str) -> float:
    return 0.0


def _head(text: str, delimiter: str):
    """Each non-blank csv.reader record of the quote-free `text`, with the
    offset just past its line, read one line at a time. Lines end at LF, as
    np.loadtxt reads a StringIO; it stops at a line holding a lone CR, where
    csv.reader sees a line end too."""
    end = 0
    while end < len(text):
        start, end = end, text.find("\n", end) + 1 or len(text)
        line = text[start:end].rstrip("\r\n")
        if "\r" in line:
            return
        record = next(csv.reader([line], delimiter=delimiter), None)
        if record:
            yield record, end


def _loadtxt_columns(spec: CsvSpec, data: bytes, choose):
    """The names `choose(column_of, first_record)` picks and their columns,
    parsed by np.loadtxt over the file's bytes `data`; None when the csv
    path must read them instead.

    The header and the first data row come from csv.reader, line by line.
    loadtxt reads the chosen columns and the last one, so it rejects a short
    row; a delimiter count then rejects a long one. A last column that is
    not chosen is parsed as numbers while its first cell is one; otherwise,
    or on a second try when a later cell is not, a constant converter takes
    it, the only Python call per row. The caller checks the values themselves.
    """
    try:
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError:  # the csv path names the undecodable byte
        return None
    if any(char in text for char in _LOADTXT_UNSAFE):
        return None
    delimiter, wanted = spec.delimiter, 1 + spec.has_header
    try:  # the csv path reports an oversized field with its row
        head = list(itertools.islice(_head(text, delimiter), wanted))
    except csv.Error:
        return None
    if len(head) < wanted:
        return None
    if spec.has_header:
        (names_row, start), (first, _) = head
        header = [cell.strip() for cell in names_row]
    else:
        [(first, _)], start = head, 0
        header = [f"col{i}" for i in range(1, len(first) + 1)]
    column_of = {name: j for j, name in enumerate(header)}
    if len(column_of) != len(header) or len(first) != len(header):
        return None
    # csv.reader refuses a field longer than its limit; where every block of
    # half the limit holds a line end, no line is that long
    block = csv.field_size_limit() // 2
    if any(text.find("\n", i, i + block) < 0 for i in range(start, len(text) - block + 1, block)):
        return None
    names = choose(column_of, first)
    if names is None:
        return None
    usecols, last = [column_of[name] for name in names], len(header) - 1
    tries = [None]
    if last not in usecols:
        usecols.append(last)
        skip = {last: _skip_cell}
        tries = [None, skip] if _parse_column([first], last, np.empty(1)) else [skip]
    lines = io.StringIO(text)
    for converters in tries:
        lines.seek(start)
        try:  # the text holds a data row, so loadtxt has no empty-input warning to give
            table = np.loadtxt(lines, delimiter=delimiter, comments=None, ndmin=2,
                               usecols=usecols, converters=converters)
            break
        except (ValueError, TypeError):
            pass
    else:
        return None
    if text.count(delimiter, start) != len(table) * last:
        return None
    return names, table[:, : len(names)]


def _with_intercept(columns: np.ndarray) -> np.ndarray:
    matrix = np.empty((columns.shape[0], 1 + columns.shape[1]))
    matrix[:, 0] = 1.0
    matrix[:, 1:] = columns
    return matrix


def _ingest_loadtxt(spec: CsvSpec, data: bytes) -> Dataset | None:
    """`ingest` by `_loadtxt_columns`, or None unless every check of the csv
    path passes."""
    label, features = spec.label_column, spec.feature_columns

    def choose(column_of, first):
        names, cell = features, np.empty(1)
        if names is None:  # a column whose first cell is not a number is dropped anyway
            names = [name for name, j in column_of.items()
                     if name != label and _parse_column([first], j, cell)]
        names = [label, *names]
        return names if column_of.keys() >= set(names) else None

    read = _loadtxt_columns(spec, data, choose)
    if read is None:
        return None
    names, table = read
    labels = table[:, 0]
    finite = np.isfinite(table[:, 1:]).all(axis=0)
    if not ((labels == 0.0) | (labels == 1.0)).all() or (features is not None and not finite.all()):
        return None
    kept = [name for name, ok in zip(names[1:], finite) if ok]
    return Dataset(_with_intercept(table[:, 1:][:, finite]), labels, ("intercept", *kept))


def ingest(spec: CsvSpec) -> Dataset:
    """Read a CSV into a Dataset, prepending the intercept column.

    Cell-level failures raise DataError naming the 1-based data row and
    the column; the label column must parse to exactly 0 or 1. Row order
    is preserved.

    A file with no quote character and none of U+001C..U+001F is parsed by
    np.loadtxt, numpy's C reader, whose result is used when it passes every
    check the csv path makes. Any other file, and any file that fails a
    check, is parsed from the same bytes by the csv path, which is the
    reference for the result and gives every error text with its row number.
    """
    data = _read_bytes(spec.path)
    dataset = _ingest_loadtxt(spec, data)
    return dataset if dataset is not None else _ingest_csv(spec, data)


def _ingest_csv(spec: CsvSpec, data: bytes) -> Dataset:
    column_of, records, numbers = _read_csv_rows(spec, data)
    if spec.label_column not in column_of:
        raise UsageError(
            f"label column {spec.label_column!r} not found; file has {list(column_of)}"
        )

    labels = np.empty(len(records))
    label_idx = column_of[spec.label_column]
    parsed = _parse_column(records, label_idx, labels)
    if not (parsed and ((labels == 0.0) | (labels == 1.0)).all()):
        for r, record in zip(numbers, records):
            cell = record[label_idx].strip(_FLOAT_SPACE)
            if _parse_number(cell, r, spec.label_column) not in (0.0, 1.0):
                raise DataError(
                    f"row {r}, column {spec.label_column!r}: label must be 0 or 1, "
                    f"got {cell!r}"
                )

    if spec.feature_columns is not None:
        missing = [c for c in spec.feature_columns if c not in column_of]
        if missing:
            raise UsageError(f"feature columns not found: {missing}")
        columns = [(name, column_of[name]) for name in spec.feature_columns]
    else:
        columns = [(name, j) for name, j in column_of.items() if name != spec.label_column]
    design, kept = _design_matrix(records, numbers, columns, spec.feature_columns is None)
    return Dataset(design, labels, ("intercept", *kept))


def _fit_payload(result: FitResult, names) -> dict:
    names = list(names)
    return {
        "feature_names": names,
        "coef": {nm: float(v) for nm, v in zip(names, result.coef)},
        "std_errors": {nm: float(v) for nm, v in zip(names, result.std_errors)},
        "log_lik": result.log_lik,
        "deviance": result.deviance,
        "grad_norm": result.grad_norm,
        "iterations": result.iterations,
        "status": result.status.value,
        "covariance": {
            ni: {nj: float(result.covariance[i, j]) for j, nj in enumerate(names)}
            for i, ni in enumerate(names)
        },
    }


def cmd_fit(spec: CsvSpec, config: FitConfig = FitConfig(), out: str = "json") -> RunOutput:
    """Fit the logistic model to a CSV and emit the FitResult."""
    data = ingest(spec)
    result = fit_irls(data, config)
    return RunOutput(out, _fit_payload(result, data.feature_names), "fit")


def cmd_test(spec: CsvSpec, reduced, config: FitConfig = FitConfig(), out: str = "json") -> RunOutput:
    """Likelihood-ratio test: full model vs the given reduced feature set.

    `reduced` lists the feature columns the reduced model keeps (the
    intercept is always included in both models); it must be a strict
    subset of the fitted features.
    """
    data = ingest(spec)
    feature_names = list(data.feature_names[1:])
    reduced = list(dict.fromkeys(reduced))
    unknown = [c for c in reduced if c not in feature_names]
    if unknown:
        raise UsageError(f"reduced columns not among features: {unknown}")
    if len(reduced) >= len(feature_names):
        raise UsageError("reduced features must be a strict subset of the features")
    cols = [0] + [1 + feature_names.index(c) for c in reduced]
    result = lrt_nested(data, cols, config)
    kept = [data.feature_names[j] for j in sorted(cols)]
    return RunOutput(
        out,
        {
            "full_features": list(data.feature_names),
            "reduced_features": kept,
            **asdict(result),
        },
        "test",
    )


def cmd_cv(
    spec: CsvSpec,
    config: FitConfig = FitConfig(),
    threshold: float = 0.5,
    out: str = "json",
) -> RunOutput:
    """Leave-one-out cross-validation plus Press's Q for the error rate."""
    with _reraise(UsageError):
        _threshold_cut(threshold)
    data = ingest(spec)
    with _reraise(DataError):
        report = loocv(data, config, threshold)
    return RunOutput(
        out,
        {
            "n": report.n,
            "per_subject_errors": list(report.per_subject_errors),
            "error_rate": report.error_rate,
            "discriminant_power": report.discriminant_power,
            "non_converged_folds": report.non_converged_folds,
            "press_q": asdict(evaluate_with_press_q(report)),
        },
        "cv",
    )


def cmd_pressq(n: int, rate: float, out: str = "json") -> RunOutput:
    """Press's Q significance for a classification rate (error rate or power)."""
    with _reraise(UsageError):
        result = press_q(n, rate)
    return RunOutput(out, asdict(result), "pressq")


def cmd_curve(n: int, grid_points: int = 1000, out: str = "json") -> RunOutput:
    """Tabulate the power-versus-p-value curve for a sample size."""
    with _reraise(UsageError):
        curve = power_curve(n, grid_points)
    return RunOutput(
        out,
        {
            "n": curve.n,
            "grid_points": int(grid_points),
            "rows": [[p, v] for p, v in curve.rows()],
        },
        "curve",
    )


def _load_model(path: str) -> tuple[list[str], np.ndarray]:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except OSError as exc:
        raise DataError(f"cannot read model file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DataError(f"model file {path} is not valid json: {exc}") from exc
    if not isinstance(payload, dict):
        payload = {}
    names = payload.get("feature_names")
    coef = payload.get("coef")
    if (not isinstance(names, list) or not names or names[0] != "intercept"
            or not all(isinstance(nm, str) for nm in names)):
        raise DataError(f"model file {path}: missing or malformed feature_names")
    try:
        beta = np.array([float(coef[nm]) for nm in names])
    except (TypeError, ValueError, KeyError, OverflowError) as exc:
        raise DataError(f"model file {path}: missing or malformed coef") from exc
    if not np.isfinite(beta).all():
        raise DataError(f"model file {path}: coefficients must be finite")
    return names, beta


def _scores(matrix: np.ndarray, beta: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore", invalid="ignore"):
        return matrix @ beta


def _scores_loadtxt(spec: CsvSpec, data: bytes, features, beta: np.ndarray) -> np.ndarray | None:
    """x·beta of every row by `_loadtxt_columns`, or None unless every check
    of the csv path passes."""
    read = _loadtxt_columns(
        spec, data, lambda column_of, _: features if column_of.keys() >= set(features) else None)
    if read is None or not np.isfinite(read[1]).all():
        return None
    scores = _scores(_with_intercept(read[1]), beta)
    return scores if np.isfinite(scores).all() else None


def cmd_predict(
    model_path: str,
    csv_path: str,
    threshold: float = 0.5,
    delimiter: str = ",",
    has_header: bool = True,
    out: str = "json",
) -> RunOutput:
    """Score new rows with a fitted-model json: per-row probability and label.

    The model's columns are read as in `ingest`: by np.loadtxt when
    the file allows it and every cell and score is finite, otherwise by the
    csv path, which gives every error text.
    """
    with _reraise(UsageError):
        cut = _threshold_cut(threshold)
    names, beta = _load_model(model_path)
    spec = CsvSpec(csv_path, delimiter=delimiter, has_header=has_header)
    data = _read_bytes(csv_path)
    scores = _scores_loadtxt(spec, data, names[1:], beta)
    if scores is None:
        column_of, records, numbers = _read_csv_rows(spec, data)
        missing = [c for c in names[1:] if c not in column_of]
        if missing:
            raise DataError(f"{csv_path}: model feature columns not found: {missing}")
        columns = [(name, column_of[name]) for name in names[1:]]
        scores = _scores(_design_matrix(records, numbers, columns)[0], beta)
        finite = np.isfinite(scores)
        if not finite.all():
            raise DataError(f"row {numbers[finite.argmin()]}: score x·beta is not finite")
    return RunOutput(
        out,
        {
            "feature_names": list(names),
            "threshold": float(threshold),
            "probabilities": logistic(scores).tolist(),
            "labels": (scores > cut).astype(int).tolist(),
        },
        "predict",
    )


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's default 2
        raise UsageError(message)


def _columns(value: str) -> tuple[str, ...]:
    return tuple(c.strip() for c in value.split(",") if c.strip())


# Every flag once; each subcommand in _COMMANDS names the flags it takes, in help order.
_FLAGS = {
    "--label-col": dict(default="y", help='label column name (default "y")'),
    "--features": dict(
        type=_columns,
        help="comma-separated feature columns (default: all numeric non-label columns)",
    ),
    "--delimiter": dict(default=",", help="field delimiter (default comma)"),
    "--no-header": dict(
        action="store_true", help="file has no header row; columns are named col1..colN"
    ),
    "--tol": dict(
        type=float, default=1e-3, help="gradient-norm stopping tolerance (default 0.001)"
    ),
    "--max-iter": dict(type=int, default=100, help="Newton iteration cap (default 100)"),
    "--model": dict(required=True, help="fitted-model json produced by fit"),
    "--threshold": dict(
        type=float, default=0.5, help="classification threshold (default 0.5)"
    ),
    "--reduced": dict(
        type=_columns, required=True,
        help="comma-separated features the reduced model keeps (empty for intercept-only)",
    ),
    "--n": dict(type=int, required=True, help="sample size"),
    "--rate": dict(
        type=float, required=True, help="error rate or discriminant power in [0, 1]"
    ),
    "--grid-points": dict(
        type=int, default=1000, help="number of grid points (default 1000)"
    ),
    "--format": dict(
        choices=("json", "tsv"), default="json", help="output format (default json)"
    ),
}
_DATA_FLAGS = ("--label-col", "--features", "--delimiter", "--no-header", "--tol", "--max-iter")


def _spec(args) -> CsvSpec:
    return CsvSpec(args.csv, args.label_col, args.features, args.delimiter, not args.no_header)


def _config(args) -> FitConfig:
    with _reraise(UsageError):
        return FitConfig(grad_tol=args.tol, max_iter=args.max_iter)


# (name, help, help of the csv argument or None, flags, runner). A runner looks
# its cmd_* function up in this module when it runs, so a patched one is used.
_COMMANDS = (
    ("fit", "fit the logistic model to a CSV", "input CSV file", _DATA_FLAGS,
     lambda a: cmd_fit(_spec(a), _config(a), a.format)),
    ("predict", "score new rows with a fitted-model json", "feature CSV file",
     ("--model", "--threshold", "--delimiter", "--no-header"),
     lambda a: cmd_predict(a.model, a.csv, a.threshold, a.delimiter, not a.no_header, a.format)),
    ("test", "likelihood-ratio test against a reduced model", "input CSV file",
     (*_DATA_FLAGS, "--reduced"),
     lambda a: cmd_test(_spec(a), a.reduced, _config(a), a.format)),
    ("cv", "leave-one-out cross-validation with Press's Q", "input CSV file",
     (*_DATA_FLAGS, "--threshold"),
     lambda a: cmd_cv(_spec(a), _config(a), a.threshold, a.format)),
    ("pressq", "Press's Q for a classification rate", None, ("--n", "--rate"),
     lambda a: cmd_pressq(a.n, a.rate, a.format)),
    ("curve", "power-versus-p-value table", None, ("--n", "--grid-points"),
     lambda a: cmd_curve(a.n, a.grid_points, a.format)),
)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and shared by every call."""
    parser = _Parser(
        prog="logitkit",
        description=(
            "Binary logistic regression from CSV files: Newton/IRLS fitting, "
            "nested-model deviance tests, leave-one-out classification, and "
            "Press's Q significance."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    for name, help_text, csv_help, flags, run in _COMMANDS:
        p = sub.add_parser(name, help=help_text)
        if csv_help:
            p.add_argument("csv", help=csv_help)
        for flag in (*flags, "--format"):
            p.add_argument(flag, **_FLAGS[flag])
        p.set_defaults(run=run)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        print(args.run(args).render())
        return 0
    except (UsageError, DataError, FitNotConvergedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, UsageError) else 2
