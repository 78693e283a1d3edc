"""Command-line front-end: CSV files in, fitted models and test results out.

Subcommands mirror the library surface: fit, predict, test, cv, pressq,
curve. Results go to stdout as json or tsv; diagnostics go to stderr.
Exit codes: 0 for any computed result (a non-converged fit is a result),
1 for usage errors, 2 for data validation errors.
"""

from __future__ import annotations

import argparse
import codecs
import csv
import functools
import io
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
from .model import Dataset, _intercept_design, logistic


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


def _read_bytes(path: str) -> bytes:
    try:
        with open(path, "rb") as handle:
            return handle.read()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc


def _header_map(spec: CsvSpec, top) -> dict:
    """The column index of each name in the file's first record `top`: its
    trimmed cells, or col1..colN when the file has no header row. A repeated
    name leaves the map shorter than `top`."""
    names = ([cell.strip() for cell in top] if spec.has_header
             else [f"col{j}" for j in range(1, len(top) + 1)])
    return {name: j for j, name in enumerate(names)}


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
    column_of, width = _header_map(spec, records[0]), len(records[0])
    if len(column_of) != width:
        raise DataError(f"{path}: duplicate column names in header")
    if spec.has_header:
        records, numbers = records[1:], numbers[1:]
    if not records:
        raise DataError(f"{path}: no data rows")
    if set(map(len, records)) != {width}:
        for r, record in zip(numbers, records):
            if len(record) != width:
                raise DataError(f"row {r}: expected {width} cells, got {len(record)}")
    return column_of, records, numbers


def _parse_column(records, j: int, out: np.ndarray) -> bool:
    """Parse cell j of every record into `out` with float(), which strips
    _FLOAT_SPACE; False, leaving `out` as it was, when some cell is not a
    number. Whether the values are finite is the caller's check."""
    try:
        out[:] = np.fromiter(map(float, map(itemgetter(j), records)), float, len(records))
    except ValueError:
        return False
    return True


# csv.reader and np.loadtxt split a file alike only without these bytes: a
# quote joins lines in csv.reader, and loadtxt strips the ASCII separators
# U+001C..U+001F around a number where float() rejects them
_LOADTXT_UNSAFE = b'"\x1c\x1d\x1e\x1f'


def _loadtxt_columns(spec: CsvSpec, data: bytes, pick):
    """The header map, the names `pick(column_of, first_record)` chooses and
    their columns behind the intercept column, parsed by np.loadtxt over the
    file's bytes `data`; None when the csv path must read them instead, as
    when a name is not in the header.

    The file is framed once, on its bytes after any BOM. Its lines end at LF,
    and a line that is empty or a lone CR is blank. Every other line must hold
    as many bytes of the delimiter as the header, so the delimiter must be
    ASCII (such a byte is never part of a longer UTF-8 sequence), and none may
    be longer than csv.field_size_limit() bytes, so csv.reader would refuse no
    field. The header and the first data row are split by csv.reader; loadtxt
    reads only the chosen columns, from the first data row on, and must give
    one row per non-blank line (it refuses a line that a lone CR splits). The
    caller checks the values themselves.
    """
    delimiter, header = spec.delimiter, int(spec.has_header)
    start = len(codecs.BOM_UTF8) if data.startswith(codecs.BOM_UTF8) else 0
    if len(data) <= start or not delimiter.isascii() or any(b in data for b in _LOADTXT_UNSAFE):
        return None
    codes = np.frombuffer(data, np.uint8)
    ends = np.flatnonzero(codes == ord("\n"))
    if not data.endswith(b"\n"):
        ends = np.append(ends, len(data))
    starts = np.r_[start, ends[:-1] + 1]
    lengths = ends - starts
    lines = np.flatnonzero((lengths > 1) | ((lengths == 1) & (codes[ends - 1] != ord("\r"))))
    # a line's count runs to the next line's start, over its LF, which is no delimiter byte
    counts = np.add.reduceat(codes == ord(delimiter), starts, dtype=np.int32)[lines]
    if len(lines) <= header or (counts != counts[0]).any() or lengths.max() > csv.field_size_limit():
        return None
    try:
        top, first = (next(csv.reader([data[starts[i]:ends[i]].decode()], delimiter=delimiter))
                      for i in lines[[0, header]])
    except (UnicodeDecodeError, csv.Error):  # a bad byte, or a lone CR inside the line
        return None
    column_of = _header_map(spec, top)
    if not len(column_of) == len(top) == len(first) == counts[0] + 1:
        return None
    names = pick(column_of, first)
    if not column_of.keys() >= set(names):
        return None
    stream = io.BytesIO(data)
    stream.seek(starts[lines[header]])
    try:  # the stream holds a data row, so loadtxt has no empty-input warning to give
        table = np.loadtxt(stream, delimiter=delimiter, comments=None, ndmin=2, encoding="utf-8",
                           usecols=[column_of[name] for name in names])
    except (ValueError, TypeError):
        return None
    if len(table) != len(lines) - header:
        return None
    matrix = _intercept_design(len(table), len(names))
    matrix[:, 1:] = table
    return column_of, names, matrix


class _Fallback(Exception):
    """A check failed on the C reader's matrix: the csv path reads the file."""


def _read_columns(spec: CsvSpec, data: bytes, pick, use):
    """use(column_of, names, matrix, rows) on the file's header map, the
    names that `pick(column_of, first_record)` chooses, and a float matrix
    of the intercept column of ones followed by their columns, column k
    holding names[k - 1].

    `_loadtxt_columns` reads them when it can, with rows None; if it gives
    up, or a check in `use` fails and raises _Fallback, the csv path reads
    the same bytes, with rows (records, numbers), and is the only source of
    error texts. There a name not in the header, or a column with a cell
    that is not a number, is all NaN.
    """
    read = _loadtxt_columns(spec, data, pick)
    if read is not None:
        try:
            return use(*read, None)
        except _Fallback:
            pass
    column_of, records, numbers = _read_csv_rows(spec, data)
    names = pick(column_of, records[0])
    matrix = _intercept_design(len(records), len(names))
    for k, name in enumerate(names, 1):
        if name in column_of:
            _parse_column(records, column_of[name], matrix[:, k])
    return use(column_of, names, matrix, (records, numbers))


def _bad_cell(rows, column_of, names, label: bool = False) -> Exception:
    """What a failed cell check raises: _Fallback on the C reader's matrix
    (rows None); on the csv path's, the DataError of the first cell, row by
    row and in `names` order, that float() rejects, that is not finite, or,
    in a `label` column, that is not 0 or 1."""
    if rows is None:
        return _Fallback()
    records, numbers = rows
    for r, record in zip(numbers, records):
        for name in names:
            cell = record[column_of[name]].strip(_FLOAT_SPACE)
            try:
                value = float(cell)
            except ValueError:
                return DataError(f"row {r}, column {name!r}: cannot parse {cell!r} as a number")
            if not math.isfinite(value):
                return DataError(f"row {r}, column {name!r}: value must be finite, got {cell!r}")
            if label and value not in (0.0, 1.0):
                return DataError(f"row {r}, column {name!r}: label must be 0 or 1, got {cell!r}")


def ingest(spec: CsvSpec) -> Dataset:
    """Read a CSV into a Dataset, prepending the intercept column.

    Cell-level failures raise DataError naming the 1-based data row and
    the column; the label column must parse to exactly 0 or 1. Row order
    is preserved. A column named intercept is a DataError, since the
    intercept's coefficient goes by that name.

    The label and feature columns come from `_read_columns`: numpy's C
    reader takes a file with an ASCII delimiter, no quote character, none
    of U+001C..U+001F and the header's width on every line, reads only
    those columns, and its matrix is used when it passes the checks in
    `use`. Any other file, and any file that fails a check, is read from
    the same bytes by the csv path, whose matrix meets the same checks; it
    is the reference for the result and gives every error text with its
    row number.
    """
    label, features = spec.label_column, spec.feature_columns

    def pick(column_of, first):  # the label goes last, so the design is the matrix up to it
        if features is not None:
            return [*features, label]
        cell = np.empty(1)  # a column whose first cell is not a finite number is dropped anyway
        return [*(name for name, j in column_of.items()
                  if name != label and _parse_column([first], j, cell) and np.isfinite(cell[0])),
                label]

    def use(column_of, names, matrix, rows):
        if label not in column_of:
            raise UsageError(f"label column {label!r} not found; file has {list(column_of)}")
        labels = matrix[:, -1]
        if not ((labels == 0.0) | (labels == 1.0)).all():
            raise _bad_cell(rows, column_of, [label], label=True)
        missing = [name for name in names[:-1] if name not in column_of]
        if missing:
            raise UsageError(f"feature columns not found: {missing}")
        finite = np.isfinite(matrix[:, 1:-1]).all(axis=0)
        if features is not None and not finite.all():
            raise _bad_cell(rows, column_of, names[:-1])
        kept = [name for name, ok in zip(names, finite) if ok]
        design = matrix[:, :-1] if finite.all() else np.compress(np.r_[True, finite, False], matrix, 1)
        with _reraise(DataError):  # such as a column named intercept
            return Dataset(design, labels, ("intercept", *kept))

    return _read_columns(spec, _read_bytes(spec.path), pick, use)


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
            or not all(isinstance(nm, str) for nm in names) or len(set(names)) != len(names)):
        raise DataError(f"model file {path}: missing or malformed feature_names")
    try:
        beta = np.array([float(coef[nm]) for nm in names])
    except (TypeError, ValueError, KeyError, OverflowError) as exc:
        raise DataError(f"model file {path}: missing or malformed coef") from exc
    if not np.isfinite(beta).all():
        raise DataError(f"model file {path}: coefficients must be finite")
    return names, beta


def cmd_predict(
    model_path: str,
    csv_path: str,
    threshold: float = 0.5,
    delimiter: str = ",",
    has_header: bool = True,
    out: str = "json",
) -> RunOutput:
    """Score new rows with a fitted-model json: per-row probability and label.

    The model's feature columns come from `_read_columns`, as in `ingest`;
    the C reader reads no other column, and its matrix is used when every
    cell and every score x·beta is finite; otherwise the csv path reads the
    file and gives the error text. A model whose feature_names repeat a name
    is a DataError.
    """
    with _reraise(UsageError):
        cut = _threshold_cut(threshold)
    names, beta = _load_model(model_path)

    def use(column_of, features, matrix, rows):
        missing = [name for name in features if name not in column_of]
        if missing:
            raise DataError(f"{csv_path}: model feature columns not found: {missing}")
        if not np.isfinite(matrix).all():
            raise _bad_cell(rows, column_of, features)
        with np.errstate(over="ignore", invalid="ignore"):
            scores = matrix @ beta
        finite = np.isfinite(scores)
        if not finite.all():
            raise _Fallback() if rows is None else DataError(
                f"row {rows[1][finite.argmin()]}: score x·beta is not finite")
        return scores

    spec = CsvSpec(csv_path, delimiter=delimiter, has_header=has_header)
    scores = _read_columns(spec, _read_bytes(csv_path), lambda *_: names[1:], use)
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
