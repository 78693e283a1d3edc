"""Command-line front-end: CSV files in, fitted models and test results out.

Subcommands mirror the library surface: fit, predict, test, cv, pressq,
curve. Results go to stdout as json or tsv; diagnostics go to stderr.
Exit codes: 0 for any computed result (a non-converged fit is a result),
1 for usage errors, 2 for data validation errors.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from .classify import evaluate_with_press_q, loocv
from .fit import FitConfig, FitResult, fit_irls
from .inference import FitNotConvergedError, lrt_nested, power_curve, press_q
from .model import Dataset, logistic, logit


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
        if self.feature_columns is not None and self.label_column in self.feature_columns:
            raise UsageError(
                f"label column {self.label_column!r} cannot also be a feature"
            )


@dataclass(frozen=True)
class RunOutput:
    """A rendered-ready result: output format plus the json-compatible payload."""

    format: str
    payload: dict
    kind: str

    def render(self) -> str:
        if self.format == "json":
            try:  # strict JSON: NaN and Infinity are written as null
                return json.dumps(self.payload, indent=2, allow_nan=False)
            except ValueError:
                loose = json.loads(json.dumps(self.payload), parse_constant=lambda _: None)
                return json.dumps(loose, indent=2)
        if self.kind == "curve":
            return "\n".join(
                f"{_fmt(p)}\t{_fmt(v)}" for p, v in self.payload["rows"]
            )
        if self.kind == "predict":
            return "\n".join(
                f"{_fmt(p)}\t{lab}"
                for p, lab in zip(self.payload["probabilities"], self.payload["labels"])
            )
        return "\n".join(f"{key}\t{_fmt(val)}" for key, val in _flatten(self.payload))


def _fmt(value) -> str:
    # shortest decimal that round-trips the exact float
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _flatten(obj, prefix: str = ""):
    if isinstance(obj, dict):
        for key, val in obj.items():
            yield from _flatten(val, f"{prefix}.{key}" if prefix else str(key))
    elif isinstance(obj, (list, tuple)):
        for i, val in enumerate(obj):
            yield from _flatten(val, f"{prefix}.{i}" if prefix else str(i))
    else:
        yield prefix, obj


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


def _read_csv_rows(path: str, delimiter: str, has_header: bool):
    """Header names, the non-blank records, and their data row numbers (blank
    rows are skipped but counted, so "row r" is the r-th row after the header)."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as handle:
            raw = list(csv.reader(handle, delimiter=delimiter))
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DataError(f"cannot decode {path} as UTF-8: {exc}") from exc
    records = list(filter(None, raw))
    if not records:
        raise DataError(f"{path}: file is empty")
    first = next(i for i, row in enumerate(raw) if row) if has_header else -1
    numbers = [i - first for i, row in enumerate(raw) if row]
    if has_header:
        names = [cell.strip() for cell in records[0]]
        records, numbers = records[1:], numbers[1:]
    else:
        names = [f"col{i}" for i in range(1, len(records[0]) + 1)]
    if len(set(names)) != len(names):
        raise DataError(f"{path}: duplicate column names in header")
    if not records:
        raise DataError(f"{path}: no data rows")
    width = len(names)
    if set(map(len, records)) != {width}:
        for r, record in zip(numbers, records):
            if len(record) != width:
                raise DataError(f"row {r}: expected {width} cells, got {len(record)}")
    return names, records, numbers


def _parse_column(records, j: int, out: np.ndarray) -> bool:
    """Parse cell j of every record into `out` with float(), which strips what
    str.strip() strips; True when every cell gives a finite number."""
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
                    _parse_number(record[bad_j].strip(), r, bad_name)
    return matrix[:, : 1 + len(kept)], kept


def ingest(spec: CsvSpec) -> Dataset:
    """Read a CSV into a Dataset, prepending the intercept column.

    Cell-level failures raise DataError naming the 1-based data row and
    the column; the label column must parse to exactly 0 or 1. Row order
    is preserved.
    """
    names, records, numbers = _read_csv_rows(spec.path, spec.delimiter, spec.has_header)
    if spec.label_column not in names:
        raise UsageError(
            f"label column {spec.label_column!r} not found; file has {names}"
        )
    column_of = {name: j for j, name in enumerate(names)}

    labels = np.empty(len(records))
    label_idx = column_of[spec.label_column]
    parsed = _parse_column(records, label_idx, labels)
    if not (parsed and ((labels == 0.0) | (labels == 1.0)).all()):
        for r, record in zip(numbers, records):
            cell = record[label_idx].strip()
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
        columns = [(name, j) for j, name in enumerate(names) if name != spec.label_column]
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
            "deviance_reduced": result.deviance_reduced,
            "deviance_full": result.deviance_full,
            "statistic": result.statistic,
            "df": result.df,
            "p_value": result.p_value,
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
    if not 0.0 < float(threshold) < 1.0:
        raise UsageError(f"threshold must lie strictly inside (0, 1), got {threshold}")
    data = ingest(spec)
    try:
        report = loocv(data, config, threshold)
    except ValueError as exc:
        raise DataError(str(exc)) from exc
    pq = evaluate_with_press_q(report)
    return RunOutput(
        out,
        {
            "n": report.n,
            "per_subject_errors": list(report.per_subject_errors),
            "error_rate": report.error_rate,
            "discriminant_power": report.discriminant_power,
            "non_converged_folds": report.non_converged_folds,
            "press_q": {
                "n": pq.n,
                "error_rate": pq.error_rate,
                "q_statistic": pq.q_statistic,
                "p_value": pq.p_value,
            },
        },
        "cv",
    )


def cmd_pressq(n: int, rate: float, out: str = "json") -> RunOutput:
    """Press's Q significance for a classification rate (error rate or power)."""
    try:
        result = press_q(n, rate)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    return RunOutput(
        out,
        {
            "n": result.n,
            "error_rate": result.error_rate,
            "q_statistic": result.q_statistic,
            "p_value": result.p_value,
        },
        "pressq",
    )


def cmd_curve(n: int, grid_points: int = 1000, out: str = "json") -> RunOutput:
    """Tabulate the power-versus-p-value curve for a sample size."""
    try:
        curve = power_curve(n, grid_points)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
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
    names = payload.get("feature_names")
    coef = payload.get("coef")
    if not isinstance(names, list) or not names or names[0] != "intercept":
        raise DataError(f"model file {path}: missing or malformed feature_names")
    if not isinstance(coef, dict) or any(nm not in coef for nm in names):
        raise DataError(f"model file {path}: missing or malformed coef")
    beta = np.array([float(coef[nm]) for nm in names])
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
    """Score new rows with a fitted-model json: per-row probability and label."""
    threshold = float(threshold)
    if not 0.0 < threshold < 1.0:
        raise UsageError(f"threshold must lie strictly inside (0, 1), got {threshold}")
    names, beta = _load_model(model_path)
    file_names, records, numbers = _read_csv_rows(csv_path, delimiter, has_header)
    column_of = {name: j for j, name in enumerate(file_names)}
    missing = [c for c in names[1:] if c not in column_of]
    if missing:
        raise DataError(f"{csv_path}: model feature columns not found: {missing}")
    columns = [(name, column_of[name]) for name in names[1:]]
    matrix = _design_matrix(records, numbers, columns)[0]
    with np.errstate(over="ignore", invalid="ignore"):
        scores = matrix @ beta
    finite = np.isfinite(scores)
    if not finite.all():
        raise DataError(f"row {numbers[finite.argmin()]}: score x·beta is not finite")
    return RunOutput(
        out,
        {
            "feature_names": list(names),
            "threshold": threshold,
            "probabilities": logistic(scores).tolist(),
            "labels": (scores > logit(threshold)).astype(int).tolist(),
        },
        "predict",
    )


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's default 2
        raise UsageError(message)


def _add_csv_options(parser) -> None:
    parser.add_argument("csv", help="input CSV file")
    parser.add_argument("--label-col", default="y", help='label column name (default "y")')
    parser.add_argument(
        "--features",
        default=None,
        help="comma-separated feature columns (default: all numeric non-label columns)",
    )
    parser.add_argument("--delimiter", default=",", help="field delimiter (default comma)")
    parser.add_argument(
        "--no-header",
        action="store_true",
        help="file has no header row; columns are named col1..colN",
    )


def _add_config_options(parser) -> None:
    parser.add_argument(
        "--tol", type=float, default=1e-3,
        help="gradient-norm stopping tolerance (default 0.001)",
    )
    parser.add_argument(
        "--max-iter", type=int, default=100, help="Newton iteration cap (default 100)"
    )


def _add_format_option(parser) -> None:
    parser.add_argument(
        "--format", choices=("json", "tsv"), default="json",
        help="output format (default json)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="logitkit",
        description=(
            "Binary logistic regression from CSV files: Newton/IRLS fitting, "
            "nested-model deviance tests, leave-one-out classification, and "
            "Press's Q significance."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser("fit", help="fit the logistic model to a CSV")
    _add_csv_options(p)
    _add_config_options(p)
    _add_format_option(p)

    p = sub.add_parser("predict", help="score new rows with a fitted-model json")
    p.add_argument("csv", help="feature CSV file")
    p.add_argument("--model", required=True, help="fitted-model json produced by fit")
    p.add_argument("--threshold", type=float, default=0.5,
                   help="classification threshold (default 0.5)")
    p.add_argument("--delimiter", default=",", help="field delimiter (default comma)")
    p.add_argument("--no-header", action="store_true",
                   help="file has no header row; columns are named col1..colN")
    _add_format_option(p)

    p = sub.add_parser("test", help="likelihood-ratio test against a reduced model")
    _add_csv_options(p)
    _add_config_options(p)
    p.add_argument(
        "--reduced", required=True,
        help="comma-separated features the reduced model keeps (empty for intercept-only)",
    )
    _add_format_option(p)

    p = sub.add_parser("cv", help="leave-one-out cross-validation with Press's Q")
    _add_csv_options(p)
    _add_config_options(p)
    p.add_argument("--threshold", type=float, default=0.5,
                   help="classification threshold (default 0.5)")
    _add_format_option(p)

    p = sub.add_parser("pressq", help="Press's Q for a classification rate")
    p.add_argument("--n", type=int, required=True, help="sample size")
    p.add_argument("--rate", type=float, required=True,
                   help="error rate or discriminant power in [0, 1]")
    _add_format_option(p)

    p = sub.add_parser("curve", help="power-versus-p-value table")
    p.add_argument("--n", type=int, required=True, help="sample size")
    p.add_argument("--grid-points", type=int, default=1000,
                   help="number of grid points (default 1000)")
    _add_format_option(p)

    return parser


def _split_columns(value: str | None):
    if value is None:
        return None
    return tuple(c.strip() for c in value.split(",") if c.strip())


def _csv_spec(args) -> CsvSpec:
    return CsvSpec(
        path=args.csv,
        label_column=args.label_col,
        feature_columns=_split_columns(args.features),
        delimiter=args.delimiter,
        has_header=not args.no_header,
    )


def _fit_config(args) -> FitConfig:
    try:
        return FitConfig(grad_tol=args.tol, max_iter=args.max_iter)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _dispatch(args) -> RunOutput:
    if args.command == "fit":
        return cmd_fit(_csv_spec(args), _fit_config(args), args.format)
    if args.command == "predict":
        return cmd_predict(
            args.model, args.csv, args.threshold, args.delimiter,
            not args.no_header, args.format,
        )
    if args.command == "test":
        reduced = _split_columns(args.reduced) or ()
        return cmd_test(_csv_spec(args), list(reduced), _fit_config(args), args.format)
    if args.command == "cv":
        return cmd_cv(_csv_spec(args), _fit_config(args), args.threshold, args.format)
    if args.command == "pressq":
        return cmd_pressq(args.n, args.rate, args.format)
    if args.command == "curve":
        return cmd_curve(args.n, args.grid_points, args.format)
    raise UsageError(f"unknown command {args.command!r}")


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        print(_dispatch(args).render())
        return 0
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (DataError, FitNotConvergedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
