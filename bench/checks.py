"""Correctness checks against computations made apart from logitkit.

Each oracle reads a workload's inputs itself (the csv module, numpy, scipy;
no logitkit code), does its expensive work once, and then judges every
distinct output a run produced with ``failures(paths)``, which returns a
list of messages, empty when the output passes. Nothing is stored: every
reference is recomputed from the seeded inputs on each run.
"""

from __future__ import annotations

import csv
import json

import numpy as np
from scipy import optimize, special, stats

GRAD_TOL = 1e-3  # logitkit's default stopping rule, which every timed call uses
SE_SHARE = 0.01  # coefficients must agree with scipy within this share of a standard error
SCORE_MARGIN = 1e-3  # LOO subjects this close to logit(0.5) = 0 may differ from the reference
P_RTOL = 1e-9


def _reject_constant(token):
    raise ValueError(f"bare {token} token is not valid JSON")


def load_json(path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle, parse_constant=_reject_constant)


def read_table(path) -> dict[str, list[str]]:
    """Columns of a headed CSV, as lists of raw cells, in header order."""
    with open(path, encoding="utf-8", newline="") as handle:
        rows = [row for row in csv.reader(handle) if row]
    return {name.strip(): [row[j] for row in rows[1:]] for j, name in enumerate(rows[0])}


def numeric(cells) -> np.ndarray | None:
    """The column as floats, or None if any cell is not a finite number."""
    try:
        values = np.array([float(c) for c in cells])
    except ValueError:
        return None
    return values if np.all(np.isfinite(values)) else None


def design(table: dict, names) -> np.ndarray:
    return np.column_stack([np.ones(len(table["y"]))] + [numeric(table[n]) for n in names])


def information(x, beta) -> np.ndarray:
    p = special.expit(x @ beta)
    return x.T @ (x * (p * (1.0 - p))[:, None])


def newton_mle(x, y, max_iter: int = 60) -> np.ndarray:
    """Reference MLE: plain Newton from zero, run until the step is negligible
    (relative 1e-12), well past logitkit's 1e-3 gradient rule."""
    beta = np.zeros(x.shape[1])
    for _ in range(max_iter):
        grad = x.T @ (y - special.expit(x @ beta))
        step = np.linalg.solve(information(x, beta), grad)
        beta = beta + step
        if np.linalg.norm(step) <= 1e-12 * (1.0 + np.linalg.norm(beta)):
            return beta
    raise ArithmeticError("reference Newton did not converge")


def deviance(x, y, beta) -> float:
    s = x @ beta
    return float(2.0 * (np.sum(np.logaddexp(0.0, s)) - y @ s))


def scipy_mle(x, y) -> np.ndarray:
    """MLE by scipy's BFGS on the negative log-likelihood, with standardized
    features so the minimiser is well-scaled, mapped back to raw units."""
    mu = x[:, 1:].mean(axis=0)
    sd = x[:, 1:].std(axis=0)
    z = np.column_stack([np.ones(len(y)), (x[:, 1:] - mu) / sd])

    def nll(b):
        s = z @ b
        return np.sum(np.logaddexp(0.0, s)) - y @ s

    def jac(b):
        return z.T @ (special.expit(z @ b) - y)

    b = optimize.minimize(nll, np.zeros(z.shape[1]), jac=jac, method="BFGS",
                          options={"gtol": 1e-8, "maxiter": 2000}).x
    return np.r_[b[0] - (mu / sd) @ b[1:], b[1:] / sd]


def _close(a, b, rtol=P_RTOL, atol=0.0) -> bool:
    return bool(np.all(np.abs(np.asarray(a, float) - np.asarray(b, float)) <= atol + rtol * np.abs(b)))


def _press_failures(where, n, rate, q, p) -> list[str]:
    out = []
    q_ref = n * (2.0 * rate - 1.0) ** 2
    if not _close(q, q_ref, rtol=1e-12, atol=1e-12):
        out.append(f"{where}: Q {q!r} != n(2r-1)^2 = {q_ref!r}")
    if not _close(p, stats.chi2.sf(q_ref, 1), atol=1e-300):
        out.append(f"{where}: p-value {p!r} != chi2.sf(Q, 1) = {stats.chi2.sf(q_ref, 1)!r}")
    return out


class FitPredictOracle:
    """csv-fit-predict: the fit json against scipy and the benchmark's own
    algebra, and the predict json against logistic(X beta)."""

    def __init__(self, train_path, test_path):
        train = read_table(train_path)
        self.features = [n for n, cells in train.items() if n != "y" and numeric(cells) is not None]
        self.x = design(train, self.features)
        self.y = numeric(train["y"])
        self.beta_ref = scipy_mle(self.x, self.y)
        self.test = read_table(test_path)

    def failures(self, paths) -> list[str]:
        try:
            fit, pred = load_json(paths["fit"]), load_json(paths["predict"])
        except ValueError as exc:
            return [f"output is not valid JSON: {exc}"]
        out = []
        names = fit["feature_names"]
        if "id" in names:
            out.append("the non-numeric id column was taken as a feature")
        if names != ["intercept"] + self.features:
            out.append(f"feature_names {names} != intercept + numeric columns {self.features}")
            return out
        beta = np.array([fit["coef"][n] for n in names])
        grad = np.linalg.norm(self.x.T @ (self.y - special.expit(self.x @ beta)))
        if not grad <= GRAD_TOL:
            out.append(f"gradient norm {grad:.3g} at the reported coefficients exceeds {GRAD_TOL}")
        se = np.sqrt(np.diag(np.linalg.inv(information(self.x, beta))))
        if not _close([fit["std_errors"][n] for n in names], se, rtol=1e-6):
            out.append("std_errors differ from sqrt(diag((X'SX)^-1))")
        worst = float(np.max(np.abs(beta - self.beta_ref) / se))
        if not worst <= SE_SHARE:
            out.append(f"coefficients differ from scipy's minimiser by {worst:.3g} standard errors")

        if pred["feature_names"] != names or pred["threshold"] != 0.5:
            out.append("predict echoes the wrong model or threshold")
            return out
        scores = design(self.test, names[1:]) @ beta
        if len(pred["probabilities"]) != scores.size or len(pred["labels"]) != scores.size:
            return out + [f"predict returned the wrong number of rows (want {scores.size})"]
        if not _close(pred["probabilities"], special.expit(scores), rtol=1e-12, atol=1e-300):
            out.append("probabilities differ from logistic(X beta)")
        wrong = (np.array(pred["labels"]) != (scores > 0)) & (np.abs(scores) > 1e-9)
        if np.any(wrong):
            out.append(f"{int(wrong.sum())} labels disagree with the sign of the score")
        return out


class LooOracle:
    """loo-cv: per-subject errors against a leave-one-out refitted here (the
    regular tables) or against the tie set (the quasi-separated table), and
    the error rate, Q and p-value of every table."""

    def __init__(self, table_paths: dict, separated: set):
        self.tables = {}
        for name, path in table_paths.items():
            table = read_table(path)
            x = design(table, [n for n in table if n != "y"])
            y = numeric(table["y"])
            if name in separated:
                self.tables[name] = (y.size, None, set(np.flatnonzero(x[:, 1] == 0.0).tolist()))
                continue
            keep = np.ones(y.size, bool)
            scores = np.empty(y.size)
            for i in range(y.size):
                keep[i] = False
                scores[i] = x[i] @ newton_mle(x[keep], y[keep])
                keep[i] = True
            self.tables[name] = (y.size, ((scores > 0) != (y == 1)).astype(int), scores)

    def failures(self, paths) -> list[str]:
        out = []
        for name, (n, ref_errors, extra) in self.tables.items():
            try:
                rep = load_json(paths[name])
            except ValueError as exc:
                out.append(f"{name}: output is not valid JSON: {exc}")
                continue
            errors = np.array(rep["per_subject_errors"])
            if rep["n"] != n or errors.size != n or not set(errors.tolist()) <= {0, 1}:
                out.append(f"{name}: want {n} per-subject errors of 0 or 1")
                continue
            if ref_errors is None:
                stray = set(np.flatnonzero(errors).tolist()) - extra
                if stray:
                    out.append(f"{name}: errors off the tie set at subjects {sorted(stray)[:5]}")
            else:
                differ = (errors != ref_errors) & (np.abs(extra) > SCORE_MARGIN)
                if np.any(differ):
                    out.append(f"{name}: errors differ from the reference leave-one-out at "
                               f"subjects {np.flatnonzero(differ)[:5].tolist()}")
            rate = errors.sum() / n
            if rep["error_rate"] != rate or not _close(rep["discriminant_power"], 1.0 - rate, 1e-15):
                out.append(f"{name}: error_rate {rep['error_rate']!r} is not the mean error {rate!r}")
            pq = rep["press_q"]
            if pq["n"] != n or pq["error_rate"] != rate:
                out.append(f"{name}: press_q echoes the wrong n or rate")
            out += _press_failures(name, n, rate, pq["q_statistic"], pq["p_value"])
        return out


class InferenceOracle:
    """big-n-inference: the LRT against deviances fitted here, p-values
    against scipy, the power curve against erfc(sqrt(q/2))."""

    def __init__(self, features, labels, kept: int, curve_n: int, curve_points: int, press_rate: float):
        x = np.column_stack([np.ones(len(labels)), features])
        full = deviance(x, labels, newton_mle(x, labels))
        reduced = deviance(x[:, : kept + 1], labels, newton_mle(x[:, : kept + 1], labels))
        self.statistic = reduced - full
        self.df = features.shape[1] - kept
        self.n = len(labels)
        powers = np.arange(1, curve_points + 1) / curve_points
        self.curve = (powers, special.erfc(np.sqrt(curve_n * (2.0 * powers - 1.0) ** 2 / 2.0)))
        self.press_rate = press_rate

    def failures(self, paths) -> list[str]:
        try:
            lrt, press = load_json(paths["lrt"]), load_json(paths["press_q"])
        except ValueError as exc:
            return [f"output is not valid JSON: {exc}"]
        if lrt is None or press is None:
            return ["an operation returned no result"]
        out = []
        stat = lrt["statistic"]
        if not abs(stat - self.statistic) <= 1e-6:
            out.append(f"LRT statistic {stat!r} != independent deviance difference {self.statistic!r}")
        if stat != lrt["deviance_reduced"] - lrt["deviance_full"]:
            out.append("LRT statistic is not deviance_reduced - deviance_full")
        if lrt["df"] != self.df:
            out.append(f"LRT df {lrt['df']} != {self.df} dropped columns")
        if not _close(lrt["p_value"], stats.chi2.sf(max(stat, 0.0), self.df), atol=1e-300):
            out.append(f"LRT p-value {lrt['p_value']!r} != chi2.sf")
        curve = np.load(paths["curve"])
        if curve.shape != (2, self.curve[0].size) or not np.array_equal(curve[0], self.curve[0]):
            out.append("power curve grid is wrong")
        elif not _close(curve[1], self.curve[1], rtol=1e-8, atol=1e-12):
            bad = np.flatnonzero(np.abs(curve[1] - self.curve[1]) > 1e-12 + 1e-8 * self.curve[1])
            out.append(f"power-curve p-values differ from erfc(sqrt(q/2)) at {bad[:5].tolist()}")
        if press["n"] != self.n or press["error_rate"] != self.press_rate:
            out.append("press_q echoes the wrong n or rate")
        out += _press_failures("press_q", self.n, self.press_rate, press["q_statistic"], press["p_value"])
        return out
