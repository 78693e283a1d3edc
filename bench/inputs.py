"""Seeded inputs for the benchmark workloads.

Every array comes from ``numpy.random.default_rng([seed, stream])``, so one
seed gives byte-identical files. The true coefficients are constants, set
so that every fit stops with a wide margin either side of the 1e-3 gradient
rule: a seed changes the draws but not the number of Newton steps, so the
work per round does not depend on the seed.

The loo-cv tables are the exception: at n = 150..200 the fitted
coefficients vary so much from draw to draw that whole tables flip between
4 and 5 Newton steps per fold (about 7% of a round). They are drawn once
from CV_BASE_SEED, and ``--seed`` permutes their rows, which leaves the
leave-one-out work unchanged.
"""

from __future__ import annotations

import csv

import numpy as np

# csv-fit-predict: two tables of the same make-up (id, x1..x10, y).
FIT_ROWS = 20_000
PREDICT_ROWS = 20_000
FIT_SCALES = np.array([1.0, 2.0, 0.5, 10.0, 1.0, 3.0, 0.2, 1.0, 50.0, 1.0])
FIT_COEF = np.array([-0.4, 0.8, -0.3, 1.2, 0.04, -0.6, 0.2, -2.0, 0.5, 0.006, 0.0])

# loo-cv: (name, rows, features, quasi-separated on x1)
CV_SETS = (("cv-a", 150, 3, False), ("cv-b", 200, 6, False), ("cv-sep", 160, 4, True))
CV_COEF = np.array([0.3, 1.1, -0.8, 0.6, -0.4, 0.9, 0.25])
CV_BASE_SEED = 2020
SEP_STEP = 0.01  # separated x1 values are +-SEP_STEP * {1..5}; the tie set sits at 0

# big-n-inference: an in-memory design; the reduced model keeps x1..x10.
BIG_ROWS = 100_000
BIG_FEATURES = 20
BIG_KEPT = 10
BIG_COEF = np.r_[-0.12, np.linspace(0.36, -0.36, BIG_KEPT), np.full(BIG_FEATURES - BIG_KEPT, 0.01)]
CURVE_N = 200
CURVE_POINTS = 50_000


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def _labels(rng, design, coef) -> np.ndarray:
    return (rng.random(design.shape[0]) < 1.0 / (1.0 + np.exp(-(design @ coef)))).astype(int)


def _write_csv(path, header, columns) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(zip(*columns))


def _fmt(values) -> list[str]:
    return [format(v, ".6g") for v in values.tolist()]


def fit_table(path, seed: int, stream: int, rows: int) -> None:
    """id, x1..x10, y: ten numeric features of mixed scale, one binary, and
    a non-numeric id column that auto feature detection must skip."""
    rng = _rng(seed, stream)
    x = rng.standard_normal((rows, FIT_SCALES.size)) * FIT_SCALES
    x[:, 4] = (x[:, 4] > 0).astype(float)
    # round first, so the labels follow the same numbers the file holds
    x = np.array([[float(c) for c in _fmt(col)] for col in x.T]).T
    y = _labels(rng, np.column_stack([np.ones(rows), x]), FIT_COEF)
    ids = [f"s{seed}-{stream}-{i:06d}" for i in range(rows)]
    header = ["id"] + [f"x{j}" for j in range(1, x.shape[1] + 1)] + ["y"]
    _write_csv(path, header, [ids] + [_fmt(col) for col in x.T] + [y.tolist()])


def cv_table(path, seed: int, stream: int, rows: int, k: int, separated: bool) -> None:
    """x1..xk, y, drawn from CV_BASE_SEED with rows in a ``seed`` order. With
    ``separated``, y = [x1 > 0] off the tie set x1 == 0 and random on it
    (about a fifth of the rows): quasi-complete separation."""
    rng = _rng(CV_BASE_SEED, stream)
    x = np.round(rng.standard_normal((rows, k)), 4)
    y = _labels(rng, np.column_stack([np.ones(rows), x]), CV_COEF[: k + 1])
    if separated:
        tie = rng.random(rows) < 0.2
        side = np.where(rng.random(rows) < 0.5, -1.0, 1.0)
        x[:, 0] = np.where(tie, 0.0, side * SEP_STEP * rng.integers(1, 6, rows))
        y = np.where(tie, _labels(rng, np.column_stack([np.ones(rows), x[:, 1:]]),
                                  np.r_[0.0, CV_COEF[2 : k + 1]]), x[:, 0] > 0).astype(int)
    order = _rng(seed, stream).permutation(rows)
    header = [f"x{j}" for j in range(1, k + 1)] + ["y"]
    _write_csv(path, header, [_fmt(col) for col in x[order].T] + [y[order].tolist()])


def big_arrays(seed: int, rows: int = BIG_ROWS) -> tuple[np.ndarray, np.ndarray]:
    """Features (rows x BIG_FEATURES) and 0/1 labels."""
    rng = _rng(seed, 7)
    x = rng.standard_normal((rows, BIG_FEATURES))
    return x, _labels(rng, np.column_stack([np.ones(rows), x]), BIG_COEF).astype(float)


def press_rate(seed: int) -> float:
    """Error rate fed to press_q: a seeded value away from 0, 1/2 and 1."""
    return float(_rng(seed, 8).uniform(0.1, 0.4))
