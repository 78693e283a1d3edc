"""Logistic link functions, the regression dataset container, and the
Bernoulli log-likelihood (cross entropy)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import _count, as_array


def _logistic(s):
    # 1 / (1 + exp(-s)) for s >= 0 and exp(s) / (1 + exp(s)) below: the roundings
    # of branching on the sign without masked gathers, and exp cannot overflow
    e = np.exp(-np.abs(s))
    return np.where(s >= 0, 1.0, e) / (1.0 + e)


def logistic(t):
    """Logistic map t -> 1 / (1 + exp(-t)).

    Evaluated so the exponential never overflows; accepts a scalar or an
    array and returns the matching shape.
    """
    arr = as_array(t, None, "t")
    if not np.isfinite(arr).all():
        raise ValueError("logistic requires finite input")
    out = _logistic(arr)
    return float(out) if arr.ndim == 0 else out


def logit(p):
    """Log-odds log(p / (1 - p)) for p strictly inside (0, 1).

    Inverse of `logistic` on its range.
    """
    arr = as_array(p, None, "p")
    with np.errstate(invalid="ignore"):
        bad = ~np.isfinite(arr) | (arr <= 0.0) | (arr >= 1.0)
    if bad.any():
        raise ValueError("logit requires 0 < p < 1")
    out = np.log(arr) - np.log1p(-arr)
    return float(out) if out.ndim == 0 else out


def _log_lik(labels: np.ndarray, scores: np.ndarray) -> float:
    # sum_i [y_i s_i - log(1 + exp(s_i))] = -sum_i softplus((1 - 2 y_i) s_i): one sum
    # of terms <= 0, where two sums of size sum_i |s_i| would cancel on separated
    # data; the softplus is kept finite for |s| > ~700
    t = (1.0 - 2.0 * labels) * scores
    return float(-(np.maximum(t, 0.0) + np.log1p(np.exp(-np.abs(t)))).sum())


def _intercept_design(n: int, k: int) -> np.ndarray:
    """An n × (1 + k) design: the intercept column of ones, then k columns of
    NaN for the CLI's csv reader to fill, whose `_parse_column` stops at a
    column's first bad cell and relies on the NaN after it."""
    design = np.full((n, 1 + k), np.nan)
    design[:, 0] = 1.0
    return design


def _name_tuple(names) -> tuple[str, ...]:
    """Feature names as a tuple of str; a lone str is not a sequence of names."""
    try:
        names = None if isinstance(names, str) else tuple(names)
    except TypeError:
        names = None
    if names is None or not all(isinstance(name, str) for name in names):
        raise TypeError("feature_names must be a sequence of str")
    return names


def _frozen_array(arr: np.ndarray) -> np.ndarray:
    arr = arr.copy()
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Dataset:
    """Design matrix with a leading intercept column plus binary labels.

    The intercept column is materialized at construction (the classic
    ``X = [ones(n,1) X]`` prepend) so every matrix formula stays literal.
    The data are validated here, once, and coefficients in `check_coef`, so
    the private kernels trust their input. Non-finite cells and labels
    outside {0, 1} are rejected, never coerced, and so is a repeated
    feature name. Instances are immutable after construction and safe to
    share across threads.
    """

    design: np.ndarray
    labels: np.ndarray
    feature_names: tuple[str, ...] = ()

    def __post_init__(self):
        design = as_array(self.design, 2, "design")
        if not (design[:, 0] == 1.0).all():
            raise ValueError("first design column must be the intercept (all ones)")
        labels = as_array(self.labels, 1, "labels")
        if labels.shape[0] != design.shape[0]:
            raise ValueError(
                f"design has {design.shape[0]} rows but labels has "
                f"{labels.shape[0]} entries"
            )
        if not ((labels == 0.0) | (labels == 1.0)).all():
            raise ValueError("labels must contain only 0 or 1")
        names = _name_tuple(self.feature_names)
        if not names:
            names = ("intercept",) + tuple(f"x{j}" for j in range(1, design.shape[1]))
        if len(names) != design.shape[1]:
            raise ValueError(
                f"expected {design.shape[1]} feature names, got {len(names)}"
            )
        if names[0] != "intercept":
            raise ValueError('first feature name must be "intercept"')
        if len(set(names)) != len(names):
            repeated = [name for name in dict.fromkeys(names) if names.count(name) > 1]
            raise ValueError(f"duplicate feature names: {repeated}")
        object.__setattr__(self, "design", _frozen_array(design))
        object.__setattr__(self, "labels", _frozen_array(labels))
        object.__setattr__(self, "feature_names", names)

    @classmethod
    def from_features(cls, features, labels, feature_names=None) -> "Dataset":
        """Build a dataset by prepending the intercept column to raw features.

        ``features`` is n x k (or length n for a single regressor); k = 0 is
        allowed and yields an intercept-only design. Without feature_names,
        `Dataset` names the columns x1..xk.
        """
        feats = as_array(features, None, "features")
        if feats.ndim == 1:
            feats = feats[:, None]
        if feats.ndim != 2:
            raise ValueError(f"features must be 1- or 2-dimensional, got {feats.ndim}")
        n, k = feats.shape
        names = None if feature_names is None else _name_tuple(feature_names)
        if names is not None and len(names) != k:
            raise ValueError(f"expected {k} feature names, got {len(names)}")
        design = np.column_stack((np.ones(n), feats))
        return cls(design, labels, () if names is None else ("intercept", *names))

    @property
    def n(self) -> int:
        """Number of subjects (rows)."""
        return self.design.shape[0]

    @property
    def n_coef(self) -> int:
        """Number of coefficients, k + 1 including the intercept."""
        return self.design.shape[1]

    def check_coef(self, coef) -> np.ndarray:
        """Validate a coefficient vector against this dataset's width."""
        beta = as_array(coef, 1, "coef")
        if beta.shape[0] != self.n_coef:
            raise ValueError(
                f"expected {self.n_coef} coefficients, got {beta.shape[0]}"
            )
        return beta

    def without_row(self, i: int) -> "Dataset":
        """Copy of the dataset with subject i removed (for leave-one-out)."""
        i = _count(i, "row")
        if not 0 <= i < self.n:
            raise IndexError(f"row {i} out of range for n={self.n}")
        return Dataset(
            np.delete(self.design, i, axis=0),
            np.delete(self.labels, i),
            self.feature_names,
        )

    def select_columns(self, cols) -> "Dataset":
        """Restrict the design to the given column indices (intercept first)."""
        try:
            cols = list(cols)
        except TypeError:
            raise TypeError("columns must be an iterable of column indices") from None
        idx = sorted({_count(c, "column index", 0) for c in cols})
        if not idx or idx[0] != 0:
            raise ValueError("column selection must include the intercept column 0")
        if idx[-1] >= self.n_coef:
            raise ValueError(f"column index {idx[-1]} out of range")
        return Dataset(
            self.design[:, idx],
            self.labels,
            tuple(self.feature_names[j] for j in idx),
        )


def _scores(data: Dataset, coef) -> tuple[np.ndarray, np.ndarray]:
    """A caller's checked coefficients beta and the scores X beta. A score
    that is not finite, as when x_i . beta overflows, is a ValueError here,
    with no floating-point warning."""
    beta = data.check_coef(coef)
    with np.errstate(over="ignore", invalid="ignore"):
        scores = data.design @ beta
    if not np.isfinite(scores).all():
        raise ValueError("coef gives a non-finite score x·beta")
    return beta, scores


def predict_proba(data: Dataset, coef) -> np.ndarray:
    """Per-subject success probabilities logistic(x_i . beta)."""
    return _logistic(_scores(data, coef)[1])


def log_likelihood(data: Dataset, coef) -> float:
    """Bernoulli log-likelihood sum_i [y_i log pi_i + (1 - y_i) log(1 - pi_i)].

    Computed in the numerically stable form -sum_i softplus((1 - 2 y_i) s_i)
    with s_i = x_i . beta, so saturated scores never hit log(0) and no two
    large sums cancel. Always <= 0.
    """
    return _log_lik(data.labels, _scores(data, coef)[1])
