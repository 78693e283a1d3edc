"""Deviance, the nested-model likelihood-ratio test, Press's Q, and the
discriminant-power-to-p-value curve.

The likelihood-ratio test's two fits run `fit_irls`, whose Newton pass reads
a large design in row blocks, so its statistic can move in the last digits
with the order of the sums; the power curve's df = 1 tail is evaluated for the
whole grid at once, bit-identical to `chi2_sf` per point."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fit import FitConfig, fit_irls
from .model import Dataset, log_likelihood
from .numerics import _chi2_sf_df1, _count, _real, chi2_sf


class FitNotConvergedError(RuntimeError):
    """A fit required by a test failed to converge; the message names it."""


@dataclass(frozen=True)
class NestedTestResult:
    """Likelihood-ratio comparison of a reduced model against the full one.

    statistic is the raw deviance difference D_reduced - D_full; tiny
    negative values (possible only through convergence tolerance) are
    clamped to zero before the chi-square tail, but reported raw here.
    """

    deviance_reduced: float
    deviance_full: float
    statistic: float
    df: int
    p_value: float


@dataclass(frozen=True)
class PressQResult:
    n: int
    error_rate: float
    q_statistic: float
    p_value: float


@dataclass(frozen=True)
class PowerCurve:
    """Tabulated (discriminant power, p-value) pairs for a sample size."""

    n: int
    powers: np.ndarray
    p_values: np.ndarray

    def __len__(self) -> int:
        return len(self.powers)

    def rows(self):
        """Iterate (power, p_value) pairs in grid order."""
        return zip(self.powers.tolist(), self.p_values.tolist())


def deviance(data: Dataset, coef) -> float:
    """Deviance -2 log L of the model at the given coefficients; always >= 0."""
    return -2.0 * log_likelihood(data, coef)


def deviance_df(data: Dataset) -> int:
    """Reference degrees of freedom n - p - 1 for the deviance.

    Metadata only: the chi-square approximation behind it is unreliable
    for ungrouped binary data, so no goodness-of-fit p-value is derived
    from it here. Use `lrt_nested` for model comparison.
    """
    return data.n - data.n_coef


def lrt_nested(data: Dataset, reduced_cols, config: FitConfig = FitConfig()) -> NestedTestResult:
    """Likelihood-ratio test of the full model against a reduced column set.

    reduced_cols are design column indices; they must include the intercept
    column 0 and form a strict subset of all columns. Both fits must reach
    Converged status, otherwise FitNotConvergedError names the one that
    failed. The statistic D_reduced - D_full is referred to chi-square with
    df = (number of dropped columns).
    """
    reduced = data.select_columns(reduced_cols)
    df = data.n_coef - reduced.n_coef
    if df < 1:
        raise ValueError("reduced columns must be a strict subset of all columns")

    deviances = {}
    for name, model in (("full", data), ("reduced", reduced)):
        result = fit_irls(model, config)
        if not result.converged:
            raise FitNotConvergedError(
                f"{name}-model fit did not converge (status {result.status.value})"
            )
        deviances[name] = result.deviance

    statistic = deviances["reduced"] - deviances["full"]
    return NestedTestResult(
        deviance_reduced=deviances["reduced"],
        deviance_full=deviances["full"],
        statistic=statistic,
        df=df,
        p_value=chi2_sf(max(statistic, 0.0), df),
    )


def press_q(n, error_rate) -> PressQResult:
    """Press's Q statistic n (2 rate - 1)^2 against chi-square with 1 df.

    rate may be either the error rate or the discriminant power 1 - rate:
    the statistic is symmetric about 1/2, so both give the same Q.
    """
    n = _count(n, "n", 1)
    rate = _real(error_rate, "rate")
    if not 0.0 <= rate <= 1.0:
        raise ValueError(f"rate must lie in [0, 1], got {rate}")
    q = _real(n, "n") * (2.0 * rate - 1.0) ** 2  # so a float must hold n
    return PressQResult(n=n, error_rate=rate, q_statistic=q, p_value=chi2_sf(q, 1))


def power_curve(n, grid_points: int = 1000) -> PowerCurve:
    """Tabulate the Press's Q p-value over a uniform discriminant-power grid.

    Entry i (1-based) is (i / grid_points, chi2_sf(n (2 i/grid_points - 1)^2, 1)),
    the loop behind the classic power-versus-p-value plot.
    """
    n = _count(n, "n", 1)
    scale = _real(n, "n")
    grid_points = _count(grid_points, "grid_points", 2)
    try:  # numpy refuses a grid it cannot hold, or past int64 makes it empty
        powers = np.arange(1, grid_points + 1) / grid_points
        p_values = _chi2_sf_df1(scale * (2.0 * powers - 1.0) ** 2)
    except (MemoryError, ValueError):
        powers = ()
    if len(powers) != grid_points:
        raise ValueError(f"grid_points is too large to tabulate, got {grid_points}")
    return PowerCurve(n=n, powers=powers, p_values=p_values)
