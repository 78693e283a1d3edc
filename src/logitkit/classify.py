"""Logistic discriminant rule, leave-one-out cross-validation, and the
significance of the resulting discriminant power."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fit import FitConfig, fit_irls
from .inference import PressQResult, press_q
from .model import Dataset, _scores, logit
from .numerics import _real


@dataclass(frozen=True)
class CvReport:
    """Leave-one-out results: per-subject errors e_{-i} and their mean.

    discriminant_power is 1 - error_rate. non_converged_folds counts folds
    whose training fit ended Diverged/MaxIterations or degenerated to a
    single class (majority-label rule).
    """

    per_subject_errors: tuple[int, ...]
    error_rate: float
    discriminant_power: float
    n: int
    non_converged_folds: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be at least 1")
        if not 0.0 <= self.error_rate <= 1.0:
            raise ValueError("error_rate must lie in [0, 1]")


def _threshold_cut(threshold) -> float:
    """The score cut logit(threshold) of the rule "label 1 when pi_i > threshold";
    ValueError unless the threshold lies strictly inside (0, 1)."""
    threshold = _real(threshold, "threshold")
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"threshold must lie strictly inside (0, 1), got {threshold}")
    return logit(threshold)


def classify(data: Dataset, coef, threshold: float = 0.5) -> np.ndarray:
    """Assign 0/1 labels from the fitted scores.

    Label is 1 when pi_i > threshold; scores are compared against
    logit(threshold), which makes the default rule exactly the sign test
    x_i . beta > 0 and sends exact boundary ties to class 0.
    """
    cut = _threshold_cut(threshold)  # exactly 0.0 at the default threshold
    return (_scores(data, coef)[1] > cut).astype(int)


def loocv(data: Dataset, config: FitConfig = FitConfig(), threshold: float = 0.5) -> CvReport:
    """Leave-one-out cross-validation of the fitted discriminant rule.

    Each fold fits on the other n - 1 subjects and classifies the held-out
    one; e_{-i} is 0 when correct, 1 when not. Folds that end
    Diverged/MaxIterations still classify with their final coefficients
    (under separation the direction is still informative) and are counted
    in non_converged_folds. A fold whose training labels are all one class
    predicts that majority label and is counted as well. Folds are mutually
    independent; results are assembled in subject order.
    """
    cut = _threshold_cut(threshold)
    if data.n < 2:
        raise ValueError("leave-one-out needs at least two subjects")
    total_ones = float(data.labels.sum())
    if total_ones == 0.0 or total_ones == data.n:
        raise ValueError("both classes must be present in the full data")

    errors = []
    non_converged = 0
    for i in range(data.n):
        ones = total_ones - data.labels[i]  # in the fold's n - 1 training labels
        if ones == 0.0 or ones == data.n - 1:
            predicted = int(ones > 0.0)
            non_converged += 1
        else:
            fold_fit = fit_irls(data.without_row(i), config)
            if not fold_fit.converged:
                non_converged += 1
            predicted = int(data.design[i] @ fold_fit.coef > cut)
        errors.append(int(predicted != int(data.labels[i])))

    error_rate = sum(errors) / data.n
    return CvReport(
        per_subject_errors=tuple(errors),
        error_rate=error_rate,
        discriminant_power=1.0 - error_rate,
        n=data.n,
        non_converged_folds=non_converged,
    )


def evaluate_with_press_q(report: CvReport) -> PressQResult:
    """Press's Q significance of a cross-validated error rate."""
    return press_q(report.n, report.error_rate)
