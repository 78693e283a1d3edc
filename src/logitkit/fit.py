"""Maximum-likelihood fitting by full Newton steps (IRLS), with analytic
gradient, observed information, and the asymptotic covariance of the MLE.

The data were validated when the Dataset was built, so `fit_irls` runs the
private kernels on its arrays; solve_psd and pinv_psd still check each system."""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .model import Dataset, _log_lik, _logistic, logistic
from .numerics import pinv_psd, solve_psd


class FitStatus(str, Enum):
    CONVERGED = "Converged"
    MAX_ITERATIONS = "MaxIterations"
    DIVERGED = "Diverged"


@dataclass(frozen=True)
class FitConfig:
    """Stopping rules for the Newton loop.

    grad_tol copies the reference loop's ``norm(g) > 0.001`` constant;
    max_iter and divergence_norm exist because full Newton steps run
    forever on completely separated data, and that failure should be
    observable instead of silent.
    """

    grad_tol: float = 1e-3
    max_iter: int = 100
    divergence_norm: float = 1e8

    def __post_init__(self):
        if not self.grad_tol > 0:
            raise ValueError("grad_tol must be positive")
        if int(self.max_iter) < 1:
            raise ValueError("max_iter must be at least 1")
        if not self.divergence_norm > 0:
            raise ValueError("divergence_norm must be positive")


@dataclass(frozen=True)
class FitResult:
    """Fitted coefficients plus the diagnostics of the Newton run.

    covariance is the pseudoinverse of X'SX at the final coefficients;
    std_errors are the square roots of its diagonal.
    """

    coef: np.ndarray
    log_lik: float
    deviance: float
    grad_norm: float
    iterations: int
    status: FitStatus
    covariance: np.ndarray
    std_errors: np.ndarray

    @property
    def converged(self) -> bool:
        return self.status is FitStatus.CONVERGED


def _state(x: np.ndarray, y: np.ndarray, beta: np.ndarray):
    # (scores X beta, pi, score vector X'(y - pi)); ValueError on a non-finite beta or score
    if not (np.isfinite(beta).all() and np.isfinite(scores := x @ beta).all()):
        raise ValueError("logistic requires finite input")
    pi = _logistic(scores)
    return scores, pi, x.T @ (y - pi)


def _information(x: np.ndarray, pi: np.ndarray) -> np.ndarray:
    # X'SX with S = diag(pi_i (1 - pi_i))
    return x.T @ (x * (pi * (1.0 - pi))[:, None])


def gradient(data: Dataset, coef) -> np.ndarray:
    """Score vector g = X'(y - pi)."""
    return _state(data.design, data.labels, data.check_coef(coef))[2]


def neg_hessian(data: Dataset, coef) -> np.ndarray:
    """Observed information X'SX with S = diag(pi_i (1 - pi_i)).

    This is the negative Hessian of the log-likelihood, symmetric positive
    semidefinite at every beta.
    """
    pi = logistic(data.design @ data.check_coef(coef))  # checks the scores; no score vector
    return _information(data.design, pi)


def covariance(data: Dataset, coef) -> np.ndarray:
    """Asymptotic covariance of the MLE, (X'SX)^-1.

    The positive-definite convention: the Hessian itself is -X'SX, so its
    negation is inverted and variances come out nonnegative. Singular
    information falls back to the pseudoinverse.
    """
    return pinv_psd(neg_hessian(data, coef))


def fit_irls(data: Dataset, config: FitConfig = FitConfig()) -> FitResult:
    """Fit the logistic model by iteratively reweighted least squares.

    Starts from beta = 0 (every pi = 1/2) and applies full Newton steps
    beta += solve_psd(X'SX, X'(y - pi)) until the gradient norm reaches
    config.grad_tol (Converged), the update count hits config.max_iter
    (MaxIterations), or the coefficient norm passes config.divergence_norm
    (Diverged, the signature of complete separation). Non-finite values
    appearing mid-iteration roll back to the last finite iterate and end
    as Diverged rather than raising.
    """
    x = data.design
    y = data.labels
    beta = np.zeros(data.n_coef)
    state = _state(x, y, beta)
    iterations = 0
    with np.errstate(over="ignore"):  # overflow surfaces as non-finite values: Diverged
        while True:
            grad = state[2]
            grad_norm = math.sqrt(grad @ grad)
            if grad_norm <= config.grad_tol:
                status = FitStatus.CONVERGED
                break
            if math.sqrt(beta @ beta) > config.divergence_norm:
                status = FitStatus.DIVERGED
                break
            if iterations >= config.max_iter:
                status = FitStatus.MAX_ITERATIONS
                break
            info = _information(x, state[1])
            if not np.isfinite(info).all():
                status = FitStatus.DIVERGED
                break
            step = beta + solve_psd(info, grad)
            iterations += 1
            try:
                state = _state(x, y, step)
            except ValueError:  # roll back to the last finite iterate
                status = FitStatus.DIVERGED
                break
            beta = step
        info = _information(x, state[1])
    cov = pinv_psd(info) if np.isfinite(info).all() else np.full(info.shape, np.nan)
    log_lik = _log_lik(y, state[0])
    return FitResult(
        coef=beta,
        log_lik=log_lik,
        deviance=-2.0 * log_lik,
        grad_norm=grad_norm,
        iterations=iterations,
        status=status,
        covariance=cov,
        std_errors=np.sqrt(np.clip(np.diag(cov), 0.0, None)),
    )
