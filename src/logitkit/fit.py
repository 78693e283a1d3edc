"""Maximum-likelihood fitting by full Newton steps (IRLS), with analytic
gradient, observed information, and the asymptotic covariance of the MLE.

Each Newton step takes the scores X beta, the score vector X'(y - pi) and the
information X'SX from one pass over the design in row blocks of about 256 KB,
so X is read from memory once per step. When n fits one block the pass is the
unblocked products bit for bit; with more blocks only the order of the sums
over rows changes (agreement to 1e-12 of the summed magnitudes of the terms).
The Dataset validated the data once, and `_scores` a caller's coefficients;
past them, a non-finite score in the Newton loop is caught once, in `logistic`,
and a non-finite X'SX once: before a step in `solve_psd`, and after the loop in
`_covariance`, the one covariance routine, which `covariance` also calls."""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .model import Dataset, _log_lik, _scores, logistic
from .numerics import _count, _real, pinv_psd, solve_psd


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
        if not _real(self.grad_tol, "grad_tol") > 0:
            raise ValueError("grad_tol must be positive")
        if _count(self.max_iter, "max_iter") < 1:
            raise ValueError("max_iter must be at least 1")
        if not _real(self.divergence_norm, "divergence_norm") > 0:
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


# Rows per block of the Newton pass: about 256 KB of design, so a block and its
# weighted copy stay in cache while the score vector and X'SX are formed from it.
_BLOCK_BYTES = 256 * 1024


def _newton_block(x: np.ndarray, y: np.ndarray, beta: np.ndarray):
    # (scores X beta, score vector X'(y - pi), information X'SX with S = diag(pi_i (1 - pi_i)))
    # over the rows of x; `logistic` raises its ValueError on a non-finite score
    scores = x @ beta
    pi = logistic(scores)
    return scores, x.T @ (y - pi), x.T @ (x * (pi * (1.0 - pi))[:, None])


def _newton_pass(x: np.ndarray, y: np.ndarray, beta: np.ndarray):
    # _newton_block over all rows, one block at a time, so x is read from memory
    # once; with one block these are exactly the unblocked products, otherwise
    # only the order of the sums over rows differs. A non-finite beta_j makes every
    # x_ij beta_j, so every score, non-finite (0 * inf is NaN): the first block raises
    rows = max(1, _BLOCK_BYTES // (8 * x.shape[1]))
    if x.shape[0] <= rows:
        return _newton_block(x, y, beta)
    scores, grads, infos = zip(*(_newton_block(x[i:i + rows], y[i:i + rows], beta)
                                 for i in range(0, x.shape[0], rows)))
    return np.concatenate(scores), sum(grads), sum(infos)


def _pass_at(data: Dataset, coef):
    # _newton_pass at a caller's coefficients, whose scores `_scores` checks;
    # an X'SX past the float range is left as inf, with no floating-point warning
    beta = _scores(data, coef)[0]
    with np.errstate(over="ignore", invalid="ignore"):
        return _newton_pass(data.design, data.labels, beta)


def gradient(data: Dataset, coef) -> np.ndarray:
    """Score vector g = X'(y - pi)."""
    return _pass_at(data, coef)[1]


def neg_hessian(data: Dataset, coef) -> np.ndarray:
    """Observed information X'SX with S = diag(pi_i (1 - pi_i)).

    This is the negative Hessian of the log-likelihood, positive semidefinite
    at every beta and symmetric up to rounding, which `solve_psd` allows for.
    """
    return _pass_at(data, coef)[2]


def _covariance(info: np.ndarray) -> np.ndarray:
    # the pseudoinverse of X'SX, or NaN throughout once X'SX has left the float range
    return pinv_psd(info) if np.isfinite(info).all() else np.full(info.shape, np.nan)


def covariance(data: Dataset, coef) -> np.ndarray:
    """Asymptotic covariance of the MLE, (X'SX)^-1.

    The positive-definite convention: the Hessian itself is -X'SX, so its
    negation is inverted and variances come out nonnegative. Singular X'SX
    gives the pseudoinverse, and one past the float range a matrix of NaN.
    """
    return _covariance(neg_hessian(data, coef))


def fit_irls(data: Dataset, config: FitConfig = FitConfig()) -> FitResult:
    """Fit the logistic model by iteratively reweighted least squares.

    Starts from beta = 0 (every pi = 1/2) and applies full Newton steps
    beta += solve_psd(X'SX, X'(y - pi)) until the gradient norm reaches
    config.grad_tol (Converged), the update count hits config.max_iter
    (MaxIterations), or the coefficient norm passes config.divergence_norm
    (Diverged, the signature of complete separation). Non-finite values
    appearing mid-iteration roll back to the last finite iterate and end
    as Diverged rather than raising; floating-point warnings are silenced
    through the final pseudoinverse, since non-finite values are the signal.
    """
    x = data.design
    y = data.labels
    beta = np.zeros(data.n_coef)
    iterations = 0
    # overflow, 0 * inf and 1/0 surface as non-finite values (Diverged, NaN covariance)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        scores, grad, info = _newton_pass(x, y, beta)
        while True:
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
            try:  # solve_psd rejects a non-finite X'SX before the step is counted
                step = beta + solve_psd(info, grad)
                iterations += 1
                scores, grad, info = _newton_pass(x, y, step)
            except ValueError:  # roll back to the last finite iterate
                status = FitStatus.DIVERGED
                break
            beta = step
        cov = _covariance(info)
    log_lik = _log_lik(y, scores)
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
