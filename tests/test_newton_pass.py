"""The row-blocked Newton pass of `fit_irls` against a test-local copy of the
unblocked products it replaced: bit for bit when n fits one block, and within
stated tolerances, along the same Newton path, when it does not."""

import math

import numpy as np
import pytest

from logitkit import Dataset, FitConfig, FitStatus, fit_irls, logistic
from logitkit import fit as fit_module
from logitkit.fit import FitResult, _newton_pass
from logitkit.model import _log_lik, _logistic
from logitkit.numerics import pinv_psd

EPS = float(np.finfo(float).eps)
# Reordered sums over n rows: gradient and X'SX entries agree to this fraction
# of the sum of the magnitudes of their terms.
SUM_RTOL = 1e-12


def _block_rows(p):
    return fit_module._BLOCK_BYTES // (8 * p)


# ---- the unblocked reference: the kernels and loop before row blocking -------

def _state(x, y, beta):
    if not (np.isfinite(beta).all() and np.isfinite(scores := x @ beta).all()):
        raise ValueError("logistic requires finite input")
    pi = _logistic(scores)
    return scores, pi, x.T @ (y - pi)


def _information(x, pi):
    return x.T @ (x * (pi * (1.0 - pi))[:, None])


def _reference_fit(data, config=FitConfig()):
    """The unblocked Newton loop, step for step; returns (FitResult, iterates)."""
    x, y = data.design, data.labels
    beta = np.zeros(data.n_coef)
    path = [beta]
    state = _state(x, y, beta)
    iterations = 0
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
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
            step = beta + fit_module.solve_psd(info, grad)
            iterations += 1
            try:
                state = _state(x, y, step)
            except ValueError:
                status = FitStatus.DIVERGED
                break
            beta = step
            path.append(beta)
        info = _information(x, state[1])
        cov = pinv_psd(info) if np.isfinite(info).all() else np.full(info.shape, np.nan)
    log_lik = _log_lik(y, state[0])
    result = FitResult(coef=beta, log_lik=log_lik, deviance=-2.0 * log_lik, grad_norm=grad_norm,
                       iterations=iterations, status=status, covariance=cov,
                       std_errors=np.sqrt(np.clip(np.diag(cov), 0.0, None)))
    return result, path


def _kinds(seed, n, k):
    """General, separated, quasi-separated, collinear and x1e3-scaled data."""
    rng = np.random.default_rng([seed, 6])
    x = rng.standard_normal((n, k))
    y = (rng.random(n) < logistic(0.3 + x @ rng.standard_normal(k))).astype(float)
    y[:2] = [0.0, 1.0]
    quasi = x.copy()
    tie = rng.random(n) < 0.2
    quasi[:, 0] = np.where(tie, 0.0, np.round(x[:, 0], 2))
    yield "general", x, y
    yield "separated", x, (x[:, 0] > 0).astype(float)
    yield "quasi-separated", quasi, np.where(tie, y, quasi[:, 0] > 0).astype(float)
    yield "collinear", np.column_stack([x, 2.0 * x[:, 0] - x[:, -1]]), y
    yield "features x1e3", 1e3 * x, y


def _assert_same_fit(result, expected, where):
    for field in ("log_lik", "deviance", "grad_norm", "iterations", "status"):
        assert getattr(result, field) == getattr(expected, field), f"{where}: {field}"
    for field in ("coef", "covariance", "std_errors"):
        assert np.array_equal(getattr(result, field), getattr(expected, field),
                              equal_nan=True), f"{where}: {field}"


# ---- n fits one block: exactly the unblocked operations ----------------------

@pytest.mark.parametrize("config", [FitConfig(), FitConfig(max_iter=3)],
                         ids=["default", "max_iter=3"])
def test_one_block_is_bit_identical_to_the_unblocked_kernels_and_fit(config):
    for seed in range(12):
        n = int(np.random.default_rng(seed).integers(3, 400))
        cases = list(_kinds(seed, n, 1 + seed % 4))
        cases += [("single-class", cases[0][1], np.full(n, float(seed % 2))),
                  ("n = 1", cases[0][1][:1], cases[0][2][1:2])]
        for kind, features, labels in cases:
            data = Dataset.from_features(features, labels)
            assert data.n <= _block_rows(data.n_coef)
            where = f"seed {seed}, {kind}, n {n}"
            expected, path = _reference_fit(data, config)
            _assert_same_fit(fit_irls(data, config), expected, where)
            for beta in path:
                scores, grad, info = _newton_pass(data.design, data.labels, beta)
                want = _state(data.design, data.labels, beta)
                assert np.array_equal(scores, want[0]), where
                assert np.array_equal(grad, want[2]), where
                assert np.array_equal(info, _information(data.design, want[1])), where


def test_largest_one_block_table_is_bit_identical():
    rng = np.random.default_rng(7)
    n = _block_rows(4)
    x = rng.standard_normal((n, 3))
    data = Dataset.from_features(x, (rng.random(n) < logistic(x @ [0.5, -1.0, 0.25])).astype(float))
    _assert_same_fit(fit_irls(data), _reference_fit(data)[0], f"n {n}")


# ---- n spans blocks, the last one ragged --------------------------------------

@pytest.mark.parametrize("seed", range(3))
def test_ragged_blocks_follow_the_unblocked_newton_path(seed):
    for kind, features, labels in _kinds(seed, 3 * _block_rows(3) + 17, 2):
        data = Dataset.from_features(features, labels)
        x, y = data.design, data.labels
        assert data.n > 3 * _block_rows(data.n_coef), kind
        result = fit_irls(data)
        expected, path = _reference_fit(data)
        where = f"seed {seed}, {kind}"
        assert (result.status, result.iterations) == (expected.status, expected.iterations), where

        # the kernel at each iterate of the unblocked path: only the order of the sums differs
        for beta in path:
            scores, grad, info = _newton_pass(x, y, beta)
            want = _state(x, y, beta)
            weights = want[1] * (1.0 - want[1])
            assert np.array_equal(scores, want[0]), where
            assert np.all(np.abs(grad - want[2])
                          <= SUM_RTOL * (np.abs(x.T) @ np.abs(y - want[1]))), where
            assert np.all(np.abs(info - _information(x, want[1]))
                          <= SUM_RTOL * (np.abs(x.T) @ (np.abs(x) * weights[:, None]))), where

        if kind == "collinear":
            # only X beta is identified: the null eigenvalue of X'SX (about 1e-11) sits
            # at the pinv cutoff, so either path may keep or drop the null direction
            fitted, want = x @ result.coef, x @ expected.coef
            rtol = 1e-12
        else:
            # a reordered sum moves each Newton step by about eps * cond(X'SX): 1e-12
            # on well-conditioned data, and a multiple of eps * cond on (quasi-)separated
            # data, where X'SX at the stop has cond 1e8-1e10
            fitted, want = result.coef, expected.coef
            eigvals = np.linalg.eigvalsh(_information(x, _state(x, y, want)[1]))
            rtol = max(1e-12, 16 * EPS * eigvals[-1] / eigvals[0])
        drift = np.abs(fitted - want).max() / np.abs(want).max()
        assert drift <= rtol, f"{where}: drift {drift:.2e} > {rtol:.2e}"
        # _log_lik subtracts two sums of size about sum |s_i| + n log 2, so it is
        # accurate to a multiple of eps times that, not to eps |log L| (separated data)
        magnitude = np.abs(x @ expected.coef).sum() + data.n
        assert math.isclose(result.log_lik, expected.log_lik, rel_tol=1e-12,
                            abs_tol=1e-12 * magnitude), where


def test_non_finite_score_in_the_last_block_rolls_back_to_diverged(monkeypatch):
    rows = _block_rows(2)
    n = 3 * rows + 17
    feature = np.zeros(n)
    feature[-1] = 1e150  # x1 is zero outside the last, ragged block
    labels = np.tile([0.0, 1.0], n)[:n]
    data = Dataset.from_features(feature, labels)
    real_solve = fit_module.solve_psd
    # a step with x1 coefficient 1e160 overflows the last row's score, and only that one
    monkeypatch.setattr(fit_module, "solve_psd", lambda a, b: real_solve(a, b) + [0.0, 1e160])

    with np.errstate(over="ignore"):
        scores = data.design @ [0.0, 1e160]
    assert np.isfinite(scores[:-1]).all() and not np.isfinite(scores[-1])
    with pytest.raises(ValueError, match="logistic requires finite input"), \
            np.errstate(over="ignore"):
        _newton_pass(data.design, data.labels, np.array([0.0, 1e160]))

    result = fit_irls(data)
    assert result.status is FitStatus.DIVERGED
    assert result.iterations == 1
    assert np.array_equal(result.coef, [0.0, 0.0])
    _assert_same_fit(result, _reference_fit(data)[0], "last-block overflow")
