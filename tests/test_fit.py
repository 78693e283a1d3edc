import math
import warnings

import numpy as np
import pytest

from logitkit import (
    Dataset,
    FitConfig,
    FitStatus,
    covariance,
    fit_irls,
    gradient,
    log_likelihood,
    loocv,
    neg_hessian,
)

from helpers import fd_gradient, fd_neg_hessian, simulate


def intercept_only(labels):
    labels = np.asarray(labels, dtype=float)
    return Dataset.from_features(np.empty((labels.shape[0], 0)), labels)


class TestGradient:
    def test_balanced_labels_at_zero(self):
        data = intercept_only([1, 0, 1, 0])
        assert np.array_equal(gradient(data, [0.0]), [0.0])

    def test_single_row(self):
        data = intercept_only([1])
        assert np.array_equal(gradient(data, [0.0]), [0.5])

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(21)
        for _ in range(25):
            n = int(rng.integers(5, 51))
            k = int(rng.integers(1, 6))
            data = simulate(rng, n, np.r_[0.2, rng.standard_normal(k)])
            beta = rng.uniform(-1, 1, k + 1)
            exact = gradient(data, beta)
            approx = fd_gradient(data, beta)
            assert np.linalg.norm(exact - approx) <= 1e-6 * max(
                np.linalg.norm(exact), 1.0
            )

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError):
            gradient(intercept_only([1, 0]), [0.0, 1.0])


class TestNegHessian:
    def test_intercept_only_quarter_n(self):
        data = intercept_only([1, 0, 1, 0, 1, 1, 0, 0])
        assert np.allclose(neg_hessian(data, [0.0]), [[2.0]], atol=1e-14)

    def test_single_row_outer_product(self):
        data = Dataset.from_features([[2.0]], [1])
        expected = 0.25 * np.array([[1.0, 2.0], [2.0, 4.0]])
        assert np.allclose(neg_hessian(data, [0.0, 0.0]), expected, atol=1e-14)

    def test_matches_finite_differences_of_gradient(self):
        rng = np.random.default_rng(22)
        for _ in range(25):
            n = int(rng.integers(5, 51))
            k = int(rng.integers(1, 6))
            data = simulate(rng, n, np.r_[-0.1, rng.standard_normal(k)])
            beta = rng.uniform(-1, 1, k + 1)
            exact = neg_hessian(data, beta)
            approx = fd_neg_hessian(data, beta)
            assert np.linalg.norm(exact - approx) <= 1e-5 * max(
                np.linalg.norm(exact), 1.0
            )

    def test_positive_semidefinite_everywhere(self):
        rng = np.random.default_rng(23)
        data = simulate(rng, 40, [0.5, -1.0, 2.0])
        for _ in range(20):
            info = neg_hessian(data, rng.standard_normal(3) * 4)
            probe = rng.standard_normal(3)
            assert probe @ info @ probe >= -1e-12


class TestCovariance:
    def test_intercept_only_at_zero(self):
        data = intercept_only([1, 0] * 5)
        assert np.allclose(covariance(data, [0.0]), [[4.0 / 10.0]], atol=1e-12)

    def test_inverse_identity(self):
        rng = np.random.default_rng(24)
        data = simulate(rng, 60, [0.3, 1.0, -0.5])
        beta = [0.1, 0.4, -0.2]
        cov = covariance(data, beta)
        assert np.allclose(cov @ neg_hessian(data, beta), np.eye(3), atol=1e-8)

    def test_matches_adjugate_inverse_for_two_by_two(self):
        rng = np.random.default_rng(25)
        data = simulate(rng, 30, [0.2, 0.8])
        beta = [0.15, 0.55]
        info = neg_hessian(data, beta)
        det = info[0, 0] * info[1, 1] - info[0, 1] * info[1, 0]
        adjugate = np.array(
            [[info[1, 1], -info[0, 1]], [-info[1, 0], info[0, 0]]]
        )
        assert np.allclose(covariance(data, beta), adjugate / det, atol=1e-10)


class TestFitIrls:
    def test_intercept_only_recovers_log_odds(self):
        result = fit_irls(intercept_only([1, 1, 1, 0]))
        assert result.status is FitStatus.CONVERGED
        assert result.iterations <= 10
        assert result.coef[0] == pytest.approx(math.log(3.0), abs=1e-5)
        assert result.grad_norm <= 1e-3
        assert result.deviance == -2.0 * result.log_lik
        assert np.array_equal(result.covariance, result.covariance.T)
        assert np.allclose(
            result.std_errors, np.sqrt(np.diag(result.covariance)), atol=1e-15
        )

    def test_separated_data_converges_numerically_and_classifies(self):
        # complete separation: the exact MLE is at infinity, but the gradient
        # decays exponentially along the path, so the 1e-3 stopping rule is
        # met at finite coefficients
        data = Dataset.from_features([[-2.0], [-2.0], [2.0], [2.0]], [0, 0, 1, 1])
        result = fit_irls(data)
        assert result.status is FitStatus.CONVERGED
        scores = data.design @ result.coef
        assert np.all((scores > 0) == (data.labels == 1))

    def test_separated_data_hits_iteration_cap_when_tight(self):
        data = Dataset.from_features([[-2.0], [-2.0], [2.0], [2.0]], [0, 0, 1, 1])
        result = fit_irls(data, FitConfig(max_iter=5))
        assert result.status is FitStatus.MAX_ITERATIONS
        assert result.iterations == 5
        scores = data.design @ result.coef
        assert np.all((scores > 0) == (data.labels == 1))

    def test_separated_data_trips_divergence_guard(self):
        data = Dataset.from_features([[-2.0], [-2.0], [2.0], [2.0]], [0, 0, 1, 1])
        result = fit_irls(data, FitConfig(divergence_norm=2.0))
        assert result.status is FitStatus.DIVERGED

    def test_single_class_runs_without_crashing(self):
        result = fit_irls(intercept_only([1, 1, 1, 1]))
        assert result.status is FitStatus.CONVERGED  # gradient saturates to ~0
        assert result.coef[0] > 5.0

    def test_self_consistency_at_optimum(self):
        rng = np.random.default_rng(26)
        data = simulate(rng, 50, [0.5, -1.0, 2.0])
        result = fit_irls(data)
        assert result.grad_norm <= 1e-3
        assert result.log_lik >= log_likelihood(data, np.zeros(3))

    def test_score_equation_at_convergence(self):
        rng = np.random.default_rng(27)
        for seed in range(5):
            data = simulate(np.random.default_rng(seed), 80, [0.2, 0.7, -0.4])
            result = fit_irls(data)
            assert result.converged
            assert np.linalg.norm(gradient(data, result.coef)) <= 1e-3

    def test_label_flip_negates_coefficients(self):
        rng = np.random.default_rng(28)
        feats = rng.standard_normal((60, 2))
        data = simulate(rng, 60, [0.3, -0.7, 1.1], features=feats)
        flipped = Dataset.from_features(feats, 1.0 - data.labels)
        a = fit_irls(data)
        b = fit_irls(flipped)
        assert a.converged and b.converged
        assert np.max(np.abs(a.coef + b.coef)) <= 1e-6

    def test_column_scaling_equivariance(self):
        rng = np.random.default_rng(29)
        feats = rng.standard_normal((80, 2))
        data = simulate(rng, 80, [0.2, 0.9, -0.6], features=feats)
        scaled_feats = feats.copy()
        scaled_feats[:, 1] *= 3.7
        scaled = Dataset.from_features(scaled_feats, data.labels)
        config = FitConfig(grad_tol=1e-8)
        a = fit_irls(data, config)
        b = fit_irls(scaled, config)
        assert a.converged and b.converged
        assert b.coef[2] == pytest.approx(a.coef[2] / 3.7, abs=1e-6)
        assert b.coef[1] == pytest.approx(a.coef[1], abs=1e-6)

    def test_converges_within_ten_iterations_on_well_conditioned_data(self):
        data = simulate(np.random.default_rng(3), 200, [0.4, 1.0, -0.8])
        result = fit_irls(data)
        assert result.converged
        assert result.iterations <= 10

    def test_non_finite_mid_iteration_reports_diverged(self):
        # feature magnitude overflows the information matrix on the first step
        data = Dataset.from_features([[1e200], [-1e200]], [1, 0])
        result = fit_irls(data)
        assert result.status is FitStatus.DIVERGED
        assert np.all(np.isfinite(result.coef))

    def test_collapsed_spectrum_emits_no_warning(self):
        # at step 12 the largest eigenvalue of X'SX is subnormal, so 1/lambda
        # overflows and inf * 0 turns the step and the covariance into NaN
        rng = np.random.default_rng(31)
        x = rng.normal(size=(30, 2))
        y = (x @ rng.normal(size=2) > 0).astype(float)
        full = Dataset.from_features(x, y)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = fit_irls(full.without_row(22))
            report = loocv(full)
        assert result.status is FitStatus.DIVERGED
        assert result.iterations == 13
        assert np.all(np.isfinite(result.coef))
        assert 1e5 < np.linalg.norm(result.coef) < 1.1e5
        assert np.isnan(result.std_errors).all()
        assert report.n == 30

    def test_covariance_past_the_float_range_is_the_fits_nan_matrix(self):
        # x_i^2 = 1e400 overflows X'SX at beta = 0: the fit stops Diverged there,
        # and covariance there is the same NaN matrix, with no warning
        data = Dataset.from_features([[1e200], [2e200], [-1e200]], [1, 0, 1])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = fit_irls(data)
            cov = covariance(data, result.coef)
        assert result.status is FitStatus.DIVERGED
        assert cov.shape == (2, 2) and np.isnan(cov).all()
        assert np.array_equal(cov, result.covariance, equal_nan=True)


class TestFitConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"grad_tol": 0.0},
            {"grad_tol": -1e-3},
            {"max_iter": 0},
            {"divergence_norm": 0.0},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            FitConfig(**kwargs)

    def test_defaults_match_reference_loop(self):
        config = FitConfig()
        assert config.grad_tol == 1e-3
        assert config.max_iter == 100


@pytest.mark.parametrize("max_iter", [2.5, 5.0, "5"])
def test_fit_config_max_iter_must_be_an_integer(max_iter):
    # 2.5 would run 3 Newton steps, and "5" would fail only inside fit_irls
    with pytest.raises(TypeError):
        FitConfig(max_iter=max_iter)
