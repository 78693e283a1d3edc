import math

import numpy as np
import pytest

from logitkit import Dataset, fit_irls, log_likelihood, logistic, logit, predict_proba


class TestLogistic:
    def test_symmetry_point(self):
        assert logistic(0.0) == 0.5

    def test_log_three(self):
        assert logistic(math.log(3.0)) == pytest.approx(0.75, abs=1e-15)

    def test_deep_negative_tail_does_not_underflow_to_garbage(self):
        value = logistic(-710.0)
        assert 0.0 < value < 1e-300

    def test_large_positive(self):
        assert logistic(710.0) == pytest.approx(1.0)

    def test_scalar_and_array_shapes(self):
        assert isinstance(logistic(1.2), float)
        out = logistic(np.array([-1.0, 0.0, 1.0]))
        assert out.shape == (3,)

    def test_complement_identity(self):
        for t in np.linspace(-30, 30, 121):
            assert abs(logistic(t) + logistic(-t) - 1.0) <= 1e-15

    def test_strictly_increasing(self):
        grid = logistic(np.linspace(-20, 20, 200))
        assert np.all(np.diff(grid) > 0)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            logistic(float("nan"))
        with pytest.raises(ValueError):
            logistic(float("inf"))
        with pytest.raises(ValueError):
            logistic(np.array([0.0, np.inf]))


class TestLogit:
    def test_symmetry_point(self):
        assert logit(0.5) == 0.0

    def test_three_to_one_odds(self):
        assert logit(0.75) == pytest.approx(math.log(3.0), abs=1e-15)

    def test_roundtrip(self):
        assert logit(logistic(2.5)) == pytest.approx(2.5, abs=1e-12)

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.1, 1.5, float("nan")])
    def test_rejects_out_of_domain(self, p):
        with pytest.raises(ValueError):
            logit(p)


class TestDataset:
    def test_from_features_prepends_intercept(self):
        data = Dataset.from_features([[2.0], [-1.0]], [1, 0])
        assert np.array_equal(data.design, [[1.0, 2.0], [1.0, -1.0]])
        assert np.array_equal(data.labels, [1.0, 0.0])
        assert data.feature_names == ("intercept", "x1")
        assert data.n == 2 and data.n_coef == 2

    def test_intercept_only(self):
        data = Dataset.from_features(np.empty((3, 0)), [1, 0, 1])
        assert data.design.shape == (3, 1)
        assert data.feature_names == ("intercept",)

    def test_rejects_labels_outside_zero_one(self):
        with pytest.raises(ValueError, match="0 or 1"):
            Dataset.from_features([[1.0], [2.0]], [1, 2])

    def test_rejects_missing_intercept_column(self):
        with pytest.raises(ValueError, match="intercept"):
            Dataset(np.array([[2.0, 1.0], [3.0, 1.0]]), [0, 1])

    def test_rejects_non_finite_design(self):
        with pytest.raises(ValueError):
            Dataset.from_features([[np.nan]], [1])

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            Dataset.from_features([[1.0], [2.0]], [1, 0, 1])

    def test_rejects_bad_feature_names(self):
        with pytest.raises(ValueError):
            Dataset.from_features([[1.0]], [1], feature_names=["a", "b"])
        with pytest.raises(ValueError, match="intercept"):
            Dataset(np.ones((2, 1)), [0, 1], feature_names=("const",))

    def test_rejects_repeated_feature_names(self):
        # a coefficient per name: a repeated one would be overwritten when keyed by name
        with pytest.raises(ValueError, match=r"^duplicate feature names: \['intercept'\]$"):
            Dataset.from_features([[1.0], [2.0]], [1, 0], feature_names=["intercept"])
        with pytest.raises(ValueError, match=r"^duplicate feature names: \['x'\]$"):
            Dataset(np.ones((2, 3)), [0, 1], feature_names=("intercept", "x", "x"))

    def test_arrays_are_immutable(self):
        data = Dataset.from_features([[1.0], [2.0]], [1, 0])
        with pytest.raises(ValueError):
            data.design[0, 0] = 5.0

    def test_without_row(self):
        data = Dataset.from_features([[1.0], [2.0], [3.0]], [1, 0, 1])
        smaller = data.without_row(1)
        assert smaller.n == 2
        assert np.array_equal(smaller.design[:, 1], [1.0, 3.0])
        assert np.array_equal(smaller.labels, [1.0, 1.0])

    def test_select_columns(self):
        data = Dataset.from_features([[1.0, 4.0], [2.0, 5.0]], [1, 0])
        reduced = data.select_columns([0, 2])
        assert reduced.feature_names == ("intercept", "x2")
        assert np.array_equal(reduced.design[:, 1], [4.0, 5.0])
        with pytest.raises(ValueError):
            data.select_columns([1, 2])  # intercept missing


class TestPredictProba:
    def test_zero_coefficients_give_half(self):
        data = Dataset.from_features([[0.4], [-3.0], [7.0]], [1, 0, 1])
        assert np.array_equal(predict_proba(data, [0.0, 0.0]), [0.5, 0.5, 0.5])

    def test_single_row_log_three(self):
        data = Dataset.from_features([[1.0]], [1])
        probs = predict_proba(data, [0.0, math.log(3.0)])
        assert probs[0] == pytest.approx(0.75, abs=1e-15)

    def test_negating_coefficients_complements(self):
        rng = np.random.default_rng(2)
        data = Dataset.from_features(rng.standard_normal((20, 2)), rng.integers(0, 2, 20))
        beta = rng.standard_normal(3)
        assert np.allclose(
            predict_proba(data, -beta), 1.0 - predict_proba(data, beta), atol=1e-15
        )

    def test_rejects_dimension_mismatch(self):
        data = Dataset.from_features([[1.0]], [1])
        with pytest.raises(ValueError):
            predict_proba(data, [0.0, 1.0, 2.0])


class TestLogLikelihood:
    def test_zero_coefficients(self):
        data = Dataset.from_features(np.empty((7, 0)), [1, 0, 1, 1, 0, 1, 0])
        assert log_likelihood(data, [0.0]) == pytest.approx(7 * math.log(0.5), abs=1e-12)

    def test_single_term(self):
        data = Dataset.from_features(np.empty((1, 0)), [1])
        assert log_likelihood(data, [logit(0.75)]) == pytest.approx(
            math.log(0.75), abs=1e-12
        )

    def test_row_permutation_invariance(self):
        rng = np.random.default_rng(4)
        feats = rng.standard_normal((25, 2))
        labels = rng.integers(0, 2, 25)
        beta = rng.standard_normal(3)
        perm = rng.permutation(25)
        a = log_likelihood(Dataset.from_features(feats, labels), beta)
        b = log_likelihood(Dataset.from_features(feats[perm], labels[perm]), beta)
        assert a == pytest.approx(b, abs=1e-12)

    def test_never_positive(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            data = Dataset.from_features(
                rng.standard_normal((15, 2)), rng.integers(0, 2, 15)
            )
            assert log_likelihood(data, rng.standard_normal(3) * 3) <= 0.0

    def test_concavity_midpoint(self):
        rng = np.random.default_rng(8)
        data = Dataset.from_features(rng.standard_normal((30, 2)), rng.integers(0, 2, 30))
        for _ in range(30):
            b1 = rng.standard_normal(3) * 2
            b2 = rng.standard_normal(3) * 2
            mid = log_likelihood(data, (b1 + b2) / 2)
            assert mid >= (log_likelihood(data, b1) + log_likelihood(data, b2)) / 2 - 1e-9

    def test_saturated_scores_stay_finite(self):
        data = Dataset.from_features([[1.0], [-1.0]], [1, 0])
        value = log_likelihood(data, [0.0, 800.0])
        assert math.isfinite(value) and value <= 0.0

    def test_separated_fit_matches_an_exactly_rounded_sum(self):
        # the fitted scores are large on separated data: a form that subtracts two
        # sums of size sum_i |s_i| loses about 6 of the 16 digits here
        rng = np.random.default_rng(1)
        feats = rng.normal(size=(32783, 2))
        data = Dataset.from_features(feats, feats @ [1.0, -0.7] > 0)
        result = fit_irls(data)
        assert result.converged
        scores = data.design @ result.coef
        signed = (1.0 - 2.0 * data.labels) * scores
        reference = -math.fsum(max(t, 0.0) + math.log1p(math.exp(-abs(t))) for t in signed)
        assert result.log_lik == pytest.approx(reference, rel=1e-12, abs=0.0)
        assert log_likelihood(data, result.coef) == result.log_lik
        assert result.deviance == -2.0 * result.log_lik
