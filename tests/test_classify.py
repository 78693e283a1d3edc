import math

import numpy as np
import pytest

from logitkit import (
    CvReport,
    Dataset,
    classify,
    evaluate_with_press_q,
    loocv,
    predict_proba,
)

from helpers import simulate


def separated_four_points():
    return Dataset.from_features([[-2.0], [-2.0], [2.0], [2.0]], [0, 0, 1, 1])


class TestClassify:
    def test_zero_coefficients_tie_to_class_zero(self):
        data = Dataset.from_features([[1.0], [-4.0], [0.2]], [1, 0, 1])
        assert np.array_equal(classify(data, [0.0, 0.0]), [0, 0, 0])

    def test_hand_evaluated_row(self):
        data = Dataset.from_features([[2.0]], [0])
        assert classify(data, [-1.0, 1.0])[0] == 1  # score 1 > 0

    def test_default_threshold_equals_sign_rule(self):
        rng = np.random.default_rng(41)
        data = simulate(rng, 40, [0.1, 1.0, -0.7])
        for _ in range(10):
            beta = rng.standard_normal(3) * 2
            labels = classify(data, beta)
            signs = (data.design @ beta > 0).astype(int)
            assert np.array_equal(labels, signs)

    def test_scaling_coefficients_leaves_labels_unchanged(self):
        rng = np.random.default_rng(42)
        data = simulate(rng, 30, [0.2, 0.9])
        beta = rng.standard_normal(2)
        base = classify(data, beta)
        for c in (0.5, 3.0, 1e6):
            assert np.array_equal(classify(data, c * beta), base)

    def test_custom_threshold_matches_probability_rule(self):
        rng = np.random.default_rng(43)
        data = simulate(rng, 50, [0.0, 1.2])
        beta = [0.3, 0.8]
        for threshold in (0.2, 0.5, 0.9):
            labels = classify(data, beta, threshold)
            expected = (predict_proba(data, beta) > threshold).astype(int)
            assert np.array_equal(labels, expected)

    def test_rejects_bad_threshold(self):
        data = separated_four_points()
        for threshold in (0.0, 1.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                classify(data, [0.0, 1.0], threshold)


class TestLoocv:
    def test_separated_four_points_all_correct(self):
        report = loocv(separated_four_points())
        assert report.per_subject_errors == (0, 0, 0, 0)
        assert report.error_rate == 0.0
        assert report.discriminant_power == 1.0
        assert report.n == 4

    def test_two_subjects_degenerate_folds(self):
        data = Dataset.from_features([[1.0], [2.0]], [0, 1])
        report = loocv(data)
        assert report.error_rate == 1.0
        assert report.per_subject_errors == (1, 1)
        assert report.non_converged_folds == 2

    def test_report_counts_are_consistent(self):
        rng = np.random.default_rng(44)
        data = simulate(rng, 16, [0.2, 1.5])
        report = loocv(data)
        assert report.error_rate * report.n == sum(report.per_subject_errors)
        assert report.discriminant_power + report.error_rate == 1.0

    def test_row_permutation_invariance(self):
        rng = np.random.default_rng(45)
        feats = rng.standard_normal((18, 2))
        data = simulate(rng, 18, [0.3, 1.4, -1.0], features=feats)
        perm = np.random.default_rng(46).permutation(18)
        permuted = Dataset.from_features(feats[perm], data.labels[perm])
        report = loocv(data)
        report_perm = loocv(permuted)
        assert report_perm.error_rate == report.error_rate
        assert all(
            report_perm.per_subject_errors[i] == report.per_subject_errors[perm[i]]
            for i in range(18)
        )

    def test_label_flip_leaves_error_rate_unchanged(self):
        rng = np.random.default_rng(47)
        feats = rng.standard_normal((15, 2))
        data = simulate(rng, 15, [0.1, 1.2, -0.8], features=feats)
        flipped = Dataset.from_features(feats, 1.0 - data.labels)
        assert loocv(flipped).error_rate == loocv(data).error_rate

    def test_rejects_degenerate_inputs(self):
        with pytest.raises(ValueError):
            loocv(Dataset.from_features([[1.0]], [1]))
        with pytest.raises(ValueError, match="both classes"):
            loocv(Dataset.from_features([[1.0], [2.0], [3.0]], [1, 1, 1]))


class TestEvaluateWithPressQ:
    def test_study_sized_report(self):
        report = CvReport(
            per_subject_errors=tuple([1] * 4 + [0] * 24),
            error_rate=0.15,
            discriminant_power=0.85,
            n=28,
            non_converged_folds=0,
        )
        result = evaluate_with_press_q(report)
        assert 1.9e-4 < result.p_value < 2.3e-4

    def test_chance_level_report(self):
        report = CvReport((0, 1), 0.5, 0.5, 2, 0)
        assert evaluate_with_press_q(report).p_value == 1.0

    def test_fourteen_subject_report(self):
        report = CvReport(tuple([1] * 4 + [0] * 10), 0.286, 0.714, 14, 0)
        result = evaluate_with_press_q(report)
        assert result.q_statistic == pytest.approx(2.565, abs=1e-3)
        assert result.p_value == pytest.approx(0.109, abs=5e-4)
        assert abs(
            result.p_value - math.erfc(math.sqrt(result.q_statistic / 2))
        ) <= 1e-10

    def test_report_validation(self):
        with pytest.raises(ValueError):
            CvReport((0,), 1.5, -0.5, 1, 0)


def test_cv_report_needs_a_subject():
    with pytest.raises(ValueError, match=r"^n must be at least 1$"):
        CvReport((), 0.0, 1.0, 0, 0)
