import math

import numpy as np
import pytest

from logitkit import (
    Dataset,
    FitConfig,
    FitNotConvergedError,
    chi2_sf,
    deviance,
    deviance_df,
    fit_irls,
    lrt_nested,
    power_curve,
    press_q,
)

from helpers import simulate


class TestDeviance:
    def test_zero_coefficients(self):
        data = Dataset.from_features(np.empty((9, 0)), [1, 0, 1, 0, 1, 0, 1, 0, 1])
        assert deviance(data, [0.0]) == pytest.approx(2 * 9 * math.log(2.0), abs=1e-12)

    def test_nonnegative_for_random_coefficients(self):
        rng = np.random.default_rng(31)
        data = simulate(rng, 20, [0.1, 0.5])
        for _ in range(20):
            assert deviance(data, rng.standard_normal(2) * 3) >= 0.0

    def test_intercept_only_mle_value(self):
        data = Dataset.from_features(np.empty((4, 0)), [1, 1, 1, 0])
        result = fit_irls(data)
        expected = -2.0 * (3 * math.log(0.75) + math.log(0.25))
        assert result.deviance == pytest.approx(expected, abs=1e-8)

    def test_reference_df_metadata(self):
        data = Dataset.from_features(np.zeros((10, 2)) + [[1.0, 2.0]], [1, 0] * 5)
        assert deviance_df(data) == 10 - 3


class TestLrtNested:
    def test_zero_column_changes_nothing(self):
        rng = np.random.default_rng(32)
        base = simulate(rng, 50, [0.3, 0.8])
        feats = np.column_stack([base.design[:, 1], np.zeros(50)])
        data = Dataset.from_features(feats, base.labels)
        result = lrt_nested(data, [0, 1])
        assert result.df == 1
        assert abs(result.statistic) <= 1e-6
        assert result.p_value >= 0.99

    def test_structural_sign_and_df(self):
        rng = np.random.default_rng(33)
        feats = rng.standard_normal((100, 2))
        data = simulate(rng, 100, [0.4, 1.0, 0.0], features=feats)  # x2 is pure noise
        result = lrt_nested(data, [0, 1])
        assert result.df == 1
        assert result.statistic >= -1e-9
        assert result.statistic == result.deviance_reduced - result.deviance_full
        assert result.p_value == chi2_sf(max(result.statistic, 0.0), 1)

    def test_null_calibration_monte_carlo(self):
        rng = np.random.default_rng(0)
        stats = []
        for _ in range(500):
            feats = rng.standard_normal((200, 3))
            data = simulate(rng, 200, [0.3, 0.8, 0.0, 0.0], features=feats)
            stats.append(lrt_nested(data, [0, 1]).statistic)
        mean = float(np.mean(stats))
        assert 1.6 <= mean <= 2.4

    def test_nesting_monotonicity(self):
        rng = np.random.default_rng(34)
        feats = rng.standard_normal((120, 3))
        data = simulate(rng, 120, [0.2, 0.9, -0.5, 0.3], features=feats)
        config = FitConfig(grad_tol=1e-8)
        dev_a = fit_irls(data.select_columns([0, 1]), config).deviance
        dev_b = fit_irls(data.select_columns([0, 1, 2]), config).deviance
        dev_full = fit_irls(data, config).deviance
        assert dev_a >= dev_b - 1e-6
        assert dev_b >= dev_full - 1e-6

    def test_rejects_bad_column_sets(self):
        rng = np.random.default_rng(35)
        data = simulate(rng, 40, [0.1, 0.5, -0.5])
        with pytest.raises(ValueError, match="intercept"):
            lrt_nested(data, [1, 2])
        with pytest.raises(ValueError, match="strict subset"):
            lrt_nested(data, [0, 1, 2])
        with pytest.raises(ValueError, match="out of range"):
            lrt_nested(data, [0, 5])

    def test_names_the_fit_that_failed(self):
        rng = np.random.default_rng(36)
        data = simulate(rng, 60, [0.3, 0.8, -0.4])
        with pytest.raises(FitNotConvergedError, match="full-model"):
            lrt_nested(data, [0, 1], FitConfig(max_iter=1))


class TestPressQ:
    def test_paper_reference_point(self):
        result = press_q(28, 0.85)
        assert result.q_statistic == pytest.approx(13.72, rel=1e-12)
        assert 1.9e-4 < result.p_value < 2.3e-4

    def test_chance_level(self):
        result = press_q(50, 0.5)
        assert result.q_statistic == 0.0
        assert result.p_value == 1.0

    def test_against_erfc_oracle(self):
        result = press_q(100, 0.6)
        assert result.q_statistic == pytest.approx(4.0, rel=1e-12)
        assert result.p_value == pytest.approx(0.0455, abs=1e-4)
        assert abs(
            result.p_value - math.erfc(math.sqrt(result.q_statistic / 2))
        ) <= 1e-10

    def test_symmetric_in_rate(self):
        # dyadic rates make the complement exact in floating point
        for rate in [0.0, 0.125, 0.25, 0.375, 0.5, 743 / 1024, 1.0]:
            a = press_q(28, rate)
            b = press_q(28, 1.0 - rate)
            assert a.q_statistic == b.q_statistic

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            press_q(0, 0.5)
        with pytest.raises(ValueError):
            press_q(10, -0.1)
        with pytest.raises(ValueError):
            press_q(10, 1.1)


class TestPowerCurve:
    def test_grid_layout(self):
        curve = power_curve(28)
        assert len(curve) == 1000
        assert curve.powers[0] == pytest.approx(0.001)
        assert curve.powers[-1] == 1.0

    def test_chance_entry_is_one(self):
        curve = power_curve(77)
        idx = int(np.argmin(np.abs(curve.powers - 0.5)))
        assert curve.powers[idx] == 0.5
        assert curve.p_values[idx] == 1.0

    def test_reference_point_near_085(self):
        curve = power_curve(28)
        idx = int(np.argmin(np.abs(curve.powers - 0.85)))
        assert 1.9e-4 <= curve.p_values[idx] <= 2.3e-4

    def test_larger_n_is_pointwise_smaller_beyond_half(self):
        small = power_curve(28)
        large = power_curve(1000)
        mask = small.powers > 0.5
        assert np.all(large.p_values[mask] <= small.p_values[mask])

    def test_monotone_segments(self):
        curve = power_curve(40, grid_points=500)
        upper = curve.p_values[curve.powers >= 0.5]
        lower = curve.p_values[curve.powers <= 0.5]
        assert np.all(np.diff(upper) <= 0)
        assert np.all(np.diff(lower) >= 0)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            power_curve(0)
        with pytest.raises(ValueError):
            power_curve(10, grid_points=1)


def test_lrt_nested_names_a_reduced_fit_that_stops_at_max_iter():
    # a seeded draw whose full fit converges in 5 steps and whose reduced fit needs 6
    data = simulate(np.random.default_rng(57), 40, [0.0, 4.0, 0.5])
    config = FitConfig(max_iter=5)
    assert fit_irls(data, config).converged
    with pytest.raises(FitNotConvergedError,
                       match=r"^reduced-model fit did not converge \(status MaxIterations\)$"):
        lrt_nested(data, [0, 1], config)


def test_power_curve_names_a_grid_too_large_to_allocate():
    # numpy refuses an 800-petabyte grid without allocating any of it
    with pytest.raises(ValueError, match=r"^grid_points is too large to tabulate, got 10{17}$"):
        power_curve(10, grid_points=10**17)


@pytest.mark.parametrize(
    "call",
    [lambda: press_q(28.9, 0.15), lambda: press_q(28.0, 0.15), lambda: press_q("28", 0.15),
     lambda: power_curve(10, 2.5), lambda: power_curve(10.0, 5), lambda: power_curve(10, "5")],
    ids=["press_q n=28.9", "press_q n=28.0", "press_q n='28'", "power_curve grid_points=2.5",
         "power_curve n=10.0", "power_curve grid_points='5'"],
)
def test_a_count_that_is_not_an_integer_is_refused(call):
    with pytest.raises(TypeError):
        call()


def test_numpy_integer_counts_are_integers():
    assert press_q(np.int64(28), 0.15) == press_q(28, 0.15)
    assert len(power_curve(np.int32(10), np.int64(5))) == 5
