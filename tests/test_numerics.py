import math

import numpy as np
import pytest
from scipy.stats import chi2

from logitkit import chi2_sf, pinv_psd, solve_psd


class TestSolvePsd:
    def test_identity(self):
        x = solve_psd(np.eye(3), [1.0, 2.0, 3.0])
        assert np.allclose(x, [1.0, 2.0, 3.0], atol=1e-12)

    def test_singular_minimum_norm(self):
        # the null direction carries no component of the solution
        x = solve_psd(np.diag([2.0, 0.0]), [4.0, 5.0])
        assert np.allclose(x, [2.0, 0.0], atol=1e-12)

    def test_two_by_two(self):
        a = np.array([[4.0, 2.0], [2.0, 2.0]])
        b = np.array([6.0, 4.0])
        assert np.allclose(a @ [1.0, 1.0], b)  # derivation of the expected value
        assert np.allclose(solve_psd(a, b), [1.0, 1.0], atol=1e-10)

    def test_rank_deficient_matches_spectral_pseudoinverse(self):
        rng = np.random.default_rng(5)
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        a = q @ np.diag([3.0, 1.0, 0.0]) @ q.T
        b = rng.standard_normal(3)
        expected = q @ np.diag([1 / 3.0, 1.0, 0.0]) @ q.T @ b
        assert np.allclose(solve_psd(a, b), expected, atol=1e-10)

    def test_least_squares_optimality_on_random_instances(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            k = int(rng.integers(1, 6))
            r = int(rng.integers(0, k + 1))
            base = rng.standard_normal((k, r)) if r else np.zeros((k, 1))
            a = base @ base.T
            b = rng.standard_normal(k)
            x = solve_psd(a, b)
            residual = np.linalg.norm(a @ x - b)
            for _ in range(5):
                probe = rng.standard_normal(k)
                assert residual <= np.linalg.norm(a @ probe - b) + 1e-9

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        base = rng.standard_normal((4, 2))
        a = base @ base.T
        b = rng.standard_normal(4)
        assert np.array_equal(solve_psd(a, b), solve_psd(a, b))

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            solve_psd(np.ones((2, 3)), [1.0, 2.0])
        with pytest.raises(ValueError):
            solve_psd(np.eye(2), [1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            solve_psd([[1.0, 2.0], [2.5, 1.0]], [1.0, 2.0])  # not symmetric
        with pytest.raises(ValueError):
            solve_psd([[np.nan, 0.0], [0.0, 1.0]], [1.0, 2.0])
        with pytest.raises(ValueError):
            solve_psd(np.eye(2), [1.0, np.inf])


class TestPinvPsd:
    def test_inverse_of_nonsingular(self):
        rng = np.random.default_rng(9)
        base = rng.standard_normal((4, 4))
        a = base @ base.T + 0.5 * np.eye(4)
        assert np.allclose(pinv_psd(a) @ a, np.eye(4), atol=1e-10)

    def test_symmetric_output(self):
        rng = np.random.default_rng(10)
        base = rng.standard_normal((5, 2))
        a = base @ base.T
        p = pinv_psd(a)
        assert np.array_equal(p, p.T)


class TestChi2Sf:
    def test_at_origin(self):
        assert chi2_sf(0.0, 1) == 1.0
        assert chi2_sf(0.0, 7) == 1.0

    def test_press_q_reference_point(self):
        # 13.72 is Q for n=28 at rate 0.85; tail mass about 2e-4
        p = chi2_sf(13.72, 1)
        assert 1.9e-4 < p < 2.3e-4
        assert p == pytest.approx(2.1218287122257872e-04, abs=1e-10)

    def test_df1_closed_form(self):
        for x in np.linspace(0.0, 50.0, 500):
            assert abs(chi2_sf(float(x), 1) - math.erfc(math.sqrt(x / 2))) <= 1e-10

    def test_df2_closed_form(self):
        for x in np.linspace(0.0, 50.0, 200):
            assert abs(chi2_sf(float(x), 2) - math.exp(-x / 2)) <= 1e-12

    def test_against_scipy(self):
        for df in (1, 2, 3, 5, 10, 30, 100):
            for x in (1e-8, 0.5, 4.0, 13.72, 80.0, 2.5e3, 1e4):
                assert abs(chi2_sf(x, df) - chi2.sf(x, df)) <= 1e-10

    def test_monotone_and_bounded(self):
        for df in (1, 2, 5, 40):
            values = [chi2_sf(float(x), df) for x in np.linspace(0, 200, 400)]
            assert all(0.0 <= v <= 1.0 for v in values)
            assert all(a >= b for a, b in zip(values, values[1:]))

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            chi2_sf(-1.0, 1)
        with pytest.raises(ValueError):
            chi2_sf(float("nan"), 1)
        with pytest.raises(ValueError):
            chi2_sf(1.0, 0)
        with pytest.raises(ValueError):
            chi2_sf(1.0, -3)


def test_chi2_sf_near_the_center_of_a_large_df():
    # x near df at a large df, where an iterated incomplete gamma needs thousands of steps
    assert abs(chi2_sf(20000.0, 20000) - chi2.sf(20000.0, 20000)) <= 1e-10


@pytest.mark.parametrize("df", [2, 3, 10])
def test_chi2_sf_of_the_smallest_subnormal_is_one(df):
    # x/2 rounds to zero, where log(x/2) has no value
    assert chi2_sf(5e-324, df) == 1.0


def test_chi2_sf_finite_sum_matches_scipy_over_a_seeded_sweep():
    rng = np.random.default_rng(20)
    for df in [*range(1, 101), 500, 2000, 20000, 50000]:
        top = math.log10(40 * df + 200)
        for x in (10.0 ** rng.uniform(-12, top, 25)).tolist():
            got, want = chi2_sf(x, df), chi2.sf(x, df)
            assert abs(got - want) <= 1e-10, (x, df)
            if df <= 100 and want > 1e-300:
                assert abs(got - want) <= 1e-12 * want, (x, df)


def test_chi2_sf_df2_is_exp_exactly():
    for x in np.linspace(0.0, 1500.0, 3001).tolist():
        assert chi2_sf(x, 2) == math.exp(-x / 2)


@pytest.mark.parametrize(
    "a, b, message",
    [
        (np.ones(2), [1.0, 2.0], r"^a must be two-dimensional, got shape \(2,\)$"),
        (np.empty((0, 0)), [1.0], r"^a must have at least one row and one column$"),
        (np.eye(2), np.ones((2, 1)), r"^b must be one-dimensional, got shape \(2, 1\)$"),
        (np.eye(1), [], r"^b must have at least one entry$"),
    ],
    ids=["vector matrix", "empty matrix", "matrix vector", "empty vector"],
)
def test_solve_psd_names_a_bad_shape(a, b, message):
    with pytest.raises(ValueError, match=message):
        solve_psd(a, b)


def test_solve_psd_takes_a_scalar_right_hand_side_for_a_one_by_one_system():
    assert solve_psd([[4.0]], 2.0).tolist() == [0.5]
