"""The one rule for a caller's values at the public API: a count is what
operator.index takes, a real a numbers.Real, an array what numpy reads with a
bool, integer or real dtype, and a bool scalar is none of them. Every refusal
is logitkit's own TypeError, ValueError or IndexError naming the argument,
never a numpy or builtin message, and never a warning."""

import math
import random
import re
import warnings

import numpy as np
import pytest

import logitkit
from logitkit import (
    Dataset,
    FitConfig,
    FitNotConvergedError,
    chi2_sf,
    classify,
    covariance,
    deviance,
    gradient,
    log_likelihood,
    logistic,
    neg_hessian,
    power_curve,
    predict_proba,
    press_q,
    solve_psd,
)


def small_data():
    return Dataset.from_features([[1.0], [2.0], [3.0], [4.0]], [0, 1, 0, 1])


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: Dataset.from_features([["1.5"], [" 2 "], ["3"]], [0, 1, 1]), TypeError,
         r"^features must be an array of numbers, got dtype <U3$"),
        (lambda: Dataset.from_features([[1.0], [2.0], [3.0]], ["0", "1", "1"]), TypeError,
         r"^labels must be an array of numbers, got dtype <U1$"),
        (lambda: Dataset.from_features([[1.0], [2.0], [3.0]], [[0], [1], [1]]), ValueError,
         r"^labels must be one-dimensional, got shape \(3, 1\)$"),
        (lambda: small_data().select_columns([0, 1.7]), TypeError,
         r"^column index must be an integer, got float$"),
        (lambda: small_data().select_columns([0, "1"]), TypeError,
         r"^column index must be an integer, got str$"),
        (lambda: small_data().select_columns([-1, 0]), ValueError,
         r"^column index must be at least 0, got -1$"),
        (lambda: small_data().without_row(True), TypeError, r"^row must be an integer, got bool$"),
        (lambda: press_q(True, 0.2), TypeError, r"^n must be an integer, got bool$"),
        (lambda: FitConfig(max_iter=True), TypeError, r"^max_iter must be an integer, got bool$"),
        (lambda: classify(small_data(), [0.0, 1.0], threshold="0.5"), TypeError,
         r"^threshold must be a real number, got str$"),
        (lambda: chi2_sf("3.0", 1), TypeError, r"^x must be a real number, got str$"),
        (lambda: logistic("1"), TypeError, r"^t must be an array of numbers, got dtype <U1$"),
        (lambda: chi2_sf(10**400, 1), ValueError, r"^x is too large to convert to float$"),
        (lambda: press_q(10, 10**400), ValueError,
         r"^rate is too large to convert to float$"),
        (lambda: predict_proba(small_data(), [10**400, 0]), TypeError,
         r"^coef must be an array of numbers, got dtype object$"),
        (lambda: solve_psd([[1, 0], [0]], [1.0, 2.0]), TypeError,
         r"^a must be an array of numbers, got ragged nesting$"),
        (lambda: FitConfig(grad_tol="0.1"), TypeError,
         r"^grad_tol must be a real number, got str$"),
    ],
    ids=["string features", "string labels", "labels of shape (n, 1)", "column index 1.7",
         "column index '1'", "negative column index", "row True", "press_q n=True",
         "max_iter=True", "threshold '0.5'", "chi2_sf x '3.0'", "logistic '1'",
         "chi2_sf x 10**400", "press_q rate 10**400", "coef 10**400", "ragged matrix",
         "grad_tol '0.1'"],
)
def test_a_value_outside_the_rule_is_refused_by_name(call, error, message):
    with pytest.raises(error, match=message):
        call()


@pytest.mark.parametrize(
    "call",
    [lambda d, b: log_likelihood(d, b), lambda d, b: deviance(d, b),
     lambda d, b: classify(d, b), lambda d, b: gradient(d, b), lambda d, b: neg_hessian(d, b),
     lambda d, b: covariance(d, b), lambda d, b: predict_proba(d, b)],
    ids=["log_likelihood", "deviance", "classify", "gradient", "neg_hessian", "covariance",
         "predict_proba"],
)
def test_coefficients_whose_scores_overflow_are_one_value_error(call):
    data = Dataset.from_features([[1e200], [2e200], [-1e200]], [1, 0, 1])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^coef gives a non-finite score x·beta$"):
            call(data, [0.0, 1e200])


def test_an_information_matrix_past_the_float_range_gives_no_warning():
    # finite scores, but x_i^2 = 1e400 overflows X'SX, which gradient does not return
    data = Dataset.from_features([[1e200], [2e200], [-1e200]], [1, 0, 1])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert gradient(data, [0.0, 0.0]).tolist() == [0.5, -1e200]
        assert np.isinf(neg_hessian(data, [0.0, 0.0])[1, 1])


@pytest.mark.parametrize(
    "call",
    [lambda: Dataset.from_features([[1.0, 2.0], [3.0, 4.0]], [0, 1], feature_names="ab"),
     lambda: Dataset.from_features([[1.0, 2.0], [3.0, 4.0]], [0, 1], feature_names=[1, 2]),
     lambda: Dataset.from_features([[1.0, 2.0], [3.0, 4.0]], [0, 1], feature_names=[["a"], "b"]),
     lambda: Dataset(np.ones((2, 1)), [0, 1], feature_names="intercept")],
    ids=["a lone str", "integers", "a list among names", "a lone str to Dataset"],
)
def test_feature_names_must_be_strings(call):
    with pytest.raises(TypeError, match=r"^feature_names must be a sequence of str$"):
        call()


@pytest.mark.parametrize("grid_points", [2**63, 10**400], ids=["2**63", "10**400"])
def test_a_grid_past_numpy_sizes_is_too_large_to_tabulate(grid_points):
    # numpy returns an empty arange for the first and refuses the second in its own words
    with pytest.raises(ValueError, match=rf"^grid_points is too large to tabulate, got {grid_points}$"):
        power_curve(10, grid_points)


def test_chi2_sf_refuses_a_df_past_its_bound():
    # the finite sum costs df//2 terms, so a df of 10**400 would never return
    assert chi2_sf(1.0, 10**6) == 1.0
    with pytest.raises(ValueError, match=r"^df must be at most 1000000, got 1000001$"):
        chi2_sf(1.0, 10**6 + 1)


def test_select_columns_needs_an_iterable():
    with pytest.raises(TypeError, match=r"^columns must be an iterable of column indices$"):
        small_data().select_columns(np.array(0))


# logitkit's own error texts; anything else (a numpy or builtin message) fails the sweep
ALLOWED = [re.compile(p) for p in (
    r"[\w ]+ must be an integer, got \w+",
    r"\w+ must be a real number, got \w+",
    r"\w+ must be an array of numbers, got (ragged nesting|dtype \S+)",
    r"\w+ must be (one|two)-dimensional, got shape \(.*\)",
    r"\w+ must have at least one (entry|row and one column)",
    r"\w+ contains non-finite entries",
    r"[\w ]+ must be at least -?\d+, got -?\d+",
    r"\w+ is too large to convert to float",
    r"max_iter must be at least 1",
    r"(grad_tol|divergence_norm) must be positive",
    r"df must be at most \d+, got \d+",
    r"chi2_sf requires finite x >= 0, got \S+",
    r"rate must lie in \[0, 1\], got \S+",
    r"grid_points is too large to tabulate, got \d+",
    r"threshold must lie strictly inside \(0, 1\), got \S+",
    r"logistic requires finite input",
    r"logit requires 0 < p < 1",
    r"coef gives a non-finite score x·beta",
    r"expected \d+ coefficients, got \d+",
    r"matrix must be square, got shape \(\d+, \d+\)",
    r"matrix is not symmetric within tolerance",
    r"dimension mismatch: matrix is \d+x\d+, vector has length \d+",
    r"first design column must be the intercept \(all ones\)",
    r"design has \d+ rows but labels has \d+ entries",
    r"labels must contain only 0 or 1",
    r"feature_names must be a sequence of str",
    r"expected \d+ feature names, got \d+",
    r'first feature name must be "intercept"',
    r"duplicate feature names: .*",
    r"features must be 1- or 2-dimensional, got \d+",
    r"columns must be an iterable of column indices",
    r"column selection must include the intercept column 0",
    r"column index \d+ out of range",
    r"reduced columns must be a strict subset of all columns",
    r"leave-one-out needs at least two subjects",
    r"both classes must be present in the full data",
    r"row -?\d+ out of range for n=\d+",
    r"(full|reduced)-model fit did not converge \(status \w+\)",
)]

POOL = [
    0, 1, 2, 3, 7, -1, 0.25, 0.5, -2.5, 1e308, math.nan, math.inf, -math.inf, 10**400,
    True, False, np.True_, np.False_, np.int64(2), np.float64(0.3),
    "1", "0.5", "abc", "", None,
    [[1, 0], [0]], [1, [2, 3]],
    np.array(["1", "2"]), np.array([1, None], dtype=object), np.array([1 + 2j, 0]),
    np.array([True, False, True]), np.array([0, 1, 2]), np.array(2.0), np.array(3),
    [0, 1], [0, 2], [0.5, 0.25], [0.1, -0.2, 0.3], [[2.0, 0.5], [0.5, 1.0]], np.eye(2),
    np.ones((4, 2)), [0, 1, 0, 1], [[1.0, 2.0], [1.0, 3.0]], ("intercept", "x1"),
]


def public_calls(data, report):
    """Each public callable with the valid value of each argument it takes from
    the pool; `data` and `report` are real, since type-checking them is out of scope."""
    config = dict(grad_tol=1e-3, max_iter=100, divergence_norm=1e8)
    return {
        "Dataset": (lambda *a: Dataset(*a), [np.ones((2, 2)), [0, 1], ("intercept", "x1")]),
        "Dataset.from_features": (Dataset.from_features, [[[1.0], [2.0]], [0, 1], ["x"]]),
        "Dataset.check_coef": (data.check_coef, [[0.1, -0.2]]),
        "Dataset.without_row": (data.without_row, [1]),
        "Dataset.select_columns": (data.select_columns, [[0, 1]]),
        "FitConfig": (FitConfig, list(config.values())),
        "chi2_sf": (logitkit.chi2_sf, [1.0, 2]),
        "classify": (lambda *a: logitkit.classify(data, *a), [[0.1, -0.2], 0.5]),
        "covariance": (lambda *a: logitkit.covariance(data, *a), [[0.1, -0.2]]),
        "deviance": (lambda *a: logitkit.deviance(data, *a), [[0.1, -0.2]]),
        "deviance_df": (lambda: logitkit.deviance_df(data), []),
        "evaluate_with_press_q": (lambda: logitkit.evaluate_with_press_q(report), []),
        "fit_irls": (lambda *a: logitkit.fit_irls(data, FitConfig(*a)), list(config.values())),
        "gradient": (lambda *a: logitkit.gradient(data, *a), [[0.1, -0.2]]),
        "log_likelihood": (lambda *a: logitkit.log_likelihood(data, *a), [[0.1, -0.2]]),
        "logistic": (logitkit.logistic, [[0.5, -1.0]]),
        "logit": (logitkit.logit, [0.25]),
        "loocv": (lambda a, b: logitkit.loocv(data, FitConfig(max_iter=a), b), [100, 0.5]),
        "lrt_nested": (lambda a, b: logitkit.lrt_nested(data, a, FitConfig(max_iter=b)),
                       [[0], 100]),
        "neg_hessian": (lambda *a: logitkit.neg_hessian(data, *a), [[0.1, -0.2]]),
        "pinv_psd": (logitkit.pinv_psd, [np.eye(2)]),
        "power_curve": (logitkit.power_curve, [28, 5]),
        "predict_proba": (lambda *a: logitkit.predict_proba(data, *a), [[0.1, -0.2]]),
        "press_q": (logitkit.press_q, [28, 0.15]),
        "solve_psd": (logitkit.solve_psd, [np.eye(2), [1.0, 2.0]]),
    }


# results the library builds, not entry points for a caller's values; each checks
# its own fields
RECORDS = {"CvReport", "FitNotConvergedError", "FitResult", "FitStatus", "NestedTestResult",
           "PowerCurve", "PressQResult"}


def test_every_public_call_returns_or_refuses_in_its_own_words():
    # classes overlap in every fold, so no fit runs long under a pool config
    data = Dataset.from_features([[0.1], [0.9], [0.3], [0.5], [0.2], [0.8], [0.4], [0.7]],
                                 [0, 0, 1, 1, 0, 1, 1, 0])
    report = logitkit.loocv(data)
    calls = public_calls(data, report)
    assert {name.partition(".")[0] for name in calls} | RECORDS == set(logitkit.__all__)
    rng = random.Random(8)
    outcomes = {"returned": 0, "refused": 0}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for _ in range(4000):
            name = rng.choice(sorted(calls))
            fn, valid = calls[name]
            args = [rng.choice(POOL) if rng.random() < 0.5 else v for v in valid]
            try:
                fn(*args)
            except (TypeError, ValueError, IndexError, FitNotConvergedError) as exc:
                assert any(p.fullmatch(str(exc)) for p in ALLOWED), (name, args, repr(exc))
                outcomes["refused"] += 1
            else:
                outcomes["returned"] += 1
    assert min(outcomes.values()) > 1000, outcomes
