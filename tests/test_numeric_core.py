"""The shared Newton kernel, the branch-free logistic and the closed-form
chi-square(1) tail, checked against the public pieces and independent
references; plus strict json and row numbering at the command line."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy import stats

import logitkit
from logitkit import (
    Dataset,
    FitConfig,
    chi2_sf,
    covariance,
    fit_irls,
    gradient,
    log_likelihood,
    logistic,
    power_curve,
)
from logitkit.cli import main


def _hard_cases(seed):
    """Separated, quasi-separated, collinear, saturated-score, single-class
    and n = 1 data drawn from one seed."""
    rng = np.random.default_rng([seed, 31])
    n = int(rng.integers(8, 120))
    k = int(rng.integers(1, 5))
    x = rng.standard_normal((n, k))
    y = (rng.random(n) < logistic(0.3 + x @ rng.standard_normal(k))).astype(float)
    y[:2] = [0.0, 1.0]
    quasi = x.copy()
    tie = rng.random(n) < 0.2
    quasi[:, 0] = np.where(tie, 0.0, np.round(x[:, 0], 2))
    yield "separated", x, (x[:, 0] > 0).astype(float)
    yield "quasi-separated", quasi, np.where(tie, y, quasi[:, 0] > 0).astype(float)
    yield "collinear", np.column_stack([x, 2.0 * x[:, 0] - x[:, -1]]), y
    yield "saturated", 1e3 * x, y
    yield "single-class", x, np.full(n, float(seed % 2))
    yield "n = 1", x[:1], y[1:2]


@pytest.mark.parametrize("config", [FitConfig(), FitConfig(max_iter=5), FitConfig(divergence_norm=2.0)],
                         ids=["default", "max_iter=5", "divergence_norm=2"])
def test_fit_result_equals_the_public_pieces_at_its_coefficients(config):
    for seed in range(15):
        for kind, features, labels in _hard_cases(seed):
            data = Dataset.from_features(features, labels)
            result = fit_irls(data, config)
            where = f"seed {seed}, {kind}"
            assert result.grad_norm == np.linalg.norm(gradient(data, result.coef)), where
            assert np.array_equal(result.covariance, covariance(data, result.coef)), where
            assert result.log_lik == log_likelihood(data, result.coef), where
            assert result.deviance == -2.0 * result.log_lik, where


def _two_branch_logistic(t):
    t = np.atleast_1d(np.asarray(t, dtype=float))
    out = np.empty_like(t)
    pos = t >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-t[pos]))
    ex = np.exp(t[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def test_logistic_matches_the_two_branch_form_bit_for_bit():
    special = [0.0, -0.0, 709.0, -709.0, 745.0, -745.0, 1e3, -1e3, 5e-324, -5e-324, 36.7, -36.7]
    grid = np.r_[special, np.linspace(-800.0, 800.0, 16001),
                 np.random.default_rng(5).standard_normal(1000) * 30.0]
    assert np.array_equal(logistic(grid), _two_branch_logistic(grid))
    for t in special:
        value = logistic(t)
        assert type(value) is float
        assert value == _two_branch_logistic(t)[0]


def test_chi2_one_df_is_the_erfc_closed_form_exactly():
    grid = np.r_[np.linspace(0.0, 60.0, 6001), 1e-300, 1e-12, 0.5, 2.0, 700.0, 1e4]
    for x in grid.tolist():
        assert chi2_sf(x, 1) == math.erfc(math.sqrt(x / 2))


@pytest.mark.parametrize("n", [28, 200, 1000])
def test_power_curve_p_values_match_scipy(n):
    curve = power_curve(n, 2001)
    q = n * (2.0 * curve.powers - 1.0) ** 2
    assert np.allclose(curve.p_values, stats.chi2.sf(q, 1), rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("n, grid_points",
                         [(1, 2), (14, 3), (200, 1000), (200, 50_000), (10_000, 777)])
def test_power_curve_is_per_point_chi2_sf_bit_for_bit(n, grid_points):
    curve = power_curve(n, grid_points)
    q = n * (2.0 * curve.powers - 1.0) ** 2
    assert np.array_equal(curve.p_values, [chi2_sf(v, 1) for v in q.tolist()])
    if grid_points % 2 == 0:  # power 1/2 gives q = 0 and p = 1
        assert q[grid_points // 2 - 1] == 0.0 and curve.p_values[grid_points // 2 - 1] == 1.0


def test_diverged_fit_writes_strict_json_and_nothing_to_stderr(tmp_path):
    # x * beta overflows X'SX on the first Newton step, so the fit ends Diverged
    # with NaN standard errors and an infinite gradient norm
    path = tmp_path / "huge.csv"
    cells = ["1e200,1", "-2e200,0", "3e200,1", "-4e200,0", "5e200,0", "-6e200,1"]
    path.write_text("x,y\n" + "\n".join(cells) + "\n", encoding="utf-8")
    src = os.path.dirname(os.path.dirname(os.path.abspath(logitkit.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from logitkit.cli import main; sys.exit(main(sys.argv[1:]))",
         "fit", str(path), "--features", "x"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0

    def reject(token):
        raise ValueError(f"non-standard json token {token}")

    payload = json.loads(proc.stdout, parse_constant=reject)
    assert payload["status"] == "Diverged"
    assert payload["grad_norm"] is None
    assert proc.stderr == ""


def test_diverged_fit_tsv_keeps_non_finite_values(tmp_path, capsys):
    path = tmp_path / "huge.csv"
    path.write_text("x,y\n1e200,1\n-2e200,0\n3e200,1\n", encoding="utf-8")
    assert main(["fit", str(path), "--features", "x", "--format", "tsv"]) == 0
    lines = dict(line.split("\t") for line in capsys.readouterr().out.splitlines())
    assert lines["status"] == "Diverged"
    assert lines["grad_norm"] == "inf"


def test_error_rows_count_blank_lines(tmp_path, capsys):
    path = tmp_path / "blank.csv"
    path.write_text("x,y\n1,0\n\n2,1\nabc,1\n", encoding="utf-8")
    assert main(["fit", str(path), "--features", "x"]) == 2
    assert "row 4, column 'x'" in capsys.readouterr().err


def test_width_error_rows_count_blank_lines_without_header(tmp_path, capsys):
    path = tmp_path / "blank.csv"
    path.write_text("\n1,0\n2,1,7\n", encoding="utf-8")
    assert main(["fit", str(path), "--no-header", "--label-col", "col2"]) == 2
    assert "row 3: expected 2 cells, got 3" in capsys.readouterr().err
