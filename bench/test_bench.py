"""Tests of the benchmark itself: quick runs of every workload, the layout of
BENCHMARK.json, and one deliberately wrong output per check, which the
check must reject.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import inputs  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
from logitkit import inference  # noqa: E402
from logitkit.model import Dataset  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    BENCHMARK = json.load(_handle)
OPS_PER_ROUND = {"csv-fit-predict": 2, "loo-cv": 3, "big-n-inference": 3}


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(cwd, "bench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_quick_round_is_correct_and_reports_every_end_to_end_metric(workload):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "5", "--trace", "0",
                "--rounds", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"], proc.stderr
    assert (result["attempted"], result["failed"]) == (OPS_PER_ROUND[workload], 0)
    want = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_run_reports_every_layer_metric():
    proc = _run("--workload", "loo-cv", "--seed", "3", "--seconds", "5", "--trace", "1",
                "--rounds", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    folds = sum(rows for _, rows, *_ in inputs.CV_SETS)
    assert metrics["classify.folds"] == folds
    assert metrics["fit.calls"] == folds
    assert metrics["model.dataset_builds"] == folds + len(inputs.CV_SETS)
    assert metrics["numerics.solve_psd_calls"] == metrics["fit.newton_iters"] > 0
    assert metrics["numerics.chi2_sf_calls"] == len(inputs.CV_SETS)


def test_per_layer_metrics_match_the_tracer():
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == tracing.UNITS


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("--workload", "loo-cv", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout == ""


# ---- each check rejects a deliberately wrong output -------------------------

def _cli_outputs(out_dir, runs):
    """Run CLI commands in-process as the worker does; return their output paths."""
    rounds = worker.CliRounds(out_dir, runs)
    assert all(op() for op in rounds.ops)
    return rounds.outputs


@pytest.fixture(scope="module")
def fit_predict(tmp_path_factory):
    d = tmp_path_factory.mktemp("fit")
    train, test = str(d / "train.csv"), str(d / "test.csv")
    inputs.fit_table(train, 5, 1, 2000)
    inputs.fit_table(test, 5, 2, 500)
    paths = _cli_outputs(str(d), [("fit", ["fit", train]),
                                  ("predict", ["predict", test, "--model", str(d / "fit.json")])])
    return checks.FitPredictOracle(train, test), paths


@pytest.fixture(scope="module")
def loo(tmp_path_factory):
    d = tmp_path_factory.mktemp("loo")
    tables = {}
    for stream, (name, rows, k, separated) in enumerate(inputs.CV_SETS, start=3):
        tables[name] = str(d / f"{name}.csv")
        inputs.cv_table(tables[name], 5, stream, rows, k, separated)
    paths = _cli_outputs(str(d), [(name, ["cv", path]) for name, path in tables.items()])
    separated = {name for name, *_, sep in inputs.CV_SETS if sep}
    return checks.LooOracle(tables, separated), paths


@pytest.fixture(scope="module")
def big_n(tmp_path_factory):
    d = tmp_path_factory.mktemp("big")
    features, labels = inputs.big_arrays(5, rows=4000)
    data = Dataset.from_features(features, labels)
    rate, points = inputs.press_rate(5), 2000
    paths = worker.dump_inference(
        str(d), inference.lrt_nested(data, range(inputs.BIG_KEPT + 1)),
        inference.power_curve(inputs.CURVE_N, points), inference.press_q(data.n, rate))
    oracle = checks.InferenceOracle(features, labels, inputs.BIG_KEPT, inputs.CURVE_N, points, rate)
    return oracle, paths


def _mutated(paths, tmp_path, name, change):
    """Copy the outputs with `change` applied to output `name`."""
    out = dict(paths)
    out[name] = str(tmp_path / os.path.basename(paths[name]))
    if name == "curve":
        curve = np.load(paths[name])
        change(curve)
        np.save(out[name], curve)
    else:
        with open(paths[name], encoding="utf-8") as handle:
            payload = json.load(handle)
        text = change(payload)
        with open(out[name], "w", encoding="utf-8") as handle:
            handle.write(text if isinstance(text, str) else json.dumps(payload))
    return out


def _set(path, value_of):
    """A change that replaces payload[k1][k2]... with value_of(old)."""
    *parents, last = path

    def change(payload):
        for key in parents:
            payload = payload[key]
        payload[last] = value_of(copy.deepcopy(payload[last]))
    return change


def _add_id_feature(fit):
    fit["feature_names"].insert(1, "id")
    for key in ("coef", "std_errors"):
        fit[key]["id"] = 0.0


FIT_MUTATIONS = {
    "coefficient off by 0.05 standard errors":
        ("fit", lambda f: f["coef"].__setitem__("x1", f["coef"]["x1"] + 0.05 * f["std_errors"]["x1"])),
    "std error off by 1e-4": ("fit", _set(["std_errors", "x2"], lambda v: v * (1 + 1e-4))),
    "id column taken as a feature": ("fit", _add_id_feature),
    "bare NaN token": ("fit", lambda f: json.dumps(f).replace(
        json.dumps(f["std_errors"]["x3"]), "NaN")),
    "probability off by 1e-9": ("predict", _set(["probabilities", 7], lambda v: v + 1e-9)),
    "flipped label": ("predict", _set(["labels", 7], lambda v: 1 - v)),
    "row missing": ("predict", lambda p: p["probabilities"].pop()),
}


@pytest.mark.parametrize("case", FIT_MUTATIONS)
def test_fit_predict_checks_reject(fit_predict, tmp_path, case):
    oracle, paths = fit_predict
    assert oracle.failures(paths) == []
    name, change = FIT_MUTATIONS[case]
    assert oracle.failures(_mutated(paths, tmp_path, name, change))


def _flip_error(oracle, name, pick):
    """Flip the per-subject error of the subject `pick` chooses from the oracle's table."""
    n, _, extra = oracle.tables[name]
    return name, _set(["per_subject_errors", pick(n, extra)], lambda v: 1 - v)


def _far_from_boundary(n, scores):
    return int(np.argmax(np.abs(scores)))


def _off_tie_set(n, tie):
    return min(set(range(n)) - tie)


LOO_MUTATIONS = {
    "flipped per-subject error": lambda o: _flip_error(o, "cv-a", _far_from_boundary),
    "error off the tie set": lambda o: _flip_error(o, "cv-sep", _off_tie_set),
    "error rate off by 1e-9": lambda o: ("cv-b", _set(["error_rate"], lambda v: v + 1e-9)),
    "Q off by 1e-9": lambda o: ("cv-b", _set(["press_q", "q_statistic"], lambda v: v * (1 + 1e-9))),
    "p-value off by 1e-6": lambda o: ("cv-sep", _set(["press_q", "p_value"], lambda v: v * (1 + 1e-6))),
}


@pytest.mark.parametrize("case", LOO_MUTATIONS)
def test_loo_checks_reject(loo, tmp_path, case):
    oracle, paths = loo
    assert oracle.failures(paths) == []
    name, change = LOO_MUTATIONS[case](oracle)
    assert oracle.failures(_mutated(paths, tmp_path, name, change))


def _shift_curve(curve):
    mid = curve.shape[1] // 2 + 10  # a power near 1/2, where the p-value is not tiny
    curve[1, mid] *= 1 + 1e-6


def _shift_statistic(lrt):
    lrt["statistic"] += 1e-3
    lrt["deviance_reduced"] += 1e-3


BIG_MUTATIONS = {
    "LRT statistic off by 1e-3": ("lrt", _shift_statistic),
    "LRT df off by one": ("lrt", _set(["df"], lambda v: v + 1)),
    "LRT p-value off by 1e-6": ("lrt", _set(["p_value"], lambda v: v * (1 + 1e-6))),
    "power-curve p-value off by 1e-6": ("curve", _shift_curve),
    "Press's Q p-value off by 1e-6": ("press_q", _set(["p_value"], lambda v: v * (1 + 1e-6))),
    "Press's Q off by 1e-9": ("press_q", _set(["q_statistic"], lambda v: v * (1 + 1e-9))),
}


@pytest.mark.parametrize("case", BIG_MUTATIONS)
def test_inference_checks_reject(big_n, tmp_path, case):
    oracle, paths = big_n
    assert oracle.failures(paths) == []
    name, change = BIG_MUTATIONS[case]
    assert oracle.failures(_mutated(paths, tmp_path, name, change))
