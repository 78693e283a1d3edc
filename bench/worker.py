"""The load process of one benchmark run.

Usage: python3 bench/worker.py SPEC_JSON

A fresh interpreter that imports logitkit (from the checkout's ``src``, put
on PYTHONPATH by run.py), builds the workload's library objects, then runs
whole rounds of the workload's operations until the time in the spec is
spent. Every timed operation goes through a public entry point:
``logitkit.cli.main(argv)`` with stdout sent to a file, or the library
functions. After each round, outside the timed region, the round's outputs
are fingerprinted and each distinct output is kept for run.py to check.
With ``trace`` set, the spans of ``tracing.Tracer`` are saved at the end.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import resource
import shutil
import sys
import time
import traceback

import numpy as np

import inputs
import logitkit
from logitkit import cli, inference
from logitkit.model import Dataset
from tracing import ROUND, Tracer

SETUP_BUILDS = 5  # Dataset builds timed for setup_s; the median is reported


def _attempt(op) -> bool:
    """Run one operation; False when it fails (non-zero exit or exception)."""
    try:
        return op() is not False
    except Exception:  # a failed operation is counted, not fatal to the run
        traceback.print_exc()
        return False


def _cli(argv, out_path):
    def op():
        with open(out_path, "w", encoding="utf-8") as handle, contextlib.redirect_stdout(handle):
            return cli.main(argv) == 0
    return op


class CliRounds:
    """Runs ``logitkit.cli.main(argv)`` for each (output name, argv), in order."""

    def __init__(self, out_dir, runs):
        self.outputs = {name: os.path.join(out_dir, f"{name}.json") for name, _ in runs}
        self.ops = [_cli(argv, self.outputs[name]) for name, argv in runs]

    def setup(self):
        return []

    def dump(self):
        return self.outputs


def csv_fit_predict(spec):
    """fit with auto feature detection, then predict (json) with that model."""
    files, out = spec["files"], spec["out_dir"]
    return CliRounds(out, [("fit", ["fit", files["train"]]),
                           ("predict", ["predict", files["test"], "--model",
                                        os.path.join(out, "fit.json")])])


def loo_cv(spec):
    """cv on each of the three small tables, in a fixed order."""
    return CliRounds(spec["out_dir"], [(name, ["cv", path]) for name, path in spec["files"].items()])


class BigNInference:
    """lrt_nested dropping half the features, power_curve and press_q, in-process."""

    def __init__(self, spec):
        self.spec = spec
        self.out = spec["out_dir"]
        self.results = {}
        self.ops = [self._lrt, self._curve, self._press]

    def setup(self):
        features = np.load(self.spec["files"]["features"])
        labels = np.load(self.spec["files"]["labels"])
        seconds = []
        for _ in range(SETUP_BUILDS):
            t0 = time.perf_counter()
            self.data = Dataset.from_features(features, labels)
            seconds.append(time.perf_counter() - t0)
        return seconds

    def _lrt(self):
        self.results["lrt"] = inference.lrt_nested(self.data, range(inputs.BIG_KEPT + 1))

    def _curve(self):
        self.results["curve"] = inference.power_curve(inputs.CURVE_N, inputs.CURVE_POINTS)

    def _press(self):
        self.results["press_q"] = inference.press_q(self.data.n, self.spec["press_rate"])

    def dump(self):
        return dump_inference(self.out, *(self.results.pop(k, None)
                                          for k in ("lrt", "curve", "press_q")))


def dump_inference(out_dir, lrt, curve, press) -> dict:
    """Write big-n-inference results as lrt.json, curve.npy and press_q.json
    (None for an operation that failed)."""
    paths = {name: os.path.join(out_dir, f"{name}.json") for name in ("lrt", "press_q")}
    paths["curve"] = os.path.join(out_dir, "curve.npy")
    for name, result in (("lrt", lrt), ("press_q", press)):
        with open(paths[name], "w", encoding="utf-8") as handle:
            json.dump(None if result is None else vars(result), handle)
    np.save(paths["curve"], np.zeros((2, 0)) if curve is None
            else np.vstack([curve.powers, curve.p_values]))
    return paths


WORKLOADS = {"csv-fit-predict": csv_fit_predict, "loo-cv": loo_cv, "big-n-inference": BigNInference}


def _fingerprint(paths: dict) -> str:
    digest = hashlib.sha256()
    for name in sorted(paths):
        with open(paths[name], "rb") as handle:
            digest.update(name.encode() + b"\0" + handle.read() + b"\0")
    return digest.hexdigest()


def main(spec_path: str) -> None:
    with open(spec_path, encoding="utf-8") as handle:
        spec = json.load(handle)
    src = os.path.realpath(spec["src"])
    if os.path.dirname(os.path.dirname(os.path.realpath(logitkit.__file__))) != src:
        sys.exit(f"logitkit was imported from {logitkit.__file__}, not from {src}")

    tracer = None
    if spec["trace"]:
        tracer = Tracer()
        tracer.install()
    workload = WORKLOADS[spec["workload"]](spec)
    setup_dataset_s = workload.setup()

    def run_round():
        t0 = time.perf_counter()
        ok = [_attempt(op) for op in workload.ops]
        return ok, time.perf_counter() - t0

    if tracer:
        run_round = tracer.wrap(ROUND, run_round)
    round_s, digests, distinct = [], [], {}
    attempted = failed = 0
    deadline = time.perf_counter() + spec["seconds"]
    while True:
        ok, seconds = run_round()
        round_s.append(seconds)
        attempted += len(ok)
        failed += ok.count(False)
        paths = workload.dump()
        digest = _fingerprint(paths)
        if digest not in distinct:
            keep = os.path.join(spec["out_dir"], f"distinct-{len(distinct)}")
            os.mkdir(keep)
            distinct[digest] = {name: shutil.copy(path, keep) for name, path in paths.items()}
        digests.append(digest)
        if len(round_s) == spec["max_rounds"] or time.perf_counter() >= deadline:
            break

    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer:
        tracer.save(spec["spans"])
    with open(spec["result"], "w", encoding="utf-8") as handle:
        json.dump({
            "round_s": round_s,
            "setup_dataset_s": setup_dataset_s,
            "attempted": attempted,
            "failed": failed,
            "peak_rss_kb": peak_rss_kb,
            "digests": digests,
            "distinct": distinct,
        }, handle)


if __name__ == "__main__":
    main(sys.argv[1])
