"""Benchmark of logitkit: three seeded workloads, timed end to end, with a
separately traced run for per-layer figures. See bench/README.md.

Run from the repository root:

    python3 bench/run.py --workload loo-cv --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` spends half the
time untraced and half traced, and prints the per-layer metrics and the
tracing overhead. ``--rounds N`` stops after N rounds (quick mode). The
last stdout line is one JSON object {"correct", "attempted", "failed",
"metrics"}; progress goes to stderr.

This process generates the inputs, times the import of logitkit in fresh
interpreters, starts one worker process (bench/worker.py) that carries all
of the load, and checks the worker's outputs against independent oracles
once the worker has exited. BLAS runs single-threaded in every process.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
import tracing  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH_DIR, "out")
WORKLOADS = ("csv-fit-predict", "loo-cv", "big-n-inference")
# Fresh interpreters timed for setup_s, this many before the worker's rounds and
# as many after: the host's speed drifts over tens of seconds, and probes at
# both ends keep the median from resting on the host's state at one moment.
IMPORT_PROBES = 4
PROBE = "import time; t = time.perf_counter(); import logitkit.cli; print(time.perf_counter() - t)"


def make_inputs(workload: str, seed: int, run_dir: str):
    """Write the workload's inputs; return (files, rows per round, oracle)."""
    path = lambda name: os.path.join(run_dir, name)  # noqa: E731
    if workload == "csv-fit-predict":
        files = {"train": path("train.csv"), "test": path("test.csv")}
        inputs.fit_table(files["train"], seed, 1, inputs.FIT_ROWS)
        inputs.fit_table(files["test"], seed, 2, inputs.PREDICT_ROWS)
        return files, inputs.FIT_ROWS + inputs.PREDICT_ROWS, \
            checks.FitPredictOracle(files["train"], files["test"])
    if workload == "loo-cv":
        files = {}
        for stream, (name, rows, k, separated) in enumerate(inputs.CV_SETS, start=3):
            files[name] = path(f"{name}.csv")
            inputs.cv_table(files[name], seed, stream, rows, k, separated)
        separated = {name for name, *_, sep in inputs.CV_SETS if sep}
        return files, sum(rows for _, rows, *_ in inputs.CV_SETS), \
            checks.LooOracle(files, separated)
    features, labels = inputs.big_arrays(seed)
    files = {"features": path("features.npy"), "labels": path("labels.npy")}
    np.save(files["features"], features)
    np.save(files["labels"], labels)
    oracle = checks.InferenceOracle(features, labels, inputs.BIG_KEPT, inputs.CURVE_N,
                                    inputs.CURVE_POINTS, inputs.press_rate(seed))
    return files, inputs.BIG_ROWS + inputs.CURVE_POINTS, oracle


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def import_seconds() -> float:
    """Time `import logitkit.cli` in a fresh interpreter."""
    out = subprocess.run([sys.executable, "-c", PROBE], env=child_env(), capture_output=True,
                         text=True, timeout=60, check=True)
    return float(out.stdout)


def run_worker(run_dir: str, tag: str, spec: dict) -> dict:
    spec = dict(spec, out_dir=os.path.join(run_dir, tag),
                result=os.path.join(run_dir, f"{tag}-result.json"))
    os.mkdir(spec["out_dir"])
    spec_path = os.path.join(run_dir, f"{tag}-spec.json")
    with open(spec_path, "w", encoding="utf-8") as handle:
        json.dump(spec, handle)
    subprocess.run([sys.executable, os.path.join(BENCH_DIR, "worker.py"), spec_path],
                   env=child_env(), stdout=sys.stderr, timeout=spec["seconds"] + 120, check=True)
    with open(spec["result"], encoding="utf-8") as handle:
        return json.load(handle)


def check_rounds(result: dict, oracle) -> list[str]:
    """Check each distinct output once; every round maps to one of them."""
    out = []
    for digest, paths in result["distinct"].items():
        rounds = result["digests"].count(digest)
        out += [f"{msg} ({rounds} rounds)" for msg in oracle.failures(paths)]
    return out


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rounds", type=int, default=0, help="stop after this many rounds (0: no cap)")
    args = parser.parse_args(argv)
    # on SIGTERM, unwind: subprocess.run kills and waits for the worker, and the
    # run directory is removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join(SRC, "logitkit", "__init__.py")):
        print(f"error: no logitkit sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2

    os.makedirs(OUT, exist_ok=True)
    run_dir = os.path.join(OUT, f"run-{args.workload}-{args.seed}-{args.trace}-{os.getpid()}")
    os.mkdir(run_dir)
    try:
        files, rows_per_round, oracle = make_inputs(args.workload, args.seed, run_dir)
        spec = {"workload": args.workload, "files": files, "src": SRC, "max_rounds": args.rounds,
                "press_rate": inputs.press_rate(args.seed), "trace": False, "seconds": args.seconds}
        if args.trace:
            spans = os.path.join(OUT, f"spans-{args.workload}-{args.seed}.npz")
            plain = run_worker(run_dir, "untraced", dict(spec, seconds=args.seconds / 2))
            traced = run_worker(run_dir, "traced", dict(spec, seconds=args.seconds / 2,
                                                        trace=True, spans=spans))
            results = [plain, traced]
            layers = tracing.layer_metrics(spans)
            traced_p50 = statistics.median(traced["round_s"])
            layers["trace.round_p50_s"] = traced_p50
            layers["trace.overhead_s"] = traced_p50 - statistics.median(plain["round_s"])
            metrics = {name: metric(value, tracing.UNITS[name]) for name, value in layers.items()}
        else:
            probes = [import_seconds() for _ in range(IMPORT_PROBES)]
            result = run_worker(run_dir, "run", spec)
            probes += [import_seconds() for _ in range(IMPORT_PROBES)]
            results = [result]
            builds = result["setup_dataset_s"]
            setup = statistics.median(probes) + (statistics.median(builds) if builds else 0.0)
            times = result["round_s"]
            metrics = {
                "round_p50_s": metric(statistics.median(times), "s"),
                "rows_per_s": metric(rows_per_round * len(times) / sum(times), "rows/s"),
                "setup_s": metric(setup, "s"),
                "peak_rss_mb": metric(result["peak_rss_kb"] / 1024.0, "MB"),
            }
            print(f"{len(times)} rounds of {min(times):.4f}..{max(times):.4f} s; import probes "
                  f"{statistics.median(probes):.4f} s; dataset builds {builds}", file=sys.stderr)
        problems = [msg for result in results for msg in check_rounds(result, oracle)]
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    for msg in problems:
        print(f"check failed: {msg}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
