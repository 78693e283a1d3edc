"""Span tracing for the traced benchmark run, installed from outside logitkit.

``Tracer.install`` wraps the public functions of each layer and patches
every name under which a logitkit module looks the function up (for
example ``logitkit.fit.solve_psd``, ``logitkit.classify.fit_irls`` and
``logitkit.inference.chi2_sf``, not only the defining module). Methods are
patched on their class. An untraced run never calls ``install``.

Spans stay in memory as flat arrays (name, parent, start, end) plus a few
numeric attributes, are written out once with ``save`` when the run ends,
and ``layer_metrics`` derives per-round counts, totals and self times from
the saved file.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from array import array

import numpy as np

# (span name, "module" or "module:Class", attribute, attributes taken from the result)
LAYERS = (
    ("cli.ingest", "logitkit.cli", "ingest", lambda r: {"rows": r.n}),
    ("cli.cmd_fit", "logitkit.cli", "cmd_fit", None),
    ("cli.cmd_predict", "logitkit.cli", "cmd_predict", None),
    ("cli.cmd_cv", "logitkit.cli", "cmd_cv", None),
    # render output is json.dumps with ensure_ascii, so characters are bytes
    ("cli.render", "logitkit.cli:RunOutput", "render", lambda r: {"bytes": len(r)}),
    ("model.dataset", "logitkit.model:Dataset", "__init__", None),
    ("fit.fit_irls", "logitkit.fit", "fit_irls", lambda r: {"iters": r.iterations}),
    ("numerics.solve_psd", "logitkit.numerics", "solve_psd", None),
    ("numerics.pinv_psd", "logitkit.numerics", "pinv_psd", None),
    ("numerics.chi2_sf", "logitkit.numerics", "chi2_sf", None),
    ("inference.lrt_nested", "logitkit.inference", "lrt_nested", None),
    ("inference.power_curve", "logitkit.inference", "power_curve", None),
    ("inference.press_q", "logitkit.inference", "press_q", None),
    ("classify.loocv", "logitkit.classify", "loocv",
     lambda r: {"folds": r.n, "non_converged": r.non_converged_folds}),
)
ROUND = "round"
# every per-layer metric the traced run reports, with its unit
UNITS = {
    "cli.ingest_s": "s", "cli.ingest_rows_per_s": "rows/s", "cli.cmd_predict_self_s": "s",
    "cli.render_s": "s", "cli.render_bytes": "bytes",
    "model.dataset_builds": "count", "model.dataset_s": "s",
    "fit.calls": "count", "fit.newton_iters": "count", "fit.fit_irls_s": "s", "fit.s_per_iter": "s",
    "numerics.solve_psd_calls": "count", "numerics.solve_psd_s": "s",
    "numerics.pinv_psd_calls": "count", "numerics.pinv_psd_s": "s",
    "numerics.chi2_sf_calls": "count", "numerics.chi2_sf_s": "s",
    "inference.lrt_nested_s": "s", "inference.power_curve_s": "s",
    "classify.loocv_s": "s", "classify.loocv_self_s": "s",
    "classify.folds": "count", "classify.non_converged_folds": "count",
    "trace.round_p50_s": "s", "trace.overhead_s": "s",
}
ATTR_KEYS = ("rows", "bytes", "iters", "folds", "non_converged")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.attr_span = array("i")
        self.attr_key = array("i")
        self.attr_val = array("d")
        self._stack = [-1]

    def _intern(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def wrap(self, name: str, fn, attributes=None):
        nid = self._intern(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(nid)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = time.perf_counter()
                self.start[idx] = t0
                self._stack.pop()
            if attributes is not None:
                for key, value in attributes(result).items():
                    self.attr_span.append(idx)
                    self.attr_key.append(ATTR_KEYS.index(key))
                    self.attr_val.append(value)
            return result

        return traced

    def install(self) -> None:
        import logitkit.cli  # noqa: F401  (loads every logitkit module)

        modules = [m for n, m in sys.modules.items() if n == "logitkit" or n.startswith("logitkit.")]
        for name, owner, attr, attributes in LAYERS:
            module_name, _, class_name = owner.partition(":")
            if class_name:
                cls = getattr(sys.modules[module_name], class_name)
                setattr(cls, attr, self.wrap(name, getattr(cls, attr), attributes))
                continue
            original = getattr(sys.modules[module_name], attr)
            traced = self.wrap(name, original, attributes)
            for module in modules:
                if getattr(module, attr, None) is original:
                    setattr(module, attr, traced)

    def save(self, path: str) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            attr_span=np.frombuffer(self.attr_span, dtype=np.int32),
            attr_key=np.frombuffer(self.attr_key, dtype=np.int32),
            attr_val=np.frombuffer(self.attr_val, dtype=np.float64),
        )


def layer_metrics(path: str) -> dict[str, float]:
    """Per-layer figures from a saved trace: each is computed per round, from
    the spans under that round, and reported as the median over rounds."""
    f = np.load(path)
    names = list(f["names"])
    name_id, parent = f["name_id"], f["parent"]
    dur = f["end"] - f["start"]
    size = dur.size
    has_parent = parent >= 0
    child_time = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=size)
    self_time = dur - child_time

    # round of each span: walk parents up to the root, then keep roots named ROUND
    root = np.arange(size)
    while True:
        up = parent[root]
        if not np.any(up >= 0):
            break
        root = np.where(up >= 0, up, root)
    round_roots = np.flatnonzero((parent < 0) & (name_id == names.index(ROUND)))
    n_rounds = round_roots.size
    round_of = np.full(size, -1)
    round_of[round_roots] = np.arange(n_rounds)
    round_of = round_of[root]

    def per_round(name, values=None):
        if name not in names:
            return np.zeros(n_rounds)
        mask = (name_id == names.index(name)) & (round_of >= 0)
        weights = None if values is None else values[mask]
        return np.bincount(round_of[mask], weights=weights, minlength=n_rounds)

    def attr(name, key):
        values = np.zeros(size)
        sel = f["attr_key"] == ATTR_KEYS.index(key)
        values[f["attr_span"][sel]] = f["attr_val"][sel]
        return per_round(name, values)

    def ratio(num, den):
        return np.divide(num, den, out=np.zeros(n_rounds), where=den > 0)

    ingest_s = per_round("cli.ingest", dur)
    fit_s = per_round("fit.fit_irls", dur)
    iters = attr("fit.fit_irls", "iters")
    rows = {
        "cli.ingest_s": ingest_s,
        "cli.ingest_rows_per_s": ratio(attr("cli.ingest", "rows"), ingest_s),
        "cli.cmd_predict_self_s": per_round("cli.cmd_predict", self_time),
        "cli.render_s": per_round("cli.render", dur),
        "cli.render_bytes": attr("cli.render", "bytes"),
        "model.dataset_builds": per_round("model.dataset"),
        "model.dataset_s": per_round("model.dataset", dur),
        "fit.calls": per_round("fit.fit_irls"),
        "fit.newton_iters": iters,
        "fit.fit_irls_s": fit_s,
        "fit.s_per_iter": ratio(fit_s, iters),
    }
    for fn in ("solve_psd", "pinv_psd", "chi2_sf"):
        rows[f"numerics.{fn}_calls"] = per_round(f"numerics.{fn}")
        rows[f"numerics.{fn}_s"] = per_round(f"numerics.{fn}", dur)
    rows["inference.lrt_nested_s"] = per_round("inference.lrt_nested", dur)
    rows["inference.power_curve_s"] = per_round("inference.power_curve", dur)
    rows["classify.loocv_s"] = per_round("classify.loocv", dur)
    rows["classify.loocv_self_s"] = per_round("classify.loocv", self_time)
    rows["classify.folds"] = attr("classify.loocv", "folds")
    rows["classify.non_converged_folds"] = attr("classify.loocv", "non_converged")
    return {key: float(statistics.median(vals.tolist())) for key, vals in rows.items()}
