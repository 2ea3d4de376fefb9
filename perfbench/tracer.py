"""Spans around the calls into each eqc module, recorded from the outside.

The tracer replaces each traced function with a wrapper in every eqc
module that holds a reference to it, which is where its callers look it
up, and puts the originals back on uninstall. A span is (id, parent id,
layer, start, end); spans are kept in memory and written out by the
caller. A layer's self time is its spans' durations minus the durations
of their child spans, so the self times of all layers add up to the
duration of the root span.
"""

from __future__ import annotations

import json
import sys
import time
import warnings
from collections import defaultdict

# layer -> (defining module, function)
LAYERS = {
    "selection": ("selection", "tune_and_train"),
    "scenarios.generate": ("scenarios", "generate"),
    "ingest.load": ("ingest", "load_sparse_dtm"),
    "features.fisher": ("features", "fisher_exact_select"),
    "features.low_freq": ("features", "remove_low_frequency"),
    "quantiles.table": ("quantiles", "estimate_quantile_table"),
    "quantiles.transform": ("quantiles", "quantile_difference_transform"),
    "binary.refit": ("binary", "fit_binary_eqc"),
    "binary.predict": ("binary", "predict_binary"),
    "metalearners.newton": ("metalearners", "_fit_logistic_newton"),
    "metalearners.fista": ("metalearners", "_fit_lasso_prox"),
    "metalearners.svm": ("metalearners", "fit_linear_svm"),
    "multiclass.design": ("multiclass", "build_design"),
    "multiclass.newton": ("multiclass", "fit_on_design"),
    "multiclass.refit": ("multiclass", "fit_multiclass_eqc"),
    "multiclass.predict": ("multiclass", "predict_multiclass"),
}
# solvers return (coefficients, SolverReport)
SOLVERS = ("metalearners.newton", "metalearners.fista", "metalearners.svm",
           "multiclass.newton")
ROOT = "bench"


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self._stack: list[list] = []  # [span id, time in children]
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.iters: dict[str, int] = defaultdict(int)
        self.nonconverged: dict[str, int] = defaultdict(int)
        self.runtime_warnings: dict[str, int] = defaultdict(int)
        self._patched: list[tuple] = []
        self._t0 = time.perf_counter()

    def call(self, layer: str, fn, *args, **kwargs):
        """Run fn inside a span named layer."""
        span_id = len(self.spans)
        parent = self._stack[-1][0] if self._stack else None
        self.spans.append(None)  # reserve the id; filled in on exit
        frame = [span_id, 0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            if layer in SOLVERS:
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    result = fn(*args, **kwargs)
                self.runtime_warnings[layer] += sum(
                    issubclass(w.category, RuntimeWarning) for w in caught)
                report = result[1]
                self.iters[layer] += report.iterations
                self.nonconverged[layer] += not report.converged
            else:
                result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            duration = end - start
            self.self_s[layer] += duration - frame[1]
            self.calls[layer] += 1
            if self._stack:
                self._stack[-1][1] += duration
            self.spans[span_id] = (span_id, parent, layer, start - self._t0, end - self._t0)
        return result

    def install(self):
        """Wrap every traced function wherever an eqc module refers to it."""
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "eqc" or name.startswith("eqc."))]
        for layer, (home, attr) in LAYERS.items():
            original = getattr(sys.modules[f"eqc.{home}"], attr)
            wrapper = self._wrapper(layer, original)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, name, wrapper)
                        self._patched.append((mod, name, original))

    def uninstall(self):
        for mod, name, original in reversed(self._patched):
            setattr(mod, name, original)
        self._patched.clear()

    def _wrapper(self, layer, fn):
        def traced(*args, **kwargs):
            return self.call(layer, fn, *args, **kwargs)

        return traced

    def totals(self) -> dict:
        """Aggregates by layer, as plain numbers."""
        return {
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
            "iters": dict(self.iters),
            "nonconverged": dict(self.nonconverged),
            "runtime_warnings": dict(self.runtime_warnings),
        }

    def write(self, path):
        """Spans as JSON lines [id, parent, layer, start_s, end_s]."""
        with open(path, "w") as fh:
            fh.writelines(json.dumps(s) + "\n" for s in self.spans)
