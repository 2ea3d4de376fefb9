"""The names the benchmark looks up in eqc must exist.

perfbench/tracer.py wraps each LAYERS function by its module and name, and
perfbench/worker.py reads two names from eqc.bench. A rename breaks only a
traced benchmark run, so it is checked here.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np
import pytest

import eqc.bench
from eqc import Dataset, QuantileParams, fit_multiclass_eqc
from eqc.metalearners import SolverReport, fit_path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


LAYERS = _tracer().LAYERS


@pytest.mark.parametrize("layer", sorted(LAYERS))
def test_traced_layer_is_a_function(layer):
    home, name = LAYERS[layer]
    assert inspect.isfunction(getattr(importlib.import_module(f"eqc.{home}"), name))


def test_worker_names_in_bench():
    assert inspect.isfunction(eqc.bench.fisher_exact_select)
    assert inspect.isfunction(eqc.bench.run_experiment)


def test_traced_layers_are_distinct_functions():
    # the tracer wraps each function once per layer; an alias shared by two
    # layers would count every call in both
    fns = [getattr(importlib.import_module(f"eqc.{home}"), name)
           for home, name in LAYERS.values()]
    assert len({id(fn) for fn in fns}) == len(fns)


def test_traced_solvers_return_a_report():
    # the tracer reads result[1].iterations from every SOLVERS layer; each
    # is reached here through its callers, with the tracer installed
    tracer = _tracer()
    returned = {layer: [] for layer in tracer.SOLVERS}

    class Recorder(tracer.Tracer):
        def call(self, layer, fn, *args, **kwargs):
            result = super().call(layer, fn, *args, **kwargs)
            if layer in returned:
                returned[layer].append(result)
            return result

    rng = np.random.default_rng(0)
    y = np.repeat([1, 2, 3], 8)
    X = rng.standard_normal((24, 3)) + y[:, None]
    Q = X[None, None, :16]
    recorder = Recorder()
    recorder.install()
    try:
        for learner in ("ridge", "lasso", "hinge"):
            fit_path(Q, y[:16] - 1, learner, [0.1])
        fit_multiclass_eqc(Dataset(X, y), QuantileParams.common(0.5, 3), 0.1)
    finally:
        recorder.uninstall()
    for layer, results in returned.items():
        assert results, layer
        assert all(isinstance(result[1], SolverReport) for result in results), layer
