"""The names the benchmark looks up in eqc must exist.

perfbench/tracer.py wraps each LAYERS function by its module and name, and
perfbench/worker.py reads two names from eqc.bench. A rename breaks only a
traced benchmark run, so it is checked here.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

import eqc.bench

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
