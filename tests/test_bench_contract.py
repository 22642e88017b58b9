"""The package names the benchmark relies on.

``bench/layers.py`` wraps the functions in its ``WRAPPED`` table for
``--trace 1``, and ``bench/run.py`` builds ``SolverConfig(max_iter_outer=10)``
for ``minmax-batch``.  Removing or renaming any of them breaks the benchmark
without failing any other test.  The bench files are read, never changed.
"""

import importlib
import importlib.util
import os

import pytest

from ehrelay import SolverConfig

LAYERS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "bench", "layers.py")


def _wrapped():
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return [(module, func) for module, funcs in layers.WRAPPED.items()
            for func in funcs]


@pytest.mark.parametrize("module, func", _wrapped())
def test_traced_function_exists(module, func):
    assert callable(getattr(importlib.import_module("ehrelay." + module), func))


def test_minmax_batch_config_constructs():
    assert SolverConfig(max_iter_outer=10).max_iter_outer == 10
