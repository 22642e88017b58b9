"""The package names the benchmark relies on.

``bench/layers.py`` wraps the functions in its ``WRAPPED`` table for
``--trace 1``, and ``bench/run.py`` builds ``SolverConfig(max_iter_outer=10)``
for ``minmax-batch``.  Removing or renaming any of them breaks the benchmark
without failing any other test, and so does a change that stops calling one
of them: its trace row reads 0.  The bench files are read, never changed.
"""

import importlib
import importlib.util
import os
import sys

import numpy as np
import pytest

import ehrelay
from ehrelay import GridConfig, SolverConfig
from support import random_instance, worked_proportional

LAYERS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "bench", "layers.py")


def _layers():
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return layers


def _wrapped():
    return [(module, func) for module, funcs in _layers().WRAPPED.items()
            for func in funcs]


@pytest.mark.parametrize("module, func", _wrapped())
def test_traced_function_exists(module, func):
    assert callable(getattr(importlib.import_module("ehrelay." + module), func))


def test_minmax_batch_config_constructs():
    assert SolverConfig(max_iter_outer=10).max_iter_outer == 10


def _traced_calls(operation):
    """The wrapped functions that operation calls, with the bench's Tracer
    installed; every module attribute it replaced is restored afterwards."""
    modules = [m for n, m in list(sys.modules.items())
               if n == "ehrelay" or n.startswith("ehrelay.")]
    saved = [(m, dict(vars(m))) for m in modules]
    tracer = _layers().Tracer(ehrelay)
    tracer.install()
    try:
        operation()
    finally:
        for module, attrs in saved:
            for name, value in attrs.items():
                if getattr(module, name) is not value:
                    setattr(module, name, value)
    return {key for key, (calls, _, _) in tracer.stats.items() if calls}


# Rows known to read 0 on the solver paths: every certificate fits its
# duals and residuals in solver._certificate, not through the public
# recover_duals and kkt_residual, and solver._assemble rates a Solution
# without evaluate_schedule and weighted_rate (ROADMAP item 1 retargets
# these rows; flip them to live then).
EXPECTED_ZERO = {"solver.recover_duals", "solver.kkt_residual",
                 "solver.evaluate_schedule", "capacity.weighted_rate"}

LIVE = {
    "solve_minmax": {"solver.solve_minmax", "profile.require_valid",
                     "closed_form.staircase", "solver.project_causality",
                     "capacity.weighted_rate_grad"},
    "closed_form": {"closed_form.solve_proportional", "profile.require_valid",
                    "closed_form.staircase", "capacity.weighted_rate_grad"},
    "grid_search": {"oracle.grid_search", "profile.require_valid",
                    "capacity.active_rate", "capacity.weighted_rate_grad",
                    "solver.evaluate_schedule"},
}


# one profile whose staircase start does not certify (the dual core runs)
# and one whose start does
GENERAL = random_instance(np.random.default_rng(5), 2, a_low_frac=0.0)
WORKED = worked_proportional()


def _operations():
    return {
        "solve_minmax": lambda: [ehrelay.solver.solve_minmax(*GENERAL),
                                 ehrelay.solver.solve_minmax(*WORKED)],
        "closed_form": lambda: ehrelay.closed_form.solve_proportional(
            *WORKED, 0.5),
        "grid_search": lambda: ehrelay.oracle.grid_search(
            *GENERAL, GridConfig(6, 1, 1e9)),
    }


def test_minmax_operation_covers_both_paths():
    assert ehrelay.solve_minmax(*GENERAL).iterations.inner_solves == 1
    assert ehrelay.solve_minmax(*WORKED).iterations.inner_solves == 0


@pytest.mark.parametrize("name", sorted(LIVE))
def test_trace_rows_are_live(name):
    called = _traced_calls(_operations()[name])
    assert called == LIVE[name]
    assert {"%s.%s" % mf for mf in _wrapped()} >= called


def test_expected_zero_rows_stay_zero_on_solver_paths():
    ops = _operations()
    for name in ("solve_minmax", "closed_form"):
        assert not _traced_calls(ops[name]) & EXPECTED_ZERO
    assert EXPECTED_ZERO <= {"%s.%s" % mf for mf in _wrapped()}
    # the tracer left the package as it found it
    assert ehrelay.solver.solve_minmax is ehrelay.solve_minmax
    assert not hasattr(ehrelay.capacity.weighted_rate_grad, "__wrapped__")
