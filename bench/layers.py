"""Per-layer timing by wrapping the public functions of each ehrelay module.

Each wrapper counts calls and measures inclusive time; self time is the
inclusive time minus the inclusive time of wrapped callees.  A wrapper
replaces the function in every ehrelay module that holds it by name, so
calls from ``solver`` to the capacity functions it imported are seen too.
The wrappers also read the public results the solvers return: iteration
counters from every ``Solution`` and evaluation counts from every
``GridResult``.
"""

import functools
import sys
import time

WRAPPED = {
    "capacity": ("weighted_rate_grad", "weighted_rate", "active_rate",
                 "capacity_min"),
    "profile": ("load_problem", "require_valid"),
    "solver": ("solve_minmax", "solve_inner", "project_causality",
               "recover_duals", "kkt_residual", "evaluate_schedule",
               "invariant_report"),
    "closed_form": ("staircase", "solve_proportional", "solve_relay_only",
                    "solve_source_only"),
    "oracle": ("grid_search",),
    "cli": ("main",),
}

COUNTS = ("solver.outer_iterations", "solver.inner_solves",
          "solver.outer_cap_hits", "oracle.evaluations")


def metric_names():
    """(name, unit) of every per-layer metric, in report order."""
    out = []
    for module, funcs in WRAPPED.items():
        for func in funcs:
            key = "%s.%s" % (module, func)
            out += [(key + ".calls", "count"), (key + ".s", "s"),
                    (key + ".self_s", "s")]
    return out + [(name, "count") for name in COUNTS]


class Tracer:
    def __init__(self, package):
        self.package = package
        self.stats = {}
        self.counts = dict.fromkeys(COUNTS, 0)
        self._stack = []

    def _wrap(self, key, fn, observe):
        stats = self.stats.setdefault(key, [0, 0.0, 0.0])
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                inner = stack.pop()
                stats[0] += 1
                stats[1] += dt
                stats[2] += dt - inner
                if stack:
                    stack[-1] += dt
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return wrapper

    def _solution(self, capped):
        def observe(args, kwargs, sol):
            it = sol.iterations
            self.counts["solver.outer_iterations"] += it.outer
            self.counts["solver.inner_solves"] += it.inner_solves
            if capped:
                cfg = args[2] if len(args) > 2 else kwargs.get("cfg")
                limit = (cfg or self.package.SolverConfig()).max_iter_outer
                self.counts["solver.outer_cap_hits"] += it.outer >= limit
        return observe

    def _grid(self, args, kwargs, res):
        self.counts["oracle.evaluations"] += res.evaluations

    def install(self):
        name = self.package.__name__
        modules = [m for n, m in list(sys.modules.items())
                   if n == name or n.startswith(name + ".")]
        closed_form = self._solution(capped=False)
        observers = {"solve_minmax": self._solution(capped=True),
                     "solve_proportional": closed_form,
                     "solve_relay_only": closed_form,
                     "solve_source_only": closed_form,
                     "grid_search": self._grid}
        for module, funcs in WRAPPED.items():
            home = sys.modules["%s.%s" % (name, module)]
            for func in funcs:
                orig = getattr(home, func)
                wrapper = self._wrap("%s.%s" % (module, func), orig,
                                     observers.get(func))
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, attr, wrapper)

    def metrics(self, rounds):
        """Every per-layer metric, averaged over the rounds run."""
        values = {}
        for key, (calls, incl, own) in self.stats.items():
            values[key + ".calls"] = calls
            values[key + ".s"] = incl
            values[key + ".self_s"] = own
        values.update(self.counts)
        return {name: {"value": values[name] / rounds, "unit": unit}
                for name, unit in metric_names()}
