"""Per-layer spans and work counters, recorded from outside the nlode package.

`Tracer.install` wraps public functions and methods at the boundary of
each nlode module.  Modules that bind a function with `from ... import`
hold their own reference to it, so the wrapper replaces the original in
every nlode namespace that holds it; a method is replaced under every
class attribute that holds it (`Solution.__call__` is `Solution.eval`).
A boundary that no longer exists is listed in `Tracer.absent` and its
metrics read 0.

A layer's self time is the time inside its spans minus the time inside
the spans they contain, whatever layer those belong to.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

import numpy as np


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _points(index, name):
    def count(values, layer, args, kwargs, result):
        values[f"{layer}.points"] += int(np.size(_arg(args, kwargs, index, name)))
    return count


def _n_nodes(sampler) -> int:
    return int(sampler.diagnostics()["n_nodes"])


def _nodes(values, layer, args, kwargs, result):
    values[f"{layer}.nodes"] += _n_nodes(args[0])


def _point_nodes(index, name):
    # t-points times nodes: the size of the exp(i t y) matrix, computed
    def count(values, layer, args, kwargs, result):
        ts = _arg(args, kwargs, index, name)
        values[f"{layer}.point_nodes"] += int(np.size(ts)) * _n_nodes(args[0])
    return count


def _orders(values, layer, args, kwargs, result):
    values[f"{layer}.orders_used"] += int(result["N_used"])


# (module, class or None, attribute, layer, extra counter)
BOUNDARIES = (
    ("nlode.cli", None, "run", "cli", None),
    ("nlode.cli", None, "diagnose", "cli", None),
    ("nlode.symbols", None, "eval_symbol", "symbols.eval_symbol", _points(1, "s")),
    ("nlode.symbols", None, "parse_symbol", "symbols.parse_symbol", None),
    ("nlode.symbols", None, "taylor_coefficients", "symbols.taylor_coefficients", None),
    ("nlode.special_functions", None, "zeta", "special_functions.zeta", _points(0, "z")),
    ("nlode.transforms", None, "get_line_sampler", "transforms.sampler", None),
    ("nlode.transforms", "LineSampler", "__init__", "transforms.sampler_build", _nodes),
    ("nlode.transforms", "LineSampler", "values", "transforms.sampler_eval",
     _point_nodes(1, "ts")),
    ("nlode.transforms", "LineSampler", "derivative_values", "transforms.sampler_eval",
     _point_nodes(2, "ts")),
    ("nlode.transforms", "LineSampler", "moment", "transforms.moment", None),
    ("nlode.transforms", None, "hardy_membership", "transforms.hardy_membership", None),
    ("nlode.transforms", None, "smoothness_order", "transforms.smoothness_order", None),
    ("nlode.solver", None, "solve_generalized", "solver.solve", None),
    ("nlode.solver", None, "solve_with_poles", "solver.solve", None),
    ("nlode.solver", None, "solve_classical_ivp", "solver.solve", None),
    ("nlode.solver", None, "decay_fit", "solver.decay_fit", None),
    ("nlode.solver", None, "laurent_coefficients", "solver.laurent_coefficients", None),
    ("nlode.solver", "Solution", "eval", "solver.solution_eval", None),
    ("nlode.solver", "Solution", "eval_parts", "solver.solution_eval", None),
    ("nlode.solver", "Solution", "bromwich_part", "solver.solution_eval", None),
    ("nlode.solver", "Solution", "residue_part", "solver.solution_eval", None),
    ("nlode.solver", "Solution", "nth_derivative", "solver.solution_eval", None),
    ("nlode.oracles", None, "residual_check", "oracles.residual_check", _orders),
)

# per-layer metrics of a traced pass, with units; counts repeat exactly
PER_LAYER = (
    ("cli.self_s", "s"),
    ("symbols.eval_symbol.calls", "count"),
    ("symbols.eval_symbol.points", "count"),
    ("symbols.eval_symbol.self_s", "s"),
    ("symbols.parse_symbol.self_s", "s"),
    ("symbols.taylor_coefficients.self_s", "s"),
    ("special_functions.zeta.calls", "count"),
    ("special_functions.zeta.points", "count"),
    ("special_functions.zeta.self_s", "s"),
    ("transforms.sampler.lookups", "count"),
    ("transforms.sampler.builds", "count"),
    ("transforms.sampler.hit_ratio", "ratio"),
    ("transforms.sampler_build.calls", "count"),
    ("transforms.sampler_build.nodes", "count"),
    ("transforms.sampler_build.self_s", "s"),
    ("transforms.sampler_eval.calls", "count"),
    ("transforms.sampler_eval.point_nodes", "count"),
    ("transforms.sampler_eval.self_s", "s"),
    ("transforms.moment.self_s", "s"),
    ("transforms.hardy_membership.self_s", "s"),
    ("transforms.smoothness_order.self_s", "s"),
    ("solver.solve.calls", "count"),
    ("solver.solve.self_s", "s"),
    ("solver.decay_fit.self_s", "s"),
    ("solver.laurent_coefficients.self_s", "s"),
    ("solver.solution_eval.self_s", "s"),
    ("oracles.residual_check.calls", "count"),
    ("oracles.residual_check.self_s", "s"),
    ("oracles.residual_check.orders_used", "count"),
)


class Tracer:
    """Self time per layer and work counts, kept in memory."""

    def __init__(self) -> None:
        self.values: defaultdict = defaultdict(int)
        self.absent: list[str] = []
        self._child_time: list[float] = []   # one entry per open span

    def _wrap(self, fn, layer: str, counter):
        values = self.values
        child_time = self._child_time

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            values[f"{layer}.calls"] += 1
            child_time.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                values[f"{layer}.self_s"] += elapsed - child_time.pop()
                if child_time:
                    child_time[-1] += elapsed
            if counter is not None:
                counter(values, layer, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every boundary; call after all nlode modules are imported."""
        modules = [m for name, m in sys.modules.items()
                   if name == "nlode" or name.startswith("nlode.")]
        for module_name, class_name, attr, layer, counter in BOUNDARIES:
            owner = sys.modules.get(module_name)
            if owner is not None and class_name is not None:
                owner = getattr(owner, class_name, None)
            original = vars(owner).get(attr) if owner is not None else None
            if original is None:
                self.absent.append(".".join(filter(None, (module_name, class_name, attr))))
                continue
            namespaces = [owner] if class_name is not None else modules
            wrapper = self._wrap(original, layer, counter)
            for namespace in namespaces:
                for name, value in list(vars(namespace).items()):
                    if value is original:
                        setattr(namespace, name, wrapper)

    def metrics(self) -> dict:
        """The PER_LAYER values of everything recorded so far."""
        v = self.values
        lookups = v["transforms.sampler.calls"]
        builds = v["transforms.sampler_build.calls"]
        derived = {
            "transforms.sampler.lookups": lookups,
            "transforms.sampler.builds": builds,
            "transforms.sampler.hit_ratio": 1.0 - builds / lookups if lookups else 0.0,
        }
        return {name: derived[name] if name in derived else v[name] for name, _ in PER_LAYER}
