"""Layer tracing for the sorlab benchmark, installed from outside ``src/``.

Entering a ``Tracer`` wraps every public function of each sorlab module and
puts the wrapper at every name that binds the function: the defining
module, every module that imported it (``from .linalg import ...``), and
the package namespace. A wrapper records one span (name, start, end,
parent span) per call, plus a few counts read from arguments and return
values. ``layer_metrics`` turns the spans of one pass into the per-layer
metrics of BENCHMARK.json.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import os
import time
from collections import defaultdict

import numpy as np

MODULES = ("linalg", "orderings", "solvers", "problems", "analysis", "mmio", "svgplot", "cli")

# name -> (unit, better); the order is the report order
LAYER_METRICS = {
    "solvers.trials": ("count", "higher"),
    "solvers.sweeps": ("count", "higher"),
    "solvers.updates": ("count", "higher"),
    "solvers.busy_s": ("s", "lower"),
    "solvers.self_s": ("s", "lower"),
    "solvers.update_ns": ("ns", "lower"),
    "solvers.trial_ms_p50": ("ms", "lower"),
    "solvers.trial_ms_tail": ("ms", "lower"),
    "solvers.early_stop_frac": ("ratio", "higher"),
    "orderings.sweep_order_calls": ("count", "lower"),
    "orderings.sweep_order_s": ("s", "lower"),
    "orderings.derive_seed_s": ("s", "lower"),
    "linalg.energy_calls": ("count", "lower"),
    "linalg.energy_s": ("s", "lower"),
    "linalg.spectral_norm_calls": ("count", "lower"),
    "linalg.spectral_norm_s": ("s", "lower"),
    "linalg.eigen_hermitian_calls": ("count", "lower"),
    "linalg.eigen_hermitian_s": ("s", "lower"),
    "analysis.exhaustive_s": ("s", "lower"),
    "analysis.oracle_gram_s": ("s", "lower"),
    "analysis.contraction_s": ("s", "lower"),
    "analysis.lower_gram_bounds_s": ("s", "lower"),
    "analysis.perms_evaluated": ("count", "higher"),
    "analysis.heuristic_s": ("s", "lower"),
    "analysis.mc_truncation_s": ("s", "lower"),
    "analysis.rate_bounds_s": ("s", "lower"),
    "problems.consistency_check_s": ("s", "lower"),
    "problems.generate_s": ("s", "lower"),
    "mmio.read_s": ("s", "lower"),
    "mmio.read_bytes": ("bytes", "lower"),
    "mmio.write_s": ("s", "lower"),
    "svgplot.render_s": ("s", "lower"),
    "svgplot.svg_bytes": ("bytes", "lower"),
    "cli.csv_write_s": ("s", "lower"),
    "cli.csv_bytes": ("bytes", "lower"),
    "trace.overhead_s": ("s", "lower"),
}

# busy time of one function, or of the outermost calls among several
_BUSY = {
    "orderings.sweep_order_s": ("orderings.sweep_order",),
    "orderings.derive_seed_s": ("orderings.derive_seed",),
    "linalg.energy_s": ("linalg.energy_seminorm_sq",),
    "linalg.spectral_norm_s": ("linalg.spectral_norm",),
    "linalg.eigen_hermitian_s": ("linalg.eigen_hermitian",),
    "analysis.exhaustive_s": ("analysis.min_truncation_exhaustive",),
    "analysis.oracle_gram_s": ("analysis.expected_lower_gram_bruteforce",),
    "analysis.contraction_s": ("analysis.expected_contraction",),
    "analysis.lower_gram_bounds_s": ("analysis.check_lower_gram_bounds",),
    "analysis.heuristic_s": ("analysis.min_truncation_heuristic",),
    "analysis.mc_truncation_s": ("analysis.expected_truncation_norm",),
    "analysis.rate_bounds_s": ("analysis.evaluate_rate_bounds",),
    "problems.consistency_check_s": ("problems.consistency_check",),
    "problems.generate_s": ("problems.fan_problem", "problems.random_factor_problem",
                            "problems.low_rank_problem"),
    "mmio.read_s": ("mmio.read_matrix", "mmio.read_vector"),
    "mmio.write_s": ("mmio.write_matrix", "mmio.write_vector"),
    "svgplot.render_s": ("svgplot.write_semilog", "svgplot.render_semilog"),
    "cli.csv_write_s": ("cli.write_history_csv",),
}
_CALLS = {
    "orderings.sweep_order_calls": "orderings.sweep_order",
    "linalg.energy_calls": "linalg.energy_seminorm_sq",
    "linalg.spectral_norm_calls": "linalg.spectral_norm",
    "linalg.eigen_hermitian_calls": "linalg.eigen_hermitian",
}
_TRIALS = ("solvers.run_solver", "solvers.run_kaczmarz")
TAIL_PERCENTILES = (99.9, 99.0, 97.5, 95.0, 90.0, 75.0, 50.0)


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _perm_count(args, kwargs, result):
    """n! permutations of the matrix in the first argument."""
    return math.factorial(np.shape(args[0])[0])


def _solver_info(args, kwargs, result):
    config = _arg(args, kwargs, 4, "config")
    return (result.sweeps, config.max_sweeps, np.shape(args[0])[0])


def _file_size(args, kwargs, result):
    return os.path.getsize(_arg(args, kwargs, 0, "path"))


# name -> function(args, kwargs, result) giving the span's info
_INFO = {
    "solvers.run_solver": _solver_info,
    "solvers.run_kaczmarz": _solver_info,
    "mmio.read_matrix": _file_size,
    "svgplot.write_semilog": _file_size,
    "cli.write_history_csv": _file_size,
    "analysis.min_truncation_exhaustive": lambda a, k, r: r.samples,
    "analysis.expected_lower_gram_bruteforce": _perm_count,
    "analysis.expected_contraction": lambda a, k, r: (
        _perm_count(a, k, r) if np.shape(a[0])[0] <= 8 else _arg(a, k, 2, "trials")),
    "analysis.expected_truncation_norm": lambda a, k, r: _arg(a, k, 1, "trials"),
    "analysis.expected_lower_gram_montecarlo": lambda a, k, r: _arg(a, k, 1, "trials"),
}
_PERM_CALLS = ("analysis.min_truncation_exhaustive", "analysis.expected_lower_gram_bruteforce",
               "analysis.expected_contraction", "analysis.expected_truncation_norm",
               "analysis.expected_lower_gram_montecarlo")


class Tracer:
    """Span recorder; ``with tracer:`` installs the wrappers and removes them."""

    def __init__(self):
        self.spans: list = []     # [name, start, end, parent index, info]
        self._stack: list[int] = []
        self._patches: list = []

    def _wrap(self, name, fn):
        spans, stack, info = self.spans, self._stack, _INFO.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(idx)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if info is not None:
                span[4] = info(args, kwargs, result)
            return result

        return traced

    def __enter__(self):
        import sorlab
        modules = [importlib.import_module(f"sorlab.{m}") for m in MODULES]
        wrappers = {}
        for mod in modules:
            layer = mod.__name__.rsplit(".", 1)[1]
            for attr, fn in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(fn)
                        and fn.__module__ == mod.__name__):
                    wrappers[id(fn)] = self._wrap(f"{layer}.{attr}", fn)
        for ns in [sorlab, *modules]:
            for attr, value in list(vars(ns).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patches.append((ns, attr, value))
                    setattr(ns, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for ns, attr, value in reversed(self._patches):
            setattr(ns, attr, value)
        self._patches.clear()
        return False

    def take(self) -> list:
        """Return and forget the spans recorded so far."""
        spans = self.spans[:]
        self.spans.clear()
        return spans


def scale_times(metrics: dict, factor: float) -> dict:
    """Multiply every time metric (units s, ms, ns) by a host-speed factor."""
    return {k: v * factor if LAYER_METRICS[k][0] in ("s", "ms", "ns") else v
            for k, v in metrics.items()}


def tail_percentile(count: int) -> float:
    """Highest percentile with at least ten samples beyond it (0 if none)."""
    for p in TAIL_PERCENTILES:
        if count * (1.0 - p / 100.0) >= 10:
            return p
    return 0.0


def layer_metrics(spans: list) -> dict[str, float]:
    """Per-layer metrics of one pass (all but trace.overhead_s)."""
    by_name = defaultdict(list)
    child_time = [0.0] * len(spans)
    for idx, (name, t0, t1, parent, _) in enumerate(spans):
        by_name[name].append(idx)
        if parent >= 0:
            child_time[parent] += t1 - t0

    def outermost_busy(names):
        total = 0.0
        for name in names:
            for idx in by_name.get(name, ()):
                parent = spans[idx][3]
                while parent >= 0 and spans[parent][0] not in names:
                    parent = spans[parent][3]
                if parent < 0:
                    total += spans[idx][2] - spans[idx][1]
        return total

    def info_sum(*names):
        return float(sum(spans[i][4] or 0 for name in names for i in by_name.get(name, ())))

    m = {key: outermost_busy(names) for key, names in _BUSY.items()}
    m.update({key: float(len(by_name.get(name, ()))) for key, name in _CALLS.items()})

    solver_spans = [i for i, s in enumerate(spans) if s[0].startswith("solvers.")]
    solver_names = {spans[i][0] for i in solver_spans}
    trials = [spans[i] for name in _TRIALS for i in by_name.get(name, ())
              if spans[i][4] is not None]
    sweeps = sum(s[4][0] for s in trials)
    updates = sum(s[4][0] * s[4][2] for s in trials)
    self_s = sum(spans[i][2] - spans[i][1] - child_time[i] for i in solver_spans)
    trial_ms = np.array([(s[2] - s[1]) * 1e3 for s in trials])
    tail = tail_percentile(len(trial_ms))
    m.update({
        "solvers.trials": float(len(trials)),
        "solvers.sweeps": float(sweeps),
        "solvers.updates": float(updates),
        "solvers.busy_s": outermost_busy(solver_names),
        "solvers.self_s": self_s,
        "solvers.update_ns": self_s / updates * 1e9 if updates else 0.0,
        "solvers.trial_ms_p50": float(np.median(trial_ms)) if len(trials) else 0.0,
        "solvers.trial_ms_tail": float(np.percentile(trial_ms, tail)) if tail else 0.0,
        "solvers.early_stop_frac": (sum(s[4][0] < s[4][1] for s in trials) / len(trials)
                                    if trials else 0.0),
        "analysis.perms_evaluated": info_sum(*_PERM_CALLS),
        "mmio.read_bytes": info_sum("mmio.read_matrix"),
        "svgplot.svg_bytes": info_sum("svgplot.write_semilog"),
        "cli.csv_bytes": info_sum("cli.write_history_csv"),
    })
    return m
