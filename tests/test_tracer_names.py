"""The benchmark tracer reads per-layer metrics from sorlab functions named
by string in perfbench/tracer.py. A renamed or moved function would not be
wrapped and its metric would silently read 0, so each name must still be a
public function defined in its module (the tracer's own wrapping rule)."""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave perfbench/ untouched
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


def _traced_names():
    t = _load_tracer()
    names = {name for names in t._BUSY.values() for name in names}
    names.update(t._CALLS.values(), t._TRIALS, t._INFO)
    return t.MODULES, sorted(names)


MODULES, NAMES = _traced_names()


def test_tracer_names_some_functions():
    assert len(NAMES) >= 20


@pytest.mark.parametrize("name", NAMES)
def test_traced_name_is_public_function_of_its_module(name):
    layer, attr = name.split(".")
    assert layer in MODULES
    module = importlib.import_module(f"sorlab.{layer}")
    fn = getattr(module, attr, None)
    assert not attr.startswith("_")
    assert inspect.isfunction(fn), f"sorlab.{name} is not a function"
    assert fn.__module__ == module.__name__, f"sorlab.{name} is defined in {fn.__module__}"


# (function, position, parameter) of every argument the tracer reads by
# position; a reordered signature would make it read the wrong argument
POSITIONAL_READS = [
    ("solvers.run_solver", 4, "config"),
    ("solvers.run_kaczmarz", 4, "config"),
    ("analysis.expected_contraction", 2, "trials"),
    ("analysis.expected_truncation_norm", 1, "trials"),
    ("analysis.expected_lower_gram_montecarlo", 1, "trials"),
    ("mmio.read_matrix", 0, "path"),
    ("svgplot.write_semilog", 0, "path"),
    ("cli.write_history_csv", 0, "path"),
    ("analysis.expected_lower_gram_bruteforce", 0, "B"),
    ("analysis.expected_contraction", 0, "B"),
]


@pytest.mark.parametrize("name, pos, param", POSITIONAL_READS)
def test_tracer_positional_read_matches_signature(name, pos, param):
    assert name in NAMES
    layer, attr = name.split(".")
    fn = getattr(importlib.import_module(f"sorlab.{layer}"), attr)
    assert list(inspect.signature(fn).parameters)[pos] == param
