"""Smoke tests: each experiment script runs end to end at tiny sizes."""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_fan_rate_experiment(capsys):
    load_script("fan_rate_experiment").main(["--m", "2", "4", "--sweeps", "12"])
    rows = [line.split() for line in capsys.readouterr().out.splitlines()[1:]]
    assert [row[0] for row in rows] == ["2", "4"]
    # the measured cyclic rate on the fan is cos^4m(pi/2m) per sweep
    for row in rows:
        assert float(row[1]) == pytest.approx(float(row[4]), rel=1e-6)


def test_truncation_study(capsys):
    load_script("truncation_study").main(
        ["--sizes", "4", "10", "--restarts", "2", "--trials", "100"])
    rows = [line.split() for line in capsys.readouterr().out.splitlines()[1:]]
    assert [(row[0], row[3]) for row in rows] == [("4", "exhaustive"), ("10", "heuristic")]
