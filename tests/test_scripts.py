"""Smoke tests: each experiment script runs end to end at tiny sizes."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from sorlab import mean_error_curve
from sorlab.cli import main as cli_main, read_history_csv

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_ordering_comparison(tmp_path, capsys):
    svg = tmp_path / "cmp.svg"
    load_script("ordering_comparison").main(
        ["--n", "6", "--trials", "5", "--sweeps", "12", "--out-svg", str(svg)])
    out = capsys.readouterr().out
    for kind in ("cyclic", "shuffled", "preshuffled", "single_step_random"):
        assert f"{kind}: mean final" in out
    assert svg.read_text().startswith("<svg")


def test_ordering_comparison_means_equal_compare(tmp_path, capsys):
    # the script seeds its instance as `generate` and its trials as `compare`
    # do, so its means equal those of the CLI on the generated files, bit for bit
    seed, d, csv = 5, tmp_path / "rnd", tmp_path / "cmp.csv"
    script = load_script("ordering_comparison")
    means = {}
    run_strategy = script.run_strategy

    def recording(inst, kind, *args):
        means[kind] = run_strategy(inst, kind, *args)
        return means[kind]

    script.run_strategy = recording
    script.main(["--n", "6", "--cols", "6", "--trials", "4", "--sweeps", "12",
                 "--seed", str(seed)])
    assert cli_main(["generate", "--kind", "random", "--n", "6", "--m", "6",
                     "--seed", str(seed), "--out-dir", str(d)]) == 0
    assert cli_main(["compare", "--matrix", str(d / "B.mtx"), "--rhs", str(d / "b.mtx"),
                     "--ybar", str(d / "ybar.mtx"),
                     "--strategies", "cyclic,shuffled,preshuffled,singlestep",
                     "--trials", "4", "--sweeps", "12", "--target-error-sq", "0",
                     "--seed", str(seed), "--out-csv", str(csv)]) == 0
    capsys.readouterr()
    curves = {}
    for kind, trial, _, err, _ in read_history_csv(csv):
        curves.setdefault(kind, {}).setdefault(trial, []).append(err)
    assert list(means) == list(curves) == list(script.STRATEGIES)
    for kind, trials in curves.items():
        assert np.array_equal(means[kind], mean_error_curve(trials.values())), kind


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
