"""Smoke tests: each experiment script runs end to end at tiny sizes."""

import importlib.util
import math
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def table_rows(capsys, argv):
    load_script("paper_tables").main(argv)
    return [line.split() for line in capsys.readouterr().out.splitlines()[1:]]


def test_fan_rate_experiment(capsys):
    rows = table_rows(capsys, ["fan-rate", "--m", "2", "4"])
    assert [row[0] for row in rows] == ["2", "4"]
    # the cyclic rate on the fan is cos^4m(pi/2m) per sweep
    for row in rows:
        assert float(row[1]) == pytest.approx(float(row[3]), rel=1e-6)


def test_fan_rate_table_is_exact_at_its_defaults(capsys):
    rows = {int(row[0]): row for row in table_rows(capsys, ["fan-rate"])}
    assert float(rows[1][1]) == 0.0  # orthogonal rows: one sweep solves the system
    for m in (2, 4, 8, 16):
        assert float(rows[m][1]) == pytest.approx(math.cos(math.pi / (2 * m)) ** (4 * m),
                                                  rel=1e-12)


def test_truncation_study(capsys):
    rows = table_rows(capsys, ["truncation", "--sizes", "4", "10", "--restarts", "2",
                               "--trials", "100"])
    assert [(row[0], row[3]) for row in rows] == [("4", "exhaustive"), ("10", "heuristic")]
    assert rows[0][5] == "exact"  # the exhaustive mean has no sampling error


def test_truncation_table_prints_no_standard_error_for_one_trial(capsys):
    rows = table_rows(capsys, ["truncation", "--sizes", "9", "--restarts", "2",
                               "--trials", "1"])
    assert [(row[0], row[3], row[5]) for row in rows] == [("9", "heuristic", "n/a")]


def test_output_set_repeats_and_reports_a_one_ulp_change(tmp_path):
    output_set = load_script("output_set")
    names = ("generate-fan2", "compare-fan2-t3", "analyze-fan2", "table-fan-rate")
    commands = [c for c in output_set.COMMANDS if c[0] in names]
    assert len(commands) == 4
    for run in ("a", "b"):
        output_set.run_set(tmp_path / run, commands)
    assert (tmp_path / "a" / "exit_codes.txt").read_text() == "".join(f"{n} 0\n" for n in names)
    report = output_set.compare_sets(tmp_path / "a", tmp_path / "b")
    assert report == ["13 of 13 files identical"]

    csv = tmp_path / "b" / "fan2" / "compare-t3.csv"
    lines = csv.read_text().splitlines()
    k = next(k for k, line in enumerate(lines) if line.startswith("shuffled,2,1,"))
    cells = lines[k].split(",")
    cells[3] = repr(math.nextafter(float(cells[3]), math.inf))
    lines[k] = ",".join(cells)
    csv.write_text("\n".join(lines) + "\n")
    report = output_set.compare_sets(tmp_path / "a", tmp_path / "b")
    assert report[:2] == ["12 of 13 files identical", "fan2/compare-t3.csv: differs"]
    assert len(report) == 3 and report[2].startswith("  error_sq: largest relative difference")
    assert report[2].endswith(" at shuffled trial 2 sweep 1")


def test_output_set_reports_table_columns_and_rows(tmp_path):
    output_set = load_script("output_set")
    a = ["  n identity     min bound shuffled",
         "  4  0.49559 0.42340          exact",
         " 10  0.43965 0.39212        1.7e-03"]
    b = ["  n identity     min bound shuffled",
         "  4  0.49559 0.42340          exact",
         " 10  0.43965 0.39312        1.6e-03",
         "128  0.41000 0.38000        1.0e-03"]
    for run, lines in (("a", a), ("b", b)):
        (tmp_path / run).mkdir()
        (tmp_path / run / "table-truncation.out").write_text("\n".join(lines) + "\n")
        (tmp_path / run / "exit_codes.txt").write_text("table-truncation 0\n")
    report = output_set.compare_sets(tmp_path / "a", tmp_path / "b")
    assert report == ["1 of 2 files identical", "table-truncation.out: differs",
                      "  min: largest relative difference 0.00254 at n 10",
                      "  bound shuffled: largest relative difference 0.0588 at n 10",
                      "  n 128: only in the second set"]


def test_output_set_against_exits_2_when_it_cannot_compare(tmp_path, capsys):
    # exit 1 means "some files differ", so a failure to compare must not give 1;
    # an unknown revision fails before any command of the set runs
    output_set = load_script("output_set")
    out = tmp_path / "out"
    assert output_set.main([str(out), "--against", "no-such-revision"]) == 2
    assert capsys.readouterr().err.startswith("error: ") and not out.exists()
    (tmp_path / "file").write_text("")
    assert output_set.main([str(tmp_path / "file"), "--against", "HEAD"]) == 2
    assert capsys.readouterr().err.startswith("error: ")
