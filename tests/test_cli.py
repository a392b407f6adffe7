import argparse

import numpy as np
import pytest

from sorlab.cli import main, read_history_csv, write_history_csv, CSV_HEADER
from sorlab.mmio import read_matrix, read_vector, write_matrix, write_vector
from sorlab.solvers import IterationHistory


def run_cli(*args):
    return main([str(a) for a in args])


@pytest.fixture()
def fan_dir(tmp_path):
    d = tmp_path / "fan"
    assert run_cli("generate", "--kind", "fan", "--m", "4", "--out-dir", d) == 0
    return d


@pytest.fixture()
def identity_dir(tmp_path):
    d = tmp_path / "ident"
    d.mkdir()
    write_matrix(d / "B.mtx", np.eye(3))
    write_vector(d / "b.mtx", np.array([1.0, 2.0, 3.0]))
    write_vector(d / "ybar.mtx", np.array([1.0, 2.0, 3.0]))
    return d


# ---------------------------------------------------------------- CSV

def _history_bytes(histories):
    """{strategy: [(errors, residuals) of each trial as float64 bytes]}."""
    return {strategy: [tuple(np.asarray(a, dtype=np.float64).tobytes()
                             for a in (h.errors_sq, h.residuals)) for h in trials]
            for strategy, trials in histories.items()}


def test_history_csv_matches_per_row_formula(tmp_path):
    # one row per sweep, values as repr(float(v)); histories of unequal
    # length, numpy arrays as the solvers return them and plain lists
    extremes = [1e300, 1e-300, 0.0, 5e-324, 0.1, 1.0 / 3.0, 2.0]
    histories = {
        "cyclic": [IterationHistory(np.array(extremes), np.array(extremes[::-1]), None),
                   IterationHistory(np.array([4.0]), np.array([0.0]), None)],
        "single_step_random": [IterationHistory([0.5, 5e-324], [1e300, 1e-300], None)],
    }
    out = tmp_path / "h.csv"
    write_history_csv(out, histories)
    ref = [CSV_HEADER]
    for strategy, trials in histories.items():
        for trial, h in enumerate(trials):
            for sweep, (err, res) in enumerate(zip(h.errors_sq, h.residuals)):
                ref.append(f"{strategy},{int(trial)},{int(sweep)},{repr(float(err))},"
                           f"{repr(float(res))}")
    assert out.read_text() == "\n".join(ref) + "\n"
    assert _history_bytes(read_history_csv(out)) == _history_bytes(histories)


def test_history_csv_reuses_rows_of_byte_equal_trials(tmp_path):
    # consecutive identical trials (as run_trials returns cyclic), a trial
    # equal to the previous in errors but not in residuals, one that differs
    # only by -0.0 against 0.0, and a repeat after it: every row still
    # follows the per-row formula under its own strategy and trial
    errs, res = np.array([1.0, 0.25, 0.0]), np.array([2.0, 0.5, 1e-300])
    same = [IterationHistory(errs.copy(), res.copy(), None) for _ in range(3)]
    histories = {
        "cyclic": same + [IterationHistory(errs.copy(), np.array([2.0, 0.5, 5e-324]), None),
                          IterationHistory(errs.copy(), np.array([2.0, 0.5, 5e-324]), None)],
        "shuffled": [IterationHistory(errs.copy(), res.copy(), None),
                     IterationHistory(np.array([1.0, 0.25, -0.0]), res.copy(), None),
                     IterationHistory([1.0, 0.25, -0.0], list(res), None),
                     IterationHistory([1.0, 0.25], [2.0, 0.5], None)],
    }
    out = tmp_path / "h.csv"
    write_history_csv(out, histories)
    ref = [CSV_HEADER]
    for strategy, trials in histories.items():
        for trial, h in enumerate(trials):
            for sweep, (err, res_) in enumerate(zip(h.errors_sq, h.residuals)):
                ref.append(f"{strategy},{trial},{sweep},{repr(float(err))},{repr(float(res_))}")
    assert out.read_text() == "\n".join(ref) + "\n"
    assert "shuffled,1,2,-0.0,1e-300" in ref and "shuffled,0,2,0.0,1e-300" in ref


def test_read_history_csv_returns_the_histories_written(tmp_path):
    # the reader is the writer's inverse, bit for bit: signed zeros, the
    # smallest subnormal, huge values and trials of unequal length
    histories = {
        "shuffled": [IterationHistory(np.array([1e300, 0.5, -0.0]), np.array([5e-324, 0.0, 1e300]),
                                      None),
                     IterationHistory(np.array([2.0]), np.array([-0.0]), None)],
        "cyclic": [IterationHistory(np.array([1.0 / 3.0, 5e-324]), np.array([0.1, 2.0]), None)],
    }
    out = tmp_path / "h.csv"
    write_history_csv(out, histories)
    back = read_history_csv(out)
    assert list(back) == ["shuffled", "cyclic"]
    assert _history_bytes(back) == _history_bytes(histories)
    assert all(h.final_iterate is None for trials in back.values() for h in trials)


def test_read_history_csv_groups_interleaved_trials(tmp_path):
    # rows group by (strategy, trial) in order of first appearance, whatever
    # the trial numbers; written back, each trial is numbered from 0
    csv = tmp_path / "h.csv"
    csv.write_text("\n".join([CSV_HEADER, "b,3,0,4.0,1.0", "a,7,0,1.0,0.5", "b,5,0,3.0,2.0",
                              "b,3,1,-0.0,5e-324", "a,7,1,1e300,0.0", "b,5,1,2.0,1.0",
                              "b,3,2,0.25,0.5"]) + "\n")
    back = read_history_csv(csv)
    assert {k: [(h.errors_sq.tolist(), h.residuals.tolist()) for h in hs]
            for k, hs in back.items()} == {
        "b": [([4.0, -0.0, 0.25], [1.0, 5e-324, 0.5]), ([3.0, 2.0], [2.0, 1.0])],
        "a": [([1.0, 1e300], [0.5, 0.0])],
    }
    assert list(back) == ["b", "a"] and np.signbit(back["b"][0].errors_sq[1])
    write_history_csv(tmp_path / "w.csv", back)
    assert _history_bytes(read_history_csv(tmp_path / "w.csv")) == _history_bytes(back)


def test_read_history_csv_allocates_little_per_row(tmp_path):
    # 30,000 rows: float64 buffers take 16 B a row, where a tuple a row with
    # its own floats and strategy string took about 195 B
    import tracemalloc
    rng = np.random.default_rng(0)
    histories = {kind: [IterationHistory(rng.random(100), rng.random(100), None)
                        for _ in range(100)] for kind in ("cyclic", "shuffled", "preshuffled")}
    csv = tmp_path / "h.csv"
    write_history_csv(csv, histories)
    tracemalloc.start()
    try:
        back = read_history_csv(csv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 64 * 30_000
    assert _history_bytes(back) == _history_bytes(histories)


# ---------------------------------------------------------------- generate

def test_generate_fan_files(fan_dir):
    B, comments = read_matrix(fan_dir / "B.mtx")
    assert B.shape == (8, 8)
    assert np.array_equal(B.diagonal(), np.ones(8))
    assert any("kind: fan" in c for c in comments)
    for name in ("A.mtx", "b.mtx", "ybar.mtx", "xbar.mtx", "meta.txt"):
        assert (fan_dir / name).exists()
    meta = (fan_dir / "meta.txt").read_text()
    assert "kind: fan" in meta and "generator: PCG64" in meta


def test_generate_lowrank_deterministic(tmp_path):
    d1, d2 = tmp_path / "g1", tmp_path / "g2"
    for d in (d1, d2):
        assert run_cli("generate", "--kind", "lowrank", "--n", "8", "--r", "2",
                       "--seed", "7", "--out-dir", d) == 0
    for name in ("B.mtx", "A.mtx", "b.mtx", "ybar.mtx", "xbar.mtx", "meta.txt"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


def test_generate_random_complex(tmp_path):
    d = tmp_path / "rc"
    assert run_cli("generate", "--kind", "random", "--n", "5", "--m", "4",
                   "--complex", "--seed", "3", "--out-dir", d) == 0
    B, _ = read_matrix(d / "B.mtx")
    assert np.iscomplexobj(B)
    b, _ = read_vector(d / "b.mtx")
    ybar, _ = read_vector(d / "ybar.mtx")
    assert np.linalg.norm(B @ ybar - b) <= 1e-10


def test_generate_usage_errors(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run_cli("generate", "--kind", "fan", "--m", "0", "--out-dir", tmp_path / "x")
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run_cli("generate", "--kind", "lowrank", "--n", "4", "--r", "9",
                "--out-dir", tmp_path / "x")
    assert exc.value.code == 2


# ---------------------------------------------------------------- solve

def test_solve_fan_cyclic_rate(fan_dir, tmp_path, capsys):
    out = tmp_path / "hist.csv"
    code = run_cli("solve", "--matrix", fan_dir / "B.mtx", "--rhs", fan_dir / "b.mtx",
                   "--ybar", fan_dir / "ybar.mtx", "--strategy", "cyclic",
                   "--omega", "1.0", "--sweeps", "20", "--target-error-sq", "0",
                   "--out", out)
    assert code == 0
    printed = capsys.readouterr().out
    rate = float([l for l in printed.splitlines() if l.startswith("empirical_rate:")][0].split()[1])
    assert rate == pytest.approx(np.cos(np.pi / 8) ** 16, rel=1e-3)
    (h,), = read_history_csv(out).values()
    assert len(h.errors_sq) == len(h.residuals) == 21
    assert out.read_text().splitlines()[0] == CSV_HEADER


def test_solve_identity_converges_at_first_sweep(identity_dir, tmp_path):
    out = tmp_path / "h.csv"
    assert run_cli("solve", "--matrix", identity_dir / "B.mtx",
                   "--rhs", identity_dir / "b.mtx", "--ybar", identity_dir / "ybar.mtx",
                   "--strategy", "cyclic", "--out", out) == 0
    (h,), = read_history_csv(out).values()
    assert h.errors_sq[1] == 0.0  # error_sq hits 0 at sweep 1
    assert len(h.errors_sq) == len(h.residuals) == 2


def test_solve_preshuffled_requires_sigma_or_seed(fan_dir, tmp_path):
    args = ["solve", "--matrix", fan_dir / "B.mtx", "--rhs", fan_dir / "b.mtx",
            "--ybar", fan_dir / "ybar.mtx", "--strategy", "preshuffled",
            "--out", tmp_path / "h.csv"]
    with pytest.raises(SystemExit) as exc:
        run_cli(*args)
    assert exc.value.code == 2
    assert run_cli(*args, "--seed", "0") == 0
    assert run_cli(*args, "--sigma", "2,1,3,4,5,6,7,8") == 0


def test_solve_fixed_requires_sigma(fan_dir, tmp_path):
    with pytest.raises(SystemExit) as exc:
        run_cli("solve", "--matrix", fan_dir / "B.mtx", "--rhs", fan_dir / "b.mtx",
                "--ybar", fan_dir / "ybar.mtx", "--strategy", "fixed",
                "--out", tmp_path / "h.csv")
    assert exc.value.code == 2


def test_solve_sigma_beyond_the_index_range_is_one_error_line(fan_dir, tmp_path, capsys):
    assert run_cli("solve", "--matrix", fan_dir / "B.mtx", "--rhs", fan_dir / "b.mtx",
                   "--ybar", fan_dir / "ybar.mtx", "--strategy", "fixed",
                   "--sigma", "99999999999999999999999,1", "--out", tmp_path / "h.csv") == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: bad permutation string '99999999999999999999999,1'\n"


def test_matrix_declaring_more_entries_than_it_holds_is_one_error_line(tmp_path, capsys):
    # 10**6 x 10**6 float64 would be 7.3 TiB; the entries are counted first
    path = tmp_path / "huge.mtx"
    path.write_text("%%MatrixMarket matrix array real general\n1000000 1000000\n1.0\n")
    assert run_cli("bounds", "--matrix", path) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: {path}: read 1 of {10**12} expected entries; "
                            "entry 2 is missing or incomplete\n")


@pytest.mark.parametrize("args", [
    ("solve", "--strategy", "fixed", "--out"),
    ("solve", "--strategy", "preshuffled", "--out"),
    ("compare", "--strategies", "cyclic,fixed", "--out-csv"),
    ("compare", "--strategies", "shuffled,preshuffled", "--out-csv"),
])
def test_strategy_usage_errors_come_before_reading_files(tmp_path, args):
    missing = tmp_path / "missing.mtx"
    *head, out_flag = args
    with pytest.raises(SystemExit) as exc:
        run_cli(*head, "--matrix", missing, "--rhs", missing, "--ybar", missing,
                out_flag, tmp_path / "h.csv")
    assert exc.value.code == 2
    assert not (tmp_path / "h.csv").exists()


@pytest.mark.parametrize("args, message", [
    (("solve", "--strategy", "shuffled,cyclic", "--out"), "solve runs one strategy"),
    (("solve", "--strategy", "cyclic", "--sweeps", "0", "--out"), "--sweeps must be >= 1"),
    (("compare", "--strategies", "cyclic", "--trials", "0", "--out-csv"),
     "--trials must be >= 1"),
    (("compare", "--strategies", "cyclic", "--sweeps", "0", "--out-csv"),
     "--sweeps must be >= 1"),
    (("solve", "--strategy", "cyclic", "--rate-window", "0", "--out"),
     "--rate-window must be >= 1"),
    (("solve", "--strategy", "cyclic", "--rate-window", "-3", "--out"),
     "--rate-window must be >= 1"),
    (("compare", "--strategies", "cyclic", "--rate-window", "0", "--out-csv"),
     "--rate-window must be >= 1"),
    (("compare", "--strategies", "cyclic", "--rate-window", "-3", "--out-csv"),
     "--rate-window must be >= 1"),
    (("solve", "--strategy", "cyclic", "--target-error-sq", "nan", "--out"),
     "--target-error-sq must be >= 0"),
    (("compare", "--strategies", "cyclic", "--target-error-sq", "-1", "--out-csv"),
     "--target-error-sq must be >= 0"),
])
def test_run_usage_errors_come_before_reading_files(tmp_path, capsys, args, message):
    missing = tmp_path / "missing.mtx"
    *head, out_flag = args
    with pytest.raises(SystemExit) as exc:
        run_cli(*head, "--matrix", missing, "--rhs", missing, "--ybar", missing,
                out_flag, tmp_path / "h.csv")
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "h.csv").exists()


def test_compare_per_trial_requires_out_svg(tmp_path, capsys):
    # the faint per-trial curves go only into the SVG
    missing = tmp_path / "missing.mtx"
    with pytest.raises(SystemExit) as exc:
        run_cli("compare", "--matrix", missing, "--rhs", missing, "--ybar", missing,
                "--strategies", "cyclic", "--per-trial", "--out-csv", tmp_path / "h.csv")
    assert exc.value.code == 2
    assert "--per-trial requires --out-svg" in capsys.readouterr().err
    assert not (tmp_path / "h.csv").exists()


def _usage_args(command, missing, out):
    """Arguments that command needs, every input file missing and out its output."""
    system = ("--matrix", missing, "--rhs", missing, "--ybar", missing)
    return {"generate": ("--kind", "random", "--n", "4", "--m", "2", "--out-dir", out),
            "solve": (*system, "--strategy", "cyclic", "--out", out),
            "compare": (*system, "--strategies", "cyclic", "--out-csv", out),
            "analyze": ("--matrix", missing),
            "bounds": ("--matrix", missing),
            "plot": ("--csv", missing, "--out", out)}[command]


@pytest.mark.parametrize("command", ["generate", "solve", "compare", "analyze", "bounds", "plot"])
def test_negative_seed_is_a_usage_error(tmp_path, capsys, command):
    missing, out = tmp_path / "missing.mtx", tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        run_cli(command, *_usage_args(command, missing, out), "--seed", "-1")
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--seed must be >= 0" in captured.err
    assert not out.exists()


# one bad value per rule of cli._OPTION_RULES, and the message it must print
_BAD_OPTION_VALUES = {
    "--seed": ("-1", "--seed must be >= 0"),
    "--omega": ("2", "--omega must lie strictly in (0, 2)"),
    "--trials": ("0", "--trials must be >= 1"),
    "--restarts": ("0", "--restarts must be >= 1"),
    "--sweeps": ("0", "--sweeps must be >= 1"),
    "--rate-window": ("0", "--rate-window must be >= 1"),
    "--target-error-sq": ("nan", "--target-error-sq must be >= 0"),
}


def _option_rule_cases():
    """(command, option) for every subcommand and every ruled option it takes."""
    from sorlab.cli import _OPTION_RULES, build_parser
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return [(command, option) for command, p in sub.choices.items()
            for option, _, _ in _OPTION_RULES if option in p._option_string_actions]


def test_every_option_rule_has_a_bad_value_and_a_command():
    from sorlab.cli import _OPTION_RULES
    assert [option for option, _, _ in _OPTION_RULES] == list(_BAD_OPTION_VALUES)
    assert {option for _, option in _option_rule_cases()} == set(_BAD_OPTION_VALUES)


@pytest.mark.parametrize("command, option", _option_rule_cases())
def test_option_rules_come_before_reading_files(tmp_path, capsys, command, option):
    missing, out = tmp_path / "missing.mtx", tmp_path / "out"
    value, message = _BAD_OPTION_VALUES[option]
    with pytest.raises(SystemExit) as exc:
        run_cli(command, *_usage_args(command, missing, out), option, value)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.endswith(f"sorlab: error: {message}\n")
    assert not out.exists()


def test_generate_random_requires_n(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("generate", "--kind", "random", "--m", "3", "--out-dir", tmp_path / "x")
    assert exc.value.code == 2
    assert "--kind random requires --n" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_solve_inconsistent_system(tmp_path):
    d = tmp_path / "bad"
    d.mkdir()
    write_matrix(d / "B.mtx", np.array([[1.0, 1.0], [1.0, 1.0]]))
    write_vector(d / "b.mtx", np.array([1.0, -1.0]))  # kernel direction
    write_vector(d / "ybar.mtx", np.zeros(2))
    args = ["solve", "--matrix", d / "B.mtx", "--rhs", d / "b.mtx",
            "--ybar", d / "ybar.mtx", "--strategy", "cyclic", "--out", d / "h.csv"]
    assert run_cli(*args) == 1
    assert run_cli(*args, "--allow-inconsistent") == 0


def test_solve_custom_start_vector(fan_dir, tmp_path):
    y0 = np.zeros(8)
    y0[2] = 1.0
    write_vector(tmp_path / "y0.mtx", y0)
    out = tmp_path / "h.csv"
    assert run_cli("solve", "--matrix", fan_dir / "B.mtx", "--rhs", fan_dir / "b.mtx",
                   "--ybar", fan_dir / "ybar.mtx", "--y0", tmp_path / "y0.mtx",
                   "--strategy", "cyclic", "--sweeps", "5", "--out", out) == 0
    (h,), = read_history_csv(out).values()
    assert h.errors_sq[0] == pytest.approx(1.0)  # |e2|_B^2 = B[2,2] = 1


def test_solve_unknown_strategy(fan_dir, tmp_path):
    with pytest.raises(SystemExit) as exc:
        run_cli("solve", "--matrix", fan_dir / "B.mtx", "--rhs", fan_dir / "b.mtx",
                "--ybar", fan_dir / "ybar.mtx", "--strategy", "sorted",
                "--out", tmp_path / "h.csv")
    assert exc.value.code == 2


def test_solve_missing_file_is_runtime_error(tmp_path):
    assert run_cli("solve", "--matrix", tmp_path / "nope.mtx",
                   "--rhs", tmp_path / "nope.mtx", "--ybar", tmp_path / "nope.mtx",
                   "--strategy", "cyclic", "--out", tmp_path / "h.csv") == 1


@pytest.fixture()
def indefinite_dir(tmp_path):
    """Symmetric, unit diagonal, lowest eigenvalue -0.10; b = ybar = 0."""
    rng = np.random.default_rng(0)
    M = rng.uniform(-0.6, 0.6, (6, 6))
    B = (M + M.T) / 2
    np.fill_diagonal(B, 1.0)
    assert np.linalg.eigvalsh(B)[0] < -0.1
    d = tmp_path / "indef"
    d.mkdir()
    write_matrix(d / "B.mtx", B)
    write_vector(d / "b.mtx", np.zeros(6))
    write_vector(d / "ybar.mtx", np.zeros(6))
    write_vector(d / "y0.mtx", rng.standard_normal(6))
    return d


def _system_args(d):
    return ("--matrix", d / "B.mtx", "--rhs", d / "b.mtx", "--ybar", d / "ybar.mtx")


def test_solve_indefinite_matrix_exits_1(indefinite_dir, tmp_path, capsys):
    out = tmp_path / "h.csv"
    assert run_cli("solve", *_system_args(indefinite_dir), "--y0", indefinite_dir / "y0.mtx",
                   "--strategy", "cyclic", "--out", out) == 1
    assert "matrix not PSD" in capsys.readouterr().err
    assert not out.exists()


def test_compare_indefinite_matrix_exits_1(indefinite_dir, tmp_path, capsys):
    out = tmp_path / "c.csv"
    assert run_cli("compare", *_system_args(indefinite_dir), "--y0", indefinite_dir / "y0.mtx",
                   "--strategies", "cyclic,shuffled", "--trials", "3", "--out-csv", out) == 1
    assert "matrix not PSD" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, args", [("solve", ("--strategy", "cyclic", "--out")),
                                           ("compare", ("--strategies", "cyclic", "--out-csv"))],
                         ids=["solve", "compare"])
@pytest.mark.parametrize("entries, message", [
    (["1.0"] * 5, "b has shape (5,), expected (6,)"),
    (["1.0"] * 5 + ["nan"], "b contains NaN or Inf entries"),
], ids=["short", "nan"])
def test_malformed_rhs_names_b(random_dir, tmp_path, capsys, command, args, entries, message):
    rhs, out = tmp_path / "b.mtx", tmp_path / "h.csv"
    rhs.write_text(f"%%MatrixMarket matrix array real general\n{len(entries)} 1\n"
                   + "".join(e + "\n" for e in entries))
    assert run_cli(command, "--matrix", random_dir / "B.mtx", "--rhs", rhs,
                   "--ybar", random_dir / "ybar.mtx", *args, out) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_solve_extra_vector_entries_exit_1(fan_dir, tmp_path, capsys):
    with open(fan_dir / "b.mtx", "a", encoding="ascii") as fh:
        fh.write("1.0\n")
    assert run_cli("solve", *_system_args(fan_dir), "--strategy", "cyclic",
                   "--out", tmp_path / "h.csv") == 1
    assert "b.mtx: found more than 8 expected entries" in capsys.readouterr().err


# ---------------------------------------------------------------- compare

def test_compare_summary_and_trial0_matches_solve(fan_dir, tmp_path, capsys):
    # randomized trials run in one kernel at every trial count, so solve is
    # trial 0 of compare whether compare runs 3 trials or 32
    solve_csv = tmp_path / "solve.csv"
    run_cli("solve", "--matrix", fan_dir / "B.mtx", "--rhs", fan_dir / "b.mtx",
            "--ybar", fan_dir / "ybar.mtx", "--strategy", "shuffled",
            "--sweeps", "10", "--seed", "5", "--out", solve_csv)
    capsys.readouterr()
    solved = read_history_csv(solve_csv)
    assert list(solved) == ["shuffled"]
    solve, = solved["shuffled"]
    for trials in (3, 32):
        cmp_csv = tmp_path / f"cmp{trials}.csv"
        code = run_cli("compare", "--matrix", fan_dir / "B.mtx", "--rhs", fan_dir / "b.mtx",
                       "--ybar", fan_dir / "ybar.mtx", "--strategies", "cyclic,shuffled",
                       "--trials", trials, "--sweeps", "10", "--seed", "5",
                       "--out-csv", cmp_csv)
        assert code == 0
        printed = capsys.readouterr().out
        assert "rate_shuffled: 0.84" in printed
        assert "empirical_rate[cyclic]:" in printed
        assert "mean_error_sq per sweep:" in printed
        histories = read_history_csv(cmp_csv)
        assert [len(histories[kind]) for kind in ("cyclic", "shuffled")] == [trials, trials]
        trial0 = histories["shuffled"][0]
        assert trial0.errors_sq.tobytes() == solve.errors_sq.tobytes()
        assert trial0.residuals.tobytes() == solve.residuals.tobytes()


def test_compare_rejects_bad_omega(fan_dir, tmp_path):
    with pytest.raises(SystemExit) as exc:
        run_cli("compare", "--matrix", fan_dir / "B.mtx", "--rhs", fan_dir / "b.mtx",
                "--ybar", fan_dir / "ybar.mtx", "--strategies", "cyclic",
                "--omega", "2.0", "--out-csv", tmp_path / "c.csv")
    assert exc.value.code == 2


# ---------------------------------------------------------------- analyze / bounds

def test_analyze_flags_weighted_form(tmp_path, capsys):
    d = tmp_path
    write_matrix(d / "B.mtx", np.array([[1.0, 0.5], [0.5, 1.0]]))
    assert run_cli("analyze", "--matrix", d / "B.mtx") == 0
    out = capsys.readouterr().out
    assert "avg_lower_gram_oracle: bruteforce" in out
    assert "weighted_form_flagged: true" in out
    assert "weighted_form_entry: (1,1) oracle: 0.125 weighted: 0.0" in out


def test_analyze_fan_spectral_block(fan_dir, capsys):
    assert run_cli("analyze", "--matrix", fan_dir / "B.mtx") == 0
    out = capsys.readouterr().out
    assert "rank: 2" in out
    assert "spectral_norm: 4.0" in out
    assert "truncation_method: exhaustive" in out


def test_analyze_identity(tmp_path, capsys):
    write_matrix(tmp_path / "I.mtx", np.eye(4))
    assert run_cli("analyze", "--matrix", tmp_path / "I.mtx") == 0
    out = capsys.readouterr().out
    assert "truncation: zero matrix, all ratios 0" in out or "truncation_ratio_min: 0.0" in out
    assert "avg_lower_gram_norm: 0.0" in out


def test_analyze_zero_matrix_has_rank_0(tmp_path, capsys):
    write_matrix(tmp_path / "Z.mtx", np.zeros((3, 3)))
    assert run_cli("analyze", "--matrix", tmp_path / "Z.mtx") == 0
    out = capsys.readouterr().out.splitlines()
    assert "rank: 0" in out and "spectral_norm: 0.0" in out
    assert not any("not PSD" in line for line in out)


@pytest.mark.parametrize("command", ["analyze", "bounds"])
def test_empty_matrix_exits_1(tmp_path, capsys, command):
    path = tmp_path / "E.mtx"
    path.write_text("%%MatrixMarket matrix array real symmetric\n0 0\n")
    assert run_cli(command, "--matrix", path) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: empty matrix: n must be >= 1\n"


def test_compare_indefinite_consistent_rhs_reports_not_psd(tmp_path, capsys):
    # b = B ybar lies in Ran(B); the error names the indefinite matrix, not the rhs
    rng = np.random.default_rng(1)
    M = rng.uniform(-0.9, 0.9, (6, 6))
    B = (M + M.T) / 2
    np.fill_diagonal(B, 1.0)
    assert np.linalg.eigvalsh(B)[0] < -0.2
    write_matrix(tmp_path / "B.mtx", B)
    write_vector(tmp_path / "b.mtx", B @ rng.standard_normal(6))
    write_vector(tmp_path / "ybar.mtx", np.zeros(6))
    assert run_cli("compare", *_system_args(tmp_path), "--strategies", "cyclic",
                   "--out-csv", tmp_path / "c.csv") == 1
    assert capsys.readouterr().err == "error: matrix not PSD\n"


def test_analyze_truncated_matrix_exits_1(fan_dir, capsys):
    path = fan_dir / "B.mtx"
    path.write_text("".join(path.read_text().splitlines(keepends=True)[:12]))
    assert run_cli("analyze", "--matrix", path) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "B.mtx: read" in err


def test_analyze_large_uses_heuristic(tmp_path, capsys):
    from helpers import random_psd_unit
    from sorlab import make_rng
    write_matrix(tmp_path / "B.mtx", random_psd_unit(10, make_rng(1)))
    assert run_cli("analyze", "--matrix", tmp_path / "B.mtx",
                   "--trials", "100", "--restarts", "3", "--seed", "2") == 0
    out = capsys.readouterr().out
    assert "truncation_method: heuristic" in out
    assert "expected_truncation_ratio:" in out


def test_analyze_heuristic_path_prints_the_serial_values(tmp_path, capsys):
    # the Monte Carlo batches run on two threads beside the heuristic;
    # the report holds the values of the two calls made one after the other
    from helpers import random_psd_unit
    from sorlab import analysis, derived_rng, format_permutation, hermitian, make_rng
    write_matrix(tmp_path / "B.mtx", random_psd_unit(12, make_rng(5), complex_entries=True, m=4))
    assert run_cli("analyze", "--matrix", tmp_path / "B.mtx",
                   "--trials", "300", "--restarts", "4", "--seed", "6") == 0
    report = dict(line.split(": ", 1) for line in capsys.readouterr().out.splitlines())
    B = hermitian(read_matrix(tmp_path / "B.mtx")[0])
    stats = analysis.min_truncation_heuristic(B, 4, derived_rng(6, 7))
    expected, se = analysis.expected_truncation_norm(B, 300, derived_rng(6, 8))
    assert report["truncation_argmin_sigma"] == format_permutation(stats.argmin_sigma)
    assert [report[f"truncation_ratio_{k}"] for k in ("identity", "min", "mean", "max")] == [
        repr(v) for v in (stats.ratio_identity, stats.min_ratio, stats.mean_ratio,
                          stats.max_ratio)]
    assert report["expected_truncation_ratio"] == repr(expected)
    assert report["expected_truncation_ratio_se"] == repr(se)


def test_analyze_worker_error_exits_1_and_leaves_no_thread(tmp_path, capsys, monkeypatch):
    # for n > 8 the two threads share the Monte Carlo batches beside the
    # heuristic; the last of the batches of 3276, 3276 and 448 orders at
    # n = 10 fails, whichever thread takes it
    import threading
    from helpers import random_psd_unit
    from sorlab import analysis, make_rng
    score = analysis._batched_truncation_norms

    def fail_on_the_last_batch(B, perms):
        if len(perms) == 448:
            raise ValueError("estimate failed")
        return score(B, perms)

    monkeypatch.setattr(analysis, "_batched_truncation_norms", fail_on_the_last_batch)
    write_matrix(tmp_path / "B.mtx", random_psd_unit(10, make_rng(1)))
    threads = threading.active_count()
    assert run_cli("analyze", "--matrix", tmp_path / "B.mtx", "--restarts", "2",
                   "--trials", "7000") == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: estimate failed\n"
    assert threading.active_count() == threads


def test_analyze_exhaustive_worker_error_exits_1_and_leaves_no_thread(tmp_path, capsys,
                                                                      monkeypatch):
    # for n <= 8 the two threads share the kept batches of orders, one per
    # leading index; the one that leads with 3 (2880 orders) fails, whichever
    # thread takes it
    import threading
    from helpers import random_psd_unit
    from sorlab import analysis, make_rng
    score = analysis._batched_truncation_norms

    def fail_on_a_chosen_batch(B, perms):
        if len(perms) == 2880:
            raise ValueError("worker half failed")
        return score(B, perms)

    monkeypatch.setattr(analysis, "_batched_truncation_norms", fail_on_a_chosen_batch)
    write_matrix(tmp_path / "B.mtx", random_psd_unit(8, make_rng(1)))
    threads = threading.active_count()
    assert run_cli("analyze", "--matrix", tmp_path / "B.mtx") == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: worker half failed\n"
    assert threading.active_count() == threads


def test_analyze_complex_hermitian(tmp_path, capsys):
    from helpers import random_psd_unit
    from sorlab import make_rng
    write_matrix(tmp_path / "B.mtx", random_psd_unit(6, make_rng(8), complex_entries=True))
    assert run_cli("analyze", "--matrix", tmp_path / "B.mtx") == 0
    out = capsys.readouterr().out
    assert "psd_unit_diagonal: true" in out
    assert "bound_psd_strict_ok: true" in out
    assert "truncation_method: exhaustive" in out


@pytest.mark.parametrize("flag", ["--trials", "--restarts"])
def test_analyze_usage_errors_come_before_reading_files(tmp_path, capsys, flag):
    with pytest.raises(SystemExit) as exc:
        run_cli("analyze", "--matrix", tmp_path / "missing.mtx", flag, "0")
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"{flag} must be >= 1" in captured.err


@pytest.mark.parametrize("case, decompositions", [
    ("fan", 1),         # exhaustive path
    ("psd10", 1),       # heuristic path
    ("indefinite", 2),  # the failed spectral summary, then the eigen_hermitian fallback
])
def test_analyze_decomposes_matrix_once(fan_dir, tmp_path, monkeypatch, case, decompositions):
    from helpers import random_psd_unit
    from sorlab import make_rng
    B = {"fan": lambda: read_matrix(fan_dir / "B.mtx")[0],
         "psd10": lambda: random_psd_unit(10, make_rng(1)),
         "indefinite": _indefinite_matrix}[case]()
    write_matrix(tmp_path / "B.mtx", B)
    n = B.shape[0]
    calls = []
    eigh = np.linalg.eigh
    # count n x n calls only: the heuristic's Ritz step decomposes 2 x 2 blocks
    monkeypatch.setattr(np.linalg, "eigh",
                        lambda M: calls.append(np.shape(M)[-2:] == (n, n)) or eigh(M))
    assert run_cli("analyze", "--matrix", tmp_path / "B.mtx",
                   "--trials", "50", "--restarts", "2") == 0
    assert sum(calls) == decompositions


@pytest.mark.parametrize("system, extra", [
    ("random", ("solve", "--strategy", "cyclic", "--out")),
    ("fan", ("solve", "--strategy", "shuffled", "--out")),
    ("random", ("solve", "--strategy", "cyclic", "--allow-inconsistent", "--out")),
    ("random", ("compare", "--strategies", "cyclic,shuffled", "--trials", "2", "--out-csv")),
    ("random", ("bounds",)),
])
def test_run_commands_decompose_matrix_once(fan_dir, random_dir, tmp_path, monkeypatch,
                                            system, extra):
    # one spectral summary per command: the PSD gate, range test and rate bounds share it
    d = {"fan": fan_dir, "random": random_dir}[system]
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda M: calls.append(1) or eigh(M))
    if extra == ("bounds",):
        args = ("bounds", "--matrix", d / "B.mtx")
    else:
        args = (extra[0], *_system_args(d), "--sweeps", "3", *extra[1:], tmp_path / "h.csv")
    assert run_cli(*args) == 0
    assert len(calls) == 1


def test_zero_matrix_with_nonzero_rhs_exits_1(tmp_path, capsys):
    write_matrix(tmp_path / "B.mtx", np.zeros((3, 3)))
    write_vector(tmp_path / "b.mtx", np.ones(3))
    write_vector(tmp_path / "ybar.mtx", np.zeros(3))
    assert run_cli("solve", *_system_args(tmp_path), "--strategy", "cyclic",
                   "--out", tmp_path / "h.csv") == 1
    assert capsys.readouterr().err == "error: zero matrix has no nonzero eigenvalues\n"
    assert not (tmp_path / "h.csv").exists()


def test_bounds_fan_values(fan_dir, capsys):
    assert run_cli("bounds", "--matrix", fan_dir / "B.mtx", "--omega", "1.0") == 0
    out = capsys.readouterr().out
    assert "rate_cyclic: 0.9506172839506" in out
    assert "rate_shuffled: 0.84" in out
    assert "rate_single_step_sweep: 0.00390625" in out
    assert "rate_cyclic_lowrank" not in out  # omitted without --c0


def test_bounds_c0_and_c1_overrides(fan_dir, capsys):
    assert run_cli("bounds", "--matrix", fan_dir / "B.mtx", "--omega", "1.0",
                   "--c0", "1.0", "--c1", "1.0") == 0
    out = capsys.readouterr().out
    assert "rate_cyclic_lowrank:" in out
    assert "c1: 1.0" in out
    # with c1 = 1 the preshuffled bound equals the shuffled one
    lines = dict(l.split(": ") for l in out.splitlines() if ": " in l)
    assert float(lines["rate_preshuffled"]) == pytest.approx(float(lines["rate_shuffled"]))


def test_bounds_rejects_omega_two(fan_dir):
    with pytest.raises(SystemExit) as exc:
        run_cli("bounds", "--matrix", fan_dir / "B.mtx", "--omega", "2.0")
    assert exc.value.code == 2


# ---------------------------------------------------------------- plot

def test_plot_single_run_csv(fan_dir, tmp_path):
    csv = tmp_path / "h.csv"
    run_cli("solve", "--matrix", fan_dir / "B.mtx", "--rhs", fan_dir / "b.mtx",
            "--ybar", fan_dir / "ybar.mtx", "--strategy", "cyclic",
            "--sweeps", "15", "--out", csv)
    svg = tmp_path / "p.svg"
    assert run_cli("plot", "--csv", csv, "--out", svg) == 0
    text = svg.read_text()
    assert text.count("<polyline") == 1


def test_plot_empty_csv_fails(tmp_path):
    csv = tmp_path / "e.csv"
    csv.write_text(CSV_HEADER + "\n")
    assert run_cli("plot", "--csv", csv, "--out", tmp_path / "p.svg") == 1


def test_compare_subset_rows_equal_rows_of_every_strategy(fan_dir, random_dir, tmp_path,
                                                          capsys):
    # a trial's seed is keyed by its strategy's place in TRIAL_KINDS, not in
    # --strategies, and the one stack of randomized trials leaves each
    # trial the bits it has without the other strategies
    for d in (fan_dir, random_dir):
        rows = []
        for strategies in ("singlestep,shuffled", "cyclic,shuffled,preshuffled,singlestep"):
            csv = tmp_path / "c.csv"
            assert run_cli("compare", *_system_args(d), "--strategies", strategies,
                           "--trials", "5", "--sweeps", "12", "--seed", "3",
                           "--out-csv", csv) == 0
            rows.append(csv.read_text().splitlines())
        for kind in ("single_step_random", "shuffled"):
            subset, every = ([r for r in text if r.startswith(f"{kind},")] for text in rows)
            assert len(subset) >= 5 * 2
            assert subset == every
    capsys.readouterr()


def test_plot_per_trial_redraws_compare_svg(fan_dir, tmp_path):
    rc_dir = tmp_path / "rc"
    assert run_cli("generate", "--kind", "random", "--n", "7", "--m", "5", "--complex",
                   "--seed", "3", "--out-dir", rc_dir) == 0
    cases = [(fan_dir, "cyclic,shuffled", ("--per-trial",), 2 * 3 + 2),
             (rc_dir, "cyclic,shuffled,preshuffled", (), 3)]
    for d, strategies, per_trial, polylines in cases:
        csv, cmp_svg, svg = tmp_path / "c.csv", tmp_path / "c.svg", tmp_path / "p.svg"
        assert run_cli("compare", *_system_args(d), "--strategies", strategies, "--seed", "0",
                       "--trials", "3", "--sweeps", "6", "--out-csv", csv, "--out-svg", cmp_svg,
                       *per_trial) == 0
        assert run_cli("plot", "--csv", csv, "--out", svg, *per_trial,
                       "--title", "omega=1.0 trials=3") == 0
        text = svg.read_text()
        assert text.count("<polyline") == polylines
        assert text == cmp_svg.read_text()


def test_plot_escapes_title_and_strategy_labels(tmp_path):
    # a title outside ASCII and a strategy with XML markup characters both
    # give a well-formed SVG whose text reads back as given
    from xml.etree import ElementTree
    csv, svg = tmp_path / "h.csv", tmp_path / "p.svg"
    csv.write_text(f"{CSV_HEADER}\na<b & c,0,0,1.0,1.0\na<b & c,0,1,0.5,0.5\n")
    assert run_cli("plot", "--csv", csv, "--out", svg, "--title", "\u03c9=1.2 & <x>") == 0
    texts = [t.text for t in ElementTree.parse(svg).iter("{http://www.w3.org/2000/svg}text")]
    assert "\u03c9=1.2 & <x>" in texts and "a<b & c" in texts
    assert svg.read_bytes().isascii()


def test_plot_wrong_csv_header_fails(tmp_path, capsys):
    csv = tmp_path / "w.csv"
    csv.write_text("strategy,trial,sweep,error\ncyclic,0,0,1.0\n")
    assert run_cli("plot", "--csv", csv, "--out", tmp_path / "p.svg") == 1
    assert "unexpected CSV header" in capsys.readouterr().err
    assert not (tmp_path / "p.svg").exists()


def test_malformed_input_files_name_the_file(tmp_path, capsys):
    mtx = tmp_path / "B.mtx"
    mtx.write_text("%%MatrixMarket matrix array real general\n2 2\n1.0\nabc\n0.5\n1.0\n")
    assert run_cli("bounds", "--matrix", mtx) == 1
    assert capsys.readouterr().err == (f"error: {mtx}: line 4: entry 2 of 4 is not a number: "
                                       f"'abc'\n")
    csv = tmp_path / "h.csv"
    csv.write_text("bogus\ncyclic,0,0,1.0,0.5\n")
    assert run_cli("plot", "--csv", csv, "--out", tmp_path / "p.svg") == 1
    assert capsys.readouterr().err == (f"error: {csv}: line 1: unexpected CSV header 'bogus', "
                                       f"expected {CSV_HEADER!r}\n")


@pytest.mark.parametrize("row", [
    "cyclic,0,0,1.0",                # short
    "cyclic,0,0,1.0,0.5,7",          # long
    "cyclic,zero,0,1.0,0.5",         # non-integer trial
    "cyclic,0,0,one,0.5",            # non-float error
])
def test_plot_malformed_csv_row_names_file_and_line(tmp_path, capsys, row):
    csv = tmp_path / "h.csv"
    csv.write_text(f"{CSV_HEADER}\ncyclic,0,0,2.0,1.0\n\n{row}\n")
    assert run_cli("plot", "--csv", csv, "--out", tmp_path / "p.svg") == 1
    assert capsys.readouterr().err == (f"error: {csv}: line 4: expected a row {CSV_HEADER} "
                                       f"with integer trial and sweep, got {row!r}\n")
    assert not (tmp_path / "p.svg").exists()


@pytest.mark.parametrize("lines, where", [
    # UTF-8 omega is cf 89, e acute c3 a9: the first byte is reported
    ([CSV_HEADER, "cyclic,0,0,2.0,1.0", "\u03c9,0,0,1.0,1.0"], "line 3: byte 0xcf at column 1"),
    (["strategy,trial,sweep,error_sq,r\u00e9sidual", "cyclic,0,0,2.0,1.0"],
     "line 1: byte 0xc3 at column 32"),
])
def test_plot_non_ascii_csv_byte_names_file_and_line(tmp_path, capsys, lines, where):
    csv = tmp_path / "h.csv"
    csv.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert run_cli("plot", "--csv", csv, "--out", tmp_path / "p.svg") == 1
    assert capsys.readouterr().err == f"error: {csv}: {where} is not ASCII\n"
    assert not (tmp_path / "p.svg").exists()


@pytest.mark.parametrize("row", [
    "cyclic,0,1,inf,1.0", "cyclic,0,1,nan,1.0", "cyclic,0,1,-1e-3,1.0",
    "cyclic,0,1,0.5,inf", "cyclic,0,1,0.5,nan", "cyclic,0,1,0.5,-1e-3",
])
def test_plot_non_finite_or_negative_csv_value_names_file_and_line(tmp_path, capsys, row):
    csv = tmp_path / "h.csv"
    csv.write_text(f"{CSV_HEADER}\ncyclic,0,0,2.0,1.0\n{row}\n")
    assert run_cli("plot", "--csv", csv, "--out", tmp_path / "p.svg") == 1
    assert capsys.readouterr().err == (f"error: {csv}: line 3: error_sq and residual must be "
                                       f"finite and >= 0, got {row!r}\n")
    assert not (tmp_path / "p.svg").exists()


@pytest.mark.parametrize("rows, lineno, expected", [
    (["cyclic,0,0,2.0,1.0", "cyclic,0,2,1.0,1.0"], 3, 1),  # a sweep skipped
    (["cyclic,0,1,2.0,1.0"], 2, 0),                         # a trial not starting at sweep 0
    (["cyclic,0,0,2.0,1.0", "cyclic,1,0,2.0,1.0", "cyclic,0,0,1.0,1.0"], 4, 1),  # one repeated
])
def test_plot_out_of_order_rows_name_file_and_line(tmp_path, capsys, rows, lineno, expected):
    csv = tmp_path / "h.csv"
    csv.write_text("\n".join([CSV_HEADER, *rows]) + "\n")
    assert run_cli("plot", "--csv", csv, "--out", tmp_path / "p.svg") == 1
    assert capsys.readouterr().err == (
        f"error: {csv}: line {lineno}: CSV rows out of order; sweeps must be contiguous per "
        f"trial, expected sweep {expected}, got {rows[-1]!r}\n")
    assert not (tmp_path / "p.svg").exists()


def test_bounds_rate_outside_unit_interval_exits_1(tmp_path, capsys):
    d = tmp_path / "fan32"
    assert run_cli("generate", "--kind", "fan", "--m", "32", "--out-dir", d) == 0
    capsys.readouterr()
    assert run_cli("bounds", "--matrix", d / "B.mtx", "--c1", "1e-3") == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "rate_preshuffled = " in captured.err and "falls outside [0, 1)" in captured.err


# ---------------------------------------------------------------- report layout

_SPECTRAL_KEYS = ("n", "lambda_max", "lambda_min", "spectral_norm", "rank")
_TRUNCATION_KEYS = ("truncation_method", "truncation_samples", "truncation_ratio_identity",
                    "truncation_ratio_min", "truncation_argmin_sigma", "truncation_ratio_mean",
                    "truncation_ratio_max", "expected_truncation_ratio")
_GRAM_KEYS = ("avg_lower_gram_norm", "norm_b_squared", "bound_general_ok", "psd_unit_diagonal")
_WEIGHTED_KEYS = ("avg_lower_gram_oracle", "weighted_form_max_abs_dev", "weighted_form_flagged")
_BOUNDS_KEYS = ("n", "lambda1", "kappa_bar", "rank", "omega", "rate_cyclic",
                "rate_single_step_sweep", "rate_shuffled", "rate_preshuffled", "c1", "c2")


def _check_lines(lines, expected):
    """Each line is ``key: value`` with the expected key, in order; a float
    parses back to the library value exactly, a bool reads true/false."""
    assert [line.split(": ", 1)[0] for line in lines] == [k for k, _ in expected]
    for line, (key, want) in zip(lines, expected):
        text = line.split(": ", 1)[1]
        if isinstance(want, (bool, np.bool_)):
            assert text == str(bool(want)).lower(), key
        elif isinstance(want, (float, np.floating)):
            assert float(text) == want, key
        else:
            assert text == str(want), key


def _analyze_expected(B, trials=2000, restarts=20, seed=0):
    """The analyze report of B, recomputed from the library."""
    from sorlab import analysis
    from sorlab.linalg import eigen_hermitian, hermitian, spectral_summary
    from sorlab.orderings import derived_rng, format_permutation
    B = hermitian(B)
    n = B.shape[0]
    w, _ = eigen_hermitian(B)
    norm_b = max(abs(w[0]), abs(w[-1]))  # the one ||B|| of the report
    out = [("n", n), ("lambda_max", w[0]), ("lambda_min", w[-1]), ("spectral_norm", norm_b)]
    if not B.any():
        return out + [("rank", 0), ("truncation", "zero matrix, all ratios 0"),
                      ("avg_lower_gram_norm", 0.0)]
    try:
        s = spectral_summary(B)
        out += [("rank", s.rank), ("kappa_bar", s.kappa_bar)]
        psd_unit = s.unit_diagonal
    except ValueError:
        out += [("rank", "n/a (matrix not PSD)")]
        psd_unit = False
    small = n <= analysis.EXHAUSTIVE_LIMIT
    if small:
        stats = analysis.min_truncation_exhaustive(B)
        est = [("expected_truncation_ratio", stats.mean_ratio)]
        oracle = analysis.expected_lower_gram_bruteforce(B)
    else:
        stats = analysis.min_truncation_heuristic(B, restarts, derived_rng(seed, 7))
        mean, se = analysis.expected_truncation_norm(B, trials, derived_rng(seed, 8))
        est = [("expected_truncation_ratio", mean), ("expected_truncation_ratio_se", se)]
        oracle = analysis.expected_lower_gram_closed(B)
    out += [("truncation_method", "exhaustive" if small else "heuristic"),
            ("truncation_samples", stats.samples),
            ("truncation_ratio_identity", stats.ratio_identity),
            ("truncation_ratio_min", stats.min_ratio),
            ("truncation_argmin_sigma", format_permutation(stats.argmin_sigma)),
            ("truncation_ratio_mean", stats.mean_ratio),
            ("truncation_ratio_max", stats.max_ratio)] + est
    gram = analysis.check_lower_gram_bounds(B)
    out += [("avg_lower_gram_norm", gram.norm_avg), ("norm_b_squared", norm_b ** 2),
            ("bound_general_ok", gram.general_ok), ("psd_unit_diagonal", psd_unit)]
    if psd_unit:
        out.append(("bound_psd_strict_ok", gram.psd_strict_ok))
    weighted = analysis.expected_lower_gram_weighted(B)
    dev = np.abs(oracle - weighted)
    i, j = np.unravel_index(int(np.argmax(dev)), dev.shape)
    flagged = dev[i, j] > 1e-10 * max(norm_b ** 2, 1.0)
    out += [("avg_lower_gram_oracle", "bruteforce" if small else "closed"),
            ("weighted_form_max_abs_dev", dev[i, j]), ("weighted_form_flagged", flagged)]
    if flagged:
        out.append(("weighted_form_entry", f"({i + 1},{j + 1}) "
                                           f"oracle: {float(oracle[i, j].real)!r} "
                                           f"weighted: {float(weighted[i, j].real)!r}"))
    return out


@pytest.mark.parametrize("case", ["fan", "complex6", "lowrank12", "indefinite"])
def test_analyze_norm_b_squared_is_spectral_norm_squared(fan_dir, tmp_path, capsys, case):
    # one ||B|| in the report, on the exhaustive and the heuristic path
    from helpers import random_psd_unit
    from sorlab import make_rng
    path = tmp_path / "B.mtx"
    if case == "lowrank12":
        assert run_cli("generate", "--kind", "lowrank", "--n", "12", "--r", "3",
                       "--seed", "1", "--out-dir", tmp_path / "lr") == 0
        path = tmp_path / "lr" / "B.mtx"
    else:
        write_matrix(path, {"fan": lambda: read_matrix(fan_dir / "B.mtx")[0],
                            "complex6": lambda: random_psd_unit(6, make_rng(8),
                                                                complex_entries=True),
                            "indefinite": _indefinite_matrix}[case]())
    capsys.readouterr()
    assert run_cli("analyze", "--matrix", path, "--trials", "50", "--restarts", "2") == 0
    report = dict(line.split(": ", 1) for line in capsys.readouterr().out.splitlines())
    assert report["truncation_method"] == ("heuristic" if case == "lowrank12" else "exhaustive")
    norm_b = float(report["spectral_norm"])
    assert float(report["norm_b_squared"]) == norm_b ** 2
    if case == "indefinite":
        assert report["rank"] == "n/a (matrix not PSD)"
    else:
        assert norm_b == float(report["lambda_max"])


@pytest.mark.parametrize("trials", [1, 2])
def test_analyze_prints_no_standard_error_of_one_trial(tmp_path, capsys, trials):
    # the heuristic path (n = 10): one Monte Carlo sample has no standard error
    assert run_cli("generate", "--kind", "random", "--n", "10", "--m", "10",
                   "--out-dir", tmp_path) == 0
    capsys.readouterr()
    assert run_cli("analyze", "--matrix", tmp_path / "B.mtx", "--trials", trials,
                   "--restarts", "1") == 0
    report = dict(line.split(": ", 1) for line in capsys.readouterr().out.splitlines())
    assert float(report["expected_truncation_ratio"]) > 0
    if trials == 1:
        assert "expected_truncation_ratio_se" not in report
    else:
        assert float(report["expected_truncation_ratio_se"]) > 0


def _indefinite_matrix():
    rng = np.random.default_rng(0)
    M = rng.uniform(-0.6, 0.6, (6, 6))
    B = (M + M.T) / 2
    np.fill_diagonal(B, 1.0)
    return B


@pytest.mark.parametrize("case,keys", [
    ("psd6", _SPECTRAL_KEYS + ("kappa_bar",) + _TRUNCATION_KEYS + _GRAM_KEYS
     + ("bound_psd_strict_ok",) + _WEIGHTED_KEYS + ("weighted_form_entry",)),
    ("psd10", _SPECTRAL_KEYS + ("kappa_bar",) + _TRUNCATION_KEYS
     + ("expected_truncation_ratio_se",) + _GRAM_KEYS + ("bound_psd_strict_ok",)
     + _WEIGHTED_KEYS + ("weighted_form_entry",)),
    ("indefinite", _SPECTRAL_KEYS + _TRUNCATION_KEYS + _GRAM_KEYS + _WEIGHTED_KEYS
     + ("weighted_form_entry",)),
    ("zero", _SPECTRAL_KEYS + ("truncation", "avg_lower_gram_norm")),
    ("flagged2", _SPECTRAL_KEYS + ("kappa_bar",) + _TRUNCATION_KEYS + _GRAM_KEYS
     + ("bound_psd_strict_ok",) + _WEIGHTED_KEYS + ("weighted_form_entry",)),
    ("identity", _SPECTRAL_KEYS + ("kappa_bar",) + _TRUNCATION_KEYS + _GRAM_KEYS
     + ("bound_psd_strict_ok",) + _WEIGHTED_KEYS),
])
def test_analyze_report_layout(tmp_path, capsys, case, keys):
    from helpers import random_psd_unit
    from sorlab import make_rng
    B = {"psd6": lambda: random_psd_unit(6, make_rng(8), m=3),
         "psd10": lambda: random_psd_unit(10, make_rng(1)),
         "indefinite": _indefinite_matrix,
         "zero": lambda: np.zeros((3, 3)),
         "flagged2": lambda: np.array([[1.0, 0.5], [0.5, 1.0]]),
         "identity": lambda: np.eye(4)}[case]()
    write_matrix(tmp_path / "B.mtx", B)
    assert run_cli("analyze", "--matrix", tmp_path / "B.mtx",
                   "--trials", "50", "--restarts", "2", "--seed", "3") == 0
    expected = _analyze_expected(read_matrix(tmp_path / "B.mtx")[0], 50, 2, 3)
    assert tuple(k for k, _ in expected) == keys
    _check_lines(capsys.readouterr().out.splitlines(), expected)


def _bounds_expected(report):
    keys = _BOUNDS_KEYS
    if report.c0 is not None:
        keys = keys[:6] + ("rate_cyclic_lowrank", "c0") + keys[6:]
    return [(k, getattr(report, k)) for k in keys]


@pytest.mark.parametrize("extra", [(), ("--c0", "1.0", "--c1", "2.5", "--omega", "1.2")])
def test_bounds_report_layout(fan_dir, capsys, extra):
    from sorlab import analysis
    from sorlab.linalg import hermitian, spectral_summary
    assert run_cli("bounds", "--matrix", fan_dir / "B.mtx", *extra) == 0
    opts = dict(zip(extra[::2], extra[1::2]))
    report = analysis.evaluate_rate_bounds(
        spectral_summary(hermitian(read_matrix(fan_dir / "B.mtx")[0])),
        float(opts.get("--omega", 1.0)),
        c0=float(opts["--c0"]) if "--c0" in opts else None,
        c1=float(opts.get("--c1", analysis.C1_DEFAULT)))
    expected = _bounds_expected(report)
    assert ("rate_cyclic_lowrank" in dict(expected)) == bool(extra)
    _check_lines(capsys.readouterr().out.splitlines(), expected)


@pytest.fixture()
def random_dir(tmp_path):
    d = tmp_path / "rnd"
    assert run_cli("generate", "--kind", "random", "--n", "6", "--m", "4", "--seed", "1",
                   "--out-dir", d) == 0
    return d


def _run_library(d, kind, seed, trials, max_sweeps):
    """The histories of run_trials as the CLI calls it, with `trials` trials."""
    from sorlab import SolverConfig, run_trials
    from sorlab.linalg import hermitian
    B = hermitian(read_matrix(d / "B.mtx")[0])
    b, ybar = read_vector(d / "b.mtx")[0], read_vector(d / "ybar.mtx")[0]
    config = SolverConfig(max_sweeps=max_sweeps, seed=seed)
    return run_trials(B, b, np.zeros(6), ybar, [kind], trials, config)[kind]


def test_solve_report_layout(random_dir, tmp_path, capsys):
    from sorlab import empirical_rate
    out = tmp_path / "s.csv"
    assert run_cli("solve", *_system_args(random_dir), "--strategy", "shuffled",
                   "--sweeps", "8", "--seed", "4", "--out", out) == 0
    h, = _run_library(random_dir, "shuffled", 4, 1, 8)
    _check_lines(capsys.readouterr().out.splitlines(), [
        ("strategy", "shuffled"), ("sweeps", h.sweeps), ("final_error_sq", h.errors_sq[-1]),
        ("empirical_rate", empirical_rate(h, min(10, h.sweeps - 1))), ("csv", out)])


def test_compare_report_layout(random_dir, tmp_path, capsys):
    from sorlab import analysis, empirical_rate, mean_error_curve
    from sorlab.linalg import hermitian, spectral_summary
    csv, svg = tmp_path / "c.csv", tmp_path / "c.svg"
    assert run_cli("compare", *_system_args(random_dir), "--strategies", "cyclic,shuffled",
                   "--trials", "2", "--sweeps", "5", "--seed", "3",
                   "--out-csv", csv, "--out-svg", svg) == 0
    lines = capsys.readouterr().out.splitlines()
    report = analysis.evaluate_rate_bounds(
        spectral_summary(hermitian(read_matrix(random_dir / "B.mtx")[0])), 1.0)
    expected = _bounds_expected(report) + [("trials", 2)]
    means = []
    for kind in ("cyclic", "shuffled"):
        mean = mean_error_curve(h.errors_sq for h in _run_library(random_dir, kind, 3, 2, 5))
        means.append(mean)
        expected += [(f"empirical_rate[{kind}]", empirical_rate(mean, min(10, len(mean) - 2))),
                     (f"final_mean_error_sq[{kind}]", mean[-1])]
    table = ["mean_error_sq per sweep:", "sweep,cyclic,shuffled"] + [
        f"{k},{float(means[0][k])!r},{float(means[1][k])!r}" for k in range(6)]
    head = len(expected)
    _check_lines(lines[:head], expected)
    assert lines[head:head + len(table)] == table
    _check_lines(lines[head + len(table):], [("svg", svg), ("csv", csv)])


def test_one_sweep_rate_is_the_one_ratio(random_dir, tmp_path, capsys):
    csv = tmp_path / "s.csv"
    assert run_cli("solve", *_system_args(random_dir), "--strategy", "cyclic",
                   "--sweeps", "1", "--out", csv) == 0
    (h,), = read_history_csv(csv).values()
    e0, e1 = h.errors_sq.tolist()
    _check_lines(capsys.readouterr().out.splitlines()[3:4], [("empirical_rate", e1 / e0)])
    assert e1 / e0 > 0
    assert run_cli("compare", *_system_args(random_dir), "--strategies", "cyclic",
                   "--sweeps", "1", "--out-csv", csv) == 0
    printed = capsys.readouterr().out.splitlines()
    _check_lines([l for l in printed if l.startswith("empirical_rate[")],
                 [("empirical_rate[cyclic]", e1 / e0)])
