import numpy as np
import pytest

from sorlab.cli import main, read_history_csv, CSV_HEADER
from sorlab.mmio import read_matrix, read_vector, write_matrix, write_vector


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
    rows = read_history_csv(out)
    assert len(rows) == 21
    assert out.read_text().splitlines()[0] == CSV_HEADER


def test_solve_identity_converges_at_first_sweep(identity_dir, tmp_path):
    out = tmp_path / "h.csv"
    assert run_cli("solve", "--matrix", identity_dir / "B.mtx",
                   "--rhs", identity_dir / "b.mtx", "--ybar", identity_dir / "ybar.mtx",
                   "--strategy", "cyclic", "--out", out) == 0
    rows = read_history_csv(out)
    assert rows[1][3] == 0.0  # error_sq hits 0 at sweep 1
    assert len(rows) == 2


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
    rows = read_history_csv(out)
    assert rows[0][3] == pytest.approx(1.0)  # |e2|_B^2 = B[2,2] = 1


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


def test_solve_extra_vector_entries_exit_1(fan_dir, tmp_path, capsys):
    with open(fan_dir / "b.mtx", "a", encoding="ascii") as fh:
        fh.write("1.0\n")
    assert run_cli("solve", *_system_args(fan_dir), "--strategy", "cyclic",
                   "--out", tmp_path / "h.csv") == 1
    assert "b.mtx: found more than 8 expected entries" in capsys.readouterr().err


# ---------------------------------------------------------------- compare

def test_compare_summary_and_trial0_matches_solve(fan_dir, tmp_path, capsys):
    solve_csv = tmp_path / "solve.csv"
    run_cli("solve", "--matrix", fan_dir / "B.mtx", "--rhs", fan_dir / "b.mtx",
            "--ybar", fan_dir / "ybar.mtx", "--strategy", "shuffled",
            "--sweeps", "10", "--seed", "5", "--out", solve_csv)
    capsys.readouterr()
    cmp_csv = tmp_path / "cmp.csv"
    code = run_cli("compare", "--matrix", fan_dir / "B.mtx", "--rhs", fan_dir / "b.mtx",
                   "--ybar", fan_dir / "ybar.mtx", "--strategies", "cyclic,shuffled",
                   "--trials", "3", "--sweeps", "10", "--seed", "5", "--out-csv", cmp_csv)
    assert code == 0
    printed = capsys.readouterr().out
    assert "rate_shuffled: 0.84" in printed
    assert "empirical_rate[cyclic]:" in printed
    assert "mean_error_sq per sweep:" in printed
    rows = read_history_csv(cmp_csv)
    solve_rows = read_history_csv(solve_csv)
    shuffled_trial0 = [r for r in rows if r[0] == "shuffled" and r[1] == 0]
    assert shuffled_trial0 == solve_rows


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


def test_analyze_decomposes_psd_matrix_twice(fan_dir, monkeypatch):
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda M: calls.append(1) or eigh(M))
    assert run_cli("analyze", "--matrix", fan_dir / "B.mtx") == 0
    assert len(calls) == 2  # spectral summary, and the PSD test of the Gram bounds


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


def test_plot_per_trial_redraws_compare_svg(fan_dir, tmp_path):
    csv, cmp_svg, svg = tmp_path / "c.csv", tmp_path / "c.svg", tmp_path / "p.svg"
    assert run_cli("compare", *_system_args(fan_dir), "--strategies", "cyclic,shuffled",
                   "--trials", "3", "--sweeps", "6", "--out-csv", csv, "--out-svg", cmp_svg,
                   "--per-trial") == 0
    assert run_cli("plot", "--csv", csv, "--out", svg, "--per-trial",
                   "--title", "omega=1.0 trials=3") == 0
    text = svg.read_text()
    assert text.count("<polyline") == 2 * 3 + 2
    assert text == cmp_svg.read_text()


def test_plot_wrong_csv_header_fails(tmp_path, capsys):
    csv = tmp_path / "w.csv"
    csv.write_text("strategy,trial,sweep,error\ncyclic,0,0,1.0\n")
    assert run_cli("plot", "--csv", csv, "--out", tmp_path / "p.svg") == 1
    assert "unexpected CSV header" in capsys.readouterr().err
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
    out = [("n", n), ("lambda_max", w[0]), ("lambda_min", w[-1]),
           ("spectral_norm", max(abs(w[0]), abs(w[-1])))]
    if not B.any():
        return out + [("rank", 0), ("truncation", "zero matrix, all ratios 0"),
                      ("avg_lower_gram_norm", 0.0)]
    try:
        s = spectral_summary(B)
        out += [("rank", s.rank), ("kappa_bar", s.kappa_bar)]
    except ValueError:
        out += [("rank", "n/a (matrix not PSD)")]
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
    out += [("avg_lower_gram_norm", gram.norm_avg), ("norm_b_squared", gram.norm_b ** 2),
            ("bound_general_ok", gram.general_ok), ("psd_unit_diagonal", gram.psd_unit_diagonal)]
    if gram.psd_strict_ok is not None:
        out.append(("bound_psd_strict_ok", gram.psd_strict_ok))
    weighted = analysis.expected_lower_gram_weighted(B)
    dev = np.abs(oracle - weighted)
    i, j = np.unravel_index(int(np.argmax(dev)), dev.shape)
    flagged = dev[i, j] > 1e-10 * max(gram.norm_b ** 2, 1.0)
    out += [("avg_lower_gram_oracle", "bruteforce" if small else "closed"),
            ("weighted_form_max_abs_dev", dev[i, j]), ("weighted_form_flagged", flagged)]
    if flagged:
        out.append(("weighted_form_entry", f"({i + 1},{j + 1}) "
                                           f"oracle: {float(oracle[i, j].real)!r} "
                                           f"weighted: {float(weighted[i, j].real)!r}"))
    return out


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
    from sorlab.linalg import hermitian
    assert run_cli("bounds", "--matrix", fan_dir / "B.mtx", *extra) == 0
    opts = dict(zip(extra[::2], extra[1::2]))
    report = analysis.evaluate_rate_bounds(
        hermitian(read_matrix(fan_dir / "B.mtx")[0]), float(opts.get("--omega", 1.0)),
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


def _run_library(d, kind, seed, trial, max_sweeps):
    """run_solver as the CLI runs it: its derived seeds are
    (base, strategy index, trial, 0), the index being 0 for cyclic, 1 for shuffled."""
    from sorlab import SolverConfig, cyclic, derive_seed, shuffled, run_solver
    from sorlab.linalg import hermitian
    B = hermitian(read_matrix(d / "B.mtx")[0])
    b, ybar = read_vector(d / "b.mtx")[0], read_vector(d / "ybar.mtx")[0]
    index, strategy = {"cyclic": (0, cyclic()), "shuffled": (1, shuffled())}[kind]
    config = SolverConfig(max_sweeps=max_sweeps, seed=derive_seed(seed, index, trial, 0))
    return run_solver(B, b, np.zeros(6), ybar, config, strategy)


def test_solve_report_layout(random_dir, tmp_path, capsys):
    from sorlab import empirical_rate
    out = tmp_path / "s.csv"
    assert run_cli("solve", *_system_args(random_dir), "--strategy", "shuffled",
                   "--sweeps", "8", "--seed", "4", "--out", out) == 0
    h = _run_library(random_dir, "shuffled", 4, 0, 8)
    _check_lines(capsys.readouterr().out.splitlines(), [
        ("strategy", "shuffled"), ("sweeps", h.sweeps), ("final_error_sq", h.errors_sq[-1]),
        ("empirical_rate", empirical_rate(h, min(10, h.sweeps - 1))), ("csv", out)])


def test_compare_report_layout(random_dir, tmp_path, capsys):
    from sorlab import analysis, empirical_rate, mean_error_curve
    from sorlab.linalg import hermitian
    csv, svg = tmp_path / "c.csv", tmp_path / "c.svg"
    assert run_cli("compare", *_system_args(random_dir), "--strategies", "cyclic,shuffled",
                   "--trials", "2", "--sweeps", "5", "--seed", "3",
                   "--out-csv", csv, "--out-svg", svg) == 0
    lines = capsys.readouterr().out.splitlines()
    report = analysis.evaluate_rate_bounds(hermitian(read_matrix(random_dir / "B.mtx")[0]), 1.0)
    expected = _bounds_expected(report) + [("trials", 2)]
    means = []
    for kind in ("cyclic", "shuffled"):
        mean = mean_error_curve(_run_library(random_dir, kind, 3, t, 5).errors_sq
                                for t in range(2))
        means.append(mean)
        expected += [(f"empirical_rate[{kind}]", empirical_rate(mean, min(10, len(mean) - 2))),
                     (f"final_mean_error_sq[{kind}]", mean[-1])]
    table = ["mean_error_sq per sweep:", "sweep,cyclic,shuffled"] + [
        f"{k},{float(means[0][k])!r},{float(means[1][k])!r}" for k in range(6)]
    head = len(expected)
    _check_lines(lines[:head], expected)
    assert lines[head:head + len(table)] == table
    _check_lines(lines[head + len(table):], [("svg", svg), ("csv", csv)])
