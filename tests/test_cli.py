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
    assert open(out).readline().strip() == CSV_HEADER


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
