"""End-to-end acceptance suite.

Each test exercises one numbered criterion at its stated tolerance and
prints a single pass/fail line; run with ``pytest -s tests/test_acceptance.py``
to see them. All randomness is derived from fixed seeds, so the suite is
fully deterministic apart from the Monte Carlo criteria, whose statistical
slack is part of the stated criterion.
"""

import contextlib
import io
import math
import time

import numpy as np
import pytest
from scipy.linalg import solve_triangular

import sorlab
from sorlab import (
    SolverConfig,
    cyclic,
    derive_seed,
    evaluate_rate_bounds,
    expected_contraction,
    expected_lower_gram_bruteforce,
    expected_lower_gram_closed,
    expected_lower_gram_weighted,
    fan_problem,
    kaczmarz_sweep,
    low_rank_problem,
    make_rng,
    min_truncation_exhaustive,
    min_truncation_heuristic,
    random_factor_problem,
    run_solver,
    shuffled,
    sor_sweep,
    spectral_norm,
    spectral_summary,
    strict_lower,
    truncation_ratio,
)
from sorlab.cli import main as cli_main
from sorlab.mmio import write_matrix
from helpers import random_hermitian, random_psd_unit


def _report(num, name, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {num:>02} [{tag}] {name}{suffix}")
    assert ok, f"criterion {num} failed: {name}{suffix}"


def _run_cli(args):
    """Run the CLI in-process, returning (exit code, captured stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli_main([str(a) for a in args])
    return code, buf.getvalue()


@pytest.fixture(scope="module")
def hermitian_corpus():
    """216 random Hermitian matrices, n in 2..7, real and complex, half of
    them PSD with unit diagonal."""
    corpus = []
    for i in range(216):
        n = 2 + i % 6
        rng = make_rng(derive_seed(1000, i))
        cplx = (i // 6) % 2 == 0
        psd = (i // 12) % 2 == 0
        B = random_psd_unit(n, rng, cplx) if psd else random_hermitian(n, rng, cplx)
        corpus.append((B, psd))
    return corpus


def test_criterion_01_oracle_equivalence(hermitian_corpus):
    start = time.monotonic()
    worst = 0.0
    for B, _ in hermitian_corpus:
        scale = max(spectral_norm(B) ** 2, 1e-300)
        dev = np.max(np.abs(expected_lower_gram_closed(B)
                            - expected_lower_gram_bruteforce(B))) / scale
        worst = max(worst, dev)
    elapsed = time.monotonic() - start
    ok = worst <= 1e-12 and elapsed < 60.0
    _report(1, "closed form == exhaustive average on 216 matrices",
            ok, f"worst scaled dev {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_norm_bounds_and_weighted_flag(hermitian_corpus, tmp_path):
    violations = 0
    for B, psd in hermitian_corpus:
        nb2 = spectral_norm(B) ** 2
        ne = spectral_norm(expected_lower_gram_closed(B))
        if ne > 4.0 * nb2 + 1e-12 * max(nb2, 1.0):
            violations += 1
        if psd and not (ne < nb2 - 1e-10 * nb2):
            violations += 1

    # the weighted closed-form candidate must be flagged on the n=2 instance
    B2 = np.array([[1.0, 0.5], [0.5, 1.0]])
    oracle = expected_lower_gram_bruteforce(B2)
    weighted = expected_lower_gram_weighted(B2)
    formula_flagged = (abs(oracle[0, 0] - 0.125) <= 1e-12 and weighted[0, 0] == 0.0)
    write_matrix(tmp_path / "B2.mtx", B2)
    code, out = _run_cli(["analyze", "--matrix", tmp_path / "B2.mtx"])
    report_flagged = (code == 0
                      and "weighted_form_flagged: true" in out
                      and "(1,1) oracle: 0.125 weighted: 0.0" in out)
    ok = violations == 0 and formula_flagged and report_flagged
    _report(2, "||E[LL*]|| <= 4||B||^2, strict < ||B||^2 on PSD, weighted form flagged",
            ok, f"{violations} violations")


def test_criterion_03_fan_identities():
    ok = True
    for m in (1, 2, 4, 8, 16):
        inst = fan_problem(m)
        gram_dev = np.max(np.abs(inst.A.conj().T @ inst.A - m * np.eye(2)))
        s = spectral_summary(inst.B)
        ok &= gram_dev <= 1e-12 * max(1.0, m)
        ok &= abs(s.lambda1 - m) <= 1e-8 * m
        ok &= s.rank == 2
        ok &= abs(s.kappa_bar - 1.0) <= 1e-8
    _report(3, "fan identities A*A = mI, lambda1 = m, rank 2, kappa = 1", bool(ok))


def test_criterion_04_fan_cyclic_rate():
    start = time.monotonic()
    inst = fan_problem(4)
    n = inst.n
    # start inside the contraction-invariant subspace (I + L)^{-1} Ran(B):
    # the iterate then decays to zero, so every sweep stays relative-accurate
    z = np.cos(np.arange(1, n + 1))
    y0 = solve_triangular(np.eye(n) + strict_lower(inst.B), inst.B @ z,
                          lower=True, unit_diagonal=True)
    cfg = SolverConfig(omega=1.0, max_sweeps=40, target_error_sq=0.0, seed=0)
    h = run_solver(inst.B, inst.b, y0, inst.ybar, cfg, cyclic())
    ratios = h.errors_sq[1:] / h.errors_sq[:-1]
    window = ratios[4:40]  # per-sweep ratios for sweeps 5..40
    gmean = float(np.exp(np.mean(np.log(window))))
    constant = float(np.max(np.abs(window / gmean - 1.0)))
    exponent = math.log(gmean) / math.log(math.cos(math.pi / 8))
    nearest = round(exponent)
    elapsed = time.monotonic() - start
    ok = (constant <= 1e-6 and abs(exponent - nearest) <= 1e-6
          and nearest == 16 and elapsed < 1.0)
    # measured exponent matches 4m = 16; the candidate 2m = 8 does not
    _report(4, "fan cyclic squared-error ratio == cos(pi/8)^p with integer p",
            ok, f"p = {exponent:.9f} -> {nearest} (candidates: 2m=8, 4m=16); "
                f"ratio spread {constant:.1e}, {elapsed:.2f}s")


def test_criterion_05_kaczmarz_sor_equivalence():
    worst = 0.0
    for i in range(20):
        rng = make_rng(derive_seed(2000, i))
        n = 2 + (5 * i) % 15   # up to 16
        m = 2 + (3 * i) % 15
        cplx = i % 3 == 0
        omega = (0.7, 1.0, 1.3)[i % 3]
        inst = random_factor_problem(n, m, cplx, rng)
        y = np.zeros(n, dtype=inst.B.dtype)
        x = inst.A.conj().T @ y
        for _ in range(30):
            order = rng.permutation(n)
            y = sor_sweep(inst.B, inst.b, y, omega, order)
            x = kaczmarz_sweep(inst.A, inst.b, x, omega, order)
            worst = max(worst, float(np.linalg.norm(inst.A.conj().T @ y - x)))
    _report(5, "Kaczmarz iterates == A* (SOR iterates) under matched orders",
            worst <= 1e-10, f"worst deviation {worst:.2e}")


def test_criterion_06_shuffled_envelope_montecarlo():
    start = time.monotonic()
    trials, sweeps = 500, 50
    factors = [16, 24, 12, 20, 16, 32, 14, 24, 18, 16]
    violations = 0
    checked = 0
    for i, m in enumerate(factors):
        rng = make_rng(derive_seed(3000, i))
        inst = random_factor_problem(16, m, complex_entries=(i == 9), rng=rng)
        y0 = np.zeros(16, dtype=inst.B.dtype)
        for j, omega in enumerate((0.5, 1.0, 1.5)):
            rho = evaluate_rate_bounds(spectral_summary(inst.B), omega).rate_shuffled
            curves = np.empty((trials, sweeps + 1))
            for t in range(trials):
                cfg = SolverConfig(omega=omega, max_sweeps=sweeps,
                                   target_error_sq=0.0,
                                   seed=derive_seed(3000, i, j, t))
                h = run_solver(inst.B, inst.b, y0, inst.ybar, cfg, shuffled())
                errs = h.errors_sq
                curves[t, :len(errs)] = errs
                curves[t, len(errs):] = errs[-1]
            mean = curves.mean(axis=0)
            se = curves.std(axis=0, ddof=0) / np.sqrt(trials)
            e0 = mean[0]
            for k in range(sweeps + 1):
                if mean[k] == 0.0:
                    continue
                envelope = (rho ** k) * e0 * (1.0 + 3.0 * se[k] / mean[k])
                checked += 1
                if mean[k] > envelope:
                    violations += 1
    elapsed = time.monotonic() - start
    ok = violations == 0 and elapsed < 300.0
    _report(6, "shuffled Monte Carlo mean below the expected-rate envelope",
            ok, f"{checked} points, {violations} violations, {elapsed:.0f}s")


def test_criterion_07_exact_expected_contraction():
    instances = [fan_problem(1).B, fan_problem(2).B, fan_problem(3).B]
    for i, n in enumerate((2, 3, 4, 5, 6, 7)):
        instances.append(random_psd_unit(n, make_rng(derive_seed(4000, i)), i % 2 == 0))
    instances.append(low_rank_problem(6, 2, False, make_rng(derive_seed(4000, 60))).B)
    violations = 0
    worst_margin = np.inf
    for B in instances:
        for omega in (0.5, 1.0, 1.5):
            measured = expected_contraction(B, omega)
            bound = evaluate_rate_bounds(spectral_summary(B), omega).rate_shuffled
            worst_margin = min(worst_margin, bound - measured)
            if measured > bound + 1e-10:
                violations += 1
    _report(7, "exact expected contraction <= shuffled-rate bound",
            violations == 0,
            f"{len(instances) * 3} cases, smallest margin {worst_margin:.2e}")


def test_criterion_08_log_truncation_bound():
    violations = 0
    for i in range(100):
        rng = make_rng(derive_seed(5000, i))
        n = 4 + i % 13  # 4..16
        B = random_psd_unit(n, rng, complex_entries=i % 2 == 0)
        bound = 0.5 * math.floor(math.log2(2 * n))
        for _ in range(20):
            sigma = rng.permutation(n)
            if truncation_ratio(B, sigma) > bound + 1e-12:
                violations += 1
    _report(8, "||L_sigma|| <= (1/2) floor(log2 2n) ||B|| on 100 x 20 samples",
            violations == 0, f"{violations} violations")


def test_criterion_09_heuristic_matches_exhaustive():
    matches = 0
    beats = 0
    for i in range(50):
        n = 2 + i % 7  # 2..8
        B = random_psd_unit(n, make_rng(derive_seed(6000, i)), i % 4 == 0)
        exact = min_truncation_exhaustive(B)
        heur = min_truncation_heuristic(B, 20, make_rng(derive_seed(6001, i)))
        if heur.min_ratio < exact.min_ratio - 1e-12:
            beats += 1
        if abs(heur.min_ratio - exact.min_ratio) <= 1e-9:
            matches += 1
    ok = beats == 0 and matches >= 40
    _report(9, "heuristic search matches exhaustive minimum >= 80%, never beats it",
            ok, f"{matches}/50 matches, {beats} impossible wins")


def test_criterion_10_compare_reproducibility(tmp_path):
    gen_dir = tmp_path / "inst"
    code, _ = _run_cli(["generate", "--kind", "random", "--n", "6", "--m", "6",
                        "--seed", "11", "--out-dir", gen_dir])
    assert code == 0
    outputs = []
    for run in ("r1", "r2"):
        d = tmp_path / run
        d.mkdir()
        code, _ = _run_cli([
            "compare",
            "--matrix", gen_dir / "B.mtx",
            "--rhs", gen_dir / "b.mtx",
            "--ybar", gen_dir / "ybar.mtx",
            "--strategies", "cyclic,shuffled,preshuffled,singlestep",
            "--trials", "5", "--sweeps", "15", "--seed", "9",
            "--out-csv", d / "cmp.csv",
            "--out-svg", d / "cmp.svg",
            "--per-trial",
        ])
        assert code == 0
        outputs.append(((d / "cmp.csv").read_bytes(), (d / "cmp.svg").read_bytes()))
    ok = outputs[0][0] == outputs[1][0] and outputs[0][1] == outputs[1][1]
    _report(10, "compare twice with same seed: byte-identical CSV and SVG", ok)


def test_bound_formulas_hand_substitution():
    # spec note criterion: fan m=4, omega=1 hand-substituted values to 1e-12
    rep = evaluate_rate_bounds(spectral_summary(fan_problem(4).B), 1.0)
    checks = {
        "rate_cyclic": (rep.rate_cyclic, 1.0 - 4.0 / 81.0),
        "rate_shuffled": (rep.rate_shuffled, 0.84),
        "rate_single_step_sweep": (rep.rate_single_step_sweep, 0.00390625),
    }
    worst = max(abs(got - want) for got, want in checks.values())
    ok = worst <= 1e-12
    tag = "PASS" if ok else "FAIL"
    print(f"note        [{tag}] bound formulas match hand-substituted fan values "
          f"(worst dev {worst:.1e})")
    assert ok
