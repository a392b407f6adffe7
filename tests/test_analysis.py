import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sorlab import (
    C1_DEFAULT,
    check_lower_gram_bounds,
    error_iteration_matrix,
    evaluate_rate_bounds,
    expected_contraction,
    expected_lower_gram_bruteforce,
    expected_lower_gram_closed,
    expected_lower_gram_montecarlo,
    expected_lower_gram_weighted,
    expected_truncation_norm,
    fan_problem,
    low_rank_problem,
    make_rng,
    min_truncation_exhaustive,
    min_truncation_heuristic,
    permute_conjugate,
    spectral_norm,
    spectral_summary,
    truncation_ratio,
)
from sorlab import analysis
from sorlab.analysis import _batched_truncation_norms, _lower_gram_terms, _perm_batches, _swap_bounds
from helpers import random_hermitian, random_psd_unit


def _two_by_two(h=0.5):
    return np.array([[1.0, h], [np.conj(h), 1.0]])


# ---------------------------------------------------------------- reordering average

def test_bruteforce_identity_matrix():
    assert not expected_lower_gram_bruteforce(np.eye(5)).any()


def test_bruteforce_n2_hand_enumeration():
    # identity ordering contributes diag(0, 0.25), the swap diag(0.25, 0)
    E = expected_lower_gram_bruteforce(_two_by_two())
    assert np.allclose(E, np.diag([0.125, 0.125]), atol=1e-15)


def test_bruteforce_result_hermitian_psd():
    B = random_hermitian(4, make_rng(2), complex_entries=True)
    E = expected_lower_gram_bruteforce(B)
    assert np.allclose(E, E.conj().T, atol=1e-14)
    assert np.linalg.eigvalsh(E).min() >= -1e-12


def test_bruteforce_size_guard():
    with pytest.raises(ValueError, match="montecarlo"):
        expected_lower_gram_bruteforce(np.eye(9))


@given(n=st.integers(2, 6), seed=st.integers(0, 10**6), cplx=st.booleans(),
       psd=st.booleans())
@settings(max_examples=60, deadline=None)
def test_closed_form_matches_bruteforce(n, seed, cplx, psd):
    rng = make_rng(seed)
    B = random_psd_unit(n, rng, cplx) if psd else random_hermitian(n, rng, cplx)
    oracle = expected_lower_gram_bruteforce(B)
    closed = expected_lower_gram_closed(B)
    scale = max(spectral_norm(B) ** 2, 1.0)
    assert np.max(np.abs(oracle - closed)) <= 1e-12 * scale


def test_closed_form_identity():
    assert not expected_lower_gram_closed(np.eye(4)).any()


def test_weighted_form_disagrees_at_n2():
    B = _two_by_two()
    weighted = expected_lower_gram_weighted(B)
    assert np.allclose(weighted, [[0.0, 0.0], [0.0, 0.125]], atol=1e-15)
    oracle = expected_lower_gram_bruteforce(B)
    assert np.max(np.abs(oracle - weighted)) == pytest.approx(0.125, abs=1e-15)


def test_weighted_form_identity():
    assert not expected_lower_gram_weighted(np.eye(3)).any()


def test_montecarlo_single_identity_permutation_term():
    B = _two_by_two(0.7)
    term = _lower_gram_terms(B, np.arange(2)[None, :])[0]
    L = np.tril(B, -1)
    assert np.allclose(term, L @ L.conj().T, atol=1e-15)
    # orders that are not their own inverse tell sigma from sigma^{-1}
    B3 = random_hermitian(3, make_rng(8))
    B5 = random_hermitian(5, make_rng(9), complex_entries=True)
    for B, sigma in ((B3, [1, 2, 0]), (B3, [2, 0, 1]), (B5, make_rng(10).permutation(5))):
        P = np.eye(len(sigma))[sigma]  # P[i, sigma[i]] = 1, so P B P* = permute_conjugate
        L = np.tril(permute_conjugate(B, sigma), -1)
        term = _lower_gram_terms(B, np.asarray(sigma)[None, :])[0]
        assert np.allclose(term, P.T @ L @ L.conj().T @ P, rtol=0, atol=1e-14)


def test_montecarlo_identity_matrix():
    mean, se = expected_lower_gram_montecarlo(np.eye(4), 10, make_rng(0))
    assert not mean.any() and not se.any()


def test_montecarlo_converges_to_closed_form():
    B = random_hermitian(5, make_rng(31), complex_entries=True)
    mean, se = expected_lower_gram_montecarlo(B, 100_000, make_rng(17))
    closed = expected_lower_gram_closed(B)
    # allow 5 standard errors entrywise, with a floor for zero-variance entries
    assert np.all(np.abs(mean - closed) <= 5 * se + 1e-12)
    # any sampled average stays Hermitian PSD (average of Gram terms)
    assert np.allclose(mean, mean.conj().T, atol=1e-14)
    assert np.linalg.eigvalsh((mean + mean.conj().T) / 2).min() >= -1e-12


# ---------------------------------------------------------------- norm bounds of the average

def test_gram_bounds_identity():
    rep = check_lower_gram_bounds(np.eye(3))
    assert rep.norm_avg == 0.0
    assert rep.general_ok and rep.psd_unit_diagonal and rep.psd_strict_ok
    assert rep.h_general_ok and rep.h_psd_ok


def test_gram_bounds_rank_one_ones():
    rep = check_lower_gram_bounds(np.array([[1.0, 1.0], [1.0, 1.0]]))
    assert rep.norm_avg == pytest.approx(0.5, abs=1e-14)
    assert rep.norm_b == pytest.approx(2.0)
    assert rep.general_ok and rep.psd_strict_ok


@given(n=st.integers(2, 10), seed=st.integers(0, 10**6), cplx=st.booleans())
@settings(max_examples=50, deadline=None)
def test_gram_bounds_random_psd(n, seed, cplx):
    rep = check_lower_gram_bounds(random_psd_unit(n, make_rng(seed), cplx))
    assert rep.psd_unit_diagonal
    assert rep.general_ok and rep.psd_strict_ok and rep.h_general_ok and rep.h_psd_ok


@given(n=st.integers(2, 10), seed=st.integers(0, 10**6), cplx=st.booleans())
@settings(max_examples=50, deadline=None)
def test_gram_bounds_general_hermitian(n, seed, cplx):
    rep = check_lower_gram_bounds(random_hermitian(n, make_rng(seed), cplx))
    assert rep.general_ok and rep.h_general_ok


# ---------------------------------------------------------------- truncation statistics

def test_truncation_ratio_identity_matrix_and_two_by_two():
    assert truncation_ratio(np.eye(4), np.arange(4)) == 0.0
    B = _two_by_two(0.5)
    expect = 0.5 / spectral_norm(B)
    assert truncation_ratio(B, [0, 1]) == pytest.approx(expect, rel=1e-12)
    assert truncation_ratio(B, [1, 0]) == pytest.approx(expect, rel=1e-12)


def test_truncation_ratio_zero_matrix():
    with pytest.raises(ValueError, match="zero matrix"):
        truncation_ratio(np.zeros((3, 3)), np.arange(3))


def test_truncation_ratio_rejects_non_permutation():
    B = random_psd_unit(6, make_rng(12))
    with pytest.raises(ValueError, match="not a permutation"):
        truncation_ratio(B, [0, 0, 1, 2, 3, 4])
    with pytest.raises(ValueError, match="length"):
        truncation_ratio(B, [0, 1, 2])


def test_truncation_ratio_matches_permuted_strict_lower():
    B = random_hermitian(6, make_rng(13), complex_entries=True)
    sigma = make_rng(14).permutation(6)
    expect = spectral_norm(np.tril(permute_conjugate(B, sigma), -1)) / spectral_norm(B)
    assert truncation_ratio(B, sigma) == expect


@given(n=st.integers(2, 12), seed=st.integers(0, 10**6), cplx=st.booleans())
@settings(max_examples=40, deadline=None)
def test_truncation_log_bound(n, seed, cplx):
    rng = make_rng(seed)
    B = random_psd_unit(n, rng, cplx)
    bound = 0.5 * np.floor(np.log2(2 * n))
    for _ in range(5):
        sigma = rng.permutation(n)
        assert truncation_ratio(B, sigma) <= bound + 1e-12


def test_exhaustive_identity_matrix_stats():
    stats = min_truncation_exhaustive(np.eye(3))
    assert stats.min_ratio == stats.mean_ratio == stats.max_ratio == 0.0
    assert stats.method == "exhaustive" and stats.samples == 6


def test_exhaustive_n2_min_equals_max():
    stats = min_truncation_exhaustive(_two_by_two(0.4))
    assert stats.min_ratio == pytest.approx(stats.max_ratio, rel=1e-12)
    assert stats.samples == 2


def test_exhaustive_min_below_identity_and_guard():
    B = random_psd_unit(5, make_rng(8))
    stats = min_truncation_exhaustive(B)
    assert stats.min_ratio <= stats.ratio_identity + 1e-15
    assert stats.min_ratio <= stats.mean_ratio <= stats.max_ratio
    assert truncation_ratio(B, stats.argmin_sigma) == pytest.approx(stats.min_ratio, rel=1e-12)
    with pytest.raises(ValueError, match="heuristic"):
        min_truncation_exhaustive(np.eye(9))


def test_heuristic_identity_matrix():
    stats = min_truncation_heuristic(np.eye(4), 3, make_rng(0))
    assert stats.min_ratio == 0.0 and stats.method == "heuristic"


def test_heuristic_rejects_zero_restarts():
    with pytest.raises(ValueError, match="restarts must be >= 1"):
        min_truncation_heuristic(random_psd_unit(5, make_rng(4)), 0, make_rng(0))


def test_heuristic_never_beats_exhaustive_and_often_matches():
    matches = 0
    for seed in range(10):
        B = random_psd_unit(6, make_rng(100 + seed))
        exact = min_truncation_exhaustive(B)
        heur = min_truncation_heuristic(B, 20, make_rng(200 + seed))
        assert heur.min_ratio >= exact.min_ratio - 1e-12
        if heur.min_ratio <= exact.min_ratio + 1e-9:
            matches += 1
    assert matches >= 8


def test_heuristic_deterministic():
    B = random_psd_unit(7, make_rng(55))
    a = min_truncation_heuristic(B, 5, make_rng(66))
    b = min_truncation_heuristic(B, 5, make_rng(66))
    assert a.min_ratio == b.min_ratio
    assert np.array_equal(a.argmin_sigma, b.argmin_sigma)


def _heuristic_reference(B, restarts, rng):
    """Neighbor-by-neighbor loop: one spectral_norm per adjacent swap."""
    n = B.shape[0]
    best, best_sigma, starts = np.inf, None, []
    for _ in range(restarts):
        sigma = rng.permutation(n).astype(np.intp)
        cur = spectral_norm(np.tril(permute_conjugate(B, sigma), -1))
        starts.append(cur)
        while True:
            cand_norm, cand_k = cur, -1
            for k in range(n - 1):
                sigma[k], sigma[k + 1] = sigma[k + 1], sigma[k]
                v = spectral_norm(np.tril(permute_conjugate(B, sigma), -1))
                sigma[k], sigma[k + 1] = sigma[k + 1], sigma[k]
                if v < cand_norm:
                    cand_norm, cand_k = v, k
            if cand_k < 0:
                break
            sigma[cand_k], sigma[cand_k + 1] = sigma[cand_k + 1], sigma[cand_k]
            cur = cand_norm
        if cur < best:
            best, best_sigma = cur, sigma.copy()
    return best, best_sigma, starts


@pytest.mark.parametrize("complex_entries", [False, True])
def test_heuristic_batch_matches_neighbor_loop_bit_for_bit(complex_entries):
    B = random_psd_unit(11, make_rng(8), complex_entries=complex_entries, m=4)
    norm_b = spectral_norm(B)
    best, best_sigma, starts = _heuristic_reference(B, 3, make_rng(9))
    stats = min_truncation_heuristic(B, 3, make_rng(9))
    assert stats.min_ratio == best / norm_b
    assert np.array_equal(stats.argmin_sigma, best_sigma)
    assert stats.max_ratio == max(starts) / norm_b
    assert stats.mean_ratio == float((np.array(starts) / norm_b).mean())


@pytest.mark.parametrize("n, complex_entries, m, identity", [
    (1, False, None, False),
    (2, False, None, False),
    (2, True, None, False),
    (6, False, None, True),  # zero truncation: every bound is 0
    (24, True, 5, False),
], ids=["n1", "n2-real", "n2-complex", "identity", "n24-rank5-complex"])
def test_pruned_heuristic_matches_neighbor_loop_bit_for_bit(monkeypatch, n, complex_entries, m,
                                                            identity):
    B = np.eye(n) if identity else random_psd_unit(n, make_rng(20 + n), complex_entries, m)
    norm_b = spectral_norm(B)
    best, best_sigma, starts = _heuristic_reference(B, 3, make_rng(22))
    rows, rounds = [], []
    monkeypatch.setattr(analysis, "_batched_truncation_norms",
                        lambda B, perms: rows.append(len(perms)) or _batched_truncation_norms(B, perms))
    monkeypatch.setattr(analysis, "_swap_bounds",
                        lambda L, v: rounds.append(1) or _swap_bounds(L, v))
    stats = min_truncation_heuristic(B, 3, make_rng(22))
    assert stats.min_ratio == best / norm_b
    assert np.array_equal(stats.argmin_sigma, best_sigma)
    assert stats.max_ratio == max(starts) / norm_b
    assert stats.mean_ratio == float((np.array(starts) / norm_b).mean())
    if not identity:  # about one exact SVD per step, besides the 3 starts and the identity
        assert sum(rows) <= 2 * len(rounds) + 4


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 12), seed=st.integers(0, 10**6), cplx=st.booleans(),
       deficient=st.booleans())
def test_swap_bounds_never_exceed_exact_norms(n, seed, cplx, deficient):
    rng = make_rng(seed)
    B = random_psd_unit(n, rng, cplx, m=max(1, n // 3) if deficient else None)
    sigma = rng.permutation(n)
    L = np.tril(B[np.ix_(sigma, sigma)], -1)
    k = np.arange(n - 1)
    swapped = np.tile(sigma, (n - 1, 1))  # row k swaps positions k, k + 1
    swapped[k, k], swapped[k, k + 1] = sigma[k + 1], sigma[k]
    exact = _batched_truncation_norms(B, swapped)
    guess = rng.standard_normal(n) + (1j * rng.standard_normal(n) if cplx else 0)
    for v in (guess, np.linalg.svd(L)[2][0].conj()):
        bounds, ritz = _swap_bounds(L, v)
        assert np.all(bounds <= exact * (1 + 1e-12))
        for i in range(n - 1):  # ritz(i), in the swapped order, attains bound i
            x = ritz(i)
            x[[i, i + 1]] = x[[i + 1, i]]
            L_i = np.tril(permute_conjugate(B, swapped[i]), -1)
            assert np.linalg.norm(x) == pytest.approx(1.0, rel=1e-12)
            assert np.linalg.norm(L_i @ x) == pytest.approx(bounds[i], rel=1e-9, abs=1e-12)


def test_expected_truncation_norm_basics():
    with pytest.raises(ValueError, match="zero matrix"):
        expected_truncation_norm(np.zeros((2, 2)), 5, make_rng(0))
    est, se = expected_truncation_norm(np.eye(4), 50, make_rng(1))
    assert est == 0.0 and se == 0.0
    B = _two_by_two(0.3)
    est, se = expected_truncation_norm(B, 11, make_rng(2))
    assert est == pytest.approx(0.3 / spectral_norm(B), rel=1e-12)
    assert se <= 1e-15


def test_monte_carlo_needs_an_rng():
    B = random_psd_unit(4, make_rng(15))
    for call in (lambda: expected_truncation_norm(B, 10, None),
                 lambda: expected_lower_gram_montecarlo(B, 10, None),
                 lambda: min_truncation_heuristic(B, 2, None)):
        with pytest.raises(ValueError, match="Monte Carlo mode needs an rng"):
            call()


def test_expected_truncation_norm_within_exhaustive_range():
    B = random_psd_unit(5, make_rng(77), complex_entries=True)
    stats = min_truncation_exhaustive(B)
    est, _ = expected_truncation_norm(B, 400, make_rng(78))
    assert stats.min_ratio - 1e-12 <= est <= stats.max_ratio + 1e-12


# ---------------------------------------------------------------- rate bounds

def test_rate_bounds_fan_hand_values():
    B = fan_problem(4).B
    rep = evaluate_rate_bounds(B, 1.0)
    assert rep.rate_cyclic == pytest.approx(1.0 - 4.0 / 81.0, abs=1e-12)
    assert rep.rate_shuffled == pytest.approx(0.84, abs=1e-12)
    assert rep.rate_single_step_sweep == pytest.approx(0.00390625, abs=1e-12)
    assert rep.rate_preshuffled == pytest.approx(1.0 - 4.0 / 130.68**2, abs=1e-12)
    assert rep.c1 == C1_DEFAULT and rep.rank == 2 and rep.n == 8


def test_rate_bounds_fan_omega_half():
    rep = evaluate_rate_bounds(fan_problem(4).B, 0.5)
    # gain = 1.5 * 0.5 * 4 = 3, denominator (1 + 2)^2 = 9
    assert rep.rate_shuffled == pytest.approx(1.0 - 3.0 / 9.0, abs=1e-12)


def test_rate_bounds_lowrank_variant():
    B = fan_problem(4).B
    rep = evaluate_rate_bounds(B, 1.0, c0=1.0)
    expect = 1.0 - 4.0 / (1.0 + np.log(2.0) * 4.0) ** 2
    assert rep.rate_cyclic_lowrank == pytest.approx(expect, abs=1e-10)
    assert evaluate_rate_bounds(B, 1.0).rate_cyclic_lowrank is None


def test_rate_bounds_validation():
    B = fan_problem(2).B
    with pytest.raises(ValueError, match="omega"):
        evaluate_rate_bounds(B, 2.0)
    with pytest.raises(ValueError, match="unit diagonal"):
        evaluate_rate_bounds(np.diag([2.0, 1.0]), 1.0)
    with pytest.raises(ValueError, match="c0"):
        evaluate_rate_bounds(B, 1.0, c0=-1.0)
    ones = np.array([[1.0, 1.0], [1.0, 1.0]])  # rank 1
    with pytest.raises(ValueError, match="rank"):
        evaluate_rate_bounds(ones, 1.0, c0=1.0)


def test_rate_bounds_reject_non_positive_c1():
    with pytest.raises(ValueError, match="c1 must be positive"):
        evaluate_rate_bounds(fan_problem(2).B, 1.0, c1=0)


@given(n=st.integers(2, 9), seed=st.integers(0, 10**6),
       omega=st.floats(0.05, 1.95), cplx=st.booleans())
@settings(max_examples=50, deadline=None)
def test_rate_bounds_all_in_unit_interval(n, seed, omega, cplx):
    B = random_psd_unit(n, make_rng(seed), cplx)
    rep = evaluate_rate_bounds(B, omega)
    if rep.rank >= 2:
        rep = evaluate_rate_bounds(B, omega, c0=2.0)
    for rate in (rep.rate_cyclic, rep.rate_cyclic_lowrank, rep.rate_single_step_sweep,
                 rep.rate_shuffled, rep.rate_preshuffled):
        if rate is not None:
            assert 0.0 <= rate < 1.0


# ---------------------------------------------------------------- expected contraction

def test_expected_contraction_identity():
    assert expected_contraction(np.eye(4), 1.0) == pytest.approx(0.0, abs=1e-14)
    assert expected_contraction(np.eye(4), 0.5) == pytest.approx(0.25, abs=1e-12)


def test_expected_contraction_below_shuffled_bound():
    for seed in range(6):
        rng = make_rng(300 + seed)
        B = random_psd_unit(2 + seed % 5, rng, complex_entries=seed % 2 == 0)
        for omega in (0.5, 1.0, 1.5):
            measured = expected_contraction(B, omega)
            bound = evaluate_rate_bounds(B, omega).rate_shuffled
            assert measured <= bound + 1e-10


def test_expected_contraction_relabeling_invariant():
    rng = make_rng(41)
    B = random_psd_unit(5, rng, complex_entries=True)
    tau = rng.permutation(5)
    a = expected_contraction(B, 1.2)
    b = expected_contraction(permute_conjugate(B, tau), 1.2)
    assert a == pytest.approx(b, abs=1e-10)


def test_expected_contraction_montecarlo_mode():
    # n = 9 exceeds the exhaustive limit; sampling path with fixed seed
    B = random_psd_unit(9, make_rng(50))
    measured = expected_contraction(B, 1.0, trials=400, rng=make_rng(51))
    bound = evaluate_rate_bounds(B, 1.0).rate_shuffled
    assert 0.0 <= measured <= 1.0
    assert measured <= bound + 0.05  # Monte Carlo slack


def _range_factor(B):
    s = spectral_summary(B)
    return s.eigenvectors[:, :s.rank], s.eigenvalues[:s.rank]


def test_contraction_operator_sampling_agrees_with_exact():
    from sorlab.analysis import _contraction_gram

    B = random_psd_unit(5, make_rng(90))
    V, lam = _range_factor(B)
    R = V * np.sqrt(lam)
    perms = np.array(list(itertools.permutations(range(5))), dtype=np.intp)
    exact = _contraction_gram(B, R, 1.0, perms) / len(perms)
    rng = make_rng(91)
    sampled = rng.permuted(np.tile(np.arange(5), (20000, 1)), axis=1).astype(np.intp)
    approx = _contraction_gram(B, R, 1.0, sampled) / 20000
    assert np.max(np.abs(exact - approx)) <= 0.01


def test_contraction_operator_sums_error_matrices():
    # the summed Gram is W* (sum of Q_sigma* B Q_sigma) W, with Q_sigma from
    # error_iteration_matrix and W = V_r Lambda_r^{-1/2}
    from sorlab.analysis import _contraction_gram

    rng = make_rng(92)
    B = random_psd_unit(6, rng, complex_entries=True)
    perms = np.array([rng.permutation(6) for _ in range(5)], dtype=np.intp)
    V, lam = _range_factor(B)
    R, W = V * np.sqrt(lam), V / np.sqrt(lam)
    Qs = [error_iteration_matrix(B, 0.7, p) for p in perms]
    expected = W.conj().T @ sum(Q.conj().T @ B @ Q for Q in Qs) @ W
    assert np.allclose(_contraction_gram(B, R, 0.7, perms), expected, atol=1e-12)


def _contraction_instances():
    for n in range(1, 7):
        for cplx in (False, True):
            yield random_psd_unit(n, make_rng(700 + 2 * n + cplx), cplx)
    yield fan_problem(3).B
    yield low_rank_problem(6, 2, True, make_rng(93)).B


@pytest.mark.parametrize("B", list(_contraction_instances()))
def test_expected_contraction_matches_error_matrix_average(B):
    # definitional value: lambda_max of W* (mean over all n! orders of Q* B Q) W,
    # with Q from error_iteration_matrix and W = V_r Lambda_r^{-1/2}
    n = B.shape[0]
    V, lam = _range_factor(B)
    W = V / np.sqrt(lam)
    for omega in (0.5, 1.0, 1.5):
        M = sum(Q.conj().T @ B @ Q for Q in (error_iteration_matrix(B, omega, p)
                                             for p in itertools.permutations(range(n))))
        Mr = W.conj().T @ (M / math.factorial(n)) @ W
        ref = np.linalg.eigvalsh((Mr + Mr.conj().T) / 2)[-1]
        assert abs(expected_contraction(B, omega) - ref) <= 1e-12 * abs(ref) + 1e-14


def test_perm_batches_lexicographic():
    for n in range(1, 9):
        got = np.concatenate(list(_perm_batches(n)))
        assert got.dtype == np.intp
        assert np.array_equal(got, np.array(list(itertools.permutations(range(n)))))


def test_perm_batches_sampled_are_bounded_by_size():
    # at n = 64 a batch holds at most 5040 * 8**2 entries, as many as the
    # largest exhaustive batch, and the batches are one stream of draws
    n, trials = 64, 2000
    batches = list(_perm_batches(n, trials, make_rng(3)))
    assert all(p.size <= 5040 * 64 for p in batches) and len(batches) > 1
    single = make_rng(3).permuted(np.tile(np.arange(n), (trials, 1)), axis=1)
    assert np.array_equal(np.concatenate(batches), single)
    assert [len(p) for p in _perm_batches(8, 6000, make_rng(3))] == [5040, 960]


@pytest.mark.parametrize("cplx", [False, True])
def test_exhaustive_truncation_matches_full_enumeration(cplx):
    # reversal pairs are scored once; the stats must equal the full n! SVD sweep
    for n in range(1, 8):
        B = random_psd_unit(n, make_rng(800 + n), cplx)
        perms = np.array(list(itertools.permutations(range(n))), dtype=np.intp)
        C = np.tril(B[perms[:, :, None], perms[:, None, :]], -1)
        ratios = np.linalg.svd(C, compute_uv=False)[:, 0] / spectral_norm(B)
        stats = min_truncation_exhaustive(B)
        for got, ref in ((stats.min_ratio, ratios.min()), (stats.mean_ratio, ratios.mean()),
                         (stats.max_ratio, ratios.max()), (stats.ratio_identity, ratios[0])):
            assert abs(got - ref) <= 1e-14 * abs(ref)
        assert stats.samples == math.factorial(n)
        assert abs(truncation_ratio(B, stats.argmin_sigma) - stats.min_ratio) <= 1e-12
        if n == 1:
            assert stats.min_ratio == stats.mean_ratio == stats.max_ratio == 0.0
            assert stats.argmin_sigma.tolist() == [0]
        if n == 2:  # one reversal pair: both orders share the single norm |B[0, 1]|
            assert stats.min_ratio == stats.mean_ratio == stats.max_ratio
            assert stats.argmin_sigma.tolist() == [0, 1]


def test_expected_contraction_rejects_indefinite_matrix():
    B = np.array([[1.0, 0.9, 0.9], [0.9, 1.0, -0.9], [0.9, -0.9, 1.0]])
    with pytest.raises(ValueError, match="matrix not PSD"):
        expected_contraction(B, 1.0)


def test_analysis_rejects_non_finite_input():
    B = np.eye(3)
    B[0, 2] = B[2, 0] = np.nan
    for fn in (expected_lower_gram_closed, expected_lower_gram_weighted,
               expected_lower_gram_bruteforce):
        with pytest.raises(ValueError, match="NaN or Inf"):
            fn(B)
    with pytest.raises(ValueError, match="square matrix expected"):
        expected_lower_gram_closed(np.ones((2, 3)))


def test_expected_contraction_rejects_empty_matrix():
    with pytest.raises(ValueError, match="empty matrix"):
        expected_contraction(np.zeros((0, 0)), 1.0)


def test_expected_contraction_zero_matrix_guard():
    with pytest.raises(ValueError):
        expected_contraction(np.zeros((3, 3)), 1.0)
