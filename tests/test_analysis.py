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
    random_factor_problem,
    spectral_norm,
    spectral_summary,
    truncation_ratio,
    truncation_statistics,
)
from sorlab import analysis
from sorlab.analysis import (
    _batched_truncation_norms,
    _lower_gram_terms,
    _orders,
    _perm_batches,
    _shared_batches,
    _swap_bounds,
    _swap_in_place,
    _truncations,
)
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
    # the message names the closed form, which is exact at any n
    with pytest.raises(ValueError, match="^n = 9 too large for exhaustive averaging; "
                                         "use expected_lower_gram_closed$"):
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
    assert spectral_summary(np.eye(3)).unit_diagonal
    assert rep.general_ok and rep.psd_strict_ok
    assert rep.h_general_ok and rep.h_psd_ok


def test_gram_bounds_rank_one_ones():
    rep = check_lower_gram_bounds(np.array([[1.0, 1.0], [1.0, 1.0]]))
    assert rep.norm_avg == pytest.approx(0.5, abs=1e-14)
    assert rep.norm_b == pytest.approx(2.0)
    assert rep.general_ok and rep.psd_strict_ok


@given(n=st.integers(2, 10), seed=st.integers(0, 10**6), cplx=st.booleans())
@settings(max_examples=50, deadline=None)
def test_gram_bounds_random_psd(n, seed, cplx):
    B = random_psd_unit(n, make_rng(seed), cplx)
    rep = check_lower_gram_bounds(B)
    assert spectral_summary(B).unit_diagonal
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
    with pytest.raises(ValueError, match="^n = 9 too large for exhaustive search; "
                                         "use heuristic$"):
        min_truncation_exhaustive(np.eye(9))


@pytest.mark.parametrize("cplx", [False, True])
def test_batched_truncation_norms_equal_any_split_bit_for_bit(monkeypatch, cplx):
    # the heuristic scores any subset of its swaps in one batch, and
    # spectral_norm scores one matrix alone; under any budget (one matrix a
    # stack, a middle value, the default) the norms are those of one stack
    rng = make_rng(60 + cplx)
    stacks = [(n, next(_perm_batches(n))) for n in range(1, 9)]
    stacks.append((32, np.concatenate(list(_perm_batches(32, 40, rng)))))
    for n, perms in stacks:
        B = random_psd_unit(n, rng, complex_entries=cplx)
        one_stack = analysis._top_singular_values(_truncations(B, perms)).tobytes()
        for budget in (1, 3000, analysis._NORM_ENTRIES):
            monkeypatch.setattr(analysis, "_NORM_ENTRIES", budget)
            whole = _batched_truncation_norms(B, perms)
            assert whole.tobytes() == one_stack, (n, budget)
            k = len(perms)
            for cut in sorted({0, 1, k // 2, k - 1, k, int(rng.integers(k + 1))}):
                parts = [_batched_truncation_norms(B, perms[:cut]),
                         _batched_truncation_norms(B, perms[cut:])]
                assert np.concatenate(parts).tobytes() == one_stack, (n, budget, cut)


def _record_stacks(monkeypatch):
    """The (k, m, n) shape of every stack whose norms analysis reduces."""
    shapes = []
    top = analysis._top_singular_values
    monkeypatch.setattr(analysis, "_top_singular_values",
                        lambda M: shapes.append(M.shape) or top(M))
    return shapes


@pytest.mark.parametrize("n, restarts, per_stack", [(8, 20, 1280), (32, 100, 80)])
def test_norm_budget_bounds_every_stack_of_truncation_statistics(monkeypatch, n, restarts,
                                                                 per_stack):
    # n = 8: an exhaustive batch keeps up to 5040 orders; n = 32: a
    # Monte Carlo batch holds 320 orders and the one restart group 100; each
    # is reduced in stacks of at most _NORM_ENTRIES entries, on either thread,
    # and the statistics keep their bytes
    B = random_psd_unit(n, make_rng(80 + n), m=max(1, n // 5))
    want = truncation_statistics(B, restarts, make_rng(1), 2000, make_rng(2))
    shapes = _record_stacks(monkeypatch)
    got = truncation_statistics(B, restarts, make_rng(1), 2000, make_rng(2))
    assert repr(got) == repr(want)
    assert all(k * rows * cols <= analysis._NORM_ENTRIES for k, rows, cols in shapes)
    assert max(k for k, _, _ in shapes) == per_stack


def _serial_exhaustive(B):
    """min_truncation_exhaustive with each kept batch scored whole on one thread."""
    n = B.shape[0]
    norms, firsts = [], []
    for perms in _perm_batches(n):
        perms = perms[perms[:, 0] <= perms[:, -1]]
        if len(perms):
            norms.append(_batched_truncation_norms(B, perms))
            firsts.append(perms[np.argmin(norms[-1])])
    norm_b = spectral_norm(B)
    k = int(np.argmin([batch.min() for batch in norms]))
    return (float(norms[0][0]) / norm_b, float(norms[k].min()) / norm_b, firsts[k].tolist(),
            sum(float(batch.sum()) for batch in norms) / sum(map(len, norms)) / norm_b,
            max(float(batch.max()) for batch in norms) / norm_b, math.factorial(n))


@pytest.mark.parametrize("cplx", [False, True])
@pytest.mark.parametrize("n", range(1, 9))
def test_exhaustive_search_equals_serial_batches_bit_for_bit(n, cplx):
    B = random_psd_unit(n, make_rng(70 + n), complex_entries=cplx, m=max(1, n - 2))
    stats = min_truncation_exhaustive(B)
    got = (stats.ratio_identity, stats.min_ratio, stats.argmin_sigma.tolist(),
           stats.mean_ratio, stats.max_ratio, stats.samples)
    assert repr(got) == repr(_serial_exhaustive(B))


def test_exhaustive_search_raises_the_worker_error_and_joins_it(monkeypatch):
    # either thread may score any batch: the one that leads with 2 (72 of its
    # 120 orders kept at n = 6) fails, whichever thread takes it
    import threading

    def score(B, perms):
        if len(perms) == 72:
            raise ValueError("worker half failed")
        return _batched_truncation_norms(B, perms)

    monkeypatch.setattr(analysis, "_batched_truncation_norms", score)
    threads = threading.active_count()
    with pytest.raises(ValueError, match="^worker half failed$"):
        min_truncation_exhaustive(random_psd_unit(6, make_rng(9)))
    assert threading.active_count() == threads


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


def _heuristic_reference(B, restarts, rng, steps=None):
    """Neighbor-by-neighbor loop: one spectral_norm per adjacent swap; the
    leftmost least norm is accepted if it beats the current one by more than
    a norm's rounding, n (n + 1) u / 2 relative. Appends each restart's number
    of accepted swaps to ``steps`` if given."""
    n = B.shape[0]
    tie = 1 - n * (n + 1) * 2.0**-53 / 2
    best, best_sigma, starts = np.inf, None, []
    for _ in range(restarts):
        sigma = rng.permutation(n).astype(np.intp)
        cur = spectral_norm(np.tril(permute_conjugate(B, sigma), -1))
        starts.append(cur)
        accepted = 0
        while True:
            cand_norm, cand_k = cur * tie, -1
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
            accepted += 1
        if steps is not None:
            steps.append(accepted)
        if cur < best:
            best, best_sigma = cur, sigma.copy()
    return best, best_sigma, starts


def _count_calls(monkeypatch, calls, stacks):
    """Record len(perms) of each exact-norm call and L.shape of each bounds
    call; return the shapes of the stacks whose norms are reduced."""
    monkeypatch.setattr(analysis, "_batched_truncation_norms",
                        lambda B, perms: calls.append(len(perms))
                        or _batched_truncation_norms(B, perms))
    monkeypatch.setattr(analysis, "_swap_bounds",
                        lambda L, v: stacks.append(L.shape) or _swap_bounds(L, v))
    return _record_stacks(monkeypatch)


def _check_lockstep(monkeypatch, B, restarts, seed):
    """min_truncation_heuristic equals the neighbor loop bit for bit, its rounds
    step exactly the restarts still descending, and it makes at most two
    exact-norm calls per round besides the starts and the identity, each
    reduced in stacks of at most _NORM_ENTRIES entries. Returns the
    reference's accepted swaps per restart."""
    norm_b = spectral_norm(B)
    steps, calls, stacks = [], [], []
    best, best_sigma, starts = _heuristic_reference(B, restarts, make_rng(seed), steps)
    reduced = _count_calls(monkeypatch, calls, stacks)
    stats = min_truncation_heuristic(B, restarts, make_rng(seed))
    assert stats.min_ratio == best / norm_b
    assert np.array_equal(stats.argmin_sigma, best_sigma)
    assert stats.max_ratio == max(starts) / norm_b
    assert stats.mean_ratio == float((np.array(starts) / norm_b).mean())
    # round t steps every restart that accepted at least t swaps; a restart's
    # last round finds none and it leaves the stack
    assert [R for R, _, _ in stacks] == [sum(s >= t for s in steps) for t in range(max(steps) + 1)]
    assert len(calls) <= 2 * len(stacks) + 2 and all(calls)
    assert all(k * m * n <= analysis._NORM_ENTRIES for k, m, n in reduced)
    return steps


@pytest.mark.parametrize("complex_entries, restarts", [
    pytest.param(c, r, id=f"{c}" if r == 3 else f"{c}-restarts{r}")
    for c in (False, True) for r in (1, 3, 8)])
def test_heuristic_batch_matches_neighbor_loop_bit_for_bit(monkeypatch, complex_entries, restarts):
    B = random_psd_unit(11, make_rng(8), complex_entries=complex_entries, m=4)
    _check_lockstep(monkeypatch, B, restarts, 9)


def test_lockstep_restart_at_a_local_minimum_leaves_while_the_others_descend(monkeypatch):
    B = random_psd_unit(6, make_rng(56), complex_entries=True, m=3)
    steps = _check_lockstep(monkeypatch, B, 8, 57)
    assert steps[1] == 0 and min(steps[:1] + steps[2:]) >= 2  # restart 1 starts at one


def test_heuristic_accepts_no_swap_where_every_order_ties(monkeypatch):
    # rank one with unit-modulus entries, B = a a*: L_sigma = D T D* for every
    # sigma (D = diag(a[sigma]), T the strictly lower ones), so every order has
    # one norm and a swap could win by rounding alone
    B = random_psd_unit(32, make_rng(3), True, 1)
    assert _check_lockstep(monkeypatch, B, 8, 4) == [0] * 8  # one round, no swap


def test_batch_size_bounds_every_stack():
    # a batch holds four norm stacks; one order per batch once
    # n**2 > 2 * _NORM_ENTRIES (n > 404), past the bound once n > 572
    for n in range(1, 600):
        size = analysis._batch_size(n)
        assert size == 1 or size * n**2 <= 4 * analysis._NORM_ENTRIES
    assert [analysis._batch_size(n) for n in (8, 32, 64, 256, 568)] == [5120, 320, 80, 5, 1]


def test_lockstep_groups_bound_the_bounds_stacks_and_keep_results(monkeypatch):
    # with _NORM_ENTRIES = 6144 a norm stack holds one order at n = 64 and a
    # group four stacks' entries, 4 * 6144 // 64**2 = 6 restarts, so 7 restarts
    # run as groups of 6 and 1; each equals its restart run alone
    n, restarts = 64, 7
    B = random_psd_unit(n, make_rng(64), m=6)
    rng = make_rng(65)
    alone = [min_truncation_heuristic(B, 1, rng) for _ in range(restarts)]  # the same draws
    ends = [a.min_ratio for a in alone]
    first = ends.index(min(ends))  # ties go to the first restart
    monkeypatch.setattr(analysis, "_NORM_ENTRIES", 6144)
    calls, stacks = [], []
    reduced = _count_calls(monkeypatch, calls, stacks)
    stats = min_truncation_heuristic(B, restarts, make_rng(65))
    assert stats.min_ratio == ends[first]
    assert np.array_equal(stats.argmin_sigma, alone[first].argmin_sigma)
    assert stats.ratio_identity == alone[0].ratio_identity
    starts = np.array([a.max_ratio for a in alone])  # one restart: its start ratio
    assert stats.max_ratio == starts.max() and stats.mean_ratio == float(starts.mean())
    assert max(R for R, _, _ in stacks) == 6
    assert all(R * (n - 1) * n <= 4 * 6144 for R, _, _ in stacks)
    # exact norms reduced one order a stack (the budget holds one matrix);
    # per group a start call, per round at most two calls, and the identity
    assert all(k == 1 for k, _, _ in reduced) and len(reduced) == sum(calls)
    assert len(calls) <= 2 * len(stacks) + 2 + 1



@pytest.mark.parametrize("n, complex_entries, m, identity", [
    (1, False, None, False),
    (2, False, None, False),
    (2, True, None, False),
    (6, False, None, True),  # zero truncation: every bound is 0
    (24, True, 5, False),
    (32, False, 6, False),  # the shape of the analyze-heuristic32 benchmark
], ids=["n1", "n2-real", "n2-complex", "identity", "n24-rank5-complex", "n32-rank6-real"])
def test_pruned_heuristic_matches_neighbor_loop_bit_for_bit(monkeypatch, n, complex_entries, m,
                                                            identity):
    B = np.eye(n) if identity else random_psd_unit(n, make_rng(20 + n), complex_entries, m)
    norm_b = spectral_norm(B)
    best, best_sigma, starts = _heuristic_reference(B, 3, make_rng(22))
    rows, rounds = [], []
    monkeypatch.setattr(analysis, "_batched_truncation_norms",
                        lambda B, perms: rows.append(len(perms)) or _batched_truncation_norms(B, perms))
    monkeypatch.setattr(analysis, "_swap_bounds",
                        lambda L, v: rounds.extend(L) or _swap_bounds(L, v))  # one per restart-step
    stats = min_truncation_heuristic(B, 3, make_rng(22))
    assert stats.min_ratio == best / norm_b
    assert np.array_equal(stats.argmin_sigma, best_sigma)
    assert stats.max_ratio == max(starts) / norm_b
    assert stats.mean_ratio == float((np.array(starts) / norm_b).mean())
    if not identity:  # about one exact SVD per step, besides the 3 starts and the identity
        assert sum(rows) <= 2 * len(rounds) + 4
    assert all(rows)  # no call scores an empty stack


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


@pytest.mark.parametrize("cplx", [False, True])
def test_swap_in_place_equals_gather_bit_for_bit(cplx):
    n = 12
    B = random_psd_unit(n, make_rng(31), cplx)
    sigma = make_rng(32).permutation(n)
    # exactly Hermitian under ==, yet conj(B[j, k]) != B[k, j] bit for bit: the
    # new (i + 1, i) entry must come from B, not from the old (i + 1, i)
    B[sigma[2], sigma[3]], B[sigma[3], sigma[2]] = -0.0, 0.0
    B[sigma[5], sigma[6]] = B[sigma[6], sigma[5]] = 0.5  # conj flips a complex zero's sign
    for i in range(n - 1):
        s, L = sigma.copy(), np.tril(B[np.ix_(sigma, sigma)], -1)
        _swap_in_place(B, s[None], L[None], np.array([i]))  # a one-row stack
        assert s.tolist() == [*sigma[:i], sigma[i + 1], sigma[i], *sigma[i + 2:]]
        assert L.tobytes() == np.tril(B[np.ix_(s, s)], -1).tobytes()


@pytest.mark.parametrize("cplx", [False, True])
def test_truncations_equal_tril_of_the_reordered_matrix(cplx):
    n = 9
    B = random_hermitian(n, make_rng(40), cplx)
    B[2, 5] = B[5, 2] = -0.0  # signed zeros below the diagonal keep their sign
    for perms in (np.arange(n)[None], np.concatenate(list(_perm_batches(n, 40, make_rng(41))))):
        got = _truncations(B, perms)
        want = np.stack([np.tril(B[np.ix_(s, s)], -1) for s in perms])
        assert got.dtype == B.dtype and got.tobytes() == want.tobytes()


def test_expected_truncation_norm_basics():
    with pytest.raises(ValueError, match="zero matrix"):
        expected_truncation_norm(np.zeros((2, 2)), 5, make_rng(0))
    est, se = expected_truncation_norm(np.eye(4), 50, make_rng(1))
    assert est == 0.0 and se == 0.0
    B = _two_by_two(0.3)
    est, se = expected_truncation_norm(B, 11, make_rng(2))
    assert est == pytest.approx(0.3 / spectral_norm(B), rel=1e-12)
    assert se <= 1e-15


def test_expected_truncation_norm_standard_error_needs_two_trials():
    # one sample has no spread: its standard error is NaN, not a confident 0
    B = random_psd_unit(10, make_rng(4))
    est, se = expected_truncation_norm(B, 1, make_rng(5))
    assert est > 0 and math.isnan(se)
    # two samples: the ddof = 0 spread over sqrt(2)
    perms = make_rng(5).permuted(np.tile(np.arange(10), (2, 1)), axis=1)
    ratios = [truncation_ratio(B, p) for p in perms]
    est, se = expected_truncation_norm(B, 2, make_rng(5))
    assert est == pytest.approx(np.mean(ratios), rel=1e-14)
    assert se == pytest.approx(np.std(ratios) / math.sqrt(2), rel=1e-12) and se > 0


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


# ---------------------------------------------------------------- one entry point, two threads

def test_on_two_threads_returns_both_results_in_order():
    # _shared_batches: first() on this thread while the worker takes batch 0,
    # then the batches' results in batch order
    import threading
    threads, caller, scored = threading.active_count(), threading.get_ident(), threading.Event()

    def first():
        assert scored.wait(10)
        return threading.get_ident()

    def score(batch):
        scored.set()
        return batch, threading.get_ident()

    head, results = _shared_batches(score, iter(range(5)), first)
    assert head == caller != results[0][1]  # batch 0 ran on the worker
    assert [batch for batch, _ in results] == list(range(5))
    assert _shared_batches(lambda batch: 10 * batch, range(4)) == (None, [0, 10, 20, 30])
    assert _shared_batches(lambda batch: batch, [], lambda: "first") == ("first", [])
    assert threading.active_count() == threads


def _raise(message):
    def fail(*args):
        raise ValueError(message)
    return fail


@pytest.mark.parametrize("here, there, message", [
    (_raise("here failed"), _raise("there failed"), "here failed"),  # first()'s error wins
    (lambda: 1, _raise("there failed"), "there failed"),
    (_raise("here failed"), lambda: 2, "here failed"),
])
def test_on_two_threads_raises_an_error_and_joins_the_worker(here, there, message):
    # here is first(), there scores every batch (see _shared_batches)
    import threading
    threads = threading.active_count()
    with pytest.raises(ValueError, match=f"^{message}$"):
        _shared_batches(lambda batch: there(), range(3), here)
    assert threading.active_count() == threads


@pytest.mark.parametrize("stall_worker", [True, False])
def test_shared_batches_equal_the_serial_loop_under_forced_interleavings(stall_worker):
    # the worker stalled: this thread takes every batch but the worker's
    # first; this thread stalled in first(): the worker takes every batch.
    # Either way the norms are the serial loop's, in batch order, and the
    # generator that draws the batches ends in the serial loop's state
    import threading
    B = random_psd_unit(32, make_rng(120), complex_entries=True, m=6)
    rng, serial_rng = make_rng(121), make_rng(121)
    want = [_batched_truncation_norms(B, perms) for perms in _perm_batches(32, 2000, serial_rng)]
    caller, scorers, released = threading.get_ident(), [], threading.Event()

    def score(perms):
        scorers.append("caller" if threading.get_ident() == caller else "worker")
        if stall_worker and scorers[-1] == "worker":
            assert released.wait(10)
        elif scorers.count(scorers[-1]) == len(want) - stall_worker:
            released.set()  # the other thread may go on
        return _batched_truncation_norms(B, perms)

    head, got = _shared_batches(score, _perm_batches(32, 2000, rng),
                                None if stall_worker else lambda: released.wait(10))
    assert len(want) == 7 and [g.tobytes() for g in got] == [w.tobytes() for w in want]
    assert rng.bit_generator.state == serial_rng.bit_generator.state
    if stall_worker:
        assert head is None and scorers.count("worker") <= 1
    else:
        assert head is True and scorers == ["worker"] * len(want)


def test_shared_batches_under_stress_score_every_batch_once_in_order():
    # four runners at once (eight threads), switching every microsecond:
    # each runner draws every batch of its generator once (a generator
    # entered by two threads at once raises) and returns the results in
    # batch order
    import sys
    import threading
    scored, out = [], {}

    def run(k):
        out[k] = _shared_batches(lambda batch: scored.append((k, batch)) or batch,
                                 (batch for batch in range(500)), lambda: k)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runners = [threading.Thread(target=run, args=(k,)) for k in range(4)]
        for runner in runners:
            runner.start()
        for runner in runners:
            runner.join(60)
        assert not any(runner.is_alive() for runner in runners)
    finally:
        sys.setswitchinterval(interval)
    assert out == {k: (k, list(range(500))) for k in range(4)}
    assert sorted(scored) == [(k, batch) for k in range(4) for batch in range(500)]


def test_shared_batches_stop_the_worker_on_an_error_of_first():
    import threading
    import time
    threads, taken, started = threading.active_count(), [], threading.Event()

    def score(batch):
        taken.append(batch)
        started.set()
        time.sleep(0.2)  # first() raises meanwhile
        return batch

    def first():
        assert started.wait(10)
        raise ValueError("first failed")

    with pytest.raises(ValueError, match="^first failed$"):
        _shared_batches(score, range(20), first)
    assert taken == [0] and threading.active_count() == threads


@pytest.mark.parametrize("bad", [0, 1, 6])
def test_shared_batches_stop_both_threads_on_an_error_of_a_batch(bad):
    import threading
    import time
    threads, taken = threading.active_count(), []

    def score(batch):
        taken.append(batch)
        if batch == bad:
            raise ValueError(f"batch {bad} failed")
        time.sleep(0.02)
        return batch

    with pytest.raises(ValueError, match=f"^batch {bad} failed$"):
        _shared_batches(score, range(100), lambda: None)
    # the other thread finishes the batch it holds and takes no further one
    assert bad in taken and len(taken) <= bad + 2
    assert threading.active_count() == threads


def test_shared_batches_start_one_thread_per_call(monkeypatch):
    # down from one per kept batch (7 at n = 8) for the exhaustive search
    import threading
    starts, start = [], threading.Thread.start

    def counted(thread):
        starts.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", counted)
    _shared_batches(lambda batch: batch, range(50), lambda: None)
    assert len(starts) == 1
    for calls, n in enumerate((8, 12), 2):  # both methods of truncation_statistics
        truncation_statistics(random_psd_unit(n, make_rng(n)), 2, make_rng(1), 100, make_rng(2))
        assert len(starts) == calls, n


@pytest.mark.parametrize("cplx", [False, True])
@pytest.mark.parametrize("n", range(1, 9))
def test_truncation_statistics_exhaustive_is_the_exact_search(n, cplx):
    B = random_psd_unit(n, make_rng(90 + n), complex_entries=cplx)
    search_rng, mean_rng = make_rng(1), make_rng(2)
    states = search_rng.bit_generator.state, mean_rng.bit_generator.state
    stats, mean, se, average = truncation_statistics(B, 3, search_rng, 50, mean_rng)
    want = min_truncation_exhaustive(B)
    assert repr((stats, mean)) == repr((want, want.mean_ratio)) and se is None
    # the n! oracle, computed beside the search
    assert average.tobytes() == expected_lower_gram_bruteforce(B).tobytes()
    # neither generator is drawn from
    assert (search_rng.bit_generator.state, mean_rng.bit_generator.state) == states


@pytest.mark.parametrize("cplx", [False, True])
@pytest.mark.parametrize("n", [9, 12])
def test_truncation_statistics_above_the_limit_is_the_serial_pair(n, cplx):
    B = random_psd_unit(n, make_rng(100 + n), complex_entries=cplx, m=n - 3)
    *got, average = truncation_statistics(B, 4, make_rng(5), 300, make_rng(6))
    want = (min_truncation_heuristic(B, 4, make_rng(5)),
            *expected_truncation_norm(B, 300, make_rng(6)))
    assert repr(tuple(got)) == repr(want) and got[0].method == "heuristic"
    assert average.tobytes() == expected_lower_gram_closed(B).tobytes()


def test_truncation_statistics_one_trial_has_no_standard_error():
    stats, mean, se, _ = truncation_statistics(random_psd_unit(9, make_rng(7)), 2, make_rng(8),
                                                1, make_rng(9))
    assert mean > 0 and math.isnan(se)


def _rank_one_ratio(n):
    """||T_n|| / n, T_n the strictly lower all-ones matrix: the truncation
    ratio of every order of a rank-one B with unit-modulus entries."""
    return 1 / (2 * n * math.sin(math.pi / (2 * (2 * n - 1))))


@pytest.mark.parametrize("cplx", [False, True])
def test_rank_one_unit_modulus_ratios_all_tie_at_the_closed_form(cplx):
    rng = make_rng(110 + cplx)
    for n in range(2, 9):
        B = random_psd_unit(n, rng, cplx, 1)
        stats, mean, *_ = truncation_statistics(B, 2, make_rng(1), 10, make_rng(2))
        for value in (stats.min_ratio, mean, stats.max_ratio, stats.ratio_identity):
            assert value == pytest.approx(_rank_one_ratio(n), rel=1e-12), n
    B = random_psd_unit(12, rng, cplx, 1)
    stats, mean, se, _ = truncation_statistics(B, 3, make_rng(3), 200, make_rng(4))
    assert stats.method == "heuristic"
    for value in (stats.min_ratio, stats.ratio_identity, mean):
        assert value == pytest.approx(_rank_one_ratio(12), rel=1e-12)


# ---------------------------------------------------------------- rate bounds

def test_rate_bounds_fan_hand_values():
    B = fan_problem(4).B
    rep = evaluate_rate_bounds(spectral_summary(B), 1.0)
    assert rep.rate_cyclic == pytest.approx(1.0 - 4.0 / 81.0, abs=1e-12)
    assert rep.rate_shuffled == pytest.approx(0.84, abs=1e-12)
    assert rep.rate_single_step_sweep == pytest.approx(0.00390625, abs=1e-12)
    assert rep.rate_preshuffled == pytest.approx(1.0 - 4.0 / 130.68**2, abs=1e-12)
    assert rep.c1 == C1_DEFAULT and rep.rank == 2 and rep.n == 8


def test_rate_bounds_fan_omega_half():
    rep = evaluate_rate_bounds(spectral_summary(fan_problem(4).B), 0.5)
    # gain = 1.5 * 0.5 * 4 = 3, denominator (1 + 2)^2 = 9
    assert rep.rate_shuffled == pytest.approx(1.0 - 3.0 / 9.0, abs=1e-12)


def test_rate_bounds_lowrank_variant():
    B = fan_problem(4).B
    rep = evaluate_rate_bounds(spectral_summary(B), 1.0, c0=1.0)
    expect = 1.0 - 4.0 / (1.0 + np.log(2.0) * 4.0) ** 2
    assert rep.rate_cyclic_lowrank == pytest.approx(expect, abs=1e-10)
    assert evaluate_rate_bounds(spectral_summary(B), 1.0).rate_cyclic_lowrank is None


def test_rate_bounds_validation():
    B = fan_problem(2).B
    with pytest.raises(ValueError, match="omega"):
        evaluate_rate_bounds(spectral_summary(B), 2.0)
    with pytest.raises(ValueError, match="unit diagonal"):
        evaluate_rate_bounds(spectral_summary(np.diag([2.0, 1.0])), 1.0)
    with pytest.raises(ValueError, match="c0"):
        evaluate_rate_bounds(spectral_summary(B), 1.0, c0=-1.0)
    ones = np.array([[1.0, 1.0], [1.0, 1.0]])  # rank 1
    with pytest.raises(ValueError, match="rank"):
        evaluate_rate_bounds(spectral_summary(ones), 1.0, c0=1.0)


def test_rate_bounds_reject_non_positive_c1():
    with pytest.raises(ValueError, match="c1 must be positive"):
        evaluate_rate_bounds(spectral_summary(fan_problem(2).B), 1.0, c1=0)


@pytest.mark.parametrize("case", ["fan", "real", "complex"])
@pytest.mark.parametrize("omega", [0.5, 1.0, 1.7])
@pytest.mark.parametrize("c0, c1", [(None, C1_DEFAULT), (1.0, 2.5)])
def test_rate_bounds_equal_their_written_out_formulas(case, omega, c0, c1):
    B = {"fan": fan_problem(4).B,
         "real": random_factor_problem(9, 4, rng=make_rng(31)).B,
         "complex": random_factor_problem(7, 3, True, make_rng(32)).B}[case]
    s = spectral_summary(B)
    rep = evaluate_rate_bounds(s, omega, c0=c0, c1=c1)
    lam, kap, n = s.lambda1, s.kappa_bar, len(s.eigenvalues)
    gain = (2.0 - omega) * omega * lam
    half_log = 0.5 * math.floor(math.log2(2 * n))
    # each bound written out in full, compared bit for bit
    assert rep.rate_cyclic == 1.0 - gain / ((1.0 + half_log * omega * lam) ** 2 * kap)
    if c0 is None:
        assert rep.rate_cyclic_lowrank is None
    else:
        assert rep.rate_cyclic_lowrank == (
            1.0 - gain / ((1.0 + c0 * math.log(s.rank) * omega * lam) ** 2 * kap))
    assert rep.rate_single_step_sweep == (1.0 - gain / (n * kap)) ** n
    assert rep.rate_shuffled == 1.0 - gain / ((1.0 + omega * lam) ** 2 * kap)
    assert rep.rate_preshuffled == 1.0 - gain / ((1.0 + c1 * omega * lam) ** 2 * kap)


@given(n=st.integers(2, 9), seed=st.integers(0, 10**6),
       omega=st.floats(0.05, 1.95), cplx=st.booleans())
@settings(max_examples=50, deadline=None)
def test_rate_bounds_all_in_unit_interval(n, seed, omega, cplx):
    B = random_psd_unit(n, make_rng(seed), cplx)
    rep = evaluate_rate_bounds(spectral_summary(B), omega)
    if rep.rank >= 2:
        rep = evaluate_rate_bounds(spectral_summary(B), omega, c0=2.0)
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
            bound = evaluate_rate_bounds(spectral_summary(B), omega).rate_shuffled
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
    bound = evaluate_rate_bounds(spectral_summary(B), 1.0).rate_shuffled
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


def _range_coordinates(B):
    V, lam = _range_factor(B)
    return V * np.sqrt(lam)


@pytest.mark.parametrize("n, cplx, m", [
    (7, False, None), (7, True, None), (7, True, 3),
    (8, False, None), (8, True, None), (8, False, 4),
], ids=["7-real", "7-complex", "7-complex-rank3", "8-real", "8-complex", "8-real-rank4"])
def test_shuffled_average_equals_all_orders(n, cplx, m):
    # the subset recursion against n! forward substitutions
    B = random_psd_unit(n, make_rng(1300 + n), cplx, m=m)
    R = _range_coordinates(B)
    r = R.shape[1]
    assert r == (m or n)
    for omega in (0.5, 1.0, 1.5):
        ref = sum(analysis._contraction_gram(B, R, omega, perms)
                  for perms in _perm_batches(n)) / math.factorial(n)
        got = analysis._shuffled_average(R, omega)
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_shuffled_average_beyond_exhaustive_limit():
    # n = 10: relabeling invariance, the shuffled bound and a sampled mean
    n = 10
    rng = make_rng(1320)
    B = random_psd_unit(n, rng, complex_entries=True)
    tau = rng.permutation(n)
    R = _range_coordinates(B)
    R_tau = _range_coordinates(permute_conjugate(B, tau))
    for omega in (0.5, 1.0, 1.5):
        exact = np.linalg.eigvalsh(analysis._shuffled_average(R, omega))[-1]
        relabeled = np.linalg.eigvalsh(analysis._shuffled_average(R_tau, omega))[-1]
        assert abs(exact - relabeled) <= 1e-12 * exact
        assert exact <= evaluate_rate_bounds(spectral_summary(B), omega).rate_shuffled
    T = analysis._shuffled_average(R, 1.0)
    sampled = rng.permuted(np.tile(np.arange(n), (20000, 1)), axis=1).astype(np.intp)
    approx = analysis._contraction_gram(B, R, 1.0, sampled) / 20000
    assert np.max(np.abs(T - approx)) <= 0.01


def test_perm_batches_lexicographic():
    for n in range(1, 9):
        got = np.concatenate(list(_perm_batches(n)))
        assert got.dtype == np.intp
        assert np.array_equal(got, np.array(list(itertools.permutations(range(n)))))


def test_orders_table_is_built_once_and_read_only():
    # _perm_batches(n) builds its batches from _orders(n - 1), shared by
    # every caller
    table = _orders(7)
    assert _orders(7) is table and not table.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        table[0, 0] = 1
    assert np.array_equal(table, np.array(list(itertools.permutations(range(7)))))
    assert all(batch.flags.writeable for batch in _perm_batches(8))


def test_order_table_is_built_once_by_the_first_truncation_statistics_call(monkeypatch):
    # at n = 8 the n! oracle on this thread and the search's batches on the
    # worker both read _orders(7), and cache does not lock: each table is
    # built once, before the worker starts. A slow build (the sleep releases
    # the GIL) holds open the window in which both threads could build it
    import time
    from collections import Counter
    from functools import cache
    builds, build = Counter(), _orders.__wrapped__

    def counted(n):
        builds[n] += 1
        time.sleep(0.02)
        return build(n)

    B = random_psd_unit(8, make_rng(88), m=3)
    want = truncation_statistics(B, 20, make_rng(1), 2000, make_rng(2))
    monkeypatch.setattr(analysis, "_orders", cache(counted))  # empty: a first call
    got = truncation_statistics(B, 20, make_rng(1), 2000, make_rng(2))
    assert builds == {n: 1 for n in range(1, 8)}
    assert repr(got) == repr(want)


def test_perm_batches_sampled_are_bounded_by_size():
    # at n = 64 a batch's truncations fill at most four norm stacks, and the
    # batches are one stream of draws
    n, trials = 64, 2000
    batches = list(_perm_batches(n, trials, make_rng(3)))
    assert all(len(p) * n**2 <= 4 * analysis._NORM_ENTRIES for p in batches)
    assert len(batches) > 1
    single = make_rng(3).permuted(np.tile(np.arange(n), (trials, 1)), axis=1)
    assert np.array_equal(np.concatenate(batches), single)
    assert [len(p) for p in _perm_batches(8, 6000, make_rng(3))] == [5120, 880]


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


@pytest.mark.parametrize("cplx", [False, True])
def test_paired_oracle_matches_full_enumeration(cplx):
    # one order of each reversal pair adds M M* + M* M; must equal the n! sum
    for n in range(1, 8):
        B = random_psd_unit(n, make_rng(820 + n), cplx)
        perms = np.array(list(itertools.permutations(range(n))), dtype=np.intp)
        ref = _lower_gram_terms(B, perms).sum(axis=0) / math.factorial(n)
        scale = max(spectral_norm(B) ** 2, 1.0)
        assert np.max(np.abs(expected_lower_gram_bruteforce(B) - ref)) <= 1e-14 * scale


def test_reversal_pairing_rejects_non_hermitian_matrix():
    B = np.random.default_rng(5).standard_normal((5, 5))
    # the reversed order has another truncation norm, so pairs cannot share one
    ident, rev = _batched_truncation_norms(B, np.array([np.arange(5), np.arange(5)[::-1]]))
    assert abs(ident - rev) > 1e-3
    for call in (lambda: min_truncation_exhaustive(B),
                 lambda: expected_lower_gram_bruteforce(B),
                 lambda: min_truncation_heuristic(B, 2, make_rng(0))):
        with pytest.raises(ValueError, match="matrix is not Hermitian"):
            call()


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
