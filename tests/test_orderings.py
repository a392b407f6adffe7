import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sorlab import (
    OrderingStrategy,
    cyclic,
    derive_seed,
    derived_rng,
    error_iteration_matrix,
    fixed,
    format_permutation,
    make_rng,
    parse_permutation,
    permute_conjugate,
    preshuffled,
    random_permutation,
    shuffled,
    single_step_random,
    sor_sweep,
    sweep_order,
    truncation_ratio,
)
from sorlab import orderings, solvers
from sorlab.analysis import _perm_batches
from sorlab.orderings import check_permutation


def test_random_permutation_trivial():
    assert np.array_equal(random_permutation(1, make_rng(0)), [0])
    with pytest.raises(ValueError):
        random_permutation(0, make_rng(0))


def test_random_permutation_deterministic():
    a1 = random_permutation(5, make_rng(42))
    a2 = random_permutation(5, make_rng(42))
    assert np.array_equal(a1, a2)
    rng = make_rng(42)
    b1 = random_permutation(5, rng)
    b2 = random_permutation(5, rng)
    assert np.array_equal(b1, a1)
    # the stream advances: consecutive draws differ almost surely here
    assert not np.array_equal(b1, b2)


@pytest.mark.parametrize("n", [1, 2, 7, 32, 300])
def test_random_permutation_draws_as_numpy_permutation(n):
    # random_permutation goes through sweep_order, and so preshuffled
    # orders: the same order as rng.permutation(n), the same stream left
    rng, ref_rng = make_rng(17), make_rng(17)
    for _ in range(3):
        assert np.array_equal(random_permutation(n, rng), ref_rng.permutation(n))
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@given(n=st.integers(1, 30), seed=st.integers(0, 10**9))
@settings(max_examples=60, deadline=None)
def test_random_permutation_is_bijection(n, seed):
    p = random_permutation(n, make_rng(seed))
    assert np.array_equal(np.sort(p), np.arange(n))


def test_uniformity_chi_squared_n4():
    # 24000 draws over the 24 permutations of n=4: each count within
    # 5 sigma of 1000, sigma = sqrt(N p (1-p))
    rng = make_rng(12345)
    counts = {}
    draws = 24000
    for _ in range(draws):
        key = tuple(random_permutation(4, rng))
        counts[key] = counts.get(key, 0) + 1
    assert len(counts) == 24
    p = 1.0 / 24.0
    sigma = np.sqrt(draws * p * (1 - p))
    for c in counts.values():
        assert abs(c - draws * p) <= 5 * sigma


def test_strategy_validation():
    with pytest.raises(ValueError, match="unknown ordering kind"):
        OrderingStrategy("preshuffled", np.arange(3))
    with pytest.raises(ValueError, match="requires a permutation"):
        OrderingStrategy("fixed")
    with pytest.raises(ValueError, match="takes no permutation"):
        OrderingStrategy("cyclic", np.arange(3))
    with pytest.raises(ValueError, match="unknown ordering kind"):
        OrderingStrategy("sorted")
    with pytest.raises(ValueError, match="not a permutation"):
        OrderingStrategy("fixed", np.array([0, 0, 2]))


def test_strategy_names_are_spelled_once():
    # run_trials' kinds are orderings' tuple, and OrderingStrategy takes
    # them all but preshuffled, which is the fixed kind with a drawn order
    assert solvers.TRIAL_KINDS is orderings.TRIAL_KINDS
    assert orderings.KINDS == tuple(k for k in orderings.TRIAL_KINDS if k != "preshuffled")
    for kind in orderings.KINDS:
        OrderingStrategy(kind, np.arange(3) if kind == "fixed" else None)


_B3 = np.array([[1.0, 0.3, 0.1], [0.3, 1.0, 0.2], [0.1, 0.2, 1.0]])


@pytest.mark.parametrize("call", [
    lambda: truncation_ratio(_B3, [0.9, 1.7, 2.2]),
    lambda: permute_conjugate(_B3, [2.9, 0.1, 1.5]),
    lambda: sor_sweep(_B3, np.zeros(3), np.zeros(3), 1.0, order=[0.5, 1.5, 2.5]),
    lambda: fixed([0.2, 1.1]),
], ids=["truncation_ratio", "permute_conjugate", "sor_sweep", "fixed"])
def test_non_integer_indices_rejected(call):
    with pytest.raises(ValueError, match="indices must be integer values"):
        call()


def test_integer_valued_float_indices_accepted():
    assert truncation_ratio(_B3, [2.0, 0.0, 1.0]) == truncation_ratio(_B3, [2, 0, 1])
    assert np.array_equal(fixed(np.array([1.0, 0.0])).sigma, [1, 0])
    for bad in ([np.nan, 0.0], [np.inf, 0.0], [1e300, 0.0], ["a", "b"]):
        with pytest.raises(ValueError, match="indices must be integer values"):
            fixed(bad)


def test_sweep_order_cyclic():
    assert np.array_equal(sweep_order(cyclic(), 4), [0, 1, 2, 3])


def test_sweep_order_preshuffled_constant():
    strat = preshuffled(3, make_rng(7))
    sigma = strat.sigma.copy()
    rng = make_rng(7)
    for _ in range(5):
        assert np.array_equal(sweep_order(strat, 3, rng), sigma)
    with pytest.raises(ValueError, match="length"):
        sweep_order(strat, 4, rng)


def test_sweep_order_fixed_equals_preshuffled_behavior():
    sigma = np.array([1, 2, 0])
    assert np.array_equal(sweep_order(fixed(sigma), 3), sigma)
    # preshuffled is the fixed kind with the order drawn once from the rng
    rng = make_rng(11)
    strat = preshuffled(6, rng)
    assert strat.kind == "fixed"
    assert np.array_equal(strat.sigma, random_permutation(6, make_rng(11)))
    assert not np.array_equal(preshuffled(6, rng).sigma, strat.sigma)  # rng advanced


def test_sweep_order_shuffled_uses_each_index_once():
    rng = make_rng(3)
    strat = shuffled()
    seen = []
    for _ in range(20):
        order = sweep_order(strat, 6, rng)
        assert np.array_equal(np.sort(order), np.arange(6))
        seen.append(tuple(order))
    assert len(set(seen)) > 1  # fresh permutation per call


def test_sweep_order_shuffled_needs_rng():
    with pytest.raises(ValueError, match="rng"):
        sweep_order(shuffled(), 4)


def test_sweep_order_single_step_marginals_and_repeats():
    rng = make_rng(99)
    strat = single_step_random()
    n = 4
    draws = 2500  # 10^4 individual picks
    counts = np.zeros((n, n), dtype=int)  # position x value
    any_repeat = False
    for _ in range(draws):
        order = sweep_order(strat, n, rng)
        if len(set(order.tolist())) < n:
            any_repeat = True
        for pos, v in enumerate(order):
            counts[pos, v] += 1
    assert any_repeat  # repetition allowed and observed
    p = 1.0 / n
    sigma = np.sqrt(draws * p * (1 - p))
    assert np.all(np.abs(counts - draws * p) <= 5 * sigma)


@pytest.mark.parametrize("k", [1, 3, 50])
@pytest.mark.parametrize("n", [1, 2, 16, 17, 64, 257])
@pytest.mark.parametrize("strat", [shuffled(), single_step_random()], ids=lambda s: s.kind)
def test_sweep_order_of_k_sweeps_equals_k_single_draws(strat, n, k):
    # one call for k sweeps consumes the PCG64 stream as k single calls do
    for seed in (0, 5):
        rng, ref_rng = make_rng(seed), make_rng(seed)
        orders = sweep_order(strat, n, rng, sweeps=k)
        ref = np.array([sweep_order(strat, n, ref_rng) for _ in range(k)])
        assert orders.dtype == ref.dtype == np.intp
        assert np.array_equal(orders, ref)
        assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_sweep_order_of_k_sweeps_repeats_fixed_orders():
    sigma = np.array([2, 0, 1])
    assert np.array_equal(sweep_order(fixed(sigma), 3, sweeps=2), [sigma, sigma])
    assert np.array_equal(sweep_order(cyclic(), 3, sweeps=2), [[0, 1, 2]] * 2)


@pytest.mark.parametrize("n, trials", [(1, 3), (5, 40), (64, 200)])
def test_perm_batches_draws_do_not_depend_on_the_batch_size(n, trials):
    # n = 64 makes batches of 78 orders, so 200 trials take three batches
    rng, ref_rng = make_rng(8), make_rng(8)
    batches = list(_perm_batches(n, trials, rng))
    assert len(batches) == (3 if n == 64 else 1)
    ref = np.array([ref_rng.permutation(n) for _ in range(trials)])
    assert np.array_equal(np.concatenate(batches), ref)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_derive_seed_deterministic_and_distinct():
    assert derive_seed(0, 1, 2) == derive_seed(0, 1, 2)
    seeds = {derive_seed(5, i) for i in range(100)}
    assert len(seeds) == 100
    # derived streams are reproducible
    a = derived_rng(5, 3).standard_normal(4)
    b = derived_rng(5, 3).standard_normal(4)
    assert np.array_equal(a, b)


def _numpy_seed(base, *path):
    return int(np.random.SeedSequence([base, *path]).generate_state(1, np.uint64)[0])


def _derived_seeds(base, *path):
    return orderings._derived_generators(base, *path)[0].tolist()


@pytest.mark.parametrize("base", [0, 1, 2**32 - 1, 2**32, 2**64 + 3, 2**100 + 1])
def test_seed_hash_equals_numpy_seed_sequence(base):
    # sorlab's copy of the SeedSequence hash, in one pass over a batch
    # (_derived_generators), against numpy's, on the paths run_trials uses
    # (k, t, c), on a shorter one and on one past the pool
    k, t, c = (a.ravel() for a in np.meshgrid(np.arange(5), np.arange(300), np.arange(2),
                                              indexing="ij"))
    want = [_numpy_seed(base, *path) for path in zip(k.tolist(), t.tolist(), c.tolist())]
    assert _derived_seeds(base, k, t, c) == want
    assert [derive_seed(base, *path) for path in zip(k.tolist(), t.tolist(), c.tolist())] == want
    long_paths = [(1, 2, 3, 4, 5), (0, 0, 0, 0, 0), (7, 2**32 - 1, 2**40, 9, 2**64 + 1)]
    for path in [(), (7,), *long_paths]:
        assert derive_seed(base, *path) == _numpy_seed(base, *path)
    assert _derived_seeds(base, 3, np.arange(300), 4, 5) == [
        _numpy_seed(base, 3, i, 4, 5) for i in range(300)]
    assert _derived_seeds(base, np.arange(300)) == [_numpy_seed(base, i) for i in range(300)]


def test_seed_hash_rejects_negative_entropy():
    with pytest.raises(ValueError, match="expected non-negative integer"):
        derive_seed(-1, 2)
    with pytest.raises(ValueError, match="expected non-negative integer"):
        derive_seed(3, 2, -4)
    with pytest.raises(ValueError, match="expected non-negative integer"):
        orderings._derived_generators(-1, np.arange(3))


def test_seed_state_hashes_a_missing_word_as_zero():
    # a seed below 2**32 is one entropy word; hashed with a hi word of 0 it
    # gets the state of that one word, so _derived_generators can hash
    # every derived seed as (lo, hi)
    lo = np.array([0, 1, 2**32 - 1, *make_rng(3).integers(0, 2**32, 20)], dtype=np.uint32)
    state = np.stack(orderings._seed_state([lo, np.zeros_like(lo)], 8), axis=-1)
    assert state.dtype == np.uint32
    for w, got in zip(lo.tolist(), state):
        assert np.array_equal(got, np.random.SeedSequence(w).generate_state(8))


def test_generators_equal_default_rng():
    # the generators run_trials builds from precomputed state words start
    # in default_rng's state of their derived seeds
    for base in (0, 9, 2**64 + 5):
        seeds, generators = orderings._derived_generators(base, 1, np.arange(300), 0)
        assert seeds.dtype == np.uint64
        assert len(generators) == len(seeds) == 300
        for seed, rng in zip(seeds.tolist(), generators):
            assert rng.bit_generator.state == make_rng(seed).bit_generator.state
        assert np.array_equal(generators[-1].permutation(20),
                              make_rng(seeds[-1]).permutation(20))


def test_permutation_serialization_round_trip():
    sigma = parse_permutation("3,1,2")
    assert np.array_equal(sigma, [2, 0, 1])
    assert format_permutation(sigma) == "3,1,2"
    with pytest.raises(ValueError):
        parse_permutation("1,1,2")
    with pytest.raises(ValueError):
        parse_permutation("a,b")
    with pytest.raises(ValueError, match="expected 4"):
        parse_permutation("3,1,2", n=4)


@pytest.mark.parametrize("check", [
    lambda s: check_permutation(s, 3),
    lambda s: parse_permutation(",".join(str(i + 1) for i in s), 3),
    lambda s: permute_conjugate(np.eye(3), s),
    lambda s: truncation_ratio(np.eye(3), s),
    lambda s: error_iteration_matrix(np.eye(3), 1.0, s),
], ids=["check_permutation", "parse_permutation", "permute_conjugate", "truncation_ratio",
        "error_iteration_matrix"])
def test_permutation_checks_share_one_rule(check):
    with pytest.raises(ValueError, match="^permutation has length 2, expected 3$"):
        check([1, 0])
    with pytest.raises(ValueError, match="^not a permutation of 0..n-1$"):
        check([0, 0, 2])
