"""Seeded permutation generation and sweep-ordering strategies.

All randomness flows through numpy's PCG64 generator (``default_rng``): a
fixed, named, seedable 64-bit engine whose stream is a pure function of the
seed. ``Generator.permutation`` performs a Fisher-Yates shuffle and
``Generator.integers`` uses rejection sampling, so permutations are exactly
uniform and integer draws carry no modulo bias. Parallel or repeated trials
use :func:`derive_seed` so streams are independent and order-insensitive.

One seed goes through numpy: :func:`derive_seed` is numpy's
``SeedSequence`` and :func:`make_rng` its ``default_rng``. A batch goes
through sorlab's copy of the ``SeedSequence`` hash (:func:`_seed_state`,
with numpy's published constants, on uint32 arrays, one entropy per
element; the tests pin it to numpy's): the private
:func:`_derived_generators` gives the :func:`derive_seed` and
:func:`derived_rng` of many trials in one pass, with the same seeds and
generator states, each generator built from its precomputed PCG64 state
words.

Every uniform order comes from :func:`sweep_order`: the sweeps of a
shuffled trial, :func:`random_permutation` (so a preshuffled order), and
the Monte Carlo orders and heuristic starts of :mod:`sorlab.analysis`. The
orders of k consecutive sweeps can be drawn in one call
(``sweep_order(..., sweeps=k)``): a PCG64 ``permuted`` over k rows, or one
``integers`` call of shape (k, n), consumes the stream exactly as k single
draws do (k ``rng.permutation(n)`` calls, for a shuffled order), so it
returns the same orders and leaves the generator in the same state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

GENERATOR_NAME = "PCG64"

# the strategy names, as trial kinds of solvers.run_trials: a kind's position is
# part of its derived seeds, so the tuple is frozen and new kinds go at the end
TRIAL_KINDS = ("cyclic", "shuffled", "preshuffled", "single_step_random", "fixed")
KINDS = tuple(k for k in TRIAL_KINDS if k != "preshuffled")  # of OrderingStrategy


# numpy's SeedSequence hash (pool of 4 words) and its published constants
_MASK32 = 0xFFFFFFFF
_MULT_A, _MIX_L, _MIX_R = 0x931E8875, 0xCA01F9DD, 0x4973F715


def _hash_steps(init, mult, count):
    """(xor, multiplier) of the first count steps of a hash constant that
    starts at init and is multiplied by mult after each xor."""
    steps, h = [], init
    for _ in range(count):
        steps.append((h, h := h * mult & _MASK32))
    return steps


# the constants do not depend on the data: 4 pool fills, then 12 mixes
_FILL_STEPS = _hash_steps(0x43B0D7E5, _MULT_A, 16)
_MIX_STEPS = [(src, dst, *step) for (src, dst), step in zip(
    ((s, d) for s in range(4) for d in range(4) if s != d), _FILL_STEPS[4:])]
_STATE_STEPS = _hash_steps(0x8B51F9DD, 0x58F38DED, 8)


def _seed_state(words, n_words: int) -> list:
    """The first n_words (at most 8) words of
    ``np.random.SeedSequence(entropy).generate_state(n_words)`` of many
    entropies in one pass: the entropy words are uint32 arrays of one shape,
    one entropy per element (see :func:`_int_words`), and so is every state
    word. numpy's ``mix_entropy`` and ``generate_state``, step by step, the
    uint32 arithmetic wrapping mod 2**32 as numpy's does; a missing word of
    a short entropy hashes as 0.
    """
    pool = []
    for w, (x, m) in zip(words[:4] + [np.zeros_like(words[0])] * (4 - len(words)), _FILL_STEPS):
        v = (w ^ x) * m
        pool.append(v ^ v >> 16)
    for src, dst, x, m in _MIX_STEPS:
        v = (pool[src] ^ x) * m
        v = _MIX_L * pool[dst] - _MIX_R * (v ^ v >> 16)
        pool[dst] = v ^ v >> 16
    m = _MIX_STEPS[-1][3]
    for w in words[4:]:  # entropy beyond the pool, mixed into every pool word
        for dst in range(4):
            x, m = m, m * _MULT_A & _MASK32
            v = (w ^ x) * m
            v = _MIX_L * pool[dst] - _MIX_R * (v ^ v >> 16)
            pool[dst] = v ^ v >> 16
    state = []
    for (x, m), p in zip(_STATE_STEPS[:n_words], pool + pool):
        v = (p ^ x) * m
        state.append(v ^ v >> 16)
    return state


def _int_words(n) -> list[int]:
    """The 32-bit words of a non-negative int, least significant first, as
    SeedSequence splits its entropy (0 is one word)."""
    n = int(n)
    if n < 0:
        raise ValueError("expected non-negative integer")
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


def make_rng(seed: int) -> np.random.Generator:
    """Fresh PCG64 generator for the given seed."""
    return np.random.default_rng(int(seed))


def derive_seed(base_seed: int, *path: int) -> int:
    """Deterministic 64-bit child seed for (base_seed, path...).

    Distinct paths give statistically independent streams, so trials can be
    seeded as derive_seed(base, trial_index) regardless of execution order.
    """
    return int(np.random.SeedSequence([base_seed, *path]).generate_state(1, np.uint64)[0])


def derived_rng(base_seed: int, *path: int) -> np.random.Generator:
    return make_rng(derive_seed(base_seed, *path))


def _derived_generators(base_seed: int, *path) -> tuple[np.ndarray, list[np.random.Generator]]:
    """:func:`derive_seed` and :func:`derived_rng` of many trials in one hash
    pass: the uint64 seeds and their generators. A path entry is an int, or
    an array of ints below 2**32, one per trial; at least one is an array."""
    # numpy.random loads here, at first use, as in make_rng
    from numpy.random.bit_generator import ISeedSequence

    class StateWords(ISeedSequence):
        """A seed sequence whose PCG64 state words are given: PCG64 asks for
        ``generate_state(4, np.uint64)`` and gets them."""

        def __init__(self, words):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    words = [np.asarray(w, dtype=np.uint32) for v in (base_seed, *path)
             for w in (_int_words(v) if np.ndim(v) == 0 else [v])]
    lo, hi = _seed_state(list(np.broadcast_arrays(*words)), 2)
    seeds = lo.astype(np.uint64) | hi.astype(np.uint64) << np.uint64(32)
    # make_rng(seed) hashes the seed's words (lo, hi), hi left out when 0:
    # the same state, as a missing word hashes as 0
    state = np.stack(_seed_state([lo, hi], 8), axis=-1)
    # little-endian pairs of words, as generate_state(4, np.uint64) makes them
    state = state.astype("<u4").view("<u8").astype(np.uint64)
    return seeds, [np.random.Generator(np.random.PCG64(StateWords(w))) for w in state]


def random_permutation(n: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform permutation of {0..n-1}; advances rng as ``rng.permutation(n)`` does."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return sweep_order(shuffled(), n, rng)


def _as_indices(seq) -> np.ndarray:
    """seq as an intp array; ValueError if an entry is not an integer value.

    Integer-valued floats (2.0) are accepted; a plain cast would truncate
    2.9 to 2 and accept a sequence that names other indices.
    """
    a = np.asarray(seq)
    if not (a.dtype.kind in "biu" or a.dtype.kind == "f"
            and np.all((a == np.floor(a)) & (np.abs(a) < 2.0**53))):
        raise ValueError("indices must be integer values")
    return a.astype(np.intp)


def check_permutation(sigma, n: int | None = None) -> np.ndarray:
    """sigma as an intp permutation of 0..len(sigma)-1, of length n if n is given."""
    sigma = _as_indices(sigma)
    if sigma.ndim != 1 or not np.array_equal(np.sort(sigma), np.arange(len(sigma))):
        raise ValueError("not a permutation of 0..n-1")
    if n is not None and len(sigma) != n:
        raise ValueError(f"permutation has length {len(sigma)}, expected {n}")
    return sigma


@dataclass(frozen=True, eq=False)
class OrderingStrategy:
    """Sweep-order policy: which equation order each sweep uses.

    cyclic             -- fixed natural order 1..n every sweep
    shuffled           -- fresh uniform permutation every sweep
    single_step_random -- n independent uniform picks (repeats allowed)
    fixed              -- one stored permutation, reused every sweep

    The preshuffled iteration is the fixed kind with a uniformly drawn
    permutation; :func:`preshuffled` draws it.
    """

    kind: str
    sigma: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown ordering kind {self.kind!r}")
        if self.kind == "fixed":
            if self.sigma is None:
                raise ValueError(f"{self.kind} ordering requires a permutation")
            object.__setattr__(self, "sigma", check_permutation(self.sigma))
        elif self.sigma is not None:
            raise ValueError(f"{self.kind} ordering takes no permutation")

    @property
    def reuses_order(self) -> bool:
        """True when every sweep uses the same order (cyclic and fixed)."""
        return self.kind in ("cyclic", "fixed")


def cyclic() -> OrderingStrategy:
    return OrderingStrategy("cyclic")


def shuffled() -> OrderingStrategy:
    return OrderingStrategy("shuffled")


def preshuffled(n: int, rng: np.random.Generator) -> OrderingStrategy:
    """Fixed order drawn uniformly once, before the first sweep; advances rng."""
    return fixed(random_permutation(n, rng))


def single_step_random() -> OrderingStrategy:
    return OrderingStrategy("single_step_random")


def fixed(sigma) -> OrderingStrategy:
    return OrderingStrategy("fixed", sigma)


def sweep_order(strategy: OrderingStrategy, n: int,
                rng: np.random.Generator | None = None, sweeps: int | None = None) -> np.ndarray:
    """Index sequence (length n) for one sweep under the given strategy.

    With ``sweeps=k``, the (k, n) orders of k consecutive sweeps: the rows
    equal k single calls, and rng ends in the same state. A strategy that
    reuses its order draws nothing; the others draw from rng, a shuffled
    row as ``rng.permutation(n)`` does.
    """
    if strategy.reuses_order:
        order = np.arange(n, dtype=np.intp) if strategy.kind == "cyclic" else strategy.sigma.copy()
        if len(order) != n:
            raise ValueError("stored permutation length does not match n")
        return order if sweeps is None else np.tile(order, (sweeps, 1))
    if rng is None:
        raise ValueError(f"{strategy.kind} ordering needs an rng")
    k = 1 if sweeps is None else sweeps
    if strategy.kind == "shuffled":
        orders = np.empty((k, n), dtype=np.intp)
        orders[:] = np.arange(n)
        rng.permuted(orders, axis=1, out=orders)
    else:  # single_step_random
        orders = rng.integers(0, n, size=(k, n)).astype(np.intp, copy=False)
    return orders[0] if sweeps is None else orders


def format_permutation(sigma) -> str:
    """Serialize as comma-separated 1-based indices, e.g. '3,1,2'."""
    sigma = check_permutation(sigma)
    return ",".join(str(int(i) + 1) for i in sigma)


def parse_permutation(text: str, n: int | None = None) -> np.ndarray:
    """Parse '3,1,2' (1-based) into the 0-based permutation array."""
    try:
        sigma = np.array([int(tok) - 1 for tok in text.split(",")], dtype=np.intp)
    except (ValueError, OverflowError) as exc:  # OverflowError: an index beyond intp
        raise ValueError(f"bad permutation string {text!r}") from exc
    return check_permutation(sigma, n)
