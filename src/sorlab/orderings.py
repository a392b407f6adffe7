"""Seeded permutation generation and sweep-ordering strategies.

All randomness flows through numpy's PCG64 generator (``default_rng``): a
fixed, named, seedable 64-bit engine whose stream is a pure function of the
seed. ``Generator.permutation`` performs a Fisher-Yates shuffle and
``Generator.integers`` uses rejection sampling, so permutations are exactly
uniform and integer draws carry no modulo bias. Parallel or repeated trials
use :func:`derive_seed` so streams are independent and order-insensitive.

The orders of k consecutive sweeps can be drawn in one call
(``sweep_order(..., sweeps=k)``): a PCG64 ``permuted`` over k rows, or one
``integers`` call of shape (k, n), consumes the stream exactly as k single
draws do, so it returns the same orders and leaves the generator in the
same state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

GENERATOR_NAME = "PCG64"

# the strategy names, as trial kinds of solvers.run_trials: a kind's position is
# part of its derived seeds, so the tuple is frozen and new kinds go at the end
TRIAL_KINDS = ("cyclic", "shuffled", "preshuffled", "single_step_random", "fixed")
KINDS = tuple(k for k in TRIAL_KINDS if k != "preshuffled")  # of OrderingStrategy


def make_rng(seed: int) -> np.random.Generator:
    """Fresh PCG64 generator for the given seed."""
    return np.random.default_rng(int(seed))


def derive_seed(base_seed: int, *path: int) -> int:
    """Deterministic 64-bit child seed for (base_seed, path...).

    Distinct paths give statistically independent streams, so trials can be
    seeded as derive_seed(base, trial_index) regardless of execution order.
    """
    entropy = [int(base_seed)] + [int(p) for p in path]
    return int(np.random.SeedSequence(entropy).generate_state(1, np.uint64)[0])


def derived_rng(base_seed: int, *path: int) -> np.random.Generator:
    return make_rng(derive_seed(base_seed, *path))


def random_permutation(n: int, rng: np.random.Generator) -> np.ndarray:
    """Uniformly random permutation of {0..n-1}; advances rng."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return rng.permutation(n)


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
    equal k single calls, and rng ends in the same state.
    """
    if strategy.kind in ("shuffled", "single_step_random"):
        if rng is None:
            raise ValueError(f"{strategy.kind} ordering needs an rng")
        k = 1 if sweeps is None else sweeps
        if strategy.kind == "shuffled":
            orders = rng.permuted(np.tile(np.arange(n), (k, 1)), axis=1)
        else:
            orders = rng.integers(0, n, size=(k, n))
        orders = orders.astype(np.intp, copy=False)
        return orders[0] if sweeps is None else orders
    if strategy.kind == "cyclic":
        order = np.arange(n, dtype=np.intp)
    else:  # fixed
        if len(strategy.sigma) != n:
            raise ValueError("stored permutation length does not match n")
        order = strategy.sigma.copy()
    return order if sweeps is None else np.tile(order, (sweeps, 1))


def format_permutation(sigma) -> str:
    """Serialize as comma-separated 1-based indices, e.g. '3,1,2'."""
    sigma = check_permutation(sigma)
    return ",".join(str(int(i) + 1) for i in sigma)


def parse_permutation(text: str, n: int | None = None) -> np.ndarray:
    """Parse '3,1,2' (1-based) into the 0-based permutation array."""
    try:
        sigma = np.array([int(tok) - 1 for tok in text.split(",")], dtype=np.intp)
    except ValueError as exc:
        raise ValueError(f"bad permutation string {text!r}") from exc
    return check_permutation(sigma, n)
