"""Reordering-average analysis and convergence-rate bounds.

Centerpieces:

* the average of L L* over all n! simultaneous row/column reorderings of a
  Hermitian B (exhaustive oracle, closed form, Monte Carlo estimator),
* spectral-norm statistics of the triangular truncation ||L_sigma|| across
  permutations (exhaustive search, local-search heuristic, Monte Carlo),
  with the method for each n chosen in one place, truncation_statistics,
  whose batches of orders this thread and one worker share
  (_shared_batches, the one thread runner), beside the n! oracle or the
  heuristic,
* evaluation of the per-sweep contraction bounds for the cyclic, shuffled,
  preshuffled, and single-step-random iterations,
* the expected one-sweep contraction factor of the shuffled iteration,
  measured from the averaged operator itself: exact for n <= 8 by a
  recursion over the subsets of indices already swept (Held-Karp / Bellman
  style, n 2^(n-1) small products instead of n! sweeps), and a Monte Carlo
  estimate above that.

Note on the closed form: the definitional average over permutations equals
(1/3) H^2 + (1/6) diag(H^2) with H = B - D (verified against the exhaustive
oracle). A tempting alternative, (1/n) K o H^2 with K the min-index matrix,
arises from counting positions of the *target* indices instead of positions
within the drawn ordering; it disagrees with the oracle already at n = 2
and is kept as a separate, clearly labeled operation so reports can show
the discrepancy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, partial
from itertools import islice

import numpy as np

from .linalg import (
    SpectralSummary,
    _as_square,
    _ordered_lower,
    _top_singular_values,
    hadamard,
    min_index_matrix,
    spectral_norm,
    spectral_summary,
)
from .orderings import check_permutation, shuffled, sweep_order
from .solvers import _check_omega

# Largest n for which all n! permutations are enumerated (8! = 40320), or, in
# expected_contraction, averaged over exactly by a subset recursion.
EXHAUSTIVE_LIMIT = 8

# The one working-set budget: the most matrix entries that
# _batched_truncation_norms gathers, forms Grams of and reduces at once (80
# matrices at n = 32, 1280 at n = 8), about 640 KiB for each array of a stack
# (index, gather, mask, Gram) on each thread. Half this budget read about 10 %
# slower on analyze at n = 32, and batches of one stack (see _batch_size) 5-7 %.
_NORM_ENTRIES = 81920

# Best currently known constants for the reordered-truncation existence
# bounds: ||L_sigma|| <= C1 ||B|| for some sigma when B is PSD with unit
# diagonal, and <= C2 ||B|| for general Hermitian B. Both come from
# quantitative paving-partition estimates and are considered pessimistic.
C1_DEFAULT = 32.42
C2_DEFAULT = 2907.0

# Relative margin by which a lower bound must exceed a norm before the
# heuristic drops a swap unscored. It must clear the rounding of the bound
# (about n u, u = 2**-53) plus that of the norm from the Gram, about
# n (n + 1) u / 2 (see linalg._top_singular_values): 5.9e-14 at n = 32 and
# 3.6e-12 at n = 256, which 1e-10 clears by factors of about 1700 and 28
# (see min_truncation_heuristic).
_PRUNE_MARGIN = 1e-10


def _nonzero_norm(B) -> float:
    norm_b = spectral_norm(B)
    if norm_b == 0:
        raise ValueError("zero matrix has no truncation ratio")
    return norm_b


def _as_hermitian(B):
    """``_as_square`` for an exactly Hermitian B, as the n! oracle and the
    exhaustive search (one order of each reversal pair) and the heuristic's
    swap bounds (a skew-Hermitian E_k) assume."""
    B = _as_square(B)
    if not np.array_equal(B, B.conj().T):
        raise ValueError("matrix is not Hermitian")
    return B


def _check_rng(rng):
    if rng is None:
        raise ValueError("Monte Carlo mode needs an rng")


def _batch_size(n):
    """Orders per Monte Carlo batch and per heuristic restart group, at least
    one: as many as four stacks of _NORM_ENTRIES entries hold (5120 at n = 8,
    320 at n = 32). An exhaustive batch holds (n - 1)! orders, because the n!
    oracle's GEMMs sum whole batches, as expected_contraction and
    expected_lower_gram_montecarlo do: their bits depend on the size."""
    return max(1, 4 * _NORM_ENTRIES // n**2)


def _perm_batches(n, trials=None, rng=None):
    """Yield (k, n) permutation arrays.

    Without ``trials``: all n! permutations in lexicographic order, one
    batch per leading index, each built from one cached table (_orders) of
    the (n - 1)! orders of the rest. With it: ``trials`` >= 1 uniform
    permutations drawn from ``rng`` (required) by
    :func:`~sorlab.orderings.sweep_order`, in batches of _batch_size(n)
    orders; a batch of k orders consumes the stream as k
    ``rng.permutation(n)`` calls, so the draws do not depend on the batch
    size.
    """
    if trials is None:
        tail = _orders(n - 1) if n > 1 else np.zeros((1, 0), np.intp)
        for first in range(n):
            rest = np.delete(np.arange(n, dtype=np.intp), first)
            yield np.column_stack((np.full(len(tail), first, np.intp), rest[tail]))
        return
    if trials < 1:
        raise ValueError("trials must be >= 1")
    _check_rng(rng)
    size = _batch_size(n)
    for done in range(0, trials, size):
        k = min(size, trials - done)
        yield sweep_order(shuffled(), n, rng, k)


@cache
def _orders(n):
    """All n! orders of range(n) (n >= 1) in lexicographic order, as one
    read-only (n!, n) array built once per n: the oracle and the search walk
    the same orders, at the same time under :func:`truncation_statistics`."""
    table = np.concatenate(list(_perm_batches(n)))
    table.flags.writeable = False
    return table


def _paired_orders(n):
    """The orders s of _perm_batches(n) with s[0] <= s[-1], one of each
    reversal pair, batch by batch. For n > 1 no order that leads with
    n - 1 qualifies, so its batch is not built."""
    for orders in islice(_perm_batches(n), max(n - 1, 1)):
        yield orders[orders[:, 0] <= orders[:, -1]]


def _lower_gram_terms(B, perms):
    """Stack of P* L_s L_s* P = M_s M_s* (M_s the ordered truncation) over perms."""
    M = _ordered_lower(B, perms)
    return M @ M.conj().transpose(0, 2, 1)


def expected_lower_gram_bruteforce(B) -> np.ndarray:
    """Exact average of P* L_s L_s* P over all n! reorderings (n <= 8).

    B must be exactly Hermitian. Then the reversed order r of s has the
    ordered truncation M_r = M_s*: M_r[a, b] = B[a, b] when a precedes b in
    s, and B[a, b] = conj(B[b, a]) = conj(M_s[b, a]). So only the orders with
    s[0] <= s[-1] are enumerated, one of each reversal pair, and each adds
    M_s M_s* + M_s* M_s, the terms of both.
    """
    B = _as_hermitian(B)
    n = B.shape[0]
    if n > EXHAUSTIVE_LIMIT:
        raise ValueError(f"n = {n} too large for exhaustive averaging; "
                         "use expected_lower_gram_closed")
    acc = np.zeros((n, n), dtype=B.dtype)
    for perms in _paired_orders(n):
        acc += _paired_lower_gram_sum(B, perms)
    return acc / math.factorial(n)


def _paired_lower_gram_sum(B, perms):
    """Sum of M_s M_s* + M_s* M_s over the rows s of perms (M_s the ordered
    truncation), as two GEMMs: of the M_s side by side, and stacked. A
    function of its own so that a batch's stacks are freed on return, before
    the next batch's are built."""
    n = B.shape[0]
    M = _ordered_lower(B, perms)
    side = M.transpose(1, 0, 2).reshape(n, -1)  # [M_1 ... M_k], a copy
    stacked = M.reshape(-1, n)                  # [M_1; ...; M_k], a view
    return side @ side.conj().T + stacked.conj().T @ stacked


def expected_lower_gram_closed(B) -> np.ndarray:
    """Closed form of the reordering average: (1/3) H^2 + (1/6) diag(H^2).

    H = B - D is the off-diagonal part. Entry (s, t) of the average is
    sum_l H[s, l] H[l, t] times the probability that l precedes both s and
    t in a uniform ordering: 1/2 for s = t and 1/3 for s != t (terms with
    l in {s, t} vanish because diag(H) = 0). Agrees with the exhaustive
    oracle to rounding.
    """
    B = _as_square(B)
    H = B - np.diag(np.diag(B))
    H2 = H @ H
    out = H2 / 3.0
    idx = np.diag_indices_from(out)
    out[idx] += np.diag(H2) / 6.0
    return out


def expected_lower_gram_weighted(B) -> np.ndarray:
    """Alternative weighted form (1/n) K o H^2 with K the min-index matrix.

    Disagrees with the definitional average (see module docstring): at
    n = 2 the oracle gives diag(0.125, 0.125) for off-diagonal 0.5 while
    this form gives diag(0, 0.125). Provided for comparison reports only.
    """
    B = _as_square(B)
    n = B.shape[0]
    H = B - np.diag(np.diag(B))
    return hadamard(min_index_matrix(n), H @ H) / n


def expected_lower_gram_montecarlo(B, trials: int, rng) -> tuple[np.ndarray, np.ndarray]:
    """Sampled reordering average over `trials` uniform permutations.

    Returns (mean, standard_error) where the per-entry standard error is
    sample_std / sqrt(trials).
    """
    B = _as_square(B)
    n = B.shape[0]
    acc = np.zeros((n, n), dtype=B.dtype)
    acc_sq = np.zeros((n, n))
    for perms in _perm_batches(n, trials, rng):
        T = _lower_gram_terms(B, perms)
        acc += T.sum(axis=0)
        acc_sq += (np.abs(T) ** 2).sum(axis=0)
    mean = acc / trials
    var = np.maximum(acc_sq / trials - np.abs(mean) ** 2, 0.0)
    return mean, np.sqrt(var / trials)


@dataclass(frozen=True)
class LowerGramReport:
    """Spectral-norm checks of the averaged operator against ||B||^2."""

    norm_avg: float
    norm_b: float
    norm_h: float
    general_ok: bool          # norm_avg <= 4 ||B||^2 (every Hermitian B)
    psd_strict_ok: bool       # norm_avg < ||B||^2 (proven for PSD unit-diagonal B)
    h_general_ok: bool        # ||H|| <= 2 ||B|| (every Hermitian B)
    h_psd_ok: bool            # ||H|| <= max(||B|| - 1, 1) (proven for PSD unit-diagonal B)


def check_lower_gram_bounds(B) -> LowerGramReport:
    """Evaluate norm bounds for the reordering average of L L*.

    Checks ||E|| <= 4 ||B||^2 and ||H|| <= 2 ||B||, which hold for every
    Hermitian B, and ||E|| < ||B||^2 and ||H|| <= max(||B|| - 1, 1), which
    the paper proves for PSD B with unit diagonal; whether B is such a
    matrix is for the caller's :func:`spectral_summary` to say.
    """
    B = _as_square(B)
    norm_b = spectral_norm(B)
    norm_avg = spectral_norm(expected_lower_gram_closed(B))
    norm_h = spectral_norm(B - np.diag(np.diag(B)))
    slack = 1e-12 * max(norm_b**2, 1.0)
    return LowerGramReport(
        norm_avg=norm_avg,
        norm_b=norm_b,
        norm_h=norm_h,
        general_ok=bool(norm_avg <= 4.0 * norm_b**2 + slack),
        psd_strict_ok=bool(norm_avg < norm_b**2 - 1e-10 * norm_b**2) if norm_b > 0 else True,
        h_general_ok=bool(norm_h <= 2.0 * norm_b + slack),
        h_psd_ok=bool(norm_h <= max(norm_b - 1.0, 1.0) + slack),
    )


def _shared_batches(score, batches, first=None):
    """(first(), [score(batch) for batch in batches]), from this thread and
    one worker that share the batches; first() is None when first is.

    One worker thread is started per call. Each thread takes the next
    (j, batch) from the one iterator under a lock, so the batches are drawn
    in order whichever thread takes them (an rng-drawn batch j is the j-th
    draw), and stores score(batch) at j. This thread runs first() before it
    takes batches. score and first must share only read-only data, and
    score(batch) must depend on its batch alone: the results are then those
    of the serial loop, in batch order. The first error stops both threads:
    neither takes a further batch, an error of first() or of this thread's
    batch is raised before one of the worker's, and the worker is joined
    before the function returns.
    """
    # imported here, so that start-up and the commands that run no second
    # thread do not load it
    from concurrent.futures import ThreadPoolExecutor
    from threading import Event, Lock

    numbered, lock, stop, results = enumerate(batches), Lock(), Event(), {}

    def take_batches():
        try:
            while True:
                with lock:
                    item = None if stop.is_set() else next(numbered, None)
                if item is None:
                    return
                j, batch = item
                results[j] = score(batch)
        except BaseException:
            stop.set()
            raise

    with ThreadPoolExecutor(1) as pool:
        worker = pool.submit(take_batches)
        try:
            head = first() if first else None
        except BaseException:
            stop.set()
            raise
        take_batches()
        worker.result()
    return head, [results[j] for j in range(len(results))]


def _truncations(B, perms):
    """The (k, n, n) stack of L_s = tril(B[s][:, s], -1), one per row s of perms,
    gathered by one flat take (as in _contraction_gram) under a strictly-lower
    mask, so the entries above the diagonal are +0.0."""
    n = B.shape[0]
    return np.where(np.tri(n, k=-1, dtype=bool),
                    np.take(B, perms[:, :, None] * n + perms[:, None, :]), 0)


def _batched_truncation_norms(B, perms):
    """||L_s|| for each row s of perms (see :func:`_truncations`), gathered
    and reduced in stacks of at most _NORM_ENTRIES matrix entries, one matrix
    a stack when n**2 alone is more. Each matrix is reduced on its own (see
    linalg._top_singular_values), so the norms are those of one stack of all
    the orders, bit for bit, whatever the budget or the batch."""
    size = max(1, _NORM_ENTRIES // B.shape[0] ** 2)
    return np.concatenate([_top_singular_values(_truncations(B, perms[lo:lo + size]))
                           for lo in range(0, len(perms) or 1, size)])  # empty perms: empty norms


def truncation_ratio(B, sigma) -> float:
    """||L_sigma|| / ||B||: relative norm of the reordered lower truncation."""
    B = _as_square(B)
    norm_b = _nonzero_norm(B)
    sigma = check_permutation(sigma, B.shape[0])
    return float(_batched_truncation_norms(B, sigma[None, :])[0]) / norm_b


@dataclass(frozen=True)
class TruncationStats:
    """Statistics of ||L_sigma|| / ||B|| over permutations.

    For the exhaustive method min/mean/max run over all n! permutations;
    for the heuristic, min is the best ordering found by local search and
    mean/max are Monte Carlo statistics over the uniform random starting
    permutations. The heuristic minimum is an upper bound on the true one.
    """

    ratio_identity: float
    min_ratio: float
    argmin_sigma: np.ndarray
    mean_ratio: float
    max_ratio: float
    method: str
    samples: int


def min_truncation_exhaustive(B) -> TruncationStats:
    """Exact min/mean/max of the truncation ratio over all n! orderings (n <= 8).

    B must be exactly Hermitian (else "matrix is not Hermitian"). Then the
    reversed ordering has L_rev = J L_sigma* J (J the exchange matrix), so
    the same norm: only orderings with sigma[0] <= sigma[-1] are scored, one
    of each reversal pair. ``samples`` still counts all n! orderings.

    The kept batches, one per leading index, are shared by this thread and
    one worker (see :func:`_shared_batches`); they spend their time in the
    gather and in LAPACK, which release the GIL. Each batch is scored by one
    :func:`_batched_truncation_norms` call (in stacks of at most
    _NORM_ENTRIES entries) and reduced at once to its norms and its first
    order of least norm, so no batch's orders are held past its scoring, and
    every statistic has the bytes of the serial loop whichever thread scores
    which batch.
    """
    return _exhaustive_search(B)[1]


def _least_norm(B, perms):
    """The norms of the orders of perms and a copy of the first of least norm."""
    norms = _batched_truncation_norms(B, perms)
    return norms, perms[np.argmin(norms)].copy()


def _exhaustive_search(B, first=None):
    """(first(), min_truncation_exhaustive(B)), first() run on this thread
    before it joins the search's batches (see :func:`_shared_batches`)."""
    B = _as_hermitian(B)
    n = B.shape[0]
    if n > EXHAUSTIVE_LIMIT:
        raise ValueError(f"n = {n} too large for exhaustive search; use heuristic")
    norm_b = _nonzero_norm(B)
    if n > 1:  # cache does not lock: build the table before first() and the worker read it
        _orders(n - 1)
    head, scored = _shared_batches(partial(_least_norm, B), _paired_orders(n), first)
    norms, firsts = zip(*scored)  # per batch: its norms, its first order of least norm
    k = int(np.argmin([batch.min() for batch in norms]))  # first batch holding the least norm
    return head, TruncationStats(
        ratio_identity=float(norms[0][0]) / norm_b,  # lexicographic first = identity
        min_ratio=float(norms[k].min()) / norm_b,
        argmin_sigma=firsts[k],
        # both orders of a pair share one norm
        mean_ratio=sum(float(batch.sum()) for batch in norms) / sum(map(len, norms)) / norm_b,
        max_ratio=max(float(batch.max()) for batch in norms) / norm_b,
        method="exhaustive",
        samples=math.factorial(n),
    )


def _lambda_max(a, b, d):
    """Largest eigenvalue of the Hermitian 2 x 2 matrices [[a, b], [conj(b), d]]."""
    return (a + d) / 2 + np.hypot((a - d) / 2, np.abs(b))


def _swap_bounds(L, v):
    """Certified lower bounds on the truncation norm after each adjacent swap.

    Swapping positions k and k + 1 of the ordering turns the truncation L
    (strictly lower, in reordered coordinates) into one with the norm of
    L_k = L + E_k, E_k = conj(c) e_k e_{k+1}^T - c e_{k+1} e_k^T with
    c = L[k + 1, k]. E_k is skew-Hermitian, so L_k* = L* - E_k, and either
    map applies to one vector per k as a product with L plus two corrected
    entries; for v, the same for every k, the product is one mat-vec.
    For each k, the bound is the Rayleigh-Ritz value over the span Q_k of v
    and L_k* L_k v (orthogonalized against v twice): lambda_max of
    (L_k Q_k)* (L_k Q_k) over lambda_max of Q_k* Q_k, which stays at or
    below ||L_k||^2 whatever the rounding in Q_k.

    L (..., n, n) and v (..., n) may lead with stack dimensions, one
    truncation and one vector per entry; the work is then a few
    (..., n - 1, n) arrays and two batched products with L. Returns
    (bounds, ritz): the (..., n - 1) bounds, and ritz(i), which takes one
    swap index per entry and returns the unit vectors of Q_i that attain
    bound i.
    """
    n = L.shape[-1]
    c = L.diagonal(-1, -2, -1)

    def correct(Y, up, here, c):  # row k of Y: M x_k -> (M + E_k) x_k; -c gives -E_k
        flat = Y.reshape(*Y.shape[:-2], -1)  # Y[k, k] is flat[k (n + 1)], Y[k, k + 1] the next
        flat[..., ::n + 1] += c.conj() * up  # up[k] = x_k[k + 1], here[k] = x_k[k]
        flat[..., 1::n + 1] -= c * here
        return Y

    def diagonal(Y, k=0):
        return Y.diagonal(k, -2, -1)

    v = v / np.linalg.norm(v, axis=-1, keepdims=True)
    Lv = np.repeat((L @ v[..., None]).mT, n - 1, axis=-2)
    Lv = correct(Lv, v[..., 1:], v[..., :-1], c)
    z = correct(Lv @ L.conj(), diagonal(Lv, 1), diagonal(Lv), -c)
    for _ in range(2):
        z -= (z @ v[..., None].conj()) * v[..., None, :]
    norms = np.sqrt(np.vecdot(z, z).real)[..., None]
    q = np.divide(z, norms, out=np.zeros_like(z), where=norms > 0)
    Lq = correct(q @ L.mT, diagonal(q, 1), diagonal(q), c)
    a, b, d = np.vecdot(Lv, Lv).real, np.vecdot(Lv, Lq), np.vecdot(Lq, Lq).real
    gram = _lambda_max(np.vecdot(v, v).real[..., None], (q @ v[..., None].conj())[..., 0],
                       np.vecdot(q, q).real)

    def ritz(i):
        i = np.asarray(i)[..., None]
        qi = np.take_along_axis(q, i[..., None], -2)[..., 0, :]
        ai, bi, di = (np.take_along_axis(y, i, -1)[..., 0] for y in (a, b, d))
        # the top eigenvectors of the 2 x 2 Ritz matrices [[a, b], [conj(b), d]]
        x = np.linalg.eigh(np.stack((ai, bi, bi.conj(), di), -1).reshape(*ai.shape, 2, 2))[1]
        x = x[..., :1, -1] * v + x[..., 1:, -1] * qi
        return np.where(qi.any(-1, keepdims=True), x, v)  # a zero q_i: Q_i is v alone

    return np.sqrt(_lambda_max(a, b, d) / gram), ritz


def _swap_entries(x, i):
    """Swap entries (rows, for a stack of matrices) i[r] and i[r] + 1 of each x[r], in place."""
    r = np.arange(len(i))[:, None]
    pair = np.stack((i, i + 1), axis=1)
    x[r, pair] = x[r, pair[:, ::-1]]


def _swap_in_place(B, sigma, L, i):
    """Swap positions i[r] and i[r] + 1 of each order sigma[r] of the (R, n)
    sigma and of L = _truncations(B, sigma), in place; L then equals
    _truncations(B, sigma) of the new orders bit for bit, as every entry but
    the new (i + 1, i) only moves, and that one is read from B."""
    for x in (sigma, L, L.mT):  # L.mT: the columns of L
        _swap_entries(x, i)
    r = np.arange(len(i))
    L[r, i, i + 1] = 0
    L[r, i + 1, i] = B[sigma[r, i + 1], sigma[r, i]]


def _score_swaps(B, sigma, norms, mask):
    """Set norms[r, k] = ||L|| of the order sigma[r] with positions k and k + 1
    swapped where mask[r, k] holds, from one _batched_truncation_norms call
    (none when mask is all False), which bounds the stacks it builds."""
    r, k = np.nonzero(mask)
    if len(r):
        perms = sigma[r]  # a copy, one row per scored swap
        _swap_entries(perms, k)
        norms[r, k] = _batched_truncation_norms(B, perms)


def min_truncation_heuristic(B, restarts: int, rng) -> TruncationStats:
    """Adjacent-transposition steepest descent from random starts.

    From each uniformly drawn starting permutation, repeatedly applies the
    best swap of neighboring positions while it beats the current norm by
    more than a norm's rounding, n (n + 1) u / 2 relative (see
    _PRUNE_MARGIN), so that no step descends on rounding noise where orders
    tie; ties go to the leftmost swap, and the best ordering is that of the
    first restart to end on the least norm. Deterministic given the rng
    seed. The result is an upper bound on the exhaustive minimum. B must be
    exactly Hermitian (else "matrix is not Hermitian"): the swap bounds rely
    on it.

    Each step scores the n - 1 neighbors exactly but computes few norms:
    :func:`_swap_bounds` gives a lower bound b_k <= ||L_k|| for every swap
    from a vector carried over from the previous step (the top right
    singular vector at the start, then the accepted swap's Ritz vector).
    Swaps with b_k > cur (1 + _PRUNE_MARGIN) are dropped, where cur is the
    current norm; the swap with the smallest bound gets an exact norm m;
    swaps with b_k > min(m, cur) (1 + _PRUNE_MARGIN) are dropped too; the
    rest, if any, get exact norms. The margin clears the rounding of the
    bound and of the exact norm from the Gram (see _PRUNE_MARGIN), so every
    dropped swap has a computed norm strictly above a norm that is kept or
    above cur: it can be neither the best swap nor tied with it. The norms
    that decide come from the same kernel on freshly gathered matrices, as
    when every neighbor is scored, so the descent path and every statistic
    are the same, bit for bit. The carried vector, the bounds and the
    truncation L they start from (updated in place for the accepted swap)
    only steer which swaps get scored.

    The restarts descend in lockstep. Every starting order is drawn first,
    in restart order, by one :func:`~sorlab.orderings.sweep_order` call (it
    consumes the stream as one ``rng.permutation(n)`` per restart). The
    restarts then run in groups of _batch_size(n) consecutive ones (320 at
    n = 32, 80 at n = 64, 5 at n = 256), so that the (R, n, n) stacks of L
    and the (R, n - 1, n) stacks of the bounds hold at most 4 _NORM_ENTRIES
    entries whatever ``restarts`` is. In a round, every restart of the group
    that is still descending takes one step, together with the others: one
    :func:`_swap_bounds` call on the stack, one exact-norm call for every
    restart's least-bound swap, one for all the swaps that survive pruning
    (none when no swap does), and one accept step for the stack. A restart
    leaves the stack when no swap beats its current norm. Every exact-norm
    call, the start norms' too, gathers and reduces stacks of at most
    _NORM_ENTRIES entries, and each matrix of a stack is reduced on its own
    (see :func:`_batched_truncation_norms`), so neither the stack nor the
    call changes a norm.

    A round costs, per live restart, about one exact norm (a gather, an
    n x n Gram and an eigvalsh) and its share of the bounds' batched
    products. For `sorlab analyze --seed 1` (20 restarts) of the B from
    `generate --kind lowrank --n 32 --r 6 --seed 1`, the 629 steps take 56
    rounds and 630 exact norms in 70 calls: the per-call overhead is paid
    per round, not per restart and step.
    """
    B = _as_hermitian(B)
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    _check_rng(rng)
    n = B.shape[0]
    norm_b = _nonzero_norm(B)
    tie = 1 - n * (n + 1) * 2.0**-53 / 2  # a swap must beat cur by more than a norm's rounding
    starts = sweep_order(shuffled(), n, rng, restarts)
    ends, start_norms, end_norms = starts.copy(), np.empty(restarts), np.empty(restarts)
    group = _batch_size(n)
    for lo in range(0, restarts, group):
        live = np.arange(lo, min(lo + group, restarts))  # the restarts still descending
        sigma = starts[live]
        L = _truncations(B, sigma)
        start_norms[live] = end_norms[live] = cur = _batched_truncation_norms(B, sigma)
        v = np.linalg.svd(L)[2][:, 0].conj()
        while n > 1 and len(live):
            bounds, ritz = _swap_bounds(L, v)
            rows = np.arange(len(live))
            first = np.zeros(bounds.shape, bool)
            first[rows, np.argmin(bounds, axis=1)] = True  # each restart's least-bound swap
            norms = np.full(bounds.shape, np.inf)
            # a restart whose least bound is above cut scores nothing: every swap is larger
            cut = cur[:, None] * (1 + _PRUNE_MARGIN)
            _score_swaps(B, sigma, norms, first & ~(bounds > cut))
            cut = np.minimum(norms[first], cur)[:, None] * (1 + _PRUNE_MARGIN)
            _score_swaps(B, sigma, norms, ~first & ~(bounds > cut))
            i = np.argmin(norms, axis=1)
            step = norms[rows, i] < cur * tie  # the others leave the stack
            live, sigma, L, v, i, cur = (x[step] for x in
                                         (live, sigma, L, ritz(i), i, norms[rows, i]))
            _swap_in_place(B, sigma, L, i)
            _swap_entries(v, i)
            ends[live], end_norms[live] = sigma, cur
    best = int(np.argmin(end_norms))  # the first restart that ends on the least norm
    start_ratios = start_norms / norm_b
    return TruncationStats(
        ratio_identity=float(_batched_truncation_norms(B, np.arange(n)[None, :])[0]) / norm_b,
        min_ratio=float(end_norms[best]) / norm_b,
        argmin_sigma=ends[best],
        mean_ratio=float(start_ratios.mean()),
        max_ratio=float(start_ratios.max()),
        method="heuristic",
        samples=restarts,
    )


def expected_truncation_norm(B, trials: int, rng) -> tuple[float, float]:
    """Monte Carlo estimate of E[||L_sigma||] / ||B|| over uniform orderings.

    Returns (estimate, standard_error), the latter from the ddof = 0 spread
    and math.nan for ``trials`` = 1, where one sample gives no spread. The
    batches of orders are drawn from ``rng`` in turn and shared by this
    thread and one worker (see :func:`_shared_batches`), so the values and
    the generator's final state are those of the serial loop.
    Empirical data only; no closed form or proven bound for this average is
    implemented.
    """
    return _expected_truncation(B, trials, rng)[1:]


def _expected_truncation(B, trials, rng, first=None):
    """(first(), *expected_truncation_norm(B, trials, rng)), first() run on
    this thread before it joins the Monte Carlo batches (see
    :func:`_shared_batches`)."""
    B = _as_square(B)
    norm_b = _nonzero_norm(B)
    head, vals = _shared_batches(partial(_batched_truncation_norms, B),
                                 _perm_batches(B.shape[0], trials, rng), first)
    ratios = np.concatenate(vals) / norm_b
    se = float(ratios.std(ddof=0) / np.sqrt(trials)) if trials > 1 else math.nan
    return head, float(ratios.mean()), se


def truncation_statistics(B, restarts: int, search_rng, trials: int, mean_rng):
    """The truncation statistics of B, the mean of ||L_sigma|| / ||B|| and
    the reordering average of L L*: (stats, mean, se, average), by the one
    method for each n. Each method is one :func:`_shared_batches` call, one
    worker thread.

    For n <= EXHAUSTIVE_LIMIT: :func:`min_truncation_exhaustive`, its exact
    ``mean_ratio``, se None and the n! oracle
    :func:`expected_lower_gram_bruteforce`, which runs on this thread while
    the worker takes the search's batches; this thread then joins the
    search. The other arguments are not used. Above it:
    :func:`min_truncation_heuristic` (``restarts``, ``search_rng``) runs on
    this thread while the worker takes the batches of
    :func:`expected_truncation_norm` (``trials``, ``mean_rng``); this thread
    then joins the estimate, whose standard error is nan for ``trials`` = 1.
    The average is then :func:`expected_lower_gram_closed`. The work of the
    two threads shares only the read-only B, and each keeps its own stream,
    so every value is that of the serial calls. With two cores the call
    takes about half the serial time; on one core the threads take turns.
    """
    if _as_square(B).shape[0] <= EXHAUSTIVE_LIMIT:
        average, stats = _exhaustive_search(B, partial(expected_lower_gram_bruteforce, B))
        return stats, stats.mean_ratio, None, average
    stats, mean, se = _expected_truncation(B, trials, mean_rng,
                                           partial(min_truncation_heuristic, B, restarts,
                                                   search_rng))
    return stats, mean, se, expected_lower_gram_closed(B)


@dataclass(frozen=True)
class RateBounds:
    """Per-sweep squared-error contraction bounds for one (B, omega).

    Every rate is an upper bound on the factor by which the squared energy
    error shrinks per sweep (in expectation, for the randomized variants).
    ``rate_cyclic_lowrank`` is only evaluated when the caller supplies the
    constant c0 and rank >= 2. Fields are in report order: the CLI prints
    them as they stand.
    """

    n: int
    lambda1: float
    kappa_bar: float
    rank: int
    omega: float
    rate_cyclic: float
    rate_cyclic_lowrank: float | None
    c0: float | None
    rate_single_step_sweep: float
    rate_shuffled: float
    rate_preshuffled: float
    c1: float
    c2: float = C2_DEFAULT  # general-Hermitian existence constant, informational


def _check_rate(name, value):
    if not 0.0 <= value < 1.0:
        raise ValueError(f"{name} = {value} falls outside [0, 1); "
                         "check the supplied constants")
    return float(value)


def evaluate_rate_bounds(spectrum: SpectralSummary, omega: float, c0: float | None = None,
                         c1: float = C1_DEFAULT) -> RateBounds:
    """Evaluate all per-sweep contraction bounds for PSD unit-diagonal B.

    The bounds read B only through ``spectrum``, its :func:`spectral_summary`:
    n, L1 = lambda1, kbar = kappa_bar, the rank and the unit-diagonal flag.
    The cyclic, shuffled and preshuffled bounds are one formula,
    1 - (2-w) w L1 / ((1 + C w L1)^2 kbar), where C bounds the triangular
    truncation ||L|| / ||B|| of the strategy's orders:

    rate_cyclic         : C = (1/2) floor(log2 2n)
    rate_cyclic_lowrank : C = c0 ln(rank)
    rate_shuffled       : C = 1
    rate_preshuffled    : C = c1
    rate_single_step_sweep is (1 - (2-w) w L1 / (n kbar))^n (one sweep = n picks).
    """
    _check_omega(omega)
    if not spectrum.unit_diagonal:
        raise ValueError("bounds assume unit diagonal; call rescale_unit_diagonal first")
    lam = spectrum.lambda1
    kap = spectrum.kappa_bar
    n = len(spectrum.eigenvalues)
    gain = (2.0 - omega) * omega * lam

    def rate(name, c):
        return _check_rate(name, 1.0 - gain / ((1.0 + c * omega * lam) ** 2 * kap))

    rate_cyclic = rate("rate_cyclic", 0.5 * math.floor(math.log2(2 * n)))

    lowrank = None
    if c0 is not None:
        if spectrum.rank < 2:
            raise ValueError("low-rank variant needs rank >= 2")
        if c0 <= 0:
            raise ValueError("c0 must be positive")
        lowrank = rate("rate_cyclic_lowrank", c0 * math.log(spectrum.rank))

    rate_single = _check_rate(
        "rate_single_step_sweep", (1.0 - gain / (n * kap)) ** n)
    rate_shuffled = rate("rate_shuffled", 1.0)
    if c1 <= 0:
        raise ValueError("c1 must be positive")
    rate_preshuffled = rate("rate_preshuffled", c1)

    return RateBounds(
        n=n,
        lambda1=lam,
        kappa_bar=kap,
        rank=spectrum.rank,
        omega=omega,
        rate_cyclic=rate_cyclic,
        rate_cyclic_lowrank=lowrank,
        c0=c0,
        rate_single_step_sweep=rate_single,
        rate_shuffled=rate_shuffled,
        rate_preshuffled=rate_preshuffled,
        c1=c1,
    )


def _contraction_gram(B, R, omega, perms):
    """Sum of S_s* S_s over the rows s of perms, for B = R R* (R is n x r).

    S_s = I_r - w R_s* Z_s is the one-sweep error map Q_s in the range
    coordinates of B (see :func:`expected_contraction`). Z_s solves
    (I + w L_s) Z_s = R_s by forward substitution, one row of L_s gathered
    from B per step, so no n x n stack is formed.
    """
    n, r = R.shape
    R_s = np.take(R, perms, axis=0)
    Z = np.empty_like(R_s)
    for i in range(n):
        row = np.take(B, perms[:, i, None] * n + perms[:, :i])  # B[s_i, s_j], j < i
        Z[:, i] = R_s[:, i] - omega * np.matmul(row[:, None, :], Z[:, :i])[:, 0]
    S = np.eye(r) - omega * np.matmul(R_s.conj().transpose(0, 2, 1), Z)
    Y = S.reshape(-1, r)  # stacked S_s: one GEMM gives the sum of S_s* S_s
    return Y.conj().T @ Y


def _shuffled_average(R, omega):
    """E_s[S_s* S_s] over all n! orders s, for B = R R* (R is n x r).

    S_s = S_{s_n} ... S_{s_1} is the one-sweep error map in the range
    coordinates of B (see :func:`expected_contraction`), with coordinate
    steps S_i = I_r - w c_i c_i*, c_i = conj(R[i]). Each S_i is Hermitian,
    so the average is F(all) of the recursion over index subsets
    F({}) = I_r, F(S) = (1/|S|) sum_{i in S} S_i F(S - {i}) S_i: the first
    index swept is uniform over S, and the rest is a uniform order of
    S - {i}.
    F is stored by bitmask and filled one subset size at a time, n 2^(n-1)
    r x r products in all instead of n! forward substitutions.
    """
    n, r = R.shape
    S = np.eye(r) - omega * R.conj()[:, :, None] * R[:, None, :]
    masks = np.arange(1 << n)
    bits = (masks[:, None] >> np.arange(n)) & 1
    size = bits.sum(axis=1)
    F = np.zeros((1 << n, r, r), dtype=S.dtype)
    F[0] = np.eye(r)
    for k in range(1, n + 1):
        level = masks[size == k]
        for i in range(n):
            sub = level[bits[level, i] == 1]
            F[sub] += S[i] @ F[sub ^ (1 << i)] @ S[i]
        F[level] /= k
    return F[-1]


def expected_contraction(B, omega: float, trials: int = 2000, rng=None) -> float:
    """Tight expected one-sweep contraction factor of the shuffled iteration.

    The factor is the largest generalized Rayleigh quotient
    <M y, y> / <B y, y> over y outside the kernel of B, where M is the
    average of Q_s* B Q_s over uniform permutations s. It is computed in the
    range of B: write B = R R* with R = V_r Lambda_r^{1/2} from the eigenpairs
    of the rank-r range. In the basis W = V_r Lambda_r^{-1/2}, R* Q_s W is the
    r x r matrix S_s = I_r - w R_s* Z_s with R_s = R[s] and
    (I + w L_s) Z_s = R_s, so W* Q_s* B Q_s W = S_s* S_s and the factor is
    lambda_max of the mean of S_s* S_s. For n <= EXHAUSTIVE_LIMIT the
    mean over all n! orders is exact, by the subset recursion of
    :func:`_shuffled_average`, and `trials` and `rng` are ignored; above it,
    it is estimated from `trials` Monte Carlo orders drawn from `rng`
    (summed by :func:`_contraction_gram`, batch by batch).
    B must be PSD with unit diagonal; an indefinite B raises "matrix not PSD".
    """
    B = _as_square(B)
    _check_omega(omega)
    s = spectral_summary(B)  # raises on an indefinite or zero B before the averaging
    if not s.unit_diagonal:
        raise ValueError("unit diagonal required; call rescale_unit_diagonal first")
    n = B.shape[0]

    R = s.eigenvectors[:, :s.rank] * np.sqrt(s.eigenvalues[:s.rank])
    if n <= EXHAUSTIVE_LIMIT:
        M = _shuffled_average(R, omega)
    else:
        M = sum(_contraction_gram(B, R, omega, perms)
                for perms in _perm_batches(n, trials, rng)) / trials
    return float(np.linalg.eigvalsh((M + M.conj().T) / 2)[-1])
