"""Reordering-average analysis and convergence-rate bounds.

Centerpieces:

* the average of L L* over all n! simultaneous row/column reorderings of a
  Hermitian B (exhaustive oracle, closed form, Monte Carlo estimator),
* spectral-norm statistics of the triangular truncation ||L_sigma|| across
  permutations (exhaustive search, local-search heuristic, Monte Carlo),
* evaluation of the per-sweep contraction bounds for the cyclic, shuffled,
  preshuffled, and single-step-random iterations,
* the exact expected one-sweep contraction factor, measured from the
  averaged operator itself.

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

import numpy as np

from .linalg import (
    _as_permutation,
    _as_square,
    _ordered_lower,
    hadamard,
    has_unit_diagonal,
    min_index_matrix,
    spectral_norm,
    spectral_summary,
)
from .solvers import _check_omega

# Largest n for which all n! permutations are enumerated (8! = 40320).
EXHAUSTIVE_LIMIT = 8

# Largest batch of orders. An exhaustive batch holds the (n - 1)! orders with
# one leading index, at most 7! = 5040; a Monte Carlo batch holds at most
# _CHUNK * 8**2 matrix entries, as many as the largest exhaustive batch.
_CHUNK = 5040

# Best currently known constants for the reordered-truncation existence
# bounds: ||L_sigma|| <= C1 ||B|| for some sigma when B is PSD with unit
# diagonal, and <= C2 ||B|| for general Hermitian B. Both come from
# quantitative paving-partition estimates and are considered pessimistic.
C1_DEFAULT = 32.42
C2_DEFAULT = 2907.0

# Relative margin by which a lower bound must exceed a norm before the
# heuristic drops a swap unscored; about 1e4 times the rounding of the bound
# and of the SVD (see min_truncation_heuristic).
_PRUNE_MARGIN = 1e-10


def _nonzero_norm(B) -> float:
    norm_b = spectral_norm(B)
    if norm_b == 0:
        raise ValueError("zero matrix has no truncation ratio")
    return norm_b


def _check_rng(rng):
    if rng is None:
        raise ValueError("Monte Carlo mode needs an rng")


def _perm_batches(n, trials=None, rng=None):
    """Yield (k, n) permutation arrays.

    Without ``trials``: all n! permutations in lexicographic order, one
    batch per leading index, each built from one table of the (n - 1)!
    orders of the rest. With it: ``trials`` >= 1 uniform permutations drawn
    from ``rng`` (required), in batches of at most _CHUNK orders and
    _CHUNK * 64 // n**2 (at least one), which bounds the (k, n, n) stacks
    built from a batch; the draws do not depend on the batch size.
    """
    if trials is None:
        tail = np.zeros((1, 0), np.intp)  # the one order of zero elements
        if n > 1:
            tail = np.concatenate(list(_perm_batches(n - 1)))
        for first in range(n):
            rest = np.delete(np.arange(n, dtype=np.intp), first)
            yield np.column_stack((np.full(len(tail), first, np.intp), rest[tail]))
        return
    if trials < 1:
        raise ValueError("trials must be >= 1")
    _check_rng(rng)
    size = max(1, min(_CHUNK, _CHUNK * 64 // n**2))
    for done in range(0, trials, size):
        k = min(size, trials - done)
        yield rng.permuted(np.tile(np.arange(n), (k, 1)), axis=1).astype(np.intp)


def _lower_gram_terms(B, perms):
    """Stack of P* L_s L_s* P = M_s M_s* (M_s the ordered truncation) over perms."""
    M = _ordered_lower(B, perms)
    return M @ M.conj().transpose(0, 2, 1)


def expected_lower_gram_bruteforce(B) -> np.ndarray:
    """Exact average of P* L_s L_s* P over all n! reorderings (n <= 8)."""
    B = _as_square(B)
    n = B.shape[0]
    if n > EXHAUSTIVE_LIMIT:
        raise ValueError(f"n = {n} too large for exhaustive averaging; use montecarlo")
    acc = np.zeros((n, n), dtype=B.dtype)
    for perms in _perm_batches(n):
        acc += _lower_gram_terms(B, perms).sum(axis=0)
    return acc / math.factorial(n)


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
    psd_unit_diagonal: bool
    general_ok: bool          # norm_avg <= 4 ||B||^2
    psd_strict_ok: bool | None    # norm_avg < ||B||^2 (PSD unit-diagonal only)
    h_general_ok: bool        # ||H|| <= 2 ||B||
    h_psd_ok: bool | None     # ||H|| <= max(||B|| - 1, 1) <= ||B||


def _is_psd_unit_diagonal(B):
    if not has_unit_diagonal(B):
        return False
    try:
        spectral_summary(B)
    except ValueError:  # indefinite, or the zero matrix
        return False
    return True


def check_lower_gram_bounds(B) -> LowerGramReport:
    """Evaluate norm bounds for the reordering average of L L*.

    Always checks ||E|| <= 4 ||B||^2 and ||H|| <= 2 ||B||; for PSD B with
    unit diagonal additionally the strict bound ||E|| < ||B||^2 and
    ||H|| <= max(||B|| - 1, 1).
    """
    B = _as_square(B)
    norm_b = spectral_norm(B)
    norm_avg = spectral_norm(expected_lower_gram_closed(B))
    norm_h = spectral_norm(B - np.diag(np.diag(B)))
    slack = 1e-12 * max(norm_b**2, 1.0)
    psd_unit = _is_psd_unit_diagonal(B)
    psd_strict = None
    h_psd = None
    if psd_unit:
        psd_strict = bool(norm_avg < norm_b**2 - 1e-10 * norm_b**2) if norm_b > 0 else True
        h_psd = bool(norm_h <= max(norm_b - 1.0, 1.0) + slack)
    return LowerGramReport(
        norm_avg=norm_avg,
        norm_b=norm_b,
        norm_h=norm_h,
        psd_unit_diagonal=psd_unit,
        general_ok=bool(norm_avg <= 4.0 * norm_b**2 + slack),
        psd_strict_ok=psd_strict,
        h_general_ok=bool(norm_h <= 2.0 * norm_b + slack),
        h_psd_ok=h_psd,
    )


def _batched_truncation_norms(B, perms):
    """||L_s|| for each row s of perms, L_s gathered in the reordered indexing."""
    L = np.tril(B[perms[:, :, None], perms[:, None, :]], -1)
    return np.linalg.svd(L, compute_uv=False)[:, 0]


def truncation_ratio(B, sigma) -> float:
    """||L_sigma|| / ||B||: relative norm of the reordered lower truncation."""
    B = _as_square(B)
    norm_b = _nonzero_norm(B)
    sigma = _as_permutation(sigma, B.shape[0])
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

    The reversed ordering has L_rev = J L_sigma* J (J the exchange matrix),
    so the same norm: only orderings with sigma[0] <= sigma[-1] are scored,
    one of each reversal pair. ``samples`` still counts all n! orderings.
    """
    B = _as_square(B)
    n = B.shape[0]
    if n > EXHAUSTIVE_LIMIT:
        raise ValueError(f"n = {n} too large for exhaustive search; use heuristic")
    norm_b = _nonzero_norm(B)
    best = np.inf
    best_sigma = None
    total_sum = 0.0
    worst = 0.0
    identity_ratio = None
    scored = 0
    for perms in _perm_batches(n):
        perms = perms[perms[:, 0] <= perms[:, -1]]
        if not len(perms):
            continue
        norms = _batched_truncation_norms(B, perms)
        if identity_ratio is None:
            identity_ratio = float(norms[0]) / norm_b  # lexicographic first = identity
        i = int(np.argmin(norms))
        if norms[i] < best:
            best = float(norms[i])
            best_sigma = perms[i].copy()
        worst = max(worst, float(norms.max()))
        total_sum += float(norms.sum())
        scored += len(perms)
    return TruncationStats(
        ratio_identity=identity_ratio,
        min_ratio=best / norm_b,
        argmin_sigma=best_sigma,
        mean_ratio=total_sum / scored / norm_b,  # both orders of a pair share one norm
        max_ratio=worst / norm_b,
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
    map applies to one vector per k as a GEMM plus two corrected entries.
    For each k, the bound is the Rayleigh-Ritz value over the span Q_k of v
    and L_k* L_k v (orthogonalized against v twice): lambda_max of
    (L_k Q_k)* (L_k Q_k) over lambda_max of Q_k* Q_k, which stays at or
    below ||L_k||^2 whatever the rounding in Q_k. Returns (bounds, ritz)
    where ritz(k) is the unit vector of Q_k that attains bound k.
    """
    n = L.shape[0]
    k = np.arange(n - 1)
    c = L[k + 1, k]

    def apply(X, M, sign):  # row k of X -> (M + sign E_k) X[k]
        Y = X @ M.T
        flat = Y.reshape(-1)  # Y[k, k] is flat[k (n + 1)], Y[k, k + 1] the next entry
        flat[::n + 1] += sign * c.conj() * np.diagonal(X, 1)
        flat[1::n + 1] -= sign * c * np.diagonal(X)
        return Y

    v = v / np.linalg.norm(v)
    Lv = apply(np.tile(v, (n - 1, 1)), L, 1)
    z = apply(Lv, L.conj().T, -1)
    for _ in range(2):
        z -= np.outer(z @ v.conj(), v)
    norms = np.linalg.norm(z, axis=1, keepdims=True)
    q = np.divide(z, norms, out=np.zeros_like(z), where=norms > 0)
    Lq = apply(q, L, 1)
    a = np.einsum("ki,ki->k", Lv.conj(), Lv).real
    b = np.einsum("ki,ki->k", Lv.conj(), Lq)
    d = np.einsum("ki,ki->k", Lq.conj(), Lq).real
    gram = _lambda_max(np.vdot(v, v).real, q @ v.conj(),
                       np.einsum("ki,ki->k", q.conj(), q).real)

    def ritz(i):
        if not q[i].any():  # Q_i is v alone
            return v.copy()
        x = np.linalg.eigh([[a[i], b[i]], [np.conj(b[i]), d[i]]])[1][:, -1]
        return x[0] * v + x[1] * q[i]

    return np.sqrt(_lambda_max(a, b, d) / gram), ritz


def min_truncation_heuristic(B, restarts: int, rng) -> TruncationStats:
    """Adjacent-transposition steepest descent from random starts.

    From each uniformly drawn starting permutation, repeatedly applies the
    best norm-decreasing swap of neighboring positions until none improves;
    ties go to the leftmost swap. Deterministic given the rng seed. The
    result is an upper bound on the exhaustive minimum.

    Each step scores the n - 1 neighbors exactly but runs few SVDs:
    :func:`_swap_bounds` gives a lower bound b_k <= ||L_k|| for every swap
    from a vector carried over from the previous step (the top right
    singular vector at the start, then the accepted swap's Ritz vector).
    Swaps with b_k > cur (1 + _PRUNE_MARGIN) are dropped, where cur is the
    current norm; the swap with the smallest bound gets an exact SVD, norm
    m; swaps with b_k > min(m, cur) (1 + _PRUNE_MARGIN) are dropped too;
    the rest get exact SVDs. The margin is about 1e4 times the rounding of
    the bound and of the SVD, so every dropped swap has a computed norm
    strictly above a norm that is kept or above cur: it can be neither the
    best swap nor tied with it. The norms that decide come from the same
    SVDs of the same matrices as scoring every neighbor, so the descent
    path and every statistic are the same, bit for bit.
    """
    B = _as_square(B)
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    _check_rng(rng)
    n = B.shape[0]
    norm_b = _nonzero_norm(B)
    k = np.arange(n - 1)

    best = np.inf
    best_sigma = None
    start_norms = []
    for _ in range(restarts):
        sigma = rng.permutation(n).astype(np.intp)
        cur = float(_batched_truncation_norms(B, sigma[None, :])[0])
        start_norms.append(cur)
        L = np.tril(B[np.ix_(sigma, sigma)], -1)
        v = np.linalg.svd(L)[2][0].conj()
        while n > 1:
            bounds, ritz = _swap_bounds(L, v)
            first = int(np.argmin(bounds))
            if bounds[first] > cur * (1 + _PRUNE_MARGIN):
                break  # every swap has a larger norm
            swapped = np.tile(sigma, (n - 1, 1))  # row k swaps positions k, k + 1
            swapped[k, k], swapped[k, k + 1] = sigma[k + 1], sigma[k]
            norms = np.full(n - 1, np.inf)
            norms[first] = _batched_truncation_norms(B, swapped[first, None])[0]
            rest = ~(bounds > min(norms[first], cur) * (1 + _PRUNE_MARGIN))
            rest[first] = False
            norms[rest] = _batched_truncation_norms(B, swapped[rest])
            i = int(np.argmin(norms))
            if not norms[i] < cur:
                break
            sigma, cur = swapped[i], float(norms[i])
            L = np.tril(B[np.ix_(sigma, sigma)], -1)
            v = ritz(i)
            v[[i, i + 1]] = v[[i + 1, i]]
        if cur < best:
            best = cur
            best_sigma = sigma.copy()
    start_ratios = np.array(start_norms) / norm_b
    return TruncationStats(
        ratio_identity=float(_batched_truncation_norms(B, np.arange(n)[None, :])[0]) / norm_b,
        min_ratio=best / norm_b,
        argmin_sigma=best_sigma,
        mean_ratio=float(start_ratios.mean()),
        max_ratio=float(start_ratios.max()),
        method="heuristic",
        samples=restarts,
    )


def expected_truncation_norm(B, trials: int, rng) -> tuple[float, float]:
    """Monte Carlo estimate of E[||L_sigma||] / ||B|| over uniform orderings.

    Returns (estimate, standard_error). Empirical data only; no closed form
    or proven bound for this average is implemented.
    """
    B = _as_square(B)
    n = B.shape[0]
    norm_b = _nonzero_norm(B)
    vals = np.concatenate([_batched_truncation_norms(B, perms)
                           for perms in _perm_batches(n, trials, rng)])
    ratios = vals / norm_b
    se = float(ratios.std(ddof=0) / np.sqrt(trials))
    return float(ratios.mean()), se


@dataclass(frozen=True)
class RateBounds:
    """Per-sweep squared-error contraction bounds for one (B, omega).

    Every rate is an upper bound on the factor by which the squared energy
    error shrinks per sweep (in expectation, for the randomized variants).
    ``rate_cyclic_lowrank`` is only evaluated when the caller supplies the
    constant c0 and rank >= 2.
    """

    omega: float
    n: int
    lambda1: float
    kappa_bar: float
    rank: int
    rate_cyclic: float
    rate_cyclic_lowrank: float | None
    rate_single_step_sweep: float
    rate_shuffled: float
    rate_preshuffled: float
    c0: float | None
    c1: float
    c2: float = C2_DEFAULT  # general-Hermitian existence constant, informational


def _check_rate(name, value):
    if not 0.0 <= value < 1.0:
        raise ValueError(f"{name} = {value} falls outside [0, 1); "
                         "check the supplied constants")
    return float(value)


def evaluate_rate_bounds(B, omega: float, c0: float | None = None,
                         c1: float = C1_DEFAULT) -> RateBounds:
    """Evaluate all per-sweep contraction bounds for PSD unit-diagonal B.

    rate_cyclic        : 1 - (2-w) w L1 / ((1 + (1/2) floor(log2 2n) w L1)^2 kbar)
    rate_cyclic_lowrank: same with (1/2) floor(log2 2n) replaced by c0 ln(rank)
    rate_single_step   : (1 - (2-w) w L1 / (n kbar))^n  (one sweep = n picks)
    rate_shuffled      : 1 - w (2-w) L1 / ((1 + w L1)^2 kbar)
    rate_preshuffled   : 1 - w (2-w) L1 / ((1 + c1 w L1)^2 kbar)
    """
    _check_omega(omega)
    B = _as_square(B)
    if not has_unit_diagonal(B):
        raise ValueError("bounds assume unit diagonal; call rescale_unit_diagonal first")
    s = spectral_summary(B)
    lam = s.lambda1
    kap = s.kappa_bar
    n = B.shape[0]
    gain = (2.0 - omega) * omega * lam

    half_log = 0.5 * math.floor(math.log2(2 * n))
    rate_cyclic = _check_rate(
        "rate_cyclic", 1.0 - gain / ((1.0 + half_log * omega * lam) ** 2 * kap))

    lowrank = None
    if c0 is not None:
        if s.rank < 2:
            raise ValueError("low-rank variant needs rank >= 2")
        if c0 <= 0:
            raise ValueError("c0 must be positive")
        lowrank = _check_rate(
            "rate_cyclic_lowrank",
            1.0 - gain / ((1.0 + c0 * math.log(s.rank) * omega * lam) ** 2 * kap))

    rate_single = _check_rate(
        "rate_single_step_sweep", (1.0 - gain / (n * kap)) ** n)
    rate_shuffled = _check_rate(
        "rate_shuffled", 1.0 - gain / ((1.0 + omega * lam) ** 2 * kap))
    if c1 <= 0:
        raise ValueError("c1 must be positive")
    rate_preshuffled = _check_rate(
        "rate_preshuffled", 1.0 - gain / ((1.0 + c1 * omega * lam) ** 2 * kap))

    return RateBounds(
        omega=omega,
        n=n,
        lambda1=lam,
        kappa_bar=kap,
        rank=s.rank,
        rate_cyclic=rate_cyclic,
        rate_cyclic_lowrank=lowrank,
        rate_single_step_sweep=rate_single,
        rate_shuffled=rate_shuffled,
        rate_preshuffled=rate_preshuffled,
        c0=c0,
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


def expected_contraction(B, omega: float, trials: int = 2000, rng=None) -> float:
    """Tight expected one-sweep contraction factor of the shuffled iteration.

    The factor is the largest generalized Rayleigh quotient
    <M y, y> / <B y, y> over y outside the kernel of B, where M is the
    average of Q_s* B Q_s over permutations s (all n! of them when n <= 8,
    else `trials` Monte Carlo samples). It is computed in the range of B:
    write B = R R* with R = V_r Lambda_r^{1/2} from the eigenpairs of the
    rank-r range. In the basis W = V_r Lambda_r^{-1/2}, R* Q_s W is the r x r
    matrix S_s = I_r - w R_s* Z_s with R_s = R[s] and (I + w L_s) Z_s = R_s,
    so W* Q_s* B Q_s W = S_s* S_s and the factor is lambda_max of the mean of
    S_s* S_s (summed by :func:`_contraction_gram`). B must be PSD with unit
    diagonal; an indefinite B raises "matrix not PSD".
    """
    B = _as_square(B)
    _check_omega(omega)
    if not has_unit_diagonal(B):
        # also rejects the zero matrix, which has no contraction factor
        raise ValueError("unit diagonal required; call rescale_unit_diagonal first")
    s = spectral_summary(B)  # raises "matrix not PSD" before the averaging
    n = B.shape[0]

    batches = _perm_batches(n) if n <= EXHAUSTIVE_LIMIT else _perm_batches(n, trials, rng)
    R = s.eigenvectors[:, :s.rank] * np.sqrt(s.eigenvalues[:s.rank])
    acc = np.zeros((s.rank, s.rank), dtype=B.dtype)
    count = 0
    for perms in batches:
        acc += _contraction_gram(B, R, omega, perms)
        count += len(perms)
    M = acc / count
    return float(np.linalg.eigvalsh((M + M.conj().T) / 2)[-1])
