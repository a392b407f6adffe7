"""Relaxation sweeps and the sweep driver.

The sweep is implemented in projection (coordinate) form: for each index i
in the sweep order, the i-th coordinate is relaxed against the current
residual. A pass does not loop over the coordinates in Python: the
sequential increments of SWEEP_BLOCK consecutive steps solve one unit lower
triangular system (the strictly lower part of the reordered block), so a
block is one gather of rows, one matrix-vector product, one LAPACK forward
substitution and one scatter-add, and the pass gives the
coordinate-by-coordinate result up to rounding. For the natural order this
is the classical forward-substitution form of one SOR step; the full error
propagation matrix exists only in :func:`error_iteration_matrix`.

:func:`run_solver` and :func:`run_kaczmarz` share one driver that runs a
trial sweep by sweep, and :func:`sor_sweep` / :func:`kaczmarz_sweep` run the
same passes once, behind one input check per update rule.
:func:`run_trials` runs seeded Monte Carlo trials of one ordering kind and
owns their seed scheme.

Error histories are measured against a caller-supplied planted solution in
the energy semi-norm of B, which is independent of which exact solution is
chosen (kernel components cancel).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg.lapack import dtrtrs, ztrtrs

from .linalg import (_as_matrix, _as_permutation, _as_square, _ordered_lower, energy_seminorm_sq,
                     has_unit_diagonal)
from .orderings import (OrderingStrategy, _as_indices, derive_seed, derived_rng, fixed, make_rng,
                        preshuffled, sweep_order)

KACZMARZ_ROW_NORM_TOL = 1e-10
# steps per forward substitution; bounds the gathered block to SWEEP_BLOCK rows
SWEEP_BLOCK = 64
# trial kinds of run_trials; a kind's position here is part of its derived
# seeds, so the tuple is frozen and new kinds go at the end
TRIAL_KINDS = ("cyclic", "shuffled", "preshuffled", "single_step_random", "fixed")


@dataclass(frozen=True)
class SolverConfig:
    omega: float = 1.0
    max_sweeps: int = 100
    target_error_sq: float = 1e-24
    seed: int = 0

    def __post_init__(self):
        _check_omega(self.omega)
        if self.max_sweeps < 1:
            raise ValueError("max_sweeps must be >= 1")
        if self.target_error_sq < 0:
            raise ValueError("target_error_sq must be >= 0")


@dataclass
class IterationHistory:
    """Per-sweep record of one solver run.

    ``errors_sq[k]`` is the squared energy semi-norm error after k sweeps
    (k = 0 is the start), ``residuals[k]`` the Euclidean residual norm.
    """

    errors_sq: np.ndarray
    residuals: np.ndarray
    final_iterate: np.ndarray

    @property
    def sweeps(self) -> int:
        return len(self.errors_sq) - 1


def _check_omega(omega):
    if not 0.0 < omega < 2.0:
        raise ValueError("omega must lie strictly in (0, 2)")


def _check_vector(v, n, name):
    v = np.asarray(v)
    if v.shape != (n,):
        raise ValueError(f"{name} has shape {v.shape}, expected ({n},)")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} contains NaN or Inf entries")
    return v


def _check_order(order, n):
    order = _as_indices(order)
    if order.shape != (n,) or order.min(initial=0) < 0 or order.max(initial=0) >= n:
        raise ValueError("order must be a length-n sequence of indices in 0..n-1")
    return order


def _sor_inputs(B, **vectors):
    """Checked (B, *vectors) of an SOR sweep: B square, finite and unit
    diagonal; each named vector finite with length n."""
    B = _as_square(B)
    if not has_unit_diagonal(B):
        raise ValueError("matrix must have unit diagonal; call rescale_unit_diagonal first")
    return (B, *(_check_vector(v, B.shape[0], name) for name, v in vectors.items()))


def _kaczmarz_inputs(A, b, **vectors):
    """Checked (A, b, *vectors) of a Kaczmarz sweep: A finite with unit-norm
    rows; b finite with length m, each named vector with length n."""
    A = _as_matrix(A, "A")
    norms = np.linalg.norm(A, axis=1)
    if np.max(np.abs(norms - 1.0)) > KACZMARZ_ROW_NORM_TOL:
        raise ValueError("rows of A must have unit norm")
    m, n = A.shape
    return (A, _check_vector(b, m, "b"),
            *(_check_vector(v, n, name) for name, v in vectors.items()))


def _forward_substitute(L, r):
    """Solve (I + strict_lower(L)) z = r; the diagonal and upper part of L are ignored."""
    trtrs = ztrtrs if np.iscomplexobj(L) or np.iscomplexobj(r) else dtrtrs
    return trtrs(L, r, lower=1, unitdiag=1)[0]


def _sor_pass(B, b, y, omega, order):
    """Relax the coordinates of y in place, in the given order.

    Step k sets y[i_k] += omega * (b[i_k] - B[i_k] @ y) with the latest y.
    For a block of SWEEP_BLOCK consecutive steps the increments d solve
    (I + omega L) d = omega (b - B y)[idx], where L is the strictly lower
    part of B[idx][:, idx] (indices may repeat): one gather of rows, one
    product, one forward substitution and one scatter-add per block.
    """
    for start in range(0, len(order), SWEEP_BLOCK):
        idx = order[start:start + SWEEP_BLOCK]
        rows = B[idx]
        d = _forward_substitute(omega * rows[:, idx], omega * (b[idx] - rows @ y))
        np.add.at(y, idx, d)


def _kaczmarz_pass(A, b, x, omega, order):
    """Project x in place onto the row hyperplanes of A, in the given order.

    Step k adds omega * (b[i_k] - a_k @ x) * conj(a_k) with the latest x;
    as in :func:`_sor_pass` each block of steps is one forward
    substitution, here with the Gram matrix of its rows a_k.
    """
    for start in range(0, len(order), SWEEP_BLOCK):
        idx = order[start:start + SWEEP_BLOCK]
        rows = A[idx]
        d = _forward_substitute(omega * (rows @ rows.conj().T), omega * (b[idx] - rows @ x))
        x += rows.conj().T @ d


def sor_sweep(B, b, y, omega: float, order) -> np.ndarray:
    """One relaxation sweep of By = b over the given coordinate order.

    Sequentially, using latest values: y[i] += omega * (b[i] - <row_i(B), y>).
    Requires unit diagonal. Returns a new vector.
    """
    B, b, y = _sor_inputs(B, b=b, y=y)
    order = _check_order(order, B.shape[0])
    y = np.array(y, dtype=np.result_type(B, b, y), copy=True)
    _sor_pass(B, b, y, omega, order)
    return y


def kaczmarz_sweep(A, b, x, omega: float, order) -> np.ndarray:
    """One sweep of relaxed hyperplane projections for Ax = b.

    For each row index i in order: x += omega * (b[i] - <a_i, x>) * conj(a_i).
    Rows of A must have unit Euclidean norm.
    """
    A, b, x = _kaczmarz_inputs(A, b, x=x)
    order = _check_order(order, A.shape[0])
    x = np.array(x, dtype=np.result_type(A, b, x), copy=True)
    _kaczmarz_pass(A, b, x, omega, order)
    return x


def _iterate(M, b, v, error, sweep, config: SolverConfig,
             strategy: OrderingStrategy) -> IterationHistory:
    """Sweep v in place until max_sweeps or until error(v) reaches the target.

    Each sweep draws its order from the strategy (PCG64 stream seeded with
    ``config.seed``) and runs ``sweep(M, b, v, omega, order)``; the error and
    the residual ||b - M v|| are recorded before the first and after every
    sweep. Raises ValueError once either is NaN or Inf.
    """
    rng = make_rng(config.seed)
    errors: list[float] = []
    residuals: list[float] = []

    def record(sweep_no):
        errors.append(error(v))
        residuals.append(float(np.linalg.norm(b - M @ v)))
        if not (math.isfinite(errors[-1]) and math.isfinite(residuals[-1])):
            raise ValueError(f"error is not finite after sweep {sweep_no} "
                             f"(seed {config.seed})")

    record(0)
    for sweep_no in range(1, config.max_sweeps + 1):
        sweep(M, b, v, config.omega, sweep_order(strategy, M.shape[0], rng))
        record(sweep_no)
        if errors[-1] <= config.target_error_sq:
            break
    return IterationHistory(np.array(errors), np.array(residuals), v)


def run_solver(B, b, y0, ybar, config: SolverConfig,
               strategy: OrderingStrategy) -> IterationHistory:
    """Iterate SOR sweeps on By = b, tracking the energy error to ybar.

    Stops after ``config.max_sweeps`` sweeps or once the squared energy
    error drops to ``config.target_error_sq``. Sweep orders come from the
    strategy, fed by a PCG64 stream seeded with ``config.seed``. Raises
    ValueError on non-finite input or once the error becomes NaN or Inf.
    """
    B, b, ybar, y0 = _sor_inputs(B, b=b, ybar=ybar, y0=y0)
    y = np.array(y0, dtype=np.result_type(B, b, y0, ybar), copy=True)
    return _iterate(B, b, y, lambda v: energy_seminorm_sq(B, ybar - v), _sor_pass,
                    config, strategy)


def run_trials(B, b, y0, ybar, kind: str, trials: int, config: SolverConfig,
               sigma=None) -> list[IterationHistory]:
    """Run ``trials`` seeded :func:`run_solver` trials of one ordering kind.

    ``kind`` is one of TRIAL_KINDS and k its position there. Trial t sweeps
    with the seed ``derive_seed(config.seed, k, t, 0)``; a preshuffled trial
    draws its order from ``derived_rng(config.seed, k, t, 1)`` unless
    ``sigma`` pins it. ``fixed`` requires ``sigma``; cyclic, shuffled and
    single_step_random ignore it. Returns one history per trial, in order.
    """
    if kind not in TRIAL_KINDS:
        raise ValueError(f"unknown trial kind {kind!r}; choose from {', '.join(TRIAL_KINDS)}")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if kind == "fixed" and sigma is None:
        raise ValueError("kind 'fixed' requires sigma")
    index = TRIAL_KINDS.index(kind)
    histories = []
    for t in range(trials):
        if sigma is not None and kind in ("fixed", "preshuffled"):
            strategy = fixed(sigma)
        elif kind == "preshuffled":
            strategy = preshuffled(len(b), derived_rng(config.seed, index, t, 1))
        else:
            strategy = OrderingStrategy(kind)
        trial_config = replace(config, seed=derive_seed(config.seed, index, t, 0))
        histories.append(run_solver(B, b, y0, ybar, trial_config, strategy))
    return histories


def run_kaczmarz(A, b, x0, xbar, config: SolverConfig,
                 strategy: OrderingStrategy) -> IterationHistory:
    """Iterate Kaczmarz sweeps on Ax = b, tracking ||xbar - x||^2.

    Mirrors :func:`run_solver`; with matched seeds and strategies the two
    histories coincide through x = A* y.
    """
    A, b, xbar, x0 = _kaczmarz_inputs(A, b, xbar=xbar, x0=x0)
    x = np.array(x0, dtype=np.result_type(A, b, x0, xbar), copy=True)
    return _iterate(A, b, x, lambda v: float(np.linalg.norm(xbar - v) ** 2), _kaczmarz_pass,
                    config, strategy)


def mean_error_curve(curves) -> np.ndarray:
    """Mean of error curves of unequal length, each padded with its last value.

    A trial that stopped early keeps its final error for the remaining
    sweeps. Curves are added one at a time in the given order (not
    pairwise, as ``np.mean`` may), which pins the bits of the result.
    """
    curves = [np.asarray(c, dtype=np.float64) for c in curves]
    acc = np.zeros(max(len(c) for c in curves))
    for c in curves:
        acc[:len(c)] += c
        acc[len(c):] += c[-1]
    return acc / len(curves)


def error_iteration_matrix(B, omega: float, sigma) -> np.ndarray:
    """Error propagation matrix of one sweep in the order sigma.

    Returns Q = I - omega P* (I + omega L_s)^{-1} P B in the original
    indexing, where L_s is the strictly lower part of the reordered matrix
    and P the permutation matrix of sigma. One sweep with b = 0 multiplies
    the iterate by Q. With M = P* L_s P, Q = I - omega (I + omega M)^{-1} B.
    """
    B = _sor_inputs(B)[0]
    _check_omega(omega)
    sigma = _as_permutation(sigma, B.shape[0])
    eye = np.eye(B.shape[0], dtype=B.dtype)
    return eye - omega * np.linalg.solve(eye + omega * _ordered_lower(B, sigma[None, :])[0], B)


def empirical_rate(history, window: int = 10) -> float:
    """Geometric-mean per-sweep ratio of errors_sq over the last `window` sweeps.

    Accepts an IterationHistory or a bare error sequence. Returns 0.0 if the
    error reached exactly zero inside the window.
    """
    errs = np.asarray(getattr(history, "errors_sq", history), dtype=np.float64)
    if window < 1:
        raise ValueError("window must be >= 1")
    if len(errs) < window + 2:
        raise ValueError("history too short for the requested window")
    tail = errs[-(window + 1):]
    if np.any(tail <= 0):
        return 0.0
    return float((tail[-1] / tail[0]) ** (1.0 / window))
