"""Relaxation sweeps and the sweep driver.

The sweep is implemented in projection (coordinate) form: for each index i
in the sweep order, the i-th coordinate is relaxed against the current
residual. One driver, :func:`_sweeps`, runs every trial as a row of a stack
of iterates, and there are two passes for it to apply.

The block pass sweeps one iterate and does not loop over the coordinates in
Python: the sequential increments of SWEEP_BLOCK consecutive steps solve one
unit lower triangular system (the strictly lower part of the reordered
block), so a block is one matrix-vector product, one LAPACK forward
substitution and one scatter-add, and the pass gives the
coordinate-by-coordinate result up to rounding. For the natural order this
is the classical forward-substitution form of one SOR step; the full error
propagation matrix exists only in :func:`error_iteration_matrix`. The plan
of an order yields, per block, the indices, the gathered rows and the
omega-scaled triangle; applying it to an iterate touches only the iterate
and b. The LAPACK forward substitution (``dtrtrs``, or ``ztrtrs`` for a
complex iterate) is chosen once per trial or sweep call from the iterate's
dtype, and SciPy's LAPACK wrappers are imported there, at the first sweep:
importing sorlab and the commands that never run the block pass (generate,
analyze, bounds, plot, and solve or compare with randomized strategies
only) do not load SciPy.

The stack pass runs T trials of SOR together as the rows of one (T, n)
array, one coordinate of every row per step: a row gather of B, a row-wise
dot product and a scatter. Errors and residuals are row-wise sums (no
matrix product over the stack), so a trial's history does not depend on T
or on the other trials. It never imports SciPy.

:func:`_sweeps` hands each sweep the orders of its live rows. A shuffled or
single-step random trial draws its orders ahead, in chunks of 1, 2, 4, ...
sweeps; a chunk of the T rows of a stack (T = 1 for a block trial) holds at
most max(T n, STACK_ORDER_CHUNK) indices, never past max_sweeps
(:func:`_order_chunks`). A chunk of k sweeps is one
:func:`~sorlab.orderings.sweep_order` call that consumes the trial's PCG64
stream exactly as k single draws do, so the orders, and every output byte,
are those of one draw per sweep. A trial that reuses its order (cyclic,
fixed and so preshuffled) repeats it in every chunk and draws nothing. A
block trial over such an order builds its plan, a gathered copy of B, once
and keeps it; every other pass builds its plan or steps per sweep.

:func:`run_solver` and :func:`run_kaczmarz` run the block pass on a one-row
stack, and :func:`sor_sweep` / :func:`kaczmarz_sweep` build and apply one
plan, behind one input check per update rule. A block trial checks B once,
at entry: the energy error of each sweep reads the checked B through
the unchecked ``linalg._energy``. :func:`run_trials` runs
seeded Monte Carlo trials of several ordering kinds and owns their seed
scheme: trials that are identical by construction run once per kind
through the block pass, and the others, of every kind, as one stack at
every trial count, their seeds and generators derived in one pass of
sorlab's copy of numpy's SeedSequence hash (:mod:`sorlab.orderings`).

Error histories are measured against a caller-supplied planted solution in
the energy semi-norm of B, which is independent of which exact solution is
chosen (kernel components cancel).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .linalg import (_as_matrix, _as_square, _check_vector, _energy, _energy_rows,
                     _ordered_lower, _rows_dot, _rows_times, has_unit_diagonal)
from .orderings import (TRIAL_KINDS, OrderingStrategy, _as_indices, _derived_generators,
                        check_permutation, derive_seed, fixed, make_rng, random_permutation,
                        sweep_order)

KACZMARZ_ROW_NORM_TOL = 1e-10
# steps per forward substitution; bounds the gathered block to SWEEP_BLOCK rows
SWEEP_BLOCK = 64
# the one working-set budget of the order draws: a stack of T randomized
# trials (T = 1 for a block trial) draws its orders ahead in chunks of 1, 2,
# 4, ... sweeps, at most max(1, STACK_ORDER_CHUNK // (T n)), so that its
# (k, rows, n) chunk array holds at most max(T n, STACK_ORDER_CHUNK) indices
# (8 MiB). It caps no chunk of the perfbench workloads (at most 300 x 16 x 19
# indices) or of the tests (32 x 64 x 64); 2**18 made 3000 trials at n = 16
# draw 5 sweeps a chunk, and their run 1.5 times as long
STACK_ORDER_CHUNK = 2**20


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
        if not self.target_error_sq >= 0:  # also rejects NaN
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
    """Checked (A, b, *vectors) of a Kaczmarz sweep: A finite with at least
    one row, all of unit norm; b finite with length m, each vector length n."""
    A = _as_matrix(A, "A")
    if not len(A):
        raise ValueError("A must have at least one row")
    norms = np.linalg.norm(A, axis=1)
    if np.max(np.abs(norms - 1.0)) > KACZMARZ_ROW_NORM_TOL:
        raise ValueError("rows of A must have unit norm")
    m, n = A.shape
    return (A, _check_vector(b, m, "b"),
            *(_check_vector(v, n, name) for name, v in vectors.items()))


def _trtrs(v):
    """LAPACK triangular solver for the blocks of a pass on the iterate v:
    ztrtrs if v is complex, else dtrtrs. Every block's matrix and right-hand
    side are built from the operands that fix v's dtype, so a block is
    complex exactly when v is."""
    from scipy.linalg import lapack
    return lapack.ztrtrs if np.iscomplexobj(v) else lapack.dtrtrs


def _sor_plan(B, omega, order):
    """The blocks of an SOR pass over order, yielded as (idx, rows, tri).

    A block is SWEEP_BLOCK consecutive steps: their indices idx, the rows
    B[idx] and tri = omega * B[idx][:, idx], stored in Fortran order so the
    LAPACK solve takes it without a copy.
    """
    for start in range(0, len(order), SWEEP_BLOCK):
        idx = order[start:start + SWEEP_BLOCK]
        rows = B[idx]
        yield idx, rows, np.multiply(omega, rows[:, idx], order="F")


def _sor_pass(plan, b, y, omega, trtrs):
    """Relax the coordinates of y in place, block by block of the plan.

    Step k sets y[i_k] += omega * (b[i_k] - B[i_k] @ y) with the latest y.
    For a block of SWEEP_BLOCK consecutive steps the increments d solve
    (I + omega L) d = omega (b - B y)[idx], where L is the strictly lower
    part of B[idx][:, idx] (indices may repeat): one product, one forward
    substitution by ``trtrs`` (see :func:`_trtrs`; it reads only the
    strictly lower part of the plan's tri) and one scatter-add per block.
    """
    for idx, rows, tri in plan:
        np.add.at(y, idx, trtrs(tri, omega * (b[idx] - rows @ y), lower=1, unitdiag=1)[0])


def _kaczmarz_plan(A, omega, order):
    """The blocks of a Kaczmarz pass over order, yielded as (idx, rows, tri, rows^H).

    tri = omega * rows @ rows^H, in Fortran order as in :func:`_sor_plan`.
    """
    for start in range(0, len(order), SWEEP_BLOCK):
        idx = order[start:start + SWEEP_BLOCK]
        rows = A[idx]
        rows_h = rows.conj().T
        yield idx, rows, np.multiply(omega, rows @ rows_h, order="F"), rows_h


def _kaczmarz_pass(plan, b, x, omega, trtrs):
    """Project x in place onto the row hyperplanes of the plan's blocks.

    Step k adds omega * (b[i_k] - a_k @ x) * conj(a_k) with the latest x;
    as in :func:`_sor_pass` each block of steps is one forward
    substitution, here with the Gram matrix of its rows a_k.
    """
    for idx, rows, tri, rows_h in plan:
        x += rows_h @ trtrs(tri, omega * (b[idx] - rows @ x), lower=1, unitdiag=1)[0]


def sor_sweep(B, b, y, omega: float, order) -> np.ndarray:
    """One relaxation sweep of By = b over the given coordinate order.

    Sequentially, using latest values: y[i] += omega * (b[i] - <row_i(B), y>).
    Requires unit diagonal and omega in (0, 2). Returns a new vector.
    """
    B, b, y = _sor_inputs(B, b=b, y=y)
    _check_omega(omega)
    order = _check_order(order, B.shape[0])
    y = np.array(y, dtype=np.result_type(B, b, y), copy=True)
    _sor_pass(_sor_plan(B, omega, order), b, y, omega, _trtrs(y))
    return y


def kaczmarz_sweep(A, b, x, omega: float, order) -> np.ndarray:
    """One sweep of relaxed hyperplane projections for Ax = b.

    For each row index i in order: x += omega * (b[i] - <a_i, x>) * conj(a_i).
    Rows of A must have unit Euclidean norm and omega lie in (0, 2).
    """
    A, b, x = _kaczmarz_inputs(A, b, x=x)
    _check_omega(omega)
    order = _check_order(order, A.shape[0])
    x = np.array(x, dtype=np.result_type(A, b, x), copy=True)
    _kaczmarz_pass(_kaczmarz_plan(A, omega, order), b, x, omega, _trtrs(x))
    return x


def _stack_sweep(orders, b, B_conj, V, omega):
    """Sweep the rows of the C-contiguous (T, n) stack V in place, row t over
    orders[t], one coordinate of every row per step: V[t, i] += omega * (b[i]
    - B[i] @ V[t]) with the latest V[t]. B_conj is B conjugated, as
    ``np.vecdot`` conjugates its first operand; it takes one dot product per
    row, so a row's result does not depend on the other rows."""
    steps = np.ascontiguousarray(orders.T)  # the index each row relaxes at a step
    flat = V.reshape(-1)
    for idx, at, b_idx in zip(steps, steps + len(b) * np.arange(len(orders)), b[steps]):
        flat[at] += omega * (b_idx - np.vecdot(B_conj.take(idx, axis=0), V))


def _order_chunks(n, max_sweeps, trials=1):
    """The sweep counts of the order draws of a randomized trial in a stack
    of ``trials`` rows: 1, 2, 4, ..., at most max(1, STACK_ORDER_CHUNK //
    (trials n)), and never past max_sweeps in all."""
    cap, k, drawn = max(1, STACK_ORDER_CHUNK // (trials * n)), 1, 0
    while drawn < max_sweeps:
        k = min(k, cap, max_sweeps - drawn)
        yield k
        drawn += k
        k *= 2


def _sweeps(V, n, measure, sweep, config: SolverConfig, orders,
            seeds) -> list[IterationHistory]:
    """Sweep the rows of the C-contiguous (T, w) stack V in place, trial t in
    row t, over orders of n indices; return one history per trial.

    ``orders[t]`` is the (n,) order that trial t reuses in every sweep, or a
    function that draws the (k, n) orders of its next k sweeps; it is called
    with the k of each chunk of :func:`_order_chunks` for T = len(seeds)
    rows, and a chunk holds one (k, rows, n) array for the live rows, a
    reused order repeated k times, of at most max(T n, STACK_ORDER_CHUNK)
    indices.
    ``sweep(orders, V)`` sweeps each row of V once, over its row of the
    (rows, n) orders of one sweep of the chunk. ``measure(V)`` returns the rows' errors
    and residuals as two lists of floats, recorded before the first and
    after every sweep. Raises ValueError once one is NaN or Inf, naming the
    sweep and the trial's seed, ``seeds[t]``. A trial stops after
    ``config.max_sweeps`` sweeps or once its error reaches
    ``config.target_error_sq``, and leaves the stack with its rows of the
    chunk.
    """
    rows = list(range(len(seeds)))  # the trial of each row of V
    errors: list[list[float]] = [[] for _ in seeds]
    residuals: list[list[float]] = [[] for _ in seeds]
    finals: list = [None] * len(seeds)
    target = config.target_error_sq

    def record(sweep_no):
        """Append the rows' errors and residuals to their trials' histories;
        return the errors."""
        errs, res = measure(V)
        # the entries are >= 0 or NaN: the sums are finite unless an entry
        # is not or they overflow, and only then is each row looked at
        if not math.isfinite(sum(errs) + sum(res)):
            for t, e, r in zip(rows, errs, res):
                if not (math.isfinite(e) and math.isfinite(r)):
                    raise ValueError(f"error is not finite after sweep {sweep_no} "
                                     f"(seed {seeds[t]})")
        for t, e, r in zip(rows, errs, res):
            errors[t].append(e)
            residuals[t].append(r)
        return errs

    record(0)
    live = list(orders)  # the orders of each row of V
    # chunk[j] holds the live rows' orders of the chunk's sweep j
    chunks, chunk, j = _order_chunks(n, config.max_sweeps, len(seeds)), (), 0
    for sweep_no in range(1, config.max_sweeps + 1):
        if j == len(chunk):
            k, j = next(chunks), 0
            chunk = np.empty((k, len(live), n), dtype=np.intp)
            for t, o in enumerate(live):
                chunk[:, t] = o(k) if callable(o) else o
        sweep(chunk[j], V)
        j += 1
        errs = record(sweep_no)
        if min(errs) > target:
            continue
        going = [e > target for e in errs]
        for t, row, on in zip(rows, V, going):
            if not on:
                finals[t] = row.copy()
        V = V[going]
        rows = [t for t, on in zip(rows, going) if on]
        if not rows:
            break
        live = [o for o, on in zip(live, going) if on]
        chunk = chunk[:, going]
    for t, row in zip(rows, V):
        finals[t] = row
    return [IterationHistory(np.array(e), np.array(r), v)
            for e, r, v in zip(errors, residuals, finals)]


def _block_trial(M, b, v, error, plan, sweep, config: SolverConfig,
                 strategy: OrderingStrategy) -> IterationHistory:
    """One trial of the block pass, v swept in place as the one row of a
    :func:`_sweeps` stack seeded with ``config.seed``: its plans are
    ``plan(M, omega, order)``, built once for an order the strategy reuses
    and per sweep otherwise, its sweeps ``sweep(plan, b, v, omega, trtrs)``
    with the solver :func:`_trtrs` picks, its errors ``error(v)`` and its
    residuals ||b - M v||."""
    trtrs = _trtrs(v)
    omega = config.omega
    complex_v = np.iscomplexobj(v)  # b - M v has v's dtype

    # measure and sweep read v itself: the one row leaves the stack only at the end
    def measure(_):
        # np.linalg.norm's own formula, without its wrapper
        r = b - M @ v
        return [error(v)], [math.sqrt(r.real.dot(r.real) + r.imag.dot(r.imag)) if complex_v
                            else math.sqrt(r.dot(r))]

    n = M.shape[0]
    if strategy.reuses_order:
        order = sweep_order(strategy, n)
        blocks = list(plan(M, omega, order))
    else:
        order, blocks = partial(sweep_order, strategy, n, make_rng(config.seed)), None

    def step(orders, _):
        sweep(plan(M, omega, orders[0]) if blocks is None else blocks, b, v, omega, trtrs)

    h, = _sweeps(v[None], n, measure, step, config, [order], [config.seed])
    return h


def _run_sor(B, b, y0, ybar, config: SolverConfig,
             strategy: OrderingStrategy) -> IterationHistory:
    """:func:`run_solver` on checked inputs: B is checked once, by
    :func:`_sor_inputs`, and each sweep's error reads it unchecked."""
    y = np.array(y0, dtype=np.result_type(B, b, y0, ybar), copy=True)
    return _block_trial(B, b, y, lambda v: _energy(B, ybar - v), _sor_plan, _sor_pass,
                        config, strategy)


def run_solver(B, b, y0, ybar, config: SolverConfig,
               strategy: OrderingStrategy) -> IterationHistory:
    """Iterate SOR sweeps on By = b, tracking the energy error to ybar.

    Stops after ``config.max_sweeps`` sweeps or once the squared energy
    error drops to ``config.target_error_sq``. Sweep orders come from the
    strategy, fed by a PCG64 stream seeded with ``config.seed``. Raises
    ValueError on non-finite input or once the error becomes NaN or Inf.
    """
    B, b, ybar, y0 = _sor_inputs(B, b=b, ybar=ybar, y0=y0)
    return _run_sor(B, b, y0, ybar, config, strategy)


def _run_stack(B, b, y0, ybar, config: SolverConfig, orders,
               seeds) -> list[IterationHistory]:
    """SOR trials on checked inputs as the rows of one (T, n) :func:`_sweeps`
    stack, trial t over ``orders[t]`` and named by ``seeds[t]``.

    Errors and residuals are row-wise sums, so trial t's history does not
    depend on the other trials.
    """
    dtype = np.result_type(B, b, y0, ybar)
    B, b, ybar = (np.asarray(a, dtype=dtype) for a in (B, b, ybar))
    B_conj = B.conj() if np.iscomplexobj(B) else B
    omega = config.omega

    def measure(V):
        r = b - _rows_times(B, V)
        return _energy_rows(B, ybar - V).tolist(), np.sqrt(_rows_dot(r, r)).tolist()

    V = np.tile(np.asarray(y0, dtype=dtype), (len(seeds), 1))
    return _sweeps(V, len(b), measure, lambda orders, V: _stack_sweep(orders, b, B_conj, V, omega),
                   config, orders, seeds)


def run_trials(B, b, y0, ybar, kinds, trials: int, config: SolverConfig,
               sigma=None) -> dict[str, list[IterationHistory]]:
    """Run ``trials`` seeded SOR trials of each ordering kind in ``kinds``.

    A kind is one of TRIAL_KINDS and k its position there. Trial t of a kind
    has one seed: ``derive_seed(config.seed, k, t, 0)`` feeds its sweep
    orders, and a preshuffled trial's ``derive_seed(config.seed, k, t, 1)``
    draws its one order, unless ``sigma`` pins it. A non-finite error names
    its trial by that seed: the trials identical by construction run first,
    kind by kind, then the stacked trials, the first in sweep order. ``fixed``
    requires ``sigma``; cyclic, shuffled and single_step_random ignore it.
    Returns ``{kind: [history of each trial]}`` in the order of ``kinds``.

    The inputs are checked once. Trials that are identical by construction
    (cyclic, and fixed or preshuffled with ``sigma``) run once per kind, as
    in :func:`run_solver`, and each gets its own copy of that history. All
    the others, of every kind, run as one stack, with their seeds derived
    in one pass, so trial t's history does not depend on how many trials
    or which kinds run with it.
    """
    if isinstance(kinds, str):
        raise TypeError("kinds must be a sequence of trial kinds, not one string")
    for kind in kinds:
        if kind not in TRIAL_KINDS:
            raise ValueError(f"unknown trial kind {kind!r}; choose from {', '.join(TRIAL_KINDS)}")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if "fixed" in kinds and sigma is None:
        raise ValueError("kind 'fixed' requires sigma")
    B, b, ybar, y0 = _sor_inputs(B, b=b, ybar=ybar, y0=y0)
    n = len(b)
    histories, stacked = {}, []
    for kind in kinds:
        if kind == "cyclic" or sigma is not None and kind in ("fixed", "preshuffled"):
            seed = derive_seed(config.seed, TRIAL_KINDS.index(kind), 0, 0)
            h = _run_sor(B, b, y0, ybar, replace(config, seed=seed),
                         OrderingStrategy("cyclic") if kind == "cyclic" else fixed(sigma))
            histories[kind] = [h] + [IterationHistory(h.errors_sq.copy(), h.residuals.copy(),
                                                      h.final_iterate.copy())
                                     for _ in range(trials - 1)]
        else:
            stacked.append(kind)
    if stacked:
        trial_kinds = [kind for kind in stacked for _ in range(trials)]
        seeds, generators = _derived_generators(
            config.seed, np.array([TRIAL_KINDS.index(k) for k in trial_kinds]),
            np.tile(np.arange(trials), len(stacked)),
            np.array([int(k == "preshuffled") for k in trial_kinds]))
        strategies = {kind: OrderingStrategy(kind) for kind in stacked if kind != "preshuffled"}
        # a preshuffled trial's generator draws its one order before the first sweep
        orders = [random_permutation(n, rng) if kind == "preshuffled"
                  else partial(sweep_order, strategies[kind], n, rng)
                  for kind, rng in zip(trial_kinds, generators)]
        stack = _run_stack(B, b, y0, ybar, config, orders, seeds.tolist())
        for i, kind in enumerate(stacked):
            histories[kind] = stack[i * trials:(i + 1) * trials]
    return {kind: histories[kind] for kind in kinds}


def run_kaczmarz(A, b, x0, xbar, config: SolverConfig,
                 strategy: OrderingStrategy) -> IterationHistory:
    """Iterate Kaczmarz sweeps on Ax = b, tracking ||xbar - x||^2.

    Mirrors :func:`run_solver`; with matched seeds and strategies the two
    histories coincide through x = A* y.
    """
    A, b, xbar, x0 = _kaczmarz_inputs(A, b, xbar=xbar, x0=x0)
    x = np.array(x0, dtype=np.result_type(A, b, x0, xbar), copy=True)
    return _block_trial(A, b, x, lambda v: float(np.linalg.norm(xbar - v) ** 2),
                        _kaczmarz_plan, _kaczmarz_pass, config, strategy)


def mean_error_curve(curves) -> np.ndarray:
    """Mean of error curves of unequal length, each padded with its last value.

    A trial that stopped early keeps its final error for the remaining
    sweeps. Curves are added one at a time in the given order (not
    pairwise, as ``np.mean`` may), which pins the bits of the result.
    """
    curves = [np.asarray(c, dtype=np.float64) for c in curves]
    if not curves:
        raise ValueError("mean_error_curve needs at least one curve, got none")
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
    sigma = check_permutation(sigma, B.shape[0])
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
    if len(errs) < window + 1:
        raise ValueError("history too short for the requested window")
    tail = errs[-(window + 1):]
    if np.any(tail <= 0):
        return 0.0
    return float((tail[-1] / tail[0]) ** (1.0 / window))
