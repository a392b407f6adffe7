from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sorlab import (
    OrderingStrategy,
    SolverConfig,
    cyclic,
    derive_seed,
    derived_rng,
    eigen_hermitian,
    empirical_rate,
    energy_seminorm_sq,
    error_iteration_matrix,
    fan_problem,
    fixed,
    kaczmarz_sweep,
    make_rng,
    mean_error_curve,
    permute_conjugate,
    preshuffled,
    random_factor_problem,
    run_kaczmarz,
    run_solver,
    run_trials,
    shuffled,
    single_step_random,
    sor_sweep,
    strict_lower,
    sweep_order,
)
from sorlab import linalg, solvers
from helpers import forward_substitute_unit, random_psd_unit


def test_config_validation():
    with pytest.raises(ValueError, match="omega"):
        SolverConfig(omega=2.0)
    with pytest.raises(ValueError, match="omega"):
        SolverConfig(omega=0.0)
    with pytest.raises(ValueError, match="max_sweeps"):
        SolverConfig(max_sweeps=0)
    with pytest.raises(ValueError, match="target_error_sq"):
        SolverConfig(target_error_sq=-1.0)
    with pytest.raises(ValueError, match="target_error_sq"):
        SolverConfig(target_error_sq=float("nan"))


# ---------------------------------------------------------------- sweeps

def test_sor_sweep_identity_solves_in_one_sweep():
    b = np.array([2.0, -3.0, 0.5])
    y = sor_sweep(np.eye(3), b, np.array([9.0, 9.0, 9.0]), 1.0, np.arange(3))
    assert np.array_equal(y, b)


def test_sor_sweep_two_hand_projections():
    B = np.array([[1.0, 0.5], [0.5, 1.0]])
    y = sor_sweep(B, np.array([1.0, 1.0]), np.zeros(2), 1.0, [0, 1])
    # first step sets y1 = 1, second sets y2 = 1 - 0.5*1 = 0.5
    assert np.allclose(y, [1.0, 0.5], atol=1e-15)


def test_sor_sweep_matches_matrix_form():
    rng = np.random.default_rng(11)
    B = random_psd_unit(8, rng)
    b = rng.standard_normal(8)
    y = rng.standard_normal(8)
    for omega in (0.5, 1.0, 1.7):
        swept = sor_sweep(B, b, y, omega, np.arange(8))
        # matrix form y + w (I + w L)^{-1} (b - B y), via hand forward substitution
        z = forward_substitute_unit(omega * strict_lower(B), b - B @ y)
        assert np.allclose(swept, y + omega * z, atol=1e-12)


def test_sor_sweep_affine_map_up_to_n32():
    # one sweep is the affine map y -> Q y + w (I + wL)^{-1} b
    rng = np.random.default_rng(23)
    for n in (4, 16, 32):
        B = random_psd_unit(n, rng, complex_entries=n == 16)
        b = rng.standard_normal(n)
        y = rng.standard_normal(n)
        omega = 1.4
        Q = error_iteration_matrix(B, omega, np.arange(n))
        c = omega * forward_substitute_unit(omega * strict_lower(B), b)
        assert np.allclose(sor_sweep(B, b, y, omega, np.arange(n)),
                           Q @ y + c, atol=1e-12)


def test_sor_sweep_rejects_non_unit_diagonal():
    with pytest.raises(ValueError, match="rescale_unit_diagonal"):
        sor_sweep(np.diag([2.0, 1.0]), np.zeros(2), np.zeros(2), 1.0, [0, 1])


def test_sor_sweep_rejects_bad_order():
    with pytest.raises(ValueError, match="order"):
        sor_sweep(np.eye(2), np.zeros(2), np.zeros(2), 1.0, [0, 2])


def test_sor_sweep_validates_like_run_solver():
    with pytest.raises(ValueError, match="square matrix expected"):
        sor_sweep(np.ones((2, 3)), np.zeros(2), np.zeros(3), 1.0, [0, 1])
    with pytest.raises(ValueError, match=r"b has shape \(5,\), expected \(2,\)"):
        sor_sweep(np.eye(2), np.zeros(5), np.zeros(2), 1.0, [0, 1])
    with pytest.raises(ValueError, match=r"y has shape \(3,\), expected \(2,\)"):
        sor_sweep(np.eye(2), np.zeros(2), np.zeros(3), 1.0, [0, 1])
    B = np.eye(2)
    B[0, 1] = np.nan
    with pytest.raises(ValueError, match="matrix contains NaN or Inf"):
        sor_sweep(B, np.zeros(2), np.zeros(2), 1.0, [0, 1])
    with pytest.raises(ValueError, match="b contains NaN or Inf"):
        sor_sweep(np.eye(2), np.array([0.0, np.inf]), np.zeros(2), 1.0, [0, 1])


def test_kaczmarz_sweep_validates_like_run_kaczmarz():
    with pytest.raises(ValueError, match=r"b has shape \(7,\), expected \(2,\)"):
        kaczmarz_sweep(np.eye(2), np.zeros(7), np.zeros(2), 1.0, [0, 1])
    with pytest.raises(ValueError, match=r"x has shape \(3,\), expected \(2,\)"):
        kaczmarz_sweep(np.eye(2), np.zeros(2), np.zeros(3), 1.0, [0, 1])
    A = np.eye(2)
    A[1, 0] = np.nan
    with pytest.raises(ValueError, match="A contains NaN or Inf"):
        kaczmarz_sweep(A, np.zeros(2), np.zeros(2), 1.0, [0, 1])


@pytest.mark.parametrize("omega", [np.nan, 0.0, 2.0, -1.0])
def test_sweeps_reject_omega_outside_open_interval(omega):
    with pytest.raises(ValueError, match=r"omega must lie strictly in \(0, 2\)"):
        sor_sweep(np.eye(2), np.ones(2), np.zeros(2), omega, [0, 1])
    with pytest.raises(ValueError, match=r"omega must lie strictly in \(0, 2\)"):
        kaczmarz_sweep(np.eye(2), np.ones(2), np.zeros(2), omega, [0, 1])


def test_kaczmarz_sweep_identity_rows():
    b = np.array([1.0, 2.0])
    x = kaczmarz_sweep(np.eye(2), b, np.zeros(2), 1.0, [0, 1])
    assert np.array_equal(x, b)


def test_kaczmarz_sweep_orthogonal_rows_zero_rhs():
    inst = fan_problem(1)  # rows (1,0) and (0,1)
    x = kaczmarz_sweep(inst.A, np.zeros(2), np.array([1.0, 1.0]), 1.0, [0, 1])
    assert np.allclose(x, 0.0, atol=1e-15)


def test_kaczmarz_sweep_rejects_unnormalized_rows():
    with pytest.raises(ValueError, match="unit norm"):
        kaczmarz_sweep(2 * np.eye(2), np.zeros(2), np.zeros(2), 1.0, [0, 1])


def test_kaczmarz_rejects_a_factor_with_no_rows():
    A = np.zeros((0, 3))
    with pytest.raises(ValueError, match="A must have at least one row"):
        kaczmarz_sweep(A, np.zeros(0), np.zeros(3), 1.0, [])
    with pytest.raises(ValueError, match="A must have at least one row"):
        run_kaczmarz(A, np.zeros(0), np.zeros(3), np.zeros(3), SolverConfig(), cyclic())


@given(seed=st.integers(0, 10**6), cplx=st.booleans(),
       omega=st.floats(0.1, 1.9))
@settings(max_examples=25, deadline=None)
def test_kaczmarz_equals_sor_through_factor(seed, cplx, omega):
    rng = np.random.default_rng(seed)
    inst = random_factor_problem(6, 5, cplx, rng)
    y = np.zeros(6, dtype=complex if cplx else float)
    x = inst.A.conj().T @ y
    for _ in range(20):
        order = rng.permutation(6)
        y = sor_sweep(inst.B, inst.b, y, omega, order)
        x = kaczmarz_sweep(inst.A, inst.b, x, omega, order)
        assert np.linalg.norm(inst.A.conj().T @ y - x) <= 1e-10


# ---------------------------------------------------------------- drivers

def test_run_solver_identity_two_entry_history():
    cfg = SolverConfig(omega=1.0, max_sweeps=50, seed=0)
    ybar = np.array([1.0, -2.0, 3.0])
    h = run_solver(np.eye(3), ybar.copy(), np.zeros(3), ybar, cfg, cyclic())
    assert len(h.errors_sq) == 2
    assert h.errors_sq[0] == pytest.approx(float(ybar @ ybar))
    assert h.errors_sq[1] == 0.0


def _replay_strategies(n):
    return [cyclic(), shuffled(), single_step_random(), fixed(make_rng(4).permutation(n))]


def _sweep_orders(strategy, n, cfg, sweeps):
    """The orders a driver run with cfg draws: one stream seeded with cfg.seed."""
    rng = make_rng(cfg.seed)
    return [sweep_order(strategy, n, rng) for _ in range(sweeps)]


@pytest.mark.parametrize("complex_entries", [False, True])
def test_run_solver_replays_sor_sweep_bit_for_bit(complex_entries):
    inst = random_factor_problem(7, 5, complex_entries, make_rng(31))
    B, b, ybar = inst.B, inst.b, inst.ybar
    cfg = SolverConfig(omega=1.3, max_sweeps=12, target_error_sq=0.0, seed=17)
    for strategy in _replay_strategies(7):
        h = run_solver(B, b, np.zeros(7), ybar, cfg, strategy)
        y = np.zeros(7, dtype=B.dtype)
        errors = [energy_seminorm_sq(B, ybar - y)]
        residuals = [float(np.linalg.norm(b - B @ y))]
        for order in _sweep_orders(strategy, 7, cfg, h.sweeps):
            y = sor_sweep(B, b, y, cfg.omega, order)
            errors.append(energy_seminorm_sq(B, ybar - y))
            residuals.append(float(np.linalg.norm(b - B @ y)))
        assert np.array_equal(h.errors_sq, errors)
        assert np.array_equal(h.residuals, residuals)
        assert np.array_equal(h.final_iterate, y)


@pytest.mark.parametrize("complex_entries", [False, True])
def test_run_kaczmarz_replays_kaczmarz_sweep_bit_for_bit(complex_entries):
    inst = random_factor_problem(7, 5, complex_entries, make_rng(32))
    A, xbar = inst.A, inst.xbar
    b = A @ xbar
    cfg = SolverConfig(omega=0.8, max_sweeps=12, target_error_sq=0.0, seed=18)
    for strategy in _replay_strategies(7):
        h = run_kaczmarz(A, b, np.zeros(5), xbar, cfg, strategy)
        x = np.zeros(5, dtype=A.dtype)
        errors = [float(np.linalg.norm(xbar - x) ** 2)]
        residuals = [float(np.linalg.norm(b - A @ x))]
        for order in _sweep_orders(strategy, 7, cfg, h.sweeps):
            x = kaczmarz_sweep(A, b, x, cfg.omega, order)
            errors.append(float(np.linalg.norm(xbar - x) ** 2))
            residuals.append(float(np.linalg.norm(b - A @ x)))
        assert np.array_equal(h.errors_sq, errors)
        assert np.array_equal(h.residuals, residuals)
        assert np.array_equal(h.final_iterate, x)


@pytest.mark.parametrize("complex_entries", [False, True])
def test_multi_block_trials_replay_one_shot_sweeps_bit_for_bit(complex_entries):
    # n = 150 is three blocks of SWEEP_BLOCK = 64 steps, the last of 22: the
    # plan a cyclic or fixed trial builds once, and the plain scatter of
    # permutation orders, must give the bits of one-shot sweeps
    n = 150
    inst = random_factor_problem(n, 100, complex_entries, make_rng(34))
    A, B, b, ybar, xbar = inst.A, inst.B, inst.b, inst.ybar, inst.xbar
    b_rows = A @ xbar
    cfg = SolverConfig(omega=1.3, max_sweeps=6, target_error_sq=0.0, seed=19)
    for strategy in _replay_strategies(n):
        orders = _sweep_orders(strategy, n, cfg, cfg.max_sweeps)
        h = run_solver(B, b, np.zeros(n), ybar, cfg, strategy)
        hk = run_kaczmarz(A, b_rows, np.zeros(100), xbar, cfg, strategy)
        y = np.zeros(n, dtype=B.dtype)
        x = np.zeros(100, dtype=A.dtype)
        errors, residuals = [energy_seminorm_sq(B, ybar - y)], [float(np.linalg.norm(b - B @ y))]
        errors_k = [float(np.linalg.norm(xbar - x) ** 2)]
        residuals_k = [float(np.linalg.norm(b_rows - A @ x))]
        for order in orders:
            y = sor_sweep(B, b, y, cfg.omega, order)
            x = kaczmarz_sweep(A, b_rows, x, cfg.omega, order)
            errors.append(energy_seminorm_sq(B, ybar - y))
            residuals.append(float(np.linalg.norm(b - B @ y)))
            errors_k.append(float(np.linalg.norm(xbar - x) ** 2))
            residuals_k.append(float(np.linalg.norm(b_rows - A @ x)))
        assert h.sweeps == hk.sweeps == cfg.max_sweeps
        assert np.array_equal(h.errors_sq, errors)
        assert np.array_equal(h.residuals, residuals)
        assert np.array_equal(h.final_iterate, y)
        assert np.array_equal(hk.errors_sq, errors_k)
        assert np.array_equal(hk.residuals, residuals_k)
        assert np.array_equal(hk.final_iterate, x)


@pytest.mark.parametrize("kind, draws", [("cyclic", 1), ("fixed", 1), ("preshuffled", 1),
                                         ("shuffled", 7), ("single_step_random", 7)])
def test_fixed_order_trials_draw_one_order(monkeypatch, kind, draws):
    # a cyclic or fixed (preshuffled) trial builds its plan from one order;
    # the random kinds draw one order per sweep, in chunks of 1, 2 and 4
    # sweeps, and none beyond max_sweeps
    calls = []

    def counted(strategy, n, rng=None, sweeps=None):
        orders = real(strategy, n, rng, sweeps=sweeps)
        calls.append(1 if sweeps is None else len(orders))
        return orders

    real = solvers.sweep_order
    monkeypatch.setattr(solvers, "sweep_order", counted)
    B, b, y0, ybar = _trial_system()
    config = SolverConfig(max_sweeps=7, target_error_sq=0.0)
    h, = run_trials(B, b, y0, ybar, [kind], 1, config, sigma=[5, 3, 1, 0, 2, 4])[kind]
    assert h.sweeps == 7
    assert sum(calls) == draws
    assert len(calls) == (1 if draws == 1 else 3)
    inst = random_factor_problem(6, 4, rng=make_rng(21))
    strategy = (fixed([5, 3, 1, 0, 2, 4]) if kind in ("fixed", "preshuffled")
                else OrderingStrategy(kind))
    calls.clear()
    run_kaczmarz(inst.A, inst.A @ inst.xbar, np.zeros(4), inst.xbar, config, strategy)
    assert sum(calls) == draws
    assert len(calls) == (1 if draws == 1 else 3)


def test_block_trials_build_a_reused_order_plan_once(monkeypatch):
    # a block trial over an order it reuses (cyclic; fixed or preshuffled
    # with sigma) builds its plan once and keeps it for every sweep; a
    # shuffled trial builds one per sweep
    calls = []

    def counted(B, omega, order):
        calls.append(order)
        return real(B, omega, order)

    real = solvers._sor_plan
    monkeypatch.setattr(solvers, "_sor_plan", counted)
    fan = fan_problem(32)
    y0 = np.zeros(64)
    y0[1] = 1.0
    config = SolverConfig(max_sweeps=60, target_error_sq=0.0, seed=4)
    h = run_solver(fan.B, fan.b, y0, fan.ybar, config, cyclic())
    assert h.sweeps == 60
    assert len(calls) == 1
    calls.clear()
    inst = random_factor_problem(16, 16, rng=make_rng(58))
    h = run_solver(inst.B, inst.b, np.zeros(16), inst.ybar, config, shuffled())
    assert h.sweeps == 60
    assert len(calls) == 60
    calls.clear()
    B, b, y0, ybar = _trial_system()
    sigma = [5, 3, 1, 0, 2, 4]
    histories = run_trials(B, b, y0, ybar, ["cyclic", "fixed", "preshuffled"], 5,
                           replace(config, max_sweeps=7), sigma=sigma)
    assert [h.sweeps for hs in histories.values() for h in hs] == [7] * 15
    assert [c.tolist() for c in calls] == [list(range(6)), sigma, sigma]


def test_block_trials_check_the_matrix_once(monkeypatch):
    # run_solver and run_trials check B once, at entry; the 61 energy errors
    # of a 60-sweep block trial read the checked B without checking it again
    calls = []

    def counted(M, name="matrix"):
        calls.append(name)
        return real(M, name)

    fan = fan_problem(32)
    y0 = np.zeros(64)
    y0[1] = 1.0
    config = SolverConfig(max_sweeps=60, target_error_sq=0.0)
    real = linalg._as_matrix
    monkeypatch.setattr(linalg, "_as_matrix", counted)
    h = run_solver(fan.B, fan.b, y0, fan.ybar, config, cyclic())
    assert h.sweeps == 60
    assert len(calls) == 1
    calls.clear()
    histories = run_trials(fan.B, fan.b, y0, fan.ybar, ["cyclic"], 5, config)["cyclic"]
    assert [h.sweeps for h in histories] == [60] * 5
    assert len(calls) == 1


@pytest.mark.parametrize("max_sweeps, chunks", [(1, [1]), (2, [1, 1]),
                                               (150, [1, 2, 4, 8, 16, 32, 64, 23])])
@pytest.mark.parametrize("kernel", ["block", "stack"])
@pytest.mark.parametrize("kind", ["shuffled", "single_step_random"])
def test_run_trials_draw_orders_in_capped_chunks(monkeypatch, kind, kernel, max_sweeps, chunks):
    # n = 64 caps a chunk at ORDER_CHUNK // 64 = 64 sweeps; each trial's
    # orders are those of one draw per sweep from its derived stream, and
    # none is drawn beyond max_sweeps. The block kernel draws them so in
    # run_solver, the stack in run_trials at 3 and 32 trials
    drawn = {}  # rng -> chunks drawn from it; holding the rng keeps ids apart

    def recording(strategy, n, rng=None, sweeps=None):
        orders = real(strategy, n, rng, sweeps=sweeps)
        drawn.setdefault(rng, []).append(orders)
        return orders

    real = solvers.sweep_order
    monkeypatch.setattr(solvers, "sweep_order", recording)
    n = 64
    inst = random_factor_problem(n, n, rng=make_rng(57))
    config = SolverConfig(omega=1.2, max_sweeps=max_sweeps, target_error_sq=0.0, seed=8)
    index = solvers.TRIAL_KINDS.index(kind)
    strategy = OrderingStrategy(kind)
    for trials in ((1,) if kernel == "block" else (3, 32)):
        drawn.clear()
        if kernel == "block":
            cfg = replace(config, seed=derive_seed(8, index, 0, 0))
            histories = [run_solver(inst.B, inst.b, np.zeros(n), inst.ybar, cfg, strategy)]
        else:
            histories = run_trials(inst.B, inst.b, np.zeros(n), inst.ybar, [kind], trials,
                                   config)[kind]
        assert [h.sweeps for h in histories] == [max_sweeps] * trials
        assert len(drawn) == trials
        for t, got in enumerate(drawn.values()):
            assert [len(c) for c in got] == chunks
            cfg = replace(config, seed=derive_seed(8, index, t, 0))
            orders = _sweep_orders(strategy, n, cfg, max_sweeps)
            assert np.array_equal(np.concatenate(got), orders)
        if kernel == "block":
            y = np.zeros(n)
            for order in orders:
                y = sor_sweep(inst.B, inst.b, y, config.omega, order)
            assert np.array_equal(histories[0].final_iterate, y)


@pytest.mark.parametrize("kind", ["shuffled", "single_step_random"])
def test_stack_draws_one_chunk_per_live_trial(monkeypatch, kind):
    # the stack draws each live trial's next chunk at the chunk boundary:
    # n = 16 and 50 sweeps make chunks 1, 2, 4, 8, 16, 19, so 32 trials that
    # run every sweep make 32 x 6 draws; on the fan, where trials stop early,
    # a trial draws no chunk past the sweep it stopped in. Either way trial
    # t's orders are one draw per sweep from its derived stream
    drawn = {}  # rng -> chunks drawn from it; holding the rng keeps ids apart

    def recording(strategy, n, rng=None, sweeps=None):
        orders = real(strategy, n, rng, sweeps=sweeps)
        drawn.setdefault(rng, []).append(orders)
        return orders

    real = solvers.sweep_order
    monkeypatch.setattr(solvers, "sweep_order", recording)
    index = solvers.TRIAL_KINDS.index(kind)
    strategy = OrderingStrategy(kind)
    inst = random_factor_problem(16, 16, rng=make_rng(58))
    fan = fan_problem(32)
    y0 = np.zeros(64)
    y0[1] = 1.0
    for B, b, y, ybar, config in [
            (inst.B, inst.b, np.zeros(16), inst.ybar,
             SolverConfig(max_sweeps=50, target_error_sq=0.0, seed=9)),
            (fan.B, fan.b, y0, fan.ybar, SolverConfig(max_sweeps=60, seed=4))]:
        drawn.clear()
        n = len(b)
        histories = run_trials(B, b, y, ybar, [kind], 32, config)[kind]
        assert len(drawn) == 32
        ends = np.cumsum(list(solvers._order_chunks(n, config.max_sweeps)))
        if n == 16:
            assert [h.sweeps for h in histories] == [50] * 32
            assert sum(map(len, drawn.values())) == 32 * 6
            assert list(ends) == [1, 3, 7, 15, 31, 50]
        else:
            assert min(h.sweeps for h in histories) < 60
        for t, (h, got) in enumerate(zip(histories, drawn.values())):
            assert len(np.concatenate(got)) == ends[np.searchsorted(ends, h.sweeps)]
            cfg = replace(config, seed=derive_seed(config.seed, index, t, 0))
            assert np.array_equal(np.concatenate(got),
                                  _sweep_orders(strategy, n, cfg, sum(map(len, got))))


@pytest.mark.parametrize("n, chunks", [(1, [1, 2, 4]), (2048, [1, 2, 2, 2]),
                                       (4096, [1] * 7), (5000, [1] * 7)])
def test_order_chunks_hold_at_most_max_n_4096_indices(n, chunks):
    got = list(solvers._order_chunks(n, 7))
    assert got == chunks
    assert sum(got) == 7
    assert max(k * n for k in got) <= max(n, solvers.ORDER_CHUNK)


def _coordinate_sor_sweep(B, b, y, omega, order):
    """Reference: one scalar coordinate update per index."""
    y = y.astype(np.result_type(B, b, y))
    for i in order:
        y[i] += omega * (b[i] - B[i] @ y)
    return y


def _row_kaczmarz_sweep(A, b, x, omega, order):
    """Reference: one scalar hyperplane projection per row index."""
    x = x.astype(np.result_type(A, b, x))
    for i in order:
        x += omega * (b[i] - A[i] @ x) * A[i].conj()
    return x


@pytest.mark.parametrize("complex_entries", [False, True])
def test_sweeps_match_coordinate_loops(complex_entries):
    # orders with repeated and missing indices (single-step random) included;
    # n = 150 spans three blocks of SWEEP_BLOCK = 64 steps
    rng = make_rng(41)
    for n in (1, 5, 16, 150):
        inst = random_factor_problem(n, max(n // 2, 1), complex_entries, rng)
        y = rng.standard_normal(n)
        x = inst.A.conj().T @ y
        for order in (np.arange(n), rng.permutation(n), rng.integers(0, n, size=n)):
            for omega in (0.4, 1.0, 1.7):
                ref = _coordinate_sor_sweep(inst.B, inst.b, y, omega, order)
                assert np.allclose(sor_sweep(inst.B, inst.b, y, omega, order), ref,
                                   rtol=1e-12, atol=1e-12 * np.linalg.norm(ref))
                ref = _row_kaczmarz_sweep(inst.A, inst.b, x, omega, order)
                assert np.allclose(kaczmarz_sweep(inst.A, inst.b, x, omega, order), ref,
                                   rtol=1e-12, atol=1e-12 * np.linalg.norm(ref))


def test_run_solver_matches_coordinate_loop_over_many_sweeps():
    inst = random_factor_problem(12, 9, True, make_rng(33))
    cfg = SolverConfig(omega=1.1, max_sweeps=40, target_error_sq=0.0, seed=7)
    for strategy in _replay_strategies(12):
        h = run_solver(inst.B, inst.b, np.zeros(12), inst.ybar, cfg, strategy)
        y = np.zeros(12, dtype=complex)
        for k, order in enumerate(_sweep_orders(strategy, 12, cfg, h.sweeps), start=1):
            y = _coordinate_sor_sweep(inst.B, inst.b, y, cfg.omega, order)
            err = energy_seminorm_sq(inst.B, inst.ybar - y)
            assert h.errors_sq[k] == pytest.approx(err, rel=1e-9, abs=1e-13 * h.errors_sq[0])


@pytest.mark.parametrize("complex_operand", ["y0", "ybar", "x0"])
def test_one_complex_operand_makes_the_iterate_complex(complex_operand):
    # the LAPACK solver follows the iterate's dtype, not the matrix's: with a
    # real system and one complex vector every block must use the complex
    # solver; n = 70 spans two blocks of SWEEP_BLOCK = 64 steps
    n = 70
    rng = make_rng(43)
    inst = random_factor_problem(n, 40, False, rng)
    start = rng.standard_normal(n)
    size = inst.A.shape[1] if complex_operand == "x0" else n
    complex_vector = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    cfg = SolverConfig(omega=1.2, max_sweeps=4, target_error_sq=0.0, seed=9)
    for strategy in _replay_strategies(n):
        orders = _sweep_orders(strategy, n, cfg, cfg.max_sweeps)
        if complex_operand == "x0":
            A, b = inst.A, inst.b
            h = run_kaczmarz(A, b, complex_vector, inst.xbar, cfg, strategy)
            ref = swept = complex_vector
            for order in orders:
                ref = _row_kaczmarz_sweep(A, b, ref, cfg.omega, order)
                swept = kaczmarz_sweep(A, b, swept, cfg.omega, order)
        else:
            B, b = inst.B, inst.b
            y0, ybar = ((complex_vector, inst.ybar) if complex_operand == "y0"
                        else (start, complex_vector))
            h = run_solver(B, b, y0, ybar, cfg, strategy)
            ref = swept = y0.astype(complex)
            for order in orders:
                ref = _coordinate_sor_sweep(B, b, ref, cfg.omega, order)
                swept = sor_sweep(B, b, swept, cfg.omega, order)
        assert h.sweeps == cfg.max_sweeps
        assert h.final_iterate.dtype == swept.dtype == np.complex128
        assert np.array_equal(h.final_iterate, swept)
        assert np.allclose(swept, ref, rtol=1e-12, atol=1e-12 * np.linalg.norm(ref))


def test_run_solver_rejects_non_finite_input():
    inst = random_factor_problem(4, 4, False, make_rng(2))
    bad = np.array([0.0, np.nan, 0.0, 0.0])
    cfg = SolverConfig()
    for name, args in (("b", (inst.B, bad, np.zeros(4), inst.ybar)),
                       ("ybar", (inst.B, inst.b, np.zeros(4), bad)),
                       ("y0", (inst.B, inst.b, np.array([0.0, 0.0, np.inf, 0.0]), inst.ybar))):
        with pytest.raises(ValueError, match=f"{name} contains NaN or Inf"):
            run_solver(*args, cfg, cyclic())
    B = inst.B.copy()
    B[0, 1] = np.inf
    with pytest.raises(ValueError, match="matrix contains NaN or Inf"):
        run_solver(B, inst.b, np.zeros(4), inst.ybar, cfg, cyclic())
    with pytest.raises(ValueError, match=r"b has shape \(3,\), expected \(4,\)"):
        run_solver(inst.B, inst.b[:3], np.zeros(4), inst.ybar, cfg, cyclic())


def test_run_solver_stops_on_non_finite_error():
    # the natural order converges in one sweep; the reverse order overflows
    B = np.array([[1.0, 1e150], [1e150, 1.0]])
    args = (B, np.zeros(2), np.array([1.0, 0.0]), np.zeros(2), SolverConfig(max_sweeps=5, seed=3))
    assert run_solver(*args, cyclic()).errors_sq[-1] == 0.0
    with pytest.raises(ValueError, match=r"error is not finite after sweep 1 \(seed 3\)"), \
            np.errstate(over="ignore", invalid="ignore"):
        run_solver(*args, fixed([1, 0]))
    # Kaczmarz measures ||xbar - x||^2, which overflows before the first sweep
    A = np.array([[0.6, 0.8], [1.0, 0.0]])
    config = SolverConfig(max_sweeps=5, seed=4)
    for strategy in (cyclic(), shuffled()):
        with pytest.raises(ValueError, match=r"error is not finite after sweep 0 \(seed 4\)"), \
                np.errstate(over="ignore", invalid="ignore"):
            run_kaczmarz(A, np.zeros(2), np.array([1e200, 0.0]), np.zeros(2), config, strategy)


@pytest.mark.parametrize("strategy", [cyclic(), shuffled()], ids=["cyclic", "shuffled"])
def test_run_kaczmarz_stops_at_first_sweep_to_reach_target(strategy):
    inst = random_factor_problem(8, 6, rng=make_rng(35))
    args = (inst.A, inst.A @ inst.xbar, np.zeros(6), inst.xbar)
    full = run_kaczmarz(*args, SolverConfig(max_sweeps=30, target_error_sq=0.0, seed=6), strategy)
    target = full.errors_sq[5]
    first = next(k for k in range(1, 31) if full.errors_sq[k] <= target)
    h = run_kaczmarz(*args, SolverConfig(max_sweeps=30, target_error_sq=target, seed=6), strategy)
    assert 0 < target and h.sweeps == first < 30
    assert np.array_equal(h.errors_sq, full.errors_sq[:first + 1])
    assert np.array_equal(h.residuals, full.residuals[:first + 1])


def test_run_solver_rejects_indefinite_matrix():
    # the unit-diagonal matrix of the CLI's indefinite fixture (lowest
    # eigenvalue -0.10): the energy error turns negative after one sweep
    rng = np.random.default_rng(0)
    M = rng.uniform(-0.6, 0.6, (6, 6))
    B = (M + M.T) / 2
    np.fill_diagonal(B, 1.0)
    y0 = rng.standard_normal(6)
    with pytest.raises(ValueError, match="matrix not PSD"):
        run_solver(B, np.zeros(6), y0, np.zeros(6), SolverConfig(), cyclic())


# ---------------------------------------------------------------- trials

def _trial_system():
    inst = random_factor_problem(6, 4, rng=make_rng(21))
    return inst.B, inst.b, np.zeros(6), inst.ybar


def _reference_orders(kind, n, seeds):
    """The :func:`solvers._run_stack` orders of trials of a randomized kind
    seeded with seeds, through numpy's own seeding (make_rng): a preshuffled
    trial's one order, or the draws of a shuffled or single-step trial."""
    return [preshuffled(n, make_rng(seed)).sigma if kind == "preshuffled"
            else partial(sweep_order, OrderingStrategy(kind), n, make_rng(seed)) for seed in seeds]


@pytest.mark.parametrize("kind, index", [("cyclic", 0), ("shuffled", 1), ("preshuffled", 2),
                                         ("single_step_random", 3)])
def test_run_trials_seed_scheme(kind, index):
    # trial t sweeps with derive_seed(seed, index, t, 0), and a preshuffled
    # trial's one seed is derive_seed(seed, index, t, 1), which draws its
    # order. Randomized trials run as one stack (the private _run_stack) at
    # every trial count
    B, b, y0, ybar = _trial_system()
    config = SolverConfig(max_sweeps=7, target_error_sq=0.0, seed=11)
    for trials in (3, 32):
        histories = run_trials(B, b, y0, ybar, [kind], trials, config)[kind]
        assert len(histories) == trials
        seeds = [derive_seed(11, index, t, int(kind == "preshuffled")) for t in range(trials)]
        if kind == "cyclic":
            refs = [run_solver(B, b, y0, ybar, replace(config, seed=seed), cyclic())
                    for seed in seeds]
        else:
            refs = solvers._run_stack(B, b, y0, ybar, config, _reference_orders(kind, 6, seeds),
                                      seeds)
        for h, ref in zip(histories, refs, strict=True):
            _assert_same_history(h, ref)


def test_run_trials_sigma_pins_fixed_and_preshuffled():
    B, b, y0, ybar = _trial_system()
    sigma = [5, 3, 1, 0, 2, 4]
    config = SolverConfig(max_sweeps=4, seed=2)
    ref = run_solver(B, b, y0, ybar, config, fixed(sigma))
    for kind in ("fixed", "preshuffled"):
        for h in run_trials(B, b, y0, ybar, [kind], 2, config, sigma)[kind]:
            assert np.array_equal(h.errors_sq, ref.errors_sq)
    # the kinds that draw no permutation ignore sigma
    cyc, = run_trials(B, b, y0, ybar, ["cyclic"], 1, config, sigma)["cyclic"]
    assert np.array_equal(cyc.errors_sq, run_solver(B, b, y0, ybar, config, cyclic()).errors_sq)


def test_run_trials_runs_identical_trials_once(monkeypatch):
    # cyclic, and fixed or preshuffled with sigma, are one block-kernel trial
    # copied T times; randomized kinds run as one stack at every T
    calls = []

    def counted(name):
        real = getattr(solvers, name)
        return lambda *a, **k: calls.append(name) or real(*a, **k)

    for name in ("_run_sor", "_run_stack"):
        monkeypatch.setattr(solvers, name, counted(name))
    B, b, y0, ybar = _trial_system()
    config = SolverConfig(max_sweeps=3)
    sigma = [5, 3, 1, 0, 2, 4]
    for trials in (1, 5, 31, 32):
        for kind, pin in (("cyclic", None), ("fixed", sigma), ("preshuffled", sigma)):
            calls.clear()
            histories = run_trials(B, b, y0, ybar, [kind], trials, config, pin)[kind]
            assert calls == ["_run_sor"]
            assert len(histories) == trials
            for h in histories[1:]:
                assert np.array_equal(h.errors_sq, histories[0].errors_sq)
                assert np.array_equal(h.final_iterate, histories[0].final_iterate)
                assert h.errors_sq is not histories[0].errors_sq
                assert h.final_iterate is not histories[0].final_iterate
        for kind in ("shuffled", "preshuffled", "single_step_random"):
            calls.clear()
            assert len(run_trials(B, b, y0, ybar, [kind], trials, config)[kind]) == trials
            assert calls == ["_run_stack"]
        # several kinds: one block-kernel trial per identical kind, one stack
        # for the randomized trials of every kind
        calls.clear()
        histories = run_trials(B, b, y0, ybar, solvers.TRIAL_KINDS, trials, config, sigma)
        assert sorted(calls) == ["_run_sor"] * 3 + ["_run_stack"]
        assert [len(hs) for hs in histories.values()] == [trials] * 5


@pytest.mark.parametrize("kind", ["shuffled", "preshuffled", "single_step_random"])
def test_run_trials_derive_one_seed_per_trial(monkeypatch, kind):
    # the stacked trials' seeds come from one hash pass, one seed per trial,
    # with no per-trial derive_seed call; the randomized kinds of one call
    # share the pass
    passes, calls = [], []

    def counted_pass(*path):
        seeds, generators = real_pass(*path)
        passes.append(seeds)
        return seeds, generators

    def counted(*path):
        calls.append(path)
        return derive_seed(*path)

    real_pass = solvers._derived_generators
    monkeypatch.setattr(solvers, "_derived_generators", counted_pass)
    from sorlab import orderings
    for module in (solvers, orderings):  # derived_rng calls orderings.derive_seed
        monkeypatch.setattr(module, "derive_seed", counted)
    B, b, y0, ybar = _trial_system()
    index = solvers.TRIAL_KINDS.index(kind)
    for trials in (1, 5):
        passes.clear()
        run_trials(B, b, y0, ybar, [kind], trials, SolverConfig(max_sweeps=3, seed=4))
        seeds, = passes
        assert seeds.tolist() == [derive_seed(4, index, t, int(kind == "preshuffled"))
                                  for t in range(trials)]
        passes.clear()
        others = [k for k in ("shuffled", "single_step_random") if k != kind]
        run_trials(B, b, y0, ybar, ["cyclic", kind, *others], trials,
                   SolverConfig(max_sweeps=3, seed=4))
        assert [len(seeds) for seeds in passes] == [trials * (1 + len(others))]
    assert calls == [(4, 0, 0, 0)] * 2  # the one seed of the identical cyclic trials


def _stack_instances():
    """(name, B, b, y0, ybar, config) of the trial-count and agreement tests."""
    real = random_factor_problem(6, 4, False, make_rng(51))
    cplx = random_factor_problem(6, 4, True, make_rng(52))
    fan = fan_problem(32)  # n = 64, rank 2; b = ybar = 0, so start from e_1
    y0 = np.zeros(64)
    y0[1] = 1.0
    target_0 = SolverConfig(omega=1.1, max_sweeps=12, target_error_sq=0.0, seed=5)
    return [("real", real.B, real.b, np.zeros(6), real.ybar, target_0),
            ("complex", cplx.B, cplx.b, np.zeros(6), cplx.ybar, target_0),
            ("fan32", fan.B, fan.b, y0, fan.ybar, SolverConfig(max_sweeps=60, seed=3))]


def _assert_same_history(h, ref):
    assert np.array_equal(h.errors_sq, ref.errors_sq)
    assert np.array_equal(h.residuals, ref.residuals)
    assert np.array_equal(h.final_iterate, ref.final_iterate)


@pytest.mark.parametrize("case", range(3), ids=["real", "complex", "fan32"])
def test_run_trials_do_not_depend_on_the_trial_count(case):
    # trial t of T trials has the bits of trial t of 50 trials at every T,
    # and a stacked randomized trial has the bits of that trial run alone in
    # the stack
    name, B, b, y0, ybar, config = _stack_instances()[case]
    n = len(b)
    sigma = np.arange(n)[::-1]
    for index, kind in enumerate(solvers.TRIAL_KINDS):
        runs = {T: run_trials(B, b, y0, ybar, [kind], T, config,
                              sigma if kind == "fixed" else None)[kind]
                for T in (1, 7, 32, 50)}
        for T, histories in runs.items():
            assert len(histories) == T
            for t, h in enumerate(histories):
                _assert_same_history(h, runs[50][t])
        if kind in ("cyclic", "fixed"):
            continue
        for t, h in enumerate(runs[50]):
            seed = derive_seed(config.seed, index, t, int(kind == "preshuffled"))
            alone, = solvers._run_stack(B, b, y0, ybar, config,
                                        _reference_orders(kind, n, [seed]), [seed])
            _assert_same_history(h, alone)
        if name == "fan32":
            # rounding-noise stops: the stack drops trials at different sweeps
            assert len({h.sweeps for h in runs[50]}) > 1


@pytest.mark.parametrize("case", range(3), ids=["real", "complex", "fan32"])
def test_run_trials_of_several_kinds_equal_runs_of_each_kind(case):
    # one stack for every randomized trial of every kind gives each trial
    # the bits of its kind run alone, in either kind order, with and
    # without sigma (fixed needs sigma; preshuffled then runs once)
    name, B, b, y0, ybar, config = _stack_instances()[case]
    sigma = np.arange(len(b))[::-1]
    kinds = solvers.TRIAL_KINDS
    for pin, chosen in ((None, kinds[:-1]), (sigma, kinds)):
        for trials in (1, 7, 32):
            alone = {kind: run_trials(B, b, y0, ybar, [kind], trials, config, pin)[kind]
                     for kind in chosen}
            for order in (chosen, chosen[::-1]):
                together = run_trials(B, b, y0, ybar, order, trials, config, pin)
                assert list(together) == list(order)
                for kind in chosen:
                    for h, ref in zip(together[kind], alone[kind], strict=True):
                        _assert_same_history(h, ref)


def test_mixed_stack_draws_no_orders_for_preshuffled_rows(monkeypatch):
    # in a stack of shuffled and preshuffled trials only the shuffled rows
    # call sweep_order, each with its own generator; a preshuffled row
    # keeps the one order its seed drew, in every chunk
    drawn = []

    def recording(strategy, n, rng=None, sweeps=None):
        drawn.append((strategy.kind, rng, sweeps))
        return real(strategy, n, rng, sweeps=sweeps)

    real = solvers.sweep_order
    monkeypatch.setattr(solvers, "sweep_order", recording)
    B, b, y0, ybar = _trial_system()
    config = SolverConfig(max_sweeps=20, target_error_sq=0.0, seed=6)
    histories = run_trials(B, b, y0, ybar, ["preshuffled", "shuffled"], 5, config)
    assert {kind for kind, _, _ in drawn} == {"shuffled"}
    assert len({id(rng) for _, rng, _ in drawn}) == 5
    assert [k for _, _, k in drawn[::5]] == list(solvers._order_chunks(6, 20))
    seeds = [derive_seed(6, 2, t, 1) for t in range(5)]
    monkeypatch.setattr(solvers, "sweep_order", real)
    refs = solvers._run_stack(B, b, y0, ybar, config, _reference_orders("preshuffled", 6, seeds),
                              seeds)
    for h, ref in zip(histories["preshuffled"], refs, strict=True):
        _assert_same_history(h, ref)


@pytest.mark.parametrize("complex_entries", [False, True])
@pytest.mark.parametrize("n, m", [(6, 9), (9, 3)], ids=["full_rank", "rank_3"])
def test_stack_trials_agree_with_run_solver(complex_entries, n, m):
    # the stack kernel against the block kernel on the same seeds and
    # orders; the floor covers the cancellation of <B e, e> near zero
    inst = random_factor_problem(n, m, complex_entries, make_rng(53))
    B, b, ybar = inst.B, inst.b, inst.ybar
    y0 = make_rng(54).standard_normal(n)
    config = SolverConfig(omega=1.2, max_sweeps=25, target_error_sq=1e-26, seed=6)
    floor = 1e-15 * B.trace().real * np.vdot(ybar - y0, ybar - y0).real
    for kind in ("shuffled", "preshuffled", "single_step_random"):
        index = solvers.TRIAL_KINDS.index(kind)
        for t, h in ((t, h) for trials in (1, 32)
                     for t, h in enumerate(run_trials(B, b, y0, ybar, [kind], trials,
                                                      config)[kind])):
            strategy = (preshuffled(n, derived_rng(config.seed, index, t, 1))
                        if kind == "preshuffled" else OrderingStrategy(kind))
            ref = run_solver(B, b, y0, ybar,
                             replace(config, seed=derive_seed(config.seed, index, t, 0)),
                             strategy)
            # a stop on rounding noise may come a sweep apart: compare the
            # curves padded with their last value, as compare averages them
            length = max(h.sweeps, ref.sweeps) + 1
            got, want = (np.pad(c, (0, length - len(c)), mode="edge")
                         for c in (h.errors_sq, ref.errors_sq))
            assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want) + floor)


@pytest.mark.parametrize("trials", [1, 7, 32])
def test_run_trials_reject_indefinite_matrix(trials):
    # a unit-diagonal matrix with lambda_min = -0.1 lambda_max: every kind,
    # on either kernel and at every trial count, fails with the message of
    # energy_seminorm_sq
    G = random_psd_unit(6, make_rng(55))
    w = np.linalg.eigvalsh(G)
    c = (w[0] + 0.1 * w[-1]) / 1.1
    B = (G - c * np.eye(6)) / (1 - c)
    np.fill_diagonal(B, 1.0)
    w = np.linalg.eigvalsh(B)
    assert w[0] == pytest.approx(-0.1 * w[-1])
    y0 = make_rng(56).standard_normal(6)
    for kind in solvers.TRIAL_KINDS[:-1]:
        with pytest.raises(ValueError, match=r"matrix not PSD: Re<By, y> = -"):
            run_trials(B, np.zeros(6), y0, np.zeros(6), [kind], trials, SolverConfig())


def test_run_trials_clamp_rounding_noise_at_zero():
    # on the rank-2 fan the energy of a converged stacked trial cancels to
    # rounding level; a value that rounds below zero is clamped and stops
    # the trial
    fan = fan_problem(32)
    y0 = np.zeros(64)
    y0[1] = 1.0
    config = SolverConfig(max_sweeps=60, target_error_sq=0.0, seed=2)
    histories = run_trials(fan.B, fan.b, y0, fan.ybar, ["shuffled"], 32, config)["shuffled"]
    assert all(np.all(h.errors_sq >= 0) for h in histories)
    assert any(h.errors_sq[-1] == 0.0 and h.sweeps < 60 for h in histories)


@pytest.mark.parametrize("trials", [8, 32])
@pytest.mark.parametrize("kind", ["shuffled", "preshuffled"])
def test_run_trials_stop_on_non_finite_error(kind, trials):
    # the natural order converges in one sweep, the reverse order overflows;
    # the message names the sweep and the one seed of the first trial that
    # swept in reverse: (t, 0) feeds a shuffled trial's orders, (t, 1) draws
    # a preshuffled trial's order
    B = np.array([[1.0, 1e150], [1e150, 1.0]])
    index = solvers.TRIAL_KINDS.index(kind)
    config = SolverConfig(max_sweeps=5, seed=3)
    stream = int(kind == "preshuffled")
    first = [derived_rng(3, index, t, stream).permutation(2) for t in range(trials)]
    t = next(t for t, order in enumerate(first) if order[0] == 1)
    with pytest.raises(ValueError, match=rf"error is not finite after sweep 1 "
                                         rf"\(seed {derive_seed(3, index, t, stream)}\)"), \
            np.errstate(over="ignore", invalid="ignore"):
        run_trials(B, np.zeros(2), np.array([1.0, 0.0]), np.zeros(2), [kind], trials, config)


def test_run_trials_rejects_bad_arguments():
    B, b, y0, ybar = _trial_system()
    config = SolverConfig(max_sweeps=3)
    with pytest.raises(ValueError, match="unknown trial kind 'random'"):
        run_trials(B, b, y0, ybar, ["shuffled", "random"], 1, config)
    with pytest.raises(ValueError, match="trials must be >= 1"):
        run_trials(B, b, y0, ybar, ["cyclic"], 0, config)
    with pytest.raises(ValueError, match="'fixed' requires sigma"):
        run_trials(B, b, y0, ybar, ["shuffled", "fixed"], 1, config)
    with pytest.raises(TypeError, match="not one string"):
        run_trials(B, b, y0, ybar, "cyclic", 1, config)


def test_mean_error_curve_pads_with_last_value():
    mean = mean_error_curve([[4.0, 2.0, 1.0], [8.0], [2.0, 0.5]])
    assert np.array_equal(mean, np.array([14.0, 10.5, 9.5]) / 3)


def test_mean_error_curve_rejects_no_curves():
    with pytest.raises(ValueError, match="at least one curve, got none"):
        mean_error_curve([])


def test_mean_error_curve_sums_sequentially():
    # row by row accumulation, unlike the pairwise sums np.mean may use
    rng = make_rng(9)
    curves = [10.0 ** rng.uniform(-20, 0, size=rng.integers(1, 40)) for _ in range(30)]
    acc = np.zeros(max(len(c) for c in curves))
    for c in curves:
        acc += np.concatenate([c, np.full(len(acc) - len(c), c[-1])])
    assert np.array_equal(mean_error_curve(curves), acc / len(curves))


@given(seed=st.integers(0, 10**6), omega=st.floats(0.05, 1.95),
       kind=st.sampled_from(["cyclic", "shuffled", "single_step_random"]))
@settings(max_examples=30, deadline=None)
def test_error_monotone_nonincreasing(seed, omega, kind):
    # every coordinate relaxation is non-expansive in the energy semi-norm
    rng = np.random.default_rng(seed)
    inst = random_factor_problem(6, 6, False, rng)
    strategy = {"cyclic": cyclic, "shuffled": shuffled,
                "single_step_random": single_step_random}[kind]()
    cfg = SolverConfig(omega=omega, max_sweeps=15, target_error_sq=0.0, seed=seed)
    h = run_solver(inst.B, inst.b, np.zeros(6), inst.ybar, cfg, strategy)
    errs = h.errors_sq
    assert np.all(errs[1:] <= errs[:-1] * (1 + 1e-10) + 1e-280)


def test_kernel_component_constant_for_fixed_orderings():
    # iterates split along Ker(B) + P*(I + wL_s)^{-1}P Ran(B); for b in
    # Ran(B) the kernel coordinates never move once the ordering is fixed
    rng = np.random.default_rng(3)
    inst = random_factor_problem(8, 3, False, rng)  # rank 3, kernel dim 5
    omega = 0.8
    w, V = eigen_hermitian(inst.B)
    r = int(np.sum(w > 1e-10 * w[0]))
    kernel_basis = V[:, r:]
    for sigma in (np.arange(8), np.random.default_rng(4).permutation(8)):
        Bs = permute_conjugate(inst.B, sigma)
        M = np.eye(8) + omega * strict_lower(Bs)
        v_basis = np.linalg.solve(M, V[sigma, :r])[np.argsort(sigma), :]
        W = np.column_stack([kernel_basis, v_basis])
        y = rng.standard_normal(8)
        u0 = np.linalg.solve(W, y)[: 8 - r]
        for _ in range(10):
            y = sor_sweep(inst.B, inst.b, y, omega, sigma)
            u = np.linalg.solve(W, y)[: 8 - r]
            assert np.allclose(u, u0, atol=1e-10)


def test_permutation_covariance_exact_on_dyadic_instance():
    # dyadic entries make both runs exact, so the algebraic identity holds
    # bit for bit: cyclic on the reordered system == fixed order on the original
    B = np.array([[1.0, 0.5, 0.25],
                  [0.5, 1.0, 0.5],
                  [0.25, 0.5, 1.0]])
    b = np.array([1.0, 0.5, -0.25])
    y0 = np.array([1.0, -2.0, 4.0])
    sigma = np.array([2, 0, 1])
    y_fixed = y0.copy()
    y_perm = y0[sigma].copy()
    B_sigma = permute_conjugate(B, sigma)
    b_sigma = b[sigma]
    for _ in range(6):
        y_fixed = sor_sweep(B, b, y_fixed, 1.0, sigma)
        y_perm = sor_sweep(B_sigma, b_sigma, y_perm, 1.0, np.arange(3))
        assert np.array_equal(y_perm[np.argsort(sigma)], y_fixed)


def test_run_kaczmarz_matches_run_solver_history():
    rng = np.random.default_rng(21)
    inst = random_factor_problem(7, 5, True, rng)
    cfg = SolverConfig(omega=1.2, max_sweeps=25, target_error_sq=0.0, seed=derive_seed(9, 0))
    hy = run_solver(inst.B, inst.b, np.zeros(7), inst.ybar, cfg, shuffled())
    hx = run_kaczmarz(inst.A, inst.b, inst.A.conj().T @ np.zeros(7), inst.xbar, cfg, shuffled())
    assert np.allclose(hy.errors_sq, hx.errors_sq, atol=1e-10)
    assert np.linalg.norm(inst.A.conj().T @ hy.final_iterate - hx.final_iterate) <= 1e-10


def test_run_kaczmarz_fan_strictly_decreasing():
    inst = fan_problem(2)
    cfg = SolverConfig(max_sweeps=10, target_error_sq=0.0, seed=0)
    x0 = np.array([0.7, -0.2])
    h = run_kaczmarz(inst.A, inst.b, x0, inst.xbar, cfg, cyclic())
    assert np.all(np.diff(h.errors_sq) < 0)


# ---------------------------------------------------------------- error iteration matrix

def test_error_matrix_identity_system():
    for omega in (0.3, 1.0, 1.6):
        Q = error_iteration_matrix(np.eye(4), omega, np.arange(4))
        assert np.allclose(Q, (1 - omega) * np.eye(4), atol=1e-14)


def test_error_matrix_energy_identity():
    # |Qv|_B^2 = |v|_B^2 - w(2-w) ||(I + wL)^{-1} B v||^2 for the natural order
    rng = np.random.default_rng(8)
    B = random_psd_unit(6, rng, complex_entries=True)
    omega = 1.3
    Q = error_iteration_matrix(B, omega, np.arange(6))
    L = strict_lower(B)
    M = np.eye(6, dtype=complex) + omega * L
    for _ in range(100):
        v = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        lhs = energy_seminorm_sq(B, Q @ v)
        drop = omega * (2 - omega) * np.linalg.norm(np.linalg.solve(M, B @ v)) ** 2
        assert lhs == pytest.approx(energy_seminorm_sq(B, v) - drop, abs=1e-10)


def test_error_matrix_agrees_with_sweep():
    rng = np.random.default_rng(13)
    B = random_psd_unit(7, rng)
    omega = 0.9
    sigma = rng.permutation(7)
    Q = error_iteration_matrix(B, omega, sigma)
    y = rng.standard_normal(7)
    swept = sor_sweep(B, np.zeros(7), y, omega, sigma)
    assert np.allclose(swept, Q @ y, atol=1e-12)


@given(n=st.integers(1, 12), seed=st.integers(0, 10**6), cplx=st.booleans(),
       omega=st.floats(0.05, 1.95))
@settings(max_examples=60, deadline=None)
def test_sweep_equals_error_matrix_property(n, seed, cplx, omega):
    # one projection sweep with b = 0 is multiplication by Q_sigma
    B = random_psd_unit(n, np.random.default_rng(seed), cplx)
    rng = np.random.default_rng(seed + 1)
    sigma = rng.permutation(n)
    y = rng.standard_normal(n) + (1j * rng.standard_normal(n) if cplx else 0)
    swept = sor_sweep(B, np.zeros(n), y, omega, sigma)
    Q = error_iteration_matrix(B, omega, sigma)
    assert np.allclose(swept, Q @ y, rtol=1e-10, atol=1e-10 * np.linalg.norm(y))


@given(n=st.integers(1, 10), m=st.integers(1, 6), seed=st.integers(0, 10**6),
       cplx=st.booleans(), omega=st.floats(0.05, 1.95),
       kind=st.sampled_from(["cyclic", "shuffled", "single_step_random", "fixed"]))
@settings(max_examples=40, deadline=None)
def test_kaczmarz_equals_sor_through_factor_property(n, m, seed, cplx, omega, kind):
    # x = A* y: Kaczmarz on A x = b and SOR on A A* y = b give the same errors
    inst = random_factor_problem(n, m, cplx, np.random.default_rng(seed))
    rng = np.random.default_rng(seed + 1)
    strategy = fixed(rng.permutation(n)) if kind == "fixed" else OrderingStrategy(kind)
    y0 = rng.standard_normal(n) + (1j * rng.standard_normal(n) if cplx else 0)
    cfg = SolverConfig(omega=omega, max_sweeps=8, target_error_sq=0.0, seed=seed)
    hy = run_solver(inst.B, inst.b, y0, inst.ybar, cfg, strategy)
    hx = run_kaczmarz(inst.A, inst.b, inst.A.conj().T @ y0, inst.xbar, cfg, strategy)
    scale = hy.errors_sq[0] + 1.0
    k = min(len(hy.errors_sq), len(hx.errors_sq))
    assert np.allclose(hy.errors_sq[:k], hx.errors_sq[:k], rtol=1e-8, atol=1e-10 * scale)
    if hy.sweeps == hx.sweeps:
        assert np.allclose(inst.A.conj().T @ hy.final_iterate, hx.final_iterate,
                           rtol=1e-8, atol=1e-8 * np.sqrt(scale))
    else:  # one run stopped early because its error rounded to exactly 0
        assert max(hy.errors_sq[k - 1:].max(), hx.errors_sq[k - 1:].max()) <= 1e-10 * scale


def test_error_matrix_validates():
    with pytest.raises(ValueError, match="omega"):
        error_iteration_matrix(np.eye(2), 2.0, [0, 1])
    with pytest.raises(ValueError, match="rescale"):
        error_iteration_matrix(np.diag([2.0, 1.0]), 1.0, [0, 1])
    with pytest.raises(ValueError, match="not a permutation"):
        error_iteration_matrix(np.eye(3), 1.0, [0, 0, 1])


# ---------------------------------------------------------------- empirical rate

def test_empirical_rate_geometric():
    errs = 0.5 ** np.arange(12)
    assert empirical_rate(errs, 5) == pytest.approx(0.5, rel=1e-12)


def test_empirical_rate_zero_inside_window():
    errs = np.array([1.0, 0.5, 0.25, 0.0, 0.0, 0.0, 0.0])
    assert empirical_rate(errs, 5) == 0.0


def test_empirical_rate_reads_window_plus_one_entries():
    assert empirical_rate(np.array([4.0, 1.0]), 1) == 0.25
    assert empirical_rate(np.array([8.0, 2.0, 0.5]), 2) == 0.25


def test_empirical_rate_short_history():
    with pytest.raises(ValueError, match="too short"):
        empirical_rate(np.array([1.0, 0.5]), 5)


def test_empirical_rate_rejects_empty_window():
    with pytest.raises(ValueError, match="window must be >= 1"):
        empirical_rate(0.5 ** np.arange(12), window=0)
