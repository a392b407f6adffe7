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
from sorlab import solvers
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


@pytest.mark.parametrize("kind, index", [("cyclic", 0), ("shuffled", 1), ("preshuffled", 2),
                                         ("single_step_random", 3)])
def test_run_trials_seed_scheme(kind, index):
    # trial t sweeps with derive_seed(seed, index, t, 0); a preshuffled trial
    # draws its order from derived_rng(seed, index, t, 1)
    B, b, y0, ybar = _trial_system()
    config = SolverConfig(max_sweeps=7, target_error_sq=0.0, seed=11)
    histories = run_trials(B, b, y0, ybar, kind, 3, config)
    assert len(histories) == 3
    for t, h in enumerate(histories):
        strategy = (preshuffled(6, derived_rng(11, index, t, 1)) if kind == "preshuffled"
                    else OrderingStrategy(kind))
        ref = run_solver(B, b, y0, ybar, SolverConfig(max_sweeps=7, target_error_sq=0.0,
                                                      seed=derive_seed(11, index, t, 0)),
                         strategy)
        assert np.array_equal(h.errors_sq, ref.errors_sq)
        assert np.array_equal(h.final_iterate, ref.final_iterate)


def test_run_trials_sigma_pins_fixed_and_preshuffled():
    B, b, y0, ybar = _trial_system()
    sigma = [5, 3, 1, 0, 2, 4]
    config = SolverConfig(max_sweeps=4, seed=2)
    ref = run_solver(B, b, y0, ybar, config, fixed(sigma))
    for kind in ("fixed", "preshuffled"):
        for h in run_trials(B, b, y0, ybar, kind, 2, config, sigma):
            assert np.array_equal(h.errors_sq, ref.errors_sq)
    # the kinds that draw no permutation ignore sigma
    cyc = run_trials(B, b, y0, ybar, "cyclic", 1, config, sigma)[0]
    assert np.array_equal(cyc.errors_sq, run_solver(B, b, y0, ybar, config, cyclic()).errors_sq)


def test_run_trials_calls_run_solver_once_per_trial(monkeypatch):
    calls = []
    real = solvers.run_solver
    monkeypatch.setattr(solvers, "run_solver", lambda *a, **k: calls.append(1) or real(*a, **k))
    B, b, y0, ybar = _trial_system()
    for kind in solvers.TRIAL_KINDS[:-1]:
        run_trials(B, b, y0, ybar, kind, 5, SolverConfig(max_sweeps=3))
    assert len(calls) == 20


def test_run_trials_rejects_bad_arguments():
    B, b, y0, ybar = _trial_system()
    config = SolverConfig(max_sweeps=3)
    with pytest.raises(ValueError, match="unknown trial kind 'random'"):
        run_trials(B, b, y0, ybar, "random", 1, config)
    with pytest.raises(ValueError, match="trials must be >= 1"):
        run_trials(B, b, y0, ybar, "cyclic", 0, config)
    with pytest.raises(ValueError, match="'fixed' requires sigma"):
        run_trials(B, b, y0, ybar, "fixed", 1, config)


def test_mean_error_curve_pads_with_last_value():
    mean = mean_error_curve([[4.0, 2.0, 1.0], [8.0], [2.0, 0.5]])
    assert np.array_equal(mean, np.array([14.0, 10.5, 9.5]) / 3)


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


def test_empirical_rate_short_history():
    with pytest.raises(ValueError, match="too short"):
        empirical_rate(np.array([1.0, 0.5]), 5)


def test_empirical_rate_rejects_empty_window():
    with pytest.raises(ValueError, match="window must be >= 1"):
        empirical_rate(0.5 ** np.arange(12), window=0)
