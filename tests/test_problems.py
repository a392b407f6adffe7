import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sorlab import (
    consistency_check,
    default_start,
    eigen_hermitian,
    fan_problem,
    low_rank_problem,
    make_rng,
    plant_solution,
    random_factor_problem,
    spectral_summary,
)


def test_fan_m1_is_identity():
    inst = fan_problem(1)
    assert np.allclose(inst.A, np.eye(2), atol=1e-15)
    assert np.allclose(inst.B, np.eye(2), atol=1e-15)


@pytest.mark.parametrize("m", [1, 2, 4, 8, 16])
def test_fan_identities(m):
    inst = fan_problem(m)
    gram = inst.A.conj().T @ inst.A
    assert np.max(np.abs(gram - m * np.eye(2))) <= 1e-12 * m
    s = spectral_summary(inst.B)
    assert s.lambda1 == pytest.approx(m, rel=1e-8)
    assert s.rank == 2
    assert s.kappa_bar == pytest.approx(1.0, rel=1e-8)
    assert s.unit_diagonal
    assert np.array_equal(inst.B.diagonal(), np.ones(2 * m))
    assert consistency_check(s, inst.b)


def test_fan_rejects_bad_m():
    with pytest.raises(ValueError):
        fan_problem(0)


def test_default_start_homogeneous_vs_planted():
    fan = fan_problem(3)
    y0 = default_start(fan)
    # second basis vector: the first would be a factor row and die in one step
    assert y0[1] == 1.0 and np.linalg.norm(y0) == 1.0
    inst = random_factor_problem(5, 5, False, make_rng(0))
    assert not default_start(inst).any()


def test_random_factor_invariants():
    rng = make_rng(42)
    inst = random_factor_problem(16, 16, False, rng)
    assert np.array_equal(inst.B.diagonal(), np.ones(16))
    assert np.max(np.abs(np.linalg.norm(inst.A, axis=1) - 1.0)) <= 1e-10
    assert np.linalg.norm(inst.B @ inst.ybar - inst.b) <= 1e-10
    assert np.allclose(inst.xbar, inst.A.conj().T @ inst.ybar)
    s = spectral_summary(inst.B)
    assert s.rank == 16
    assert np.isfinite(s.kappa_bar)


def test_random_factor_complex():
    inst = random_factor_problem(6, 4, True, make_rng(7))
    assert np.iscomplexobj(inst.B) and np.iscomplexobj(inst.ybar)
    assert np.max(np.abs(inst.B - inst.B.conj().T)) == 0.0
    assert np.linalg.norm(inst.B @ inst.ybar - inst.b) <= 1e-10


@given(n=st.integers(2, 10), seed=st.integers(0, 10**6))
@settings(max_examples=30, deadline=None)
def test_random_factor_rank_bounded_by_columns(n, seed):
    m = max(1, n - 2)
    inst = random_factor_problem(n, m, False, make_rng(seed))
    assert spectral_summary(inst.B).rank <= m


def test_random_factor_deterministic():
    a = random_factor_problem(8, 6, True, make_rng(123))
    b = random_factor_problem(8, 6, True, make_rng(123))
    assert np.array_equal(a.B, b.B) and np.array_equal(a.b, b.b)
    assert np.array_equal(a.A, b.A) and np.array_equal(a.ybar, b.ybar)


def test_low_rank_rank_one_unit_modulus():
    inst = low_rank_problem(6, 1, True, make_rng(5))
    assert np.allclose(np.abs(inst.B), 1.0, atol=1e-12)
    assert spectral_summary(inst.B).rank == 1


def test_low_rank_rank_two():
    inst = low_rank_problem(8, 2, False, make_rng(9))
    assert spectral_summary(inst.B).rank == 2
    assert inst.meta["kind"] == "lowrank"


def test_low_rank_full_rank_delegates():
    inst = low_rank_problem(5, 5, False, make_rng(1))
    assert spectral_summary(inst.B).rank == 5


def test_low_rank_rejects_excess_rank():
    with pytest.raises(ValueError):
        low_rank_problem(4, 5, False, make_rng(0))


def test_plant_solution_identity():
    b, ybar = plant_solution(np.eye(4), make_rng(3))
    assert np.array_equal(b, ybar)


def test_plant_solution_consistent_and_in_range():
    inst = low_rank_problem(7, 3, False, make_rng(11))
    b, _ = plant_solution(inst.B, make_rng(12))
    assert consistency_check(spectral_summary(inst.B), b)
    w, V = eigen_hermitian(inst.B)
    null = V[:, w <= 1e-10 * w[0]]
    assert np.linalg.norm(null.conj().T @ b) <= 1e-10 * np.linalg.norm(b)


def test_consistency_check_cases():
    assert consistency_check(spectral_summary(np.eye(3)), np.array([1.0, 2.0, 3.0]))
    ones = np.array([[1.0, 1.0], [1.0, 1.0]])
    assert not consistency_check(spectral_summary(ones), np.array([1.0, -1.0]))
    rng = make_rng(4)
    y = rng.standard_normal(2)
    assert consistency_check(spectral_summary(ones), ones @ y)
    assert consistency_check(spectral_summary(ones), np.zeros(2))
    with pytest.raises(ValueError, match="zero matrix"):  # zero range: no summary
        spectral_summary(np.zeros((2, 2)))


def test_consistency_check_rejects_malformed_rhs():
    s = spectral_summary(np.eye(3))
    with pytest.raises(ValueError, match=r"^b has shape \(2,\), expected \(3,\)$"):
        consistency_check(s, np.ones(2))
    with pytest.raises(ValueError, match="^b contains NaN or Inf entries$"):
        consistency_check(s, np.array([1.0, np.nan, 0.0]))


def test_consistency_check_rejects_indefinite_matrix():
    # b = B ybar lies in Ran(B), but the projector of the positive part alone
    # used to call it inconsistent; an indefinite B is now reported as such
    rng = make_rng(1)
    M = rng.uniform(-0.9, 0.9, (6, 6))
    B = (M + M.T) / 2
    np.fill_diagonal(B, 1.0)
    assert np.linalg.eigvalsh(B)[0] < -0.1
    with pytest.raises(ValueError, match="matrix not PSD"):
        consistency_check(spectral_summary(B), B @ rng.standard_normal(6))
