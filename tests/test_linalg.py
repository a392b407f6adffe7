import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sorlab import (
    eigen_hermitian,
    energy_seminorm_sq,
    hadamard,
    hermitian,
    hermitian_from_factor,
    min_index_matrix,
    permute_conjugate,
    rescale_unit_diagonal,
    spectral_norm,
    spectral_summary,
    strict_lower,
    fan_problem,
)
from sorlab.linalg import _top_singular_values
from helpers import charpoly_eigs_bisect, random_hermitian, random_psd_unit


# ---------------------------------------------------------------- hermitian

@given(n=st.integers(1, 8), seed=st.integers(0, 10**6), cplx=st.booleans())
@settings(max_examples=60, deadline=None)
def test_hermitian_closure_exact(n, seed, cplx):
    B = random_hermitian(n, np.random.default_rng(seed), cplx)
    assert np.max(np.abs(B - B.conj().T)) == 0.0
    assert np.all(B.diagonal().imag == 0.0) if np.iscomplexobj(B) else True


def test_hermitian_rejects_asymmetric():
    M = np.array([[1.0, 2.0], [0.0, 1.0]])
    with pytest.raises(ValueError, match="not Hermitian"):
        hermitian(M)


def test_hermitian_rejects_nonfinite():
    with pytest.raises(ValueError, match="NaN or Inf"):
        hermitian(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_hermitian_symmetrizes_tiny_violation():
    M = np.array([[1.0, 0.5 + 1e-12], [0.5, 1.0]])
    B = hermitian(M)
    assert B[0, 1] == B[1, 0]


# ---------------------------------------------------------------- factor

def test_factor_identity():
    B = hermitian_from_factor(np.eye(2))
    assert np.array_equal(B, np.eye(2))


def test_factor_normalizes_single_row():
    B = hermitian_from_factor(np.array([[3.0, 4.0]]), normalize_rows=True)
    assert np.array_equal(B, np.array([[1.0]]))


def test_factor_fan_m2_entries():
    # four rows at angles 0, pi/4, pi/2, 3pi/4: neighboring inner product cos(pi/4)
    inst = fan_problem(2)
    B = inst.B
    assert np.allclose(B.diagonal(), 1.0)
    assert B[0, 1] == pytest.approx(np.cos(np.pi / 4), abs=1e-14)


def test_factor_zero_row_rejected():
    with pytest.raises(ValueError, match="zero row"):
        hermitian_from_factor(np.array([[0.0, 0.0], [1.0, 0.0]]), normalize_rows=True)


@given(n=st.integers(1, 6), m=st.integers(1, 6), seed=st.integers(0, 10**6), cplx=st.booleans())
@settings(max_examples=40, deadline=None)
def test_factor_eigs_are_squared_singular_values(n, m, seed, cplx):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, m)) + (1j * rng.standard_normal((n, m)) if cplx else 0)
    B = hermitian_from_factor(A)
    w, _ = eigen_hermitian(B)
    sv = np.linalg.svd(A, compute_uv=False)
    sv2 = np.zeros(n)
    sv2[:len(sv)] = sv**2
    assert np.allclose(w, np.sort(sv2)[::-1], rtol=1e-8, atol=1e-10)


# ---------------------------------------------------------------- rescale

def test_rescale_diagonal_matrix():
    Bp, s = rescale_unit_diagonal(np.diag([4.0, 9.0]))
    assert np.array_equal(Bp, np.eye(2))
    assert np.allclose(s, [0.5, 1.0 / 3.0])


def test_rescale_2x2_equal_diagonal():
    Bp, _ = rescale_unit_diagonal(np.array([[4.0, 2.0], [2.0, 4.0]]))
    assert np.allclose(Bp, [[1.0, 0.5], [0.5, 1.0]], atol=1e-15)


def test_rescale_2x2_mixed_diagonal():
    # direct evaluation: off-diagonal 2 / (sqrt(4) sqrt(1)) = 1
    Bp, _ = rescale_unit_diagonal(np.array([[4.0, 2.0], [2.0, 1.0]]))
    assert np.allclose(Bp, [[1.0, 1.0], [1.0, 1.0]], atol=1e-15)


def test_rescale_identity_noop():
    Bp, s = rescale_unit_diagonal(np.eye(5))
    assert np.array_equal(Bp, np.eye(5))
    assert np.array_equal(s, np.ones(5))


def test_rescale_rejects_nonpositive_diagonal():
    with pytest.raises(ValueError, match="diagonal not positive"):
        rescale_unit_diagonal(np.diag([1.0, 0.0]))


@given(n=st.integers(1, 8), seed=st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_rescale_exactly_hermitian_unit_diagonal(n, seed):
    B = random_psd_unit(n, np.random.default_rng(seed)) + np.diag(
        np.random.default_rng(seed + 1).uniform(0.1, 3.0, n))
    B = hermitian(B)
    Bp, _ = rescale_unit_diagonal(B)
    assert np.max(np.abs(Bp - Bp.conj().T)) == 0.0
    assert np.array_equal(Bp.diagonal(), np.ones(n))


# ---------------------------------------------------------------- strict lower / permute / hadamard

def test_strict_lower_basic():
    B = np.array([[1.0, 0.5], [0.5, 1.0]])
    assert np.array_equal(strict_lower(B), [[0.0, 0.0], [0.5, 0.0]])
    assert not strict_lower(np.eye(4)).any()


def test_strict_lower_complex_entry_location():
    B = np.eye(3, dtype=complex)
    B[2, 1] = 1j
    B[1, 2] = -1j
    L = strict_lower(B)
    assert L[2, 1] == 1j
    assert not np.triu(L).any()


def test_permute_conjugate_identity():
    B = random_hermitian(4, np.random.default_rng(0), True)
    assert np.array_equal(permute_conjugate(B, np.arange(4)), B)


def test_permute_conjugate_swap():
    h = 0.3 + 0.4j
    B = np.array([[1.0, h], [np.conj(h), 1.0]])
    Bs = permute_conjugate(B, [1, 0])
    assert Bs[0, 1] == np.conj(h) and Bs[1, 0] == h


def test_permute_conjugate_length_mismatch():
    with pytest.raises(ValueError):
        permute_conjugate(np.eye(3), [0, 1])


def test_permute_conjugate_rejects_non_permutation():
    with pytest.raises(ValueError, match="not a permutation"):
        permute_conjugate(np.eye(3), [0, 0, 2])
    with pytest.raises(ValueError, match="not a permutation"):
        permute_conjugate(np.eye(3), [0, 1, 3])


@given(n=st.integers(2, 7), seed=st.integers(0, 10**6), cplx=st.booleans())
@settings(max_examples=40, deadline=None)
def test_permutation_similarity_preserves_spectrum(n, seed, cplx):
    rng = np.random.default_rng(seed)
    B = random_hermitian(n, rng, cplx)
    sigma = rng.permutation(n)
    w1, _ = eigen_hermitian(B)
    w2, _ = eigen_hermitian(permute_conjugate(B, sigma))
    scale = max(np.max(np.abs(w1)), 1e-12)
    assert np.allclose(w1, w2, atol=1e-10 * scale)


def test_hadamard():
    X = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(hadamard(X, np.ones((2, 2))), X)
    assert not hadamard(X, np.zeros((2, 2))).any()
    assert np.array_equal(hadamard(X, np.array([[0.0, 1.0], [1.0, 0.0]])),
                          [[0.0, 2.0], [3.0, 0.0]])
    with pytest.raises(ValueError, match="shape mismatch"):
        hadamard(X, np.ones((2, 3)))


def test_min_index_matrix():
    assert np.array_equal(min_index_matrix(1), [[0.0]])
    assert np.array_equal(min_index_matrix(2), [[0.0, 0.0], [0.0, 1.0]])
    assert np.array_equal(min_index_matrix(3),
                          [[0.0, 0.0, 0.0], [0.0, 1.0, 1.0], [0.0, 1.0, 2.0]])


# ---------------------------------------------------------------- eigen / norms

def test_eigen_diagonal():
    w, _ = eigen_hermitian(np.diag([1.0, 3.0]))
    assert np.allclose(w, [3.0, 1.0])


def test_eigen_rank_one():
    w, V = eigen_hermitian(np.array([[1.0, 1.0], [1.0, 1.0]]))
    assert np.allclose(w, [2.0, 0.0], atol=1e-14)
    assert np.allclose(V @ V.conj().T, np.eye(2), atol=1e-14)


def test_eigen_fan_double_eigenvalue():
    inst = fan_problem(4)
    w, _ = eigen_hermitian(inst.B)
    expect = np.zeros(8)
    expect[:2] = 4.0
    assert np.allclose(w, expect, atol=1e-12)


@given(n=st.integers(2, 4), seed=st.integers(0, 10**6), cplx=st.booleans())
@settings(max_examples=25, deadline=None)
def test_eigen_matches_charpoly_bisection(n, seed, cplx):
    rng = np.random.default_rng(seed)
    # rational-entry Hermitian matrices: eighths in [-2, 2]
    M = rng.integers(-16, 17, (n, n)) / 8.0
    if cplx:
        M = M + 1j * rng.integers(-16, 17, (n, n)) / 8.0
    B = hermitian(M + M.conj().T)
    w, _ = eigen_hermitian(B)
    roots = charpoly_eigs_bisect(B)
    if len(roots) == n:  # bisection misses nothing for simple spectra
        assert np.allclose(w, roots, atol=1e-10)


def test_spectral_norm_cases():
    assert spectral_norm(np.eye(3)) == pytest.approx(1.0)
    assert spectral_norm(strict_lower(np.array([[1.0, 1.0], [1.0, 1.0]]))) == pytest.approx(1.0)
    assert spectral_norm(fan_problem(4).B) == pytest.approx(4.0, rel=1e-12)
    assert spectral_norm(np.zeros((3, 3))) == 0.0
    rng = np.random.default_rng(32)
    for shape in ((3, 7), (7, 3), (1, 5), (32, 32)):
        M = rng.standard_normal(shape)
        assert abs(spectral_norm(M) - _svd_top(M)) <= 1e-14 * _svd_top(M)
        assert spectral_norm(M) == _top_singular_values(M[None])[0]


def _svd_top(M):
    return np.linalg.svd(M, compute_uv=False)[..., 0]


@pytest.mark.parametrize("cplx", [False, True])
def test_top_singular_values_match_svd(cplx):
    rng = np.random.default_rng(31)
    for k, n in ((50, 8), (7, 32), (3, 1)):
        M = rng.standard_normal((k, n, n))
        if cplx:
            M = M + 1j * rng.standard_normal((k, n, n))
        for stack in (M, np.tril(M, -1)):
            ref = _svd_top(stack)
            got = _top_singular_values(stack)
            assert np.all(np.abs(got - ref) <= 1e-14 * ref)
    u, v = rng.standard_normal(6), rng.standard_normal(6)
    rank_one = np.outer(u + (1j * v if cplx else 0), v)[None]
    assert abs(_top_singular_values(rank_one)[0] - _svd_top(rank_one)[0]) \
        <= 1e-14 * _svd_top(rank_one)[0]
    zero = np.zeros((2, 4, 4), complex if cplx else float)
    assert _top_singular_values(zero).tolist() == [0.0, 0.0]
    assert not np.signbit(_top_singular_values(zero)).any()


def test_spectral_summary_fan():
    s = spectral_summary(fan_problem(4).B)
    assert s.lambda1 == pytest.approx(4.0, rel=1e-10)
    assert s.lambda_r == pytest.approx(4.0, rel=1e-10)
    assert s.rank == 2
    assert s.kappa_bar == pytest.approx(1.0, rel=1e-10)


def test_spectral_summary_identity():
    s = spectral_summary(np.eye(5))
    assert s.lambda1 == 1.0 and s.lambda_r == 1.0 and s.rank == 5 and s.kappa_bar == 1.0


def test_spectral_summary_rank_one():
    s = spectral_summary(np.array([[1.0, 1.0], [1.0, 1.0]]))
    assert s.lambda1 == pytest.approx(2.0)
    assert s.rank == 1
    assert s.kappa_bar == pytest.approx(1.0)


def test_spectral_summary_rejects_indefinite():
    with pytest.raises(ValueError, match="not PSD"):
        spectral_summary(np.diag([1.0, -1.0]))


def test_spectral_summary_nonpositive_top_eigenvalue():
    # lambda1 <= 0: a negative definite matrix is not PSD, a zero one has no range
    with pytest.raises(ValueError, match="^matrix not PSD$"):
        spectral_summary(-np.eye(2))
    with pytest.raises(ValueError, match="^zero matrix has no nonzero eigenvalues$"):
        spectral_summary(np.zeros((2, 2)))


def test_spectral_summary_eigenvectors_span_range():
    B = fan_problem(3).B
    s = spectral_summary(B)
    V = s.eigenvectors
    assert np.allclose(V.conj().T @ V, np.eye(6), atol=1e-12)
    assert np.allclose((V * s.eigenvalues) @ V.conj().T, B, atol=1e-12)
    Vr = V[:, :s.rank]
    assert np.allclose(Vr @ (Vr.conj().T @ B), B, atol=1e-12)


def test_square_inputs_checked_once():
    with pytest.raises(ValueError, match="square matrix expected"):
        eigen_hermitian(np.ones((2, 3)))
    with pytest.raises(ValueError, match="square matrix expected"):
        hermitian(np.ones((2, 3)))


def test_empty_matrix_rejected():
    for fn in (spectral_summary, eigen_hermitian, hermitian):
        with pytest.raises(ValueError, match="empty matrix"):
            fn(np.zeros((0, 0)))


@given(n=st.integers(2, 12), seed=st.integers(0, 10**6), cplx=st.booleans())
@settings(max_examples=40, deadline=None)
def test_unit_diagonal_spectrum_bounds(n, seed, cplx):
    B = random_psd_unit(n, np.random.default_rng(seed), cplx)
    s = spectral_summary(B)
    assert s.lambda_r <= 1.0 + 1e-8
    assert 1.0 - 1e-8 <= s.lambda1 <= n + 1e-8


# ---------------------------------------------------------------- energy semi-norm

def test_energy_seminorm_cases():
    assert energy_seminorm_sq(np.eye(2), np.array([3.0, 4.0])) == pytest.approx(25.0)
    ones = np.array([[1.0, 1.0], [1.0, 1.0]])
    assert energy_seminorm_sq(ones, np.array([1.0, -1.0])) == pytest.approx(0.0, abs=1e-15)
    assert energy_seminorm_sq(ones, np.array([1.0, 1.0])) == pytest.approx(4.0)
    for y in ([np.nan, 0.0], [0.0, -np.inf]):  # the one vector check, not a NaN result
        with pytest.raises(ValueError, match="y contains NaN or Inf entries"):
            energy_seminorm_sq(np.eye(2), np.array(y))
    with pytest.raises(ValueError, match=r"y has shape \(3,\), expected \(2,\)"):
        energy_seminorm_sq(np.eye(2), np.ones(3))


def test_energy_seminorm_rejects_indefinite_matrix():
    B = np.array([[1.0, 0.9, 0.9], [0.9, 1.0, -0.9], [0.9, -0.9, 1.0]])  # lowest eigenvalue -0.8
    with pytest.raises(ValueError, match="matrix not PSD"):
        energy_seminorm_sq(B, np.array([1.0, -1.0, -1.0]))
    # negatives at rounding level, as for kernel vectors of the fan matrix, clamp to zero
    B = fan_problem(4).B
    w, V = eigen_hermitian(B)
    kernel = V[:, 2:] @ np.random.default_rng(0).standard_normal((6, 100))
    raw = [float(np.vdot(y, B @ y).real) for y in kernel.T]
    assert min(raw) < 0
    for y, val in zip(kernel.T, raw):
        assert energy_seminorm_sq(B, y) == max(val, 0.0)


@given(n=st.integers(1, 8), m=st.integers(1, 8), seed=st.integers(0, 10**6), cplx=st.booleans())
@settings(max_examples=50, deadline=None)
def test_energy_seminorm_equals_factor_norm(n, m, seed, cplx):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, m)) + (1j * rng.standard_normal((n, m)) if cplx else 0)
    B = hermitian_from_factor(A)
    y = rng.standard_normal(n) + (1j * rng.standard_normal(n) if cplx else 0)
    expected = float(np.linalg.norm(A.conj().T @ y) ** 2)
    assert energy_seminorm_sq(B, y) == pytest.approx(expected, rel=1e-10, abs=1e-10)
