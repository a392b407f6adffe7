"""Dense Hermitian linear algebra: exact symmetrization, triangular
truncation, permutation conjugation, spectra, and the energy semi-norm.

Matrices are plain numpy arrays (float64 or complex128). The constructors
here symmetrize so that ``B[i, j] == conj(B[j, i])`` holds entrywise as
stored, which downstream code and tests rely on. Indices are 0-based in
memory; the 1-based convention appears only in serialized formats.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Numerical rank cutoff, relative to the largest eigenvalue; used only by
# spectral_summary, which every rank, PSD and range decision goes through.
RANK_TOLERANCE = 1e-10

EIGEN_RECONSTRUCT_TOL = 1e-10  # relative Frobenius error of eigen_hermitian

# Inputs whose anti-Hermitian part exceeds this (relative, Frobenius) are
# rejected rather than silently symmetrized.
HERMITIAN_REJECT_TOL = 1e-8

UNIT_DIAGONAL_TOL = 1e-12

ENERGY_NEGATIVE_TOL = 1e-10  # rounding allowance of energy_seminorm_sq, times tr(B) ||y||^2


@dataclass(frozen=True)
class SpectralSummary:
    """Eigenvalue summary of a PSD Hermitian matrix.

    ``rank`` counts eigenvalues above ``RANK_TOLERANCE * lambda1``;
    ``kappa_bar`` is the essential condition number lambda1 / lambda_r,
    the ratio of the extreme *nonzero* eigenvalues. The first ``rank``
    columns of ``eigenvectors`` span the range of B.
    """

    eigenvalues: np.ndarray  # sorted non-increasing
    eigenvectors: np.ndarray  # unitary, column k belongs to eigenvalues[k]
    lambda1: float
    lambda_r: float
    rank: int
    kappa_bar: float
    spectral_norm: float


def _as_matrix(M, name="matrix"):
    M = np.asarray(M)
    if M.ndim != 2:
        raise ValueError(f"{name} must be 2-d, got shape {M.shape}")
    dtype = np.complex128 if np.iscomplexobj(M) else np.float64
    M = M.astype(dtype, copy=False)
    if not np.isfinite(M).all():
        raise ValueError(f"{name} contains NaN or Inf entries")
    return M


def _as_square(M):
    """``_as_matrix`` for an n x n matrix."""
    M = _as_matrix(M)
    if M.shape[0] != M.shape[1]:
        raise ValueError("square matrix expected")
    return M


def hermitian(M) -> np.ndarray:
    """Return the exactly Hermitian matrix (M + M*) / 2.

    The averaged form has exact conjugate symmetry and an exactly real
    diagonal in IEEE arithmetic. Inputs farther than HERMITIAN_REJECT_TOL
    (relative, Frobenius) from Hermitian are rejected.
    """
    M = _as_square(M)
    norm_f = np.linalg.norm(M)
    if np.linalg.norm(M - M.conj().T) > HERMITIAN_REJECT_TOL * norm_f:
        raise ValueError("matrix is not Hermitian within tolerance")
    return (M + M.conj().T) / 2


def hermitian_from_factor(A, normalize_rows: bool = False) -> np.ndarray:
    """Gram matrix B = A A* of a factor A, optionally row-normalized.

    With ``normalize_rows`` each row of A is scaled to unit Euclidean norm
    first, so B has unit diagonal; the diagonal is snapped to exactly 1.
    """
    A = _as_matrix(A, "factor")
    if A.shape[0] < 1 or A.shape[1] < 1:
        raise ValueError("factor must have at least one row and column")
    if normalize_rows:
        norms = np.linalg.norm(A, axis=1)
        if np.any(norms == 0):
            raise ValueError("zero row cannot be normalized")
        A = A / norms[:, None]
    B = A @ A.conj().T
    B = (B + B.conj().T) / 2
    if normalize_rows:
        np.fill_diagonal(B, 1.0)
    return B


def rescale_unit_diagonal(B) -> tuple[np.ndarray, np.ndarray]:
    """Rescale B to D^{-1/2} B D^{-1/2} with unit diagonal.

    Returns the rescaled matrix and the vector diag(D)^{-1/2}; a solution y
    of the rescaled system maps back via ybar = D^{1/2} y, i.e. dividing by
    the returned scaling entrywise.
    """
    B = _as_matrix(B)
    d = B.diagonal().real
    if np.any(d <= 0):
        raise ValueError("diagonal not positive")
    s = 1.0 / np.sqrt(d)
    out = B * np.outer(s, s)  # outer(s, s) is exactly symmetric
    np.fill_diagonal(out, 1.0)
    return out, s


def strict_lower(B) -> np.ndarray:
    """Strictly lower triangular part (zero diagonal)."""
    return np.tril(_as_matrix(B), -1)


def _reordered_lower(B, perms):
    """Stack of the strict lower parts L_s of B reordered by each row of perms."""
    return np.tril(B[perms[:, :, None], perms[:, None, :]], -1)


def permute_conjugate(B, sigma) -> np.ndarray:
    """Simultaneous row/column reordering: out[i, j] = B[sigma[i], sigma[j]].

    This is the conjugation P B P* by the permutation matrix P with
    P[i, sigma[i]] = 1; the spectrum is preserved.
    """
    B = _as_matrix(B)
    sigma = np.asarray(sigma, dtype=np.intp)
    if sigma.shape != (B.shape[0],):
        raise ValueError("permutation length does not match matrix size")
    return B[np.ix_(sigma, sigma)]


def hadamard(X, Y) -> np.ndarray:
    """Entrywise product of two equally shaped matrices."""
    X = _as_matrix(X, "X")
    Y = _as_matrix(Y, "Y")
    if X.shape != Y.shape:
        raise ValueError(f"shape mismatch: {X.shape} vs {Y.shape}")
    return X * Y


def min_index_matrix(n: int) -> np.ndarray:
    """n x n matrix with entry (s, t) = min(s, t) for 0-based s, t.

    Equivalently min(s, t) - 1 in 1-based indexing: the first row and
    column are zero and the last diagonal entry is n - 1. Used as a
    Hadamard weight in the reordering-average analysis.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    idx = np.arange(n)
    return np.minimum.outer(idx, idx).astype(np.float64)


def eigen_hermitian(B) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix, eigenvalues descending.

    Returns (eigenvalues, eigenvectors) with unitary eigenvector columns.
    Raises if the decomposition fails or does not reconstruct B to
    ``EIGEN_RECONSTRUCT_TOL * ||B||_F`` in Frobenius norm.
    """
    B = _as_square(B)
    try:
        w, V = np.linalg.eigh(B)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError("eigensolver did not converge") from exc
    w = w[::-1]
    V = V[:, ::-1]
    recon = (V * w) @ V.conj().T
    if np.linalg.norm(B - recon) > EIGEN_RECONSTRUCT_TOL * max(np.linalg.norm(B), 1e-300):
        raise RuntimeError("eigensolver did not converge")
    return w, V


def spectral_norm(M) -> float:
    """Largest singular value of M (exact LAPACK SVD, accurate to rounding)."""
    M = _as_matrix(M)
    if not M.any():
        return 0.0
    return float(np.linalg.norm(M, ord=2))


def spectral_summary(B) -> SpectralSummary:
    """Spectral summary of PSD B; raises ValueError if B is indefinite or zero."""
    w, V = eigen_hermitian(B)
    lambda1 = float(w[0])
    if lambda1 <= 0:
        if np.allclose(w, 0):
            raise ValueError("zero matrix has no nonzero eigenvalues")
        raise ValueError("matrix not PSD")
    if w[-1] < -RANK_TOLERANCE * lambda1:
        raise ValueError("matrix not PSD")
    rank = int(np.sum(w > RANK_TOLERANCE * lambda1))
    lambda_r = float(w[rank - 1])
    return SpectralSummary(
        eigenvalues=w,
        eigenvectors=V,
        lambda1=lambda1,
        lambda_r=lambda_r,
        rank=rank,
        kappa_bar=lambda1 / lambda_r,
        spectral_norm=float(max(abs(w[0]), abs(w[-1]))),
    )


def energy_seminorm_sq(B, y) -> float:
    """Squared energy semi-norm Re<By, y>, clamped at zero.

    For B = A A* this equals ||A* y||^2; it is a norm squared exactly when
    B is positive definite. Only rounding is clamped: a value below
    -ENERGY_NEGATIVE_TOL tr(B) ||y||^2 raises ValueError("matrix not PSD").
    """
    B = _as_matrix(B)
    y = np.asarray(y)
    if y.shape != (B.shape[0],):
        raise ValueError("vector length does not match matrix size")
    val = float(np.vdot(y, B @ y).real)
    if val < 0 and val < -ENERGY_NEGATIVE_TOL * B.trace().real * np.vdot(y, y).real:
        raise ValueError(f"matrix not PSD: Re<By, y> = {val!r} is below rounding level")
    return max(val, 0.0)


def has_unit_diagonal(B) -> bool:
    B = np.asarray(B)
    d = B.diagonal()
    return bool(np.max(np.abs(d - 1.0)) <= UNIT_DIAGONAL_TOL) if d.size else True
