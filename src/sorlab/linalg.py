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

from .orderings import check_permutation

# Numerical rank cutoff and PSD rounding allowance: spectral_summary counts
# eigenvalues above tol lambda1 and rejects one below -tol lambda1, and the
# per-sweep energy rule rejects Re<By, y> below -tol tr(B) ||y||^2.
RANK_TOLERANCE = 1e-10

EIGEN_RECONSTRUCT_TOL = 1e-10  # relative Frobenius error of eigen_hermitian

# Inputs whose anti-Hermitian part exceeds this (relative, Frobenius) are
# rejected rather than silently symmetrized.
HERMITIAN_REJECT_TOL = 1e-8

UNIT_DIAGONAL_TOL = 1e-12


@dataclass(frozen=True)
class SpectralSummary:
    """Eigenvalue summary of a PSD Hermitian matrix.

    ``rank`` counts eigenvalues above ``RANK_TOLERANCE * lambda1``;
    ``kappa_bar`` is the essential condition number lambda1 / lambda_r,
    the ratio of the extreme *nonzero* eigenvalues. The first ``rank``
    columns of ``eigenvectors`` span the range of B. ``unit_diagonal`` is
    :func:`has_unit_diagonal` of B, the other input assumption of the
    paper's rate bounds.
    """

    eigenvalues: np.ndarray  # sorted non-increasing
    eigenvectors: np.ndarray  # unitary, column k belongs to eigenvalues[k]
    lambda1: float
    lambda_r: float
    rank: int
    kappa_bar: float
    unit_diagonal: bool


def _as_matrix(M, name="matrix"):
    M = np.asarray(M)
    if M.ndim != 2:
        raise ValueError(f"{name} must be 2-d, got shape {M.shape}")
    dtype = np.complex128 if np.iscomplexobj(M) else np.float64
    M = M.astype(dtype, copy=False)
    if not np.isfinite(M).all():
        raise ValueError(f"{name} contains NaN or Inf entries")
    return M


def _check_vector(v, n, name):
    v = np.asarray(v)
    if v.shape != (n,):
        raise ValueError(f"{name} has shape {v.shape}, expected ({n},)")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} contains NaN or Inf entries")
    return v


def _as_square(M):
    """``_as_matrix`` for an n x n matrix with n >= 1."""
    M = _as_matrix(M)
    if M.shape[0] != M.shape[1]:
        raise ValueError("square matrix expected")
    if M.shape[0] == 0:
        raise ValueError("empty matrix: n must be >= 1")
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
    B = hermitian(A @ A.conj().T)
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


def _ordered_lower(B, perms):
    """Stack of the ordered truncations P_s* L_s P_s, one per row s of perms:
    B[a, b] where a comes after b in s, else 0 (L_s in the original indexing)."""
    pos = np.argsort(perms, axis=1)
    return np.where(pos[:, :, None] > pos[:, None, :], B, 0)


def permute_conjugate(B, sigma) -> np.ndarray:
    """Simultaneous row/column reordering: out[i, j] = B[sigma[i], sigma[j]].

    This is the conjugation P B P* by the permutation matrix P with
    P[i, sigma[i]] = 1; the spectrum is preserved.
    """
    B = _as_matrix(B)
    sigma = check_permutation(sigma, B.shape[0])
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
    """Largest singular value of M, from the top eigenvalue of its Gram
    (see :func:`_top_singular_values` for its rounding)."""
    return float(_top_singular_values(_as_matrix(M)[None])[0])


def _top_singular_values(M):
    """sigma_max of each matrix of the (k, m, n) stack M: the square root of
    the top eigenvalue of its Gram G = M* M (M M* when m < n, the smaller
    one), by one batched matmul and one batched eigvalsh. Each matrix is
    reduced on its own, so a row's value does not depend on the stack around
    it.

    Rounding, for an n x n M: each entry of G sums n products, so G is
    within n u |M|* |M| entrywise (u = 2**-53) and within n^2 u ||M||^2 in
    norm, as || |M| || <= sqrt(n) ||M||; eigvalsh adds a backward error of
    about n u ||G||. So sigma_max = sqrt(lambda_max(G)) is accurate to about
    n (n + 1) u / 2 relative: 3.6e-12 at n = 256 (the largest difference
    from the SVD's sigma_max seen at the sizes used here is near 1e-15).
    A zero matrix gives 0.0.
    """
    Mh = M.conj().transpose(0, 2, 1)
    G = Mh @ M if M.shape[1] >= M.shape[2] else M @ Mh
    return np.sqrt(np.maximum(np.linalg.eigvalsh(G)[:, -1], 0.0))


def spectral_summary(B) -> SpectralSummary:
    """Spectral summary of PSD B; raises ValueError if B is indefinite or zero.

    Each command computes it once and passes it on in place of B.
    """
    w, V = eigen_hermitian(B)
    lambda1 = float(w[0])
    if lambda1 <= 0 and np.allclose(w, 0):
        raise ValueError("zero matrix has no nonzero eigenvalues")
    if lambda1 <= 0 or w[-1] < -RANK_TOLERANCE * lambda1:
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
        unit_diagonal=has_unit_diagonal(B),
    )


def energy_seminorm_sq(B, y) -> float:
    """Squared energy semi-norm Re<By, y>, clamped at zero.

    For B = A A* this equals ||A* y||^2; it is a norm squared exactly when
    B is positive definite. Only rounding is clamped: a value below
    -RANK_TOLERANCE tr(B) ||y||^2 raises ValueError("matrix not PSD").
    """
    B = _as_matrix(B)
    return _energy(B, _check_vector(y, B.shape[0], "y"))


def _energy(B, y):
    """:func:`energy_seminorm_sq` of a B that passed ``_as_matrix`` and a y
    of matching length, without checking them again."""
    return _clamp_energy(float(np.vdot(y, B @ y).real), B, y)


def _clamp_energy(val, B, y):
    """val = Re<By, y> clamped at zero; ValueError("matrix not PSD") when it
    lies below the rounding allowance -RANK_TOLERANCE tr(B) ||y||^2."""
    if val < 0 and val < -RANK_TOLERANCE * B.trace().real * np.vdot(y, y).real:
        raise ValueError(f"matrix not PSD: Re<By, y> = {val!r} is below rounding level")
    return max(val, 0.0)


# The stack functions below reduce each row on its own: einsum, which uses
# no BLAS, on operands of one dtype (a cast would go through einsum's buffer,
# whose chunks need not follow the rows). So a row's result does not depend
# on how many rows the stack has.

def _rows_times(B, Y):
    """B @ y for each row y of the stack Y; B and Y share one dtype."""
    return np.einsum("ij,tj->ti", B, Y, order="C")


def _rows_dot(X, Y):
    """Re <x, y> for each pair of rows of the equally shaped C-contiguous
    stacks X and Y: a complex row is read as its interleaved real view."""
    if np.iscomplexobj(X):
        X, Y = X.view(np.float64), Y.view(np.float64)
    return np.einsum("ij,ij->i", X, Y)


def _energy_rows(B, E):
    """energy_seminorm_sq(B, e) for each row e of the stack E, by row-wise
    sums, with the same clamp and "matrix not PSD" rule."""
    vals = _rows_dot(E, _rows_times(B, E))
    for i in np.flatnonzero(vals < 0):
        _clamp_energy(float(vals[i]), B, E[i])
    return np.maximum(vals, 0.0)


def has_unit_diagonal(B) -> bool:
    B = np.asarray(B)
    d = B.diagonal()
    return bool(np.max(np.abs(d - 1.0)) <= UNIT_DIAGONAL_TOL) if d.size else True
