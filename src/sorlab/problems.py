"""Test-problem generators: the planar fan system, random row-normalized
factors, low-rank PSD matrices, planted right-hand sides, and a range
consistency check.

Every generated system is consistent by construction: the solution is drawn
first and b = B ybar. Given identical parameters and seed, generation is
bit-for-bit reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import hermitian_from_factor, spectral_summary

# consistency_check accepts a residual outside Ran(B) up to this times ||b||.
CONSISTENCY_TOL = 1e-10


@dataclass
class ProblemInstance:
    """A consistent system By = b with optional factor B = A A*."""

    B: np.ndarray
    b: np.ndarray
    ybar: np.ndarray
    A: np.ndarray | None = None
    xbar: np.ndarray | None = None
    meta: dict = field(default_factory=dict)

    @property
    def n(self) -> int:
        return self.B.shape[0]


def fan_problem(m: int) -> ProblemInstance:
    """Homogeneous planar fan system of 2m unit rows at equal angles.

    Row j of the 2m x 2 factor A is (cos((j-1) t), sin((j-1) t)) with
    t = pi / (2m), so the row kernels split the plane into equal sectors.
    A* A = m I, hence B = A A* has rank 2, both nonzero eigenvalues equal
    to m, and essential condition number 1. The planted solution is 0.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    theta = np.pi / (2 * m)
    angles = theta * np.arange(2 * m)
    A = np.column_stack([np.cos(angles), np.sin(angles)])
    B = hermitian_from_factor(A, normalize_rows=True)
    n = 2 * m
    return ProblemInstance(
        B=B,
        b=np.zeros(n),
        ybar=np.zeros(n),
        A=A,
        xbar=np.zeros(2),
        meta={"kind": "fan", "m": m},
    )


def default_start(inst: ProblemInstance) -> np.ndarray:
    """Sensible y0 for measuring decay: zero, unless the system is
    homogeneous with ybar = 0, where a basis vector is used instead.

    For the fan system the *second* basis vector is chosen: the first one
    maps to a factor row itself, so the very first projection of a sweep
    would annihilate the error exactly and there would be no decay to
    measure.
    """
    n = inst.n
    if np.linalg.norm(inst.b) > 0 or np.linalg.norm(inst.ybar) > 0:
        return np.zeros(n, dtype=inst.ybar.dtype)
    y0 = np.zeros(n, dtype=inst.ybar.dtype)
    y0[1 if n > 1 else 0] = 1.0
    return y0


def random_factor_problem(n: int, m: int, complex_entries: bool = False,
                          rng: np.random.Generator | None = None) -> ProblemInstance:
    """Random Gaussian factor with unit-norm rows, plus a planted solution."""
    if n < 1 or m < 1:
        raise ValueError("n and m must be >= 1")
    if rng is None:
        raise ValueError("an rng is required")
    A = rng.standard_normal((n, m))
    if complex_entries:
        A = A + 1j * rng.standard_normal((n, m))
    A /= np.linalg.norm(A, axis=1)[:, None]  # a Gaussian row is zero with probability 0
    B = hermitian_from_factor(A, normalize_rows=True)
    b, ybar = plant_solution(B, rng)
    return ProblemInstance(
        B=B,
        b=b,
        ybar=ybar,
        A=A,
        xbar=A.conj().T @ ybar,
        meta={"kind": "random", "n": n, "m": m, "complex": bool(complex_entries)},
    )


def low_rank_problem(n: int, r: int, complex_entries: bool = False,
                     rng: np.random.Generator | None = None) -> ProblemInstance:
    """Unit-diagonal PSD instance of rank r (almost surely): an n x r factor."""
    if r > n:
        raise ValueError("rank r cannot exceed n")
    inst = random_factor_problem(n, r, complex_entries, rng)
    inst.meta = {"kind": "lowrank", "n": n, "r": r, "complex": bool(complex_entries)}
    return inst


def plant_solution(B, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Draw a Gaussian solution ybar and return (b, ybar) with b = B ybar."""
    B = np.asarray(B)
    n = B.shape[0]
    if np.iscomplexobj(B):
        ybar = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    else:
        ybar = rng.standard_normal(n)
    return B @ ybar, ybar


def consistency_check(B, b) -> bool:
    """True iff b lies in the range of PSD B up to CONSISTENCY_TOL * ||b||.

    The range projector is assembled from the first ``rank`` eigenvectors of
    :func:`spectral_summary`, so an indefinite B raises "matrix not PSD".
    A zero b is always consistent; a zero B with b != 0 never is.
    """
    b = np.asarray(b)
    bnorm = np.linalg.norm(b)
    if bnorm == 0:
        return True
    if not np.any(B):
        return False  # zero range
    s = spectral_summary(B)
    Vr = s.eigenvectors[:, :s.rank]
    resid = b - Vr @ (Vr.conj().T @ b)
    return bool(np.linalg.norm(resid) <= CONSISTENCY_TOL * bnorm)
