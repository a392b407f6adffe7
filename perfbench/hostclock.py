"""Host-speed reference for timings on a shared machine.

The machine this benchmark was built on is a 2-vCPU virtual machine whose
host slows it down by up to 2x for stretches of seconds to minutes; CPU
time slows with wall time, so the slowdown is in the core itself, and no
run length averages it away. ``HostClock`` times a fixed reference kernel
(plain numpy, no sorlab code) between consecutive timed intervals, and
rescales each interval to the host speed at which the kernel takes
``NOMINAL_S``:

    scaled = raw * NOMINAL_S / mean(kernel just before, kernel just after)

A slowdown hits different kinds of work differently (interpreter-bound
loops, small LAPACK calls, batched arrays that spill out of cache), so each
workload names the kernel that does its kind of work. A change to sorlab
moves raw and scaled time alike; a change in host speed moves the kernel
too and cancels. Raw times stay in the report.
"""

from __future__ import annotations

import itertools
import time

import numpy as np

NOMINAL_S = 0.020   # reference kernel time at nominal host speed


def _unit_diagonal(rng, n):
    A = rng.standard_normal((n, n))
    B = A @ A.T / n + np.eye(n)
    d = np.sqrt(np.diag(B))
    return B / np.outer(d, d)


def _sweeps(n: int, sweeps: int):
    """Gauss-Seidel sweeps in fresh random orders, with an energy per sweep."""
    rng = np.random.default_rng(20151015)
    B = _unit_diagonal(rng, n)
    b = B @ np.ones(n)

    def kernel():
        y = np.zeros(n)
        order_rng = np.random.default_rng(0)
        for _ in range(sweeps):
            for i in order_rng.permutation(n):
                y[i] += b[i] - B[i] @ y
            e = np.ones(n) - y
            float(np.vdot(e, B @ e))
    return kernel


def _batched(count: int):
    """Gathers, triangular parts, SVDs and solves over ``count`` orderings of n = 8."""
    B = _unit_diagonal(np.random.default_rng(20151015), 8)
    perms = np.array(list(itertools.islice(itertools.permutations(range(8)), count)))
    eye = np.eye(8)

    def kernel():
        Bs = B[perms[:, :, None], perms[:, None, :]]
        L = np.tril(Bs, -1)
        np.linalg.svd(L, compute_uv=False)
        np.linalg.solve(eye + L, B[perms])
    return kernel


def _svds(n: int, calls: int):
    """Spectral norms of reordered triangular parts, one matrix at a time."""
    rng = np.random.default_rng(20151015)
    B = _unit_diagonal(rng, n)
    sigmas = [rng.permutation(n) for _ in range(calls)]

    def kernel():
        for s in sigmas:
            np.linalg.norm(np.tril(B[np.ix_(s, s)], -1), 2)
    return kernel


def _mixed():
    parts = (_sweeps(16, 140), _svds(32, 60), _batched(1000))

    def kernel():
        for part in parts:
            part()
    return kernel


# each about NOMINAL_S at nominal host speed
KERNELS = {
    "mixed": _mixed,
    "sweeps16": lambda: _sweeps(16, 560),
    "sweeps64": lambda: _sweeps(64, 180),
    "batched8": lambda: _batched(2000),
    "svd32": lambda: _svds(32, 190),
}


class HostClock:
    """Ticks of one reference kernel, timed between consecutive intervals."""

    def __init__(self, kernel: str = "mixed"):
        self._kernel = KERNELS[kernel]()
        self._kernel()  # first call pays allocation and import costs
        self.ticks: list[float] = []

    def tick(self) -> int:
        """Time the kernel once; return the index of this tick."""
        t0 = time.perf_counter()
        self._kernel()
        self.ticks.append(time.perf_counter() - t0)
        return len(self.ticks) - 1

    def scale(self, raw: float, before: int) -> float:
        """Rescale an interval timed between ticks ``before`` and ``before + 1``."""
        return raw * NOMINAL_S / (0.5 * (self.ticks[before] + self.ticks[before + 1]))
