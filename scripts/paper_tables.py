#!/usr/bin/env python3
"""Print one table of the paper's claims, chosen by TABLE: fan-rate or truncation.

fan-rate: the cyclic rate at w = 1 on the 2m-row planar fan, computed, not
measured. S_id is the one-sweep error map in the range coordinates of B (see
``expected_contraction``); the squared error per sweep contracts
asymptotically by rho(S_id)^2 = cos(pi/(2m))^(4m). Beside it: ||S_id||^2,
the one-sweep factor that the cyclic and shuffled rate bounds bound.

truncation: for random unit-diagonal PSD matrices of growing size, the ratio
||L_sigma|| / ||B|| at the identity order, its exhaustive (mean exact) or
searched minimum (Monte Carlo mean and standard error, n/a for one trial),
the (1/2) floor(log2 2n) worst-case bound, and ||E[L L*]|| / ||B||^2. The
statistics come from one ``truncation_statistics`` call per size, which
picks the method for n as ``sorlab analyze`` does.
"""

import argparse
import math

import numpy as np

from sorlab import (
    check_lower_gram_bounds,
    derived_rng,
    error_iteration_matrix,
    evaluate_rate_bounds,
    fan_problem,
    random_factor_problem,
    spectral_norm,
    spectral_summary,
    truncation_statistics,
)


def fan_rate(args):
    """Rows of the exact cyclic rate on the fan systems."""
    yield "m", "rho(S_id)^2", "|S_id|^2", "cos^4m", "bound cyclic", "bound shuffled"
    for m in args.m:
        B = fan_problem(m).B
        s = spectral_summary(B)
        V, lam = s.eigenvectors[:, :s.rank], s.eigenvalues[:s.rank]
        Q = error_iteration_matrix(B, 1.0, np.arange(B.shape[0]))
        S = (V * np.sqrt(lam)).conj().T @ Q @ (V / np.sqrt(lam))  # R* Q W
        rho = np.abs(np.linalg.eigvals(S)).max()
        rep = evaluate_rate_bounds(s, 1.0)
        yield (m, f"{rho ** 2:.13g}", f"{spectral_norm(S) ** 2:.13g}",
               f"{math.cos(math.pi / (2 * m)) ** (4 * m):.13g}",
               f"{rep.rate_cyclic:.6f}", f"{rep.rate_shuffled:.6f}")


def truncation(args):
    """Rows of the truncation statistics, one random matrix per size."""
    yield "n", "identity", "min", "method", "mean", "se", "log bound", "|E|/|B|^2"
    for i, n in enumerate(args.sizes):
        inst = random_factor_problem(n, n, args.complex, derived_rng(args.seed, i))
        stats, mean, se, _ = truncation_statistics(
            inst.B, args.restarts, derived_rng(args.seed, i, 1),
            args.trials, derived_rng(args.seed, i, 2))
        se = "exact" if se is None else "n/a" if math.isnan(se) else f"{se:.1e}"
        gram = check_lower_gram_bounds(inst.B)
        yield (n, f"{stats.ratio_identity:.5f}", f"{stats.min_ratio:.5f}", stats.method,
               f"{mean:.5f}", se, f"{0.5 * math.floor(math.log2(2 * n)):.2f}",
               f"{gram.norm_avg / gram.norm_b ** 2:.5f}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    tables = ap.add_subparsers(dest="table", required=True, metavar="TABLE")
    fan = tables.add_parser("fan-rate", help=fan_rate.__doc__)
    fan.add_argument("--m", type=int, nargs="*", default=[1, 2, 4, 8, 16])
    fan.set_defaults(rows=fan_rate)
    trunc = tables.add_parser("truncation", help=truncation.__doc__)
    trunc.add_argument("--sizes", type=int, nargs="*", default=[4, 6, 8, 12, 16])
    trunc.add_argument("--trials", type=int, default=2000)
    trunc.add_argument("--restarts", type=int, default=20)
    trunc.add_argument("--complex", action="store_true")
    trunc.add_argument("--seed", type=int, default=0)
    trunc.set_defaults(rows=truncation)
    args = ap.parse_args(argv)
    rows = [[str(cell) for cell in row] for row in args.rows(args)]  # the header first
    widths = [max(len(cell) for cell in column) for column in zip(*rows)]
    for row in rows:
        print(" ".join(cell.rjust(w) for cell, w in zip(row, widths)))


if __name__ == "__main__":
    main()
