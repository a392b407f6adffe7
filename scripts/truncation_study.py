#!/usr/bin/env python3
"""Triangular-truncation statistics across reorderings.

For random unit-diagonal PSD matrices of growing size, tabulates the
truncation ratio ||L_sigma|| / ||B|| at the identity ordering, its
exhaustive or heuristically searched minimum, the Monte Carlo mean, the
(1/2) floor(log2 2n) worst-case bound, and the norm of the reordering
average of L L* relative to ||B||^2.

Usage: python scripts/truncation_study.py --sizes 4 6 8 12 16 24
"""

import argparse
import math

from sorlab import (
    check_lower_gram_bounds,
    derived_rng,
    expected_truncation_norm,
    min_truncation_exhaustive,
    min_truncation_heuristic,
    random_factor_problem,
)
from sorlab.analysis import EXHAUSTIVE_LIMIT


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--sizes", type=int, nargs="*", default=[4, 6, 8, 12, 16])
    ap.add_argument("--trials", type=int, default=2000)
    ap.add_argument("--restarts", type=int, default=20)
    ap.add_argument("--complex", action="store_true")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)

    print(f"{'n':>4} {'identity':>9} {'min':>9} {'method':>10} {'mean':>9} "
          f"{'se':>8} {'log bound':>9} {'|E|/|B|^2':>10}")
    for i, n in enumerate(args.sizes):
        inst = random_factor_problem(n, n, args.complex, derived_rng(args.seed, i))
        if n <= EXHAUSTIVE_LIMIT:
            stats = min_truncation_exhaustive(inst.B)
            mean, se = stats.mean_ratio, 0.0
        else:
            stats = min_truncation_heuristic(inst.B, args.restarts,
                                             derived_rng(args.seed, i, 1))
            mean, se = expected_truncation_norm(inst.B, args.trials,
                                                derived_rng(args.seed, i, 2))
        gram = check_lower_gram_bounds(inst.B)
        bound = 0.5 * math.floor(math.log2(2 * n))
        print(f"{n:>4} {stats.ratio_identity:>9.5f} {stats.min_ratio:>9.5f} "
              f"{stats.method:>10} {mean:>9.5f} {se:>8.1e} {bound:>9.2f} "
              f"{gram.norm_avg / gram.norm_b ** 2:>10.5f}")


if __name__ == "__main__":
    main()
