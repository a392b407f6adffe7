#!/usr/bin/env python3
"""Compare sweep-ordering strategies on a random instance, in expectation.

Runs cyclic, shuffled, preshuffled, and single-step-random sweeps over many
trials on one random row-normalized system, prints mean decay and empirical
rates next to the theoretical per-sweep bounds, and optionally plots the
mean curves.

Usage: python scripts/ordering_comparison.py --n 24 --cols 24 --trials 200
"""

import argparse

import numpy as np

from sorlab import (
    OrderingStrategy,
    SolverConfig,
    derive_seed,
    derived_rng,
    empirical_rate,
    evaluate_rate_bounds,
    mean_error_curve,
    preshuffled,
    random_factor_problem,
    run_solver,
)
from sorlab.svgplot import write_semilog

STRATEGIES = ("cyclic", "shuffled", "preshuffled", "single_step_random")


def run_strategy(inst, kind, omega, trials, sweeps, base_seed):
    n = inst.n
    y0 = np.zeros(n, dtype=inst.B.dtype)
    curves = []
    for t in range(trials):
        if kind == "preshuffled":
            strategy = preshuffled(n, derived_rng(base_seed, 1, t))
        else:
            strategy = OrderingStrategy(kind)
        cfg = SolverConfig(omega=omega, max_sweeps=sweeps, target_error_sq=0.0,
                           seed=derive_seed(base_seed, 0, t))
        curves.append(run_solver(inst.B, inst.b, y0, inst.ybar, cfg, strategy).errors_sq)
    return mean_error_curve(curves)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=24)
    ap.add_argument("--cols", type=int, default=24, help="factor columns (rank bound)")
    ap.add_argument("--complex", action="store_true")
    ap.add_argument("--omega", type=float, default=1.0)
    ap.add_argument("--trials", type=int, default=200)
    ap.add_argument("--sweeps", type=int, default=60)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out-svg")
    args = ap.parse_args(argv)

    inst = random_factor_problem(args.n, args.cols, args.complex,
                                 derived_rng(args.seed, 99))
    rep = evaluate_rate_bounds(inst.B, args.omega)
    print(f"n: {rep.n}  rank: {rep.rank}  lambda1: {rep.lambda1:.4f}  "
          f"kappa_bar: {rep.kappa_bar:.4f}  omega: {args.omega}")
    print(f"bounds  cyclic: {rep.rate_cyclic:.6f}  shuffled: {rep.rate_shuffled:.6f}  "
          f"preshuffled: {rep.rate_preshuffled:.6f}  "
          f"single-step sweep: {rep.rate_single_step_sweep:.6f}")

    series = []
    for si, kind in enumerate(STRATEGIES):
        mean = run_strategy(inst, kind, args.omega, args.trials, args.sweeps,
                            derive_seed(args.seed, si))
        rate = empirical_rate(mean, min(10, len(mean) - 2))
        print(f"{kind:>20}: mean final {mean[-1]:.3e}  empirical rate {rate:.6f}")
        series.append((kind, list(mean)))

    if args.out_svg:
        write_semilog(args.out_svg, series,
                      title=f"mean over {args.trials} trials, omega={args.omega}")
        print(f"svg: {args.out_svg}")


if __name__ == "__main__":
    main()
