#!/usr/bin/env python3
"""Measure the cyclic per-sweep rate on the planar fan systems.

For each m the 2m hyperplanes split the plane into equal sectors of angle
pi/(2m); a single projection contracts the error norm by cos(pi/(2m)), so
the squared error per sweep should contract by cos(pi/(2m))^(4m). The
script measures the asymptotic ratio, fits the exponent, and prints both
integer candidates 2m and 4m next to the theoretical rate bounds.

Usage: python scripts/fan_rate_experiment.py [--sweeps 40] [--out-svg fan.svg]
"""

import argparse
import math

import numpy as np
from scipy.linalg import solve_triangular

from sorlab import (
    SolverConfig,
    cyclic,
    evaluate_rate_bounds,
    fan_problem,
    run_solver,
    spectral_summary,
    strict_lower,
)
from sorlab.svgplot import write_semilog


def measure(m, sweeps):
    inst = fan_problem(m)
    n = inst.n
    # start inside (I + L)^{-1} Ran(B) so the iterate decays to zero and the
    # energy error stays relative-accurate over all sweeps
    z = np.cos(np.arange(1, n + 1))
    y0 = solve_triangular(np.eye(n) + strict_lower(inst.B), inst.B @ z,
                          lower=True, unit_diagonal=True)
    cfg = SolverConfig(omega=1.0, max_sweeps=sweeps, target_error_sq=0.0, seed=0)
    history = run_solver(inst.B, inst.b, y0, inst.ybar, cfg, cyclic())
    errs = history.errors_sq
    lo = min(4, len(errs) - 2)
    ratio = float((errs[-1] / errs[lo]) ** (1.0 / (len(errs) - 1 - lo)))
    return inst, history, ratio


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--m", type=int, nargs="*", default=[1, 2, 4, 8, 16])
    ap.add_argument("--sweeps", type=int, default=40)
    ap.add_argument("--out-svg", help="write the error curves as an SVG plot")
    args = ap.parse_args(argv)

    print(f"{'m':>3} {'measured/sweep':>15} {'exponent':>9} {'cos^2m':>11} "
          f"{'cos^4m':>11} {'bound cyclic':>13} {'bound shuffled':>14}")
    series = []
    for m in args.m:
        inst, history, ratio = measure(m, args.sweeps)
        c = math.cos(math.pi / (2 * m))
        # m = 1 has orthogonal rows: exact convergence in one sweep, no rate to fit
        exponent = math.log(ratio) / math.log(c) if 0 < ratio and 0 < c < 1 else float("nan")
        rep = evaluate_rate_bounds(spectral_summary(inst.B), 1.0)
        print(f"{m:>3} {ratio:>15.9f} {exponent:>9.3f} {c ** (2 * m):>11.6f} "
              f"{c ** (4 * m):>11.6f} {rep.rate_cyclic:>13.6f} {rep.rate_shuffled:>14.6f}")
        series.append((f"m={m}", list(history.errors_sq)))

    if args.out_svg:
        write_semilog(args.out_svg, series, title="cyclic sweep on fan systems")
        print(f"svg: {args.out_svg}")


if __name__ == "__main__":
    main()
