"""Command-line harness: generate problems, run and compare ordering
strategies over Monte Carlo trials, evaluate rate bounds, analyze
reordering statistics, and emit CSV histories plus SVG semilog plots.

Exit codes: 0 success, 2 usage error, 1 runtime or I/O error. Every
command accepts a non-negative ``--seed`` (default 0); together with the
pinned PCG64 generator this makes all outputs byte-reproducible.

The commands start no threads and choose no method by n themselves:
``analyze`` takes its truncation statistics and its reordering average of
L L* (the n! oracle for n <= 8, else the closed form) from one call of
:func:`sorlab.analysis.truncation_statistics`, which does both.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys

import numpy as np

from . import analysis, mmio, svgplot
from .linalg import eigen_hermitian, hermitian, spectral_summary
from .orderings import GENERATOR_NAME, derived_rng, format_permutation, parse_permutation
from .problems import (
    ProblemInstance,
    consistency_check,
    default_start,
    fan_problem,
    low_rank_problem,
    random_factor_problem,
)
from .solvers import (TRIAL_KINDS, SolverConfig, empirical_rate,
                      mean_error_curve, run_trials)
# bound here only for perfbench/selftest.py, which checks that the tracer
# wraps and restores a function at each module that imported it
from .solvers import run_solver  # noqa: F401

CSV_HEADER = "strategy,trial,sweep,error_sq,residual"

_STRATEGY_ALIASES = {kind: kind for kind in TRIAL_KINDS} | {
    "singlestep": "single_step_random",
    "single-step-random": "single_step_random",
}


def _fmt_float(v) -> str:
    return repr(float(v))


def _emit(report) -> None:
    """Print a summary as ``key: value`` lines in insertion order.

    Floats print as their repr (an exact round-trip), bools as true/false,
    ints and strings as they are; entries whose value is None are left out.
    """
    for key, value in report.items():
        if value is None:
            continue
        if isinstance(value, (bool, np.bool_)):
            value = "true" if value else "false"
        elif isinstance(value, (float, np.floating)):
            value = _fmt_float(value)
        print(f"{key}: {value}")


# ---------------------------------------------------------------- CSV I/O

def write_history_csv(path, histories) -> None:
    """Write {strategy: [history of each trial]} as CSV rows, one per sweep.

    Values print as the repr of a Python float, as :func:`_fmt_float` does.
    Each trial's ``,sweep,error_sq,residual`` row tails are formatted once;
    a trial whose float64 errors and residuals are byte-equal to those of
    the previous trial of the same strategy (as run_trials returns for
    cyclic) reuses its tails. Bytes, not values, decide: -0.0 == 0.0, but
    their reprs differ. Each trial's rows are written as they are formatted,
    so no more than one trial's text is held at a time.
    """
    sweeps = [f",{k}," for k in range(max((len(h.errors_sq) for trials in histories.values()
                                           for h in trials), default=0))]
    with open(path, "w", encoding="ascii") as fh:
        fh.write(CSV_HEADER + "\n")
        for strategy, trials in histories.items():
            last = None
            for trial, h in enumerate(trials):
                errs, resids = (np.asarray(a, dtype=np.float64)
                                for a in (h.errors_sq, h.residuals))
                key = (errs.tobytes(), resids.tobytes())
                if key != last:
                    last = key
                    tails = [f"{s}{e!r},{r!r}\n"
                             for s, e, r in zip(sweeps, errs.tolist(), resids.tolist())]
                fh.write("".join(map(f"{strategy},{trial}".__add__, tails)))


def read_history_csv(path):
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().strip()
        if header != CSV_HEADER:
            raise ValueError(f"{path}: line 1: unexpected CSV header {header!r}, "
                             f"expected {CSV_HEADER!r}")
        rows = []
        sweeps = {}  # (strategy, trial): the sweep its next row must hold
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            try:
                strategy, trial, sweep, err, resid = line.split(",")
                row = (strategy, int(trial), int(sweep), float(err), float(resid))
            except ValueError:
                raise ValueError(f"{path}: line {lineno}: expected a row {CSV_HEADER} with "
                                 f"integer trial and sweep, got {line!r}") from None
            if not all(0.0 <= v < math.inf for v in row[3:]):  # also rejects NaN
                raise ValueError(f"{path}: line {lineno}: error_sq and residual must be "
                                 f"finite and >= 0, got {line!r}")
            expected = sweeps.get(row[:2], 0)
            if row[2] != expected:
                raise ValueError(f"{path}: line {lineno}: CSV rows out of order; sweeps must be "
                                 f"contiguous per trial, expected sweep {expected}, got {line!r}")
            sweeps[row[:2]] = expected + 1
            rows.append(row)
    return rows


def _group_curves(rows):
    """Group the rows of read_history_csv, whose sweeps are contiguous per trial,
    into {strategy: [err_by_sweep of each trial]}, order-preserving."""
    curves: dict[str, dict[int, list[float]]] = {}
    for strategy, trial, _, err, _ in rows:
        curves.setdefault(strategy, {}).setdefault(trial, []).append(err)
    return {strategy: list(trials.values()) for strategy, trials in curves.items()}


# ---------------------------------------------------------------- generate

def _write_instance(out_dir, inst: ProblemInstance, seed):
    os.makedirs(out_dir, exist_ok=True)
    meta_items = list(inst.meta.items()) + [("seed", seed), ("generator", GENERATOR_NAME)]
    comments = [f"meta {k}: {v}" for k, v in meta_items]
    mmio.write_matrix(os.path.join(out_dir, "B.mtx"), inst.B, comments)
    mmio.write_vector(os.path.join(out_dir, "b.mtx"), inst.b, comments)
    mmio.write_vector(os.path.join(out_dir, "ybar.mtx"), inst.ybar, comments)
    if inst.A is not None:
        mmio.write_matrix(os.path.join(out_dir, "A.mtx"), inst.A, comments)
    if inst.xbar is not None:
        mmio.write_vector(os.path.join(out_dir, "xbar.mtx"), inst.xbar, comments)
    with open(os.path.join(out_dir, "meta.txt"), "w", encoding="ascii") as fh:
        for k, v in meta_items:
            fh.write(f"{k}: {v}\n")


def cmd_generate(args, parser) -> int:
    seed = args.seed if args.seed is not None else 0
    if args.kind == "fan":
        if args.m is None or args.m < 1:
            parser.error("--kind fan requires --m >= 1")
        inst = fan_problem(args.m)
    elif args.kind == "random":
        if args.n is None or args.n < 1 or args.m is None or args.m < 1:
            parser.error("--kind random requires --n >= 1 and --m >= 1")
        inst = random_factor_problem(args.n, args.m, args.complex, derived_rng(seed))
    else:  # lowrank
        if args.n is None or args.r is None or not 1 <= args.r <= args.n:
            parser.error("--kind lowrank requires --n and --r with 1 <= r <= n")
        inst = low_rank_problem(args.n, args.r, args.complex, derived_rng(seed))
    _write_instance(args.out_dir, inst, seed)
    print(f"wrote {args.kind} instance (n = {inst.n}) to {args.out_dir}")
    return 0


# ---------------------------------------------------------------- solve / compare

def _load_system(args):
    B, _ = mmio.read_matrix(args.matrix)
    B = hermitian(B)
    b, _ = mmio.read_vector(args.rhs)
    ybar, _ = mmio.read_vector(args.ybar)
    if args.y0:
        y0, _ = mmio.read_vector(args.y0)
    else:
        y0 = default_start(ProblemInstance(B=B, b=b, ybar=ybar))
    spectrum = spectral_summary(B)  # the one eigh; raises on an indefinite or zero B
    if not args.allow_inconsistent and not consistency_check(spectrum, b):
        raise ValueError("system inconsistent: b has a component outside Ran(B) "
                         "(pass --allow-inconsistent to run anyway)")
    return B, b, ybar, y0, spectrum


def _parse_strategies(text, args, parser):
    """Strategy kinds in text, deduplicated; every usage error about them
    (exit 2) is raised here, before any file is read."""
    names = []
    for tok in text.split(","):
        tok = tok.strip().lower()
        if tok not in _STRATEGY_ALIASES:
            parser.error(f"unknown strategy {tok!r}; choose from {', '.join(sorted(set(_STRATEGY_ALIASES)))}")
        kind = _STRATEGY_ALIASES[tok]
        if kind == "fixed" and not args.sigma:
            parser.error("strategy 'fixed' requires --sigma")
        if kind == "preshuffled" and not args.sigma and args.seed is None:
            parser.error("strategy 'preshuffled' requires --sigma or an explicit --seed")
        if kind not in names:
            names.append(kind)
    return names


def _run_config(args):
    """SolverConfig of the solve/compare run options; --seed defaults to 0."""
    return SolverConfig(omega=args.omega, max_sweeps=args.sweeps,
                        target_error_sq=args.target_error_sq,
                        seed=0 if args.seed is None else args.seed)


def cmd_solve(args, parser) -> int:
    kinds = _parse_strategies(args.strategy, args, parser)
    if len(kinds) > 1:
        parser.error("solve runs one strategy; use compare for several")
    kind = kinds[0]
    B, b, ybar, y0, _ = _load_system(args)
    sigma = parse_permutation(args.sigma, B.shape[0]) if args.sigma else None
    history, = run_trials(B, b, y0, ybar, [kind], 1, _run_config(args), sigma)[kind]
    write_history_csv(args.out, {kind: [history]})
    rate = empirical_rate(history, max(1, min(args.rate_window, history.sweeps - 1)))
    _emit({"strategy": kind, "sweeps": history.sweeps, "final_error_sq": history.errors_sq[-1],
           "empirical_rate": rate, "csv": args.out})
    return 0


def cmd_compare(args, parser) -> int:
    if args.per_trial and not args.out_svg:
        parser.error("--per-trial requires --out-svg")
    kinds = _parse_strategies(args.strategies, args, parser)
    B, b, ybar, y0, spectrum = _load_system(args)
    sigma = parse_permutation(args.sigma, B.shape[0]) if args.sigma else None
    # raises on a non-unit diagonal or bad c0/c1 before any trial runs
    bounds = analysis.evaluate_rate_bounds(spectrum, args.omega, c0=args.c0, c1=args.c1)

    histories = run_trials(B, b, y0, ybar, kinds, args.trials, _run_config(args), sigma)
    write_history_csv(args.out_csv, histories)

    summary = dataclasses.asdict(bounds) | {"trials": args.trials}
    curves = {kind: [h.errors_sq for h in hs] for kind, hs in histories.items()}
    mean_curves = [(kind, mean_error_curve(trials)) for kind, trials in curves.items()]
    for kind, mean in mean_curves:
        window = max(1, min(args.rate_window, len(mean) - 2))
        summary[f"empirical_rate[{kind}]"] = empirical_rate(mean, window)
        summary[f"final_mean_error_sq[{kind}]"] = mean[-1]
    if args.out_svg:
        svgplot.write_semilog(args.out_svg, mean_curves,
                              title=f"omega={args.omega} trials={args.trials}",
                              per_trial=curves if args.per_trial else None)

    _emit(summary)
    print("mean_error_sq per sweep:")
    print("sweep," + ",".join(kinds))
    length = max(len(m) for _, m in mean_curves)
    for k in range(length):
        vals = [_fmt_float(m[min(k, len(m) - 1)]) for _, m in mean_curves]
        print(f"{k}," + ",".join(vals))
    _emit({"svg": args.out_svg, "csv": args.out_csv})
    return 0


# ---------------------------------------------------------------- analyze

def cmd_analyze(args, parser) -> int:
    """Spectral summary, truncation statistics and reordering averages of B.

    The truncation statistics and the reordering average of L L* that the
    weighted form is checked against come from one
    :func:`~sorlab.analysis.truncation_statistics` call, which picks the
    methods for n and runs them on two threads; the search draws from
    ``derived_rng(seed, 7)`` and the Monte Carlo mean from
    ``derived_rng(seed, 8)``.
    """
    seed = args.seed if args.seed is not None else 0
    B = hermitian(mmio.read_matrix(args.matrix)[0])
    try:
        s = spectral_summary(B)
        w, rank, kappa_bar, psd_unit = s.eigenvalues, s.rank, s.kappa_bar, s.unit_diagonal
    except ValueError:  # indefinite, or the zero matrix
        w, _ = eigen_hermitian(B)
        rank, kappa_bar = (0 if not B.any() else "n/a (matrix not PSD)"), None
        psd_unit = False
    norm_b = max(abs(w[0]), abs(w[-1]))  # the one ||B|| of the report
    report = {"n": B.shape[0], "lambda_max": w[0], "lambda_min": w[-1],
              "spectral_norm": norm_b, "rank": rank, "kappa_bar": kappa_bar}

    if not B.any():
        _emit(report | {"truncation": "zero matrix, all ratios 0", "avg_lower_gram_norm": 0.0})
        return 0

    stats, expected, se, oracle = analysis.truncation_statistics(
        B, args.restarts, derived_rng(seed, 7), args.trials, derived_rng(seed, 8))
    se = None if se is None or math.isnan(se) else se  # --trials 1: no standard error to print
    gram = analysis.check_lower_gram_bounds(B)
    # the weighted closed-form candidate is compared against the definitional average
    weighted = analysis.expected_lower_gram_weighted(B)
    dev = np.abs(oracle - weighted)
    i, j = np.unravel_index(int(np.argmax(dev)), dev.shape)
    flagged = dev[i, j] > 1e-10 * max(norm_b ** 2, 1.0)
    _emit(report | {
        "truncation_method": stats.method,
        "truncation_samples": stats.samples,
        "truncation_ratio_identity": stats.ratio_identity,
        "truncation_ratio_min": stats.min_ratio,
        "truncation_argmin_sigma": format_permutation(stats.argmin_sigma),
        "truncation_ratio_mean": stats.mean_ratio,
        "truncation_ratio_max": stats.max_ratio,
        "expected_truncation_ratio": expected,
        "expected_truncation_ratio_se": se,
        "avg_lower_gram_norm": gram.norm_avg,
        "norm_b_squared": norm_b ** 2,
        "bound_general_ok": gram.general_ok,
        "psd_unit_diagonal": psd_unit,
        # the paper proves the strict bound only for PSD unit-diagonal B
        "bound_psd_strict_ok": gram.psd_strict_ok if psd_unit else None,
        "avg_lower_gram_oracle": "bruteforce" if stats.method == "exhaustive" else "closed",
        "weighted_form_max_abs_dev": dev[i, j],
        "weighted_form_flagged": flagged,
        "weighted_form_entry": f"({i + 1},{j + 1}) oracle: {_fmt_float(oracle[i, j].real)} "
                               f"weighted: {_fmt_float(weighted[i, j].real)}" if flagged else None,
    })
    return 0


# ---------------------------------------------------------------- bounds / plot

def cmd_bounds(args, parser) -> int:
    B, _ = mmio.read_matrix(args.matrix)
    spectrum = spectral_summary(hermitian(B))
    bounds = analysis.evaluate_rate_bounds(spectrum, args.omega, c0=args.c0, c1=args.c1)
    _emit(dataclasses.asdict(bounds))
    return 0


def cmd_plot(args, parser) -> int:
    rows = read_history_csv(args.csv)
    if not rows:
        raise ValueError(f"no data rows in {args.csv}")
    curves = _group_curves(rows)
    series = [(kind, mean_error_curve(trials)) for kind, trials in curves.items()]
    svgplot.write_semilog(args.out, series, title=args.title,
                          per_trial=curves if args.per_trial else None)
    _emit({"svg": args.out})
    return 0


# ---------------------------------------------------------------- parser

# (option, test, requirement) of each single-option usage rule: main exits 2
# with "<option> must <requirement>" when a command's value fails the test.
_OPTION_RULES = (
    ("--seed", lambda v: v >= 0, "be >= 0"),
    ("--omega", lambda v: 0.0 < v < 2.0, "lie strictly in (0, 2)"),
    ("--trials", lambda v: v >= 1, "be >= 1"),
    ("--restarts", lambda v: v >= 1, "be >= 1"),
    ("--sweeps", lambda v: v >= 1, "be >= 1"),
    ("--rate-window", lambda v: v >= 1, "be >= 1"),
    ("--target-error-sq", lambda v: v >= 0, "be >= 0"),  # False for NaN
)


def _add_common_run_args(p):
    p.add_argument("--matrix", required=True, help="MatrixMarket file with B")
    p.add_argument("--rhs", required=True, help="right-hand side vector file")
    p.add_argument("--ybar", required=True, help="planted solution vector file")
    p.add_argument("--y0", help="start vector file (default: zero, or a basis "
                               "vector for homogeneous systems)")
    p.add_argument("--omega", type=float, default=1.0, help="relaxation parameter in (0, 2)")
    p.add_argument("--sweeps", type=int, default=100, help="maximum number of sweeps")
    p.add_argument("--target-error-sq", type=float, default=1e-24,
                   help="stop once the squared energy error reaches this")
    p.add_argument("--sigma", help="permutation as 1-based comma list, e.g. 3,1,2 "
                                  "(for fixed/preshuffled)")
    p.add_argument("--rate-window", type=int, default=10,
                   help="trailing sweeps for the empirical rate")
    p.add_argument("--allow-inconsistent", action="store_true",
                   help="run even if b is not in Ran(B)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sorlab",
        description="SOR/Kaczmarz iterations under equation reorderings: "
                    "experiment harness and analysis tools.")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="generate a test problem as MatrixMarket files")
    g.add_argument("--kind", required=True, choices=("fan", "random", "lowrank"))
    g.add_argument("--m", type=int, help="fan: half the number of rows; random: factor columns")
    g.add_argument("--n", type=int, help="system size (random/lowrank)")
    g.add_argument("--r", type=int, help="target rank (lowrank)")
    g.add_argument("--complex", action="store_true", help="complex Gaussian entries")
    g.add_argument("--out-dir", required=True)
    g.set_defaults(func=cmd_generate)

    s = sub.add_parser("solve", help="run one solver and write the history CSV")
    _add_common_run_args(s)
    s.add_argument("--strategy", required=True, help=" | ".join(_STRATEGY_ALIASES))
    s.add_argument("--out", required=True, help="history CSV path")
    s.set_defaults(func=cmd_solve)

    c = sub.add_parser("compare", help="run strategy x trial grid, write CSV/SVG and a summary")
    _add_common_run_args(c)
    c.add_argument("--strategies", required=True, help="comma-separated strategy list")
    c.add_argument("--trials", type=int, default=1)
    c.add_argument("--out-csv", required=True)
    c.add_argument("--out-svg")
    c.add_argument("--per-trial", action="store_true", help="also draw faint per-trial curves")
    c.add_argument("--c0", type=float, help="constant for the low-rank cyclic bound")
    c.add_argument("--c1", type=float, default=analysis.C1_DEFAULT,
                   help="constant for the preshuffled bound")
    c.set_defaults(func=cmd_compare)

    a = sub.add_parser("analyze", help="spectral, truncation, and reordering-average report")
    a.add_argument("--matrix", required=True)
    a.add_argument("--trials", type=int, default=2000,
                   help="Monte Carlo samples for the expected truncation norm (n > 8)")
    a.add_argument("--restarts", type=int, default=20, help="heuristic search restarts (n > 8)")
    a.set_defaults(func=cmd_analyze)

    b = sub.add_parser("bounds", help="evaluate per-sweep contraction bounds")
    b.add_argument("--matrix", required=True)
    b.add_argument("--omega", type=float, default=1.0)
    b.add_argument("--c0", type=float, help="constant for the low-rank cyclic bound")
    b.add_argument("--c1", type=float, default=analysis.C1_DEFAULT)
    b.set_defaults(func=cmd_bounds)

    p = sub.add_parser("plot", help="render a history CSV as an SVG semilog plot")
    p.add_argument("--csv", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--per-trial", action="store_true")
    p.add_argument("--title", default="")
    p.set_defaults(func=cmd_plot)

    for sp in (g, s, c, a, b, p):
        sp.add_argument("--seed", type=int, default=None,
                        help="base seed (default 0); derived per strategy and trial")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    for option, holds, requirement in _OPTION_RULES:  # before any command reads a file
        value = getattr(args, option[2:].replace("-", "_"), None)
        if value is not None and not holds(value):
            parser.error(f"{option} must {requirement}")
    try:
        return args.func(args, parser)
    except (OSError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
