"""Command-line harness: generate problems, run and compare ordering
strategies over Monte Carlo trials, evaluate rate bounds, analyze
reordering statistics, and emit CSV histories plus SVG semilog plots.

Exit codes: 0 success, 2 usage error, 1 runtime or I/O error. Every
command accepts ``--seed`` (default 0); together with the pinned PCG64
generator this makes all outputs byte-reproducible.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import analysis, mmio, svgplot
from .linalg import eigen_hermitian, hermitian, spectral_summary
from .orderings import (
    GENERATOR_NAME,
    OrderingStrategy,
    derive_seed,
    derived_rng,
    fixed,
    format_permutation,
    parse_permutation,
    preshuffled,
)
from .problems import (
    ProblemInstance,
    consistency_check,
    default_start,
    fan_problem,
    low_rank_problem,
    random_factor_problem,
)
from .solvers import IterationHistory, SolverConfig, empirical_rate, mean_error_curve, run_solver

CSV_HEADER = "strategy,trial,sweep,error_sq,residual"

_STRATEGY_ALIASES = {
    "cyclic": "cyclic",
    "shuffled": "shuffled",
    "preshuffled": "preshuffled",
    "singlestep": "single_step_random",
    "single-step-random": "single_step_random",
    "single_step_random": "single_step_random",
    "fixed": "fixed",
}

# derived seeds are (base, strategy_index, trial, namespace); the index is
# the strategy's position in this tuple, frozen so that seeds never change
_SEED_INDEX = ("cyclic", "shuffled", "preshuffled", "single_step_random", "fixed")
_NS_RUN = 0
_NS_PRESHUFFLE = 1


def _fmt_float(v) -> str:
    return repr(float(v))


# ---------------------------------------------------------------- CSV I/O

def write_history_csv(path, rows) -> None:
    lines = [CSV_HEADER]
    for strategy, trial, sweep, err, resid in rows:
        lines.append(f"{strategy},{int(trial)},{int(sweep)},{_fmt_float(err)},{_fmt_float(resid)}")
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def read_history_csv(path):
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().strip()
        if header != CSV_HEADER:
            raise ValueError(f"unexpected CSV header {header!r}")
        rows = []
        for line in fh:
            line = line.strip()
            if not line:
                continue
            strategy, trial, sweep, err, resid = line.split(",")
            rows.append((strategy, int(trial), int(sweep), float(err), float(resid)))
    return rows


def _history_rows(strategy_name, trial, history: IterationHistory):
    for sweep, (err, resid) in enumerate(zip(history.errors_sq, history.residuals)):
        yield strategy_name, trial, sweep, err, resid


def _group_curves(rows):
    """Group CSV rows into {strategy: {trial: [err_by_sweep]}}, order-preserving."""
    curves: dict[str, dict[int, list[float]]] = {}
    for strategy, trial, sweep, err, _ in rows:
        trials = curves.setdefault(strategy, {})
        curve = trials.setdefault(trial, [])
        if sweep != len(curve):
            raise ValueError("CSV rows out of order; sweeps must be contiguous per trial")
        curve.append(err)
    return curves


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

def _load_system(args, parser):
    B, _ = mmio.read_matrix(args.matrix)
    B = hermitian(B)
    b, _ = mmio.read_vector(args.rhs)
    ybar, _ = mmio.read_vector(args.ybar)
    if args.y0:
        y0, _ = mmio.read_vector(args.y0)
    else:
        y0 = default_start(ProblemInstance(B=B, b=b, ybar=ybar))
    if not args.allow_inconsistent and not consistency_check(B, b):
        raise ValueError("system inconsistent: b has a component outside Ran(B) "
                         "(pass --allow-inconsistent to run anyway)")
    return B, b, ybar, y0


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
    if not names:
        parser.error("no strategies given")
    return names


def _trial_strategy(kind, n, sigma, base_seed, trial):
    """Ordering strategy for one trial; preshuffled draws its one-time
    permutation from a derived stream unless --sigma pinned it."""
    if sigma is not None and kind in ("fixed", "preshuffled"):
        return fixed(sigma)
    if kind == "preshuffled":
        return preshuffled(n, derived_rng(base_seed, _SEED_INDEX.index(kind), trial,
                                          _NS_PRESHUFFLE))
    return OrderingStrategy(kind)


def _run_one(B, b, ybar, y0, kind, sigma, base_seed, trial, args):
    strategy = _trial_strategy(kind, B.shape[0], sigma, base_seed, trial)
    config = SolverConfig(
        omega=args.omega,
        max_sweeps=args.sweeps,
        target_error_sq=args.target_error_sq,
        seed=derive_seed(base_seed, _SEED_INDEX.index(kind), trial, _NS_RUN),
    )
    return run_solver(B, b, y0, ybar, config, strategy)


def _check_omega(args, parser):
    if not 0.0 < args.omega < 2.0:
        parser.error("--omega must lie strictly in (0, 2)")


def cmd_solve(args, parser) -> int:
    _check_omega(args, parser)
    if args.sweeps < 1:
        parser.error("--sweeps must be >= 1")
    kind = _parse_strategies(args.strategy, args, parser)[0]
    seed = args.seed if args.seed is not None else 0
    B, b, ybar, y0 = _load_system(args, parser)
    spectral_summary(B)  # raises "matrix not PSD" before the trial runs
    sigma = parse_permutation(args.sigma, B.shape[0]) if args.sigma else None
    history = _run_one(B, b, ybar, y0, kind, sigma, seed, 0, args)
    write_history_csv(args.out, _history_rows(kind, 0, history))
    window = min(args.rate_window, history.sweeps - 1)
    rate = empirical_rate(history, window) if window >= 1 else 0.0
    print(f"strategy: {kind}")
    print(f"sweeps: {history.sweeps}")
    print(f"final_error_sq: {_fmt_float(history.errors_sq[-1])}")
    print(f"empirical_rate: {_fmt_float(rate)}")
    print(f"csv: {args.out}")
    return 0


def _print_bounds(report: analysis.RateBounds) -> None:
    print(f"n: {report.n}")
    print(f"lambda1: {_fmt_float(report.lambda1)}")
    print(f"kappa_bar: {_fmt_float(report.kappa_bar)}")
    print(f"rank: {report.rank}")
    print(f"omega: {_fmt_float(report.omega)}")
    print(f"rate_cyclic: {_fmt_float(report.rate_cyclic)}")
    if report.rate_cyclic_lowrank is not None:
        print(f"rate_cyclic_lowrank: {_fmt_float(report.rate_cyclic_lowrank)}")
        print(f"c0: {_fmt_float(report.c0)}")
    print(f"rate_single_step_sweep: {_fmt_float(report.rate_single_step_sweep)}")
    print(f"rate_shuffled: {_fmt_float(report.rate_shuffled)}")
    print(f"rate_preshuffled: {_fmt_float(report.rate_preshuffled)}")
    print(f"c1: {_fmt_float(report.c1)}")
    print(f"c2: {_fmt_float(report.c2)}")


def cmd_compare(args, parser) -> int:
    _check_omega(args, parser)
    if args.trials < 1:
        parser.error("--trials must be >= 1")
    if args.sweeps < 1:
        parser.error("--sweeps must be >= 1")
    kinds = _parse_strategies(args.strategies, args, parser)
    seed = args.seed if args.seed is not None else 0
    B, b, ybar, y0 = _load_system(args, parser)
    sigma = parse_permutation(args.sigma, B.shape[0]) if args.sigma else None
    # raises "matrix not PSD" (or on bad c0/c1) before any trial runs
    report = analysis.evaluate_rate_bounds(B, args.omega, c0=args.c0, c1=args.c1)

    rows = []
    histories: dict[str, list[IterationHistory]] = {k: [] for k in kinds}
    for kind in kinds:
        for trial in range(args.trials):
            history = _run_one(B, b, ybar, y0, kind, sigma, seed, trial, args)
            histories[kind].append(history)
            rows.extend(_history_rows(kind, trial, history))
    write_history_csv(args.out_csv, rows)

    _print_bounds(report)
    print(f"trials: {args.trials}")

    mean_curves = []
    for kind in kinds:
        mean = mean_error_curve(h.errors_sq for h in histories[kind])
        mean_curves.append((kind, mean))
        window = min(args.rate_window, len(mean) - 2)
        rate = empirical_rate(mean, window) if window >= 1 else 0.0
        print(f"empirical_rate[{kind}]: {_fmt_float(rate)}")
        print(f"final_mean_error_sq[{kind}]: {_fmt_float(mean[-1])}")

    print("mean_error_sq per sweep:")
    print("sweep," + ",".join(kinds))
    length = max(len(m) for _, m in mean_curves)
    for k in range(length):
        vals = [_fmt_float(m[min(k, len(m) - 1)]) for _, m in mean_curves]
        print(f"{k}," + ",".join(vals))

    if args.out_svg:
        per_trial = None
        if args.per_trial:
            per_trial = {kind: [list(h.errors_sq) for h in histories[kind]] for kind in kinds}
        svgplot.write_semilog(args.out_svg, mean_curves,
                              title=f"omega={args.omega} trials={args.trials}",
                              per_trial=per_trial)
        print(f"svg: {args.out_svg}")
    print(f"csv: {args.out_csv}")
    return 0


# ---------------------------------------------------------------- analyze

def cmd_analyze(args, parser) -> int:
    seed = args.seed if args.seed is not None else 0
    B, _ = mmio.read_matrix(args.matrix)
    B = hermitian(B)
    n = B.shape[0]
    print(f"n: {n}")
    w, _ = eigen_hermitian(B)
    print(f"lambda_max: {_fmt_float(w[0])}")
    print(f"lambda_min: {_fmt_float(w[-1])}")
    try:
        s = spectral_summary(B)
        print(f"spectral_norm: {_fmt_float(s.spectral_norm)}")
        print(f"rank: {s.rank}")
        print(f"kappa_bar: {_fmt_float(s.kappa_bar)}")
    except ValueError:
        print(f"spectral_norm: {_fmt_float(max(abs(w[0]), abs(w[-1])))}")
        print("rank: 0" if not B.any() else "rank: n/a (matrix not PSD)")

    if not B.any():
        print("truncation: zero matrix, all ratios 0")
        print("avg_lower_gram_norm: 0.0")
        return 0

    if n <= analysis.EXHAUSTIVE_LIMIT:
        stats = analysis.min_truncation_exhaustive(B)
        print("truncation_method: exhaustive")
    else:
        stats = analysis.min_truncation_heuristic(B, args.restarts, derived_rng(seed, 7))
        print("truncation_method: heuristic")
    print(f"truncation_samples: {stats.samples}")
    print(f"truncation_ratio_identity: {_fmt_float(stats.ratio_identity)}")
    print(f"truncation_ratio_min: {_fmt_float(stats.min_ratio)}")
    print(f"truncation_argmin_sigma: {format_permutation(stats.argmin_sigma)}")
    print(f"truncation_ratio_mean: {_fmt_float(stats.mean_ratio)}")
    print(f"truncation_ratio_max: {_fmt_float(stats.max_ratio)}")
    if n > analysis.EXHAUSTIVE_LIMIT:
        est, se = analysis.expected_truncation_norm(B, args.trials, derived_rng(seed, 8))
        print(f"expected_truncation_ratio: {_fmt_float(est)}")
        print(f"expected_truncation_ratio_se: {_fmt_float(se)}")
    else:
        print(f"expected_truncation_ratio: {_fmt_float(stats.mean_ratio)}")

    gram = analysis.check_lower_gram_bounds(B)
    print(f"avg_lower_gram_norm: {_fmt_float(gram.norm_avg)}")
    print(f"norm_b_squared: {_fmt_float(gram.norm_b ** 2)}")
    print(f"bound_general_ok: {str(gram.general_ok).lower()}")
    print(f"psd_unit_diagonal: {str(gram.psd_unit_diagonal).lower()}")
    if gram.psd_strict_ok is not None:
        print(f"bound_psd_strict_ok: {str(gram.psd_strict_ok).lower()}")

    # compare the weighted closed-form candidate against the definitional average
    if n <= analysis.EXHAUSTIVE_LIMIT:
        oracle = analysis.expected_lower_gram_bruteforce(B)
        print("avg_lower_gram_oracle: bruteforce")
    else:
        oracle = analysis.expected_lower_gram_closed(B)
        print("avg_lower_gram_oracle: closed")
    weighted = analysis.expected_lower_gram_weighted(B)
    dev = np.abs(oracle - weighted)
    i, j = np.unravel_index(int(np.argmax(dev)), dev.shape)
    max_dev = float(dev[i, j])
    flagged = max_dev > 1e-10 * max(gram.norm_b ** 2, 1.0)
    print(f"weighted_form_max_abs_dev: {_fmt_float(max_dev)}")
    print(f"weighted_form_flagged: {str(flagged).lower()}")
    if flagged:
        print(f"weighted_form_entry: ({i + 1},{j + 1}) "
              f"oracle: {_fmt_float(oracle[i, j].real)} "
              f"weighted: {_fmt_float(weighted[i, j].real)}")
    return 0


# ---------------------------------------------------------------- bounds / plot

def cmd_bounds(args, parser) -> int:
    _check_omega(args, parser)
    B, _ = mmio.read_matrix(args.matrix)
    B = hermitian(B)
    report = analysis.evaluate_rate_bounds(B, args.omega, c0=args.c0, c1=args.c1)
    _print_bounds(report)
    return 0


def cmd_plot(args, parser) -> int:
    rows = read_history_csv(args.csv)
    if not rows:
        raise ValueError(f"no data rows in {args.csv}")
    curves = _group_curves(rows)
    series = [(kind, mean_error_curve(trials.values())) for kind, trials in curves.items()]
    per_trial = None
    if args.per_trial:
        per_trial = {kind: list(trials.values()) for kind, trials in curves.items()}
    svgplot.write_semilog(args.out, series, title=args.title, per_trial=per_trial)
    print(f"svg: {args.out}")
    return 0


# ---------------------------------------------------------------- parser

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
    s.add_argument("--strategy", required=True,
                   help="cyclic | shuffled | preshuffled | singlestep | fixed")
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
    try:
        return args.func(args, parser)
    except (OSError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
