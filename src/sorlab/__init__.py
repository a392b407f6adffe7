"""SOR/Gauss-Seidel/Kaczmarz iterations under equation reorderings.

Solvers for consistent Hermitian PSD systems with cyclic, shuffled,
preshuffled, and single-step-random sweep orderings; permutation statistics
of the triangular truncation; and evaluation of per-sweep convergence-rate
bounds, plus a Monte Carlo experiment harness (see ``sorlab.cli``).
"""

from .analysis import (
    C1_DEFAULT,
    C2_DEFAULT,
    EXHAUSTIVE_LIMIT,
    LowerGramReport,
    RateBounds,
    TruncationStats,
    check_lower_gram_bounds,
    evaluate_rate_bounds,
    expected_contraction,
    expected_lower_gram_bruteforce,
    expected_lower_gram_closed,
    expected_lower_gram_montecarlo,
    expected_lower_gram_weighted,
    expected_truncation_norm,
    min_truncation_exhaustive,
    min_truncation_heuristic,
    truncation_ratio,
    truncation_statistics,
)
from .linalg import (
    SpectralSummary,
    eigen_hermitian,
    energy_seminorm_sq,
    hadamard,
    hermitian,
    hermitian_from_factor,
    min_index_matrix,
    permute_conjugate,
    rescale_unit_diagonal,
    spectral_norm,
    spectral_summary,
    strict_lower,
)
from .orderings import (
    OrderingStrategy,
    cyclic,
    derive_seed,
    derived_rng,
    fixed,
    format_permutation,
    make_rng,
    parse_permutation,
    preshuffled,
    random_permutation,
    shuffled,
    single_step_random,
    sweep_order,
)
from .problems import (
    ProblemInstance,
    consistency_check,
    default_start,
    fan_problem,
    low_rank_problem,
    plant_solution,
    random_factor_problem,
)
from .solvers import (
    IterationHistory,
    SolverConfig,
    empirical_rate,
    error_iteration_matrix,
    kaczmarz_sweep,
    mean_error_curve,
    run_kaczmarz,
    run_solver,
    run_trials,
    sor_sweep,
)

__version__ = "0.1.0"
