"""Sparse affine phase retrieval by l1 minimization."""

from .model import (
    COMPLEX,
    REAL,
    ErrorMetrics,
    MeasurementEnsemble,
    ProblemInstance,
    best_k_term_error,
    bias_band,
    error_metrics,
    forward_model,
    global_phase_error,
    lifted_intensity,
)
from .rng import (
    SeedSpec,
    gen_bias_complex,
    gen_bias_real,
    gen_complex_gaussian_matrix,
    gen_noise,
    gen_real_gaussian_matrix,
    gen_sparse_signal,
    make_ensemble,
    make_instance,
    regenerate_instance,
)
from .solver import (
    BpdnResult,
    SolveReport,
    SolverOptions,
    bpdn,
    brute_force_bp_oracle,
    solve_affine_pr_complex,
    solve_affine_pr_real,
)
from .ripcheck import (
    RipEstimate,
    crossterm_sup,
    lifted_map_apply,
    rip_ratio_sample,
    srip_extremes_for_x,
    srip_profile,
    structured_ratio,
)
from .lemmas import (
    SparseDecomposition,
    check_decomposition,
    lifted_distance_check,
    moment_bound_check,
    phase_align,
    sparse_convex_decompose,
)
from .harness import (
    CellResult,
    ExperimentConfig,
    load_instance,
    run_impossibility_demo,
    run_lemma_suite,
    run_noise_curve,
    run_phase_grid,
    run_ripmap,
    run_srip,
    save_instance,
    wilson_interval,
)

__version__ = "0.1.0"
