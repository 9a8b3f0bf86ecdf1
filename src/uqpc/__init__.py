"""Polynomial chaos surrogates from under-resolved Monte Carlo transport runs."""

from .costmodel import (
    CoefficientMoments,
    CostModel,
    break_even_nested,
    coefficient_variance_model,
    samples_for_budget,
)
from .experiments import (
    ConfigError,
    StudyConfig,
    StudyReport,
    derive_rng,
    emit_density,
    load_config,
    run_study,
    write_report,
)
from .nisp import (
    PceSurrogate,
    SobolIndices,
    TrainingData,
    build_surrogate,
    load_surrogate,
    pce_mean,
    pce_variance_biased,
    pce_variance_unbiased,
    predict,
    prediction_stddev,
    save_surrogate,
    sobol_indices,
    trim_expansion,
    variance_deconvolution,
)
from .oracle import (
    ExactStatistics,
    exact_factor_moment,
    exact_mean,
    exact_sobol,
    exact_statistics,
    exact_variance,
    mse,
    quadrature_coefficients,
)
from .polybasis import (
    MultiIndexBasis,
    basis_count,
    basis_norm,
    eval_basis,
    eval_basis_matrix,
    eval_legendre,
    gauss_legendre_rule,
    legendre_table,
    tensor_gauss_rule,
    total_degree_multi_indices,
)
from .transport import (
    HistoryTally,
    SlabProblem,
    analytic_transmittance,
    cross_section,
    sample_parameters,
    simulate_histories,
    simulate_training_set,
    total_optical_depth,
    transmittance_batch,
)

__version__ = "0.1.0"
