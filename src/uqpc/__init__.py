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
    TrainingData,
    build_surrogate,
    fit_buffers,
    load_surrogate,
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
    coefficient_moments_exact,
    exact_mean,
    exact_sobol,
    exact_variance,
    quadrature_coefficients,
    section_moments,
)
from .polybasis import (
    MultiIndexBasis,
    basis_count,
    eval_basis_matrix,
    gauss_legendre_rule,
    legendre_table,
    total_degree_multi_indices,
)
from .transport import (
    SlabProblem,
    sample_parameters,
    simulate_training_set,
    transmittance_batch,
)

__version__ = "0.1.0"
