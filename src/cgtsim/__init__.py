"""Decentralized gradient tracking with communication compression.

Simulates gradient tracking, compressed gradient tracking and its
error-feedback variant over synthetic multi-agent networks, verifies the
algebraic invariants the methods rely on, and certifies linear convergence
numerically from the associated error-system matrices.
"""

from .algorithms import (
    AlgorithmError,
    DivergenceError,
    HyperParams,
    NetworkState,
    RunResult,
    TraceRecord,
    default_x0,
    metrics,
    run_cgt_efficient,
    run_cgt_reference,
    run_efcgt_efficient,
    run_efcgt_reference,
    run_gt,
)
from .analysis import (
    AnalysisError,
    Certificate,
    ErrorConstants,
    ErrorSystem,
    RateFit,
    SufficientParams,
    build_A,
    build_B,
    certify,
    cgt_constants,
    efcgt_constants,
    empirical_rate,
    spectral_radius,
    sufficient_params,
    sufficient_params_ef,
)
from .compression import (
    CompressionError,
    CompressorKind,
    CompressorProfile,
    Identity,
    NormSign,
    RandK,
    RescaledNormSign,
    RngStream,
    TopK,
    UnbiasedQuantize,
    analytic_profile,
    bit_cost,
    compress,
    compress_rows,
    compressor_label,
    empirical_profile,
    estimate_contraction,
    parse_compressor,
    profile_for,
)
from .problems import (
    ProblemConstants,
    ProblemError,
    RidgeProblem,
    constants,
    generate_ridge,
    gradient_matrix,
    local_gradient,
    optimal_solution,
)
from .topology import (
    Ring,
    SpectralInfo,
    TopologyError,
    WeightMatrix,
    build_ring,
    build_weights_outdegree,
    check_doubly_stochastic,
    spectral_info,
    spectral_norm,
)

__version__ = "0.1.0"
