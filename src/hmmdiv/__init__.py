"""Divergence rates between Markov switching models, two ways: Monte Carlo
simulation of the forward filter's likelihood ratios, and a deterministic
Fredholm / Perron-eigenvector method on the filter's invariant density."""

from .forward import (
    DegenerateInputError,
    log_likelihood,
    per_step_log_ratios,
)
from .fredholm import (
    DivergenceResult,
    GridSpec,
    GridTooCoarseError,
    InvariantDensityGrid,
    KernelMatrix,
    NonConvergenceError,
    build_kernel,
    j_alpha,
    j_log,
    noncentral_chisq1_cdf,
    q,
    solve_invariant,
)
from .models import (
    LinearGaussianChain,
    ModelAParams,
    ModelBParams,
    PathSample,
    as_chain,
    sample_path,
    transition_matrix,
)
from .montecarlo import (
    DivergenceEstimate,
    McConfig,
    estimate_from_log_ratios,
    replication_log_ratios,
)
from .cli import (
    CaseSpec,
    ConfigError,
    ResultRow,
    default_config,
    divergence_fredholm,
    estimate_renyi_mc,
    load_config,
    parse_config,
    reproduce_table,
    run_cases,
    serialize_config,
)

__version__ = "0.1.0"

__all__ = [
    "CaseSpec",
    "ConfigError",
    "DegenerateInputError",
    "DivergenceEstimate",
    "DivergenceResult",
    "GridSpec",
    "GridTooCoarseError",
    "InvariantDensityGrid",
    "KernelMatrix",
    "LinearGaussianChain",
    "McConfig",
    "ModelAParams",
    "ModelBParams",
    "NonConvergenceError",
    "PathSample",
    "ResultRow",
    "as_chain",
    "build_kernel",
    "default_config",
    "divergence_fredholm",
    "estimate_from_log_ratios",
    "estimate_renyi_mc",
    "j_alpha",
    "j_log",
    "load_config",
    "log_likelihood",
    "noncentral_chisq1_cdf",
    "parse_config",
    "per_step_log_ratios",
    "q",
    "replication_log_ratios",
    "reproduce_table",
    "run_cases",
    "sample_path",
    "serialize_config",
    "solve_invariant",
    "transition_matrix",
]
