"""Exact distribution, moment approximations, concentration bounds, and a
deterministic simulation engine for the Pearson sample correlation
coefficient under bivariate Gaussian sampling."""

from .approx import (
    VarianceBounds,
    central_even_moment_bound,
    mean_approx,
    second_moment_approx,
    var_approx,
    variance_bounds,
)
from .conc import (
    Interval,
    TailBoundKind,
    bernstein_tail_proof_form,
    coverage_interval,
    invert_tail_numeric,
    tail_bound,
    tail_bound_clamped,
)
from .errors import (
    DegenerateDistributionError,
    DegenerateSampleError,
    InfeasibleLevelError,
    NumericError,
)
from .exactdist import (
    MomentResult,
    central_moment,
    density_at,
    exact_variance,
    moment,
    moment_quadrature,
)
from .gammakit import (
    log_gamma,
    log_gamma_ratio,
    symmetric_gamma_ratio,
    symmetric_gamma_ratio_stirling,
)
from .mcsim import (
    SimConfig,
    SimSummary,
    coverage_rate,
    run_experiment,
    sample_bivariate,
    sample_correlation,
    simulate_r_values,
)
from .params import ModelParams

__version__ = "0.1.0"

__all__ = [
    "DegenerateDistributionError",
    "DegenerateSampleError",
    "InfeasibleLevelError",
    "Interval",
    "ModelParams",
    "MomentResult",
    "NumericError",
    "SimConfig",
    "SimSummary",
    "TailBoundKind",
    "VarianceBounds",
    "bernstein_tail_proof_form",
    "central_even_moment_bound",
    "central_moment",
    "coverage_interval",
    "coverage_rate",
    "density_at",
    "exact_variance",
    "invert_tail_numeric",
    "log_gamma",
    "log_gamma_ratio",
    "mean_approx",
    "moment",
    "moment_quadrature",
    "run_experiment",
    "sample_bivariate",
    "sample_correlation",
    "second_moment_approx",
    "simulate_r_values",
    "symmetric_gamma_ratio",
    "symmetric_gamma_ratio_stirling",
    "tail_bound",
    "tail_bound_clamped",
    "var_approx",
    "variance_bounds",
]
