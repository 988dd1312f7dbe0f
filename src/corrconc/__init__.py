"""Exact distribution, moment approximations, concentration bounds, and a
deterministic simulation engine for the Pearson sample correlation
coefficient under bivariate Gaussian sampling.

The public names load on first use (PEP 562): ``exactdist`` and
``mcsim`` bring in numpy, which a program that only needs the closed
forms never pays for.  scipy loads only when an exact density or moment
is asked for at n <= 50; from n = 51 Hotelling's 2F1 is the library's
own series."""

import importlib

__version__ = "0.1.0"

# Public name -> the submodule that defines it.
_SOURCES = {
    **dict.fromkeys((
        "VarianceBounds", "central_even_moment_bound", "mean_approx",
        "second_moment_approx", "var_approx", "variance_bounds",
    ), "approx"),
    **dict.fromkeys((
        "Interval", "TailBoundKind", "bernstein_tail_proof_form", "coverage_interval",
        "tail_bound", "tail_bound_clamped",
    ), "conc"),
    **dict.fromkeys((
        "DegenerateDistributionError", "DegenerateSampleError", "InfeasibleLevelError",
    ), "errors"),
    **dict.fromkeys((
        "MomentResult", "central_moment", "density_at", "exact_variance", "moment",
        "moment_quadrature",
    ), "exactdist"),
    **dict.fromkeys((
        "log_gamma", "log_gamma_ratio", "symmetric_gamma_ratio",
        "symmetric_gamma_ratio_stirling",
    ), "gammakit"),
    **dict.fromkeys((
        "SimConfig", "SimSummary", "coverage_rate", "run_experiment", "sample_correlation",
        "simulate_r_values",
    ), "mcsim"),
    "ModelParams": "params",
}

__all__ = sorted(_SOURCES)


def __getattr__(name):
    source = _SOURCES.get(name)
    if source is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f".{source}", __name__), name)
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
