"""Closed-form approximations and bounds for the mean and variance of R.

All functions here are exact algebraic expressions in (rho, n); no
tolerances or iteration are involved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .params import ModelParams, _integer

__all__ = [
    "VarianceBounds",
    "central_even_moment_bound",
    "mean_approx",
    "second_moment_approx",
    "var_approx",
    "variance_bounds",
]


@dataclass(frozen=True)
class VarianceBounds:
    """Leading-order variance value plus its two upper bounds.

    upper_conservative = [(1-rho^2)^2 + (1-rho^2)] / (n-1) dominates
    upper_aggressive = 2 (1-rho^2)^2 / (n-1) whenever 1 - rho^2 <= 1,
    i.e. always.
    """

    approx: float
    upper_conservative: float
    upper_aggressive: float


def mean_approx(params: ModelParams) -> float:
    """Leading-order mean: sqrt(1 - 1/n) * rho."""
    return math.sqrt(1.0 - 1.0 / params.n) * params.rho


def var_approx(params: ModelParams) -> float:
    """Leading-order variance: (1 - rho^2)^2 / (n - 1)."""
    s = 1.0 - params.rho * params.rho
    return s * s / (params.n - 1)


def second_moment_approx(params: ModelParams) -> float:
    """Leading-order second moment: rho^2 + (1 - rho^2)^2 / (n - 1)."""
    return params.rho * params.rho + var_approx(params)


def variance_bounds(params: ModelParams) -> VarianceBounds:
    s = 1.0 - params.rho * params.rho
    return VarianceBounds(
        approx=var_approx(params),
        upper_conservative=(s * s + s) / (params.n - 1),
        upper_aggressive=2.0 * s * s / (params.n - 1),
    )


def central_even_moment_bound(m: int, params: ModelParams) -> float:
    """Sub-Gaussian envelope for the central even moments:

        E{(R - rho)^(2m)} <~ (2m)! / (2^m m!) * (sqrt(2) nu)^(2m)

    with nu^2 the leading-order variance.  The value is 0.0 at |rho| = 1,
    and math.inf where it exceeds the float range.  Up to m = 1024 it is exact
    at the float nu^2, rounded once; beyond, exp of its log, within ~m log(m) ulp.
    """
    m = _integer("m", m)
    if m < 1:
        raise ValueError(f"m must be a positive integer, got {m}")
    two_nu2 = 2.0 * var_approx(params)
    log_4nu2 = math.log(2.0 * two_nu2) if two_nu2 else -math.inf
    if m > 2**64:
        # The bound, ~ (4 m nu^2 / e)^m, is in the float range only where
        # 4 m nu^2 / e is within 746 / m < 2^-54 of 1, less than one rounding.
        return math.inf if log_4nu2 + math.log(m) > 1.0 else 0.0
    # log[(2m - 1)!! (2 nu^2)^m] = log[Gamma(m + 1/2) / Gamma(1/2)] + m log(4 nu^2)
    log_bound = math.lgamma(m + 0.5) - math.lgamma(0.5) + m * log_4nu2
    try:
        # Past the float range by more than the log's error (~1e-10 up to
        # m = 1024), the bound is inf or 0.0, as is exp of its log.
        if m > 1024 or not -746.0 < log_bound < 711.0:
            return math.exp(log_bound)
        # (2m - 1)!! (2 nu^2)^m with 2 nu^2 = num / den, in integers and rounded
        # once: in floats (2 nu^2)^m underflows long before the bound does
        # (m = 150, n = 1000), and (2m - 1)!! overflows from m = 151.
        num, den = two_nu2.as_integer_ratio()
        return math.factorial(2 * m) // (2**m * math.factorial(m)) * num**m / den**m
    except OverflowError:
        return math.inf
