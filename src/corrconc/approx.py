"""Closed-form approximations and bounds for the mean and variance of R.

All functions here are exact algebraic expressions in (rho, n); no
tolerances or iteration are involved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .params import ModelParams

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
    and math.inf where it exceeds the float range.
    """
    if m < 1:
        raise ValueError(f"m must be a positive integer, got {m}")
    nu2 = var_approx(params)
    try:
        coeff = math.factorial(2 * m) / (2**m * math.factorial(m))
    except OverflowError:
        # (2m)! / (2^m m!) = (2m - 1)!! is beyond the float range (m >= 151):
        # form the product in integers, with 2 nu^2 = num / den, and round once.
        num, den = (2.0 * nu2).as_integer_ratio()
        try:
            return math.factorial(2 * m) // (2**m * math.factorial(m)) * num**m / den**m
        except OverflowError:
            return math.inf
    return coeff * (2.0 * nu2) ** m
