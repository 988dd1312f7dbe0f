"""Concentration tail bounds for R and the coverage intervals they induce.

Four two-sided bounds on Pr(|R - rho| > t) are provided:

    Bernstein        2 exp[-n t^2 / (2 (1 + 2 n t))]
    Conservative     2 exp[-n t^2 / (8 (1 - rho^2)^2)]
    Aggressive       2 exp[-n t^2 / (4 (1 - rho^2)^2)]
    MegaAggressive   2 exp[-n t^2 / (2 (1 - rho^2)^2)]

Inverting a bound at level alpha yields a symmetric interval
(rho - t, rho + t), with t in closed form for every kind: with
L = ln(2/alpha), t = (1 - rho^2) sqrt(divisor L / n) for the sub-Gaussian
kinds, and the positive root t = 2L + sqrt(4L^2 + 2L/n) of the quadratic
n t^2 = 2L (1 + 2 n t) for the Bernstein kind.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .errors import InfeasibleLevelError
from .params import ModelParams

__all__ = [
    "Interval",
    "TailBoundKind",
    "bernstein_tail_proof_form",
    "coverage_interval",
    "invert_tail_numeric",
    "tail_bound",
    "tail_bound_clamped",
]

_BISECT_VALUE_TOL = 1e-12
_BISECT_WIDTH_TOL = 1e-14


class TailBoundKind(enum.Enum):
    """Which tail bound to use; the sub-Gaussian kinds carry their
    exponent divisor (8, 4, 2 from loosest to tightest interval)."""

    BERNSTEIN = "bernstein"
    CONSERVATIVE = "c0"
    AGGRESSIVE = "c1"
    MEGA_AGGRESSIVE = "c2"

    @property
    def divisor(self) -> int:
        if self is TailBoundKind.BERNSTEIN:
            raise ValueError("the Bernstein bound has no sub-Gaussian divisor")
        return {
            TailBoundKind.CONSERVATIVE: 8,
            TailBoundKind.AGGRESSIVE: 4,
            TailBoundKind.MEGA_AGGRESSIVE: 2,
        }[self]

    @property
    def is_sub_gaussian(self) -> bool:
        return self is not TailBoundKind.BERNSTEIN


@dataclass(frozen=True)
class Interval:
    """Symmetric coverage interval (rho - t, rho + t), stored pre-clipping.

    level is the nominal coverage 1 - alpha; clipped marks intervals
    that stick out of [-1, 1].
    """

    lower: float
    upper: float
    level: float
    kind: TailBoundKind
    clipped: bool

    @property
    def half_width(self) -> float:
        return 0.5 * (self.upper - self.lower)

    @property
    def clipped_bounds(self) -> tuple[float, float]:
        return max(self.lower, -1.0), min(self.upper, 1.0)


def _validate_t(t: float) -> None:
    if not (isinstance(t, (int, float)) and math.isfinite(t)) or t <= 0.0:
        raise ValueError(f"t must be a finite positive real, got {t!r}")


def tail_bound(kind: TailBoundKind, params: ModelParams, t: float) -> float:
    """Raw bound on Pr(|R - rho| > t); may exceed 1 (see tail_bound_clamped).

    The sub-Gaussian kinds return 0 in the degenerate case |rho| = 1,
    where R sits exactly at rho.
    """
    _validate_t(t)
    n = params.n
    if kind is TailBoundKind.BERNSTEIN:
        # n t^2 / (1 + 2 n t) as t / (1/(n t) + 2), which stays finite
        # where n t^2 and n t overflow.
        return 2.0 * math.exp(-t / (2.0 * (1.0 / (n * t) + 2.0)))
    if params.is_degenerate:
        return 0.0
    s = 1.0 - params.rho * params.rho
    return 2.0 * math.exp(-n * t * t / (kind.divisor * s * s))


def tail_bound_clamped(kind: TailBoundKind, params: ModelParams, t: float) -> float:
    """min(1, tail_bound): the version usable as a probability."""
    return min(1.0, tail_bound(kind, params, t))


def bernstein_tail_proof_form(params: ModelParams, t: float) -> float:
    """Bernstein bound with the variance proxy 1/(n - 1) in place of 1/n:

        2 exp[-t^2 / (2 (1/(n-1) + 2 t))]

    Slightly weaker than tail_bound(BERNSTEIN, ...); exposed for
    comparison, the statement form above is the default.
    """
    _validate_t(t)
    nu2 = 1.0 / (params.n - 1)
    return 2.0 * math.exp(-t * t / (2.0 * (nu2 + 2.0 * t)))


def _validate_alpha(alpha: float) -> None:
    if not (isinstance(alpha, (int, float)) and math.isfinite(alpha)):
        raise ValueError(f"alpha must be a finite real, got {alpha!r}")
    if alpha >= 2.0:
        raise InfeasibleLevelError(
            f"tail bounds start at 2 as t -> 0, so level {alpha} is never attained"
        )
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha!r}")


def closed_form_half_width(kind: TailBoundKind, params: ModelParams, alpha: float) -> float:
    """Closed-form t with tail_bound(kind, params, t) = alpha; see the
    module docstring."""
    # L = ln 2 - ln alpha: 2/alpha overflows for subnormal alpha.  Every
    # term below is positive, so nothing cancels.
    big_l = math.log(2.0) - math.log(alpha)
    if kind is TailBoundKind.BERNSTEIN:
        return 2.0 * big_l + math.sqrt(4.0 * big_l * big_l + 2.0 * big_l / params.n)
    s = 1.0 - params.rho * params.rho
    return s * math.sqrt(kind.divisor * big_l / params.n)


def coverage_interval(kind: TailBoundKind, params: ModelParams, alpha: float) -> Interval:
    """Symmetric interval around rho whose tail bound equals alpha.

    At |rho| = 1 the sub-Gaussian intervals have zero width; the Bernstein
    bound ignores rho, so its interval keeps its positive half-width.
    """
    _validate_alpha(alpha)
    t = closed_form_half_width(kind, params, alpha)
    lower, upper = params.rho - t, params.rho + t
    return Interval(
        lower=lower,
        upper=upper,
        level=1.0 - alpha,
        kind=kind,
        clipped=(lower < -1.0 or upper > 1.0),
    )


def _bisect_decreasing(f, alpha: float) -> float:
    # f is strictly decreasing from 2 to 0; bracket [0, hi] by doubling,
    # then bisect until the residual and the bracket are both tiny.
    hi = 1.0
    while f(hi) - alpha > 0.0:
        hi *= 2.0
        if hi > 1e12:
            raise InfeasibleLevelError(f"no finite t attains level {alpha}")
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        g = f(mid) - alpha
        if abs(g) <= _BISECT_VALUE_TOL and (hi - lo) <= _BISECT_WIDTH_TOL * mid:
            return mid
        if g > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def invert_tail_numeric(kind: TailBoundKind, params: ModelParams, alpha: float) -> float:
    """Half-width t solved purely by root finding, for every kind.

    The reference that closed_form_half_width is tested against: within
    1e-14 relative down to alpha = 1e-300.  At subnormal alpha (~1e-320)
    it is only ~1e-6 relative, since tail_bound carries a few significant
    bits there and the bisection cannot place the root.
    """
    _validate_alpha(alpha)
    if params.is_degenerate and kind.is_sub_gaussian:
        return 0.0
    return _bisect_decreasing(lambda t: tail_bound(kind, params, t), alpha)
