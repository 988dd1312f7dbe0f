"""Exact density and exact moments of the sample correlation coefficient.

Under bivariate Gaussian sampling with population correlation rho and
sample size n >= 3, the density of the sample correlation R is
Hotelling's (1953) hypergeometric form

    f(r) = (n-2) Gamma(n-1) (1 - rho^2)^((n-1)/2) (1 - r^2)^((n-4)/2)
           / (sqrt(2 pi) Gamma(n-1/2) (1 - rho r)^(n-3/2))
           * 2F1(1/2, 1/2; n-1/2; (1 + rho r)/2).

Every moment E(R^m) follows from the power-series form of the density,

    f(r) = C (1 - r^2)^((n-4)/2) sum_{k>=0} G(k)^2 (2 r rho)^k / k!

with C = 2^(n-3) (1 - rho^2)^((n-1)/2) / (pi Gamma(n-2)) and
G(k) = Gamma((n - 1 + k) / 2), by swapping sum and integral, which turns
each term into a closed-form beta-type integral.  The moment series is
summed with a running log-term recurrence; adaptive quadrature of the
density is the independent cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from scipy.integrate import quad
from scipy.special import hyp2f1

from .errors import DegenerateDistributionError, QuadratureError, SeriesTruncationError
from .gammakit import log_gamma, log_gamma_ratio
from .params import DEFAULT_SERIES_CONFIG, ModelParams, SeriesConfig

__all__ = [
    "MomentResult",
    "beta_moment_integral",
    "central_moment",
    "density_at",
    "exact_variance",
    "moment",
    "moment_quadrature",
]


@dataclass(frozen=True)
class MomentResult:
    """A truncated series sum: value, terms evaluated, and a bound on the
    discarded tail (geometric bound from the last term ratio)."""

    value: float
    terms_used: int
    truncation_estimate: float


def beta_moment_integral(m: int, k: int, n: int) -> float:
    """Integral of r^(m+k) (1 - r^2)^((n-4)/2) over [-1, 1].

    Zero when m + k is odd (odd integrand); otherwise
    Gamma((m+k+1)/2) Gamma((n-2)/2) / Gamma((n+m+k-1)/2).
    """
    if m < 0 or k < 0:
        raise ValueError(f"powers must be non-negative, got m={m}, k={k}")
    if n < 3:
        raise ValueError(f"sample size n must be >= 3, got {n}")
    if (m + k) % 2 == 1:
        return 0.0
    return math.exp(
        log_gamma((m + k + 1) / 2) + log_gamma((n - 2) / 2) - log_gamma((n + m + k - 1) / 2)
    )


def moment(m: int, params: ModelParams, cfg: SeriesConfig = DEFAULT_SERIES_CONFIG) -> MomentResult:
    """E(R^m) from the term-by-term series.

    Only indices k with m + k even contribute, so the summation steps k
    by two; consecutive terms then differ by the rational factor

        rho^2 (n-1+k)^2 (m+k+1) / ((k+1)(k+2)(n+m+k-1))

    which tends to rho^2 < 1 from above, so a geometric tail bound from
    the last ratio is valid once the ratio has dropped below one.  All
    contributing terms share one sign, making the accumulation stable.
    Negative rho is folded out via E(R^m; -rho) = (-1)^m E(R^m; rho),
    and |rho| = 1 short-circuits to the degenerate value rho^m.
    """
    if m < 0:
        raise ValueError(f"moment order must be non-negative, got {m}")
    if params.is_degenerate:
        return MomentResult(value=params.rho**m, terms_used=0, truncation_estimate=0.0)

    n = params.n
    a = abs(params.rho)
    sign = -1.0 if (params.rho < 0.0 and m % 2 == 1) else 1.0
    k = m % 2
    if a == 0.0 and k == 1:
        return MomentResult(value=0.0, terms_used=0, truncation_estimate=0.0)

    # First term, with Gamma(n-2) of C taken through the duplication
    # formula so that no large log-gamma values are differenced:
    #   (1 - rho^2)^((n-1)/2) / sqrt(pi) * (2|rho|)^k / k! * Gamma((m+k+1)/2)
    #   * Gamma((n-1+k)/2)^2 / (Gamma((n-1)/2) Gamma((n+m+k-1)/2)).
    log_term = (
        0.5 * (n - 1) * math.log1p(-a * a)
        - 0.5 * math.log(math.pi)
        + log_gamma_ratio((n - 1 + k) / 2, (n - 1) / 2)
        + log_gamma_ratio((n - 1 + k) / 2, (n + m + k - 1) / 2)
        + (math.log(2.0 * a) if k else 0.0)
        + log_gamma((m + k + 1) / 2)
    )
    if a == 0.0:
        return MomentResult(value=math.exp(log_term), terms_used=1, truncation_estimate=0.0)

    total = 0.0
    terms_used = 0
    while True:
        term = math.exp(log_term)
        total += term
        terms_used += 1
        ratio = (
            a * a * (n - 1 + k) ** 2 * (m + k + 1) / ((k + 1) * (k + 2) * (n + m + k - 1))
        )
        if ratio < 1.0 and total > 0.0 and term <= cfg.rel_tol * total:
            tail = term * ratio / (1.0 - ratio)
            return MomentResult(value=sign * total, terms_used=terms_used, truncation_estimate=tail)
        if terms_used >= cfg.max_terms:
            raise SeriesTruncationError(
                f"moment series did not converge within {cfg.max_terms} terms "
                f"(m={m}, rho={params.rho}, n={n})",
                partial_value=sign * total,
                terms_used=terms_used,
                truncation_estimate=math.inf if ratio >= 1.0 else term * ratio / (1.0 - ratio),
            )
        log_term += math.log(ratio)
        k += 2


def _density(params: ModelParams, r: float, boundary: bool = True) -> float:
    """Hotelling's density at -1 < r < 1; with boundary=False, without
    its (1 - r^2)^((n-4)/2) factor, which then holds at r = +-1 too.

    The exponent is assembled without cancellation: 1 - rho r and
    1 - r^2 are formed from exact differences, and the powers of order n
    are gathered into log_q = log((1 - rho^2)(1 - r^2) / (1 - rho r)^2)
    = log1p(-d^2), d = (r - rho) / (1 - rho r), which is small near the
    mode however large n is.
    """
    n, rho = params.n, params.rho
    a = abs(rho)
    # 1 - rho r; for rho r > 1/2 as (1 - |rho|) + |rho| (1 - |r|), where
    # both differences are exact.
    w = 1.0 - rho * r if rho * r <= 0.5 else (1.0 - a) + a * (1.0 - abs(r))
    log_w = math.log(w)
    if boundary:
        d = (r - rho) / w
        if d * d < 0.5:
            log_q = math.log1p(-d * d)
        else:
            log_q = math.log((1.0 - rho) * (1.0 + rho) * (1.0 - r) * (1.0 + r)) - 2.0 * log_w
        log_f = 0.5 * (n - 1) * log_q - 1.5 * math.log((1.0 - r) * (1.0 + r)) + 0.5 * log_w
    else:
        log_f = 0.5 * (n - 1) * math.log1p(-rho * rho) - (n - 1.5) * log_w
    log_f += math.log(n - 2) + log_gamma_ratio(n - 1, n - 0.5) - 0.5 * math.log(2.0 * math.pi)
    return math.exp(log_f) * float(hyp2f1(0.5, 0.5, n - 0.5, 0.5 * (1.0 + rho * r)))


def density_at(params: ModelParams, r: float) -> float:
    """Density of R at r, for |rho| < 1 and -1 <= r <= 1.

    At r = +-1 the boundary factor decides the value: infinite for n = 3
    (integrable endpoint singularity), finite for n = 4, zero beyond.
    """
    if params.is_degenerate:
        raise DegenerateDistributionError(
            f"R is a point mass at rho={params.rho}; no density exists"
        )
    if not math.isfinite(r) or not -1.0 <= r <= 1.0:
        raise ValueError(f"r must lie in [-1, 1], got {r!r}")
    n = params.n
    if r * r == 1.0:
        if n == 3:
            return math.inf
        if n == 4:
            return _density(params, r, boundary=False)
        return 0.0
    return _density(params, r)


_QUAD_EPS = 1e-11


def moment_quadrature(m: int, params: ModelParams) -> float:
    """E(R^m) by adaptive quadrature of r^m times the density: the
    independent cross-check for the series route.

    For n = 3 the density carries an integrable (1 - r^2)^(-1/2)
    endpoint singularity, removed exactly by substituting r = sin(theta)
    before integrating.
    """
    if m < 0:
        raise ValueError(f"moment order must be non-negative, got {m}")
    if params.is_degenerate:
        raise DegenerateDistributionError(
            f"R is a point mass at rho={params.rho}; quadrature needs a density"
        )
    n = params.n
    breakpoints = [params.rho] if -1.0 < params.rho < 1.0 else None
    if n == 3:
        # r = sin(theta): the cos(theta) Jacobian cancels the singular factor.
        def integrand(theta: float) -> float:
            s = math.sin(theta)
            return s**m * _density(params, s, boundary=False)

        pts = [math.asin(params.rho)] if breakpoints else None
        value, err = quad(
            integrand, -math.pi / 2, math.pi / 2,
            epsabs=_QUAD_EPS, epsrel=_QUAD_EPS, limit=200, points=pts,
        )
    else:
        value, err = quad(
            lambda r: r**m * density_at(params, r),
            -1.0, 1.0,
            epsabs=_QUAD_EPS, epsrel=_QUAD_EPS, limit=200, points=breakpoints,
        )
    if err > 1e-8 * max(1.0, abs(value)):
        raise QuadratureError(
            f"quadrature for E(R^{m}) at rho={params.rho}, n={n} reached only "
            f"abs error {err:.3e}",
            value=value,
            achieved_tolerance=err,
        )
    return value


def exact_variance(params: ModelParams, cfg: SeriesConfig = DEFAULT_SERIES_CONFIG) -> float:
    """var(R) = E(R^2) - E(R)^2 from the series moments."""
    second = moment(2, params, cfg).value
    first = moment(1, params, cfg).value
    return second - first * first


def central_moment(
    order: int, params: ModelParams, cfg: SeriesConfig = DEFAULT_SERIES_CONFIG
) -> float:
    """E{(R - rho)^order} by binomial expansion over the series moments."""
    if order < 0:
        raise ValueError(f"central moment order must be non-negative, got {order}")
    rho = params.rho
    total = 0.0
    for j in range(order + 1):
        total += math.comb(order, j) * moment(j, params, cfg).value * (-rho) ** (order - j)
    return total
