"""Stable log-gamma arithmetic.

Everything downstream (the density's constant, moment identities, mean bounds)
reduces to ratios of gamma functions at positive arguments.  All ratios
are handled on the log scale so that huge numerators and denominators
never overflow.
"""

from __future__ import annotations

import math

__all__ = [
    "log_gamma",
    "log_gamma_ratio",
    "symmetric_gamma_ratio",
    "symmetric_gamma_ratio_stirling",
]

# Above this, log_gamma_ratio takes the Stirling expansion: differencing
# lgammas loses ~ulp(ln Gamma(z)) (~1e-14 at z = 10), while the series'
# first omitted term, 3617/(122400 z^15), is below 3e-17 at z = 10.
_STIRLING_CUTOFF = 10.0


def log_gamma(z: float) -> float:
    """ln Gamma(z) for z > 0; inf past z ~ 2.56e305, where it leaves the
    float range."""
    if not (isinstance(z, (int, float)) and math.isfinite(z)) or z <= 0.0:
        raise ValueError(f"log_gamma requires a finite z > 0, got {z!r}")
    try:
        return math.lgamma(z)
    except OverflowError:
        return math.inf


def log_gamma_ratio(a: float, b: float) -> float:
    """ln(Gamma(a) / Gamma(b)) for a, b > 0, or +-inf where it is beyond
    the float range.

    For large nearly-equal arguments the plain difference of log-gammas
    cancels catastrophically (both are ~a*ln(a) while the ratio is tiny),
    so above the cutoff and within a factor 1.5 of each other the
    difference is evaluated through the Stirling expansion, whose terms
    subtract without cancellation; it is regrouped where a piece of it
    would leave the float range (arguments past ~1e305).
    """
    if not (isinstance(a, (int, float)) and math.isfinite(a)) or a <= 0.0:
        raise ValueError(f"log_gamma_ratio requires a finite a > 0, got {a!r}")
    if not (isinstance(b, (int, float)) and math.isfinite(b)) or b <= 0.0:
        raise ValueError(f"log_gamma_ratio requires a finite b > 0, got {b!r}")
    return _log_gamma_ratio(a, b, a - b)


def _log_gamma_ratio(a: float, b: float, d: float) -> float:
    # log_gamma_ratio for arguments whose exact difference a - b is d.
    # Callers pass d themselves where a or b rounds: above 2^52, n - 1/2
    # is not a double, but the offset -1/2 is.
    if d == 0.0:
        return 0.0
    # Far apart nothing cancels, and log1p(d / b) would round a / b = 1 + d / b.
    if min(a, b) > _STIRLING_CUTOFF and abs(d) < 0.5 * min(a, b):
        # lnG(a) - lnG(b) with lnG(z) = (z - 1/2) ln z - z + ln(2 pi)/2
        #                              + 1/(12 z) - 1/(360 z^3) + ... + 1/(156 z^13).
        # The leading part is rearranged so every piece is O(d), never a
        # difference of two huge numbers.
        lead = d * math.log(a) + (b - 0.5) * math.log1p(d / b) - d
        value = lead + (_stirling_tail(a) - _stirling_tail(b))
    else:
        try:
            value = math.lgamma(a) - math.lgamma(b)
        except OverflowError:
            value = math.inf
    if not math.isinf(value):
        return value
    # lnGamma(max(a, b)) or d ln a is past the float range.  If the other
    # argument is small, its lnGamma (< 745) cannot bring the difference
    # back.  Otherwise the lead is regrouped into two terms of the sign of
    # d, each no larger than the result, so it overflows only where that does.
    if min(a, b) <= _STIRLING_CUTOFF:
        return math.copysign(math.inf, d)
    lead = d * (math.log(a) - 1.0) + (b - 0.5) * math.log(a / b)
    return lead + (_stirling_tail(a) - _stirling_tail(b))


def _stirling_tail(z: float) -> float:
    # sum_k B_2k / (2k (2k - 1) z^(2k - 1)) for k = 1..7, Horner in w = 1/z^2.
    w = 1.0 / (z * z)
    return (1/12 - w*(1/360 - w*(1/1260 - w*(1/1680 - w*(1/1188 - w*(691/360360 - w/156)))))) / z


def symmetric_gamma_ratio(z: float) -> float:
    """Gamma(z)^2 / (Gamma(z + 1/2) Gamma(z - 1/2)) for z > 1/2.

    Lies in (0, 1] and increases towards 1; it is the factor by which
    each mean-series term shrinks relative to the normalization series.
    """
    if not (isinstance(z, (int, float)) and math.isfinite(z)) or z <= 0.5:
        raise ValueError(f"symmetric_gamma_ratio requires a finite z > 0.5, got {z!r}")
    return math.exp(log_gamma_ratio(z, z + 0.5) + log_gamma_ratio(z, z - 0.5))


def symmetric_gamma_ratio_stirling(z: float) -> float:
    """Stirling-form approximation of symmetric_gamma_ratio:

        {1 - (z + 1/2)^(-1)}^(1/2) * [{1 - (4 z^2)^(-1)}^(-1)]^(z - 1/2)

    Converges to the exact ratio as z grows; exposed for comparison.
    """
    if not (isinstance(z, (int, float)) and math.isfinite(z)) or z <= 0.5:
        raise ValueError(
            f"symmetric_gamma_ratio_stirling requires a finite z > 0.5, got {z!r}"
        )
    return math.exp(
        0.5 * math.log1p(-1.0 / (z + 0.5)) - (z - 0.5) * math.log1p(-0.25 / (z * z))
    )
