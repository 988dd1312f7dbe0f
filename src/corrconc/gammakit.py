"""Stable log-gamma arithmetic.

Everything downstream (the density's constant, moment identities, mean bounds)
reduces to ratios of gamma functions at positive arguments.  All ratios
are handled on the log scale so that huge numerators and denominators
never overflow.
"""

from __future__ import annotations

import math

from .params import _real

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


def _above(caller: str, name: str, value, low: float) -> float:
    # value as a float, refused unless it is a finite real above low.
    value = _real(name, value)
    if not math.isfinite(value) or value <= low:
        raise ValueError(f"{caller} requires a finite {name} > {low:g}, got {value!r}")
    return value


def log_gamma(z: float) -> float:
    """ln Gamma(z) for z > 0; inf past z ~ 2.56e305, where it leaves the
    float range.  Within 1/4 of its roots 1 and 2 it is ln(Gamma(z) /
    Gamma(root)), which keeps the relative accuracy that lgamma loses
    there (3e-4 at z = 2 - 3e-12)."""
    z = _above("log_gamma", "z", z, 0.0)
    root = 1.0 if z < 1.5 else 2.0
    if abs(z - root) < 0.25:
        return _log_gamma_ratio(z, root, z - root)
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
    would leave the float range (arguments past ~1e305).  Its two tails
    are differenced as a divided difference, and arguments within 1/4 of
    each other at or below the cutoff are first moved past it by
    Gamma(z + 1) = z Gamma(z), so the ratio keeps its relative accuracy
    however small a - b is.

    Near the root of psi (z ~ 1.4616), where the ratio (~ (a - b)^2 psi'/2)
    is far below its first-order terms, the relative error is bounded by
    the conditioning instead: within 10 u (|a psi(a)| + |b psi(b)|) / |f|,
    with f the ratio and u = 2^-53, the change that rounding a and b
    alone makes: 3.2e-7 at a = 1.4616321449683622, b = a + 1e-9.
    """
    a = _above("log_gamma_ratio", "a", a, 0.0)
    b = _above("log_gamma_ratio", "b", b, 0.0)
    return _log_gamma_ratio(a, b, a - b)


def _log_gamma_ratio(a: float, b: float, d: float) -> float:
    # log_gamma_ratio for arguments whose exact difference a - b is d.
    # Callers pass d themselves where a or b rounds: above 2^52, n - 1/2
    # is not a double, but the offset -1/2 is.
    if d == 0.0:
        return 0.0
    # Far apart nothing cancels, and log1p(d / b) would round a / b = 1 + d / b.
    if abs(d) < 0.5 * min(a, b) and (min(a, b) > _STIRLING_CUTOFF or abs(d) < 0.25):
        # lnG(a) - lnG(b) with lnG(z) = (z - 1/2) ln z - z + ln(2 pi)/2
        #                              + 1/(12 z) - 1/(360 z^3) + ... + 1/(156 z^13).
        # The leading part is rearranged so every piece is O(d), never a
        # difference of two huge numbers.  Nearly equal arguments at or
        # below the cutoff, whose lgammas round far above their ratio
        # (~d psi(b)), are first moved k steps past it by
        # lnG(z + 1) = lnG(z) + ln z; the k terms ln((b + j + d) / (b + j))
        # come back off as log1p.  The library's own ratios below the
        # cutoff (|d| = 1/2) take the lgamma difference.
        k = max(0, math.floor(_STIRLING_CUTOFF - min(a, b)) + 1)
        steps = sum(math.log1p(d / (b + j)) for j in range(k))
        a, b = a + k, b + k
        lead = d * math.log(a) + (b - 0.5) * math.log1p(d / b) - d
        value = lead + _stirling_tail_difference(a, b, d) - steps
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
    return lead + _stirling_tail_difference(a, b, d)


def _stirling_tail_difference(a: float, b: float, d: float) -> float:
    # sum_k B_2k / (2k (2k - 1)) (t^(2k-1) - s^(2k-1)) for k = 1..7, with
    # t = 1/a and s = 1/b, as a divided difference: t^m - s^m = -d/(a b) h_m,
    # where h_1 = 1 and h_(m+1) = t h_m + s^m, a sum of positive terms.
    # Differencing the two tails would carry their rounding (~1e-18 at 10)
    # into a ratio as small as d psi(b): 6.5e-10 relative at (20, 20 + 1e-10).
    t, s = 1.0 / a, 1.0 / b
    h, s_m, tail = 1.0, s, 0.0
    for c in (1/12, -1/360, 1/1260, -1/1680, 1/1188, -691/360360, 1/156):
        tail += c * h
        for _ in range(2):
            h, s_m = t * h + s_m, s_m * s
    return -d / (a * b) * tail


def symmetric_gamma_ratio(z: float) -> float:
    """Gamma(z)^2 / (Gamma(z + 1/2) Gamma(z - 1/2)) for z > 1/2.

    Lies in (0, 1] and increases towards 1.  It is the factor G(n/2) of
    the closed-form mean, E(R) = rho G(n/2) 2F1(1/2, 1/2; (n + 1)/2; rho^2).
    """
    z = _above("symmetric_gamma_ratio", "z", z, 0.5)
    return math.exp(log_gamma_ratio(z, z + 0.5) + log_gamma_ratio(z, z - 0.5))


def symmetric_gamma_ratio_stirling(z: float) -> float:
    """Stirling-form approximation of symmetric_gamma_ratio:

        {1 - (z + 1/2)^(-1)}^(1/2) * [{1 - (4 z^2)^(-1)}^(-1)]^(z - 1/2)

    Converges to the exact ratio as z grows; exposed for comparison.
    """
    z = _above("symmetric_gamma_ratio_stirling", "z", z, 0.5)
    return math.exp(
        0.5 * math.log1p(-1.0 / (z + 0.5)) - (z - 0.5) * math.log1p(-0.25 / (z * z))
    )
