"""Exact density and exact moments of the sample correlation coefficient.

Under bivariate Gaussian sampling with population correlation rho and
sample size n >= 3, the density of the sample correlation R is
Hotelling's (1953) hypergeometric form

    f(r) = (n-2) Gamma(n-1) (1 - rho^2)^((n-1)/2) (1 - r^2)^((n-4)/2)
           / (sqrt(2 pi) Gamma(n-1/2) (1 - rho r)^(n-3/2))
           * 2F1(1/2, 1/2; n-1/2; (1 + rho r)/2).

Moments are integrals of the density in Fisher's z = atanh r.  With
zeta = atanh rho and u = z - zeta, the density times dr/dz is

    g(z) = K sqrt(cosh z / cosh zeta) sech(u)^(n-3/2) 2F1(...),
    K = (n-2) Gamma(n-1) / (sqrt(2 pi) Gamma(n-1/2)),

in which nothing cancels.  g is analytic in the strip |Im z| < pi/2 and
decays about zeta like a Gaussian of width s = (n - 3/2)^(-1/2) (like
e^(-|u|) at n = 3), so the trapezoid rule converges geometrically in 1/h
(Trefethen & Weideman 2014, SIAM Rev. 56).  g is evaluated once per
(|rho|, n), in one pass, on a grid and on the grid shifted by half a
step; every moment is a dot product against one of them, and the two
check each other.  Central moments integrate (r - rho)^k with
r - rho = sinh u / (cosh z cosh zeta), never subtracting raw moments.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DegenerateDistributionError
from .gammakit import log_gamma  # noqa: F401  only reader: bench/tracer.py wraps it
from .gammakit import _log_gamma_ratio
from .params import ModelParams, _integer, _real

__all__ = [
    "MomentResult",
    "central_moment",
    "density_at",
    "exact_variance",
    "moment",
    "moment_quadrature",
]


def __getattr__(name):
    # scipy's quad, which nothing here calls: bench/tracer.py wraps it to
    # count integrand evaluations.  Importing scipy.integrate costs ~0.3 s,
    # so it loads on first access only.
    if name == "quad":
        from scipy.integrate import quad

        return quad
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass(frozen=True)
class MomentResult:
    """E(R^m) and how it was obtained: terms_used counts the nodes of the
    trapezoid grid (0 when |rho| = 1), and truncation_estimate is the
    difference from the grid shifted by half a step."""

    value: float
    terms_used: int
    truncation_estimate: float


@functools.lru_cache(maxsize=64)
def _log_constant(n: int) -> float:
    # log of (n-2) Gamma(n-1) / (sqrt(2 pi) Gamma(n-1/2)), a factor of f and g.
    # The offset -1/2 is passed exactly: above 2^52, n - 1/2 rounds to an integer.
    return math.log(n - 2) + _log_gamma_ratio(n - 1, n - 0.5, -0.5) - 0.5 * math.log(2.0 * math.pi)


def _density(params: ModelParams, r: float) -> float:
    """Hotelling's density at -1 < r < 1.

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
    d = (r - rho) / w
    if d * d < 0.5:
        log_q = math.log1p(-d * d)
    else:
        log_q = math.log((1.0 - rho) * (1.0 + rho) * (1.0 - r) * (1.0 + r)) - 2.0 * log_w
    log_f = 0.5 * (n - 1) * log_q - 1.5 * math.log((1.0 - r) * (1.0 + r)) + 0.5 * log_w
    log_f += _log_constant(n)
    return math.exp(log_f) * float(_hyp2f1(n - 0.5, 0.5 * w))


def _density_array(params: ModelParams, r: np.ndarray) -> np.ndarray:
    """_density at each element of r, -1 < r < 1, in one numpy pass: the
    same arithmetic in the same order, each branch chosen by np.where."""
    n, rho = params.n, params.rho
    a = abs(rho)
    rho_r, one_minus_r, one_plus_r = rho * r, 1.0 - r, 1.0 + r
    w = np.where(rho_r <= 0.5, 1.0 - rho_r, (1.0 - a) + a * (1.0 - np.abs(r)))
    log_w = np.log(w)
    d = (r - rho) / w
    d2 = d * d
    # np.minimum keeps log1p defined where np.where discards it.
    log_q = np.where(
        d2 < 0.5, np.log1p(-np.minimum(d2, 0.5)),
        np.log((1.0 - rho) * (1.0 + rho) * one_minus_r * one_plus_r) - 2.0 * log_w,
    )
    log_f = 0.5 * (n - 1) * log_q - 1.5 * np.log(one_minus_r * one_plus_r) + 0.5 * log_w
    log_f += _log_constant(n)
    return np.exp(log_f) * _hyp2f1(n - 0.5, 0.5 * w)


def density_at(params: ModelParams, r):
    """Density of R at r, for |rho| < 1 and -1 <= r <= 1.

    r is a float, or a 1-D sequence evaluated in one numpy pass and
    returned as a float64 array.  A single point costs ~5 us as a float
    and ~60 us as a one-element array (2-vCPU x86_64 host).  At r = +-1
    the boundary factor decides the value: infinite for n = 3
    (integrable endpoint singularity), finite for n = 4, zero beyond.
    """
    if params.is_degenerate:
        raise DegenerateDistributionError(
            f"R is a point mass at rho={params.rho}; no density exists"
        )
    if isinstance(r, (float, int)):
        r = _real("r", r)
        if not math.isfinite(r) or not -1.0 <= r <= 1.0:
            raise ValueError(f"r must lie in [-1, 1], got {r!r}")
        if r * r == 1.0:
            return _edge_density(params, r)
        return _density(params, r)
    r = np.asarray(r, dtype=np.float64)
    if r.ndim == 0:
        return density_at(params, float(r))
    if r.ndim != 1:
        raise ValueError(f"r must be a float or a 1-D sequence, got {r.ndim} dimensions")
    abs_r = np.abs(r)
    inside = abs_r <= 1.0  # False at nan
    if not inside.all():
        raise ValueError(f"r must lie in [-1, 1], got {r[~inside][0].item()!r}")
    edge = abs_r == 1.0
    f = _density_array(params, np.where(edge, 0.0, r))  # edges overwritten below
    if edge.any():
        f[edge] = [_edge_density(params, x) for x in r[edge].tolist()]
    return f


def _edge_density(params: ModelParams, r: float) -> float:
    # The density at r = +-1: for n = 4 Hotelling's form without its
    # boundary factor (1 - r^2)^0, where 1 - rho r is exact.
    if params.n == 3:
        return math.inf
    if params.n == 4:
        rho = params.rho
        w = 1.0 - rho * r
        log_f = 1.5 * math.log1p(-rho * rho) - 2.5 * math.log(w) + _log_constant(4)
        return math.exp(log_f) * float(_hyp2f1(3.5, 0.5 * w))
    return 0.0


class _Grid(NamedTuple):
    """Trapezoid rule in z for |rho| = a and n, at the nodes z_k = zeta + u_k
    (symmetric about u = 0): weights h g(z_k), r_k = tanh z_k, d_k = r_k - a,
    and the log of the 2F1 factor of g."""

    u: np.ndarray
    w: np.ndarray
    r: np.ndarray
    d: np.ndarray
    log_f: np.ndarray


def _hyp2f1(c: float, y):
    """2F1(1/2, 1/2; c; 1 - y) for half-integer c >= 5/2 (rounded to an
    integer above 2^52) and 0 <= y <= 1, y a float or an array.

    The one place that chooses how it is computed:
    - c >= 50: the defining series, whose first 17 terms leave less than
      1e-17 for every x <= 1;
    - c < 9 and y < 0.1: the 1 - x transformation (_hyp2f1_near_one),
      where scipy's power series in x takes up to ~50 us a point and
      loses ~1e-13;
    - scipy's hyp2f1 everywhere else, so scipy loads only for c < 50.
    """
    if c >= 50.0:
        return _hyp2f1_series(c, y)
    from scipy.special import hyp2f1

    if c >= 9.0:
        return hyp2f1(0.5, 0.5, c, 1.0 - y)
    special = y < 0.1
    if isinstance(y, float):
        return _hyp2f1_near_one(c, y) if special else hyp2f1(0.5, 0.5, c, 1.0 - y)
    f = np.empty_like(y)
    # A route with nothing selected is skipped: on an empty selection
    # each costs tens of microseconds.
    if special.any():
        f[special] = _hyp2f1_near_one(c, y[special])
    rest = ~special
    if rest.any():
        f[rest] = hyp2f1(0.5, 0.5, c, 1.0 - y[rest])
    return f


def _hyp2f1_series(c: float, y):
    # Horner form of sum_j ((1/2)_j)^2 / ((c)_j j!) x^j, j < 17, x = 1 - y.
    x = 1.0 - y
    f = 1.0
    for ratio in _series_ratios(c):
        f = 1.0 + ratio * x * f
    return f


@functools.lru_cache(maxsize=16)
def _series_ratios(c: float) -> tuple[float, ...]:
    # The ratios of successive series terms, (j + 1/2)^2 / ((c + j)(j + 1)),
    # in Horner order, j = 15 down to 0.
    return tuple((j + 0.5) ** 2 / ((c + j) * (j + 1)) for j in range(15, -1, -1))


@functools.lru_cache(maxsize=16)
def _near_one_constants(c: float) -> tuple[float, float]:
    return (math.gamma(c) * math.gamma(c - 1.0) / math.gamma(c - 0.5) ** 2,
            math.gamma(c) * math.gamma(1.0 - c) / math.pi)


def _hyp2f1_near_one(c: float, y):
    """_hyp2f1 by the 1 - x transformation, for half-integer c < 9 (c - 1
    is never an integer) and small y, y a float or an array; both series
    converge fast there."""
    from scipy.special import hyp2f1

    k0, k1 = _near_one_constants(c)
    return k0 * hyp2f1(0.5, 0.5, 2.0 - c, y) + k1 * y ** (c - 1.0) * hyp2f1(c - 0.5, c - 0.5, c, y)


@functools.lru_cache(maxsize=8)
def _grids(a: float, n: int) -> tuple[_Grid, _Grid]:
    """The base grid u_k = k h and the grid shifted by h/2, for |rho| = a < 1,
    evaluated in one pass over both sets of nodes."""
    zeta = math.atanh(a)
    cosh_zeta = math.cosh(zeta)
    # zeta +- 40 s in steps of s/6, or zeta +- 40 in steps of 0.15 for n <= 4.
    h, k_max = (0.15, 266) if n <= 4 else (1.0 / (6.0 * math.sqrt(n - 1.5)), 240)
    u = np.concatenate((np.arange(-k_max, k_max + 1.0), np.arange(-k_max, k_max) + 0.5)) * h
    cosh_z = np.cosh(zeta + u)
    # 1 - (1 + a r)/2 = (1 - a r)/2 = cosh u / (2 cosh z cosh zeta).
    log_f = np.log(_hyp2f1(n - 0.5, np.cosh(u) / (2.0 * cosh_z * cosh_zeta)))
    log_g = (
        _log_constant(n) + 0.5 * (np.log(cosh_z) - math.log(cosh_zeta)) + log_f
        - (n - 1.5) * np.log1p(2.0 * np.sinh(0.5 * u) ** 2)  # log cosh u, exact near 0
    )
    both = _Grid(u, h * np.exp(log_g), np.tanh(zeta + u),
                 np.sinh(u) / (cosh_z * cosh_zeta), log_f)
    # The cache hands the same arrays to every caller.
    for values in both:
        values.flags.writeable = False
    split = 2 * k_max + 1
    return (_Grid(*(values[:split] for values in both)),
            _Grid(*(values[split:] for values in both)))


@functools.lru_cache(maxsize=8)
def _pair_log_ratio(a: float, n: int, which: int) -> np.ndarray:
    """log 2F1 at zeta + u minus log 2F1 at zeta - u, for the nodes u > 0
    of grid `which` (a grid reversed is its mirror image).

    Where a tanh u < 1e-2 the two values agree to more digits than a
    difference of logs keeps; there F(x+) - F(x-) = (x+ - x-) sum_j c_j S_j
    with F's coefficients c_j and S_j = (x+^j - x-^j) / (x+ - x-), a sum of
    positive terms.  That happens only at small a (x near 1/2) or large n,
    where it converges within tens of terms.
    """
    grid = _grids(a, n)[which]
    pos = grid.u > 0.0
    u = grid.u[pos]
    out = grid.log_f[pos] - grid.log_f[::-1][pos]
    small = a * np.tanh(u) < 1e-2
    if small.any():
        zeta, us = math.atanh(a), u[small]
        x_lo = 0.5 * (1.0 + a * np.tanh(zeta - us))
        x_hi = 0.5 * (1.0 + a * np.tanh(zeta + us))
        gap = 0.5 * a * np.sinh(2.0 * us) / (np.cosh(zeta + us) * np.cosh(zeta - us))
        c = n - 0.5
        coeff, s, p = 0.25 / c, np.ones_like(us), x_lo.copy()
        total = coeff * s
        for j in range(1, 400):
            coeff *= (j + 0.5) ** 2 / ((c + j) * (j + 1))
            s = x_hi * s + p
            p *= x_lo
            term = coeff * s
            total += term
            if np.all(term <= 1e-17 * total):
                break
        out[small] = np.log1p(gap * total / np.exp(grid.log_f[::-1][pos][small]))
    return out


def _central_moment(order: int, a: float, n: int, which: int = 0) -> float:
    """E{(R - a)^order} on grid `which`; see central_moment."""
    if order % 2 == 1 and a == 0.0:
        return 0.0
    grid = _grids(a, n)[which]
    if order % 2 == 0:
        return float(grid.w @ grid.d**order)
    pos = grid.u > 0.0
    u = grid.u[pos]
    # log cosh(zeta + u) - log cosh(zeta - u) = 2 atanh(a tanh u), with
    # 1 - a tanh u = (1 - a) + 2a / (1 + e^(2u)) formed without cancellation.
    one_minus = (1.0 - a) + 2.0 * a / (1.0 + np.exp(2.0 * u))
    log_ratio = (0.5 - order) * np.log1p(2.0 * a * np.tanh(u) / one_minus)
    log_ratio += _pair_log_ratio(a, n, which)
    return float(grid.w[pos] @ (grid.d[pos] ** order * -np.expm1(-log_ratio)))


def _raw_moment(m: int, a: float, n: int, which: int) -> float:
    """E(R^m) at rho = a >= 0 on grid `which`.  Odd orders at small
    a sqrt(n) cancel in the plain sum (4e-11 at a = 1e-6); there E(a + D)^m
    is expanded over the central moments of D = R - a, whose terms barely
    cancel since a is far below sd(D)."""
    if m % 2 == 1 and a * a * n * (m + 1) <= 0.01:
        return sum(
            math.comb(m, j) * a ** (m - j) * _central_moment(j, a, n, which)
            for j in range(m + 1)
        )
    grid = _grids(a, n)[which]
    return float(grid.w @ grid.r**m)


def _integral(order: int, params: ModelParams, central: bool = False, which=(0,)):
    """E(R^order), or E{(R - rho)^order} if central, on each grid in `which`
    (0 base, 1 shifted), then the base grid's node count.  The one place that
    refuses a non-integer (TypeError) or negative order, folds out rho < 0,
    and gives R = rho, from 0 nodes, at |rho| = 1."""
    order = _integer("order", order)
    if order < 0:
        kind = "central moment" if central else "moment"
        raise ValueError(f"{kind} order must be non-negative, got {order}")
    if params.is_degenerate:
        return *[float(order == 0) if central else params.rho**order for _ in which], 0
    a, n = abs(params.rho), params.n
    sign = -1.0 if (params.rho < 0.0 and order % 2 == 1) else 1.0
    integrate = _central_moment if central else _raw_moment
    return *[sign * integrate(order, a, n, k) for k in which], _grids(a, n)[0].u.size


def moment(m: int, params: ModelParams) -> MomentResult:
    """E(R^m) on the base grid, with the shifted grid's difference as the
    error estimate.

    m is an integer >= 0 (TypeError for a float such as 2.0).  Negative
    rho is folded out via E(R^m; -rho) = (-1)^m E(R^m; rho), and
    |rho| = 1 short-circuits to the degenerate value rho^m.
    """
    value, shifted, nodes = _integral(m, params, which=(0, 1))
    return MomentResult(value=value, terms_used=nodes, truncation_estimate=abs(value - shifted))


def moment_quadrature(m: int, params: ModelParams) -> float:
    """E(R^m) on the shifted grid: the independent cross-check for moment,
    which uses the base grid, with moment's order rule and value at |rho| = 1."""
    return _integral(m, params, which=(1,))[0]


def central_moment(order: int, params: ModelParams) -> float:
    """E{(R - rho)^order}, integrating (r - rho)^order directly.

    Even orders sum positive terms.  Odd orders pair the nodes zeta +- u:
    the log ratio of their integrands is (1 - 2 order) atanh(|rho| tanh u)
    plus that of their 2F1 factors, so each pair is one term with no
    cancellation.  The value at -rho is (-1)^order times that at rho, and
    at |rho| = 1 it is 1 for order 0, else 0; order is as in moment.
    """
    return _integral(order, params, central=True)[0]


def exact_variance(params: ModelParams) -> float:
    """var(R), integrating (r - E R)^2 directly."""
    if params.is_degenerate:
        return 0.0
    a, n = abs(params.rho), params.n
    base = _grids(a, n)[0]
    return float(base.w @ (base.d - _central_moment(1, a, n)) ** 2)
