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
(Trefethen & Weideman 2014, SIAM Rev. 56).  _log_g is the one evaluator of g;
the moments take it once per (|rho|, n), in one pass, on a grid and on the grid
shifted by half a step, each moment a dot product against one of them, and the
two check each other.  Each grid's weights sum to 1: a moment is a ratio over the
grid's mass, in which K cancels.  An odd moment whose terms would cancel is a
paired sum: each node zeta + u and its mirror zeta - u make one term, so nothing
cancels.
Central moments integrate (r - rho)^k with r - rho = sinh u / (cosh z cosh zeta),
never subtracting raw moments.
"""

from __future__ import annotations

import bisect
import functools
import math
import sys
from collections import namedtuple
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DegenerateDistributionError
from .gammakit import log_gamma  # noqa: F401  only reader: bench/tracer.py wraps it
from .gammakit import _log_gamma_ratio
from .params import ModelParams, _integer, _real, _real_array

__all__ = [
    "MomentResult",
    "central_moment",
    "density_at",
    "exact_variance",
    "moment",
    "moment_quadrature",
]


def __getattr__(name):
    # scipy's quad, read only by bench/tracer.py (which wraps it to count
    # integrand evaluations); it needs the test extra and loads on first access.
    if name == "quad":
        from scipy.integrate import quad

        return quad
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass(frozen=True)
class MomentResult:
    """E(R^m) and how it was obtained: terms_used counts the nodes of the
    trapezoid grid (0 when |rho| = 1), and truncation_estimate is
    |base - shifted|, the difference from the grid shifted by half a step.

    truncation_estimate measures the rule's step, not the rounding, so it is
    not an error bound: against 40-digit Olkin-Pratt over 8 rho x 10 n it was
    below the true error of E(R) in 12 of 80 cells.  At m = 0 it is ~0 by
    construction, each grid's weights summing to 1.  A bound that adds the
    rounding floor, error_bound, is item 6 of ROADMAP.md."""

    value: float
    terms_used: int
    truncation_estimate: float


@functools.lru_cache(maxsize=64)
def _log_constant(n: int) -> float:
    # log of (n-2) Gamma(n-1) / (sqrt(2 pi) Gamma(n-1/2)), a factor of f and g.
    # The offset -1/2 is passed exactly: above 2^52, n - 1/2 rounds to an integer.
    return math.log(n - 2) + _log_gamma_ratio(n - 1, n - 0.5, -0.5) - 0.5 * math.log(2.0 * math.pi)


_MATH = (math.log, math.log1p, math.exp, lambda c, x, y: x if c else y)
_NUMPY = (np.log, np.log1p, np.exp, np.where)


def _density(params: ModelParams, r):
    """Hotelling's density at -1 < r < 1, r a float or an array of them.

    The exponent is assembled without cancellation: 1 - rho r and
    1 - r^2 are formed from exact differences, and the powers of order n
    are gathered into log_q = log((1 - rho^2)(1 - r^2) / (1 - rho r)^2)
    = log1p(-d^2), d = (r - rho) / (1 - rho r), which is small near the
    mode however large n is.

    A float takes math's log, log1p, exp and a conditional expression, an array
    numpy's and np.where, in one order, so each keeps its bits.  Both sides of a
    branch are evaluated: log1p's argument is 0 where d^2 >= 1/2, the other log's is > 0.
    """
    log, log1p, exp, where = _MATH if isinstance(r, float) else _NUMPY
    n, rho = params.n, params.rho
    a = abs(rho)
    rho_r, one_minus_r, one_plus_r = rho * r, 1.0 - r, 1.0 + r
    # 1 - rho r; for rho r > 1/2 as (1 - |rho|) + |rho| (1 - |r|), where
    # both differences are exact.
    w = where(rho_r <= 0.5, 1.0 - rho_r, (1.0 - a) + a * (1.0 - abs(r)))
    log_w = log(w)
    d = (r - rho) / w
    d2 = d * d
    small = d2 < 0.5
    log_q = where(small, log1p(-d2 * small),
                  log((1.0 - rho) * (1.0 + rho) * one_minus_r * one_plus_r) - 2.0 * log_w)
    log_f = 0.5 * (n - 1) * log_q - 1.5 * log(one_minus_r * one_plus_r) + 0.5 * log_w
    log_f += _log_constant(n)
    return exp(log_f) * _hyp2f1(n - 0.5, 0.5 * w)


def density_at(params: ModelParams, r):
    """Density of R at r, for |rho| < 1 and -1 <= r <= 1.

    r is a real number, or a 1-D sequence or array of them evaluated in
    one numpy pass and returned as a float64 array; a bool, str, bytes or
    None, alone or as an element, raises TypeError.  Both run one body, on
    math's functions for a float and numpy's for an array (their libms differ
    by up to ~1e-13 relative).  A point costs ~2-6 us as a float (~10-35 us at
    n <= 13 where the 2F1 leaves the series for a one-element array) and
    ~60-110 us as a one-element array (2-vCPU x86_64 host).  At r = +-1 the
    boundary factor decides the value: infinite for n = 3 (integrable
    endpoint singularity), finite for n = 4, zero beyond.
    """
    if params.is_degenerate:
        raise DegenerateDistributionError(
            f"R is a point mass at rho={params.rho}; no density exists"
        )
    if isinstance(r, (float, int)):
        r = _real("r", r)
        if not -1.0 <= r <= 1.0:  # False at nan and +-inf
            raise ValueError(f"r must lie in [-1, 1], got {r!r}")
        if r * r == 1.0:
            return _edge_density(params, r)
        return _density(params, r)
    a = np.asarray(r)
    if a.ndim == 0:
        return density_at(params, _real("r", a.tolist() if isinstance(r, np.ndarray) else r))
    if a.ndim != 1:
        raise ValueError(f"r must be a float or a 1-D sequence, got {a.ndim} dimensions")
    r = _real_array("r", r, a, "lie in [-1, 1]")
    abs_r = np.abs(r)
    inside = abs_r <= 1.0  # False at nan
    if not inside.all():
        raise ValueError(f"r must lie in [-1, 1], got {r[~inside][0].item()!r}")
    edge = abs_r == 1.0
    with np.errstate(over="ignore"):  # -inf near n = 2^1023, a density of 0.0 as for a float
        f = _density(params, np.where(edge, 0.0, r))  # edges overwritten below
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
        return math.exp(log_f) * _hyp2f1(3.5, 0.5 * w)
    return 0.0


class _Grid(NamedTuple):
    """Trapezoid rule in z for |rho| = a and n, at the nodes z_k = zeta + u_k
    (symmetric about u = 0): weights g(z_k) over their sum on the grid,
    r_k = tanh z_k, d_k = r_k - a, and the log of the 2F1 factor of g."""

    u: np.ndarray
    w: np.ndarray
    r: np.ndarray
    d: np.ndarray
    log_f: np.ndarray


_EPS = 2.0**-53  # Cephes' MACHEP: a series stops at the first term u with |u/s| <= _EPS
_Constants = namedtuple("_Constants", "num den pairs coeffs reach x_max")


@functools.lru_cache(maxsize=64)
def _constants(c: float) -> _Constants:
    """The one table of 2F1 coefficients, at a half-integer c >= 5/2 (an integer
    above 2^52): the series in x = 1 - y, u_(j+1) = u_j (num_j x / den_j), a_j = u_j / x^j,
    reach[j-1] the largest x with a_i x^i <= 2^-54 for an i <= j, and x_max below which
    Cephes stops within 64 terms (s >= 1: where a_64 x^64 <= 2^-53, every x <= 1 from
    c = 27/2).  Past x_max, only below c = 27/2, _hyp2f1 takes _recurrence."""
    j = np.arange(128.0)
    with np.errstate(all="ignore"):  # near c = 2^1023 (c + j)(j + 1) is inf, a coefficient 0
        num, den = (0.5 + j) ** 2, (c + j) * (j + 1.0)
        coeffs = np.cumprod(np.append(1.0, num / den))
        reach = np.maximum.accumulate((_EPS / 2.0 / coeffs[1:]) ** (1.0 / (j + 1.0)))
        x_max = min(1.0, (_EPS / coeffs[64]) ** (1.0 / 64.0))
    pairs = tuple(zip(num.tolist(), den.tolist()))
    return _Constants(num, den, pairs, coeffs, reach.tolist(), x_max)


def _recurrence(c: float, y: np.ndarray) -> np.ndarray:
    """2F1(1/2, 1/2; c; 1 - y) at 0 < y < 1, to ~1e-15, by the forward recurrence in c
    from F(1/2) = y^(-1/2) and F(3/2) = atan2(sqrt x, sqrt y) / sqrt x, x = 1 - y."""
    x = 1.0 - y
    root_x, root_y = np.sqrt(x), np.sqrt(y)
    before, f_b = 1.0 / root_y, np.arctan2(root_x, root_y) / root_x
    for b in np.arange(1.5, c - 0.5):
        # DLMF 15.5.18: F(b+1) = b(b-1) [y F(b-1) - (y-x) F(b)] / ((b-1/2)^2 x)
        before, f_b = f_b, (y * before - (y - x) * f_b) / x * (b * (b - 1.0) / (b - 0.5) ** 2)
    return f_b


def _hyp2f1(c: float, y):
    """2F1(1/2, 1/2; c; 1 - y), half-integer c >= 5/2 (an integer above 2^52),
    0 < y <= 1 a float or an array, the two bitwise equal: the density path.
    Where x = 1 - y <= x_max(c), which is every x from c = 27/2, the series in x
    summed as Cephes sums it (scipy's hyp2f1 bit for bit, wherever scipy is finite,
    but within 1e-13 of x = 1); else _recurrence, on a one-element array for a float."""
    k = _constants(c)
    x = 1.0 - y
    if isinstance(y, float):
        if x > k.x_max:
            return _recurrence(c, np.array([y])).item()
        u = s = 1.0
        for num, den in k.pairs:
            u = u * (num * x / den)
            s += u
            if u / s <= _EPS:
                break
        return s
    # Cephes' hys2f1 loop, as above, at every x <= x_max: row j holds the j-th terms,
    # then the j-th partial sums, accumulated down the rows (two columns at a time as
    # complex numbers, whose parts add as separate floats), so each column rounds as it.
    near = x > k.x_max
    xs = x[~near]
    rows = 1 + bisect.bisect_left(k.reach, xs.max() if xs.size else 0.0)
    u = np.ones((rows + 1, xs.size + xs.size % 2))  # the spare column is never read
    terms = np.multiply(k.num[:rows, None], xs, out=u[1:, :xs.size])
    terms /= k.den[:rows, None]
    np.multiply.accumulate(u, axis=0, out=u)
    s = np.add.accumulate(u.view(np.complex128), axis=0).view(np.float64)
    last = (np.divide(u, s, out=u) <= _EPS).argmax(axis=0)[:xs.size]
    f = np.empty_like(y)
    f[~near] = s[last, np.arange(xs.size)]
    if near.any():
        f[near] = _recurrence(c, y[near])
    return f


def _powers(x: np.ndarray, count: int) -> np.ndarray:
    """The rows x^0 .. x^(count-1), each block of rows the rows above times x^k."""
    powers = np.empty((count, x.size))
    powers[0], j, x_j = 1.0, 1, x
    while j < count:
        np.multiply(powers[:min(j, count - j)], x_j, out=powers[j:2 * j])
        j, x_j = 2 * j, x_j * x_j
    return powers


def _hyp2f1_grid(c: float, y: np.ndarray) -> np.ndarray:
    """_hyp2f1 for the moment grids, to ~1e-15: the series in x as one matrix
    product where x <= 1/2 (everywhere once x_max(c) = 1, from c = 27/2), else _recurrence."""
    k = _constants(c)
    x = 1.0 - y
    low = x <= (0.5 if k.x_max < 1.0 else 1.0)
    xs = x[low]
    count = 1 + bisect.bisect_left(k.reach, xs.max() if xs.size else 0.0)
    f = np.empty_like(y)
    f[low] = k.coeffs[:count] @ _powers(xs, count)
    if not low.all():
        f[~low] = _recurrence(c, y[~low])
    return f


def _log_g(a: float, n: int, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """log g(zeta + u) and the log of its 2F1 factor, for |rho| = a < 1, zeta = atanh a
    and any offsets u at which cosh(zeta + u) and cosh u are finite: the one evaluator of g."""
    zeta = math.atanh(a)
    cosh_zeta = math.cosh(zeta)
    cosh_z = np.cosh(zeta + u)
    # 1 - (1 + a r)/2 = (1 - a r)/2 = cosh u / (2 cosh z cosh zeta).
    log_f = np.log(_hyp2f1_grid(n - 0.5, np.cosh(u) / (2.0 * cosh_z * cosh_zeta)))
    log_g = (
        _log_constant(n) + 0.5 * (np.log(cosh_z) - math.log(cosh_zeta)) + log_f
        - (n - 1.5) * np.log1p(2.0 * np.sinh(0.5 * u) ** 2)  # log cosh u, exact near 0
    )
    return log_g, log_f


@functools.lru_cache(maxsize=8)
def _grids(a: float, n: int) -> tuple[_Grid, _Grid]:
    """The base grid u_k = k h and the grid shifted by h/2, for |rho| = a < 1,
    evaluated in one pass over both sets of nodes.  Each grid's weights sum to
    1, so every moment is a ratio over that grid's mass, in which h and the
    constant K of g cancel (the density keeps K)."""
    zeta = math.atanh(a)
    # zeta +- 40 s in steps of s/6, or zeta +- 40 in steps of 0.15 for n <= 4.
    h, k_max = (0.15, 266) if n <= 4 else (1.0 / (6.0 * math.sqrt(n - 1.5)), 240)
    u = np.concatenate((np.arange(-k_max, k_max + 1.0), np.arange(-k_max, k_max) + 0.5)) * h
    log_g, log_f = _log_g(a, n, u)
    w, split = np.exp(log_g), 2 * k_max + 1
    w[:split] /= w[:split].sum()
    w[split:] /= w[split:].sum()
    both = _Grid(u, w, np.tanh(zeta + u), np.sinh(u) / (np.cosh(zeta + u) * math.cosh(zeta)), log_f)
    # The cache hands the same arrays to every caller.
    for values in both:
        values.flags.writeable = False
    return (_Grid(*(values[:split] for values in both)),
            _Grid(*(values[split:] for values in both)))


@functools.lru_cache(maxsize=8)
def _pair_log_ratio(a: float, n: int, which: int) -> np.ndarray:
    """log 2F1 at zeta + u minus log 2F1 at zeta - u, for the nodes u > 0
    of grid `which` (a grid reversed is its mirror image).

    Where a tanh u < 1e-2 the two values agree to more digits than a
    difference of logs keeps; there F(x+) - F(x-) is summed term by term,
    c_j (x+^j - x-^j) = c_j x-^j expm1(j log1p((x+ - x-) / x-)) with F's
    coefficients c_j from _constants: one matrix product of positive terms.
    That happens only at small a (x near 1/2) or large n, so the rows stop
    within tens of terms, where c_j j x+^(j-1), which bounds the j-th term
    over x+ - x-, falls below 2^-54 c_1.
    """
    grid = _grids(a, n)[which]
    pos = grid.u > 0.0
    u = grid.u[pos]
    out = grid.log_f[pos] - grid.log_f[::-1][pos]
    small = a * np.tanh(u) < 1e-2
    if small.any():
        zeta, us = math.atanh(a), u[small]
        x_lo = 0.5 * (1.0 + a * np.tanh(zeta - us))
        gap = 0.5 * a * np.sinh(2.0 * us) / (np.cosh(zeta + us) * np.cosh(zeta - us))
        coeffs, j = _constants(n - 0.5).coeffs, np.arange(129.0)
        matters = coeffs[1:] * j[1:] * (x_lo + gap).max() ** j[:-1] > _EPS / 2.0 * coeffs[1]
        count = 2 + int(np.flatnonzero(matters)[-1])
        terms = _powers(x_lo, count) * np.expm1(j[:count, None] * np.log1p(gap / x_lo))
        # Smallest terms first: summed from the largest, the partial sums round low.
        difference = coeffs[count - 1::-1] @ terms[::-1]
        out[small] = np.log1p(difference / np.exp(grid.log_f[::-1][pos][small]))
    return out


def _moment(order: int, params: ModelParams, central: bool = False, which: int = 0) -> float:
    """E(R^order), or E{(R - rho)^order} if central, on grid `which` (0 base, 1
    shifted): the one place that refuses a non-integer order (TypeError) or one
    outside [0, 2**53] (ValueError), gives R = rho at |rho| = 1, and folds out rho < 0.

    f = d (central) or r is negative exactly at the nodes u < -t, t = 0 or zeta.
    An odd order that would cancel sums the nodes |u| <= t as they are and pairs
    each u > t with -u: the pair is its larger term times 1 - e^-|L|, where
    L = log(w+ f+^order / (w- |f-|^order)) is formed without cancellation.  Raw
    orders cancel only at small a sqrt(n) (4e-11 at a = 1e-6); elsewhere they are
    one dot product, as even orders are.  |f| < 2, and f rises with u, so |f|^order
    can leave the float range only beyond order 1023 and first at an end node;
    there each term w |f|^order is formed in logs less the largest, top, and e^top
    goes back on the value, so only a value beyond the float range is +-inf."""
    order = _integer("order", order)
    if not 0 <= order <= 2**53:
        # numpy raises the grid to the order as a float, which keeps its parity to 2^53.
        kind = "central moment" if central else "moment"
        bound = "non-negative" if order < 0 else "at most 2**53"
        raise ValueError(f"{kind} order must be {bound}, got {order}")
    if params.is_degenerate:
        return float(order == 0) if central else params.rho**order
    a, n = abs(params.rho), params.n
    if order % 2 == 1 and a == 0.0:
        return 0.0
    grid = _grids(a, n)[which]
    w, f, top = grid.w, grid.d if central else grid.r, 0.0
    if order > 1023 and order * math.log(max(-f[0], f[-1])) > math.log(sys.float_info.max):
        with np.errstate(divide="ignore"):
            log_terms = np.log(w) + order * np.log(np.abs(f))
        top = float(log_terms.max())
        w, f = np.exp(log_terms - top), np.sign(f)
    if order % 2 == 0 or (not central and a * a * n * (order + 1) > 0.01):
        value = float(w @ f**order)
    else:
        zeta = math.atanh(a)
        # The nodes u > t start at index `start`.
        start = int(np.searchsorted(grid.u, 0.0 if central else zeta, side="right"))
        u = grid.u[start:]
        # log cosh(zeta + u) - log cosh(zeta - u) = 2 atanh(a tanh u), with
        # 1 - a tanh u = (1 - a) + 2a / (1 + e^(2u)) formed without cancellation.
        one_minus = (1.0 - a) + 2.0 * a / (1.0 + np.exp(2.0 * u))
        log_ratio = (0.5 - order if central else 0.5) * np.log1p(2.0 * a * np.tanh(u) / one_minus)
        log_ratio += _pair_log_ratio(a, n, which)[-u.size:]
        if not central:
            # tanh(u + zeta) / tanh(u - zeta) = 1 + sinh 2zeta / (cosh(u + zeta) sinh(u - zeta))
            excess = math.sinh(2.0 * zeta) / (np.cosh(u + zeta) * np.sinh(u - zeta))
            log_ratio += order * np.log1p(excess)
        terms = w * f**order
        larger = np.where(log_ratio >= 0.0, terms[start:], terms[::-1][start:])
        pairs = larger @ -np.expm1(-np.abs(log_ratio))
        value = float(terms[terms.size - start:start].sum() + pairs)
    if top:
        with np.errstate(over="ignore"):
            half = np.exp(0.5 * top)  # e^top in halves: they overflow only if the value does
            value = float(value * half * half)
    return -value if params.rho < 0.0 and order % 2 == 1 else value


def moment(m: int, params: ModelParams) -> MomentResult:
    """E(R^m) on the base grid, with the shifted grid's difference as the
    error estimate.

    m is an integer in [0, 2**53] (TypeError for a float such as 2.0,
    ValueError beyond 2**53, where numpy's float power would lose the
    parity of m).  Negative rho is folded out via E(R^m; -rho) =
    (-1)^m E(R^m; rho), and |rho| = 1 short-circuits to the degenerate
    value rho^m.
    """
    value, shifted = _moment(m, params), _moment(m, params, which=1)
    nodes = 0 if params.is_degenerate else _grids(abs(params.rho), params.n)[0].u.size
    return MomentResult(value=value, terms_used=nodes, truncation_estimate=abs(value - shifted))


def moment_quadrature(m: int, params: ModelParams) -> float:
    """E(R^m) on the shifted grid: the independent cross-check for moment,
    which uses the base grid, with moment's order rule (an integer m in
    [0, 2**53]) and value at |rho| = 1."""
    return _moment(m, params, which=1)


def central_moment(order: int, params: ModelParams) -> float:
    """E{(R - rho)^order}, integrating (r - rho)^order directly.

    Even orders sum positive terms.  Odd orders pair the nodes zeta +- u:
    the log ratio L of their integrands is (1 - 2 order) atanh(|rho| tanh u)
    plus that of their 2F1 factors, and each pair is its larger term times
    1 - e^-|L|, which neither cancels nor overflows.  Where |r - rho|^order
    leaves the float range at the grid's ends, the terms are scaled in logs
    and the scale is put back, so the result is +-inf only where the value
    itself is.  The value at -rho is (-1)^order times that at rho, and at
    |rho| = 1 it is 1 for order 0, else 0; order is an integer in
    [0, 2**53], as in moment.
    """
    return _moment(order, params, central=True)


def exact_variance(params: ModelParams) -> float:
    """var(R) = E{(R - rho)^2} - {E(R - rho)}^2, two central moments on the base
    grid (0 at |rho| = 1).  Against 40-digit Olkin-Pratt E(R^2) - E(R)^2 over
    8 rho x 10 n from 1e-8 to 0.9999 and 3 to 1e9, the worst relative error is
    2.4e-15: neither term is a raw moment, so nothing of size rho^2 cancels."""
    return central_moment(2, params) - central_moment(1, params) ** 2
