import functools
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from corrconc import exactdist
from corrconc import (
    DegenerateDistributionError,
    ModelParams,
    central_moment,
    density_at,
    exact_variance,
    moment,
    moment_quadrature,
    symmetric_gamma_ratio,
)
from conftest import N_GRID, RHO_GRID


class TestDensity:
    def test_flat_density_small_sample(self):
        # rho = 0, n = 4: the density is uniform on [-1, 1]
        params = ModelParams(rho=0.0, n=4)
        assert density_at(params, 0.3) == pytest.approx(0.5, abs=1e-12)
        assert density_at(params, -0.9) == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("r", [0.1, 0.5, 0.9])
    def test_symmetric_when_uncorrelated(self, r):
        params = ModelParams(rho=0.0, n=10)
        assert density_at(params, r) == pytest.approx(density_at(params, -r), rel=1e-13)

    def test_normalizes_to_one(self):
        params = ModelParams(rho=0.56, n=10)
        total, _ = quad(lambda r: density_at(params, r), -1, 1,
                        epsabs=1e-11, epsrel=1e-11, limit=200, points=[0.56])
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_nonnegative_on_opposite_tail(self):
        # r rho < 0 puts the 2F1 argument below 1/2 and the density far
        # in its tail; the result must still be a density value.
        params = ModelParams(rho=0.75, n=12)
        for r in np.linspace(-0.99, -0.01, 25):
            assert density_at(params, float(r)) >= 0.0

    def test_boundary_values(self):
        assert density_at(ModelParams(rho=0.2, n=3), 1.0) == math.inf
        assert density_at(ModelParams(rho=0.2, n=5), 1.0) == 0.0
        finite = density_at(ModelParams(rho=0.2, n=4), 1.0)
        assert math.isfinite(finite) and finite > 0.0

    def test_degenerate_errors(self):
        with pytest.raises(DegenerateDistributionError):
            density_at(ModelParams(rho=1.0, n=10), 0.5)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            density_at(ModelParams(rho=0.2, n=10), 1.5)
        with pytest.raises(ValueError):
            density_at(ModelParams(rho=0.2, n=10), math.nan)


class TestDensityArray:
    # A sequence is evaluated in one numpy pass; a float keeps the
    # scalar path.  The two agree to rounding.
    @pytest.mark.parametrize("n", [3, 4, 5, 10, 30, 100, 1000, 100_000, 2**62])
    @pytest.mark.parametrize("rho", [0.0, 0.3, -0.3, 0.56, -0.75, 0.95, 0.999, -0.9999])
    def test_matches_per_point(self, rho, n):
        params = ModelParams(rho=rho, n=n)
        sd = (1.0 - rho * rho) / math.sqrt(n)
        points = np.concatenate([
            np.linspace(-1.0, 1.0, 403)[1:-1],
            np.clip(rho + sd * np.linspace(-8.0, 8.0, 33), -1.0 + 2.0**-53, 1.0 - 2.0**-53),
            [1.0 - 2.0**-53, -1.0 + 2.0**-53, 5e-324, -5e-324],
        ])
        values = density_at(params, points)
        assert isinstance(values, np.ndarray) and values.dtype == np.float64
        assert values.shape == points.shape
        peak = density_at(params, rho)
        for r, value in zip(points.tolist(), values.tolist()):
            want = density_at(params, r)
            assert abs(value - want) <= 1e-13 * max(want, peak), (rho, n, r)

    @pytest.mark.parametrize("n", [3, 4, 5, 10])
    def test_boundary_elements_equal_scalar(self, n):
        params = ModelParams(rho=-0.4, n=n)
        points = [-1.0, -0.5, 0.0, 1.0, 0.7, 1.0]
        values = density_at(params, points)
        for r, value in zip(points, values.tolist()):
            if r * r == 1.0:
                assert value == density_at(params, r)
        if n == 3:
            assert values[0] == values[3] == math.inf
        if n > 4:
            assert values[0] == values[3] == 0.0

    def test_float_in_float_out(self):
        params = ModelParams(rho=0.56, n=10)
        assert type(density_at(params, 0.3)) is float
        values = density_at(params, (0.3,))
        assert values.shape == (1,)
        assert values[0] == pytest.approx(density_at(params, 0.3), rel=1e-14)
        assert density_at(params, []).shape == (0,)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 1.5, -1.0 - 2.0**-52])
    def test_domain_errors(self, bad):
        params = ModelParams(rho=0.2, n=10)
        with pytest.raises(ValueError):
            density_at(params, [0.1, bad, 0.5])
        with pytest.raises(ValueError):
            density_at(params, np.array([bad]))

    def test_degenerate_errors(self):
        with pytest.raises(DegenerateDistributionError):
            density_at(ModelParams(rho=1.0, n=10), [0.1, 0.5])

    def test_rejects_two_dimensions(self):
        with pytest.raises(ValueError):
            density_at(ModelParams(rho=0.2, n=10), [[0.1, 0.5]])


def _mp_hyp2f1(a, b, c, x):
    # For large c mpmath's transformations near x = 1 take O(c) terms;
    # the defining series converges within a few dozen.
    if c < 50:
        return mp.hyp2f1(a, b, c, x)
    total, term, k = mp.mpf(0), mp.mpf(1), 0
    while abs(term) > mp.eps * abs(total) or k < 2:
        total += term
        term *= (a + k) * (b + k) / ((c + k) * (k + 1)) * x
        k += 1
    return total


def _hotelling_mp(rho, n, r):
    """Hotelling's density at 30 digits."""
    with mp.workdps(30):
        x, m, s = mp.mpf(rho), mp.mpf(n), mp.mpf(r)
        log_c = (
            mp.log(m - 2) + mp.loggamma(m - 1) + (m - 1) / 2 * mp.log1p(-x * x)
            + (m - 4) / 2 * mp.log1p(-s * s) - mp.log(2 * mp.pi) / 2
            - mp.loggamma(m - 0.5) - (m - 1.5) * mp.log1p(-x * s)
        )
        return float(mp.exp(log_c) * _mp_hyp2f1(0.5, 0.5, m - 0.5, (1 + x * s) / 2))


class TestDensityAgainstMpmath:
    # Errors count relative to max(f(r), f(rho)): far in a tail the
    # density is exp(-O(n)) and its own relative error grows with n.
    def _check(self, rho, n, ks, tol):
        params = ModelParams(rho=rho, n=n)
        sd = (1.0 - rho * rho) / math.sqrt(n)
        points = [rho + k * sd for k in ks] + [-0.9, 0.5, 1.0 - 1e-6]
        peak = _hotelling_mp(rho, n, rho)
        for r in [r for r in points if -1.0 < r < 1.0]:
            want = _hotelling_mp(rho, n, r)
            assert abs(density_at(params, r) - want) <= tol * max(want, peak), (rho, n, r)

    @pytest.mark.parametrize("n", [3, 4, 10, 300, 1000, 100_000])
    @pytest.mark.parametrize("rho", [0.0, 0.3, -0.3, 0.9, -0.9, 0.999, -0.999, 0.9999, -0.9999])
    def test_grid(self, rho, n):
        self._check(rho, n, (-6, -2, -0.5, 0, 1, 3), 1e-12)

    @pytest.mark.parametrize("rho", [0.99999, -0.99999])
    def test_extreme_correlation_and_sample_size(self, rho):
        self._check(rho, 1_000_000, (-3, 0, 2), 1e-11)

    def test_correlation_one_ulp_below_one(self):
        # scipy's 2F1 returned nan here (c > 100 and 1 - x below 1e-13).
        self._check(1.0 - 2.0**-53, 100_000, (-3, 0, 2), 1e-12)

    @pytest.mark.parametrize("y", [1e-3, 1e-5, 1e-7])
    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8, 9])
    def test_small_samples_near_x_one(self, n, y):
        # 2F1 at 1 - y, y = (1 - rho r)/2: scipy's direct call is up to
        # 1.2e-13 off here (3e-14 at n = 6); the 1 - x transformation,
        # which _hyp2f1 takes wherever Cephes' series would need more than
        # 64 terms, is within 1e-15.
        rho = r = math.sqrt(1.0 - 2.0 * y)
        value = density_at(ModelParams(rho=rho, n=n), r)
        assert value == pytest.approx(_hotelling_mp(rho, n, r), rel=1e-14, abs=0.0)

    def test_baseline_overflow_point(self):
        # The power series overflowed here.
        value = density_at(ModelParams(rho=0.999, n=1000), 0.999)
        assert value == pytest.approx(6303.88146, rel=1e-9)
        assert value == pytest.approx(_hotelling_mp(0.999, 1000, 0.999), rel=1e-12)


class TestHyp2f1:
    # 2F1(1/2, 1/2; c; 1 - y) on both sides of _hyp2f1's switch in y.
    # At small c scipy's direct call is up to 1.2e-13 off near x = 1 (at
    # c = 4.5, y = 1e-8), where _hyp2f1 takes the 1 - x transformation;
    # from c = 27/2 Cephes' series in x is summed at every y, also where
    # scipy returns nan or inf (near x = 1 once c > 100, and at nearly
    # every x for integer c above 2^52).
    @pytest.mark.parametrize("c", [2.5, 4.5, 8.5, 50.5, 51.5, 99.5, 103.5, 999.5, 99_999.5,
                                   2.0**52, 2.0**62])
    def test_against_mpmath(self, c):
        ys = np.array([0.0, 1e-16, 1e-14, 1e-13, 1e-12, 1e-8, 1e-6, 0.05, 0.0999, 0.1, 0.5, 1.0])
        if c >= 50:
            ys = np.concatenate((ys, np.logspace(-300, 0, 61), np.linspace(0.0, 1.0, 41)))
        values = exactdist._hyp2f1(c, ys)
        for y, value in zip(ys, values):
            with mp.workdps(30):
                want = float(_mp_hyp2f1(0.5, 0.5, c, 1 - mp.mpf(float(y))))
            assert value == pytest.approx(want, rel=2e-15 if c < 9 else 1e-15, abs=0.0), (c, y)
            assert exactdist._hyp2f1(c, float(y)) == value

    # Per range (the 1 - x transformation near y = 0 below c = 27/2,
    # Cephes' series in x everywhere else), with no element, some
    # elements and every element in the special range.
    @pytest.mark.parametrize("ys", [[], [0.2, 0.5, 1.0], [1e-13, 0.05, 0.5, 1e-14], [1e-14, 1e-13]])
    @pytest.mark.parametrize("c", [2.5, 8.5, 9.5, 49.5, 50.5, 99_999.5, 2.0**62])
    def test_array_equals_scalar(self, c, ys):
        values = exactdist._hyp2f1(c, np.array(ys, dtype=float))
        assert values.shape == (len(ys),)
        for y, value in zip(ys, values.tolist()):
            assert value == exactdist._hyp2f1(c, y), (c, y)

    @pytest.mark.parametrize("c", [k + 0.5 for k in range(2, 13)])
    def test_float_equals_array_near_x_one(self, c):
        # numpy's power differs from Python's pow by an ulp for ~5% of
        # arguments on some hosts (numpy's SIMD routines), so a y ** (c - 1)
        # in the 1 - x transformation can move a float's value off the
        # array's: it did at the two pinned points (c = 5/2).
        ys = np.linspace(0.0, 1.0 - exactdist._constants(c).x_max, 400)
        ys = np.concatenate((ys, [0.06440922691524557, 0.05690174281324409]))
        values = exactdist._hyp2f1(c, ys)
        for y, value in zip(ys.tolist(), values.tolist()):
            assert exactdist._hyp2f1(c, y) == value, (c, y)

    @pytest.mark.parametrize("n", [3, 4, 9, 10, 30, 50, 51, 1000, 100_000, 2**52 + 1])
    def test_series_band_never_calls_scipy(self, monkeypatch, n):
        # At every n the density and every moment take the library's own
        # 2F1; scipy's hyp2f1 is patched to fail if called.
        import scipy.special

        def fail(*args):
            raise AssertionError("scipy.special.hyp2f1 called")

        monkeypatch.setattr(scipy.special, "hyp2f1", fail)
        exactdist._grids.cache_clear()
        params = ModelParams(rho=0.37, n=n)
        assert math.isfinite(density_at(params, 0.4))
        rs = np.linspace(-1.0, 1.0, 101)
        # At n = 3 the density is infinite at r = +-1 by design.
        assert np.all(np.isfinite(density_at(params, rs if n > 3 else rs[1:-1])))
        for m in (1, 2):
            assert math.isfinite(moment(m, params).value)


class TestHyp2f1AgainstScipyAndMpmath:
    # scipy is a test-only reference here, as quad is in the acceptance
    # suite: wherever Cephes stops its series in x within 64 terms,
    # _hyp2f1 sums it the same way, so it equals scipy's hyp2f1 bit for
    # bit.  Within 1e-13 of x = 1 Cephes returns its value at x = 1
    # instead, so the grid stops at y = 1e-12.
    YS = np.concatenate((np.linspace(0.0, 1.0, 201)[1:], np.logspace(-12.0, 0.0, 61)))

    @pytest.mark.parametrize("c", [k + 0.5 for k in range(2, 50)]
                             + [50.5, 60.5, 75.5, 99.5, 100.5, 150.5, 999.5])
    def test_bit_equal_to_scipy_on_the_series_range(self, c):
        from scipy.special import hyp2f1

        ys = self.YS[1.0 - self.YS <= exactdist._constants(c).x_max]
        assert ys.size >= 100
        want = hyp2f1(0.5, 0.5, c, 1.0 - ys)
        assert np.array_equal(exactdist._hyp2f1(c, ys), want)
        for y, value in zip(ys.tolist(), want.tolist()):
            assert exactdist._hyp2f1(c, y) == value, (c, y)

    def test_grid_evaluator_against_mpmath(self):
        # 52 c x 102 y > 0; the moment grids' nodes never reach y = 0.
        # These values enter only moments, which are checked at 1e-12.
        ys = np.concatenate((np.logspace(-300.0, 0.0, 61), np.linspace(0.0, 1.0, 42)[1:]))
        for c in [k + 0.5 for k in range(2, 50)] + [50.5, 99.5, 999.5, 2999.5]:
            values = exactdist._hyp2f1_grid(c, ys)
            with mp.workdps(40):
                for y, value in zip(ys.tolist(), values.tolist()):
                    want = _mp_hyp2f1(0.5, 0.5, c, 1 - mp.mpf(y))
                    assert abs(value - want) <= 3e-15 * want, (c, y)

    @pytest.mark.parametrize("a, n", [(0.01, 10), (1e-4, 3), (0.3, 30), (0.02, 51),
                                      (0.05, 100), (0.001, 1000)])
    def test_pair_log_ratio_against_mpmath(self, a, n):
        # log F(x+) - log F(x-) at the nodes u > 0 with a tanh u < 1e-2, where
        # x+- = (1 + a tanh(zeta +- u))/2, against the difference at 40 digits.
        exactdist._grids.cache_clear()
        exactdist._pair_log_ratio.cache_clear()
        for which in (0, 1):
            values = exactdist._pair_log_ratio(a, n, which)
            u = exactdist._grids(a, n)[which].u
            u = u[u > 0.0]
            nodes = np.flatnonzero(a * np.tanh(u) < 1e-2)
            assert nodes.size
            with mp.workdps(40):
                zeta = mp.atanh(a)
                for k in nodes[::max(1, nodes.size // 30)].tolist():
                    x_hi = (1 + a * mp.tanh(zeta + u[k])) / 2
                    x_lo = (1 + a * mp.tanh(zeta - u[k])) / 2
                    want = (mp.log(_mp_hyp2f1(0.5, 0.5, n - 0.5, x_hi))
                            - mp.log(_mp_hyp2f1(0.5, 0.5, n - 0.5, x_lo)))
                    assert abs(values[k] - want) <= 1e-15 * want, (which, u[k])

    @pytest.mark.parametrize("c", [2.0**62, 2**1023 - 0.5])
    @pytest.mark.filterwarnings("error")
    def test_constants_at_huge_c(self, c):
        # Every x <= 1 is on the series range, so no transformation is built:
        # no zero rows of length c - 3/2 and no Gamma(c), which overflows.
        k = exactdist._constants(c)
        assert k.x_max == 1.0
        assert k.k0 is k.sign is k.ab_coeffs is k.ab_pairs is None
        assert k.coeffs[0] == 1.0 and np.all(k.coeffs[1:] >= 0.0)
        assert exactdist._hyp2f1(c, 0.5) == exactdist._hyp2f1(c, np.array([0.5]))[0] == 1.0


class TestLogG:
    # The kernel at offsets u off the moment grids, against the z-space form
    # log(K sqrt(cosh z / cosh zeta) sech(u)^(n-3/2) 2F1(1/2, 1/2; n-1/2; 1-y)),
    # y = cosh u / (2 cosh z cosh zeta), at 40 digits.  (Hotelling's form in r
    # loses the digits of 1 - r^2 at |u| = 40, even at 40 digits.)
    @pytest.mark.parametrize("n", [3, 4, 10, 51, 100_000])
    @pytest.mark.parametrize("a", [0.0, 1e-6, 0.56, 0.999, 0.99999])
    def test_against_mpmath(self, a, n):
        s = 1.0 if n <= 4 else 1.0 / math.sqrt(n - 1.5)
        u = np.array([0.0, 0.37, 5.0, -5.0, 40.0, -40.0, 80.0, -80.0]) * s
        log_g, log_f = exactdist._log_g(a, n, u)
        with mp.workdps(40):
            m, zeta = mp.mpf(n), mp.atanh(mp.mpf(a))
            log_k = mp.log(m - 2) + mp.loggamma(m - 1) - mp.log(2 * mp.pi) / 2 - mp.loggamma(m - 0.5)
            for x, got, got_f in zip(u.tolist(), log_g.tolist(), log_f.tolist()):
                x = mp.mpf(x)
                z = zeta + x
                y = mp.cosh(x) / (2 * mp.cosh(z) * mp.cosh(zeta))
                want_f = mp.log(_mp_hyp2f1(0.5, 0.5, m - 0.5, 1 - y))
                want = float(log_k + (mp.log(mp.cosh(z)) - mp.log(mp.cosh(zeta))) / 2
                             - (m - 1.5) * mp.log(mp.cosh(x)) + want_f)
                assert abs(got - want) <= 1e-14 * max(1.0, abs(want)), (x, got, want)
                assert abs(got_f - float(want_f)) <= 1e-14 * max(1.0, abs(got_f)), x


class TestDomain:
    # Every point of the domain rho in [-1, 1], n >= 3, r in [-1, 1]; the
    # examples are where scipy's 2F1 returned nan and where n - 1/2 is
    # not a double.
    @given(
        rho=st.floats(min_value=-1.0, max_value=1.0),
        n=st.integers(min_value=3, max_value=2**62),
        r=st.floats(min_value=-1.0, max_value=1.0),
    )
    @example(rho=1.0 - 2.0**-53, n=100_000, r=0.5)
    @example(rho=-(1.0 - 2.0**-53), n=104, r=-(1.0 - 2.0**-53))
    @example(rho=0.99999, n=2**62, r=0.99999)
    @example(rho=0.5, n=2**52 + 1, r=0.5)
    @settings(max_examples=200, deadline=None)
    @pytest.mark.filterwarnings("error")
    def test_finite_and_bounded(self, rho, n, r):
        params = ModelParams(rho=rho, n=n)
        if not params.is_degenerate:
            f = density_at(params, r)
            assert math.isfinite(f) or (n == 3 and abs(r) == 1.0)
        assert moment(0, params).value == pytest.approx(1.0, abs=1e-12)
        for m in (1, 2):
            assert abs(moment(m, params).value) <= 1.0 + 1e-12
        for value in (exact_variance(params), central_moment(4, params)):
            assert math.isfinite(value) and value >= 0.0

    @given(
        rho=st.floats(min_value=-1.0, max_value=1.0),
        n=st.integers(min_value=3, max_value=2**62),
        rs=st.lists(st.floats(min_value=-1.0, max_value=1.0), max_size=12),
    )
    @example(rho=1.0 - 2.0**-53, n=100_000, rs=[0.5, 1.0 - 2.0**-53, -1.0, 1.0])
    @example(rho=-(1.0 - 2.0**-53), n=104, rs=[-(1.0 - 2.0**-53), 0.0])
    @example(rho=0.99999, n=2**62, rs=[0.99999, -0.99999, 5e-324])
    @example(rho=0.5, n=3, rs=[-1.0, 0.5, 1.0])
    @example(rho=0.5, n=2**1023, rs=[-0.9, 0.0, 0.5, 0.999999])
    @settings(max_examples=200, deadline=None)
    @pytest.mark.filterwarnings("error")
    def test_array_finite_and_per_point(self, rho, n, rs):
        params = ModelParams(rho=rho, n=n)
        if params.is_degenerate:
            with pytest.raises(DegenerateDistributionError):
                density_at(params, rs)
            return
        values = density_at(params, rs)
        peak = density_at(params, rho)
        for r, value in zip(rs, values.tolist()):
            want = density_at(params, r)
            if math.isinf(want):
                assert value == want and n == 3 and abs(r) == 1.0
            else:
                assert math.isfinite(value)
                assert abs(value - want) <= 1e-13 * max(want, peak), r


@functools.lru_cache(maxsize=None)
def _mp_moments(a, n, orders=range(5)):
    """E(R^m) and E{(R - a)^m} for each m in orders, at rho = a >= 0:
    Hotelling's density written in r, integrated at 40 digits by the
    trapezoid rule in z = atanh r, with a finer step than the library's and
    out to zeta +- max(40 s, 12 s + 40 / (n - 2)), past where the density
    has fallen below ~e^-40 of its peak and wide enough for the high orders,
    whose integrands peak in the tails."""
    with mp.workdps(40):
        x, m = mp.mpf(a), mp.mpf(n)
        if n <= 4:
            h, half = mp.mpf("0.12"), mp.mpf(45)
        else:
            s = 1 / mp.sqrt(m - 1.5)
            h, half = s / 8, max(40 * s, 12 * s + mp.mpf(40) / (m - 2))
        log_c = (
            mp.log(m - 2) + mp.loggamma(m - 1) - mp.loggamma(m - 0.5)
            - mp.log(2 * mp.pi) / 2 + (m - 1) / 2 * mp.log1p(-x * x)
        )
        raw, central = [mp.mpf(0)] * len(orders), [mp.mpf(0)] * len(orders)
        zeta, k_max = mp.atanh(x), int(half / h)
        for k in range(-k_max, k_max + 1):
            r = mp.tanh(zeta + k * h)
            weight = h * mp.exp(
                log_c + (m - 2) / 2 * mp.log1p(-r * r) - (m - 1.5) * mp.log1p(-x * r)
            ) * _mp_hyp2f1(0.5, 0.5, m - 0.5, (1 + x * r) / 2)
            for i, j in enumerate(orders):
                raw[i] += weight * r**j
                central[i] += weight * (r - x) ** j
        return [float(v) for v in raw], [float(v) for v in central]


@functools.lru_cache(maxsize=None)
def _mp_olkin_pratt(a, n):
    """E(R) and E(R^2) from the Olkin-Pratt (1958) closed forms."""
    with mp.workdps(40):
        x, m = mp.mpf(a), mp.mpf(n)
        ratio = mp.exp(mp.loggamma(m / 2) - mp.loggamma((m - 1) / 2))
        first = x * 2 / (m - 1) * ratio**2 * _mp_hyp2f1(0.5, 0.5, (m + 1) / 2, x * x)
        second = 1 - (m - 2) * (1 - x * x) / (m - 1) * _mp_hyp2f1(1, 1, (m + 1) / 2, x * x)
        return float(first), float(second)


class TestMomentEngineAgainstMpmath:
    # Every (|rho|, n) of the domain's corners: tiny |rho| where odd
    # orders cancel, |rho| near 1 where the series needed 1e5+ terms or
    # gave up, and n up to 1e9.
    @pytest.mark.parametrize("n", [3, 4, 5, 10, 300, 1000, 100_000, 10**6, 10**9])
    @pytest.mark.parametrize("a", [0.0, 1e-12, 1e-6, 0.3, 0.9, 0.999, 0.9999, 0.99999])
    def test_moments_and_central_moments(self, a, n):
        raw, central = _mp_moments(a, n)
        first, second = _mp_olkin_pratt(a, n)
        # The reference against the closed forms (at rho = 0 its odd sums
        # are rounding noise of the 40-digit arithmetic).
        for got, want in ((raw[1], first), (raw[2], second)):
            assert abs(got - want) <= 1e-14 * abs(want) + 1e-40

        def close(got, want):
            return got == want if want == 0.0 else abs(got - want) <= 1e-12 * abs(want)

        for rho in (a, -a):
            params = ModelParams(rho=rho, n=n)
            for j in range(5):
                sign = -1.0 if rho < 0.0 and j % 2 else 1.0
                want_raw = 0.0 if a == 0.0 and j % 2 else sign * raw[j]
                want_central = 0.0 if a == 0.0 and j % 2 else sign * central[j]
                assert close(moment(j, params).value, want_raw), (rho, n, j)
                assert close(central_moment(j, params), want_central), (rho, n, j)
            assert close(moment(1, params).value, math.copysign(first, rho) if a else 0.0)
            assert close(moment(2, params).value, second)
            assert close(exact_variance(params), central[2] - central[1] ** 2)


class TestMoment:
    def test_normalization_on_grid(self):
        for rho in RHO_GRID:
            for n in N_GRID:
                if abs(rho) == 1.0:
                    continue
                res = moment(0, ModelParams(rho=rho, n=n))
                assert res.value == pytest.approx(1.0, abs=1e-10), (rho, n)

    def test_mean_is_zero_when_uncorrelated(self):
        assert moment(1, ModelParams(rho=0.0, n=10)).value == 0.0

    def test_mean_bracket_high_correlation(self):
        value = moment(1, ModelParams(rho=0.95, n=10)).value
        assert math.sqrt(1 - 1 / 10) * 0.95 <= value <= 0.95

    def test_second_moment_matches_quadrature(self):
        params = ModelParams(rho=0.56, n=10)
        assert moment(2, params).value == pytest.approx(
            moment_quadrature(2, params), abs=1e-8
        )

    def test_degenerate_short_circuit(self):
        assert moment(3, ModelParams(rho=1.0, n=7)).value == 1.0
        assert moment(3, ModelParams(rho=-1.0, n=7)).value == -1.0
        assert moment(2, ModelParams(rho=-1.0, n=7)).value == 1.0
        assert moment(3, ModelParams(rho=-1.0, n=7)).terms_used == 0

    @pytest.mark.parametrize("m", [0, 1, 2, 3, 4])
    def test_parity_in_rho(self, m):
        for rho in (0.25, 0.56, 0.75, 0.95):
            for n in (5, 10, 30):
                plus = moment(m, ModelParams(rho=rho, n=n)).value
                minus = moment(m, ModelParams(rho=-rho, n=n)).value
                assert minus == pytest.approx((-1) ** m * plus, abs=1e-12)

    def test_bounded_by_one(self):
        for rho in RHO_GRID:
            for n in (3, 10, 100):
                for m in range(7):
                    assert abs(moment(m, ModelParams(rho=rho, n=n)).value) <= 1.0 + 1e-12

    def test_even_moments_decrease(self):
        for rho in (0.0, 0.56, 0.95):
            for n in (3, 10, 30):
                params = ModelParams(rho=rho, n=n)
                values = [moment(2 * j, params).value for j in range(4)]
                for lower, higher in zip(values[1:], values[:-1]):
                    assert lower <= higher + 1e-12

    def test_mean_upper_bound_everywhere(self):
        for rho in RHO_GRID:
            for n in N_GRID:
                value = moment(1, ModelParams(rho=rho, n=n)).value
                assert abs(value) <= abs(rho) + 1e-12

    def test_mean_termwise_lower_bound_everywhere(self):
        # |E(R)| >= kappa(n/2) |rho|: every series term shrinks by at
        # least the first gamma-ratio factor.
        for rho in RHO_GRID:
            for n in N_GRID:
                value = moment(1, ModelParams(rho=rho, n=n)).value
                floor = symmetric_gamma_ratio(n / 2.0) * abs(rho)
                assert abs(value) >= floor - 1e-12

    def test_mean_sqrt_lower_bound_moderate_samples(self):
        # The sqrt(1 - 1/n) floor undercuts kappa(n/2) slightly, so for
        # small |rho| it only holds once n is moderately large; (0.25, 3)
        # and (0.25, 5) sit below it.
        for rho in (0.25, 0.56, 0.75, 0.95):
            for n in (10, 30, 100):
                value = moment(1, ModelParams(rho=rho, n=n)).value
                assert value >= math.sqrt(1 - 1 / n) * rho

    @pytest.mark.parametrize("rho, n", [(0.0, 100_000), (0.2, 3000)])
    def test_large_samples_against_mpmath(self, rho, n):
        # Olkin-Pratt closed forms of E(R) and E(R^2).
        with mp.workdps(40):
            x, m = mp.mpf(rho), mp.mpf(n)
            first = x * 2 / (m - 1) * mp.gammaprod([m / 2, m / 2], [(m - 1) / 2, (m - 1) / 2])
            first *= mp.hyp2f1(0.5, 0.5, (m + 1) / 2, x * x)
            second = 1 - (m - 2) * (1 - x * x) / (m - 1) * mp.hyp2f1(1, 1, (m + 1) / 2, x * x)
        params = ModelParams(rho=rho, n=n)
        for order, want in enumerate((1.0, float(first), float(second))):
            got = moment(order, params).value
            assert abs(got - want) <= 1e-13 * abs(want), (order, got, want)

    def test_terms_used_within_cap(self):
        # terms_used counts the nodes of the base trapezoid grid; the
        # shifted grid agrees to rounding error.
        for n in (3, 5, 100, 10**6):
            res = moment(2, ModelParams(rho=0.95, n=n))
            assert res.terms_used == (533 if n <= 4 else 481)
            assert 0.0 <= res.truncation_estimate <= 1e-15

    def test_odd_orders_at_small_correlation(self):
        # Odd orders at small |rho| sqrt(n) pair the nodes zeta +- u; the
        # result stays exactly odd in rho.
        plus = moment(3, ModelParams(rho=1e-6, n=10))
        minus = moment(3, ModelParams(rho=-1e-6, n=10))
        assert minus.value == -plus.value
        assert plus.terms_used == 481
        assert plus.truncation_estimate <= 1e-13 * plus.value

    @pytest.mark.parametrize("m", [1031, 2001])
    @pytest.mark.parametrize("n", [3, 10])
    def test_high_odd_orders_at_small_correlation(self, m, n):
        # Orders whose binomials C(m, m // 2) are beyond the float range: exactly
        # 0.0 at rho = 0, else the paired sum against the 40-digit trapezoid.
        for rho in (0.0, -0.0):
            assert moment(m, ModelParams(rho=rho, n=n)).value == 0.0
        for a in (1e-9, 1e-4):
            want = _mp_moments(a, n, (m,))[0][0]
            for sign in (1.0, -1.0):
                params = ModelParams(rho=sign * a, n=n)
                got = moment(m, params).value
                assert abs(got - sign * want) <= 1e-12 * abs(want), (sign * a, got, want)
                assert abs(got) <= moment(m - 1, params).value


class TestEvenMomentRelations:
    @pytest.mark.parametrize("n", [10, 30])
    @pytest.mark.parametrize("rho", [0.0, 0.56])
    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_second_moment_lower_bound(self, n, rho, m):
        params = ModelParams(rho=rho, n=n)
        second = moment(2, params).value
        high = moment(2 * m, params).value
        lower = (1 - (n - 2) / (n + 1)) ** (m - 1) * second
        assert lower <= high * (1 + 1e-12)

    @pytest.mark.parametrize("n", [10, 30])
    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_second_moment_upper_envelope_uncorrelated(self, n, m):
        # The matching upper envelope is only tight enough to assert at
        # rho = 0, where a single series term carries all the mass; for
        # larger |rho| the even moments overshoot it.
        params = ModelParams(rho=0.0, n=n)
        second = moment(2, params).value
        high = moment(2 * m, params).value
        upper = (1 - (n - 2) / (2 * m + n - 1)) ** (m - 1) * second
        assert high <= upper * 1.05

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_jensen(self, m):
        for rho in (0.0, 0.56, 0.95):
            for n in (10, 30):
                params = ModelParams(rho=rho, n=n)
                assert moment(2, params).value ** m <= moment(2 * m, params).value * (1 + 1e-12)


class TestMomentQuadrature:
    def test_normalization(self):
        assert moment_quadrature(0, ModelParams(rho=0.56, n=10)) == pytest.approx(
            1.0, abs=1e-8
        )

    def test_sign_symmetry(self):
        plus = moment_quadrature(1, ModelParams(rho=0.25, n=10))
        minus = moment_quadrature(1, ModelParams(rho=-0.25, n=10))
        assert minus == pytest.approx(-plus, abs=1e-10)

    def test_flat_case_second_moment(self):
        assert moment_quadrature(2, ModelParams(rho=0.0, n=4)) == pytest.approx(
            1.0 / 3.0, abs=1e-10
        )

    def test_smallest_sample_substitution(self):
        # n = 3, where the density has an integrable (1 - r^2)^(-1/2)
        # endpoint singularity; in z it decays like e^(-|z|).
        for rho in (0.0, 0.56, 0.95):
            params = ModelParams(rho=rho, n=3)
            assert moment_quadrature(0, params) == pytest.approx(1.0, abs=1e-8)
            assert moment_quadrature(2, params) == pytest.approx(
                moment(2, params).value, abs=1e-8
            )

    def test_agrees_with_series_subgrid(self):
        for rho in (0.25, -0.75, 0.95):
            for n in (5, 30):
                params = ModelParams(rho=rho, n=n)
                for m in range(5):
                    assert moment_quadrature(m, params) == pytest.approx(
                        moment(m, params).value, abs=1e-8
                    )

    def test_degenerate_equals_moment(self):
        # R = rho at |rho| = 1, so the cross-check returns rho^m as moment does.
        for rho in (1.0, -1.0):
            params = ModelParams(rho=rho, n=10)
            for m in range(6):
                assert moment_quadrature(m, params) == moment(m, params).value == rho**m


class TestOrderRule:
    # Every exact moment call takes an integer order >= 0, as operator.index
    # decides: a float, even 2.0, or a string is refused before any
    # integration, at |rho| = 1 too.
    @pytest.mark.parametrize("call", [moment, moment_quadrature, central_moment])
    def test_integer_orders_only(self, call):
        for rho in (0.56, -0.56, 1.0, -1.0):
            params = ModelParams(rho=rho, n=10)
            for order in (1.5, 2.0, np.float64(2.0), "2"):
                with pytest.raises(TypeError):
                    call(order, params)
            with pytest.raises(ValueError, match="order must be non-negative, got -1"):
                call(-1, params)
            assert call(np.int64(2), params) == call(2, params)

    @pytest.mark.parametrize("call", [moment, moment_quadrature, central_moment])
    @pytest.mark.filterwarnings("error")
    def test_orders_up_to_2_to_the_53(self, call):
        # numpy raises the grid to the order as a float, which loses the
        # parity beyond 2^53: np.array([-0.999999999]) ** (2**53 + 1) is +0.0.
        for rho in (0.56, -0.56, 1.0, -1.0):
            params = ModelParams(rho=rho, n=10)
            for order in (2**53 + 1, 2**64, 2 * 10**400):
                with pytest.raises(ValueError, match=r"order must be at most 2\*\*53, got "):
                    call(order, params)
            call(2**53, params)


class TestExactVariance:
    def test_degenerate_is_zero(self):
        assert exact_variance(ModelParams(rho=1.0, n=10)) == 0.0
        assert exact_variance(ModelParams(rho=-1.0, n=25)) == 0.0

    def test_uncorrelated_closed_form(self):
        # var(R) = 1/(n - 1) exactly at rho = 0
        for n in (4, 10, 37):
            assert exact_variance(ModelParams(rho=0.0, n=n)) == pytest.approx(
                1.0 / (n - 1), abs=1e-12
            )

    def test_nonnegative(self):
        for rho in RHO_GRID:
            for n in N_GRID:
                assert exact_variance(ModelParams(rho=rho, n=n)) >= -1e-12

    def test_against_large_monte_carlo(self):
        # Independent oracle: ten million simulated correlations from a
        # single vectorized stream, compared within three standard errors
        # of the sample variance.
        params = ModelParams(rho=0.56, n=10)
        rng = np.random.Generator(np.random.Philox(key=20230713))
        reps, chunk = 10_000_000, 100_000
        sums = np.zeros(4)  # count, sum, sum of squares handled via accumulators
        values = np.empty(reps)
        for start in range(0, reps, chunk):
            draws = rng.standard_normal((chunk, 2, 10))
            x = draws[:, 0, :]
            y = params.rho * x + math.sqrt(1 - params.rho**2) * draws[:, 1, :]
            dx = x - x.mean(axis=1, keepdims=True)
            dy = y - y.mean(axis=1, keepdims=True)
            r = np.einsum("ij,ij->i", dx, dy) / np.sqrt(
                np.einsum("ij,ij->i", dx, dx) * np.einsum("ij,ij->i", dy, dy)
            )
            values[start:start + chunk] = r
        del sums
        sample_var = values.var(ddof=1)
        centered = values - values.mean()
        fourth = np.mean(centered**4)
        se_var = math.sqrt((fourth - sample_var**2 * (reps - 3) / (reps - 1)) / reps)
        assert exact_variance(params) == pytest.approx(sample_var, abs=3 * se_var)


class TestCentralMoment:
    def test_order_zero_and_one(self):
        params = ModelParams(rho=0.56, n=10)
        assert central_moment(0, params) == pytest.approx(1.0, abs=1e-12)
        expected = moment(1, params).value - 0.56
        assert central_moment(1, params) == pytest.approx(expected, abs=1e-12)

    def test_order_two_decomposition(self):
        params = ModelParams(rho=0.75, n=30)
        bias = moment(1, params).value - 0.75
        assert central_moment(2, params) == pytest.approx(
            exact_variance(params) + bias * bias, abs=1e-12
        )

    @pytest.mark.parametrize(
        "a, n, order", [(0.9, 100, 301), (0.999, 10, 101), (0.9, 3, 301), (0.999, 3, 101)]
    )
    @pytest.mark.filterwarnings("error")
    def test_high_odd_orders_near_unit_correlation(self, a, n, order):
        # The two terms of a pair of nodes zeta +- u differ by a factor beyond
        # the float range here; each pair is its larger term times 1 - e^-|L|.
        want = _mp_moments(a, n, (order,))[1][0]
        for sign in (1.0, -1.0):
            got = central_moment(order, ModelParams(rho=sign * a, n=n))
            assert math.isfinite(got), (sign * a, got)
            assert abs(got - sign * want) <= 1e-12 * abs(want), (sign * a, got, want)

    @pytest.mark.parametrize("order", [2000, 2001])
    @pytest.mark.filterwarnings("error")
    def test_high_orders_whose_terms_leave_the_float_range(self, order):
        # |r - rho|^order overflows at the grid's far nodes (1.558^2000 =
        # e^887), where the weight is ~e^-326, but the value is finite.
        want = _mp_moments(0.56, 100, (2000, 2001))[1][order - 2000]
        for sign in (1.0, -1.0):
            got = central_moment(order, ModelParams(rho=sign * 0.56, n=100))
            assert math.isfinite(got), (sign, got)
            assert abs(got - sign**order * want) <= 1e-12 * abs(want), (sign, got, want)

    def test_even_orders_nonnegative(self):
        for rho in (0.0, 0.56, 0.95):
            params = ModelParams(rho=rho, n=10)
            for order in (2, 4, 6):
                assert central_moment(order, params) >= 0.0
