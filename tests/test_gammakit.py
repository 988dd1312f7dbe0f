import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from corrconc import (
    log_gamma,
    log_gamma_ratio,
    symmetric_gamma_ratio,
    symmetric_gamma_ratio_stirling,
)
from corrconc.gammakit import _log_gamma_ratio

mp.mp.dps = 50


class TestLogGamma:
    def test_gamma_one(self):
        assert log_gamma(1.0) == pytest.approx(0.0, abs=1e-15)

    def test_gamma_half(self):
        assert log_gamma(0.5) == pytest.approx(math.log(math.sqrt(math.pi)), rel=1e-13)

    def test_gamma_six(self):
        assert log_gamma(6.0) == pytest.approx(math.log(120.0), rel=1e-13)

    @pytest.mark.parametrize("z", [0.0, -1.0, -0.5, math.inf, math.nan])
    def test_domain_errors(self, z):
        with pytest.raises(ValueError):
            log_gamma(z)

    def test_against_mpmath_across_range(self):
        # Next to the roots z = 1, 2 lgamma's absolute error is far above
        # the value itself; abs=0 makes rel the whole tolerance there.
        near_roots = [0.9977438321606378, 1 + 1e-9, 1.99098550922919, 2 - 3e-12]
        for z in [*np.geomspace(0.5, 1e6, 400), *near_roots]:
            exact = float(mp.loggamma(float(z)))
            if exact == 0.0:
                assert log_gamma(float(z)) == 0.0
            else:
                assert log_gamma(float(z)) == pytest.approx(exact, rel=1e-13, abs=0)


class TestLogGammaRatio:
    def test_simple_integer_ratio(self):
        assert log_gamma_ratio(3.0, 2.0) == pytest.approx(math.log(2.0), rel=1e-13)

    def test_half_integer_ratio(self):
        assert log_gamma_ratio(1.5, 0.5) == pytest.approx(math.log(0.5), rel=1e-13)

    def test_close_large_arguments(self):
        exact = float(mp.loggamma(501.0) - mp.loggamma(500.5))
        assert log_gamma_ratio(501.0, 500.5) == pytest.approx(exact, rel=1e-12)

    @pytest.mark.parametrize(
        "a,b",
        [(1e6, 1e6 - 0.5), (2e4, 2e4 - 0.25), (12345.5, 12345.0), (1e5, 3.0), (421912.0, 11.0)],
    )
    def test_stirling_path_against_mpmath(self, a, b):
        exact = float(mp.loggamma(a) - mp.loggamma(b))
        assert log_gamma_ratio(a, b) == pytest.approx(exact, rel=1e-13)

    def test_small_offsets_against_mpmath(self):
        # The ratios the density and the moments take, Gamma(n-1)/Gamma(n-1/2)
        # and its kin, on both sides of the Stirling cutoff.
        worst = 0.0
        for b in np.geomspace(3.5, 1e6, 300):
            for d in (-0.5, 0.5, 1.0, 1.5, 2.5):
                a = float(b) + d
                exact = mp.loggamma(a) - mp.loggamma(float(b))
                worst = max(worst, abs(log_gamma_ratio(a, float(b)) - float(exact)))
        assert worst <= 1e-14

    @pytest.mark.parametrize("a, b", [
        (3.5, 3.5 + 2.0**-40), (9.0, 9.0 + 1e-9), (2.5, 2.5000001), (6.09e-121, 6.0889e-121),
        (10.5, 10.5 + 2.0**-40), (20.0, 20.0 + 1e-10), (0.3, 0.35),
    ])
    def test_nearly_equal_arguments_against_mpmath(self, a, b):
        # The ratio is ~(a - b) psi(b), far below the rounding of either
        # lgamma (3.3e-4 off at 3.5 + 2^-40 by their difference) or either
        # Stirling tail (5.9e-8 off at 10.5 + 2^-40).
        with mp.workdps(30):
            exact = float(mp.loggamma(a) - mp.loggamma(b))
        assert log_gamma_ratio(a, b) == pytest.approx(exact, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("b", [1.4616321449683622, 1.4616, 1.4617])
    def test_near_the_psi_root_within_its_conditioning(self, b):
        # Next to the root of psi the ratio f, ~(a - b)^2 psi'/2, is far
        # below its terms (a - b) psi: rounding a and b alone moves it by
        # u (|a psi(a)| + |b psi(b)|), u = 2^-53.  The relative error stays
        # within 10 times that over |f| (3.8 times at most here; 5.8e-8
        # against 3.2e-7 at a = 1.4616321449683622, b = a + 1e-9).
        u = 2.0**-53
        for d in (1e-12, -1e-12, 1e-9, -1e-9, 1e-6, -1e-6, 1e-3, -1e-3, 0.1, -0.1):
            a = b + d
            exact = mp.loggamma(a) - mp.loggamma(b)
            bound = u * (abs(a * mp.digamma(a)) + abs(b * mp.digamma(b))) / abs(exact)
            error = abs(log_gamma_ratio(a, b) - exact) / abs(exact)
            assert error <= 10.0 * bound, (b, d, float(error), float(bound))

    @pytest.mark.parametrize("n", range(3, 12))
    def test_library_ratio_below_cutoff_is_the_lgamma_difference(self, n):
        # The density's constant, Gamma(n - 1) / Gamma(n - 1/2), is outside
        # the nearly-equal band, so its bits do not move.
        assert _log_gamma_ratio(n - 1, n - 0.5, -0.5) == math.lgamma(n - 1) - math.lgamma(n - 0.5)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            log_gamma_ratio(0.0, 1.0)
        with pytest.raises(ValueError):
            log_gamma_ratio(1.0, -2.0)

    @given(
        st.floats(min_value=0.5, max_value=1e6),
        st.floats(min_value=0.5, max_value=1e6),
    )
    @settings(max_examples=200)
    def test_reflection(self, a, b):
        forward = log_gamma_ratio(a, b)
        backward = log_gamma_ratio(b, a)
        assert forward == pytest.approx(-backward, rel=1e-13, abs=1e-13)

    @given(st.floats(min_value=0.5, max_value=1e5))
    @example(65535.32323644058)
    @settings(max_examples=300)
    def test_recurrence(self, z):
        # Gamma(z + 1) = z Gamma(z), checked through the ratio so the
        # large-argument path is exercised too.  Where z + 1.0 rounds
        # (at 65535.32323644058 it is z + 0.99999999999272), log z is not
        # the ratio of the arguments passed, so the reference is lnGamma
        # at those two floats.
        with mp.workdps(40):
            exact = float(mp.loggamma(z + 1.0) - mp.loggamma(z))
        assert log_gamma_ratio(z + 1.0, z) == pytest.approx(exact, rel=1e-12, abs=1e-12)

    def test_recurrence_by_plain_difference_small_arguments(self):
        for z in np.geomspace(0.5, 1e3, 200):
            lhs = log_gamma(float(z) + 1.0) - log_gamma(float(z))
            assert lhs == pytest.approx(math.log(z), rel=1e-12, abs=1e-12)


_DBL_MAX = 1.7976931348623157e308
_positive = st.floats(min_value=0.0, max_value=1.79e308, exclude_min=True)


def _expected(exact, got, scale):
    # +-inf where the exact value is beyond the float range; otherwise
    # within 1e-14 of the larger |ln Gamma| of the arguments, the
    # absolute error a difference of two lgamma values carries.
    if abs(exact) > _DBL_MAX:
        return got == math.copysign(math.inf, exact)
    return abs(got - exact) <= 1e-14 * max(1, scale)


class TestDomain:
    # Every positive float argument gives ln Gamma or the log ratio as a
    # float, or +-inf past the float range: never OverflowError.
    @given(a=_positive, b=_positive)
    @example(a=2.6e305, b=1.7e305)
    @example(a=1e308, b=1e307)
    @example(a=1.79e308, b=5e-324)
    @example(a=1.79e308, b=1.78e308)
    @example(a=7.659655613382708e305, b=5.107287864837986e305)  # d ln a overflows, the ratio not
    @settings(max_examples=300, deadline=None)
    def test_log_gamma_ratio(self, a, b):
        got = log_gamma_ratio(a, b)
        with mp.workdps(30):
            lg_a, lg_b = mp.loggamma(a), mp.loggamma(b)
            assert _expected(lg_a - lg_b, got, max(abs(lg_a), abs(lg_b))), (a, b, got)

    @given(z=_positive)
    @example(z=2.6e305)
    @example(z=1.79e308)
    @settings(max_examples=300, deadline=None)
    def test_log_gamma(self, z):
        got = log_gamma(z)
        with mp.workdps(30):
            exact = mp.loggamma(z)
            assert _expected(exact, got, abs(exact)), (z, got)


class TestSymmetricGammaRatio:
    def test_at_one(self):
        # Gamma(1)^2 / (Gamma(3/2) Gamma(1/2)) = 2/pi
        assert symmetric_gamma_ratio(1.0) == pytest.approx(2.0 / math.pi, rel=1e-12)

    def test_half_sample_value(self):
        # z = n/2 with n = 10
        exact = float(mp.gamma(5.0) ** 2 / (mp.gamma(5.5) * mp.gamma(4.5)))
        assert symmetric_gamma_ratio(5.0) == pytest.approx(exact, rel=1e-12)

    def test_large_argument_limit(self):
        assert symmetric_gamma_ratio(1e6) == pytest.approx(1.0, abs=1e-6)

    def test_domain_errors(self):
        for z in (0.5, 0.0, -3.0, math.nan):
            with pytest.raises(ValueError):
                symmetric_gamma_ratio(z)

    def test_monotone_nondecreasing(self):
        zs = np.geomspace(0.51, 1e6, 2000)
        values = [symmetric_gamma_ratio(float(z)) for z in zs]
        diffs = np.diff(values)
        assert np.all(diffs >= -1e-15)

    def test_bound_chain(self):
        # 1 - 1/n <= ratio(n/2) <= 1 across every n the tables use.
        for n in range(3, 201):
            value = symmetric_gamma_ratio(n / 2.0)
            assert 1.0 - 1.0 / n <= value <= 1.0

    def test_in_unit_interval(self):
        for z in (0.6, 1.0, 2.5, 17.0, 4e3):
            assert 0.0 < symmetric_gamma_ratio(z) <= 1.0


class TestSymmetricGammaRatioStirling:
    def test_moderate_argument_within_one_percent(self):
        exact = symmetric_gamma_ratio(5.0)
        approx = symmetric_gamma_ratio_stirling(5.0)
        assert abs(approx - exact) / exact < 0.01

    def test_large_argument_tight(self):
        exact = symmetric_gamma_ratio(100.0)
        approx = symmetric_gamma_ratio_stirling(100.0)
        assert abs(approx - exact) / exact < 1e-4

    def test_finite_positive_at_one(self):
        value = symmetric_gamma_ratio_stirling(1.0)
        assert math.isfinite(value) and value > 0.0

    def test_relative_error_shrinks(self):
        errors = [
            abs(symmetric_gamma_ratio_stirling(z) - symmetric_gamma_ratio(z))
            / symmetric_gamma_ratio(z)
            for z in (2.0, 8.0, 32.0, 128.0, 512.0)
        ]
        assert errors == sorted(errors, reverse=True)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            symmetric_gamma_ratio_stirling(0.5)
