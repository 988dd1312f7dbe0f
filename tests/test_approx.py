import math
import sys
import time

import mpmath as mp
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from corrconc import (
    ModelParams,
    central_even_moment_bound,
    central_moment,
    exact_variance,
    mean_approx,
    moment,
    second_moment_approx,
    var_approx,
    variance_bounds,
)
from conftest import N_GRID, RHO_GRID


class TestMeanApprox:
    @pytest.mark.parametrize(
        "rho,n,expected",
        [(0.95, 10, "0.901"), (-0.25, 10, "-0.237"), (0.95, 3, "0.776")],
    )
    def test_table_values(self, rho, n, expected):
        assert f"{mean_approx(ModelParams(rho=rho, n=n)):.3f}" == expected

    def test_within_reciprocal_n_of_exact_mean(self):
        for rho in RHO_GRID:
            for n in N_GRID:
                params = ModelParams(rho=rho, n=n)
                exact = moment(1, params).value
                assert abs(exact - mean_approx(params)) <= 1.0 / n


class TestVarApprox:
    @pytest.mark.parametrize(
        "rho,expected_sd", [(0.0, "0.333"), (0.56, "0.229"), (-0.25, "0.312")]
    )
    def test_table_sd_values(self, rho, expected_sd):
        sd = math.sqrt(var_approx(ModelParams(rho=rho, n=10)))
        assert f"{sd:.3f}" == expected_sd

    def test_degenerate_is_zero(self):
        assert var_approx(ModelParams(rho=1.0, n=10)) == 0.0
        assert var_approx(ModelParams(rho=-1.0, n=44)) == 0.0

    def test_scaled_error_stays_bounded(self):
        # The gap to the exact variance shrinks like n^-2: its n^2-scaled
        # value should flatten out along a doubling ladder.
        for rho in (0.56, 0.75):
            scaled = []
            for n in (10, 20, 40, 80, 160):
                params = ModelParams(rho=rho, n=n)
                scaled.append(n * n * abs(exact_variance(params) - var_approx(params)))
            assert max(scaled) / min(scaled) < 10.0

    def test_exact_at_zero_correlation(self):
        for n in (10, 40, 160):
            params = ModelParams(rho=0.0, n=n)
            assert exact_variance(params) == pytest.approx(var_approx(params), abs=1e-12)


class TestSecondMomentApprox:
    def test_uncorrelated(self):
        assert second_moment_approx(ModelParams(rho=0.0, n=10)) == pytest.approx(1 / 9)

    def test_degenerate(self):
        assert second_moment_approx(ModelParams(rho=1.0, n=10)) == 1.0

    def test_bracketed_around_exact(self):
        # rho^2 (1 - 1/n) + (1 - rho^2)^2/(n - 1) < E(R^2) <= approx form,
        # with equality of the lower form at rho = 0.
        for rho in RHO_GRID:
            for n in (10, 30, 100):
                if abs(rho) == 1.0:
                    continue
                params = ModelParams(rho=rho, n=n)
                exact = moment(2, params).value
                lower = rho * rho * (1 - 1 / n) + var_approx(params)
                if rho == 0.0:
                    assert lower == pytest.approx(exact, abs=1e-12)
                else:
                    assert lower < exact
                assert exact <= second_moment_approx(params) + 1e-12

    def test_named_value(self):
        value = second_moment_approx(ModelParams(rho=0.56, n=10))
        assert value == pytest.approx(0.3136 + 0.6864**2 / 9, rel=1e-12)


class TestVarianceBounds:
    @pytest.mark.parametrize("rho,expected_ub", [(0.0, "0.471"), (0.56, "0.359")])
    def test_table_ub_values(self, rho, expected_ub):
        ub = math.sqrt(variance_bounds(ModelParams(rho=rho, n=10)).upper_conservative)
        assert f"{ub:.3f}" == expected_ub

    def test_degenerate_all_zero(self):
        bounds = variance_bounds(ModelParams(rho=1.0, n=10))
        assert bounds.approx == bounds.upper_conservative == bounds.upper_aggressive == 0.0

    @given(
        st.floats(min_value=-1.0, max_value=1.0),
        st.integers(min_value=3, max_value=500),
    )
    @settings(max_examples=200)
    def test_ordering(self, rho, n):
        bounds = variance_bounds(ModelParams(rho=rho, n=n))
        assert bounds.approx >= 0.0
        assert bounds.approx <= bounds.upper_aggressive + 1e-15
        assert bounds.upper_aggressive <= bounds.upper_conservative + 1e-15

    def test_exact_variance_below_both_bounds(self):
        for rho in RHO_GRID:
            for n in (10, 30, 100):
                params = ModelParams(rho=rho, n=n)
                bounds = variance_bounds(params)
                exact = exact_variance(params)
                assert exact <= bounds.upper_aggressive + 1e-12
                assert exact <= bounds.upper_conservative + 1e-12


class TestCentralEvenMomentBound:
    def test_first_order_value(self):
        assert central_even_moment_bound(1, ModelParams(rho=0.0, n=10)) == pytest.approx(
            2.0 / 9.0, rel=1e-13
        )

    def test_second_order_value(self):
        assert central_even_moment_bound(2, ModelParams(rho=0.0, n=10)) == pytest.approx(
            4.0 / 27.0, rel=1e-13
        )

    def test_dominates_exact_fourth_central_moment(self):
        params = ModelParams(rho=0.0, n=10)
        assert central_moment(4, params) <= central_even_moment_bound(2, params)
        params = ModelParams(rho=0.75, n=30)
        assert central_moment(4, params) <= central_even_moment_bound(2, params)

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("rho", [0.0, 0.56, 0.75])
    def test_envelope_with_slack_at_moderate_n(self, m, rho):
        for n in (30, 100):
            params = ModelParams(rho=rho, n=n)
            exact = central_moment(2 * m, params)
            assert exact <= central_even_moment_bound(m, params) * 1.02

    def test_rejects_nonpositive_order(self):
        with pytest.raises(ValueError):
            central_even_moment_bound(0, ModelParams(rho=0.0, n=10))

    @pytest.mark.parametrize("m", [1, 2, 3, 10, 60, 130, 150, 151, 160, 300])
    def test_beyond_a_float_coefficient(self, m):
        # (2m)!/(2^m m!) leaves the float range at m = 151, and (2 nu^2)^m
        # underflows long before the bound does: at (n, m) = (1000, 150)
        # and (1e6, 60) a float product gave 0.0 for 6.2e-99 and 8.0e-244.
        # Where the bound is not a normal double, it is rounded once.
        for n in (10, 1000, 10**6):
            for rho in (0.0, 0.5):
                params = ModelParams(rho=rho, n=n)
                with mp.workdps(40):
                    want = float(mp.fac2(2 * m - 1) * (2 * mp.mpf(var_approx(params))) ** m)
                got = central_even_moment_bound(m, params)
                if sys.float_info.min <= want < math.inf:
                    assert got == pytest.approx(want, rel=1e-15, abs=0.0), (n, rho)
                else:
                    assert got == want, (n, rho)

    def test_infinite_beyond_the_float_range(self):
        assert central_even_moment_bound(4096, ModelParams(rho=0.0, n=3)) == math.inf

    @pytest.mark.parametrize("m", [1, 150, 151, 4096])
    @pytest.mark.parametrize("rho", [1.0, -1.0])
    def test_zero_at_unit_correlation(self, m, rho):
        assert central_even_moment_bound(m, ModelParams(rho=rho, n=3)) == 0.0

    @pytest.mark.parametrize("m", [10**6, 10**9])
    @pytest.mark.parametrize("n", [10, 10**6])
    def test_any_order_returns_at_once(self, m, n):
        # The integers of the exact path took 0.51 s at m = 30,000; the log
        # decides here that the bound is past the float range.
        params = ModelParams(rho=0.0, n=n)
        start = time.perf_counter()
        assert central_even_moment_bound(m, params) == math.inf
        assert time.perf_counter() - start < 0.01

    @pytest.mark.parametrize("m", [1, 2, 10, 60, 150, 151, 300, 700, 1024])
    def test_exact_path_keeps_its_bits(self, m):
        # Up to m = 1024 every value is the exact bound at the float nu^2,
        # rounded once, inf and 0.0 included.
        for n in (3, 10, 1000, 10**6, 2**62):
            for rho in (0.0, 0.5, -0.999):
                params = ModelParams(rho=rho, n=n)
                num, den = (2.0 * var_approx(params)).as_integer_ratio()
                try:
                    want = math.factorial(2 * m) // (2**m * math.factorial(m)) * num**m / den**m
                except OverflowError:
                    want = math.inf
                assert central_even_moment_bound(m, params) == want, (n, rho)

    @pytest.mark.parametrize("m", [1025, 4096, 10**5, 10**6])
    def test_log_path_within_its_conditioning(self, m):
        # n puts 4 m nu^2 / e near 1, where the bound is near 1 too.
        for offset in (-2, 0, 2):
            params = ModelParams(rho=0.0, n=round(4 * (m + 0.5) / math.e) + 1 + offset)
            with mp.workdps(40):
                want = float(mp.fac2(2 * m - 1) * (2 * mp.mpf(var_approx(params))) ** m)
            assert 0.01 < want < 100.0
            got = central_even_moment_bound(m, params)
            assert got == pytest.approx(want, rel=4 * m * math.log(m) * 2.0**-53)

    @pytest.mark.parametrize("m", [2**70, 10**400])
    def test_orders_beyond_the_float_range(self, m):
        # (4 m nu^2 / e)^m: 4 m nu^2 is ~1 at n = 2^72 and ~16 at n = 2^68.
        assert central_even_moment_bound(m, ModelParams(rho=0.0, n=2**68)) == math.inf
        assert central_even_moment_bound(m, ModelParams(rho=0.0, n=10)) == math.inf
        expected = 0.0 if m == 2**70 else math.inf
        assert central_even_moment_bound(m, ModelParams(rho=0.0, n=2**72)) == expected


class TestDomain:
    # rho over [-1, 1] and n >= 3: every function returns a finite value;
    # the even-moment envelope returns inf only where the bound exceeds
    # the float range, and ValueError for m < 1.
    @given(
        rho=st.floats(min_value=-1.0, max_value=1.0),
        n=st.integers(min_value=3, max_value=2**62),
        m=st.integers(min_value=-1, max_value=4096),
    )
    @example(rho=1.0, n=3, m=4096)
    @example(rho=-1.0, n=2**62, m=1)
    @example(rho=1.0 - 2.0**-53, n=3, m=4096)
    @example(rho=-(1.0 - 2.0**-53), n=2**62, m=151)
    @example(rho=5e-324, n=3, m=151)
    @example(rho=-5e-324, n=2**62, m=4096)
    @settings(max_examples=200, deadline=None)
    def test_finite_or_documented(self, rho, n, m):
        params = ModelParams(rho=rho, n=n)
        values = [mean_approx(params), var_approx(params), second_moment_approx(params)]
        bounds = variance_bounds(params)
        values += [bounds.approx, bounds.upper_conservative, bounds.upper_aggressive]
        assert all(math.isfinite(v) for v in values)
        if m < 1:
            with pytest.raises(ValueError):
                central_even_moment_bound(m, params)
            return
        bound = central_even_moment_bound(m, params)
        assert bound >= 0.0
        if math.isinf(bound):
            nu2 = var_approx(params)
            log_bound = (math.lgamma(2 * m + 1) - m * math.log(2.0) - math.lgamma(m + 1)
                         + m * math.log(2.0 * nu2))
            assert log_bound > math.log(sys.float_info.max) - 1e-9
