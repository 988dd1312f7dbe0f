import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from corrconc import (
    InfeasibleLevelError,
    ModelParams,
    TailBoundKind,
    bernstein_tail_proof_form,
    coverage_interval,
    invert_tail_numeric,
    tail_bound,
    tail_bound_clamped,
)
from corrconc.conc import closed_form_half_width

SUB_GAUSSIAN = (
    TailBoundKind.CONSERVATIVE,
    TailBoundKind.AGGRESSIVE,
    TailBoundKind.MEGA_AGGRESSIVE,
)
ALL_KINDS = (TailBoundKind.BERNSTEIN,) + SUB_GAUSSIAN

_rhos = st.floats(min_value=-0.99, max_value=0.99)
_ns = st.integers(min_value=3, max_value=300)
_ts = st.floats(min_value=1e-4, max_value=3.0)
_alphas = st.floats(min_value=1e-4, max_value=0.5)


class TestTailBound:
    def test_bernstein_limit_at_zero(self):
        params = ModelParams(rho=0.3, n=10)
        assert tail_bound(TailBoundKind.BERNSTEIN, params, 1e-12) == pytest.approx(2.0, abs=1e-9)
        assert tail_bound_clamped(TailBoundKind.BERNSTEIN, params, 1e-12) == 1.0

    def test_tightest_kind_hits_level(self):
        t = math.sqrt(2 * math.log(40.0) / 10)
        params = ModelParams(rho=0.0, n=10)
        assert tail_bound(TailBoundKind.MEGA_AGGRESSIVE, params, t) == pytest.approx(
            0.05, abs=1e-12
        )

    def test_tighter_for_stronger_correlation(self):
        t = 0.2
        strong = tail_bound(TailBoundKind.CONSERVATIVE, ModelParams(rho=0.95, n=10), t)
        weak = tail_bound(TailBoundKind.CONSERVATIVE, ModelParams(rho=0.56, n=10), t)
        assert strong < weak

    def test_degenerate_subgaussian_is_zero(self):
        for kind in SUB_GAUSSIAN:
            assert tail_bound(kind, ModelParams(rho=1.0, n=10), 0.5) == 0.0

    def test_bernstein_ignores_rho(self):
        a = tail_bound(TailBoundKind.BERNSTEIN, ModelParams(rho=0.0, n=10), 0.4)
        b = tail_bound(TailBoundKind.BERNSTEIN, ModelParams(rho=0.9, n=10), 0.4)
        assert a == b

    @pytest.mark.parametrize("n", [3, 10, 1000, 10**6, 2**62])
    @pytest.mark.parametrize("rho", [-1.0, -0.95, 0.0, 0.56, 1.0])
    def test_bernstein_is_vacuous_up_to_two(self, rho, n):
        # The exponent n t^2 / (2 (1 + 2 n t)) is below t/4, so the bound
        # exceeds 2 exp(-t/4) >= 2 exp(-1/2) ~ 1.213 for t <= 2, the whole
        # range of |R - rho|: it never bounds a probability below 1.
        params = ModelParams(rho=rho, n=n)
        ts = [5e-324, 1e-300, 1e-9, *np.linspace(1e-3, 2.0, 400).tolist()]
        floor = 2.0 * math.exp(-0.5)
        assert min(tail_bound(TailBoundKind.BERNSTEIN, params, t) for t in ts) >= floor

    def test_divisors(self):
        assert [kind.divisor for kind in SUB_GAUSSIAN] == [8, 4, 2]
        with pytest.raises(ValueError):
            TailBoundKind.BERNSTEIN.divisor

    def test_rejects_nonpositive_t(self):
        params = ModelParams(rho=0.3, n=10)
        for t in (0.0, -0.1, math.nan):
            with pytest.raises(ValueError):
                tail_bound(TailBoundKind.BERNSTEIN, params, t)

    @given(_rhos, _ns, _ts)
    @settings(max_examples=300)
    def test_kind_ordering(self, rho, n, t):
        params = ModelParams(rho=rho, n=n)
        c0 = tail_bound(TailBoundKind.CONSERVATIVE, params, t)
        c1 = tail_bound(TailBoundKind.AGGRESSIVE, params, t)
        c2 = tail_bound(TailBoundKind.MEGA_AGGRESSIVE, params, t)
        assert c0 >= c1 >= c2

    @given(_rhos, _ns, _ts)
    @settings(max_examples=200)
    def test_worst_case_domination(self, rho, n, t):
        params = ModelParams(rho=rho, n=n)
        assert tail_bound(TailBoundKind.MEGA_AGGRESSIVE, params, t) <= 2.0 * math.exp(
            -n * t * t / 2.0
        ) * (1 + 1e-12)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_strictly_decreasing_in_t_and_n(self, kind):
        params = ModelParams(rho=0.56, n=10)
        ts = np.linspace(0.05, 2.0, 40)
        values = [tail_bound(kind, params, float(t)) for t in ts]
        assert all(a > b for a, b in zip(values, values[1:]))
        ns = (3, 5, 10, 30, 100)
        values = [tail_bound(kind, ModelParams(rho=0.56, n=n), 0.3) for n in ns]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_proof_form_is_weaker(self):
        for n in (3, 10, 100):
            params = ModelParams(rho=0.2, n=n)
            for t in (0.05, 0.3, 1.0):
                assert bernstein_tail_proof_form(params, t) >= tail_bound(
                    TailBoundKind.BERNSTEIN, params, t
                )


class TestCoverageInterval:
    def test_conservative_uncorrelated(self):
        iv = coverage_interval(TailBoundKind.CONSERVATIVE, ModelParams(rho=0.0, n=10), 0.05)
        assert iv.half_width == pytest.approx(math.sqrt(8 * math.log(40.0) / 10), rel=1e-12)
        assert iv.half_width == pytest.approx(1.7179, abs=5e-5)
        assert iv.clipped

    def test_tightest_strong_correlation(self):
        iv = coverage_interval(
            TailBoundKind.MEGA_AGGRESSIVE, ModelParams(rho=0.95, n=10), 0.05
        )
        assert iv.half_width == pytest.approx(0.0975 * math.sqrt(2 * math.log(40.0) / 10), rel=1e-12)
        assert iv.half_width == pytest.approx(0.0838, abs=1e-4)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_symmetric_about_zero(self, kind):
        iv = coverage_interval(kind, ModelParams(rho=0.0, n=10), 0.05)
        assert iv.lower == -iv.upper

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_round_trip(self, kind):
        for rho in (0.0, 0.56, -0.75):
            for n in (5, 30):
                params = ModelParams(rho=rho, n=n)
                iv = coverage_interval(kind, params, 0.05)
                assert tail_bound(kind, params, iv.half_width) == pytest.approx(
                    0.05, abs=1e-10
                )

    def test_width_scales_with_variance_factor(self):
        base = coverage_interval(TailBoundKind.AGGRESSIVE, ModelParams(rho=0.0, n=10), 0.05)
        for rho in (0.25, 0.56, 0.95):
            iv = coverage_interval(TailBoundKind.AGGRESSIVE, ModelParams(rho=rho, n=10), 0.05)
            assert iv.half_width == pytest.approx((1 - rho * rho) * base.half_width, rel=1e-12)

    def test_degenerate_zero_width(self):
        iv = coverage_interval(TailBoundKind.AGGRESSIVE, ModelParams(rho=1.0, n=10), 0.05)
        assert iv.lower == iv.upper == 1.0
        assert not iv.clipped

    def test_level_and_clipping_metadata(self):
        iv = coverage_interval(TailBoundKind.MEGA_AGGRESSIVE, ModelParams(rho=0.95, n=10), 0.05)
        assert iv.level == pytest.approx(0.95)
        assert iv.upper > 1.0 and iv.clipped
        assert iv.clipped_bounds == (iv.lower, 1.0)

    def test_infeasible_level(self):
        params = ModelParams(rho=0.0, n=10)
        with pytest.raises(InfeasibleLevelError):
            coverage_interval(TailBoundKind.CONSERVATIVE, params, 2.0)
        with pytest.raises(InfeasibleLevelError):
            invert_tail_numeric(TailBoundKind.BERNSTEIN, params, 2.5)

    def test_rejects_bad_levels(self):
        params = ModelParams(rho=0.0, n=10)
        for alpha in (0.0, -0.3, 1.0, 1.5, math.nan):
            with pytest.raises(ValueError):
                coverage_interval(TailBoundKind.AGGRESSIVE, params, alpha)


class TestInvertTailNumeric:
    @given(_rhos, _ns, _alphas, st.sampled_from(SUB_GAUSSIAN))
    @settings(max_examples=200, deadline=None)
    def test_matches_closed_form(self, rho, n, alpha, kind):
        params = ModelParams(rho=rho, n=n)
        closed = coverage_interval(kind, params, alpha).half_width
        numeric = invert_tail_numeric(kind, params, alpha)
        assert numeric == pytest.approx(closed, abs=1e-10, rel=1e-10)

    def test_named_value(self):
        t = invert_tail_numeric(TailBoundKind.MEGA_AGGRESSIVE, ModelParams(rho=0.0, n=100), 0.05)
        assert t == pytest.approx(math.sqrt(2 * math.log(40.0) / 100), abs=1e-10)
        assert t == pytest.approx(0.2717, abs=1e-4)

    @pytest.mark.parametrize("rho", [1.0, -1.0])
    def test_degenerate_correlation(self, rho):
        # R = rho exactly, so the sub-Gaussian half-widths are 0; the
        # Bernstein bound ignores rho and keeps its positive root.
        params = ModelParams(rho=rho, n=10)
        for kind in SUB_GAUSSIAN:
            assert invert_tail_numeric(kind, params, 0.05) == 0.0
        bernstein = TailBoundKind.BERNSTEIN
        t = invert_tail_numeric(bernstein, params, 0.05)
        assert t > 0.0
        closed = closed_form_half_width(bernstein, params, 0.05)
        assert t == pytest.approx(closed, rel=1e-13)
        assert coverage_interval(bernstein, params, 0.05).half_width == closed

    def test_bernstein_root_is_consistent(self):
        params = ModelParams(rho=0.3, n=10)
        t = invert_tail_numeric(TailBoundKind.BERNSTEIN, params, 0.05)
        assert tail_bound(TailBoundKind.BERNSTEIN, params, t) == pytest.approx(0.05, abs=1e-11)
        # strict monotonicity makes the root unique: nearby t values bracket it
        assert tail_bound(TailBoundKind.BERNSTEIN, params, t * 0.99) > 0.05
        assert tail_bound(TailBoundKind.BERNSTEIN, params, t * 1.01) < 0.05

    @pytest.mark.parametrize("n", [3, 10, 2**62])
    @pytest.mark.parametrize("alpha", [1e-300, 1e-3, 0.05, 0.999])
    def test_matches_interval_construction(self, alpha, n):
        # The interval's half-width (upper - lower) / 2 rounds at ulp(rho),
        # an absolute error, which the sub-Gaussian half-widths at n = 2^62
        # (~1e-9) feel.
        params = ModelParams(rho=0.56, n=n)
        for kind in ALL_KINDS:
            iv = coverage_interval(kind, params, alpha)
            assert invert_tail_numeric(kind, params, alpha) == pytest.approx(
                iv.half_width, rel=1e-12, abs=1e-14
            ), kind

    @pytest.mark.parametrize("n", [3, 10, 2**62])
    @pytest.mark.parametrize("alpha", [1e-300, 1e-3, 0.05, 0.999])
    def test_matches_closed_form_relative(self, alpha, n):
        # The bisection's bracket is 1e-14 t wide, so the root is as tight
        # relative to t at n = 2^62 (t ~ 1e-9) as at small n.
        params = ModelParams(rho=0.56, n=n)
        for kind in ALL_KINDS:
            assert invert_tail_numeric(kind, params, alpha) == pytest.approx(
                closed_form_half_width(kind, params, alpha), rel=1e-13, abs=0.0
            ), kind


class TestDomain:
    # rho over [-1, 1], n >= 3, and any float t and alpha: each call
    # returns a finite value, or raises ValueError for a t or alpha out of
    # its range (InfeasibleLevelError, a ValueError, for alpha >= 2).
    @given(
        rho=st.floats(min_value=-1.0, max_value=1.0),
        n=st.integers(min_value=3, max_value=2**62),
        t=st.floats(),
        alpha=st.floats(),
        kind=st.sampled_from(ALL_KINDS),
    )
    @example(rho=1.0, n=3, t=5e-324, alpha=5e-324, kind=TailBoundKind.BERNSTEIN)
    @example(rho=-1.0, n=2**62, t=1e308, alpha=1.0 - 2.0**-53, kind=TailBoundKind.CONSERVATIVE)
    @example(rho=1.0 - 2.0**-53, n=3, t=1e308, alpha=5e-324, kind=TailBoundKind.MEGA_AGGRESSIVE)
    @example(rho=-5e-324, n=2**62, t=2.0**-1074, alpha=2.0, kind=TailBoundKind.AGGRESSIVE)
    @settings(max_examples=300, deadline=None)
    def test_finite_or_documented_error(self, rho, n, t, alpha, kind):
        params = ModelParams(rho=rho, n=n)
        if math.isfinite(t) and t > 0.0:
            bound = tail_bound(kind, params, t)
            assert math.isfinite(bound) and bound >= 0.0
        else:
            with pytest.raises(ValueError):
                tail_bound(kind, params, t)
        if not 0.0 < alpha < 1.0:
            error = InfeasibleLevelError if 2.0 <= alpha < math.inf else ValueError
            with pytest.raises(error):
                coverage_interval(kind, params, alpha)
            return
        half_width = closed_form_half_width(kind, params, alpha)
        assert math.isfinite(half_width) and half_width >= 0.0
        iv = coverage_interval(kind, params, alpha)
        assert math.isfinite(iv.lower) and math.isfinite(iv.upper)
        assert iv.lower <= rho <= iv.upper
