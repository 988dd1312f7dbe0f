import math

import numpy as np
import pytest
from hypothesis import given, settings
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
        # The bisection's bracket is 1e-14 wide below t = 1 and 1e-14 t
        # above it: relative for the Bernstein half-width (at least 4 ln 2),
        # absolute for the sub-Gaussian ones at n = 2^62 (~1e-9).
        params = ModelParams(rho=0.56, n=n)
        for kind in ALL_KINDS:
            iv = coverage_interval(kind, params, alpha)
            assert invert_tail_numeric(kind, params, alpha) == pytest.approx(
                iv.half_width, rel=1e-12, abs=1e-14
            ), kind
