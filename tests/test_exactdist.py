import math

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad

from corrconc import (
    DegenerateDistributionError,
    ModelParams,
    SeriesConfig,
    SeriesTruncationError,
    beta_moment_integral,
    central_moment,
    density_at,
    exact_variance,
    moment,
    moment_quadrature,
    symmetric_gamma_ratio,
)
from conftest import N_GRID, RHO_GRID


class TestBetaMomentIntegral:
    def test_odd_total_power_vanishes(self):
        assert beta_moment_integral(1, 0, 10) == 0.0
        assert beta_moment_integral(2, 3, 7) == 0.0

    def test_plain_interval_length(self):
        # n = 4 makes the weight flat, so the integral of r^0 is 2
        assert beta_moment_integral(0, 0, 4) == pytest.approx(2.0, rel=1e-13)

    def test_second_power_flat_weight(self):
        assert beta_moment_integral(2, 0, 4) == pytest.approx(2.0 / 3.0, rel=1e-13)

    def test_matches_direct_quadrature(self):
        for m, k, n in [(0, 2, 5), (2, 2, 10), (4, 0, 7), (1, 3, 6)]:
            direct, _ = quad(lambda r: r ** (m + k) * (1 - r * r) ** ((n - 4) / 2), -1, 1)
            assert beta_moment_integral(m, k, n) == pytest.approx(direct, abs=1e-10)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            beta_moment_integral(-1, 0, 5)
        with pytest.raises(ValueError):
            beta_moment_integral(0, 0, 2)


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


def _hotelling_mp(rho, n, r):
    """Hotelling's density at 30 digits."""
    with mp.workdps(30):
        x, m, s = mp.mpf(rho), mp.mpf(n), mp.mpf(r)
        log_c = (
            mp.log(m - 2) + mp.loggamma(m - 1) + (m - 1) / 2 * mp.log1p(-x * x)
            + (m - 4) / 2 * mp.log1p(-s * s) - mp.log(2 * mp.pi) / 2
            - mp.loggamma(m - 0.5) - (m - 1.5) * mp.log1p(-x * s)
        )
        c, z = m - 0.5, (1 + x * s) / 2
        if n < 10_000:
            return float(mp.exp(log_c) * mp.hyp2f1(0.5, 0.5, c, z))
        # For z > 0.8 mpmath goes through the 1 - z transformation, whose
        # series take O(n) terms; the defining series takes a few dozen.
        total, term, k = mp.mpf(0), mp.mpf(1), 0
        while term > mp.mpf(10) ** -32 * total:
            total += term
            term *= (k + 0.5) ** 2 / ((c + k) * (k + 1)) * z
            k += 1
        return float(mp.exp(log_c) * total)


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

    def test_baseline_overflow_point(self):
        # The power series overflowed here.
        value = density_at(ModelParams(rho=0.999, n=1000), 0.999)
        assert value == pytest.approx(6303.88146, rel=1e-9)
        assert value == pytest.approx(_hotelling_mp(0.999, 1000, 0.999), rel=1e-12)


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

    def test_truncation_error_carries_partial_state(self):
        cfg = SeriesConfig(rel_tol=1e-14, max_terms=5)
        with pytest.raises(SeriesTruncationError) as excinfo:
            moment(2, ModelParams(rho=0.95, n=10), cfg)
        err = excinfo.value
        assert err.terms_used == 5
        assert 0.0 < err.partial_value < 1.0

    def test_terms_used_within_cap(self):
        cfg = SeriesConfig(rel_tol=1e-14, max_terms=100_000)
        res = moment(2, ModelParams(rho=0.95, n=100), cfg)
        assert 0 < res.terms_used <= cfg.max_terms
        assert res.truncation_estimate >= 0.0


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
        # n = 3 integrates through the sine substitution
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

    def test_degenerate_error(self):
        with pytest.raises(DegenerateDistributionError):
            moment_quadrature(1, ModelParams(rho=1.0, n=10))


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

    def test_even_orders_nonnegative(self):
        for rho in (0.0, 0.56, 0.95):
            params = ModelParams(rho=rho, n=10)
            for order in (2, 4, 6):
                assert central_moment(order, params) >= 0.0
