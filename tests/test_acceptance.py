"""Acceptance suite: one check per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
verdict lines inline.
"""

import math
import time

import numpy as np
import pytest
from scipy.integrate import quad

from corrconc import (
    ModelParams,
    SimConfig,
    TailBoundKind,
    central_even_moment_bound,
    central_moment,
    coverage_interval,
    density_at,
    exact_variance,
    mean_approx,
    moment,
    moment_quadrature,
    run_experiment,
    simulate_r_values,
    tail_bound,
    tail_bound_clamped,
    var_approx,
    variance_bounds,
)
from corrconc.cli import main

RHO_GRID = (0.0, 0.25, -0.25, 0.56, 0.75, -0.75, 0.95)
N_GRID = (3, 5, 10, 30, 100)
SEED = 2023

SUB_GAUSSIAN = (
    TailBoundKind.CONSERVATIVE,
    TailBoundKind.AGGRESSIVE,
    TailBoundKind.MEGA_AGGRESSIVE,
)


def report(criterion, ok, detail):
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")


def test_criterion_01_normalization():
    start = time.perf_counter()
    worst = 0.0
    for rho in RHO_GRID:
        for n in N_GRID:
            value = moment(0, ModelParams(rho=rho, n=n)).value
            worst = max(worst, abs(value - 1.0))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 5.0
    report("01 normalization", ok, f"max |E(R^0) - 1| = {worst:.2e}, {elapsed:.2f}s")
    assert worst <= 1e-10
    assert elapsed < 5.0


def test_criterion_02_mean_sandwich():
    violations = []
    worst_gap = 0.0
    for rho in RHO_GRID:
        for n in N_GRID:
            value = moment(1, ModelParams(rho=rho, n=n)).value
            lo = math.sqrt(1.0 - 1.0 / n) * abs(rho)
            hi = abs(rho)
            if not lo <= abs(value) <= hi:
                violations.append((rho, n, abs(value) - lo))
            worst_gap = max(worst_gap, abs(value - math.sqrt(1 - 1 / n) * rho) * n)
    ok = not violations and worst_gap <= 1.0
    detail = f"max n*|E(R) - sqrt(1-1/n) rho| = {worst_gap:.3f}"
    if violations:
        spots = ", ".join(f"(rho={r}, n={n}: {gap:+.2e})" for r, n, gap in violations)
        detail += f"; bracket violated at {spots}"
    report("02 mean sandwich", ok, detail)
    assert worst_gap <= 1.0
    assert not violations, f"sandwich lower bound violated at {violations}"


# Table values as printed; two upper-bound cells are printed at two
# decimals in the source table and are compared at that precision.
_TABLE1 = [
    # rho, E(R), sd(R), UB, decimals of the UB entry
    (0.0, 0.0, 0.333, 0.471, 3),
    (-0.25, -0.237, 0.312, 0.450, 2),
    (0.56, 0.531, 0.229, 0.359, 3),
    (-0.75, -0.712, 0.146, 0.264, 3),
    (0.95, 0.901, 0.033, 0.11, 2),
]


def test_criterion_03_table1_closed_forms():
    mismatches = []
    for rho, e_r, sd_r, ub, ub_dp in _TABLE1:
        params = ModelParams(rho=rho, n=10)
        if round(mean_approx(params), 3) != e_r:
            mismatches.append((rho, "E(R)", mean_approx(params), e_r))
        if round(math.sqrt(var_approx(params)), 3) != sd_r:
            mismatches.append((rho, "sd(R)", math.sqrt(var_approx(params)), sd_r))
        got_ub = math.sqrt(variance_bounds(params).upper_conservative)
        if round(got_ub, ub_dp) != round(ub, ub_dp):
            mismatches.append((rho, "UB", got_ub, ub))
    ok = not mismatches
    report(
        "03 table1 closed forms",
        ok,
        "all 15 cells match at printed precision"
        if ok
        else f"mismatches: {mismatches}",
    )
    assert not mismatches


def test_criterion_04_oracle_equivalence():
    start = time.perf_counter()
    worst = 0.0
    for rho in RHO_GRID:
        for n in N_GRID:
            params = ModelParams(rho=rho, n=n)
            for m in range(5):
                gap = abs(moment(m, params).value - moment_quadrature(m, params))
                worst = max(worst, gap)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and elapsed < 60.0
    report("04 oracle equivalence", ok, f"max |series - quadrature| = {worst:.2e}, {elapsed:.1f}s")
    assert worst <= 1e-8
    assert elapsed < 60.0


def test_criterion_05_variance_error_order():
    details = []
    ok = True
    for rho in (0.0, 0.56, 0.75):
        scaled = []
        for n in (10, 20, 40, 80, 160):
            params = ModelParams(rho=rho, n=n)
            scaled.append(n * n * abs(exact_variance(params) - var_approx(params)))
        if max(scaled) <= 1e-8:
            # the approximation is exact here, so the scaled error is
            # floating-point noise around zero
            details.append(f"rho={rho}: identically zero")
            continue
        ratio = max(scaled) / min(scaled)
        details.append(f"rho={rho}: ratio={ratio:.2f}")
        ok = ok and ratio < 10.0
    report("05 variance error order", ok, "; ".join(details))
    assert ok


_TABLE1_EMPIRICAL_SD = {0.0: 0.332, -0.25: 0.316, 0.56: 0.249, -0.75: 0.172, 0.95: 0.045}


def test_criterion_06_monte_carlo_table1():
    start = time.perf_counter()
    failures = []
    for rho, table_sd in _TABLE1_EMPIRICAL_SD.items():
        params = ModelParams(rho=rho, n=10)
        summary = run_experiment(SimConfig(params=params, reps=10_000, seed=SEED))
        target_mean = moment(1, params).value
        mean_tol = 4.0 * summary.sd_r / math.sqrt(summary.reps)
        if abs(summary.mean_r - target_mean) > mean_tol:
            failures.append(f"mean rho={rho}: {summary.mean_r:.4f} vs {target_mean:.4f}")
        if abs(summary.sd_r - table_sd) > 0.05 * table_sd:
            failures.append(f"sd rho={rho}: {summary.sd_r:.4f} vs {table_sd}")
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 10.0
    report(
        "06 monte carlo table1",
        ok,
        f"{elapsed:.1f}s" if ok else f"{failures} ({elapsed:.1f}s)",
    )
    assert not failures
    assert elapsed < 10.0


# Coverage tables as printed, per cent, one block per sample size.
_COVERAGE_TABLES = {
    10: {
        0.0: (100.0, 100.0, 100.0),
        -0.25: (100.0, 100.0, 99.3),
        0.56: (100.0, 99.5, 97.3),
        -0.75: (99.7, 98.7, 96.1),
        0.95: (99.1, 97.6, 95.2),
    },
    3: {
        0.0: (100.0, 100.0, 100.0),
        -0.25: (100.0, 100.0, 100.0),
        0.56: (100.0, 100.0, 92.0),
        -0.75: (97.7, 93.0, 89.2),
        0.95: (94.3, 92.6, 90.6),
    },
    5: {
        0.0: (100.0, 100.0, 100.0),
        -0.25: (100.0, 100.0, 100.0),
        0.56: (100.0, 99.3, 95.5),
        -0.75: (99.0, 96.5, 93.2),
        0.95: (97.1, 95.0, 92.0),
    },
    30: {
        0.0: (100.0, 100.0, 99.6),
        -0.25: (100.0, 100.0, 99.3),
        0.56: (100.0, 99.8, 98.8),
        -0.75: (100.0, 99.7, 98.0),
        0.95: (99.9, 99.3, 97.3),
    },
    100: {
        0.0: (100.0, 100.0, 99.3),
        -0.25: (100.0, 100.0, 99.4),
        0.56: (100.0, 99.9, 99.3),
        -0.75: (100.0, 99.9, 98.9),
        0.95: (100.0, 99.9, 98.8),
    },
}


@pytest.mark.parametrize("n", [10, 3, 5, 30, 100])
def test_criterion_07_monte_carlo_coverage(n):
    start = time.perf_counter()
    failures = []
    for rho, cells in _COVERAGE_TABLES[n].items():
        params = ModelParams(rho=rho, n=n)
        summary = run_experiment(SimConfig(params=params, reps=10_000, seed=SEED))
        for kind, cell in zip(SUB_GAUSSIAN, cells):
            got = 100.0 * summary.coverage[kind]
            if abs(got - cell) > 1.5:
                failures.append(f"rho={rho} {kind.value}: {got:.2f} vs {cell} ({got - cell:+.2f}pp)")
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 120.0
    report(
        f"07 coverage n={n}",
        ok,
        f"all cells within 1.5pp, {elapsed:.1f}s" if ok else "; ".join(failures),
    )
    assert not failures, failures
    assert elapsed < 120.0


def test_criterion_07_n5_cell_sits_outside_tolerance_of_exact_coverage():
    # The reference cell for (rho=0.56, n=5, c2) is 95.5; the exact
    # coverage of that interval, integrated from the density, is 93.95%.
    # The cell is 1.55pp from the truth against a 1.5pp tolerance, so
    # whether criterion 07 passes at n=5 depends on the random stream.
    params = ModelParams(rho=0.56, n=5)
    iv = coverage_interval(TailBoundKind.MEGA_AGGRESSIVE, params, 0.05)
    lo, hi = max(iv.lower, -1.0), min(iv.upper, 1.0)
    mass, _ = quad(lambda r: density_at(params, r), lo, hi, epsabs=1e-12)
    exact_pct = 100.0 * mass
    report("07 n=5 c2 cell vs exact", exact_pct < 94.0, f"exact {exact_pct:.3f}% vs cell 95.5")
    assert exact_pct < 94.0
    assert 95.5 - exact_pct > 1.5


def test_criterion_08_bound_ordering_and_round_trip():
    rng = np.random.Generator(np.random.Philox(key=8))
    worst_round_trip = 0.0
    ordering_ok = True
    for _ in range(1000):
        rho = float(rng.uniform(-0.99, 0.99))
        n = int(rng.integers(3, 200))
        t = float(rng.uniform(1e-3, 2.0))
        params = ModelParams(rho=rho, n=n)
        c0 = tail_bound(TailBoundKind.CONSERVATIVE, params, t)
        c1 = tail_bound(TailBoundKind.AGGRESSIVE, params, t)
        c2 = tail_bound(TailBoundKind.MEGA_AGGRESSIVE, params, t)
        ordering_ok = ordering_ok and c0 >= c1 >= c2
        alpha = float(rng.uniform(0.005, 0.5))
        kind = SUB_GAUSSIAN[int(rng.integers(0, 3))]
        iv = coverage_interval(kind, params, alpha)
        worst_round_trip = max(
            worst_round_trip, abs(tail_bound(kind, params, iv.half_width) - alpha)
        )
    ok = ordering_ok and worst_round_trip <= 1e-10
    report(
        "08 ordering and round trip",
        ok,
        f"ordering={'ok' if ordering_ok else 'violated'}, "
        f"max |bound(t*) - alpha| = {worst_round_trip:.2e}",
    )
    assert ordering_ok
    assert worst_round_trip <= 1e-10


def test_criterion_09_bernstein_validity():
    failures = []
    for rho in (0.0, 0.56):
        for n in (10, 30):
            params = ModelParams(rho=rho, n=n)
            reps = 100_000
            r = simulate_r_values(params, reps, SEED)
            deviations = np.abs(r - rho)
            for t in (0.05, 0.1, 0.2, 0.4):
                empirical = float(np.mean(deviations > t))
                bound = tail_bound_clamped(TailBoundKind.BERNSTEIN, params, t)
                se = math.sqrt(max(empirical * (1 - empirical), 1e-12) / reps)
                if empirical > bound + 3 * se:
                    failures.append(f"rho={rho} n={n} t={t}: {empirical:.4f} > {bound:.4f}")
    ok = not failures
    report("09 bernstein validity", ok, "never exceeded" if ok else "; ".join(failures))
    assert not failures


def test_criterion_10_sub_gaussian_envelope():
    worst = 0.0
    failures = []
    for rho in (0.0, 0.56, 0.75):
        for n in (30, 100):
            params = ModelParams(rho=rho, n=n)
            for m in (1, 2, 3):
                exact = central_moment(2 * m, params)
                envelope = central_even_moment_bound(m, params)
                ratio = exact / envelope
                worst = max(worst, ratio)
                if exact > envelope * 1.02:
                    failures.append(f"rho={rho} n={n} m={m}: ratio={ratio:.3f}")
    ok = not failures
    report("10 sub-gaussian envelope", ok, f"max exact/envelope = {worst:.3f}")
    assert not failures


def test_criterion_11_determinism_across_workers(tmp_path, capsys):
    args = ["coverage", "--n", "10", "--reps", "10000", "--seed", str(SEED)]
    out_a = tmp_path / "workers1.csv"
    out_b = tmp_path / "workers4.csv"
    assert main(args + ["--workers", "1", "--out", str(out_a)]) == 0
    assert main(args + ["--workers", "4", "--out", str(out_b)]) == 0
    bytes_a = out_a.read_bytes()
    bytes_b = out_b.read_bytes()
    ok = bytes_a == bytes_b and len(bytes_a) > 0
    report("11 determinism", ok, f"{len(bytes_a)} bytes, identical={bytes_a == bytes_b}")
    assert ok
