"""Output checks for benchmark commands, run after the timed pass.

A command fails its check when its printed table disagrees with a
reference that does not come from the code path that printed it:

- moments and densities against an mpmath oracle (Olkin-Pratt 2F1 forms
  for E(R) and E(R^2), Hotelling's 2F1 form of the density), and the
  ``series`` column against the ``quadrature`` column;
- closed-form table1 columns, tail bounds and interval end points
  against formulas written out here (the Bernstein bound inverted in
  closed form, not by bisection);
- simulated ``r_bar`` and ``s_r`` against the exact E(R) and sd(R) from
  ``exactdist``, within ``Z_SIM`` standard errors, and each simulated
  coverage count against a binomial law whose success probability is
  Hotelling's density integrated over the interval.  These are
  statistical checks, so a change of random stream still passes them.

Printed values carry ``--precision`` decimals; every comparison allows
half a unit in the last printed place on top of its own tolerance.
"""

from __future__ import annotations

import csv
import io
import json
import math

import mpmath as mp
from scipy import integrate, special

from workloads import PAPER_RHOS

# A value whose relative error exceeds this is wrong, not just inexact;
# smaller errors are reported through max_rel_err.
WRONG_REL = 1e-6
# Relative errors below this read as this: it is the accuracy target of
# the exact core (ROADMAP item 2), and below it the check only sees
# rounding noise that varies from seed to seed.
ERR_FLOOR = 1e-12
SERIES_VS_QUAD = 1e-8
BOUND_REL = 1e-9
# Standard errors allowed between a simulated statistic and its exact
# value: two-sided p ~ 2e-9 per comparison.
Z_SIM = 6.0
# The same level as a one-sided tail probability, for the coverage counts.
P_SIM = 0.5 * math.erfc(Z_SIM / math.sqrt(2.0))

_KIND_DIVISOR = {"c0": 8, "c1": 4, "c2": 2}
_ALL_KINDS = ("bernstein", "c0", "c1", "c2")

ORACLE_DIGITS = 40


class Oracle:
    """mpmath references at ORACLE_DIGITS digits, cached per argument
    tuple."""

    def __init__(self):
        self._cache: dict = {}

    def _memo(self, key, fn):
        if key not in self._cache:
            with mp.workdps(ORACLE_DIGITS):
                self._cache[key] = fn()
        return self._cache[key]

    def mean(self, rho: float, n: int) -> float:
        def f():
            x, m = mp.mpf(rho), mp.mpf(n)
            g = mp.exp(mp.loggamma(m / 2) - mp.loggamma((m - 1) / 2))
            return float(x * 2 / (m - 1) * g**2 * mp.hyp2f1(0.5, 0.5, (m + 1) / 2, x * x))

        return self._memo(("mean", rho, n), f)

    def second(self, rho: float, n: int) -> float:
        def f():
            x, m = mp.mpf(rho), mp.mpf(n)
            return float(1 - (m - 2) * (1 - x * x) / (m - 1) * mp.hyp2f1(1, 1, (m + 1) / 2, x * x))

        return self._memo(("second", rho, n), f)

    def density(self, rho: float, n: int, r: float) -> float:
        def f():
            x, m, s = mp.mpf(rho), mp.mpf(n), mp.mpf(r)
            log_c = (
                mp.log(m - 2) + mp.loggamma(m - 1) + (m - 1) / 2 * mp.log1p(-x * x)
                + (m - 4) / 2 * mp.log1p(-s * s) - mp.log(2 * mp.pi) / 2
                - mp.loggamma(m - mp.mpf(0.5)) - (m - mp.mpf(1.5)) * mp.log1p(-x * s)
            )
            return float(mp.exp(log_c) * mp.hyp2f1(0.5, 0.5, m - mp.mpf(0.5), (1 + x * s) / 2))

        return self._memo(("density", rho, n, r), f)

    def moment(self, m: int, rho: float, n: int) -> float:
        return (1.0, self.mean(rho, n), self.second(rho, n))[m]


def hotelling_density(rho: float, n: int, r: float) -> float:
    """Hotelling's 2F1 form of the density, in double precision (scipy),
    for integrating over coverage intervals."""
    log_c = (
        math.log(n - 2) + special.gammaln(n - 1) + (n - 1) / 2 * math.log1p(-rho * rho)
        + (n - 4) / 2 * math.log1p(-r * r) - 0.5 * math.log(2 * math.pi)
        - special.gammaln(n - 0.5) - (n - 1.5) * math.log1p(-rho * r)
    )
    return math.exp(log_c) * special.hyp2f1(0.5, 0.5, n - 0.5, (1 + rho * r) / 2)


def density_mass(rho: float, n: int, a: float, b: float) -> float:
    """P(a < R < b), by integrating ``hotelling_density``."""
    if a >= b:
        return 0.0
    return integrate.quad(lambda r: hotelling_density(rho, n, r), a, b,
                          epsabs=1e-14, epsrel=1e-10, limit=200)[0]


def miss_probability(rho: float, n: int, lo: float, hi: float) -> float:
    """P(R < lo or R > hi).  The mass outside is integrated directly, so
    it stays accurate when it is tiny."""
    mass = density_mass(rho, n, -1.0, lo) + density_mass(rho, n, hi, 1.0)
    return min(max(mass, 0.0), 1.0)


def validate_oracle(oracle: Oracle, exactdist, ModelParams) -> list[str]:
    """Compare the oracle with the program's series at moderate points,
    where the series is known to be accurate, and the double-precision
    density with the oracle.  Returns the mismatches."""
    problems = []
    for rho, n in ((0.0, 10), (0.95, 10), (-0.6, 2000)):
        total = density_mass(rho, n, -1.0, 1.0)
        if abs(total - 1.0) > 1e-9:
            problems.append(f"double-precision density at rho={rho}, n={n} integrates to {total!r}")
        for r in (-0.5, rho, 0.9):
            got, want = hotelling_density(rho, n, r), oracle.density(rho, n, r)
            if abs(got - want) > 1e-10 * max(want, 1e-300):
                problems.append(
                    f"double-precision density at rho={rho}, n={n}, r={r}: {got!r} vs {want!r}"
                )
    for rho, n in ((0.3, 5), (-0.56, 10), (0.8, 40), (0.25, 200)):
        p = ModelParams(rho=rho, n=n)
        for m in (1, 2):
            got = exactdist.moment(m, p).value
            want = oracle.moment(m, rho, n)
            if abs(got - want) > 1e-12 * abs(want):
                problems.append(f"oracle E(R^{m}) at rho={rho}, n={n}: {want!r} vs series {got!r}")
        for r in (-0.5, 0.1, 0.7):
            got = exactdist.density_at(p, r)
            want = oracle.density(rho, n, r)
            if abs(got - want) > 1e-12 * max(abs(want), 1.0):
                problems.append(f"oracle density at rho={rho}, n={n}, r={r}: {want!r} vs {got!r}")
    return problems


def parse_table(text: str, fmt: str) -> list[dict]:
    if fmt == "jsonl":
        return [json.loads(line) for line in text.splitlines() if line.strip()]
    if fmt == "csv":
        rows = list(csv.DictReader(io.StringIO(text)))
    else:
        lines = [ln for ln in text.splitlines() if ln.strip()]
        cells = [[c.strip() for c in ln.strip().strip("|").split("|")] for ln in lines]
        header, body = cells[0], cells[2:]
        rows = [dict(zip(header, r)) for r in body]
    return [{k: _typed(v) for k, v in row.items()} for row in rows]


def _typed(text: str):
    if text in ("true", "false"):
        return text == "true"
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            pass
    return text


def _arg(argv, flag, cast=float, default=None):
    return cast(argv[argv.index(flag) + 1]) if flag in argv else default


def _rho_list(argv) -> list[float]:
    for a in argv:
        if a.startswith("--rho-list="):
            return [float(x) for x in a.split("=", 1)[1].split(",")]
    return list(PAPER_RHOS)


class Checker:
    """Checks one command's output.  ``check`` returns a list of
    problems (empty when the output is right) and folds the errors of
    exact values into ``max_rel_err``."""

    def __init__(self, oracle: Oracle, exactdist, ModelParams):
        self.oracle = oracle
        self.exactdist = exactdist
        self.ModelParams = ModelParams
        self.max_rel_err = 0.0
        self.max_rel_err_at = None
        self.max_tail_rel_err = 0.0
        self._argv = None
        self._exact_cache: dict = {}
        self._miss_cache: dict = {}

    def _record(self, got: float, want: float, quantum: float, scale: float | None = None) -> float:
        """Error of ``got`` beyond the printing quantum, relative to
        ``scale`` (default |want|); folded into max_rel_err."""
        scale = abs(want) if scale is None else scale
        excess = max(0.0, abs(got - want) - quantum)
        rel = excess / scale if scale > 0.0 else (0.0 if excess == 0.0 else math.inf)
        if rel > self.max_rel_err:
            self.max_rel_err, self.max_rel_err_at = rel, (self._argv, got, want)
        return rel

    def check(self, argv, text: str) -> list[str]:
        self._argv = " ".join(argv)
        fmt = _arg(argv, "--format", str, "csv")
        quantum = 0.5 * 10.0 ** -_arg(argv, "--precision", int, 3)
        try:
            rows = parse_table(text, fmt)
        except (ValueError, KeyError, IndexError) as exc:
            return [f"unparseable {fmt} output: {exc}"]
        if not rows:
            return ["empty output"]
        try:
            return getattr(self, "_" + argv[0])(argv, rows, quantum)
        except (KeyError, TypeError, ValueError, ArithmeticError, RuntimeError) as exc:
            return [f"check could not run: {type(exc).__name__}: {exc}"]

    def _moments(self, argv, rows, q):
        rho, n = _arg(argv, "--rho"), _arg(argv, "--n", int)
        problems = []
        if [row["m"] for row in rows] != list(range(_arg(argv, "--m-max", int) + 1)):
            return [f"moment orders {[row['m'] for row in rows]}"]
        for row in rows:
            m, s, quad = row["m"], row["series"], row["quadrature"]
            if abs(s - quad) > SERIES_VS_QUAD * max(1.0, abs(s)) + 2 * q:
                problems.append(f"m={m}: series {s} vs quadrature {quad}")
            if m <= 2:
                rel = self._record(s, self.oracle.moment(m, rho, n), q)
                if rel > WRONG_REL:
                    problems.append(f"m={m}: series {s}, relative error {rel:.2e}")
        return problems

    def _density(self, argv, rows, q):
        rho, n = _arg(argv, "--rho"), _arg(argv, "--n", int)
        grid = _arg(argv, "--grid", int)
        if grid is None:
            points = [float(argv[i + 1]) for i, a in enumerate(argv) if a == "--r"]
        else:
            step = 2.0 / (grid + 1)
            points = [-1.0 + step * (i + 1) for i in range(grid)]
        if len(rows) != len(points):
            return [f"{len(rows)} rows for {len(points)} points"]
        peak = self.oracle.density(rho, n, rho)
        problems = []
        for r, row in zip(points, rows):
            if abs(row["r"] - r) > q + 1e-15:
                problems.append(f"point {row['r']} printed for r={r}")
                continue
            want = self.oracle.density(rho, n, r)
            # Relative to max(f(r), f(rho)), f(rho) standing in for the
            # peak: where r*rho < 0 the series subtracts two sums, so tail
            # values carry an absolute error of a few ulp of those sums.
            # Their plain relative error is reported apart.
            rel = self._record(row["density"], want, q, max(want, peak))
            if want > 0.0 and abs(row["density"] - want) > q:
                self.max_tail_rel_err = max(
                    self.max_tail_rel_err, (abs(row["density"] - want) - q) / want
                )
            if rel > WRONG_REL:
                problems.append(f"density at r={r}: {row['density']}, relative error {rel:.2e}")
        return problems

    def _bounds(self, argv, rows, q):
        rho, n = _arg(argv, "--rho", default=0.0), _arg(argv, "--n", int)
        kinds = [_arg(argv, "--kind", str)] if "--kind" in argv else list(_ALL_KINDS)
        if [row["kind"] for row in rows] != kinds:
            return [f"kinds {[row['kind'] for row in rows]}, expected {kinds}"]
        s = 1.0 - rho * rho
        problems = []
        t_given, alpha = _arg(argv, "--t"), _arg(argv, "--alpha")
        for row in rows:
            kind = row["kind"]
            if t_given is not None:
                t = t_given
                if kind == "bernstein":
                    raw = 2.0 * math.exp(-n * t * t / (2.0 * (1.0 + 2.0 * n * t)))
                else:
                    raw = 2.0 * math.exp(-n * t * t / (_KIND_DIVISOR[kind] * s * s))
                want = {"raw": raw, "clamped": min(1.0, raw)}
            else:
                big_l = math.log(2.0 / alpha)
                if kind == "bernstein":
                    # 2 exp(-n t^2 / (2 (1 + 2 n t))) = alpha, solved for t > 0.
                    t = (4 * big_l * n + math.sqrt(16 * big_l**2 * n * n + 8 * big_l * n)) / (2 * n)
                else:
                    t = s * math.sqrt(_KIND_DIVISOR[kind] * big_l / n)
                want = {"t": t, "lower": rho - t, "upper": rho + t}
                lo, hi = rho - t, rho + t
                if min(abs(lo + 1.0), abs(hi - 1.0)) > 1e-9 and row["clipped"] != (lo < -1.0 or hi > 1.0):
                    problems.append(f"{kind}: clipped={row['clipped']}")
            for col, value in want.items():
                if abs(row[col] - value) > q + BOUND_REL * abs(value):
                    problems.append(f"{kind} {col}: {row[col]} vs {value}")
        return problems

    def exact_stats(self, rho: float, n: int):
        """Exact E(R), sd(R) and the standard-error factor of a sample
        sd, from the program's series (exactdist)."""
        key = (rho, n)
        if key not in self._exact_cache:
            p = self.ModelParams(rho=rho, n=n)
            m1, m2, m3, m4 = (self.exactdist.moment(k, p).value for k in (1, 2, 3, 4))
            for got, want in ((m1, self.oracle.mean(rho, n)), (m2, self.oracle.second(rho, n))):
                if abs(got - want) > WRONG_REL * max(abs(want), 1e-300):
                    raise ValueError(f"exactdist moment {got} vs oracle {want} at rho={rho}, n={n}")
            var = m2 - m1 * m1
            mu4 = m4 - 4 * m1 * m3 + 6 * m1 * m1 * m2 - 3 * m1**4
            self._exact_cache[key] = (m1, math.sqrt(var), math.sqrt(max(mu4 - var * var, 0.0)))
        return self._exact_cache[key]

    def _table1(self, argv, rows, q):
        n, reps = _arg(argv, "--n", int), _arg(argv, "--reps", int)
        rhos = _rho_list(argv)
        if len(rows) != len(rhos):
            return [f"{len(rows)} rows for {len(rhos)} rho values"]
        problems = []
        for rho, row in zip(rhos, rows):
            s = 1.0 - rho * rho
            closed = {
                "rho": rho,
                "e_r": math.sqrt(1.0 - 1.0 / n) * rho,
                "sd_r": s / math.sqrt(n - 1),
                "ub": math.sqrt((s * s + s) / (n - 1)),
            }
            for col, value in closed.items():
                if abs(row[col] - value) > q + 1e-12:
                    problems.append(f"rho={rho} {col}: {row[col]} vs {value}")
            mean, sd, mu4_spread = self.exact_stats(rho, n)
            se_mean = sd / math.sqrt(reps)
            # var(s^2) ~ (mu4 - sigma^4)/reps; delta method for s.
            se_sd = mu4_spread / (2.0 * sd * math.sqrt(reps)) if sd > 0 else 0.0
            if abs(row["r_bar"] - mean) > Z_SIM * se_mean + q:
                problems.append(f"rho={rho} r_bar {row['r_bar']} vs E(R)={mean:.6f} (se {se_mean:.2e})")
            if abs(row["s_r"] - sd) > Z_SIM * se_sd + q:
                problems.append(f"rho={rho} s_r {row['s_r']} vs sd(R)={sd:.6f} (se {se_sd:.2e})")
        return problems

    def _coverage(self, argv, rows, q):
        n, alpha = _arg(argv, "--n", int), _arg(argv, "--alpha", default=0.05)
        reps = _arg(argv, "--reps", int)
        rhos = _rho_list(argv)
        if len(rows) != len(rhos):
            return [f"{len(rows)} rows for {len(rhos)} rho values"]
        problems = []
        for rho, row in zip(rhos, rows):
            if abs(row["rho"] - rho) > q:
                problems.append(f"row for rho={row['rho']}, expected {rho}")
            s = 1.0 - rho * rho
            for tag, div in _KIND_DIVISOR.items():
                t = s * math.sqrt(div * math.log(2.0 / alpha) / n)
                for col, value in ((f"{tag}_lower", rho - t), (f"{tag}_upper", rho + t)):
                    if abs(row[col] - value) > q + BOUND_REL * abs(value):
                        problems.append(f"rho={rho} {col}: {row[col]} vs {value}")
                pct, clipped_pct = row[f"{tag}_pct"], row[f"{tag}_pct_clipped"]
                if not 0.0 <= pct <= 100.0 or abs(pct - clipped_pct) > 2 * q:
                    problems.append(f"rho={rho} {tag}: pct {pct}, clipped {clipped_pct}")
                    continue
                problem = self._coverage_count(rho, n, reps, rho - t, rho + t, pct, q)
                if problem:
                    problems.append(f"rho={rho} {tag}: {problem}")
        return problems

    def _coverage_count(self, rho, n, reps, lo, hi, pct, q) -> str | None:
        """Test the printed coverage against Binomial(reps, 1 - miss
        probability), each tail at P_SIM."""
        misses = reps * (100.0 - pct) / 100.0
        count = round(misses)
        if abs(misses - count) > reps * q / 100.0 + 1e-9:
            return f"pct {pct} is no whole count of {reps} reps"
        key = (rho, n, lo, hi)
        if key not in self._miss_cache:
            self._miss_cache[key] = miss_probability(rho, n, lo, hi)
        p_miss = self._miss_cache[key]
        # P(X <= count) and P(X >= count) for X ~ Binomial(reps, p_miss).
        low = special.bdtr(count, reps, p_miss)
        high = 1.0 if count == 0 else special.bdtrc(count - 1, reps, p_miss)
        if min(low, high) < P_SIM:
            return (f"{count} of {reps} reps outside [{lo:.6f}, {hi:.6f}], "
                    f"exact miss probability {p_miss:.3e}")
        return None
