"""Command lists for the three benchmark workloads.

Every list is a pure function of (workload, seed, seconds): the same
arguments give the same commands in the same order.  A command is the
argv list handed to ``corrconc.cli.main``.

- ``sim-paper``: the paper's simulation study, ``table1`` and
  ``coverage`` at n=10 over the default five rho values with
  ``--workers 1``.  All of the work is in ``mcsim``; ``exactdist`` does
  none.
- ``exact-tails``: ``moments`` (series plus quadrature) and
  ``density --grid`` over a fixed (rho, n) grid reaching |rho| = 0.9999
  and n = 1e5.  All of the work is in ``exactdist`` and ``gammakit``;
  ``mcsim`` does none.  The grid holds every in-domain failure listed in
  the ROADMAP Baseline, unchanged.
- ``sweep``: at least 1,000 short commands across all five subcommands,
  drawn from the seed.  Fixed per-call costs (parsing, rendering,
  prefactors, bisection, chunk set-up) dominate, so a change that makes
  bulk paths faster by adding fixed cost shows up here as a loss.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

WORKLOADS = ("sim-paper", "exact-tails", "sweep")

# Calibration at the baseline commit: the workloads size their lists from
# --seconds so that a run measures about --seconds there.  The work of a
# run is then fixed, so every commit runs the same commands.
_SIM_PAPER_CMDS_PER_S = 2.6
_EXACT_ONCE_SECONDS = 2.5
_EXACT_PASS_SECONDS = 5.6
_SWEEP_BLOCK_SECONDS = 4.2

_PAPER_N = 10
_PAPER_REPS = 10_000
# The CLI's default --rho-list, which sim-paper relies on.
PAPER_RHOS = (0.0, -0.25, 0.56, -0.75, 0.95)

# The in-domain failures of the ROADMAP Baseline, plus one overflow of
# ``density --grid`` and one density-series give-up at large n.  They are
# never dropped, shrunk, re-signed or re-seeded.
BASELINE_FAILURES = (
    ("moments", 0.9999, 10),
    ("moments", 0.9, 1000),
    ("moments", 0.999, 1000),
    ("moments", 0.5, 100_000),
    ("moments", 0.9, 10_000),
    ("density-r", 0.999, 1000, 0.999),
    ("density-grid", 0.5, 100_000, 41),
)

# Successful exact-tails points.  Latency percentiles are taken over
# distinct commands, and each repeated command's latency is the median of
# its passes, so the grid is dense where the percentiles fall: moments at
# every (|rho|, n) below come with both signs (equal cost), and the density
# grids spread their costs evenly.
_EXACT_MOMENTS_BOTH_SIGNS = (
    # under ~0.1 s a call
    (0.3, 5), (0.3, 30), (0.3, 100), (0.3, 300),
    (0.5, 5), (0.5, 30), (0.5, 100), (0.5, 300),
    (0.56, 10), (0.75, 4), (0.75, 10), (0.75, 30),
    (0.9, 3), (0.9, 10), (0.95, 3), (0.95, 4),
    # ~0.15 s
    (0.75, 100), (0.95, 10),
    # ~0.3 s: the slowest repeated commands, one group of 8 of like cost,
    # so that cmd_tail_ms (the 3rd slowest of them, below the 7 failures
    # and the once-only point) falls inside a group and not on one draw.
    # Series of 1,400-1,500 terms (rho=0.99) and large n.
    (0.99, 3), (0.99, 4), (0.95, 30), (0.2, 3000),
)
# Run once per run, not once per pass: the longest series (~13,000 terms at
# rho=0.999, ~2 s a call) and the n=1e5 prefactor point.
_EXACT_MOMENTS_ONCE = ((0.999, 3), (0.0, 100_000))
_EXACT_DENSITY_GRIDS = tuple(
    (rho, n)
    for rho in (0.3, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999, 0.9999)
    for n in (3, 4, 5, 10, 30, 100, 300)
    if not (rho >= 0.999 and n == 300)
) + ((0.3, 1000), (0.5, 1000), (0.2, 3000), (0.0, 100_000))
_EXACT_GRID_POINTS = 101

_FORMATS = ("csv", "markdown", "jsonl")
# Moments and densities are printed with 15 decimals so the oracle
# comparison can see errors down to ~1e-15 absolute.
_EXACT_PRECISION = 15


@dataclass(frozen=True)
class Command:
    """One CLI call: its argv, its subcommand, the (rho, n) pairs it
    evaluates, and whether it is one of the Baseline failure points."""

    argv: tuple[str, ...]
    kind: str
    pairs: tuple[tuple[float, int], ...]
    baseline_failure: bool = False


def _num(x: float) -> str:
    return repr(float(x))


def _moments(rho, n, fmt="jsonl", baseline=False) -> Command:
    argv = ("moments", "--rho", _num(rho), "--n", str(n), "--m-max", "2",
            "--format", fmt, "--precision", str(_EXACT_PRECISION))
    return Command(argv, "moments", ((rho, n),), baseline)


def _density(rho, n, *, r=None, grid=None, fmt="jsonl", baseline=False) -> Command:
    where = ("--r", _num(r)) if grid is None else ("--grid", str(grid))
    argv = ("density", "--rho", _num(rho), "--n", str(n), *where,
            "--format", fmt, "--precision", str(_EXACT_PRECISION))
    return Command(argv, "density", ((rho, n),), baseline)


def _sim(kind, rhos, n, reps, seed, fmt, precision, alpha=None) -> Command:
    """A table1 or coverage call; rhos=None keeps the CLI's default list."""
    argv = [kind, "--n", str(n)]
    if rhos is None:
        rhos = PAPER_RHOS
    else:
        # The "=" form keeps argparse from reading "-0.5,..." as a flag.
        argv.append("--rho-list=" + ",".join(_num(r) for r in rhos))
    argv += ["--reps", str(reps), "--seed", str(seed), "--workers", "1"]
    if alpha is not None:
        argv += ["--alpha", _num(alpha)]
    argv += ["--format", fmt, "--precision", str(precision)]
    return Command(tuple(argv), kind, tuple((r, n) for r in rhos))


def sim_paper(seed: int, seconds: float) -> list[Command]:
    rng = random.Random(f"sim-paper:{seed}")
    count = max(12, round(_SIM_PAPER_CMDS_PER_S * seconds))
    kinds = ["table1", "coverage"] * ((count + 1) // 2)
    rng.shuffle(kinds)
    return [
        _sim(kind, None, _PAPER_N, _PAPER_REPS, rng.getrandbits(64),
             rng.choice(_FORMATS), 6, alpha=0.05 if kind == "coverage" else None)
        for kind in kinds[:count]
    ]


def exact_tails(seed: int, seconds: float) -> list[Command]:
    # The grid is fixed, so max_rel_err comes from the same points in
    # every run.  The failure points and _EXACT_MOMENTS_ONCE run once; the
    # other commands run in whole passes, each pass in its own order, so
    # each of them runs equally often and its latency is the median of its
    # passes.  The seed orders the commands and picks their output formats.
    rng = random.Random(f"exact-tails:{seed}")
    once = []
    for point in BASELINE_FAILURES:
        if point[0] == "moments":
            once.append(_moments(point[1], point[2], baseline=True))
        elif point[0] == "density-r":
            once.append(_density(point[1], point[2], r=point[3], baseline=True))
        else:
            once.append(_density(point[1], point[2], grid=point[3], baseline=True))
    for rho, n in _EXACT_MOMENTS_ONCE:
        once.append(_moments(rho, n, fmt=rng.choice(_FORMATS)))
    repeated = []
    for rho, n in _EXACT_MOMENTS_BOTH_SIGNS:
        repeated.append(_moments(rho, n, fmt=rng.choice(_FORMATS)))
        repeated.append(_moments(-rho, n, fmt=rng.choice(_FORMATS)))
    for i, (rho, n) in enumerate(_EXACT_DENSITY_GRIDS):
        sign = -1.0 if i % 2 and rho else 1.0
        repeated.append(_density(sign * rho, n, grid=_EXACT_GRID_POINTS,
                                 fmt=rng.choice(_FORMATS)))
    passes = max(1, round((seconds - _EXACT_ONCE_SECONDS) / _EXACT_PASS_SECONDS))
    cmds = []
    for _ in range(passes):
        rng.shuffle(repeated)
        cmds += repeated
    # The once-only commands go to seeded places among the passes.
    for cmd in once:
        cmds.insert(rng.randrange(len(cmds) + 1), cmd)
    return cmds


# Sweep design.  A block holds a fixed mix of subcommands; the costly
# ones (moments, simulations) follow a full design over the parameters
# that set their cost, so every seed gets the same spread of costs and
# the tail latency does not hinge on a few lucky draws.  The seed picks
# the order, the signs and other parameters, the formats and the
# simulation seeds.
_SWEEP_RHO = tuple(round(0.05 * k, 2) for k in range(-19, 20))
_SWEEP_N_BOUNDS = (3, 4, 5, 7, 10, 20, 50, 100, 300, 1000, 3000, 10_000)
_SWEEP_N_DENSITY = (3, 4, 5, 7, 10, 15, 20, 30, 50, 75, 100, 150, 200, 300)
_SWEEP_KINDS = (None, "bernstein", "c0", "c1", "c2")
# moments: every n with every |rho| stratum of width 0.125 up to 0.75,
# at the stratum's midpoint (the cost of a moments call rises steeply
# with |rho|, so a drawn |rho| would move the tail from seed to seed).
_SWEEP_MOMENT_CELLS = tuple(
    (n, k) for n in (3, 4, 5, 7, 10, 15, 20, 30, 50, 75, 100) for k in range(6)
)
# simulations: (subcommand, n, reps, number of rho values).  n=2000
# carries half of them, so the costliest commands form one group of 6 per
# block and the tail latency falls inside it.
_SWEEP_SIM_CELLS = tuple(
    (kind, n, reps, m)
    for kind in ("table1", "coverage")
    for n, reps, m in ((200, 300, 2), (500, 300, 2), (1000, 300, 2),
                       (2000, 400, 3), (2000, 400, 3), (2000, 400, 3))
)
_SWEEP_BLOCK_OTHER = (("bounds-t", 62), ("bounds-alpha", 62), ("density", 93))
_SWEEP_MIN_CMDS = 1000


def _sweep_bounds(rng: random.Random, what: str) -> Command:
    rho = rng.choice(_SWEEP_RHO)
    n = rng.choice(_SWEEP_N_BOUNDS)
    argv = ["bounds", "--rho", _num(rho), "--n", str(n)]
    if what == "bounds-t":
        argv += ["--t", _num(round(rng.uniform(0.005, 0.5), 4))]
    else:
        argv += ["--alpha", _num(rng.choice((0.001, 0.01, 0.05, 0.1, 0.2, 0.5)))]
    kind = rng.choice(_SWEEP_KINDS)
    if kind is not None:
        argv += ["--kind", kind]
    argv += ["--format", rng.choice(_FORMATS), "--precision", str(rng.choice((3, 6, 10)))]
    return Command(tuple(argv), "bounds", ((rho, n),))


def _sweep_block(rng: random.Random) -> list[Command]:
    cmds = []
    for what, count in _SWEEP_BLOCK_OTHER:
        for _ in range(count):
            if what == "density":
                rho = rng.choice([r for r in _SWEEP_RHO if abs(r) <= 0.9])
                r = round(rng.uniform(-0.95, 0.95), 4)
                cmds.append(_density(rho, rng.choice(_SWEEP_N_DENSITY), r=r,
                                     fmt=rng.choice(_FORMATS)))
            else:
                cmds.append(_sweep_bounds(rng, what))
    for n, k in _SWEEP_MOMENT_CELLS:
        rho = rng.choice((-1, 1)) * 0.125 * (k + 0.5)
        cmds.append(_moments(rho, n, fmt=rng.choice(_FORMATS)))
    for kind, n, reps, m in _SWEEP_SIM_CELLS:
        rhos = rng.sample(_SWEEP_RHO, m)
        cmds.append(_sim(kind, rhos, n, reps, rng.getrandbits(64), rng.choice(_FORMATS),
                         rng.choice((3, 6, 10)),
                         alpha=rng.choice((0.01, 0.05, 0.1)) if kind == "coverage" else None))
    return cmds


def sweep(seed: int, seconds: float) -> list[Command]:
    rng = random.Random(f"sweep:{seed}")
    block = sum(c for _, c in _SWEEP_BLOCK_OTHER) + len(_SWEEP_MOMENT_CELLS) + len(_SWEEP_SIM_CELLS)
    blocks = max(math.ceil(_SWEEP_MIN_CMDS / block), round(seconds / _SWEEP_BLOCK_SECONDS))
    cmds = [cmd for _ in range(blocks) for cmd in _sweep_block(rng)]
    rng.shuffle(cmds)
    return cmds


def commands(workload: str, seed: int, seconds: float) -> list[Command]:
    return {"sim-paper": sim_paper, "exact-tails": exact_tails, "sweep": sweep}[workload](
        seed, seconds
    )


def warmup_commands(workload: str) -> list[tuple[str, ...]]:
    """One small, untimed call of each subcommand the workload runs."""
    sims = [
        ("table1", "--n", "10", "--reps", "200", "--seed", "1", "--workers", "1"),
        ("coverage", "--n", "10", "--reps", "200", "--seed", "1", "--workers", "1"),
    ]
    exact = [
        ("moments", "--rho", "0.3", "--n", "10", "--m-max", "2"),
        ("density", "--rho", "0.3", "--n", "10", "--r", "0.1"),
        ("density", "--rho", "0.3", "--n", "10", "--grid", "5"),
    ]
    bounds = [
        ("bounds", "--rho", "0.3", "--n", "10", "--t", "0.2"),
        ("bounds", "--rho", "0.3", "--n", "10", "--alpha", "0.05"),
    ]
    return {"sim-paper": sims, "exact-tails": exact, "sweep": sims + exact + bounds}[workload]


def repeated_pair_share(cmds: list[Command]) -> float:
    """Share of (rho, n) evaluations whose pair already occurred earlier
    in the run."""
    seen, repeated, total = set(), 0, 0
    for cmd in cmds:
        for pair in cmd.pairs:
            total += 1
            repeated += pair in seen
            seen.add(pair)
    return repeated / total if total else 0.0
