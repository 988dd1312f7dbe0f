"""Deterministic Monte Carlo engine for the sample correlation coefficient.

Each replication j draws a fresh bivariate Gaussian sample of size n
from its own counter-based random stream keyed by (seed, j), computes
the sample correlation, and the replication values are then reduced in
index order.  Results are therefore bit-identical for a given
(seed, reps, params, alpha) no matter how many workers execute the
replications.  The streams of a whole chunk of replications are computed
at once (see ``streams``), bit for bit what numpy draws for each key.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .conc import Interval, TailBoundKind, coverage_interval
from .errors import DegenerateSampleError
from .params import ModelParams
from .streams import normals, prepare

__all__ = [
    "SimConfig",
    "SimSummary",
    "coverage_rate",
    "run_experiment",
    "sample_bivariate",
    "sample_correlation",
    "simulate_r_values",
]

_UINT64_MAX = 2**64 - 1

# Replications are dispatched in fixed-size chunks so the partition is
# independent of the worker count.
_CHUNK_SIZE = 4096

_COVERAGE_KINDS = (
    TailBoundKind.CONSERVATIVE,
    TailBoundKind.AGGRESSIVE,
    TailBoundKind.MEGA_AGGRESSIVE,
)


@dataclass(frozen=True)
class SimConfig:
    """One experiment: reps replications of R at the given model, with a
    64-bit seed and the nominal tail level used for coverage intervals."""

    params: ModelParams
    reps: int = 10_000
    seed: int = 2023
    alpha: float = 0.05

    def __post_init__(self):
        if self.reps < 2:
            raise ValueError(f"reps must be >= 2, got {self.reps}")
        if not 0 <= self.seed <= _UINT64_MAX:
            raise ValueError(f"seed must fit in an unsigned 64-bit integer, got {self.seed}")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha!r}")


@dataclass(frozen=True)
class SimSummary:
    """Replication summary: mean, sample sd (divisor reps - 1), the
    coverage intervals at the experiment's alpha, and the fraction of
    replications inside each.  Every replication lies in [-1, 1], so an
    interval and its clipping to [-1, 1] contain the same replications."""

    mean_r: float
    sd_r: float
    intervals: dict[TailBoundKind, Interval]
    coverage: dict[TailBoundKind, float]
    reps: int
    seed: int


def sample_bivariate(
    params: ModelParams, n: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Draw n pairs with unit Gaussian marginals and correlation rho.

    X is standard normal and Y = rho X + sqrt(1 - rho^2) Z with Z an
    independent standard normal; the sample correlation is location and
    scale invariant, so unit marginals lose nothing.  Normal variates
    come from numpy's ziggurat (Generator.standard_normal), drawn as one
    (2, n) block: row 0 is X, row 1 is Z.
    """
    if n < 3:
        raise ValueError(f"sample size n must be >= 3, got {n}")
    draws = rng.standard_normal((2, n))
    x = draws[0]
    y = params.rho * x + math.sqrt(1.0 - params.rho * params.rho) * draws[1]
    return x, y


def sample_correlation(xs, ys) -> float:
    """Pearson sample correlation with squared deviations in the
    denominator, clamped against sub-ulp excursions beyond +-1."""
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("xs and ys must be one-dimensional and of equal length")
    if x.size < 3:
        raise ValueError(f"need at least 3 pairs, got {x.size}")
    dx = x - x.mean()
    dy = y - y.mean()
    sxx = float(dx @ dx)
    syy = float(dy @ dy)
    if sxx == 0.0 or syy == 0.0:
        raise DegenerateSampleError("a coordinate has zero sample variance")
    r = float(dx @ dy) / math.sqrt(sxx * syy)
    return min(1.0, max(-1.0, r))


def _correlations(rho: float, draws: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Sample correlations of the (count, 2, n) blocks of X and Z rows, and
    # which blocks are degenerate (a coordinate with zero sample variance).
    x = draws[:, 0, :]
    y = rho * x + math.sqrt(1.0 - rho * rho) * draws[:, 1, :]
    dx = x - x.mean(axis=1, keepdims=True)
    dy = y - y.mean(axis=1, keepdims=True)
    sxx = np.einsum("ij,ij->i", dx, dx)
    syy = np.einsum("ij,ij->i", dy, dy)
    sxy = np.einsum("ij,ij->i", dx, dy)
    with np.errstate(invalid="ignore", divide="ignore"):
        r = sxy / np.sqrt(sxx * syy)
    np.clip(r, -1.0, 1.0, out=r)
    return r, (sxx == 0.0) | (syy == 0.0)


def _simulate_chunk(args) -> np.ndarray:
    # Hot path: row i of the draws is the first (2, n) block of the
    # (seed, start + i) stream, computed for the whole chunk at once.
    rho, n, seed, start, stop = args
    keys = np.arange(start, stop, dtype=np.uint64)
    r, degenerate = _correlations(rho, normals(seed, keys, 2 * n).reshape(-1, 2, n))
    for i in np.nonzero(degenerate)[0]:
        # Zero sample variance has probability zero under continuous
        # Gaussians; redraw from the next blocks of the same stream.
        count = 2 * n
        while degenerate[i]:
            count += 2 * n
            block = normals(seed, keys[i : i + 1], count)[:, -2 * n :]
            r[i : i + 1], degenerate[i : i + 1] = _correlations(rho, block.reshape(1, 2, n))
    return r


def simulate_r_values(
    params: ModelParams, reps: int, seed: int, workers: int = 1
) -> np.ndarray:
    """The replication values (r_0, ..., r_{reps-1}), in index order.

    r_j is the sample correlation of the (2, n) block, X then Z, that
    ``Generator(Philox(key=[seed, j])).standard_normal((2, n))`` draws,
    redrawn further along that stream in the probability-zero case of a
    degenerate sample.  It depends only on (seed, j, params), so the
    array is the same for every worker count and the first k values are
    the same for every reps >= k.  ``workers`` is clamped to the number
    of chunks and of CPUs.
    """
    if reps < 1:
        raise ValueError(f"reps must be >= 1, got {reps}")
    if not 0 <= seed <= _UINT64_MAX:
        raise ValueError(f"seed must fit in an unsigned 64-bit integer, got {seed}")
    chunks = [
        (params.rho, params.n, seed, start, min(start + _CHUNK_SIZE, reps))
        for start in range(0, reps, _CHUNK_SIZE)
    ]
    workers = min(workers, len(chunks), os.cpu_count() or 1)
    if workers <= 1:
        parts = [_simulate_chunk(c) for c in chunks]
    else:
        # Build the stream tables once, here, so that forked workers
        # inherit them rather than each building its own.
        prepare(2 * params.n)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_simulate_chunk, chunks))
    return np.concatenate(parts)


def coverage_rate(r_values, interval: Interval) -> float:
    """Fraction of values inside the closed interval, using the raw
    (pre-clipping) bounds."""
    r = np.asarray(r_values, dtype=float)
    if r.size == 0:
        raise ValueError("coverage_rate needs at least one value")
    return float(np.count_nonzero((r >= interval.lower) & (r <= interval.upper)) / r.size)


def run_experiment(cfg: SimConfig, workers: int = 1) -> SimSummary:
    """Run cfg.reps replications and summarize.

    Returns the replication mean and sample standard deviation plus the
    three sub-Gaussian intervals at cfg.alpha and their empirical
    coverage.  The reduction runs over the index-ordered replication
    array, so the summary is bit-identical across worker counts.
    """
    r = simulate_r_values(cfg.params, cfg.reps, cfg.seed, workers=workers)
    intervals = {
        kind: coverage_interval(kind, cfg.params, cfg.alpha) for kind in _COVERAGE_KINDS
    }
    return SimSummary(
        mean_r=float(np.mean(r)),
        sd_r=float(np.std(r, ddof=1)),
        intervals=intervals,
        coverage={kind: coverage_rate(r, iv) for kind, iv in intervals.items()},
        reps=cfg.reps,
        seed=cfg.seed,
    )
