"""Deterministic Monte Carlo engine for the sample correlation coefficient.

Each replication j draws a fresh bivariate Gaussian sample of size n
from its own counter-based random stream keyed by (seed, j), computes
the sample correlation, and the replication values are then reduced in
index order.  Results are therefore bit-identical for a given
(seed, reps, params, alpha) no matter how many workers execute the
replications.  The streams of a whole chunk of replications are computed
at once (see ``streams``), bit for bit what numpy draws for each key.

The draws of replication j do not depend on rho, so configs that share
(n, reps, seed) share them: ``run_experiment`` given a sequence of such
configs draws each chunk once, evaluates every rho on it and returns the
same summaries as separate runs (common random numbers).  Every rho is
computed from three sums of the chunk's centred draws (sxx, sxz and the
residual sum of squares of Z off X), to ~1e-14 of ``sample_correlation``
on freshly drawn samples.

A chunk holds min(2048, max(1, 1 MiB // 16n)) replications (2,048 at
n <= 32, 32 at n = 2000, one past n = 32,768), one ``streams`` pass in
the one workspace of a serial run.  Its draws take at most 1 MiB, or a
row of 16n bytes where that is larger; a run traces 1.8 MiB at n = 10
and 1.2 MiB at n = 200 and 2000 in all.  The partition depends on n
alone, and r_j on (seed, j) alone, so no chunk size changes a value.
"""

from __future__ import annotations

import math
import os
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .conc import Interval, TailBoundKind, _validate_alpha, coverage_interval
from .errors import DegenerateSampleError
from .params import ModelParams, _integer, _real_array
from .streams import _Workspace, normals, prepare

__all__ = [
    "SimConfig",
    "SimSummary",
    "coverage_rate",
    "run_experiment",
    "sample_correlation",
    "simulate_r_values",
]

_UINT64_MAX = 2**64 - 1

# Replications are dispatched in chunks of at most _CHUNK_SIZE rows and
# _CHUNK_BYTES of draws (a row is 2n float64 normals), one streams pass
# each: memory stays flat in n.  The byte bound binds past n = 32, where
# every row re-keys numpy's Philox, so 2 MiB chunks there were no faster.
# The partition depends on n alone, never on the worker count.
_CHUNK_SIZE = 2048
_CHUNK_BYTES = 2**20

_COVERAGE_KINDS = tuple(kind for kind in TailBoundKind if kind.is_sub_gaussian)


@dataclass(frozen=True)
class SimConfig:
    """One experiment: reps replications of R at the given model, a 64-bit
    seed (both stored as ints) and the nominal coverage level, a float."""

    params: ModelParams
    reps: int = 10_000
    seed: int = 2023
    alpha: float = 0.05

    def __post_init__(self):
        object.__setattr__(self, "reps", _integer("reps", self.reps))
        object.__setattr__(self, "seed", _integer("seed", self.seed))
        if self.reps < 2:
            raise ValueError(f"reps must be >= 2, got {self.reps}")
        if not 0 <= self.seed <= _UINT64_MAX:
            raise ValueError(f"seed must fit in an unsigned 64-bit integer, got {self.seed}")
        object.__setattr__(self, "alpha", _validate_alpha(self.alpha))


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


def sample_correlation(xs, ys) -> float:
    """Pearson sample correlation with squared deviations in the
    denominator, clamped against sub-ulp excursions beyond +-1.  Every
    value must be finite: the clamp would turn nan into -1.  Each
    coordinate is first scaled by the power of two that brings its largest
    |value| into [1/2, 1): the scaling is exact, so no sum overflows or
    underflows at any scale, and r keeps its bits wherever unscaled sums
    would have stayed in range."""
    x, y = np.asarray(xs), np.asarray(ys)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("xs and ys must be one-dimensional and of equal length")
    if x.size < 3:
        raise ValueError(f"need at least 3 pairs, got {x.size}")
    x, y = _real_array("xs", xs, x, "be finite"), _real_array("ys", ys, y, "be finite")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValueError("xs and ys must be finite")
    x, y = (np.ldexp(v, -np.frexp(np.abs(v).max())[1]) for v in (x, y))
    dx = x - x.mean()
    dy = y - y.mean()
    sxx = float(dx @ dx)
    syy = float(dy @ dy)
    if sxx == 0.0 or syy == 0.0:
        raise DegenerateSampleError("a coordinate has zero sample variance")
    r = float(dx @ dy) / math.sqrt(sxx * syy)
    return min(1.0, max(-1.0, r))


def _correlations(rhos, draws: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Sample correlations of the (count, 2, n) blocks of X and Z rows at
    # each rho, and which blocks are degenerate (a coordinate with zero
    # sample variance), both (len(rhos), count); draws is centred in place
    # and X's rows overwritten.  With Z = beta X + e split by least squares,
    # Y = a X + b Z has sxy = a sxx + b sxz and sxx syy = sxy^2 + b^2 sxx see,
    # a sum of two nonnegative terms: nothing cancels, a rho costs O(count).
    draws -= draws.mean(axis=2, keepdims=True)
    dx, dz = draws[:, 0, :], draws[:, 1, :]
    sxx = np.einsum("ij,ij->i", dx, dx)
    sxz = np.einsum("ij,ij->i", dx, dz)
    beta = np.divide(sxz, sxx, out=np.zeros_like(sxx), where=sxx != 0.0)
    dx *= beta[:, None]  # beta X, in X's rows: no (count, n) temporary
    dz -= dx  # now the residual e
    see = np.einsum("ij,ij->i", dz, dz)
    a = np.asarray(rhos, dtype=float)[:, None]
    b = np.sqrt(1.0 - a * a)
    sxy = a * sxx
    sxy += b * sxz
    den = (b * b) * (sxx * see)
    den += sxy * sxy
    with np.errstate(invalid="ignore", divide="ignore"):
        r = np.divide(sxy, np.sqrt(den, out=den), out=sxy)  # den's root is 0 where den is
    np.clip(r, -1.0, 1.0, out=r)
    return r, (sxx == 0.0) | (den == 0.0)


def _simulate_chunk(args, ws=None) -> np.ndarray:
    # Hot path: row i of the draws is the first (2, n) block of the
    # (seed, start + i) stream, computed for the whole chunk at once, in
    # ws if given, and shared by every rho.
    rhos, n, seed, start, stop = args
    keys = np.arange(start, stop, dtype=np.uint64)
    r, degenerate = _correlations(rhos, normals(seed, keys, 2 * n, ws).reshape(-1, 2, n))
    for k, i in zip(*np.nonzero(degenerate)):
        # Zero sample variance has probability zero under continuous
        # Gaussians; redraw from the next blocks of the same stream.
        count = 2 * n
        while degenerate[k, i]:
            count += 2 * n
            block = normals(seed, keys[i : i + 1], count)[:, -2 * n :]
            r[k : k + 1, i : i + 1], degenerate[k : k + 1, i : i + 1] = _correlations(
                rhos[k : k + 1], block.reshape(1, 2, n)
            )
    return r


def _simulate(rhos: tuple, n: int, reps: int, seed: int, workers: int) -> np.ndarray:
    # The (len(rhos), reps) replication values: each chunk's normals are
    # drawn once for every rho, in one workspace or in at most one pool.
    reps, seed = _integer("reps", reps), _integer("seed", seed)
    workers = _integer("workers", workers)
    if reps < 1:
        raise ValueError(f"reps must be >= 1, got {reps}")
    if not 0 <= seed <= _UINT64_MAX:
        raise ValueError(f"seed must fit in an unsigned 64-bit integer, got {seed}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    rows = min(_CHUNK_SIZE, max(1, _CHUNK_BYTES // (16 * n)))
    starts = range(0, reps, rows)
    workers = min(workers, len(starts), os.cpu_count() or 1)
    r = np.empty((len(rhos), reps))  # first: too large a run fails before its first draw
    chunks = ((rhos, n, seed, start, min(start + rows, reps)) for start in starts)
    tables = prepare(2 * n)  # here, so that forked workers inherit them
    if workers == 1:
        ws = _Workspace(rows, 2 * n, tables)
        for start, c in zip(starts, chunks):
            r[:, start:start + rows] = _simulate_chunk(c, ws)
    else:
        # Imported here, where a pool forks: a serial run loads no multiprocessing.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            for start, part in zip(starts, pool.map(_simulate_chunk, chunks)):
                r[:, start:start + rows] = part
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
    the same for every reps >= k.  ``workers`` must be >= 1 and is
    clamped to the number of CPUs and of chunks, ceil(reps / rows) with
    rows = min(2048, max(1, 1 MiB // 16n)): up to 2,048 replications
    are one chunk, and so run serially, at n <= 32, but only up to 32 at
    n = 2000.
    """
    return _simulate((params.rho,), params.n, reps, seed, workers)[0]


def coverage_rate(r_values, interval: Interval) -> float:
    """Fraction of r_values, a 1-D sequence or array of real numbers, inside
    the closed interval, using the raw (pre-clipping) bounds."""
    r = np.asarray(r_values)
    if r.ndim != 1:
        raise ValueError(f"r_values must be a 1-D sequence, got {r.ndim} dimensions")
    r = _real_array("r_values", r_values, r, "fit a float")
    if r.size == 0:
        raise ValueError("coverage_rate needs at least one value")
    return float(np.count_nonzero((r >= interval.lower) & (r <= interval.upper)) / r.size)


def _summarize(cfg: SimConfig, r: np.ndarray) -> SimSummary:
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


def run_experiment(
    cfg: SimConfig | Sequence[SimConfig], workers: int = 1
) -> SimSummary | list[SimSummary]:
    """Run cfg.reps replications and summarize.

    Returns the replication mean and sample standard deviation plus the
    three sub-Gaussian intervals at cfg.alpha and their empirical
    coverage.  The reduction runs over the index-ordered replication
    array, so the summary is bit-identical across worker counts.

    A sequence of configs that share n, reps and seed returns a list of
    summaries, in order, equal to running each config alone: replication
    j of every config uses the same draws (common random numbers), which
    are drawn once for all of them.
    """
    cfgs = [cfg] if isinstance(cfg, SimConfig) else list(cfg)
    if not cfgs:
        raise ValueError("run_experiment needs at least one SimConfig")
    first = cfgs[0]
    key = (first.params.n, first.reps, first.seed)
    if any((c.params.n, c.reps, c.seed) != key for c in cfgs):
        raise ValueError("the configs of one run must share n, reps and seed")
    r = _simulate(tuple(c.params.rho for c in cfgs), *key, workers)
    summaries = [_summarize(c, row) for c, row in zip(cfgs, r)]
    return summaries[0] if isinstance(cfg, SimConfig) else summaries
