import dataclasses
import hashlib
import json
import math
import os
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from corrconc import (
    DegenerateSampleError,
    InfeasibleLevelError,
    ModelParams,
    SimConfig,
    TailBoundKind,
    coverage_interval,
    coverage_rate,
    exact_variance,
    moment,
    run_experiment,
    sample_correlation,
    simulate_r_values,
)
from corrconc import mcsim, streams


def _serial_pool(monkeypatch, record=lambda workers: workers):
    """Replace mcsim's process pool by a serial stand-in, so nothing is
    forked; each pool appends record(max_workers) to the returned list."""
    seen = []

    class SerialPool:
        def __init__(self, max_workers):
            seen.append(record(max_workers))

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(mcsim, "ProcessPoolExecutor", SerialPool)
    return seen


def _fresh_r(params, seed, j, block=0):
    # r from the given (2, n) block of a freshly constructed (seed, j) stream.
    draws = np.random.Generator(np.random.Philox(key=[seed, j])).standard_normal(
        (block + 1, 2, params.n)
    )
    x = draws[block, 0]
    y = params.rho * x + math.sqrt(1.0 - params.rho**2) * draws[block, 1]
    return sample_correlation(x, y)


class TestSampleCorrelation:
    def test_perfect_positive(self):
        xs = np.array([0.3, 1.7, -2.2, 0.9])
        assert sample_correlation(xs, xs) == 1.0

    def test_perfect_negative(self):
        xs = np.array([0.3, 1.7, -2.2, 0.9])
        assert sample_correlation(xs, -xs) == -1.0

    def test_hand_computed_value(self):
        # deviations (-1, 0, 1) and (-4/3, -1/3, 5/3): r = 3 / sqrt(2 * 14/3)
        r = sample_correlation([1.0, 2.0, 3.0], [1.0, 2.0, 4.0])
        assert r == pytest.approx(3.0 / math.sqrt(2.0 * 14.0 / 3.0), rel=1e-14)
        assert r == pytest.approx(0.98198, abs=1e-5)

    def test_zero_variance_raises(self):
        with pytest.raises(DegenerateSampleError):
            sample_correlation([1.0, 1.0, 1.0], [0.5, 1.2, 2.0])
        with pytest.raises(DegenerateSampleError):
            sample_correlation([0.5, 1.2, 2.0], [4.0, 4.0, 4.0])

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            sample_correlation([1.0, 2.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            sample_correlation([1.0, 2.0, 3.0], [1.0, 2.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_input_raises(self, bad):
        # The final clamp would otherwise turn nan into -1.0.
        with pytest.raises(ValueError, match="finite"):
            sample_correlation([1.0, 2.0, bad, 4.0], [1.0, 3.0, 2.0, 5.0])
        with pytest.raises(ValueError, match="finite"):
            sample_correlation([1.0, 3.0, 2.0, 5.0], [1.0, 2.0, 4.0, bad])

    def test_stays_inside_unit_interval(self):
        # Pairs at rho = 0.999 and n = 4, where r often lies close to 1.
        rho = 0.999
        rng = np.random.Generator(np.random.Philox(key=5))
        for _ in range(200):
            x, z = rng.standard_normal((2, 4))
            y = rho * x + math.sqrt(1.0 - rho * rho) * z
            assert -1.0 <= sample_correlation(x, y) <= 1.0


class TestCoverageRate:
    def _interval(self, lo, hi):
        iv = coverage_interval(TailBoundKind.AGGRESSIVE, ModelParams(rho=0.0, n=10), 0.05)
        return type(iv)(lower=lo, upper=hi, level=0.95, kind=iv.kind, clipped=False)

    def test_all_inside(self):
        assert coverage_rate([0.1, -0.2, 0.0], self._interval(-0.5, 0.5)) == 1.0

    def test_superset_of_support(self):
        values = np.linspace(-1, 1, 101)
        assert coverage_rate(values, self._interval(-2.0, 2.0)) == 1.0

    def test_partial(self):
        assert coverage_rate([-0.5, 0.0, 0.5], self._interval(-0.1, 0.6)) == pytest.approx(2 / 3)

    def test_closed_endpoints(self):
        assert coverage_rate([0.25], self._interval(0.25, 0.5)) == 1.0
        assert coverage_rate([0.5], self._interval(0.25, 0.5)) == 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            coverage_rate([], self._interval(-1.0, 1.0))


class TestDeterminism:
    def test_bitwise_repeatability(self):
        cfg = SimConfig(params=ModelParams(rho=0.56, n=10), reps=5000, seed=77)
        assert run_experiment(cfg) == run_experiment(cfg)

    def test_worker_count_invariance(self):
        params = ModelParams(rho=-0.75, n=10)
        serial = simulate_r_values(params, 9000, 123, workers=1)
        parallel = simulate_r_values(params, 9000, 123, workers=3)
        assert np.array_equal(serial, parallel)

    def test_chunked_stream_matches_fresh_streams(self):
        # The chunk path computes the streams of all its keys at once; it
        # must reproduce exactly what independently constructed (seed, j)
        # streams produce.  9000 values span five chunks.
        params = ModelParams(rho=0.56, n=10)
        batch = simulate_r_values(params, 9000, 2023)
        fresh = [_fresh_r(params, 2023, j) for j in range(9000)]
        assert np.allclose(batch, fresh, rtol=0, atol=1e-14)

    def test_prefix_property(self):
        params = ModelParams(rho=0.56, n=10)
        short = simulate_r_values(params, 100, 41)
        long = simulate_r_values(params, 5000, 41)
        assert np.array_equal(short, long[:100])

    def test_degenerate_sample_is_redrawn(self, monkeypatch):
        # Replication 5 of every chunk gets a constant X row in its first
        # two (2, n) blocks, so its value must come from the third block of
        # its own stream, the same for any worker count; every other
        # replication is left alone.
        params = ModelParams(rho=0.56, n=10)
        real_normals = mcsim.normals

        def constant_rows(seed, keys, count, ws=None):
            out = real_normals(seed, keys, count, ws)
            if count <= 4 * params.n:
                out[keys % mcsim._CHUNK_SIZE == 5, count - 2 * params.n : count - params.n] = 0.5
            return out

        clean = simulate_r_values(params, 9000, 7)
        monkeypatch.setattr(mcsim, "normals", constant_rows)
        serial = simulate_r_values(params, 9000, 7, workers=1)
        parallel = simulate_r_values(params, 9000, 7, workers=2)
        patched = list(range(5, 9000, mcsim._CHUNK_SIZE))
        assert np.all(np.isfinite(serial))
        assert np.array_equal(serial, parallel)
        assert np.array_equal(np.delete(serial, patched), np.delete(clean, patched))
        redrawn = [_fresh_r(params, 7, j, block=2) for j in patched]
        assert np.allclose(serial[patched], redrawn, rtol=0, atol=1e-14)
        assert not np.allclose(serial[patched], clean[patched], rtol=0, atol=1e-14)

    def test_workers_clamped_to_chunks_and_cpus(self, monkeypatch):
        # Each pool records the worker count, and whether the stream tables
        # were already built for workers to inherit.
        seen = _serial_pool(
            monkeypatch, lambda workers: (workers, streams._ziggurat_tables.cache_info().currsize))
        params = ModelParams(rho=0.0, n=10)
        serial = simulate_r_values(params, 9000, 3)
        for cpus in (64, 2):
            monkeypatch.setattr(os, "cpu_count", lambda: cpus)
            streams._ziggurat_tables.cache_clear()
            assert np.array_equal(simulate_r_values(params, 9000, 3, workers=10_000), serial)
        # 9000 replications are five 2,048-row chunks.
        assert seen == [(5, 1), (2, 1)]

    def test_different_seeds_differ(self):
        params = ModelParams(rho=0.0, n=10)
        a = simulate_r_values(params, 100, 1)
        b = simulate_r_values(params, 100, 2)
        assert not np.array_equal(a, b)

    def test_values_are_pinned(self):
        # Every byte of serial runs on the vector path (n <= 20) and on
        # numpy's (n = 200), one, two and five chunks long, at seeds from
        # both ends of 64 bits.  The digest was taken with numpy 2.4 on
        # x86-64 before the streams took a workspace; a numpy that sums the
        # reductions in another order changes it without any draw changing.
        digest = hashlib.sha256()
        for n in (3, 5, 10, 20, 200):
            for reps in (2, 2049, 10_000):
                for seed in (0, 2023, 2**64 - 1):
                    values = mcsim._simulate((0.0, 0.56, -0.75, 0.95), n, reps, seed, 1)
                    digest.update(values.tobytes())
        assert digest.hexdigest() == (
            "5fe00c706e571457255cab2319f12a7ad52d224d16f7052eec0cc1f46e049e21")


class TestRunExperiment:
    def test_uncorrelated_reference_row(self):
        cfg = SimConfig(params=ModelParams(rho=0.0, n=10), reps=10_000, seed=2023)
        summary = run_experiment(cfg)
        assert abs(summary.mean_r) <= 0.013
        assert summary.sd_r == pytest.approx(0.332, abs=0.01)

    def test_strong_correlation_tightest_interval(self):
        cfg = SimConfig(params=ModelParams(rho=0.95, n=10), reps=10_000, seed=2023)
        summary = run_experiment(cfg)
        coverage = summary.coverage[TailBoundKind.MEGA_AGGRESSIVE]
        assert coverage == pytest.approx(0.952, abs=0.015)

    def test_degenerate_case(self):
        cfg = SimConfig(params=ModelParams(rho=1.0, n=10), reps=200, seed=9)
        summary = run_experiment(cfg)
        assert summary.mean_r == 1.0
        assert summary.sd_r == 0.0
        assert all(v == 1.0 for v in summary.coverage.values())

    def test_coverage_nesting(self):
        for rho in (0.0, 0.56, 0.95):
            cfg = SimConfig(params=ModelParams(rho=rho, n=10), reps=4000, seed=31)
            summary = run_experiment(cfg)
            c0 = summary.coverage[TailBoundKind.CONSERVATIVE]
            c1 = summary.coverage[TailBoundKind.AGGRESSIVE]
            c2 = summary.coverage[TailBoundKind.MEGA_AGGRESSIVE]
            assert c0 >= c1 >= c2

    def test_clipped_coverage_matches_raw_for_closed_intervals(self):
        # Every replication lies in [-1, 1], so clipping the closed
        # interval cannot change which values it contains: the summary
        # counts coverage once, and the CLI's clipped column repeats it.
        cfg = SimConfig(params=ModelParams(rho=0.25, n=5), reps=3000, seed=8)
        r = simulate_r_values(cfg.params, cfg.reps, cfg.seed)
        assert np.all(np.abs(r) <= 1.0)
        summary = run_experiment(cfg)
        assert any(iv.clipped for iv in summary.intervals.values())
        for kind, iv in summary.intervals.items():
            lo, hi = max(iv.lower, -1.0), min(iv.upper, 1.0)
            clipped = dataclasses.replace(iv, lower=lo, upper=hi)
            assert coverage_rate(r, clipped) == summary.coverage[kind]

    def test_config_validation(self):
        params = ModelParams(rho=0.0, n=10)
        with pytest.raises(ValueError):
            SimConfig(params=params, reps=1)
        with pytest.raises(ValueError):
            SimConfig(params=params, reps=100, seed=-1)
        with pytest.raises(ValueError):
            SimConfig(params=params, reps=100, seed=2**64)
        with pytest.raises(ValueError):
            SimConfig(params=params, reps=100, alpha=1.0)

    def test_counts_and_seeds_are_integers(self):
        # A float would be truncated (seed 1.5 ran as seed 1); operator.index
        # refuses it, while numpy integers pass with their values.
        params = ModelParams(rho=0.56, n=10)
        for field, value in (("seed", 1.5), ("seed", 1.0), ("reps", 100.0)):
            with pytest.raises(TypeError, match=f"{field} must be an integer"):
                SimConfig(params=params, **{field: value})
        for reps, seed, workers in ((5, 1.5, 1), (5.0, 1, 1), (5, 1, 1.0)):
            with pytest.raises(TypeError, match="must be an integer"):
                simulate_r_values(params, reps, seed, workers)
        assert np.array_equal(
            simulate_r_values(params, np.int64(5), np.uint64(1)), simulate_r_values(params, 5, 1)
        )

    def test_numpy_integer_fields_are_stored_as_int(self):
        # A SimSummary serialises as is: json.dumps refuses numpy integers
        # and np.float32; alpha is stored as the float the level rule returns.
        cfg = SimConfig(params=ModelParams(rho=0.56, n=10), reps=np.int64(100), seed=np.uint64(7),
                        alpha=np.float32(0.05))
        assert type(cfg.reps) is int and type(cfg.seed) is int
        assert type(cfg.alpha) is float and cfg.alpha == float(np.float32(0.05))
        summary = run_experiment(cfg)
        assert json.loads(json.dumps([summary.reps, summary.seed])) == [100, 7]
        assert json.loads(json.dumps(cfg.alpha)) == cfg.alpha

    def test_infeasible_alpha(self):
        # The level rule is conc's: alpha >= 2 is never attained.
        with pytest.raises(InfeasibleLevelError):
            SimConfig(params=ModelParams(rho=0.0, n=10), reps=100, alpha=3.0)


class TestSharedDraws:
    """A sequence of configs is simulated on one set of draws (common
    random numbers) and gives exactly what separate runs give."""

    RHOS = (0.0, -0.25, 0.56, -0.75, 0.95, 1.0, -1.0)

    @staticmethod
    def _cfgs(rhos, n=10, reps=9000, seed=5):
        return [SimConfig(params=ModelParams(rho=rho, n=n), reps=reps, seed=seed) for rho in rhos]

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("n", [3, 10, 25])
    def test_sequence_equals_separate_runs(self, n, workers):
        # 9000 replications span five chunks; n = 25 draws its rows
        # through numpy one key at a time.
        cfgs = self._cfgs(self.RHOS, n=n)
        assert run_experiment(cfgs, workers=workers) == [run_experiment(c) for c in cfgs]

    def test_single_config_returns_one_summary(self):
        (cfg,) = self._cfgs((0.3,), reps=100)
        assert isinstance(run_experiment(cfg), mcsim.SimSummary)
        assert run_experiment((cfg,)) == [run_experiment(cfg)]

    def test_alpha_may_differ(self):
        cfgs = [SimConfig(params=ModelParams(rho=0.3, n=10), reps=500, seed=1, alpha=a)
                for a in (0.05, 0.2)]
        assert run_experiment(cfgs) == [run_experiment(c) for c in cfgs]

    def test_degenerate_redraw_is_per_rho(self, monkeypatch):
        # Replication 5 of every chunk gets a constant Z row in its first
        # two (2, n) blocks.  At rho = 0 that makes Y constant, so the
        # value comes from the third block of its own stream; at any other
        # rho the sample is not degenerate and is kept.
        n = 10
        real_normals = mcsim.normals

        def constant_rows(seed, keys, count, ws=None):
            out = real_normals(seed, keys, count, ws)
            if count <= 4 * n:
                out[keys % mcsim._CHUNK_SIZE == 5, count - n : count] = 0.5
            return out

        monkeypatch.setattr(mcsim, "normals", constant_rows)
        rhos = (0.56, 0.0, 1.0)
        shared = mcsim._simulate(rhos, n, 9000, 7, 1)
        for k, rho in enumerate(rhos):
            assert np.array_equal(shared[k], simulate_r_values(ModelParams(rho=rho, n=n), 9000, 7))
        patched = list(range(5, 9000, mcsim._CHUNK_SIZE))
        redrawn = [_fresh_r(ModelParams(rho=0.0, n=n), 7, j, block=2) for j in patched]
        assert np.allclose(shared[1][patched], redrawn, rtol=0, atol=1e-14)
        assert np.all(np.isfinite(shared))
        assert np.all(shared[2] == 1.0)

    def test_normals_drawn_once_per_chunk(self, monkeypatch):
        # One normals call per chunk, and each is one streams pass, made in
        # the run's one workspace.
        calls, passes, spaces = [], [], []
        real_normals, real_fill = mcsim.normals, streams._vector_fill

        def counting(seed, keys, count, ws=None):
            calls.append((len(keys), count))
            spaces.append(ws)
            return real_normals(seed, keys, count, ws)

        def counting_fill(ws, seed, keys):
            passes.append((int(keys[0]), int(keys[-1]) + 1))
            return real_fill(ws, seed, keys)

        streams.prepare(20)  # building the tables makes a pass of its own
        monkeypatch.setattr(mcsim, "normals", counting)
        monkeypatch.setattr(streams, "_vector_fill", counting_fill)
        run_experiment(self._cfgs(self.RHOS[:5]))
        assert calls == [(2048, 20)] * 4 + [(808, 20)]
        assert passes == [(0, 2048), (2048, 4096), (4096, 6144), (6144, 8192), (8192, 9000)]
        assert spaces[0] is not None and all(ws is spaces[0] for ws in spaces)

    def test_one_pool_per_call(self, monkeypatch):
        pools = _serial_pool(monkeypatch)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        cfgs = self._cfgs(self.RHOS[:5])
        shared = run_experiment(cfgs, workers=2)
        assert pools == [2]
        assert shared == [run_experiment(c, workers=2) for c in cfgs]
        assert pools == [2] * 6

    @pytest.mark.parametrize("change", [
        {"params": ModelParams(rho=0.0, n=11)}, {"reps": 101}, {"seed": 4},
    ])
    def test_mismatched_configs_rejected(self, change):
        (cfg,) = self._cfgs((0.0,), reps=100)
        with pytest.raises(ValueError, match="share"):
            run_experiment([cfg, dataclasses.replace(cfg, **change)])

    def test_empty_sequence_rejected(self):
        with pytest.raises(ValueError):
            run_experiment([])

    @pytest.mark.parametrize("workers", [0, -3])
    def test_workers_below_one_rejected(self, workers):
        with pytest.raises(ValueError, match="workers must be >= 1"):
            simulate_r_values(ModelParams(rho=0.0, n=10), 100, 1, workers=workers)

    def test_reps_below_one_rejected(self):
        # simulate_r_values builds no SimConfig, so _simulate's own check runs.
        with pytest.raises(ValueError, match="reps must be >= 1, got 0"):
            simulate_r_values(ModelParams(rho=0.0, n=10), 0, 1)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_64_bits_rejected(self, seed):
        message = f"seed must fit in an unsigned 64-bit integer, got {seed}"
        with pytest.raises(ValueError, match=message):
            simulate_r_values(ModelParams(rho=0.0, n=10), 100, seed)


class TestChunkSize:
    """A chunk holds at most _CHUNK_SIZE rows and _CHUNK_BYTES of draws,
    so memory stays flat in n, and the partition never changes a value:
    r_j depends only on (seed, j)."""

    RHOS = (0.3, -0.5, 0.7)

    @pytest.fixture
    def pools(self, monkeypatch):
        pools = _serial_pool(monkeypatch)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        return pools

    @staticmethod
    def _recording(monkeypatch):
        # Record the keys and count of every normals call.
        calls = []
        real_normals = mcsim.normals

        def recording(seed, keys, count, ws=None):
            calls.append((keys.copy(), count))
            return real_normals(seed, keys, count, ws)

        monkeypatch.setattr(mcsim, "normals", recording)
        return calls

    def test_workspace_replaces_the_pass_temporaries(self):
        # One workspace serves every chunk of a serial run at the paper's
        # n = 10.  Allocating each pass's arrays afresh peaked at 2,507,594
        # bytes here, so the workspace must not add to what it replaced.
        streams.prepare(20)  # the tables are built once per process
        tracemalloc.start()
        try:
            mcsim._simulate((0.0, -0.25, 0.56, -0.75, 0.95), 10, 10_000, 2023, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2_507_594

    @pytest.mark.parametrize("n, reps", [(200, 400), (2000, 400), (20_000, 100)])
    def test_memory_is_flat_in_n(self, n, reps):
        # 4096-row chunks peaked at 18.5 and 45.8 MiB at n = 2000 and 20,000.
        # On numpy's path the workspace is the chunk's draws alone, and the
        # residual is formed in X's rows: a (rows, n) temporary would add
        # half a workspace, which a quarter leaves no room for.
        rows = min(mcsim._CHUNK_SIZE, max(1, mcsim._CHUNK_BYTES // (16 * n)))
        mcsim._simulate(self.RHOS, n, 2, 5, 1)  # a process's first run imports numpy.random
        tracemalloc.start()
        try:
            mcsim._simulate(self.RHOS, n, reps, 5, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * rows * 16 * n

    @pytest.mark.parametrize(
        "n, rows",[(3, 2048), (32, 2048), (33, 2048), (64, 2048), (65, 2016), (2000, 65)]
    )
    def test_rows_per_chunk(self, monkeypatch, n, rows):
        calls = self._recording(monkeypatch)
        mcsim._simulate(self.RHOS, n, 2 * rows + 1, 5, 1)
        assert [len(keys) for keys, _ in calls] == [rows, rows, 1]

    def test_partition_does_not_change_values(self, monkeypatch, pools):
        # n = 10 fills its rows on the vector path, here in chunks of 1, 7
        # and 4,096 rows as well as the default 2,048.
        vector = mcsim._simulate(self.RHOS, 10, 5000, 11, 1)
        for size in (1, 7, 4096):
            with monkeypatch.context() as patch:
                patch.setattr(mcsim, "_CHUNK_SIZE", size)
                for workers in (1, 2):
                    assert np.array_equal(mcsim._simulate(self.RHOS, 10, 5000, 11, workers), vector)
        assert pools == [2] * 3
        pools.clear()
        n, reps = 2000, 400
        calls = self._recording(monkeypatch)
        serial = mcsim._simulate(self.RHOS, n, reps, 11, 1)
        assert np.array_equal(np.concatenate([keys for keys, _ in calls]), np.arange(reps))
        assert all(count == 2 * n and 8 * count * len(keys) <= 2 * 2**20
                   for keys, count in calls)
        assert np.array_equal(mcsim._simulate(self.RHOS, n, reps, 11, 2), serial)
        for rows in (1, 7):
            monkeypatch.setattr(mcsim, "_CHUNK_BYTES", 16 * n * rows)
            for workers in (1, 2):
                assert np.array_equal(mcsim._simulate(self.RHOS, n, reps, 11, workers), serial)
        assert pools == [2] * 3

    def test_degenerate_redraw_across_chunk_edges(self, monkeypatch, pools):
        # At n = 100 a chunk is 1,310 rows, drawn on numpy's path.
        self._redraw_across_chunk_edges(monkeypatch, pools, 100, 1310)

    def test_degenerate_redraw_across_chunk_edges_on_the_vector_path(self, monkeypatch, pools):
        # At n = 10 a chunk is 2,048 rows, drawn in a workspace.
        self._redraw_across_chunk_edges(monkeypatch, pools, 10, 2048)

    @staticmethod
    def _redraw_across_chunk_edges(monkeypatch, pools, n, rows):
        # The first and last replications and the two either side of the
        # first chunk boundary get a constant X row in their first two
        # (2, n) blocks, so their values come from the third block of their
        # own streams, under any partition and worker count; no redraw
        # writes where a chunk's draws are.
        params = ModelParams(rho=0.56, n=n)
        reps, seed = 3000, 7
        patched = [0, rows - 1, rows, reps - 1]
        real_normals = mcsim.normals
        sizes, draws, redraws = [], [], []

        def constant_rows(seed, keys, count, ws=None):
            if count == 2 * params.n:
                sizes.append(len(keys))
            out = real_normals(seed, keys, count, ws)
            (draws if count == 2 * params.n else redraws).append(out)
            if count <= 4 * params.n:
                out[np.isin(keys, patched), count - 2 * params.n : count - params.n] = 0.5
            return out

        clean = simulate_r_values(params, reps, seed)
        monkeypatch.setattr(mcsim, "normals", constant_rows)
        serial = simulate_r_values(params, reps, seed)
        chunks = [min(rows, reps - start) for start in range(0, reps, rows)]
        assert sizes[: len(chunks)] == chunks
        assert len(redraws) == 2 * len(patched)  # the second block is constant too
        assert not any(np.shares_memory(r, d) for r in redraws for d in draws)
        assert np.array_equal(simulate_r_values(params, reps, seed, workers=2), serial)
        monkeypatch.setattr(mcsim, "_CHUNK_BYTES", 16 * params.n)
        assert np.array_equal(simulate_r_values(params, reps, seed), serial)
        assert pools == [2]
        assert np.all(np.isfinite(serial))
        assert np.array_equal(np.delete(serial, patched), np.delete(clean, patched))
        redrawn = [_fresh_r(params, seed, j, block=2) for j in patched]
        assert np.allclose(serial[patched], redrawn, rtol=0, atol=1e-14)
        assert not np.allclose(serial[patched], clean[patched], rtol=0, atol=1e-14)


def _stream_draws(n, reps, seed=2023):
    # The (reps, 2, n) blocks of X and Z rows that replications 0..reps-1 draw.
    return streams.normals(seed, np.arange(reps, dtype=np.uint64), 2 * n).reshape(-1, 2, n)


def _mp_correlations(rhos, draws):
    # r of Y = rho X + fl(sqrt(1 - rho^2)) Z on each block, at 40 digits.
    out = np.empty((len(rhos), len(draws)))
    with mp.workdps(40):
        for i, (xs, zs) in enumerate(draws):
            x = [mp.mpf(float(v)) for v in xs]
            z = [mp.mpf(float(v)) for v in zs]
            mx, mz = mp.fsum(x) / len(x), mp.fsum(z) / len(z)
            dx = [v - mx for v in x]
            dz = [v - mz for v in z]
            sxx = mp.fsum(v * v for v in dx)
            szz = mp.fsum(v * v for v in dz)
            sxz = mp.fsum(u * v for u, v in zip(dx, dz))
            for k, rho in enumerate(rhos):
                a, b = mp.mpf(rho), mp.mpf(math.sqrt(1.0 - rho * rho))
                sxy = a * sxx + b * sxz
                syy = a * a * sxx + 2 * a * b * sxz + b * b * szz
                out[k, i] = float(sxy / mp.sqrt(sxx * syy))
    return out


class TestCorrelationKernel:
    """mcsim._correlations: every rho of a chunk from sxx, sxz and the
    residual sum of Z off X."""

    RHOS = (0.0, -0.25, 0.56, -0.75, 0.95, 0.999)

    @pytest.mark.parametrize("n, reps, tol", [(3, 3000, 2e-14), (10, 20, 1e-15), (2000, 20, 1e-15)])
    def test_against_mpmath(self, n, reps, tol):
        # At n = 3 some of the 3,000 blocks have nearly collinear X and Z
        # rows, where r at rho != 0 is ill-conditioned in the draws.
        draws = _stream_draws(n, reps)
        want = _mp_correlations(self.RHOS, draws)
        r, degenerate = mcsim._correlations(self.RHOS, draws.copy())
        assert not degenerate.any()
        assert np.max(np.abs(r - want)) <= tol

    def test_unit_correlation_is_exact(self):
        r, degenerate = mcsim._correlations((1.0, -1.0), _stream_draws(10, 500))
        assert not degenerate.any()
        assert np.all(r[0] == 1.0) and np.all(r[1] == -1.0)

    def test_constant_rows(self):
        # Block 1 has a constant X row, block 2 a constant Z row: Y is
        # constant only for block 2 at rho = 0.
        rhos = (0.56, 0.0, -0.75, 1.0, -1.0)
        draws = _stream_draws(10, 4)
        draws[1, 0] = 0.5
        draws[2, 1] = -1.25
        r, degenerate = mcsim._correlations(rhos, draws)
        assert np.all(degenerate[:, 1])
        assert list(degenerate[:, 2]) == [rho == 0.0 for rho in rhos]
        assert not degenerate[:, [0, 3]].any()
        assert np.all(np.abs(r[~degenerate]) <= 1.0)
        assert np.array_equal(r[[0, 2, 3, 4], 2], [1.0, -1.0, 1.0, -1.0])


class TestDomain:
    # rho over [-1, 1] and 3 <= n <= 64 with few replications: every value
    # is finite and in [-1, 1], and a run over several rho gives exactly
    # what separate runs give.
    @given(
        rhos=st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=1, max_size=4),
        n=st.integers(min_value=3, max_value=64),
        reps=st.integers(min_value=2, max_value=50),
        seed=st.integers(min_value=0, max_value=2**64 - 1),
    )
    @example(rhos=[1.0, -1.0, 0.0], n=3, reps=50, seed=2023)
    @example(rhos=[1.0 - 2.0**-53, -(1.0 - 2.0**-53), 5e-324, -5e-324], n=64, reps=50, seed=0)
    @settings(max_examples=100, deadline=None)
    @pytest.mark.filterwarnings("error")
    def test_finite_and_shared(self, rhos, n, reps, seed):
        cfgs = [SimConfig(params=ModelParams(rho=rho, n=n), reps=reps, seed=seed) for rho in rhos]
        separate = [simulate_r_values(c.params, reps, seed, workers=1) for c in cfgs]
        for r in separate:
            assert np.all(np.abs(r) <= 1.0)
        assert np.array_equal(mcsim._simulate(tuple(rhos), n, reps, seed, 1), separate)
        summaries = run_experiment(cfgs, workers=1)
        assert summaries == [run_experiment(c, workers=1) for c in cfgs]
        for s in summaries:
            assert math.isfinite(s.mean_r) and math.isfinite(s.sd_r)
            assert all(0.0 <= c <= 1.0 for c in s.coverage.values())


class TestStatisticalAgreement:
    @pytest.mark.parametrize("n", [3, 5, 10, 30, 100])
    @pytest.mark.parametrize("rho", [0.0, -0.25, 0.56, -0.75, 0.95])
    def test_mean_and_variance_match_exact(self, rho, n):
        params = ModelParams(rho=rho, n=n)
        reps = 100_000
        r = simulate_r_values(params, reps, 2023)
        mean = float(np.mean(r))
        sd = float(np.std(r, ddof=1))
        assert abs(mean - moment(1, params).value) <= 4.0 * sd / math.sqrt(reps)
        sample_var = sd * sd
        centered = r - mean
        fourth = float(np.mean(centered**4))
        se_var = math.sqrt(
            (fourth - sample_var**2 * (reps - 3) / (reps - 1)) / reps
        )
        assert abs(sample_var - exact_variance(params)) <= 5.0 * se_var
