"""Tests for the parallel sweep runner (``run_grid``)."""

import pytest

from repro.config import BOWConfig, GPUConfig, WritebackPolicy
from repro.core.bow_sm import simulate_design
from repro.errors import ExperimentError
from repro.experiments.cache import RunCache
from repro.experiments.grid import (
    GridPoint,
    default_jobs,
    run_grid,
    set_default_jobs,
    using_jobs,
)
from repro.experiments.runner import (
    RunScale,
    benchmark_trace,
    clear_cache,
    run_design,
    set_cache,
    simulations_run,
)

TINY = RunScale(num_warps=2, trace_scale=0.1)
BENCHES = ("BFS", "NW", "SAD")
DESIGNS = ("baseline", "bow", "bow-wr")


@pytest.fixture(autouse=True)
def isolated_caches():
    clear_cache()
    previous = set_cache(None)
    yield
    set_cache(previous)
    clear_cache()


class TestGridShape:
    def test_covers_the_full_grid(self):
        grid = run_grid(BENCHES, DESIGNS, (3,), scale=TINY, cache=None)
        assert len(grid.results) == len(BENCHES) * len(DESIGNS)
        assert grid.simulated == len(grid.results)
        for bench in BENCHES:
            for design in DESIGNS:
                assert grid.get(bench, design, 3) is not None

    def test_windowless_designs_deduplicate(self):
        grid = run_grid(("BFS",), ("baseline", "bow"), (2, 3), scale=TINY,
                        cache=None)
        # baseline contributes one point; bow one per window.
        assert len(grid.results) == 3
        assert grid.get("BFS", "baseline", 2) is grid.get("BFS", "baseline", 3)

    def test_empty_grid_rejected(self):
        with pytest.raises(ExperimentError):
            run_grid((), DESIGNS, (3,), scale=TINY, cache=None)

    def test_unknown_design_rejected(self):
        with pytest.raises(ExperimentError):
            run_grid(BENCHES, ("quantum",), (3,), scale=TINY, cache=None)

    def test_missing_point_lookup_raises(self):
        grid = run_grid(("BFS",), ("baseline",), (3,), scale=TINY, cache=None)
        with pytest.raises(ExperimentError):
            grid.get("BFS", "bow", 3)


class TestExplicitPoints:
    """``run_grid(points=...)`` — the reentrant entry the sweep service
    batches through — bypasses the cross-product enumeration."""

    def test_explicit_points_resolve(self):
        from repro.experiments.grid import GridPoint

        grid = run_grid((), (), (), scale=TINY, cache=None, points=[
            GridPoint("BFS", "baseline", 3),
            GridPoint("NW", "bow", 3),
        ])
        assert len(grid.results) == 2
        assert grid.get("BFS", "baseline", 3) is not None
        assert grid.get("NW", "bow", 3) is not None

    def test_tuples_accepted(self):
        grid = run_grid((), (), (), scale=TINY, cache=None,
                        points=[("BFS", "baseline", 3)])
        assert grid.get("BFS", "baseline", 3) is not None

    def test_points_normalize_and_deduplicate(self):
        # Case-folding plus effective-window collapse: both entries are
        # the same baseline point, so only one simulation runs.
        grid = run_grid((), (), (), scale=TINY, cache=None, points=[
            ("bfs", "baseline", 2),
            ("BFS", "baseline", 3),
        ])
        assert len(grid.results) == 1
        assert grid.simulated == 1

    def test_explicit_points_match_cross_product(self):
        explicit = run_grid((), (), (), scale=TINY, cache=None, points=[
            ("BFS", "bow", 3)])
        clear_cache()
        product = run_grid(("BFS",), ("bow",), (3,), scale=TINY, cache=None)
        assert (explicit.get("BFS", "bow", 3)
                == product.get("BFS", "bow", 3))

    def test_empty_points_rejected(self):
        with pytest.raises(ExperimentError):
            run_grid((), (), (), scale=TINY, cache=None, points=[])

    def test_unknown_design_in_points_rejected(self):
        with pytest.raises(ExperimentError):
            run_grid((), (), (), scale=TINY, cache=None,
                     points=[("BFS", "quantum", 3)])


class TestPointOverrides:
    """Grid points naming a machine (``config``) or BOW variant (``bow``)."""

    FEW_OCUS = GPUConfig(num_operand_collectors=2)
    STARVED = BOWConfig(window_size=3, writeback=WritebackPolicy.WRITE_BACK,
                        capacity_entries=2)

    def test_two_variants_of_one_cell_raise(self):
        with pytest.raises(ExperimentError, match="two different"):
            run_grid((), (), scale=TINY, cache=None, points=[
                GridPoint("BFS", "baseline", 3),
                GridPoint("BFS", "baseline", 3, config=self.FEW_OCUS),
            ])
        with pytest.raises(ExperimentError, match="two different"):
            run_grid((), (), scale=TINY, cache=None, points=[
                GridPoint("BFS", "bow-wb", 3, bow=self.STARVED),
                GridPoint("BFS", "bow-wb", 3),
            ])

    def test_default_config_is_the_plain_point(self):
        grid = run_grid((), (), scale=TINY, cache=None, points=[
            GridPoint("BFS", "baseline", 3),
            GridPoint("BFS", "baseline", 3, config=GPUConfig()),
        ])
        assert grid.simulated == 1

    def test_overrides_reach_the_engine(self):
        grid = run_grid((), (), scale=TINY, cache=None, points=[
            GridPoint("SAD", "baseline", 3, config=self.FEW_OCUS),
            GridPoint("SAD", "bow-wb", 3, bow=self.STARVED),
        ])
        trace = benchmark_trace("SAD", TINY)
        seed = TINY.memory_seed
        assert grid.get("SAD", "baseline") == simulate_design(
            "baseline", trace, config=self.FEW_OCUS, memory_seed=seed)
        assert grid.get("SAD", "bow-wb") == simulate_design(
            "bow-wb", trace, bow=self.STARVED, memory_seed=seed)
        assert grid.get("SAD", "bow-wb").counters.boc_evictions > 0
        # The cross-product form applies the overrides to every point.
        product = run_grid(("SAD",), ("baseline",), scale=TINY, cache=None,
                           config=self.FEW_OCUS)
        assert product.from_memo == 1
        assert product.get("SAD", "baseline") == grid.get("SAD", "baseline")

    def test_variant_is_cached_and_distinct(self, tmp_path):
        point = GridPoint("SAD", "bow-wb", 3, bow=self.STARVED)
        cache = RunCache(tmp_path / "runs")
        cold = run_grid((), (), scale=TINY, cache=cache, points=[point])
        plain = run_grid(("SAD",), ("bow-wb",), scale=TINY, cache=cache)
        assert cold.simulated == plain.simulated == 1
        clear_cache()
        before = simulations_run()
        warm = run_grid((), (), scale=TINY, cache=cache, points=[point])
        assert warm.from_cache == 1 and simulations_run() == before
        assert warm.get("SAD", "bow-wb") == cold.get("SAD", "bow-wb")
        assert warm.get("SAD", "bow-wb") != plain.get("SAD", "bow-wb")

    def test_device_points_carry_overrides(self):
        from repro.gpu.device import simulate_device

        scale = RunScale(num_warps=8, trace_scale=0.1, num_sms=2)
        grid = run_grid((), (), scale=scale, cache=None, points=[
            GridPoint("SAD", "bow-wb", 3, config=self.FEW_OCUS,
                      bow=self.STARVED),
        ])
        direct = simulate_device(
            "bow-wb", benchmark_trace("SAD", scale), num_sms=2,
            config=self.FEW_OCUS, bow=self.STARVED,
            memory_seed=scale.memory_seed).to_simulation_result()
        assert grid.get("SAD", "bow-wb") == direct

    def test_process_workers_receive_overrides(self):
        points = [GridPoint("SAD", "baseline", 3, config=self.FEW_OCUS),
                  GridPoint("SAD", "bow-wb", 3, bow=self.STARVED)]
        parallel = run_grid((), (), scale=TINY, jobs=2, cache=None,
                            points=points)
        clear_cache()
        serial = run_grid((), (), scale=TINY, jobs=1, cache=None,
                          points=points)
        assert parallel.results == serial.results

    @pytest.mark.parametrize("design", ["baseline", "rfc"])
    def test_bow_override_needs_a_bow_design(self, design):
        with pytest.raises(ExperimentError, match="needs a BOW organization"):
            run_grid((), (), scale=TINY, cache=None, points=[
                GridPoint("BFS", design, 3, bow=self.STARVED)])

    def test_bow_override_needs_the_point_window(self):
        with pytest.raises(ExperimentError, match="override's window"):
            run_grid((), (), scale=TINY, cache=None, points=[
                GridPoint("BFS", "bow-wb", 4, bow=self.STARVED)])


class TestSerialParity:
    def test_grid_matches_run_design(self):
        grid = run_grid(BENCHES, DESIGNS, (3,), scale=TINY, cache=None)
        clear_cache()
        for bench in BENCHES:
            for design in DESIGNS:
                assert (grid.get(bench, design, 3)
                        == run_design(bench, design, 3, TINY))

    def test_parallel_matches_serial(self):
        parallel = run_grid(BENCHES, ("baseline", "bow"), (3,), scale=TINY,
                            jobs=2, cache=None)
        clear_cache()
        serial = run_grid(BENCHES, ("baseline", "bow"), (3,), scale=TINY,
                          jobs=1, cache=None)
        assert parallel.results == serial.results

    def test_memo_serves_second_call(self):
        run_grid(("BFS",), ("baseline",), (3,), scale=TINY, cache=None)
        before = simulations_run()
        grid = run_grid(("BFS",), ("baseline",), (3,), scale=TINY, cache=None)
        assert grid.from_memo == 1
        assert simulations_run() == before


class TestWarmCache:
    def test_warm_cache_needs_zero_simulations(self, tmp_path):
        """The acceptance check: 3 benchmarks x 3 designs, warm pass."""
        cache = RunCache(tmp_path / "runs")
        cold = run_grid(BENCHES, DESIGNS, (3,), scale=TINY, jobs=1,
                        cache=cache)
        assert cold.simulated == len(BENCHES) * len(DESIGNS)
        clear_cache()  # a fresh process would start with an empty memo
        before = simulations_run()
        warm = run_grid(BENCHES, DESIGNS, (3,), scale=TINY, jobs=1,
                        cache=cache)
        assert warm.simulated == 0
        assert warm.from_cache == len(BENCHES) * len(DESIGNS)
        assert warm.cache_stats.misses == cold.cache_stats.misses
        assert warm.cache_stats.hits == len(BENCHES) * len(DESIGNS)
        assert simulations_run() == before
        assert warm.results == cold.results

    def test_parallel_cold_run_populates_cache(self, tmp_path):
        cache = RunCache(tmp_path / "runs")
        run_grid(BENCHES, ("baseline", "bow"), (3,), scale=TINY, jobs=2,
                 cache=cache)
        assert cache.entry_count() == 6

    def test_runner_default_cache_is_used(self, tmp_path):
        set_cache(RunCache(tmp_path / "runs"))
        run_grid(("BFS",), ("baseline",), (3,), scale=TINY)
        clear_cache()
        warm = run_grid(("BFS",), ("baseline",), (3,), scale=TINY)
        assert warm.from_cache == 1


class TestInstrumentation:
    def test_records_and_progress(self):
        lines = []
        grid = run_grid(("BFS",), ("baseline", "bow"), (3,), scale=TINY,
                        cache=None, progress=lines.append)
        assert len(grid.records) == 2
        assert len(lines) == 2
        assert all(record.seconds >= 0.0 for record in grid.records)
        assert grid.wall_seconds > 0.0
        assert "BFS" in lines[0]

    def test_format_mentions_sources(self):
        grid = run_grid(("BFS",), ("baseline",), (3,), scale=TINY, cache=None)
        text = grid.format()
        assert "sim" in text
        assert "1 simulated" in text


class TestJobsDefaults:
    def test_env_default(self, monkeypatch):
        set_default_jobs(None)
        monkeypatch.setenv("REPRO_JOBS", "4")
        assert default_jobs() == 4
        monkeypatch.setenv("REPRO_JOBS", "bogus")
        assert default_jobs() == 1

    def test_using_jobs_restores(self):
        set_default_jobs(None)
        with using_jobs(3):
            assert default_jobs() == 3
        assert default_jobs() == 1
