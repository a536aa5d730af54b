"""Tests for the ablation studies (tiny scales)."""

import pytest

from repro.experiments.ablations import (
    capacity_sweep,
    collector_count_ablation,
    effective_rf_study,
    eviction_ablation,
    scheduler_ablation,
    window_sweep,
)
from repro.experiments.runner import (
    RunScale,
    clear_cache,
    set_cache,
    simulations_run,
)
from repro.gpu.sm import SMEngine

TINY = RunScale(num_warps=4, trace_scale=0.1)
FEW = ("SAD", "WP")


@pytest.fixture(scope="module", autouse=True)
def fresh_cache():
    clear_cache()
    yield
    clear_cache()


class TestSchedulerAblation:
    def test_bow_helps_under_both_policies(self):
        result = scheduler_ablation(benchmarks=FEW, scale=TINY)
        for policy in ("gto", "lrr"):
            assert result.average(policy) > -0.05

    def test_format(self):
        result = scheduler_ablation(benchmarks=FEW, scale=TINY)
        assert "GTO" in result.format()


class TestEvictionAblation:
    def test_both_policies_produce_evictions(self):
        result = eviction_ablation(benchmarks=("SAD",), capacity=2,
                                   scale=TINY)
        assert result.eviction_writebacks["SAD"]["fifo"] > 0
        assert result.eviction_writebacks["SAD"]["lru"] > 0

    def test_ipc_close_between_policies(self):
        # The extended window already approximates recency: the paper's
        # FIFO choice costs little.
        result = eviction_ablation(benchmarks=("SAD",), capacity=3,
                                   scale=TINY)
        fifo, lru = result.ipc["SAD"]["fifo"], result.ipc["SAD"]["lru"]
        assert fifo == pytest.approx(lru, rel=0.10)


class TestCapacitySweep:
    def test_evictions_monotone_decreasing(self):
        result = capacity_sweep("SAD", capacities=(2, 4, 8, 12), scale=TINY)
        evictions = [point[2] for point in result.points]
        assert evictions == sorted(evictions, reverse=True)

    def test_conservative_capacity_no_evictions(self):
        result = capacity_sweep("SAD", capacities=(12,), scale=TINY)
        assert result.points[0][2] == 0

    def test_starved_capacity_still_gains(self):
        result = capacity_sweep("SAD", capacities=(2,), scale=TINY)
        assert result.points[0][1] > -0.10


class TestWindowSweep:
    def test_bypass_monotone(self):
        result = window_sweep("SAD", windows=(2, 3, 7, 12), scale=TINY)
        rates = [point[1] for point in result.points]
        assert rates == sorted(rates)

    def test_diminishing_returns(self):
        result = window_sweep("SAD", windows=(2, 3, 12), scale=TINY)
        rates = {iw: rate for iw, rate, _ in result.points}
        assert rates[3] - rates[2] >= (rates[12] - rates[3]) / 3


class TestAblationsAreGridPoints:
    def test_warm_pass_simulates_nothing(self, monkeypatch):
        engine_runs = []
        real_run = SMEngine.run

        def counted_run(engine):
            engine_runs.append(engine)
            return real_run(engine)

        monkeypatch.setattr(SMEngine, "run", counted_run)

        def one_pass():
            scheduler_ablation(benchmarks=FEW, scale=TINY)
            eviction_ablation(benchmarks=FEW, capacity=3, scale=TINY)
            capacity_sweep("SAD", scale=TINY)
            collector_count_ablation("SAD", scale=TINY)

        clear_cache()
        previous = set_cache(None)
        try:
            before = simulations_run()
            one_pass()
            cold = simulations_run() - before
            # Every engine run is counted: 12 scheduler + 4 eviction
            # + 5 capacity + 3 collector-count points.  The others are
            # points already run (GTO and one OCU count are the
            # defaults; SAD at capacity 3 FIFO is an eviction point)
            # and come from the memo.
            assert cold == len(engine_runs) == 24
            one_pass()
            assert simulations_run() - before == cold
            assert len(engine_runs) == cold
        finally:
            set_cache(previous)
            clear_cache()


class TestEffectiveRf:
    def test_transient_fraction_near_paper(self):
        result = effective_rf_study(benchmarks=FEW)
        assert 0.3 <= result.average_transient_fraction() <= 0.8

    def test_format_has_all_rows(self):
        result = effective_rf_study(benchmarks=FEW)
        text = result.format()
        assert "SAD" in text and "WP" in text and "AVERAGE" in text
