"""Tests for the bounded result/trace LRU behind the experiment runner."""

import sys
import threading

import pytest

from repro.experiments import runner
from repro.experiments.cache import LRUCache
from repro.experiments.runner import (
    RunScale,
    benchmark_trace,
    clear_cache,
    memo_stats,
    reset_simulations_counter,
    run_design,
    set_cache,
    simulations_run,
)

TINY = RunScale(num_warps=2, trace_scale=0.1)


@pytest.fixture(autouse=True)
def isolated_caches():
    clear_cache()
    previous = set_cache(None)
    reset_simulations_counter()
    yield
    set_cache(previous)
    clear_cache()


class TestLRUCache:
    def test_evicts_least_recently_used_at_the_cap(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # "b" is now least recent
        cache.put("c", 3)
        assert cache.get("b") is None
        assert cache.get("a") == 1
        assert cache.get("c") == 3
        assert len(cache) == 2

    def test_put_refreshes_an_existing_key(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)
        cache.put("c", 3)
        assert cache.get("a") == 10
        assert cache.get("b") is None

    def test_counters_count_every_event(self):
        cache = LRUCache(2)
        for key in range(5):
            cache.put(key, key)
        assert cache.evictions == 3
        assert cache.get(4) == 4
        assert cache.get(0) is None
        assert cache.stats() == {"entries": 2, "capacity": 2, "hits": 1,
                                 "misses": 1, "evictions": 3}

    def test_clear_drops_entries_not_counts(self):
        cache = LRUCache(1)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.clear()
        assert len(cache) == 0
        assert cache.get("b") is None
        assert cache.evictions == 1

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            LRUCache(0)

    def test_thread_hammer(self):
        """Concurrent get/put from more threads than cores: a lost
        update would break the exact eviction count."""
        cache = LRUCache(8)
        threads_n, rounds = 4, 5000
        errors = []
        start = threading.Barrier(threads_n)

        def hammer(tid):
            start.wait()
            for i in range(rounds):
                cache.put((tid, i), i)  # always a new key
                value = cache.get((tid, i - 3))
                if value is not None and value != i - 3:
                    errors.append(value)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=hammer, args=(tid,))
                       for tid in range(threads_n)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(cache) == 8
        assert cache.hits + cache.misses == threads_n * rounds
        # Every put inserts; past the cap each insert evicts exactly one.
        assert cache.evictions == threads_n * rounds - 8


class TestRunnerCaches:
    def test_module_caps(self):
        # Sized for every figures function in one process: 180 results
        # and 60 QUICK traces.
        assert runner.RESULT_CACHE_SIZE >= 180
        assert runner.TRACE_CACHE_SIZE >= 60
        assert memo_stats()["capacity"] == runner.RESULT_CACHE_SIZE

    def test_clear_cache_empties_results_and_traces(self):
        first = run_design("BFS", "bow", 3, TINY)
        benchmark_trace("NW", TINY)
        assert memo_stats()["entries"] == 1
        assert len(runner._trace_cache) >= 2
        clear_cache()
        assert memo_stats()["entries"] == 0
        assert len(runner._trace_cache) == 0
        again = run_design("BFS", "bow", 3, TINY)
        assert simulations_run() == 2
        assert again is not first
        assert again == first

    def test_run_design_evicts_at_the_cap(self, monkeypatch):
        memo = LRUCache(2)
        monkeypatch.setattr(runner, "_run_cache", memo)
        for design in ("baseline", "bow", "bow-wr"):
            run_design("BFS", design, 3, TINY)
        assert memo.evictions == 1
        run_design("BFS", "bow-wr", 3, TINY)  # still cached
        assert simulations_run() == 3
        run_design("BFS", "baseline", 3, TINY)  # evicted: re-simulates
        assert simulations_run() == 4

    def test_trace_cache_is_bounded(self, monkeypatch):
        traces = LRUCache(1)
        monkeypatch.setattr(runner, "_trace_cache", traces)
        bfs = benchmark_trace("BFS", TINY)
        benchmark_trace("NW", TINY)
        assert traces.evictions == 1
        assert benchmark_trace("BFS", TINY) is not bfs
