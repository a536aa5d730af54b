"""The benchmark's own statistics, span and check logic."""

import dataclasses
import types

import pytest

import harness
from harness import Checks, Span, Tracer, counter_digest, self_time
from repro.stats.counters import Counters


@pytest.mark.parametrize("count, expected", [
    (0, None), (10, None), (19, None), (20, 50.0), (99, 50.0),
    (100, 90.0), (999, 90.0), (1000, 99.0), (10_000, 99.9)])
def test_tail_percentile_needs_ten_samples_beyond(count, expected):
    assert harness.tail_percentile(count) == expected
    if expected is not None:
        assert harness.samples_beyond(count, expected) >= 10


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))  # 1..100, shuffled order must not matter
    values.reverse()
    assert harness.percentile(values, 50) == 50
    assert harness.percentile(values, 90) == 90
    assert harness.percentile(values, 100) == 100
    assert harness.percentile([7.0], 90) == 7.0
    with pytest.raises(ValueError):
        harness.percentile([], 50)


def _span(start, end, span_id=0, parent=None):
    return Span(span_id, "s", start, end, parent=parent)


def test_self_time_counts_overlapping_children_once():
    parent = _span(0.0, 10.0)
    children = [_span(1.0, 4.0), _span(3.0, 6.0), _span(8.0, 12.0)]
    # covered: [1, 6] and [8, 10] (clipped to the parent) = 7
    assert self_time(parent, children) == pytest.approx(3.0)
    assert self_time(parent, []) == pytest.approx(10.0)
    assert self_time(parent, [_span(-5.0, 20.0)]) == pytest.approx(0.0)


def test_tracer_nests_and_restores():
    namespace = types.SimpleNamespace()
    namespace.inner = lambda x: x + 1
    namespace.outer = lambda x: namespace.inner(x) * 2
    original = namespace.inner
    tracer = Tracer()
    tracer.wrap(namespace, "inner", "layer.inner",
                lambda result, x: {"result": result})
    tracer.wrap(namespace, "outer", "layer.outer")
    assert namespace.outer(1) == 4
    tracer.restore()
    assert namespace.inner is original
    inner, outer = tracer.spans  # in order of completion
    assert inner.parent == outer.span_id and outer.parent is None
    assert inner.attrs == {"result": 2}
    assert outer.start <= inner.start <= inner.end <= outer.end


def test_digest_excludes_exactly_fast_forwarded_cycles():
    base = Counters(cycles=100, instructions=50, issued=50).as_dict()
    digest = counter_digest(base)
    assert counter_digest({**base, "fast_forwarded_cycles": 99}) == digest
    for name in base:
        if name != "fast_forwarded_cycles":
            assert counter_digest({**base, name: base[name] + 1}) != digest


def test_laws():
    good = Counters(cycles=10, instructions=5, issued=5,
                    fast_forwarded_cycles=10).as_dict()
    assert harness.law_violations("baseline", good) == []
    assert harness.law_violations("bow", {**good, "issued": 4}) == [
        "issued != instructions"]
    assert harness.law_violations(
        "bow", {**good, "fast_forwarded_cycles": 11}) == [
        "fast_forwarded_cycles > cycles"]
    assert harness.law_violations(
        "bow", {**good, "fast_forwarded_cycles": 11}, num_sms=2) == []
    assert harness.law_violations("bow", {**good, "eviction_writebacks": 1})
    assert harness.law_violations("baseline", {**good, "boc_reads": 1})
    assert harness.law_violations("bow", {**good, "boc_reads": 1}) == []


def test_failed_check_raises_failed_ratio():
    import sweep_cold

    good = Counters(cycles=10, instructions=5, issued=5)
    bad = dataclasses.replace(good, issued=4)
    records = [types.SimpleNamespace(point=sweep_cold.grid.GridPoint(*key),
                                     seconds=0.1)
               for key in (("SAD", "bow", 3), ("BFS", "bow", 3))]
    grid_result = types.SimpleNamespace(
        scale=types.SimpleNamespace(num_sms=1), records=records, failures=[],
        results={("SAD", "bow", 3): types.SimpleNamespace(counters=good),
                 ("BFS", "bow", 3): types.SimpleNamespace(counters=bad)})
    workload = sweep_cold.Workload(seed=123, workdir=None)
    outcome = harness.Outcome()
    workload._check(grid_result, outcome)
    assert outcome.checks.attempted == 2
    assert outcome.checks.failed == 1
    assert outcome.checks.failed_ratio == pytest.approx(0.5)


def test_checks_merge_and_ratio():
    first, second = Checks(), Checks()
    first.attempt(3)
    second.attempt(1)
    assert second.expect(False, "broken") is False
    first.merge(second)
    assert (first.attempted, first.failed) == (4, 1)
    assert first.notes == ["broken"]
    assert first.failed_ratio == pytest.approx(0.25)


def test_same_host_ignores_the_code_fields():
    host = {"cpu_model": "x", "nproc": 2, "python": "3.11", "numpy": "2",
            "commit": "a", "source_sha256": "b"}
    assert harness.same_host(host, {**host, "commit": "c",
                                    "source_sha256": "d"}) == []
    assert harness.same_host(host, {**host, "nproc": 4}) == ["nproc"]


def test_passes_until_makes_the_minimum_whatever_the_budget():
    durations = iter([0.4] * 10)
    assert harness.passes_until(0.0, lambda: next(durations),
                                minimum=3) == [0.4] * 3


def test_normalised_divides_by_the_mean_host_factor():
    assert harness.normalised(3.0, 1.0, 2.0) == pytest.approx(2.0)
    assert harness.normalised(3.0, 1.0, 1.0) == pytest.approx(3.0)
