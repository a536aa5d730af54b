"""Workload inputs depend on the seed and nothing else."""

import itertools

import analyze
import serve_mixed
import sweep_cold


def _rounds(seed, count=200):
    stream = serve_mixed.generate(seed)
    return stream.memory_seeds, [stream.next_round() for _ in range(count)]


def test_generators_repeat_per_seed_and_differ_across_seeds():
    assert _rounds(7) == _rounds(7)
    assert _rounds(7) != _rounds(8)
    assert analyze.generate(7) == analyze.generate(7)
    assert analyze.generate(7) != analyze.generate(8)
    assert sweep_cold.generate(7) == sweep_cold.generate(7)
    assert sweep_cold.generate(7) != sweep_cold.generate(8)


def test_sweep_cold_default_seed_is_the_quick_grid():
    inputs = sweep_cold.generate(sweep_cold.DEFAULT_SEED)
    assert inputs.scale == sweep_cold.runner.QUICK


def test_serve_mixed_traffic_shape():
    _, rounds = _rounds(11, count=300)
    requests = list(itertools.chain.from_iterable(rounds))
    assert all(len(set(points)) == serve_mixed.POINTS_PER_REQUEST
               for _, points in requests)
    seen, new, shared_rounds = set(), 0, 0
    for first, second in rounds:
        new_in_first = {(first[0], p) for p in first[1]} - seen
        new_in_second = {(second[0], p) for p in second[1]} - seen
        shared_rounds += bool(new_in_first & new_in_second)
        for scale, points in (first, second):
            for point in points:
                new += (scale, point) not in seen
                seen.add((scale, point))
    share = new / (len(requests) * serve_mixed.POINTS_PER_REQUEST)
    assert 0.15 < share < 0.35
    assert shared_rounds > 0
