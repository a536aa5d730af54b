"""Workload ``sweep-cold``: what ``repro sweep`` does on an empty cache.

Each pass resolves the grid with ``run_grid(jobs=1)`` into a fresh
``RunCache`` with telemetry on, after dropping the process memo, so
every point builds its trace and simulates.  The single-SM grid is
``GRID_BENCHMARKS`` x every registered design at IW=3 and QUICK scale;
a device slice adds ``DEVICE_BENCHMARKS`` x ``DEVICE_DESIGNS`` at
``DEVICE_QUICK`` with two SM dispatch threads.  The seed is the memory
seed of every point (and so the device's CTA partition seed) and
shuffles the order the points run in, which spreads the long points
over the pass.

The host-speed probe is sampled before the pass and after every
point, and each point's host time is normalised by the samples around
it; so is the pass time outside the points (cache writes, telemetry).
"""

from __future__ import annotations

import json
import random
import statistics
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, List, Tuple

from harness import (
    HostProbe,
    Outcome,
    counter_digest,
    law_violations,
    normalised,
    passes_until,
)
from repro.core.designs import design_names
from repro.experiments import grid, runner
from repro.experiments.cache import RunCache
from repro.observe.telemetry import TelemetryWriter

#: Six Table III benchmarks spanning the suite's trace lengths
#: (3.3k to 10k instructions at QUICK scale).
GRID_BENCHMARKS = ("BACKPROP", "BFS", "BTREE", "MUM", "NW", "SAD")
DEVICE_BENCHMARKS = ("BFS", "NW")
DEVICE_DESIGNS = ("baseline", "bow")
DEVICE_JOBS = 2

#: The seed whose digests are pinned: QUICK's own memory seed.
DEFAULT_SEED = 7

#: Pinned per-point digests for :data:`DEFAULT_SEED`.
DIGEST_FILE = Path(__file__).with_name("sweep_cold_digests.json")


@dataclass(frozen=True)
class Inputs:
    scale: runner.RunScale
    points: Tuple[grid.GridPoint, ...]
    device_scale: runner.RunScale
    device_points: Tuple[grid.GridPoint, ...]


def _shuffled(rng: random.Random, benchmarks, designs):
    points = [grid.GridPoint(benchmark, design, 3)
              for benchmark in benchmarks for design in designs]
    rng.shuffle(points)
    return tuple(points)


def generate(seed: int) -> Inputs:
    memory_seed = seed % (1 << 31)
    rng = random.Random(seed)
    return Inputs(
        scale=replace(runner.QUICK, memory_seed=memory_seed),
        points=_shuffled(rng, GRID_BENCHMARKS, design_names()),
        device_scale=replace(runner.DEVICE_QUICK, memory_seed=memory_seed),
        device_points=_shuffled(rng, DEVICE_BENCHMARKS, DEVICE_DESIGNS))


def point_label(key: Tuple[str, str, int], num_sms: int) -> str:
    benchmark, design, window = key
    return f"{benchmark}/{design}/IW{window}/SM{num_sms}"


class Workload:
    def __init__(self, seed: int, workdir: Path) -> None:
        self.inputs = generate(seed)
        self.workdir = workdir
        self.pinned: Dict[str, str] = {}
        if seed == DEFAULT_SEED:
            self.pinned = json.loads(DIGEST_FILE.read_text())
        self._passes = 0

    def setup(self) -> None:
        self.workdir.mkdir(parents=True, exist_ok=True)
        runner.clear_cache()

    def _pass(self, outcome: Outcome, times: Dict[str, List[float]],
              probe: HostProbe) -> float:
        """One cold pass; files each point's host time at reference
        speed under its label and returns the pass's."""
        self._passes += 1
        cache = RunCache(self.workdir / f"cache-{self._passes}")
        outcome.caches.append(cache)
        runner.clear_cache()
        before = runner.simulations_run()
        telemetry = TelemetryWriter(
            str(self.workdir / f"telemetry-{self._passes}.jsonl"))
        factors = [probe.factor()]
        probing = [0.0]

        def progress(line: str) -> None:  # between two points
            started = time.perf_counter()
            factors.append(probe.factor())
            probing[0] += time.perf_counter() - started

        started = time.perf_counter()
        try:
            single = grid.run_grid((), (), points=self.inputs.points,
                                   scale=self.inputs.scale, jobs=1,
                                   cache=cache, telemetry=telemetry,
                                   progress=progress)
            with runner.using_device_dispatch(DEVICE_JOBS, "thread"):
                device = grid.run_grid((), (), points=self.inputs.device_points,
                                       scale=self.inputs.device_scale, jobs=1,
                                       cache=cache, telemetry=telemetry,
                                       progress=progress)
        finally:
            telemetry.close()
        outside = time.perf_counter() - started - probing[0]
        outcome.simulations += runner.simulations_run() - before
        outcome.records = telemetry.records
        self._check(single, outcome)
        self._check(device, outcome)
        records = [(record, result.scale.num_sms)
                   for result in (single, device) for record in result.records]
        if len(factors) != len(records) + 1:  # a failed point broke pairing
            factors = [statistics.mean(factors)] * (len(records) + 1)
        total = 0.0
        for index, (record, num_sms) in enumerate(records):
            point = record.point
            label = point_label(
                (point.benchmark.upper(), point.design, point.window), num_sms)
            seconds = normalised(record.seconds, factors[index],
                                 factors[index + 1])
            times.setdefault(label, []).append(seconds)
            total += seconds
            outside -= record.seconds
        return total + normalised(outside, factors[0], factors[-1])

    def _check(self, result, outcome: Outcome) -> None:
        checks = outcome.checks
        num_sms = result.scale.num_sms
        checks.attempt(len(result.records) + len(result.failures))
        for failure in result.failures:
            checks.fail(f"{failure.label}: {failure.error_type}")
        for key, run in sorted(result.results.items()):
            label = point_label(key, num_sms)
            counters = run.counters.as_dict()
            digest = counter_digest(counters)
            new = label not in outcome.digests
            first = outcome.digests.setdefault(label, digest)
            broken = law_violations(key[1], counters, num_sms)
            if broken:
                checks.fail(f"{label}: {'; '.join(broken)}")
            elif first != digest:
                checks.fail(f"{label}: counters differ between passes")
            elif self.pinned and self.pinned.get(label) != digest:
                checks.fail(f"{label}: digest {digest} != pinned "
                            f"{self.pinned.get(label)}")
            if new:
                outcome.points += 1
                outcome.instructions += counters["instructions"]

    def measure(self, seconds: float, probe: HostProbe) -> Outcome:
        outcome = Outcome(operation="design point, mean over passes")
        times: Dict[str, List[float]] = {}
        durations = passes_until(
            seconds, lambda: self._pass(outcome, times, probe))
        outcome.seconds = outcome.unit_seconds = statistics.mean(durations)
        outcome.latencies_ms = [statistics.mean(values) * 1000.0
                                for values in times.values()]
        expected = len(self.inputs.points) + len(self.inputs.device_points)
        outcome.checks.expect(len(outcome.digests) == expected,
                              f"{len(outcome.digests)} distinct points, "
                              f"expected {expected}")
        return outcome

    def close(self) -> None:
        runner.clear_cache()


def current_digests(workdir: Path) -> Dict[str, str]:
    """Digests of the default seed's points as the program now computes
    them (what :data:`DIGEST_FILE` pins; refresh it only when a change
    is meant to move simulated counters)."""
    workload = Workload(DEFAULT_SEED, workdir)
    workload.pinned = {}
    workload.setup()
    probe = HostProbe()
    try:
        outcome = workload.measure(0.0, probe)
    finally:
        probe.close()
        workload.close()
    if outcome.checks.failed:
        raise RuntimeError("; ".join(outcome.checks.notes))
    return outcome.digests
