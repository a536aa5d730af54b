"""Workload ``analyze``: what ``repro trace`` + ``repro figures`` do.

Set-up runs one traced engine run (a ``TraceRecorder`` ring holding
the last ``TRACE_EVENTS`` events), one small sweep writing telemetry,
and writes two bench reports in the formats ``build_bench_df`` reads
(engine cases and service passes), so no committed ``BENCH_*.json`` is
read.  The seed picks the traced design, the memory seed of every run
and the bench reports' contents; the amount of data stays fixed.

One timed pass exports the events with ``write_events_jsonl``, loads
telemetry, trace and bench files with ``build_inputs``, and renders
every registered figure with ``render_figures``.  The engine does none
of the timed work.
"""

from __future__ import annotations

import json
import random
import statistics
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Tuple

from harness import HostProbe, Outcome, Stopwatch, passes_until
from repro.analysis import render
from repro.analysis.figures import FIGURES
from repro.core.bow_sm import simulate_design
from repro.core.designs import design_names
from repro.experiments import grid, runner
from repro.kernels.suites import benchmark_names
from repro.observe import export
from repro.observe.telemetry import TelemetryWriter
from repro.stats.trace import TraceRecorder

TRACE_EVENTS = 1000
TRACE_BENCHMARK = "BFS"
TRACE_DESIGNS = ("bow", "bow-wb", "bow-wr")
SWEEP_BENCHMARKS = ("BFS", "NW", "SAD")
NUM_WARPS = 4
TRACE_SCALE = 0.1
ENGINE_CASES = 6
SERVICE_PASSES = ("cold", "warm")


@dataclass(frozen=True)
class Inputs:
    trace_design: str
    scale: runner.RunScale
    engine_bench: Dict
    service_bench: Dict

    @property
    def bench_rows(self) -> int:
        return len(self.engine_bench["designs"]) + len(
            self.service_bench["passes"])


def generate(seed: int) -> Inputs:
    rng = random.Random(seed)
    benchmarks = benchmark_names()
    cases = rng.sample([f"{b}/{d}" for b in benchmarks
                        for d in design_names()], ENGINE_CASES)
    engine = {"bench": "generated", "metric": "cycles_per_sec",
              "threshold": 0.25, "designs": {}}
    for case in cases:
        cycles = rng.randrange(20_000, 120_000)
        engine["designs"][case] = {
            "cycles": cycles,
            "cycles_per_sec": rng.randrange(50_000, 1_500_000),
            "fast_forwarded_cycles": rng.randrange(cycles // 4, cycles),
        }
    service = {"designs": list(design_names()), "passes": {}}
    for name in SERVICE_PASSES:
        p50 = rng.uniform(5.0, 200.0)
        service["passes"][name] = {
            "points_per_sec": rng.uniform(1.0, 500.0),
            "points_served": rng.randrange(10, 1000),
            "latency": {"p50": p50, "p95": p50 * rng.uniform(1.0, 4.0)},
            "service": {"simulated": rng.randrange(0, 100)},
        }
    return Inputs(
        trace_design=rng.choice(TRACE_DESIGNS),
        scale=runner.RunScale(num_warps=NUM_WARPS, trace_scale=TRACE_SCALE,
                              memory_seed=rng.randrange(1 << 16)),
        engine_bench=engine,
        service_bench=service,
    )


class Workload:
    def __init__(self, seed: int, workdir: Path) -> None:
        self.inputs = generate(seed)
        self.workdir = workdir
        self.recorder: TraceRecorder = None
        self.telemetry_path = workdir / "telemetry.jsonl"
        self.bench_paths = [workdir / "BENCH_engine.json",
                            workdir / "BENCH_service.json"]
        self.telemetry_points = 0
        self._passes = 0

    def setup(self) -> None:
        inputs = self.inputs
        self.workdir.mkdir(parents=True, exist_ok=True)
        runner.clear_cache()
        trace = runner.benchmark_trace(TRACE_BENCHMARK, inputs.scale,
                                       window_size=3)
        self.recorder = TraceRecorder(capacity=TRACE_EVENTS)
        simulate_design(inputs.trace_design, trace, window_size=3,
                        memory_seed=inputs.scale.memory_seed,
                        recorder=self.recorder)
        with TelemetryWriter(str(self.telemetry_path)) as telemetry:
            result = grid.run_grid(SWEEP_BENCHMARKS, design_names(), (3,),
                                   scale=inputs.scale, jobs=1, cache=None,
                                   telemetry=telemetry)
        self.telemetry_points = len(result.records)
        for path, document in zip(self.bench_paths,
                                  (inputs.engine_bench, inputs.service_bench)):
            path.write_text(json.dumps(document, indent=2))
        runner.clear_cache()

    def _pass(self, outcome: Outcome, probe: HostProbe) -> float:
        """One pass; returns its host time at reference speed."""
        self._passes += 1
        events_path = self.workdir / f"events-{self._passes}.jsonl"
        out_dir = self.workdir / f"figures-{self._passes}"
        before = runner.simulations_run()
        watch = Stopwatch(probe)
        watch.time(export.write_events_jsonl, self.recorder, str(events_path))
        inputs = watch.time(
            render.build_inputs, telemetry=[str(self.telemetry_path)],
            trace=str(events_path),
            bench=[str(path) for path in self.bench_paths])
        report = watch.time(render.render_figures, inputs, str(out_dir))
        outcome.simulations += runner.simulations_run() - before
        outcome.latencies_ms.append(watch.total * 1000.0)
        self._check(inputs, report, outcome)
        return watch.total

    def _check(self, inputs, report, outcome: Outcome) -> None:
        checks = outcome.checks
        exported = len(self.recorder.events)
        expected = {"trace": exported, "points": self.telemetry_points,
                    "failures": 0, "bench": self.inputs.bench_rows}
        checks.attempt(exported + sum(expected.values()))
        for kind, rows in expected.items():
            frame = inputs.get(kind)
            loaded = len(frame)
            checks.expect(loaded == rows, f"{kind}: loaded {loaded} rows of "
                          f"{rows}", abs(loaded - rows) or 1)
            bad = (frame.meta.get("invalid_records", 0)
                   + frame.meta.get("corrupt_lines", 0))
            checks.expect(not bad, f"{kind}: {bad} invalid records", bad)
        outcome.records = exported + sum(
            len(inputs.get(kind)) for kind in expected)
        outcome.points = len(inputs.points)
        outcome.instructions = sum(inputs.points["instructions"])
        renderable = [name for name in FIGURES
                      if not inputs.missing(figure_requires(name))]
        rendered = sorted(figure.name for figure in report.rendered)
        checks.attempt(len(renderable))
        missing: List[str] = sorted(set(renderable) - set(rendered))
        checks.expect(not missing, f"figures not rendered: {missing}",
                      len(missing))

    def measure(self, seconds: float, probe: HostProbe) -> Outcome:
        outcome = Outcome(operation="trace+figures pass")
        durations = passes_until(seconds, lambda: self._pass(outcome, probe))
        outcome.seconds = outcome.unit_seconds = statistics.mean(durations)
        return outcome

    def close(self) -> None:
        runner.clear_cache()


def figure_requires(name: str) -> Tuple[str, ...]:
    return FIGURES[name].requires
