"""Per-layer spans for the traced run, and the metrics derived from them.

:func:`instrument` wraps the public functions at each layer boundary,
in the namespace the caller looks them up in, so the program itself is
unchanged: the spans come from the benchmark's own code.
:func:`per_layer_metrics` turns the recorded spans into the metrics
``BENCHMARK.json`` lists under ``per_layer``.
"""

from __future__ import annotations

import hashlib
import json
from collections import defaultdict
from typing import Dict, Iterable, List, Tuple

from harness import Outcome, Span, Tracer, self_time
from repro.analysis import loaders, render
from repro.core.designs import design_names
from repro.experiments import cache as cache_module
from repro.experiments import grid, runner
from repro.experiments.cache import RunCache
from repro.gpu import device
from repro.observe import export
from repro.service import core as service_core
from repro.service.client import ServiceClient
from repro.service.core import SweepService
from repro.stats.cache import CacheStats

DESIGNS = tuple(design_names())


def _engine(result, design, *args, **kwargs) -> dict:
    counters = result.counters
    return {"design": design, "cycles": counters.cycles,
            "instructions": counters.instructions,
            "fast_forwarded_cycles": counters.fast_forwarded_cycles}


def _device(result, *args, **kwargs) -> dict:
    return {"load_imbalance": result.load_imbalance()}


def _grid(result, *args, **kwargs) -> dict:
    scale = result.scale
    return {"points": len(result.records) + len(result.failures),
            "keys": {(record.point.benchmark.upper(), record.point.design,
                      record.point.window, scale)
                     for record in result.records}}


def _submit(result, service, specs, *args, **kwargs) -> dict:
    return {"keys": {(spec.benchmark, spec.design, spec.window, spec.scale)
                     for spec in specs}}


def _frame(frame, *args, **kwargs) -> dict:
    return {"rows": len(frame),
            "invalid": frame.meta.get("invalid_records", 0)
            + frame.meta.get("corrupt_lines", 0)}


def instrument(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics read."""
    tracer.wrap(runner, "generate_trace", "kernels.trace_build")
    tracer.wrap(runner, "generate_compiled_trace", "compiler.compile")
    tracer.wrap(runner, "simulate_design", "gpu.engine", _engine)
    tracer.wrap(device, "simulate_device", "gpu.device", _device)
    tracer.wrap(grid, "run_grid", "experiments.grid", _grid)
    tracer.wrap(service_core, "run_grid", "experiments.grid", _grid)
    tracer.wrap(RunCache, "get", "experiments.cache.get")
    tracer.wrap(RunCache, "put", "experiments.cache.put")
    tracer.wrap(cache_module, "result_to_dict", "kernels.serialize.encode")
    tracer.wrap(cache_module, "result_from_dict", "kernels.serialize.decode")
    tracer.wrap(SweepService, "submit", "service.submit", _submit)
    tracer.wrap(ServiceClient, "sweep", "service.client")
    tracer.wrap(export, "write_events_jsonl", "observe.export",
                lambda result, recorder, *a, **k: {
                    "events": len(recorder.events)})
    tracer.wrap(loaders, "validate_event", "observe.schema")
    tracer.wrap(loaders, "validate_telemetry_record", "observe.schema")
    tracer.wrap(render, "validate_figure_spec", "observe.schema")
    for name in ("build_trace_df", "build_points_df", "build_failures_df",
                 "build_bench_df"):
        tracer.wrap(render, name, "analysis.loaders", _frame)
    tracer.wrap(render, "render_figures", "analysis.render",
                lambda report, *a, **k: {"figures": len(report.rendered)})


#: ``(name, unit)`` of every per-layer metric, in report order.
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("kernels.trace_build.ms", "ms"),
    ("kernels.trace_build.calls", "count"),
    ("compiler.compile.ms", "ms"),
    ("compiler.compile.calls", "count"),
    ("gpu.engine.s", "s"),
    ("gpu.engine.calls", "count"),
    ("gpu.engine.cycles_per_s", "cycles/s"),
    *((f"gpu.engine.inst_per_s.{design}", "inst/s") for design in DESIGNS),
    ("gpu.engine.ff_ratio", "ratio"),
    ("gpu.device.s", "s"),
    ("gpu.device.load_imbalance", "ratio"),
    ("experiments.grid.self_ms", "ms"),
    ("experiments.grid.calls", "count"),
    ("experiments.grid.points_per_call", "points"),
    ("experiments.runner.simulations", "count"),
    ("experiments.cache.get.ms", "ms"),
    ("experiments.cache.get.calls", "count"),
    ("experiments.cache.put.ms", "ms"),
    ("experiments.cache.put.calls", "count"),
    ("experiments.cache.hit_ratio", "ratio"),
    ("experiments.cache.bytes_read", "bytes"),
    ("experiments.cache.bytes_written", "bytes"),
    ("kernels.serialize.encode_us", "us"),
    ("kernels.serialize.decode_us", "us"),
    ("service.submit.ms", "ms"),
    ("service.wait_ms", "ms"),
    ("service.wire_ms", "ms"),
    ("service.batches", "count"),
    ("service.batch_points_mean", "points"),
    ("service.warm_hits", "count"),
    ("service.coalesced", "count"),
    ("service.from_cache", "count"),
    ("service.simulated", "count"),
    ("service.reuse_ratio", "ratio"),
    ("observe.export.ms", "ms"),
    ("observe.export.events", "count"),
    ("observe.schema.calls", "count"),
    ("observe.schema.us_per_record", "us"),
    ("analysis.loaders.self_ms", "ms"),
    ("analysis.loaders.records", "count"),
    ("analysis.loaders.invalid_records", "count"),
    ("analysis.render.ms", "ms"),
    ("analysis.render.figures", "count"),
    *((f"gpu.sim_ipc.{design}", "inst/cycle") for design in DESIGNS),
    ("gpu.sim_ipc.bow_gain", "ratio"),
    ("gpu.counters.digest48", "id"),
    ("trace_overhead_pct", "%"),
    ("failed_ratio", "ratio"),
)


def _total(spans: Iterable[Span]) -> float:
    return sum(span.duration for span in spans)


def _mean(values: List[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _linked_self_time(parents: List[Span], children: List[Span]) -> List[float]:
    """Self time of each parent minus the children sharing a key with it
    (the grid batches that resolved a submit's points, on another
    thread)."""
    by_key: Dict[tuple, List[Span]] = defaultdict(list)
    for child in children:
        for key in child.attrs.get("keys", ()):
            by_key[key].append(child)
    times = []
    for parent in parents:
        linked = {child.span_id: child
                  for key in parent.attrs.get("keys", ())
                  for child in by_key.get(key, ())}
        times.append(self_time(parent, linked.values()))
    return times


def counters_digest48(digests: Dict[str, str]) -> int:
    """The per-point counter digests folded into one 48-bit number."""
    if not digests:
        return 0
    text = json.dumps(digests, sort_keys=True)
    return int(hashlib.sha256(text.encode("utf-8")).hexdigest()[:12], 16)


def per_layer_metrics(tracer: Tracer, outcome: Outcome) -> Dict[str, float]:
    """Every :data:`PER_LAYER` metric except ``trace_overhead_pct`` and
    ``failed_ratio``, which need both phases of the traced run."""
    spans = defaultdict(list)
    children = defaultdict(list)
    for span in tracer.spans:
        spans[span.name].append(span)
        children[span.parent].append(span)
    metrics: Dict[str, float] = {}

    for prefix, name in (("kernels.trace_build", "kernels.trace_build"),
                         ("compiler.compile", "compiler.compile")):
        metrics[f"{prefix}.ms"] = _total(spans[name]) * 1000.0
        metrics[f"{prefix}.calls"] = len(spans[name])

    engine = spans["gpu.engine"]
    engine_s = _total(engine)
    metrics["gpu.engine.s"] = engine_s
    metrics["gpu.engine.calls"] = len(engine)
    cycles = sum(span.attrs.get("cycles", 0) for span in engine)
    metrics["gpu.engine.cycles_per_s"] = _ratio(cycles, engine_s)
    ipc = {}
    for design in DESIGNS:
        runs = [span for span in engine if span.attrs.get("design") == design]
        instructions = sum(span.attrs.get("instructions", 0) for span in runs)
        metrics[f"gpu.engine.inst_per_s.{design}"] = _ratio(
            instructions, _total(runs))
        ipc[design] = _ratio(instructions,
                             sum(span.attrs.get("cycles", 0) for span in runs))
    metrics["gpu.engine.ff_ratio"] = _ratio(
        sum(span.attrs.get("fast_forwarded_cycles", 0) for span in engine), cycles)

    metrics["gpu.device.s"] = _total(spans["gpu.device"])
    metrics["gpu.device.load_imbalance"] = _mean(
        [span.attrs["load_imbalance"] for span in spans["gpu.device"]
         if "load_imbalance" in span.attrs])

    grids = spans["experiments.grid"]
    metrics["experiments.grid.self_ms"] = 1000.0 * sum(
        self_time(span, children[span.span_id]) for span in grids)
    metrics["experiments.grid.calls"] = len(grids)
    metrics["experiments.grid.points_per_call"] = _mean(
        [span.attrs.get("points", 0) for span in grids])
    metrics["experiments.runner.simulations"] = outcome.simulations

    for op in ("get", "put"):
        calls = spans[f"experiments.cache.{op}"]
        metrics[f"experiments.cache.{op}.ms"] = _total(calls) * 1000.0
        metrics[f"experiments.cache.{op}.calls"] = len(calls)
    stats = sum((cache.stats for cache in outcome.caches), CacheStats())
    metrics["experiments.cache.hit_ratio"] = stats.hit_rate
    metrics["experiments.cache.bytes_read"] = stats.bytes_read
    metrics["experiments.cache.bytes_written"] = stats.bytes_written
    for op in ("encode", "decode"):
        calls = spans[f"kernels.serialize.{op}"]
        metrics[f"kernels.serialize.{op}_us"] = _ratio(
            _total(calls) * 1e6, len(calls))

    submits = spans["service.submit"]
    requests = spans["service.client"]
    submit_ms = _mean([span.duration * 1000.0 for span in submits])
    metrics["service.submit.ms"] = submit_ms
    metrics["service.wait_ms"] = 1000.0 * _mean(
        _linked_self_time(submits, grids))
    metrics["service.wire_ms"] = (
        _mean([span.duration * 1000.0 for span in requests]) - submit_ms
        if requests else 0.0)
    service = outcome.service
    dispatched = sum(service.get(name, 0) for name in
                     ("simulated", "from_cache", "from_memo", "failures"))
    metrics["service.batches"] = service.get("batches", 0)
    metrics["service.batch_points_mean"] = _ratio(
        dispatched, service.get("batches", 0))
    for name in ("warm_hits", "coalesced", "from_cache", "simulated"):
        metrics[f"service.{name}"] = service.get(name, 0)
    metrics["service.reuse_ratio"] = _ratio(
        sum(service.get(name, 0)
            for name in ("warm_hits", "coalesced", "from_cache")),
        service.get("points_requested", 0))

    exports = spans["observe.export"]
    metrics["observe.export.ms"] = _total(exports) * 1000.0
    metrics["observe.export.events"] = sum(
        span.attrs.get("events", 0) for span in exports)
    schema = spans["observe.schema"]
    metrics["observe.schema.calls"] = len(schema)
    metrics["observe.schema.us_per_record"] = _ratio(
        _total(schema) * 1e6, len(schema))
    loads = spans["analysis.loaders"]
    metrics["analysis.loaders.self_ms"] = 1000.0 * sum(
        self_time(span, children[span.span_id]) for span in loads)
    metrics["analysis.loaders.records"] = sum(
        span.attrs.get("rows", 0) for span in loads)
    metrics["analysis.loaders.invalid_records"] = sum(
        span.attrs.get("invalid", 0) for span in loads)
    renders = spans["analysis.render"]
    metrics["analysis.render.ms"] = _total(renders) * 1000.0
    metrics["analysis.render.figures"] = sum(
        span.attrs.get("figures", 0) for span in renders)

    for design in DESIGNS:
        metrics[f"gpu.sim_ipc.{design}"] = ipc[design]
    metrics["gpu.sim_ipc.bow_gain"] = _ratio(ipc["bow"], ipc["baseline"])
    metrics["gpu.counters.digest48"] = counters_digest48(outcome.digests)
    return metrics


def span_counts(tracer: Tracer) -> Dict[str, int]:
    counts: Dict[str, int] = defaultdict(int)
    for span in tracer.spans:
        counts[span.name] += 1
    return dict(sorted(counts.items()))
