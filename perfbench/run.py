"""The repo benchmark: one workload, one seed, one JSON result line.

Run from the root of a checkout::

    python3 perfbench/run.py --workload sweep-cold --seed 7 --seconds 25 --trace 0

``--trace 0`` measures the workload untraced for ``--seconds`` and
reports the end-to-end metrics; ``--trace 1`` splits ``--seconds``
between an untraced phase and a phase with spans around every layer
boundary, and reports the per-layer metrics, including the tracing
overhead.  Human-readable lines come
first; the last line of standard output is the JSON result.  A full
report (host fingerprint, sample counts, check notes, spans) is
written under ``.perfbench/reports/``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import harness

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUTPUT = ROOT / ".perfbench"

#: Workload name -> module implementing it.
WORKLOADS = {"sweep-cold": "sweep_cold", "serve-mixed": "serve_mixed",
             "analyze": "analyze"}

#: The seed used while developing a change, and the one held out to
#: confirm a claimed gain afterwards.
DEFAULT_SEED = 7
HELD_OUT_SEED = 1009

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: ``(name, unit)`` of the end-to-end metrics, as in BENCHMARK.json.
END_TO_END = (
    ("setup_s", "s"),
    ("points_per_s", "points/s"),
    ("sim_inst_per_s", "inst/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("records_per_s", "records/s"),
    ("peak_rss_mb", "MiB"),
)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def cold_import(module: str) -> None:
    """Import a workload's modules in a fresh interpreter (the start-up
    every CLI invocation pays) and wait for it."""
    code = (f"import sys; sys.path[:0] = [{str(HERE)!r}, {str(ROOT / 'src')!r}]"
            f"; import {module}")
    subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True,
                   timeout=120)


def measure(workload, seconds: float,
            probe: harness.HostProbe) -> harness.Outcome:
    gc.collect()
    return workload.measure(seconds, probe)


def end_to_end(outcome: harness.Outcome, setups) -> dict:
    latencies = outcome.latencies_ms
    return {
        "setup_s": statistics.median(setups),
        "points_per_s": outcome.points / outcome.seconds,
        "sim_inst_per_s": outcome.instructions / outcome.seconds,
        "latency_p50_ms": harness.percentile(latencies, 50.0),
        "latency_p90_ms": harness.percentile(latencies, 90.0),
        "records_per_s": outcome.records / outcome.seconds,
        "peak_rss_mb": harness.peak_rss_mb(),
    }


def run(args, workdir: Path, probe: harness.HostProbe) -> dict:
    import layers

    module = importlib.import_module(WORKLOADS[args.workload])
    setups = []
    workload = None
    watch = harness.Stopwatch(probe)
    for repeat in range(1 if args.trace else SETUP_REPEATS):
        if workload is not None:
            workload.close()
        started = time.perf_counter()
        cold_import(module.__name__)
        workload = module.Workload(args.seed, workdir / f"setup-{repeat}")
        workload.setup()
        seconds = time.perf_counter() - started
        setups.append(seconds * watch.lap(seconds))
    seconds = args.seconds / 2.0 if args.trace else args.seconds
    try:
        outcome = measure(workload, seconds, probe)
        checks = outcome.checks
        report = {"setups_s": setups, "operation": outcome.operation,
                  "latency_samples": len(outcome.latencies_ms),
                  "tail_percentile": harness.tail_percentile(
                      len(outcome.latencies_ms))}
        if not args.trace:
            metrics = end_to_end(outcome, setups)
            units = dict(END_TO_END)
        else:
            tracer = harness.Tracer()
            layers.instrument(tracer)
            try:
                traced = measure(workload, seconds, probe)
            finally:
                tracer.restore()
            checks.merge(traced.checks)
            metrics = layers.per_layer_metrics(tracer, traced)
            metrics["trace_overhead_pct"] = 100.0 * (
                traced.unit_seconds / outcome.unit_seconds - 1.0)
            metrics["failed_ratio"] = checks.failed_ratio
            units = dict(layers.PER_LAYER)
            report["span_counts"] = layers.span_counts(tracer)
            report["spans_file"] = str(write_spans(args, tracer))
    finally:
        workload.close()
    report.update(checks=checks, metrics=metrics, units=units,
                  host_factors=probe.factors)
    return report


def report_name(args) -> str:
    return f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"


def write_spans(args, tracer: harness.Tracer) -> Path:
    path = OUTPUT / "reports" / f"{report_name(args)}-spans.jsonl"
    path.parent.mkdir(parents=True, exist_ok=True)
    tracer.write(path)
    return path.relative_to(ROOT)


def main(argv=None) -> int:
    args = parse_args(argv)
    harness.load_program(ROOT)
    import numpy

    fingerprint = harness.host_fingerprint(ROOT, numpy.__version__)
    from repro.experiments import runner

    runner.set_cache(None)  # never read a cache named by the environment
    workdir = OUTPUT / f"work-{os.getpid()}"
    probe = harness.HostProbe()
    try:
        report = run(args, workdir, probe)
    finally:
        probe.close()
        shutil.rmtree(workdir, ignore_errors=True)
    checks: harness.Checks = report.pop("checks")
    metrics, units = report.pop("metrics"), report.pop("units")

    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("host: " + " ".join(f"{key}={value}"
                              for key, value in fingerprint.items()))
    tail = report["tail_percentile"]
    print(f"latency samples: {report['latency_samples']} "
          f"({report['operation']}); highest percentile with >= "
          f"{harness.MIN_BEYOND} beyond: "
          + (f"p{tail:g}" if tail is not None else "none"))
    for name, value in metrics.items():
        print(f"  {name:<40} {value:>16.6g} {units[name]}")
    for name, count in report.get("span_counts", {}).items():
        print(f"  spans {name:<34} {count:>16d}")
    print(f"checks: {checks.attempted} attempted, {checks.failed} failed, "
          f"failed_ratio {checks.failed_ratio:g}")
    for note in checks.notes:
        print(f"  FAILED: {note}")

    path = OUTPUT / "reports" / f"{report_name(args)}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "host": fingerprint,
        "attempted": checks.attempted, "failed": checks.failed,
        "failed_notes": checks.notes, "metrics": metrics, "units": units,
        **report}, indent=2, sort_keys=True))
    print(f"report: {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": max(1, checks.attempted),
        "failed": checks.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
