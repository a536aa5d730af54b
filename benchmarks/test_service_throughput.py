"""Service throughput/latency bench: the single-flight dedup claim.

Starts an in-process sweep server, points 8 concurrent load-generator
clients at an identical grid, and measures both passes the service is
designed around: the **cold** pass (the single-flight registry must
collapse 8 identical jobs into one simulation per unique point) and
the **warm** pass (every point a dict hit, so throughput is bounded by
the wire, not the simulator).  The combined report — points/sec and
latency percentiles per pass plus the service's counter deltas — is
written to ``benchmarks/BENCH_service.json``, the artifact CI's
``service-smoke`` job regenerates and uploads.
"""

from __future__ import annotations

import asyncio
import json
import threading
from pathlib import Path

from conftest import run_once

from repro.experiments.runner import (
    RunScale,
    clear_cache,
    reset_simulations_counter,
    set_cache,
    simulations_run,
)
from repro.service import SweepServer, SweepService, run_loadgen

BENCH_PATH = Path(__file__).parent / "BENCH_service.json"

#: Loadgen shape: 8 clients x (2 benchmarks x 2 designs) at one IW.
CLIENTS = 8
BENCHMARKS = ("BFS", "NW")
DESIGNS = ("baseline", "bow")
SCALE = RunScale(num_warps=4, trace_scale=0.1)


class _ServerThread:
    """A sweep server on a daemon thread with its own event loop."""

    def __init__(self):
        self.port = None
        self._ready = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def __enter__(self):
        self._thread.start()
        assert self._ready.wait(timeout=10.0), "server did not start"
        return self

    def __exit__(self, *exc_info):
        self._thread.join(timeout=60.0)
        assert not self._thread.is_alive(), "server did not shut down"

    def _run(self):
        async def body():
            server = SweepServer(SweepService(cache=None))
            await server.start()
            self.port = server.port
            self._ready.set()
            try:
                await server.serve_until_shutdown()
            finally:
                await server.close()

        asyncio.run(body())


def _drive() -> dict:
    clear_cache()
    previous = set_cache(None)
    reset_simulations_counter()
    try:
        with _ServerThread() as running:
            return run_loadgen(
                port=running.port, clients=CLIENTS,
                benchmarks=BENCHMARKS, designs=DESIGNS, windows=(3,),
                scale=SCALE, shutdown=True,
                report_path=str(BENCH_PATH))
    finally:
        set_cache(previous)
        clear_cache()


def test_service_single_flight_throughput(benchmark, save_report):
    report = run_once(benchmark, _drive)

    from repro.service import format_report

    save_report("service_throughput", format_report(report))

    unique = report["unique_points"]
    assert unique == len(BENCHMARKS) * len(DESIGNS)

    # The headline claim: 8 concurrent clients requesting an identical
    # grid cost exactly one simulation per unique point, total.
    flight = report["single_flight"]
    assert flight["dedup_ok"], flight
    assert flight["cold_simulated"] == unique
    assert simulations_run() == unique

    # Warm pass: nothing simulates, every request is a warm LRU hit.
    assert flight["warm_simulated"] == 0
    assert flight["warm_hits"] == CLIENTS * unique

    # The report records throughput for both passes, and the warm pass
    # (pure lookups) is not slower than the cold pass (simulations).
    cold = report["passes"]["cold"]
    warm = report["passes"]["warm"]
    for data in (cold, warm):
        assert data["points_served"] == CLIENTS * unique
        assert data["points_per_sec"] > 0
    assert warm["wall_seconds"] <= cold["wall_seconds"]

    written = json.loads(BENCH_PATH.read_text(encoding="utf-8"))
    assert written["passes"]["cold"]["points_per_sec"] > 0
    assert written["passes"]["warm"]["points_per_sec"] > 0
