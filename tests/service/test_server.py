"""Tests for the JSONL-over-TCP wire layer and the load generator."""

import asyncio
import json
import threading

import pytest

from repro.errors import ServiceError
from repro.experiments.runner import (
    RunScale,
    clear_cache,
    reset_simulations_counter,
    set_cache,
    simulations_run,
)
from repro.service import (
    ServiceClient,
    SweepServer,
    SweepService,
    format_report,
    parse_scale,
    parse_sweep_specs,
    run_loadgen,
)

TINY = RunScale(num_warps=2, trace_scale=0.1)
SCALE_WIRE = {"num_warps": 2, "trace_scale": 0.1}


@pytest.fixture(autouse=True)
def isolated_caches():
    clear_cache()
    previous = set_cache(None)
    reset_simulations_counter()
    yield
    set_cache(previous)
    clear_cache()


class TestParsing:
    def test_parse_scale_defaults(self):
        assert parse_scale(None) == RunScale()
        assert parse_scale({}) == RunScale()

    def test_parse_scale_fields(self):
        scale = parse_scale({"num_warps": 2, "trace_scale": 0.1,
                             "num_sms": 2})
        assert scale == RunScale(num_warps=2, trace_scale=0.1, num_sms=2)

    def test_parse_scale_rejects_unknown_fields(self):
        with pytest.raises(ServiceError):
            parse_scale({"num_warps": 2, "warp_speed": 9})

    def test_parse_sweep_cross_product(self):
        specs = parse_sweep_specs({
            "op": "sweep", "benchmarks": ["bfs"], "designs": ["bow"],
            "windows": [3], "scale": SCALE_WIRE})
        assert len(specs) == 1
        assert specs[0].benchmark == "BFS"

    def test_parse_sweep_explicit_points(self):
        specs = parse_sweep_specs({
            "op": "sweep",
            "points": [["BFS", "bow", 3], ["bfs", "bow", "3"],
                       ["NW", "baseline", 2]],
            "scale": SCALE_WIRE})
        assert len(specs) == 2  # duplicate collapses

    def test_parse_sweep_rejects_shapeless_requests(self):
        with pytest.raises(ServiceError):
            parse_sweep_specs({"op": "sweep"})
        with pytest.raises(ServiceError):
            parse_sweep_specs({"op": "sweep", "points": []})
        with pytest.raises(ServiceError):
            parse_sweep_specs({"op": "sweep", "points": [["BFS", "bow"]]})


def with_server(coroutine_factory):
    """Run ``coroutine_factory(server)`` against an in-process server."""
    async def scenario():
        async with SweepServer(SweepService(cache=None)) as server:
            return await coroutine_factory(server)

    return asyncio.run(scenario())


class TestServer:
    def test_ping(self):
        async def check(server):
            async with ServiceClient(port=server.port) as client:
                return await client.ping()

        response = with_server(check)
        assert response["ok"]
        assert "version" in response

    def test_stats(self):
        async def check(server):
            async with ServiceClient(port=server.port) as client:
                return await client.stats()

        response = with_server(check)
        assert response["stats"]["jobs"] == 0
        assert response["inflight_points"] == 0

    def test_sweep_cross_product(self):
        async def check(server):
            async with ServiceClient(port=server.port) as client:
                return await client.sweep(
                    benchmarks=["BFS"], designs=["baseline", "bow"],
                    windows=[3], scale=TINY)

        response = with_server(check)
        assert response["ok"]
        assert response["failed"] == 0
        assert len(response["points"]) == 2
        for point in response["points"]:
            assert point["ok"]
            assert point["source"] == "sim"
            assert point["cycles"] > 0
            assert point["ipc"] > 0

    def test_sweep_explicit_points_and_warm_reuse(self):
        async def check(server):
            async with ServiceClient(port=server.port) as client:
                first = await client.sweep(
                    points=[["BFS", "bow", 3]], scale=TINY)
                second = await client.sweep(
                    points=[["bfs", "bow", 3]], scale=TINY)
            return first, second

        first, second = with_server(check)
        assert first["points"][0]["source"] == "sim"
        assert second["points"][0]["source"] == "warm"
        assert first["points"][0]["cycles"] == second["points"][0]["cycles"]
        assert simulations_run() == 1

    def test_one_connection_carries_many_requests(self):
        async def check(server):
            async with ServiceClient(port=server.port) as client:
                ping = await client.ping()
                sweep = await client.sweep(points=[["BFS", "baseline", 3]],
                                           scale=TINY)
                stats = await client.stats()
            return ping, sweep, stats

        ping, sweep, stats = with_server(check)
        assert ping["ok"] and sweep["ok"] and stats["ok"]
        assert stats["stats"]["jobs"] == 1

    def test_bad_json_answers_without_dropping_the_connection(self):
        async def check(server):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port)
            writer.write(b"this is not json\n")
            await writer.drain()
            bad = json.loads(await reader.readline())
            writer.write(json.dumps({"op": "ping"}).encode() + b"\n")
            await writer.drain()
            good = json.loads(await reader.readline())
            writer.close()
            await writer.wait_closed()
            return bad, good

        bad, good = with_server(check)
        assert not bad["ok"]
        assert "bad request" in bad["error"]
        assert good["ok"]

    def test_non_object_request_rejected(self):
        async def check(server):
            async with ServiceClient(port=server.port) as client:
                return await client.request([1, 2, 3])

        response = with_server(check)
        assert not response["ok"]
        assert "object" in response["error"]

    def test_unknown_op_rejected(self):
        async def check(server):
            async with ServiceClient(port=server.port) as client:
                return await client.request({"op": "teleport"})

        response = with_server(check)
        assert not response["ok"]
        assert "unknown op" in response["error"]

    def test_unknown_design_is_a_clean_error_response(self):
        async def check(server):
            async with ServiceClient(port=server.port) as client:
                return await client.sweep(benchmarks=["BFS"],
                                          designs=["quantum"],
                                          scale=TINY)

        response = with_server(check)
        assert not response["ok"]
        assert response["error_type"] == "ExperimentError"
        assert "quantum" in response["error"]

    def test_bad_scale_is_a_service_error(self):
        async def check(server):
            async with ServiceClient(port=server.port) as client:
                return await client.request({
                    "op": "sweep", "benchmarks": ["BFS"],
                    "designs": ["bow"],
                    "scale": {"warp_factor": 9}})

        response = with_server(check)
        assert not response["ok"]
        assert response["error_type"] == "ServiceError"

    @pytest.mark.parametrize("deadline", ["NaN", "Infinity", "-Infinity",
                                          '"soon"'])
    def test_bad_deadline_is_answered_in_band(self, deadline):
        async def check(server):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port)
            # Raw bytes: json.loads accepts NaN and Infinity literals.
            writer.write(b'{"op": "sweep", "points": [["BFS", "bow", 3]], '
                         b'"scale": {"num_warps": 2, "trace_scale": 0.1}, '
                         b'"deadline_ms": ' + deadline.encode() + b'}\n')
            await writer.drain()
            bad = json.loads(await asyncio.wait_for(reader.readline(), 10))
            writer.write(b'{"op": "ping"}\n')
            await writer.drain()
            good = json.loads(await asyncio.wait_for(reader.readline(), 10))
            writer.close()
            await writer.wait_closed()
            return bad, good

        bad, good = with_server(check)
        assert not bad["ok"]
        assert bad["error_type"] == "ServiceError"
        assert "deadline_ms" in bad["error"]
        assert good["ok"]
        assert simulations_run() == 0

    def test_non_finite_drain_timeout_is_answered_in_band(self):
        async def check(server):
            async with ServiceClient(port=server.port) as client:
                bad = await client.request({"op": "shutdown", "mode": "drain",
                                            "drain_timeout": float("nan")})
                good = await client.ping()
            return bad, good, server.service.draining

        bad, good, draining = with_server(check)
        assert not bad["ok"]
        assert bad["error_type"] == "ServiceError"
        assert good["ok"]
        assert not draining

    def test_non_finite_server_drain_timeout_rejected(self):
        with pytest.raises(ServiceError, match="finite"):
            SweepServer(SweepService(cache=None),
                        drain_timeout=float("inf"))

    def test_stats_report_the_result_cache(self):
        async def check(server):
            async with ServiceClient(port=server.port) as client:
                await client.sweep(points=[["BFS", "bow", 3]], scale=TINY)
                return await client.stats()

        response = with_server(check)
        cache = response["result_cache"]
        assert cache["entries"] == response["warm_points"] == 1
        assert cache["capacity"] >= 1
        assert cache["evictions"] == 0

    def test_shutdown_op_stops_serve_until_shutdown(self):
        async def scenario():
            server = SweepServer(SweepService(cache=None))
            await server.start()
            waiter = asyncio.ensure_future(server.serve_until_shutdown())
            async with ServiceClient(port=server.port) as client:
                ack = await client.shutdown()
            await asyncio.wait_for(waiter, timeout=5.0)
            await server.close()
            return ack

        ack = asyncio.run(scenario())
        assert ack["ok"]
        assert ack["op"] == "shutdown"

    def test_failed_point_reported_per_point_not_per_connection(
            self, monkeypatch):
        from repro.experiments import runner
        from repro.experiments.resilience import RetryPolicy

        real_execute = runner.execute_run

        def failing_execute(benchmark, design, *args, **kwargs):
            if design == "bow":
                raise ValueError("injected failure")
            return real_execute(benchmark, design, *args, **kwargs)

        monkeypatch.setattr(runner, "execute_run", failing_execute)

        async def scenario():
            service = SweepService(cache=None,
                                   retry=RetryPolicy(max_attempts=1))
            async with SweepServer(service) as server:
                async with ServiceClient(port=server.port) as client:
                    return await client.sweep(
                        benchmarks=["BFS"], designs=["baseline", "bow"],
                        scale=TINY)

        response = asyncio.run(scenario())
        assert not response["ok"]
        assert response["failed"] == 1
        by_design = {p["design"]: p for p in response["points"]}
        assert by_design["baseline"]["ok"]
        assert not by_design["bow"]["ok"]
        assert by_design["bow"]["error_type"] == "SweepPointError"


class ServerThread:
    """A sweep server on a background thread with its own event loop —
    how the synchronous ``run_loadgen`` entry point is tested."""

    def __init__(self):
        self.port = None
        self._ready = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def __enter__(self):
        self._thread.start()
        assert self._ready.wait(timeout=10.0), "server did not start"
        return self

    def __exit__(self, *exc_info):
        self._thread.join(timeout=30.0)
        assert not self._thread.is_alive(), "server did not shut down"

    def _run(self):
        async def main():
            server = SweepServer(SweepService(cache=None))
            await server.start()
            self.port = server.port
            self._ready.set()
            try:
                await server.serve_until_shutdown()
            finally:
                await server.close()

        asyncio.run(main())


class TestLoadgen:
    def test_loadgen_demonstrates_single_flight(self, tmp_path):
        report_path = tmp_path / "BENCH_service.json"
        with ServerThread() as running:
            report = run_loadgen(
                port=running.port, clients=8,
                benchmarks=("BFS", "NW"), designs=("baseline", "bow"),
                windows=(3,), scale=TINY, shutdown=True,
                report_path=str(report_path))

        unique = report["unique_points"]
        assert unique == 4
        flight = report["single_flight"]
        assert flight["dedup_ok"]
        # Cold: 8 concurrent clients x 4 identical points cost exactly
        # 4 simulations; warm: zero.
        assert flight["cold_simulated"] == unique
        assert flight["cold_resolved_once"] == unique
        assert flight["warm_simulated"] == 0
        assert flight["warm_hits"] == 8 * unique
        for name in ("cold", "warm"):
            data = report["passes"][name]
            assert data["points_served"] == 8 * unique
            assert data["points_per_sec"] > 0
            assert data["latency"]["p95"] >= data["latency"]["p50"]

        written = json.loads(report_path.read_text(encoding="utf-8"))
        assert written["single_flight"]["dedup_ok"]

        text = format_report(report)
        assert "single-flight OK" in text
        assert "cold" in text and "warm" in text

    def test_loadgen_max_points_truncates(self):
        with ServerThread() as running:
            report = run_loadgen(
                port=running.port, clients=2,
                benchmarks=("BFS", "NW"), designs=("baseline", "bow"),
                windows=(3,), scale=TINY, max_points=2, shutdown=True)
        assert report["unique_points"] == 2
        assert report["single_flight"]["dedup_ok"]

    def test_loadgen_validates_arguments(self):
        with pytest.raises(ServiceError):
            run_loadgen(clients=0)
        with ServerThread() as running:
            with pytest.raises(ServiceError):
                run_loadgen(port=running.port, clients=1,
                            benchmarks=("BFS",), designs=("bow",),
                            scale=TINY, max_points=0, shutdown=True)
            # The failed run left the server up; shut it down cleanly.
            run_loadgen(port=running.port, clients=1,
                        benchmarks=("BFS",), designs=("bow",),
                        scale=TINY, shutdown=True)

    def test_loadgen_connection_refused_is_a_service_error(
            self, monkeypatch):
        from repro.service import client as client_module

        monkeypatch.setattr(client_module, "CONNECT_RETRY_SECONDS", 0.2)
        with pytest.raises(ServiceError):
            run_loadgen(port=1, clients=1, scale=TINY)


class TestFormatReport:
    def test_failed_dedup_is_loud(self):
        report = {
            "clients": 2, "requested_per_client": 1, "unique_points": 1,
            "host": "h", "port": 1,
            "passes": {"cold": {
                "points_served": 2, "wall_seconds": 1.0,
                "points_per_sec": 2.0,
                "latency": {"mean": 0.5, "p50": 0.5, "p95": 0.5,
                            "max": 0.5},
                "service": {"simulated": 2, "coalesced": 0,
                            "warm_hits": 0},
            }},
            "single_flight": {"dedup_ok": False, "cold_simulated": 2,
                              "cold_resolved_once": 2,
                              "warm_simulated": 0},
        }
        assert "single-flight FAILED" in format_report(report)
