"""The wire layer: a newline-delimited-JSON asyncio sweep server.

One TCP connection carries any number of requests, one JSON object per
line; every request gets exactly one JSON response line.  Operations:

* ``{"op": "ping"}`` — liveness probe; echoes the library version.
* ``{"op": "stats"}`` — the service's monotonic counters (loadgen
  computes per-pass deltas from two snapshots) plus live gauges
  (``queued_points``, ``active_jobs``, ``draining``) and the result
  LRU's size and hit/miss/eviction counters (``result_cache``).
* ``{"op": "sweep", ...}`` — submit a job and block until it resolves.
  The sweep is either a cross-product (``benchmarks`` x ``designs`` x
  ``windows``) or an explicit ``points`` list of ``[benchmark, design,
  window]`` triples; ``scale`` carries ``num_warps`` / ``trace_scale``
  / ``memory_seed`` / ``num_sms``, ``priority`` orders the queue
  (lower first), and ``deadline_ms`` expires points still queued when
  it elapses.  The response has one entry per unique point with
  provenance (``warm`` / ``flight`` / ``memo`` / ``cache`` / ``sim``)
  so a client can verify single-flight behaviour end to end.
* ``{"op": "shutdown"}`` — acknowledge, then stop the server.  With
  ``"mode": "drain"`` the server first stops accepting jobs, finishes
  everything in flight (bounded by ``drain_timeout`` seconds), and
  reports whether the drain completed cleanly.

Responses always carry ``"ok"``; protocol failures (bad JSON, unknown
op, unknown benchmark/design, a non-numeric or non-finite
``deadline_ms``/``drain_timeout``) answer ``{"ok": false, "error": ...}``
on the same connection instead of dropping it, so one bad client
request cannot take a shared connection down.  A shed job answers
``"error_type": "ServiceOverloadedError"`` with a ``retry_after_ms``
backoff hint.  Clients that disconnect mid-response are counted
(``stats.disconnects``) and their connection torn down cleanly —
never propagated.
"""

from __future__ import annotations

import asyncio
import json
import signal
from typing import Optional, Sequence

from .. import __version__
from ..errors import ReproError, ServiceError
from ..experiments.runner import RunScale, memo_stats
from .core import (
    SERVICE_SCHEMA_VERSION,
    PointSpec,
    SweepService,
    expand_points,
    require_finite,
)

#: Largest accepted request line (a full-suite sweep spec is ~1 KB;
#: this bounds a malicious or corrupt client's memory cost).
MAX_REQUEST_BYTES = 1 << 20

#: Default hard bound on a drain-mode shutdown (seconds).
DEFAULT_DRAIN_TIMEOUT = 30.0


def parse_scale(payload: Optional[dict]) -> RunScale:
    """A :class:`RunScale` from its wire form (missing fields default)."""
    payload = payload or {}
    known = {"num_warps", "trace_scale", "memory_seed", "num_sms"}
    unknown = set(payload) - known
    if unknown:
        raise ServiceError(f"unknown scale field(s): {sorted(unknown)}")
    try:
        return RunScale(**payload)
    except TypeError as error:
        raise ServiceError(f"bad scale: {error}") from None


def parse_sweep_specs(request: dict) -> Sequence[PointSpec]:
    """The normalized point list one ``sweep`` request asks for."""
    scale = parse_scale(request.get("scale"))
    if "points" in request:
        points = request["points"]
        if not isinstance(points, list) or not points:
            raise ServiceError("points must be a non-empty list")
        specs = []
        seen = set()
        for item in points:
            if not (isinstance(item, (list, tuple)) and len(item) == 3):
                raise ServiceError(
                    "each point must be [benchmark, design, window]")
            benchmark, design, window = item
            spec = PointSpec.create(benchmark, design, int(window), scale)
            if spec in seen:
                continue
            seen.add(spec)
            specs.append(spec)
        return specs
    benchmarks = request.get("benchmarks") or []
    designs = request.get("designs") or []
    windows = request.get("windows") or [3]
    if not benchmarks or not designs:
        raise ServiceError("sweep needs benchmarks+designs or points")
    return expand_points(benchmarks, designs, windows, scale)


def _number(request: dict, name: str, kind, default):
    """``request[name]`` as ``kind``, or a :class:`ServiceError`.

    Non-finite floats (``NaN``/``Infinity``, which ``json.loads``
    accepts) pass through here and are rejected by the service.
    """
    value = request.get(name)
    if value is None:
        return default
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError):
        raise ServiceError(f"{name} must be a number, got {value!r}") from None


class SweepServer:
    """Serves a :class:`SweepService` over TCP (JSON lines).

    Start with :meth:`start` (binds; ``port=0`` picks an ephemeral
    port, exposed as :attr:`port`), then either :meth:`serve_until_shutdown`
    or your own wait; :meth:`close` tears down the listener and the
    underlying service.  ``drain_timeout`` bounds drain-mode shutdowns
    (wire-requested or SIGTERM-triggered) that do not name their own.
    """

    def __init__(self, service: SweepService, host: str = "127.0.0.1",
                 port: int = 0,
                 drain_timeout: float = DEFAULT_DRAIN_TIMEOUT) -> None:
        require_finite("drain_timeout", drain_timeout)
        self.service = service
        self.host = host
        self.port = port
        self.drain_timeout = drain_timeout
        self._server: Optional[asyncio.AbstractServer] = None
        self._shutdown = asyncio.Event()

    async def start(self) -> "SweepServer":
        await self.service.start()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port,
            limit=MAX_REQUEST_BYTES)
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def serve_until_shutdown(self) -> None:
        """Block until a client sends ``{"op": "shutdown"}``."""
        await self._shutdown.wait()

    async def drain(self, timeout: Optional[float] = None) -> bool:
        """Drain the service, then release :meth:`serve_until_shutdown`.

        Returns ``True`` when every accepted point finished within the
        budget (``timeout``, defaulting to the server's
        ``drain_timeout``).
        """
        budget = self.drain_timeout if timeout is None else timeout
        drained = await self.service.drain(budget)
        self._shutdown.set()
        return drained

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.service.close()
        self._shutdown.set()

    async def __aenter__(self) -> "SweepServer":
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    # -- connection handling ------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    await self._send(writer, {
                        "ok": False, "error": "request too large"})
                    break
                if not line:
                    break
                response, stop = await self._respond(line)
                await self._send(writer, response)
                if stop:
                    self._shutdown.set()
                    break
        except asyncio.CancelledError:
            raise  # server teardown cancels handlers; do not swallow
        except ConnectionError:
            # The client vanished mid-request or mid-response
            # (BrokenPipeError / ConnectionResetError).  Any job it
            # submitted keeps running — its results warm the cache for
            # everyone else; the connection is just counted and closed.
            self.service.stats.disconnects += 1
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _respond(self, line: bytes):
        """(response dict, stop?) for one raw request line."""
        try:
            request = json.loads(line.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            return {"ok": False, "error": f"bad request: {error}"}, False
        if not isinstance(request, dict):
            return {"ok": False, "error": "request must be an object"}, False
        op = request.get("op")
        try:
            if op == "ping":
                return {"ok": True, "op": "ping",
                        "version": __version__,
                        "schema": SERVICE_SCHEMA_VERSION}, False
            if op == "stats":
                return {"ok": True, "op": "stats",
                        "stats": self.service.stats.as_dict(),
                        "warm_points": self.service.warm_points,
                        "result_cache": memo_stats(),
                        "inflight_points": self.service.inflight_points,
                        "queued_points": self.service.queued_points,
                        "active_jobs": self.service.active_jobs,
                        "draining": self.service.draining,
                        }, False
            if op == "sweep":
                return await self._handle_sweep(request), False
            if op == "shutdown":
                if request.get("mode") == "drain":
                    drained = await self.drain(
                        _number(request, "drain_timeout", float, None))
                    return {"ok": True, "op": "shutdown",
                            "mode": "drain", "drained": drained}, True
                return {"ok": True, "op": "shutdown"}, True
        except ReproError as error:
            response = {"ok": False, "op": op, "error": str(error),
                        "error_type": type(error).__name__}
            retry_after = getattr(error, "retry_after_ms", None)
            if retry_after is not None:
                response["retry_after_ms"] = retry_after
            return response, False
        return {"ok": False,
                "error": f"unknown op {op!r} (ping/stats/sweep/shutdown)",
                }, False

    async def _handle_sweep(self, request: dict) -> dict:
        specs = parse_sweep_specs(request)
        priority = _number(request, "priority", int, 0)
        job = await self.service.submit(
            specs, priority=priority,
            deadline_ms=_number(request, "deadline_ms", float, None))
        points = []
        for outcome in job.outcomes:
            entry = {
                "benchmark": outcome.spec.benchmark,
                "design": outcome.spec.design,
                "window": outcome.spec.window,
                "source": outcome.source,
                "seconds": outcome.seconds,
                "ok": outcome.ok,
            }
            if outcome.ok:
                entry["cycles"] = outcome.result.counters.cycles
                entry["instructions"] = outcome.result.counters.instructions
                entry["ipc"] = outcome.result.ipc
            else:
                entry["error_type"] = outcome.error_type
                entry["error"] = outcome.error
            points.append(entry)
        return {
            "ok": job.ok,
            "op": "sweep",
            "job": job.job_id,
            "seconds": job.seconds,
            "points": points,
            "sources": job.sources(),
            "failed": job.failed,
        }

    @staticmethod
    async def _send(writer: asyncio.StreamWriter, payload: dict) -> None:
        """Write one response line (fault-injection seam)."""
        writer.write(json.dumps(payload).encode("utf-8") + b"\n")
        await writer.drain()


async def serve(
    host: str = "127.0.0.1",
    port: int = 8337,
    *,
    service: Optional[SweepService] = None,
    drain_timeout: float = DEFAULT_DRAIN_TIMEOUT,
    ready: Optional["asyncio.Event"] = None,
    announce=None,
) -> None:
    """Run a sweep server until a client asks it to shut down.

    ``announce`` (a callable taking one line of text) is told the
    bound address once listening — the CLI prints it, tests capture
    it; ``ready`` is set at the same moment for in-process callers.

    On platforms that support it, SIGTERM triggers a graceful drain
    (stop accepting, finish in flight, flush journal/telemetry, exit)
    bounded by ``drain_timeout``.  When the service's journal shows
    scheduled-but-unresolved points from a previous incarnation,
    recovery runs in the background as soon as the listener is up —
    concurrent client requests for the same points coalesce with the
    recovery job instead of duplicating work.
    """
    server = SweepServer(service or SweepService(), host=host, port=port,
                         drain_timeout=drain_timeout)
    await server.start()
    if announce is not None:
        announce(f"repro service listening on {server.host}:{server.port}")
    if ready is not None:
        ready.set()

    loop = asyncio.get_running_loop()

    def _on_sigterm() -> None:
        if announce is not None:
            announce("SIGTERM: draining "
                     f"(timeout {server.drain_timeout:.0f}s)")
        asyncio.ensure_future(server.drain())

    try:
        loop.add_signal_handler(signal.SIGTERM, _on_sigterm)
    except (NotImplementedError, RuntimeError, ValueError):
        pass  # non-main thread or platform without signal support

    recovery_task = None
    state = server.service.journal_state
    if state is not None and state.needs_recovery:
        if announce is not None:
            announce(f"journal shows {len(state.unresolved_points)} "
                     f"unresolved point(s) from "
                     f"{len(state.unfinished_jobs)} job(s); recovering")

        async def _recover() -> None:
            try:
                report = await server.service.recover()
            except ServiceError as error:
                if announce is not None:
                    announce(f"recovery failed: {error}")
                return
            if announce is not None:
                announce(f"recovered {report.replayed} point(s) "
                         f"({report.failed} failed, "
                         f"{report.skipped} skipped)")

        recovery_task = asyncio.ensure_future(_recover())
    try:
        await server.serve_until_shutdown()
    finally:
        if recovery_task is not None and not recovery_task.done():
            recovery_task.cancel()
            try:
                await recovery_task
            except asyncio.CancelledError:
                pass
        try:
            loop.remove_signal_handler(signal.SIGTERM)
        except (NotImplementedError, RuntimeError, ValueError):
            pass
        await server.close()
