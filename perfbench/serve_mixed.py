"""Workload ``serve-mixed``: a sweep service under mixed repeat/new traffic.

An in-process ``SweepServer`` runs on its own thread over a
``RunCache``.  One asyncio loop holds two ``ServiceClient``
connections and drives a closed loop in lock-step rounds: each round
both clients send one ``sweep`` request of four small points and wait
for both replies before the next round.  About three quarters of the
points repeat earlier ones with skewed popularity and a quarter are
new; in some rounds both clients ask for the same new point at once.
Halfway through, the service is shut down, the process memo is
dropped and a fresh service starts on the same cache directory, so
repeats are then served by ``RunCache.get`` and decoding.
"""

from __future__ import annotations

import asyncio
import random
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from harness import HostProbe, Outcome, Stopwatch
from repro.core.designs import design_names
from repro.experiments import runner
from repro.errors import ServiceError
from repro.experiments.cache import RunCache
from repro.kernels.suites import benchmark_names
from repro.service.client import ServiceClient
from repro.service.core import SweepService
from repro.service.server import SweepServer

NUM_WARPS = 4
TRACE_SCALE = 0.1
WINDOWS = (2, 3, 4, 5, 6, 7)
POINTS_PER_REQUEST = 4
NEW_SHARE = 0.25
#: Share of rounds in which the second client also asks for the first
#: client's new point.
SHARED_ROUND_SHARE = 0.2
#: Popularity skew of repeats: an earlier point at history rank ``r``
#: of ``n`` is drawn with density falling as ``(r / n) ** (1 / SKEW)``.
SKEW = 2.0
#: Memory seeds (scales) a request may use, drawn uniformly.
SCALES = 4
CLIENTS = 2
#: Rounds between host-speed samples (about half a second).
PROBE_EVERY = 5
#: Requests from the first rounds whose results are re-simulated and
#: compared with what the service returned.
REFERENCE_ROUNDS = 5
REFERENCE_POINTS = 3

Point = Tuple[str, str, int]
Request = Tuple[int, Tuple[Point, ...]]


class RequestStream:
    """The seeded, unbounded sequence of request rounds.

    Every call to :meth:`next_round` returns one request per client;
    the same seed always yields the same rounds.
    """

    def __init__(self, seed: int) -> None:
        self._rng = random.Random(seed)
        self.memory_seeds = tuple(self._rng.sample(range(1, 1 << 16), SCALES))
        universe = sorted({
            (benchmark, design, runner.effective_window(design, window))
            for benchmark in benchmark_names()
            for design in design_names()
            for window in WINDOWS
        })
        self._fresh: List[List[Point]] = []
        for _ in range(SCALES):
            order = list(universe)
            self._rng.shuffle(order)
            self._fresh.append(order)
        self._history: List[List[Point]] = [[] for _ in range(SCALES)]

    def scale(self, index: int) -> runner.RunScale:
        return runner.RunScale(num_warps=NUM_WARPS, trace_scale=TRACE_SCALE,
                               memory_seed=self.memory_seeds[index])

    def _new(self, scale: int) -> Optional[Point]:
        if not self._fresh[scale]:
            return None
        point = self._fresh[scale].pop()
        self._history[scale].append(point)
        return point

    def _repeat(self, scale: int) -> Optional[Point]:
        history = self._history[scale]
        if not history:
            return None
        return history[int(len(history) * self._rng.random() ** SKEW)]

    def _request(self, scale: int, first: Optional[Point] = None
                 ) -> Tuple[Request, List[Point]]:
        points: List[Point] = [first] if first is not None else []
        new: List[Point] = []
        while len(points) < POINTS_PER_REQUEST:
            point = None
            if self._rng.random() >= NEW_SHARE:
                point = self._repeat(scale)
            if point is None or point in points:
                point = self._new(scale)
                if point is None:  # universe used up: repeat instead
                    point = self._repeat(scale)
                    if point in points:
                        continue
                else:
                    new.append(point)
            points.append(point)
        return (scale, tuple(points)), new

    def next_round(self) -> List[Request]:
        scale = self._rng.randrange(SCALES)
        first, new = self._request(scale)
        if new and self._rng.random() < SHARED_ROUND_SHARE:
            second, _ = self._request(scale, first=new[0])
        else:
            second, _ = self._request(self._rng.randrange(SCALES))
        return [first, second]


def generate(seed: int) -> RequestStream:
    return RequestStream(seed)


class ServerThread:
    """A ``SweepServer`` with its own event loop on its own thread."""

    def __init__(self, cache_dir: Path) -> None:
        self.cache = RunCache(cache_dir)
        self.port = 0
        self.error: Optional[BaseException] = None
        self._ready = threading.Event()
        self._thread = threading.Thread(target=self._main,
                                        name="perfbench-server", daemon=True)

    def start(self, timeout: float = 30.0) -> "ServerThread":
        self._thread.start()
        if not self._ready.wait(timeout) or self.error is not None:
            raise RuntimeError(f"sweep server did not start: {self.error}")
        return self

    def _main(self) -> None:
        try:
            asyncio.run(self._serve())
        except BaseException as error:  # reported by start()/join()
            self.error = error
            self._ready.set()

    async def _serve(self) -> None:
        server = SweepServer(SweepService(cache=self.cache), port=0)
        await server.start()
        self.port = server.port
        self._ready.set()
        try:
            await server.serve_until_shutdown()
        finally:
            await server.close()

    def join(self, timeout: float = 60.0) -> None:
        self._thread.join(timeout)
        if self._thread.is_alive():
            raise RuntimeError("sweep server did not stop")
        if self.error is not None:
            raise RuntimeError(f"sweep server failed: {self.error!r}")


async def _connect(port: int) -> List[ServiceClient]:
    return [await ServiceClient(port=port).connect() for _ in range(CLIENTS)]


async def _stop(server: ServerThread, clients: List[ServiceClient]) -> dict:
    """Read the service counters, shut the server down, join it."""
    stats = (await clients[0].stats())["stats"]
    for client in clients[1:]:
        await client.close()
    await clients[0].shutdown()
    await clients[0].close()
    server.join()
    return stats


class Workload:
    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self._services = 0

    def _cache_dir(self) -> Path:
        self._services += 1
        return self.workdir / f"cache-{self._services}"

    def setup(self) -> None:
        self.workdir.mkdir(parents=True, exist_ok=True)
        runner.clear_cache()

        async def start_and_ping() -> None:
            server = ServerThread(self._cache_dir()).start()
            clients = await _connect(server.port)
            reply = await clients[0].ping()
            await _stop(server, clients)
            if not reply.get("ok"):
                raise RuntimeError(f"ping failed: {reply}")

        asyncio.run(start_and_ping())

    def measure(self, seconds: float, probe: HostProbe) -> Outcome:
        outcome = Outcome(operation="sweep request")
        served: Dict[Tuple[int, Point], Tuple[int, int, float]] = {}
        before = runner.simulations_run()
        asyncio.run(self._drive(seconds, probe, outcome, served))
        outcome.simulations = runner.simulations_run() - before
        requests = len(outcome.latencies_ms)
        outcome.records = 2 * requests
        outcome.unit_seconds = outcome.seconds / max(1, requests)
        outcome.checks.expect(
            outcome.service.get("simulated") == len(served),
            f"service simulated {outcome.service.get('simulated')} points, "
            f"{len(served)} distinct points were requested")
        self._check_reference(outcome, served)
        return outcome

    async def _drive(self, seconds: float, probe: HostProbe,
                     outcome: Outcome, served) -> None:
        """Run rounds for ``seconds``, restarting the service halfway.

        Every ``PROBE_EVERY`` rounds (and at the restart) the host time
        of the rounds since the last probe, and their latencies, are
        scaled to reference speed.
        """
        stream = generate(self.seed)
        cache_dir = self._cache_dir()
        server = ServerThread(cache_dir).start()
        clients = await _connect(server.port)
        watch = Stopwatch(probe)
        busy, latencies = 0.0, []

        def lap() -> None:
            scale = watch.lap(busy)
            outcome.latencies_ms.extend(
                latency * scale for latency in latencies if latency is not None)

        started = time.perf_counter()
        restarted = False
        while time.perf_counter() - started < seconds:
            if not restarted and time.perf_counter() - started >= seconds / 2:
                restarted = True
                lap()
                busy, latencies = 0.0, []
                self._add_stats(outcome, await _stop(server, clients))
                outcome.caches.append(server.cache)
                runner.clear_cache()
                server = ServerThread(cache_dir).start()
                clients = await _connect(server.port)
            requests = stream.next_round()
            round_started = time.perf_counter()
            latencies.extend(await asyncio.gather(*(
                self._send(client, stream, request, outcome, served)
                for client, request in zip(clients, requests))))
            busy += time.perf_counter() - round_started
            if len(latencies) == PROBE_EVERY * CLIENTS:
                lap()
                busy, latencies = 0.0, []
        lap()
        self._add_stats(outcome, await _stop(server, clients))
        outcome.caches.append(server.cache)
        outcome.seconds = watch.total

    @staticmethod
    def _add_stats(outcome: Outcome, stats: Dict[str, int]) -> None:
        for name, value in stats.items():
            outcome.service[name] = outcome.service.get(name, 0) + value

    async def _send(self, client: ServiceClient, stream: RequestStream,
                    request: Request, outcome: Outcome,
                    served) -> Optional[float]:
        """One request; returns its latency in ms (``None`` if it failed)."""
        scale, points = request
        checks = outcome.checks
        checks.attempt()
        started = time.perf_counter()
        try:
            reply = await client.sweep(
                points=[list(point) for point in points],
                scale=stream.scale(scale))
        except (ServiceError, OSError, ValueError) as error:
            checks.fail(f"request failed: {error!r}")
            return None
        latency = (time.perf_counter() - started) * 1000.0
        entries = reply.get("points", [])
        if not reply.get("ok") or len(entries) != len(points):
            checks.fail(f"request failed: {reply.get('error', reply)}")
            return None
        mismatched = False
        for entry in entries:
            value = (entry["cycles"], entry["instructions"], entry["ipc"])
            key = (scale, (entry["benchmark"], entry["design"], entry["window"]))
            mismatched |= served.setdefault(key, value) != value
            outcome.points += 1
            outcome.instructions += entry["instructions"]
        checks.expect(not mismatched, "a point was served two different results")
        return latency

    def _check_reference(self, outcome: Outcome, served) -> None:
        """Re-simulate a few early points and compare with the service."""
        stream = generate(self.seed)
        candidates = sorted({
            (scale, (b, d, runner.effective_window(d, w)))
            for _ in range(REFERENCE_ROUNDS)
            for scale, points in stream.next_round() for b, d, w in points})
        sample = random.Random(self.seed).sample(
            candidates, min(REFERENCE_POINTS, len(candidates)))
        runner.clear_cache()
        for scale, (benchmark, design, window) in sample:
            reference = runner.run_design(benchmark, design, window,
                                          stream.scale(scale))
            expected = (reference.counters.cycles,
                        reference.counters.instructions, reference.ipc)
            got = served.get((scale, (benchmark, design, window)))
            outcome.checks.expect(
                got == expected, f"{benchmark}/{design}/IW{window}: served "
                f"{got}, run_design gives {expected}")
        runner.clear_cache()

    def close(self) -> None:
        runner.clear_cache()
