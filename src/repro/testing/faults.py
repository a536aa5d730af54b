"""Deterministic, seed-driven fault injection for the sweep engine.

The resilience layer (:mod:`repro.experiments.resilience`) claims a
sweep survives worker crashes, hangs, and a failing cache.  This
module makes those events reproducible on demand so tests and the CI
chaos-smoke job can prove it:

* a :class:`FaultPlan` holds :class:`FaultSpec` entries — *what* to
  inject (a crash, a hang, a deadlock, a torn cache write, ENOSPC,
  EACCES), *where* (a substring match on the point label or cache
  key), *how often* (a deterministic per-token probability), and *how
  many times* before the fault heals;
* :func:`install` monkeypatches the seams the engine already exposes —
  ``runner.execute_run`` (every simulator invocation funnels through
  it), the ``RunCache._read_text``/``_write_entry`` I/O methods, the
  sweep service's ``Journal._write_line`` durability seam and
  ``SweepServer._send`` wire seam — and registers a pool-worker
  initializer on the grid so the hooks are active inside workers even
  under spawn-based multiprocessing (fork inherits them
  automatically).

Service faults (:data:`SERVICE_KINDS`) extend the drill to the layer
real traffic hits: ``kill-server`` hard-exits the serving *process*
mid-batch (the SIGKILL stand-in the chaos-serve recovery drill builds
on), ``journal-corrupt`` / ``journal-error`` tear or fail journal
lines, and ``conn-drop`` / ``slow-write`` abort or stall wire
responses mid-send.

**Determinism.**  Whether a fault fires depends only on the plan's
seed, the spec, and the token (point label / cache key) — never on
worker identity, wall-clock time, or completion order.  Firing *counts*
(``times``) are coordinated across processes through exclusive-create
marker files in ``state_dir``, so "crash twice, then heal" means
exactly twice no matter how many workers race: the same fault seed
produces the same failure records at ``jobs=1`` and ``jobs=8``.
"""

from __future__ import annotations

import errno
import hashlib
import multiprocessing
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional, Sequence, Union

from ..errors import DeadlockError, ExperimentError, SimulationError
from ..experiments import grid, runner
from ..experiments.cache import RunCache

#: Exit status of a worker killed by a ``kill`` fault (any non-zero
#: status breaks the pool; this one is recognizable in core dumps).
KILL_EXIT_CODE = 87

#: Fault kinds hooked into ``runner.execute_run``.
RUN_KINDS = frozenset({"raise", "oserror", "kill", "hang", "deadlock"})

#: Fault kinds hooked into the ``RunCache`` I/O seams.
CACHE_KINDS = frozenset({"cache-corrupt", "cache-enospc", "cache-eacces"})

#: Fault kinds hooked into the sweep-service seams: ``kill-server``
#: (hard process exit mid-batch, fired from the run seam),
#: ``journal-corrupt`` / ``journal-error`` (torn or failing journal
#: lines), ``conn-drop`` (abort the transport mid-response) and
#: ``slow-write`` (half the response, a ``duration`` stall, the rest).
SERVICE_KINDS = frozenset({"kill-server", "journal-corrupt",
                           "journal-error", "conn-drop", "slow-write"})


class InjectedFaultError(SimulationError):
    """A deterministic *permanent* failure raised by a ``raise`` spec."""


class WorkerCrashError(OSError):
    """What a ``kill`` spec raises when there is no worker process to
    kill (serial sweeps): the in-process stand-in for the
    ``BrokenProcessPool`` a parent would observe — same ``transient``
    classification, same retry behaviour."""


@dataclass(frozen=True)
class FaultSpec:
    """One fault to inject.

    Attributes:
        kind: one of :data:`RUN_KINDS` or :data:`CACHE_KINDS` —
            ``raise`` (permanent simulator error), ``oserror``
            (transient I/O error), ``kill`` (worker death /
            ``BrokenProcessPool``), ``hang`` (stall ``duration``
            seconds, then run normally), ``deadlock``
            (:class:`~repro.errors.DeadlockError`), ``cache-corrupt``
            (torn write: half the payload), ``cache-enospc`` /
            ``cache-eacces`` (OS errors out of cache I/O).
        rate: fraction of matching tokens selected, decided by a
            deterministic hash of (seed, spec index, token).
        times: firings per selected token before the fault heals;
            ``0`` means never heal.
        duration: sleep seconds for ``hang``.
        match: substring filter — on the point label
            (``"SAD/bow IW3"``) for run faults (including
            ``kill-server``), on the cache key for cache faults, on
            the serialized line for journal and wire faults (so
            ``match='point-resolved'`` targets journal resolutions and
            ``match='"op": "sweep"'`` targets sweep responses).  Empty
            matches everything.
    """

    kind: str
    rate: float = 1.0
    times: int = 1
    duration: float = 0.0
    match: str = ""

    def __post_init__(self) -> None:
        known_kinds = RUN_KINDS | CACHE_KINDS | SERVICE_KINDS
        if self.kind not in known_kinds:
            known = ", ".join(sorted(known_kinds))
            raise ExperimentError(
                f"unknown fault kind {self.kind!r}; known: {known}")
        if not 0.0 <= self.rate <= 1.0:
            raise ExperimentError("rate must be within [0, 1]")
        if self.times < 0:
            raise ExperimentError("times must be >= 0 (0 = never heal)")
        if self.duration < 0:
            raise ExperimentError("duration must be >= 0")


class FaultPlan:
    """A seeded set of fault specs plus the shared firing state.

    Picklable (plain attributes), so it can ride into spawn-started
    pool workers through the grid's worker initializer.
    """

    def __init__(self, seed: int, state_dir: Union[str, Path],
                 specs: Sequence[FaultSpec]):
        self.seed = int(seed)
        self.state_dir = str(state_dir)
        self.specs = tuple(specs)
        Path(self.state_dir).mkdir(parents=True, exist_ok=True)

    # -- deterministic selection and firing bookkeeping ---------------

    def _chance(self, index: int, token: str) -> float:
        digest = hashlib.sha256(
            f"{self.seed}:{index}:{token}".encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "big") / 2 ** 64

    def selected(self, index: int, token: str) -> bool:
        """Whether spec ``index`` targets ``token`` (ignores ``times``)."""
        spec = self.specs[index]
        if spec.match and spec.match not in token:
            return False
        return spec.rate >= 1.0 or self._chance(index, token) < spec.rate

    def _claim(self, index: int, token: str) -> bool:
        """Atomically claim the next firing of spec ``index`` on
        ``token``; ``False`` once ``times`` firings have happened."""
        if not self.selected(index, token):
            return False
        spec = self.specs[index]
        digest = hashlib.sha256(
            f"{index}:{token}".encode("utf-8")).hexdigest()[:16]
        shot = 0
        while spec.times == 0 or shot < spec.times:
            marker = Path(self.state_dir) / f"{index}-{digest}.{shot}"
            try:
                fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                shot += 1
                continue
            os.close(fd)
            return True
        return False

    def spec_firings(self, index: int) -> int:
        """Firings spec ``index`` has performed so far (all tokens)."""
        return sum(1 for marker in Path(self.state_dir).iterdir()
                   if marker.name.startswith(f"{index}-"))

    def firings(self) -> int:
        """Total firings across all specs."""
        return sum(1 for _ in Path(self.state_dir).iterdir())

    def reset(self) -> None:
        """Forget every firing (the next sweep starts from scratch)."""
        for marker in Path(self.state_dir).iterdir():
            try:
                marker.unlink()
            except OSError:
                pass

    # -- hook bodies ---------------------------------------------------

    def fire_run_faults(self, benchmark: str, design: str,
                        window_size: int) -> None:
        """Raise/kill/stall per the plan before one simulator run."""
        window = runner.effective_window(design, window_size)
        token = f"{benchmark.upper()}/{design} IW{window}"
        for index, spec in enumerate(self.specs):
            if spec.kind not in RUN_KINDS and spec.kind != "kill-server":
                continue
            if not self._claim(index, token):
                continue
            if spec.kind == "hang":
                time.sleep(spec.duration)
            elif spec.kind == "kill-server":
                # The SIGKILL stand-in: take down the *whole process*
                # (server included) with no cleanup, mid-batch.  The
                # journal's fsync-per-record contract is what makes
                # this recoverable.
                os._exit(KILL_EXIT_CODE)
            elif spec.kind == "kill":
                if multiprocessing.parent_process() is not None:
                    os._exit(KILL_EXIT_CODE)
                raise WorkerCrashError(
                    f"injected worker crash at {token}")
            elif spec.kind == "oserror":
                raise OSError(errno.EIO,
                              f"injected I/O failure at {token}")
            elif spec.kind == "deadlock":
                raise DeadlockError(f"injected deadlock at {token}", 0)
            else:  # "raise"
                raise InjectedFaultError(f"injected failure at {token}")

    def fire_cache_read(self, key: str) -> None:
        """Raise per the plan before one cache entry read."""
        for index, spec in enumerate(self.specs):
            if spec.kind != "cache-eacces":
                continue
            if self._claim(index, key):
                raise PermissionError(
                    errno.EACCES, f"injected EACCES reading {key[:16]}")

    def filter_cache_write(self, key: str, text: str) -> str:
        """Raise or corrupt per the plan before one cache entry write."""
        for index, spec in enumerate(self.specs):
            if spec.kind == "cache-enospc" and self._claim(index, key):
                raise OSError(
                    errno.ENOSPC, f"injected ENOSPC writing {key[:16]}")
            if spec.kind == "cache-corrupt" and self._claim(index, key):
                text = text[: max(1, len(text) // 2)]  # torn write
        return text

    def filter_journal_write(self, text: str) -> str:
        """Raise or tear one journal line per the plan.

        The token is the serialized record, so ``match`` selects by
        record type or any field value.
        """
        for index, spec in enumerate(self.specs):
            if spec.kind == "journal-error" and self._claim(index, text):
                raise OSError(
                    errno.EIO, "injected journal write failure")
            if spec.kind == "journal-corrupt" and self._claim(index, text):
                text = text[: max(1, len(text) // 2)]  # torn line
        return text

    def fire_send(self, text: str) -> Optional[FaultSpec]:
        """The wire fault (if any) claimed for one response line."""
        for index, spec in enumerate(self.specs):
            if spec.kind not in ("conn-drop", "slow-write"):
                continue
            if self._claim(index, text):
                return spec
        return None


# -- installation ------------------------------------------------------

_active: Optional[FaultPlan] = None
_saved: Dict[str, object] = {}


def active_plan() -> Optional[FaultPlan]:
    """The installed plan, if any."""
    return _active


def install(plan: FaultPlan) -> FaultPlan:
    """Install ``plan``'s hooks process-wide; returns the plan.

    Patches ``runner.execute_run``, the ``RunCache`` I/O seams, the
    service journal's ``_write_line`` seam and the sweep server's
    ``_send`` wire seam, and registers a pool-worker initializer so
    freshly spawned workers install the same plan.  Only one plan can
    be active at a time; :func:`uninstall` (or the
    :func:`injected_faults` context manager) restores the originals.
    """
    global _active
    if _active is not None:
        raise ExperimentError("a fault plan is already installed")
    # Imported here, not at module top: the fault injector must stay
    # importable (and cheap) without dragging in the asyncio service
    # stack, which only exists on the serving side of a chaos drill.
    from ..service.journal import Journal
    from ..service.server import SweepServer

    _active = plan
    _saved["execute_run"] = runner.execute_run
    _saved["_read_text"] = RunCache._read_text
    _saved["_write_entry"] = RunCache._write_entry
    _saved["_pool_initializer"] = grid._pool_initializer
    _saved["_write_line"] = Journal._write_line
    _saved["_send"] = SweepServer.__dict__["_send"]

    original_execute = runner.execute_run
    original_read = RunCache._read_text
    original_write = RunCache._write_entry
    original_write_line = Journal._write_line
    original_send = SweepServer._send

    def execute_run(benchmark, design, window_size=3, scale=runner.QUICK,
                    config=None, bow=None):
        plan.fire_run_faults(benchmark, design, window_size)
        return original_execute(benchmark, design, window_size=window_size,
                                scale=scale, config=config, bow=bow)

    def _read_text(self, path):
        plan.fire_cache_read(path.stem)
        return original_read(self, path)

    def _write_entry(self, path, text):
        return original_write(self, path,
                              plan.filter_cache_write(path.stem, text))

    def _write_line(self, text):
        return original_write_line(self, plan.filter_journal_write(text))

    async def _send(writer, payload):
        import asyncio as _asyncio
        import json as _json

        text = _json.dumps(payload)
        spec = plan.fire_send(text)
        if spec is not None and spec.kind == "conn-drop":
            transport = writer.transport
            if transport is not None:
                transport.abort()
            raise ConnectionResetError("injected connection drop")
        if spec is not None and spec.kind == "slow-write":
            data = text.encode("utf-8")
            half = max(1, len(data) // 2)
            writer.write(data[:half])
            await writer.drain()
            await _asyncio.sleep(spec.duration)
            writer.write(data[half:] + b"\n")
            await writer.drain()
            return
        await original_send(writer, payload)

    runner.execute_run = execute_run
    RunCache._read_text = _read_text
    RunCache._write_entry = _write_entry
    Journal._write_line = _write_line
    SweepServer._send = staticmethod(_send)
    grid._pool_initializer = (_install_in_worker, (plan,))
    return plan


def uninstall() -> None:
    """Remove the active plan's hooks (no-op if none is installed)."""
    global _active
    if _active is None:
        return
    from ..service.journal import Journal
    from ..service.server import SweepServer

    runner.execute_run = _saved.pop("execute_run")
    RunCache._read_text = _saved.pop("_read_text")
    RunCache._write_entry = _saved.pop("_write_entry")
    grid._pool_initializer = _saved.pop("_pool_initializer")
    Journal._write_line = _saved.pop("_write_line")
    SweepServer._send = _saved.pop("_send")
    _active = None


def _install_in_worker(plan: FaultPlan) -> None:
    """Pool-worker initializer: activate ``plan`` in a fresh worker.

    Under fork the worker inherits the parent's patches (and
    ``_active``), making this a no-op; under spawn it performs the
    installation from scratch.
    """
    if _active is None:
        install(plan)


@contextmanager
def injected_faults(seed: int, state_dir: Union[str, Path],
                    specs: Sequence[FaultSpec]):
    """Context manager: build, install, and on exit uninstall a plan."""
    plan = install(FaultPlan(seed, state_dir, specs))
    try:
        yield plan
    finally:
        uninstall()
