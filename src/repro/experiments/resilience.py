"""Fault tolerance for the sweep engine and the device dispatcher.

``run_grid`` fans a ``benchmark x design x IW`` grid across worker
processes and ``simulate_device`` fans a launch's SMs across a worker
pool; one bad item must not destroy the pass.  This module holds the
one loop both run on and the policy pieces it is built from:

* a **failure taxonomy** — :func:`classify_failure` sorts exceptions
  into ``transient`` (worker crashes, OS-level errors, timeouts: worth
  retrying) and ``permanent`` (deterministic simulator failures such as
  :class:`~repro.errors.DeadlockError`: retrying reproduces them);
* a :class:`RetryPolicy` — bounded retries with *deterministic*
  exponential backoff (no jitter, so two sweeps with the same policy
  replay the same schedule) plus an optional per-item wall-clock
  timeout;
* a :class:`PointFailure` record — everything ``GridResult.failures``
  keeps about a point that exhausted its policy: attempts, elapsed
  time, the original exception's type/message, and its formatted
  traceback;
* :func:`map_with_retry` — the drain → classify → retry →
  rebuild-on-``BrokenProcessPool`` loop, serially in-process or over a
  process or thread pool, with deadlines that start when a worker
  starts an item and PID-marker blame for dead workers.

Determinism contract: nothing here consults wall-clock time, worker
identity, or randomness when *classifying* or *deciding* — given the
same faults, the same policy produces the same failure records at
``jobs=1`` and ``jobs=8`` (see ``repro.testing.faults`` for the
injection harness that proves it).
"""

from __future__ import annotations

import math
import os
import shutil
import signal
import tempfile
import threading
import time
import traceback as traceback_module
from concurrent.futures import (
    FIRST_COMPLETED,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Callable, Hashable, Optional, Sequence, Tuple

from ..errors import ExperimentError, SweepPointError, SweepTimeoutError

#: Failure kinds (the values stored on :class:`PointFailure`).
TRANSIENT = "transient"
PERMANENT = "permanent"

#: Exception families whose failures are environmental rather than
#: deterministic: a dead worker, an OS-level error (ENOSPC, EACCES,
#: OOM-kills surfacing as ``BrokenProcessPool``), or a timeout.  A
#: retry has a real chance of succeeding.  Everything else — most
#: importantly :class:`~repro.errors.DeadlockError` and its
#: :class:`~repro.errors.SimulationError` siblings — is deterministic
#: with respect to the run's inputs, so retrying just reproduces it.
_TRANSIENT_TYPES: Tuple[type, ...] = (
    BrokenProcessPool,
    OSError,
    MemoryError,
    TimeoutError,
)


def classify_failure(error: BaseException) -> str:
    """``TRANSIENT`` or ``PERMANENT`` for one grid-point exception."""
    if isinstance(error, _TRANSIENT_TYPES):
        return TRANSIENT
    return PERMANENT


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded, deterministic retry behaviour for one sweep.

    Attributes:
        max_attempts: total executions allowed per point (1 = never
            retry).
        backoff_base: delay in seconds before the first retry.
        backoff_factor: multiplier applied per further retry.
        backoff_max: ceiling on any single delay.
        timeout: per-item wall-clock budget in seconds, counted from
            when a worker starts the item; ``None`` disables the
            deadline.  On a pool an over-budget item is abandoned (and
            retried, if attempts remain); serially the budget is
            checked after the item returns, so both modes record the
            same timeout failures.
        retry_permanent: also retry ``permanent`` failures (off by
            default — a deterministic simulator reproduces them).
    """

    max_attempts: int = 3
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    backoff_max: float = 2.0
    timeout: float = None  # type: ignore[assignment]
    retry_permanent: bool = False

    def __post_init__(self) -> None:
        if not math.isfinite(self.backoff_factor):
            raise ExperimentError("backoff_factor must be finite")
        # Every delay ends up as a thread wait, which rejects anything
        # beyond threading.TIMEOUT_MAX (~292 years) with an OverflowError.
        delays = (self.backoff_base, self.backoff_max,
                  0.0 if self.timeout is None else self.timeout)
        if not all(abs(value) <= threading.TIMEOUT_MAX for value in delays):
            raise ExperimentError(
                f"backoff delays and timeout must be finite, at most "
                f"{threading.TIMEOUT_MAX:.0f}s")
        if self.max_attempts < 1:
            raise ExperimentError("max_attempts must be >= 1")
        if self.backoff_base < 0 or self.backoff_max < 0:
            raise ExperimentError("backoff delays must be >= 0")
        if self.backoff_factor < 1.0:
            raise ExperimentError("backoff_factor must be >= 1")
        if self.timeout is not None and self.timeout <= 0:
            raise ExperimentError("timeout must be positive (or None)")

    def delay(self, attempt: int) -> float:
        """Seconds to wait after failed attempt number ``attempt`` (1-based).

        Deterministic exponential backoff:
        ``min(backoff_max, backoff_base * backoff_factor**(attempt-1))``,
        which stays ``backoff_max`` once the power overflows a float.
        """
        if attempt < 1:
            raise ExperimentError("attempt numbers are 1-based")
        try:
            growth = self.backoff_factor ** (attempt - 1)
        except OverflowError:
            return self.backoff_max if self.backoff_base else 0.0
        return min(self.backoff_max, self.backoff_base * growth)

    def should_retry(self, kind: str, attempt: int) -> bool:
        """Whether a failure of ``kind`` on attempt ``attempt`` retries."""
        if attempt >= self.max_attempts:
            return False
        return kind == TRANSIENT or self.retry_permanent


#: The policy ``run_grid`` uses when the caller passes none.
DEFAULT_POLICY = RetryPolicy()

#: Fail fast: one attempt, no backoff, no deadline.
NO_RETRY = RetryPolicy(max_attempts=1, backoff_base=0.0)


@dataclass(frozen=True)
class PointFailure:
    """One grid point that exhausted its retry policy.

    Attributes:
        benchmark / design / window: the grid coordinates.
        label: the point's display label.
        kind: ``"transient"`` or ``"permanent"``.
        attempts: executions consumed (including the first).
        seconds: total wall-clock seconds across all attempts.
        error_type: class name of the final exception.
        message: message of the final exception.
        traceback_text: formatted traceback of the final attempt
            (empty when none was captured, e.g. an abandoned timeout).
    """

    benchmark: str
    design: str
    window: int
    label: str
    kind: str
    attempts: int
    seconds: float
    error_type: str
    message: str
    traceback_text: str = ""

    def signature(self) -> Tuple[str, str, int]:
        """The determinism-stable identity of this failure.

        ``(label, kind, attempts)`` — everything a fault seed pins down
        regardless of worker count.  ``error_type`` is excluded because
        the *same* fault surfaces differently by transport: a worker
        killed mid-point raises ``BrokenProcessPool`` under ``jobs>1``
        but the injector's crash error under ``jobs=1``.
        """
        return (self.label, self.kind, self.attempts)

    def to_error(self) -> SweepPointError:
        """The exception equivalent of this record."""
        return SweepPointError(self.label, self.kind, self.attempts,
                               self.error_type, self.message,
                               self.traceback_text)


def describe_failure(
    benchmark: str,
    design: str,
    window: int,
    label: str,
    error: BaseException,
    attempts: int,
    seconds: float,
) -> PointFailure:
    """Build the :class:`PointFailure` record for one final exception."""
    if error.__traceback__ is not None:
        text = "".join(traceback_module.format_exception(
            type(error), error, error.__traceback__))
    else:
        # Pool workers strip tracebacks in transit; concurrent.futures
        # smuggles the remote one through __cause__.
        cause = error.__cause__
        text = str(cause) if cause is not None else ""
    return PointFailure(
        benchmark=benchmark,
        design=design,
        window=window,
        label=label,
        kind=classify_failure(error),
        attempts=attempts,
        seconds=seconds,
        error_type=type(error).__name__,
        message=str(error),
        traceback_text=text,
    )


def _timed_call(fn: Callable, args: tuple,
                marker: Optional[str] = None) -> Tuple[float, object]:
    """Run ``fn(*args)`` in a pool worker; returns ``(seconds, result)``.

    ``marker`` names a file that holds this worker's PID while the call
    runs: if the worker dies mid-call, the orphaned marker tells the
    parent *which* worker the call had started on (see
    :func:`map_with_retry`'s blame accounting).
    """
    if marker is not None:
        try:
            with open(marker, "w") as handle:
                handle.write(str(os.getpid()))
        except OSError:
            marker = None  # the loop already tore the marker dir down
    started = time.perf_counter()
    try:
        result = fn(*args)
    finally:
        if marker is not None:
            try:
                os.unlink(marker)
            except OSError:
                pass
    return time.perf_counter() - started, result


def _dead_worker_pids(pool: ProcessPoolExecutor):
    """PIDs of workers that died abnormally, or ``None`` if unknown.

    After a ``BrokenProcessPool`` the executor SIGTERMs its surviving
    workers, so exit codes separate the culprit (a fault's exit code, a
    kernel OOM-kill's ``-SIGKILL``) from innocents cleaned up with
    ``-SIGTERM``.  Inspects the executor's private process table —
    returns ``None`` (attribution unavailable) if the internals ever
    change shape, and the caller falls back to charging every started
    item.
    """
    try:
        processes = dict(pool._processes)
    except (AttributeError, TypeError):
        return None
    if not processes:
        return None
    culprits = set()
    for pid, process in processes.items():
        try:
            process.join(timeout=5.0)
            code = process.exitcode
        except (OSError, ValueError, AssertionError):
            code = None
        if code is None or code not in (0, -signal.SIGTERM):
            culprits.add(pid)
    return culprits or None


def _marker_pid(marker: Optional[str]) -> Optional[int]:
    """The worker PID recorded in a started-marker, if it exists."""
    if not marker:
        return None
    try:
        with open(marker) as handle:
            return int(handle.read().strip() or "0")
    except (OSError, ValueError):
        return None


def map_with_retry(
    fn: Callable,
    items: Sequence[Tuple[Hashable, tuple]],
    policy: RetryPolicy,
    finish: Callable[[Hashable, object, int, float], None],
    fail: Callable[[Hashable, BaseException, int, float], None],
    jobs: int = 1,
    executor: str = "process",
    initializer: Optional[Tuple[Callable, tuple]] = None,
    label: Callable[[Hashable], str] = str,
) -> None:
    """Run ``fn(*args)`` for every ``(key, args)`` item under ``policy``.

    Each item ends in exactly one callback: ``finish(key, result,
    attempts, seconds)`` with the successful call's wall time, or
    ``fail(key, error, attempts, seconds)`` once the policy is
    exhausted, with the wall time of every attempt.  ``label(key)``
    names an item in its :class:`~repro.errors.SweepTimeoutError`.

    ``jobs <= 1``, a single item or ``executor="serial"`` runs the
    items in order, in-process, with no pool: a failed item sleeps out
    its backoff and retries before the next starts.  The timeout cannot
    preempt an in-process call, so it is checked after each call
    returns; an over-budget result is discarded and recorded exactly as
    the pool would record it.

    Otherwise the items run on a ``"process"`` or ``"thread"`` pool of
    up to ``jobs`` workers, each process worker first running the
    optional ``initializer`` ``(function, args)`` pair:

    * completed calls are always drained (their ``finish`` runs) before
      anything else, so a crashing sibling never loses finished work;
    * an item is submitted only when a worker is free for it, so its
      deadline starts when a worker starts it, never while it queues.
      An abandoned (over-budget) call holds its worker until it
      returns, so at most ``jobs`` calls ever run at once;
    * the loop sleeps until a completion, the nearest deadline or the
      nearest backoff expiry, whichever comes first;
    * a ``BrokenProcessPool`` rebuilds the pool.  A dead worker is
      anonymous, so each call records its worker's PID in a marker file
      while it runs; the dead pool's exit codes then name the culprit.
      Items whose marker names an abnormally-dead worker are charged an
      attempt; items that never started, or whose worker was merely
      SIGTERMed by pool cleanup, are resubmitted for free.  A sibling
      therefore cannot exhaust its budget because a crashier neighbour
      keeps breaking the pool, and the same faults yield the same
      ``fail`` calls at ``jobs=1`` and ``jobs=8``.
    """
    attempts = {key: 0 for key, _ in items}
    elapsed = {key: 0.0 for key, _ in items}

    def settle(key, seconds: float, result=None,
               error: Optional[BaseException] = None) -> Optional[float]:
        """Account one attempt; the retry time if the item goes again."""
        elapsed[key] += seconds
        if (error is None and policy.timeout is not None
                and seconds > policy.timeout):
            error = SweepTimeoutError(label(key), seconds, policy.timeout)
        if error is None:
            finish(key, result, attempts[key], seconds)
        elif policy.should_retry(classify_failure(error), attempts[key]):
            return time.monotonic() + policy.delay(attempts[key])
        else:
            fail(key, error, attempts[key], elapsed[key])
        return None

    if jobs <= 1 or len(items) <= 1 or executor == "serial":
        for key, args in items:
            retry_at: Optional[float] = 0.0
            while retry_at is not None:
                delay = retry_at - time.monotonic()
                if delay > 0:
                    time.sleep(delay)
                attempts[key] += 1
                started = time.perf_counter()
                try:
                    result = fn(*args)
                except Exception as error:  # noqa: BLE001 — taxonomy decides
                    retry_at = settle(key, time.perf_counter() - started,
                                      error=error)
                else:
                    retry_at = settle(key, time.perf_counter() - started,
                                      result)
        return

    process = executor == "process"
    args_of = dict(items)
    #: (key, earliest submission time) — backoff delays live here.
    ready = [(key, 0.0) for key, _ in items]
    #: live future -> (key, submission time, marker path)
    futures = {}
    abandoned = set()  # past their deadline, still holding a worker
    marker_dir = tempfile.mkdtemp(prefix="repro-pool-") if process else None
    serial = 0
    pool = None
    size = 0

    def retry(key, retry_at: Optional[float]) -> None:
        if retry_at is not None:
            ready.append((key, retry_at))

    try:
        while ready or futures:
            if pool is None:
                abandoned = set()
                size = min(jobs, len(ready))
                if not process:
                    pool = ThreadPoolExecutor(max_workers=size)
                elif initializer is not None:
                    pool = ProcessPoolExecutor(
                        max_workers=size, initializer=initializer[0],
                        initargs=initializer[1])
                else:
                    pool = ProcessPoolExecutor(max_workers=size)

            now = time.monotonic()
            free = size - len(futures) - len(abandoned)
            dead = False  # a worker died since the last wait
            waiting = []
            for key, not_before in ready:
                if dead or free <= 0 or not_before > now:
                    waiting.append((key, not_before))
                    continue
                marker = None
                if process:
                    serial += 1
                    marker = os.path.join(marker_dir, f"started-{serial}")
                try:
                    future = pool.submit(_timed_call, fn, args_of[key],
                                         marker)
                except BrokenProcessPool:
                    dead = True
                    waiting.append((key, 0.0))
                    continue
                free -= 1
                attempts[key] += 1
                futures[future] = (key, time.monotonic(), marker)
            ready = waiting

            # Sleep until a completion, the nearest deadline, or — when
            # a worker is free for it — the nearest backoff expiry.  A
            # dead pool only drains what finished before it is rebuilt.
            wakeups = [not_before for _, not_before in ready if free > 0]
            if policy.timeout is not None:
                wakeups.extend(submitted + policy.timeout
                               for _, submitted, _ in futures.values())
            if dead:
                wakeups.append(now)
            timeout = (max(0.0, min(wakeups) - time.monotonic())
                       if wakeups else None)
            done, _ = wait(set(futures) | abandoned, timeout=timeout,
                           return_when=FIRST_COMPLETED)

            for future in done:
                if future in abandoned:  # its worker is free again
                    abandoned.discard(future)
                    dead |= isinstance(future.exception(), BrokenProcessPool)
                    continue
                try:
                    seconds, result = future.result()
                except BrokenProcessPool:
                    dead = True  # settled with the rest of the pool below
                except Exception as error:  # noqa: BLE001 — taxonomy decides
                    key, submitted, _ = futures.pop(future)
                    retry(key, settle(key, time.monotonic() - submitted,
                                      error=error))
                else:
                    key, _, _ = futures.pop(future)
                    retry(key, settle(key, seconds, result))

            if policy.timeout is not None and not dead:
                now = time.monotonic()
                for future, (key, submitted, _) in list(futures.items()):
                    if submitted + policy.timeout > now:
                        continue
                    del futures[future]
                    if not future.cancel():  # running: result ignored
                        abandoned.add(future)
                    retry(key, settle(
                        key, now - submitted,
                        error=SweepTimeoutError(label(key), now - submitted,
                                                policy.timeout)))

            if dead:
                # Every call still in flight died with the pool.
                culprits = _dead_worker_pids(pool)
                for key, submitted, marker in futures.values():
                    pid = _marker_pid(marker)
                    if marker:
                        try:
                            os.unlink(marker)
                        except OSError:
                            pass
                    if pid is not None and (culprits is None
                                            or pid in culprits):
                        retry(key, settle(
                            key, time.monotonic() - submitted,
                            error=BrokenProcessPool(
                                "a worker died with this item in flight")))
                    else:  # never started, or its worker was exonerated
                        attempts[key] -= 1
                        ready.append((key, 0.0))
                futures.clear()
                pool.shutdown(wait=False, cancel_futures=True)
                pool = None
    finally:
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)
        if marker_dir is not None:
            shutil.rmtree(marker_dir, ignore_errors=True)
