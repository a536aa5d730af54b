"""Shared machinery of the repo benchmark.

The benchmark's own statistics, output checks, span recorder, host
probe and host fingerprint.  Only :func:`load_program` imports
``repro``, so this logic can be tested without running a workload.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

# -- statistics -------------------------------------------------------------

#: Percentiles a tail is reported at, highest last.
TAIL_CANDIDATES = (50.0, 90.0, 99.0, 99.9)

#: Samples that must lie beyond a percentile before it is reported.
MIN_BEYOND = 10


def _rank(count: int, q: float) -> int:
    # round() first: 99.9 / 100 * 10_000 is 9990.000000000002 in floats
    return max(1, math.ceil(round(q / 100.0 * count, 9)))


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least ``q``
    percent of the samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    return sorted(values)[_rank(len(values), q) - 1]


def samples_beyond(count: int, q: float) -> int:
    """Samples strictly above the nearest-rank ``q`` percentile."""
    return count - _rank(count, q)


def tail_percentile(count: int) -> Optional[float]:
    """The highest percentile with at least :data:`MIN_BEYOND` samples
    beyond it, or ``None`` when even the median has fewer."""
    supported = [q for q in TAIL_CANDIDATES
                 if samples_beyond(count, q) >= MIN_BEYOND]
    return supported[-1] if supported else None


# -- output checks ----------------------------------------------------------


class Checks:
    """Counts attempted operations and failed ones.

    An operation fails when it errors or when a check of its output
    fails; either way it counts once toward ``failed_ratio``.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: List[str] = []

    def attempt(self, count: int = 1) -> None:
        self.attempted += count

    def fail(self, reason: str, count: int = 1) -> None:
        self.failed += count
        if len(self.notes) < 20:
            self.notes.append(reason)

    def expect(self, ok: bool, reason: str, count: int = 1) -> bool:
        if not ok:
            self.fail(reason, count)
        return ok

    def merge(self, other: "Checks") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.notes.extend(other.notes[: max(0, 20 - len(self.notes))])

    @property
    def failed_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


@dataclass
class Outcome:
    """What one timed phase of a workload did.

    ``points`` and ``instructions`` count the design-point results the
    phase delivered and the simulated instructions they stand for;
    ``records`` counts observability records written or read.  One
    entry of ``latencies_ms`` is one ``operation``.  ``unit_seconds``
    is the host time of one unit of work, the base of the trace
    overhead.
    """

    seconds: float = 0.0
    points: int = 0
    instructions: int = 0
    records: int = 0
    operation: str = ""
    latencies_ms: List[float] = field(default_factory=list)
    unit_seconds: float = 0.0
    checks: Checks = field(default_factory=Checks)
    caches: List[Any] = field(default_factory=list)
    service: Dict[str, int] = field(default_factory=dict)
    simulations: int = 0
    digests: Dict[str, str] = field(default_factory=dict)


def passes_until(seconds: float, run_pass: Callable[[], float],
                 minimum: int = 2) -> List[float]:
    """Run ``run_pass`` (returning its own duration) ``minimum`` times,
    then again while another pass as long as the longest so far still
    fits in ``seconds``."""
    started = time.perf_counter()
    durations = [run_pass() for _ in range(minimum)]
    while time.perf_counter() - started + max(durations) <= seconds:
        durations.append(run_pass())
    return durations


# -- host speed -------------------------------------------------------------


def normalised(seconds: float, before: float, after: float) -> float:
    """``seconds`` of host time as the reference host would take them,
    given the host-speed factors sampled just before and after."""
    return seconds * 2.0 / (before + after)


class Stopwatch:
    """Host time of consecutive units of work at reference host speed.

    The probe is sampled before the first unit and after each one, and
    each unit's time is scaled by the factors around it.  Probing
    happens between units, never inside one.
    """

    def __init__(self, probe: "HostProbe") -> None:
        self._probe = probe
        self._factor = probe.factor()
        self.total = 0.0

    def lap(self, seconds: float) -> float:
        """Count a unit that took ``seconds``; returns the scale applied."""
        after = self._probe.factor()
        scale = normalised(1.0, self._factor, after)
        self._factor = after
        self.total += seconds * scale
        return scale

    def time(self, function: Callable, *args, **kwargs):
        """Call ``function`` as one unit; returns its result."""
        started = time.perf_counter()
        result = function(*args, **kwargs)
        self.lap(time.perf_counter() - started)
        return result


class HostProbe:
    """Samples host speed through ``probe.py`` in a child process.

    :meth:`factor` is how many times slower than the reference host the
    machine runs right now.  Workloads sample it between units of work
    and divide each unit's host time by the factors around it, so the
    drift of a shared host cancels: the host-relative time ROADMAP
    item 1 asks for.  Time spent probing is never inside a timed unit.
    """

    #: One probe walk on the reference host (the 2-core container the
    #: benchmark was built on, in a quiet moment).
    REFERENCE_S = 0.016
    SAMPLES = 3

    def __init__(self) -> None:
        self._process = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("probe.py"))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        if self._process.stdout.readline().strip() != "ready":
            self.close()
            raise RuntimeError("host probe did not start")
        self.factors: List[float] = []

    def factor(self) -> float:
        samples = []
        for _ in range(self.SAMPLES):
            self._process.stdin.write("\n")
            self._process.stdin.flush()
            samples.append(float(self._process.stdout.readline()))
        self.factors.append(statistics.median(samples) / self.REFERENCE_S)
        return self.factors[-1]

    def close(self) -> None:
        if self._process.poll() is None:
            self._process.stdin.close()
            self._process.wait(timeout=30)
        self._process.stdout.close()


#: The one counter a host-speed change may move (see ROADMAP aim 1).
DIGEST_EXCLUDED = "fast_forwarded_cycles"


def counter_digest(counters: Dict[str, int]) -> str:
    """SHA-256 prefix over every counter except
    :data:`DIGEST_EXCLUDED`."""
    kept = {name: value for name, value in counters.items()
            if name != DIGEST_EXCLUDED}
    text = json.dumps(kept, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def law_violations(design: str, counters: Dict[str, int],
                   num_sms: int = 1) -> List[str]:
    """Timing-counter laws that must hold for every point and seed.

    Device results merge SMs (sums, but ``cycles`` is the slowest SM),
    so the fast-forward bound scales with the SM count.
    """
    broken = []
    if counters["issued"] != counters["instructions"]:
        broken.append("issued != instructions")
    if counters["fast_forwarded_cycles"] > counters["cycles"] * num_sms:
        broken.append("fast_forwarded_cycles > cycles")
    if counters["eviction_writebacks"] > counters["boc_evictions"]:
        broken.append("eviction_writebacks > boc_evictions")
    if design == "baseline":
        nonzero = sorted(name for name, value in counters.items()
                         if name.startswith(("boc_", "bypassed_")) and value)
        if nonzero:
            broken.append(f"baseline has nonzero {', '.join(nonzero)}")
    return broken


# -- spans ------------------------------------------------------------------


@dataclass
class Span:
    """One timed call into a layer, in ``time.perf_counter`` seconds."""

    span_id: int
    name: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None
    thread: int = 0
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> Dict[str, Any]:
        return {"id": self.span_id, "name": self.name, "start": self.start,
                "end": self.end, "parent": self.parent,
                "thread": self.thread, "attrs": self.attrs}


def union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping intervals."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def self_time(span: Span, children: Iterable[Span]) -> float:
    """``span``'s duration minus the part of it its children cover.

    Children are clipped to the parent's interval and overlapping
    children are counted once.
    """
    clipped = [(max(child.start, span.start), min(child.end, span.end))
               for child in children]
    covered = union_length((start, end) for start, end in clipped
                           if end > start)
    return span.duration - covered


class Tracer:
    """Records spans around calls into the program's public functions.

    Synchronous calls nest through a per-thread stack, so a span's
    ``parent`` is the innermost open span on the same thread.
    Coroutine spans stay out of the stack, because other tasks run on
    the thread while they are suspended; callers link them afterwards.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0
        self._patches: List[Tuple[Any, str, Any]] = []

    def _open(self, name: str, nest: bool) -> Span:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        with self._lock:
            self._next_id += 1
            span_id = self._next_id
        span = Span(span_id, name, time.perf_counter(),
                    parent=stack[-1] if stack else None,
                    thread=threading.get_ident())
        if nest:
            stack.append(span_id)
        return span

    def _close(self, span: Span, nest: bool) -> None:
        span.end = time.perf_counter()
        if nest:
            self._local.stack.pop()
        with self._lock:
            self.spans.append(span)

    def wrap(self, owner: Any, attr: str, name: str,
             describe: Optional[Callable[..., Dict[str, Any]]] = None
             ) -> None:
        """Replace ``owner.attr`` by a spanned call until :meth:`restore`.

        ``describe(result, *args, **kwargs)`` returns attributes to
        record on the span once the call has returned.
        """
        original = getattr(owner, attr)
        tracer = self
        if inspect.iscoroutinefunction(original):
            async def spanned(*args, **kwargs):
                span = tracer._open(name, nest=False)
                try:
                    result = await original(*args, **kwargs)
                finally:
                    tracer._close(span, nest=False)
                if describe is not None:
                    span.attrs.update(describe(result, *args, **kwargs))
                return result
        else:
            def spanned(*args, **kwargs):
                span = tracer._open(name, nest=True)
                try:
                    result = original(*args, **kwargs)
                finally:
                    tracer._close(span, nest=True)
                if describe is not None:
                    span.attrs.update(describe(result, *args, **kwargs))
                return result
        spanned.__wrapped__ = original
        self._patches.append((owner, attr, original))
        setattr(owner, attr, spanned)

    def restore(self) -> None:
        """Undo every :meth:`wrap`, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in sorted(self.spans, key=lambda item: item.start):
                handle.write(json.dumps(span.as_dict(), sort_keys=True,
                                        default=str))
                handle.write("\n")


# -- host -------------------------------------------------------------------


def load_program(root: Path):
    """Import ``repro`` from ``root/src`` and nowhere else.

    Exits non-zero with a message when the checkout holds no program,
    so a benchmark run without the sources can never report a result.
    """
    source = root / "src"
    if not (source / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program sources under {source}")
    sys.path.insert(0, str(source))
    import repro

    if Path(repro.__file__).resolve().parent != (source / "repro").resolve():
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, "
                         f"not from {source}")
    return repro



def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _commit(root: Path) -> Optional[str]:
    if not (root / ".git").exists():
        return None
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return completed.stdout.strip() or None


def source_digest(source: Path) -> str:
    """SHA-256 prefix over the program's Python sources (identifies the
    code under test where no git metadata exists)."""
    digest = hashlib.sha256()
    for path in sorted(source.rglob("*.py")):
        digest.update(str(path.relative_to(source)).encode("utf-8"))
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def host_fingerprint(root: Path, numpy_version: str) -> Dict[str, Any]:
    """What must match before two results may be compared."""
    return {
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "commit": _commit(root),
        "source_sha256": source_digest(root / "src" / "repro"),
    }


#: Fingerprint fields that describe the host rather than the code.
HOST_FIELDS = ("cpu_model", "nproc", "python", "numpy")


def same_host(first: Dict[str, Any], second: Dict[str, Any]) -> List[str]:
    """Host fields on which two fingerprints differ (empty = comparable)."""
    return [name for name in HOST_FIELDS if first.get(name) != second.get(name)]


def peak_rss_mb() -> float:
    """Peak resident set of this process or any waited-for child, MiB."""
    scale = 1024.0 if sys.platform != "darwin" else 1024.0 * 1024.0
    peaks = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return max(peaks) / scale
