"""Simulation-as-a-service: the async single-flight sweep server.

The library's sweep machinery (``run_grid`` + ``RunCache``) wrapped in
a long-running, production-hardened job service:

* :mod:`repro.service.core` — :class:`SweepService`, the in-process
  engine: single-flight dedup of in-flight points, warm lookups in the
  runner's bounded result LRU over the on-disk
  :class:`~repro.experiments.cache.RunCache`, a
  priority queue batching new points into reentrant ``run_grid``
  calls, admission control (``max_queued_points`` /
  ``max_inflight_jobs``), per-job deadlines, journal-backed crash
  recovery (:meth:`~repro.service.core.SweepService.recover`) and
  graceful drain;
* :mod:`repro.service.journal` — the crash-safe write-ahead job
  journal (:class:`Journal`) and its replay machinery;
* :mod:`repro.service.server` — the JSONL-over-TCP wire layer
  (``repro serve``), including SIGTERM-triggered drain and
  load-shedding ``overloaded`` responses;
* :mod:`repro.service.client` — :class:`ServiceClient` (optionally
  resilient: reconnect/retry with jittered backoff) and the measured
  load generator (``repro loadgen``), which emits the
  ``BENCH_service.json`` throughput/latency report.

See DESIGN.md §10 for the architecture and failure semantics.
"""

from .client import ServiceClient, format_report, run_loadgen
from .core import (
    SERVICE_SCHEMA_VERSION,
    JobResult,
    PointOutcome,
    PointSpec,
    RecoveryReport,
    ServiceStats,
    SweepService,
    expand_points,
)
from .journal import (
    JOURNAL_SCHEMA_VERSION,
    Journal,
    JournalDegradedWarning,
    JournalState,
    read_records,
    replay,
)
from .server import SweepServer, parse_scale, parse_sweep_specs, serve

__all__ = [
    "JOURNAL_SCHEMA_VERSION",
    "SERVICE_SCHEMA_VERSION",
    "JobResult",
    "Journal",
    "JournalDegradedWarning",
    "JournalState",
    "PointOutcome",
    "PointSpec",
    "RecoveryReport",
    "ServiceClient",
    "ServiceStats",
    "SweepServer",
    "SweepService",
    "expand_points",
    "format_report",
    "parse_scale",
    "parse_sweep_specs",
    "read_records",
    "replay",
    "run_loadgen",
    "serve",
]
