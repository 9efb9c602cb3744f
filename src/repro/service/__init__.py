"""Scheduling as a service: many sessions, one server, batched dispatch.

The library's :class:`repro.api.Session` answers one caller at a time;
this package puts a server in front of it:

* :class:`~repro.service.store.SessionStore` — the session table:
  one record per open session, each with its own lock.
* :class:`~repro.service.server.SchedulingService` — every request
  runs on the caller's thread under its session's lease; ``bulk``
  groups many requests by session and coalesces consecutive small
  ``assign`` requests into one bulk engine dispatch; per-request
  deadlines throughout.
* :mod:`~repro.service.metrics` — typed counters / latency histograms /
  gauges behind a JSON metrics endpoint.
* :mod:`~repro.service.loadgen` / ``python -m repro.service bench`` —
  a seed-deterministic load generator and the batching benchmark.
* :mod:`~repro.service.differential` — the transparency oracle:
  scenario corpora replayed through the service must answer
  bit-identically to direct ``Session`` calls.

Every response is bit-identical to the same call made directly on the
session — the service changes *when* work runs, never *what* it
answers.
"""

from repro.service.errors import (
    ServiceClosedError,
    ServiceDeadlineError,
    ServiceError,
    UnknownSessionError,
)
from repro.service.metrics import (
    LatencyHistogram,
    MetricsRecorder,
    ServiceMetrics,
)
from repro.service.server import (
    EditAck,
    LoadAck,
    RestrictAck,
    SchedulingService,
)
from repro.service.store import SessionStore, StoreStats

__all__ = [
    "EditAck",
    "LatencyHistogram",
    "LoadAck",
    "MetricsRecorder",
    "RestrictAck",
    "SchedulingService",
    "ServiceClosedError",
    "ServiceDeadlineError",
    "ServiceError",
    "ServiceMetrics",
    "SessionStore",
    "StoreStats",
    "UnknownSessionError",
]
