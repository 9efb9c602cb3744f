"""Deterministic load generator for the scheduling service.

The workload is a pure function of ``(seed,)``: session population, op
mix, point batches and edit scripts all come from counter-based
:class:`~repro.utils.rng.StreamRNG` draws keyed by
:func:`~repro.utils.rng.label_stream` names, so two runs with one seed
submit byte-identical request streams — the property the CI smoke leg
and ``benchmarks/bench_service.py`` build on (measure the *service*
under identical load, not the load under an identical service).

Sessions alternate between two populations:

* **tiling** sessions (Theorem 1 schedules over the radius-1 Chebyshev
  ball) absorb the assign traffic — their numpy ``slots_of`` kernel has
  a fixed per-dispatch overhead, which is exactly what request
  coalescing amortizes;
* **mapping** sessions (the tiling restricted to a finite window)
  absorb the edit traffic, since only mapping-backed sessions support
  :meth:`~repro.api.Session.edit`.

:func:`execute` runs a workload in *drain* mode: every request is
pre-enqueued against a paused service, then the dispatcher starts and
the drain is timed.  Batched throughput divided by the same drain at
``max_batch=1`` is the ``service/batching-speedup`` benchmark row.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any

from repro.api import Box, Session
from repro.service.errors import ServiceOverloadError
from repro.service.metrics import ServiceMetrics
from repro.service.server import SchedulingService
from repro.service.store import SessionStore
from repro.service.transport.client import ServiceClient
from repro.service.transport.server import WireServer
from repro.service.transport.wire import encode_request
from repro.utils.rng import StreamRNG, label_stream

__all__ = ["Op", "Workload", "LoadResult", "build_workload", "execute",
           "execute_wire"]

#: Tiling sessions verify/assign over this window.
_TILING_WINDOW = Box((0, 0), (7, 7))
#: Mapping sessions restrict the tiling to this window before editing.
_MAPPING_WINDOW = Box((0, 0), (9, 9))
#: Assign batches draw points from this coordinate range.
_POINT_RANGE = 32

_STREAM_OP = label_stream("service:op")
_STREAM_SESSION = label_stream("service:session")
_STREAM_SIZE = label_stream("service:assign-size")
_STREAM_POINT = label_stream("service:point")
_STREAM_EDIT = label_stream("service:edit")


@dataclass(frozen=True)
class Op:
    """One scripted request: ``op`` + target session + frozen payload.

    ``payload`` is op-specific: a tuple of points for ``assign``, a
    tuple of ``(point, slot)`` pairs for ``edit``, empty for ``verify``.
    """

    op: str
    session_id: str
    payload: tuple


@dataclass(frozen=True)
class Workload:
    """A fully scripted request stream, pure in the seed.

    Attributes:
        seed: the generating seed (for reports).
        session_kinds: ``(session_id, kind)`` pairs, kind in
            ``{"tiling", "mapping"}``.
        ops: the scripted requests, in submission order.
    """

    seed: int
    session_kinds: tuple[tuple[str, str], ...]
    ops: tuple[Op, ...]

    def open_sessions(self, service: SchedulingService) -> None:
        """Build the session population fresh and open it on a service."""
        for session_id, kind in self.session_kinds:
            service.open_session(session_id, _make_session(kind))


def _make_session(kind: str) -> Session:
    base = Session.for_chebyshev(1, window=_TILING_WINDOW)
    if kind == "tiling":
        return base
    if kind == "mapping":
        return base.restrict(_MAPPING_WINDOW)
    raise ValueError(f"unknown session kind {kind!r}")


def build_workload(seed: int, *, sessions: int = 8, requests: int = 512,
                   edit_fraction: float = 0.05,
                   verify_fraction: float = 0.15,
                   max_assign_points: int = 48) -> Workload:
    """Script a workload — a pure function of the arguments.

    The op mix is ``edit_fraction`` edits (on mapping sessions),
    ``verify_fraction`` verifies (any session), remainder assigns (on
    tiling sessions, 4..``max_assign_points`` points each).
    """
    if sessions < 2:
        raise ValueError(f"need >= 2 sessions (one per kind), got {sessions}")
    rng = StreamRNG(seed)
    kinds = tuple((f"s{index:04d}", "tiling" if index % 2 == 0 else "mapping")
                  for index in range(sessions))
    tiling_ids = [sid for sid, kind in kinds if kind == "tiling"]
    mapping_ids = [sid for sid, kind in kinds if kind == "mapping"]
    # The edit script needs valid (point, slot) targets; the mapping
    # population is deterministic, so probe one instance for its domain.
    probe = _make_session("mapping")
    edit_points = sorted(tuple(point) for point in probe.window)
    num_slots = probe.num_slots

    ops = []
    for index in range(requests):
        kind_draw = rng.uniform(_STREAM_OP, index)
        if kind_draw < edit_fraction:
            session_id = mapping_ids[
                rng.randrange(_STREAM_SESSION, index, len(mapping_ids))]
            point = edit_points[
                rng.randrange(_STREAM_EDIT, index, len(edit_points))]
            slot = rng.randrange(_STREAM_EDIT, index,
                                 num_slots, draw=1)
            ops.append(Op("edit", session_id, ((point, slot),)))
        elif kind_draw < edit_fraction + verify_fraction:
            session_id, _ = kinds[
                rng.randrange(_STREAM_SESSION, index, len(kinds))]
            ops.append(Op("verify", session_id, ()))
        else:
            session_id = tiling_ids[
                rng.randrange(_STREAM_SESSION, index, len(tiling_ids))]
            count = 4 + rng.randrange(_STREAM_SIZE, index,
                                      max(1, max_assign_points - 3))
            points = tuple(
                (rng.randrange(_STREAM_POINT, index, _POINT_RANGE,
                               draw=2 * draw),
                 rng.randrange(_STREAM_POINT, index, _POINT_RANGE,
                               draw=2 * draw + 1))
                for draw in range(count))
            ops.append(Op("assign", session_id, points))
    return Workload(seed=seed, session_kinds=kinds, ops=tuple(ops))


@dataclass(frozen=True)
class LoadResult:
    """Outcome of one drained workload run.

    Attributes:
        requests: scripted requests submitted.
        completed / failed / rejected: request outcomes (rejected =
            refused at admission, before getting a future).
        elapsed_s: wall-clock seconds for the dispatcher to drain every
            admitted request.
        throughput_rps: completed requests per drained second.
        metrics: the service's final metrics snapshot.
    """

    requests: int
    completed: int
    failed: int
    rejected: int
    elapsed_s: float
    throughput_rps: float
    metrics: ServiceMetrics

    @property
    def batched_dispatches(self) -> int:
        return self.metrics.counter("batch.batched_dispatches")

    def to_dict(self) -> dict[str, Any]:
        return {
            "requests": self.requests,
            "completed": self.completed,
            "failed": self.failed,
            "rejected": self.rejected,
            "elapsed_s": self.elapsed_s,
            "throughput_rps": self.throughput_rps,
            "batch_dispatches": self.metrics.counter("batch.dispatches"),
            "batched_dispatches": self.batched_dispatches,
            "coalesced_requests":
                self.metrics.counter("batch.coalesced_requests"),
            "certificate_fast_path":
                self.metrics.counter("batch.certificate_fast_path"),
        }


def execute(workload: Workload, *, max_batch: int = 64,
            capacity: int | None = None,
            max_queue: int | None = None) -> LoadResult:
    """Run a workload in drain mode and time the drain.

    Every scripted request is pre-enqueued against a paused service
    (``autostart=False``), then the dispatcher starts and the timer
    covers exactly the drain — so two calls differing only in
    ``max_batch`` isolate the batching speedup from submission costs.
    A ``max_queue`` smaller than the workload exercises admission
    control: refused requests count as ``rejected``.
    """
    store = SessionStore(capacity=capacity)
    service = SchedulingService(
        store,
        max_queue=max_queue if max_queue is not None
        else len(workload.ops) + 16,
        max_batch=max_batch, autostart=False)
    workload.open_sessions(service)
    futures = []
    rejected = 0
    for op in workload.ops:
        payload: dict[str, Any]
        if op.op == "assign":
            payload = {"points": [tuple(point) for point in op.payload]}
        elif op.op == "edit":
            payload = {"updates": {tuple(point): slot
                                   for point, slot in op.payload}}
        else:
            payload = {}
        try:
            futures.append(service.submit(op.op, op.session_id, payload))
        except ServiceOverloadError:
            rejected += 1
    started = time.perf_counter()
    service.start()
    completed = failed = 0
    for future in futures:
        if future.exception() is None:
            completed += 1
        else:
            failed += 1
    elapsed = time.perf_counter() - started
    metrics = service.metrics()
    service.close()
    return LoadResult(
        requests=len(workload.ops), completed=completed, failed=failed,
        rejected=rejected, elapsed_s=elapsed,
        throughput_rps=completed / elapsed if elapsed > 0 else 0.0,
        metrics=metrics)


def _encode_op(op: Op) -> dict[str, Any]:
    if op.op == "assign":
        payload: dict[str, Any] = {"points": list(op.payload)}
    elif op.op == "edit":
        payload = {"updates": {tuple(point): slot
                               for point, slot in op.payload}}
    else:
        payload = {"window": None, "offsets": None, "use_cache": True,
                   "stream_chunk": None}
    return encode_request(op.op, op.session_id, payload)


def execute_wire(workload: Workload, *, max_batch: int = 64,
                 pipeline_depth: int = 128) -> LoadResult:
    """Run a workload through the socket front end and time it.

    The wire twin of :func:`execute`: sessions open on one service
    behind one :class:`~repro.service.transport.server.WireServer`,
    then the scripted requests ship as pipelined bursts of
    ``pipeline_depth`` — each burst is one ``bulk`` frame, submitted
    server-side before any result is awaited, so dispatcher
    coalescing fires over the wire.  The timer covers the whole
    streamed run, framing included, which is exactly what the
    ``service/wire-throughput`` benchmark row wants to price relative
    to in-process drain mode.

    Typed failures (a deadline, an overload) count as ``failed``;
    transport-level failures count as ``failed`` too — the generator
    only ever runs against a server it just started, so any
    ``TransportError`` here is a finding, not noise.
    """
    if pipeline_depth < 1:
        raise ValueError(
            f"pipeline_depth must be >= 1, got {pipeline_depth!r}")
    service = SchedulingService(SessionStore(), max_batch=max_batch,
                                max_queue=len(workload.ops) + 16)
    with (service, WireServer(service).start() as server,
          ServiceClient(*server.address) as client):
        for session_id, kind in workload.session_kinds:
            client.open_session(session_id, _make_session(kind))
        encoded = [_encode_op(op) for op in workload.ops]
        completed = failed = 0
        started = time.perf_counter()
        for begin in range(0, len(encoded), pipeline_depth):
            burst = encoded[begin:begin + pipeline_depth]
            for result in client.pipeline(burst):
                if isinstance(result, BaseException):
                    failed += 1
                else:
                    completed += 1
        elapsed = time.perf_counter() - started
        metrics = client.metrics()
        return LoadResult(
            requests=len(workload.ops), completed=completed,
            failed=failed, rejected=0, elapsed_s=elapsed,
            throughput_rps=completed / elapsed if elapsed > 0 else 0.0,
            metrics=metrics)
