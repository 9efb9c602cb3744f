"""Deterministic load generator for the scheduling service.

The workload is a pure function of ``(seed,)``: session population, op
mix, point batches and edit scripts all come from counter-based
:class:`~repro.utils.rng.StreamRNG` draws keyed by
:func:`~repro.utils.rng.label_stream` names, so two runs with one seed
send byte-identical request streams — the property the CI smoke leg
and ``benchmarks/bench_service.py`` build on (measure the *service*
under identical load, not the load under an identical service).

Sessions alternate between two populations:

* **tiling** sessions (Theorem 1 schedules over the radius-1 Chebyshev
  ball) absorb the assign traffic — their numpy ``slots_of`` kernel has
  a fixed per-dispatch overhead, which is exactly what assign
  coalescing amortizes;
* **mapping** sessions (the tiling restricted to a finite window)
  absorb the edit traffic, since only mapping-backed sessions support
  :meth:`~repro.api.Session.edit`.

:func:`execute` times a workload served in-process, either as one
:meth:`~repro.service.server.SchedulingService.bulk` call or one
``call`` per request; the ratio of the two is the
``service/batching-speedup`` benchmark row.  :func:`execute_wire` does
the same over the socket front end (pipelined ``bulk`` frames against
one frame per request).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any

from repro.api import Box, Session
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

    def request_payload(self) -> dict[str, Any]:
        """The payload as ``SchedulingService.call`` takes it."""
        if self.op == "assign":
            return {"points": [tuple(point) for point in self.payload]}
        if self.op == "edit":
            return {"updates": {tuple(point): slot
                                for point, slot in self.payload}}
        return {}


@dataclass(frozen=True)
class Workload:
    """A fully scripted request stream, pure in the seed.

    Attributes:
        seed: the generating seed (for reports).
        session_kinds: ``(session_id, kind)`` pairs, kind in
            ``{"tiling", "mapping"}``.
        ops: the scripted requests, in order.
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
    """Outcome of one timed workload run.

    Attributes:
        requests: scripted requests sent.
        completed / failed: request outcomes.
        elapsed_s: wall-clock seconds to serve every request.
        throughput_rps: completed requests per second.
        metrics: the service's final metrics snapshot.
    """

    requests: int
    completed: int
    failed: int
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
            "elapsed_s": self.elapsed_s,
            "throughput_rps": self.throughput_rps,
            "batch_dispatches": self.metrics.counter("batch.dispatches"),
            "batched_dispatches": self.batched_dispatches,
            "coalesced_requests":
                self.metrics.counter("batch.coalesced_requests"),
            "certificate_fast_path":
                self.metrics.counter("batch.certificate_fast_path"),
        }


def execute(workload: Workload, *, bulk: bool = True,
            capacity: int | None = None) -> LoadResult:
    """Run a workload in-process and time it.

    Sessions open first, untimed.  The timer covers serving every
    scripted request: as one :meth:`SchedulingService.bulk` call
    (``bulk=True``, which coalesces each session's consecutive
    assigns), or one :meth:`SchedulingService.call` per request — so
    two runs differing only in ``bulk`` isolate what coalescing buys.
    """
    service = SchedulingService(SessionStore(capacity=capacity))
    workload.open_sessions(service)
    items = [(op.op, op.session_id, op.request_payload(), None)
             for op in workload.ops]
    started = time.perf_counter()
    if bulk:
        outcomes = service.bulk(items)
    else:
        outcomes = [_call(service, *item) for item in items]
    elapsed = time.perf_counter() - started
    metrics = service.metrics()
    service.close()
    return _result(workload, outcomes, elapsed, metrics)


def _call(service: SchedulingService, op: str, session_id: str,
          payload: dict[str, Any], timeout: float | None) -> Any:
    """The answer of one ``call``, or the error it raised."""
    try:
        return service.call(op, session_id, payload, timeout=timeout)
    except Exception as error:
        return error


def _result(workload: Workload, outcomes: list[Any], elapsed: float,
            metrics: ServiceMetrics) -> LoadResult:
    failed = sum(isinstance(outcome, BaseException) for outcome in outcomes)
    completed = len(outcomes) - failed
    return LoadResult(
        requests=len(workload.ops), completed=completed, failed=failed,
        elapsed_s=elapsed,
        throughput_rps=completed / elapsed if elapsed > 0 else 0.0,
        metrics=metrics)


def _encode_op(op: Op) -> dict[str, Any]:
    if op.op == "verify":
        payload: dict[str, Any] = {"window": None, "offsets": None,
                                   "use_cache": True, "stream_chunk": None}
    else:
        payload = op.request_payload()
    return encode_request(op.op, op.session_id, payload)


def execute_wire(workload: Workload, *, bulk: bool = True,
                 pipeline_depth: int = 128) -> LoadResult:
    """Run a workload through the socket front end and time it.

    The wire twin of :func:`execute`: sessions open on one service
    behind one :class:`~repro.service.transport.server.WireServer`,
    then the scripted requests ship either as pipelined bursts of
    ``pipeline_depth`` — each burst one ``bulk`` frame, so coalescing
    fires over the wire — or (``bulk=False``) as one frame per
    request.  The timer covers the whole streamed run, framing
    included, which is what the ``service/wire-throughput`` benchmark
    row compares.

    Typed failures (a deadline, an unknown session) count as
    ``failed``; transport-level failures count as ``failed`` too — the
    generator only ever runs against a server it just started, so any
    ``TransportError`` here is a finding, not noise.
    """
    if pipeline_depth < 1:
        raise ValueError(
            f"pipeline_depth must be >= 1, got {pipeline_depth!r}")
    service = SchedulingService(SessionStore())
    with (service, WireServer(service).start() as server,
          ServiceClient(*server.address) as client):
        for session_id, kind in workload.session_kinds:
            client.open_session(session_id, _make_session(kind))
        encoded = [_encode_op(op) for op in workload.ops]
        outcomes: list[Any] = []
        started = time.perf_counter()
        if bulk:
            for begin in range(0, len(encoded), pipeline_depth):
                outcomes += client.pipeline(
                    encoded[begin:begin + pipeline_depth])
        else:
            for frame in encoded:
                try:
                    outcomes.append(client.request(frame))
                except Exception as error:
                    outcomes.append(error)
        elapsed = time.perf_counter() - started
        return _result(workload, outcomes, elapsed, client.metrics())
