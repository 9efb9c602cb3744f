"""The scheduling server: admission, batching, dispatch, observability.

One :class:`SchedulingService` owns a
:class:`~repro.service.store.SessionStore` and serves every request on
the thread that asked, under the session's lease
(:meth:`~repro.service.store.SessionStore.lease`).  There is no queue
and no dispatcher thread:

* :meth:`SchedulingService.call` — and the synchronous
  ``assign``/``verify``/``edit``/``restrict``/``save``/``load`` built
  on it, and every single-request wire frame — leases the session,
  runs the op and returns its answer (or raises its error).
* :meth:`SchedulingService.bulk` takes many requests at once.  It
  groups them by session, keeping each session's requests in order,
  runs each group under one lease, and **coalesces** every run of
  consecutive ``assign`` requests into one bulk engine dispatch — the
  numpy kernels' fixed per-call overhead is paid once per run instead
  of once per request, which is where the ``service/batching-speedup``
  benchmark row comes from.  ``call`` is the one-request case of the
  same code.

**Bit-identity.** Every response is identical to the same call made
directly on the underlying :class:`repro.api.Session` (pinned by the
differential corpus replay in ``repro.service.differential``):

* coalesced assigns concatenate their point batches' arrays, dispatch
  once, and slice the bulk result — ``slots_of`` is pointwise-pure, so
  the slices are exactly the per-request answers;
* ``verify``/``edit`` are stateful (cache counters, incremental
  deltas), so they execute sequentially per session, never merged;
* a session's requests run in the order they were given; only
  requests for *different* sessions reorder.

**Deadlines and close.** A request's deadline (its ``timeout``, or the
service's ``default_timeout``) bounds its wait for the session's
lease and is re-checked before it runs and when a coalesced answer is
sliced back to it; a request past its deadline fails with
:class:`~repro.service.errors.ServiceDeadlineError`.  A failed
coalesced dispatch falls back to one dispatch per request, so one
poisoned request cannot fail its batchmates.  :meth:`close` stops
admitting requests (:class:`~repro.service.errors.ServiceClosedError`)
and returns once none is in flight.
"""

from __future__ import annotations

import threading
import time
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from typing import Any, Callable

from repro.api import Session, SlotAssignment
from repro.engine.encode import PointBatch
from repro.service.errors import ServiceClosedError, ServiceDeadlineError
from repro.service.metrics import MetricsRecorder, ServiceMetrics
from repro.service.store import SessionStore

__all__ = [
    "EditAck",
    "LoadAck",
    "RestrictAck",
    "SchedulingService",
]

_OPS = ("assign", "verify", "edit", "restrict", "save", "load")

#: Outcome of a request that has not been answered yet.
_UNANSWERED = object()


@dataclass(frozen=True)
class EditAck:
    """Response of the ``edit`` endpoint.

    Attributes:
        points_changed: slots reassigned by this edit.
        num_slots: the edited schedule's period.
    """

    points_changed: int
    num_slots: int


@dataclass(frozen=True)
class RestrictAck:
    """Response of the ``restrict`` endpoint.

    Attributes:
        window_size: sensors frozen into the mapping-backed session.
        num_slots: the restricted schedule's period.
    """

    window_size: int
    num_slots: int


@dataclass(frozen=True)
class LoadAck:
    """Response of the ``load`` endpoint.

    Attributes:
        session_id: id the loaded session is now open under.
        num_slots: the loaded schedule's period.
    """

    session_id: str
    num_slots: int


@dataclass
class _Request:
    """One admitted request: op + payload, its deadline and its outcome.

    ``outcome`` is the answer, the exception the request failed with,
    or ``_UNANSWERED``.
    """

    op: str
    session_id: str
    payload: dict[str, Any]
    deadline: float | None
    admitted_at: float
    outcome: Any = _UNANSWERED


class SchedulingService:
    """A concurrent multi-session scheduling server.

    Args:
        store: the session table (a fresh unbounded one by default).
        default_timeout: per-request deadline applied when a request
            is not given one (``None``: requests never expire).
    """

    def __init__(self, store: SessionStore | None = None, *,
                 default_timeout: float | None = None) -> None:
        self._store = store if store is not None else SessionStore()
        self._default_timeout = default_timeout
        self._metrics = MetricsRecorder()
        self._closed = False
        self._in_flight = 0
        self._idle = threading.Condition(threading.Lock())

    # -- lifecycle -----------------------------------------------------
    @property
    def store(self) -> SessionStore:
        return self._store

    def close(self) -> None:
        """Stop admitting requests and wait for those in flight.

        Requests already running are answered; new ones raise
        :class:`ServiceClosedError`.
        """
        with self._idle:
            self._closed = True
            self._idle.wait_for(lambda: not self._in_flight)

    def __enter__(self) -> SchedulingService:
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    @property
    def closed(self) -> bool:
        return self._closed

    # -- session administration (no lease, no deadline) ----------------
    def open_session(self, session_id: str, session: Session) -> None:
        """Open a session under an id (the admin path; no admission)."""
        self._store.put(session_id, session)

    def close_session(self, session_id: str) -> None:
        self._store.close(session_id)

    def session_ids(self) -> list[str]:
        return self._store.ids()

    # -- observability -------------------------------------------------
    def metrics(self) -> ServiceMetrics:
        """A typed snapshot of counters, latency histograms and gauges."""
        stats = self._store.stats()
        return self._metrics.snapshot({
            "sessions.open": stats.open_sessions,
            "cache.hits": stats.cache_hits,
            "cache.misses": stats.cache_misses,
            "process.cpu_us": time.process_time_ns() // 1000,
        })

    def metrics_json(self) -> str:
        """The JSON metrics endpoint."""
        return self.metrics().to_json()

    # -- requests ------------------------------------------------------
    def call(self, op: str, session_id: str,
             payload: Mapping[str, Any] | None = None, *,
             timeout: float | None = None) -> Any:
        """Run one request on this thread; return its answer or raise.

        Raises:
            ServiceClosedError: the service no longer admits requests.
            ServiceDeadlineError: the session stayed busy past the
                request's deadline.
            ValueError: for an unknown ``op``.
            the op's own error otherwise.
        """
        request = self._admit(op, session_id, payload, timeout)
        self._enter(1)
        try:
            self._serve(session_id, [request])
        finally:
            self._exit()
        if isinstance(request.outcome, BaseException):
            raise request.outcome
        return request.outcome

    def bulk(self, items: Iterable[tuple[str, str, Mapping[str, Any] | None,
                                         float | None]]) -> list[Any]:
        """Run many ``(op, session_id, payload, timeout)`` requests.

        Requests are grouped by session, each session's in the order
        given; each group runs under one lease, and each run of
        consecutive assigns is one engine dispatch.

        Returns one entry per item, in item order: the answer, or the
        exception that item failed with (not raised — items answer
        independently).

        Raises:
            ServiceClosedError: the service no longer admits requests
                (then no item ran).
        """
        outcomes: list[Any] = []
        groups: dict[str, list[_Request]] = {}
        for op, session_id, payload, timeout in items:
            try:
                request = self._admit(op, session_id, payload, timeout)
            except ValueError as error:
                outcomes.append(error)
                continue
            outcomes.append(request)
            groups.setdefault(session_id, []).append(request)
        self._enter(sum(map(len, groups.values())))
        try:
            for session_id, requests in groups.items():
                self._serve(session_id, requests)
        finally:
            self._exit()
        return [item.outcome if isinstance(item, _Request) else item
                for item in outcomes]

    # Convenience synchronous endpoints.
    def assign(self, session_id: str, points: Iterable[Sequence[int]], *,
               timeout: float | None = None) -> SlotAssignment:
        return self.call("assign", session_id, {"points": points},
                         timeout=timeout)

    def verify(self, session_id: str, window: Any = None, *,
               offsets: Any = None, use_cache: bool = True,
               stream_chunk: int | None = None,
               timeout: float | None = None) -> Any:
        return self.call(
            "verify", session_id,
            {"window": window, "offsets": offsets, "use_cache": use_cache,
             "stream_chunk": stream_chunk},
            timeout=timeout)

    def edit(self, session_id: str,
             updates: Mapping[Sequence[int], int], *,
             timeout: float | None = None) -> EditAck:
        return self.call("edit", session_id, {"updates": dict(updates)},
                         timeout=timeout)

    def restrict(self, session_id: str, window: Any = None, *,
                 timeout: float | None = None) -> RestrictAck:
        return self.call("restrict", session_id, {"window": window},
                         timeout=timeout)

    def save(self, session_id: str, *,
             timeout: float | None = None) -> str:
        return self.call("save", session_id, {}, timeout=timeout)

    def load(self, session_id: str, text: str, *, window: Any = None,
             timeout: float | None = None) -> LoadAck:
        return self.call("load", session_id,
                         {"text": text, "window": window}, timeout=timeout)

    def _admit(self, op: str, session_id: str,
               payload: Mapping[str, Any] | None,
               timeout: float | None) -> _Request:
        """A new request, past the op check."""
        if op not in _OPS:
            raise ValueError(
                f"unknown service op {op!r}; expected one of {_OPS}")
        budget = self._default_timeout if timeout is None else timeout
        now = time.monotonic()
        return _Request(
            op=op, session_id=session_id, payload=dict(payload or {}),
            deadline=None if budget is None else now + budget,
            admitted_at=now)

    def _enter(self, requests: int) -> None:
        """Mark a call of ``requests`` requests in flight, unless closed
        (then all of them count as rejected)."""
        with self._idle:
            if self._closed:
                self._metrics.bump("rejected.closed", requests)
                raise ServiceClosedError(
                    "service is closed; request not admitted")
            self._in_flight += 1

    def _exit(self) -> None:
        with self._idle:
            self._in_flight -= 1
            if not self._in_flight:
                self._idle.notify_all()

    # -- execution -----------------------------------------------------
    def _serve(self, session_id: str, requests: list[_Request]) -> None:
        """One session's requests, in order; loads run outside a lease."""
        for request in requests:
            self._metrics.bump(f"{request.op}.admitted")
        index = 0
        while index < len(requests):
            request = requests[index]
            if request.op == "load":
                if not self._expire_if_late(request):
                    self._finish(request, lambda r=request: self._do_load(r))
                index += 1
                continue
            run = []
            while index < len(requests) and requests[index].op != "load":
                run.append(requests[index])
                index += 1
            self._serve_run(session_id, run)

    def _serve_run(self, session_id: str, run: list[_Request]) -> None:
        """One leased run; the lease wait ends at the last deadline."""
        deadlines = [request.deadline for request in run]
        wait = (None if None in deadlines
                else max(0.0, max(deadlines) - time.monotonic()))
        try:
            with self._store.lease(session_id, timeout=wait) as session:
                self._execute_run(session_id, session, run)
        except Exception as error:
            # The session stayed busy past every deadline or is
            # unknown: what is unanswered fails typed.
            for request in run:
                if request.outcome is not _UNANSWERED:
                    continue
                if isinstance(error, ServiceDeadlineError):
                    self._expire(request)
                else:
                    self._fail(request, error)

    def _execute_run(self, session_id: str, session: Session,
                     run: list[_Request]) -> None:
        """Execute one leased run; coalesce consecutive assigns."""
        index = 0
        while index < len(run):
            request = run[index]
            if self._expire_if_late(request):
                index += 1
                continue
            if request.op == "assign":
                coalesced = [request]
                index += 1
                while index < len(run) and run[index].op == "assign":
                    if not self._expire_if_late(run[index]):
                        coalesced.append(run[index])
                    index += 1
                self._dispatch_assigns(session, coalesced)
                continue
            session = self._execute_single(session_id, session, request)
            index += 1

    def _dispatch_assigns(self, session: Session,
                          requests: list[_Request]) -> None:
        """One bulk engine dispatch for a coalesced assign run.

        Each request's points are one
        :class:`~repro.engine.encode.PointBatch` (a wire request's
        already is), their arrays are concatenated and dispatch once;
        ``slots_of`` is pointwise-pure, so slicing the bulk answer
        reproduces each per-request answer exactly.  If the bulk
        dispatch fails, one dispatch per request isolates the failure
        to the request that caused it.

        Deadlines are re-checked when the bulk result is sliced back
        per request (and before each per-request dispatch): a request
        whose deadline lapses *mid-run* — in time when the run
        started, but stuck behind slow batchmates in the coalesced
        dispatch — must fail with :class:`ServiceDeadlineError`, not be
        served late.  Assigns are pointwise-pure, so failing after the
        bulk dispatch ran loses nothing.
        """
        point_sets = [_assign_points(request) for request in requests]
        self._metrics.bump("batch.dispatches")
        if len(requests) == 1:
            self._finish(requests[0],
                         lambda: session.assign(point_sets[0]))
            return
        try:
            batches = [PointBatch.of(points) for points in point_sets]
            bulk = session.assign(PointBatch.concat(batches))
        except Exception:
            for request, points in zip(requests, point_sets):
                if not self._expire_if_late(request):
                    self._finish(
                        request, lambda points=points: session.assign(points))
            return
        self._metrics.bump("batch.batched_dispatches")
        self._metrics.bump("batch.coalesced_requests", len(requests))
        served = []
        offset = 0
        for request, points, batch in zip(requests, point_sets, batches):
            slots = bulk.slots[offset:offset + len(batch)]
            offset += len(batch)
            if self._expire_if_late(request):
                continue
            served.append((request, SlotAssignment(
                points=points, slots=slots, num_slots=bulk.num_slots)))
        self._complete_all(served)

    def _execute_single(self, session_id: str, session: Session,
                        request: _Request) -> Session:
        """One stateful op; returns the (possibly replaced) session."""
        op = request.op
        self._metrics.bump("batch.dispatches")
        try:
            if op == "verify":
                payload = request.payload
                report = session.verify(
                    payload.get("window"),
                    offsets=payload.get("offsets"),
                    use_cache=payload.get("use_cache", True),
                    stream_chunk=payload.get("stream_chunk"))
                if report.source == "certificate" \
                        and not report.checked_points:
                    # A certificate an earlier verify built answered.
                    self._metrics.bump("batch.certificate_fast_path")
                self._complete(request, report)
            elif op == "save":
                self._complete(request, session.save())
            elif op == "edit":
                updates = {tuple(point): int(slot) for point, slot
                           in dict(request.payload["updates"]).items()}
                edited = session.edit(updates)
                self._store.replace(session_id, edited)
                session = edited
                self._complete(request, EditAck(
                    points_changed=len(updates),
                    num_slots=edited.num_slots))
            elif op == "restrict":
                restricted = session.restrict(request.payload.get("window"))
                self._store.replace(session_id, restricted)
                session = restricted
                self._complete(request, RestrictAck(
                    window_size=len(restricted._window),
                    num_slots=restricted.num_slots))
            else:  # pragma: no cover - _admit validates ops
                raise ValueError(f"unknown service op {op!r}")
        except Exception as error:
            self._fail(request, error)
        return session

    def _do_load(self, request: _Request) -> LoadAck:
        session = Session.load(request.payload["text"],
                               window=request.payload.get("window"))
        self._store.put(request.session_id, session)
        return LoadAck(session_id=request.session_id,
                       num_slots=session.num_slots)

    # -- completion bookkeeping ----------------------------------------
    def _expire_if_late(self, request: _Request) -> bool:
        if request.deadline is None or time.monotonic() <= request.deadline:
            return False
        self._expire(request)
        return True

    def _expire(self, request: _Request) -> None:
        budget = request.deadline - request.admitted_at
        self._metrics.bump("rejected.deadline")
        request.outcome = ServiceDeadlineError(
            f"{request.op!r} for session {request.session_id!r} missed "
            f"its {budget:.3f}s deadline before dispatch",
            timeout=budget)

    def _finish(self, request: _Request,
                producer: Callable[[], Any]) -> None:
        try:
            result = producer()
        except Exception as error:
            self._fail(request, error)
        else:
            self._complete(request, result)

    def _complete(self, request: _Request, result: Any) -> None:
        self._complete_all([(request, result)])

    def _complete_all(self, served: list[tuple[_Request, Any]]) -> None:
        """Answer requests of one op and one session: the counters and
        the latency histogram are updated once for the lot, so a
        coalesced run pays its bookkeeping per dispatch rather than
        per request."""
        if not served:
            return
        first = served[0][0]
        now = time.monotonic()
        self._metrics.bump(f"{first.op}.completed", len(served))
        self._metrics.observe(
            first.op, *[now - request.admitted_at for request, _ in served])
        for request, result in served:
            request.outcome = result

    def _fail(self, request: _Request, error: BaseException) -> None:
        self._metrics.bump(f"{request.op}.failed")
        request.outcome = error


def _assign_points(request: _Request) -> Any:
    """An assign's points as given, without a copy; an unsized iterable
    is read once into a list."""
    points = request.payload.get("points", ())
    return points if hasattr(points, "__len__") else list(points)
