"""The scheduling server: admission, batching, dispatch, observability.

One :class:`SchedulingService` owns a :class:`~repro.service.store.
SessionStore`, a bounded admission queue and one dispatcher thread.
Where a request runs follows one rule:

* **Blocking calls on idle sessions run to completion on the caller's
  thread.**  :meth:`SchedulingService.call` — and the synchronous
  ``assign``/``verify``/``edit``/``restrict``/``save`` built on it, and
  every single-request wire frame — serves a request for a session
  with nothing queued or in flight, and whose lock is free, right
  there: no queue, no dispatcher wake-up, no future handoff.  A
  ``verify`` that a built, collision-free certificate answers is the
  same lane, served O(1); it is the one inline case
  :meth:`~SchedulingService.submit` takes too.
* **Everything else queues and coalesces.**  ``submit`` returns a
  :class:`concurrent.futures.Future`; a call on a busy session queues
  behind what is there.  The dispatcher drains the queue in arrival
  order, groups each drain into per-session runs, and **coalesces**
  consecutive ``assign`` requests for a session into one bulk engine
  dispatch — the numpy kernels' fixed per-call overhead is paid once
  per batch instead of once per request, which is where the
  ``service/batching-speedup`` benchmark row comes from.

The lanes share one per-session reservation (a pending count) and the
session's lock.  An inline request takes the lock without blocking and
only then reserves the session, in one step
(:meth:`~repro.service.store.SessionStore.try_lease`), so it can
neither overtake a request queued before it nor be overtaken by one
submitted after it.  The ``batch.inline`` counter shows how requests
split between the two lanes.

**Bit-identity.** Every response is identical to the same call made
directly on the underlying :class:`repro.api.Session` (pinned by the
differential corpus replay in ``repro.service.differential``):

* coalesced assigns concatenate the point lists, dispatch once, and
  slice the bulk result — ``slots_of`` is pointwise-pure, so the slices
  are exactly the per-request answers;
* ``verify``/``edit`` are stateful (cache counters, incremental
  deltas), so they execute sequentially per session, never merged;
* requests for one session always run in submission order (per-session
  FIFO); only requests for *different* sessions reorder.

**Admission control.** The queue is bounded: a request that must queue
against a full queue raises
:class:`~repro.service.errors.ServiceOverloadError` immediately (typed,
never a hang, never a silent drop), and a request whose per-call
deadline expires before dispatch fails with
:class:`~repro.service.errors.ServiceDeadlineError`.  The bulk-assign
dispatch reuses the retry/backoff idiom of
:mod:`repro.engine.parallel`: a failed bulk dispatch retries with
exponential backoff, then falls back to the per-request serial lane so
one poisoned request cannot fail its batchmates.
"""

from __future__ import annotations

import contextvars
import threading
import time
from collections import OrderedDict
from collections.abc import Iterable, Mapping, Sequence
from concurrent.futures import Future
from dataclasses import dataclass
from queue import Empty, Full, Queue
from typing import Any, Callable

from repro.api import Session, SlotAssignment
from repro.service.errors import (
    ServiceClosedError,
    ServiceDeadlineError,
    ServiceOverloadError,
)
from repro.service.metrics import MetricsRecorder, ServiceMetrics
from repro.service.store import SessionStore

__all__ = [
    "EditAck",
    "LoadAck",
    "RestrictAck",
    "SchedulingService",
]

#: Retry/backoff of the bulk-dispatch lane — the same budget
#: :mod:`repro.engine.parallel` gives its pool lane before the serial
#: fallback takes over.
_DEFAULT_RETRIES = 2
_RETRY_BACKOFF = 0.05

_OPS = ("assign", "verify", "edit", "restrict", "save", "load")


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
    """One admitted request: op + payload + its future and deadline."""

    op: str
    session_id: str
    payload: dict[str, Any]
    future: Future
    deadline: float | None
    submitted_at: float
    #: True while the request holds a pending-count reservation on its
    #: session (queued, or claimed to run inline); completion releases it.
    reserved: bool = False


class SchedulingService:
    """A concurrent multi-session scheduling server.

    Args:
        store: the session table (a fresh unbounded one by default).
        max_queue: admission bound — queued requests beyond this are
            rejected with :class:`ServiceOverloadError`.
        max_batch: most requests one drain dispatches together
            (``1`` disables batching entirely: the per-request
            reference mode the benchmark compares against).  A drain
            takes what is already queued and never waits for more, so
            a lone request is dispatched at once while a backed-up
            queue batches at full speed.
        default_timeout: per-request deadline applied when ``submit``
            is not given one (``None``: requests never expire).
        retries: bulk-dispatch retries before the per-request fallback
            lane (default: the :mod:`repro.engine.parallel` budget).
        autostart: start the dispatcher thread immediately.  Pass
            ``False`` to pre-enqueue work and time a drain — the
            benchmark's measurement mode — then call :meth:`start`.
    """

    def __init__(self, store: SessionStore | None = None, *,
                 max_queue: int = 1024, max_batch: int = 64,
                 default_timeout: float | None = None,
                 retries: int | None = None,
                 autostart: bool = True) -> None:
        if max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {max_queue!r}")
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch!r}")
        self._store = store if store is not None else SessionStore()
        self._max_queue = max_queue
        self._max_batch = max_batch
        self._default_timeout = default_timeout
        self._retries = _DEFAULT_RETRIES if retries is None else retries
        self._queue: Queue[_Request] = Queue(maxsize=max_queue)
        self._metrics = MetricsRecorder()
        self._closed = False
        self._started = False
        self._pending: dict[str, int] = {}
        self._pending_lock = threading.Lock()
        # Enqueueing and the dispatcher's decision to exit take this
        # lock, so no request can land in the queue after the
        # dispatcher saw it empty and left (``_drained``).  The inline
        # lane never takes it.
        self._exit_lock = threading.Lock()
        self._drained = False
        # The dispatcher must resolve ambient engine config (the
        # contextvar-scoped use_config overlay) the way the thread that
        # built the service does — a fresh thread starts with an empty
        # context, which would silently change how sessions without an
        # explicit config resolve workers.  Snapshot the
        # creating context and run the loop inside it.
        self._context = contextvars.copy_context()
        self._dispatcher = threading.Thread(
            target=lambda: self._context.run(self._dispatch_loop),
            daemon=True, name="repro-service-dispatcher")
        if autostart:
            self.start()

    # -- lifecycle -----------------------------------------------------
    @property
    def store(self) -> SessionStore:
        return self._store

    def start(self) -> None:
        """Start the dispatcher (idempotent)."""
        if not self._started:
            self._started = True
            self._dispatcher.start()

    def close(self, *, wait: bool = True) -> None:
        """Stop admitting requests; optionally drain and join.

        Requests already admitted are still served (their futures
        complete); new submits raise :class:`ServiceClosedError`.  On a
        never-started service the queue cannot drain, so queued futures
        fail with :class:`ServiceClosedError` instead (typed, never a
        silent drop).
        """
        self._closed = True
        if not self._started:
            with self._exit_lock:
                self._drained = True
            while True:
                try:
                    request = self._queue.get_nowait()
                except Empty:
                    return
                self._fail(request, ServiceClosedError(
                    f"service closed before dispatching {request.op!r} "
                    f"for session {request.session_id!r}"))
        if wait:
            self._dispatcher.join()

    def __enter__(self) -> SchedulingService:
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    @property
    def closed(self) -> bool:
        return self._closed

    # -- session administration (not request-queued) -------------------
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
            "queue.depth": self._queue.qsize(),
            "sessions.open": stats.open_sessions,
            "sessions.resident": stats.resident_sessions,
            "sessions.evictions": stats.evictions,
            "sessions.restores": stats.restores,
            "cache.hits": stats.cache_hits,
            "cache.misses": stats.cache_misses,
        })

    def metrics_json(self) -> str:
        """The JSON metrics endpoint."""
        return self.metrics().to_json()

    # -- submission ----------------------------------------------------
    def submit(self, op: str, session_id: str,
               payload: Mapping[str, Any] | None = None, *,
               timeout: float | None = None) -> Future:
        """Queue one request; the returned future completes off-thread.

        The one exception is a ``verify`` that a built, collision-free
        certificate answers: on an idle session it completes O(1) on
        this thread before ``submit`` returns.

        Raises:
            ServiceClosedError: the service no longer admits requests.
            ServiceOverloadError: the admission queue is full.
            ValueError: for an unknown ``op``.
        """
        request = self._admit(op, session_id, payload, timeout)
        if not (op == "verify" and _certifiable(request.payload)
                and self._run_inline(request, certified_only=True)):
            self._enqueue(request)
        return request.future

    def call(self, op: str, session_id: str,
             payload: Mapping[str, Any] | None = None, *,
             timeout: float | None = None) -> Any:
        """Run one request and return its answer (or raise its error).

        The blocking counterpart of :meth:`submit`.  When the session is
        idle — the service is started, no request for it is queued or
        in flight, and its lock is free — the request runs to
        completion on the calling thread, with no dispatcher handoff.
        Otherwise it queues behind what is there, exactly as
        :meth:`submit` would.  ``load`` always queues.

        Raises:
            the request's own error, or what :meth:`submit` raises.
        """
        request = self._admit(op, session_id, payload, timeout)
        if not (self._started and op != "load"
                and self._run_inline(request)):
            self._enqueue(request)
        return request.future.result()

    # Convenience synchronous endpoints.
    def assign(self, session_id: str, points: Iterable[Sequence[int]], *,
               timeout: float | None = None) -> SlotAssignment:
        return self.call("assign", session_id, {"points": list(points)},
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
        return self.submit("load", session_id,
                           {"text": text, "window": window},
                           timeout=timeout).result()

    def _admit(self, op: str, session_id: str,
               payload: Mapping[str, Any] | None,
               timeout: float | None) -> _Request:
        """A new request, past the op and closed-service checks."""
        if op not in _OPS:
            raise ValueError(
                f"unknown service op {op!r}; expected one of {_OPS}")
        if self._closed:
            self._metrics.bump("rejected.closed")
            raise ServiceClosedError(
                f"service is closed; {op!r} not admitted")
        budget = self._default_timeout if timeout is None else timeout
        now = time.monotonic()
        self._metrics.bump(f"{op}.submitted")
        return _Request(
            op=op, session_id=session_id, payload=dict(payload or {}),
            future=Future(),
            deadline=None if budget is None else now + budget,
            submitted_at=now)

    def _enqueue(self, request: _Request) -> None:
        session_id = request.session_id
        with self._pending_lock:
            self._pending[session_id] = self._pending.get(session_id, 0) + 1
        request.reserved = True
        with self._exit_lock:
            if self._drained:
                # Admitted just as close() ran, after the dispatcher
                # left: nothing would ever serve it.
                self._unreserve(request)
                self._metrics.bump("rejected.closed")
                raise ServiceClosedError(
                    f"service closed while admitting {request.op!r} for "
                    f"session {session_id!r}")
            try:
                self._queue.put_nowait(request)
            except Full:
                self._unreserve(request)
                self._metrics.bump("rejected.overload")
                raise ServiceOverloadError(
                    f"admission queue is full ({self._max_queue} "
                    f"requests); {request.op!r} for session "
                    f"{session_id!r} rejected",
                    queue_depth=self._queue.qsize(),
                    max_queue=self._max_queue) from None

    # -- run to completion on the caller's thread ----------------------
    def _run_inline(self, request: _Request, *,
                    certified_only: bool = False) -> bool:
        """Serve a request on this thread if its session is idle.

        :meth:`SessionStore.try_lease` takes the session's lock without
        blocking and only then reserves the session, so the check and
        the reservation are one step: a request that runs here cannot
        overtake one queued before it, nor be overtaken by one
        submitted after it.  A ``verify`` that the session's built,
        collision-free certificate answers is served from it in O(1)
        (``batch.certificate_fast_path``); any other request runs
        through the dispatcher's own :meth:`_execute_run`, unless
        ``certified_only`` asks for the certificate answer alone.

        Returns False, with nothing reserved, when the request must
        queue instead.
        """
        session_id = request.session_id
        try:
            with self._store.try_lease(
                    session_id, lambda: self._claim(request)) as session:
                if session is None:
                    return False
                if request.op == "verify" \
                        and _certifiable(request.payload) \
                        and _certificate_ready(session):
                    window = request.payload.get("window")
                    self._finish(request, lambda: session.verify(window))
                    self._metrics.bump("batch.certificate_fast_path")
                elif certified_only:
                    self._unreserve(request)
                    return False
                else:
                    self._execute_run(session_id, session, [request])
        except Exception as error:  # unknown, or a spill that won't restore
            if not request.future.done():
                self._fail(request, error)
        self._metrics.bump("batch.inline")
        return True

    def _claim(self, request: _Request) -> bool:
        """Reserve the request's session unless anything is pending."""
        with self._pending_lock:
            if request.session_id in self._pending:
                return False
            self._pending[request.session_id] = 1
        request.reserved = True
        return True

    def _release_pending(self, session_id: str, count: int = 1) -> None:
        with self._pending_lock:
            remaining = self._pending.get(session_id, 0) - count
            if remaining > 0:
                self._pending[session_id] = remaining
            else:
                self._pending.pop(session_id, None)

    # -- dispatcher ----------------------------------------------------
    def _dispatch_loop(self) -> None:
        while True:
            batch = self._next_batch()
            if batch is None:
                return
            if batch:
                self._execute_batch(batch)

    def _next_batch(self) -> list[_Request] | None:
        """The next drain: up to ``max_batch`` requests, arrival order.

        Blocks only for the first request; the rest is whatever is
        already queued behind it.

        Returns ``None`` when the service is closed and drained (the
        dispatcher exits), an empty list on an idle poll.
        """
        try:
            first = self._queue.get(timeout=0.05)
        except Empty:
            if not self._closed:
                return []
            with self._exit_lock:
                if self._queue.empty():
                    self._drained = True
                    return None
            return []
        batch = [first]
        while len(batch) < self._max_batch:
            try:
                batch.append(self._queue.get_nowait())
            except Empty:
                break
        return batch

    def _execute_batch(self, batch: list[_Request]) -> None:
        groups: OrderedDict[str, list[_Request]] = OrderedDict()
        for request in batch:
            groups.setdefault(request.session_id, []).append(request)
        for session_id, requests in groups.items():
            self._execute_group(session_id, requests)

    def _execute_group(self, session_id: str,
                       requests: list[_Request]) -> None:
        """One session's slice of a drain, in submission order."""
        index = 0
        while index < len(requests):
            request = requests[index]
            if self._expire_if_late(request):
                index += 1
                continue
            if request.op == "load":
                self._finish(request, lambda r=request: self._do_load(r))
                index += 1
                continue
            run = []
            while index < len(requests) and requests[index].op != "load":
                run.append(requests[index])
                index += 1
            try:
                with self._store.lease(session_id) as session:
                    self._execute_run(session_id, session, run)
            except Exception as error:
                # An unknown session, or a spilled one whose snapshot
                # fails to restore (CorruptSessionError): the run fails
                # typed and the dispatcher lives on.
                for queued in run:
                    if not queued.future.done():
                        self._fail(queued, error)

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

        The concatenated point list dispatches once; ``slots_of`` is
        pointwise-pure, so slicing the bulk answer reproduces each
        per-request answer exactly.  A failed bulk dispatch retries
        with exponential backoff, then the per-request lane isolates
        the failure to the request that caused it.

        Deadlines are re-checked when the bulk result is sliced back
        per request (and before each serial-fallback dispatch): a
        request whose deadline lapses *mid-batch* — admitted in time,
        but stuck behind slow batchmates in the coalesced dispatch —
        must fail with :class:`ServiceDeadlineError`, not be served
        late.  Assigns are pointwise-pure, so failing after the bulk
        dispatch ran loses nothing.
        """
        point_lists = [list(r.payload.get("points", ())) for r in requests]
        if len(requests) == 1:
            self._finish(requests[0],
                         lambda: session.assign(point_lists[0]))
            self._metrics.bump("batch.dispatches")
            return
        flat = [point for points in point_lists for point in points]
        bulk: SlotAssignment | None = None
        for attempt in range(self._retries + 1):
            try:
                bulk = session.assign(flat)
                break
            except Exception:
                if attempt >= self._retries:
                    break
                time.sleep(_RETRY_BACKOFF * (2 ** attempt))
        self._metrics.bump("batch.dispatches")
        if bulk is None:
            # Serial fallback lane: dispatch per request so the failure
            # lands only on the request(s) that actually provoke it.
            for request, points in zip(requests, point_lists):
                if self._expire_if_late(request):
                    continue
                self._finish(request,
                             lambda points=points: session.assign(points))
            return
        self._metrics.bump("batch.batched_dispatches")
        self._metrics.bump("batch.coalesced_requests", len(requests))
        served = []
        offset = 0
        for request, points in zip(requests, point_lists):
            slots = bulk.slots[offset:offset + len(points)]
            offset += len(points)
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
                self._complete(request, session.verify(
                    payload.get("window"),
                    offsets=payload.get("offsets"),
                    use_cache=payload.get("use_cache", True),
                    stream_chunk=payload.get("stream_chunk")))
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
            else:  # pragma: no cover - submit() validates ops
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
        budget = request.deadline - request.submitted_at
        self._metrics.bump("rejected.deadline")
        self._fail(request, ServiceDeadlineError(
            f"{request.op!r} for session {request.session_id!r} missed "
            f"its {budget:.3f}s deadline before dispatch",
            timeout=budget), counted=False)
        return True

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
        """Answer requests of one op and one session: the counters, the
        latency histogram and the pending count are updated once for
        the lot, so a coalesced run pays its bookkeeping per dispatch
        rather than per request."""
        if not served:
            return
        first = served[0][0]
        now = time.monotonic()
        self._metrics.bump(f"{first.op}.completed", len(served))
        self._metrics.observe(
            first.op, *[now - request.submitted_at for request, _ in served])
        reserved = 0
        for request, _ in served:
            if request.reserved:
                request.reserved = False
                reserved += 1
        if reserved:
            self._release_pending(first.session_id, reserved)
        for request, result in served:
            if request.future.set_running_or_notify_cancel():
                request.future.set_result(result)

    def _fail(self, request: _Request, error: BaseException, *,
              counted: bool = True) -> None:
        if counted:
            self._metrics.bump(f"{request.op}.failed")
        self._unreserve(request)
        if request.future.set_running_or_notify_cancel():
            request.future.set_exception(error)

    def _unreserve(self, request: _Request) -> None:
        if request.reserved:
            request.reserved = False
            self._release_pending(request.session_id)


def _certifiable(payload: Mapping[str, Any]) -> bool:
    """True when a verify payload is one a certificate can answer."""
    return (payload.get("offsets") is None
            and payload.get("use_cache", True)
            and payload.get("stream_chunk") is None)


def _certificate_ready(session: Session) -> bool:
    """True when the session's certificate is built and collision-free.

    Reads the session's private certificate slot on purpose: ``submit``
    stays O(1), so its fast path never *builds* a certificate — it only
    reuses one an earlier verify already paid for.
    """
    certificate = session._certificate_value
    return certificate is not None and certificate.collision_free
