"""The scheduling server: admission, batching, dispatch, observability.

One :class:`SchedulingService` owns a :class:`~repro.service.store.
SessionStore` and a single dispatcher thread.  Clients submit typed
requests from any thread and get a :class:`concurrent.futures.Future`
back; the dispatcher drains the admission queue in arrival order,
groups each drain into per-session runs, and **coalesces** consecutive
``assign`` requests for a session into one bulk engine dispatch — the
numpy kernels' fixed per-call overhead is paid once per batch instead
of once per request, which is where the ``service/batching-speedup``
benchmark row comes from.

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

**Certificate fast path.** A ``verify`` against a session whose
:class:`~repro.core.certify.PeriodicCertificate` is already built and
collision-free — and that has no queued requests which must run first —
is answered O(1) on the submitting thread, without entering the batch
path at all.

**Admission control.** The queue is bounded: a submit against a full
queue raises :class:`~repro.service.errors.ServiceOverloadError`
immediately (typed, never a hang, never a silent drop), and a request
whose per-call deadline expires before dispatch fails its future with
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
    UnknownSessionError,
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
    """One queued request: op + payload + its future and deadline."""

    op: str
    session_id: str
    payload: dict[str, Any]
    future: Future
    deadline: float | None
    submitted_at: float
    #: True once the request holds a pending-count reservation that its
    #: completion must release (fast-path requests release their own).
    queued: bool = False


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

        Raises:
            ServiceClosedError: the service no longer admits requests.
            ServiceOverloadError: the admission queue is full.
            ValueError: for an unknown ``op``.
        """
        if op not in _OPS:
            raise ValueError(
                f"unknown service op {op!r}; expected one of {_OPS}")
        if self._closed:
            self._metrics.bump("rejected.closed")
            raise ServiceClosedError(
                f"service is closed; {op!r} not admitted")
        payload = dict(payload or {})
        budget = self._default_timeout if timeout is None else timeout
        now = time.monotonic()
        request = _Request(
            op=op, session_id=session_id, payload=payload,
            future=Future(),
            deadline=None if budget is None else now + budget,
            submitted_at=now)
        self._metrics.bump(f"{op}.submitted")
        if op == "verify" and self._try_fast_path(request):
            return request.future
        with self._pending_lock:
            self._pending[session_id] = self._pending.get(session_id, 0) + 1
        request.queued = True
        try:
            self._queue.put_nowait(request)
        except Full:
            request.queued = False
            self._release_pending(session_id)
            self._metrics.bump("rejected.overload")
            raise ServiceOverloadError(
                f"admission queue is full ({self._max_queue} requests); "
                f"{op!r} for session {session_id!r} rejected",
                queue_depth=self._queue.qsize(),
                max_queue=self._max_queue) from None
        return request.future

    # Convenience synchronous endpoints: submit + wait.
    def assign(self, session_id: str, points: Iterable[Sequence[int]], *,
               timeout: float | None = None) -> SlotAssignment:
        return self.submit("assign", session_id, {"points": list(points)},
                           timeout=timeout).result()

    def verify(self, session_id: str, window: Any = None, *,
               offsets: Any = None, use_cache: bool = True,
               stream_chunk: int | None = None,
               timeout: float | None = None) -> Any:
        return self.submit(
            "verify", session_id,
            {"window": window, "offsets": offsets, "use_cache": use_cache,
             "stream_chunk": stream_chunk},
            timeout=timeout).result()

    def edit(self, session_id: str,
             updates: Mapping[Sequence[int], int], *,
             timeout: float | None = None) -> EditAck:
        return self.submit("edit", session_id, {"updates": dict(updates)},
                           timeout=timeout).result()

    def restrict(self, session_id: str, window: Any = None, *,
                 timeout: float | None = None) -> RestrictAck:
        return self.submit("restrict", session_id, {"window": window},
                           timeout=timeout).result()

    def save(self, session_id: str, *,
             timeout: float | None = None) -> str:
        return self.submit("save", session_id, {},
                           timeout=timeout).result()

    def load(self, session_id: str, text: str, *, window: Any = None,
             timeout: float | None = None) -> LoadAck:
        return self.submit("load", session_id,
                           {"text": text, "window": window},
                           timeout=timeout).result()

    # -- certificate fast path -----------------------------------------
    def _try_fast_path(self, request: _Request) -> bool:
        """Serve a verify O(1) from a built certificate, FIFO-safely.

        Eligible only when the session has no queued/in-flight requests
        (so answering inline cannot overtake them) and its certificate
        is already built and collision-free.  Runs on the *submitting*
        thread; the batch path never sees the request.
        """
        payload = request.payload
        if payload.get("offsets") is not None \
                or not payload.get("use_cache", True) \
                or payload.get("stream_chunk") is not None:
            return False
        session_id = request.session_id
        with self._pending_lock:
            if self._pending.get(session_id, 0):
                return False
            # Reserve the slot so a racing submit queues behind us.
            self._pending[session_id] = 1
        try:
            with self._store.lease(session_id) as session:
                if not _certificate_ready(session):
                    return False
                self._complete(request,
                               session.verify(payload.get("window")))
                self._metrics.bump("batch.certificate_fast_path")
                return True
        except UnknownSessionError as error:
            self._fail(request, error)
            return True
        finally:
            self._release_pending(session_id)

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
            return None if self._closed else []
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
            except UnknownSessionError as error:
                for queued in run:
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
                window = restricted.window
                self._complete(request, RestrictAck(
                    window_size=0 if window is None else len(window),
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
        queued = 0
        for request, _ in served:
            if request.queued:
                request.queued = False
                queued += 1
        if queued:
            self._release_pending(first.session_id, queued)
        for request, result in served:
            if request.future.set_running_or_notify_cancel():
                request.future.set_result(result)

    def _fail(self, request: _Request, error: BaseException, *,
              counted: bool = True) -> None:
        if counted:
            self._metrics.bump(f"{request.op}.failed")
        self._release_pending_if_queued(request)
        if request.future.set_running_or_notify_cancel():
            request.future.set_exception(error)

    def _release_pending_if_queued(self, request: _Request) -> None:
        # Queued requests hold a pending-count reservation from submit
        # time; fast-path requests release their own reservation in
        # _try_fast_path's finally block.
        if request.queued:
            request.queued = False
            self._release_pending(request.session_id)


def _certificate_ready(session: Session) -> bool:
    """True when the session's certificate is built and collision-free.

    Reads the session's private certificate slot on purpose: the fast
    path must never *build* a certificate on the submitting thread —
    only reuse one an earlier batched verify already paid for.
    """
    certificate = session._certificate_value
    return certificate is not None and certificate.collision_free
