"""In-process worker pool: consistent hashing and client-side routing.

A :class:`WorkerPool` runs N independent scheduling services in this
process — each with its *own* :class:`~repro.service.store.SessionStore`
— behind N loopback :class:`~repro.service.transport.server.WireServer`
sockets.  It is what the wire differential oracle and the load
generator replay through; a deployment runs one
``python -m repro.service serve`` process per service.

**Placement** is a consistent hash of ``session_id`` over a ring of
virtual nodes (:func:`hash_ring` / :func:`place`).  One session lives
on exactly one worker, which is what preserves the service's
per-session FIFO guarantee across the pool: all of a session's
requests route to the same single-dispatcher service, in submission
order.  Consistent hashing (rather than ``hash % N``) keeps the map
stable under resize — growing w0..w2 to w0..w3 moves only the ~1/4 of
sessions whose ring segment the new worker claims.

**Rebalancing** (:meth:`WorkerPool.rebalance`) moves exactly those
sessions by handing the live :class:`~repro.api.Session` object from
the old worker's store to the new one's, so its warm state — caches,
counters, certificate, pending deltas — moves with it and a moved
session keeps answering bit-identically.

**Routing** happens on the client: :class:`PoolClient` holds one
connection per worker and sends each session's requests to its owner.
"""

from __future__ import annotations

import bisect
import hashlib
import threading
from dataclasses import dataclass
from typing import Any, Iterable, Mapping, Sequence

from repro.api import Session, SlotAssignment, VerificationReport
from repro.service.errors import TransportError
from repro.service.metrics import ServiceMetrics, merge_metrics
from repro.service.server import (
    EditAck,
    LoadAck,
    RestrictAck,
    SchedulingService,
)
from repro.service.store import SessionStore
from repro.service.transport.client import ServiceClient
from repro.service.transport.server import WireServer

__all__ = ["PoolClient", "WorkerPool", "hash_ring", "place"]

#: Virtual nodes per worker on the ring.
_VIRTUAL_NODES = 64


# -- consistent hashing ------------------------------------------------
def hash_ring(worker_names: Sequence[str]) -> list[tuple[int, str]]:
    """A consistent-hash ring: ``_VIRTUAL_NODES`` points per worker.

    Ring points are the first 8 bytes of sha256 — deterministic across
    processes and Python builds (unlike ``hash()``, which is seeded),
    so every client of a pool agrees on placement without talking to
    the others.
    """
    if not worker_names:
        raise ValueError("hash_ring needs at least one worker name")
    ring = []
    for name in worker_names:
        for replica in range(_VIRTUAL_NODES):
            digest = hashlib.sha256(
                f"{name}#{replica}".encode("utf-8")).digest()
            ring.append((int.from_bytes(digest[:8], "big"), name))
    ring.sort()
    return ring


def place(session_id: str, ring: Sequence[tuple[int, str]]) -> str:
    """The worker owning a session: first ring point clockwise of it."""
    if not ring:
        raise ValueError("cannot place on an empty ring")
    point = int.from_bytes(
        hashlib.sha256(session_id.encode("utf-8")).digest()[:8], "big")
    # First entry strictly past the session's point, wrapping.  The
    # 1-tuple compares below every (key, name) with the same key, so
    # bisect_left((point + 1,)) is exactly "first key > point".
    index = bisect.bisect_left(ring, (point + 1,)) % len(ring)
    return ring[index][1]


# -- the pool ----------------------------------------------------------
@dataclass
class _Worker:
    """One pool member: its service and the wire server in front of it."""

    service: SchedulingService
    server: WireServer

    @property
    def address(self) -> tuple[str, int]:
        return self.server.address


class WorkerPool:
    """N in-process scheduling-service workers behind one hash ring.

    Args:
        workers: initial worker count.
        max_batch / max_queue / default_timeout: passed
            through to every worker's :class:`SchedulingService`.
    """

    def __init__(self, workers: int = 2, *, max_batch: int = 64,
                 max_queue: int = 1024,
                 default_timeout: float | None = None) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers!r}")
        self._service_options = {
            "max_batch": max_batch, "max_queue": max_queue,
            "default_timeout": default_timeout,
        }
        self._lock = threading.Lock()
        self._workers: dict[str, _Worker] = {}
        self._next_index = 0
        for _ in range(workers):
            self._start_worker()
        self._ring = hash_ring(self.worker_names())

    # -- topology ------------------------------------------------------
    def worker_names(self) -> list[str]:
        with self._lock:
            return sorted(self._workers,
                          key=lambda name: int(name.lstrip("w")))

    def address_of(self, name: str) -> tuple[str, int]:
        with self._lock:
            return self._workers[name].address

    def worker_for(self, session_id: str) -> str:
        """The worker owning a session under the current ring."""
        with self._lock:
            ring = self._ring
        return place(session_id, ring)

    # -- worker lifecycle ----------------------------------------------
    def _start_worker(self) -> None:
        name = f"w{self._next_index}"
        self._next_index += 1
        service = SchedulingService(SessionStore(), **self._service_options)
        worker = _Worker(service=service,
                         server=WireServer(service).start())
        with self._lock:
            self._workers[name] = worker

    @staticmethod
    def _stop_worker(worker: _Worker) -> None:
        worker.server.close()
        worker.service.close()

    # -- rebalancing ---------------------------------------------------
    def rebalance(self, workers: int) -> dict[str, str]:
        """Resize the pool; move only ownership-changed sessions.

        Grows by starting fresh workers, shrinks by retiring the
        highest-numbered ones.  Every session whose ring owner changes
        moves as the live object: under its lease on the old worker, so
        no request runs there meanwhile, it opens on the new one and
        closes on the old.  Per-session FIFO is preserved because the caller
        rebalances between requests, never racing a session's own
        in-flight stream.

        Returns:
            moved ``session_id -> new worker name``.
        """
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers!r}")
        old_names = self.worker_names()
        for _ in range(workers - len(old_names)):
            self._start_worker()
        new_names = self.worker_names()[:workers]
        new_ring = hash_ring(new_names)
        with self._lock:
            members = dict(self._workers)
        moved: dict[str, str] = {}
        for name in old_names:
            source = members[name].service.store
            for session_id in source.ids():
                target = place(session_id, new_ring)
                if target == name:
                    continue
                with source.lease(session_id) as session:
                    members[target].service.open_session(session_id,
                                                         session)
                    source.close(session_id)
                moved[session_id] = target
        with self._lock:
            self._ring = new_ring
            retired = [self._workers.pop(name) for name in members
                       if name not in new_names]
        for worker in retired:
            self._stop_worker(worker)
        return moved

    # -- lifecycle -----------------------------------------------------
    def close(self) -> None:
        with self._lock:
            workers = list(self._workers.values())
            self._workers.clear()
        for worker in workers:
            self._stop_worker(worker)

    def __enter__(self) -> WorkerPool:
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


# -- client-side routing -----------------------------------------------
class PoolClient:
    """The typed service surface over a whole pool, routed client-side.

    Session-scoped calls go to the session's ring owner; ``metrics``
    merges every worker's snapshot (:func:`~repro.service.metrics.
    merge_metrics`); ``session_ids`` is the union.  :meth:`pipeline`
    splits a burst by owner — per-worker sub-bursts keep their
    submission order, so per-session FIFO survives — ships the
    sub-bursts concurrently, and reassembles results in request order.
    """

    def __init__(self, pool: WorkerPool, *,
                 timeout: float | None = None) -> None:
        self._pool = pool
        self._timeout = timeout
        self._clients: dict[str, ServiceClient] = {}
        self._lock = threading.Lock()

    def _client(self, worker: str) -> ServiceClient:
        with self._lock:
            client = self._clients.get(worker)
            if client is None:
                host, port = self._pool.address_of(worker)
                client = ServiceClient(host, port, timeout=self._timeout)
                self._clients[worker] = client
            return client

    def _route(self, session_id: str) -> ServiceClient:
        return self._client(self._pool.worker_for(session_id))

    def close(self) -> None:
        with self._lock:
            clients = list(self._clients.values())
            self._clients.clear()
        for client in clients:
            client.close()

    def __enter__(self) -> PoolClient:
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- routed surface ------------------------------------------------
    def assign(self, session_id: str, points: Iterable[Sequence[int]],
               *, timeout: float | None = None) -> SlotAssignment:
        return self._route(session_id).assign(session_id, points,
                                              timeout=timeout)

    def verify(self, session_id: str, window: Any = None, *,
               offsets: Any = None, use_cache: bool = True,
               stream_chunk: int | None = None,
               timeout: float | None = None) -> VerificationReport:
        return self._route(session_id).verify(
            session_id, window, offsets=offsets, use_cache=use_cache,
            stream_chunk=stream_chunk, timeout=timeout)

    def edit(self, session_id: str,
             updates: Mapping[Sequence[int], int], *,
             timeout: float | None = None) -> EditAck:
        return self._route(session_id).edit(session_id, updates,
                                            timeout=timeout)

    def restrict(self, session_id: str, window: Any = None, *,
                 timeout: float | None = None) -> RestrictAck:
        return self._route(session_id).restrict(session_id, window,
                                                timeout=timeout)

    def save(self, session_id: str, *,
             timeout: float | None = None) -> str:
        return self._route(session_id).save(session_id, timeout=timeout)

    def load(self, session_id: str, text: str, *, window: Any = None,
             timeout: float | None = None) -> LoadAck:
        return self._route(session_id).load(session_id, text,
                                            window=window,
                                            timeout=timeout)

    def open_session(self, session_id: str, session: Session) -> None:
        self._route(session_id).open_session(session_id, session)

    def close_session(self, session_id: str) -> None:
        self._route(session_id).close_session(session_id)

    def session_ids(self) -> list[str]:
        ids: list[str] = []
        for name in self._pool.worker_names():
            ids.extend(self._client(name).session_ids())
        return sorted(ids)

    def metrics(self) -> ServiceMetrics:
        return merge_metrics([self._client(name).metrics()
                              for name in self._pool.worker_names()])

    def ping(self) -> bool:
        return all(self._client(name).ping()
                   for name in self._pool.worker_names())

    def pipeline(self, requests: Sequence[dict[str, Any]]) -> list[Any]:
        """Route one burst of encoded requests across the pool.

        Same contract as :meth:`ServiceClient.pipeline`: one entry per
        request in the original order, each a decoded result or the
        typed exception it failed with.
        """
        groups: dict[str, list[tuple[int, dict[str, Any]]]] = {}
        results: list[Any] = [None] * len(requests)
        for index, request in enumerate(requests):
            session_id = request.get("session_id")
            if not isinstance(session_id, str):
                results[index] = TransportError(
                    f"pipelined request {index} has no session_id to "
                    f"route by (op {request.get('op')!r})")
                continue
            worker = self._pool.worker_for(session_id)
            groups.setdefault(worker, []).append((index, request))

        def run(worker: str,
                items: list[tuple[int, dict[str, Any]]]) -> None:
            try:
                answers = self._client(worker).pipeline(
                    [request for _, request in items])
            except Exception as error:
                for index, _ in items:
                    results[index] = error
                return
            for (index, _), answer in zip(items, answers):
                results[index] = answer

        threads = [threading.Thread(target=run, args=(worker, items))
                   for worker, items in groups.items()]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return results
