"""The session table: one record per open session, each with its own lock.

A :class:`SessionStore` owns every :class:`repro.api.Session` a service
serves.  Each session has its own reentrant lock; the service executes
a session's requests under it (:meth:`SessionStore.lease`), so
concurrent requests for *different* sessions run freely while a
session's own stream stays strictly ordered.  A session lives in memory
from ``put`` to ``close``.
"""

from __future__ import annotations

import threading
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.api import Session
from repro.service.errors import ServiceDeadlineError, UnknownSessionError

__all__ = ["SessionStore", "StoreStats"]


@dataclass(frozen=True)
class StoreStats:
    """Point-in-time store statistics.

    Attributes:
        open_sessions: ids the store knows.
        cache_hits / cache_misses: verification cache counters summed
            over every open session.
    """

    open_sessions: int
    cache_hits: int
    cache_misses: int


@dataclass
class _Record:
    """One session slot: the live object and the lock its requests take."""

    session: Session
    lock: threading.RLock = field(default_factory=threading.RLock)


class SessionStore:
    """Thread-safe session table with a lock per session."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._records: dict[str, _Record] = {}

    # -- basic table ops -----------------------------------------------
    def put(self, session_id: str, session: Session) -> None:
        """Open (or replace) a session under an id.

        Replacing waits for the id's lock, so a session is never
        swapped under a request that is running on it.
        """
        if not isinstance(session, Session):
            raise TypeError(
                f"expected a Session, got {type(session).__name__}")
        while True:
            with self._lock:
                record = self._records.get(session_id)
                if record is None:
                    self._records[session_id] = _Record(session)
                    return
            with record.lock, self._lock:
                if self._records.get(session_id) is record:
                    record.session = session
                    return
            # Closed (perhaps reopened) while we waited: look again.

    def replace(self, session_id: str, session: Session) -> None:
        """Swap the session object behind an id (the edit/restrict path).

        The caller must hold the session's lease; the record keeps its
        lock, so requests waiting for it keep waiting on it.
        """
        with self._lock:
            record = self._records.get(session_id)
            if record is None:
                raise UnknownSessionError(session_id)
            record.session = session

    def close(self, session_id: str) -> None:
        """Forget a session."""
        with self._lock:
            if self._records.pop(session_id, None) is None:
                raise UnknownSessionError(session_id)

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    def __contains__(self, session_id: str) -> bool:
        with self._lock:
            return session_id in self._records

    def ids(self) -> list[str]:
        """Open session ids, in the order they were first opened."""
        with self._lock:
            return list(self._records)

    # -- leasing -------------------------------------------------------
    @contextmanager
    def lease(self, session_id: str, *,
              timeout: float | None = None) -> Iterator[Session]:
        """The session, exclusively.

        Yields under the session's own lock — concurrent leases of the
        same id serialize, leases of different ids do not.  ``timeout``
        bounds the wait for the lock (``None``: wait as long as it
        takes).

        Raises:
            UnknownSessionError: no session is open under the id.
            ServiceDeadlineError: the lock stayed held for ``timeout``
                seconds.
        """
        with self._lock:
            record = self._records.get(session_id)
        if record is None:
            raise UnknownSessionError(session_id)
        if not record.lock.acquire(
                timeout=-1 if timeout is None else max(0.0, timeout)):
            raise ServiceDeadlineError(
                f"session {session_id!r} stayed busy for the whole "
                f"{timeout:.3f}s lease wait", timeout=timeout)
        try:
            yield record.session
        finally:
            record.lock.release()

    # -- statistics ----------------------------------------------------
    def stats(self) -> StoreStats:
        with self._lock:
            sessions = [record.session for record in self._records.values()]
        hits = misses = 0
        for session in sessions:
            session_hits, session_misses = session.cache_stats
            hits += session_hits
            misses += session_misses
        return StoreStats(open_sessions=len(sessions),
                          cache_hits=hits, cache_misses=misses)
