"""The session table: per-session locking, LRU eviction, snapshot/restore.

A :class:`SessionStore` owns every :class:`repro.api.Session` a service
serves.  Three concerns live here:

* **Locking** — each session has its own reentrant lock; the service
  executes a session's requests under it, so concurrent requests for
  *different* sessions run freely while a session's own stream stays
  strictly ordered.
* **LRU eviction** — above ``capacity`` resident sessions, the least
  recently used one is spilled: its schedule serializes through the
  self-checking snapshot envelope
  (:func:`repro.core.serialize.snapshot_to_json`) and the live
  ``Session`` object is dropped.
* **Transparent restore** — the next lease of an evicted session
  rebuilds it from the envelope and re-attaches the *warm* session
  state the store kept in memory (verification caches, hit/miss
  counters, certificate, pending incremental deltas) — the same
  handoff :meth:`repro.api.Session.edit` performs.  A request served
  after an evict/restore cycle is bit-identical to one served by the
  never-evicted session, so eviction is purely a memory decision
  (pinned by the stress suite in ``tests/unit/test_service_store.py``).

The warm state deliberately stays in memory rather than in the
envelope: ``test_session_roundtrip.py`` pins ``Session.save()`` /
``load()`` as *cold* (caches are session state, not schedule state),
and the store builds on exactly that contract — the envelope is a
``save()``-shaped schedule payload, the warmth is a live-object
handoff.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any

from repro.api import Session
from repro.core.serialize import snapshot_from_json, snapshot_to_json
from repro.service.errors import ServiceDeadlineError, UnknownSessionError

__all__ = ["SessionStore", "StoreStats"]


@dataclass(frozen=True)
class StoreStats:
    """Point-in-time store statistics.

    Attributes:
        open_sessions: ids the store knows (resident or spilled).
        resident_sessions: sessions currently live in memory.
        evictions: lifetime spill count.
        restores: lifetime restore count.
        cache_hits / cache_misses: verification cache counters summed
            over every open session (warm state survives eviction, so
            spilled sessions count too).
    """

    open_sessions: int
    resident_sessions: int
    evictions: int
    restores: int
    cache_hits: int
    cache_misses: int


@dataclass
class _Record:
    """One session slot: the live object or its spilled form."""

    lock: threading.RLock = field(default_factory=threading.RLock)
    #: Live lease count.  The lock alone cannot answer "is someone
    #: mid-request?" for the *current* thread (RLocks re-acquire), so
    #: eviction checks this too — a session is never spilled under its
    #: own caller.
    busy: int = 0
    session: Session | None = None
    #: Snapshot envelope JSON while spilled, else None.
    envelope: str | None = None
    #: Warm state captured at eviction (attribute -> value), else None.
    warm: dict[str, Any] | None = None
    #: Constructor-shaped session state captured at eviction.
    window: list | None = None
    window_explicit: bool = False
    #: The neighborhood function, unless it was the schedule's own bound
    #: method (then ``own_neighborhood`` is True and the restored
    #: schedule supplies its own).
    neighborhood: Any = None
    own_neighborhood: bool = False
    offsets: list | None = None
    config: Any = None


class SessionStore:
    """Thread-safe session table with LRU spill-to-envelope eviction.

    Args:
        capacity: maximum *resident* sessions; ``None`` never evicts.
            Sessions above the bound are spilled least-recently-leased
            first (sessions whose lock is currently held are skipped —
            a session mid-request is never spilled under the caller).
    """

    def __init__(self, *, capacity: int | None = None) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError(
                f"capacity must be a positive int or None, got {capacity!r}")
        self._capacity = capacity
        self._lock = threading.Lock()
        self._records: OrderedDict[str, _Record] = OrderedDict()
        self._evictions = 0
        self._restores = 0

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
                    self._records[session_id] = _Record(session=session)
                    break
            with record.lock, self._lock:
                if self._records.get(session_id) is record:
                    record.session = session
                    record.envelope = None
                    record.warm = None
                    self._records.move_to_end(session_id)
                    break
            # Closed (perhaps reopened) while we waited: look again.
        self._enforce_capacity()

    def replace(self, session_id: str, session: Session) -> None:
        """Swap the session object behind an id (the edit/restrict path).

        The caller must hold the session's lease; the record keeps its
        lock (requests waiting for it keep waiting on it) and LRU
        position.
        """
        with self._lock:
            record = self._records.get(session_id)
            if record is None:
                raise UnknownSessionError(session_id)
            record.session = session
            record.envelope = None
            record.warm = None

    def close(self, session_id: str) -> None:
        """Forget a session entirely (resident or spilled)."""
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
        with self._lock:
            return list(self._records)

    def resident(self, session_id: str) -> bool:
        """True when the session is live in memory (not spilled)."""
        with self._lock:
            record = self._records.get(session_id)
            return record is not None and record.session is not None

    # -- leasing -------------------------------------------------------
    @contextmanager
    def lease(self, session_id: str, *,
              timeout: float | None = None) -> Iterator[Session]:
        """The session, exclusively, restored from its snapshot if spilled.

        Yields under the session's own lock — concurrent leases of the
        same id serialize, leases of different ids do not.  Leasing
        marks the session most recently used.  ``timeout`` bounds the
        wait for the lock (``None``: wait as long as it takes).

        Raises:
            UnknownSessionError: no session is open under the id.
            ServiceDeadlineError: the lock stayed held for ``timeout``
                seconds.
        """
        record = self._touch(session_id)
        if record is None:
            raise UnknownSessionError(session_id)
        if not record.lock.acquire(
                timeout=-1 if timeout is None else max(0.0, timeout)):
            raise ServiceDeadlineError(
                f"session {session_id!r} stayed busy for the whole "
                f"{timeout:.3f}s lease wait", timeout=timeout)
        try:
            with self._held(session_id, record) as session:
                yield session
        finally:
            record.lock.release()
        self._enforce_capacity()

    def _touch(self, session_id: str) -> _Record | None:
        """The id's record, marked most recently used (None if unknown)."""
        with self._lock:
            record = self._records.get(session_id)
            if record is not None:
                self._records.move_to_end(session_id)
            return record

    @contextmanager
    def _held(self, session_id: str, record: _Record) -> Iterator[Session]:
        """The live session of a record whose lock the caller holds."""
        record.busy += 1
        try:
            if record.session is None:
                self._restore(session_id, record)
            yield record.session
        finally:
            record.busy -= 1

    # -- snapshot / evict / restore ------------------------------------
    def snapshot_json(self, session_id: str) -> str:
        """The session's snapshot envelope (without evicting it)."""
        with self.lease(session_id) as session:
            return snapshot_to_json(session.schedule, session_id=session_id)

    def evict(self, session_id: str) -> bool:
        """Spill one session now; False when spilled already or busy."""
        with self._lock:
            record = self._records.get(session_id)
            if record is None:
                raise UnknownSessionError(session_id)
        if record.busy or not record.lock.acquire(blocking=False):
            return False
        try:
            if record.busy:  # this thread's own lease re-acquired
                return False
            return self._spill(session_id, record)
        finally:
            record.lock.release()

    def _enforce_capacity(self) -> None:
        if self._capacity is None:
            return
        while True:
            with self._lock:
                resident = [(session_id, record) for session_id, record
                            in self._records.items()
                            if record.session is not None]
                if len(resident) <= self._capacity:
                    return
                candidates = resident[:-1] if len(resident) > 1 else resident
            spilled_one = False
            for session_id, record in candidates:
                if record.busy or not record.lock.acquire(blocking=False):
                    continue  # mid-request; never spill under the caller
                try:
                    if record.busy:  # own lease re-acquired reentrantly
                        continue
                    spilled_one = self._spill(session_id, record)
                finally:
                    record.lock.release()
                if spilled_one:
                    break
            if not spilled_one:
                return  # everything over budget is busy; try next time

    def _spill(self, session_id: str, record: _Record) -> bool:
        """Serialize the schedule, detach the warm state, drop the object.

        Caller holds the record lock.
        """
        session = record.session
        if session is None:
            return False
        try:
            record.envelope = snapshot_to_json(session.schedule,
                                               session_id=session_id)
        except TypeError:
            # Schedule types without a serial form (exotic tilings)
            # simply stay resident; eviction is best-effort.
            return False
        record.warm = session._detach_warm()
        record.window = session._window
        record.window_explicit = session._window_explicit
        neighborhood = session._neighborhood_of
        record.own_neighborhood = (
            getattr(neighborhood, "__self__", None) is session.schedule)
        record.neighborhood = None if record.own_neighborhood else neighborhood
        record.offsets = session._offsets
        record.config = session._config
        record.session = None
        with self._lock:
            self._evictions += 1
        return True

    def _restore(self, session_id: str, record: _Record) -> None:
        """Rebuild the live session from envelope + warm state.

        Caller holds the record lock.  The restored session answers
        every request bit-identically to the spilled one: same caches,
        same counters, same certificate, same pending deltas.
        """
        assert record.envelope is not None and record.warm is not None
        recorded_id, schedule = snapshot_from_json(record.envelope)
        if recorded_id != session_id:
            raise UnknownSessionError(session_id)
        session = Session(schedule, config=record.config,
                          neighborhood_of=record.neighborhood,
                          offsets=record.offsets)
        session._window = record.window
        session._window_explicit = record.window_explicit
        session._attach_warm(record.warm)
        record.session = session
        record.envelope = None
        record.warm = None
        with self._lock:
            self._restores += 1

    # -- statistics ----------------------------------------------------
    def stats(self) -> StoreStats:
        with self._lock:
            records = list(self._records.values())
            evictions, restores = self._evictions, self._restores
        hits = misses = resident = 0
        for record in records:
            session = record.session
            if session is not None:
                resident += 1
                session_hits, session_misses = session.cache_stats
            elif record.warm is not None:
                session_hits = record.warm["_cache_hits"]
                session_misses = record.warm["_cache_misses"]
            else:  # pragma: no cover - record mid-construction
                session_hits = session_misses = 0
            hits += session_hits
            misses += session_misses
        return StoreStats(open_sessions=len(records),
                          resident_sessions=resident,
                          evictions=evictions, restores=restores,
                          cache_hits=hits, cache_misses=misses)
