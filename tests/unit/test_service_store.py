"""Tests for the SessionStore: locking, LRU eviction, warm restore.

The store's contract is *transparency*: a session that was spilled to
its snapshot envelope and restored must answer every request — and
carry every counter — bit-identically to a session that never left
memory.  The stress test drives interleaved operations on disjoint
sessions from a thread pool and demands the final state match a serial
replay of the same per-session scripts.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.api import Box, Session
from repro.core.serialize import CorruptSessionError, snapshot_from_json
from repro.service import (
    ServiceDeadlineError,
    SessionStore,
    UnknownSessionError,
)
from repro.service.store import StoreStats
from repro.utils.rng import StreamRNG, label_stream

WINDOW = Box((0, 0), (5, 5))


def make_tiling_session() -> Session:
    return Session.for_chebyshev(1, window=WINDOW)


def make_mapping_session() -> Session:
    return make_tiling_session().restrict()


class TestBasicTable:
    def test_put_lease_roundtrip(self):
        store = SessionStore()
        session = make_tiling_session()
        store.put("a", session)
        with store.lease("a") as leased:
            assert leased is session
        assert "a" in store
        assert len(store) == 1
        assert store.ids() == ["a"]

    def test_unknown_session_raises_typed(self):
        store = SessionStore()
        with pytest.raises(UnknownSessionError):
            with store.lease("ghost"):
                pass
        with pytest.raises(UnknownSessionError):
            store.close("ghost")

    def test_put_rejects_non_session(self):
        store = SessionStore()
        with pytest.raises(TypeError, match="expected a Session"):
            store.put("a", object())

    def test_close_forgets(self):
        store = SessionStore()
        store.put("a", make_tiling_session())
        store.close("a")
        assert "a" not in store

    def test_replace_requires_existing(self):
        store = SessionStore()
        with pytest.raises(UnknownSessionError):
            store.replace("a", make_tiling_session())

    def test_capacity_validation(self):
        with pytest.raises(ValueError, match="capacity"):
            SessionStore(capacity=0)


def _held_elsewhere(store: SessionStore, session_id: str):
    """Hold a lease of ``session_id`` on another thread until released.

    Returns the release event and the holding thread.
    """
    held, release = threading.Event(), threading.Event()

    def hold() -> None:
        with store.lease(session_id):
            held.set()
            release.wait(timeout=30)

    thread = threading.Thread(target=hold)
    thread.start()
    assert held.wait(timeout=30)
    return release, thread


class TestTryLease:
    """Leases with a bounded wait: ``lease(session_id, timeout=...)``."""

    def test_busy_session_times_out_typed(self):
        store = SessionStore()
        store.put("a", make_tiling_session())
        release, thread = _held_elsewhere(store, "a")
        entered = []
        try:
            with pytest.raises(ServiceDeadlineError) as excinfo:
                with store.lease("a", timeout=0.05):
                    entered.append(1)
            assert excinfo.value.timeout == pytest.approx(0.05)
        finally:
            release.set()
            thread.join(timeout=30)
        assert entered == []  # nothing ran under a lease it never got
        with store.lease("a", timeout=0) as leased:
            assert leased is not None  # the lock was given back

    def test_unknown_session_raises_before_waiting(self):
        store = SessionStore()
        with pytest.raises(UnknownSessionError):
            with store.lease("ghost", timeout=30):
                pass

    def test_own_lease_reenters(self):
        store = SessionStore()
        session = make_tiling_session()
        store.put("a", session)
        with store.lease("a"):
            with store.lease("a", timeout=0) as leased:
                assert leased is session

    def test_restores_a_spilled_session(self):
        store = SessionStore(capacity=1)
        store.put("a", make_tiling_session())
        store.put("b", make_tiling_session())
        assert not store.resident("a")
        with store.lease("a", timeout=0) as leased:
            assert leased is not None
            assert store.resident("a")
        assert store.stats().restores == 1

    def test_put_waits_for_a_running_lease(self):
        """Replacing a session never swaps it under a running request."""
        store = SessionStore()
        store.put("a", make_tiling_session())
        replacement = make_mapping_session()
        release, thread = _held_elsewhere(store, "a")
        putter = threading.Thread(target=store.put,
                                  args=("a", replacement))
        putter.start()
        putter.join(timeout=0.2)
        assert putter.is_alive(), "put swapped a leased session"
        release.set()
        thread.join(timeout=30)
        putter.join(timeout=30)
        with store.lease("a") as leased:
            assert leased is replacement


class TestEviction:
    def test_lru_spills_over_capacity(self):
        store = SessionStore(capacity=2)
        for name in ("a", "b", "c"):
            store.put(name, make_tiling_session())
        stats = store.stats()
        assert stats.open_sessions == 3
        assert stats.resident_sessions == 2
        assert stats.evictions == 1
        assert not store.resident("a")  # least recently used spilled
        assert store.resident("c")

    def test_lease_restores_spilled_session(self):
        store = SessionStore(capacity=1)
        store.put("a", make_tiling_session())
        store.put("b", make_tiling_session())
        assert not store.resident("a")
        with store.lease("a") as session:
            assert isinstance(session, Session)
        assert store.stats().restores == 1

    def test_explicit_evict_and_snapshot(self):
        store = SessionStore()
        store.put("a", make_tiling_session())
        envelope = store.snapshot_json("a")
        session_id, schedule = snapshot_from_json(envelope)
        assert session_id == "a"
        assert schedule.num_slots == make_tiling_session().num_slots
        assert store.evict("a") is True
        assert store.evict("a") is False  # already spilled
        assert not store.resident("a")

    def test_corrupt_envelope_rejected_at_restore(self):
        store = SessionStore()
        store.put("a", make_tiling_session())
        envelope = store.snapshot_json("a")
        bad_digest = envelope.replace('"digest": "', '"digest": "beef', 1)
        assert bad_digest != envelope
        with pytest.raises(CorruptSessionError, match="digest mismatch"):
            snapshot_from_json(bad_digest)
        # Structural tampering is caught by schedule revalidation even
        # before the digest comparison runs.
        bad_cells = envelope.replace('"cells": [[-1, -1]',
                                     '"cells": [[-1, -2]')
        assert bad_cells != envelope
        with pytest.raises(CorruptSessionError):
            snapshot_from_json(bad_cells)

    def test_busy_session_never_spilled(self):
        store = SessionStore(capacity=1)
        store.put("a", make_tiling_session())
        with store.lease("a"):
            store.put("b", make_tiling_session())
            # "a" is mid-lease: the store must spill "b"-side or nothing,
            # never the session the caller holds.
            assert store.resident("a")


class TestWarmRestore:
    """Evict/restore must be invisible: caches, counters, certificate."""

    def test_verification_cache_survives_eviction(self):
        store = SessionStore()
        store.put("a", make_mapping_session())
        with store.lease("a") as session:
            first = session.verify()
        assert store.evict("a")
        with store.lease("a") as session:
            second = session.verify()
        reference = make_mapping_session()
        ref_first = reference.verify()
        ref_second = reference.verify()
        assert first.source == ref_first.source
        assert second.source == ref_second.source  # cache, not rescan
        assert second.cache_hits == ref_second.cache_hits
        assert second.cache_misses == ref_second.cache_misses
        assert second.collisions == ref_second.collisions

    def test_certificate_survives_eviction(self):
        store = SessionStore()
        store.put("a", make_tiling_session())
        with store.lease("a") as session:
            assert session.verify().source == "certificate"
        assert store.evict("a")
        with store.lease("a") as session:
            report = session.verify()
        reference = make_tiling_session()
        reference.verify()
        expected = reference.verify()
        assert report.source == expected.source
        assert report.checked_points == expected.checked_points
        assert report.cache_hits == expected.cache_hits

    def test_restored_session_window_preserved(self):
        store = SessionStore()
        store.put("a", make_tiling_session())
        assert store.evict("a")
        with store.lease("a") as session:
            report = session.verify()
        assert report.window_size == make_tiling_session().verify().window_size

    def test_eviction_preserves_edit_pending_delta(self):
        store = SessionStore()
        store.put("a", make_mapping_session())
        with store.lease("a") as session:
            session.verify()
        with store.lease("a") as session:
            edited = session.edit({(0, 0): 1})
            store.replace("a", edited)
        assert store.evict("a")
        with store.lease("a") as session:
            report = session.verify()
        reference = make_mapping_session()
        reference.verify()
        reference = reference.edit({(0, 0): 1})
        expected = reference.verify()
        assert report.source == expected.source  # "delta", not a rescan
        assert report.collisions == expected.collisions
        assert report.checked_points == expected.checked_points

    def test_edit_after_restore_rebases_warm_caches(self):
        """An edit right after a restore must extend the delta chain.

        The warm caches track the spilled schedule by identity; without
        rebasing them onto the deserialized schedule, the first
        post-restore ``edit`` raises in ``VerificationCache.apply``.
        """
        store = SessionStore()
        store.put("a", make_mapping_session())
        with store.lease("a") as session:
            session.verify()
        assert store.evict("a")
        with store.lease("a") as session:
            edited = session.edit({(1, 1): 2})
            store.replace("a", edited)
        with store.lease("a") as session:
            report = session.verify()
        reference = make_mapping_session()
        reference.verify()
        reference = reference.edit({(1, 1): 2})
        expected = reference.verify()
        assert report.source == expected.source
        assert report.collisions == expected.collisions
        assert report.checked_points == expected.checked_points

    def test_stats_count_warm_state_of_spilled_sessions(self):
        store = SessionStore()
        store.put("a", make_mapping_session())
        with store.lease("a") as session:
            session.verify()
            session.verify()
        assert store.evict("a")
        stats = store.stats()
        assert isinstance(stats, StoreStats)
        assert stats.cache_hits == 1
        assert stats.cache_misses == 1


OPS_PER_SESSION = 12
_STREAM_STRESS = label_stream("test:store-stress")


def _session_script(rng: StreamRNG, index: int) -> list[tuple]:
    """A deterministic op script for one session (mapping-backed)."""
    script: list[tuple] = []
    for step in range(OPS_PER_SESSION):
        slot_coordinate = index * OPS_PER_SESSION + step
        op = rng.choice(_STREAM_STRESS, slot_coordinate,
                        ("assign", "verify", "edit", "save_load"))
        if op == "assign":
            points = [(rng.randrange(_STREAM_STRESS, slot_coordinate, 6,
                                     draw=10 + 2 * i),
                       rng.randrange(_STREAM_STRESS, slot_coordinate, 6,
                                     draw=11 + 2 * i))
                      for i in range(3)]
            script.append(("assign", points))
        elif op == "edit":
            point = (rng.randrange(_STREAM_STRESS, slot_coordinate, 6,
                                   draw=1),
                     rng.randrange(_STREAM_STRESS, slot_coordinate, 6,
                                   draw=2))
            slot = rng.randrange(_STREAM_STRESS, slot_coordinate, 9, draw=3)
            script.append(("edit", {point: slot}))
        else:
            script.append((op,))
    return script


def _replay_on_store(store: SessionStore, session_id: str,
                     script: list[tuple]) -> list:
    """Run one session's script through the store; canonical responses."""
    responses = []
    for step in script:
        with store.lease(session_id) as session:
            if step[0] == "assign":
                result = session.assign(step[1])
                responses.append([int(slot) for slot in result.slots])
            elif step[0] == "verify":
                report = session.verify()
                responses.append((report.source, report.cache_hits,
                                  report.cache_misses,
                                  len(report.collisions)))
            elif step[0] == "edit":
                edited = session.edit(step[1])
                store.replace(session_id, edited)
                responses.append(("edited", edited.num_slots))
            else:  # save_load: snapshot text digest stands in for state
                responses.append(("saved", len(session.save())))
    return responses


def _replay_serial(script: list[tuple]) -> list:
    """The same script on a bare Session — the oracle."""
    session = make_mapping_session()
    responses = []
    for step in script:
        if step[0] == "assign":
            result = session.assign(step[1])
            responses.append([int(slot) for slot in result.slots])
        elif step[0] == "verify":
            report = session.verify()
            responses.append((report.source, report.cache_hits,
                              report.cache_misses, len(report.collisions)))
        elif step[0] == "edit":
            session = session.edit(step[1])
            responses.append(("edited", session.num_slots))
        else:
            responses.append(("saved", len(session.save())))
    return responses


class TestConcurrentStress:
    @pytest.mark.parametrize("capacity", [None, 3])
    def test_interleaved_disjoint_sessions_match_serial_replay(
            self, capacity):
        """Thread-pooled interleaving (with and without eviction churn)
        answers bit-identically to a serial replay per session."""
        session_count = 8
        rng = StreamRNG(20080807)
        scripts = {f"s{i}": _session_script(rng, i)
                   for i in range(session_count)}
        store = SessionStore(capacity=capacity)
        for session_id in scripts:
            store.put(session_id, make_mapping_session())
        barrier = threading.Barrier(session_count)
        results: dict[str, list] = {}

        def worker(session_id: str) -> None:
            barrier.wait(timeout=30)
            results[session_id] = _replay_on_store(
                store, session_id, scripts[session_id])

        with ThreadPoolExecutor(max_workers=session_count) as pool:
            futures = [pool.submit(worker, session_id)
                       for session_id in scripts]
            for future in futures:
                future.result(timeout=120)

        for session_id, script in scripts.items():
            assert results[session_id] == _replay_serial(script), session_id
        if capacity is not None:
            assert store.stats().evictions > 0, \
                "stress run never exercised eviction"
            assert store.stats().restores > 0

    def test_same_session_contention_stays_ordered(self):
        """Leases of one session serialize; counters never tear."""
        store = SessionStore()
        store.put("s", make_mapping_session())
        rounds = 25

        def hammer() -> None:
            for _ in range(rounds):
                with store.lease("s") as session:
                    session.verify()

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive()
        with store.lease("s") as session:
            hits, misses = session.cache_stats
        assert misses == 1  # exactly one scan, ever
        assert hits == 4 * rounds - 1
