"""Tests for the scheduling service: admission, batching, transparency.

The contract under test: the service changes *when* work runs, never
*what* it answers.  Identity tests compare service responses against
direct ``Session`` calls; admission tests pin that deadlines and
shutdown always surface as typed errors (never a hang, never a silent
drop); batching tests assert that ``bulk`` coalesces consecutive
assigns and stays bit-identical to per-request dispatch.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.api import Box, Session
from repro.engine.encode import PointBatch
from repro.service import (
    EditAck,
    LoadAck,
    SchedulingService,
    ServiceClosedError,
    ServiceDeadlineError,
    SessionStore,
    UnknownSessionError,
)

WINDOW = Box((0, 0), (5, 5))


def make_tiling_session() -> Session:
    return Session.for_chebyshev(1, window=WINDOW)


def make_mapping_session() -> Session:
    return make_tiling_session().restrict()


@pytest.fixture
def service():
    svc = SchedulingService(SessionStore())
    yield svc
    svc.close()


def canonical_slots(assignment) -> list[int]:
    return [int(slot) for slot in assignment.slots]


class TestEndpointIdentity:
    """Service responses == direct Session calls, bit for bit."""

    def test_assign_matches_direct(self, service):
        points = [(0, 0), (1, 2), (4, 5), (-3, 7)]
        service.open_session("s", make_tiling_session())
        direct = make_tiling_session().assign(points)
        served = service.assign("s", points)
        assert canonical_slots(served) == canonical_slots(direct)
        assert served.num_slots == direct.num_slots

    def test_verify_sequence_matches_direct(self, service):
        service.open_session("s", make_tiling_session())
        direct_session = make_tiling_session()
        for _ in range(3):
            direct = direct_session.verify()
            served = service.verify("s")
            assert served.source == direct.source
            assert served.collisions == direct.collisions
            assert served.cache_hits == direct.cache_hits
            assert served.cache_misses == direct.cache_misses

    def test_edit_then_verify_matches_direct(self, service):
        service.open_session("s", make_mapping_session())
        direct = make_mapping_session()
        ack = service.edit("s", {(0, 0): 1})
        direct = direct.edit({(0, 0): 1})
        assert ack == EditAck(points_changed=1, num_slots=direct.num_slots)
        direct_report = direct.verify()
        served_report = service.verify("s")
        assert served_report.collisions == direct_report.collisions
        assert served_report.source == direct_report.source

    def test_save_load_roundtrip(self, service):
        service.open_session("s", make_tiling_session())
        text = service.save("s")
        assert text == make_tiling_session().save()
        ack = service.load("copy", text)
        assert ack == LoadAck(session_id="copy",
                              num_slots=make_tiling_session().num_slots)
        points = [(2, 2), (3, 4)]
        assert canonical_slots(service.assign("copy", points)) \
            == canonical_slots(service.assign("s", points))

    def test_dispatcher_inherits_ambient_config(self):
        """A request resolves ambient engine config on the thread that
        asked: sessions with no explicit config resolve workers through
        the service exactly as through direct calls in that thread,
        whether or not the service was built under the same config."""
        from repro.api import EngineConfig, use_config

        svc = SchedulingService(SessionStore())
        svc.open_session("s", make_tiling_session())
        with use_config(EngineConfig(workers=2)):
            direct = make_tiling_session().verify()
            served = svc.call("verify", "s")
            [bulk] = svc.bulk([("verify", "s", {"use_cache": False}, None)])
        svc.close()
        assert served.workers == direct.workers == bulk.workers == 2

    def test_unknown_session_is_typed(self, service):
        """An unknown id fails its own requests typed, through ``call``
        and ``bulk``; its batchmates answer as if it were not there."""
        service.open_session("good", make_tiling_session())
        direct = make_tiling_session().assign([(1, 2)])
        ghost, good = service.bulk([
            ("assign", "ghost", {"points": [(0, 0)]}, None),
            ("assign", "good", {"points": [(1, 2)]}, None),
        ])
        assert isinstance(ghost, UnknownSessionError)
        assert ghost.session_id == "ghost"
        assert canonical_slots(good) == canonical_slots(direct)
        with pytest.raises(UnknownSessionError):
            service.call("assign", "ghost", {"points": [(0, 0)]})
        assert canonical_slots(service.assign("good", [(1, 2)])) \
            == canonical_slots(direct)
        assert service.metrics().counter("assign.failed") == 2

    def test_unknown_op_rejected_at_submit(self, service):
        with pytest.raises(ValueError, match="unknown service op"):
            service.call("reticulate", "s", {})
        [outcome] = service.bulk([("reticulate", "s", {}, None)])
        assert isinstance(outcome, ValueError)


def assign_items(session_id: str, point_lists, timeout=None) -> list:
    return [("assign", session_id, {"points": points}, timeout)
            for points in point_lists]


class TestBatching:
    def test_coalesced_assigns_bit_identical(self):
        """Batched dispatch answers exactly what per-request dispatch does."""
        point_lists = [[(x, y) for y in range(3)] for x in range(40)]
        direct = make_tiling_session()
        expected = [canonical_slots(direct.assign(points))
                    for points in point_lists]
        svc = SchedulingService(SessionStore())
        svc.open_session("s", make_tiling_session())
        served = [canonical_slots(answer)
                  for answer in svc.bulk(assign_items("s", point_lists))]
        metrics = svc.metrics()
        svc.close()
        assert served == expected
        assert metrics.counter("batch.batched_dispatches") == 1
        assert metrics.counter("batch.coalesced_requests") \
            + metrics.counter("batch.dispatches") \
            - metrics.counter("batch.batched_dispatches") \
            == len(point_lists)

    def test_coalesced_batches_are_carried_as_they_are(self):
        """Batches, a list, a batch past int64 and an empty one coalesce
        into one dispatch; each answer holds its request's own points."""
        far = 2 ** 70
        point_sets = [PointBatch.of([(0, 0), (1, 2)]), [(4, 5), (-3, 7)],
                      PointBatch.of([(far, 1), (0, -far)]),
                      PointBatch.of([]), PointBatch.of([(2, 2)])]
        direct = make_tiling_session()
        expected = [canonical_slots(direct.assign(points))
                    for points in point_sets]
        svc = SchedulingService(SessionStore())
        svc.open_session("s", make_tiling_session())
        answers = svc.bulk(assign_items("s", point_sets))
        metrics = svc.metrics()
        svc.close()
        assert [canonical_slots(answer) for answer in answers] == expected
        assert all(answer.points is points
                   for answer, points in zip(answers, point_sets))
        assert metrics.counter("batch.batched_dispatches") == 1

    def test_per_session_fifo_with_interleaved_edits(self):
        """Edits between assigns split coalesced runs but keep order,
        and sessions interleaved in one bulk keep their own order."""
        svc = SchedulingService(SessionStore())
        svc.open_session("s", make_mapping_session())
        svc.open_session("t", make_tiling_session())
        direct = make_mapping_session()
        before, other, _, after = svc.bulk([
            ("assign", "s", {"points": [(0, 0)]}, None),
            ("assign", "t", {"points": [(0, 0)]}, None),
            ("edit", "s", {"updates": {(0, 0): 1}}, None),
            ("assign", "s", {"points": [(0, 0)]}, None),
        ])
        svc.close()
        direct_before = direct.assign([(0, 0)])
        direct = direct.edit({(0, 0): 1})
        direct_after = direct.assign([(0, 0)])
        assert canonical_slots(before) == canonical_slots(direct_before)
        assert canonical_slots(after) == canonical_slots(direct_after)
        assert canonical_slots(other) == canonical_slots(
            make_tiling_session().assign([(0, 0)]))

    def test_concurrent_callers_coalesce_without_waiting(self):
        """Concurrent ``bulk`` callers on one session each coalesce
        their own assigns, and answer exactly what direct calls do."""
        svc = SchedulingService(SessionStore())
        svc.open_session("s", make_tiling_session())
        callers, steps = 4, 25
        barrier = threading.Barrier(callers)
        served = {}

        def caller(index: int) -> None:
            barrier.wait()
            point_lists = [[(index, step), (step, -index), (index, index)]
                           for step in range(steps)]
            answers = svc.bulk(assign_items("s", point_lists))
            for step, (points, answer) in enumerate(
                    zip(point_lists, answers)):
                served[index, step] = (points, answer)

        threads = [threading.Thread(target=caller, args=(index,))
                   for index in range(callers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive(), "caller thread hung"
        metrics = svc.metrics()
        svc.close()
        assert len(served) == callers * steps
        assert metrics.counter("batch.coalesced_requests") == callers * steps
        direct = make_tiling_session()
        for points, assignment in served.values():
            expected = direct.assign(points)
            assert list(assignment.points) == list(expected.points)
            assert canonical_slots(assignment) == canonical_slots(expected)
            assert assignment.num_slots == expected.num_slots

    def test_certificate_fast_path_serves_inline(self, service):
        service.open_session("s", make_tiling_session())
        first = service.verify("s")  # builds the certificate via scan
        assert first.source == "certificate"
        fast = service.verify("s")
        metrics = service.metrics()
        assert fast.collision_free
        assert metrics.counter("batch.certificate_fast_path") >= 1
        # The fast path must match what the direct session answers.
        direct = make_tiling_session()
        direct.verify()
        expected = direct.verify()
        assert fast.source == expected.source
        assert fast.cache_hits == expected.cache_hits

    def test_one_bad_assign_fails_alone(self):
        """A coalesced run with one wrong-dimension point: that request
        gets its typed error, the other seven the direct answers."""
        point_lists = [[(step, 1), (2, step)] for step in range(8)]
        point_lists[5] = [(1, 2, 3)]
        svc = SchedulingService(SessionStore())
        svc.open_session("s", make_tiling_session())
        answers = svc.bulk(assign_items("s", point_lists))
        metrics = svc.metrics()
        svc.close()
        direct = make_tiling_session()
        with pytest.raises(Exception) as excinfo:
            direct.assign(point_lists[5])
        assert type(answers[5]) is type(excinfo.value)
        assert str(answers[5]) == str(excinfo.value)
        for index, points in enumerate(point_lists):
            if index != 5:
                assert canonical_slots(answers[index]) == \
                    canonical_slots(direct.assign(points))
        assert metrics.counter("assign.completed") == 7
        assert metrics.counter("assign.failed") == 1
        assert metrics.counter("batch.batched_dispatches") == 0


def hold_lease(store: SessionStore, session_id: str):
    """Hold ``session_id``'s lease on a helper thread until released."""
    held, release = threading.Event(), threading.Event()

    def hold() -> None:
        with store.lease(session_id):
            held.set()
            release.wait(timeout=30)

    thread = threading.Thread(target=hold)
    thread.start()
    assert held.wait(timeout=30)
    return release, thread


class TestAdmissionControl:
    def test_expired_deadline_fails_future_typed(self):
        """A request whose session stays busy past its deadline fails
        typed when the lease wait runs out, and never runs."""
        svc = SchedulingService(SessionStore(), default_timeout=0.05)
        svc.open_session("s", make_tiling_session())
        release, holder = hold_lease(svc.store, "s")
        try:
            with pytest.raises(ServiceDeadlineError) as excinfo:
                svc.assign("s", [(0, 0)])
            assert excinfo.value.timeout == pytest.approx(0.05)
            late, = svc.bulk([("assign", "s", {"points": [(0, 0)]}, 0.001)])
            assert isinstance(late, ServiceDeadlineError)
            assert late.timeout == pytest.approx(0.001)
        finally:
            release.set()
            holder.join(timeout=30)
        metrics = svc.metrics()
        svc.close()
        assert metrics.counter("rejected.deadline") == 2
        assert metrics.counter("batch.dispatches") == 0

    def test_deadline_enforced_inside_coalesced_run(self):
        """A deadline that lapses *mid-run* must fail the request.

        Regression: deadlines were checked only on entry to a run, so a
        request admitted in time but stuck behind a slow coalesced
        bulk dispatch was served late instead of raising
        ``ServiceDeadlineError``.  The slicing loop now re-checks each
        request after the bulk answer lands."""
        class SlowSession(Session):
            def assign(self, points):
                time.sleep(0.2)  # slower than the 50ms deadline below
                return super().assign(points)

        svc = SchedulingService(SessionStore())
        svc.open_session("s", SlowSession.for_chebyshev(1, window=WINDOW))
        patient, hurried = svc.bulk([
            ("assign", "s", {"points": [(0, 0)]}, None),
            ("assign", "s", {"points": [(1, 1)]}, 0.05),
        ])
        direct = make_tiling_session().assign([(0, 0)])
        assert canonical_slots(patient) == canonical_slots(direct)
        assert isinstance(hurried, ServiceDeadlineError)
        assert hurried.timeout == pytest.approx(0.05)
        metrics = svc.metrics()
        svc.close()
        assert metrics.counter("rejected.deadline") == 1
        # Proves the pair actually coalesced into one bulk dispatch —
        # the expiry happened inside the run, not at admission.
        assert metrics.counter("batch.batched_dispatches") == 1

    def test_closed_service_rejects_typed(self, service):
        service.open_session("s", make_tiling_session())
        service.close()
        with pytest.raises(ServiceClosedError):
            service.call("assign", "s", {"points": [(0, 0)]})
        with pytest.raises(ServiceClosedError):
            service.bulk(assign_items("s", [[(0, 0)], [(1, 1)]]))
        metrics = service.metrics()
        assert metrics.counter("rejected.closed") == 3
        assert metrics.counter("assign.admitted") == 0

    def test_request_admitted_while_close_runs_is_answered(self):
        """A request in flight when close() runs is answered, and
        close() returns only after it; later requests are refused."""
        running, finish = threading.Event(), threading.Event()

        class SlowSession(Session):
            def assign(self, points):
                running.set()
                finish.wait(timeout=30)
                return super().assign(points)

        svc = SchedulingService(SessionStore())
        svc.open_session("s", SlowSession.for_chebyshev(1, window=WINDOW))
        answers = []
        caller = threading.Thread(target=lambda: answers.append(
            svc.assign("s", [(0, 0)])))
        caller.start()
        assert running.wait(timeout=30)
        closer = threading.Thread(target=svc.close)
        closer.start()
        closer.join(timeout=0.2)
        assert closer.is_alive(), "close() returned with a request running"
        with pytest.raises(ServiceClosedError):
            svc.assign("s", [(1, 1)])
        finish.set()
        closer.join(timeout=30)
        caller.join(timeout=30)
        assert not closer.is_alive()
        assert canonical_slots(answers[0]) == canonical_slots(
            make_tiling_session().assign([(0, 0)]))
        assert svc.metrics().counter("rejected.closed") == 1

    def test_saturation_never_hangs_or_drops(self):
        """Many threads on few sessions, mixing ``call`` and ``bulk``:
        every request is answered, none hangs, none is dropped."""
        svc = SchedulingService(SessionStore())
        for session_id in ("a", "b"):
            svc.open_session(session_id, make_tiling_session())
        outcomes = []
        lock = threading.Lock()

        def client(index: int) -> None:
            session_id = "ab"[index % 2]
            for step in range(20):
                points = [(index, step)]
                if step % 2:
                    answers = [svc.assign(session_id, points)]
                else:
                    answers = svc.bulk(assign_items(
                        session_id, [points, [(step, index)]]))
                with lock:
                    outcomes.extend(canonical_slots(answer)
                                    for answer in answers)

        threads = [threading.Thread(target=client, args=(i,))
                   for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive(), "client thread hung"
        metrics = svc.metrics()
        svc.close()
        assert len(outcomes) == 8 * (10 + 2 * 10)  # nothing dropped
        assert metrics.counter("assign.completed") == len(outcomes)
        assert metrics.counter("assign.failed") == 0


class TestBulk:
    def test_load_then_assign_in_one_bulk(self, service):
        """A ``load`` and the requests after it for the same id run in
        item order, so the loaded session serves them."""
        text = make_tiling_session().save()
        ack, served = service.bulk([
            ("load", "copy", {"text": text}, None),
            ("assign", "copy", {"points": [(2, 2)]}, None),
        ])
        assert ack == LoadAck(session_id="copy",
                              num_slots=make_tiling_session().num_slots)
        assert canonical_slots(served) == canonical_slots(
            make_tiling_session().assign([(2, 2)]))

    def test_empty_bulk_answers_nothing(self, service):
        assert service.bulk([]) == []
        assert service.metrics().counters == {}

    def test_unknown_op_item_fails_alone(self, service):
        service.open_session("s", make_tiling_session())
        first, bad, last = service.bulk([
            ("assign", "s", {"points": [(0, 0)]}, None),
            ("reticulate", "s", {}, None),
            ("assign", "s", {"points": [(1, 1)]}, None),
        ])
        assert isinstance(bad, ValueError)
        direct = make_tiling_session()
        assert canonical_slots(first) == canonical_slots(
            direct.assign([(0, 0)]))
        assert canonical_slots(last) == canonical_slots(
            direct.assign([(1, 1)]))

    def test_default_timeout_applies_to_bulk_items(self):
        svc = SchedulingService(SessionStore(), default_timeout=0.05)
        svc.open_session("s", make_tiling_session())
        release, holder = hold_lease(svc.store, "s")
        try:
            [late] = svc.bulk(assign_items("s", [[(0, 0)]]))
        finally:
            release.set()
            holder.join(timeout=30)
        svc.close()
        assert isinstance(late, ServiceDeadlineError)
        assert late.timeout == pytest.approx(0.05)

    def test_lease_wait_ends_at_the_last_deadline(self):
        """A group waits for its lease as long as its latest deadline
        allows; items whose own deadline passed meanwhile expire, the
        rest are served."""
        svc = SchedulingService(SessionStore())
        svc.open_session("s", make_tiling_session())
        release, holder = hold_lease(svc.store, "s")
        timer = threading.Timer(0.2, release.set)
        timer.start()
        try:
            hurried, patient = svc.bulk([
                ("assign", "s", {"points": [(0, 0)]}, 0.05),
                ("assign", "s", {"points": [(1, 1)]}, 30.0),
            ])
        finally:
            timer.join(timeout=30)
            holder.join(timeout=30)
        metrics = svc.metrics()
        svc.close()
        assert isinstance(hurried, ServiceDeadlineError)
        assert canonical_slots(patient) == canonical_slots(
            make_tiling_session().assign([(1, 1)]))
        assert metrics.counter("rejected.deadline") == 1

    def test_close_is_idempotent(self, service):
        service.close()
        service.close()
        assert service.closed


class TestMetrics:
    def test_counters_and_histograms_populate(self, service):
        service.open_session("s", make_tiling_session())
        service.assign("s", [(0, 0), (1, 1)])
        service.verify("s")
        metrics = service.metrics()
        assert metrics.counter("assign.admitted") == 1
        assert metrics.counter("assign.completed") == 1
        assert metrics.counter("verify.completed") == 1
        assert metrics.latencies["assign"].total == 1
        assert metrics.latencies["assign"].p99 > 0
        assert metrics.gauges["sessions.open"] == 1

    def test_metrics_json_is_valid_and_sorted(self, service):
        import json

        service.open_session("s", make_tiling_session())
        service.assign("s", [(0, 0)])
        payload = json.loads(service.metrics_json())
        assert set(payload) == {"counters", "latencies", "gauges"}
        assert payload["counters"]["assign.completed"] == 1
        assert "p99_s" in payload["latencies"]["assign"]
