"""Tests for the scheduling service: admission, batching, transparency.

The contract under test: the service changes *when* work runs, never
*what* it answers.  Identity tests compare service responses against
direct ``Session`` calls; admission tests pin that overload, deadlines
and shutdown always surface as typed errors (never a hang, never a
silent drop); batching tests assert coalescing actually happens and
stays bit-identical to per-request dispatch.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.api import Box, Session
from repro.core.serialize import CorruptSessionError
from repro.service import (
    EditAck,
    LoadAck,
    SchedulingService,
    ServiceClosedError,
    ServiceDeadlineError,
    ServiceOverloadError,
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
    svc = SchedulingService(SessionStore(), max_queue=256)
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
        """A service built under use_config resolves like its creator.

        The dispatcher thread starts with an empty contextvar context;
        without snapshotting the creating context, sessions with no
        explicit config would resolve workers differently
        through the service than through direct calls made in the
        installing thread.  (``submit``, not ``verify``: a blocking call
        on an idle session would run on this thread instead.)
        """
        from repro.api import EngineConfig, use_config

        with use_config(EngineConfig(workers=2)):
            svc = SchedulingService(SessionStore(), max_queue=64)
            svc.open_session("s", make_tiling_session())
            direct = make_tiling_session().verify()
            served = svc.submit("verify", "s").result(timeout=30)
            svc.close()
        assert served.workers == direct.workers == 2

    def test_unknown_session_is_typed(self, service):
        future = service.submit("assign", "ghost", {"points": [(0, 0)]})
        with pytest.raises(UnknownSessionError) as excinfo:
            future.result(timeout=10)
        assert excinfo.value.session_id == "ghost"

    def test_unknown_op_rejected_at_submit(self, service):
        with pytest.raises(ValueError, match="unknown service op"):
            service.submit("reticulate", "s", {})


class TestBatching:
    def test_coalesced_assigns_bit_identical(self):
        """Batched dispatch answers exactly what per-request dispatch does."""
        point_lists = [[(x, y) for y in range(3)] for x in range(40)]
        direct = make_tiling_session()
        expected = [canonical_slots(direct.assign(points))
                    for points in point_lists]
        svc = SchedulingService(SessionStore(), max_queue=256,
                                max_batch=16, autostart=False)
        svc.open_session("s", make_tiling_session())
        futures = [svc.submit("assign", "s", {"points": points})
                   for points in point_lists]
        svc.start()
        served = [canonical_slots(f.result(timeout=30)) for f in futures]
        metrics = svc.metrics()
        svc.close()
        assert served == expected
        assert metrics.counter("batch.batched_dispatches") > 0
        assert metrics.counter("batch.coalesced_requests") \
            + metrics.counter("batch.dispatches") \
            - metrics.counter("batch.batched_dispatches") \
            == len(point_lists)

    def test_per_session_fifo_with_interleaved_edits(self):
        """Edits between assigns split batches but keep order."""
        svc = SchedulingService(SessionStore(), max_queue=256,
                                autostart=False)
        svc.open_session("s", make_mapping_session())
        direct = make_mapping_session()
        futures = []
        futures.append(svc.submit("assign", "s", {"points": [(0, 0)]}))
        futures.append(svc.submit("edit", "s", {"updates": {(0, 0): 1}}))
        futures.append(svc.submit("assign", "s", {"points": [(0, 0)]}))
        svc.start()
        before = futures[0].result(timeout=30)
        futures[1].result(timeout=30)
        after = futures[2].result(timeout=30)
        svc.close()
        direct_before = direct.assign([(0, 0)])
        direct = direct.edit({(0, 0): 1})
        direct_after = direct.assign([(0, 0)])
        assert canonical_slots(before) == canonical_slots(direct_before)
        assert canonical_slots(after) == canonical_slots(direct_after)

    def test_concurrent_callers_coalesce_without_waiting(self):
        """A running dispatcher coalesces what callers queue behind the
        request it is serving, with no straggler wait, and answers
        exactly what direct calls answer."""
        svc = SchedulingService(SessionStore(), max_queue=256)
        svc.open_session("s", make_tiling_session())
        callers, steps = 4, 25
        barrier = threading.Barrier(callers)
        served = {}

        def caller(index: int) -> None:
            barrier.wait()
            submitted = []
            for step in range(steps):
                points = [(index, step), (step, -index), (index, index)]
                submitted.append((step, points, svc.submit(
                    "assign", "s", {"points": points})))
            for step, points, future in submitted:
                served[index, step] = (points, future.result(timeout=30))

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
        assert metrics.counter("batch.coalesced_requests") > 0
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


class TestAdmissionControl:
    def test_overload_returns_typed_error(self):
        svc = SchedulingService(SessionStore(), max_queue=4,
                                autostart=False)
        svc.open_session("s", make_tiling_session())
        admitted = []
        with pytest.raises(ServiceOverloadError) as excinfo:
            for _ in range(10):
                admitted.append(
                    svc.submit("assign", "s", {"points": [(0, 0)]}))
        assert len(admitted) == 4
        assert excinfo.value.max_queue == 4
        assert excinfo.value.queue_depth == 4
        svc.start()
        for future in admitted:
            assert future.result(timeout=30) is not None
        svc.close()

    def test_expired_deadline_fails_future_typed(self):
        svc = SchedulingService(SessionStore(), max_queue=16,
                                autostart=False)
        svc.open_session("s", make_tiling_session())
        future = svc.submit("assign", "s", {"points": [(0, 0)]},
                            timeout=0.001)
        time.sleep(0.05)  # let the deadline lapse before dispatch
        svc.start()
        with pytest.raises(ServiceDeadlineError) as excinfo:
            future.result(timeout=30)
        assert excinfo.value.timeout == pytest.approx(0.001)
        metrics = svc.metrics()
        svc.close()
        assert metrics.counter("rejected.deadline") == 1

    def test_deadline_enforced_inside_coalesced_run(self):
        """A deadline that lapses *mid-batch* must fail the request.

        Regression: the dispatcher checked deadlines only on entry to a
        run, so a request admitted in time but stuck behind a slow
        coalesced bulk dispatch was served late instead of raising
        ``ServiceDeadlineError``.  The slicing loop now re-checks each
        request after the bulk answer lands."""
        class SlowSession(Session):
            def assign(self, points):
                time.sleep(0.2)  # slower than the 50ms deadline below
                return super().assign(points)

        svc = SchedulingService(SessionStore(), max_queue=16,
                                max_batch=8, autostart=False)
        svc.open_session("s", SlowSession.for_chebyshev(1, window=WINDOW))
        patient = svc.submit("assign", "s", {"points": [(0, 0)]})
        hurried = svc.submit("assign", "s", {"points": [(1, 1)]},
                             timeout=0.05)
        svc.start()
        direct = make_tiling_session().assign([(0, 0)])
        assert canonical_slots(patient.result(timeout=30)) == \
            canonical_slots(direct)
        with pytest.raises(ServiceDeadlineError) as excinfo:
            hurried.result(timeout=30)
        assert excinfo.value.timeout == pytest.approx(0.05)
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
            service.submit("assign", "s", {"points": [(0, 0)]})

    def test_close_without_start_fails_queued_futures(self):
        svc = SchedulingService(SessionStore(), max_queue=16,
                                autostart=False)
        svc.open_session("s", make_tiling_session())
        future = svc.submit("assign", "s", {"points": [(0, 0)]})
        svc.close()
        with pytest.raises(ServiceClosedError):
            future.result(timeout=10)

    def test_request_admitted_while_close_runs_is_answered(self):
        """Admission and close() race: the request passed the closed
        check, then the dispatcher saw an empty queue and exited before
        the request was queued.  It must get a typed answer, not a
        future nothing will ever complete."""
        svc = SchedulingService(SessionStore(), max_queue=16)
        svc.open_session("s", make_tiling_session())
        admit = svc._admit

        def admit_then_close(*args):
            request = admit(*args)
            svc.close()  # the dispatcher drains an empty queue and exits
            return request

        svc._admit = admit_then_close
        with pytest.raises(ServiceClosedError):
            svc.submit("assign", "s", {"points": [(0, 0)]}).result(
                timeout=5)
        assert svc.metrics().counter("rejected.closed") == 1

    def test_session_that_fails_to_restore_fails_typed(self):
        """A spilled session whose snapshot no longer restores fails its
        requests with CorruptSessionError, on both lanes, and the
        dispatcher keeps serving every other session."""
        store = SessionStore()
        svc = SchedulingService(store, max_queue=16)
        try:
            svc.open_session("bad", make_tiling_session())
            svc.open_session("good", make_tiling_session())
            assert store.evict("bad")
            store._records["bad"].envelope = "{truncated"
            queued = svc.submit("assign", "bad", {"points": [(0, 0)]})
            with pytest.raises(CorruptSessionError):
                queued.result(timeout=5)
            with pytest.raises(CorruptSessionError):
                svc.assign("bad", [(0, 0)])  # the inline lane
            direct = make_tiling_session().assign([(1, 2)])
            served = svc.submit("assign", "good",
                                {"points": [(1, 2)]}).result(timeout=5)
            assert canonical_slots(served) == canonical_slots(direct)
            assert canonical_slots(svc.assign("good", [(1, 2)])) \
                == canonical_slots(direct)
            assert svc.metrics().counter("assign.failed") == 2
        finally:
            svc.close()

    def test_saturation_never_hangs_or_drops(self):
        """Every submit either returns a future that resolves, or raises
        typed — across a saturating burst from many threads."""
        svc = SchedulingService(SessionStore(), max_queue=32)
        svc.open_session("s", make_tiling_session())
        outcomes = []
        lock = threading.Lock()

        def client(index: int) -> None:
            for _ in range(20):
                try:
                    future = svc.submit("assign", "s",
                                        {"points": [(index, 0)]})
                except ServiceOverloadError:
                    with lock:
                        outcomes.append("rejected")
                    continue
                result = future.result(timeout=60)
                with lock:
                    outcomes.append(canonical_slots(result))

        threads = [threading.Thread(target=client, args=(i,))
                   for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive(), "client thread hung"
        svc.close()
        assert len(outcomes) == 8 * 20  # nothing dropped
        served = [o for o in outcomes if o != "rejected"]
        assert served, "saturation rejected everything"


class TestMetrics:
    def test_counters_and_histograms_populate(self, service):
        service.open_session("s", make_tiling_session())
        service.assign("s", [(0, 0), (1, 1)])
        service.verify("s")
        metrics = service.metrics()
        assert metrics.counter("assign.submitted") == 1
        assert metrics.counter("assign.completed") == 1
        assert metrics.counter("verify.completed") == 1
        assert metrics.latencies["assign"].total == 1
        assert metrics.latencies["assign"].p99 > 0
        assert metrics.gauges["sessions.open"] == 1
        assert metrics.gauges["queue.depth"] == 0

    def test_metrics_json_is_valid_and_sorted(self, service):
        import json

        service.open_session("s", make_tiling_session())
        service.assign("s", [(0, 0)])
        payload = json.loads(service.metrics_json())
        assert set(payload) == {"counters", "latencies", "gauges"}
        assert payload["counters"]["assign.completed"] == 1
        assert "p99_s" in payload["latencies"]["assign"]
