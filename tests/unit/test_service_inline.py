"""Tests for the service's inline lane: blocking calls on idle sessions.

``SchedulingService.call`` runs a request for an idle session to
completion on the calling thread; anything else queues behind what is
there.  The lane must change *where* a request runs, never *what* it
answers or in which order a session's requests take effect.  These
tests pin the three things that could go wrong: an answer that differs
from a direct ``Session`` replay, a request that overtakes one
reserved before it (the certificate fast-path race), and context — the
ambient engine config — lost on the thread that runs it.
"""

from __future__ import annotations

import random
import sys
import threading
from concurrent.futures import wait

import pytest

from repro.api import Box, EngineConfig, Session, use_config
from repro.engine.parallel import shard_workers
from repro.service import (
    EditAck,
    SchedulingService,
    SessionStore,
    UnknownSessionError,
)
from repro.service.transport import ServiceClient, WireServer, encode_result

WINDOW = Box((0, 0), (5, 5))


def make_tiling_session() -> Session:
    return Session.for_chebyshev(1, window=WINDOW)


def make_mapping_session() -> Session:
    return make_tiling_session().restrict()


def canonical_slots(assignment) -> list[int]:
    return [int(slot) for slot in assignment.slots]


class RecordingSession(Session):
    """Records the thread and the resolved worker count of each assign."""

    def assign(self, points):
        self.seen = getattr(self, "seen", [])
        self.seen.append((threading.current_thread().name, shard_workers()))
        return super().assign(points)


@pytest.fixture
def service():
    svc = SchedulingService(SessionStore(), max_queue=256)
    yield svc
    svc.close()


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


class TestCall:
    def test_idle_session_runs_on_the_calling_thread(self, service):
        session = RecordingSession.for_chebyshev(1, window=WINDOW)
        service.open_session("s", session)
        served = service.call("assign", "s", {"points": [(0, 0), (2, 3)]})
        assert canonical_slots(served) == canonical_slots(
            make_tiling_session().assign([(0, 0), (2, 3)]))
        assert session.seen == [(threading.current_thread().name,
                                 shard_workers())]
        assert service.metrics().counter("batch.inline") == 1

    def test_submit_still_queues_to_the_dispatcher(self, service):
        session = RecordingSession.for_chebyshev(1, window=WINDOW)
        service.open_session("s", session)
        service.submit("assign", "s", {"points": [(0, 0)]}).result(
            timeout=30)
        assert session.seen == [("repro-service-dispatcher",
                                 shard_workers())]
        assert service.metrics().counter("batch.inline") == 0

    def test_held_lease_forces_the_queue(self, service):
        """(c) A session whose lock is taken is not idle: the call
        queues, waits for the lock, and still answers correctly."""
        session = RecordingSession.for_chebyshev(1, window=WINDOW)
        service.open_session("s", session)
        release, holder = hold_lease(service.store, "s")
        answers = []
        caller = threading.Thread(target=lambda: answers.append(
            service.call("assign", "s", {"points": [(4, 1)]})))
        caller.start()
        caller.join(timeout=0.2)
        assert caller.is_alive(), "call ran under a held lease"
        release.set()
        holder.join(timeout=30)
        caller.join(timeout=30)
        assert canonical_slots(answers[0]) == canonical_slots(
            make_tiling_session().assign([(4, 1)]))
        assert session.seen == [("repro-service-dispatcher",
                                 shard_workers())]
        assert service.metrics().counter("batch.inline") == 0

    def test_call_queues_behind_pending_requests(self, service):
        """A call never overtakes a request queued before it."""
        service.open_session("m", make_mapping_session())
        release, holder = hold_lease(service.store, "m")
        edited = service.submit("edit", "m", {"updates": {(0, 0): 1}})
        answers = []
        caller = threading.Thread(target=lambda: answers.append(
            service.call("verify", "m")))
        caller.start()
        caller.join(timeout=0.1)
        release.set()
        holder.join(timeout=30)
        caller.join(timeout=30)
        edited.result(timeout=30)
        direct = make_mapping_session().edit({(0, 0): 1})
        assert encode_result(answers[0]) == encode_result(direct.verify())
        assert answers[0].collisions, "verify ran before the edit"

    def test_unstarted_service_queues_the_call(self):
        svc = SchedulingService(SessionStore(), max_queue=16,
                                autostart=False)
        svc.open_session("s", make_tiling_session())
        answers = []
        caller = threading.Thread(target=lambda: answers.append(
            svc.call("assign", "s", {"points": [(1, 1)]})))
        caller.start()
        caller.join(timeout=0.1)
        assert caller.is_alive(), "call ran on a paused service"
        svc.start()
        caller.join(timeout=30)
        metrics = svc.metrics()
        svc.close()
        assert canonical_slots(answers[0]) == canonical_slots(
            make_tiling_session().assign([(1, 1)]))
        assert metrics.counter("batch.inline") == 0

    def test_load_always_queues(self, service):
        service.open_session("s", make_tiling_session())
        service.load("copy", make_tiling_session().save())
        assert service.metrics().counter("batch.inline") == 0
        assert canonical_slots(service.assign("copy", [(2, 2)])) == \
            canonical_slots(make_tiling_session().assign([(2, 2)]))

    def test_unknown_session_is_typed(self, service):
        with pytest.raises(UnknownSessionError) as excinfo:
            service.call("verify", "ghost")
        assert excinfo.value.session_id == "ghost"

    def test_failure_releases_the_session(self, service):
        """A request that fails inline leaves its session idle."""
        service.open_session("t", make_tiling_session())
        with pytest.raises(TypeError, match="immutable"):
            service.edit("t", {(0, 0): 1})
        service.assign("t", [(0, 0)])
        assert service.metrics().counter("batch.inline") == 2


class _PauseAfterFirstRelease:
    """A lock wrapper that parks one thread right after its first
    release — for the service's pending lock, right after that thread
    reserved its session."""

    def __init__(self, lock) -> None:
        self._lock = lock
        self.target: threading.Thread | None = None
        self.parked = threading.Event()
        self.resume = threading.Event()

    def __enter__(self):
        self._lock.acquire()
        return self

    def __exit__(self, *exc_info) -> None:
        self._lock.release()
        if threading.current_thread() is self.target \
                and not self.parked.is_set():
            self.parked.set()
            self.resume.wait(timeout=30)


class TestFastPathOrdering:
    def test_reserved_verify_is_not_overtaken_by_a_later_restrict(self):
        """Regression: the certificate fast path reserved the session,
        dropped the pending lock, and only then waited for the session
        lock.  A ``restrict`` submitted in that window queued, the
        dispatcher ran it first, and the earlier verify answered for
        the restricted schedule.  Parking the verify right after its
        reservation forces that interleaving; the verify must still
        answer for the schedule it was submitted against.

        (``restrict`` rather than ``edit``: only a certificate-backed
        session takes the fast path, and such a session is immutable —
        ``restrict`` is the op that changes what it answers.)"""
        svc = SchedulingService(SessionStore(), max_queue=64)
        svc.open_session("s", make_tiling_session())
        assert svc.verify("s").source == "certificate"  # built now
        pause = _PauseAfterFirstRelease(svc._pending_lock)
        svc._pending_lock = pause
        answers = []
        verifier = threading.Thread(target=lambda: answers.append(
            svc.submit("verify", "s").result(timeout=30)))
        pause.target = verifier
        verifier.start()
        assert pause.parked.wait(timeout=30)
        restricted = svc.submit("restrict", "s",
                                {"window": Box((0, 0), (2, 2))})
        wait([restricted], timeout=0.5)
        pause.resume.set()
        verifier.join(timeout=30)
        ack = restricted.result(timeout=30)
        metrics = svc.metrics()
        svc.close()
        report = answers[0]
        assert report.source == "certificate"
        assert report.window_size == WINDOW.volume()
        assert ack.window_size == 9
        assert metrics.counter("batch.certificate_fast_path") == 1


def _script(rng: random.Random, steps: int) -> list[tuple[str, str, dict]]:
    """One thread's requests as ``(lane, op, payload)``.  Op
    ``"shared"`` is an assign on the tiling session every thread
    shares; the other ops address the thread's own mapping session."""
    script = []
    for _ in range(steps):
        lane = rng.choice(("call", "submit"))
        roll = rng.random()
        # The shared tiling covers the plane; a mapping session only
        # its window.
        span = range(-9, 10) if roll < 0.3 else range(6)
        points = [(rng.choice(span), rng.choice(span))
                  for _ in range(rng.randrange(1, 6))]
        if roll < 0.3:
            script.append((lane, "shared", {"points": points}))
        elif roll < 0.5:
            script.append((lane, "assign", {"points": points}))
        elif roll < 0.75:
            point = (rng.randrange(6), rng.randrange(6))
            script.append((lane, "edit",
                           {"updates": {point: rng.randrange(9)}}))
        else:
            script.append((lane, "verify", {}))
    return script


def _replay(script, own: Session, shared: Session) -> list:
    answers = []
    for _, op, payload in script:
        if op == "shared":
            answers.append(shared.assign(payload["points"]))
        elif op == "assign":
            answers.append(own.assign(payload["points"]))
        elif op == "edit":
            own = own.edit(payload["updates"])
            answers.append(EditAck(points_changed=1,
                                   num_slots=own.num_slots))
        else:
            answers.append(own.verify())
    return answers


def _canonical(answer):
    if isinstance(answer, EditAck):
        return answer
    if hasattr(answer, "slots"):
        return (list(answer.points), canonical_slots(answer),
                answer.num_slots)
    return encode_result(answer)


class TestConcurrentLanes:
    def test_mixed_call_and_submit_match_direct_replay(self):
        """(b) Threads mix call and submit: each owns a mapping session
        (edit/verify/assign), all share one tiling session (assigns
        only — pointwise-pure).  Every answer equals a direct replay."""
        threads_count, steps = 4, 40
        svc = SchedulingService(SessionStore(), max_queue=1024)
        svc.open_session("shared", make_tiling_session())
        scripts = {}
        for index in range(threads_count):
            svc.open_session(f"m{index}", make_mapping_session())
            scripts[index] = _script(random.Random(2008 + index), steps)
        barrier = threading.Barrier(threads_count)
        served: dict[int, list] = {}
        switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the lanes finely

        def worker(index: int) -> None:
            barrier.wait(timeout=30)
            pending = []
            for lane, op, payload in scripts[index]:
                session_id = "shared" if op == "shared" else f"m{index}"
                real_op = "assign" if op == "shared" else op
                if lane == "call":
                    pending.append((lane, svc.call(
                        real_op, session_id, payload)))
                else:
                    pending.append((lane, svc.submit(
                        real_op, session_id, payload)))
            served[index] = [answer.result(timeout=60)
                             if lane == "submit" else answer
                             for lane, answer in pending]

        workers = [threading.Thread(target=worker, args=(index,))
                   for index in range(threads_count)]
        try:
            for thread in workers:
                thread.start()
            for thread in workers:
                thread.join(timeout=120)
                assert not thread.is_alive(), "worker thread hung"
        finally:
            sys.setswitchinterval(switch_interval)
        metrics = svc.metrics()
        svc.close()
        shared = make_tiling_session()
        for index, script in scripts.items():
            expected = _replay(script, make_mapping_session(), shared)
            assert [_canonical(a) for a in served[index]] == \
                [_canonical(a) for a in expected], index
        total = threads_count * steps
        assert sum(metrics.counter(f"{op}.completed")
                   for op in ("assign", "verify", "edit")) == total
        assert 0 < metrics.counter("batch.inline") < total


class TestWire:
    def test_single_frames_run_inline_and_match_direct_replay(self):
        """(a) A closed loop of one request per frame: every session op
        runs inline on the connection thread, bit-identical to a
        direct ``Session`` replay."""
        svc = SchedulingService(SessionStore(), max_queue=64)
        with WireServer(svc).start() as server, \
                ServiceClient(*server.address, timeout=30) as client:
            client.open_session("t", make_tiling_session())
            client.open_session("m", make_mapping_session())
            tiling, mapping = make_tiling_session(), make_mapping_session()
            sent = 0
            for step in range(10):
                points = [(step, k - 2) for k in range(5)]
                assert _canonical(client.assign("t", points)) == \
                    _canonical(tiling.assign(points))
                assert encode_result(client.verify("t")) == \
                    encode_result(tiling.verify())
                updates = {(step % 6, step % 3): step % 9}
                assert client.edit("m", updates) == EditAck(
                    points_changed=1,
                    num_slots=(mapping := mapping.edit(updates)).num_slots)
                assert encode_result(client.verify("m")) == \
                    encode_result(mapping.verify())
                sent += 4
            assert client.save("m") == mapping.save()
            sent += 1
            metrics = client.metrics()
        svc.close()
        assert metrics.counter("batch.inline") == sent
        assert metrics.counter("batch.dispatches") \
            + metrics.counter("batch.certificate_fast_path") == sent
        assert metrics.counter("batch.certificate_fast_path") == 9

    def test_inline_requests_resolve_ambient_config(self):
        """(d) Inline requests run on the connection's handler thread,
        which must resolve the server's ambient engine config the way
        the dispatcher does."""
        session = RecordingSession.for_chebyshev(1, window=WINDOW)
        with use_config(EngineConfig(workers=2)):
            svc = SchedulingService(SessionStore(), max_queue=64)
            server = WireServer(svc).start()
            svc.open_session("t", session)
            with ServiceClient(*server.address, timeout=30) as client:
                client.open_session("m", make_mapping_session())
                client.assign("t", [(0, 0), (1, 1)])
                report = client.verify("m")
            metrics = svc.metrics()
            server.close()
            svc.close()
        [(thread_name, workers)] = session.seen
        assert thread_name != "repro-service-dispatcher"
        assert workers == 2
        assert report.workers == 2
        assert metrics.counter("batch.inline") == 2
