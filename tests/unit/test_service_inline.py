"""Tests for the service's one lane: every request on the caller's thread.

``SchedulingService.call`` and ``bulk`` lease the session and run the
request to completion on the calling thread; a busy session makes the
caller wait for its lease.  The lane must never change *what* a
request answers or in which order a session's requests take effect.
These tests pin the three things that could go wrong: an answer that
differs from a direct ``Session`` replay, a request that overtakes one
already running on its session, and context — the ambient engine
config — lost on the thread that runs it.
"""

from __future__ import annotations

import random
import sys
import threading

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


class RecordingPut:
    """Wraps ``SessionStore.put``, recording the thread of each call."""

    def __init__(self, put) -> None:
        self._put = put
        self.threads: list[str] = []

    def __call__(self, session_id, session) -> None:
        self.threads.append(threading.current_thread().name)
        self._put(session_id, session)


@pytest.fixture
def service():
    svc = SchedulingService(SessionStore())
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
        assert service.metrics().counter("batch.dispatches") == 1

    def test_held_lease_forces_the_queue(self, service):
        """(c) A session whose lock is taken is not idle: the call
        waits for the lock on its own thread, then answers correctly."""
        session = RecordingSession.for_chebyshev(1, window=WINDOW)
        service.open_session("s", session)
        release, holder = hold_lease(service.store, "s")
        answers = []
        caller = threading.Thread(target=lambda: answers.append(
            service.call("assign", "s", {"points": [(4, 1)]})),
            name="waiting-caller")
        caller.start()
        caller.join(timeout=0.2)
        assert caller.is_alive(), "call ran under a held lease"
        release.set()
        holder.join(timeout=30)
        caller.join(timeout=30)
        assert canonical_slots(answers[0]) == canonical_slots(
            make_tiling_session().assign([(4, 1)]))
        assert session.seen == [("waiting-caller", shard_workers())]

    def test_call_queues_behind_pending_requests(self, service):
        """A call never overtakes a request already running on its
        session: a verify sent while an edit holds the lease waits for
        it and answers for the edited schedule."""
        service.open_session("m", make_mapping_session())
        replace = service.store.replace
        in_edit, finish_edit = threading.Event(), threading.Event()

        def slow_replace(session_id, session):
            in_edit.set()
            finish_edit.wait(timeout=30)
            replace(session_id, session)

        service.store.replace = slow_replace
        editor = threading.Thread(target=service.edit,
                                  args=("m", {(0, 0): 1}))
        editor.start()
        assert in_edit.wait(timeout=30)
        answers = []
        caller = threading.Thread(target=lambda: answers.append(
            service.call("verify", "m")))
        caller.start()
        caller.join(timeout=0.1)
        assert caller.is_alive(), "verify overtook the running edit"
        finish_edit.set()
        editor.join(timeout=30)
        caller.join(timeout=30)
        direct = make_mapping_session().edit({(0, 0): 1})
        assert encode_result(answers[0]) == encode_result(direct.verify())
        assert answers[0].collisions, "verify ran before the edit"

    def test_load_runs_on_the_calling_thread(self, service):
        """``load`` takes the same lane as every other op."""
        service.store.put = RecordingPut(service.store.put)
        ack = service.load("copy", make_tiling_session().save())
        assert ack.session_id == "copy"
        assert service.store.put.threads == [
            threading.current_thread().name]
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
        metrics = service.metrics()
        assert metrics.counter("edit.failed") == 1
        assert metrics.counter("assign.completed") == 1


class TestFastPathOrdering:
    def test_reserved_verify_is_not_overtaken_by_a_later_restrict(self):
        """A certificate-answered verify that holds its session's lease
        is not overtaken by a ``restrict`` sent while it runs: the
        restrict waits, and the verify answers for the schedule it
        leased.

        (``restrict`` rather than ``edit``: only a certificate-backed
        session takes the fast path, and such a session is immutable —
        ``restrict`` is the op that changes what it answers.)"""
        parked, resume = threading.Event(), threading.Event()

        class ParkingSession(Session):
            def verify(self, *args, **kwargs):
                if self._certificate_value is not None:
                    parked.set()
                    resume.wait(timeout=30)
                return super().verify(*args, **kwargs)

        svc = SchedulingService(SessionStore())
        svc.open_session("s", ParkingSession.for_chebyshev(1, window=WINDOW))
        assert svc.verify("s").source == "certificate"  # built now
        answers = []
        verifier = threading.Thread(target=lambda: answers.append(
            svc.verify("s")))
        verifier.start()
        assert parked.wait(timeout=30)
        acks = []
        restricter = threading.Thread(target=lambda: acks.append(
            svc.restrict("s", Box((0, 0), (2, 2)))))
        restricter.start()
        restricter.join(timeout=0.2)
        assert restricter.is_alive(), "restrict overtook the verify"
        resume.set()
        verifier.join(timeout=30)
        restricter.join(timeout=30)
        metrics = svc.metrics()
        svc.close()
        report = answers[0]
        assert report.source == "certificate"
        assert report.window_size == WINDOW.volume()
        assert acks[0].window_size == 9
        assert metrics.counter("batch.certificate_fast_path") == 1


def _script(rng: random.Random, steps: int) -> list[tuple[str, str, dict]]:
    """One thread's requests as ``(lane, op, payload)``.  Op
    ``"shared"`` is an assign on the tiling session every thread
    shares; the other ops address the thread's own mapping session."""
    script = []
    for _ in range(steps):
        lane = rng.choice(("call", "bulk"))
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
    def test_mixed_call_and_bulk_match_direct_replay(self):
        """(b) Threads mix ``call`` and ``bulk`` (each run of
        bulk-lane requests goes as one ``bulk``): each thread owns a
        mapping session (edit/verify/assign), all share one tiling
        session (assigns only — pointwise-pure).  Every answer equals
        a direct replay."""
        threads_count, steps = 4, 40
        svc = SchedulingService(SessionStore())
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
            answers, run = [], []
            for lane, op, payload in scripts[index]:
                session_id = "shared" if op == "shared" else f"m{index}"
                real_op = "assign" if op == "shared" else op
                if lane == "bulk":
                    run.append((real_op, session_id, payload, None))
                    continue
                answers += svc.bulk(run)
                run = []
                answers.append(svc.call(real_op, session_id, payload))
            served[index] = answers + svc.bulk(run)

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
        assert metrics.counter("batch.batched_dispatches") > 0


class TestWire:
    def test_single_frames_run_inline_and_match_direct_replay(self):
        """(a) A closed loop of one request per frame: every session op
        runs on the connection thread, bit-identical to a direct
        ``Session`` replay."""
        svc = SchedulingService(SessionStore())
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
        assert metrics.counter("batch.dispatches") == sent
        assert metrics.counter("batch.certificate_fast_path") == 9

    def test_inline_requests_resolve_ambient_config(self):
        """(d) Requests run on the connection's handler thread, which
        must resolve the server's ambient engine config the way the
        thread that built the server does."""
        session = RecordingSession.for_chebyshev(1, window=WINDOW)
        with use_config(EngineConfig(workers=2)):
            svc = SchedulingService(SessionStore())
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
        assert thread_name != threading.current_thread().name
        assert workers == 2
        assert report.workers == 2
        assert metrics.counter("batch.dispatches") == 2
