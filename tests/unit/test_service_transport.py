"""Tests for the wire transport: frames, codecs, errors and the socket
front end.

The transport's contract extends the service's: it changes *where*
work runs, never *what* it answers.  Codec tests pin that every value
and every typed error survives the wire byte-for-byte; frame tests pin
that garbage, truncation and dead peers always surface as a typed
``TransportError`` — never a hang, never a raw parser exception; the
live-socket tests replay the in-process identity checks through
``ServiceClient``.
"""

from __future__ import annotations

import codecs
import io
import json
import socket
import time

import numpy as np
import pytest

from repro.api import Box, Session, SlotAssignment
from repro.core.serialize import CorruptSessionError
from repro.engine.encode import PointBatch
from repro.service import (
    EditAck,
    LoadAck,
    RestrictAck,
    SchedulingService,
    ServiceClosedError,
    ServiceDeadlineError,
    ServiceError,
    SessionStore,
    UnknownSessionError,
)
from repro.service.metrics import MetricsRecorder
from repro.service.transport import (
    MAX_FRAME_BYTES,
    ServiceClient,
    TransportError,
    WireServer,
    decode_error,
    decode_request,
    decode_result,
    encode_error,
    encode_request,
    encode_result,
    read_frame,
    write_frame,
)
from repro.service.transport.wire import decode_session, encode_session

WINDOW = Box((0, 0), (5, 5))


def make_tiling_session() -> Session:
    return Session.for_chebyshev(1, window=WINDOW)


def make_mapping_session() -> Session:
    return make_tiling_session().restrict()


def canonical_slots(assignment) -> list[int]:
    return [int(slot) for slot in assignment.slots]


def reports_equal(a, b) -> bool:
    """Full bit-identity of two verification reports, counters included."""
    return encode_result(a) == encode_result(b)


# ----------------------------------------------------------------------
class TestFrames:
    def test_round_trip(self):
        buffer = io.BytesIO()
        payload = {"op": "ping", "nested": {"points": [[0, 1], [2, 3]]}}
        write_frame(buffer, payload)
        buffer.seek(0)
        assert read_frame(buffer) == payload
        assert read_frame(buffer) is None  # clean EOF at the boundary

    def test_header_is_ascii_length_prefixed(self):
        buffer = io.BytesIO()
        write_frame(buffer, {"a": 1})
        raw = buffer.getvalue()
        header, body = raw.split(b"\n", 1)
        assert header == b"REPRO1 " + str(len(body)).encode()

    @pytest.mark.parametrize("raw", [
        b"GET / HTTP/1.1\r\n\r\n",            # wrong protocol
        b"REPRO1 nope\n{}",                    # non-numeric length
        b"REPRO1 -1\n",                        # negative length
        b"REPRO1 " + str(MAX_FRAME_BYTES + 1).encode() + b"\n",
        b"REPRO1 10\n{}",                      # truncated body
        b"REPRO1 9\nnot json!",                # non-JSON body
        b"REPRO1 2\n[]",                       # not a JSON object
        b"x" * 64,                             # no newline, no magic
    ])
    def test_garbage_is_typed_never_a_hang(self, raw):
        with pytest.raises(TransportError):
            read_frame(io.BytesIO(raw))

    def test_unencodable_payload_is_typed(self):
        with pytest.raises(TransportError, match="unencodable"):
            write_frame(io.BytesIO(), {"bad": {1, 2}})
        with pytest.raises(TransportError):
            write_frame(io.BytesIO(), {"bad": float("inf")})

    @pytest.mark.parametrize("buffered, pad", [
        (False, 8),           # the server's unbuffered socket writer
        (True, 64 * 1024),    # the client's buffered writer, overflowed
    ])
    def test_one_raw_write_per_frame(self, buffered, pad):
        """Header and body leave as one buffer: two writes onto a
        socket are two segments, and the second waits out the peer's
        delayed ACK."""
        class CountingRaw(io.RawIOBase):
            def __init__(self):
                self.writes = []

            def writable(self):
                return True

            def write(self, data):
                self.writes.append(bytes(data))
                return len(data)

        raw = CountingRaw()
        stream = io.BufferedWriter(raw) if buffered else raw
        payload = {"op": "ping", "pad": "x" * pad}
        for frames in (1, 2, 3):
            write_frame(stream, payload)
            assert len(raw.writes) == frames
        replay = io.BytesIO(b"".join(raw.writes))
        assert [read_frame(replay) for _ in range(4)] == [payload] * 3 + [None]

    def test_closed_stream_is_typed(self):
        buffer = io.BytesIO()
        buffer.close()
        with pytest.raises(TransportError):
            write_frame(buffer, {"op": "ping"})
        with pytest.raises(TransportError):
            read_frame(buffer)


# ----------------------------------------------------------------------
class TestRequestCodec:
    def test_assign_round_trip(self):
        frame = encode_request("assign", "s", {"points": [(0, 0), (-3, 7)]},
                               timeout=0.25)
        decoded = decode_request(frame)
        points = decoded["payload"].pop("points")
        assert decoded == {"op": "assign", "session_id": "s",
                           "payload": {}, "timeout": 0.25}
        # Decoded once, into the batch the session takes as it is.
        assert isinstance(points, PointBatch)
        assert list(points) == [(0, 0), (-3, 7)]

    def test_verify_box_window_stays_two_corners(self):
        big = Box((0, 0), (10 ** 6, 10 ** 6))
        frame = encode_request("verify", "s", {"window": big})
        assert frame["payload"]["window"] == {
            "box": [[0, 0], [10 ** 6, 10 ** 6]]}
        decoded = decode_request(frame)
        assert decoded["payload"]["window"] == big
        assert decoded["payload"]["use_cache"] is True

    def test_edit_updates_survive_json_object_keys(self):
        frame = encode_request("edit", "s",
                               {"updates": {(0, 0): 1, (2, 3): 0}})
        decoded = decode_request(frame)
        assert decoded["payload"]["updates"] == {(0, 0): 1, (2, 3): 0}

    def test_restrict_explicit_points_window(self):
        frame = encode_request("restrict", "s",
                               {"window": [(0, 0), (1, 1)]})
        window = decode_request(frame)["payload"]["window"]
        assert isinstance(window, PointBatch)
        assert list(window) == [(0, 0), (1, 1)]

    @pytest.mark.parametrize("frame", [
        {"op": "reticulate"},
        {"op": None},
        {},
        {"op": "assign", "payload": "not an object"},
        {"op": "assign", "session_id": 7},
        {"op": "assign", "timeout": "soon"},
        {"op": "assign", "payload": {"points": [["x", "y"]]}},
        {"op": "bulk"},                       # no request list
        {"op": "load", "payload": {}},        # missing required text
    ])
    def test_malformed_requests_are_typed(self, frame):
        with pytest.raises(TransportError):
            decode_request(frame)


# ----------------------------------------------------------------------
class TestResultCodec:
    def test_assignment_round_trip(self):
        direct = make_tiling_session().assign([(0, 0), (1, 2), (4, 5)])
        again = decode_result(encode_result(direct))
        assert canonical_slots(again) == canonical_slots(direct)
        assert again.num_slots == direct.num_slots

    @pytest.mark.parametrize("slots", [
        [3, 1, 0], [np.int64(3), True, 0], np.array([3, 1, 0]), (3, 1, 0)])
    def test_assignment_slots_encode_as_plain_ints(self, slots):
        direct = SlotAssignment(points=[(0, 0), (1, 0), (2, 0)],
                                slots=slots, num_slots=4)
        body = encode_result(direct)
        assert body["slots"] == [3, 1, 0]
        assert set(map(type, body["slots"])) == {int}
        assert body["slots"] is not slots

    def test_verification_round_trip_counters_included(self):
        session = make_tiling_session()
        session.verify()
        direct = session.verify()  # warm: cache counters are nonzero
        again = decode_result(encode_result(direct))
        assert reports_equal(again, direct)
        assert again.source == direct.source
        assert again.cache_hits == direct.cache_hits

    @pytest.mark.parametrize("value", [
        EditAck(points_changed=2, num_slots=9),
        RestrictAck(window_size=36, num_slots=9),
        LoadAck(session_id="s", num_slots=9),
        "saved-text\nwith lines",
        ["a", "b"],
        True,
    ])
    def test_acks_and_scalars_round_trip(self, value):
        assert decode_result(encode_result(value)) == value

    def test_metrics_round_trip(self):
        recorder = MetricsRecorder()
        recorder.bump("assign.completed")
        recorder.observe("assign", 0.002)
        snapshot = recorder.snapshot({"sessions.open": 0})
        again = decode_result(encode_result(snapshot))
        assert again.counters == dict(snapshot.counters)
        assert again.latencies["assign"] == snapshot.latencies["assign"]

    def test_unknown_kind_is_typed(self):
        with pytest.raises(TransportError):
            decode_result({"kind": "mystery"})

    @pytest.mark.parametrize("pair", [
        [[0, 0]], [[0, 0], [1, 0], [2, 0]], [[0, 0], [1, True]]])
    def test_collision_pair_of_wrong_shape_is_typed(self, pair):
        body = encode_result(make_tiling_session().verify())
        body["collisions"] = [pair]
        with pytest.raises(TransportError):
            decode_result(body)


# ----------------------------------------------------------------------
class TestErrorCodec:
    """Every typed service error survives the wire as itself."""

    @pytest.mark.parametrize("error,attrs", [
        (CorruptSessionError("not a snapshot envelope"),
         {"reason": "not a snapshot envelope", "path": None}),
        (ServiceDeadlineError("late", timeout=0.25), {"timeout": 0.25}),
        (ServiceClosedError("closed"), {}),
        (UnknownSessionError("ghost"), {"session_id": "ghost"}),
        (CorruptSessionError("digest mismatch", path="/tmp/x.json"),
         {"reason": "digest mismatch", "path": "/tmp/x.json"}),
        (TransportError("bad frame"), {}),
        (ValueError("unknown service op 'x'"), {}),
    ])
    def test_typed_round_trip(self, error, attrs):
        again = decode_error(encode_error(error))
        assert type(again) is type(error)
        assert str(again) == str(error)
        for name, value in attrs.items():
            assert getattr(again, name) == value

    def test_unknown_type_degrades_to_service_error(self):
        again = decode_error({"type": "KeyboardInterrupt", "message": "x"})
        assert type(again) is ServiceError
        assert "KeyboardInterrupt" in str(again)

    def test_known_type_with_mangled_attrs_degrades(self):
        again = decode_error({"type": "ServiceDeadlineError",
                              "message": "late"})  # attrs missing
        assert isinstance(again, ServiceError)
        assert not isinstance(again, ServiceDeadlineError)


# ----------------------------------------------------------------------
class TestSessionEnvelope:
    def test_round_trip_is_behavior_identical(self):
        session = make_mapping_session()
        session_id, again = decode_session(encode_session(session, "s"))
        assert session_id == "s"
        points = [(0, 0), (1, 2), (4, 5)]
        assert canonical_slots(again.assign(points)) == \
            canonical_slots(session.assign(points))
        assert reports_equal(again.verify(), make_mapping_session().verify())

    def test_foreign_neighborhood_schedule_ships_by_value(self):
        # A restricted session's interference model is a bound method
        # of the *original* tiling schedule — a different object from
        # the mapping schedule being shipped.  It must travel.
        session = make_mapping_session()
        _, again = decode_session(encode_session(session, "s"))
        assert again.verify().collisions == session.verify().collisions

    def test_custom_function_neighborhood_is_rejected(self):
        base = make_tiling_session()
        custom = Session(base.schedule,
                         neighborhood_of=lambda point: [point])
        with pytest.raises(TypeError, match="wire"):
            encode_session(custom, "s")

    def test_tampered_envelope_is_corrupt(self):
        envelope = json.loads(encode_session(make_tiling_session(), "s"))
        envelope["digest"] = "0" * len(envelope["digest"])
        with pytest.raises(CorruptSessionError):
            decode_session(json.dumps(envelope))


# ----------------------------------------------------------------------
@pytest.fixture
def wire():
    """A live single-service WireServer + connected ServiceClient."""
    service = SchedulingService(SessionStore())
    server = WireServer(service).start()
    client = ServiceClient(*server.address, timeout=30)
    yield client, service
    client.close()
    server.close()
    service.close()


class TestWireEndToEnd:
    def test_surface_matches_direct_session_bit_for_bit(self, wire):
        client, _ = wire
        client.open_session("s", make_tiling_session())
        direct = make_tiling_session()
        points = [(0, 0), (1, 2), (4, 5), (-3, 7)]
        assert canonical_slots(client.assign("s", points)) == \
            canonical_slots(direct.assign(points))
        for _ in range(2):  # cold then warm: sources + counters match
            assert reports_equal(client.verify("s"), direct.verify())
        assert client.save("s") == direct.save()
        ack = client.load("copy", direct.save())
        assert ack == LoadAck(session_id="copy",
                              num_slots=direct.num_slots)
        assert sorted(client.session_ids()) == ["copy", "s"]
        client.close_session("copy")
        assert client.session_ids() == ["s"]
        assert client.ping()

    def test_metrics_carry_the_server_cpu_time(self, wire):
        client, _ = wire
        client.open_session("s", make_tiling_session())
        first = client.metrics().gauges["process.cpu_us"]
        client.assign("s", [(x, y) for x in range(40) for y in range(40)])
        second = client.metrics().gauges["process.cpu_us"]
        assert type(first) is int and type(second) is int
        assert 0 < first <= second

    def test_edit_restrict_round_trip(self, wire):
        client, _ = wire
        client.open_session("m", make_mapping_session())
        direct = make_mapping_session()
        restricted = client.restrict("m", Box((0, 0), (3, 3)))
        direct = direct.restrict(Box((0, 0), (3, 3)))
        assert restricted == RestrictAck(window_size=16,
                                         num_slots=direct.num_slots)
        ack = client.edit("m", {(0, 0): 1})
        direct = direct.edit({(0, 0): 1})
        assert ack == EditAck(points_changed=1,
                              num_slots=direct.num_slots)
        assert reports_equal(client.verify("m"), direct.verify())

    def test_typed_errors_reraise_client_side(self, wire):
        client, _ = wire
        with pytest.raises(UnknownSessionError) as excinfo:
            client.assign("ghost", [(0, 0)])
        assert excinfo.value.session_id == "ghost"
        with pytest.raises(ServiceError, match="remote TypeError"):
            client.open_session("t", make_tiling_session())
            client.edit("t", {(0, 0): 1})  # tiling sessions are immutable

    def test_deadline_expires_inside_pipelined_bulk(self, wire):
        """The wire leg of the mid-batch deadline fix: a pipelined
        request stuck behind a slow coalesced batchmate fails typed."""
        client, service = wire

        class SlowSession(Session):
            def assign(self, points):
                time.sleep(0.2)
                return super().assign(points)

        # Straight onto the co-resident service: the wire envelope
        # rebuilds plain Sessions, so a slow *subclass* cannot ship.
        service.open_session("slow", SlowSession.for_chebyshev(
            1, window=WINDOW))
        results = client.pipeline([
            encode_request("assign", "slow", {"points": [(0, 0)]}),
            encode_request("assign", "slow", {"points": [(1, 1)]},
                           timeout=0.05),
        ])
        direct = make_tiling_session().assign([(0, 0)])
        assert canonical_slots(results[0]) == canonical_slots(direct)
        assert isinstance(results[1], ServiceDeadlineError)
        assert results[1].timeout == pytest.approx(0.05)
        assert service.metrics().counter("rejected.deadline") == 1

    def test_pipeline_answers_in_order_with_per_item_errors(self, wire):
        client, _ = wire
        client.open_session("s", make_tiling_session())
        results = client.pipeline([
            encode_request("assign", "s", {"points": [(0, 0)]}),
            encode_request("assign", "ghost", {"points": [(0, 0)]}),
            encode_request("save", "s"),
        ])
        assert canonical_slots(results[0]) == canonical_slots(
            make_tiling_session().assign([(0, 0)]))
        assert isinstance(results[1], UnknownSessionError)
        assert results[2] == make_tiling_session().save()

    def test_pipelined_edits_stay_fifo_per_session(self, wire):
        # Order-dependent edits on one session inside one bulk frame;
        # the saved text proves they ran in submission order.
        client, _ = wire
        client.open_session("m", make_mapping_session())
        results = client.pipeline([
            encode_request("edit", "m", {"updates": {(0, 0): 1}}),
            encode_request("edit", "m", {"updates": {(0, 0): 2}}),
            encode_request("save", "m"),
        ])
        direct = make_mapping_session().edit({(0, 0): 1}).edit({(0, 0): 2})
        assert results[2] == direct.save()

    def test_admin_ops_in_a_bulk_frame_run_in_frame_order(self, wire):
        """Regression: admin ops in a ``bulk`` frame ran while the frame
        was staged, ahead of the session ops before them, so
        ``[assign s, close_session s]`` answered the assign with
        ``UnknownSessionError``.  Each item now runs at its place."""
        client, _ = wire
        client.open_session("s", make_tiling_session())
        results = client.pipeline([
            encode_request("assign", "s", {"points": [(0, 0)]}),
            encode_request("close_session", "s"),
            encode_request("assign", "s", {"points": [(1, 1)]}),
            encode_request("open", payload={"envelope": encode_session(
                make_tiling_session(), "s")}),
            encode_request("assign", "s", {"points": [(2, 2)]}),
        ])
        direct = make_tiling_session()
        assert canonical_slots(results[0]) == canonical_slots(
            direct.assign([(0, 0)]))
        assert results[1] is True
        assert isinstance(results[2], UnknownSessionError)
        assert results[3] is True
        assert canonical_slots(results[4]) == canonical_slots(
            direct.assign([(2, 2)]))

    def test_undecodable_item_does_not_split_a_coalesced_run(self, wire):
        client, service = wire
        client.open_session("s", make_tiling_session())
        first, broken, last = client.pipeline([
            encode_request("assign", "s", {"points": [(0, 0)]}),
            {"op": "assign", "session_id": "s",
             "payload": {"points": [["x", "y"]]}},
            encode_request("assign", "s", {"points": [(1, 1)]}),
        ])
        assert isinstance(broken, TransportError)
        direct = make_tiling_session()
        assert canonical_slots(first) == canonical_slots(
            direct.assign([(0, 0)]))
        assert canonical_slots(last) == canonical_slots(
            direct.assign([(1, 1)]))
        assert service.metrics().counter("batch.batched_dispatches") == 1

    def test_closed_service_answers_each_bulk_item_typed(self, wire):
        client, service = wire
        client.open_session("s", make_tiling_session())
        service.close()
        results = client.pipeline([
            encode_request("assign", "s", {"points": [(0, 0)]}),
            encode_request("save", "s"),
            encode_request("ping"),
        ])
        assert isinstance(results[0], ServiceClosedError)
        assert isinstance(results[1], ServiceClosedError)
        assert results[2] is True

    def test_handler_threads_inherit_ambient_config(self):
        """Regression: every request, the certificate fast path
        included, runs on the *handler* thread, which starts with an
        empty contextvar context — without the server's context
        snapshot, a session with no explicit config silently resolved
        workers differently over the wire than in the thread that
        built the server."""
        from repro.api import EngineConfig, use_config

        with use_config(EngineConfig(workers=2)):
            service = SchedulingService(SessionStore())
            server = WireServer(service).start()
            with ServiceClient(*server.address, timeout=30) as client:
                client.open_session("s", make_tiling_session())
                scanned = client.verify("s")    # builds the certificate
                certified = client.verify("s")  # answered from it
            metrics = service.metrics()
            server.close()
            service.close()
        assert metrics.counter("batch.certificate_fast_path") >= 1
        assert (scanned.workers, certified.workers) == (2, 2)

    def test_both_ends_disable_nagle(self):
        service = SchedulingService(SessionStore())
        server = WireServer(service)
        accepted = []

        class Probe(server._tcp.RequestHandlerClass):
            def setup(self):
                super().setup()
                accepted.append(self.connection.getsockopt(
                    socket.IPPROTO_TCP, socket.TCP_NODELAY))

        server._tcp.RequestHandlerClass = Probe
        server.start()
        try:
            with ServiceClient(*server.address, timeout=30) as client:
                assert client.ping()
                assert client._sock.getsockopt(
                    socket.IPPROTO_TCP, socket.TCP_NODELAY) == 1
        finally:
            server.close()
            service.close()
        assert accepted == [1]

    def test_sequential_round_trips_never_stall(self, wire):
        """128 pings in a closed loop: a framing stall costs one
        delayed-ACK period (~40 ms) per reply, about 5 s in all."""
        client, _ = wire
        started = time.perf_counter()
        for _ in range(128):
            assert client.ping()
        assert time.perf_counter() - started < 1.0

    def test_garbage_bytes_answer_typed_then_disconnect(self, wire):
        client, _ = wire
        with socket.create_connection(client.address, timeout=10) as raw:
            raw.sendall(b"GET / HTTP/1.1\r\n\r\n")
            reader = raw.makefile("rb")
            response = read_frame(reader)
            assert response is not None and not response["ok"]
            error = decode_error(response["error"])
            assert isinstance(error, TransportError)
            assert reader.read() == b""  # server dropped the connection
        # The server survives garbage: existing clients keep working.
        client.open_session("s", make_tiling_session())
        assert client.ping()

    def test_truncated_frame_never_hangs_the_server(self, wire):
        client, _ = wire
        raw = socket.create_connection(client.address, timeout=10)
        raw.sendall(b"REPRO1 100\n{\"op\":")  # promise 100, send 8
        raw.close()
        assert client.ping()  # the handler thread exited cleanly

    def test_connect_to_dead_port_is_typed(self):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        _, dead_port = probe.getsockname()
        probe.close()
        with pytest.raises(TransportError):
            ServiceClient("127.0.0.1", dead_port, timeout=2)

    def test_shutdown_op_stops_the_accept_loop(self):
        service = SchedulingService(SessionStore())
        server = WireServer(service).start()
        with ServiceClient(*server.address, timeout=10) as client:
            assert client.shutdown()
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            try:
                ServiceClient(*server.address, timeout=1).close()
                time.sleep(0.02)
            except TransportError:
                break
        else:
            pytest.fail("server kept accepting after shutdown")
        service.close()


# ----------------------------------------------------------------------
def object_stream_that_creates(marker) -> str:
    """A ``warm`` field as the retired warm handoff encoded it: a
    protocol-0 serialized-object stream, in base-64 text, whose loading
    calls ``builtins.open(marker, "w")`` and so creates the file."""
    stream = (b"cbuiltins\nopen\n(V" + str(marker).encode("utf-8")
              + b"\nVw\ntR.")
    return codecs.encode(stream, "base_64").decode("ascii")


class TestTrustBoundary:
    """No frame a peer sends makes the server run code it was not asked
    to run: ``open`` only ever reads its envelope as data."""

    def test_warm_field_on_open_is_never_executed(self, wire, tmp_path):
        client, service = wire
        marker = tmp_path / "marker"
        response = client.request_raw({"op": "open", "payload": {
            "envelope": encode_session(make_tiling_session(), "s"),
            "warm": object_stream_that_creates(marker)}})
        assert response["ok"], response
        assert not marker.exists()
        with service.store.lease("s") as session:
            assert session.cache_stats == (0, 0)  # opened cold
        assert reports_equal(client.verify("s"),
                             make_tiling_session().verify())
        assert not marker.exists()

    # The retired warm-handoff ops, named by their suffix.
    @pytest.mark.parametrize("suffix", ["export", "import"])
    def test_retired_handoff_ops_are_unknown(self, wire, tmp_path, suffix):
        client, _ = wire
        client.open_session("s", make_tiling_session())
        marker = tmp_path / "marker"
        response = client.request_raw({
            "op": f"handoff_{suffix}", "session_id": "s", "payload": {
                "envelope": encode_session(make_tiling_session(), "t"),
                "warm": object_stream_that_creates(marker)}})
        assert not response["ok"]
        error = decode_error(response["error"])
        assert isinstance(error, TransportError)
        assert "unknown wire op" in str(error)
        assert not marker.exists()
        assert client.session_ids() == ["s"]
