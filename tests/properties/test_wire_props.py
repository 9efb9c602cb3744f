"""Fuzzing the wire decoders: every input is a frame, a response, or a
typed error.

Three contracts, for arbitrary input:

* **framing** — any byte string fed to :func:`read_frame` yields frames,
  a clean EOF, or a :class:`TransportError`; no parser exception
  escapes, whatever the header or the body;
* **dispatch** — any JSON object handed to :meth:`ServiceSink.handle`
  comes back as a response body (``ok`` true or false) that the wire
  can carry; ``handle`` never raises, so a broken request cannot drop
  its connection;
* **bulk isolation** — in a ``bulk`` frame mixing valid requests with
  garbage, every valid request is answered exactly as a direct
  ``Session`` call answers it;
* **exact coordinates** — a coordinate that is not an integer (a
  boolean, a non-integral float, a string) is refused with a typed
  error wherever a point crosses the wire, never rounded or parsed into
  the slot of another point;
* **exact scalars** — the same rule holds for ``stream_chunk`` and for
  the slots and counts of a response, and ``use_cache`` must be a JSON
  boolean (``"false"`` is not ``True``).

Coordinates stay small: a legitimately huge window is real work for
the engine, not a decoder fault, and these properties are about the
decoders.
"""

from __future__ import annotations

import io
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.api import Box, Session
from repro.service import SchedulingService, SessionStore
from repro.service.transport import (
    ServiceSink,
    TransportError,
    decode_request,
    decode_result,
    encode_request,
    encode_result,
    read_frame,
    write_frame,
)
from repro.service.transport.wire import (
    REQUEST_OPS,
    decode_window,
    encode_session,
)

SETTINGS = dict(max_examples=150, deadline=None)
#: Dispatch examples go through a live service; fewer keep it quick.
DISPATCH_SETTINGS = dict(max_examples=80, deadline=None)

WINDOW = Box((0, 0), (5, 5))

#: A body that nests deeper than the JSON parser's recursion limit.
DEEP_BODY = b"[" * 200_000

#: An op that is not a string, so it cannot even be looked up.
UNHASHABLE_OP = {"op": []}

#: A non-finite coordinate, which no integer conversion accepts.
INFINITE_POINT = (b'{"op":"assign","session_id":"s",'
                  b'"payload":{"points":[[Infinity,0]]}}')

small_ints = st.integers(-8, 8)
scalars = (st.none() | st.booleans() | small_ints
           | st.floats(-8, 8, allow_nan=False) | st.text(max_size=8))
json_values = st.recursive(
    scalars,
    lambda children: (st.lists(children, max_size=4)
                      | st.dictionaries(st.text(max_size=8), children,
                                        max_size=4)),
    max_leaves=16)
points = st.lists(st.lists(small_ints, min_size=2, max_size=2),
                  max_size=6)
windows = (json_values
           | st.builds(lambda lo, hi: {"box": [lo, hi]},
                       st.lists(small_ints, min_size=2, max_size=2),
                       st.lists(small_ints, min_size=2, max_size=2))
           | st.builds(lambda pts: {"points": pts}, points))
payload_fields = {
    "points": points | json_values,
    "window": windows,
    "offsets": points | json_values,
    "use_cache": json_values,
    "stream_chunk": json_values,
    "updates": st.lists(st.tuples(
        st.lists(small_ints, min_size=2, max_size=2), small_ints)
        .map(list), max_size=3) | json_values,
    "text": json_values,
    "envelope": json_values,
    "warm": json_values,
}
payloads = json_values | st.fixed_dictionaries({}, optional=payload_fields)
request_frames = st.fixed_dictionaries({}, optional={
    "op": st.sampled_from(sorted(REQUEST_OPS)) | json_values,
    "session_id": st.sampled_from(["s", "ghost"]) | json_values,
    "payload": payloads,
    "timeout": st.none() | json_values,
    "requests": st.lists(json_values, max_size=3),
})


def _is_request(value) -> bool:
    """True for a dict naming a real op (garbage must not be one)."""
    op = value.get("op") if isinstance(value, dict) else None
    return isinstance(op, str) and op in REQUEST_OPS


garbage = (json_values | request_frames).filter(
    lambda value: not _is_request(value))
bulk_items = st.lists(
    st.tuples(st.just("valid"), points) | st.tuples(st.just("garbage"),
                                                     garbage),
    min_size=1, max_size=8)


#: Coordinates no integer rule accepts: each must be refused, not coerced.
bad_coordinates = (st.booleans()
                   | st.floats(-8, 8, allow_nan=False).filter(
                       lambda value: not value.is_integer())
                   | st.text(max_size=3)
                   | st.sampled_from(["1", "-2", "7.0"]))


@st.composite
def points_with_a_bad_coordinate(draw):
    """A small point list with one bad coordinate somewhere in it."""
    pts = draw(st.lists(st.lists(small_ints, min_size=2, max_size=2),
                        min_size=1, max_size=4))
    row = draw(st.integers(0, len(pts) - 1))
    column = draw(st.integers(0, 1))
    pts[row][column] = draw(bad_coordinates)
    return pts


def framed(body: bytes) -> bytes:
    return b"REPRO1 " + str(len(body)).encode() + b"\n" + body


def make_session() -> Session:
    return Session.for_chebyshev(1, window=WINDOW)


@pytest.fixture(scope="module")
def sink():
    service = SchedulingService(SessionStore())
    yield ServiceSink(service)
    service.close()


def _assert_response_body(response) -> None:
    assert isinstance(response, dict)
    assert response.get("ok") in (True, False)
    if response["ok"]:
        assert "result" in response or "results" in response
    else:
        assert isinstance(response.get("error"), dict)
    write_frame(io.BytesIO(), response)  # the wire can carry it


class TestFraming:
    @given(st.binary(max_size=256))
    @settings(**SETTINGS)
    @example(framed(DEEP_BODY))
    def test_any_bytes_are_frames_or_typed_errors(self, data):
        stream = io.BytesIO(data)
        try:
            while read_frame(stream) is not None:
                pass
        except TransportError:
            pass

    @given(st.binary(max_size=256)
           | st.text(alphabet='[]{}",:0123456789.-eE ntrufalsN\\',
                     max_size=256).map(str.encode))
    @settings(**SETTINGS)
    @example(DEEP_BODY)
    @example(INFINITE_POINT)
    def test_any_body_behind_a_valid_header(self, body):
        try:
            frame = read_frame(io.BytesIO(framed(body)))
        except TransportError:
            return
        assert isinstance(frame, dict)


class TestDispatch:
    @given(json_values | request_frames)
    @settings(**DISPATCH_SETTINGS)
    @example(UNHASHABLE_OP)
    def test_handle_answers_every_object_and_never_raises(self, sink, frame):
        if not isinstance(frame, dict):
            frame = {"value": frame}
        sink.service.open_session("s", make_session())
        _assert_response_body(sink.handle(frame))

    @given(st.builds(lambda frame: json.dumps(frame).encode(),
                     json_values | request_frames))
    @settings(**DISPATCH_SETTINGS)
    @example(INFINITE_POINT)
    def test_every_frame_read_is_answered(self, sink, body):
        """The two decoders in series, as a connection runs them."""
        try:
            frame = read_frame(io.BytesIO(framed(body)))
        except TransportError:
            return
        sink.service.open_session("s", make_session())
        _assert_response_body(sink.handle(frame))

    @given(bulk_items)
    @settings(**DISPATCH_SETTINGS)
    @example([("valid", [[0, 0]]), ("garbage", UNHASHABLE_OP),
              ("valid", [[1, 2], [4, 5]])])
    def test_bulk_answers_every_valid_item(self, sink, items):
        sink.service.open_session("s", make_session())
        requests = [encode_request("assign", "s", {"points": value})
                    if kind == "valid" else value for kind, value in items]
        response = sink.handle({"op": "bulk", "requests": requests})
        _assert_response_body(response)
        assert response["ok"] and len(response["results"]) == len(items)
        direct = make_session()
        for (kind, value), answer in zip(items, response["results"]):
            assert answer.get("ok") in (True, False)
            if kind == "valid":
                assert answer["ok"], answer
                expected = direct.assign([tuple(p) for p in value])
                got = decode_result(answer["result"])
                assert list(got.slots) == list(expected.slots)


class TestExactCoordinates:
    @given(points_with_a_bad_coordinate(),
           st.sampled_from(["assign", "verify-points", "verify-box",
                            "restrict", "edit"]))
    @settings(**DISPATCH_SETTINGS)
    @example([[1.5, 2]], "assign")
    @example([[True, 7]], "verify-points")
    @example([[2.9, 0]], "verify-box")
    @example([["7", 0]], "edit")
    def test_bad_coordinate_gets_a_typed_error(self, sink, pts, where):
        sink.service.open_session("s", make_session())
        if where == "assign":
            payload = {"points": pts}
        elif where == "verify-points":
            payload = {"window": {"points": pts}}
        elif where == "verify-box":
            corner = next(point for point in pts
                          if any(type(c) is not int for c in point))
            payload = {"window": {"box": [corner, [9, 9]]}}
        elif where == "restrict":
            payload = {"window": {"points": pts}}
        else:
            payload = {"updates": [[point, 0] for point in pts]}
        op = where.split("-")[0]
        response = sink.handle({"op": op, "session_id": "s",
                                "payload": payload})
        _assert_response_body(response)
        assert response["ok"] is False
        assert response["error"]["type"] == "TransportError"
        if where != "edit":
            window = payload.get("window", {"points": pts})
            with pytest.raises(TransportError):
                decode_window(window)

    @given(points_with_a_bad_coordinate(),
           st.sampled_from(["window", "offsets"]))
    @settings(**DISPATCH_SETTINGS)
    @example([[1.5, 2], [True, "7"]], "window")
    @example([[0, 2.9]], "offsets")
    def test_open_refuses_a_bad_envelope_coordinate(self, sink, pts,
                                                    field):
        envelope = json.loads(encode_session(make_session(), "opened"))
        envelope[field] = pts
        response = sink.handle({"op": "open", "payload": {
            "envelope": json.dumps(envelope)}})
        _assert_response_body(response)
        assert response["ok"] is False
        assert response["error"]["type"] == "CorruptSessionError"
        assert "opened" not in sink.service.session_ids()

    @given(points_with_a_bad_coordinate())
    @settings(**SETTINGS)
    def test_client_refuses_to_encode_a_bad_coordinate(self, pts):
        with pytest.raises(TypeError):
            encode_request("assign", "s", {"points": pts})


#: JSON values that are not a boolean: each must be refused as use_cache.
not_booleans = json_values.filter(lambda value: type(value) is not bool)


def _verify_frame(**payload):
    return {"op": "verify", "session_id": "s", "payload": payload}


def _results_with_a_bad_integer(draw_bad, field):
    """An encoded response with one integer field replaced."""
    session = make_session()
    if field in ("slots", "num_slots"):
        body = encode_result(session.assign([(0, 0), (1, 2)]))
    else:
        body = encode_result(session.verify())
    if field == "slots":
        body["slots"][1] = draw_bad
    else:
        body[field] = draw_bad
    return body


class TestExactScalars:
    """Flags and integers are refused, never coerced, in both directions."""

    @given(not_booleans)
    @settings(**SETTINGS)
    @example("false")
    @example(0)
    @example(None)
    def test_use_cache_must_be_a_boolean(self, value):
        with pytest.raises(TransportError):
            decode_request(_verify_frame(use_cache=value))

    @given(st.booleans())
    @settings(**SETTINGS)
    def test_a_boolean_use_cache_is_kept(self, value):
        decoded = decode_request(_verify_frame(use_cache=value))
        assert decoded["payload"]["use_cache"] is value

    @given(bad_coordinates | st.lists(small_ints, max_size=2)
           | st.dictionaries(st.text(max_size=2), small_ints, max_size=1))
    @settings(**SETTINGS)
    @example(1.5)
    @example("1024")
    @example(True)
    def test_stream_chunk_follows_the_coordinate_rule(self, value):
        with pytest.raises(TransportError):
            decode_request(_verify_frame(stream_chunk=value))

    @given(st.integers(1, 10**6), st.booleans())
    @settings(**SETTINGS)
    def test_integral_stream_chunk_is_exact(self, chunk, as_float):
        value = float(chunk) if as_float else chunk
        decoded = decode_request(_verify_frame(stream_chunk=value))
        assert decoded["payload"]["stream_chunk"] == chunk
        assert type(decoded["payload"]["stream_chunk"]) is int

    @given(bad_coordinates,
           st.sampled_from(["slots", "num_slots", "window_size",
                            "checked_points", "cache_hits", "workers"]))
    @settings(**SETTINGS)
    @example("3", "slots")
    @example(1.5, "slots")
    @example(True, "slots")
    @example("9", "num_slots")
    def test_result_integers_are_refused_not_coerced(self, bad, field):
        body = _results_with_a_bad_integer(bad, field)
        with pytest.raises(TransportError):
            decode_result(body)

    @given(st.sampled_from(["slots", "num_slots", "window_size"]))
    @settings(**SETTINGS)
    def test_result_missing_field_is_typed(self, field):
        session = make_session()
        body = (encode_result(session.assign([(0, 0)]))
                if field != "window_size" else encode_result(session.verify()))
        del body[field]
        with pytest.raises(TransportError):
            decode_result(body)
