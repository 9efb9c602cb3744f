"""The wire protocol: length-prefixed canonical-JSON frames.

One frame is an ASCII header line ``REPRO1 <byte-length>\\n`` followed
by exactly that many bytes of UTF-8 JSON (one JSON object, keys
sorted, no NaN/Infinity — strict canonical JSON).  The header magic
rejects a non-protocol peer on the first line; the explicit length
bounds every read, so a truncated or garbage stream is always a typed
:class:`~repro.service.errors.TransportError`, never a hang and never
a raw ``JSONDecodeError`` escaping the transport.

Everything that crosses the socket is built from the library's
existing canonical serial forms:

* **requests** carry the same ``(op, session_id, payload)`` triple
  :meth:`~repro.service.server.SchedulingService.call` takes, with
  points/windows/updates reduced to plain int lists (a ``Box`` window
  stays a box — two corners — so huge windows never materialize on the
  wire);
* **responses** are the canonical response forms the differential
  oracle already compares (slot arrays, collision lists, verification
  sources, cache counters), which is what makes "bit-identical over
  the wire" checkable: the wire form *is* the comparison form;
* **sessions** ship through :func:`repro.core.serialize.
  session_wire_to_json` (schedule + digest + window + config);
* **errors** round-trip as ``{type, message, attrs}`` and re-raise on
  the client as the same typed exception they were on the server.
"""

from __future__ import annotations

import json
from itertools import chain
from typing import Any, BinaryIO

from repro.api import Box, Session, SlotAssignment, VerificationReport
from repro.core.schedule import Schedule
from repro.core.serialize import (
    CorruptSessionError,
    session_wire_from_json,
    session_wire_to_json,
)
from repro.engine.config import EngineConfig
from repro.engine.encode import PointBatch
from repro.service.errors import (
    ServiceClosedError,
    ServiceDeadlineError,
    ServiceError,
    TransportError,
    UnknownSessionError,
)
from repro.service.metrics import ServiceMetrics
from repro.service.server import EditAck, LoadAck, RestrictAck
from repro.utils.vectors import IntVec, as_intvec

__all__ = [
    "MAX_FRAME_BYTES",
    "REQUEST_OPS",
    "decode_error",
    "decode_request",
    "decode_result",
    "decode_session",
    "decode_window",
    "encode_error",
    "encode_request",
    "encode_result",
    "encode_session",
    "encode_window",
    "read_frame",
    "write_frame",
]

#: Frame size bound — large enough for a 10^6-point mapping-schedule
#: envelope, small enough that a hostile length header cannot ask the
#: peer to buffer gigabytes.
MAX_FRAME_BYTES = 128 * 1024 * 1024

_MAGIC = b"REPRO1 "
#: Longest legal header line: magic + decimal length + newline.
_MAX_HEADER = len(_MAGIC) + len(str(MAX_FRAME_BYTES)) + 2


def _reject_constant(name: str) -> None:
    raise ValueError(f"non-finite number {name} is not strict JSON")


#: Decodes frame bodies; NaN and Infinity are refused, as write_frame
#: refuses to send them.
_DECODER = json.JSONDecoder(parse_constant=_reject_constant)


#: Session-scoped ops (answered by the SchedulingService) plus the
#: transport's admin/control ops.
REQUEST_OPS = frozenset({
    "assign", "verify", "edit", "restrict", "save", "load",
    "open", "close_session", "session_ids", "metrics", "ping",
    "shutdown", "bulk",
})


# -- framing -----------------------------------------------------------
def write_frame(stream: BinaryIO, payload: dict[str, Any]) -> None:
    """Serialize one frame onto a binary stream and flush it.

    Header and body go out as one buffer in one ``write()``.  Two
    writes onto an unbuffered socket writer are two segments, and the
    second one waits on Nagle's algorithm until the peer's delayed ACK
    fires: about 40 ms per frame on Linux loopback.

    Raises:
        TransportError: when the payload is not strict-JSON-able or
            the peer is gone (broken pipe, closed socket, timeout).
    """
    try:
        body = json.dumps(payload, sort_keys=True,
                          separators=(",", ":"),
                          allow_nan=False).encode("utf-8")
    except (TypeError, ValueError) as error:
        raise TransportError(
            f"unencodable frame payload: {error}") from error
    if len(body) > MAX_FRAME_BYTES:
        raise TransportError(
            f"frame of {len(body)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte bound")
    try:
        stream.write(b"".join(
            (_MAGIC, str(len(body)).encode("ascii"), b"\n", body)))
        stream.flush()
    except (OSError, ValueError) as error:
        raise TransportError(
            f"connection lost while writing frame: {error}") from error


def read_frame(stream: BinaryIO) -> dict[str, Any] | None:
    """Read one frame; ``None`` on clean EOF at a frame boundary.

    Raises:
        TransportError: on a malformed header, an out-of-bounds
            length, a truncated body, non-JSON bytes, a read timeout,
            or EOF mid-frame.  Never hangs beyond the stream's own
            timeout and never leaks a parser exception.
    """
    try:
        header = stream.readline(_MAX_HEADER)
    except (OSError, ValueError) as error:
        raise TransportError(
            f"connection lost while reading frame header: {error}"
        ) from error
    if header == b"":
        return None
    if not header.endswith(b"\n"):
        raise TransportError(
            f"malformed frame header {header[:32]!r} (no newline within "
            f"{_MAX_HEADER} bytes)")
    if not header.startswith(_MAGIC):
        raise TransportError(
            f"bad frame magic {header[:16]!r}; expected {_MAGIC!r}")
    try:
        length = int(header[len(_MAGIC):-1])
    except ValueError:
        raise TransportError(
            f"non-numeric frame length in header {header!r}") from None
    if not 0 <= length <= MAX_FRAME_BYTES:
        raise TransportError(
            f"frame length {length} outside [0, {MAX_FRAME_BYTES}]")
    try:
        body = stream.read(length)
    except (OSError, ValueError) as error:
        raise TransportError(
            f"connection lost while reading frame body: {error}"
        ) from error
    if body is None or len(body) != length:
        raise TransportError(
            f"truncated frame: header promised {length} bytes, got "
            f"{0 if body is None else len(body)}")
    try:
        payload = _DECODER.decode(body.decode("utf-8"))
    except (ValueError, RecursionError) as error:
        raise TransportError(
            f"frame body is not strict JSON: {error}") from error
    if not isinstance(payload, dict):
        raise TransportError(
            f"frame payload must be a JSON object, got "
            f"{type(payload).__name__}")
    return payload


# -- canonical value forms ---------------------------------------------
# Coordinates cross the wire under as_intvec's rule, both ways, and are
# checked once per side: each point list is one PointBatch.of, whose
# typed fill converts plain ints in one pass.  Ints and integral floats
# convert exactly; booleans, non-integral floats and strings are refused
# instead of being rounded or parsed into another point.  A batch goes
# back out as one array.tolist().
def _point_batch(points: Any) -> PointBatch | list[IntVec]:
    """Points under the coordinate rule, as one batch.

    Points of differing dimensions are not the codec's to refuse: they
    stay tuples, and the session answers them with its ``ValueError``.

    Raises:
        TypeError: for a bad coordinate, or points that are not a
            collection of sequences.
    """
    items = points if isinstance(points, (list, tuple, PointBatch)) \
        else list(points)
    try:
        return PointBatch.of(items)
    except ValueError:
        return [as_intvec(point) for point in items]


def _canonical_points(points: Any) -> list[list[int]]:
    """Points as JSON int lists (raises ``TypeError`` on a bad one)."""
    batch = _point_batch(points)
    if isinstance(batch, PointBatch) and batch.array is not None:
        return batch.array.tolist()
    return [list(point) for point in batch]


def _canonical_pairs(pairs: Any) -> list[list[list[int]]]:
    """Colliding pairs as JSON, every end point in one batch."""
    ends = iter(_canonical_points(list(chain.from_iterable(pairs))))
    return [[first, second] for first, second in zip(ends, ends)]


def _decode_points(data: Any) -> PointBatch | list[IntVec]:
    """Points from JSON; a bad coordinate is a :class:`TransportError`."""
    try:
        return _point_batch(data)
    except TypeError as error:
        raise TransportError(f"malformed point: {error}") from None


def _decode_pairs(data: Any) -> tuple[tuple[IntVec, IntVec], ...]:
    """Colliding pairs from JSON: exactly two points each, every end
    point in one batch."""
    pairs = list(data)
    if any(len(pair) != 2 for pair in pairs):
        raise TransportError("a colliding pair holds exactly two points")
    ends = iter(_decode_points(list(chain.from_iterable(pairs))))
    return tuple(zip(ends, ends))


def _decode_int(value: Any) -> int:
    """One integer (a slot, a count) from JSON, under the coordinate
    rule: ``"3"``, ``1.5`` and ``true`` are a :class:`TransportError`."""
    if type(value) is int:
        return value
    return _decode_ints([value])[0]


def _decode_ints(values: Any) -> list[int]:
    """A JSON list of integers under the coordinate rule.

    One type pass accepts the plain-int list every encoder sends; any
    other element goes through ``as_intvec``, which converts integral
    floats exactly and refuses the rest.
    """
    if type(values) is list and set(map(type, values)) <= {int}:
        return values
    try:
        return list(as_intvec(values))
    except TypeError as error:
        raise TransportError(f"malformed integer: {error}") from None


def encode_window(window: Any) -> dict[str, Any] | None:
    """A window spec as JSON: ``None``, a box, or explicit points.

    A :class:`~repro.api.Box` stays two corners — the certificate and
    streaming paths verify windows far too large to expand, and the
    wire must not be the layer that materializes them.
    """
    if window is None:
        return None
    if isinstance(window, Box):
        return {"box": _canonical_points([window.lo, window.hi])}
    return {"points": _canonical_points(window)}


def decode_window(data: Any) -> Any:
    if data is None:
        return None
    if not isinstance(data, dict):
        raise TransportError(
            f"malformed window spec: expected an object or null, got "
            f"{type(data).__name__}")
    if "box" in data:
        lo, hi = _decode_points(data["box"])
        return Box(lo, hi)
    if "points" in data:
        return _decode_points(data["points"])
    raise TransportError(
        f"malformed window spec: keys {sorted(data)} (expected 'box' "
        f"or 'points')")


# -- whole sessions ----------------------------------------------------
def encode_session(session: Session, session_id: str) -> str:
    """A live session as its wire envelope (cold state only).

    Ships everything a remote process can reconstruct the session from
    as *data*: schedule, explicit window, engine config, explicit
    interference offsets, and — when the session's
    :class:`~repro.core.schedule.Interference` model recognises another
    schedule's stock ``neighborhood_of`` (the restrict path) — that
    owner schedule's canonical description, rebound on arrival.

    Raises:
        TypeError: when the model does not recognise the interference
            map (an arbitrary function, or a method overriding the
            stock one); functions cannot cross the wire — verify with
            explicit ``offsets`` instead, or keep such sessions local.
    """
    window = session._window if session._window_explicit else None
    config = (None if session._config is None
              else session._config.to_dict())
    model = session._neighborhood_of
    if model is None or model.owner is session.schedule:
        # None, or the schedule's own method: the reconstruction
        # rebinds it for free.
        neighborhood_schedule = None
    elif isinstance(model.owner, Schedule):
        neighborhood_schedule = model.owner  # serialized by the envelope
    else:
        raise TypeError(
            f"session {session_id!r} carries a custom interference "
            f"function ({model.neighborhood_of!r}); functions cannot "
            f"cross the wire — pass explicit offsets, or keep the session "
            f"local")
    return session_wire_to_json(
        session.schedule, session_id=session_id, window=window,
        config=config, offsets=session._offsets,
        neighborhood=neighborhood_schedule)


def decode_session(envelope: str) -> tuple[str, Session]:
    """``(session_id, Session)`` back from a wire envelope.

    The rebuilt session is content-identical to the encoded one's cold
    state: same digest-checked schedule, same window/config/offsets,
    and the same interference model (the owner schedule reconstructs
    and its ``neighborhood_of`` rebinds).  Counters and caches start
    at zero: a session crosses the wire cold.

    Raises:
        CorruptSessionError: from the envelope validation.
    """
    session_id, schedule, window, config, offsets, neighborhood = (
        session_wire_from_json(envelope))
    engine_config = (None if config is None
                     else EngineConfig.from_dict(config))
    return session_id, Session(
        schedule, config=engine_config, window=window,
        neighborhood_of=(None if neighborhood is None
                         else neighborhood.neighborhood_of),
        offsets=offsets)


# -- requests ----------------------------------------------------------
def encode_request(op: str, session_id: str | None = None,
                   payload: dict[str, Any] | None = None, *,
                   timeout: float | None = None) -> dict[str, Any]:
    """One request frame body from native values.

    ``payload`` values are reduced to canonical JSON per op: point
    iterables become int lists, windows go through
    :func:`encode_window`, edit updates become ``[point, slot]`` pairs
    (JSON objects cannot key on tuples).
    """
    payload = dict(payload or {})
    encoded: dict[str, Any] = {}
    if op == "assign":
        encoded["points"] = _canonical_points(payload.get("points", ()))
    elif op == "verify":
        encoded["window"] = encode_window(payload.get("window"))
        offsets = payload.get("offsets")
        encoded["offsets"] = (None if offsets is None
                              else _canonical_points(offsets))
        encoded["use_cache"] = bool(payload.get("use_cache", True))
        chunk = payload.get("stream_chunk")
        encoded["stream_chunk"] = None if chunk is None else int(chunk)
    elif op in ("restrict",):
        encoded["window"] = encode_window(payload.get("window"))
    elif op == "edit":
        updates = dict(payload.get("updates", {}))
        encoded["updates"] = [
            [point, int(slot)] for point, slot
            in zip(_canonical_points(list(updates)), updates.values())]
    elif op == "load":
        encoded["text"] = str(payload["text"])
        encoded["window"] = encode_window(payload.get("window"))
    elif op == "open":
        encoded["envelope"] = str(payload["envelope"])
    elif op == "bulk":
        raise ValueError(
            "bulk frames nest encoded requests; build them with "
            "encode_bulk")
    # save / close_session / session_ids / metrics / ping / shutdown
    # carry no payload.
    request: dict[str, Any] = {"op": op, "payload": encoded}
    if session_id is not None:
        request["session_id"] = str(session_id)
    if timeout is not None:
        request["timeout"] = float(timeout)
    return request


def encode_bulk(requests: list[dict[str, Any]]) -> dict[str, Any]:
    """A pipelined frame: many already-encoded requests, one round trip.

    The receiving server hands each run of session requests to
    :meth:`~repro.service.server.SchedulingService.bulk`, so
    consecutive assigns of a session coalesce over the wire exactly as
    they do in-process.
    """
    return {"op": "bulk", "requests": list(requests)}


def decode_request(data: dict[str, Any]) -> dict[str, Any]:
    """Validate and decode one request frame into native payload values.

    Returns ``{"op", "session_id", "payload", "timeout"}`` with payload
    values decoded back to what :meth:`SchedulingService.call`
    expects: a :class:`~repro.engine.encode.PointBatch` for assign
    points and offsets, a ``Box`` or a batch for windows, a dict for
    updates.  The session takes each batch as it is, so a point is
    checked once on its way in.

    Raises:
        TransportError: on an unknown op or a structurally malformed
            request — typed, so the server can answer with an error
            frame instead of dying or serving garbage.
    """
    op = data.get("op")
    if not isinstance(op, str) or op not in REQUEST_OPS:
        raise TransportError(
            f"unknown wire op {op!r}; expected one of "
            f"{sorted(REQUEST_OPS)}")
    if op == "bulk":
        requests = data.get("requests")
        if not isinstance(requests, list):
            raise TransportError("bulk frame carries no request list")
        return {"op": "bulk", "requests": requests}
    payload = data.get("payload")
    if payload is None:
        payload = {}
    if not isinstance(payload, dict):
        raise TransportError(
            f"request payload must be an object, got "
            f"{type(payload).__name__}")
    timeout = data.get("timeout")
    if timeout is not None and not isinstance(timeout, (int, float)):
        raise TransportError(
            f"request timeout must be a number, got {timeout!r}")
    session_id = data.get("session_id")
    if session_id is not None and not isinstance(session_id, str):
        raise TransportError(
            f"session_id must be a string, got "
            f"{type(session_id).__name__}")
    try:
        decoded = _decode_payload(op, payload)
    except TransportError:
        raise
    except (KeyError, TypeError, ValueError) as error:
        raise TransportError(
            f"malformed {op!r} payload: {error!r}") from error
    return {"op": op, "session_id": session_id, "payload": decoded,
            "timeout": None if timeout is None else float(timeout)}


def _decode_payload(op: str, payload: dict[str, Any]) -> dict[str, Any]:
    if op == "assign":
        return {"points": _decode_points(payload.get("points", ()))}
    if op == "verify":
        offsets = payload.get("offsets")
        chunk = payload.get("stream_chunk")
        use_cache = payload.get("use_cache", True)
        if type(use_cache) is not bool:  # "false" is not True
            raise TransportError(
                f"use_cache must be a JSON boolean, got {use_cache!r}")
        return {"window": decode_window(payload.get("window")),
                "offsets": (None if offsets is None
                            else _decode_points(offsets)),
                "use_cache": use_cache,
                "stream_chunk": (None if chunk is None
                                 else _decode_int(chunk))}
    if op == "restrict":
        return {"window": decode_window(payload.get("window"))}
    if op == "edit":
        updates = [(point, slot)
                   for point, slot in payload.get("updates", ())]
        points = _decode_points([point for point, _ in updates])
        return {"updates": {point: _decode_int(slot)
                            for point, (_, slot) in zip(points, updates)}}
    if op == "load":
        return {"text": str(payload["text"]),
                "window": decode_window(payload.get("window"))}
    if op == "open":
        return {"envelope": str(payload["envelope"])}
    return {}


# -- responses ---------------------------------------------------------
def encode_result(result: Any) -> dict[str, Any]:
    """One response body from a native service response.

    The forms are exactly the differential oracle's canonical response
    forms — ints and lists only — so a response that survives the wire
    is byte-for-byte the value the oracle compares.
    """
    if isinstance(result, SlotAssignment):
        return {"kind": "assign",
                "points": _canonical_points(result.points),
                "slots": list(map(int, result.slots)),
                "num_slots": int(result.num_slots)}
    if isinstance(result, VerificationReport):
        return {"kind": "verify",
                "collisions": _canonical_pairs(result.collisions),
                "window_size": int(result.window_size),
                "source": result.source,
                "checked_points": int(result.checked_points),
                "cache_hits": int(result.cache_hits),
                "cache_misses": int(result.cache_misses),
                "workers": int(result.workers)}
    if isinstance(result, EditAck):
        return {"kind": "edit",
                "points_changed": int(result.points_changed),
                "num_slots": int(result.num_slots)}
    if isinstance(result, RestrictAck):
        return {"kind": "restrict",
                "window_size": int(result.window_size),
                "num_slots": int(result.num_slots)}
    if isinstance(result, LoadAck):
        return {"kind": "load", "session_id": result.session_id,
                "num_slots": int(result.num_slots)}
    if isinstance(result, ServiceMetrics):
        return {"kind": "metrics", "data": result.to_dict()}
    if isinstance(result, str):
        return {"kind": "save", "text": result}
    if isinstance(result, list):
        return {"kind": "session_ids",
                "ids": [str(item) for item in result]}
    if result is None or result is True:
        return {"kind": "ok"}
    raise TypeError(
        f"unencodable service response {type(result).__name__}")


def decode_result(data: dict[str, Any]) -> Any:
    """A response body back into the typed value the service returned.

    Integers (slots, counts) follow the coordinate rule, as on the
    request side.

    Raises:
        TransportError: for an unknown kind, a missing field or a value
            of the wrong type.
    """
    try:
        return _decode_result(data)
    except TransportError:
        raise
    except (KeyError, TypeError, ValueError, AttributeError) as error:
        raise TransportError(
            f"malformed response body: {error!r}") from error


def _decode_result(data: dict[str, Any]) -> Any:
    kind = data.get("kind")
    if kind == "assign":
        return SlotAssignment(
            points=_decode_points(data["points"]),
            slots=_decode_ints(data["slots"]),
            num_slots=_decode_int(data["num_slots"]))
    if kind == "verify":
        return VerificationReport(
            collisions=_decode_pairs(data["collisions"]),
            window_size=_decode_int(data["window_size"]),
            source=data["source"],
            checked_points=_decode_int(data["checked_points"]),
            cache_hits=_decode_int(data["cache_hits"]),
            cache_misses=_decode_int(data["cache_misses"]),
            workers=_decode_int(data["workers"]))
    if kind == "edit":
        return EditAck(points_changed=_decode_int(data["points_changed"]),
                       num_slots=_decode_int(data["num_slots"]))
    if kind == "restrict":
        return RestrictAck(window_size=_decode_int(data["window_size"]),
                           num_slots=_decode_int(data["num_slots"]))
    if kind == "load":
        return LoadAck(session_id=data["session_id"],
                       num_slots=_decode_int(data["num_slots"]))
    if kind == "metrics":
        return ServiceMetrics.from_dict(data["data"])
    if kind == "save":
        return data["text"]
    if kind == "session_ids":
        return [str(item) for item in data["ids"]]
    if kind == "ok":
        return True
    raise TransportError(f"unknown response kind {kind!r}")


# -- errors ------------------------------------------------------------
def encode_error(error: BaseException) -> dict[str, Any]:
    """An exception as a wire error body (typed attrs preserved)."""
    body: dict[str, Any] = {"type": type(error).__name__,
                            "message": str(error)}
    if isinstance(error, ServiceDeadlineError):
        body["timeout"] = error.timeout
    elif isinstance(error, UnknownSessionError):
        body["session_id"] = error.session_id
    elif isinstance(error, CorruptSessionError):
        body["reason"] = error.reason
        body["path"] = error.path
    return body


def decode_error(data: dict[str, Any]) -> BaseException:
    """A wire error body back into the typed exception it was.

    Known service/transport errors reconstruct exactly (same class,
    same typed attributes); anything else — a server-side bug leaking
    an arbitrary exception — becomes a :class:`ServiceError` naming
    the original type, so the client still gets one typed family to
    catch.
    """
    error_type = data.get("type")
    message = str(data.get("message", ""))
    try:
        if error_type == "ServiceDeadlineError":
            return ServiceDeadlineError(message,
                                        timeout=float(data["timeout"]))
        if error_type == "ServiceClosedError":
            return ServiceClosedError(message)
        if error_type == "UnknownSessionError":
            return UnknownSessionError(str(data["session_id"]))
        if error_type == "CorruptSessionError":
            return CorruptSessionError(str(data["reason"]),
                                       path=data.get("path"))
        if error_type == "TransportError":
            return TransportError(message)
        if error_type == "ValueError":
            return ValueError(message)
    except (KeyError, TypeError, ValueError):
        pass  # fall through: a known type with mangled attrs
    return ServiceError(f"remote {error_type}: {message}")
