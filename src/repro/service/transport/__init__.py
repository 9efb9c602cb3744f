"""Wire transport for the scheduling service: sockets and a client.

:mod:`repro.service` puts a concurrent :class:`~repro.service.
server.SchedulingService` in front of the single-caller
:class:`repro.api.Session`.  This package serves the same surface over
a real socket: one service behind one :class:`WireServer` per process
(``python -m repro.service serve``).

* :mod:`~repro.service.transport.wire` — the protocol: length-prefixed
  canonical-JSON frames, request/response/error encoding, and the typed
  :class:`~repro.service.errors.TransportError` contract (a malformed
  or truncated frame is always a typed error, never a hang).
* :mod:`~repro.service.transport.server` — :class:`WireServer`: a
  threaded TCP front end that serves decoded requests from a local
  :class:`~repro.service.server.SchedulingService` on each
  connection's own thread (a pipelined frame's session ops reach the
  service as one ``bulk`` call, so assign coalescing works over the
  wire too).
* :mod:`~repro.service.transport.client` — :class:`ServiceClient`: the
  typed client, method-for-method the `SchedulingService` surface;
  every typed service error round-trips the socket and re-raises as
  itself (``ServiceDeadlineError`` keeps ``timeout``,
  ``UnknownSessionError`` keeps ``session_id``, …).

The acceptance gate is the service's: every response served over
the wire is bit-identical to the same call made directly on the
session — pinned by the differential oracle's wire leg
(``python -m repro.service differential --transport wire``).
"""

from repro.service.errors import TransportError
from repro.service.transport.client import ServiceClient
from repro.service.transport.server import ServiceSink, WireServer
from repro.service.transport.wire import (
    MAX_FRAME_BYTES,
    decode_error,
    decode_request,
    decode_result,
    encode_error,
    encode_request,
    encode_result,
    read_frame,
    write_frame,
)

__all__ = [
    "MAX_FRAME_BYTES",
    "ServiceClient",
    "ServiceSink",
    "TransportError",
    "WireServer",
    "decode_error",
    "decode_request",
    "decode_result",
    "encode_error",
    "encode_request",
    "encode_result",
    "read_frame",
    "write_frame",
]
