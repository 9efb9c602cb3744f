"""The typed wire client: the ``SchedulingService`` surface over a socket.

:class:`ServiceClient` mirrors :class:`~repro.service.server.
SchedulingService` method-for-method — ``assign`` / ``verify`` /
``edit`` / ``restrict`` / ``save`` / ``load`` / ``metrics`` — and
returns the same typed values (:class:`~repro.api.SlotAssignment`,
:class:`~repro.api.VerificationReport`, the ack dataclasses,
:class:`~repro.service.metrics.ServiceMetrics`).  Typed service errors
round-trip: a deadline miss raises
:class:`~repro.service.errors.ServiceDeadlineError` *here*, with its
``timeout`` intact; an unknown session raises
:class:`~repro.service.errors.UnknownSessionError` with its id;
and anything wrong with the wire itself — refused connection, dead
peer, garbage frame, read timeout — is a
:class:`~repro.service.errors.TransportError`, never a hang.

One client holds one connection and serializes its own requests under
a lock (the protocol has no frame ids, so responses pair with requests
by order).  For concurrency, open more clients — connections are
cheap; or batch with :meth:`ServiceClient.pipeline`, which ships many
requests in one frame so the server serves them together and
coalesces each session's consecutive assigns.
"""

from __future__ import annotations

import socket
import threading
from typing import Any, Iterable, Mapping, Sequence

from repro.api import Session, SlotAssignment, VerificationReport
from repro.service.errors import TransportError
from repro.service.metrics import ServiceMetrics
from repro.service.server import EditAck, LoadAck, RestrictAck
from repro.service.transport.wire import (
    decode_error,
    decode_result,
    encode_bulk,
    encode_request,
    encode_session,
    read_frame,
    write_frame,
)

__all__ = ["ServiceClient"]


class ServiceClient:
    """A connection to a :class:`~repro.service.transport.server.
    WireServer`, speaking the typed service surface.

    Args:
        host / port: the server's bound address.
        timeout: socket timeout in seconds for connect *and* every
            read/write (``None``: block).  An expired socket timeout
            surfaces as :class:`TransportError`; it is unrelated to
            the per-request service deadline passed as ``timeout=`` on
            individual calls, which the *server* enforces and reports
            as :class:`~repro.service.errors.ServiceDeadlineError`.
    """

    def __init__(self, host: str, port: int, *,
                 timeout: float | None = None) -> None:
        self._address = (host, port)
        self._lock = threading.Lock()
        try:
            self._sock = socket.create_connection((host, port),
                                                  timeout=timeout)
        except OSError as error:
            raise TransportError(
                f"cannot connect to {host}:{port}: {error}") from error
        # One request is one small frame; do not hold it back waiting
        # for the ACK of the previous one (Nagle's algorithm).
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._rfile = self._sock.makefile("rb")
        self._wfile = self._sock.makefile("wb")
        self._closed = False

    # -- lifecycle -----------------------------------------------------
    @property
    def address(self) -> tuple[str, int]:
        return self._address

    def close(self) -> None:
        """Close the connection (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for closer in (self._wfile.close, self._rfile.close,
                       self._sock.close):
            try:
                closer()
            except OSError:
                pass

    def __enter__(self) -> ServiceClient:
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- raw primitives ------------------------------------------------
    def request_raw(self, request: dict[str, Any]) -> dict[str, Any]:
        """One encoded request frame out, one response body back.

        Raises:
            TransportError: on a dead/closed connection, a garbage
                response frame, or a server reply that is not a
                well-formed response body.
        """
        if self._closed:
            raise TransportError(
                f"client to {self._address[0]}:{self._address[1]} is "
                f"closed")
        with self._lock:
            write_frame(self._wfile, request)
            response = read_frame(self._rfile)
        if response is None:
            raise TransportError(
                f"server {self._address[0]}:{self._address[1]} closed "
                f"the connection before replying")
        return response

    def request(self, request: dict[str, Any]) -> Any:
        """One encoded request frame out, its decoded answer back.

        Raises:
            the request's typed error, re-raised as itself; or
            TransportError, as :meth:`request_raw`.
        """
        response = self.request_raw(request)
        if response.get("ok"):
            result = response.get("result")
            if not isinstance(result, dict):
                raise TransportError(
                    f"malformed response: ok without a result object "
                    f"({response!r})")
            return decode_result(result)
        error = response.get("error")
        if not isinstance(error, dict):
            raise TransportError(
                f"malformed response: neither result nor error "
                f"({response!r})")
        raise decode_error(error)

    def pipeline(self, requests: Sequence[dict[str, Any]],
                 ) -> list[Any]:
        """Ship many encoded requests in one ``bulk`` frame.

        The server serves the frame's items in order, handing each
        run of session ops to
        :meth:`~repro.service.server.SchedulingService.bulk` — the wire
        equivalent of an in-process ``bulk`` call, and what lets the
        service coalesce a session's consecutive assigns across a
        pipelined burst.

        Returns one entry per request, *in order*: the decoded result,
        or the typed exception instance that request failed with (not
        raised — batchmates answer independently; re-raise as needed).
        """
        response = self.request_raw(encode_bulk(list(requests)))
        if not response.get("ok") or not isinstance(
                response.get("results"), list):
            error = response.get("error")
            if isinstance(error, dict):
                raise decode_error(error)
            raise TransportError(
                f"malformed bulk response ({response!r})")
        decoded: list[Any] = []
        for item in response["results"]:
            if isinstance(item, dict) and item.get("ok") \
                    and isinstance(item.get("result"), dict):
                try:
                    decoded.append(decode_result(item["result"]))
                except TransportError as error:
                    decoded.append(error)
            elif isinstance(item, dict) and isinstance(
                    item.get("error"), dict):
                decoded.append(decode_error(item["error"]))
            else:
                decoded.append(TransportError(
                    f"malformed bulk item ({item!r})"))
        return decoded

    # -- the SchedulingService surface ---------------------------------
    def assign(self, session_id: str, points: Iterable[Sequence[int]],
               *, timeout: float | None = None) -> SlotAssignment:
        return self.request(encode_request(
            "assign", session_id, {"points": list(points)},
            timeout=timeout))

    def verify(self, session_id: str, window: Any = None, *,
               offsets: Any = None, use_cache: bool = True,
               stream_chunk: int | None = None,
               timeout: float | None = None) -> VerificationReport:
        return self.request(encode_request(
            "verify", session_id,
            {"window": window, "offsets": offsets,
             "use_cache": use_cache, "stream_chunk": stream_chunk},
            timeout=timeout))

    def edit(self, session_id: str,
             updates: Mapping[Sequence[int], int], *,
             timeout: float | None = None) -> EditAck:
        return self.request(encode_request(
            "edit", session_id, {"updates": dict(updates)},
            timeout=timeout))

    def restrict(self, session_id: str, window: Any = None, *,
                 timeout: float | None = None) -> RestrictAck:
        return self.request(encode_request(
            "restrict", session_id, {"window": window}, timeout=timeout))

    def save(self, session_id: str, *,
             timeout: float | None = None) -> str:
        return self.request(encode_request("save", session_id,
                                            timeout=timeout))

    def load(self, session_id: str, text: str, *, window: Any = None,
             timeout: float | None = None) -> LoadAck:
        return self.request(encode_request(
            "load", session_id, {"text": text, "window": window},
            timeout=timeout))

    # -- administration / observability --------------------------------
    def open_session(self, session_id: str, session: Session) -> None:
        """Open a local :class:`Session` on the server, by value.

        The session ships through the digest-checked wire envelope:
        schedule + explicit window + engine config + interference
        model (offsets, or the owning schedule's description).  The
        session opens cold: caches and counters do not travel.
        """
        self.request(encode_request(
            "open", payload={"envelope": encode_session(session,
                                                        session_id)}))

    def close_session(self, session_id: str) -> None:
        self.request(encode_request("close_session", session_id))

    def session_ids(self) -> list[str]:
        return list(self.request(encode_request("session_ids")))

    def metrics(self) -> ServiceMetrics:
        return self.request(encode_request("metrics"))

    def metrics_json(self) -> str:
        """The JSON metrics endpoint (same shape as the server's)."""
        return self.metrics().to_json()

    def ping(self) -> bool:
        return bool(self.request(encode_request("ping")))

    def shutdown(self) -> bool:
        """Ask the server to stop accepting after this reply."""
        return bool(self.request(encode_request("shutdown")))
