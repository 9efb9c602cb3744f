"""The socket front end: a threaded TCP server over one local service.

:class:`WireServer` owns the socket machinery only — accept loop,
per-connection handler threads, frame I/O.  What a decoded request
*means* is :class:`ServiceSink`'s business: it answers from a local
:class:`~repro.service.server.SchedulingService`, on the connection's
own thread.  A frame carrying one session-scoped op goes through
:meth:`~repro.service.server.SchedulingService.call`.  A pipelined
``bulk`` frame is served in frame order: each run of consecutive
session ops goes through
:meth:`~repro.service.server.SchedulingService.bulk` — so consecutive
assigns of a session coalesce over the wire exactly as they do
in-process — and each admin op (``open``, ``close_session``,
``metrics``, …) runs at its place between those runs.  Both keep the
service's deadlines.

Error discipline: a decodable frame with a broken request (unknown
op, malformed payload) gets a typed error *response* and the
connection lives on; an undecodable byte stream (bad magic, truncated
body) gets a best-effort error frame and the connection closes,
because framing is lost.  A request that fails inside the service
answers with its typed error — ``ServiceDeadlineError``,
``UnknownSessionError``, … — re-raised as itself on the client side.

``open`` ships a whole session by value through the self-checking
wire envelope (:func:`repro.core.serialize.session_wire_to_json`):
schedule, window, config and interference model as data, never
executable state.  A session opened over the wire starts cold.
"""

from __future__ import annotations

import contextvars
import socketserver
import threading
from typing import Any

from repro.service.errors import TransportError
from repro.service.server import SchedulingService
from repro.service.transport.wire import (
    decode_request,
    decode_session,
    encode_error,
    encode_result,
    read_frame,
    write_frame,
)

__all__ = ["ServiceSink", "WireServer"]

#: Ops answered by the scheduling service (vs. admin ops the sink
#: executes itself).
_SESSION_OPS = frozenset(
    {"assign", "verify", "edit", "restrict", "save", "load"})


class ServiceSink:
    """Decoded wire requests, answered by a local scheduling service.

    ``handle`` never raises: every outcome — result, typed service
    error, malformed request — is a response body, so one broken
    request cannot take down its connection (or, for a ``bulk`` frame,
    its batchmates).
    """

    def __init__(self, service: SchedulingService) -> None:
        self._service = service
        self._shutdown = threading.Event()

    @property
    def service(self) -> SchedulingService:
        return self._service

    @property
    def shutdown_requested(self) -> bool:
        """True once a ``shutdown`` op was served (checked per frame)."""
        return self._shutdown.is_set()

    def handle(self, frame: dict[str, Any]) -> dict[str, Any]:
        """One response body for one request frame."""
        try:
            request = decode_request(frame)
        except TransportError as error:
            return {"ok": False, "error": encode_error(error)}
        if request["op"] == "bulk":
            return self._handle_bulk(request["requests"])
        return self._handle_single(request)

    def _handle_single(self, request: dict[str, Any]) -> dict[str, Any]:
        try:
            return _response(self._execute(request))
        except Exception as error:
            return _response(error)

    def _handle_bulk(self, raw_requests: list[Any]) -> dict[str, Any]:
        """Serve a frame's items in frame order, one answer per item.

        Each run of consecutive session ops goes to the service as one
        ``bulk`` call; an admin op ends the run before it and runs at
        its own place.  Items answer independently: one rejected or
        deadline-expired sub-request becomes that item's error body
        while its batchmates still carry results.
        """
        outcomes: list[Any] = [None] * len(raw_requests)
        run: list[tuple[int, tuple[str, str, Any, Any]]] = []
        for index, raw in enumerate(raw_requests):
            try:
                if not isinstance(raw, dict):
                    raise TransportError(
                        f"bulk item must be a request object, got "
                        f"{type(raw).__name__}")
                request = decode_request(raw)
                if request["op"] == "bulk":
                    raise TransportError("bulk frames do not nest")
                if request["op"] in _SESSION_OPS:
                    run.append((index, (
                        request["op"], _session_id(request),
                        request["payload"], request["timeout"])))
                    continue
            except TransportError as error:
                outcomes[index] = error
                continue
            self._run_bulk(run, outcomes)
            try:
                outcomes[index] = self._execute(request)
            except Exception as error:
                outcomes[index] = error
        self._run_bulk(run, outcomes)
        return {"ok": True, "results": [_response(outcome)
                                        for outcome in outcomes]}

    def _run_bulk(self, run: list[tuple[int, tuple[str, str, Any, Any]]],
                  outcomes: list[Any]) -> None:
        """Serve a run of session ops as one service ``bulk``; empty it."""
        if not run:
            return
        try:
            answers = self._service.bulk([item for _, item in run])
        except Exception as error:
            answers = [error] * len(run)
        for (index, _), answer in zip(run, answers):
            outcomes[index] = answer
        run.clear()

    # -- execution -----------------------------------------------------
    def _execute(self, request: dict[str, Any]) -> Any:
        op = request["op"]
        if op in _SESSION_OPS:
            return self._service.call(op, _session_id(request),
                                      request["payload"],
                                      timeout=request["timeout"])
        if op == "open":
            session_id, session = decode_session(
                request["payload"]["envelope"])
            self._service.open_session(session_id, session)
            return None
        if op == "close_session":
            session_id = request["session_id"]
            if session_id is None:
                raise TransportError("close_session requires a session_id")
            self._service.close_session(session_id)
            return None
        if op == "session_ids":
            return self._service.session_ids()
        if op == "metrics":
            return self._service.metrics()
        if op == "ping":
            return None
        if op == "shutdown":
            self._shutdown.set()
            return None
        raise TransportError(f"op {op!r} not handled by this sink")


def _response(outcome: Any) -> dict[str, Any]:
    """The response body of an answer, or of the error it failed with."""
    if not isinstance(outcome, BaseException):
        try:
            return {"ok": True, "result": encode_result(outcome)}
        except Exception as error:
            outcome = error
    return {"ok": False, "error": encode_error(outcome)}


def _session_id(request: dict[str, Any]) -> str:
    session_id = request["session_id"]
    if session_id is None:
        raise TransportError(f"op {request['op']!r} requires a session_id")
    return session_id


class _ThreadedTCPServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True


class WireServer:
    """A TCP front end serving wire frames from a local service.

    Args:
        service: the scheduling service to serve (wrapped in a
            :class:`ServiceSink`).
        host / port: bind address; port ``0`` picks a free port —
            read it back from :attr:`address`.

    ``start()`` serves in a daemon thread (tests, pools);
    ``serve_forever()`` serves in the calling thread (the
    ``python -m repro.service serve`` entry point).  A ``shutdown``
    op from any client stops the accept loop after its reply is
    written.
    """

    def __init__(self, service: SchedulingService, *,
                 host: str = "127.0.0.1", port: int = 0) -> None:
        self._sink = ServiceSink(service)
        # Connection handler threads must resolve ambient engine config
        # (the contextvar-scoped use_config overlay) the way the thread
        # that built the server does — every session op and admin op
        # executes on the *handler* thread, and a fresh thread starts
        # with an empty context, which would silently change how
        # sessions without an explicit config resolve workers.  Each
        # connection runs in its own copy because one Context cannot
        # be entered concurrently.
        self._context = contextvars.copy_context()
        self._context_lock = threading.Lock()
        self._tcp = _ThreadedTCPServer((host, port),
                                       _make_handler(self._sink, self))
        self._thread: threading.Thread | None = None
        self._closed = False

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` — the real port even if 0 was asked."""
        host, port = self._tcp.server_address[:2]
        return str(host), int(port)

    def start(self) -> WireServer:
        """Serve in a background daemon thread (idempotent)."""
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._tcp.serve_forever, daemon=True,
                name="repro-wire-server")
            self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve in the calling thread until :meth:`close` (or a
        ``shutdown`` op) stops the accept loop."""
        self._tcp.serve_forever()

    def close(self) -> None:
        """Stop accepting, close the listening socket (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self._tcp.shutdown()
        self._tcp.server_close()

    def __enter__(self) -> WireServer:
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


def _make_handler(sink: ServiceSink,
                  wire_server: WireServer) -> type:
    """The per-connection frame loop, bound to one sink."""

    class _Handler(socketserver.StreamRequestHandler):
        # TCP_NODELAY on the accepted socket: a reply frame goes out
        # as soon as it is written.
        disable_nagle_algorithm = True

        def handle(self) -> None:
            with wire_server._context_lock:
                context = wire_server._context.run(
                    contextvars.copy_context)
            while True:
                try:
                    frame = read_frame(self.rfile)
                except TransportError as error:
                    # Framing is lost; tell the peer why (best-effort)
                    # and drop the connection.
                    try:
                        write_frame(self.wfile, {
                            "ok": False, "error": encode_error(error)})
                    except TransportError:
                        pass
                    return
                if frame is None:
                    return  # clean EOF at a frame boundary
                response = context.run(sink.handle, frame)
                try:
                    write_frame(self.wfile, response)
                except TransportError:
                    return  # peer vanished mid-reply
                if sink.shutdown_requested:
                    # Reply first, then stop the accept loop from a
                    # separate thread (shutdown() joins serve_forever,
                    # which must not happen on this handler thread
                    # synchronously holding the last reply).
                    threading.Thread(target=wire_server.close,
                                     daemon=True).start()
                    return

    return _Handler
