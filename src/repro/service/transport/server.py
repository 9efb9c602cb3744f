"""The socket front end: a threaded TCP server over one local service.

:class:`WireServer` owns the socket machinery only — accept loop,
per-connection handler threads, frame I/O.  What a decoded request
*means* is :class:`ServiceSink`'s business: it answers from a local
:class:`~repro.service.server.SchedulingService`.  Session-scoped ops
go through :meth:`~repro.service.server.SchedulingService.submit` —
the same admission control, deadlines and batching as in-process
callers — and a pipelined ``bulk`` frame submits every sub-request
*before* awaiting any result, so the dispatcher's cross-session
coalescing fires over the wire exactly as it does in-process.

Error discipline mirrors the queue's: a decodable frame with a broken
request (unknown op, malformed payload) gets a typed error *response*
and the connection lives on; an undecodable byte stream (bad magic,
truncated body) gets a best-effort error frame and the connection
closes, because framing is lost.  A request that fails inside the
service answers with its typed error — ``ServiceOverloadError``,
``ServiceDeadlineError``, ``UnknownSessionError``, … — re-raised
as itself on the client side.

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

#: Ops that queue through SchedulingService.submit (vs. admin ops the
#: sink executes inline).
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
            result = self._execute(request)
            return {"ok": True, "result": encode_result(result)}
        except Exception as error:
            return {"ok": False, "error": encode_error(error)}

    def _handle_bulk(self, raw_requests: list[Any]) -> dict[str, Any]:
        """Submit-all-then-gather, so coalescing crosses the wire.

        Items answer independently: one rejected or deadline-expired
        sub-request becomes that item's error body while its
        batchmates still carry results.
        """
        staged: list[tuple[str, Any]] = []
        for raw in raw_requests:
            if not isinstance(raw, dict):
                staged.append(("error", TransportError(
                    f"bulk item must be a request object, got "
                    f"{type(raw).__name__}")))
                continue
            try:
                request = decode_request(raw)
            except TransportError as error:
                staged.append(("error", error))
                continue
            if request["op"] == "bulk":
                staged.append(("error", TransportError(
                    "bulk frames do not nest")))
            elif request["op"] in _SESSION_OPS:
                try:
                    staged.append(("future", self._submit(request)))
                except Exception as error:
                    staged.append(("error", error))
            else:
                try:
                    staged.append(("result", self._execute(request)))
                except Exception as error:
                    staged.append(("error", error))
        results = []
        for kind, value in staged:
            if kind == "future":
                try:
                    value = value.result()
                except Exception as error:
                    results.append({"ok": False,
                                    "error": encode_error(error)})
                    continue
                kind = "result"
            if kind == "result":
                try:
                    results.append({"ok": True,
                                    "result": encode_result(value)})
                except Exception as error:
                    results.append({"ok": False,
                                    "error": encode_error(error)})
            else:
                results.append({"ok": False, "error": encode_error(value)})
        return {"ok": True, "results": results}

    # -- execution -----------------------------------------------------
    def _submit(self, request: dict[str, Any]):
        session_id = request["session_id"]
        if session_id is None:
            raise TransportError(
                f"op {request['op']!r} requires a session_id")
        return self._service.submit(request["op"], session_id,
                                    request["payload"],
                                    timeout=request["timeout"])

    def _execute(self, request: dict[str, Any]) -> Any:
        op = request["op"]
        if op in _SESSION_OPS:
            return self._submit(request).result()
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
        # that built the server does — the certificate fast path and
        # admin ops execute on the *handler* thread, and a fresh thread
        # starts with an empty context, which would silently change how
        # sessions without an explicit config resolve workers.
        # Same contract as the dispatcher's snapshot in
        # SchedulingService.__init__; each connection runs in its own
        # copy because one Context cannot be entered concurrently.
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
