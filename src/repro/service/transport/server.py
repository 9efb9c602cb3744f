"""The socket front end: a threaded TCP server over a request sink.

:class:`WireServer` owns the socket machinery only — accept loop,
per-connection handler threads, frame I/O.  What a decoded request
*means* is a sink's business:

* :class:`ServiceSink` answers from a local
  :class:`~repro.service.server.SchedulingService`.  Session-scoped
  ops go through :meth:`~repro.service.server.SchedulingService.
  submit` — the same admission control, deadlines and batching as
  in-process callers — and a pipelined ``bulk`` frame submits every
  sub-request *before* awaiting any result, so the dispatcher's
  cross-session coalescing fires over the wire exactly as it does for
  the in-process async client.
* ``RouterSink`` (in :mod:`~repro.service.transport.pool`) forwards to
  a worker pool by consistent hash instead.

Error discipline mirrors the queue's: a decodable frame with a broken
request (unknown op, malformed payload) gets a typed error *response*
and the connection lives on; an undecodable byte stream (bad magic,
truncated body) gets a best-effort error frame and the connection
closes, because framing is lost.  A request that fails inside the
service answers with its typed error — ``ServiceOverloadError``,
``ServiceDeadlineError``, ``UnknownSessionError``, … — re-raised
as itself on the client side.

Session handoff (``handoff_export`` / ``handoff_import`` / ``open``)
moves whole sessions through the self-checking wire envelope
(:func:`repro.core.serialize.session_wire_to_json`).  Warm state —
verification caches, counters, certificate, pending deltas — rides
along as a pickled blob *best-effort*: if it does not pickle, the
session moves cold and rebuilds its caches on first use, the same
degradation contract as store eviction.  The blob is only ever
exchanged between a pool and its own workers on loopback; the wire
envelope itself never embeds executable state.
"""

from __future__ import annotations

import base64
import contextvars
import pickle
import socketserver
import threading
from typing import Any, Callable

from repro.service.errors import TransportError
from repro.service.server import SchedulingService
from repro.service.transport.wire import (
    decode_request,
    decode_session,
    encode_error,
    encode_result,
    encode_session,
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
        if op in ("open", "handoff_import"):
            return self._import_session(request["payload"])
        if op == "handoff_export":
            return self._export_session(request)
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

    def _import_session(self, payload: dict[str, Any]) -> None:
        session_id, session = decode_session(payload["envelope"])
        warm_b64 = payload.get("warm")
        if warm_b64:
            try:
                session._attach_warm(
                    pickle.loads(base64.b64decode(warm_b64)))
            except Exception:
                # Best-effort warmth: an unpicklable or stale blob
                # degrades to a cold import, never a failed one.
                _, session = decode_session(payload["envelope"])
        self._service.open_session(session_id, session)
        return None

    def _export_session(self, request: dict[str, Any]) -> dict[str, Any]:
        session_id = request["session_id"]
        if session_id is None:
            raise TransportError("handoff_export requires a session_id")
        store = self._service.store
        with store.lease(session_id) as session:
            envelope = encode_session(session, session_id)
            try:
                blob = pickle.dumps(session._detach_warm(),
                                    protocol=pickle.HIGHEST_PROTOCOL)
                warm: str | None = base64.b64encode(blob).decode("ascii")
            except Exception:
                warm = None  # cold handoff; caches rebuild on arrival
        self._service.close_session(session_id)
        return {"kind": "handoff", "envelope": envelope, "warm": warm}


class _ThreadedTCPServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True


class WireServer:
    """A TCP front end serving wire frames from a request sink.

    Args:
        service: serve this local scheduling service (wrapped in a
            :class:`ServiceSink`).  Mutually exclusive with ``sink``.
        sink: serve an explicit sink (e.g. a pool's ``RouterSink``).
        host / port: bind address; port ``0`` picks a free port —
            read it back from :attr:`address`.

    ``start()`` serves in a daemon thread (tests, pools);
    ``serve_forever()`` serves in the calling thread (the
    ``python -m repro.service serve`` entry point).  A ``shutdown``
    op from any client stops the accept loop after its reply is
    written, so a pool can retire a worker over the wire.
    """

    def __init__(self, service: SchedulingService | None = None, *,
                 sink: Any = None, host: str = "127.0.0.1",
                 port: int = 0) -> None:
        if (service is None) == (sink is None):
            raise ValueError("pass exactly one of service or sink")
        self._sink = ServiceSink(service) if sink is None else sink
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
    def sink(self) -> Any:
        return self._sink

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


def _make_handler(sink: Any,
                  wire_server: WireServer) -> type:
    """The per-connection frame loop, bound to one sink."""

    class _Handler(socketserver.StreamRequestHandler):
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
                if getattr(sink, "shutdown_requested", False):
                    # Reply first, then stop the accept loop from a
                    # separate thread (shutdown() joins serve_forever,
                    # which must not happen on this handler thread
                    # synchronously holding the last reply).
                    threading.Thread(target=wire_server.close,
                                     daemon=True).start()
                    return

    return _Handler


#: Type of sink ``handle`` callables, for pool.py's RouterSink.
SinkHandler = Callable[[dict[str, Any]], dict[str, Any]]
