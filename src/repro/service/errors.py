"""Typed errors of the scheduling service.

Every request the service refuses or cannot finish surfaces as one of
these — a rejected request *always* fails with a typed error, never by
hanging and never by silently dropping the request (pinned by the
saturating load test in ``tests/unit/test_service.py``).
"""

from __future__ import annotations

__all__ = [
    "ServiceError",
    "ServiceClosedError",
    "ServiceDeadlineError",
    "TransportError",
    "UnknownSessionError",
]


class ServiceError(RuntimeError):
    """Base class of every scheduling-service error."""


class ServiceDeadlineError(ServiceError):
    """The request's deadline expired before it could be served.

    Attributes:
        timeout: the per-request budget, in seconds.
    """

    def __init__(self, message: str, *, timeout: float):
        super().__init__(message)
        self.timeout = timeout


class ServiceClosedError(ServiceError):
    """The service is shut down (or shutting down); nothing is admitted."""


class TransportError(ServiceError):
    """The wire layer failed: malformed/truncated frames, dead peers,
    protocol violations, or a connection-level timeout.

    The transport's contract mirrors admission control's: a broken
    frame or dead socket always surfaces as this one typed error —
    never a hang, never a raw ``OSError``/``JSONDecodeError`` soup —
    so callers can retry or fail over without parsing exception guts.
    """


class UnknownSessionError(ServiceError, KeyError):
    """No session with the requested id is open on this service.

    Attributes:
        session_id: the id that failed to resolve.
    """

    def __init__(self, session_id: str):
        # KeyError repr-quotes its lone argument; build the message via
        # RuntimeError and keep args readable.
        RuntimeError.__init__(
            self, f"unknown session {session_id!r}; open it first "
            f"(SessionStore.put or the service 'load' endpoint)")
        self.session_id = session_id

    def __str__(self) -> str:  # KeyError would repr the message
        return self.args[0]
