"""Differential oracle: the service vs. direct ``Session`` calls.

The service's whole contract is *transparency*: every response must be
bit-identical to the same call made directly on the underlying
:class:`repro.api.Session`.  This module replays scenario-corpus specs
(:mod:`repro.scenarios`) twice —

* the **direct leg** drives a fresh session through the spec's script
  (restrict → edit steps → one verify per drift round → two
  consecutive assigns over the window's halves → save) with plain
  method calls;
* the **service leg** opens an identically built session on a
  :class:`~repro.service.server.SchedulingService` and sends the same
  script as requests, *all specs in one ``bulk`` call on one service*,
  so consecutive assigns coalesce while each session's own stream
  stays in order —

and compares the canonicalized response streams field by field:
collision lists, verification ``source`` ("scan"/"delta"/"cache"/
"certificate"), session-lifetime cache counters, slot arrays, saved
JSON.  Counters matching means the service didn't just get the right
answers — it took the *same* cache/certificate/delta paths the direct
session took.

Responses are canonicalized to plain ints/lists first: numpy slot
arrays compare ambiguously under ``==``, so both legs are reduced to
builtin types before the equality check.
"""

from __future__ import annotations

from typing import Any

from repro.api import SlotAssignment, VerificationReport
from repro.engine.config import EngineConfig
from repro.scenarios.generators import iter_corpus
from repro.scenarios.spec import ScenarioSpec
from repro.service.server import EditAck, RestrictAck, SchedulingService
from repro.service.store import SessionStore
from repro.service.transport.client import ServiceClient
from repro.service.transport.server import WireServer
from repro.service.transport.wire import encode_request

__all__ = ["replay_direct", "replay_specs", "replay_specs_wire",
           "run_differential"]

_DEFAULT_FAMILIES = ("grid_sweep", "churn", "mobile")
_DEFAULT_SEED = 2008


# -- canonical forms ---------------------------------------------------
def _canonical_points(points: Any) -> list[list[int]]:
    return [[int(coord) for coord in point] for point in points]


def _canonical_verify(report: VerificationReport) -> dict[str, Any]:
    return {
        "kind": "verify",
        "collisions": [_canonical_points(pair)
                       for pair in report.collisions],
        "window_size": int(report.window_size),
        "source": report.source,
        "checked_points": int(report.checked_points),
        "cache_hits": int(report.cache_hits),
        "cache_misses": int(report.cache_misses),
        "workers": int(report.workers),
    }


def _canonical_assign(assignment: SlotAssignment) -> dict[str, Any]:
    return {
        "kind": "assign",
        "points": _canonical_points(assignment.points),
        "slots": [int(slot) for slot in assignment.slots],
        "num_slots": int(assignment.num_slots),
    }


def _canonical_response(response: Any) -> Any:
    if isinstance(response, VerificationReport):
        return _canonical_verify(response)
    if isinstance(response, SlotAssignment):
        return _canonical_assign(response)
    if isinstance(response, EditAck):
        return {"kind": "edit", "points_changed": response.points_changed,
                "num_slots": response.num_slots}
    if isinstance(response, RestrictAck):
        return {"kind": "restrict", "window_size": response.window_size,
                "num_slots": response.num_slots}
    if isinstance(response, str):  # save: the schedule JSON itself
        return {"kind": "save", "text": response}
    raise TypeError(f"unexpected response {type(response).__name__}")


# -- the script both legs play ----------------------------------------
def _script(spec: ScenarioSpec) -> list[tuple[str, dict[str, Any]]]:
    """The spec's request script as ``(op, payload)`` pairs."""
    script: list[tuple[str, dict[str, Any]]] = []
    if spec.edits:
        script.append(("restrict", {"window": None}))
        for step in spec.edits:
            script.append(("edit", {"updates": dict(step)}))
    for window in spec.rounds():
        script.append(("verify", {"window": window}))
    # Two consecutive assigns of one session: the service coalesces
    # them into one engine call, so the oracle compares coalesced
    # answers, not only single dispatches.
    points = spec.window_points()
    half = len(points) // 2
    script.append(("assign", {"points": points[:half]}))
    script.append(("assign", {"points": points[half:]}))
    script.append(("save", {}))
    return script


def replay_direct(spec: ScenarioSpec,
                  config: EngineConfig | None = None) -> list[Any]:
    """The spec's script as direct Session calls, canonicalized."""
    session = spec.base_session(config=config)
    responses: list[Any] = []
    for op, payload in _script(spec):
        if op == "restrict":
            session = session.restrict(payload["window"])
            window = session.window
            responses.append(_canonical_response(RestrictAck(
                window_size=0 if window is None else len(window),
                num_slots=session.num_slots)))
        elif op == "edit":
            updates = {tuple(point): int(slot)
                       for point, slot in payload["updates"].items()}
            session = session.edit(updates)
            responses.append(_canonical_response(EditAck(
                points_changed=len(updates),
                num_slots=session.num_slots)))
        elif op == "verify":
            responses.append(_canonical_response(
                session.verify(payload["window"])))
        elif op == "assign":
            responses.append(_canonical_response(
                session.assign(payload["points"])))
        else:
            responses.append(_canonical_response(session.save()))
    return responses


def replay_specs(specs: list[ScenarioSpec],
                 config: EngineConfig | None = None,
                 ) -> dict[str, list[Any]]:
    """Every spec's script through ONE shared service, canonicalized.

    All scripts go to the service as one ``bulk`` call, so requests
    from different specs share it (each spec's session is one group)
    while each spec's own session stays strictly ordered.
    """
    service = SchedulingService(SessionStore())
    try:
        items: list[tuple[str, str, dict[str, Any], None]] = []
        for spec in specs:
            session_id = spec.label()
            service.open_session(session_id,
                                 spec.base_session(config=config))
            items += [(op, session_id, payload, None)
                      for op, payload in _script(spec)]
        return _collect(
            [session_id for _, session_id, _, _ in items],
            service.bulk(items), service.metrics())
    finally:
        service.close()


def replay_specs_wire(specs: list[ScenarioSpec],
                      config: EngineConfig | None = None,
                      ) -> dict[str, list[Any]]:
    """Every spec's script over the socket front end, canonicalized.

    The wire twin of :func:`replay_specs`, in the topology ``python -m
    repro.service serve`` runs: one service behind one
    :class:`~repro.service.transport.server.WireServer`, driven by one
    :class:`~repro.service.transport.client.ServiceClient`.  Sessions
    open through the digest-checked wire envelope, and every script
    ships in one pipelined ``bulk`` frame, which the server hands to
    the service as one ``bulk`` call, so consecutive assigns coalesce
    over the wire exactly as in-process while each session's stream
    stays in order.
    """
    service = SchedulingService(SessionStore())
    with (service, WireServer(service).start() as server,
          ServiceClient(*server.address) as client):
        requests: list[dict[str, Any]] = []
        order: list[str] = []
        for spec in specs:
            session_id = spec.label()
            client.open_session(session_id,
                                spec.base_session(config=config))
            for op, payload in _script(spec):
                requests.append(encode_request(op, session_id, payload))
                order.append(session_id)
        return _collect(order, client.pipeline(requests), client.metrics())


def _collect(order: list[str], results: list[Any],
             metrics: Any) -> dict[str, list[Any]]:
    """Canonical responses per session id, plus the coalescing count.

    Raises the first failed request's error: the script is valid, so
    any failure is a finding.
    """
    responses: dict[str, list[Any]] = {}
    for session_id, result in zip(order, results):
        if isinstance(result, BaseException):
            raise result
        responses.setdefault(session_id, []).append(
            _canonical_response(result))
    batched = metrics.counter("batch.batched_dispatches")
    responses["__batched_dispatches__"] = [batched]
    return responses


def run_differential(*, families: tuple[str, ...] = _DEFAULT_FAMILIES,
                     seed: int = _DEFAULT_SEED, count: int = 2,
                     transport: str = "inproc") -> dict[str, Any]:
    """Replay a corpus through both legs and diff.

    ``transport="inproc"`` exercises :func:`replay_specs` (one
    ``bulk`` call on one service); ``transport="wire"`` exercises
    :func:`replay_specs_wire` (the same service behind the socket front
    end).  Either way the oracle is the same: every canonical response
    must equal the direct session's, field for field, counters
    included.

    Returns a JSON-able report: the spec count, the number of compared
    responses, any mismatches (each naming the spec, response index and
    both canonical values), and whether the service actually coalesced
    dispatches during the run.
    """
    if transport not in ("inproc", "wire"):
        raise ValueError(
            f"transport must be 'inproc' or 'wire', got {transport!r}")
    specs = list(iter_corpus(families, seed, count))
    mismatches: list[dict[str, Any]] = []
    compared = 0
    if transport == "wire":
        service_legs = replay_specs_wire(specs)
    else:
        service_legs = replay_specs(specs)
    batched = service_legs.pop("__batched_dispatches__")[0]
    for spec in specs:
        direct = replay_direct(spec)
        service = service_legs[spec.label()]
        compared += len(direct)
        if direct == service:
            continue
        for index, (expected, actual) in enumerate(zip(direct, service)):
            if expected != actual:
                mismatches.append({
                    "spec": spec.label(), "response": index,
                    "direct": expected, "service": actual})
        if len(direct) != len(service):
            mismatches.append({
                "spec": spec.label(), "response": "length",
                "direct": len(direct), "service": len(service)})
    return {
        "families": list(families), "seed": seed, "count": count,
        "transport": transport,
        "specs": len(specs),
        "responses_compared": compared,
        "batched_dispatches": batched,
        "mismatches": mismatches,
        "ok": not mismatches,
    }
