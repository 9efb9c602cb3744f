"""Serialization of schedules for sensor configuration.

The paper notes that keeping the schedule identical across translated
tiles "simplifies configuring the sensor network"; in practice a deployed
network needs the schedule shipped to the sensors.  This module round-
trips the library's schedules through plain JSON-able dictionaries:

* a :class:`~repro.core.schedule.TilingSchedule` over a lattice tiling is
  fully described by the prototile cells, the sublattice basis and the
  cell (slot) enumeration;
* a :class:`~repro.core.schedule.MultiTilingSchedule` additionally
  carries the per-prototile anchors and the period basis;
* a :class:`~repro.core.schedule.MappingSchedule` is an explicit table.

Each sensor can then answer "may I send at time t?" from a few integers —
no global state, matching the paper's distributed setting.
"""

from __future__ import annotations

import hashlib
import json
from itertools import chain

from repro.core.schedule import (
    MappingSchedule,
    MultiTilingSchedule,
    Schedule,
    TilingSchedule,
)
from repro.engine.encode import PointBatch
from repro.lattice.sublattice import Sublattice
from repro.tiles.prototile import Prototile
from repro.tiling.lattice_tiling import LatticeTiling
from repro.tiling.multi import MultiTiling
from repro.utils.vectors import as_intvec

__all__ = ["CorruptSessionError",
           "schedule_to_dict", "schedule_from_dict",
           "schedule_to_json", "schedule_from_json", "schedule_digest",
           "session_wire_to_json", "session_wire_from_json"]


class CorruptSessionError(ValueError):
    """A session or schedule file failed to deserialize.

    Raised instead of the raw :class:`json.JSONDecodeError` /
    :class:`KeyError` / :class:`TypeError` soup when loading truncated
    or garbage input, so callers can catch one typed error and report
    *which* file broke and *why*:

    Attributes:
        path: the file the payload came from (``None`` for in-memory
            strings/dicts).
        reason: one human-readable line on what was wrong.
    """

    def __init__(self, reason: str, *, path: str | None = None) -> None:
        prefix = f"{path}: " if path is not None else ""
        super().__init__(f"{prefix}corrupt session data: {reason}")
        self.path = path
        self.reason = reason


def schedule_to_dict(schedule: Schedule) -> dict:
    """A JSON-able description of a schedule.

    Raises:
        TypeError: for schedule types without a serial form (e.g. a
            ``TilingSchedule`` over a non-lattice periodic tiling; ship
            the anchors via a ``MultiTilingSchedule`` instead).
    """
    if isinstance(schedule, TilingSchedule):
        tiling = schedule.tiling
        if not isinstance(tiling, LatticeTiling):
            raise TypeError(
                "only lattice-tiling schedules serialize via this form; "
                "wrap periodic tilings as MultiTilingSchedule")
        return {
            "kind": "tiling",
            "cells": [list(c) for c in schedule.cells],
            "prototile": sorted(list(c) for c in tiling.prototile.cells),
            "sublattice_basis": [list(v) for v in
                                 tiling.sublattice.basis],
        }
    if isinstance(schedule, MultiTilingSchedule):
        multi = schedule.multi
        return {
            "kind": "multi",
            "cells": [list(c) for c in schedule.cells],
            "prototiles": [sorted(list(c) for c in tile.cells)
                           for tile in multi.prototiles],
            "anchor_sets": [sorted(list(a) for a in multi.anchor_set(k))
                            for k in range(multi.num_prototiles)],
            "period_basis": [list(v) for v in multi.period.basis],
        }
    if isinstance(schedule, MappingSchedule):
        return {
            "kind": "mapping",
            "assignment": [[list(point), slot]
                           for point, slot in schedule._sorted_items()],
        }
    raise TypeError(f"cannot serialize {type(schedule).__name__}")


def schedule_from_dict(data: dict, *, path: str | None = None) -> Schedule:
    """Rebuild a schedule from :func:`schedule_to_dict` output.

    All tiling invariants are re-validated during reconstruction, so a
    corrupted description is rejected rather than silently
    mis-scheduling — as a typed :class:`CorruptSessionError` naming the
    source ``path`` (when given) and the failing field.
    """
    try:
        return _schedule_from_dict(data)
    except CorruptSessionError:
        raise
    except (KeyError, TypeError, ValueError, AttributeError) as error:
        raise CorruptSessionError(
            _describe_corruption(error), path=path) from error


def _describe_corruption(error: BaseException) -> str:
    if isinstance(error, KeyError):
        return f"missing required field {error.args[0]!r}"
    return str(error) or type(error).__name__


def _schedule_from_dict(data: dict) -> Schedule:
    if not isinstance(data, dict):
        raise TypeError(
            f"expected a JSON object, got {type(data).__name__}")
    kind = data.get("kind")
    if kind == "tiling":
        prototile = Prototile(tuple(c) for c in data["prototile"])
        sublattice = Sublattice([tuple(v) for v in
                                 data["sublattice_basis"]])
        tiling = LatticeTiling(prototile, sublattice)
        cells = [tuple(c) for c in data["cells"]]
        return TilingSchedule(tiling, cells)
    if kind == "multi":
        prototiles = [Prototile(tuple(c) for c in cells)
                      for cells in data["prototiles"]]
        period = Sublattice([tuple(v) for v in data["period_basis"]])
        anchor_sets = [[tuple(a) for a in anchors]
                       for anchors in data["anchor_sets"]]
        multi = MultiTiling(prototiles, anchor_sets, period)
        cells = [tuple(c) for c in data["cells"]]
        return MultiTilingSchedule(multi, cells)
    if kind == "mapping":
        rows = data["assignment"]
        points = [tuple(point) for point, _ in rows]
        slots = [slot for _, slot in rows]
        if _plain_points(points):
            return MappingSchedule.from_batch(PointBatch.of(points), slots)
        return MappingSchedule(dict(zip(points, slots)))
    raise ValueError(f"unknown schedule kind: {kind!r}")


def _plain_points(points: list[tuple[object, ...]]) -> bool:
    """True when the points are nonempty tuples of plain ints, all of
    one length: the rows a point batch takes as they are.  Other rows
    keep the table exactly as written."""
    return len(set(map(len, points))) == 1 and len(points[0]) > 0 \
        and set(map(type, chain.from_iterable(points))) <= {int}


def schedule_to_json(schedule: Schedule) -> str:
    """Serialize a schedule to a JSON string."""
    return json.dumps(schedule_to_dict(schedule), sort_keys=True)


def schedule_from_json(text: str, *, path: str | None = None) -> Schedule:
    """Rebuild a schedule from :func:`schedule_to_json` output.

    Raises:
        CorruptSessionError: on truncated/garbage JSON or a payload
            missing required fields, carrying ``path`` when given.
    """
    try:
        data = json.loads(text)
    except json.JSONDecodeError as error:
        raise CorruptSessionError(
            f"invalid JSON: {error}", path=path) from error
    return schedule_from_dict(data, path=path)


#: Envelope format version for :func:`session_wire_to_json`.
_WIRE_VERSION = 1


def session_wire_to_json(schedule: Schedule, *, session_id: str,
                         window: list | None = None,
                         config: dict | None = None,
                         offsets: list | None = None,
                         neighborhood: Schedule | None = None) -> str:
    """Serialize a session for the wire: schedule + session state.

    The transport layer (:mod:`repro.service.transport`) ships whole
    sessions between processes through this envelope, to open a
    session on a remote server.  Next to the schedule's canonical
    description and its content digest, it carries the *session* state
    a remote process cannot reconstruct from the schedule alone:

    * the default verification window (a list of points, or ``None``);
    * the engine config (an opaque JSON object produced by
      :meth:`repro.engine.config.EngineConfig.to_dict`, or ``None`` —
      opaque here so the core stays independent of the engine layer);
    * explicit interference ``offsets``, if the session carries them;
    * the ``neighborhood`` owner schedule, when the session's
      interference model is another schedule's bound method — the
      restrict path: a mapping-backed session whose model still comes
      from the tiling it was cut from.  Functions cannot cross the
      wire; a schedule's canonical description can, and rebinding
      ``neighborhood_of`` on the content-identical reconstruction
      yields the same model.

    The digest makes the envelope self-checking: a truncated or edited
    envelope is rejected at decode time, never silently mis-scheduled.
    """
    if window is not None:
        window = [list(as_intvec(point)) for point in window]
    if offsets is not None:
        offsets = [list(as_intvec(point)) for point in offsets]
    if config is not None and not isinstance(config, dict):
        raise TypeError(
            f"config must be a JSON-able dict or None, "
            f"got {type(config).__name__}")
    return json.dumps({
        "kind": "session-wire",
        "version": _WIRE_VERSION,
        "session_id": session_id,
        "schedule": schedule_to_dict(schedule),
        "digest": schedule_digest(schedule),
        "window": window,
        "config": config,
        "offsets": offsets,
        "neighborhood": (None if neighborhood is None
                         else schedule_to_dict(neighborhood)),
    }, sort_keys=True)


def session_wire_from_json(
        text: str, *, path: str | None = None,
) -> tuple[str, Schedule, list[tuple[int, ...]] | None, dict | None,
           list[tuple[int, ...]] | None, Schedule | None]:
    """Rebuild ``(session_id, schedule, window, config, offsets,
    neighborhood)`` from :func:`session_wire_to_json`.

    ``neighborhood`` comes back as a reconstructed :class:`Schedule`
    (bind its ``neighborhood_of`` method), or ``None``.

    Raises:
        CorruptSessionError: on garbage JSON, a wrong envelope kind or
            version, a digest mismatch, or a malformed window/config/
            offsets/neighborhood field.
    """
    try:
        data = json.loads(text)
    except json.JSONDecodeError as error:
        raise CorruptSessionError(
            f"invalid JSON: {error}", path=path) from error
    if not isinstance(data, dict) or data.get("kind") != "session-wire":
        raise CorruptSessionError(
            f"not a session wire envelope (kind={data.get('kind')!r} "
            f"if it is an object at all)" if isinstance(data, dict)
            else f"expected a JSON object, got {type(data).__name__}",
            path=path)
    if data.get("version") != _WIRE_VERSION:
        raise CorruptSessionError(
            f"unsupported wire envelope version {data.get('version')!r} "
            f"(this build reads version {_WIRE_VERSION})", path=path)
    try:
        session_id = data["session_id"]
        schedule = schedule_from_dict(data["schedule"], path=path)
        recorded = data["digest"]
        window = data["window"]
        config = data["config"]
    except KeyError as error:
        raise CorruptSessionError(
            f"missing required field {error.args[0]!r}", path=path) from error
    offsets = data.get("offsets")
    neighborhood_data = data.get("neighborhood")
    actual = schedule_digest(schedule)
    if recorded != actual:
        raise CorruptSessionError(
            f"schedule digest mismatch: envelope records {recorded!r} but "
            f"the payload hashes to {actual!r}", path=path)
    if not isinstance(session_id, str):
        raise CorruptSessionError(
            f"session_id must be a string, got {type(session_id).__name__}",
            path=path)
    if config is not None and not isinstance(config, dict):
        raise CorruptSessionError(
            f"config must be an object or null, "
            f"got {type(config).__name__}", path=path)
    # Points follow as_intvec's rule: a boolean, non-integral or string
    # coordinate is refused, never rounded or parsed into another point.
    if window is not None:
        try:
            window = [as_intvec(point) for point in window]
        except TypeError as error:
            raise CorruptSessionError(
                f"malformed window: {error}", path=path) from error
    if offsets is not None:
        try:
            offsets = [as_intvec(point) for point in offsets]
        except TypeError as error:
            raise CorruptSessionError(
                f"malformed offsets: {error}", path=path) from error
    neighborhood = (None if neighborhood_data is None
                    else schedule_from_dict(neighborhood_data, path=path))
    return session_id, schedule, window, config, offsets, neighborhood


def schedule_digest(schedule: Schedule) -> str:
    """Content digest (hex) of a schedule's canonical serial form.

    Two schedules digest equal iff :func:`schedule_to_dict` describes
    them identically — the identity the wire envelope checks a
    deserialized schedule against.

    Raises:
        TypeError: for schedule types without a serial form.
    """
    return hashlib.sha256(
        schedule_to_json(schedule).encode("ascii")).hexdigest()
