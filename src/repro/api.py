"""repro.api — the typed Session/Config facade over the whole library.

The internals are fast (vectorized bulk engine, sharded execution,
incremental dirty-region verification) but historically they were driven
through an accreted surface: env vars for configuration, free functions
in :mod:`repro.core.schedule`, a separately-constructed simulator.  This
module is the service-grade surface the ROADMAP asks for: one
:class:`Session` object owns a schedule together with its verification
state and exposes the full lifecycle as typed request/response methods,
and one :class:`~repro.engine.config.EngineConfig` value carries the
engine's one knob, the worker count (an enclosing
:func:`~repro.engine.config.use_config` block and
``REPRO_ENGINE_WORKERS`` remain as lazy fallbacks).

Quickstart::

    from repro.api import Box, EngineConfig, Session

    session = Session.for_chebyshev(1, window=Box((-10, -10), (10, 10)),
                                    config=EngineConfig(workers=4))
    assignment = session.assign([(0, 0), (10, 7)])   # SlotAssignment
    report = session.verify()                        # VerificationReport
    assert report.collision_free
    metrics = session.simulate("aloha", slots=90, p=0.2)
    text = session.save()                            # JSON round-trip
    same = Session.load(text)

Every method is pinned bit-identical to the legacy entry point it wraps
(``schedule.slots_of`` / ``find_collisions`` / ``simulate`` / the
serializer) by the equivalence suite in ``tests/unit/test_api.py`` —
the facade adds typing and lifecycle, never different answers.
"""

from __future__ import annotations

import math
import os
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass
from typing import Any, Callable, NamedTuple

from repro.core.certify import (
    PeriodicCertificate,
    certify_schedule,
    stream_box_collisions,
)
from repro.core.schedule import (
    Collision,
    Interference,
    MappingSchedule,
    MultiTilingSchedule,
    RepairContext,
    Schedule,
    ScheduleDelta,
    TilingSchedule,
    VerificationCache,
    _bulk_slots,
    find_collisions,
)
from repro.core.serialize import (
    CorruptSessionError,
    schedule_from_json,
    schedule_to_json,
)
from repro.core.theorem1 import schedule_from_prototile, schedule_from_tiling
from repro.core.theorem2 import schedule_from_multi_tiling
from repro.engine.config import EngineConfig, use_config
from repro.engine.encode import PointBatch, box_corners
from repro.engine.parallel import shard_workers
from repro.net.energy import UNIT_TX_MODEL, EnergyModel
from repro.net.metrics import SimulationMetrics
from repro.net.model import Network, SensorNode
from repro.net.protocols import (
    MACProtocol,
    make_protocol,
    protocol_names,
    register_protocol,
)
from repro.net.simulator import BroadcastSimulator
from repro.tiles.prototile import Prototile
from repro.tiles.shapes import chebyshev_ball
from repro.tiling.base import Tiling
from repro.tiling.multi import MultiTiling
from repro.utils.validation import require
from repro.utils.vectors import IntVec, as_intvec, box_points

__all__ = [
    "Box",
    "CorruptSessionError",
    "EngineConfig",
    "RepairReport",
    "Session",
    "SlotAssignment",
    "VerificationReport",
    "use_config",
    "make_protocol",
    "protocol_names",
    "register_protocol",
]

NeighborhoodFn = Callable[[IntVec], frozenset[IntVec]]


class Box(NamedTuple):
    """Explicit box-shaped window spec: the closed ``[lo, hi]`` corner pair.

    ``Box((-10, -10), (10, 10))`` expands to every lattice point of the
    box (inclusive on both corners).  The marker exists so a box is
    never confused with a literal two-point window: any plain iterable
    passed as ``window=`` is taken as the points themselves, only a
    ``Box`` is expanded.
    """

    lo: tuple[int, ...]
    hi: tuple[int, ...]

    def _corners(self) -> tuple[IntVec, IntVec]:
        return box_corners(self.lo, self.hi)

    def points(self) -> list[IntVec]:
        """Every lattice point of the box, in box_points order.

        Raises:
            ValueError: when the corners have different dimensions or
                are swapped (``lo > hi`` on some axis) — an empty box
                is always a caller mistake, never a window.
        """
        lo, hi = self._corners()
        return list(box_points(lo, hi))

    def batch(self) -> PointBatch:
        """The box as a dense :class:`~repro.engine.encode.PointBatch`.

        Built from the corners with ``np.indices`` in the order of
        :meth:`points`, so it needs no validation; same corner checks
        as :meth:`points`.
        """
        return PointBatch.box(self.lo, self.hi)

    def volume(self) -> int:
        """Lattice-point count of the box, without materializing it.

        The certificate and streaming verification paths report window
        sizes for boxes far too large to expand; same corner
        validation as :meth:`points`.
        """
        return math.prod(h - l + 1 for l, h in zip(*self._corners()))


#: Window specifications accepted by Session: an iterable of points
#: (taken literally), or a :class:`Box` expanded to the full integer
#: box.  The pre-Box corner-pair form — a bare 2-tuple of coordinate
#: tuples — is rejected loudly rather than silently re-read as two
#: points.
WindowLike = Any


def _as_window(window: WindowLike) -> PointBatch:
    """Validate a window spec once, into a point batch.

    A :class:`Box` becomes the dense batch of the full integer box;
    every other iterable (or ``(n, d)`` integer array) is taken as the
    points themselves, under the coordinate rule of
    :func:`~repro.utils.vectors.as_intvec`.  The one exception is
    the legacy corner-pair spelling (a bare 2-tuple of int sequences),
    which used to mean a box: silently verifying just its two corner
    points would make old callers' reports vacuously collision-free, so
    it raises instead — pass ``Box(lo, hi)``, or a list for two
    literal points.
    """
    if isinstance(window, Box):
        return window.batch()
    if (isinstance(window, tuple) and len(window) == 2
            and all(isinstance(corner, (tuple, list)) and corner
                    and all(isinstance(c, int) for c in corner)
                    for corner in window)):
        raise TypeError(
            f"ambiguous window {window!r}: a bare corner-pair tuple "
            f"used to mean a box — pass Box{window!r} for the box, or "
            f"a list {list(window)!r} for two literal points")
    return PointBatch.of(window)


def _window_id(batch: PointBatch) -> tuple[object, ...]:
    """The point sequence of a window, as a dict key.

    A dense row-major window is its box corners (the sequence is the
    box's row-major order); any other is the tuple of its points.  The
    marker keeps the two forms apart.
    """
    if batch.row_major:
        return ("box", batch.lo, batch.hi)
    return tuple(batch.points)


def _cache_key(batch: PointBatch,
               offsets: Sequence[IntVec] | None) -> tuple[object, ...]:
    """The key of a window's verification cache in ``Session._caches``."""
    return (_window_id(batch),
            None if offsets is None else tuple(sorted(offsets)))


# ----------------------------------------------------------------------
# Typed responses
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SlotAssignment:
    """Response of :meth:`Session.assign`: slots for a batch of sensors.

    ``points`` and ``slots`` are aligned; both are stored as handed back
    by the engine (no copies on the hot path) and must be treated as
    immutable.  ``points`` is the collection the caller passed, or a
    :class:`~repro.engine.encode.PointBatch` (an assign decoded from the
    wire, or an unsized iterable); either iterates as integer tuples.

    Attributes:
        points: the queried sensors, in request order.
        slots: slot per sensor, each in ``0..num_slots-1``.
        num_slots: the schedule's period.
    """

    points: Sequence[Sequence[int]]
    slots: Sequence[int]
    num_slots: int

    def __len__(self) -> int:
        return len(self.slots)

    def __iter__(self) -> Iterator[tuple[IntVec, int]]:
        for point, slot in zip(self.points, self.slots):
            yield as_intvec(point), slot

    def slot_of(self, point: Sequence[int]) -> int:
        """Slot of one queried sensor (O(n) scan; use as_dict for many)."""
        key = as_intvec(point)
        for p, slot in self:
            if p == key:
                return slot
        raise KeyError(f"point {key} was not part of this assignment")

    def as_dict(self) -> dict[IntVec, int]:
        """The assignment as a point -> slot mapping."""
        return dict(self)


@dataclass(frozen=True)
class VerificationReport:
    """Response of :meth:`Session.verify`: collisions + how they were found.

    Attributes:
        collisions: colliding pairs, each ordered ``x < y``, list sorted —
            byte-identical to :func:`repro.core.schedule.find_collisions`
            over the same window.
        window_size: sensors in the verified window.
        source: how the answer was produced — ``"scan"`` (full window
            scan), ``"delta"`` (incremental dirty-region re-verification
            after an :meth:`Session.edit`), ``"cache"`` (returned from
            the warm cache without rescanning), or ``"certificate"``
            (answered from the schedule's
            :class:`~repro.core.certify.PeriodicCertificate` — one
            fundamental-domain scan covers every congruent window).
        checked_points: sensors actually (re)scanned for this answer:
            the window for a scan, the changed points that fall inside
            this window for a delta, 0 for a cache hit; the first
            certificate-served verify reports the fundamental-domain
            points the certifying scan covered, later ones 0.
        cache_hits: session-lifetime count of cache- or
            certificate-served verifies.
        cache_misses: session-lifetime count of full scans (the
            certifying fundamental-domain scan included).
        workers: shard worker count in effect for the request.
    """

    collisions: tuple[Collision, ...]
    window_size: int
    source: str
    checked_points: int
    cache_hits: int
    cache_misses: int
    workers: int

    @property
    def collision_free(self) -> bool:
        """True when no pair of sensors in the window collides."""
        return not self.collisions


@dataclass(frozen=True)
class RepairReport:
    """Response of :meth:`Session.repair`: what was broken and fixed.

    Attributes:
        session: the repaired session (``self`` when nothing needed
            repairing — a clean schedule round-trips untouched).
        faults_found: colliding pairs detected before repair started.
        points_rescheduled: sensors moved to a new slot, summed over
            all repair rounds.
        rounds: repair rounds run (an edit followed by an incremental
            re-verification each).
        verification_source: ``source`` of the final verification —
            ``"delta"`` when the dirty-region cache path confirmed the
            repair, ``"scan"``/``"cache"``/``"certificate"`` otherwise.
        repaired: True when the final verification found no collisions.
        collisions: colliding pairs still present after the last round
            (empty when ``repaired``).
    """

    session: Session
    faults_found: int
    points_rescheduled: int
    rounds: int
    verification_source: str
    repaired: bool
    collisions: tuple[Collision, ...]


# ----------------------------------------------------------------------
# The facade
# ----------------------------------------------------------------------
class Session:
    """One schedule plus its verification/simulation lifecycle.

    A session owns a :class:`~repro.core.schedule.Schedule`, the
    :class:`~repro.core.schedule.VerificationCache` instances for the
    windows it has verified, and an optional
    :class:`~repro.engine.config.EngineConfig` that every request is
    served under (``None`` keeps the enclosing
    :func:`~repro.engine.config.use_config` / env-var resolution).
    Sessions are cheap value-like objects: :meth:`edit` returns a *new*
    session for the edited schedule (transferring the warm caches after
    an incremental dirty-region re-verification), and
    :meth:`with_config` re-wraps the same schedule under another config.

    Args:
        schedule: any :class:`~repro.core.schedule.Schedule`.
        config: engine configuration for this session's requests.
        window: default verification window — a point iterable (taken
            literally) or a :class:`Box`.  Omitted, a
            :class:`~repro.core.schedule.MappingSchedule`'s finite
            domain is used (re-derived after every :meth:`edit`, so
            added points are covered); infinite schedules then require
            an explicit window per :meth:`verify` call.
        neighborhood_of: interference map used for verification and
            network construction; defaults to the schedule's own
            ``neighborhood_of`` when it has one (Theorem 1/2 schedules).
            Its :class:`~repro.core.schedule.Interference` model is
            built once and handed on by :meth:`edit`,
            :meth:`with_config` and :meth:`restrict`.
        offsets: optional conflict-offset override forwarded to the
            verifier.
    """

    def __init__(self, schedule: Schedule, *,
                 config: EngineConfig | None = None,
                 window: WindowLike | None = None,
                 neighborhood_of: NeighborhoodFn | None = None,
                 offsets: Iterable[IntVec] | None = None) -> None:
        require(hasattr(schedule, "slot_of"),
                "a Session needs a schedule-like object (slot_of)")
        if config is not None and not isinstance(config, EngineConfig):
            raise TypeError(
                f"config must be an EngineConfig or None, "
                f"got {type(config).__name__}")
        self._schedule = schedule
        self._config = config
        self._window = None if window is None else _as_window(window)
        #: True when the window was passed in by the caller; a window
        #: lazily derived from the schedule's domain stays False and is
        #: never transferred by edit()/with_config() — the new session
        #: re-derives it from its own schedule.
        self._window_explicit = window is not None
        if neighborhood_of is None:
            neighborhood_of = getattr(schedule, "neighborhood_of", None)
        #: The interference model; it holds the explicit offsets, so a
        #: derived session passing both back reuses it.
        self._neighborhood_of: Interference | None = None
        self._offsets: Sequence[IntVec] | None = (
            None if offsets is None else list(offsets))
        if neighborhood_of is not None:
            self._neighborhood_of = Interference.of(neighborhood_of,
                                                    offsets)
            if offsets is not None:
                self._offsets = self._neighborhood_of.offsets
        self._caches: dict[tuple, VerificationCache] = {}
        self._networks: dict[tuple[object, ...], Network] = {}
        self._cache_hits = 0
        self._cache_misses = 0
        #: Lazily-built PeriodicCertificate for lattice-periodic
        #: schedules (None after a failed attempt); ``_served`` flips
        #: after the first certificate answer so the certifying scan's
        #: cost is reported exactly once.
        self._certificate_value: PeriodicCertificate | None = None
        self._certificate_tried = False
        self._certificate_served = False
        #: Per-cache-key count of the edited points inside that window
        #: (keys the edit never touched are absent); the first
        #: cache-served verify of such a window reports the count as
        #: its incremental re-verification cost.
        self._pending_delta: dict[tuple, int] = {}

    # -- builders ------------------------------------------------------
    @classmethod
    def for_prototile(cls, prototile: Prototile, *,
                      config: EngineConfig | None = None,
                      window: WindowLike | None = None,
                      max_period_side: int = 6) -> Session:
        """Session over the Theorem 1 schedule of a neighborhood.

        Raises:
            ValueError: when the prototile admits no tiling (not exact).
        """
        schedule = schedule_from_prototile(prototile,
                                           max_period_side=max_period_side)
        return cls(schedule, config=config, window=window)

    @classmethod
    def for_chebyshev(cls, radius: int = 1, dimension: int = 2, *,
                      config: EngineConfig | None = None,
                      window: WindowLike | None = None) -> Session:
        """Session for the radius-``r`` Chebyshev ball in ``Z^d``."""
        return cls.for_prototile(chebyshev_ball(radius, dimension),
                                 config=config, window=window)

    @classmethod
    def for_tiling(cls, tiling: Tiling, *,
                   config: EngineConfig | None = None,
                   window: WindowLike | None = None,
                   cells: Sequence[IntVec] | None = None) -> Session:
        """Session over the Theorem 1 schedule of an explicit tiling."""
        return cls(schedule_from_tiling(tiling, cells), config=config,
                   window=window)

    @classmethod
    def for_multi_tiling(cls, multi: MultiTiling, *,
                         config: EngineConfig | None = None,
                         window: WindowLike | None = None,
                         cells: Sequence[IntVec] | None = None) -> Session:
        """Session over the Theorem 2 schedule of a multi-prototile tiling."""
        return cls(schedule_from_multi_tiling(multi, cells), config=config,
                   window=window)

    @classmethod
    def for_mapping(cls, assignment: Mapping[Sequence[int], int], *,
                    config: EngineConfig | None = None,
                    neighborhood_of: NeighborhoodFn | None = None,
                    window: WindowLike | None = None,
                    offsets: Iterable[IntVec] | None = None) -> Session:
        """Session over an explicit point -> slot table."""
        schedule = MappingSchedule({as_intvec(p): s
                                    for p, s in assignment.items()})
        return cls(schedule, config=config, window=window,
                   neighborhood_of=neighborhood_of, offsets=offsets)

    # -- accessors -----------------------------------------------------
    @property
    def schedule(self) -> Schedule:
        """The wrapped schedule (shared, not copied)."""
        return self._schedule

    @property
    def num_slots(self) -> int:
        return self._schedule.num_slots

    @property
    def config(self) -> EngineConfig:
        """The config requests run under (all-default when unset: the
        enclosing :func:`~repro.engine.config.use_config` block or the
        env var decides)."""
        return self._config if self._config is not None else EngineConfig()

    @property
    def window(self) -> list[IntVec] | None:
        """The session's default verification window, if any."""
        return None if self._window is None else list(self._window.points)

    @property
    def cache_stats(self) -> tuple[int, int]:
        """Session-lifetime verification ``(cache_hits, cache_misses)``."""
        return self._cache_hits, self._cache_misses

    @property
    def neighborhood_of(self) -> NeighborhoodFn | None:
        """The interference map requests run under, if any.

        The model is session state, not schedule state — ``save()``
        does not serialize it — so callers reloading a mapping-backed
        schedule pass this to :meth:`load` to restore verification:
        ``Session.load(text, neighborhood_of=old.neighborhood_of)``.
        """
        model = self._neighborhood_of
        return None if model is None else model.neighborhood_of

    def with_config(self, config: EngineConfig | None) -> Session:
        """The same schedule and window under a different config."""
        session = Session(self._schedule, config=config,
                          window=self._transferable_window(),
                          neighborhood_of=self._neighborhood_of,
                          offsets=self._offsets)
        return session

    def __repr__(self) -> str:
        window = (f"{len(self._window)} points" if self._window is not None
                  else "none")
        return (f"Session({type(self._schedule).__name__}, "
                f"slots={self._schedule.num_slots}, window={window})")

    # -- internals -----------------------------------------------------
    def _window_batch(self, window: WindowLike | None) -> PointBatch:
        """The batch of a call's window, or of the session's default.

        A :class:`Box` whose corners are those of the session's own
        row-major window *is* that window: it is answered with the
        session's batch, not a rebuilt one.
        """
        own = self._window
        if window is not None:
            if isinstance(window, Box) and own is not None \
                    and window._corners() == (own.lo, own.hi) \
                    and own.row_major:
                return own
            return _as_window(window)
        if own is not None:
            return own
        points = getattr(self._schedule, "points", None)
        if points is not None:
            self._window = PointBatch.of(points)
            return self._window
        raise ValueError(
            "this session has no default window; pass window= (a point "
            "iterable or a Box(lo, hi)) to the call or the Session "
            "constructor")

    def _transferable_window(self) -> PointBatch | None:
        """The window a derived session may inherit.

        Only a caller-supplied window transfers; one lazily derived
        from the schedule's domain returns ``None`` so the derived
        session re-derives it from *its* schedule — after an edit that
        adds points, the default window must grow with the domain or
        the new sensors would silently escape verification.
        """
        return self._window if self._window_explicit else None

    def _require_neighborhood(self,
                              offsets: Sequence[IntVec] | None = None,
                              ) -> Interference:
        """The model a verify runs under: the session's own, with a
        call's explicit ``offsets`` when they differ."""
        if self._neighborhood_of is None:
            raise ValueError(
                "this schedule carries no interference model; construct "
                "the Session with neighborhood_of=")
        return Interference.of(self._neighborhood_of, offsets)

    def _check_dimension(self, dimension: int, window_size: int) -> None:
        """Refuse a nonempty window whose dimension is not the lattice's.

        Every verify lane calls this before it scans, so a wrong window
        fails with one message instead of an error from deep in a scan.
        A schedule that does not say its dimension is not checked.
        """
        schedule = self._schedule
        if isinstance(schedule, (TilingSchedule, MultiTilingSchedule)):
            lattice: int | None = len(schedule.cells[0])
        elif isinstance(schedule, MappingSchedule):
            lattice = schedule.dimension
        else:
            lattice = None
        if window_size and lattice is not None and dimension != lattice:
            raise ValueError(
                f"window dimension {dimension} != lattice dimension "
                f"{lattice}")

    def _certificate(self) -> PeriodicCertificate | None:
        """The schedule's periodicity certificate, built at most once.

        Only a session whose interference model is the schedule's *own*
        stock ``neighborhood_of`` (the model's owner is the schedule) is
        eligible — any other map is not what the certifying scan
        covers.  Schedules without lattice structure (or with overridden
        neighborhoods) yield ``None`` and the attempt is not repeated.
        """
        if not self._certificate_tried:
            self._certificate_tried = True
            model = self._neighborhood_of
            if model is not None and model.owner is self._schedule:
                with use_config(self._config):
                    self._certificate_value = certify_schedule(
                        self._schedule)
        return self._certificate_value

    def _verify_from_certificate(
            self, certificate: PeriodicCertificate,
            window: WindowLike | None) -> VerificationReport:
        """Answer a verify from a collision-free certificate, O(1).

        A ``Box`` window is sized arithmetically — never expanded — so
        astronomically large windows stay O(1).  The certifying scan's
        cost (``certificate.checked_points``) is charged to the first
        served verify as a cache miss; every later serve is a free hit.

        Raises:
            ValueError: for a nonempty window whose dimension is not
                the lattice's.
        """
        if isinstance(window, Box):
            dimension, window_size = len(window.lo), window.volume()
        else:
            batch = self._window_batch(window)
            dimension, window_size = batch.dimension, len(batch)
        self._check_dimension(dimension, window_size)
        if not self._certificate_served:
            self._certificate_served = True
            self._cache_misses += 1
            checked = certificate.checked_points
        else:
            self._cache_hits += 1
            checked = 0
        with use_config(self._config):
            return self._report((), window_size, "certificate", checked)

    def _report(self, collisions: Iterable[Collision], window_size: int,
                source: str, checked: int) -> VerificationReport:
        """A verify lane's answer, with the session's cache counters.

        Called inside the lane's ``use_config(self._config)`` block, so
        ``workers`` is the count that block resolves to.
        """
        return VerificationReport(
            collisions=tuple(collisions), window_size=window_size,
            source=source, checked_points=checked,
            cache_hits=self._cache_hits, cache_misses=self._cache_misses,
            workers=shard_workers())

    # -- lifecycle: assign ---------------------------------------------
    def assign(self, points: Iterable[Sequence[int]]) -> SlotAssignment:
        """Slots for a batch of sensors, served by the bulk engine.

        Semantically ``[schedule.slot_of(p) for p in points]`` — pinned
        bit-identical by the equivalence suite — but dispatched through
        the schedule's vectorized ``slots_of`` under this session's
        config.  ``points`` (integer tuples or an ``(n, d)`` integer
        array) is validated once, under the same coordinate rule as
        :meth:`verify`.

        Raises:
            TypeError: for a boolean, non-integral or non-numeric
                coordinate.
        """
        batch = PointBatch.of(points)
        if not hasattr(points, "__len__"):
            points = batch.points
        with use_config(self._config):
            bulk = getattr(self._schedule, "slots_of", None)
            if bulk is not None:
                slots = bulk(batch)
            else:
                slots = [self._schedule.slot_of(p) for p in batch.points]
        return SlotAssignment(points=points, slots=slots,
                              num_slots=self._schedule.num_slots)

    # -- lifecycle: verify ---------------------------------------------
    def verify(self, window: WindowLike | None = None, *,
               offsets: Iterable[IntVec] | None = None,
               use_cache: bool = True,
               stream_chunk: int | None = None) -> VerificationReport:
        """Collision report over a window (cached, incremental-aware).

        The first verify of a window runs the full bulk scan and warms a
        :class:`~repro.core.schedule.VerificationCache`; later verifies
        of the same window answer from the cache, and a session produced
        by :meth:`edit` answers from the incrementally re-verified cache
        (reporting the dirty-set size it cost).  ``use_cache=False``
        bypasses the cache layer entirely and scans fresh — the exact
        :func:`~repro.core.schedule.find_collisions` call.

        Lattice-periodic schedules verified with their own interference
        model short-circuit through a
        :class:`~repro.core.certify.PeriodicCertificate`: once the coset
        fundamental domain certifies collision-free, every congruent
        window — including a :class:`Box` too large to enumerate — is
        answered in O(1) with ``source="certificate"``.  Explicit
        ``offsets`` (here or on the constructor), ``use_cache=False``,
        and ``stream_chunk`` all bypass the certificate.

        ``stream_chunk`` requires a :class:`Box` window and scans it in
        axis-0 slabs of about that many points (plus the conflict-radius
        halo) via :func:`~repro.core.certify.stream_box_collisions`,
        bounding memory for out-of-core windows.  A Theorem 1/2
        schedule streams on a slab plan: the schedule's period along
        axis 0 lets one coset reduction on open grids serve every
        slab (or each slab reduces its own rows when the period is
        longer than a slab), then the stencil scan — one comparison
        of shifted slot grids per conflict offset — runs per slab, so
        no point array or tuple is materialized; the result is
        bit-identical to the one-shot scan but is never cached.  A map
        the interference model does not recognise streams only with
        explicit ``offsets``.

        Every lane reads the session's one
        :class:`~repro.core.schedule.Interference` model, so every lane
        finds the same collisions.  An empty window is answered as the
        ``use_cache=False`` lane answers it, before any cache.

        The window (a point iterable, an ``(n, d)`` integer array or a
        :class:`Box`) is validated once, under the same coordinate rule
        as :meth:`assign`.

        Raises:
            TypeError: for a boolean, non-integral or non-numeric
                coordinate.
            ValueError: for a nonempty window whose dimension is not
                the lattice's, on every lane and before any scan.
        """
        offset_list = self._offsets if offsets is None else list(offsets)
        if stream_chunk is not None:
            if not isinstance(window, Box):
                raise ValueError(
                    "stream_chunk= requires a Box window; point iterables "
                    "are already materialized, so stream a Box(lo, hi) "
                    "instead")
            volume = window.volume()
            self._check_dimension(len(window.lo), volume)
            model = self._require_neighborhood(offset_list)
            with use_config(self._config):
                collisions = stream_box_collisions(
                    self._schedule, window.lo, window.hi, model,
                    chunk_points=stream_chunk)
                return self._report(collisions, volume, "scan", volume)
        if use_cache and offset_list is None:
            certificate = self._certificate()
            if certificate is not None and certificate.collision_free:
                return self._verify_from_certificate(certificate, window)
        batch = self._window_batch(window)
        self._check_dimension(batch.dimension, len(batch))
        model = self._require_neighborhood(offset_list)
        if not use_cache or not len(batch):
            with use_config(self._config):
                collisions = find_collisions(self._schedule, batch, model)
                return self._report(collisions, len(batch), "scan",
                                    len(batch))
        key = _cache_key(batch, offset_list)
        cache = self._caches.get(key)
        with use_config(self._config):
            if cache is None:
                self._cache_misses += 1
                cache = VerificationCache(self._schedule, batch, model)
                collisions = cache.collisions()
                self._caches[key] = cache
                source = "scan"
                checked = len(batch)
            else:
                self._cache_hits += 1
                collisions = cache.collisions_for(self._schedule)
                delta_points = self._pending_delta.pop(key, None)
                if delta_points is not None:
                    source = "delta"
                    checked = delta_points
                else:
                    source = "cache"
                    checked = 0
            return self._report(collisions, len(batch), source, checked)

    def is_collision_free(self, window: WindowLike | None = None) -> bool:
        """Shorthand: ``verify(window).collision_free``."""
        return self.verify(window).collision_free

    # -- lifecycle: edit -----------------------------------------------
    def edit(self, updates: Mapping[Sequence[int], int]) -> Session:
        """A new session whose schedule has some slots reassigned.

        Wraps :meth:`~repro.core.schedule.MappingSchedule.with_updates`:
        the edit produces a :class:`~repro.core.schedule.ScheduleDelta`,
        every warm verification cache is re-verified incrementally over
        the dirty region only, and the *new* session takes ownership of
        the warm caches (the old session rebuilds from scratch if
        verified again).  The receiver is left semantically untouched.

        A default window that was lazily derived from the schedule's
        domain is re-derived by the new session, so an edit that *adds*
        points grows the default verification window with the domain; a
        caller-supplied window is kept as pinned (verification of the
        added points then needs an explicit window).

        Raises:
            TypeError: when the schedule type does not support edits
                (only mapping-backed schedules do).
        """
        with_updates = getattr(self._schedule, "with_updates", None)
        if with_updates is None:
            raise TypeError(
                f"{type(self._schedule).__name__} is immutable; only "
                f"mapping-backed schedules support edit() — restrict the "
                f"schedule to a window first (Session.for_mapping)")
        delta: ScheduleDelta = with_updates(updates)
        session = Session(delta.schedule, config=self._config,
                          window=self._transferable_window(),
                          neighborhood_of=self._neighborhood_of,
                          offsets=self._offsets)
        with use_config(session._config):
            for cache in self._caches.values():
                cache.apply(delta)
        session._caches = self._caches
        self._caches = {}
        session._networks = dict(self._networks)
        session._cache_hits = self._cache_hits
        session._cache_misses = self._cache_misses
        # Each cache only rescanned the changed points inside its own
        # window; per key, add that count to any cost still unreported
        # from earlier edits (the pending counts travel with the caches
        # they describe — the receiver keeps neither).  A window the
        # chain never touched gets no entry: its next verify is a plain
        # cache hit, nothing was re-checked.
        session._pending_delta = self._pending_delta
        self._pending_delta = {}
        for key, cache in session._caches.items():
            inside = len(cache.touched_in_window(delta.changed))
            if inside:
                session._pending_delta[key] = \
                    session._pending_delta.get(key, 0) + inside
        return session

    # -- lifecycle: repair ---------------------------------------------
    def repair(self, window: WindowLike | None = None, *,
               max_rounds: int | None = None) -> RepairReport:
        """Detect and repair collisions by locally rescheduling sensors.

        The self-healing half of the fault model: after byzantine slot
        reports (or any external corruption) break a schedule, ``repair``
        finds the colliding pairs, greedily moves one endpoint of each
        to a slot free within its interference closure, re-verifies
        incrementally through the :class:`VerificationCache`
        dirty-region path, and repeats for up to ``max_rounds`` rounds
        (default ``max(4, num_slots)``).  Each round is an ordinary
        :meth:`edit`, so the warm caches transfer to the repaired
        session and the re-verification cost is the dirty set, not the
        window.  A round reads its closures and slots from the cache
        its verify answered from, probing the conflict offsets around
        each point: O(faults x offsets) per round, not O(window).

        Only mapping-backed schedules support edits; :meth:`restrict`
        an immutable session to a window first.  The greedy recoloring
        is deterministic (collisions are processed in sorted order, the
        smallest free slot wins), so the repaired schedule is a pure
        function of the corrupted one.

        Raises:
            TypeError: when the schedule type does not support edits.
        """
        if getattr(self._schedule, "with_updates", None) is None:
            raise TypeError(
                f"{type(self._schedule).__name__} is immutable; repair() "
                f"needs an editable mapping-backed schedule — restrict() "
                f"the session to a window first")
        # The window is built once: every round verifies this batch.
        batch = self._window_batch(window)
        report = self.verify(batch)
        faults_found = len(report.collisions)
        session = self
        rounds = 0
        rescheduled = 0
        limit = max(4, self.num_slots) if max_rounds is None else max_rounds
        if report.collisions:
            key = _cache_key(batch, self._offsets)
        while report.collisions and rounds < limit:
            context = RepairContext(session._caches[key])
            # Greedy recoloring first; when it stalls (every slot around
            # the remaining collisions is taken), solve the stuck
            # clusters exactly (bounded backtracking, expanding a
            # cluster to pull in wrongly-slotted but locally consistent
            # neighbors when needed).
            updates = (session._repair_updates(report.collisions, context)
                       or session._repair_exact(report.collisions, context))
            if not updates:
                break
            session = session.edit(updates)
            rescheduled += len(updates)
            rounds += 1
            report = session.verify(batch)
        return RepairReport(
            session=session, faults_found=faults_found,
            points_rescheduled=rescheduled, rounds=rounds,
            verification_source=report.source,
            repaired=report.collision_free,
            collisions=report.collisions)

    def _repair_updates(self, collisions: Sequence[Collision],
                        context: RepairContext) -> dict[IntVec, int]:
        """One greedy recoloring round: victim -> free slot, deterministic.

        For every colliding pair (sorted order) the later endpoint is
        moved to the smallest slot not used inside its interference
        closure — the window points whose ranges intersect the
        victim's.  An endpoint already moved this round is not moved
        again, and a victim with no free slot falls back to the other
        endpoint (or is left for the next round).  The moves go into
        ``context.updates``.
        """
        num_slots = self.num_slots
        updates = context.updates

        def move_to_free(victim: IntVec) -> bool:
            taken = context.closure_slots(victim)
            free = next((s for s in range(num_slots) if s not in taken),
                        None)
            if free is not None:
                updates[victim] = free
            return free is not None

        def move_by_chain(victim: IntVec) -> bool:
            by_slot = context.closure_slots(victim)
            previous = context.slot(victim)
            for slot in range(num_slots):
                occupants = by_slot.get(slot, [])
                if slot == previous or len(occupants) != 1 \
                        or occupants[0] in updates:
                    continue
                updates[victim] = slot
                if move_to_free(occupants[0]):
                    return True
                del updates[victim]
            return False

        for x, y in sorted(collisions):
            if context.slot(x) != context.slot(y):
                continue  # an earlier move this round already split them
            victims = [victim for victim in (y, x) if victim not in updates]
            # First choice: a slot entirely free within the closure.
            # Fallback: a length-2 chain — the victim takes a slot held
            # by exactly one closure member that can itself move to a
            # slot free in *its* closure.  Resolves the deadlock where
            # every slot around a collision is taken exactly once.
            for move in (move_to_free, move_by_chain):
                if any(move(victim) for victim in victims):
                    break
        return updates

    #: Cluster-size / search-node bounds for the exact repair fallback.
    _REPAIR_MAX_CLUSTER = 96
    _REPAIR_MAX_NODES = 200_000

    def _repair_exact(self, collisions: Sequence[Collision],
                      context: RepairContext) -> dict[IntVec, int]:
        """Exact repair of stuck collision clusters, deterministic.

        Groups the colliding endpoints into clusters (closure-adjacent
        components) and solves each as a small constraint problem: find
        slots for the cluster members that conflict neither with the
        fixed points outside the cluster nor with each other, preferring
        each member's current slot so the repair stays minimal.  When a
        cluster is infeasible as-is — the classic byzantine signature is
        a victim whose true slot is squatted by a wrongly-slotted but
        locally consistent neighbor — the cluster is expanded by one
        closure ring and re-solved, up to a bounded size.
        """
        endpoints = sorted({p for pair in collisions for p in pair})
        unassigned = set(endpoints)
        for start in endpoints:
            if start not in unassigned:
                continue
            members = []
            queue = [start]
            unassigned.discard(start)
            while queue:
                point = queue.pop()
                members.append(point)
                for other in context.closure(point):
                    if other in unassigned:
                        unassigned.discard(other)
                        queue.append(other)
            members.sort()
            solution = self._solve_cluster(members, context)
            while solution is None:
                ring = {q for p in members for q in context.closure(p)} \
                    - set(members)
                if not ring or (len(members) + len(ring)
                                > self._REPAIR_MAX_CLUSTER):
                    break
                members = sorted(ring.union(members))
                solution = self._solve_cluster(members, context)
            for point, slot in (solution or {}).items():
                if slot != context.slot(point):
                    context.updates[point] = slot
        return context.updates

    def _solve_cluster(self, members: Sequence[IntVec],
                       context: RepairContext) -> dict[IntVec, int] | None:
        """Backtracking slot search for one cluster, or ``None``.

        Members are assigned most-constrained-first; candidate slots
        try each member's current slot before the others, so a feasible
        cluster keeps as many current slots as possible.  The search is
        bounded by ``_REPAIR_MAX_NODES`` visited nodes — determinism
        over completeness.
        """
        member_set = set(members)
        domains: dict[IntVec, list[int]] = {}
        for point in members:
            fixed = {context.slot(q) for q in context.closure(point)
                     if q not in member_set}
            current = context.slot(point)
            candidates = [s for s in range(self.num_slots) if s not in fixed]
            candidates.sort(key=lambda s: (s != current, s))
            if not candidates:
                return None
            domains[point] = candidates
        order = sorted(members, key=lambda p: (len(domains[p]), p))
        assigned: dict[IntVec, int] = {}
        nodes = 0

        def backtrack(depth: int) -> bool:
            nonlocal nodes
            if depth == len(order):
                return True
            point = order[depth]
            neighbors = [q for q in context.closure(point) if q in member_set]
            for slot in domains[point]:
                nodes += 1
                if nodes > self._REPAIR_MAX_NODES:
                    return False
                if any(assigned.get(q) == slot for q in neighbors):
                    continue
                assigned[point] = slot
                if backtrack(depth + 1):
                    return True
                del assigned[point]
            return False

        if not backtrack(0):
            return None
        return dict(assigned)

    def restrict(self, window: WindowLike | None = None) -> Session:
        """An editable mapping-backed session over a finite window.

        Freezes this schedule's slots over the window into an explicit
        :class:`~repro.core.schedule.MappingSchedule` — the form that
        supports :meth:`edit` — while keeping this session's
        interference model, conflict offsets and config, so a verify of
        the same window answers identically on every lane.  Theorem 1/2
        sessions are immutable; churn workloads restrict first, then
        edit.  A window that fills its bounding box once (a
        :class:`Box`) becomes a slot grid
        (:meth:`~repro.core.schedule.MappingSchedule.from_batch`).
        """
        batch = self._window_batch(window)
        with use_config(self._config):
            slots = _bulk_slots(self._schedule, batch)
        return Session(MappingSchedule.from_batch(batch, slots),
                       config=self._config,
                       window=batch,
                       neighborhood_of=self._neighborhood_of,
                       offsets=self._offsets)

    # -- lifecycle: simulate -------------------------------------------
    def network(self, window: WindowLike | None = None) -> Network:
        """The sensor network over a window, built once per window.

        Interference comes from the model :meth:`verify` reads: a
        Theorem 1 schedule's own map builds
        :meth:`~repro.net.model.Network.homogeneous`, deployment D1
        :meth:`~repro.net.model.Network.from_multi_tiling`, any other
        map one node per point.
        """
        batch = self._window_batch(window)
        key = _window_id(batch)
        network = self._networks.get(key)
        if network is None:
            window_list = batch.points
            model = self._require_neighborhood()
            if model.cover is not None:
                network = Network.from_multi_tiling(window_list,
                                                    model.cover)
            elif isinstance(model.owner, TilingSchedule):
                network = Network.homogeneous(window_list,
                                              model.owner.prototile)
            else:
                network = Network(SensorNode(p, model(p))
                                  for p in window_list)
            self._networks[key] = network
        return network

    def simulate(self, protocol: MACProtocol | str, slots: int, *,
                 window: WindowLike | None = None,
                 network: Network | None = None,
                 packet_interval: int | None = None,
                 seed: int | None = None,
                 energy_model: EnergyModel = UNIT_TX_MODEL,
                 bulk_decisions: bool = True,
                 **protocol_params: Any) -> SimulationMetrics:
        """Run the slotted broadcast simulator over this session's window.

        ``protocol`` is a constructed :class:`MACProtocol` or a
        registered name — ``"schedule"`` resolves to a
        :class:`~repro.net.protocols.ScheduleMAC` over *this session's
        schedule*, and names like ``"aloha"`` take their parameters as
        extra keyword arguments (``simulate("aloha", 90, p=0.2)``).
        ``packet_interval`` defaults to one packet per schedule round.

        Returns the same :class:`SimulationMetrics` the legacy
        ``repro.net.simulate`` produces for the same inputs, bit for bit.
        """
        if network is None:
            network = self.network(window)
        elif window is not None:
            raise ValueError("pass either window= or network=, not both")
        if isinstance(protocol, str):
            protocol = make_protocol(protocol, positions=network.positions,
                                     schedule=self._schedule,
                                     **protocol_params)
        elif protocol_params:
            raise TypeError(
                f"protocol parameters {sorted(protocol_params)} are only "
                f"accepted when the protocol is named by string")
        if packet_interval is None:
            packet_interval = self._schedule.num_slots
        simulator = BroadcastSimulator(
            network, protocol, packet_interval=packet_interval, seed=seed,
            energy_model=energy_model, bulk_decisions=bulk_decisions,
            config=self._config)
        return simulator.run(slots)

    # -- lifecycle: save / load ----------------------------------------
    def save(self, path: os.PathLike | None = None) -> str:
        """Serialize the schedule to JSON (optionally writing a file).

        Round-trips through :mod:`repro.core.serialize`; the window,
        config and caches are session state, not schedule state, and are
        not serialized.
        """
        text = schedule_to_json(self._schedule)
        if path is not None:
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)
        return text

    @classmethod
    def load(cls, source: str | os.PathLike, *,
             config: EngineConfig | None = None,
             window: WindowLike | None = None,
             neighborhood_of: NeighborhoodFn | None = None,
             offsets: Iterable[IntVec] | None = None) -> Session:
        """Rebuild a session from :meth:`save` output.

        ``source`` is the JSON text itself, or an :class:`os.PathLike`
        pointing at a file of it (a plain ``str`` is always treated as
        JSON — wrap file names in :class:`pathlib.Path`).

        Raises:
            CorruptSessionError: on truncated or garbage input — one
                typed error carrying the file path (for path sources)
                and the reason, instead of the raw ``JSONDecodeError``
                / ``KeyError`` the parser would leak.
        """
        if isinstance(source, os.PathLike):
            path = str(os.fspath(source))
            with open(source, "r", encoding="utf-8") as handle:
                text = handle.read()
        else:
            path = None
            text = source
        return cls(schedule_from_json(text, path=path), config=config,
                   window=window, neighborhood_of=neighborhood_of,
                   offsets=offsets)
