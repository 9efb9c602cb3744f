"""Certificate verification: O(fundamental domain) instead of O(window).

The paper's Theorem 1/2 schedules are lattice-periodic: the slot (and
the interference shape) of a sensor repeats under the tiling's period
sublattice ``P``, so for any pair ``(x, x + delta)`` and the canonical
representative ``r`` of ``x + P``,

    ``(x, x + delta)`` collides  iff  ``(r, r + delta)`` collides.

Scanning the ``[Z^d : P]`` coset representatives against the
conflict-radius boundary therefore decides collision-freeness of the
*infinite* schedule — every window of every size — in one pass over the
fundamental domain.  :func:`certify_schedule` runs that scan and emits a
:class:`PeriodicCertificate`: its verdict ``collision_free``, and the
colliding ``(representative, offset)`` classes when there are any.
:meth:`repro.api.Session.verify` answers every window of a
collision-free schedule from that verdict in O(1).

Aperiodic :class:`~repro.core.schedule.MappingSchedule` regions have no
period to exploit; :func:`certify_schedule` returns ``None`` and callers
fall back to the full scan.

For windows too large to materialize (10^8+ points),
:func:`stream_box_collisions` scans a box window in bounded memory:
axis-0 slabs plus a conflict-radius halo, each slab a dense
:class:`~repro.engine.encode.PointBatch` verified by the stencil scan of
the bulk engine, results concatenated in canonical order — bit
identical to a one-shot :func:`~repro.core.schedule.find_collisions`
over the whole box.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence

import numpy as np

from repro.core.schedule import (
    Collision,
    Interference,
    MultiTilingSchedule,
    NeighborhoodFn,
    Schedule,
    TilingSchedule,
    _bulk_slots,
    find_collisions,
)
from repro.engine.collisions import (
    StencilPlan,
    _differences,
    _scan_tables,
    scan_box_plan,
)
from repro.engine.encode import PointBatch, box_corners
from repro.engine.slots import _MAX_COORD, CosetTable
from repro.lattice.sublattice import Sublattice
from repro.utils.vectors import IntVec, vadd

__all__ = [
    "PeriodicCertificate",
    "certify_periodic",
    "certify_schedule",
    "stream_box_collisions",
]

#: Default chunk size (points per axis-0 slab) for streamed box scans.
DEFAULT_CHUNK_POINTS = 200_000


class PeriodicCertificate:
    """Verdict of one fundamental-domain scan of a periodic schedule.

    Produced by :func:`certify_schedule` / :func:`certify_periodic`.
    A certificate with no ``colliding_classes`` proves the schedule
    collision-free over *every* window; otherwise every colliding pair
    ``(x, y)`` of any window reduces to the class
    ``(canonical(x), y - x)``.

    Attributes:
        period: the period sublattice the scan quotiented by.
        num_slots: slot count of the certified schedule.
        offsets: the lexicographically positive conflict offsets probed
            from each representative (the certificate's geometry; fixed
            at certification).
        colliding_classes: sorted ``(representative, offset)`` pairs
            whose whole coset collides; empty means collision-free.
        checked_points: lattice points the certifying scan actually
            looked at — the representatives plus one boundary probe per
            (representative, offset).
    """

    def __init__(self, *, period: Sublattice, num_slots: int,
                 offsets: tuple[IntVec, ...],
                 colliding_classes: tuple[tuple[IntVec, IntVec], ...],
                 checked_points: int) -> None:
        self.period = period
        self.num_slots = num_slots
        self.offsets = offsets
        self.colliding_classes = colliding_classes
        self.checked_points = checked_points

    @property
    def collision_free(self) -> bool:
        """True when the certified schedule never collides, anywhere."""
        return not self.colliding_classes

    def __repr__(self) -> str:
        verdict = ("collision-free" if self.collision_free
                   else f"{len(self.colliding_classes)} colliding classes")
        return (f"PeriodicCertificate({verdict}, "
                f"period_index={self.period.index}, "
                f"checked_points={self.checked_points})")


def certify_periodic(schedule: Schedule, period: Sublattice,
                     neighborhood_of: NeighborhoodFn,
                     offsets: Iterable[IntVec] | None = None,
                     ) -> PeriodicCertificate:
    """Certify any schedule that is periodic under ``period``.

    The caller asserts the periodicity contract: for every ``p`` in the
    period, ``slot(x + p) == slot(x)`` *and* the interference shape of
    ``x + p`` equals that of ``x``.  (Theorem 1/2 schedules satisfy it
    by construction; :func:`certify_schedule` is the safe front door
    that checks the structure itself.)  Under that contract a pair
    collides iff its representative class does, so the scan covers one
    canonical representative per coset plus the conflict-radius
    boundary around each.

    The scan runs on arrays: the probes are one broadcast
    ``representatives + offsets`` array (representatives first, then
    the probes row-major), slots and shape ids come back as arrays, and
    one comparison finds the probes that share their representative's
    slot.  Only those go through the shape-difference test in Python.
    A domain whose coordinates reach the engine's int64 bound builds
    its probes as tuples instead, with the same order and verdict.

    Args:
        schedule: the slot assignment (duck-typed; ``slots_of`` /
            ``slot_of`` is all that is required).
        period: the period sublattice.
        neighborhood_of: interference map (pass the schedule's own
            ``neighborhood_of`` for Theorem 1/2 schedules).
        offsets: candidate conflict offsets; derived from the domain's
            interference shapes when omitted.  As with
            :func:`~repro.core.schedule.find_collisions`, an explicit
            narrower set narrows the verdict's scope.
    """
    model = Interference.of(neighborhood_of, offsets)
    representatives = sorted(period.coset_representatives())
    dimension = period.dimension
    positive = model.positive
    if positive is None:
        _, positive = model.window_offsets(
            model.classify(representatives)[0], dimension)
    reach = max((abs(c) for d in positive for c in d), default=0)
    if max(map(max, representatives)) + reach < _MAX_COORD:
        origins = np.asarray(representatives, dtype=np.int64)
        steps = np.asarray(positive, dtype=np.int64).reshape(-1, dimension)
        probes = (origins[:, None] + steps[None, :]).reshape(-1, dimension)
        domain = PointBatch.of(np.concatenate((origins, probes)))
    else:
        domain = PointBatch.of(representatives + [
            vadd(r, d) for r in representatives for d in positive])
    shapes, shape_ids = model.classify(domain)
    slots = _bulk_slots(schedule, domain)
    count = len(representatives)
    # (representative, offset) pairs whose probe shares the slot of its
    # representative, in row-major order.
    rows, columns = np.nonzero(
        slots[count:].reshape(count, len(positive)) == slots[:count, None])
    probe_shapes = shape_ids[count:].reshape(count, len(positive))
    differences = _differences(shapes, positive) if positive else None
    colliding: list[tuple[IntVec, IntVec]] = []
    for i, j in zip(rows.tolist(), columns.tolist()):
        if positive[j] in differences(int(shape_ids[i]),
                                      int(probe_shapes[i, j])):
            colliding.append((representatives[i], positive[j]))
    return PeriodicCertificate(
        period=period, num_slots=schedule.num_slots,
        offsets=positive, colliding_classes=tuple(sorted(colliding)),
        checked_points=len(domain))


def certify_schedule(schedule: Schedule,
                     offsets: Iterable[IntVec] | None = None,
                     ) -> PeriodicCertificate | None:
    """Certificate for a schedule with known periodic structure.

    Returns ``None`` for schedules the certificate layer cannot prove
    periodic — aperiodic :class:`~repro.core.schedule.MappingSchedule`
    regions, tilings without ``coset_structure()``, and subclasses that
    override ``neighborhood_of`` (their
    :class:`~repro.core.schedule.Interference` model has no owner) —
    callers then fall back to the full window scan.
    """
    model = Interference.of(getattr(schedule, "neighborhood_of", None),
                            offsets)
    if model.owner is not schedule:
        return None
    if isinstance(schedule, TilingSchedule):
        structure = schedule.tiling.coset_structure()
        if structure is None:
            return None
        period = structure[0]
    else:
        period = schedule.multi.coset_structure()[0]
    return certify_periodic(schedule, period, model)


class _SlabPlan:
    """What every slab of one streamed box shares, set up once per call.

    Slots and shape ids are gathers from reduced keys
    (:meth:`~repro.engine.slots.CosetTable.box_keys`) into the box part
    of a :class:`~repro.engine.collisions.StencilPlan`, one plan per
    slab height (a stream has at most a few: full slabs and the short
    ones at the top of the box).

    The schedule is periodic under its sublattice, so along axis 0 its
    slot grid repeats every ``P`` rows: the lcm of the slot table's
    :attr:`~repro.engine.slots.CosetTable.row_period` and, when the
    shape table has its own reduction, the shape table's.  When ``P``
    is at most the full slab height ``H`` (its rows plus the halo), the
    plan reduces and gathers one *key grid* at set-up, rows
    ``[lo_0, lo_0 + P + H - 1)`` (no more than the box has), and a slab
    starting at ``first_row`` copies its rows from offset
    ``(first_row - lo_0) mod P`` — so it holds at most two slabs of
    rows.  A longer period reduces each slab's own keys instead.
    Either way a slab costs no point array, no tuple and no grid or
    shift set-up, and each slab is scanned on its own, under its own
    fault seam (:func:`~repro.engine.collisions.scan_box_plan`).
    """

    def __init__(self, table: CosetTable, shape_source: tuple | None,
                 tables, positive: tuple[IntVec, ...],
                 lo: IntVec, hi: IntVec, height: int) -> None:
        self._table = table
        self._slot_values = table.key_values
        self._shape_source = shape_source
        self._tables = tables
        self._positive = positive
        self._inner_lo = lo[1:]
        self._inner_dims = tuple(h - l + 1 for l, h in zip(lo[1:], hi[1:]))
        self._values = table.value_range
        self._plans: dict[int, StencilPlan] = {}
        self._first = lo[0]
        period = table.row_period
        if shape_source is not None and shape_source[0] is not table:
            period = math.lcm(period, shape_source[0].row_period)
        self._period = period
        self._grids = None
        if period <= height:
            rows = min(period + height - 1, hi[0] - lo[0] + 1)
            self._grids = self._gather(lo, (rows,) + self._inner_dims)

    def _gather(self, lo: IntVec, dims: tuple[int, ...]):
        """``(slots, shape ids or None)`` of the box at ``lo``."""
        keys = self._table.box_keys(lo, dims)
        slots = self._slot_values[keys]
        if self._shape_source is None:
            return slots, None
        shape_table, kinds = self._shape_source
        if shape_table is not self._table:
            keys = shape_table.box_keys(lo, dims)
        return slots, kinds[keys]

    def collisions(self, first_row: int, last_row: int,
                   top_row: int) -> list[Collision]:
        """Sorted pairs of the slab ``[first_row, top_row]`` whose left
        endpoint lies in rows ``first_row..last_row``."""
        height = top_row - first_row + 1
        plan = self._plans.get(height)
        if plan is None:
            plan = StencilPlan((height,) + self._inner_dims, self._tables,
                               self._values)
            self._plans[height] = plan
        lo = (first_row,) + self._inner_lo
        if self._grids is None:
            slots, shapes = self._gather(lo, plan.dims)
        else:
            start = (first_row - self._first) % self._period
            rows = slice(start, start + height)
            slots, shapes = self._grids
            slots = slots[rows]
            shapes = None if shapes is None else shapes[rows]
        plan.slots[...] = slots
        if plan.shapes is not None:
            plan.shapes[...] = shapes
        return scan_box_plan(plan, lo, self._positive,
                             last_row - first_row + 1)


def _slab_plan(schedule: Schedule, model: Interference,
               lo: IntVec, hi: IntVec, positive: tuple[IntVec, ...],
               height: int) -> _SlabPlan | None:
    """The slab plan of a stream, or ``None`` when it does not apply.

    It applies to a schedule answering from a coset table, under an
    interference model that recognises its map's shape classes, on a
    box inside the int64 reduction bound and with offsets and shapes
    that fit the stencil scan.  Everything else streams slab by slab
    through :func:`~repro.core.schedule.find_collisions`.  ``height``
    is the full slab height, halo included.
    """
    if not isinstance(schedule, (TilingSchedule, MultiTilingSchedule)):
        return None
    table = schedule._coset_table()
    if table is None or model.shapes is None \
            or max(map(abs, lo + hi)) >= _MAX_COORD:
        return None
    tables = _scan_tables(model.shapes, positive)
    if tables is None or tables.offset_array is None:
        return None
    shape_source = None
    if model.cover is not None and tables.allowed.shape[0] > 1:
        shape_table, kinds = model.cover.prototile_key_table()
        if shape_table.shares_reduction(table):
            shape_table = table
        shape_source = (shape_table, kinds)
    return _SlabPlan(table, shape_source, tables, positive, lo, hi, height)


def stream_box_collisions(schedule: Schedule,
                          lo: Sequence[int], hi: Sequence[int],
                          neighborhood_of: NeighborhoodFn,
                          offsets: Iterable[IntVec] | None = None,
                          chunk_points: int = DEFAULT_CHUNK_POINTS,
                          ) -> list[Collision]:
    """Out-of-core scan of the box window ``[lo, hi]``, chunk by chunk.

    Equivalent — bit for bit — to
    ``find_collisions(schedule, box_points(lo, hi), neighborhood_of)``,
    but only ever materializes one axis-0 slab of about
    ``chunk_points`` points (plus a conflict-radius halo), so 10^8+
    point windows verify in bounded memory.

    Chunking is a tiling of the iteration space, and it is legal
    because a lexicographically positive conflict offset never
    decreases coordinate 0 (every dependence distance along the tiled
    axis is non-negative): every pair's left endpoint falls in exactly
    one slab and its right endpoint within ``halo`` rows above it, so
    scanning each slab extended by the halo and keeping pairs whose
    left endpoint lies in the slab partitions the full result; slabs
    ascend along axis 0, so plain concatenation is already the
    canonical sorted order.

    What the slabs share is hoisted out of the loop: a Theorem 1/2
    schedule under its own (or another tiling's) interference map gets
    a *slab plan* once per call — the memoised pair tables, the kept
    offsets and their shifts, and padded slot and shape-id grids (with
    the worker count) per slab height, their pad written once.  The
    schedule is periodic, so its slot grid repeats every ``P`` rows
    along axis 0; when ``P`` is at most a full slab with its halo, the
    plan reduces one key grid of ``P`` rows plus a slab on open grids
    (:meth:`~repro.engine.slots.CosetTable.box_keys`) and gathers its
    slots and shape ids once, and each slab copies its rows out of it
    (see :class:`_SlabPlan`); a longer period reduces each slab's own
    keys.  Each slab then runs the stencil's offset passes; only
    colliding pairs become tuples.  Every slab is still scanned, under
    the same fault seam (a numpy failure degrades that slab to the
    exact scan with an
    :class:`~repro.engine.collisions.EngineDegradedWarning`) and the
    same worker sharding.  Other schedules, interference maps and
    boxes beyond ``2**40`` verify each slab as a dense
    :class:`~repro.engine.encode.PointBatch` through
    :func:`~repro.core.schedule.find_collisions`.

    Args:
        schedule: slot assignment to check.
        lo, hi: closed box corners (``lo <= hi`` per dimension).
        neighborhood_of: interference map (the schedule's own for
            Theorem 1/2 schedules).
        offsets: conflict offsets valid over the whole box; taken from
            the interference model
            (:class:`~repro.core.schedule.Interference`) when omitted.
            A map the model does not recognise needs them passed
            explicitly: the slab halo comes from the offsets, so they
            must be known before the first slab.
        chunk_points: target points per slab (>= 1); the actual bound
            is one slab of rows plus the halo.
    """
    lo_vec, hi_vec = box_corners(lo, hi)
    if chunk_points < 1:
        raise ValueError("chunk_points must be >= 1")
    model = Interference.of(neighborhood_of, offsets)
    if model.offsets is None:
        raise ValueError(
            f"cannot derive conflict offsets for the interference map "
            f"{model.neighborhood_of!r}; pass offsets= explicitly to "
            f"stream a box window")
    positive = model.positive
    if not positive:
        return []
    # The model's positive offsets are sorted, so the first and last
    # bound coordinate 0.
    halo = positive[-1][0]
    assert positive[0][0] >= 0, "illegal axis-0 tiling"
    slab = 1
    for low, high in zip(lo_vec[1:], hi_vec[1:]):
        slab *= high - low + 1
    rows_per_chunk = max(1, chunk_points // slab)
    plan = _slab_plan(schedule, model, lo_vec, hi_vec, positive,
                      rows_per_chunk + halo)
    collisions: list[Collision] = []
    for first_row in range(lo_vec[0], hi_vec[0] + 1, rows_per_chunk):
        last_row = min(first_row + rows_per_chunk - 1, hi_vec[0])
        top_row = min(last_row + halo, hi_vec[0])
        if plan is not None:
            collisions.extend(plan.collisions(first_row, last_row, top_row))
            continue
        chunk = PointBatch.box((first_row,) + lo_vec[1:],
                               (top_row,) + hi_vec[1:])
        found = find_collisions(schedule, chunk, model)
        collisions.extend(pair for pair in found
                          if pair[0][0] <= last_row)
    return collisions
