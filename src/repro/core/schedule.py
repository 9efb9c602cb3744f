"""Deterministic periodic broadcast schedules and their verification.

A schedule assigns each sensor (lattice point) a slot ``k`` in
``{0, ..., m-1}``; the sensor may broadcast at time ``t`` iff
``t = k (mod m)``.  (The paper indexes slots ``1..m``; we use ``0..m-1``
throughout the library and ``1..m`` only when rendering figures.)

A schedule is *collision-free* when no two distinct sensors with
intersecting interference ranges share a slot.  For sensors at ``x`` and
``y`` with neighborhoods ``x + N_x`` and ``y + N_y`` the ranges intersect
iff ``y - x`` lies in the difference set ``N_x - N_y``, so verification
over a window costs ``O(|window| * |offsets|)`` instead of comparing all
pairs.

Verification comes in three speeds.  :func:`find_collisions` /
:func:`verify_collision_free` rescan a whole window (on the bulk
engine, sharded across the engine's threads when enabled).  Under *churn* —
repeated small edits to a schedule — a :class:`VerificationCache`
tracks one window and, given the :class:`ScheduleDelta` describing an
edit (:meth:`MappingSchedule.with_updates`), re-verifies only the dirty
region: the edited points dilated by the conflict-offset radius.  And
for lattice-periodic schedules, a
:class:`~repro.core.certify.PeriodicCertificate` decides every window
from one fundamental-domain scan; :meth:`repro.api.Session.verify`
answers a collision-free schedule from it in O(1).  All speeds produce
identical collision lists.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from collections.abc import Callable, Iterable, Mapping, Sequence
from dataclasses import dataclass
from functools import lru_cache
from operator import add, itemgetter, sub
from typing import NamedTuple

import numpy as np

from repro.engine.collisions import (
    _differences,
    offset_neighbours,
    scan_collisions,
    scan_collisions_touching,
    scan_grid_touching,
)
from repro.engine.encode import BoxEncoder, PointBatch
from repro.engine.slots import _MAX_COORD, CosetTable
from repro.tiles.prototile import Prototile
from repro.tiling.base import Tiling
from repro.tiling.multi import MultiTiling
from repro.utils.vectors import IntVec, as_intvec, box_points, vadd, vsub
from repro.utils.validation import require

__all__ = [
    "Schedule",
    "MappingSchedule",
    "TilingSchedule",
    "MultiTilingSchedule",
    "Collision",
    "Interference",
    "ScheduleDelta",
    "VerificationCache",
    "RepairContext",
    "conflict_offsets",
    "find_collisions",
    "verify_collision_free",
]

NeighborhoodFn = Callable[[IntVec], frozenset[IntVec]]


class Schedule:
    """Base class: a periodic slot assignment for lattice points."""

    def __init__(self, num_slots: int):
        require(num_slots >= 1, "a schedule needs at least one slot")
        self.num_slots = num_slots
        # Last-window slot buckets for senders_at; see slot_buckets.
        self._bucket_cache: tuple[tuple[IntVec, ...],
                                  dict[int, list[IntVec]]] | None = None

    def slot_of(self, point: Sequence[int]) -> int:
        """Slot of the sensor at ``point`` (in ``0..num_slots-1``)."""
        raise NotImplementedError

    def slots_of(self, points: Iterable[Sequence[int]]) -> list[int]:
        """Slots of many sensors at once.

        Semantically ``[self.slot_of(p) for p in points]``; subclasses
        with coset structure dispatch to the vectorized engine kernel.
        """
        return [self.slot_of(p) for p in points]

    def may_send(self, point: Sequence[int], time: int) -> bool:
        """True when the sensor at ``point`` owns time step ``time``."""
        return time % self.num_slots == self.slot_of(point)

    def slot_buckets(self,
                     points: Iterable[Sequence[int]],
                     ) -> dict[int, list[IntVec]]:
        """Window points grouped by slot, in window order.

        Computed with one bulk ``slots_of`` pass and cached for the most
        recent window, so a simulation querying :meth:`senders_at` slot
        after slot over the same window pays the assignment cost once
        instead of one ``O(|window|)`` scan per query.  Callers must not
        mutate the returned lists.
        """
        window = tuple(as_intvec(p) for p in points)
        cached = self._bucket_cache
        if cached is not None and cached[0] == window:
            return cached[1]
        buckets: dict[int, list[IntVec]] = {}
        for point, slot in zip(window, self.slots_of(window)):
            buckets.setdefault(slot, []).append(point)
        self._bucket_cache = (window, buckets)
        return buckets

    def senders_at(self, time: int,
                   points: Iterable[Sequence[int]]) -> list[IntVec]:
        """The subset of ``points`` scheduled at the given time step."""
        slot = time % self.num_slots
        return list(self.slot_buckets(points).get(slot, []))


#: Point lists up to this long are looked up on a slot grid one point
#: at a time: validating them into a batch costs more than the
#: arithmetic.
_SCALAR_POINTS = 8

_INT64_MAX = int(np.iinfo(np.int64).max)


class MappingSchedule(Schedule):
    """A finite schedule backed by an explicit point -> slot mapping.

    Produced by the graph-coloring baselines and by restriction of an
    infinite schedule to a finite region.  The table takes one of two
    forms, chosen by its content.  The constructor keeps a dict.
    :meth:`from_batch` lays a domain that fills its bounding box exactly
    once out as a *slot grid*: the box (a
    :class:`~repro.engine.encode.BoxEncoder`) and a read-only row-major
    int64 slot array, so a restricted ``Box`` costs one array instead of
    a tuple and a dict entry per sensor.  Both forms answer every query
    identically.
    """

    def __init__(self, assignment: Mapping[IntVec, int]):
        self._adopt(dict(assignment))

    def _adopt(self, assignment: dict[IntVec, int]) -> None:
        require(len(assignment) > 0, "assignment must not be empty")
        require(min(assignment.values()) >= 0, "slots must be nonnegative")
        super().__init__(max(assignment.values()) + 1)
        self._assignment: dict[IntVec, int] | None = assignment
        self._box: BoxEncoder | None = None
        self._grid: np.ndarray | None = None
        # Domain points bucketed by slot (sorted order), built lazily by
        # _domain_buckets and derived incrementally by with_updates.
        self._domain_bucket_cache: dict[int, list[IntVec]] | None = None

    @classmethod
    def _of_dict(cls, assignment: dict[IntVec, int]) -> MappingSchedule:
        """The dict form over ``assignment`` itself (not a copy)."""
        schedule = cls.__new__(cls)
        schedule._adopt(assignment)
        return schedule

    @classmethod
    def _of_grid(cls, box: BoxEncoder, grid: np.ndarray) -> MappingSchedule:
        """The grid form over ``grid`` (nonnegative, made read-only)."""
        schedule = cls.__new__(cls)
        Schedule.__init__(schedule, int(grid.max()) + 1)
        grid.setflags(write=False)
        schedule._assignment = None
        schedule._box = box
        schedule._grid = grid
        schedule._domain_bucket_cache = None
        return schedule

    @classmethod
    def from_batch(cls, batch: PointBatch,
                   slots: Sequence[int] | np.ndarray) -> MappingSchedule:
        """The schedule giving point ``i`` of ``batch`` slot ``slots[i]``.

        A batch that fills its bounding box exactly once (``dense``,
        every coordinate below ``2**40``) with plain-int slots, or an
        integer array whose dtype casts safely to int64, becomes a slot
        grid.  Anything else becomes the dict ``dict(zip(batch.points,
        slots))``: a repeated point keeps its last slot, and an array's
        slots are stored as ``tolist()`` gives them (a float array keeps
        its floats).

        Raises:
            ValueError: for an empty batch, a negative slot, or a slot
                count other than the point count.
        """
        require(len(slots) == len(batch), "need one slot per point")
        fits = len(batch) > 0 and batch.dense \
            and batch.magnitude < _MAX_COORD
        values = None
        if isinstance(slots, np.ndarray):
            if fits and slots.dtype.kind in "iu" \
                    and np.can_cast(slots.dtype, np.int64):
                values = slots.astype(np.int64)
            else:
                slots = slots.tolist()
        elif fits and set(map(type, slots)) <= {int}:
            try:
                values = np.array(slots, dtype=np.int64)
            except OverflowError:
                pass
        if values is None:
            return cls._of_dict(dict(zip(batch.points, slots)))
        require(int(values.min()) >= 0, "slots must be nonnegative")
        return cls._of_grid(BoxEncoder(batch), batch.on_grid(values).ravel())

    def slot_of(self, point: Sequence[int]) -> int:
        key = as_intvec(point)
        if self._grid is None:
            slot = self._assignment.get(key)
        else:
            position = self._box.position(key)
            slot = None if position is None else self._grid.item(position)
        if slot is None:
            raise KeyError(f"point {key} is not covered by this schedule")
        return slot

    def slots_of(self, points: Iterable[Sequence[int]]) -> list[int]:
        """Slots of a window validated once.

        The dict form makes one dict probe per point.  The grid form
        looks a short list of integer tuples up point by point, and any
        other window with one bounds-checked gather.
        """
        if self._grid is None:
            try:
                return list(map(self._assignment.__getitem__,
                                PointBatch.of(points).points))
            except KeyError as error:
                raise KeyError(f"point {error.args[0]} is not covered by "
                               f"this schedule") from None
        if type(points) in (list, tuple) and len(points) <= _SCALAR_POINTS:
            slots = self._scalar_slots(points)
            if slots is not None:
                return slots
        return self._gather(PointBatch.of(points)).tolist()

    def _scalar_slots(self, points: Sequence) -> list[int] | None:
        """Grid slots of a few points, or ``None`` unless every point is
        a tuple of plain ints of the grid's dimension (the points a batch
        takes as they are)."""
        box = self._box
        for point in points:
            if type(point) is not tuple or len(point) != box.dimension \
                    or not all(type(x) is int for x in point):
                return None
        slots = []
        for point in points:
            position = box.position(point)
            if position is None:
                raise KeyError(
                    f"point {point} is not covered by this schedule")
            slots.append(self._grid.item(position))
        return slots

    def _gather(self, batch: PointBatch) -> np.ndarray:
        """Grid slots of a batch as an int64 array (read-only when it is
        the grid itself), or the ``KeyError`` of its first point outside
        the box."""
        box, grid = self._box, self._grid
        array = batch.array
        if not len(batch):
            return np.zeros(0, dtype=np.int64)
        if array is not None and array.shape[1] == box.dimension:
            if len(array) == len(grid) and batch.row_major \
                    and (batch.lo, batch.hi) == (box.lo, box.hi):
                return grid
            inside = ((array >= box.lo) & (array <= box.hi)).all(axis=1)
            if inside.all():
                return grid[box.keys_array(array)]
            missing = int(np.argmin(inside))
        else:
            missing = next(i for i, point in enumerate(batch.points)
                           if box.position(point) is None)
        raise KeyError(f"point {batch.points[missing]} is not covered by "
                       f"this schedule")

    @property
    def points(self) -> list[IntVec]:
        """The finite domain of the schedule, sorted."""
        if self._grid is None:
            return sorted(self._assignment)
        return list(box_points(self._box.lo, self._box.hi))

    @property
    def dimension(self) -> int:
        """The dimension of the domain's points."""
        if self._grid is None:
            return len(next(iter(self._assignment)))
        return self._box.dimension

    def used_slots(self) -> int:
        """Number of distinct slots actually used."""
        if self._grid is None:
            return len(set(self._assignment.values()))
        return len(np.unique(self._grid))

    def _sorted_items(self) -> list[tuple[IntVec, int]]:
        """``(point, slot_of(point))`` over the domain, sorted by point."""
        if self._grid is None:
            return sorted((point, self.slot_of(point))
                          for point in self._assignment)
        return list(zip(self.points, self._grid.tolist()))

    def _covers(self, point: IntVec) -> bool:
        if self._grid is None:
            return point in self._assignment
        return self._box.position(point) is not None

    def with_updates(self, updates: Mapping[Sequence[int], int],
                     ) -> ScheduleDelta:
        """A new schedule with some slots reassigned (or points added).

        The receiver is left untouched; the returned
        :class:`ScheduleDelta` carries the new schedule together with
        the set of points whose slot actually changed — the dirty set
        that :meth:`VerificationCache.apply` re-verifies incrementally.
        No-op entries (a point already on the requested slot) are
        excluded from the dirty set.  A grid stays a grid (a copy of
        the slot array) unless an update leaves the box or its slot is
        not a plain int of int64 range; the new schedule then has the
        dict form.
        """
        if self._grid is not None:
            delta = self._grid_updates(updates)
            if delta is not None:
                return delta
            new_assignment = dict(self._sorted_items())
        else:
            new_assignment = dict(self._assignment)
        changed: set[IntVec] = set()
        for point, slot in updates.items():
            key = as_intvec(point)
            require(slot >= 0, "slots must be nonnegative")
            if new_assignment.get(key) != slot:
                new_assignment[key] = slot
                changed.add(key)
        schedule = MappingSchedule._of_dict(new_assignment)
        self._seed_domain_buckets(schedule, changed)
        return ScheduleDelta(base=self, schedule=schedule,
                             changed=frozenset(changed))

    def _grid_updates(self, updates: Mapping[Sequence[int], int],
                      ) -> ScheduleDelta | None:
        """:meth:`with_updates` on the slot grid, or ``None`` when an
        update leaves the box or its slot is not a plain int of int64
        range."""
        box, grid = self._box, self._grid
        cells: list[tuple[int, IntVec, int]] = []
        for point, slot in updates.items():
            key = as_intvec(point)
            require(slot >= 0, "slots must be nonnegative")
            position = box.position(key)
            if position is None or type(slot) is not int \
                    or slot > _INT64_MAX:
                return None
            if grid.item(position) != slot:
                cells.append((position, key, slot))
        if cells:
            grid = grid.copy()
            for position, _, slot in cells:
                grid[position] = slot
        changed = {key for _, key, _ in cells}
        schedule = MappingSchedule._of_grid(box, grid)
        self._seed_domain_buckets(schedule, changed)
        return ScheduleDelta(base=self, schedule=schedule,
                             changed=frozenset(changed))

    def _domain_buckets(self) -> dict[int, list[IntVec]]:
        """Domain points grouped by slot (each bucket sorted), cached."""
        if self._domain_bucket_cache is None:
            buckets: dict[int, list[IntVec]] = {}
            if self._grid is None:
                for point in self.points:
                    buckets.setdefault(self._assignment[point],
                                       []).append(point)
            else:
                for point, slot in self._sorted_items():
                    buckets.setdefault(slot, []).append(point)
            self._domain_bucket_cache = buckets
        return self._domain_bucket_cache

    def _seed_domain_buckets(self, child: MappingSchedule,
                             changed: set[IntVec]) -> None:
        """Derive the child's domain buckets by moving the edited points.

        Only when this schedule's buckets are already built and the edit
        adds no new points (so both domains — and the sorted bucket
        order — coincide); otherwise the child rebuilds lazily.  This is
        the ScheduleDelta form of bucket invalidation: the stale buckets
        never migrate, only a corrected copy does.
        """
        source = self._domain_bucket_cache
        if source is None or not all(map(self._covers, changed)):
            return
        derived = {slot: list(members) for slot, members in source.items()}
        for point in changed:
            old_slot = self.slot_of(point)
            derived[old_slot].remove(point)
            if not derived[old_slot]:
                del derived[old_slot]
            insort(derived.setdefault(child.slot_of(point), []), point)
        child._domain_bucket_cache = derived

    def senders_at(self, time: int,
                   points: Iterable[Sequence[int]] | None = None,
                   ) -> list[IntVec]:
        """Senders at a time step; ``points=None`` means the whole domain.

        The domain query runs off the precomputed per-slot buckets —
        ``O(|answer|)`` instead of an ``O(|domain|)`` scan per slot.
        """
        if points is not None:
            return super().senders_at(time, points)
        slot = time % self.num_slots
        return list(self._domain_buckets().get(slot, []))


class TilingSchedule(Schedule):
    """The Theorem 1 schedule: slots from a tiling of the lattice.

    With ``N = {n_1, ..., n_m}`` (the ``cells`` order) and translate set
    ``T``, the sensor at ``n_k + t`` gets slot ``k``; equivalently
    ``slot_of(x) = index of the cell of x's unique tile decomposition``.
    """

    def __init__(self, tiling: Tiling, cells: Sequence[IntVec] | None = None):
        prototile = tiling.prototile
        if cells is None:
            cells = prototile.sorted_cells()
        else:
            cells = [as_intvec(c) for c in cells]
            require(set(cells) == set(prototile.cells),
                    "cells must enumerate the prototile exactly")
        super().__init__(len(cells))
        self.tiling = tiling
        self.cells = list(cells)
        self._slot_by_cell = {cell: k for k, cell in enumerate(cells)}
        self._slot_table: CosetTable | None = None
        self._slot_table_ready = False

    def slot_of(self, point: Sequence[int]) -> int:
        _, cell = self.tiling.decompose(point)
        return self._slot_by_cell[cell]

    def slots_of(self, points: Iterable[Sequence[int]]) -> list[int]:
        table = self._coset_table()
        if table is None:
            return [self.slot_of(p) for p in PointBatch.of(points).points]
        return table.lookup(points)

    def _coset_table(self) -> CosetTable | None:
        if not self._slot_table_ready:
            structure = self.tiling.coset_structure()
            if structure is not None:
                period, cell_by_representative = structure
                self._slot_table = CosetTable(
                    period,
                    {representative: self._slot_by_cell[cell]
                     for representative, cell
                     in cell_by_representative.items()})
            self._slot_table_ready = True
        return self._slot_table

    @property
    def prototile(self) -> Prototile:
        return self.tiling.prototile

    def neighborhood_of(self, point: Sequence[int]) -> frozenset[IntVec]:
        """Homogeneous interference set ``point + N``."""
        return self.prototile.translate(as_intvec(point))

    def slot_class_translations(self, slot: int, lo: Sequence[int],
                                hi: Sequence[int]) -> list[IntVec]:
        """Senders of a slot inside a box: the set ``n_slot + T``.

        Figure 3 observes that the senders of any one slot, together with
        their neighborhoods, again form a tiling of the lattice — this
        accessor exposes the senders so tests can verify that claim.
        """
        cell = self.cells[slot]
        return [vadd(t, cell)
                for t in self.tiling.translations_in_box(lo, hi)]


class MultiTilingSchedule(Schedule):
    """The Theorem 2 schedule for multi-prototile tilings.

    Let ``N = N_1 | ... | N_n = {n_1, ..., n_m}``.  For each prototile
    ``N_l`` the sensors at ``n_k + T_l`` are scheduled at slot ``k``
    whenever ``n_k`` belongs to ``N_l``: i.e. a sensor's slot is the index
    of its cell (within its covering tile) in the union enumeration.
    """

    def __init__(self, multi: MultiTiling,
                 cells: Sequence[IntVec] | None = None):
        union = multi.union_prototile()
        if cells is None:
            cells = union.sorted_cells()
        else:
            cells = [as_intvec(c) for c in cells]
            require(set(cells) == set(union.cells),
                    "cells must enumerate the union of the prototiles")
        super().__init__(len(cells))
        self.multi = multi
        self.cells = list(cells)
        self._slot_by_cell = {cell: k for k, cell in enumerate(cells)}
        self._slot_table: CosetTable | None = None

    def slot_of(self, point: Sequence[int]) -> int:
        _, _, cell = self.multi.decompose(point)
        return self._slot_by_cell[cell]

    def slots_of(self, points: Iterable[Sequence[int]]) -> list[int]:
        return self._coset_table().lookup(points)

    def _coset_table(self) -> CosetTable:
        if self._slot_table is None:
            period, cell_by_representative = self.multi.coset_structure()
            self._slot_table = CosetTable(
                period,
                {representative: self._slot_by_cell[cell]
                 for representative, cell in cell_by_representative.items()})
        return self._slot_table

    def neighborhood_of(self, point: Sequence[int]) -> frozenset[IntVec]:
        """Deployment-D1 interference set of the sensor at ``point``."""
        return self.multi.neighborhood_of(point)


# ----------------------------------------------------------------------
# Verification
# ----------------------------------------------------------------------
Collision = tuple[IntVec, IntVec]


@dataclass(frozen=True)
class ScheduleDelta:
    """One schedule edit: ``base`` became ``schedule``.

    ``changed`` holds exactly the points whose slot differs between the
    two — the dirty set incremental verification re-checks.  Produced by
    :meth:`MappingSchedule.with_updates`; any code constructing deltas
    by hand must uphold the same contract (``base`` and ``schedule``
    agree everywhere outside ``changed``), since
    :meth:`VerificationCache.apply` trusts it.
    """

    base: Schedule
    schedule: Schedule
    changed: frozenset[IntVec]


def conflict_offsets(prototiles: Iterable[Prototile]) -> frozenset[IntVec]:
    """All nonzero offsets ``y - x`` at which two sensors *could* conflict.

    Sensors at ``x`` (type ``N_k``) and ``y`` (type ``N_l``) have
    intersecting ranges iff ``y - x`` is in ``N_k - N_l``; the union over
    all type pairs bounds the search neighborhood for verification.

    ``prototiles`` may be any iterable (including a one-shot generator);
    it is materialized before the pairwise loop.

    Raises:
        ValueError: if ``prototiles`` is empty.
    """
    tiles = list(prototiles)
    if not tiles:
        raise ValueError("need at least one prototile")
    return frozenset(_sorted_offsets(
        tuple(tile.cells for tile in tiles), tiles[0].dimension))


@lru_cache(maxsize=64)
def _sorted_offsets(cell_sets: tuple[frozenset[IntVec], ...],
                    dimension: int) -> tuple[IntVec, ...]:
    """Sorted nonzero differences between the cell sets, built once."""
    offsets = {vsub(p, q) for a in cell_sets for b in cell_sets
               for p in a for q in b}
    offsets.discard((0,) * dimension)
    return tuple(sorted(offsets))


class Interference(NamedTuple):
    """A session's interference model, derived once from its map.

    Two sensors of a Theorem 1/2 schedule collide exactly when they
    share a slot and ``y - x`` lies in ``N_k - N_l`` (arXiv:0806.1271),
    so the model is the *shape classes* (neighbourhoods rebased to the
    origin), how a point's class is found, and the conflict offsets.
    Every verify lane, the repair closures, the session's network and
    the wire read it; it is itself a ``NeighborhoodFn``.  The stock
    ``neighborhood_of`` of a :class:`TilingSchedule` (one shape), a
    :class:`MultiTilingSchedule` or a
    :class:`~repro.tiling.multi.MultiTiling` (deployment D1: a class
    per prototile, read from the cover table) is *recognised*; any
    other map, an overriding method included, is classified per window
    by rebasing each point's neighbourhood.
    """

    neighborhood_of: NeighborhoodFn
    #: The schedule or tiling of a recognised map, else ``None``.
    owner: object | None
    #: The shape classes of a recognised map, else ``None``.
    shapes: tuple[frozenset[IntVec], ...] | None
    #: The multi-tiling whose cover table classifies points (D1).
    cover: MultiTiling | None
    #: Explicit offsets exactly as passed, else those of ``shapes``
    #: (:meth:`offsets_of`); ``None`` when they depend on the window.
    offsets: Sequence[IntVec] | None
    #: The positive half of ``offsets``, sorted and unique.
    positive: tuple[IntVec, ...] | None

    def __call__(self, point: Sequence[int]) -> frozenset[IntVec]:
        return self.neighborhood_of(point)

    @classmethod
    def of(cls, neighborhood_of: NeighborhoodFn,
           offsets: Iterable[IntVec] | None = None) -> Interference:
        """The model of a map, with explicit ``offsets`` if given; a
        model comes back unchanged unless the offsets differ."""
        model = neighborhood_of
        if not isinstance(model, Interference):
            owner = getattr(neighborhood_of, "__self__", None)
            method = getattr(neighborhood_of, "__func__", None)
            shapes = cover = None
            if isinstance(owner, TilingSchedule) \
                    and method is TilingSchedule.neighborhood_of:
                shapes = (owner.prototile.cells,)
            elif isinstance(owner, MultiTilingSchedule) \
                    and method is MultiTilingSchedule.neighborhood_of:
                cover = owner.multi
            elif isinstance(owner, MultiTiling) \
                    and method is MultiTiling.neighborhood_of:
                cover = owner
            else:
                owner = None
            if cover is not None:
                shapes = tuple(tile.cells for tile in cover.prototiles)
            derived = (None, None) if shapes is None else cls.offsets_of(
                shapes, len(next(iter(shapes[0]))))
            model = cls(neighborhood_of, owner, shapes, cover, *derived)
        if offsets is None or offsets is model.offsets:
            return model
        offsets = list(offsets)
        positive = {delta for delta in map(as_intvec, offsets)
                    if delta > (0,) * len(delta)}
        return model._replace(offsets=offsets,
                              positive=tuple(sorted(positive)))

    @staticmethod
    @lru_cache(maxsize=64)
    def offsets_of(shapes: tuple[frozenset[IntVec], ...], dimension: int,
                   ) -> tuple[tuple[IntVec, ...], tuple[IntVec, ...]]:
        """``(offsets, positive)`` of some shape classes: the nonzero
        differences ``S_a - S_b``, each shape taken with the origin."""
        origin = (0,) * dimension
        unique = {frozenset(shape | {origin}) for shape in shapes}
        offsets = _sorted_offsets(tuple(sorted(unique, key=sorted)),
                                  dimension)
        return offsets, offsets[bisect_right(offsets, origin):]

    def classify(self, points,
                 ) -> tuple[Sequence[frozenset[IntVec]], np.ndarray]:
        """``(shapes, shape_ids)`` of a window, the ids an intp array;
        an unrecognised map lists the window's classes as first seen."""
        batch = PointBatch.of(points)
        if self.cover is not None:
            return self.shapes, self.cover.prototile_index_array(batch)
        if self.shapes is not None:
            return self.shapes, np.zeros(len(batch), dtype=np.intp)
        shapes: list[frozenset[IntVec]] = []
        shape_ids = []
        index: dict[frozenset[IntVec], int] = {}
        for point in batch.points:
            shape = frozenset(vsub(cell, point)
                              for cell in self.neighborhood_of(point))
            shape_id = index.setdefault(shape, len(shapes))
            if shape_id == len(shapes):
                shapes.append(shape)
            shape_ids.append(shape_id)
        return shapes, np.asarray(shape_ids, dtype=np.intp)

    def window_offsets(self, shapes: Sequence[frozenset[IntVec]],
                       dimension: int,
                       ) -> tuple[Sequence[IntVec], tuple[IntVec, ...]]:
        """``(offsets, positive)`` over a window of these classes."""
        if self.offsets is not None:
            return self.offsets, self.positive
        return self.offsets_of(tuple(shapes), dimension)


def _bulk_slots(schedule: Schedule, points) -> np.ndarray:
    """Slots of a window as an int64 array: the one internal lookup.

    ``schedule`` is duck-typed; only ``slot_of`` is required.  Theorem
    1/2 schedules answer from their coset table on the batch array,
    a slot grid with one gather; anything else through its
    ``slots_of`` (or ``slot_of`` per point).
    """
    batch = PointBatch.of(points)
    if isinstance(schedule, (TilingSchedule, MultiTilingSchedule)):
        table = schedule._coset_table()
        if table is not None:
            return table.lookup_array(batch)
    if isinstance(schedule, MappingSchedule) and schedule._grid is not None:
        return schedule._gather(batch)
    bulk = getattr(schedule, "slots_of", None)
    if bulk is not None:
        return np.asarray(bulk(batch), dtype=np.int64)
    return np.asarray([schedule.slot_of(p) for p in batch.points],
                      dtype=np.int64)


def _slot_list(schedule: Schedule, points: list[IntVec]) -> list[int]:
    """Slots of a few window points: a slot grid answers point by point,
    anything else through :func:`_bulk_slots`."""
    if isinstance(schedule, MappingSchedule) and schedule._grid is not None:
        return schedule.slots_of(points)
    return _bulk_slots(schedule, points).tolist()


def find_collisions(schedule: Schedule,
                    points: Iterable[Sequence[int]],
                    neighborhood_of: NeighborhoodFn,
                    offsets: Iterable[IntVec] | None = None,
                    ) -> list[Collision]:
    """All colliding sensor pairs among ``points`` under the schedule.

    A pair ``(x, y)`` collides when the sensors share a slot and their
    interference ranges intersect — the exact condition the paper's
    schedules must avoid.  The scan runs on the bulk engine
    (:mod:`repro.engine.collisions`): vectorized with numpy, sharded
    across the engine's thread pool when enabled, with identical
    results on every path.

    Args:
        schedule: slot assignment to check.
        points: the sensors (finite window of the lattice).
        neighborhood_of: maps a sensor to its interference set (pass the
            schedule's ``neighborhood_of`` for Theorem 1/2 schedules).
        offsets: optional candidate conflict offsets; computed from the
            neighborhoods of the points when omitted.  Any iterable is
            accepted — a one-shot generator is materialized up front, so
            it is scanned in full for every point.

    Returns:
        The colliding pairs, each ordered ``x < y`` and the list sorted —
        a canonical order independent of worker count and input
        ordering.
    """
    batch = PointBatch.of(points)
    if not len(batch):
        return []
    model = Interference.of(neighborhood_of, offsets)
    shapes, shape_ids = model.classify(batch)
    offset_list, _ = model.window_offsets(shapes, batch.dimension)
    return scan_collisions(batch, _bulk_slots(schedule, batch), shape_ids,
                           shapes, offset_list)


def verify_collision_free(schedule: Schedule,
                          points: Iterable[Sequence[int]],
                          neighborhood_of: NeighborhoodFn,
                          offsets: Iterable[IntVec] | None = None,
                          ) -> bool:
    """True when no pair of sensors in ``points`` collides."""
    return not find_collisions(schedule, points, neighborhood_of, offsets)


class VerificationCache:
    """Incremental collision verification for one sensor window.

    The cache normalizes the window once — the point index,
    interference shape classes and conflict offsets — and remembers the
    full collision list of the schedule it tracks.  A dense window in
    row-major order (a :class:`~repro.api.Box`) is indexed by box
    arithmetic: point ``k`` sits at grid position ``k``, so the cache
    keeps no point tuples.  Any other window keeps a first-occurrence
    dict and per-point occurrence lists.  After
    an edit, :meth:`apply` takes the :class:`ScheduleDelta` and
    re-verifies only the *dirty region* (the edited points dilated by
    the conflict-offset radius) in ``O(|edit| * |offsets| * log
    |collisions|)`` time plus one copy of the collision list, instead
    of the ``O(|window| * |offsets|)`` full rescan — while producing a
    collision list identical to :func:`find_collisions` on the edited
    schedule.

    The window geometry (``neighborhood_of`` and the offsets) is fixed
    at construction: deltas reassign slots, never interference ranges.
    """

    def __init__(self, schedule: Schedule,
                 points: Iterable[Sequence[int]],
                 neighborhood_of: NeighborhoodFn,
                 offsets: Iterable[IntVec] | None = None):
        batch = PointBatch.of(points)
        require(len(batch) > 0,
                "a verification cache needs a nonempty window")
        self._batch = batch
        model = Interference.of(neighborhood_of, offsets)
        self._shapes, shape_ids = model.classify(batch)
        self._shape_ids = shape_ids.tolist()
        self._offsets, self._positive = model.window_offsets(
            self._shapes, batch.dimension)
        self._grid: BoxEncoder | None = None
        self._index_of: dict[IntVec, int] = {}
        self._occurrences: dict[IntVec, list[int]] = {}
        if batch.row_major and batch.magnitude < _MAX_COORD:
            self._grid = BoxEncoder(batch)
        else:
            for i, point in enumerate(batch.points):
                self._index_of.setdefault(point, i)
                self._occurrences.setdefault(point, []).append(i)
        self._schedule = schedule
        self._slots: list[int] | None = None
        self._collisions: list[Collision] | None = None

    @property
    def schedule(self) -> Schedule:
        """The schedule whose collisions the cache currently holds."""
        return self._schedule

    def __contains__(self, point: object) -> bool:
        """True when ``point`` is part of the verified window."""
        if self._grid is None:
            return point in self._index_of
        try:
            key = as_intvec(point)
        except TypeError:
            return False
        return self._grid.position(key) is not None

    def touched_in_window(self, changed: Iterable[IntVec]) -> list[IntVec]:
        """The subset of ``changed`` that :meth:`apply` would rescan.

        The single definition of the rescan criterion: callers
        accounting for incremental re-verification cost (how many
        points a delta actually touched in this window) share it with
        :meth:`apply` instead of re-deriving membership.
        """
        return [p for p in changed if p in self]

    def collisions(self) -> list[Collision]:
        """Colliding pairs of the tracked schedule over the window.

        The first call runs the full bulk scan; later calls return the
        cached list (updated incrementally by :meth:`apply`).
        """
        if self._collisions is None:
            slots = _bulk_slots(self._schedule, self._batch)
            self._collisions = scan_collisions(
                self._batch, slots, self._shape_ids, self._shapes,
                self._offsets)
            self._slots = slots.tolist()
        return list(self._collisions)

    def is_collision_free(self) -> bool:
        """True when the tracked schedule has no colliding pair."""
        return not self.collisions()

    def apply(self, delta: ScheduleDelta) -> list[Collision]:
        """Track the delta's schedule, re-verifying only the dirty region.

        The cached pairs with an edited endpoint are dropped and the
        rescanned ones merged in, so the list keeps its sorted order
        without a re-sort.

        Raises:
            ValueError: when ``delta.base`` is not the schedule this
                cache tracks — deltas must be applied in order (or the
                cache rebuilt via :meth:`collisions_for`).
        """
        if delta.base is not self._schedule:
            raise ValueError(
                "delta.base is not the schedule this cache tracks; "
                "apply deltas in edit order or rescan with collisions_for")
        self._schedule = delta.schedule
        if self._collisions is None:
            return self.collisions()
        touched = self.touched_in_window(delta.changed)
        if touched:
            assert self._slots is not None
            for point, slot in zip(touched,
                                   _slot_list(delta.schedule, touched)):
                for i in self._positions(point):
                    self._slots[i] = slot
            touched_set = frozenset(touched)
            self._drop_pairs(touched_set)
            if self._grid is not None:
                found = scan_grid_touching(
                    self._grid, self._slots, self._shape_ids, self._shapes,
                    self._offsets, touched_set)
            else:
                found = scan_collisions_touching(
                    self._batch.points, self._slots, self._shape_ids,
                    self._shapes, self._offsets, touched_set,
                    self._index_of, self._occurrences)
            for pair in found:
                insort(self._collisions, pair)
        return list(self._collisions)

    def _positions(self, point: IntVec) -> Sequence[int]:
        """Window indices of a point of the window (every occurrence)."""
        if self._grid is not None:
            return (self._grid.position(point),)
        return self._occurrences[point]

    def _drop_pairs(self, touched: frozenset[IntVec]) -> None:
        """Remove the cached pairs with an endpoint in ``touched``.

        Every cached pair is ``(x, x + delta)`` for a positive offset
        ``delta``, and the list is sorted: the pairs of ``c`` as the
        left end are one run, found by bisection on the left end; as
        the right end they are the runs equal to ``(c - delta, c)``.
        """
        pairs = self._collisions
        left = itemgetter(0)
        spans = []
        for c in touched:
            spans.append((bisect_left(pairs, c, key=left),
                          bisect_right(pairs, c, key=left)))
            for delta in self._positive:
                x = tuple(map(sub, c, delta))
                if x in touched:
                    continue  # in x's own run
                start = bisect_left(pairs, (x, c))
                if start < len(pairs) and pairs[start] == (x, c):
                    spans.append((start, bisect_right(pairs, (x, c),
                                                      start)))
        for start, stop in sorted(spans, reverse=True):
            del pairs[start:stop]

    def collisions_for(self, schedule: Schedule) -> list[Collision]:
        """The collisions of ``schedule`` over the cached window.

        The tracked schedule answers from the cache; an unknown schedule
        triggers a full rescan and rebinds the cache to it (the
        :class:`ScheduleDelta` path via :meth:`apply` is the incremental
        lane).  Every scan uses the geometry fixed at construction.
        """
        if schedule is not self._schedule:
            self._schedule = schedule
            self._slots = None
            self._collisions = None
        return self.collisions()


class RepairContext:
    """One repair round's view of a verified window.

    It reads the window index, shape classes and current slots of the
    :class:`VerificationCache` the round's verify answered from, so a
    round builds no point -> slot dict and no cover index.  The closure
    of ``x`` is the window points ``y != x`` whose ranges meet ``x``'s,
    ``y - x`` in ``S_x - S_y``: the collision condition without the
    slot test, probed at ``x - delta`` and ``x + delta`` over the
    positive offsets of the window's own shapes (not a session's
    narrower ``offsets=``), ``O(|offsets|)`` per point.  ``updates``
    holds the round's moves, point -> new slot; :meth:`slot` reads
    through them, and the cache keeps the slots it verified.
    """

    def __init__(self, cache: VerificationCache) -> None:
        self.updates: dict[IntVec, int] = {}
        self._cache = cache
        _, self._positive = Interference.offsets_of(
            tuple(cache._shapes), cache._batch.dimension)
        self._differences = _differences(cache._shapes, self._positive)
        self._index = (cache._grid if cache._grid is not None
                       else (cache._index_of, cache._occurrences))
        self._closures: dict[IntVec, list[IntVec]] = {}

    def slot(self, point: IntVec) -> int:
        """The slot of a window point, this round's moves applied."""
        slot = self.updates.get(point)
        if slot is None:
            slot = self._cache._slots[self._cache._positions(point)[0]]
        return slot

    def closure(self, point: IntVec) -> list[IntVec]:
        """The sorted interference closure of a window point (memoised)."""
        partners = self._closures.get(point)
        if partners is None:
            shape_ids, differences = self._cache._shape_ids, self._differences
            k = self._cache._positions(point)[0]
            partners = []
            for delta, i, j in offset_neighbours(self._index, point, k,
                                                 self._positive):
                if j is not None and delta in differences(shape_ids[k],
                                                          shape_ids[j]):
                    partners.append(tuple(map(add, point, delta)))
                if i is not None and delta in differences(shape_ids[i],
                                                          shape_ids[k]):
                    partners.append(tuple(map(sub, point, delta)))
            partners.sort()
            self._closures[point] = partners
        return partners

    def closure_slots(self, point: IntVec) -> dict[int, list[IntVec]]:
        """The closure of ``point`` by current slot, each group sorted."""
        by_slot: dict[int, list[IntVec]] = {}
        for other in self.closure(point):
            by_slot.setdefault(self.slot(other), []).append(other)
        return by_slot
