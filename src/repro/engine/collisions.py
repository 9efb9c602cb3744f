"""Bulk collision scanning over a finite sensor window.

The scan answers: among ``points`` with known slots, which pairs share a
slot *and* have intersecting interference ranges?  Ranges enter through
*shape classes*: point ``x`` carries shape ``S[shape_ids[x]]`` (its
interference set rebased to the origin), and the ranges of ``x`` and
``y`` intersect iff ``y - x`` lies in the difference set
``S_x - S_y`` — so the whole geometric test collapses to a membership
table over (shape pair, candidate offset).  That table is built once per
``(shapes, offsets)`` and memoised, not once per call.

The scan enumerates, for every lexicographically positive candidate
offset ``delta``, the pairs ``(x, x + delta)`` present in the window,
and keeps those with equal slots and an allowed shape pair.  The result
is a list of ``(x, y)`` pairs with ``x < y``, sorted.  The window, as a
validated :class:`~repro.engine.encode.PointBatch`, selects one of three
paths; no option does:

* **stencil** — a *dense* batch (the points fill their bounding box
  exactly once, such as a :class:`~repro.api.Box`) puts slots and shape
  ids on the box grid.  A point's neighbour at ``delta`` is then a fixed
  index shift, so each offset is one comparison of two shifted slices,
  and only the colliding index pairs are resolved to tuples.
* **sorted keys** — any other batch with int64 coordinates: one
  ``searchsorted`` membership pass per offset over padded
  :class:`~repro.engine.encode.BoxEncoder` keys.
* **exact** — :func:`scan_collisions_touching` with every point
  touched: one dict probe per (point, offset), for the windows the
  int64 kernels cannot represent (coordinates or a padded bounding box
  too large for int64 keys), for windows of more than
  ``_MAX_SHAPE_CLASSES`` shapes, and for calls degraded by a kernel
  failure.

Two scaling layers sit on top of the serial scan:

* **Sharding** (:mod:`repro.engine.parallel`): with workers enabled,
  large scans shard the *offset* axis across the engine's thread pool
  (every shard reads the same grids or presorted key arrays).
  Merging is concatenation followed by the same canonical sort, so the
  result is bit-identical for any worker count.
* **Dirty-region rescans** (:func:`scan_collisions_touching`): after a
  slot edit only pairs with an edited endpoint can change, and every
  such pair lies within one conflict-offset of an edited point — the
  primitive behind incremental verification in
  :class:`repro.core.schedule.VerificationCache`.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Collection, Iterable, Mapping, Sequence
from functools import lru_cache
from operator import add, mul, sub
from typing import NamedTuple

import numpy as np

from repro.engine.encode import (
    _MAX_KEYED_COORD,
    BoxEncoder,
    PointBatch,
    _row_major_strides,
)
from repro.engine.parallel import plan_shards, run_sharded, shard_workers
from repro.faults.injection import consume_numpy_failure
from repro.utils.vectors import IntVec, vsub

__all__ = ["EngineDegradedWarning", "StencilPlan", "offset_neighbours",
           "scan_box_plan", "scan_collisions", "scan_collisions_touching",
           "scan_grid_touching"]

Collision = tuple[IntVec, IntVec]
class EngineDegradedWarning(RuntimeWarning):
    """The numpy kernel failed mid-call and the engine degraded.

    Emitted by :func:`scan_collisions` when the numpy path raises: the
    call is answered by the exact path instead of failing.  Structured —
    ``kernel`` names the failed kernel and ``reason`` carries the
    original error text — so callers (and the chaos oracle) can assert
    on the degradation instead of string-matching a message.  A caller
    that wants the failure instead turns the warning into an error with
    ``warnings.simplefilter("error", EngineDegradedWarning)``; the
    kernel error is then chained as its context.
    """

    def __init__(self, message: str, *, kernel: str, reason: str) -> None:
        super().__init__(message)
        self.kernel = kernel
        self.reason = reason

#: Beyond this many distinct interference shapes the full pair tables
#: (``|shapes|**2`` difference sets) stop paying off: full scans take
#: the exact path and every scan builds difference sets per pair, on
#: demand (see :func:`_scan_tables` and :func:`_differences`).
_MAX_SHAPE_CLASSES = 32

#: (points x offsets) probes below which a sorted-key scan stays serial
#: even when workers are enabled: on 2 threads it is slower at 2^14
#: probes and faster from 2^15.
_MIN_PARALLEL_PROBES = 1 << 15

#: Box cells below which a stencil scan stays serial even when workers
#: are enabled.  A stencil pass costs far less per cell than a sorted
#: probe, so the cut-off counts grid cells: on 2 threads the scan is
#: slower below about 2^16 cells, for any radius or dimension tried.
_MIN_PARALLEL_GRID = 1 << 16

#: Slot comparisons per block of stencil offset passes: large enough
#: that a small grid runs all its offsets in one block, small enough
#: that a block's gathered rows stay a few hundred KiB.
_PASS_BLOCK = 1 << 16


class _PairTables(NamedTuple):
    """The geometric test of one ``(shapes, offsets)`` pair."""

    #: The shape classes the tables were built from.
    shapes: tuple[frozenset[IntVec], ...]
    #: ``differences[a][b]`` is the difference set ``S_a - S_b``.
    differences: list[list[frozenset[IntVec]]]
    #: ``allowed[a, b, j]``: offset ``j`` lies in ``S_a - S_b``.
    allowed: np.ndarray
    #: The offsets as an ``(offsets, d)`` int64 array, or ``None`` when
    #: some offset leaves no int64 headroom (only the exact scan takes
    #: those).
    offset_array: np.ndarray | None
    #: Offset ``j`` is allowed for some shape pair / for every pair.
    some_pair: np.ndarray
    every_pair: np.ndarray
    #: Stencil layouts of the box shapes scanned so far, by extents
    #: (see :func:`_stencil_layout`).
    layouts: dict[tuple[int, ...], _StencilLayout]


@lru_cache(maxsize=64)
def _pair_tables(shapes: tuple[frozenset[IntVec], ...],
                 offsets: tuple[IntVec, ...]) -> _PairTables:
    """Difference sets and the membership table, built on first use."""
    differences = [[frozenset(vsub(p, q) for p in a for q in b)
                    for b in shapes] for a in shapes]
    allowed = np.zeros((len(shapes), len(shapes), len(offsets)), dtype=bool)
    for a, row in enumerate(differences):
        for b, difference in enumerate(row):
            allowed[a, b] = [delta in difference for delta in offsets]
    offset_array = None
    if max(abs(c) for delta in offsets for c in delta) < _MAX_KEYED_COORD:
        offset_array = np.asarray(offsets, dtype=np.int64)
    some_pair = allowed.any(axis=(0, 1))
    every_pair = allowed.all(axis=(0, 1))
    for array in (allowed, offset_array, some_pair, every_pair):
        if array is not None:
            array.setflags(write=False)
    return _PairTables(shapes, differences, allowed, offset_array,
                       some_pair, every_pair, {})


def _scan_tables(shapes: Sequence[frozenset[IntVec]],
                 positive: tuple[IntVec, ...]) -> _PairTables | None:
    """The pair tables of a bulk scan, or ``None`` for a window of more
    than ``_MAX_SHAPE_CLASSES`` shapes (those take the exact path)."""
    if len(shapes) > _MAX_SHAPE_CLASSES:
        return None
    return _pair_tables(tuple(map(frozenset, shapes)), positive)


def scan_collisions(points: Sequence[IntVec] | PointBatch,
                    slots: Sequence[int],
                    shape_ids: Sequence[int],
                    shapes: Sequence[frozenset[IntVec]],
                    offsets: Sequence[IntVec]) -> list[Collision]:
    """All colliding pairs, sorted by ``(x, y)``.

    Args:
        points: the window — a :class:`~repro.engine.encode.PointBatch`
            or any point collection it validates (duplicates follow the
            same once-per-occurrence-of-``x`` semantics as the schedule
            layer).
        slots: slot of each point, aligned with ``points``.
        shape_ids: index into ``shapes`` for each point.
        shapes: origin-rebased interference sets, one per shape class.
        offsets: candidate conflict offsets ``y - x`` to probe.  Offsets
            that are lexicographically nonpositive cannot produce a new
            ``x < y`` pair and are skipped.
    """
    batch = PointBatch.of(points)
    if not len(batch) or not offsets:
        return []
    zero = (0,) * batch.dimension
    positive = _positive_half(offsets, zero)
    if not positive:
        return []
    tables = _scan_tables(shapes, positive)
    collisions = None
    if tables is not None:
        try:
            consume_numpy_failure()
            scan = _scan_dense if batch.dense else _scan_sorted
            collisions = scan(batch, slots, shape_ids, tables, positive)
        except Exception as error:
            _warn_degraded(error)
    if collisions is None:
        # Every pair has its left end in the window: the dirty-region
        # rescan with every point touched is the full scan.
        points = batch.points
        return scan_collisions_touching(
            points, np.asarray(slots).tolist(),
            np.asarray(shape_ids).tolist(), shapes, positive, points)
    collisions.sort()
    return collisions


def _positive_half(offsets: Iterable[IntVec],
                   zero: IntVec) -> tuple[IntVec, ...]:
    """The lexicographically positive offsets, each once, in order: a
    repeated offset would probe, and report, every pair it finds
    twice."""
    return tuple(dict.fromkeys(delta for delta in offsets if delta > zero))


def _warn_degraded(error: Exception) -> None:
    """Report a numpy kernel failure the exact scan is answering for."""
    warnings.warn(
        EngineDegradedWarning(
            f"numpy collision scan failed ({error}); degrading to the "
            f"exact scan",
            kernel="scan_collisions", reason=str(error)),
        stacklevel=3)


# -- the stencil scan --------------------------------------------------
def _dense_shard(payload, span):
    """Offset passes ``span[0]..span[1]-1`` over the flat padded grids.

    Each pass is ``(j, shift, check_shapes)``: ``x`` and its neighbour
    at offset ``j`` sit ``shift`` apart in the flat slot grid, and only
    the first ``limit`` positions (the rows whose pairs are wanted) are
    ``x``.  Passes run in blocks of about ``_PASS_BLOCK`` comparisons:
    the block's shifted rows of the slot grid are gathered at once and
    compared with the ``x`` row in one operation, so a small grid pays
    per block, not per offset.  Offsets with equal slots then gather
    ``allowed`` where the shape test applies.  Returns ``(j, flat grid
    positions of x)`` per offset with pairs — small, so shard results
    pickle cheaply.
    """
    slots, shapes, allowed, passes, limit = payload
    step = slots.itemsize
    shifted_rows = np.ndarray((len(slots) - limit + 1, limit),
                              dtype=slots.dtype, buffer=slots,
                              strides=(step, step))
    x_slots = slots[:limit]
    block = max(1, _PASS_BLOCK // limit)
    found = []
    for start in range(span[0], span[1], block):
        chunk = passes[start:min(start + block, span[1])]
        if len(chunk) == 1:
            same = (shifted_rows[chunk[0][1]] == x_slots)[None]
        else:
            same = shifted_rows[[shift for _, shift, _ in chunk]] == x_slots
        if not same.any():
            continue
        for row in np.flatnonzero(same.any(axis=1)).tolist():
            j, shift, check_shapes = chunk[row]
            where = np.flatnonzero(same[row])
            if check_shapes:
                where = where[allowed[shapes[where], shapes[where + shift],
                                      j]]
                if not where.size:
                    continue
            found.append((j, where))
    return found


class _StencilLayout(NamedTuple):
    """Where the stencil scan of one box shape looks."""

    #: Extents of the padded grid, its cell count, and the flat cells
    #: per axis-0 row.
    padded: tuple[int, ...]
    size: int
    row: int
    #: Pad cells past the grid, so every shifted row stays in the buffer.
    tail: int
    #: One ``(j, shift, check_shapes)`` per offset that fits the box.
    passes: list[tuple[int, int, bool]]


#: Layouts kept per pair table; a table that has seen more box shapes
#: starts over.
_MAX_LAYOUTS = 32


def _stencil_layout(tables: _PairTables,
                    dims: tuple[int, ...]) -> _StencilLayout:
    """The padding, kept offsets and shifts of a box shape, memoised.

    Only offsets shorter than the box on every axis can pair two of its
    points, so the others are dropped.  The grid is padded on the high
    side of every axis by the largest ``|delta|`` of the kept offsets
    (at most the box extent minus one, so the grid stays under ``2**d``
    times the box), which makes the neighbour of ``x`` at ``delta`` a
    fixed flat shift away.
    """
    layout = tables.layouts.get(dims)
    if layout is not None:
        return layout
    magnitudes = np.abs(tables.offset_array)
    kept = np.flatnonzero(tables.some_pair
                          & (magnitudes < dims).all(axis=1))
    radius = (magnitudes[kept].max(axis=0).tolist() if kept.size
              else [0] * len(dims))
    padded = tuple(n + r for n, r in zip(dims, radius))
    strides = _row_major_strides(padded)
    shifts = (tables.offset_array[kept] @ np.asarray(strides)).tolist()
    several = tables.allowed.shape[0] > 1
    every_pair = tables.every_pair.tolist()
    layout = _StencilLayout(
        padded, math.prod(padded), strides[0], max(shifts, default=0),
        [(j, shift, several and not every_pair[j])
         for j, shift in zip(kept.tolist(), shifts)])
    if len(tables.layouts) >= _MAX_LAYOUTS:
        tables.layouts.clear()
    tables.layouts[dims] = layout
    return layout


class StencilPlan:
    """The stencil scan of one box shape, set up once and run many times.

    The grids are laid out by :func:`_stencil_layout`, and the slot
    grid's padding holds distinct values below every slot.  In the
    flattened padded grid the neighbour of ``x`` at ``delta`` is ``x``
    plus a fixed shift.  A neighbour outside the box lands on padding
    — on the last axis where it leaves the box, its index falls in
    that axis's pad — and a pad value never equals a slot or another
    pad value.  The grids use the narrowest integer type that holds
    the pad and slot values, so the offset passes move less memory.

    The pad is written once, here.  A caller fills the box part of the
    grids through the :attr:`slots` and :attr:`shapes` views and calls
    :meth:`pairs`; refilling and rescanning reuses the buffers, the
    kept offsets and their shifts, which is how a streamed box scans
    slab after slab of the same shape.

    Args:
        dims: the box extents.
        tables: the memoised pair tables of the scan's shapes and
            positive offsets (their ``offset_array`` must exist).
        values: the least and greatest slot the grids will hold.

    Attributes:
        slots: the box part of the padded slot grid, to fill.
        shapes: the box part of the padded shape-id grid, or ``None``
            with a single shape class.
        passes: one ``(j, shift, check_shapes)`` per kept offset.
    """

    def __init__(self, dims: Sequence[int], tables: _PairTables,
                 values: tuple[int, int]) -> None:
        dims = tuple(dims)
        layout = _stencil_layout(tables, dims)
        below = min(0, values[0]) - 1
        floor = below - (layout.size + layout.tail) + 1
        dtype = next(kind for kind in (np.int16, np.int32, np.int64)
                     if np.iinfo(kind).min <= floor
                     and values[1] <= np.iinfo(kind).max)
        flat_slots = np.arange(below, floor - 1, -1, dtype=dtype)
        inner = tuple(slice(0, n) for n in dims)
        self.dims = dims
        self.slots = flat_slots[:layout.size].reshape(layout.padded)[inner]
        self.shapes = None
        flat_shapes = None
        if tables.allowed.shape[0] > 1:
            flat_shapes = np.zeros(layout.size, dtype=np.intp)
            self.shapes = flat_shapes.reshape(layout.padded)[inner]
        self.passes = layout.passes
        self._tables = tables
        self._layout = layout
        self._flat = (flat_slots, flat_shapes)

    def pairs(self, lo: Sequence[int],
              rows: int | None = None) -> list[Collision]:
        """Colliding pairs of the filled grids, the box corner at ``lo``.

        Only pairs whose ``x`` lies in the first ``rows`` axis-0 rows
        are resolved (all rows when ``None``); the list is unsorted.
        """
        passes = self.passes
        slots, shapes = self._flat
        layout = self._layout
        limit = layout.size if rows is None else rows * layout.row
        payload = (slots, shapes, self._tables.allowed, passes, limit)
        workers = shard_workers()
        spans = [(0, len(passes))]
        if workers > 1 and math.prod(self.dims) >= _MIN_PARALLEL_GRID:
            spans = plan_shards(len(passes), workers)
        if len(spans) > 1:
            parts = run_sharded(_dense_shard, payload, spans, workers)
            found = [item for part in parts for item in part]
        else:
            found = _dense_shard(payload, spans[0])
        offset_array = self._tables.offset_array
        corner = np.asarray(lo, dtype=np.int64)
        collisions: list[Collision] = []
        for j, where in found:
            xs = np.stack(np.unravel_index(where, layout.padded), axis=1)
            xs += corner
            ys = xs + offset_array[j]
            collisions.extend(zip(map(tuple, xs.tolist()),
                                  map(tuple, ys.tolist())))
        return collisions


def scan_box_plan(plan: StencilPlan, lo: Sequence[int],
                  offsets: Sequence[IntVec],
                  rows: int | None = None) -> list[Collision]:
    """Sorted colliding pairs of a filled :class:`StencilPlan`.

    The box-shaped counterpart of :func:`scan_collisions`, with the
    same fault seam: a numpy failure degrades this one call to the
    exact scan (:func:`scan_collisions_touching` over the filled grids,
    every point touched) with an :class:`EngineDegradedWarning`.
    ``offsets`` are the positive offsets the plan's tables were built
    from; ``rows`` keeps the pairs whose ``x`` lies in the first axis-0
    rows.
    """
    try:
        consume_numpy_failure()
        collisions = plan.pairs(lo, rows)
    except Exception as error:
        _warn_degraded(error)
    else:
        collisions.sort()
        return collisions
    hi = tuple(low + n - 1 for low, n in zip(lo, plan.dims))
    points = PointBatch.box(lo, hi).points
    slots = plan.slots.ravel().tolist()
    shape_ids = (plan.shapes.ravel().tolist() if plan.shapes is not None
                 else [0] * len(slots))
    collisions = scan_collisions_touching(
        points, slots, shape_ids, plan._tables.shapes, offsets, points)
    if rows is None:
        return collisions
    end = lo[0] + rows
    return [pair for pair in collisions if pair[0][0] < end]


def _scan_dense(batch, slots, shape_ids, tables, offsets):
    """Stencil scan of a dense batch; ``None`` for int64-overflowing offsets."""
    if tables.offset_array is None:
        return None
    slot_values = np.asarray(slots, dtype=np.int64)
    plan = StencilPlan(batch.dims, tables, (int(slot_values.min()),
                                            int(slot_values.max())))
    if not plan.passes:
        return []
    plan.slots[...] = batch.on_grid(slot_values)
    if plan.shapes is not None:
        plan.shapes[...] = batch.on_grid(np.asarray(shape_ids,
                                                    dtype=np.intp))
    return plan.pairs(batch.lo)


# -- the sorted-key scan -----------------------------------------------
def _numpy_shard(payload, span):
    """Offset passes ``span[0]..span[1]-1`` over presorted keys.

    Returns index pairs (not point tuples); the driver resolves them
    against the original window.
    """
    keys, sorted_keys, order, slot_arr, shape_arr, allowed, offset_keys = \
        payload
    lo, hi = span
    n = len(keys)
    pairs: list[tuple[int, int]] = []
    for j in range(lo, hi):
        target = keys + offset_keys[j]
        pos = np.minimum(np.searchsorted(sorted_keys, target), n - 1)
        xi = np.nonzero(sorted_keys[pos] == target)[0]
        if xi.size == 0:
            continue
        yi = order[pos[xi]]
        keep = slot_arr[xi] == slot_arr[yi]
        keep &= allowed[shape_arr[xi], shape_arr[yi], j]
        if keep.any():
            pairs.extend(zip(xi[keep].tolist(), yi[keep].tolist()))
    return pairs


def _scan_sorted(batch, slots, shape_ids, tables, offsets):
    """Sorted-key scan; ``None`` when int64 keys cannot be used."""
    if not batch.keyed:
        return None
    # Padding by the offset span makes shifted keys alias-free, so each
    # offset pass is a pure sorted-key membership test (no box mask).
    pad = [max(abs(delta[i]) for delta in offsets)
           for i in range(batch.dimension)]
    encoder = BoxEncoder(batch, pad=pad)
    if not encoder.fits_int64:
        return None
    keys = encoder.keys_array(batch.array)
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    slot_arr = np.asarray(slots, dtype=np.int64)
    shape_arr = np.asarray(shape_ids, dtype=np.intp)
    offset_keys = [encoder.offset_key(delta) for delta in offsets]
    payload = (keys, sorted_keys, order, slot_arr, shape_arr,
               tables.allowed, offset_keys)
    workers = shard_workers()
    if workers > 1 and len(batch) * len(offsets) >= _MIN_PARALLEL_PROBES:
        # Each shard reads the shared presorted key arrays and runs only
        # its span of offset passes.
        spans = plan_shards(len(offsets), workers)
        if len(spans) > 1:
            parts = run_sharded(_numpy_shard, payload, spans, workers)
            pairs = [pair for part in parts for pair in part]
            points = batch.points
            return [(points[i], points[j]) for i, j in pairs]
    pairs = _numpy_shard(payload, (0, len(offsets)))
    points = batch.points
    return [(points[i], points[j]) for i, j in pairs]


def scan_collisions_touching(points: Sequence[IntVec],
                             slots: Sequence[int],
                             shape_ids: Sequence[int],
                             shapes: Sequence[frozenset[IntVec]],
                             offsets: Sequence[IntVec],
                             touched: Collection[IntVec],
                             index_of: Mapping[IntVec, int] | None = None,
                             occurrences: Mapping[IntVec, Sequence[int]]
                             | None = None) -> list[Collision]:
    """Colliding pairs with at least one endpoint in ``touched``, sorted.

    Exactly the subset of :func:`scan_collisions` output whose ``x`` or
    ``y`` lies in ``touched`` — the dirty-region rescan behind
    incremental verification.  Such a pair is ``(c, c + delta)`` or
    ``(c - delta, c)`` for an edited point ``c`` and a lexicographically
    positive offset ``delta``, so the scan probes just those two
    neighbours per (edited point, offset): ``O(|touched| * |offsets|)``
    work, independent of the window size.  A pair with both ends edited
    is taken from its left end only.  The shape test reads the
    memoised difference sets of :func:`_pair_tables`.

    Args:
        points, slots, shape_ids, shapes, offsets: as for
            :func:`scan_collisions`, describing the *current* window
            state (slots already reflecting the edit).
        touched: the edited points (slot changed); points outside the
            window are ignored.
        index_of: optional first-occurrence index of each window point
            (precomputed by a cache); derived from ``points`` if omitted.
        occurrences: optional all-occurrence indices per point, matching
            the once-per-occurrence-of-``x`` duplicate semantics of the
            full scan; derived from ``points`` if omitted.
    """
    if not points or not offsets or not touched:
        return []
    dimension = len(points[0])
    zero = (0,) * dimension
    positive = _positive_half(offsets, zero)
    if not positive:
        return []
    if index_of is None or occurrences is None:
        index_of = {}
        occurrence_lists: dict[IntVec, list[int]] = {}
        for i, point in enumerate(points):
            index_of.setdefault(point, i)
            occurrence_lists.setdefault(point, []).append(i)
        occurrences = occurrence_lists
    differences = _differences(shapes, positive)
    touched_set = frozenset(touched)
    collisions: list[Collision] = []
    for c in touched_set:
        k = index_of.get(c)
        if k is None:
            continue
        slot, shape = slots[k], shape_ids[k]
        own = occurrences[c]
        for delta, i, j in offset_neighbours((index_of, occurrences), c, k,
                                             positive):
            # c as the left end, once per occurrence of c ...
            if j is not None:
                for o in own:
                    if slots[o] == slots[j] and delta in differences(
                            shape_ids[o], shape_ids[j]):
                        collisions.append((c, points[j]))
            # ... and as the right end, unless the left end is edited
            # too (its own forward probe finds the pair).
            if i is None or points[i] in touched_set:
                continue
            for o in occurrences[points[i]]:
                if slots[o] == slot \
                        and delta in differences(shape_ids[o], shape):
                    collisions.append((points[i], points[k]))
    collisions.sort()
    return collisions


def scan_grid_touching(box: BoxEncoder,
                       slots: Sequence[int],
                       shape_ids: Sequence[int],
                       shapes: Sequence[frozenset[IntVec]],
                       offsets: Sequence[IntVec],
                       touched: Collection[IntVec]) -> list[Collision]:
    """:func:`scan_collisions_touching` over a dense row-major window.

    Point ``k`` of the window is the point at key ``k`` of ``box``, so
    :func:`offset_neighbours` finds the neighbour of ``c`` at ``delta``
    by box arithmetic, and the probed point itself is the pair's other
    end: no point list and no index dict.
    """
    zero = (0,) * box.dimension
    positive = _positive_half(offsets, zero)
    if not positive or not touched:
        return []
    differences = _differences(shapes, positive)
    touched_set = frozenset(touched)
    collisions: list[Collision] = []
    for c in touched_set:
        k = box.position(c)
        if k is None:
            continue
        slot, shape = slots[k], shape_ids[k]
        for delta, i, j in offset_neighbours(box, c, k, positive):
            # c as the left end ...
            if j is not None and slots[j] == slot \
                    and delta in differences(shape, shape_ids[j]):
                collisions.append((c, tuple(map(add, c, delta))))
            # ... and as the right end, unless the left end is edited
            # too (its own forward probe finds the pair).
            if i is not None and slots[i] == slot \
                    and delta in differences(shape_ids[i], shape):
                left = tuple(map(sub, c, delta))
                if left not in touched_set:
                    collisions.append((left, c))
    collisions.sort()
    return collisions


def offset_neighbours(index: BoxEncoder | tuple[Mapping[IntVec, int],
                                                 Mapping[IntVec,
                                                         Sequence[int]]],
                      c: IntVec, k: int, positive: tuple[IntVec, ...],
                      ) -> list[tuple[IntVec, int | None, int | None]]:
    """``(delta, i, j)`` for each positive offset ``delta``: the window
    indices of ``c - delta`` and ``c + delta`` (first occurrences), or
    ``None`` outside the window; ``k`` is the index of ``c``.

    ``index`` is the :class:`BoxEncoder` of a dense row-major window
    (point ``k`` at key ``k``), else the window's first-occurrence dict
    and occurrence lists.  On a box, a point at least the offset reach
    away from every face takes fixed index shifts, without bounds
    checks.  Both dirty-region rescans and the repair closures
    (:class:`repro.core.schedule.RepairContext`) probe through here.
    """
    if isinstance(index, BoxEncoder):
        steps, reach = _grid_steps(index.strides, positive)
        if all(r <= x - low < n - r for x, low, n, r
               in zip(c, index.lo, index.dims, reach)):
            return [(delta, k - step, k + step) for delta, step in steps]
        return [(delta, index.position(tuple(map(sub, c, delta))),
                 index.position(tuple(map(add, c, delta))))
                for delta in positive]
    index_of, occurrences = index
    found = []
    for delta in positive:
        before = occurrences.get(tuple(map(sub, c, delta)))
        found.append((delta, before[0] if before else None,
                      index_of.get(tuple(map(add, c, delta)))))
    return found


@lru_cache(maxsize=64)
def _grid_steps(strides: tuple[int, ...], positive: tuple[IntVec, ...],
                ) -> tuple[list[tuple[IntVec, int]], list[int]]:
    """Each offset with its flat index shift on a row-major grid of
    these strides, and the largest ``|delta|`` per axis."""
    steps = [(delta, sum(map(mul, delta, strides))) for delta in positive]
    reach = [max(abs(delta[axis]) for delta in positive)
             for axis in range(len(strides))]
    return steps, reach


def _differences(shapes: Sequence[frozenset[IntVec]],
                 positive: tuple[IntVec, ...]):
    """``differences(a, b)``: the difference set ``S_a - S_b``."""
    tables = _scan_tables(shapes, positive)
    if tables is not None:
        rows = tables.differences
        return lambda a, b: rows[a][b]
    built: dict[tuple[int, int], frozenset[IntVec]] = {}

    def difference(a: int, b: int) -> frozenset[IntVec]:
        row = built.get((a, b))
        if row is None:
            row = frozenset(vsub(p, q) for p in shapes[a] for q in shapes[b])
            built[(a, b)] = row
        return row

    return difference
