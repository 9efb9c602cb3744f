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
* **exact** — one dict probe per (point, offset) for the windows the
  int64 kernels cannot represent (coordinates or a padded bounding box
  too large for int64 keys) and for calls degraded by a kernel failure.

Two scaling layers sit on top of the serial scan:

* **Sharding** (:mod:`repro.engine.parallel`): with workers enabled,
  large scans shard the *offset* axis across processes (each worker
  inherits the grids or the presorted key arrays copy-on-write).
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
from collections.abc import Collection, Mapping, Sequence
from functools import lru_cache
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
from repro.utils.vectors import IntVec, vadd, vsub

__all__ = ["EngineDegradedWarning", "scan_collisions",
           "scan_collisions_touching"]

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

#: (points x offsets) probes below which a scan stays serial even when
#: workers are enabled — process dispatch costs more than the scan.
_MIN_PARALLEL_PROBES = 1 << 16


class _PairTables(NamedTuple):
    """The geometric test of one ``(shapes, offsets)`` pair."""

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
    return _PairTables(differences, allowed, offset_array, some_pair,
                       every_pair)


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
    positive = tuple(delta for delta in offsets if delta > zero)
    if not positive:
        return []
    tables = _pair_tables(tuple(map(frozenset, shapes)), positive)
    collisions = None
    try:
        consume_numpy_failure()
        scan = _scan_dense if batch.dense else _scan_sorted
        collisions = scan(batch, slots, shape_ids, tables, positive)
    except Exception as error:
        warnings.warn(
            EngineDegradedWarning(
                f"numpy collision scan failed ({error}); degrading to "
                f"the exact scan",
                kernel="scan_collisions", reason=str(error)),
            stacklevel=2)
    if collisions is None:
        collisions = _scan_exact(batch.points, np.asarray(slots).tolist(),
                                 np.asarray(shape_ids).tolist(),
                                 tables.differences, positive)
    collisions.sort()
    return collisions


def _scan_exact(points, slots, shape_ids, differences, offsets):
    """One dict probe per (point, offset): exact for any integer size."""
    index_of: dict[IntVec, int] = {}
    for i, point in enumerate(points):
        index_of.setdefault(point, i)
    collisions: list[Collision] = []
    for x, slot, shape in zip(points, slots, shape_ids):
        row = differences[shape]
        for delta in offsets:
            j = index_of.get(vadd(x, delta))
            if j is None or slots[j] != slot:
                continue
            if delta in row[shape_ids[j]]:
                collisions.append((x, points[j]))
    return collisions


# -- the stencil scan --------------------------------------------------
def _dense_shard(payload, span):
    """Offset passes ``span[0]..span[1]-1`` over the flat padded grids.

    Each pass is ``(j, shift, check_shapes)``: equal slots are one
    comparison of two views of the slot grid ``shift`` apart, and the
    shape test gathers ``allowed`` only where the slots agree.  Returns
    ``(j, flat grid positions of x)`` per offset with pairs — small, so
    shard results pickle cheaply.
    """
    slots, shapes, allowed, passes = payload
    size = len(slots)
    found = []
    for j, shift, check_shapes in passes[span[0]:span[1]]:
        same = slots[:size - shift] == slots[shift:]
        if not np.count_nonzero(same):
            continue
        where = np.flatnonzero(same)
        if check_shapes:
            where = where[allowed[shapes[where], shapes[where + shift], j]]
            if not where.size:
                continue
        found.append((j, where))
    return found


def _scan_dense(batch, slots, shape_ids, tables, offsets):
    """Stencil scan of a dense batch; ``None`` for int64-overflowing offsets.

    Only offsets shorter than the box on every axis can pair two of
    its points, so the others are dropped first.  The slot grid is
    padded on the high side of every axis by the largest ``|delta|``
    of the kept offsets (at most the box extent minus one, so the
    grid stays under ``2**d`` times the batch), and the padding holds
    distinct values below every slot.  In the flattened padded grid
    the neighbour of ``x`` at ``delta`` is then ``x`` plus a fixed
    shift.  A neighbour outside the box lands on padding — on the last
    axis where it leaves the box, its index falls in that axis's pad —
    and a pad value never equals a slot or another pad value.
    """
    offset_array = tables.offset_array
    if offset_array is None:
        return None
    dims = batch.dims
    reach = tables.some_pair & (np.abs(offset_array) < dims).all(axis=1)
    if not reach.any():
        return []
    radius = np.abs(offset_array[reach]).max(axis=0).tolist()
    padded = tuple(n + r for n, r in zip(dims, radius))
    inner = tuple(slice(0, n) for n in dims)
    slot_values = np.asarray(slots, dtype=np.int64)
    below = min(0, int(slot_values.min())) - 1
    slot_grid = below - np.arange(math.prod(padded), dtype=np.int64)
    slot_grid = slot_grid.reshape(padded)
    slot_grid[inner] = batch.on_grid(slot_values)
    shape_grid = None
    several = tables.allowed.shape[0] > 1
    if several:
        shape_grid = np.zeros(padded, dtype=np.intp)
        shape_grid[inner] = batch.on_grid(np.asarray(shape_ids,
                                                     dtype=np.intp))
        shape_grid = shape_grid.ravel()
    kept = np.flatnonzero(reach)
    shifts = offset_array[kept] @ np.asarray(_row_major_strides(padded))
    passes = [(j, shift, several and not tables.every_pair[j])
              for j, shift in zip(kept.tolist(), shifts.tolist())]
    payload = (slot_grid.ravel(), shape_grid, tables.allowed, passes)
    workers = shard_workers()
    spans = [(0, len(passes))]
    if workers > 1 and len(batch) * len(passes) >= _MIN_PARALLEL_PROBES:
        spans = plan_shards(len(passes), workers)
    if len(spans) > 1:
        parts = run_sharded(_dense_shard, payload, spans, workers)
        found = [item for part in parts for item in part]
    else:
        found = _dense_shard(payload, spans[0])
    lo = np.asarray(batch.lo, dtype=np.int64)
    collisions: list[Collision] = []
    for j, where in found:
        xs = np.stack(np.unravel_index(where, padded), axis=1) + lo
        ys = xs + offset_array[j]
        collisions.extend(zip(map(tuple, xs.tolist()),
                              map(tuple, ys.tolist())))
    return collisions


# -- the sorted-key scan -----------------------------------------------
def _numpy_shard(payload, span):
    """Offset passes ``span[0]..span[1]-1`` over presorted keys.

    Returns index pairs (not point tuples) so worker results stay small;
    the driver resolves them against the original window.
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
        # Each worker inherits the presorted key arrays (copy-on-write
        # under fork) and runs only its span of offset passes.
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
    incremental verification.  A pair can only involve an edited point
    if its left endpoint is the edited point itself or sits one
    (lexicographically positive) conflict offset below it, so the scan
    probes just that dilation: ``O(|touched| * |offsets|^2)`` work in
    the worst case, independent of the window size.

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
    positive = [delta for delta in offsets if delta > zero]
    if not positive:
        return []
    if index_of is None or occurrences is None:
        index_of = {}
        occurrence_lists: dict[IntVec, list[int]] = {}
        for i, point in enumerate(points):
            index_of.setdefault(point, i)
            occurrence_lists.setdefault(point, []).append(i)
        occurrences = occurrence_lists
    touched_set = frozenset(touched)
    # Candidate left endpoints: the touched points, plus every window
    # point one positive offset below a touched point.
    candidates = {c for c in touched_set if c in index_of}
    for c in touched_set:
        for delta in positive:
            x = vsub(c, delta)
            if x in index_of:
                candidates.add(x)
    differences: dict[tuple[int, int], frozenset[IntVec]] = {}
    collisions: list[Collision] = []
    for x in candidates:
        for i in occurrences[x]:
            slot = slots[i]
            a = shape_ids[i]
            for delta in positive:
                j = index_of.get(vadd(x, delta))
                if j is None or slots[j] != slot:
                    continue
                y = points[j]
                if x not in touched_set and y not in touched_set:
                    continue
                b = shape_ids[j]
                row = differences.get((a, b))
                if row is None:
                    row = frozenset(vsub(p, q)
                                    for p in shapes[a] for q in shapes[b])
                    differences[(a, b)] = row
                if delta in row:
                    collisions.append((x, y))
    collisions.sort()
    return collisions
