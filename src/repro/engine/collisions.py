"""Bulk collision scanning over a finite sensor window.

The scan answers: among ``points`` with known slots, which pairs share a
slot *and* have intersecting interference ranges?  Ranges enter through
*shape classes*: point ``x`` carries shape ``S[shape_ids[x]]`` (its
interference set rebased to the origin), and the ranges of ``x`` and
``y`` intersect iff ``y - x`` lies in the difference set
``S_x - S_y`` — so the whole geometric test collapses to a membership
table over (shape pair, candidate offset).

The scan enumerates, for every lexicographically positive candidate
offset ``delta``, the pairs ``(x, x + delta)`` present in the window,
and keeps those with equal slots and an allowed shape pair — one
sorted-key membership pass per offset over int64 keys.  The result is
a list of ``(x, y)`` pairs with ``x < y``, sorted.

An exact path (one dict probe per (point, offset)) answers the windows
the int64 kernel cannot represent — coordinates or a padded bounding
box too large for int64 keys — and the calls degraded by a kernel
failure.  The input selects it; no option does.

Two scaling layers sit on top of the serial scan:

* **Sharding** (:mod:`repro.engine.parallel`): with workers enabled,
  large scans shard the *offset* axis across processes (each worker
  reuses the presorted key arrays, inherited copy-on-write).  Merging
  is concatenation followed by the same canonical sort, so the result
  is bit-identical for any worker count.
* **Dirty-region rescans** (:func:`scan_collisions_touching`): after a
  slot edit only pairs with an edited endpoint can change, and every
  such pair lies within one conflict-offset of an edited point — the
  primitive behind incremental verification in
  :class:`repro.core.schedule.VerificationCache`.
"""

from __future__ import annotations

import warnings
from collections.abc import Collection, Mapping, Sequence

import numpy as np

from repro.engine.encode import BoxEncoder
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


def scan_collisions(points: Sequence[IntVec],
                    slots: Sequence[int],
                    shape_ids: Sequence[int],
                    shapes: Sequence[frozenset[IntVec]],
                    offsets: Sequence[IntVec]) -> list[Collision]:
    """All colliding pairs, sorted by ``(x, y)``.

    Args:
        points: the window (integer tuples; duplicates follow the same
            once-per-occurrence-of-``x`` semantics as the schedule layer).
        slots: slot of each point, aligned with ``points``.
        shape_ids: index into ``shapes`` for each point.
        shapes: origin-rebased interference sets, one per shape class.
        offsets: candidate conflict offsets ``y - x`` to probe.  Offsets
            that are lexicographically nonpositive cannot produce a new
            ``x < y`` pair and are skipped.
    """
    if not points or not offsets:
        return []
    dimension = len(points[0])
    zero = (0,) * dimension
    positive = [delta for delta in offsets if delta > zero]
    if not positive:
        return []
    differences = [[frozenset(vsub(p, q) for p in a for q in b)
                    for b in shapes] for a in shapes]
    collisions = None
    try:
        consume_numpy_failure()
        collisions = _scan_numpy(points, slots, shape_ids, differences,
                                 positive)
    except Exception as error:
        warnings.warn(
            EngineDegradedWarning(
                f"numpy collision scan failed ({error}); degrading to "
                f"the exact scan",
                kernel="scan_collisions", reason=str(error)),
            stacklevel=2)
    if collisions is None:
        collisions = _scan_exact(points, slots, shape_ids, differences,
                                 positive)
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


def _scan_numpy(points, slots, shape_ids, differences, offsets):
    """Vectorized scan; returns ``None`` when int64 keys cannot be used."""
    try:
        array = np.asarray(points, dtype=np.int64)
    except OverflowError:
        return None
    # Padding by the offset span makes shifted keys alias-free, so each
    # offset pass is a pure sorted-key membership test (no box mask).
    dimension = array.shape[1]
    pad = [max(abs(delta[i]) for delta in offsets)
           for i in range(dimension)]
    encoder = BoxEncoder(points, pad=pad)
    if not encoder.fits_int64:
        return None
    keys = encoder.keys_array(array)
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    slot_arr = np.asarray(slots, dtype=np.int64)
    shape_arr = np.asarray(shape_ids, dtype=np.int64)
    num_shapes = len(differences)
    allowed = np.zeros((num_shapes, num_shapes, len(offsets)), dtype=bool)
    for a in range(num_shapes):
        for b in range(num_shapes):
            row = differences[a][b]
            for j, delta in enumerate(offsets):
                allowed[a, b, j] = delta in row
    offset_keys = [encoder.offset_key(delta) for delta in offsets]
    payload = (keys, sorted_keys, order, slot_arr, shape_arr, allowed,
               offset_keys)
    workers = shard_workers()
    if workers > 1 and len(points) * len(offsets) >= _MIN_PARALLEL_PROBES:
        # Each worker inherits the presorted key arrays (copy-on-write
        # under fork) and runs only its span of offset passes.
        spans = plan_shards(len(offsets), workers)
        if len(spans) > 1:
            parts = run_sharded(_numpy_shard, payload, spans, workers)
            pairs = [pair for part in parts for pair in part]
            return [(points[i], points[j]) for i, j in pairs]
    pairs = _numpy_shard(payload, (0, len(offsets)))
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
