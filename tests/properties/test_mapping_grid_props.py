"""Property-based tests: a slot grid answers exactly like the dict table.

``MappingSchedule.from_batch`` lays a domain that fills its bounding box
exactly once out as a slot grid (box corner, extents, row-major int64
slots); ``MappingSchedule(dict)`` keeps the dict.  For random 1-3-D
boxes and slot maps the two forms of the same table must agree on every
query — ``slot_of``, ``slots_of`` (``KeyError`` text included),
``points``, ``num_slots``, ``used_slots``, ``senders_at`` — on the
changed set of every edit of a random script (inside and outside the
box, no-ops, repeated points, bool, float, numpy and negative slots),
and on the serial form and its digest.

At the session level, ``Session.restrict(Box)`` (a grid-backed session
whose verification cache indexes the box by arithmetic) must give the
same scan, cache, delta and repair reports as a session over the dict
form of the same table.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Box, Session
from repro.core.schedule import (
    MappingSchedule,
    VerificationCache,
    find_collisions,
)
from repro.core.serialize import (
    schedule_digest,
    schedule_from_dict,
    schedule_to_dict,
)
from repro.engine.encode import BoxEncoder, PointBatch, PointIndex
from repro.tiles.shapes import chebyshev_ball
from repro.utils.vectors import box_points, vadd

SETTINGS = dict(max_examples=40, deadline=None)

#: Largest box extent per axis, by dimension.
_MAX_EXTENT = {1: 20, 2: 8, 3: 4}


@st.composite
def tables(draw):
    """A random box and slot map: ``(lo, hi, slots, rng)``."""
    dimension = draw(st.integers(1, 3))
    lo = tuple(draw(st.integers(-6, 6)) for _ in range(dimension))
    extent = _MAX_EXTENT[dimension]
    hi = tuple(low + draw(st.integers(0, extent - 1)) for low in lo)
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    num_slots = draw(st.integers(1, 6))
    volume = len(list(box_points(lo, hi)))
    slots = [rng.randrange(num_slots) for _ in range(volume)]
    return lo, hi, slots, rng


def both_forms(lo, hi, slots):
    """The grid and dict forms of one table."""
    batch = PointBatch.box(lo, hi)
    grid = MappingSchedule.from_batch(batch, slots)
    table = MappingSchedule(dict(zip(box_points(lo, hi), slots)))
    assert grid._grid is not None and table._grid is None
    return grid, table


def outcome(call):
    """A call's value, or its exception type and text."""
    try:
        return "ok", call()
    except Exception as error:  # noqa: BLE001 - compared, not handled
        return "error", type(error).__name__, str(error)


def outside(lo, hi, rng):
    """A point just outside the box."""
    axis = rng.randrange(len(lo))
    point = list(lo)
    point[axis] = hi[axis] + 1 if rng.random() < 0.5 else lo[axis] - 1
    return tuple(point)


def assert_same_answers(grid, table, lo, hi, rng):
    domain = table.points
    assert grid.points == domain
    assert grid.num_slots == table.num_slots
    assert grid.used_slots() == table.used_slots()
    probes = [rng.choice(domain) for _ in range(6)] + [outside(lo, hi, rng)]
    for point in probes:
        assert outcome(lambda: grid.slot_of(point)) \
            == outcome(lambda: table.slot_of(point))
        assert outcome(lambda: grid.slot_of(list(point))) \
            == outcome(lambda: table.slot_of(list(point)))
    shuffled = list(domain)
    rng.shuffle(shuffled)
    missing = shuffled[:3] + [outside(lo, hi, rng)] + shuffled[3:]
    windows = [domain, shuffled, probes[:1], probes[:5], [],
               np.asarray(shuffled, dtype=np.int64), missing, missing[:4],
               [tuple(float(x) for x in domain[0])],
               [(True,) + domain[0][1:]], [domain[0] + (0,)],
               [(2 ** 70,) + domain[0][1:]]]
    # Boxes of the grid's volume: itself, and its extents reversed.
    extents = [h - l for l, h in zip(lo, hi)][::-1]
    windows += [PointBatch.box(lo, hi), PointBatch.box(
        lo, tuple(low + n for low, n in zip(lo, extents)))]
    for window in windows:
        assert outcome(lambda: grid.slots_of(window)) \
            == outcome(lambda: table.slots_of(window))
    # Every used slot and a wrap-around, without walking up to a huge
    # slot count.
    used = sorted({int(slot) for slot in table.slots_of(domain)})
    times = set(range(min(int(table.num_slots), 8) + 1)) | set(used) \
        | {int(table.num_slots) + slot for slot in used[:2]}
    for time in sorted(times):
        assert grid.senders_at(time) == table.senders_at(time)
        assert grid.senders_at(time, shuffled) \
            == table.senders_at(time, shuffled)
    assert outcome(lambda: schedule_to_dict(grid)) \
        == outcome(lambda: schedule_to_dict(table))
    assert outcome(lambda: schedule_digest(grid)) \
        == outcome(lambda: schedule_digest(table))


def random_update(lo, hi, schedule, rng):
    """One edit of the script: a point and a slot, of every kind."""
    domain = list(box_points(lo, hi))
    point = rng.choice(domain)
    kind = rng.choice(["inside", "inside", "outside", "noop", "bool",
                       "float", "numpy", "negative", "huge", "list"])
    if kind == "outside":
        return {outside(lo, hi, rng): rng.randrange(4)}
    if kind == "noop" and outcome(lambda: schedule.slot_of(point))[0] == "ok":
        return {point: schedule.slot_of(point)}
    if kind == "bool":
        return {point: rng.random() < 0.5}
    if kind == "float":
        return {point: float(rng.randrange(4))}
    if kind == "numpy":
        return {point: np.int64(rng.randrange(4))}
    if kind == "negative":
        return {point: -1}
    if kind == "huge":  # past int64: the grid falls back to the dict
        return {point: 2 ** 64}
    if kind == "list":
        return {rng.choice(domain): rng.randrange(5),
                rng.choice(domain): rng.randrange(5)}
    return {point: rng.randrange(6)}


class TestGridEqualsDict:
    @given(tables())
    @settings(**SETTINGS)
    def test_every_query_agrees(self, drawn):
        lo, hi, slots, rng = drawn
        grid, table = both_forms(lo, hi, slots)
        assert_same_answers(grid, table, lo, hi, rng)

    @given(tables())
    @settings(**SETTINGS)
    def test_edit_scripts_agree(self, drawn):
        lo, hi, slots, rng = drawn
        grid, table = both_forms(lo, hi, slots)
        if rng.random() < 0.5:  # seed the domain buckets
            grid.senders_at(0)
            table.senders_at(0)
        repeated = rng.choice(list(box_points(lo, hi)))
        for step in range(12):
            updates = random_update(lo, hi, table, rng)
            if step % 4 == 3:  # the same point, edited again
                updates = {repeated: rng.randrange(5)}
            got = outcome(lambda: grid.with_updates(updates))
            want = outcome(lambda: table.with_updates(updates))
            assert got[0] == want[0]
            if got[0] == "error":
                assert got == want
                continue
            assert got[1].changed == want[1].changed
            assert got[1].base is grid and want[1].base is table
            grid, table = got[1].schedule, want[1].schedule
            assert_same_answers(grid, table, lo, hi, rng)

    @given(tables())
    @settings(**SETTINGS)
    def test_serial_form_round_trips_to_the_grid(self, drawn):
        lo, hi, slots, _ = drawn
        grid, table = both_forms(lo, hi, slots)
        restored = schedule_from_dict(schedule_to_dict(table))
        assert restored._grid is not None
        assert schedule_digest(restored) == schedule_digest(table)
        assert restored.points == table.points
        assert restored.slots_of(table.points) \
            == table.slots_of(table.points)

    def test_non_box_domains_keep_the_dict(self):
        box = list(box_points((0, 0), (3, 3)))
        sparse = PointBatch.of(box[:-1])
        repeated = PointBatch.of(box + box[:1])
        far = PointBatch.box((2 ** 40, 0), (2 ** 40 + 3, 3))
        for batch in (sparse, repeated, far):
            schedule = MappingSchedule.from_batch(batch, [1] * len(batch))
            assert schedule._grid is None
        dense = PointBatch.box((0, 0), (3, 3))
        for slots in ([True] * 16, [1.0] * 16, [np.int64(1)] * 16):
            schedule = MappingSchedule.from_batch(dense, slots)
            assert schedule._grid is None
            assert schedule.slot_of((0, 0)) is slots[0]
        for array in (np.full(16, 1.7), np.full(16, -0.5),
                      np.ones(16, dtype=bool),
                      np.full(16, 2 ** 63, dtype=np.uint64)):
            got = outcome(lambda: MappingSchedule.from_batch(dense, array))
            want = outcome(lambda: MappingSchedule.from_batch(
                sparse, array[:-1]))
            assert got[0] == want[0]
            if got[0] == "error":
                assert got == want
                continue
            assert got[1]._grid is None
            assert got[1].slot_of((0, 0)) == want[1].slot_of((0, 0))
            assert type(got[1].slot_of((0, 0))) \
                is type(want[1].slot_of((0, 0))) is type(array.tolist()[0])
        for dtype in (np.int64, np.int32, np.uint8):
            assert MappingSchedule.from_batch(
                dense, np.ones(16, dtype=dtype))._grid is not None
        with pytest.raises(ValueError, match="nonnegative"):
            MappingSchedule.from_batch(dense, [-1] + [0] * 15)
        with pytest.raises(ValueError, match="empty"):
            MappingSchedule.from_batch(PointBatch.of([]), [])

    def test_shuffled_dense_batch_lays_out_row_major(self):
        box = list(box_points((-2, 1), (1, 4)))
        order = list(range(len(box)))
        random.Random(3).shuffle(order)
        batch = PointBatch.of([box[i] for i in order])
        slots = [i % 5 for i in order]
        grid = MappingSchedule.from_batch(batch, slots)
        assert grid._grid is not None
        assert grid.slots_of(box) == [i % 5 for i in range(len(box))]


# -- sessions -----------------------------------------------------------
@st.composite
def boxes(draw):
    """A Chebyshev radius-1 session's dimension, a box, and a seed."""
    dimension = draw(st.integers(1, 3))
    extent = {1: 24, 2: 8, 3: 4}[dimension]
    lo = tuple(draw(st.integers(-5, 5)) for _ in range(dimension))
    hi = tuple(low + draw(st.integers(2, extent)) for low in lo)
    return dimension, Box(lo, hi), draw(st.integers(0, 2 ** 32))


def report_fields(report):
    fields = dict(vars(report))
    session = fields.pop("session", None)
    if session is not None:
        fields["schedule"] = schedule_to_dict(session.schedule)
    return fields


class TestRestrictedSessions:
    @given(boxes())
    @settings(max_examples=20, deadline=None)
    def test_restricted_box_reports_match_the_dict_session(self, drawn):
        dimension, box, seed = drawn
        rng = random.Random(seed)
        base = Session.for_chebyshev(1, dimension)
        restricted = base.restrict(box)
        assert restricted.schedule._grid is not None
        points = box.points()
        reference = Session(
            MappingSchedule(dict(zip(points,
                                     base.schedule.slots_of(points)))),
            window=box, neighborhood_of=base.neighborhood_of)
        assert schedule_digest(restricted.schedule) \
            == schedule_digest(reference.schedule)
        sessions = [restricted, reference]
        for _ in range(2):  # a scan, then a cache answer
            reports = [session.verify() for session in sessions]
            assert reports[0] == reports[1]
        num_slots = base.num_slots
        for _ in range(15):
            point = rng.choice(points)
            if rng.random() < 0.5:  # copy a neighbour's slot: a collision
                other = vadd(point, rng.choice(
                    [(1,) + (0,) * (dimension - 1),
                     (0,) * (dimension - 1) + (1,)]))
                slot = (restricted.schedule.slot_of(other)
                        if other in set(points) else 0)
            else:
                slot = rng.randrange(num_slots)
            updates = {point: slot}
            sessions = [session.edit(updates) for session in sessions]
            reports = [session.verify() for session in sessions]
            assert reports[0] == reports[1]
            assert reports[0].collisions == tuple(find_collisions(
                sessions[1].schedule, points, base.neighborhood_of))
        scans = [session.verify(use_cache=False) for session in sessions]
        assert scans[0] == scans[1]
        repairs = [session.repair() for session in sessions]
        assert report_fields(repairs[0]) == report_fields(repairs[1])

    def test_service_restrict_ack_counts_the_window(self):
        from repro.service import SchedulingService

        service = SchedulingService()
        try:
            service.open_session("s", Session.for_chebyshev(1))
            ack = service.restrict("s", Box((0, 0), (9, 4)))
            assert ack.window_size == 50
        finally:
            service.close()


class TestDenseCacheIndex:
    @given(tables())
    @settings(**SETTINGS)
    def test_box_cache_equals_dict_cache_and_full_scan(self, drawn):
        lo, hi, slots, rng = drawn
        grid, table = both_forms(lo, hi, slots)
        dimension = len(lo)
        tile = chebyshev_ball(1, dimension)
        box = PointBatch.box(lo, hi)
        shuffled = list(box.points)
        rng.shuffle(shuffled)
        repeated = shuffled + shuffled[:2]
        windows = [box, shuffled, repeated]
        caches = [VerificationCache(grid, box, tile.translate),
                  VerificationCache(table, shuffled, tile.translate),
                  VerificationCache(grid, repeated, tile.translate)]
        assert isinstance(caches[0]._index, BoxEncoder)
        assert isinstance(caches[1]._index, PointIndex) \
            or shuffled == box.points
        assert isinstance(caches[2]._index, PointIndex)
        schedules = [grid, table, grid]
        for step in range(11):
            if step:
                updates = {rng.choice(box.points): rng.randrange(4)
                           for _ in range(rng.randrange(1, 4))}
                if rng.random() < 0.2:
                    updates[outside(lo, hi, rng)] = 1
                deltas = [schedule.with_updates(updates)
                          for schedule in schedules]
                answers = [cache.apply(delta)
                           for cache, delta in zip(caches, deltas)]
                schedules = [delta.schedule for delta in deltas]
                for cache, delta in zip(caches, deltas):
                    assert cache.touched_in_window(delta.changed) == [
                        p for p in delta.changed if p in set(box.points)]
            else:
                answers = [cache.collisions() for cache in caches]
            for window, answer in zip(windows, answers):
                assert answer == find_collisions(schedules[1], window,
                                                 tile.translate)
        for probe in (tuple(x + 0.5 for x in lo), tuple(map(float, lo)),
                      lo[0], "ab", None):
            assert (probe in caches[0]) == (probe in caches[1])
