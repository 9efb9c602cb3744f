"""Incremental verification tests: ScheduleDelta + VerificationCache.

The cache's contract is that after any sequence of ``apply`` calls its
collision list equals a full :func:`find_collisions` rescan of the
edited schedule — the dirty-region rescan is an optimization, never an
approximation.  The randomized tests drive long edit sequences against
the full-scan oracle and the brute-force reference.
"""

import random

import pytest

from repro.core.schedule import (
    MappingSchedule,
    ScheduleDelta,
    VerificationCache,
    find_collisions,
    verify_collision_free,
)
from repro.core.theorem1 import schedule_from_prototile
from repro.engine.collisions import (
    scan_collisions,
    scan_collisions_touching,
    scan_grid_touching,
)
from repro.engine.encode import BoxEncoder, PointBatch
from repro.scenarios.reference import reference_collisions
from repro.tiles.shapes import chebyshev_ball, rectangle_tile
from repro.utils.vectors import box_points

_TILE = chebyshev_ball(1)


def _neighborhood(point):
    return _TILE.translate(point)


_CUBE = chebyshev_ball(1, 3)


def _cube_neighborhood(point):
    return _CUBE.translate(point)


def _tiled_mapping(side, tile=_TILE):
    """A collision-free MappingSchedule copied from the tiling schedule."""
    base = schedule_from_prototile(tile)
    points = list(box_points((0,) * tile.dimension,
                             (side - 1,) * tile.dimension))
    return points, MappingSchedule(dict(zip(points, base.slots_of(points))))


class TestWithUpdates:
    def test_reports_only_real_changes(self):
        schedule = MappingSchedule({(0, 0): 0, (1, 0): 1, (2, 0): 2})
        delta = schedule.with_updates({(0, 0): 0, (1, 0): 5})
        assert delta.base is schedule
        assert delta.changed == {(1, 0)}
        assert delta.schedule.slot_of((1, 0)) == 5
        # the base schedule is untouched
        assert schedule.slot_of((1, 0)) == 1

    def test_can_add_points(self):
        schedule = MappingSchedule({(0, 0): 0})
        delta = schedule.with_updates({(3, 3): 2})
        assert delta.changed == {(3, 3)}
        assert delta.schedule.slot_of((3, 3)) == 2
        with pytest.raises(KeyError):
            schedule.slot_of((3, 3))

    def test_rejects_negative_slots(self):
        schedule = MappingSchedule({(0, 0): 0})
        with pytest.raises(ValueError):
            schedule.with_updates({(0, 0): -1})

    def test_empty_update_is_a_noop_delta(self):
        schedule = MappingSchedule({(0, 0): 0})
        delta = schedule.with_updates({})
        assert delta.changed == frozenset()
        assert delta.schedule.slot_of((0, 0)) == 0


class TestVerificationCache:
    def test_full_scan_matches_find_collisions(self):
        points, schedule = _tiled_mapping(8)
        cache = VerificationCache(schedule, points, _neighborhood)
        assert cache.collisions() == find_collisions(schedule, points,
                                                     _neighborhood)
        assert cache.is_collision_free()

    def test_rejects_empty_window(self):
        _, schedule = _tiled_mapping(4)
        with pytest.raises(ValueError):
            VerificationCache(schedule, [], _neighborhood)

    def test_apply_detects_introduced_and_fixed_collisions(self):
        points, schedule = _tiled_mapping(8)
        cache = VerificationCache(schedule, points, _neighborhood)
        assert cache.is_collision_free()
        # copy a neighbor's slot: instant collision
        bad_slot = schedule.slot_of((4, 4))
        delta = schedule.with_updates({(4, 5): bad_slot})
        got = cache.apply(delta)
        assert got == find_collisions(delta.schedule, points, _neighborhood)
        assert ((4, 4), (4, 5)) in got
        # revert: collision-free again
        revert = delta.schedule.with_updates({(4, 5): schedule.slot_of((4, 5))})
        assert cache.apply(revert) == []
        assert cache.is_collision_free()

    def test_apply_requires_deltas_in_order(self):
        points, schedule = _tiled_mapping(6)
        cache = VerificationCache(schedule, points, _neighborhood)
        delta1 = schedule.with_updates({(2, 2): 0})
        delta2 = delta1.schedule.with_updates({(3, 3): 0})
        with pytest.raises(ValueError):
            cache.apply(delta2)  # skips delta1
        cache.apply(delta1)
        cache.apply(delta2)
        assert cache.collisions() == find_collisions(delta2.schedule, points,
                                                     _neighborhood)

    def test_apply_before_first_scan_runs_full(self):
        points, schedule = _tiled_mapping(6)
        cache = VerificationCache(schedule, points, _neighborhood)
        delta = schedule.with_updates({(1, 1): 0})
        assert cache.apply(delta) == find_collisions(delta.schedule, points,
                                                     _neighborhood)

    def test_edits_outside_window_are_ignored(self):
        points, schedule = _tiled_mapping(6)
        cache = VerificationCache(schedule, points, _neighborhood)
        before = cache.collisions()
        delta = schedule.with_updates({(50, 50): 0})
        assert cache.apply(delta) == before
        assert cache.schedule is delta.schedule

    def test_duplicate_window_points_follow_full_scan_semantics(self):
        points, schedule = _tiled_mapping(5)
        window = points + points[:7]  # duplicates, same slots
        cache = VerificationCache(schedule, window, _neighborhood)
        assert cache.collisions() == find_collisions(schedule, window,
                                                     _neighborhood)
        delta = schedule.with_updates({(1, 1): schedule.slot_of((1, 2))})
        assert cache.apply(delta) == find_collisions(delta.schedule, window,
                                                     _neighborhood)

    def test_random_edit_sequences_match_full_rescan(self, scan_lane):
        rng = random.Random(91)
        cases = [(*_tiled_mapping(12), _neighborhood, 9),
                 (*_tiled_mapping(5, _CUBE), _cube_neighborhood, 27)]
        for points, schedule, neighborhood, num_slots in cases:
            cache = VerificationCache(schedule, points, neighborhood)
            current = schedule
            for _ in range(40):
                edits = {rng.choice(points): rng.randrange(num_slots)
                         for _ in range(rng.randrange(1, 5))}
                delta = current.with_updates(edits)
                assert cache.apply(delta) == find_collisions(
                    delta.schedule, points, neighborhood)
                current = delta.schedule
            assert cache.collisions() == reference_collisions(
                points, current.slot_of, neighborhood)

    @pytest.mark.parametrize("order", ["box", "shuffled"])
    def test_long_edit_chain_matches_a_fresh_scan_at_every_step(self, order):
        # 2,000 single- and multi-point edits of a grid-backed schedule;
        # the box window is indexed by arithmetic, the shuffled one by a
        # dict.  Every delta answer must equal a fresh full scan.
        side = 10
        batch = PointBatch.box((0, 0), (side - 1, side - 1))
        base = schedule_from_prototile(_TILE)
        schedule = MappingSchedule.from_batch(batch, base.slots_of(batch))
        assert schedule._grid is not None
        points = list(batch.points)
        rng = random.Random(2000)
        window = batch
        if order == "shuffled":
            window = list(points)
            rng.shuffle(window)
        neighborhood = base.neighborhood_of
        cache = VerificationCache(schedule, window, neighborhood)
        cache.collisions()
        for _ in range(2000):
            edits = {rng.choice(points): rng.randrange(9)
                     for _ in range(rng.choice((1, 1, 1, 2, 3)))}
            delta = schedule.with_updates(edits)
            assert cache.apply(delta) == find_collisions(
                delta.schedule, batch, neighborhood)
            schedule = delta.schedule
        assert schedule._grid is not None

    def test_handmade_delta_is_honored(self):
        # Any code constructing deltas by hand gets the same fast lane,
        # provided it upholds the changed-set contract.
        points, schedule = _tiled_mapping(6)
        cache = VerificationCache(schedule, points, _neighborhood)
        cache.collisions()
        edited = MappingSchedule({p: (0 if p == (2, 3)
                                      else schedule.slot_of(p))
                                  for p in points})
        delta = ScheduleDelta(base=schedule, schedule=edited,
                              changed=frozenset({(2, 3)})
                              if schedule.slot_of((2, 3)) != 0
                              else frozenset())
        assert cache.apply(delta) == find_collisions(edited, points,
                                                     _neighborhood)


class TestCacheWiring:
    def test_find_collisions_serves_tracked_schedule_from_cache(self):
        points, schedule = _tiled_mapping(8)
        cache = VerificationCache(schedule, points, _neighborhood)
        delta = schedule.with_updates({(3, 3): 0, (3, 4): 0})
        cache.apply(delta)
        want = find_collisions(delta.schedule, points, _neighborhood)
        assert want
        assert cache.collisions_for(delta.schedule) == want
        assert cache.schedule is delta.schedule
        assert cache.is_collision_free() == (not want)
        assert verify_collision_free(delta.schedule, points,
                                     _neighborhood) == (not want)

    def test_unknown_schedule_rebinds_with_full_rescan(self):
        points, schedule = _tiled_mapping(8)
        cache = VerificationCache(schedule, points, _neighborhood)
        cache.collisions()
        other = MappingSchedule({p: 0 for p in points})
        got = cache.collisions_for(other)
        assert got == find_collisions(other, points, _neighborhood)
        assert cache.schedule is other


class TestSlotBuckets:
    def test_senders_at_matches_per_point_scan(self):
        schedule = schedule_from_prototile(rectangle_tile(2, 2))
        points = list(box_points((0, 0), (5, 5)))
        for time in range(schedule.num_slots + 2):
            slot = time % schedule.num_slots
            want = [p for p in points if schedule.slot_of(p) == slot]
            assert schedule.senders_at(time, points) == want

    def test_window_order_is_preserved(self):
        schedule = MappingSchedule({(0, 0): 0, (1, 0): 0, (2, 0): 0})
        shuffled = [(2, 0), (0, 0), (1, 0)]
        assert schedule.senders_at(0, shuffled) == shuffled

    def test_buckets_cached_per_window(self):
        points, schedule = _tiled_mapping(6)
        first = schedule.slot_buckets(points)
        assert schedule.slot_buckets(list(points)) is first
        other = points[:10]
        assert schedule.slot_buckets(other) is not first

    def test_mapping_schedule_domain_default(self):
        points, schedule = _tiled_mapping(6)
        for time in range(schedule.num_slots):
            assert schedule.senders_at(time) == \
                schedule.senders_at(time, schedule.points)

    def test_with_updates_derives_domain_buckets(self):
        points, schedule = _tiled_mapping(6)
        schedule.senders_at(0)  # build the domain buckets
        delta = schedule.with_updates({(2, 2): 7, (0, 0): 3})
        derived = delta.schedule._domain_bucket_cache
        assert derived is not None
        fresh = MappingSchedule(dict(delta.schedule._assignment))
        assert derived == fresh._domain_buckets()
        # and the public query agrees
        for time in range(delta.schedule.num_slots):
            assert delta.schedule.senders_at(time) == \
                fresh.senders_at(time)

    def test_with_updates_adding_points_rebuilds_lazily(self):
        points, schedule = _tiled_mapping(4)
        schedule.senders_at(0)
        delta = schedule.with_updates({(99, 99): 1})
        assert delta.schedule._domain_bucket_cache is None
        assert (99, 99) in delta.schedule.senders_at(1)


class TestWindowIdentity:
    """A cache's collisions do not depend on the order of its window."""

    def test_collisions_for_accepts_a_permuted_window(self):
        # Sharded/streamed callers hand the window over reordered; the
        # collision list is canonically sorted, so order must not matter.
        points, _ = _tiled_mapping(6)
        schedule = MappingSchedule({p: 0 for p in points})
        want = VerificationCache(schedule, points,
                                 _neighborhood).collisions()
        assert want
        shuffled = list(points)
        random.Random(7).shuffle(shuffled)
        cache = VerificationCache(schedule, shuffled, _neighborhood)
        assert cache.collisions_for(schedule) == want


class TestDegenerateScanParity:
    """The many-shape fallback must mirror the bulk path exactly."""

    def test_duplicate_points_match_bulk_path(self, monkeypatch, scan_lane):
        import repro.engine.collisions as collisions_module
        points, schedule = _tiled_mapping(5)
        # duplicated points, plus a forced collision to make the lists
        # non-trivial
        window = points + points[:9] + points[:3]
        edited = schedule.with_updates(
            {(1, 1): schedule.slot_of((1, 2))}).schedule
        bulk = find_collisions(edited, window, _neighborhood)
        monkeypatch.setattr(collisions_module, "_MAX_SHAPE_CLASSES", -1)
        degenerate = find_collisions(edited, window, _neighborhood)
        assert degenerate == bulk
        assert bulk  # the differential saw real collisions

    def test_cache_takes_the_many_shape_path(self, monkeypatch):
        # The cache hands the scan its shape ids as a list, not an array.
        import repro.engine.collisions as collisions_module
        points, schedule = _tiled_mapping(5)
        window = points + points[:4]
        edited = schedule.with_updates(
            {(1, 1): schedule.slot_of((1, 2))}).schedule
        bulk = find_collisions(edited, window, _neighborhood)
        monkeypatch.setattr(collisions_module, "_MAX_SHAPE_CLASSES", -1)
        cache = VerificationCache(edited, window, _neighborhood)
        assert cache.collisions() == bulk
        assert bulk


class _CountingIndex(dict):
    """A point index that counts its ``get`` probes."""

    probes = 0

    def get(self, key, default=None):
        self.probes += 1
        return super().get(key, default)


class TestTouchingScan:
    """The dirty-region rescan is the full scan filtered to edited ends."""

    @pytest.mark.parametrize("num_shapes", [1, 3, 40])
    def test_equals_the_filtered_full_scan(self, num_shapes):
        rng = random.Random(num_shapes)
        box = list(box_points((0, 0), (7, 7)))
        for _ in range(20):
            # duplicates, few slots (many equal pairs), random shapes
            points = box + rng.sample(box, 6)
            slot_of = {p: rng.randrange(3) for p in box}
            shape_of = {p: rng.randrange(num_shapes) for p in box}
            shapes = [frozenset({(0, 0)} | {(rng.randint(-1, 1),
                                            rng.randint(-1, 1))
                                           for _ in range(3)})
                      for _ in range(num_shapes)]
            offsets = sorted({(a - c, b - d) for a, b in [(0, 0), (1, 1)]
                              for c, d in [(-1, 1), (1, -1), (0, 0)]}
                             | {(0, 1), (1, 0), (2, 2)})
            slots = [slot_of[p] for p in points]
            shape_ids = [shape_of[p] for p in points]
            touched = set(rng.sample(box, rng.randint(1, 10)))
            touched.add((9, 9))  # outside the window: ignored
            full = scan_collisions(points, slots, shape_ids, shapes,
                                   offsets)
            want = [pair for pair in full
                    if pair[0] in touched or pair[1] in touched]
            assert scan_collisions_touching(
                points, slots, shape_ids, shapes, offsets,
                touched) == want

    @pytest.mark.parametrize("num_shapes", [1, 3, 40])
    def test_grid_scan_equals_the_filtered_full_scan(self, num_shapes):
        rng = random.Random(100 + num_shapes)
        for dims in [(9,), (7, 7), (3, 4, 5), (2, 9)]:
            lo = tuple(rng.randint(-3, 3) for _ in dims)
            hi = tuple(low + n - 1 for low, n in zip(lo, dims))
            box = BoxEncoder(PointBatch.box(lo, hi))
            points = list(box_points(lo, hi))
            d = len(dims)
            shapes = [frozenset({(0,) * d} | {tuple(rng.randint(-1, 1)
                                                    for _ in dims)
                                              for _ in range(3)})
                      for _ in range(num_shapes)]
            offsets = sorted({tuple(rng.randint(-2, 2) for _ in dims)
                              for _ in range(12)} - {(0,) * d})
            for _ in range(10):
                slots = [rng.randrange(3) for _ in points]
                shape_ids = [rng.randrange(num_shapes) for _ in points]
                touched = set(rng.sample(points, rng.randint(1, 6)))
                touched.add(tuple(h + 1 for h in hi))  # outside: ignored
                full = scan_collisions(points, slots, shape_ids, shapes,
                                       offsets)
                want = [pair for pair in full
                        if pair[0] in touched or pair[1] in touched]
                assert scan_grid_touching(
                    box, slots, shape_ids, shapes, offsets,
                    touched) == want

    def test_probes_two_neighbours_per_offset(self):
        points, schedule = _tiled_mapping(12)
        index_of = _CountingIndex()
        occurrences = _CountingIndex()
        for i, point in enumerate(points):
            index_of.setdefault(point, i)
            occurrences.setdefault(point, []).append(i)
        offsets = sorted({(a, b) for a in range(-2, 3)
                          for b in range(-2, 3)} - {(0, 0)})
        positive = [delta for delta in offsets if delta > (0, 0)]
        scan_collisions_touching(
            points, schedule.slots_of(points), [0] * len(points),
            [_TILE.cells], offsets, {(5, 5)}, index_of, occurrences)
        # one lookup of the edited point, then one forward and one
        # backward neighbour per positive offset
        assert index_of.probes == 1 + len(positive)
        assert occurrences.probes == len(positive)
