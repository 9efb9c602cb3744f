"""Unit tests for repro.core.schedule."""

import pytest

from repro.core.schedule import (
    MappingSchedule,
    Schedule,
    TilingSchedule,
    conflict_offsets,
    find_collisions,
    verify_collision_free,
)
from repro.core.theorem1 import schedule_from_prototile
from repro.tiles.shapes import chebyshev_ball, plus_pentomino, rectangle_tile
from repro.utils.vectors import box_points


class TestScheduleBase:
    def test_rejects_zero_slots(self):
        with pytest.raises(ValueError):
            Schedule(0)

    def test_may_send_periodicity(self):
        schedule = schedule_from_prototile(plus_pentomino())
        point = (2, 3)
        slot = schedule.slot_of(point)
        assert schedule.may_send(point, slot)
        assert schedule.may_send(point, slot + schedule.num_slots)
        assert not schedule.may_send(point, slot + 1)

    def test_senders_at(self):
        schedule = schedule_from_prototile(rectangle_tile(2, 1))
        points = list(box_points((0, 0), (3, 0)))
        senders = schedule.senders_at(0, points)
        assert senders
        assert all(schedule.slot_of(p) == 0 for p in senders)


class TestMappingSchedule:
    def test_basic(self):
        schedule = MappingSchedule({(0, 0): 0, (1, 0): 1, (2, 0): 0})
        assert schedule.num_slots == 2
        assert schedule.slot_of((2, 0)) == 0
        assert schedule.used_slots() == 2

    def test_unknown_point_raises(self):
        schedule = MappingSchedule({(0, 0): 0})
        with pytest.raises(KeyError):
            schedule.slot_of((9, 9))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            MappingSchedule({})

    def test_rejects_negative_slots(self):
        with pytest.raises(ValueError):
            MappingSchedule({(0, 0): -1})

    def test_points_sorted(self):
        schedule = MappingSchedule({(1, 0): 0, (0, 0): 1})
        assert schedule.points == [(0, 0), (1, 0)]


class TestTilingSchedule:
    def test_slot_count_is_prototile_size(self):
        schedule = schedule_from_prototile(chebyshev_ball(1))
        assert schedule.num_slots == 9

    def test_custom_cell_order(self):
        from repro.tiles.exactness import find_sublattice_tiling
        from repro.tiling.lattice_tiling import LatticeTiling
        tile = rectangle_tile(2, 1)
        tiling = LatticeTiling(tile, find_sublattice_tiling(tile))
        reversed_cells = list(reversed(tile.sorted_cells()))
        schedule = TilingSchedule(tiling, reversed_cells)
        assert schedule.slot_of(reversed_cells[0]) == 0

    def test_wrong_cells_rejected(self):
        from repro.tiles.exactness import find_sublattice_tiling
        from repro.tiling.lattice_tiling import LatticeTiling
        tile = rectangle_tile(2, 1)
        tiling = LatticeTiling(tile, find_sublattice_tiling(tile))
        with pytest.raises(ValueError):
            TilingSchedule(tiling, [(0, 0), (5, 5)])

    def test_slot_constant_on_cosets(self):
        schedule = schedule_from_prototile(chebyshev_ball(1))
        tiling = schedule.tiling
        base_slot = schedule.slot_of((0, 0))
        for translation in tiling.translations_in_box((-6, -6), (6, 6)):
            assert schedule.slot_of(translation) == \
                schedule.slot_of((0, 0)) if translation == (0, 0) else True
            # slot of t + cell equals slot of cell
            cell = schedule.cells[base_slot]
            from repro.utils.vectors import vadd
            assert schedule.slot_of(vadd(translation, cell)) == base_slot

    def test_slot_class_translations(self):
        schedule = schedule_from_prototile(plus_pentomino())
        for slot in range(schedule.num_slots):
            senders = schedule.slot_class_translations(slot, (-5, -5),
                                                       (5, 5))
            assert all(schedule.slot_of(s) == slot for s in senders)

    def test_neighborhood_of(self):
        schedule = schedule_from_prototile(plus_pentomino())
        neighborhood = schedule.neighborhood_of((3, 3))
        assert (3, 3) in neighborhood
        assert len(neighborhood) == 5


class TestCollisionDetection:
    def test_conflict_offsets_symmetric(self):
        offsets = conflict_offsets([plus_pentomino()])
        assert all(tuple(-x for x in d) in offsets for d in offsets)
        assert (0, 0) not in offsets

    def test_tiling_schedule_collision_free(self):
        schedule = schedule_from_prototile(chebyshev_ball(1))
        points = list(box_points((-6, -6), (6, 6)))
        assert verify_collision_free(schedule, points,
                                     schedule.neighborhood_of)

    def test_bad_schedule_has_collisions(self):
        # All sensors in slot 0: neighbors must collide.
        points = list(box_points((0, 0), (3, 3)))
        bad = MappingSchedule({p: 0 for p in points})
        tile = plus_pentomino()
        collisions = find_collisions(
            bad, points, lambda p: tile.translate(p))
        assert collisions

    def test_collisions_respect_slots(self):
        # Two sensors with overlapping ranges but different slots: fine.
        tile = rectangle_tile(2, 1)
        schedule = MappingSchedule({(0, 0): 0, (1, 0): 1})
        collisions = find_collisions(
            schedule, [(0, 0), (1, 0)], lambda p: tile.translate(p))
        assert collisions == []

    def test_explicit_offsets_path(self):
        tile = plus_pentomino()
        points = list(box_points((0, 0), (4, 4)))
        schedule = MappingSchedule({p: 0 for p in points})
        offsets = conflict_offsets([tile])
        collisions = find_collisions(
            schedule, points, lambda p: tile.translate(p), offsets)
        assert collisions


class TestManyShapeClassesFallback:
    """The degenerate >_MAX_SHAPE_CLASSES branch of find_collisions.

    Windows where (almost) every point has a distinct interference shape
    skip the bulk difference-set scan and test ranges directly; that
    fallback must agree with the bulk-engine path on the same inputs.
    """

    @staticmethod
    def _degenerate_window():
        # Point (i, 0) carries shape {(0,0), (1,0), (0, i+1)}: a shared
        # horizontal edge (so adjacent same-slot sensors collide) plus a
        # per-point marker making all 40 rebased shapes distinct.
        points = [(i, 0) for i in range(40)]

        def neighborhood(p):
            i = p[0]
            return frozenset({(i, 0), (i + 1, 0), (i, i + 1)})

        return points, neighborhood

    def test_window_exceeds_shape_class_bound(self):
        import repro.engine.collisions as collisions_module
        from repro.core.schedule import Interference

        points, neighborhood = self._degenerate_window()
        shapes, _ = Interference.of(neighborhood).classify(points)
        assert len(shapes) == len(points) \
            > collisions_module._MAX_SHAPE_CLASSES

    def test_fallback_matches_bulk_engine_path(self, monkeypatch, scan_lane):
        import repro.engine.collisions as collisions_module

        points, neighborhood = self._degenerate_window()
        schedule = MappingSchedule({p: p[0] % 2 if p[0] < 20 else 0
                                    for p in points})
        fallback = find_collisions(schedule, points, neighborhood)
        monkeypatch.setattr(collisions_module, "_MAX_SHAPE_CLASSES", 10_000)
        bulk = find_collisions(schedule, points, neighborhood)
        assert fallback == bulk
        assert fallback  # the all-slot-0 half must produce collisions

    def test_fallback_respects_explicit_offsets(self, monkeypatch):
        import repro.engine.collisions as collisions_module

        points, neighborhood = self._degenerate_window()
        schedule = MappingSchedule({p: 0 for p in points})
        offsets = [(1, 0), (-1, 0)]
        fallback = find_collisions(schedule, points, neighborhood, offsets)
        monkeypatch.setattr(collisions_module, "_MAX_SHAPE_CLASSES", 10_000)
        bulk = find_collisions(schedule, points, neighborhood, offsets)
        assert fallback == bulk
        assert fallback == [((i, 0), (i + 1, 0)) for i in range(39)]
