"""Unit tests for the bulk engine and its integration regressions.

Covers the bugfix regressions (generator-valued ``offsets``, empty
prototile lists, cached network positions) and the engine contract: the
numpy kernels must produce the collision lists, slot assignments and
per-slot receptions of the brute-force reference in
:mod:`repro.scenarios.reference`.
"""

import random

import pytest

from repro.core.schedule import (
    MappingSchedule,
    conflict_offsets,
    find_collisions,
    verify_collision_free,
)
from repro.core.theorem1 import schedule_from_prototile
from repro.core.theorem2 import schedule_from_multi_tiling
from repro.engine import AdjacencyIndex, BoxEncoder, CosetTable
from repro.lattice.sublattice import diagonal_sublattice
from repro.net.model import Network
from repro.net.protocols import CSMALike, GlobalTDMA, ScheduleMAC, SlottedAloha
from repro.net.simulator import BroadcastSimulator
from repro.scenarios.reference import (
    reference_collisions,
    reference_receptions,
    reference_slots,
)
from repro.tiles.shapes import chebyshev_ball, plus_pentomino, rectangle_tile
from repro.tiling.construct import figure5_mixed_tiling
from repro.utils.vectors import box_points, difference_set


# ----------------------------------------------------------------------
# Satellite bugfix regressions
# ----------------------------------------------------------------------
class TestOffsetsMaterialization:
    def _setup(self):
        # Everyone in slot 0 on a line: every adjacent pair collides.
        points = [(i, 0) for i in range(6)]
        schedule = MappingSchedule({p: 0 for p in points})
        tile = rectangle_tile(2, 1)
        return schedule, points, (lambda p: tile.translate(p))

    def test_generator_offsets_not_exhausted(self):
        schedule, points, neighborhood = self._setup()
        explicit = [(1, 0), (-1, 0)]
        from_list = find_collisions(schedule, points, neighborhood, explicit)
        from_gen = find_collisions(schedule, points, neighborhood,
                                   (d for d in explicit))
        from_frozen = find_collisions(schedule, points, neighborhood,
                                      frozenset(explicit))
        assert from_list == from_gen == from_frozen
        assert len(from_list) == 5  # all adjacent pairs, not just the first

    def test_verify_not_fooled_by_generator(self):
        schedule, points, neighborhood = self._setup()
        offsets = (d for d in [(1, 0), (-1, 0)])
        assert not verify_collision_free(schedule, points, neighborhood,
                                         offsets)

    def test_generator_points(self):
        schedule, points, neighborhood = self._setup()
        assert find_collisions(schedule, (p for p in points), neighborhood) \
            == find_collisions(schedule, points, neighborhood)

    def test_difference_set_accepts_generator(self):
        points = [(0, 0), (1, 2)]
        assert difference_set(p for p in points) == difference_set(points)


class TestConflictOffsetsValidation:
    def test_empty_raises_value_error(self):
        with pytest.raises(ValueError, match="at least one prototile"):
            conflict_offsets([])

    def test_generator_input(self):
        tiles = [plus_pentomino(), chebyshev_ball(1)]
        assert conflict_offsets(iter(tiles)) == conflict_offsets(tiles)


class TestNetworkPositionsCache:
    def test_positions_identity(self):
        network = Network.homogeneous(
            box_points((0, 0), (2, 2)), chebyshev_ball(1))
        assert network.positions is network.positions

    def test_positions_sorted(self):
        network = Network.homogeneous(
            [(1, 1), (0, 0), (0, 1)], chebyshev_ball(1))
        assert list(network.positions) == [(0, 0), (0, 1), (1, 1)]


# ----------------------------------------------------------------------
# Engine building blocks
# ----------------------------------------------------------------------
class TestBoxEncoder:
    def test_keys_are_bijective_and_lexicographic(self):
        points = list(box_points((-2, 1), (1, 3)))
        encoder = BoxEncoder(points)
        keys = [encoder.key(p) for p in points]
        assert len(set(keys)) == len(points)
        assert keys == sorted(keys)  # box_points yields lexicographically

    def test_offset_key_matches_shift(self):
        points = list(box_points((0, 0), (4, 4)))
        encoder = BoxEncoder(points)
        delta = (1, 2)
        for p in [(0, 0), (2, 1), (3, 2)]:
            shifted = (p[0] + delta[0], p[1] + delta[1])
            assert encoder.key(p) + encoder.offset_key(delta) \
                == encoder.key(shifted)

    def test_padding_keeps_shifted_keys_injective(self):
        points = [(0, 0), (1, 0)]
        encoder = BoxEncoder(points, pad=(2, 2))
        # With padding, x + delta stays in the (padded) box for |delta|<=2,
        # so shifted keys of distinct points never alias.
        seen = set()
        for p in points:
            for delta in [(-2, 0), (2, 0), (0, -2), (0, 2)]:
                key = encoder.key(p) + encoder.offset_key(delta)
                assert key not in seen
                seen.add(key)


class TestCosetTable:
    def test_matches_canonical_per_point(self):
        sublattice = diagonal_sublattice([3, 2])
        values = {rep: i for i, rep
                  in enumerate(sublattice.coset_representatives())}
        table = CosetTable(sublattice, values)
        points = list(box_points((-7, -7), (7, 7)))
        expected = [values[sublattice.canonical_representative(p)]
                    for p in points]
        assert table.lookup(points) == expected
        assert table.value_of((5, -3)) == \
            values[sublattice.canonical_representative((5, -3))]

    def test_requires_full_cover(self):
        sublattice = diagonal_sublattice([2, 2])
        with pytest.raises(ValueError):
            CosetTable(sublattice, {(0, 0): 0})


class TestAdjacencyIndex:
    def test_matches_network_topology(self):
        network = Network.homogeneous(
            box_points((0, 0), (3, 3)), plus_pentomino())
        index = network.adjacency_index()
        assert index is network.adjacency_index()  # built once
        positions = network.positions
        assert index.positions == positions
        for i, position in enumerate(positions):
            expected = sorted(index.index_of[r]
                              for r in network.receivers_of(position))
            assert list(index.receivers[i]) == expected
        coverers = index.coverers()
        for i, position in enumerate(positions):
            expected = sorted(index.index_of[s]
                              for s in network.senders_covering(position))
            assert sorted(coverers[i]) == expected
        assert index.num_edges == sum(len(r) for r in index.receivers)


# ----------------------------------------------------------------------
# The kernels against the brute-force reference
# ----------------------------------------------------------------------
def _random_window(seed, side=9):
    rng = random.Random(seed)
    points = [p for p in box_points((0, 0), (side, side))
              if rng.random() < 0.7]
    assignment = {p: rng.randrange(4) for p in points}
    return points, MappingSchedule(assignment)


class TestReferenceEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_collision_lists_match_reference(self, seed, scan_lane):
        points, schedule = _random_window(seed)
        tile = chebyshev_ball(1)
        neighborhood = lambda p: tile.translate(p)  # noqa: E731
        got = find_collisions(schedule, points, neighborhood)
        assert got  # random 4-slot window must collide
        assert got == reference_collisions(points, schedule.slot_of,
                                           neighborhood)

    def test_collision_list_is_sorted_canonical(self, scan_lane):
        points, schedule = _random_window(7)
        tile = chebyshev_ball(1)
        collisions = find_collisions(schedule, points,
                                     lambda p: tile.translate(p))
        assert collisions == sorted(collisions)
        assert all(x < y for x, y in collisions)

    def test_heterogeneous_collisions_match_reference(self, scan_lane):
        multi = figure5_mixed_tiling()
        points = list(box_points((-4, -4), (4, 4)))
        bad = MappingSchedule({p: 0 for p in points})
        got = find_collisions(bad, points, multi.neighborhood_of)
        assert got
        assert got == reference_collisions(points, bad.slot_of,
                                           multi.neighborhood_of)

    def test_theorem_schedules_verify_clean(self, scan_lane):
        schedule = schedule_from_prototile(chebyshev_ball(1))
        points = list(box_points((-5, -5), (5, 5)))
        multi = figure5_mixed_tiling()
        schedule2 = schedule_from_multi_tiling(multi)
        for sched in (schedule, schedule2):
            assert verify_collision_free(sched, points, sched.neighborhood_of)
            assert not reference_collisions(points, sched.slot_of,
                                            sched.neighborhood_of)

    def test_slots_of_matches_slot_of(self, coset_lane):
        points = coset_lane(box_points((-6, -6), (6, 6)))
        schedule = schedule_from_prototile(plus_pentomino())
        multi_schedule = schedule_from_multi_tiling(figure5_mixed_tiling())
        for sched in (schedule, multi_schedule):
            assert sched.slots_of(points) == \
                reference_slots(sched.slot_of, points)

    def test_decompose_batch_matches_decompose(self):
        schedule = schedule_from_prototile(chebyshev_ball(1))
        tiling = schedule.tiling
        multi = figure5_mixed_tiling()
        points = list(box_points((-4, -4), (4, 4)))
        assert tiling.decompose_batch(points) == \
            [tiling.decompose(p) for p in points]
        assert multi.decompose_batch(points) == \
            [multi.decompose(p) for p in points]
        assert multi.prototile_indices(points) == \
            [multi.prototile_index_of(p) for p in points]

    @pytest.mark.parametrize("protocol_name",
                             ["schedule", "tdma", "aloha", "csma"])
    def test_simulator_follows_reception_rules(self, protocol_name):
        tile = chebyshev_ball(1)
        points = list(box_points((0, 0), (5, 5)))
        network = Network.homogeneous(points, tile)
        schedule = schedule_from_prototile(tile)

        def make_protocol():
            if protocol_name == "schedule":
                return ScheduleMAC(schedule)
            if protocol_name == "tdma":
                return GlobalTDMA(network.positions)
            if protocol_name == "aloha":
                return SlottedAloha(0.3)
            return CSMALike(0.3)

        receivers = {p: network.receivers_of(p) for p in network.positions}
        simulator = BroadcastSimulator(network, make_protocol(),
                                       packet_interval=5, seed=11)
        metrics = simulator.metrics
        for _ in range(40):
            failed = metrics.failed_receptions
            done = metrics.successful_broadcasts
            outcome = reference_receptions(simulator.step(), receivers)
            assert metrics.failed_receptions - failed == \
                sum(len(lost) for _, lost in outcome.values())
            assert metrics.successful_broadcasts - done == \
                sum(not lost for _, lost in outcome.values())
        assert metrics.packets_created > 0
        scalar = BroadcastSimulator(network, make_protocol(),
                                    packet_interval=5, seed=11,
                                    bulk_decisions=False).run(40)
        assert scalar == metrics
