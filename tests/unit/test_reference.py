"""The brute-force reference, and the engine's exact path held to it.

:mod:`repro.scenarios.reference` states the paper's definitions with
dicts and sets.  These tests pin it on hand-checked cases, then drive
the inputs that make the engine leave its int64 kernels — windows
whose ``BoxEncoder`` keys overflow int64, coordinates of ``2**40`` or
more, and an injected numpy kernel failure — and demand the reference
answer from each.  A matrix of Theorem 1/2 schedules and random slot
maps in one to three dimensions, over whole boxes and sparse windows,
then holds collision scans (on the dense, sorted-key and exact lanes),
batch slot lookups (inside and beyond int64 reach) and the simulator's
reception counts to the reference.
"""

import random

import pytest

import repro.engine.collisions as collisions_module
import repro.engine.slots as slots_module
from repro.api import Box
from repro.core.schedule import MappingSchedule, find_collisions
from repro.core.theorem1 import schedule_from_prototile
from repro.core.theorem2 import schedule_from_multi_tiling
from repro.engine.collisions import EngineDegradedWarning, scan_collisions
from repro.engine.encode import BoxEncoder
from repro.faults.injection import use_plan
from repro.faults.plan import FaultPlan
from repro.net.model import Network
from repro.net.protocols import CSMALike, ScheduleMAC, SlottedAloha
from repro.net.simulator import BroadcastSimulator
from repro.scenarios.reference import (
    reference_collisions,
    reference_receptions,
    reference_slots,
)
from repro.tiles.shapes import (
    chebyshev_ball,
    directional_antenna,
    plus_pentomino,
)
from repro.tiling.construct import (
    alternating_column_tiling,
    figure5_mixed_tiling,
)
from repro.utils.vectors import box_points, vadd


def _spy(monkeypatch, module, name):
    """Wrap ``module.name`` so the test can see whether it ran."""
    calls = []
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


class TestReferenceDefinitions:
    def test_collisions_on_a_line(self):
        # Radius-1 ranges on a line meet when sensors are at most 2
        # apart; slot 0 everywhere except a lone sensor in slot 1.
        tile = chebyshev_ball(1, dimension=1)
        slots = {(0,): 0, (1,): 0, (3,): 0, (6,): 0, (7,): 1}
        got = reference_collisions(slots, slots.__getitem__, tile.translate)
        assert got == [((0,), (1,)), ((1,), (3,))]

    def test_no_pairs_without_shared_slot(self):
        tile = chebyshev_ball(1)
        points = list(box_points((0, 0), (2, 2)))
        assert reference_collisions(points, lambda p: p[0] * 3 + p[1],
                                    tile.translate) == []

    def test_slots_follow_input_order(self):
        assert reference_slots(lambda p: p[0] - p[1],
                               [(3, 1), (0, 0), (1, 4)]) == [2, 0, -3]

    def test_receptions_apply_both_rules(self):
        # a - b - c - d on a line, each reaching its neighbours.
        a, b, c, d = (0,), (1,), (2,), (3,)
        receivers = {a: {b}, b: {a, c}, c: {b, d}, d: {c}}
        outcome = reference_receptions([a, c], receivers)
        # b is reached by both a and c (rule 2); d hears c alone.
        assert outcome[a] == (frozenset(), frozenset({b}))
        assert outcome[c] == (frozenset({d}), frozenset({b}))
        # A transmitter cannot receive (rule 1): b and c send together.
        outcome = reference_receptions([b, c], receivers)
        assert outcome[b] == (frozenset({a}), frozenset({c}))
        assert outcome[c] == (frozenset({d}), frozenset({b}))


class TestExactCollisionScan:
    def test_sparse_window_beyond_int64_keys(self, monkeypatch):
        # Two 3x3x3 clusters about 2**21 apart: the padded bounding box
        # holds more than 2**62 points, so no int64 key encodes it.
        tile = chebyshev_ball(1, dimension=3)
        far = (2 ** 21, 2 ** 21 + 5, 2 ** 21 - 7)
        cluster = list(box_points((0, 0, 0), (2, 2, 2)))
        points = cluster + [vadd(p, far) for p in cluster]
        rng = random.Random(5)
        slot = {p: rng.randrange(3) for p in points}
        shape = frozenset(tile.translate((0, 0, 0)))
        offsets = sorted({tuple(a - b for a, b in zip(p, q))
                          for p in shape for q in shape} - {(0, 0, 0)})
        assert not BoxEncoder(points, pad=(2, 2, 2)).fits_int64
        exact = _spy(monkeypatch, collisions_module,
                     "scan_collisions_touching")

        got = scan_collisions(points, [slot[p] for p in points],
                              [0] * len(points), [shape], offsets)

        assert exact == ["scan_collisions_touching"]
        want = reference_collisions(points, slot.__getitem__, tile.translate)
        assert got == want
        # planted collisions in both clusters
        assert any(x[0] < 2 ** 20 for x, _ in want)
        assert any(x[0] > 2 ** 20 for x, _ in want)

    def test_box_window_beyond_int64_headroom(self, monkeypatch):
        # A box whose corners leave no int64 headroom for keys is never
        # laid out as a grid: its batch keeps tuples and scans exactly.
        tile = chebyshev_ball(1)
        lo, hi = (2 ** 62, -3), (2 ** 62 + 4, 2)
        points = list(box_points(lo, hi))
        rng = random.Random(9)
        schedule = MappingSchedule({p: rng.randrange(3) for p in points})
        exact = _spy(monkeypatch, collisions_module,
                     "scan_collisions_touching")

        got = find_collisions(schedule, Box(lo, hi).batch(), tile.translate)

        assert exact == ["scan_collisions_touching"]
        want = reference_collisions(points, schedule.slot_of, tile.translate)
        assert want and got == want


class TestExactCosetLookup:
    def test_coordinates_of_2_40_and_beyond(self, monkeypatch):
        schedule = schedule_from_prototile(chebyshev_ball(1))
        points = ([(2 ** 40 + i, -(2 ** 41) + j)
                   for i in range(4) for j in range(3)]
                  + [(2 ** 70, 5), (-3, -(2 ** 66))])
        exact = _spy(monkeypatch, slots_module.CosetTable, "_lookup_exact")

        got = schedule.slots_of(points)

        assert exact == ["_lookup_exact"]
        assert got == reference_slots(schedule.slot_of, points)
        assert len(set(got)) > 1


class TestDegradedScan:
    def test_armed_kernel_failure_answers_the_reference(self):
        tile = chebyshev_ball(1)
        points = list(box_points((0, 0), (8, 8)))
        rng = random.Random(3)
        schedule = MappingSchedule({p: rng.randrange(4) for p in points})
        want = reference_collisions(points, schedule.slot_of, tile.translate)
        assert want
        with use_plan(FaultPlan(numpy_failures=1)):
            with pytest.warns(EngineDegradedWarning):
                degraded = find_collisions(schedule, points, tile.translate)
        assert degraded == want


# ----------------------------------------------------------------------
# The engine against the reference over a matrix of schedules.
# ----------------------------------------------------------------------
# name -> (schedule builder, window corners).  Theorem 1 and 2
# schedules are collision-free on every window.
TILING_CASES = {
    "theorem1-line": (lambda: schedule_from_prototile(
        chebyshev_ball(2, dimension=1)), (-9,), (30,)),
    "theorem1-grid": (lambda: schedule_from_prototile(chebyshev_ball(1)),
                      (-6, -4), (7, 8)),
    "theorem1-cube": (lambda: schedule_from_prototile(
        chebyshev_ball(1, dimension=3)), (-1, 0, -2), (3, 4, 2)),
    "theorem1-pentomino": (lambda: schedule_from_prototile(
        plus_pentomino()), (-5, -5), (6, 6)),
    "theorem1-antenna": (lambda: schedule_from_prototile(
        directional_antenna()), (-4, -6), (7, 5)),
    "theorem2-columns": (lambda: schedule_from_multi_tiling(
        alternating_column_tiling("SZ")), (-5, -5), (6, 6)),
    "theorem2-figure5": (lambda: schedule_from_multi_tiling(
        figure5_mixed_tiling()), (-4, -4), (5, 5)),
}

# name -> (neighbourhood, window corners, slot count, seed, fill).
# Random slot maps over a share ``fill`` of the window, dense enough
# that each one collides; a full window is a whole box, which the
# engine scans with its stencil.
RANDOM_CASES = {
    "random-line": (chebyshev_ball(2, dimension=1).translate,
                    (0,), (40,), 3, 1, 0.8),
    "random-grid": (chebyshev_ball(1).translate, (-3, -3), (6, 6), 4, 2,
                    0.8),
    "random-cube": (chebyshev_ball(1, dimension=3).translate,
                    (0, 0, 0), (3, 3, 3), 5, 3, 0.8),
    "random-antenna": (directional_antenna().translate,
                       (0, 0), (8, 8), 3, 4, 0.8),
    "random-figure5-hoods": (figure5_mixed_tiling().neighborhood_of,
                             (-4, -4), (4, 4), 6, 5, 0.8),
    "random-grid-box": (chebyshev_ball(1).translate, (-3, -3), (6, 6), 4,
                        6, 1.0),
    "random-cube-box": (chebyshev_ball(1, dimension=3).translate,
                        (0, 0, 0), (3, 3, 3), 5, 7, 1.0),
    "random-figure5-box": (figure5_mixed_tiling().neighborhood_of,
                           (-4, -4), (4, 4), 6, 8, 1.0),
}


@pytest.mark.parametrize("case", sorted(TILING_CASES) + sorted(RANDOM_CASES))
def test_find_collisions_matches_reference(case, scan_lane, monkeypatch):
    if case in TILING_CASES:
        build, lo, hi = TILING_CASES[case]
        schedule = build()
        points = list(box_points(lo, hi))
        neighborhood = schedule.neighborhood_of
        whole_box = True
    else:
        neighborhood, lo, hi, num_slots, seed, fill = RANDOM_CASES[case]
        rng = random.Random(seed)
        points = [p for p in box_points(lo, hi) if rng.random() < fill]
        schedule = MappingSchedule({p: rng.randrange(num_slots)
                                    for p in points})
        whole_box = fill == 1.0
    want = reference_collisions(points, schedule.slot_of, neighborhood)
    assert bool(want) == (case in RANDOM_CASES)
    stencil = _spy(monkeypatch, collisions_module, "_scan_dense")
    assert find_collisions(schedule, points, neighborhood) == want
    if scan_lane == "dense":
        assert bool(stencil) == whole_box


@pytest.mark.parametrize("case", sorted(TILING_CASES))
def test_slots_of_matches_reference(case, coset_lane):
    build, lo, hi = TILING_CASES[case]
    schedule = build()
    points = coset_lane(box_points(lo, hi))
    got = schedule.slots_of(points)
    assert got == reference_slots(schedule.slot_of, points)
    assert len(set(got)) == schedule.num_slots


NETWORKS = {
    "line": (chebyshev_ball(2, dimension=1), (0,), (24,)),
    "cube": (chebyshev_ball(1, dimension=3), (0, 0, 0), (3, 3, 2)),
    "antenna": (directional_antenna(), (0, 0), (6, 6)),
}


@pytest.mark.parametrize("protocol_name", ["schedule", "aloha", "csma"])
@pytest.mark.parametrize("network_name", sorted(NETWORKS))
def test_simulator_matches_reference_receptions(network_name,
                                                protocol_name):
    tile, lo, hi = NETWORKS[network_name]
    network = Network.homogeneous(list(box_points(lo, hi)), tile)
    if protocol_name == "schedule":
        protocol = ScheduleMAC(schedule_from_prototile(tile))
    elif protocol_name == "aloha":
        protocol = SlottedAloha(0.25)
    else:
        protocol = CSMALike(0.25)
    receivers = {p: network.receivers_of(p) for p in network.positions}
    simulator = BroadcastSimulator(network, protocol, packet_interval=4,
                                   seed=17)
    metrics = simulator.metrics
    for _ in range(30):
        failed = metrics.failed_receptions
        done = metrics.successful_broadcasts
        outcome = reference_receptions(simulator.step(), receivers)
        assert metrics.failed_receptions - failed == \
            sum(len(lost) for _, lost in outcome.values())
        assert metrics.successful_broadcasts - done == \
            sum(not lost for _, lost in outcome.values())
    assert metrics.packets_created > 0
