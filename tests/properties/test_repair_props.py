"""Property tests: repair from the verification cache equals the cover-index repair.

``Session.repair`` reads each round's slots and interference closures
from the :class:`~repro.core.schedule.VerificationCache` its verify just
answered from (:class:`~repro.core.schedule.RepairContext`): a closure
probes ``x - delta`` and ``x + delta`` for the window shapes' conflict
offsets.  Its reference is the earlier repair, kept here as
:func:`scalar_repair`: every round rebuilds a point -> slot dict and a
cover index (``neighborhood(p)`` for every window point) and gathers
partners through it.

For randomly corrupted sessions both must give the same
:class:`~repro.api.RepairReport` fields and the same repaired slots:
restricted Chebyshev boxes in one to three dimensions at radius 1 and
2, a 2-D multi-tiling, a session with a narrower explicit ``offsets=``,
an arbitrary ``neighborhood_of`` callable (classified point by point),
one with more shape classes than get full pair tables, and a non-dense
point window with duplicates.
"""

from __future__ import annotations

import random
from collections.abc import Callable, Mapping, Sequence

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Box, RepairReport, Session
from repro.core.schedule import MappingSchedule
from repro.core.serialize import schedule_to_dict
from repro.engine.encode import PointBatch
from repro.lattice.sublattice import diagonal_sublattice
from repro.tiles.shapes import rectangle_tile
from repro.tiling.multi import MultiTiling
from repro.utils.vectors import IntVec, box_points, vadd

SETTINGS = dict(max_examples=25, deadline=None)


# -- the reference ------------------------------------------------------
def scalar_repair(session: Session, window=None,
                  max_rounds: int | None = None) -> RepairReport:
    """:meth:`Session.repair` with a cover index rebuilt every round."""
    report = session.verify(window)
    faults_found = len(report.collisions)
    rounds = 0
    rescheduled = 0
    limit = max(4, session.num_slots) if max_rounds is None else max_rounds
    while report.collisions and rounds < limit:
        updates = _scalar_updates(session, report.collisions, window)
        if not updates:
            updates = _scalar_exact(session, report.collisions, window)
        if not updates:
            break
        session = session.edit(updates)
        rescheduled += len(updates)
        rounds += 1
        report = session.verify(window)
    return RepairReport(
        session=session, faults_found=faults_found,
        points_rescheduled=rescheduled, rounds=rounds,
        verification_source=report.source,
        repaired=report.collision_free,
        collisions=report.collisions)


def _slots_and_cover(session, window):
    """The window's point -> slot dict and its cover index."""
    window_list = session._window_batch(window).points
    neighborhood = session._require_neighborhood()
    slot_of = {point: int(slot) for point, slot
               in zip(window_list, session.assign(window_list).slots)}
    cover: dict[IntVec, list[IntVec]] = {}
    for point in slot_of:
        for cell in neighborhood(point):
            cover.setdefault(cell, []).append(point)
    return slot_of, cover, neighborhood


def _scalar_updates(session, collisions, window):
    slot_of, cover, neighborhood = _slots_and_cover(session, window)
    num_slots = session.num_slots
    updates: dict[IntVec, int] = {}

    def conflicts_by_slot(victim):
        partners: set[IntVec] = set()
        for cell in neighborhood(victim):
            partners.update(cover.get(cell, ()))
        partners.discard(victim)
        by_slot: dict[int, list[IntVec]] = {}
        for other in sorted(partners):
            by_slot.setdefault(slot_of[other], []).append(other)
        return by_slot

    def move(victim, slot):
        updates[victim] = slot
        slot_of[victim] = slot

    for x, y in sorted(collisions):
        if slot_of.get(x) != slot_of.get(y):
            continue
        moved = False
        for victim in (y, x):
            if victim in updates or victim not in slot_of:
                continue
            by_slot = conflicts_by_slot(victim)
            free = next((s for s in range(num_slots)
                         if s not in by_slot), None)
            if free is not None:
                move(victim, free)
                moved = True
                break
        if moved:
            continue
        for victim in (y, x):
            if moved or victim in updates or victim not in slot_of:
                continue
            by_slot = conflicts_by_slot(victim)
            previous = slot_of[victim]
            for slot in range(num_slots):
                occupants = by_slot.get(slot, [])
                if slot == previous or len(occupants) != 1:
                    continue
                blocker = occupants[0]
                if blocker in updates:
                    continue
                move(victim, slot)
                blocker_slots = conflicts_by_slot(blocker)
                free = next((s for s in range(num_slots)
                             if s not in blocker_slots), None)
                if free is None:
                    slot_of[victim] = previous
                    del updates[victim]
                    continue
                move(blocker, free)
                moved = True
                break
    return updates


def _scalar_exact(session, collisions, window):
    slot_of, cover, neighborhood = _slots_and_cover(session, window)
    num_slots = session.num_slots
    closure_cache: dict[IntVec, list[IntVec]] = {}

    def closure(point):
        cached = closure_cache.get(point)
        if cached is None:
            partners: set[IntVec] = set()
            for cell in neighborhood(point):
                partners.update(cover.get(cell, ()))
            partners.discard(point)
            cached = sorted(partners)
            closure_cache[point] = cached
        return cached

    endpoints = sorted({p for pair in collisions for p in pair
                        if p in slot_of})
    clusters: list[list[IntVec]] = []
    unassigned = set(endpoints)
    for start in endpoints:
        if start not in unassigned:
            continue
        cluster = []
        queue = [start]
        unassigned.discard(start)
        while queue:
            point = queue.pop()
            cluster.append(point)
            for other in closure(point):
                if other in unassigned:
                    unassigned.discard(other)
                    queue.append(other)
        clusters.append(sorted(cluster))

    updates: dict[IntVec, int] = {}
    for cluster in clusters:
        members = list(cluster)
        solution = None
        while solution is None:
            solution = _scalar_solve_cluster(members, slot_of, closure,
                                             num_slots)
            if solution is not None:
                break
            ring = sorted({q for p in members for q in closure(p)}
                          - set(members))
            if not ring or (len(members) + len(ring)
                            > Session._REPAIR_MAX_CLUSTER):
                break
            members = sorted(set(members) | set(ring))
        if solution is not None:
            for point, slot in solution.items():
                if slot != slot_of[point]:
                    updates[point] = slot
                    slot_of[point] = slot
    return updates


def _scalar_solve_cluster(members: Sequence[IntVec],
                          slot_of: Mapping[IntVec, int],
                          closure: Callable[[IntVec], list[IntVec]],
                          num_slots: int) -> dict[IntVec, int] | None:
    member_set = set(members)
    domains: dict[IntVec, list[int]] = {}
    for point in members:
        fixed = {slot_of[q] for q in closure(point) if q not in member_set}
        current = slot_of[point]
        candidates = [s for s in range(num_slots) if s not in fixed]
        candidates.sort(key=lambda s: (s != current, s))
        if not candidates:
            return None
        domains[point] = candidates
    order = sorted(members, key=lambda p: (len(domains[p]), p))
    assigned: dict[IntVec, int] = {}
    nodes = 0

    def backtrack(depth):
        nonlocal nodes
        if depth == len(order):
            return True
        point = order[depth]
        neighbors = [q for q in closure(point) if q in member_set]
        for slot in domains[point]:
            nodes += 1
            if nodes > Session._REPAIR_MAX_NODES:
                return False
            if any(assigned.get(q) == slot for q in neighbors):
                continue
            assigned[point] = slot
            if backtrack(depth + 1):
                return True
            del assigned[point]
        return False

    if not backtrack(0):
        return None
    return dict(assigned)


# -- corrupted sessions -------------------------------------------------
def corrupt(session: Session, rng: random.Random, faults: int) -> Session:
    """``faults`` random slot reports: half copy a neighbour's slot (a
    sure collision), half a random slot."""
    window = session.window
    points = sorted(set(window))
    slot_of = dict(zip(window, session.assign(window).slots))
    dimension = len(points[0])
    updates = {}
    for _ in range(faults):
        point = rng.choice(points)
        if rng.random() < 0.5:
            axis = rng.randrange(dimension)
            step = tuple(int(i == axis) for i in range(dimension))
            slot = slot_of.get(vadd(point, step), 0)
        else:
            slot = rng.randrange(session.num_slots)
        updates[point] = int(slot)
    return session.edit(updates)


def report_fields(report: RepairReport, window) -> dict:
    fields = dict(vars(report))
    session = fields.pop("session")
    fields["schedule"] = schedule_to_dict(session.schedule)
    fields["slots"] = list(session.assign(window).slots)
    return fields


def assert_same_repair(make: Callable[[], Session], rng: random.Random,
                       faults: int, max_rounds: int | None) -> None:
    """Corrupt two copies of one session alike and repair each way."""
    seed = rng.randrange(2 ** 32)
    got_from = corrupt(make(), random.Random(seed), faults)
    want_from = corrupt(make(), random.Random(seed), faults)
    got = got_from.repair(max_rounds=max_rounds)
    want = scalar_repair(want_from, max_rounds=max_rounds)
    window = got_from.window
    assert report_fields(got, window) == report_fields(want, window)


repairs = st.tuples(st.integers(0, 2 ** 32), st.integers(1, 12),
                    st.sampled_from([None, None, 1, 2]))


@st.composite
def chebyshev_boxes(draw):
    """A radius, a dimension and a box: d = 1..3 at r = 1, d = 1..2 at
    r = 2."""
    radius = draw(st.integers(1, 2))
    dimension = draw(st.integers(1, 3 if radius == 1 else 2))
    extent = {1: 30, 2: 12, 3: 5}[dimension]
    lo = tuple(draw(st.integers(-5, 5)) for _ in range(dimension))
    hi = tuple(low + draw(st.integers(2, extent)) for low in lo)
    return radius, dimension, Box(lo, hi)


def _city() -> MultiTiling:
    return MultiTiling([rectangle_tile(2, 2), rectangle_tile(1, 2)],
                       [[(0, 0)], [(2, 0), (3, 0)]],
                       diagonal_sublattice((4, 2)))


_SHAPES = (frozenset({(0, 0), (1, 0), (0, 1)}),
           frozenset({(-1, 0), (0, -1), (1, 1)}))


def _parity_neighborhood(point: IntVec) -> frozenset[IntVec]:
    """Two interference shapes by coordinate parity; the odd one leaves
    the sensor itself out."""
    return frozenset(vadd(point, cell) for cell in _SHAPES[sum(point) % 2])


def _many_shapes_neighborhood(point: IntVec) -> frozenset[IntVec]:
    """Up to 42 interference shapes, past the 32 that get full pair
    tables: the scans and closures build difference sets on demand."""
    x, y = point
    return frozenset({point, (x + 1 + x % 7, y), (x, y + 1 + y % 6)})


class TestRepairEqualsCoverIndexRepair:
    @given(chebyshev_boxes(), repairs)
    @settings(**SETTINGS)
    def test_restricted_chebyshev_boxes(self, drawn, repair):
        radius, dimension, box = drawn
        seed, faults, max_rounds = repair
        base = Session.for_chebyshev(radius, dimension)
        assert_same_repair(lambda: base.restrict(box), random.Random(seed),
                           faults, max_rounds)

    @given(st.integers(-4, 4), st.integers(-4, 4), st.integers(3, 12),
           repairs)
    @settings(**SETTINGS)
    def test_multi_tiling(self, x, y, side, repair):
        seed, faults, max_rounds = repair
        base = Session.for_multi_tiling(_city())
        box = Box((x, y), (x + side, y + side))
        assert_same_repair(lambda: base.restrict(box), random.Random(seed),
                           faults, max_rounds)

    @given(st.integers(3, 10), repairs,
           st.sets(st.sampled_from([(0, 1), (1, -1), (1, 0), (1, 1)]),
                   min_size=1))
    @settings(**SETTINGS)
    def test_narrower_explicit_offsets(self, side, repair, kept):
        seed, faults, max_rounds = repair
        base = Session.for_chebyshev(1)
        box = Box((0, 0), (side, side))
        offsets = sorted(kept | {tuple(-c for c in delta) for delta in kept})

        def make():
            restricted = base.restrict(box)
            return Session(restricted.schedule, window=box,
                           neighborhood_of=base.neighborhood_of,
                           offsets=offsets)

        assert_same_repair(make, random.Random(seed), faults, max_rounds)

    @given(st.integers(3, 9), st.booleans(), repairs)
    @settings(**SETTINGS)
    def test_arbitrary_neighborhood_callable(self, side, grid, repair):
        seed, faults, max_rounds = repair
        rng = random.Random(seed)
        batch = PointBatch.box((0, 0), (side, side))
        slots = [rng.randrange(4) for _ in range(len(batch))]

        def make():
            schedule = (MappingSchedule.from_batch(batch, slots) if grid
                        else MappingSchedule(dict(zip(batch.points, slots))))
            return Session(schedule, window=batch,
                           neighborhood_of=_parity_neighborhood)

        assert_same_repair(make, rng, faults, max_rounds)

    @given(st.integers(7, 10), repairs)
    @settings(**SETTINGS)
    def test_more_shapes_than_pair_tables(self, side, repair):
        seed, faults, max_rounds = repair
        rng = random.Random(seed)
        points = list(box_points((0, 0), (side, side)))
        table = {point: rng.randrange(5) for point in points}

        def make():
            return Session.for_mapping(
                table, window=points,
                neighborhood_of=_many_shapes_neighborhood)

        assert_same_repair(make, rng, faults, max_rounds)

    @given(st.integers(4, 10), repairs)
    @settings(**SETTINGS)
    def test_sparse_window_with_duplicates(self, side, repair):
        seed, faults, max_rounds = repair
        rng = random.Random(seed)
        base = Session.for_chebyshev(1)
        box = list(box_points((0, 0), (side, side)))
        kept = rng.sample(box, len(box) * 2 // 3)
        window = kept + rng.sample(kept, 5)
        table = dict(zip(kept, base.assign(kept).slots))

        def make():
            return Session.for_mapping(table, window=window,
                                       neighborhood_of=base.neighborhood_of)

        assert not PointBatch.of(window).dense
        assert_same_repair(make, rng, faults, max_rounds)
