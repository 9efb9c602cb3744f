"""Property-based tests for certificate verification.

The certificate layer's one theorem: for a schedule periodic under
``P``, the colliding classes of the fundamental-domain scan are the
classes ``(canonical(x), y - x)`` of the brute-force colliding pairs of
any window that holds a whole fundamental domain plus the conflict
reach — and the certificate is collision-free exactly when there are
none.  The strategies draw random transversal tilings (so random
periods and slot counts), randomly remap their slots to manufacture
collisions while preserving periodicity, and randomly translate the
verification window.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Box, Session
from repro.core.certify import certify_periodic, certify_schedule
from repro.core.schedule import Interference, _bulk_slots, find_collisions
from repro.core.theorem1 import schedule_from_prototile, schedule_from_tiling
from repro.engine.encode import PointBatch
from repro.lattice.sublattice import diagonal_sublattice
from repro.scenarios.reference import reference_collisions
from repro.tiles.shapes import chebyshev_ball, rectangle_tile
from repro.tiling.lattice_tiling import LatticeTiling
from repro.tiling.multi import MultiTiling
from repro.utils.vectors import as_intvec, box_points, vadd, vsub
from tests.properties.strategies import transversal_prototiles

SETTINGS = dict(max_examples=25, deadline=None)


class _Remapped:
    """A periodic schedule with slots merged by a random table.

    Composing a Theorem 1 schedule with any function of its slot value
    preserves periodicity (the slot still depends only on the coset),
    but merging slot values manufactures collisions — the interesting
    half of the certificate's case split.
    """

    def __init__(self, base, table):
        self._base = base
        self._table = table
        self.num_slots = base.num_slots

    def slot_of(self, point):
        return self._table[self._base.slot_of(point)]

    def slots_of(self, points):
        return [self._table[int(s)] for s in self._base.slots_of(points)]


def reference_classes(certificate, schedule, prototile, shift):
    """``{(canonical(x), y - x)}`` over the brute-force colliding pairs
    of a window that covers every coset and the conflict reach.

    The window is the canonical coset representatives translated by
    ``shift`` (still one point per coset) together with every point
    ``N - N`` away from one of them: both ends of every pair that can
    collide from a representative.
    """
    period = certificate.period
    cells = prototile.cells
    reach = {vsub(p, q) for p in cells for q in cells}
    domain = [vadd(r, shift) for r in period.coset_representatives()]
    window = set(domain) | {vadd(x, d) for x in domain for d in reach}
    pairs = reference_collisions(sorted(window), schedule.slot_of,
                                 prototile.translate)
    canonical = period.canonical_representative
    return {(canonical(x), vsub(y, x)) for x, y in pairs}


class TestCertificateEqualsFullScan:
    @given(transversal_prototiles(max_index=8),
           st.integers(-30, 30), st.integers(-30, 30),
           st.integers(0, 2**32))
    @settings(**SETTINGS)
    def test_remapped_schedules(self, pair, dx, dy, table_seed):
        prototile, sublattice = pair
        base = schedule_from_tiling(LatticeTiling(prototile, sublattice))
        rng = random.Random(table_seed)
        table = [rng.randrange(base.num_slots)
                 for _ in range(base.num_slots)]
        schedule = _Remapped(base, table)
        certificate = certify_periodic(schedule, sublattice,
                                       base.neighborhood_of)
        classes = reference_classes(certificate, schedule, prototile,
                                    (dx, dy))
        assert classes == set(certificate.colliding_classes)
        assert certificate.collision_free == (not classes)

    @given(transversal_prototiles(max_index=8),
           st.integers(-50, 50), st.integers(-50, 50))
    @settings(**SETTINGS)
    def test_clean_schedules_and_congruent_translates(self, pair, dx, dy):
        prototile, sublattice = pair
        schedule = schedule_from_tiling(
            LatticeTiling(prototile, sublattice))
        certificate = certify_schedule(schedule)
        assert certificate is not None and certificate.collision_free
        window = list(box_points((dx, dy), (dx + 5, dy + 5)))
        assert find_collisions(schedule, window,
                               schedule.neighborhood_of) == []
        assert reference_classes(certificate, schedule, prototile,
                                 (dx, dy)) == set()

    @given(transversal_prototiles(max_index=6),
           st.integers(-40, 40), st.integers(-40, 40))
    @settings(max_examples=15, deadline=None)
    def test_session_serves_translates_from_the_certificate(self, pair,
                                                            dx, dy):
        prototile, sublattice = pair
        session = Session.for_tiling(
            LatticeTiling(prototile, sublattice))
        report = session.verify(Box((dx, dy), (dx + 4, dy + 4)))
        assert report.source == "certificate"
        assert report.collision_free
        scan = session.verify(Box((dx, dy), (dx + 4, dy + 4)),
                              use_cache=False)
        assert scan.source == "scan"
        assert scan.collisions == report.collisions == ()


def scalar_certify(schedule, period, neighborhood_of, offsets=None):
    """The scalar reference of ``certify_periodic``: one tuple probe and
    one slot comparison per (representative, offset), in row-major
    order.  Returns ``(offsets, colliding_classes, checked_points)``.
    """
    representatives = sorted(period.coset_representatives())
    dimension = period.dimension
    zero = (0,) * dimension
    model = Interference.of(neighborhood_of)
    if offsets is None:
        shapes, _ = model.classify(representatives)
        offset_list, _ = Interference.offsets_of(tuple(shapes), dimension)
    else:
        offset_list = [as_intvec(d) for d in offsets]
    positive = sorted(d for d in set(offset_list) if d > zero)
    probes = [vadd(r, d) for r in representatives for d in positive]
    domain = PointBatch.of(representatives + probes)
    shapes, shape_ids = model.classify(domain)
    shape_ids = shape_ids.tolist()
    slots = _bulk_slots(schedule, domain).tolist()
    colliding = []
    probe_index = len(representatives)
    for i, representative in enumerate(representatives):
        for delta in positive:
            if slots[probe_index] == slots[i]:
                a, b = shape_ids[i], shape_ids[probe_index]
                if delta in {vsub(p, q) for p in shapes[a]
                             for q in shapes[b]}:
                    colliding.append((representative, delta))
            probe_index += 1
    return tuple(positive), tuple(sorted(colliding)), len(domain)


def assert_matches_scalar(certificate, schedule, period, neighborhood_of,
                          offsets=None):
    want = scalar_certify(schedule, period, neighborhood_of, offsets)
    assert (certificate.offsets, certificate.colliding_classes,
            certificate.checked_points) == want


def respectable_city():
    return MultiTiling([rectangle_tile(2, 2), rectangle_tile(1, 2)],
                       [[(0, 0)], [(2, 0), (3, 0)]],
                       diagonal_sublattice((4, 2)))


class TestArrayScanEqualsScalarScan:
    """The array scan of ``certify_periodic`` against its scalar loop."""

    @given(transversal_prototiles(max_index=8), st.integers(0, 2**32))
    @settings(**SETTINGS)
    def test_planted_colliding_classes(self, pair, table_seed):
        prototile, sublattice = pair
        base = schedule_from_tiling(LatticeTiling(prototile, sublattice))
        rng = random.Random(table_seed)
        table = [rng.randrange(base.num_slots)
                 for _ in range(base.num_slots)]
        schedule = _Remapped(base, table)
        certificate = certify_periodic(schedule, sublattice,
                                       base.neighborhood_of)
        assert_matches_scalar(certificate, schedule, sublattice,
                              base.neighborhood_of)

    @given(transversal_prototiles(max_index=8))
    @settings(**SETTINGS)
    def test_clean_schedules(self, pair):
        prototile, sublattice = pair
        schedule = schedule_from_tiling(LatticeTiling(prototile, sublattice))
        certificate = certify_schedule(schedule)
        assert certificate.collision_free
        assert_matches_scalar(certificate, schedule, certificate.period,
                              schedule.neighborhood_of)

    @given(transversal_prototiles(max_index=6),
           st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
                    max_size=6),
           st.integers(0, 2**32))
    @settings(**SETTINGS)
    def test_explicit_offsets(self, pair, offsets, table_seed):
        prototile, sublattice = pair
        base = schedule_from_tiling(LatticeTiling(prototile, sublattice))
        rng = random.Random(table_seed)
        schedule = _Remapped(base, [rng.randrange(2)
                                    for _ in range(base.num_slots)])
        certificate = certify_periodic(schedule, sublattice,
                                       base.neighborhood_of,
                                       offsets=offsets)
        assert_matches_scalar(certificate, schedule, sublattice,
                              base.neighborhood_of, offsets)

    def test_chebyshev_cubes_and_a_multi_tiling(self):
        for schedule in (schedule_from_prototile(chebyshev_ball(1, 3)),
                         schedule_from_prototile(chebyshev_ball(2, 3)),
                         Session.for_multi_tiling(
                             respectable_city()).schedule):
            certificate = certify_schedule(schedule)
            assert certificate.collision_free
            assert_matches_scalar(certificate, schedule,
                                  certificate.period,
                                  schedule.neighborhood_of)

    def test_merged_slots_on_a_cube(self):
        base = schedule_from_prototile(chebyshev_ball(1, 3))
        schedule = _Remapped(base, [slot % 5
                                    for slot in range(base.num_slots)])
        period = base.tiling.coset_structure()[0]
        certificate = certify_periodic(schedule, period,
                                       base.neighborhood_of)
        assert certificate.colliding_classes
        assert_matches_scalar(certificate, schedule, period,
                              base.neighborhood_of)

    def test_offsets_past_the_int64_bound(self):
        # The probes are built as tuples: no int64 array can hold them.
        base = schedule_from_prototile(chebyshev_ball(1))
        period = base.tiling.coset_structure()[0]
        offsets = [(1, 0), (0, 1), (2 ** 63, 5)]
        schedule = _Remapped(base, [0] * base.num_slots)
        certificate = certify_periodic(schedule, period,
                                       base.neighborhood_of,
                                       offsets=offsets)
        assert_matches_scalar(certificate, schedule, period,
                              base.neighborhood_of, offsets)
