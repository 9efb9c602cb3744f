"""Certificate verification tests: repro.core.certify.

The certificate's contract is exactness: for a periodic schedule, the
colliding classes of the fundamental-domain scan are exactly the
classes ``(canonical(x), y - x)`` of a full window scan's pairs, and a
collision-free certificate lets :meth:`repro.api.Session.verify` answer
any window with no collisions — the fundamental-domain scan is an
optimization grounded in periodicity, never an approximation.  These
tests drive clean (Theorem 1/2) and deliberately colliding periodic
schedules through certification, the certificate lane of
``Session.verify`` and the out-of-core streaming scanner, and hold the
colliding verdicts to the brute-force reference.
"""

import tracemalloc

import pytest

from repro.api import Box, Session
from repro.core.certify import (
    certify_periodic,
    certify_schedule,
    stream_box_collisions,
)
from repro.core.schedule import (
    MappingSchedule,
    TilingSchedule,
    find_collisions,
    verify_collision_free,
)
from repro.core.theorem1 import schedule_from_prototile
from repro.core.theorem2 import schedule_from_multi_tiling
from repro.lattice.sublattice import diagonal_sublattice
from repro.scenarios.reference import reference_collisions
from repro.service.server import SchedulingService
from repro.service.store import SessionStore
from repro.service.transport.client import ServiceClient
from repro.service.transport.server import WireServer
from repro.tiles.shapes import chebyshev_ball
from repro.tiling.construct import alternating_column_tiling
from repro.utils.vectors import box_points, vsub

_TILE = chebyshev_ball(1)


class _Flat:
    """Everything in slot 0 — periodic under any sublattice, colliding."""

    num_slots = 1

    def slot_of(self, point):
        return 0

    def slots_of(self, points):
        return [0] * len(points)


def _flat_neighborhood(point):
    return _TILE.translate(point)


def _colliding_certificate():
    schedule = _Flat()
    period = diagonal_sublattice((2, 2))
    return schedule, certify_periodic(schedule, period, _flat_neighborhood)


class TestCleanSchedules:
    def test_theorem1_schedule_certifies_collision_free(self, scan_lane):
        schedule = schedule_from_prototile(_TILE)
        certificate = certify_schedule(schedule)
        assert certificate is not None
        assert certificate.collision_free
        assert certificate.num_slots == schedule.num_slots
        assert certificate.checked_points > 0
        # The certificate answers any window, including a translated
        # (congruent) one, as the scan does
        session = Session(schedule)
        for lo, hi in (((0, 0), (9, 9)), ((-17, 31), (-8, 40))):
            window = list(box_points(lo, hi))
            for spec in (Box(lo, hi), window):
                report = session.verify(spec)
                assert report.source == "certificate"
                assert report.collisions == ()
                assert report.window_size == len(window)
            assert find_collisions(schedule, window,
                                   schedule.neighborhood_of) == []

    def test_theorem2_schedule_certifies_collision_free(self, scan_lane):
        schedule = schedule_from_multi_tiling(
            alternating_column_tiling("SZ"))
        certificate = certify_schedule(schedule)
        assert certificate is not None
        assert certificate.collision_free
        window = list(box_points((-5, -5), (6, 6)))
        report = Session(schedule).verify(window)
        assert (report.source, report.collisions) == ("certificate", ())
        assert find_collisions(schedule, window,
                               schedule.neighborhood_of) == []


class TestCollidingSchedules:
    def test_verdict_matches_full_scan_bit_for_bit(self, scan_lane):
        schedule, certificate = _colliding_certificate()
        assert not certificate.collision_free
        assert certificate.colliding_classes
        canonical = certificate.period.canonical_representative
        # Both windows hold a whole fundamental domain plus the
        # conflict reach, so every class shows up in each.
        for lo, hi in (((0, 0), (6, 6)), ((-9, 4), (-2, 11))):
            window = list(box_points(lo, hi))
            want = find_collisions(schedule, window, _flat_neighborhood)
            assert want  # the differential saw real collisions
            assert want == reference_collisions(window, schedule.slot_of,
                                                _flat_neighborhood)
            assert {(canonical(x), vsub(y, x)) for x, y in want} \
                == set(certificate.colliding_classes)


class TestFallbacks:
    def test_mapping_schedules_do_not_certify(self):
        points = list(box_points((0, 0), (4, 4)))
        base = schedule_from_prototile(_TILE)
        mapping = MappingSchedule(dict(zip(points, base.slots_of(points))))
        assert certify_schedule(mapping) is None

    def test_overridden_neighborhood_voids_certification(self):
        class Widened(TilingSchedule):
            def neighborhood_of(self, point):
                return chebyshev_ball(2).translate(point)

        base = schedule_from_prototile(_TILE)
        widened = Widened(base.tiling, base.cells)
        assert certify_schedule(widened) is None


class TestSerialization:
    """The certificate's one text form is its ``repr``."""

    def test_repr_names_the_verdict(self):
        schedule = schedule_from_prototile(_TILE)
        assert "collision-free" in repr(certify_schedule(schedule))
        _, colliding = _colliding_certificate()
        assert "colliding classes" in repr(colliding)


class TestFindCollisionsHook:
    """``find_collisions`` and the certificate lane of ``Session.verify``
    agree on a certified schedule."""

    def test_certificate_answers_find_collisions(self):
        schedule = schedule_from_prototile(_TILE)
        window = list(box_points((0, 0), (7, 7)))
        report = Session(schedule).verify(window)
        assert report.source == "certificate"
        assert list(report.collisions) == find_collisions(
            schedule, window, schedule.neighborhood_of) == []
        assert verify_collision_free(schedule, window,
                                     schedule.neighborhood_of)


_WRONG_DIMENSION = {
    "box": Box((0, 0, 0), (3, 3, 3)),
    "box1d": Box((0,), (5,)),
    "list": [(0, 0, 0), (1, 1, 1)],
}
_LANES = {
    "certificate": {},
    "scan": {"use_cache": False},
    "restricted": {},
    "stream": {"stream_chunk": 10},
}


class TestWindowDimension:
    """A window of the wrong dimension is refused on every lane, before
    any scan, with one message naming both dimensions."""

    @pytest.mark.parametrize("lane, form", [
        (lane, form) for lane in sorted(_LANES)
        for form in sorted(_WRONG_DIMENSION)
        # stream_chunk takes only a Box
        if lane != "stream" or form != "list"])
    def test_every_lane_refuses_it(self, lane, form):
        session = Session.for_chebyshev(1, 2, window=Box((0, 0), (5, 5)))
        if lane == "restricted":  # a slot grid's cached lane
            session = session.restrict()
        window = _WRONG_DIMENSION[form]
        dimension = (len(window.lo) if isinstance(window, Box)
                     else len(window[0]))
        with pytest.raises(ValueError, match=(
                f"^window dimension {dimension} != lattice dimension 2$")):
            session.verify(window, **_LANES[lane])

    def test_certificate_lane_names_both_dimensions(self):
        session = Session.for_chebyshev(1, 2)
        with pytest.raises(ValueError, match="dimension 3 != .*dimension 2"):
            session.verify(Box((0, 0, 0), (3, 3, 3)))
        assert session.verify(Box((0, 0), (3, 3))).source == "certificate"
        assert session.verify([]).window_size == 0

    def test_service_over_the_wire_refuses_it(self):
        service = SchedulingService(SessionStore())
        with service, WireServer(service).start() as server, \
                ServiceClient(*server.address, timeout=30) as client:
            client.open_session("s", Session.for_chebyshev(1, 2))
            with pytest.raises(ValueError, match="dimension"):
                client.verify("s", Box((0, 0, 0), (3, 3, 3)))
            assert client.verify("s", Box((0, 0), (3, 3))).collision_free


class TestStreaming:
    def test_streamed_scan_equals_one_shot(self, scan_lane):
        lo, hi = (-4, -3), (17, 12)
        for schedule, neighborhood in (
                (schedule_from_prototile(_TILE), None),
                (schedule_from_multi_tiling(
                    alternating_column_tiling("SZ")), None),
                (_Flat(), _flat_neighborhood)):
            nb = neighborhood or schedule.neighborhood_of
            offsets = (sorted({(0, 1), (1, 0), (1, 1), (0, -1),
                               (-1, 0), (2, 0), (0, 2), (1, -1)})
                       if neighborhood else None)
            want = find_collisions(schedule,
                                   list(box_points(lo, hi)), nb,
                                   offsets=offsets)
            for chunk in (1, 7, 50, 10**6):
                got = stream_box_collisions(schedule, lo, hi, nb,
                                            offsets=offsets,
                                            chunk_points=chunk)
                assert got == want

    def test_structureless_schedules_need_explicit_offsets(self):
        with pytest.raises(ValueError, match="offsets"):
            stream_box_collisions(_Flat(), (0, 0), (5, 5),
                                  _flat_neighborhood)

    def test_bad_arguments_are_loud(self):
        schedule = schedule_from_prototile(_TILE)
        with pytest.raises(ValueError, match="lo <= hi"):
            stream_box_collisions(schedule, (5, 0), (0, 5),
                                  schedule.neighborhood_of)
        with pytest.raises(ValueError, match="chunk_points"):
            stream_box_collisions(schedule, (0, 0), (5, 5),
                                  schedule.neighborhood_of, chunk_points=0)

    def test_large_window_verifies_under_a_memory_cap(self):
        # A window far larger than the chunk size must stream in bounded
        # memory: peak allocation tracks the slab, not the window.  (The
        # 10^7-point version of this smoke lives in benchmarks/
        # bench_scaling.py; this tier-1 variant keeps the suite fast.)
        schedule = schedule_from_prototile(_TILE)
        side = 500  # 250_000 points, chunks of 10_000
        tracemalloc.start()
        try:
            collisions = stream_box_collisions(
                schedule, (0, 0), (side - 1, side - 1),
                schedule.neighborhood_of, chunk_points=10_000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert collisions == []
        # one slab is ~20 rows x 500 columns; 32 MiB is a generous
        # ceiling that a materialized 250k-point window would blow past
        assert peak < 32 * 1024 * 1024
