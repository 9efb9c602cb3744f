"""Certificate verification tests: repro.core.certify.

The certificate's contract is exactness: for any window whatsoever,
``verify_points`` / ``verify_box`` must equal a full
:func:`find_collisions` scan bit for bit — the fundamental-domain scan
is an optimization grounded in periodicity, never an approximation.
These tests drive clean (Theorem 1/2) and deliberately colliding
periodic schedules through certification, serialization round-trips,
the ``find_collisions(certificate=)`` hook and the out-of-core
streaming scanner, and hold the colliding verdicts to the brute-force
reference.
"""

import tracemalloc

import pytest

from repro.core.certify import (
    PeriodicCertificate,
    certificate_from_dict,
    certificate_from_json,
    certify_periodic,
    certify_schedule,
    stream_box_collisions,
)
from repro.core.schedule import (
    MappingSchedule,
    TilingSchedule,
    VerificationCache,
    find_collisions,
    verify_collision_free,
)
from repro.core.serialize import schedule_from_json, schedule_to_json
from repro.core.theorem1 import schedule_from_prototile
from repro.core.theorem2 import schedule_from_multi_tiling
from repro.lattice.sublattice import diagonal_sublattice
from repro.scenarios.reference import reference_collisions
from repro.tiles.shapes import chebyshev_ball
from repro.tiling.construct import alternating_column_tiling
from repro.utils.vectors import box_points

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
        # O(1) verdicts agree with the scan on any window, including
        # a translated (congruent) one
        for lo, hi in (((0, 0), (9, 9)), ((-17, 31), (-8, 40))):
            window = list(box_points(lo, hi))
            assert certificate.verify_points(window) == []
            assert certificate.verify_box(lo, hi) == []
            assert find_collisions(schedule, window,
                                   schedule.neighborhood_of) == []

    def test_theorem2_schedule_certifies_collision_free(self, scan_lane):
        schedule = schedule_from_multi_tiling(
            alternating_column_tiling("SZ"))
        certificate = certify_schedule(schedule)
        assert certificate is not None
        assert certificate.collision_free
        window = list(box_points((-5, -5), (6, 6)))
        assert certificate.verify_points(window) == []
        assert find_collisions(schedule, window,
                               schedule.neighborhood_of) == []


class TestCollidingSchedules:
    def test_verdict_matches_full_scan_bit_for_bit(self, scan_lane):
        schedule, certificate = _colliding_certificate()
        assert not certificate.collision_free
        assert certificate.colliding_classes
        for lo, hi in (((0, 0), (6, 6)), ((-9, 4), (-2, 11))):
            window = list(box_points(lo, hi))
            want = find_collisions(schedule, window, _flat_neighborhood)
            assert want  # the differential saw real collisions
            assert want == reference_collisions(window, schedule.slot_of,
                                                _flat_neighborhood)
            assert certificate.verify_points(window) == want
            assert certificate.verify_box(lo, hi) == want

    def test_verify_points_follows_window_membership(self):
        schedule, certificate = _colliding_certificate()
        # a sparse, unordered window: only pairs with both endpoints
        # present may appear
        window = [(4, 4), (0, 0), (1, 1), (0, 1), (5, 0)]
        want = find_collisions(schedule, window, _flat_neighborhood)
        assert certificate.verify_points(window) == want
        assert certificate.verify_points([]) == []


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
    def test_json_round_trip_preserves_the_verdict(self):
        schedule, certificate = _colliding_certificate()
        rebuilt = certificate_from_json(certificate.to_json())
        assert rebuilt.colliding_classes == certificate.colliding_classes
        assert rebuilt.offsets == certificate.offsets
        assert rebuilt.checked_points == certificate.checked_points
        assert rebuilt.period.basis == certificate.period.basis
        window = list(box_points((0, 0), (5, 5)))
        assert rebuilt.verify_points(window) == \
            certificate.verify_points(window)

    def test_covers_by_identity_and_by_digest(self):
        schedule = schedule_from_prototile(_TILE)
        certificate = certify_schedule(schedule)
        assert certificate.covers(schedule)
        # a save/load round-trip keeps its certificate via the digest
        reloaded = schedule_from_json(schedule_to_json(schedule))
        assert certificate.covers(reloaded)
        rebuilt = certificate_from_json(certificate.to_json())
        assert rebuilt.covers(schedule)
        other = schedule_from_prototile(chebyshev_ball(2))
        assert not certificate.covers(other)

    def test_unserializable_schedules_cover_by_identity_only(self):
        schedule, certificate = _colliding_certificate()
        assert certificate.schedule_digest is None
        assert certificate.covers(schedule)
        assert not certificate.covers(_Flat())

    def test_unknown_kind_is_rejected(self):
        with pytest.raises(ValueError, match="certificate kind"):
            certificate_from_dict({"kind": "mystery"})

    def test_repr_names_the_verdict(self):
        schedule = schedule_from_prototile(_TILE)
        assert "collision-free" in repr(certify_schedule(schedule))
        _, colliding = _colliding_certificate()
        assert "colliding classes" in repr(colliding)


class TestFindCollisionsHook:
    def test_certificate_answers_find_collisions(self):
        schedule = schedule_from_prototile(_TILE)
        certificate = certify_schedule(schedule)
        window = list(box_points((0, 0), (7, 7)))
        assert find_collisions(schedule, window, schedule.neighborhood_of,
                               certificate=certificate) == []
        assert verify_collision_free(schedule, window,
                                     schedule.neighborhood_of,
                                     certificate=certificate)

    def test_mismatched_certificate_is_an_error(self):
        certificate = certify_schedule(schedule_from_prototile(_TILE))
        other = schedule_from_prototile(chebyshev_ball(2))
        with pytest.raises(ValueError, match="certificate mismatch"):
            find_collisions(other, [(0, 0)], other.neighborhood_of,
                            certificate=certificate)

    def test_cache_and_certificate_are_mutually_exclusive(self):
        schedule = schedule_from_prototile(_TILE)
        certificate = certify_schedule(schedule)
        window = list(box_points((0, 0), (4, 4)))
        cache = VerificationCache(schedule, window,
                                  schedule.neighborhood_of)
        with pytest.raises(ValueError, match="not both"):
            find_collisions(schedule, window, schedule.neighborhood_of,
                            cache=cache, certificate=certificate)


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
