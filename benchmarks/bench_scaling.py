"""Benchmark + regeneration of the scalability claim (contribution 2).

The tiling schedule's round length stays |N| while TDMA's grows with the
network; slot assignment per sensor is O(1) versus growing coloring cost.
The bulk cases stress the engine's vectorized slot assignment on a
~10^5-sensor window against the per-point ``slot_of`` loop.
"""

import random
import time

import pytest

from repro.api import Box, EngineConfig, Session
from repro.core.certify import certify_schedule
from repro.core.schedule import MappingSchedule, find_collisions
from repro.core.serialize import schedule_digest
from repro.engine.encode import PointBatch
from repro.engine import cpu_budget
from repro.experiments.base import format_rows
from repro.experiments.systems_experiments import run_scaling
from repro.graphs.coloring import dsatur_coloring
from repro.graphs.interference import conflict_graph_homogeneous
from repro.lattice.region import box_region
from repro.tiles import exactness
from repro.tiles.shapes import chebyshev_ball
from repro.tiling.lattice_tiling import LatticeTiling
from repro.utils.vectors import as_intvec, box_points
from tests.properties.test_certify_props import scalar_certify
from tests.properties.test_exactness_props import scalar_first_tiling
from tests.properties.test_repair_props import (
    corrupt,
    report_fields,
    scalar_repair,
)

_TILE = chebyshev_ball(1)
_SCHEDULE = Session.for_prototile(_TILE).schedule
# 316 x 316 = 99856 sensors: the large-window engine workload.
_BULK_SIDE = 316
# 100 x 100 = 10^4 sensors: the random-MAC simulator workload.
_RANDMAC_SIDE = 100


def _window(side):
    """Row-major window list (the natural bulk representation)."""
    return list(box_points((0, 0), (side - 1, side - 1)))


def test_scaling_regenerates(report, benchmark):
    result = benchmark.pedantic(run_scaling, rounds=1, iterations=1)
    report("Contribution 2 — scalability", format_rows(result.rows))
    assert result.passed


@pytest.mark.parametrize("side", [8, 16, 32])
def test_tiling_assignment_scales_linearly(benchmark, side):
    points = box_region((0, 0), (side - 1, side - 1)).points

    def assign_all():
        return [_SCHEDULE.slot_of(p) for p in points]

    slots = benchmark(assign_all)
    assert len(slots) == side * side


@pytest.mark.parametrize("side", [8, 16])
def test_dsatur_baseline_cost(benchmark, side):
    points = box_region((0, 0), (side - 1, side - 1)).points
    graph = conflict_graph_homogeneous(points, _TILE)

    coloring = benchmark(dsatur_coloring, graph)
    assert max(coloring.values()) + 1 >= _TILE.size


@pytest.mark.parametrize("side", [100, _BULK_SIDE])
def test_bulk_slot_assignment(benchmark, side):
    points = _window(side)
    session = Session(_SCHEDULE)

    assignment = benchmark.pedantic(session.assign, args=(points,),
                                    rounds=1, iterations=1)
    assert len(assignment) == side * side
    assert set(assignment.slots) == set(range(session.num_slots))


@pytest.mark.skipif(cpu_budget() < 4,
                    reason="the >= 2x shard gate needs >= 4 usable cores "
                           "(on 2 cores the theoretical ceiling is 2.0x)")
def test_sharded_collision_scan_speedup(report, record_scaling):
    """Offset-sharded numpy scan on a 10^5-point window vs serial.

    The ROADMAP asks for multi-core throughput *beyond single-threaded
    numpy*, so the workload pins radius-2 neighborhoods (40 positive
    conflict offsets) and shards the numpy scan's offset axis across
    the engine's thread pool.  Results must be bit-identical for every
    worker count, and with 4 workers on 4+ cores the wall-clock target
    of >= 2x leaves pool handoff/merge overhead plenty of headroom.
    """
    points = _window(_BULK_SIDE)
    worker_counts = (2, 4)
    schedule = Session.for_prototile(chebyshev_ball(2)).schedule

    serial_session = Session(schedule, config=EngineConfig(workers=1))
    serial_time = float("inf")
    for _ in range(2):
        t0 = time.perf_counter()
        serial = serial_session.verify(points, use_cache=False).collisions
        serial_time = min(serial_time, time.perf_counter() - t0)
    record_scaling("collision-scan/serial", seconds=serial_time,
                   workers=1, sensors=len(points))

    best_speedup = 0.0
    for workers in worker_counts:
        session = Session(schedule, config=EngineConfig(workers=workers))
        t0 = time.perf_counter()
        sharded = session.verify(points, use_cache=False).collisions
        shard_time = time.perf_counter() - t0
        assert sharded == serial
        speedup = serial_time / shard_time
        best_speedup = max(best_speedup, speedup)
        record_scaling("collision-scan/sharded", seconds=shard_time,
                       speedup=speedup, workers=workers,
                       sensors=len(points))

    report("Engine — sharded collision scan",
           f"{len(points)} sensors, numpy offset-sharded scan: serial "
           f"{serial_time * 1e3:.0f} ms, best sharded "
           f"{serial_time / best_speedup * 1e3:.0f} ms "
           f"({best_speedup:.1f}x on up to {max(worker_counts)} workers), "
           f"collision lists bit-identical")
    assert best_speedup >= 2


def test_threaded_box_verify(report, record_scaling):
    """Uncached Chebyshev r=2 verify of a 1500x1500 ``Box``, 1 vs 2 workers.

    The stencil scan shards its offset passes across the engine's
    thread pool, and numpy releases the GIL in each pass, so 2 threads
    can gain even on a 2-core host.  The row records both times and
    the speedup; it asserts only that the collision lists are equal —
    a shared 2-core host is too noisy for a speed gate.
    """
    side = 1500
    box = Box((0, 0), (side - 1, side - 1))
    sessions = {workers: Session.for_chebyshev(
        2, config=EngineConfig(workers=workers)) for workers in (1, 2)}
    best = {workers: float("inf") for workers in sessions}
    found = {}
    for _ in range(3):  # interleaved, so drift hits both alike
        for workers, session in sessions.items():
            t0 = time.perf_counter()
            found[workers] = session.verify(box, use_cache=False).collisions
            best[workers] = min(best[workers], time.perf_counter() - t0)
    assert found[2] == found[1]
    speedup = best[1] / best[2]
    record_scaling("collision-scan/threads-box", seconds=best[2],
                   speedup=speedup, workers=2, serial_seconds=best[1],
                   sensors=side * side)
    report("Engine — threaded box verify",
           f"uncached Chebyshev r=2 verify of a {side}x{side} Box: serial "
           f"{best[1] * 1e3:.0f} ms, 2 threads {best[2] * 1e3:.0f} ms "
           f"({speedup:.2f}x), collision lists equal")


def test_incremental_verification_speedup(report, record_scaling):
    """Session.edit (dirty-region re-verification) vs full re-verification.

    A 10^4-point window under churn: each ``Session.edit`` reassigns a
    few slots and the session's cache re-verifies only the dirty region.
    The incremental result must equal the full rescan and land >= 10x
    faster.
    """
    points = _window(_RANDMAC_SIDE)
    tile = _TILE

    def neighborhood(p):
        return tile.translate(p)

    session = Session.for_mapping(
        dict(zip(points, _SCHEDULE.slots_of(points))),
        neighborhood_of=neighborhood, window=points)

    t0 = time.perf_counter()
    full_report = session.verify(use_cache=False)
    full_time = time.perf_counter() - t0
    assert full_report.collision_free

    session.verify()  # warm: the one-off full scan into the cache
    incremental_time = float("inf")
    for step in range(5):
        updates = {
            (50, 50 + step): (3 * step + 1) % 9,
            (10, 10 + step): (5 * step + 2) % 9,
        }
        t0 = time.perf_counter()
        session = session.edit(updates)
        incremental = session.verify().collisions
        incremental_time = min(incremental_time, time.perf_counter() - t0)
    assert list(incremental) == find_collisions(session.schedule, points,
                                                neighborhood)

    speedup = full_time / incremental_time
    record_scaling("incremental-verification/full", seconds=full_time,
                   sensors=len(points))
    record_scaling("incremental-verification/dirty-region",
                   seconds=incremental_time, speedup=speedup,
                   sensors=len(points), edit_size=2)
    report("Engine — incremental verification",
           f"{len(points)} sensors: full re-verification "
           f"{full_time * 1e3:.1f} ms, dirty-region update "
           f"{incremental_time * 1e3:.3f} ms ({speedup:.0f}x), collision "
           f"lists identical to the full rescan")
    assert speedup >= 10


def test_bulk_slot_assignment_speedup(report, record_scaling, benchmark):
    import numpy as np

    points = _window(_BULK_SIDE)
    window = np.asarray(points)

    t0 = time.perf_counter()
    loop_slots = [_SCHEDULE.slot_of(p) for p in points]
    loop_time = time.perf_counter() - t0

    bulk_time = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        bulk_slots = _SCHEDULE.slots_of(window)
        bulk_time = min(bulk_time, time.perf_counter() - t0)
    benchmark.pedantic(_SCHEDULE.slots_of, args=(window,),
                       rounds=1, iterations=1)

    assert bulk_slots == loop_slots
    speedup = loop_time / bulk_time
    record_scaling("bulk-slot-assignment", seconds=bulk_time,
                   speedup=speedup, sensors=len(points))
    report("Engine — bulk slot assignment",
           f"{len(points)} sensors: per-point loop {loop_time * 1e3:.0f} ms, "
           f"engine {bulk_time * 1e3:.1f} ms ({speedup:.1f}x)")
    assert speedup >= 10


def test_randmac_simulator_speedup(report, record_scaling, benchmark):
    """Vectorized ALOHA on a 10^4-sensor window vs the scalar path.

    Both paths draw the same per-sensor counter streams, so the metrics
    must be *identical* on the scalar reference and the numpy kernels,
    while the vectorized decisions are required to be >= 10x faster end
    to end.
    """
    session = Session.for_prototile(_TILE, window=_window(_RANDMAC_SIDE))
    network = session.network()
    network.adjacency_index()  # freeze the topology outside the timers
    slots = 16

    def run(bulk):
        return session.simulate("aloha", slots, network=network,
                                packet_interval=4, seed=5, p=0.02,
                                bulk_decisions=bulk)

    t0 = time.perf_counter()
    scalar_metrics = run(False)
    scalar_time = time.perf_counter() - t0

    bulk_time = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        bulk_metrics = run(True)
        bulk_time = min(bulk_time, time.perf_counter() - t0)
    benchmark.pedantic(run, args=(True,), rounds=1, iterations=1)

    assert bulk_metrics == scalar_metrics

    speedup = scalar_time / bulk_time
    record_scaling("randmac-simulator", seconds=bulk_time,
                   speedup=speedup, sensors=_RANDMAC_SIDE ** 2)
    report("Engine — vectorized random-MAC simulator",
           f"{_RANDMAC_SIDE ** 2} sensors x {slots} slots of slotted "
           f"ALOHA: scalar path {scalar_time * 1e3:.0f} ms, engine "
           f"{bulk_time * 1e3:.1f} ms ({speedup:.1f}x), metrics "
           f"identical on the numpy and scalar paths")
    assert speedup >= 10


def test_certificate_reverification_speedup(report, record_scaling):
    """Certificate-served congruent windows vs a full scan (ROADMAP item).

    A Theorem 1 schedule certifies once (a fundamental-domain scan, a
    hundred-odd points) and then answers *any* congruent window in O(1).
    The gate: re-verifying a translated 10^5-sensor window through the
    certificate must beat the full scan by >= 50x and return the same
    (empty) collision list.
    """
    side = _BULK_SIDE
    session = Session(_SCHEDULE)

    t0 = time.perf_counter()
    full = session.verify(Box((0, 0), (side - 1, side - 1)),
                          use_cache=False)
    full_time = time.perf_counter() - t0
    assert full.collision_free

    session.verify(Box((0, 0), (side - 1, side - 1)))  # certify + serve
    certificate_time = float("inf")
    for step in range(1, 6):
        translated = Box((7 * step, 11 * step),
                         (7 * step + side - 1, 11 * step + side - 1))
        t0 = time.perf_counter()
        served = session.verify(translated)
        certificate_time = min(certificate_time,
                               time.perf_counter() - t0)
        assert served.source == "certificate"
        assert served.checked_points == 0
        assert served.collisions == full.collisions == ()

    speedup = full_time / certificate_time
    record_scaling("certificate-verification/full-scan",
                   seconds=full_time, sensors=side * side)
    record_scaling("certificate-verification/congruent-window",
                   seconds=certificate_time, speedup=speedup,
                   sensors=side * side)
    report("Engine — certificate verification",
           f"{side * side} sensors: full scan {full_time * 1e3:.0f} ms, "
           f"certificate-served congruent window "
           f"{certificate_time * 1e6:.0f} us ({speedup:.0f}x), verdicts "
           f"identical")
    assert speedup >= 50


def test_session_setup(report, record_scaling):
    """Theorem 1 set-up in 3-D against the scalar search and scan.

    ``Session.for_chebyshev(r, 3)`` finds its tiling with the blocked
    search of :mod:`repro.tiles.exactness`; the reference builds the
    same session from the first hit of the scalar loop
    (``tiles_by_sublattice`` over every candidate, warm family).
    ``certify_schedule`` runs the array scan; the reference is the
    per-probe loop.  Each pair must agree exactly.  The gate is the
    warm r=2 construction speedup, a ratio within one process, so it
    does not depend on the host's speed.  The cold r=2 construction
    (candidate array not yet built) is recorded once.
    """
    exactness._candidate_bases.cache_clear()
    t0 = time.perf_counter()
    Session.for_chebyshev(2, 3)
    cold_time = time.perf_counter() - t0

    lines = []
    speedups = {}
    fields = {}
    for radius, rounds in ((1, 15), (2, 5)):
        ball = chebyshev_ball(radius, 3)

        def scalar_session():
            tiling = LatticeTiling(ball, scalar_first_tiling(ball))
            return Session.for_tiling(tiling)

        fast, slow = Session.for_chebyshev(radius, 3), scalar_session()
        assert fast.schedule.tiling.sublattice.hnf_matrix \
            == slow.schedule.tiling.sublattice.hnf_matrix
        search_slow, search_fast = _interleaved_min(
            scalar_session, lambda: Session.for_chebyshev(radius, 3), rounds)

        schedule = fast.schedule
        certificate = certify_schedule(schedule)
        assert (certificate.offsets, certificate.colliding_classes,
                certificate.checked_points) == scalar_certify(
            schedule, certificate.period, schedule.neighborhood_of)
        scan_slow, scan_fast = _interleaved_min(
            lambda: scalar_certify(schedule, certificate.period,
                                   schedule.neighborhood_of),
            lambda: certify_schedule(schedule), rounds)

        speedups[radius] = search_slow / search_fast
        fields.update({
            f"r{radius}_search_s": round(search_fast, 6),
            f"r{radius}_search_reference_s": round(search_slow, 6),
            f"r{radius}_certify_s": round(scan_fast, 6),
            f"r{radius}_certify_reference_s": round(scan_slow, 6)})
        lines.append(
            f"r={radius}: for_chebyshev {search_slow * 1e3:.1f} -> "
            f"{search_fast * 1e3:.2f} ms ({speedups[radius]:.1f}x), "
            f"certify {scan_slow * 1e3:.1f} -> {scan_fast * 1e3:.2f} ms "
            f"({scan_slow / scan_fast:.1f}x)")
    record_scaling("session-setup/theorem1-3d",
                   seconds=fields["r2_search_s"], speedup=speedups[2],
                   cold_r2_s=round(cold_time, 6), **fields)
    report("Engine — Theorem 1 session set-up, 3-D",
           "\n".join(lines) + f"\ncold r=2 construction "
           f"{cold_time * 1e3:.0f} ms; sublattices and certificates "
           f"identical")
    assert speedups[2] >= 5


def _dict_restrict(base, box):
    """``base.restrict(box)`` with the point -> slot dict of the dict
    form: one tuple and one dict entry per sensor."""
    batch = box.batch()
    table = dict(zip(batch.points, base.assign(batch).slots))
    return Session(MappingSchedule(table), window=batch,
                   neighborhood_of=base.neighborhood_of)


def test_mapping_session(report, record_scaling):
    """Restricted sessions on a slot grid against the dict form.

    ``Session.restrict(Box)`` lays the box out as a slot grid
    (``MappingSchedule.from_batch``); the reference builds the dict
    form of the same table.  Timed for a 60x60 and a 200x200 box: the
    restrict, the first verify (the cache build), and 200 single-point
    edits each followed by its delta verify.  Schedules (by digest)
    and every report must be identical.  The gate is the 60x60
    restrict speedup, a ratio within one process.
    """
    base = Session.for_chebyshev(1)
    rng = random.Random(25)
    lines = []
    fields = {}
    speedups = {}
    for side, rounds in ((60, 15), (200, 5)):
        box = Box((0, 0), (side - 1, side - 1))
        grid, table = base.restrict(box), _dict_restrict(base, box)
        assert grid.schedule._grid is not None
        assert schedule_digest(grid.schedule) \
            == schedule_digest(table.schedule)
        restrict_slow, restrict_fast = _interleaved_min(
            lambda: _dict_restrict(base, box), lambda: base.restrict(box),
            rounds)

        def first_verify(make):
            session = make()
            t0 = time.perf_counter()
            session.verify()
            return time.perf_counter() - t0

        verify_fast = verify_slow = float("inf")
        for _ in range(rounds):
            verify_slow = min(verify_slow,
                              first_verify(lambda: _dict_restrict(base, box)))
            verify_fast = min(verify_fast,
                              first_verify(lambda: base.restrict(box)))
        assert grid.verify() == table.verify()

        points = box.points()
        script = [{rng.choice(points): rng.randrange(base.num_slots)}
                  for _ in range(200)]
        edit_time = {}
        reports = {}
        for name, session in (("grid", grid), ("dict", table)):
            t0 = time.perf_counter()
            answers = []
            for updates in script:
                session = session.edit(updates)
                answers.append(session.verify())
            edit_time[name] = time.perf_counter() - t0
            reports[name] = answers
        assert reports["grid"] == reports["dict"]
        assert any(report.source == "delta" for report in reports["grid"])

        speedups[side] = restrict_slow / restrict_fast
        fields.update({
            f"s{side}_restrict_s": round(restrict_fast, 6),
            f"s{side}_restrict_dict_s": round(restrict_slow, 6),
            f"s{side}_first_verify_s": round(verify_fast, 6),
            f"s{side}_first_verify_dict_s": round(verify_slow, 6),
            f"s{side}_edit_verify_s": round(edit_time["grid"] / 200, 6),
            f"s{side}_edit_verify_dict_s": round(edit_time["dict"] / 200,
                                                 6)})
        lines.append(
            f"{side}x{side}: restrict {restrict_slow * 1e3:.2f} -> "
            f"{restrict_fast * 1e3:.2f} ms ({speedups[side]:.1f}x), first "
            f"verify {verify_slow * 1e3:.2f} -> {verify_fast * 1e3:.2f} ms, "
            f"edit + delta verify {edit_time['dict'] / 200 * 1e3:.3f} -> "
            f"{edit_time['grid'] / 200 * 1e3:.3f} ms")
    record_scaling("mapping-session/restrict-edit",
                   seconds=fields["s60_restrict_s"], speedup=speedups[60],
                   **fields)
    report("Engine — restricted mapping sessions on a slot grid",
           "\n".join(lines) + "\nschedules and reports identical")
    assert speedups[60] >= 3


def test_repair_restricted_box(report, record_scaling):
    """Repair from the verification cache against the cover-index repair.

    A 200x200 Chebyshev radius-1 box, restricted, with 40 seeded slot
    corruptions (``corrupt``: half copy a neighbour's slot).
    ``Session.repair`` reads each round's closures from the cache its
    verify built; the reference, ``scalar_repair``, rebuilds a
    point -> slot dict and a cover index over the window every round.
    Each run repairs a fresh copy of the corrupted session (the first
    verify's scan is timed on both sides), the two alternating in one
    process.  Reports and repaired schedules must be identical; the
    gate is the speedup, a ratio within one process.
    """
    base = Session.for_chebyshev(1)
    box = Box((0, 0), (199, 199))
    best = {"scalar": float("inf"), "context": float("inf")}
    results = {}
    for _ in range(3):
        for name, repair in (("scalar", scalar_repair),
                             ("context", Session.repair)):
            corrupted = corrupt(base.restrict(box), random.Random(28), 40)
            t0 = time.perf_counter()
            results[name] = repair(corrupted)
            best[name] = min(best[name], time.perf_counter() - t0)
    window = box.points()
    assert report_fields(results["context"], window) \
        == report_fields(results["scalar"], window)
    outcome = results["context"]
    assert outcome.repaired and outcome.faults_found > 0
    speedup = best["scalar"] / best["context"]
    record_scaling("repair/restricted-box", seconds=best["context"],
                   speedup=speedup, scalar_s=round(best["scalar"], 6),
                   faults_found=outcome.faults_found,
                   points_rescheduled=outcome.points_rescheduled,
                   rounds=outcome.rounds)
    report("Self-healing — repair of a corrupted 200x200 box",
           f"{outcome.faults_found} colliding pairs, "
           f"{outcome.points_rescheduled} sensors moved in "
           f"{outcome.rounds} round(s): cover-index repair "
           f"{best['scalar'] * 1e3:.0f} ms, repair from the cache "
           f"{best['context'] * 1e3:.1f} ms ({speedup:.0f}x); reports "
           f"and schedules identical")
    assert speedup >= 4


def test_streamed_window_bounded_memory(report, record_scaling):
    """A 10^7-point window verified out-of-core under a hard memory cap.

    ``stream_box_collisions`` materializes one axis-0 slab at a time, so
    peak allocation must track the 2x10^5-point chunk, never the 10^7
    window — a generous 256 MiB ceiling that a materialized window (a
    GiB-scale list of tuples) would blow past.
    """
    import tracemalloc

    from repro.core.certify import stream_box_collisions

    side = 3163  # 3163^2 = 10,004,569 points
    tracemalloc.start()
    try:
        t0 = time.perf_counter()
        collisions = stream_box_collisions(
            _SCHEDULE, (0, 0), (side - 1, side - 1),
            _SCHEDULE.neighborhood_of, chunk_points=200_000)
        seconds = time.perf_counter() - t0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert collisions == []
    record_scaling("streamed-verification/out-of-core", seconds=seconds,
                   sensors=side * side, chunk_points=200_000,
                   peak_mib=round(peak / 2**20, 1))
    report("Engine — streamed out-of-core verification",
           f"{side * side} sensors in 200k-point slabs: "
           f"{seconds:.1f} s end to end, {peak / 2**20:.0f} MiB peak "
           f"traced allocation (window itself never materialized)")
    assert peak < 256 * 2**20


def test_streamed_dense_window_speedup(report, record_scaling,
                                       monkeypatch):
    """10^6 box points streamed in 10^4-point slabs: stencil vs sorted keys.

    A streamed ``Box`` of a Theorem 1 schedule runs on the slab plan:
    one key grid per stream (the schedule repeats every 3 rows along
    axis 0, so one reduction of a period plus a slab serves every
    slab), then the stencil (one comparison of shifted slot grids per
    conflict offset).  Two gates compare it, in the same run, so host
    noise cancels:

    * with the sorted-key scan of the very same slabs built as point
      batches (no plan): the stencil stream must be at least 3x faster;
    * with the same plan reducing each slab's own keys (the key grid
      switched off by giving the table a period longer than any slab):
      the key grid must be at least 2x faster.

    All three give the same answer.  Two small streams, the shapes of
    the ``window-verify`` benchmark's ``stream2d`` and ``stream3d``
    calls, are recorded without a gate.
    """
    import repro.core.certify as certify_module
    import repro.engine.collisions as collisions_module
    from repro.core.certify import stream_box_collisions
    from repro.engine.slots import CosetTable

    side, chunk = 1000, 10_000
    neighborhood = _SCHEDULE.neighborhood_of

    def stream():
        return stream_box_collisions(_SCHEDULE, (0, 0), (side - 1, side - 1),
                                     neighborhood, chunk_points=chunk)

    stream()  # warm: coset table and memoised offset tables
    dense_time = sorted_time = per_slab_time = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        dense = stream()
        dense_time = min(dense_time, time.perf_counter() - t0)
        with monkeypatch.context() as patch:
            patch.setattr(CosetTable, "row_period",
                          property(lambda table: 2 ** 62))
            t0 = time.perf_counter()
            per_slab = stream()
            per_slab_time = min(per_slab_time, time.perf_counter() - t0)
        with monkeypatch.context() as patch:
            patch.setattr(certify_module, "_slab_plan",
                          lambda *args: None)
            patch.setattr(collisions_module, "_scan_dense",
                          collisions_module._scan_sorted)
            t0 = time.perf_counter()
            sorted_key = stream()
            sorted_time = min(sorted_time, time.perf_counter() - t0)
    assert dense == per_slab == sorted_key == []

    speedup = sorted_time / dense_time
    grid_speedup = per_slab_time / dense_time
    record_scaling("streamed-verification/dense-1e6/sorted-key",
                   seconds=sorted_time, sensors=side * side,
                   chunk_points=chunk)
    record_scaling("streamed-verification/dense-1e6/per-slab-keys",
                   seconds=per_slab_time, sensors=side * side,
                   chunk_points=chunk)
    record_scaling("streamed-verification/dense-1e6", seconds=dense_time,
                   speedup=speedup, key_grid_speedup=round(grid_speedup, 2),
                   sensors=side * side, chunk_points=chunk)
    small = _small_streams()
    for name, (seconds, sensors, small_chunk) in small.items():
        record_scaling(f"streamed-verification/{name}", seconds=seconds,
                       sensors=sensors, chunk_points=small_chunk)
    report("Engine — streamed dense window",
           f"{side * side} box points in {chunk}-point slabs: stencil "
           f"scan {dense_time * 1e3:.1f} ms, per-slab keys "
           f"{per_slab_time * 1e3:.1f} ms ({grid_speedup:.1f}x), sorted-"
           f"key scan of the same slabs {sorted_time * 1e3:.0f} ms "
           f"({speedup:.1f}x), answers identical; small streams "
           + ", ".join(f"{name} {seconds * 1e3:.3f} ms"
                       for name, (seconds, _, _) in small.items()))
    assert speedup >= 3
    assert grid_speedup >= 2


def _small_streams() -> dict[str, tuple[float, int, int]]:
    """Best-of times of two small streamed verifies: a 64x48 box of a
    Theorem 2 city in 1024-point slabs and a 24x8x8 box of the 3-D
    Chebyshev radius-1 schedule in 512-point slabs."""
    from repro.lattice.sublattice import diagonal_sublattice
    from repro.tiles.shapes import rectangle_tile
    from repro.tiling.multi import MultiTiling

    city = Session.for_multi_tiling(MultiTiling(
        [rectangle_tile(2, 2), rectangle_tile(1, 2)],
        [[(0, 0)], [(2, 0), (3, 0)]], diagonal_sublattice((4, 2))))
    cases = {"small-2d": (city, Box((0, 0), (63, 47)), 1024),
             "small-3d": (Session.for_chebyshev(1, 3),
                          Box((0, 0, 0), (23, 7, 7)), 512)}
    timings = {}
    for name, (session, box, chunk) in cases.items():
        assert session.verify(box, stream_chunk=chunk).collisions == ()
        best = float("inf")
        for _ in range(200):
            t0 = time.perf_counter()
            session.verify(box, stream_chunk=chunk)
            best = min(best, time.perf_counter() - t0)
        timings[name] = (best, box.volume(), chunk)
    return timings


def _interleaved_min(direct, facade, rounds):
    """Min wall time of two callables, measured alternately.

    Interleaving keeps clock drift and cache-warmth from favoring
    whichever path happens to run second.
    """
    best_direct = best_facade = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        direct()
        best_direct = min(best_direct, time.perf_counter() - t0)
        t0 = time.perf_counter()
        facade()
        best_facade = min(best_facade, time.perf_counter() - t0)
    return best_direct, best_facade


#: Timed pairs of each facade overhead estimate (``paired_overhead``).
_FACADE_PAIRS = 101


def test_facade_overhead(report, record_scaling, paired_overhead):
    """repro.api.Session must be free: <5% over the raw engine calls.

    ``Session.assign`` wraps ``schedule.slots_of`` and ``Session.verify``
    wraps ``find_collisions``; the typed responses and config plumbing
    are allowed to cost microseconds, not a perceptible fraction of a
    10^5-point bulk request.  The median ratio of ABBA-ordered timed
    pairs (``paired_overhead``) keeps the gate robust against
    scheduler noise.
    """
    points = _window(_BULK_SIDE)
    # Both verify sides scan the one batch, converted here, outside the
    # timed calls: the session's window is validated once at
    # construction, so handing find_collisions the tuple list instead
    # would time its conversion against a facade that never converts.
    batch = PointBatch.of(points)
    session = Session(_SCHEDULE, window=batch)
    neighborhood = _SCHEDULE.neighborhood_of

    # Warm both paths (coset table, conflict offsets, engine imports).
    _SCHEDULE.slots_of(points)
    session.assign(points)

    assign_overhead, assign_direct, assign_facade = paired_overhead(
        lambda: _SCHEDULE.slots_of(points),
        lambda: session.assign(points), pairs=_FACADE_PAIRS)

    find_collisions(_SCHEDULE, batch, neighborhood)
    session.verify(use_cache=False)
    verify_overhead, verify_direct, verify_facade = paired_overhead(
        lambda: find_collisions(_SCHEDULE, batch, neighborhood),
        lambda: session.verify(use_cache=False), pairs=_FACADE_PAIRS)

    record_scaling("facade-overhead/assign", seconds=assign_facade,
                   overhead=round(assign_overhead, 4),
                   pairs=_FACADE_PAIRS, sensors=len(points))
    record_scaling("facade-overhead/verify", seconds=verify_facade,
                   overhead=round(verify_overhead, 4),
                   pairs=_FACADE_PAIRS, sensors=len(points))
    report("API — facade overhead",
           f"{len(points)} sensors: assign {assign_direct * 1e3:.2f} ms "
           f"direct vs {assign_facade * 1e3:.2f} ms via Session "
           f"({assign_overhead:+.1%}); verify "
           f"{verify_direct * 1e3:.1f} ms vs {verify_facade * 1e3:.1f} ms "
           f"({verify_overhead:+.1%})")
    assert assign_overhead < 0.05
    assert verify_overhead < 0.05


#: 158 x 158 = 24964 tuple points: one ``Session.assign`` round of the
#: window benchmark.
_INTAKE_SIDE = 158
#: Timed pairs of the intake estimate (``paired_overhead``).
_INTAKE_PAIRS = 21


def test_point_intake(report, record_scaling, paired_overhead):
    """``PointBatch.of`` of a tuple grid against the per-point reference.

    The batch converts the grid in one typed fill; the reference,
    ``np.array([as_intvec(p) for p in points])``, reads each point
    through the coordinate rule.  Both run with the garbage collector
    on, over a heap of live tuples, so an intake that allocates an
    object per point pays for it here.  The coordinates must agree; the
    gate is the median ratio of ABBA-ordered pairs.
    """
    import numpy as np

    points = [(x, y) for x in range(_INTAKE_SIDE)
              for y in range(_INTAKE_SIDE)]

    def reference():
        return np.array([as_intvec(point) for point in points])

    assert PointBatch.of(points).array.tolist() == reference().tolist()
    overhead, batch_s, reference_s = paired_overhead(
        lambda: PointBatch.of(points), reference, pairs=_INTAKE_PAIRS)
    speedup = 1.0 + overhead
    record_scaling("intake/tuples", seconds=batch_s, speedup=speedup,
                   reference_seconds=round(reference_s, 6),
                   pairs=_INTAKE_PAIRS, sensors=len(points))
    report("Engine — point intake",
           f"{len(points)} tuple points: per-point reference "
           f"{reference_s * 1e3:.2f} ms, PointBatch.of "
           f"{batch_s * 1e3:.2f} ms ({speedup:.1f}x)")
    assert speedup >= 2
