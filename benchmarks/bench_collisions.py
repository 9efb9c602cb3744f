"""Benchmark + regeneration of the protocol comparison (introduction).

Times simulator runs for each MAC protocol on the same network and prints
the collision/energy table — the quantitative form of the paper's "resend
is evidently a waste of energy" motivation.  The bulk cases exercise the
engine on ~10^5-point verification windows and a 10^4-sensor simulation.
Everything routes through the :mod:`repro.api` facade: protocols resolve
by registry name.  The scan-speedup gate races the numpy scan against
the brute-force reference of :mod:`repro.scenarios.reference`.
"""

import time

import pytest

from repro.api import Box, Session
from repro.experiments.base import format_rows
from repro.experiments.systems_experiments import run_collisions
from repro.scenarios.reference import reference_collisions
from repro.tiles.shapes import chebyshev_ball

_TILE = chebyshev_ball(1)
_SESSION = Session.for_prototile(_TILE, window=Box((0, 0), (9, 9)))
# Large-window verification workload: a radius-2 neighborhood (25 cells,
# 80 candidate conflict offsets) over 316 x 316 = 99856 sensors.
_BULK_SIDE = 316
_BULK_WINDOW = Box((0, 0), (_BULK_SIDE - 1, _BULK_SIDE - 1))
# The brute-force reference is per-point Python, so the speedup gate
# races it on a 100 x 100 = 10^4-sensor window instead.
_REFERENCE_WINDOW = Box((0, 0), (99, 99))


def _bulk_session(window=_BULK_WINDOW):
    return Session.for_prototile(chebyshev_ball(2), window=window)


def test_collisions_regenerates(report, benchmark):
    result = benchmark.pedantic(run_collisions, rounds=1, iterations=1)
    report("Introduction — collision/energy comparison",
           format_rows(result.rows))
    assert result.passed


@pytest.mark.parametrize("name", ["schedule", "tdma", "aloha", "csma"])
def test_simulate_protocol(benchmark, name):
    params = {"p": 0.1} if name in ("aloha", "csma") else {}

    def run():
        return _SESSION.simulate(name, slots=90, seed=7, **params)

    metrics = benchmark(run)
    assert metrics.slots == 90
    if name in ("schedule", "tdma"):
        assert metrics.failed_receptions == 0
    else:
        assert metrics.failed_receptions > 0


def test_bulk_verification_window(benchmark):
    session = _bulk_session()

    report = benchmark.pedantic(session.verify,
                                kwargs={"use_cache": False},
                                rounds=1, iterations=1)
    assert report.collision_free
    assert report.window_size == _BULK_SIDE ** 2


def test_bulk_collision_scan_speedup(report, benchmark):
    session = _bulk_session(_REFERENCE_WINDOW)
    schedule = session.schedule

    t0 = time.perf_counter()
    want = reference_collisions(session.window, schedule.slot_of,
                                schedule.neighborhood_of)
    reference_time = time.perf_counter() - t0
    engine_time = float("inf")
    for _ in range(2):
        t0 = time.perf_counter()
        engine = session.verify(use_cache=False)
        engine_time = min(engine_time, time.perf_counter() - t0)
    benchmark.pedantic(session.verify,
                       kwargs={"use_cache": False}, rounds=1, iterations=1)

    assert list(engine.collisions) == want == []
    speedup = reference_time / engine_time
    report("Engine — bulk collision scan",
           f"{engine.window_size} sensors, radius-2 neighborhoods: "
           f"brute-force reference {reference_time:.2f} s, engine "
           f"{engine_time * 1e3:.0f} ms ({speedup:.1f}x)")
    assert speedup >= 10


def test_simulate_bulk_network(benchmark):
    side = 100  # 10^4 sensors
    session = Session.for_prototile(_TILE,
                                    window=Box((0, 0), (side - 1, side - 1)))
    session.network()  # freeze the topology outside the timer

    def run():
        return session.simulate("schedule", slots=45, seed=7)

    metrics = benchmark.pedantic(run, rounds=1, iterations=1)
    assert metrics.num_sensors == side * side
    assert metrics.failed_receptions == 0
