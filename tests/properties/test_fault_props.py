"""Property-based pinning of the resilient sharded execution path.

The fault-tolerance contract of :func:`repro.engine.parallel.run_sharded`
is that a single injected worker fault is *invisible in the answer*: for
any corrupted schedule, any faulted shard, and any recovery lane —
in-pool retry (the crash budget runs out before the retries do),
serial fallback (the crash budget outlasts every retry), or per-shard
timeout (a hung worker is cancelled and recomputed) — the collision
scan returns results bit-identical to the serial, fault-free run and to
the brute-force reference, for 1, 2 and 4 workers.

Windows here are small, so the serial-below-this threshold is patched
down to make the sharded dispatch genuinely run (the same trick as
``test_engine_parallel``); recovery-lane warnings are expected noise
and are suppressed — the property asserts on the answer.
"""

import warnings
from contextlib import nullcontext
from unittest import mock

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.engine.collisions as collisions_module
from repro.core.schedule import MappingSchedule, find_collisions
from repro.core.theorem1 import schedule_from_prototile
from repro.engine.config import EngineConfig
from repro.faults.injection import use_plan
from repro.faults.plan import FaultPlan
from repro.scenarios.reference import reference_collisions
from repro.tiles.shapes import chebyshev_ball
from repro.utils.vectors import box_points

SETTINGS = dict(max_examples=12, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])

WORKER_COUNTS = [1, 2, 4]

_PERIODIC = schedule_from_prototile(chebyshev_ball(1))
WINDOW = list(box_points((0, 0), (14, 14)))


def _corrupted_schedule(seed):
    """The periodic chebyshev schedule with byzantine slot corruption.

    Corrupting first makes the scan results non-trivial — the property
    would hold vacuously on a collision-free schedule, since every lane
    would agree on the empty answer.
    """
    clean = {p: _PERIODIC.slot_of(p) for p in WINDOW}
    updates = FaultPlan(seed=seed, byzantine=0.2).corrupt_assignment(
        clean, _PERIODIC.num_slots)
    return MappingSchedule({**clean, **updates})


def _scan(schedule, workers, plan):
    arming = use_plan(plan) if plan is not None else nullcontext()
    sharded = mock.patch.object(collisions_module, "_MIN_PARALLEL_PROBES", 1)
    with EngineConfig(workers=workers).apply(), \
            arming, sharded, warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return find_collisions(schedule, WINDOW, _PERIODIC.neighborhood_of)


def _lane_plan(lane, shard):
    if lane == "retry":
        return FaultPlan(seed=shard, kill_shard=shard, kill_attempts=1)
    if lane == "serial-fallback":
        return FaultPlan(seed=shard, kill_shard=shard, kill_attempts=99)
    assert lane == "timeout"
    return FaultPlan(seed=shard, hang_shard=shard, hang_seconds=0.4,
                     shard_timeout=0.05)


class TestSingleWorkerFaultIsInvisible:
    @given(seed=st.integers(0, 2 ** 16),
           workers=st.sampled_from(WORKER_COUNTS),
           shard=st.integers(0, 3),
           lane=st.sampled_from(["retry", "serial-fallback", "timeout"]))
    @settings(**SETTINGS)
    def test_faulted_scan_matches_serial_reference(self, seed, workers,
                                                   shard, lane):
        schedule = _corrupted_schedule(seed)
        reference = _scan(schedule, 1, None)
        assert reference, "corruption must produce collisions to compare"
        faulted = _scan(schedule, workers,
                        _lane_plan(lane, shard % max(workers, 1)))
        assert faulted == reference

    @given(seed=st.integers(0, 2 ** 16))
    @settings(**SETTINGS)
    def test_faulted_scan_matches_brute_force(self, seed):
        # The faulted sharded scan agrees not just with its own serial
        # run but with the pairwise test of the paper's definition.
        schedule = _corrupted_schedule(seed)
        faulted = _scan(schedule, 2, _lane_plan("retry", 0))
        assert faulted == reference_collisions(
            WINDOW, schedule.slot_of, _PERIODIC.neighborhood_of)
