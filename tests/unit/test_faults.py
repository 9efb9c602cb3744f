"""Fault layer: plan determinism, arming, degradation, typed errors, repair.

The contract under test is the fault model's three-part promise:

* a :class:`FaultPlan` is a frozen *description* — every injected fault
  a pure function of ``(seed, site, draw)``, replaying identically
  across worker counts and call orders;
* arming is scoped and leak-proof — :func:`use_plan` restores the
  previous state (plan *and* per-arming counters) even when the block
  raises, and an all-default plan armed changes nothing;
* failure surfaces are typed — a numpy kernel failure always degrades
  to the exact scan with an :class:`EngineDegradedWarning` (which
  ``simplefilter("error", ...)`` turns into an error), corrupt session
  files raise
  :class:`CorruptSessionError` naming path and reason, and
  :meth:`Session.repair` heals byzantine corruption deterministically.
"""

import json
import warnings
from pathlib import Path

import pytest

from repro.api import (
    CorruptSessionError,
    EngineConfig,
    RepairReport,
    Session,
    use_config,
)
from repro.core.certify import certificate_from_json
from repro.core.schedule import find_collisions
from repro.core.theorem1 import schedule_from_prototile
from repro.engine.collisions import EngineDegradedWarning
from repro.faults.chaos import corrupt_session, plan_for_spec
from repro.faults.injection import (
    active_plan,
    arm_plan,
    consume_numpy_failure,
    disarm_plan,
    use_plan,
)
from repro.faults.plan import (
    FaultPlan,
    InjectedFault,
    InjectedKernelFault,
    InjectedWorkerCrash,
)
from repro.scenarios.generators import generate
from repro.scenarios.reference import reference_collisions
from repro.tiles.shapes import chebyshev_ball
from repro.utils.vectors import box_points

WINDOW = list(box_points((0, 0), (7, 7)))


def _assignment(num_slots=4):
    return {point: (3 * i) % num_slots for i, point in enumerate(WINDOW)}


class TestFaultPlanValidation:
    def test_defaults_are_inert(self):
        assert FaultPlan().inert
        assert FaultPlan(seed=99).inert
        assert not FaultPlan(byzantine=0.1).inert
        assert not FaultPlan(flaky=0.1).inert
        assert not FaultPlan(kill_shard=0).inert
        assert not FaultPlan(hang_shard=1).inert
        assert not FaultPlan(numpy_failures=1).inert

    @pytest.mark.parametrize("field,value", [
        ("byzantine", -0.1), ("byzantine", 1.5),
        ("flaky", -1e-9), ("flaky", 2.0),
        ("hang_seconds", 0.0), ("hang_seconds", -1.0),
        ("shard_timeout", 0.0),
        ("kill_attempts", 0),
        ("numpy_failures", -1),
    ])
    def test_bad_knobs_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            FaultPlan(**{field: value})

    def test_exception_taxonomy(self):
        assert issubclass(InjectedWorkerCrash, InjectedFault)
        assert issubclass(InjectedKernelFault, InjectedFault)
        assert issubclass(InjectedFault, RuntimeError)

    def test_worker_sites(self):
        plan = FaultPlan(kill_shard=1, kill_attempts=2)
        assert plan.wants_worker_faults
        assert plan.crashes_shard(1, 0) and plan.crashes_shard(1, 1)
        assert not plan.crashes_shard(1, 2)  # attempts exhausted
        assert not plan.crashes_shard(0, 0)  # other shards untouched
        hang = FaultPlan(hang_shard=0, hang_seconds=0.01)
        assert hang.hangs_shard(0, 0) and hang.hangs_shard(0, 5)
        assert not hang.hangs_shard(2, 0)


class TestFaultPlanDeterminism:
    def test_corrupt_assignment_replays_identically(self):
        plan = FaultPlan(seed=3, byzantine=0.4)
        first = plan.corrupt_assignment(_assignment(), 4)
        second = plan.corrupt_assignment(_assignment(), 4)
        assert first == second
        assert first  # 64 sensors at 40%: some corruption must land

    def test_corruptions_are_wrong_slots_in_range(self):
        assignment = _assignment()
        updates = FaultPlan(seed=7, byzantine=0.5).corrupt_assignment(
            assignment, 4)
        for point, slot in updates.items():
            assert 0 <= slot < 4
            assert slot != assignment[point]

    def test_corrupt_assignment_ignores_insertion_order(self):
        plan = FaultPlan(seed=11, byzantine=0.3)
        forward = _assignment()
        backward = dict(reversed(list(forward.items())))
        assert plan.corrupt_assignment(forward, 4) \
            == plan.corrupt_assignment(backward, 4)

    def test_zero_rate_and_degenerate_slots_corrupt_nothing(self):
        assert FaultPlan(seed=1).corrupt_assignment(_assignment(), 4) == {}
        assert FaultPlan(seed=1, byzantine=1.0).corrupt_assignment(
            {p: 0 for p in WINDOW}, 1) == {}

    def test_flaky_drops_replay_identically(self):
        plan = FaultPlan(seed=5, flaky=0.3)
        transmitters = list(range(50))
        kept = plan.filter_transmitters(transmitters, slot=2)
        assert kept == plan.filter_transmitters(transmitters, slot=2)
        assert set(kept) < set(transmitters)  # 50 sends at 30%
        # A different slot draws a different (but equally pinned) subset.
        other = plan.filter_transmitters(transmitters, slot=3)
        assert other == plan.filter_transmitters(transmitters, slot=3)

    def test_flaky_zero_keeps_everything(self):
        transmitters = [4, 2, 9]
        kept = FaultPlan(seed=5).filter_transmitters(transmitters, 0)
        assert kept == transmitters
        assert kept is not transmitters  # fresh list, caller may mutate

    def test_certain_flakiness_drops_everything(self):
        plan = FaultPlan(seed=5, flaky=1.0)
        assert plan.filter_transmitters(list(range(20)), 0) == []


class TestArming:
    def test_nothing_armed_by_default(self):
        assert active_plan() is None

    def test_arm_and_disarm(self):
        plan = FaultPlan(seed=2)
        arm_plan(plan)
        try:
            assert active_plan() is plan
        finally:
            disarm_plan()
        assert active_plan() is None

    def test_arm_rejects_non_plans(self):
        with pytest.raises(TypeError, match="FaultPlan"):
            arm_plan("byzantine=0.5")

    def test_use_plan_scopes_and_restores(self):
        outer = FaultPlan(seed=1)
        inner = FaultPlan(seed=2)
        with use_plan(outer):
            with use_plan(inner):
                assert active_plan() is inner
            assert active_plan() is outer
        assert active_plan() is None

    def test_use_plan_restores_after_exception(self):
        with pytest.raises(RuntimeError, match="boom"):
            with use_plan(FaultPlan(seed=1)):
                raise RuntimeError("boom")
        assert active_plan() is None

    def test_numpy_failure_budget_counts_per_arming(self):
        with use_plan(FaultPlan(numpy_failures=2)):
            with pytest.raises(InjectedKernelFault):
                consume_numpy_failure()
            with pytest.raises(InjectedKernelFault):
                consume_numpy_failure()
            consume_numpy_failure()  # budget exhausted: passes through
        # Re-arming the same plan replays the same failures.
        with use_plan(FaultPlan(numpy_failures=2)):
            with pytest.raises(InjectedKernelFault):
                consume_numpy_failure()

    def test_unarmed_consume_is_a_noop(self):
        consume_numpy_failure()


class TestKernelDegradation:
    SCHEDULE = schedule_from_prototile(chebyshev_ball(1))

    def _scan(self):
        return find_collisions(self.SCHEDULE, WINDOW,
                               self.SCHEDULE.neighborhood_of)

    def test_degraded_scan_matches_reference(self):
        reference = reference_collisions(WINDOW, self.SCHEDULE.slot_of,
                                         self.SCHEDULE.neighborhood_of)
        with use_plan(FaultPlan(numpy_failures=1)):
            with pytest.warns(EngineDegradedWarning) as caught:
                degraded = self._scan()
            recovered = self._scan()  # budget spent: numpy path again
        assert degraded == reference
        assert recovered == reference
        warning = caught[0].message
        assert warning.kernel == "scan_collisions"
        assert "injected numpy kernel failure" in warning.reason

    def test_warnings_filter_makes_the_failure_strict(self):
        """Degrade is always on; strict callers use the warnings filter."""
        with use_plan(FaultPlan(numpy_failures=1)), \
                warnings.catch_warnings():
            warnings.simplefilter("error", EngineDegradedWarning)
            with pytest.raises(EngineDegradedWarning) as caught:
                self._scan()
        assert caught.value.kernel == "scan_collisions"
        # The kernel error that caused the degradation stays attached.
        assert isinstance(caught.value.__context__, InjectedKernelFault)

    def test_degrade_holds_under_any_worker_count(self):
        reference = reference_collisions(WINDOW, self.SCHEDULE.slot_of,
                                         self.SCHEDULE.neighborhood_of)
        for workers in (1, 2):
            with use_config(EngineConfig(workers=workers)), \
                    use_plan(FaultPlan(numpy_failures=1)):
                with pytest.warns(EngineDegradedWarning):
                    assert self._scan() == reference


class TestCorruptSessionError:
    def test_truncated_json(self):
        with pytest.raises(CorruptSessionError) as exc:
            Session.load('{"kind": "mapping", "assignment": [[[0, 0]')
        assert exc.value.path is None
        assert "invalid JSON" in exc.value.reason

    def test_missing_field_named(self):
        payload = json.dumps({"kind": "tiling", "cells": [[0, 0]]})
        with pytest.raises(CorruptSessionError,
                           match="missing required field 'prototile'"):
            Session.load(payload)

    def test_unknown_kind(self):
        with pytest.raises(CorruptSessionError, match="unknown schedule"):
            Session.load(json.dumps({"kind": "hexagonal"}))

    def test_path_carried_from_file_sources(self, tmp_path):
        victim = tmp_path / "session.json"
        victim.write_text('{"kind": "mapping", "assignm')
        with pytest.raises(CorruptSessionError) as exc:
            Session.load(Path(victim))
        assert exc.value.path == str(victim)
        assert str(exc.value).startswith(str(victim))

    def test_is_a_value_error(self):
        # Pre-PR callers catching ValueError keep working.
        assert issubclass(CorruptSessionError, ValueError)

    def test_certificate_round_trip_corruption(self):
        with pytest.raises(CorruptSessionError, match="invalid JSON"):
            certificate_from_json('{"kind": "periodic-cert')
        with pytest.raises(CorruptSessionError,
                           match="unknown certificate kind"):
            certificate_from_json(json.dumps({"kind": "mapping"}))

    def test_clean_round_trip_still_loads(self):
        session = Session.for_chebyshev(radius=1, window=WINDOW).restrict()
        reloaded = Session.load(session.save(),
                                neighborhood_of=session.neighborhood_of)
        assert reloaded.verify(WINDOW).collision_free


class TestRepair:
    def _clean(self):
        return Session.for_chebyshev(radius=1, window=WINDOW).restrict()

    def _corrupted(self, seed=3, byzantine=0.15):
        clean = self._clean()
        plan = FaultPlan(seed=seed, byzantine=byzantine)
        session, updates = corrupt_session(clean, plan)
        assert updates, "the corruption must actually land for this test"
        return session

    def test_repair_heals_byzantine_corruption(self):
        report = self._corrupted().repair()
        assert isinstance(report, RepairReport)
        assert report.repaired
        assert report.collisions == ()
        assert report.faults_found > 0
        assert report.points_rescheduled > 0
        assert report.rounds >= 1
        assert report.session.verify(WINDOW).collision_free

    def test_clean_schedule_round_trips_untouched(self):
        clean = self._clean()
        report = clean.repair()
        assert report.repaired
        assert report.session is clean
        assert (report.faults_found, report.points_rescheduled,
                report.rounds) == (0, 0, 0)

    def test_repair_is_deterministic(self):
        corrupted = self._corrupted()
        first = self._corrupted().repair()
        second = corrupted.repair()
        moved_first = first.session.assign(WINDOW)
        moved_second = second.session.assign(WINDOW)
        assert list(moved_first.slots) == list(moved_second.slots)
        assert first.points_rescheduled == second.points_rescheduled
        assert first.rounds == second.rounds

    def test_immutable_sessions_need_restrict_first(self):
        periodic = Session.for_chebyshev(radius=1, window=WINDOW)
        with pytest.raises(TypeError, match="restrict"):
            periodic.repair()


class TestChaosHelpers:
    def test_plan_for_spec_scales_percentages(self):
        spec = generate("faulty_byzantine", 2008, 0)
        plan = plan_for_spec(spec)
        assert plan.seed == spec.fault_seed
        assert plan.byzantine == pytest.approx(spec.fault_byzantine / 100)
        assert plan.flaky == pytest.approx(spec.fault_flaky / 100)

    def test_plan_for_spec_overrides(self):
        spec = generate("faulty_flaky", 2008, 1)
        plan = plan_for_spec(spec, flaky=0.0, kill_shard=0)
        assert plan.flaky == 0.0
        assert plan.kill_shard == 0
        assert plan.seed == spec.fault_seed

    def test_corrupt_session_requires_a_window(self):
        windowless = Session.for_chebyshev(radius=1)
        with pytest.raises(TypeError, match="restrict"):
            corrupt_session(windowless, FaultPlan(seed=1, byzantine=0.5))

    def test_corrupt_session_applies_the_plan_edits(self):
        clean = Session.for_chebyshev(radius=1, window=WINDOW).restrict()
        plan = FaultPlan(seed=3, byzantine=0.2)
        corrupted, updates = corrupt_session(clean, plan)
        assert updates
        slots = dict(zip(WINDOW,
                         (int(s) for s in corrupted.assign(WINDOW).slots)))
        for point, slot in updates.items():
            assert slots[point] == slot
        assert not corrupted.verify(WINDOW).collision_free

    def test_corrupt_session_with_inert_plan_is_identity(self):
        clean = self_session = Session.for_chebyshev(
            radius=1, window=WINDOW).restrict()
        untouched, updates = corrupt_session(clean, FaultPlan(seed=3))
        assert updates == {}
        assert untouched is self_session
