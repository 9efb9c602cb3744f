"""repro.api: EngineConfig resolution, Session lifecycle, registry.

Two contracts are pinned here:

* configuration — ``EngineConfig`` has one field, the worker count.
  A session's or simulator's config outranks the innermost
  ``use_config`` block, which outranks ``REPRO_ENGINE_WORKERS``, which
  is resolved *lazily* (mutating ``os.environ`` after import takes
  effect) and warns at most once per malformed value; serial is the
  default;
* lifecycle — every ``Session`` method is bit-identical to the legacy
  entry point it wraps (the full equivalence matrix lives in
  ``test_api_surface.py``; this file covers the stateful parts: caches,
  edits, protocol resolution, save/load).
"""

import dataclasses
import warnings

import numpy as np
import pytest

import repro.engine.parallel as parallel_module
from repro.api import Box, EngineConfig, Session, use_config
from repro.core.schedule import find_collisions
from repro.engine.parallel import run_sharded, shard_workers
from repro.net.model import Network
from repro.net.protocols import (
    CSMALike,
    GlobalTDMA,
    ScheduleMAC,
    SlottedAloha,
    make_protocol,
    protocol_names,
    register_protocol,
)
from repro.net.simulator import BroadcastSimulator
from repro.scenarios.reference import reference_collisions, reference_slots
from repro.tiles.shapes import chebyshev_ball, directional_antenna
from repro.utils.vectors import box_points

WINDOW = Box((-6, -6), (6, 6))


@pytest.fixture
def clean_engine(monkeypatch):
    """No env var: the built-in resolution only."""
    monkeypatch.delenv("REPRO_ENGINE_WORKERS", raising=False)


def _resolved_in_worker(payload, span):
    return shard_workers()


# ----------------------------------------------------------------------
# EngineConfig
# ----------------------------------------------------------------------
class TestEngineConfig:
    def test_frozen_and_validated(self):
        config = EngineConfig(workers=2)
        with pytest.raises(AttributeError):
            config.workers = 3
        for bad in (0, -1, 1.5, True, "2"):
            with pytest.raises(ValueError):
                EngineConfig(workers=bad)

    def test_one_field(self):
        assert [f.name for f in dataclasses.fields(EngineConfig)] == \
            ["workers"]
        for removed in ("backend", "bulk_decisions"):
            with pytest.raises(TypeError):
                EngineConfig(**{removed: False})

    def test_dict_round_trip_rejects_unknown_keys(self):
        config = EngineConfig(workers=2)
        assert config.to_dict() == {"workers": 2}
        assert EngineConfig.from_dict(config.to_dict()) == config
        with pytest.raises(ValueError, match="unknown EngineConfig"):
            EngineConfig.from_dict({"workers": 2, "window": 7})
        with pytest.raises(ValueError, match="unknown EngineConfig"):
            EngineConfig.from_dict({"backend": "python"})
        with pytest.raises(ValueError):
            EngineConfig.from_dict({"workers": 0})

    def test_use_config_type_checked(self):
        with pytest.raises(TypeError):
            with use_config("python"):
                pass


# ----------------------------------------------------------------------
# Worker-count resolution: session/simulator config > use_config > env
# > 1, capped at 64, and 1 inside a shard thread.
# ----------------------------------------------------------------------
class TestWorkerResolutionOrder:
    NETWORK = Network.homogeneous(list(box_points((0, 0), (3, 3))),
                                  chebyshev_ball(1))

    def _session_workers(self, config=None):
        session = Session.for_chebyshev(1, window=WINDOW, config=config)
        return session.verify(use_cache=False).workers

    def _simulator_workers(self, config=None):
        # The protocol's decision kernel runs inside the simulator's
        # config scope, so it sees the count the simulator resolved.
        seen = []

        class Probe(SlottedAloha):
            def decision_block(self, *args):
                seen.append(shard_workers())
                return super().decision_block(*args)

        simulator = BroadcastSimulator(self.NETWORK, Probe(0.2), seed=1,
                                       config=config)
        simulator.step()
        return seen[0]

    def test_builtin_default_is_serial(self, clean_engine):
        assert shard_workers() == 1
        assert self._session_workers() == 1
        assert self._simulator_workers() == 1

    def test_env_outranks_the_default(self, clean_engine, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE_WORKERS", "4")
        assert shard_workers() == 4
        assert self._session_workers() == 4
        assert self._simulator_workers() == 4

    def test_use_config_outranks_env(self, clean_engine, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE_WORKERS", "4")
        with use_config(EngineConfig(workers=2)):
            assert shard_workers() == 2
            assert self._session_workers() == 2
            assert self._simulator_workers() == 2
            with use_config(EngineConfig(workers=3)):
                assert shard_workers() == 3  # the innermost block wins
            # A config without a worker count installs nothing.
            with use_config(EngineConfig()), use_config(None):
                assert shard_workers() == 2
        assert shard_workers() == 4

    def test_own_config_outranks_use_config(self, clean_engine,
                                            monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE_WORKERS", "4")
        own = EngineConfig(workers=3)
        with use_config(EngineConfig(workers=2)):
            assert self._session_workers(own) == 3
            assert self._simulator_workers(own) == 3
            # workers=None defers to the block.
            assert self._session_workers(EngineConfig()) == 2
            assert self._simulator_workers(EngineConfig()) == 2
            assert shard_workers() == 2  # the session scope closed again

    def test_capped_at_64(self, clean_engine, monkeypatch):
        with use_config(EngineConfig(workers=100000)):
            assert shard_workers() == 64
        monkeypatch.setenv("REPRO_ENGINE_WORKERS", "100000")
        assert shard_workers() == 64

    def test_serial_inside_a_shard_worker(self, clean_engine):
        with use_config(EngineConfig(workers=2)):
            inside = run_sharded(_resolved_in_worker, None,
                                 [(0, 1), (1, 2)])
        assert inside == [1, 1]


# ----------------------------------------------------------------------
# Concurrent config isolation: use_config is context-local, so threads
# serving different sessions (the repro.service wire handlers) cannot
# cross-contaminate each other's resolution.
# ----------------------------------------------------------------------
class TestConcurrentConfigIsolation:
    def test_two_threads_resolve_different_configs(self, clean_engine):
        import threading

        workers_seen: dict[str, int] = {}
        ready = threading.Barrier(2)

        def run(name: str, workers: int) -> None:
            with use_config(EngineConfig(workers=workers)):
                # Rendezvous *inside* both blocks: each thread resolves
                # while the other's config is installed in its context.
                ready.wait(timeout=10)
                workers_seen[name] = shard_workers()
                ready.wait(timeout=10)

        threads = [
            threading.Thread(target=run, args=("a", 1)),
            threading.Thread(target=run, args=("b", 2)),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert (workers_seen["a"], workers_seen["b"]) == (1, 2)
        # Neither install leaked into the main thread.
        assert shard_workers() == 1

    def test_use_config_does_not_leak_to_other_threads(self, clean_engine):
        import threading

        seen: dict[str, int] = {}

        def probe() -> None:
            seen["workers"] = shard_workers()

        with use_config(EngineConfig(workers=4)):
            thread = threading.Thread(target=probe)
            thread.start()
            thread.join(timeout=30)
        assert seen["workers"] == 1  # fresh thread, fresh context

    def test_env_is_visible_to_new_threads(self, clean_engine,
                                           monkeypatch):
        import threading

        seen: dict[str, int] = {}

        def probe() -> None:
            seen["workers"] = shard_workers()

        monkeypatch.setenv("REPRO_ENGINE_WORKERS", "3")
        thread = threading.Thread(target=probe)
        thread.start()
        thread.join(timeout=30)
        assert seen["workers"] == 3  # the process-wide setting

    def test_use_plan_is_context_local(self):
        import threading

        from repro.faults import FaultPlan
        from repro.faults.injection import active_plan, use_plan

        seen: dict[str, object] = {}
        ready = threading.Barrier(2)

        def armed() -> None:
            with use_plan(FaultPlan(seed=7, byzantine=0.5)) as plan:
                ready.wait(timeout=10)
                seen["armed"] = active_plan() is plan
                ready.wait(timeout=10)

        def clean() -> None:
            ready.wait(timeout=10)
            seen["clean"] = active_plan()
            ready.wait(timeout=10)

        threads = [threading.Thread(target=armed),
                   threading.Thread(target=clean)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert seen["armed"] is True
        assert seen["clean"] is None  # the arming never crossed threads


# ----------------------------------------------------------------------
# Lazy env resolution, warn-once
# ----------------------------------------------------------------------
class TestLazyEnvResolution:
    def test_workers_env_change_after_import(self, clean_engine,
                                             monkeypatch):
        assert shard_workers() == 1
        monkeypatch.setenv("REPRO_ENGINE_WORKERS", "2")
        assert shard_workers() == 2
        monkeypatch.setenv("REPRO_ENGINE_WORKERS", "3")
        assert shard_workers() == 3
        monkeypatch.delenv("REPRO_ENGINE_WORKERS")
        assert shard_workers() == 1

    def test_malformed_workers_value_warns_once(self, clean_engine,
                                                monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE_WORKERS", "a-bad-count")
        parallel_module._env_warned.discard("a-bad-count")
        with pytest.warns(UserWarning, match="a-bad-count"):
            assert shard_workers() == 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert shard_workers() == 1  # second resolution stays silent
        parallel_module._env_warned.discard("a-bad-count")

    def test_use_config_overrides_env(self, clean_engine, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE_WORKERS", "4")
        with use_config(EngineConfig(workers=1)):
            assert shard_workers() == 1
        assert shard_workers() == 4


class TestRandmacWorkerScope:
    """The randmac block kernels follow the scoped worker count."""

    @staticmethod
    def _rows(block):
        return [[bool(cell) for cell in row] for row in block]

    def test_sharded_blocks_are_bit_identical(self, clean_engine,
                                              monkeypatch):
        import repro.engine.randmac as randmac_module
        from repro.engine.randmac import (
            bernoulli_block,
            masked_bernoulli_block,
            uniform_block,
        )
        from repro.utils.rng import StreamRNG
        monkeypatch.setattr(randmac_module, "_MIN_PARALLEL_CELLS", 1)
        rng = StreamRNG(7)
        muted = [i % 3 == 0 for i in range(6)]
        blocks = {}
        for workers in (1, 2):
            with use_config(EngineConfig(workers=workers)):
                blocks[workers] = (
                    self._rows(bernoulli_block(rng, 6, 0, 4, 0.4)),
                    [list(map(float, row))
                     for row in uniform_block(rng, 6, 0, 4)],
                    self._rows(masked_bernoulli_block(rng, 6, 0, 4, 0.4,
                                                      muted)))
        assert blocks[2] == blocks[1]

    def test_inner_serial_scope_overrides_outer(self, clean_engine,
                                                monkeypatch):
        """An inner workers=1 block pins the serial path."""
        import repro.engine.randmac as randmac_module
        from repro.engine.randmac import bernoulli_block
        from repro.utils.rng import StreamRNG

        def fail_if_sharded(*args, **kwargs):  # pragma: no cover
            raise AssertionError("workers=1 must not dispatch shards")

        monkeypatch.setattr(randmac_module, "_MIN_PARALLEL_CELLS", 1)
        monkeypatch.setattr(randmac_module, "run_sharded", fail_if_sharded)
        with use_config(EngineConfig(workers=4)):
            with use_config(EngineConfig(workers=1)):
                bernoulli_block(StreamRNG(1), 8, 0, 4, 0.3)


# ----------------------------------------------------------------------
# Session lifecycle
# ----------------------------------------------------------------------
class TestSessionBasics:
    def test_builders(self):
        assert Session.for_chebyshev(1).num_slots == 9
        assert Session.for_prototile(directional_antenna()).num_slots == 8
        mapping = Session.for_mapping({(0, 0): 0, (1, 0): 1})
        assert mapping.num_slots == 2
        with pytest.raises(TypeError):
            Session(Session.for_chebyshev(1).schedule, config="python")

    def test_assign_matches_slot_of(self):
        session = Session.for_chebyshev(1)
        points = list(box_points((-5, -5), (5, 5)))
        assignment = session.assign(points)
        assert list(assignment.slots) == \
            [session.schedule.slot_of(p) for p in points]
        assert assignment.num_slots == 9
        assert len(assignment) == len(points)
        assert assignment.as_dict()[(0, 0)] == \
            session.schedule.slot_of((0, 0))
        assert assignment.slot_of((2, 3)) == \
            session.schedule.slot_of((2, 3))
        with pytest.raises(KeyError):
            assignment.slot_of((99, 99))

    def test_verify_report_and_cache(self):
        session = Session.for_chebyshev(1, window=WINDOW)
        first = session.verify()
        # A Theorem 1 schedule verified with its own interference model
        # answers from its periodicity certificate: the first serve
        # charges the fundamental-domain scan, repeats are free.
        assert first.collision_free and first.source == "certificate"
        assert first.window_size == 169
        assert 0 < first.checked_points < first.window_size
        second = session.verify()
        assert second.source == "certificate"
        assert second.checked_points == 0
        assert session.cache_stats == (1, 1)
        fresh = session.verify(use_cache=False)
        assert fresh.source == "scan"
        assert fresh.checked_points == fresh.window_size == 169
        assert fresh.collisions == first.collisions

    def test_certificate_sizes_huge_boxes_arithmetically(self):
        session = Session.for_chebyshev(1)
        report = session.verify(Box((0, 0), (10**6 - 1, 10**6 - 1)))
        assert report.source == "certificate"
        assert report.collision_free
        assert report.window_size == 10**12

    def test_mapping_sessions_never_certify(self):
        points = list(box_points((0, 0), (5, 5)))
        base = Session.for_chebyshev(1)
        session = Session.for_mapping(
            base.assign(points).as_dict(),
            neighborhood_of=lambda p: chebyshev_ball(1).translate(p),
            window=points)
        assert session.verify().source == "scan"
        assert session.verify().source == "cache"

    def test_stream_chunk_matches_one_shot_scan(self):
        session = Session.for_chebyshev(1)
        box = Box((-4, -4), (14, 14))
        streamed = session.verify(box, stream_chunk=40)
        assert streamed.source == "scan"
        assert streamed.checked_points == streamed.window_size == 19 * 19
        one_shot = session.verify(box, use_cache=False)
        assert streamed.collisions == one_shot.collisions
        with pytest.raises(ValueError, match="Box"):
            session.verify([(0, 0)], stream_chunk=10)

    def test_verify_needs_a_window(self):
        with pytest.raises(ValueError, match="window"):
            Session.for_chebyshev(1).verify()

    def test_verify_with_explicit_offsets_coexists_with_warm_cache(self):
        from repro.core.schedule import conflict_offsets
        session = Session.for_chebyshev(1, window=WINDOW)
        default = session.verify()
        offsets = sorted(conflict_offsets([chebyshev_ball(1)]))
        explicit = session.verify(offsets=offsets)
        assert explicit.source == "scan"  # offsets bypass the certificate
        assert session.verify(offsets=offsets).source == "cache"
        assert session.verify().source == "certificate"
        assert explicit.collisions == default.collisions

    def test_window_box_expansion_matches_box_points(self):
        session = Session.for_chebyshev(1, window=WINDOW)
        assert session.window == list(box_points(*WINDOW))

    def test_only_box_marker_expands(self):
        """Plain iterables are points; the legacy 2-tuple form is loud."""
        session = Session.for_chebyshev(1)
        assert session.verify([(0, 0), (3, 3)]).window_size == 2
        assert session.verify(Box((0, 0), (3, 3))).window_size == 16
        assert Box((0, 0), (3, 3)).points() == \
            list(box_points((0, 0), (3, 3)))
        # the pre-Box corner-pair spelling must fail, never silently
        # shrink to its two corner points
        with pytest.raises(TypeError, match="Box"):
            session.verify(((0, 0), (3, 3)))

    def test_box_rejects_swapped_or_mismatched_corners(self):
        session = Session.for_chebyshev(1)
        for bad in (Box((3, 3), (0, 0)), Box((0, 0), (3, 3, 3))):
            with pytest.raises(ValueError, match="lo <= hi"):
                session.verify(bad)

    def test_mapping_domain_is_default_window(self):
        points = list(box_points((0, 0), (4, 4)))
        base = Session.for_chebyshev(1)
        session = Session.for_mapping(
            base.assign(points).as_dict(),
            neighborhood_of=lambda p: chebyshev_ball(1).translate(p))
        assert session.verify().window_size == 25

    def test_repr(self):
        text = repr(Session.for_chebyshev(1, window=WINDOW))
        assert "TilingSchedule" in text and "slots=9" in text


class TestSessionPointEdge:
    """``assign`` and ``verify`` validate points once, by one rule."""

    BAD = [[(1.5, 2)], [("1", 2)], [(True, 2)], [(0, 0), (1, None)]]

    @pytest.mark.parametrize("points", BAD, ids=repr)
    @pytest.mark.parametrize("use_cache", [True, False])
    def test_bad_coordinates_raise_the_same_type_error(self, points,
                                                       use_cache):
        session = Session.for_chebyshev(1)
        with pytest.raises(TypeError) as assigned:
            session.assign(points)
        with pytest.raises(TypeError) as verified:
            session.verify(points, use_cache=use_cache)
        assert str(assigned.value) == str(verified.value)
        assert "coordinate" in str(assigned.value)

    def test_a_float_coordinate_is_never_truncated(self):
        session = Session.for_chebyshev(1)
        with pytest.raises(TypeError):
            session.assign(np.array([[1.5, 2.0]]))
        with pytest.raises(TypeError):
            session.verify(np.array([[1.5, 2.0]]))
        assert session.assign([(2.0, 3.0)]).slots == \
            session.assign([(2, 3)]).slots

    def test_arrays_and_tuples_are_the_same_window(self):
        session = Session.for_chebyshev(1)
        box = Box((-2, 1), (4, 6))
        array = np.array(box.points())
        assert session.assign(array).slots == \
            session.assign(box.points()).slots
        for use_cache in (True, False):
            by_array = session.verify(array, use_cache=use_cache)
            by_tuples = session.verify(box.points(), use_cache=use_cache)
            assert by_array.collisions == by_tuples.collisions
            assert by_array.window_size == by_tuples.window_size == 42

    def test_ragged_points_are_a_value_error(self):
        session = Session.for_chebyshev(1)
        for call in (session.assign, session.verify):
            with pytest.raises(ValueError, match="dimension"):
                call([(0, 0), (1, 2, 3)])


class TestSessionEdit:
    @staticmethod
    def _mapping_session():
        points = list(box_points((0, 0), (7, 7)))
        base = Session.for_chebyshev(1)
        return points, Session.for_mapping(
            base.assign(points).as_dict(),
            neighborhood_of=lambda p: chebyshev_ball(1).translate(p),
            window=points)

    def test_edit_reverifies_incrementally(self):
        points, session = self._mapping_session()
        assert session.verify().collision_free
        edited = session.edit({(3, 3): (session.schedule.slot_of((3, 3))
                                        + 1) % 9})
        report = edited.verify()
        assert report.source == "delta"
        assert report.checked_points == 1
        # bit-identical to a from-scratch scan of the edited schedule
        assert list(report.collisions) == find_collisions(
            edited.schedule, points, session._neighborhood_of)
        assert not report.collision_free
        # the original session is untouched semantically
        assert session.verify().collision_free

    def test_edit_chain_matches_full_rescan(self):
        points, session = self._mapping_session()
        session.verify()
        for step in range(4):
            session = session.edit({(step, step): (5 * step + 1) % 9,
                                    (6, step): (3 * step + 2) % 9})
        assert list(session.verify().collisions) == find_collisions(
            session.schedule, points, session._neighborhood_of)

    def test_edit_requires_mapping_schedule(self):
        with pytest.raises(TypeError, match="immutable"):
            Session.for_chebyshev(1).edit({(0, 0): 1})

    def test_delta_label_is_per_window(self):
        """A window first verified after the edit never claims 'delta'."""
        points, session = self._mapping_session()
        session.verify()
        edited = session.edit({(2, 2): (session.schedule.slot_of((2, 2))
                                        + 1) % 9})
        other = points[:16]
        first = edited.verify(other)
        assert first.source == "scan"
        assert edited.verify(other).source == "cache"
        # the edited window still reports its one delta, once
        assert edited.verify().source == "delta"
        assert edited.verify().source == "cache"

    def test_delta_checked_points_counted_per_window(self):
        """checked_points is the changed points *inside* that window."""
        points, session = self._mapping_session()
        small = points[:16]              # excludes (7, 7)
        session.verify()
        session.verify(small)
        edited = session.edit({
            (0, 0): (session.schedule.slot_of((0, 0)) + 1) % 9,
            (7, 7): (session.schedule.slot_of((7, 7)) + 1) % 9})
        small_report = edited.verify(small)
        assert small_report.source == "delta"
        assert small_report.checked_points == 1  # only (0, 0) is inside
        full_report = edited.verify()
        assert full_report.source == "delta"
        assert full_report.checked_points == 2

    def test_window_untouched_by_edit_reports_cache(self):
        """An edit entirely outside a warm window rescans nothing there."""
        points, session = self._mapping_session()
        small = points[:16]
        session.verify(small)
        edited = session.edit({(7, 7): (session.schedule.slot_of((7, 7))
                                        + 1) % 9})
        report = edited.verify(small)
        assert report.source == "cache"
        assert report.checked_points == 0
        assert list(report.collisions) == find_collisions(
            edited.schedule, small, session._neighborhood_of)

    def test_receiver_keeps_no_stale_delta_accounting(self):
        """Once its caches are stolen, the old session's reports are clean."""
        points, session = self._mapping_session()
        session.verify()
        middle = session.edit({(3, 3): (session.schedule.slot_of((3, 3))
                                        + 1) % 9})
        middle.edit({(4, 4): 0})      # steals middle's caches and accounting
        assert middle.verify().source == "scan"
        follow = middle.verify()      # pure cache hit, never "delta"
        assert follow.source == "cache"
        assert follow.checked_points == 0

    def test_chained_edits_accumulate_unreported_counts(self):
        """Rescans from every not-yet-reported edit sum up per window."""
        points, session = self._mapping_session()
        small = points[:16]           # holds (0, 0), excludes (7, 7)
        session.verify()
        session.verify(small)
        chained = session.edit(
            {(0, 0): (session.schedule.slot_of((0, 0)) + 1) % 9}).edit(
            {(7, 7): (session.schedule.slot_of((7, 7)) + 1) % 9})
        full_report = chained.verify()
        assert full_report.source == "delta"
        assert full_report.checked_points == 2    # both edits, summed
        small_report = chained.verify(small)
        assert small_report.source == "delta"
        assert small_report.checked_points == 1   # second edit fell outside

    def test_networks_are_not_shared_across_edit(self):
        points, session = self._mapping_session()
        session.network()
        edited = session.edit({(3, 3): (session.schedule.slot_of((3, 3))
                                        + 1) % 9})
        assert edited._networks is not session._networks
        assert edited._networks == session._networks


class TestSessionEditAddsPoints:
    """Edits that grow the domain must not escape verification."""

    @staticmethod
    def _session(assignment, **kwargs):
        return Session.for_mapping(
            assignment,
            neighborhood_of=lambda p: chebyshev_ball(1).translate(p),
            **kwargs)

    def test_added_colliding_point_is_found(self):
        session = self._session({(0, 0): 0, (10, 10): 0})
        assert session.verify().collision_free
        edited = session.edit({(1, 1): 0})   # adjacent to (0, 0), same slot
        report = edited.verify()
        assert report.window_size == 3       # default window grew
        assert report.source == "scan"       # fresh window, honest cost
        assert list(report.collisions) == [((0, 0), (1, 1))]
        fresh = self._session(dict.fromkeys([(0, 0), (1, 1), (10, 10)], 0))
        assert list(report.collisions) == list(fresh.verify().collisions)

    def test_added_point_result_is_order_independent(self):
        """Same answer whether the parent verified before the edit or not."""
        results = []
        for verify_first in (False, True):
            session = self._session({(0, 0): 0, (10, 10): 0})
            if verify_first:
                session.verify()
            results.append(
                list(session.edit({(1, 1): 0}).verify().collisions))
        assert results[0] == results[1] == [((0, 0), (1, 1))]

    def test_explicit_window_stays_pinned(self):
        """A caller-supplied window is kept verbatim across edits."""
        session = self._session({(0, 0): 0, (10, 10): 0},
                                window=[(0, 0), (10, 10)])
        session.verify()
        edited = session.edit({(1, 1): 0})
        report = edited.verify()             # the pinned two-point window
        assert report.window_size == 2
        assert report.collision_free
        # the grown domain is still verifiable explicitly
        assert not edited.verify(edited.schedule.points).collision_free

    def test_with_config_preserves_derived_window_semantics(self):
        """with_config() must not freeze a lazily-derived window either."""
        session = self._session({(0, 0): 0, (10, 10): 0})
        session.verify()                     # derives the domain window
        rewrapped = session.with_config(EngineConfig(workers=2))
        report = rewrapped.edit({(1, 1): 0}).verify()
        assert list(report.collisions) == [((0, 0), (1, 1))]


class TestSessionSimulate:
    def test_named_protocols_match_constructed(self):
        session = Session.for_chebyshev(1, window=Box((0, 0), (5, 5)))
        network = session.network()
        for name, protocol in (
                ("schedule", ScheduleMAC(session.schedule)),
                ("tdma", GlobalTDMA(network.positions)),
                ("aloha", SlottedAloha(0.2)),
                ("csma", CSMALike(0.2))):
            params = {"p": 0.2} if name in ("aloha", "csma") else {}
            named = session.simulate(name, 36, seed=11, **params)
            constructed = session.simulate(protocol, 36, seed=11)
            assert named == constructed, name

    def test_window_and_network_are_exclusive(self):
        session = Session.for_chebyshev(1, window=Box((0, 0), (3, 3)))
        with pytest.raises(ValueError, match="not both"):
            session.simulate("aloha", 5, window=Box((0, 0), (2, 2)),
                             network=session.network(), p=0.1)

    def test_params_rejected_for_constructed_protocols(self):
        session = Session.for_chebyshev(1, window=Box((0, 0), (3, 3)))
        with pytest.raises(TypeError, match="only"):
            session.simulate(SlottedAloha(0.1), 5, p=0.2)

    def test_multi_tiling_network(self):
        from repro.experiments.theorem_experiments import \
            respectable_pair_tiling
        session = Session.for_multi_tiling(respectable_pair_tiling(),
                                           window=Box((0, 0), (7, 7)))
        metrics = session.simulate("schedule", 24, seed=5)
        assert metrics.failed_receptions == 0


class TestSessionSaveLoad:
    @pytest.mark.parametrize("build", [
        lambda: Session.for_chebyshev(1),
        lambda: Session.for_prototile(directional_antenna()),
        lambda: Session.for_mapping({(0, 0): 0, (1, 0): 1, (0, 1): 2}),
    ])
    def test_round_trip(self, build):
        session = build()
        clone = Session.load(session.save())
        points = list(box_points((0, 0), (3, 3))) \
            if not hasattr(session.schedule, "points") \
            else session.schedule.points
        assert clone.assign(points).slots == session.assign(points).slots
        assert clone.num_slots == session.num_slots

    def test_file_round_trip(self, tmp_path):
        session = Session.for_chebyshev(1, window=WINDOW)
        target = tmp_path / "schedule.json"
        text = session.save(target)
        assert target.read_text() == text
        clone = Session.load(target, window=WINDOW)
        assert clone.verify().collisions == session.verify().collisions


class TestSessionConfig:
    def test_config_pins_workers(self, clean_engine):
        session = Session.for_chebyshev(
            1, window=WINDOW, config=EngineConfig(workers=2))
        assert session.verify().workers == 2
        # ambient state is untouched outside the calls
        assert shard_workers() == 1

    def test_with_config(self, clean_engine):
        session = Session.for_chebyshev(1, window=WINDOW)
        sharded = session.with_config(EngineConfig(workers=2))
        assert sharded.schedule is session.schedule
        assert sharded.verify().workers == 2

    def test_facade_matches_reference(self, clean_engine):
        session = Session.for_prototile(directional_antenna(), window=WINDOW)
        schedule = session.schedule
        window = session.window
        assert list(session.assign(window).slots) == \
            reference_slots(schedule.slot_of, window)
        assert list(session.verify(use_cache=False).collisions) == \
            reference_collisions(window, schedule.slot_of,
                                 session.neighborhood_of)


# ----------------------------------------------------------------------
# Protocol registry
# ----------------------------------------------------------------------
class TestProtocolRegistry:
    def test_builtin_names(self):
        names = protocol_names()
        for name in ("aloha", "csma", "tdma", "schedule",
                     "slotted-aloha", "csma-like", "global-tdma",
                     "tiling-schedule"):
            assert name in names

    def test_make_protocol_normalizes_names(self):
        assert isinstance(make_protocol(" ALOHA ", p=0.1), SlottedAloha)
        assert isinstance(make_protocol("csma_like", p=0.1), CSMALike)

    def test_unknown_name_lists_known(self):
        with pytest.raises(KeyError, match="aloha"):
            make_protocol("nonesuch")

    def test_context_requirements(self):
        with pytest.raises(ValueError, match="positions"):
            make_protocol("tdma")
        with pytest.raises(ValueError, match="schedule"):
            make_protocol("schedule")

    def test_register_rejects_duplicates(self):
        with pytest.raises(ValueError, match="already registered"):
            register_protocol("aloha", lambda context: None)

    def test_register_custom(self):
        name = "test-custom-proto"
        try:
            register_protocol(name,
                              lambda context, p=0.5: SlottedAloha(p))
            protocol = make_protocol(name, p=0.25)
            assert isinstance(protocol, SlottedAloha)
            assert protocol.p == 0.25
        finally:
            from repro.net import protocols as protocols_module
            protocols_module._REGISTRY.pop(name, None)

    def test_simulate_free_function_accepts_names(self):
        from repro.net.simulator import simulate
        session = Session.for_chebyshev(1, window=Box((0, 0), (4, 4)))
        network = session.network()
        named = simulate(network, "aloha", slots=18, seed=2, p=0.15)
        constructed = simulate(network, SlottedAloha(0.15), slots=18,
                               seed=2)
        assert named == constructed
