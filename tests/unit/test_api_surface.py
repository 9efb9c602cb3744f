"""Public-API stability: surface snapshots + legacy/facade equivalence.

The exported surface of ``repro`` and ``repro.api`` is snapshotted by
name: adding an export is a deliberate snapshot update, removing or
renaming one fails loudly.  And every legacy entry point is pinned
*bit-identical* to its ``Session`` counterpart — with 1 and 2
workers, with no ``DeprecationWarning`` raised on either path (neither surface is deprecated; they are two views of one
implementation).
"""

import warnings
from contextlib import contextmanager

import pytest

import repro
import repro.api
from repro.api import Box, EngineConfig, Session, use_config
from repro.core.schedule import (
    MappingSchedule,
    VerificationCache,
    find_collisions,
    verify_collision_free,
)
from repro.core.serialize import schedule_from_json, schedule_to_json
from repro.core.theorem1 import schedule_from_prototile
from repro.net.model import Network
from repro.net.protocols import CSMALike, ScheduleMAC, SlottedAloha
from repro.net.simulator import BroadcastSimulator, simulate
from repro.tiles.shapes import chebyshev_ball, directional_antenna
from repro.utils.vectors import box_points

# ----------------------------------------------------------------------
# Snapshots: the exact exported names.  Update deliberately.
# ----------------------------------------------------------------------
REPRO_EXPORTS = frozenset({
    "Box", "EngineConfig", "Session", "SlotAssignment",
    "VerificationReport",
    "Prototile", "chebyshev_ball", "directional_antenna",
    "find_collisions", "make_protocol", "plus_pentomino", "protocol_names",
    "register_protocol", "schedule_for", "simulate",
    "use_config", "verify_collision_free", "__version__",
})

API_EXPORTS = frozenset({
    "Box", "CorruptSessionError", "EngineConfig", "RepairReport",
    "Session", "SlotAssignment", "VerificationReport",
    "use_config",
    "make_protocol", "protocol_names", "register_protocol",
})


def test_repro_surface_snapshot():
    assert set(repro.__all__) == REPRO_EXPORTS
    for name in REPRO_EXPORTS:
        assert hasattr(repro, name), name


def test_api_surface_snapshot():
    assert set(repro.api.__all__) == API_EXPORTS
    for name in API_EXPORTS:
        assert hasattr(repro.api, name), name


def test_top_level_exports_are_the_canonical_objects():
    from repro.core import schedule as schedule_module
    from repro.net import simulator as simulator_module
    assert repro.find_collisions is schedule_module.find_collisions
    assert repro.verify_collision_free is \
        schedule_module.verify_collision_free
    assert repro.simulate is simulator_module.simulate
    assert repro.Session is Session
    assert repro.EngineConfig is EngineConfig


# ----------------------------------------------------------------------
# Equivalence: legacy entry point == Session counterpart, bit for bit.
# ----------------------------------------------------------------------
WINDOW_CORNERS = ((-5, -5), (6, 5))
WORKERS = [1, 2]


@contextmanager
def _forbid_deprecation():
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        yield


@pytest.mark.parametrize("workers", WORKERS)
def test_assign_equivalence(workers, coset_lane):
    config = EngineConfig(workers=workers)
    points = coset_lane(box_points(*WINDOW_CORNERS))
    with _forbid_deprecation():
        schedule = schedule_from_prototile(chebyshev_ball(1))
        with use_config(config):
            legacy = schedule.slots_of(points)
        session = Session.for_chebyshev(1, config=config)
        facade = session.assign(points)
    assert list(facade.slots) == list(legacy)


@pytest.mark.parametrize("workers", WORKERS)
@pytest.mark.parametrize("tile", ["chebyshev", "antenna"])
def test_verify_equivalence(workers, tile, scan_lane):
    prototile = (chebyshev_ball(1) if tile == "chebyshev"
                 else directional_antenna())
    config = EngineConfig(workers=workers)
    points = list(box_points(*WINDOW_CORNERS))
    with _forbid_deprecation():
        schedule = schedule_from_prototile(prototile)
        with use_config(config):
            legacy = find_collisions(schedule, points,
                                     schedule.neighborhood_of)
            legacy_free = verify_collision_free(schedule, points,
                                                schedule.neighborhood_of)
        session = Session.for_prototile(prototile, window=points,
                                        config=config)
        report = session.verify()
        fresh = session.verify(use_cache=False)
    assert list(report.collisions) == legacy
    assert list(fresh.collisions) == legacy
    assert report.collision_free == legacy_free


@pytest.mark.parametrize("workers", WORKERS)
@pytest.mark.parametrize("protocol_name", ["schedule", "aloha", "csma"])
def test_simulate_equivalence(workers, protocol_name):
    config = EngineConfig(workers=workers)
    points = list(box_points((0, 0), (7, 7)))
    tile = chebyshev_ball(1)
    with _forbid_deprecation():
        schedule = schedule_from_prototile(tile)
        network = Network.homogeneous(points, tile)
        legacy_protocol = {
            "schedule": lambda: ScheduleMAC(schedule),
            "aloha": lambda: SlottedAloha(0.15),
            "csma": lambda: CSMALike(0.15),
        }[protocol_name]()
        with use_config(config):
            legacy = simulate(network, legacy_protocol, slots=40,
                              packet_interval=schedule.num_slots, seed=13)
        session = Session.for_prototile(tile, window=points, config=config)
        params = {"p": 0.15} if protocol_name != "schedule" else {}
        facade = session.simulate(protocol_name, 40, seed=13, **params)
    assert facade == legacy


@pytest.mark.parametrize("workers", WORKERS)
def test_simulator_config_equals_env_style_context(workers):
    """BroadcastSimulator(config=...) == the use_config(...) way."""
    config = EngineConfig(workers=workers)
    points = list(box_points((0, 0), (6, 6)))
    network = Network.homogeneous(points, chebyshev_ball(1))
    with _forbid_deprecation():
        with use_config(config):
            ambient = BroadcastSimulator(network, SlottedAloha(0.2),
                                         seed=3).run(30)
        configured = BroadcastSimulator(network, SlottedAloha(0.2),
                                        seed=3, config=config).run(30)
    assert configured == ambient


@pytest.mark.parametrize("workers", WORKERS)
def test_edit_chain_equivalence(workers):
    """Session.edit + incremental verify == with_updates + apply + cache.

    A chain of edits on a restricted session, verified incrementally
    after each step, equals the free-function chain: ``with_updates``
    deltas fed to one :class:`VerificationCache` and answered through
    ``find_collisions(cache=)``.
    """
    config = EngineConfig(workers=workers)
    window = list(box_points((0, 0), (7, 7)))
    schedule = schedule_from_prototile(chebyshev_ball(1))
    neighborhood = schedule.neighborhood_of
    steps = [{(2, 2): 0, (3, 3): 0}, {(2, 2): schedule.slot_of((2, 2))},
             {(5, 1): 4, (6, 6): 1, (0, 7): 2}]
    with _forbid_deprecation():
        session = Session.for_prototile(chebyshev_ball(1), window=window,
                                        config=config).restrict()
        facade = [session.verify().collisions]
        for step in steps:
            session = session.edit(step)
            report = session.verify()
            assert report.source == "delta"
            facade.append(report.collisions)
        with use_config(config):
            current = MappingSchedule(
                {p: schedule.slot_of(p) for p in window})
            cache = VerificationCache(current, window, neighborhood)
            legacy = [tuple(find_collisions(current, window, neighborhood,
                                            cache=cache))]
            for step in steps:
                delta = current.with_updates(step)
                cache.apply(delta)
                current = delta.schedule
                legacy.append(tuple(find_collisions(
                    current, window, neighborhood, cache=cache)))
    assert facade == legacy
    assert any(facade)  # the chain must actually collide somewhere


def test_save_load_equivalence():
    with _forbid_deprecation():
        for build in (lambda: schedule_from_prototile(chebyshev_ball(1)),
                      lambda: schedule_from_prototile(
                          directional_antenna())):
            schedule = build()
            legacy_text = schedule_to_json(schedule)
            session = Session(schedule)
            assert session.save() == legacy_text
            rebuilt = schedule_from_json(legacy_text)
            clone = Session.load(legacy_text)
            points = list(box_points((0, 0), (5, 5)))
            assert clone.assign(points).slots == rebuilt.slots_of(points)


def test_default_path_is_deprecation_warning_free():
    """The whole lifecycle on defaults: no DeprecationWarning anywhere."""
    with _forbid_deprecation():
        session = Session.for_chebyshev(1, window=Box((0, 0), (5, 5)))
        session.assign([(0, 0), (3, 2)])
        session.verify()
        session.simulate("aloha", 9, seed=1, p=0.1)
        Session.load(session.save())
        schedule = repro.schedule_for(1)
        repro.verify_collision_free(
            schedule, list(box_points((0, 0), (4, 4))),
            schedule.neighborhood_of)
