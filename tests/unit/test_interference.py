"""One interference model per session, read by every lane.

A session derives its :class:`~repro.core.schedule.Interference` model
(shape classes, how a point's class is found, conflict offsets) once.
The cached or certificate lane, ``use_cache=False`` and ``stream_chunk``
must then give the same collisions over every window — empty, a box or
a shuffled point list — and those must be the brute-force answer of
:mod:`repro.scenarios.reference`.  A restricted session keeps its
parent's model, so its network and its wire envelope keep it too.
"""

import random

import pytest

from repro.api import Box, Session
from repro.core.schedule import Interference, TilingSchedule
from repro.lattice.sublattice import diagonal_sublattice
from repro.scenarios.reference import reference_collisions
from repro.service.transport.wire import decode_session, encode_session
from repro.tiles.shapes import chebyshev_ball, rectangle_tile
from repro.tiling.multi import MultiTiling
from repro.utils.vectors import vadd, vsub

DOMAIN = Box((0, 0), (9, 9))


def respectable_city():
    return MultiTiling([rectangle_tile(2, 2), rectangle_tile(1, 2)],
                       [[(0, 0)], [(2, 0), (3, 0)]],
                       diagonal_sublattice((4, 2)))


def _planted(session):
    """The session restricted to ``DOMAIN``, a few slots copied from a
    neighbour so the window collides."""
    restricted = session.restrict(DOMAIN)
    rng = random.Random(11)
    updates = {}
    for point in rng.sample(DOMAIN.points(), 6):
        other = vadd(point, rng.choice([(0, 1), (1, 0), (1, 1)]))
        if other in DOMAIN.points():
            updates[point] = restricted.schedule.slot_of(other)
    return restricted.edit(updates)


def _lopsided(point):
    """A map no model recognises: two shape classes, by parity."""
    x, y = point
    cells = {(x, y), (x + 1, y), (x, y + 1)}
    if x % 2:
        cells.add((x - 1, y - 1))
    return frozenset(cells)


def _custom():
    rng = random.Random(5)
    shapes = [frozenset(vsub(cell, (x, 0)) for cell in _lopsided((x, 0)))
              for x in (0, 1)]
    offsets = sorted({vsub(p, q) for a in shapes for b in shapes
                      for p in a for q in b} - {(0, 0)})
    return Session.for_mapping(
        {point: rng.randrange(3) for point in DOMAIN.points()},
        neighborhood_of=_lopsided, offsets=offsets)


SESSIONS = {
    "theorem1": lambda: Session.for_chebyshev(1, 2),
    "theorem2": lambda: Session.for_multi_tiling(respectable_city()),
    "theorem1-restricted": lambda: _planted(Session.for_chebyshev(1, 2)),
    "theorem2-restricted": lambda: _planted(
        Session.for_multi_tiling(respectable_city())),
    "mapping-custom": _custom,
}
LANES = {
    "cached": {},
    "scan": {"use_cache": False},
    "stream": {"stream_chunk": 7},
}
WINDOWS = {
    "empty": lambda: [],
    "box": lambda: Box((1, 2), (8, 9)),
    "shuffled": lambda: random.Random(3).sample(DOMAIN.points(), 40),
}


@pytest.mark.parametrize("kind, lane, window", [
    (kind, lane, window) for kind in SESSIONS for lane in LANES
    for window in WINDOWS
    # stream_chunk streams a Box, and a Box is never empty
    if lane != "stream" or window == "box"])
def test_every_lane_answers_the_reference(kind, lane, window):
    session = SESSIONS[kind]()
    spec = WINDOWS[window]()
    points = spec.points() if isinstance(spec, Box) else spec
    want = reference_collisions(points, session.schedule.slot_of,
                                session.neighborhood_of)
    report = session.verify(spec, **LANES[lane])
    assert list(report.collisions) == want
    assert report.window_size == len(points)
    # a second verify (a cache or certificate hit) answers the same
    assert session.verify(spec, **LANES[lane]).collisions \
        == report.collisions


def test_planted_windows_really_collide():
    for kind in ("theorem1-restricted", "theorem2-restricted",
                 "mapping-custom"):
        assert SESSIONS[kind]().verify().collisions, kind


def test_an_unrecognised_map_streams_only_with_offsets():
    # The halo comes from the offsets, so a map the model cannot read
    # them from is refused, not streamed under the schedule's own.
    box = Box((0, 0), (9, 9))
    wide = Session(Session.for_chebyshev(1, 2).schedule,
                   neighborhood_of=chebyshev_ball(2).translate)
    with pytest.raises(ValueError, match="offsets"):
        wide.verify(box, stream_chunk=10)
    offsets = sorted({vsub(p, q) for p in chebyshev_ball(2).cells
                      for q in chebyshev_ball(2).cells} - {(0, 0)})
    assert wide.verify(box, offsets=offsets, stream_chunk=10).collisions \
        == wide.verify(box).collisions


def test_derived_sessions_reuse_the_model():
    session = Session.for_chebyshev(1, 2)
    model = session._neighborhood_of
    restricted = session.restrict(DOMAIN)
    edited = restricted.edit({(0, 0): 3})
    assert restricted._neighborhood_of is model
    assert edited._neighborhood_of is model
    assert edited.with_config(None)._neighborhood_of is model
    assert Interference.of(model) is model
    custom = _custom()
    assert custom.edit({(0, 0): 1})._neighborhood_of \
        is custom._neighborhood_of


class TestNetwork:
    def test_a_supplied_model_builds_the_network(self):
        box = Box((0, 0), (9, 9))
        wide = Session(Session.for_chebyshev(1, 2).schedule,
                       neighborhood_of=chebyshev_ball(2).translate)
        want = reference_collisions(box.points(), wide.schedule.slot_of,
                                    wide.neighborhood_of)
        assert list(wide.verify(box).collisions) == want and want
        node = wide.network(box).node((5, 5))
        assert node.interference == chebyshev_ball(2).translate((5, 5))
        assert wide.simulate("schedule", 36, window=box).collision_rate > 0

    def test_a_restricted_network_equals_its_parents(self):
        for parent in (Session.for_chebyshev(1, 2),
                       Session.for_multi_tiling(respectable_city())):
            restricted = parent.restrict(DOMAIN)
            mine, theirs = restricted.network(), parent.network(DOMAIN)
            assert mine.positions == theirs.positions
            assert all(mine.node(p).interference
                       == theirs.node(p).interference
                       for p in DOMAIN.points())


class _Wide(TilingSchedule):
    """A Theorem 1 schedule whose interference map is overridden."""

    def neighborhood_of(self, point):
        return chebyshev_ball(2).translate(tuple(point))


class TestWire:
    def test_an_overridden_model_does_not_cross(self):
        base = Session.for_chebyshev(1, 2).schedule
        session = Session(_Wide(base.tiling, base.cells))
        restricted = session.restrict(DOMAIN)
        assert restricted.verify().collisions
        for local in (session, restricted):
            with pytest.raises(TypeError, match="custom interference"):
                encode_session(local, "a")

    def test_a_restricted_session_crosses_with_its_model(self):
        restricted = _planted(Session.for_multi_tiling(respectable_city()))
        _, remote = decode_session(encode_session(restricted, "a"))
        for lane in LANES.values():
            assert remote.verify(DOMAIN, **lane).collisions \
                == restricted.verify(DOMAIN, **lane).collisions
