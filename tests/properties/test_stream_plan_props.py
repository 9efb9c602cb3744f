"""Property-based tests: the streamed slab plan answers like one scan.

:func:`~repro.core.certify.stream_box_collisions` verifies a Theorem
1/2 schedule on a *slab plan*: one coset reduction per slab on open
grids (:meth:`~repro.engine.slots.CosetTable.box_keys`), slots and
shape ids gathered from that key grid into reused stencil buffers.
These properties hold it to the paths it replaces:

* the box kernel equals :meth:`CosetTable.lookup_array` of the same box
  as a point batch, for random HNF sublattices (non-diagonal ones
  included) and negative corners; a box straddling ``2**40`` streams
  without a plan, on the exact lookup path;
* a streamed box equals the one-shot
  :func:`~repro.core.schedule.find_collisions` for any chunk size —
  one row per slab, partial top slabs, boxes narrower than the conflict
  radius — on Theorem 1 and Theorem 2 schedules;
* a stream that does collide matches too: a schedule verified under a
  larger prototile's (or another tiling's) interference map, with
  explicit offsets;
* an armed ``repro.faults`` numpy failure still degrades the slabs it
  hits, each with a typed :class:`EngineDegradedWarning`, and the
  answer does not change.
"""

from __future__ import annotations

import contextlib
import random
import warnings

from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.certify as certify_module
import repro.engine.slots as slots_module
from repro.api import Session
from repro.core.certify import stream_box_collisions
from repro.core.schedule import conflict_offsets, find_collisions
from repro.core.theorem1 import schedule_from_prototile, schedule_from_tiling
from repro.core.theorem2 import schedule_from_multi_tiling
from repro.engine.collisions import EngineDegradedWarning
from repro.engine.config import EngineConfig, use_config
from repro.engine.encode import PointBatch
from repro.engine.slots import CosetTable
from repro.faults.injection import use_plan
from repro.faults.plan import FaultPlan
from repro.lattice.sublattice import Sublattice, diagonal_sublattice
from repro.tiles.shapes import GALLERY, chebyshev_ball, rectangle_tile
from repro.tiling.construct import (
    alternating_column_tiling,
    figure5_mixed_tiling,
)
from repro.tiling.lattice_tiling import LatticeTiling
from repro.tiling.multi import MultiTiling
from repro.utils.vectors import box_points
from tests.properties.strategies import transversal_prototiles

SETTINGS = dict(max_examples=40, deadline=None)

#: Exact gallery tiles; their periods include non-diagonal HNF bases.
_TILES = ("chebyshev-1", "plus", "antenna", "domino", "rect-2x3", "I",
          "O", "S", "Z", "L", "T")


def _city() -> MultiTiling:
    """2x2 tiles and 1x2 columns on a ``[4, 2]`` period."""
    return MultiTiling([rectangle_tile(2, 2), rectangle_tile(1, 2)],
                       [[(0, 0)], [(2, 0), (3, 0)]],
                       diagonal_sublattice((4, 2)))


def _schedule(name: str):
    """A Theorem 1/2 schedule by name (built once per name)."""
    if name not in _SCHEDULES:
        if name == "city":
            built = schedule_from_multi_tiling(_city())
        elif name == "columns":
            built = schedule_from_multi_tiling(
                alternating_column_tiling("SZ"))
        elif name == "figure5":
            built = schedule_from_multi_tiling(figure5_mixed_tiling())
        elif name == "cube":
            built = Session.for_chebyshev(1, 3).schedule
        elif name == "line":
            built = Session.for_chebyshev(2, 1).schedule
        else:
            built = schedule_from_prototile(GALLERY[name])
        _SCHEDULES[name] = built
    return _SCHEDULES[name]


_SCHEDULES: dict = {}

#: The 3-D Chebyshev radius-1 period: diagonal ``[1, 1, 27]``.
_CUBE_PERIOD = Sublattice([(1, 0, 3), (0, 1, 9), (0, 0, 27)])


@contextlib.contextmanager
def _planned_slabs():
    """Count the slabs the slab plan scans."""
    calls = []
    original = certify_module._SlabPlan.collisions

    def counted(self, *args):
        calls.append(args)
        return original(self, *args)

    certify_module._SlabPlan.collisions = counted
    try:
        yield calls
    finally:
        certify_module._SlabPlan.collisions = original


@st.composite
def hnf_sublattices(draw):
    """A random 1-3-D sublattice of small index, often non-diagonal."""
    dimension = draw(st.integers(1, 3))
    diagonal = [draw(st.integers(1, 5)) for _ in range(dimension)]
    generators = []
    for i in range(dimension):
        column = [0] * dimension
        column[i] = diagonal[i]
        for k in range(i + 1, dimension):
            column[k] = draw(st.integers(-6, 6))
        generators.append(column)
    return Sublattice(generators)


@st.composite
def boxes(draw, dimension, spread=50, max_extent=7):
    lo = tuple(draw(st.integers(-spread, spread)) for _ in range(dimension))
    hi = tuple(low + draw(st.integers(0, max_extent - 1)) for low in lo)
    return lo, hi


class TestBoxKernel:
    @given(st.just(_CUBE_PERIOD) | hnf_sublattices(), st.data())
    @settings(**SETTINGS)
    def test_box_kernel_equals_the_batch_lookup(self, sublattice, data):
        rng = random.Random(data.draw(st.integers(0, 2**32)))
        table = CosetTable(sublattice, {
            r: rng.randrange(-3, 10)
            for r in sublattice.coset_representatives()})
        lo, hi = data.draw(boxes(sublattice.dimension))
        dims = tuple(h - l + 1 for l, h in zip(lo, hi))
        want = table.lookup_array(PointBatch.box(lo, hi))
        keys = table.box_keys(lo, dims)
        assert keys.shape == dims
        assert table.key_values[keys].ravel().tolist() == want.tolist()


class TestStreamedEqualsOneShot:
    @given(st.sampled_from(_TILES + ("city", "columns", "figure5",
                                     "cube", "line")),
           st.data())
    @settings(**SETTINGS)
    def test_any_chunk_any_box(self, name, data):
        schedule = _schedule(name)
        dimension = {"cube": 3, "line": 1}.get(name, 2)
        # Extents of 1 and 2 are narrower than most conflict radii.
        lo, hi = data.draw(boxes(dimension, spread=20,
                                 max_extent=5 if name == "cube" else 12))
        volume = 1
        for l, h in zip(lo, hi):
            volume *= h - l + 1
        chunk = data.draw(st.sampled_from([1, volume])
                          | st.integers(1, volume))
        want = find_collisions(schedule, list(box_points(lo, hi)),
                               schedule.neighborhood_of)
        with _planned_slabs() as slabs:
            got = stream_box_collisions(schedule, lo, hi,
                                        schedule.neighborhood_of,
                                        chunk_points=chunk)
        assert got == want == []
        assert slabs  # the plan ran, slab by slab

    @given(st.sampled_from(["chebyshev-1", "S", "city"]),
           st.sampled_from([1, -1]), st.integers(1, 40))
    @settings(max_examples=10, deadline=None)
    def test_boxes_past_the_bound_stream_without_a_plan(self, name, sign,
                                                        chunk):
        schedule = _schedule(name)
        edge = sign * slots_module._MAX_COORD
        lo, hi = (edge - 3, -2), (edge + 4, 5)
        want = find_collisions(schedule, list(box_points(lo, hi)),
                               schedule.neighborhood_of)
        exact_calls = []
        original = CosetTable._lookup_exact

        def counted(self, points):
            exact_calls.append(len(points))
            return original(self, points)

        CosetTable._lookup_exact = counted
        try:
            with _planned_slabs() as slabs:
                got = stream_box_collisions(schedule, lo, hi,
                                            schedule.neighborhood_of,
                                            chunk_points=chunk)
        finally:
            CosetTable._lookup_exact = original
        assert got == want
        # no plan: each slab's slots came from the exact lookup
        assert not slabs and exact_calls

    @given(transversal_prototiles(max_index=8), st.data())
    @settings(max_examples=25, deadline=None)
    def test_random_lattice_tilings(self, tile_and_period, data):
        prototile, period = tile_and_period
        schedule = schedule_from_tiling(LatticeTiling(prototile, period))
        lo, hi = data.draw(boxes(2, spread=30, max_extent=10))
        chunk = data.draw(st.integers(1, 40))
        want = find_collisions(schedule, list(box_points(lo, hi)),
                               schedule.neighborhood_of)
        assert stream_box_collisions(schedule, lo, hi,
                                     schedule.neighborhood_of,
                                     chunk_points=chunk) == want


class TestCollidingStreams:
    """Schedules verified under an interference map that is too wide."""

    @given(st.sampled_from([
               ("chebyshev-1", "big-ball"), ("domino", "chebyshev-1"),
               ("S", "columns"), ("T", "city"), ("columns", "city"),
               ("city", "columns"), ("cube", "big-cube")]),
           st.data())
    @settings(**SETTINGS)
    def test_streamed_collisions_match(self, pair, data):
        name, wider = pair
        schedule = _schedule(name)
        if wider == "big-ball":
            interference = schedule_from_prototile(chebyshev_ball(2))
        elif wider == "big-cube":
            interference = schedule_from_prototile(chebyshev_ball(2, 3))
        else:
            interference = _schedule(wider)
        neighborhood_of = interference.neighborhood_of
        tiles = (interference.multi.prototiles
                 if hasattr(interference, "multi")
                 else [interference.prototile])
        offsets = sorted(conflict_offsets(tiles))
        dimension = 3 if name == "cube" else 2
        lo, hi = data.draw(boxes(dimension, spread=20,
                                 max_extent=5 if name == "cube" else 10))
        chunk = data.draw(st.integers(1, 60))
        want = find_collisions(schedule, list(box_points(lo, hi)),
                               neighborhood_of, offsets=offsets)
        with _planned_slabs() as slabs:
            got = stream_box_collisions(schedule, lo, hi, neighborhood_of,
                                        offsets=offsets, chunk_points=chunk)
        assert got == want
        assert slabs

    def test_a_colliding_stream_really_collides(self):
        schedule = _schedule("chebyshev-1")
        wider = schedule_from_prototile(chebyshev_ball(2))
        offsets = sorted(conflict_offsets([wider.prototile]))
        got = stream_box_collisions(schedule, (-4, -5), (9, 7),
                                    wider.neighborhood_of, offsets=offsets,
                                    chunk_points=20)
        assert got
        assert got == find_collisions(
            schedule, list(box_points((-4, -5), (9, 7))),
            wider.neighborhood_of, offsets=offsets)

    def test_sharded_passes_are_bit_identical(self):
        schedule = _schedule("cube")
        wider = schedule_from_prototile(chebyshev_ball(2, 3))
        offsets = sorted(conflict_offsets([wider.prototile]))
        lo, hi = (-3, 0, 0), (12, 9, 9)
        serial = stream_box_collisions(schedule, lo, hi,
                                       wider.neighborhood_of,
                                       offsets=offsets, chunk_points=800)
        with use_config(EngineConfig(workers=2)):
            sharded = stream_box_collisions(schedule, lo, hi,
                                            wider.neighborhood_of,
                                            offsets=offsets,
                                            chunk_points=800)
        assert serial and sharded == serial


class TestArmedFaults:
    @given(st.sampled_from(["chebyshev-1", "city", "cube"]),
           st.integers(1, 6), st.integers(1, 80))
    @settings(max_examples=25, deadline=None)
    def test_numpy_failures_degrade_each_hit_slab(self, name, failures,
                                                  chunk):
        schedule = _schedule(name)
        if name == "cube":
            lo, hi = (0, -2, 1), (6, 3, 4)
            wider = schedule_from_prototile(chebyshev_ball(2, 3))
        else:
            lo, hi = (-3, -2), (9, 8)
            wider = schedule_from_prototile(chebyshev_ball(2))
        offsets = sorted(conflict_offsets([wider.prototile]))
        want = stream_box_collisions(schedule, lo, hi,
                                     wider.neighborhood_of,
                                     offsets=offsets, chunk_points=chunk)
        with _planned_slabs() as slabs, \
                use_plan(FaultPlan(numpy_failures=failures)), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", EngineDegradedWarning)
            got = stream_box_collisions(schedule, lo, hi,
                                        wider.neighborhood_of,
                                        offsets=offsets, chunk_points=chunk)
        degraded = [w.message for w in caught
                    if isinstance(w.message, EngineDegradedWarning)]
        assert got == want
        assert want  # a colliding stream: the exact path finds pairs
        assert [w.kernel for w in degraded] \
            == ["scan_collisions"] * min(failures, len(slabs))
