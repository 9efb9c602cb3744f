"""Property-based tests: a window's collisions do not depend on its form.

The engine chooses its scan from the window it is handed: a dense batch
(a ``Box``, or any point list that fills its bounding box exactly once)
takes the stencil scan, any other list the sorted-key scan, and a
degraded kernel the exact scan.  For random 1-3-D boxes, random slot
maps and one to three interference shape classes, every form of the
same window must give the brute-force reference answer:

* the ``Box`` itself, as a dense batch;
* the same points shuffled, as tuples (dense, out of order);
* a sparse subset, checked against its own reference;
* the box streamed in axis-0 slabs of a random size.
"""

from __future__ import annotations

import contextlib
import itertools
import random
import tracemalloc
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.engine.collisions as collisions_module
from repro.api import Box
from repro.core.certify import stream_box_collisions
from repro.core.schedule import MappingSchedule, find_collisions
from repro.core.theorem2 import schedule_from_multi_tiling
from repro.engine.collisions import EngineDegradedWarning
from repro.engine.encode import PointBatch
from repro.faults.injection import use_plan
from repro.faults.plan import FaultPlan
from repro.scenarios.reference import reference_collisions
from repro.tiling.construct import (
    alternating_column_tiling,
    figure5_mixed_tiling,
)
from repro.utils.vectors import box_points, vadd, vsub

SETTINGS = dict(max_examples=40, deadline=None)

#: Largest box extent per axis, by dimension (keeps the reference fast).
_MAX_EXTENT = {1: 24, 2: 9, 3: 5}


@st.composite
def windows(draw):
    """A random box, slot map and shape classes over it.

    Returns ``(box, schedule, neighborhood_of, offsets, seed)``.  Each
    point's shape class is drawn at random, so the interference map is
    an arbitrary callable and the shapes are classified point by point.
    """
    dimension = draw(st.integers(1, 3))
    lo = tuple(draw(st.integers(-6, 6)) for _ in range(dimension))
    extent = _MAX_EXTENT[dimension]
    hi = tuple(l + draw(st.integers(0, extent - 1)) for l in lo)
    seed = draw(st.integers(0, 2**32))
    rng = random.Random(seed)
    cube = list(itertools.product(range(-1, 2), repeat=dimension))
    shapes = [frozenset(rng.sample(cube, rng.randint(1, len(cube))))
              for _ in range(draw(st.integers(1, 3)))]
    points = list(box_points(lo, hi))
    num_slots = draw(st.integers(1, 4))
    schedule = MappingSchedule({p: rng.randrange(num_slots)
                                for p in points})
    shape_of = {p: shapes[rng.randrange(len(shapes))] for p in points}

    def neighborhood_of(point):
        return frozenset(vadd(point, cell) for cell in shape_of[point])

    zero = (0,) * dimension
    offsets = sorted({vsub(p, q) for a in shapes for b in shapes
                      for p in a for q in b} - {zero})
    return Box(lo, hi), schedule, neighborhood_of, offsets, seed


@contextlib.contextmanager
def counting(name):
    """Count the calls of one scan path of the collisions module."""
    calls = []
    original = getattr(collisions_module, name)

    def counted(*args):
        calls.append(name)
        return original(*args)

    setattr(collisions_module, name, counted)
    try:
        yield calls
    finally:
        setattr(collisions_module, name, original)


class TestEveryFormOfAWindowAgrees:
    @given(windows())
    @settings(**SETTINGS)
    def test_box_shuffled_sparse_and_streamed(self, window):
        box, schedule, neighborhood_of, offsets, seed = window
        points = box.points()
        want = reference_collisions(points, schedule.slot_of,
                                    neighborhood_of)
        scans = bool(_positive_reach(neighborhood_of, points))

        with counting("_scan_dense") as dense:
            assert find_collisions(schedule, box.batch(),
                                   neighborhood_of) == want
        assert bool(dense) == scans

        rng = random.Random(seed)
        shuffled = list(points)
        rng.shuffle(shuffled)
        with counting("_scan_dense") as dense:
            assert find_collisions(schedule, shuffled,
                                   neighborhood_of) == want
        assert bool(dense) == scans

        subset = [p for p in points if rng.random() < 0.6]
        with counting("_scan_sorted") as sorted_key:
            got = find_collisions(schedule, subset, neighborhood_of)
        assert got == reference_collisions(subset, schedule.slot_of,
                                           neighborhood_of)
        if not PointBatch.of(subset).dense \
                and _positive_reach(neighborhood_of, subset):
            assert sorted_key

        if offsets:
            chunk = rng.randint(1, box.volume())
            assert stream_box_collisions(
                schedule, box.lo, box.hi, neighborhood_of,
                offsets=offsets, chunk_points=chunk) == want


class TestTheorem2ShapeClasses:
    """Shape ids from the cover coset table, on remapped slots."""

    @given(st.sampled_from(["columns", "figure5"]),
           st.integers(-20, 20), st.integers(-20, 20),
           st.integers(1, 9), st.integers(1, 9), st.integers(0, 2**32))
    @settings(**SETTINGS)
    def test_remapped_multi_tiling_windows(self, name, x, y, width,
                                           height, seed):
        multi = (alternating_column_tiling("SZ") if name == "columns"
                 else figure5_mixed_tiling())
        rng = random.Random(seed)
        # Merging slot values (negative ones included) manufactures
        # collisions while the shape classes stay the tiling's own.
        schedule = _Remapped(schedule_from_multi_tiling(multi), rng)
        box = Box((x, y), (x + width, y + height))
        want = reference_collisions(box.points(), schedule.slot_of,
                                    multi.neighborhood_of)
        assert find_collisions(schedule, box.batch(),
                               multi.neighborhood_of) == want
        assert stream_box_collisions(
            schedule, box.lo, box.hi, multi.neighborhood_of,
            offsets=sorted({vsub(p, q) for a in multi.prototiles
                            for b in multi.prototiles for p in a.cells
                            for q in b.cells} - {(0, 0)}),
            chunk_points=rng.randint(1, box.volume())) == want


class _Remapped:
    """A Theorem 2 schedule with its slot values merged at random."""

    def __init__(self, base, rng):
        self._base = base
        self._table = [rng.randint(-2, 2) for _ in range(base.num_slots)]
        self.num_slots = base.num_slots

    def slot_of(self, point):
        return self._table[self._base.slot_of(point)]

    def slots_of(self, points):
        return [self._table[s] for s in self._base.slots_of(points)]


class TestDegradedBox:
    @given(windows())
    @settings(max_examples=15, deadline=None)
    def test_armed_kernel_failure_answers_the_reference(self, window):
        box, schedule, neighborhood_of, _, _ = window
        want = reference_collisions(box.points(), schedule.slot_of,
                                    neighborhood_of)
        with use_plan(FaultPlan(numpy_failures=1)), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", EngineDegradedWarning)
            got = find_collisions(schedule, box.batch(), neighborhood_of)
        degraded = [w.message for w in caught
                    if isinstance(w.message, EngineDegradedWarning)]
        if _positive_reach(neighborhood_of, box.points()):
            assert [w.kernel for w in degraded] == ["scan_collisions"]
        assert got == want


def _positive_reach(neighborhood_of, points):
    """The positive offsets ``find_collisions`` derives for a window."""
    shapes = {frozenset(vsub(c, point) for c in neighborhood_of(point))
              for point in points}
    zero = (0,) * len(points[0]) if points else ()
    shapes = [shape | {zero} for shape in shapes]
    return {d for a in shapes for b in shapes for p in a for q in b
            if (d := vsub(p, q)) > zero}


def test_box_window_degrades_with_a_typed_warning():
    """One armed kernel failure on a ``Box`` window."""
    points = list(box_points((0, 0), (8, 8)))
    rng = random.Random(3)
    schedule = MappingSchedule({p: rng.randrange(4) for p in points})
    cube = list(itertools.product(range(-1, 2), repeat=2))

    def neighborhood_of(point):
        return frozenset(vadd(point, cell) for cell in cube)

    want = reference_collisions(points, schedule.slot_of, neighborhood_of)
    assert want
    with use_plan(FaultPlan(numpy_failures=1)):
        with pytest.warns(EngineDegradedWarning) as record:
            got = find_collisions(schedule, Box((0, 0), (8, 8)).batch(),
                                  neighborhood_of)
    assert [w.message.kernel for w in record] == ["scan_collisions"]
    assert got == want


@pytest.mark.parametrize("far", [(0, 2**16), (2**16, -3), (0, 2**70),
                                 (1, -2**63)])
def test_far_offset_costs_no_grid_memory(far):
    """A conflict offset longer than the box pads nothing, degrades nothing.

    Interference shapes (and explicit offsets) can come from a peer, so
    a shape cell far from its sensor must neither size the stencil grid
    nor turn a sound call into a degraded one.
    """
    box = Box((0, 0), (9, 9))
    rng = random.Random(5)
    schedule = MappingSchedule({p: rng.randrange(3) for p in box.points()})
    cube = list(itertools.product(range(-1, 2), repeat=2))

    def near_of(point):
        return frozenset(vadd(point, cell) for cell in cube)

    def neighborhood_of(point):
        return near_of(point) | {vadd(point, far)}

    # No two box points are a far offset apart: only the cube collides.
    want = reference_collisions(box.points(), schedule.slot_of, near_of)
    assert want
    tracemalloc.start()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", EngineDegradedWarning)
            got = find_collisions(schedule, box.batch(), neighborhood_of)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == want
    assert peak < 2**20
