"""Property-based tests: the stencil scan resolves every pair exactly.

The stencil scan (:class:`~repro.engine.collisions.StencilPlan`) finds
the equal-slot hits of a block of offset passes with one
``flatnonzero``, tests the shape pairs of all of them with one gather
and resolves every pair's two ends with one ``unravel_index``.  These
properties plant windows whose slots repeat often, so hits land on
many offsets at once, and hold the dense scan to the exact scan
(:func:`~repro.engine.collisions.scan_collisions_touching` over the
box's points, every point touched) pair for pair:

* one shape class and several, in 1-3 dimensions, with negative slots
  and corners, and with explicit offsets too long for the box;
* a grid of at least ``_MIN_PARALLEL_GRID`` cells under two workers,
  so the passes are sharded and the shards' hits merged.
"""

from __future__ import annotations

import contextlib
import itertools
import random
import warnings

from hypothesis import given, settings
from hypothesis import strategies as st

import repro.engine.collisions as collisions_module
from repro.engine.collisions import (
    EngineDegradedWarning,
    scan_collisions,
    scan_collisions_touching,
)
from repro.engine.config import EngineConfig, use_config
from repro.engine.encode import PointBatch, PointIndex

SETTINGS = dict(max_examples=60, deadline=None)


@contextlib.contextmanager
def _dense_scans():
    """Count the calls that took the stencil path; a degraded scan is
    an error."""
    calls = []
    original = collisions_module._scan_dense

    def counted(*args):
        calls.append(args[0])
        return original(*args)

    collisions_module._scan_dense = counted
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", EngineDegradedWarning)
            yield calls
    finally:
        collisions_module._scan_dense = original


def _shape(rng: random.Random, dimension: int) -> frozenset:
    """A random set of at least two cells near the origin."""
    cube = list(itertools.product(range(-1, 2), repeat=dimension))
    return frozenset(rng.sample(cube, rng.randint(2, len(cube))))


def _offsets(shapes) -> list:
    """Every nonzero difference ``S_a - S_b``: the offsets at which two
    of these shapes can meet."""
    differences = {tuple(p - q for p, q in zip(a, b))
                   for first in shapes for second in shapes
                   for a in first for b in second}
    return sorted(differences - {(0,) * len(next(iter(differences)))})


@st.composite
def planted_windows(draw, max_shapes):
    """A box, its slots and shape ids, the shapes and their offsets.

    Slots come from a few values, so most offsets see equal-slot hits.
    """
    dimension = draw(st.integers(1, 3))
    extent = {1: 40, 2: 12, 3: 6}[dimension]
    dims = [draw(st.integers(1, extent)) for _ in range(dimension)]
    lo = tuple(draw(st.integers(-30, 30)) for _ in range(dimension))
    hi = tuple(low + n - 1 for low, n in zip(lo, dims))
    rng = random.Random(draw(st.integers(0, 2**32)))
    shapes = [_shape(rng, dimension)
              for _ in range(draw(st.integers(1, max_shapes)))]
    offsets = _offsets(shapes)
    if draw(st.booleans()):  # offsets no pair of the box can span
        offsets.append((dims[0] + 3,) + (0,) * (dimension - 1))
    size = 1
    for n in dims:
        size *= n
    values = draw(st.integers(1, 4))
    base = draw(st.integers(-5, 5))
    slots = [base + rng.randrange(values) for _ in range(size)]
    shape_ids = [rng.randrange(len(shapes)) for _ in range(size)]
    return (lo, hi), slots, shape_ids, shapes, offsets


def _exact(box, slots, shape_ids, shapes, offsets):
    points = PointBatch.box(*box).points
    return scan_collisions_touching(PointIndex(points), slots, shape_ids,
                                    shapes, offsets, points)


class TestStencilPairs:
    @given(planted_windows(max_shapes=1))
    @settings(**SETTINGS)
    def test_one_shape_class(self, window):
        box, slots, shape_ids, shapes, offsets = window
        with _dense_scans() as dense:
            got = scan_collisions(PointBatch.box(*box), slots, shape_ids,
                                  shapes, offsets)
        assert dense
        assert got == _exact(box, slots, shape_ids, shapes, offsets)

    @given(planted_windows(max_shapes=5))
    @settings(**SETTINGS)
    def test_several_shape_classes(self, window):
        box, slots, shape_ids, shapes, offsets = window
        with _dense_scans() as dense:
            got = scan_collisions(PointBatch.box(*box), slots, shape_ids,
                                  shapes, offsets)
        assert dense
        assert got == _exact(box, slots, shape_ids, shapes, offsets)

    def test_sharded_grid_merges_every_pair(self):
        """256 x 256 cells, three shape classes: with two workers the
        passes shard and the shards' hits are joined before the pairs
        are resolved."""
        side = 256
        assert side * side >= collisions_module._MIN_PARALLEL_GRID
        rng = random.Random(34)
        shapes = [_shape(rng, 2) for _ in range(3)]
        offsets = _offsets(shapes)
        box = ((-100, 7), (-100 + side - 1, 7 + side - 1))
        slots = [rng.randrange(16) for _ in range(side * side)]
        shape_ids = [rng.randrange(3) for _ in range(side * side)]
        batch = PointBatch.box(*box)
        shards = []
        original = collisions_module.run_sharded

        def counted(kernel, payload, spans, workers=None):
            shards.append(len(spans))
            return original(kernel, payload, spans, workers)

        collisions_module.run_sharded = counted
        try:
            with _dense_scans() as dense, \
                    use_config(EngineConfig(workers=2)):
                sharded = scan_collisions(batch, slots, shape_ids, shapes,
                                          offsets)
        finally:
            collisions_module.run_sharded = original
        assert dense and shards == [2]
        with _dense_scans(), use_config(EngineConfig(workers=1)):
            serial = scan_collisions(batch, slots, shape_ids, shapes,
                                     offsets)
        exact = _exact(box, slots, shape_ids, shapes, offsets)
        assert exact  # thousands of planted pairs on many offsets
        assert len({(y[0] - x[0], y[1] - x[1]) for x, y in exact}) > 4
        assert sharded == serial == exact
