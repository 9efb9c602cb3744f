"""One point intake: :meth:`PointBatch.of` takes exactly what
``as_intvec`` takes.

``PointBatch.of`` converts a point collection in one typed fill and
sends whatever that fill refuses through ``as_intvec`` point by point.
Three contracts, over point lists mixing every kind of coordinate
(ints, booleans, numpy integers and booleans, integral and
non-integral floats, strings, ``None``, values past int64; ragged and
empty points):

* **same rule** — a list is accepted exactly when
  ``[as_intvec(p) for p in points]`` accepts it and its points agree in
  dimension, with the same coordinates; otherwise the same exception
  type is raised;
* **the wire** — an assign request decodes exactly when ``as_intvec``
  accepts every coordinate, into those coordinates, and is a
  :class:`TransportError` otherwise (points of differing dimensions
  are left for the session to refuse);
* **no object per point** — converting a 158 x 158 tuple grid keeps
  no more than a handful of GC-tracked objects alive at once (a
  transposition through ``zip(*points)`` would keep one iterator per
  point).
"""

from __future__ import annotations

import gc

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.engine.encode import PointBatch
from repro.service.transport import TransportError, decode_request
from repro.utils.vectors import as_intvec

SETTINGS = dict(max_examples=300, deadline=None)

#: Plain ints near 0 and 1, where a boolean reads the same as an int.
near_bits = st.integers(-2, 3)
past_int64 = st.integers(2 ** 63, 2 ** 70) | st.integers(-2 ** 70,
                                                        -2 ** 63 - 1)
json_coordinates = st.one_of(
    near_bits, near_bits, near_bits,
    st.integers(-2 ** 63, 2 ** 63 - 1),
    past_int64,
    st.booleans(),
    st.integers(-4, 4).map(float),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=2),
    st.none())
coordinates = json_coordinates | st.one_of(
    st.integers(-4, 4).map(np.int64),
    st.integers(0, 2 ** 64 - 1).map(np.uint64),
    st.integers(-4, 4).map(np.int8),
    st.booleans().map(np.bool_))


def _point_lists(coordinate):
    """Point lists of one dimension, a point now and then of another;
    lists long enough to cross the fill's 64-coordinate type scan."""
    def points(dimension):
        point = st.lists(coordinate, min_size=dimension,
                         max_size=dimension)
        ragged = st.lists(coordinate, max_size=3)
        return st.lists(point | point | point | ragged, max_size=48)
    return st.integers(0, 3).flatmap(points)


def _containers(point_lists):
    """Each point as a tuple or as a list."""
    return point_lists.flatmap(lambda points: st.tuples(*[
        st.sampled_from([tuple(point), list(point)]) for point in points
    ]).map(list))


def _by_as_intvec(points):
    """The points as ``as_intvec`` reads them, or the exception type
    the reading raises."""
    try:
        tuples = [as_intvec(point) for point in points]
    except TypeError:
        return TypeError
    lengths = set(map(len, tuples))
    if len(lengths) > 1 or 0 in lengths:
        return ValueError
    return tuples


#: 40 points of bits with one boolean: the numpy side of the check.
_BITS_WITH_BOOL = [(0, 1)] * 39 + [(1, True)]


@settings(**SETTINGS)
@given(_containers(_point_lists(coordinates)))
@example(_BITS_WITH_BOOL)
@example([(0, 1)] * 40)
@example([(1, np.bool_(False))])
@example([(2 ** 63, 0), (0, 0)])
@example([(1, 2), (3, 4, 5), (6,)])
@example([(), ()])
@example([{5: 1, 0: 3}] * 20)  # a 0 read back by index would be a KeyError
@example([{True: 0, 0: 0}] * 20)  # ... or the value under the key 1
def test_the_batch_takes_what_as_intvec_takes(points):
    want = _by_as_intvec(points)
    try:
        batch = PointBatch.of(points)
    except (TypeError, ValueError) as error:
        assert type(error) is want
        return
    assert batch.points == want
    assert len(batch) == len(want)
    if batch.array is not None:
        assert batch.array.tolist() == [list(point) for point in want]


@settings(**SETTINGS)
@given(_point_lists(json_coordinates))
@example([[0, 1]] * 39 + [[1, True]])
@example([[1.0, 2], [3, 4]])
@example([[1, 2], [3, 4, 5]])
def test_a_wire_assign_decodes_what_as_intvec_takes(points):
    want = _by_as_intvec(points)
    frame = {"op": "assign", "session_id": "s",
             "payload": {"points": points}}
    try:
        decoded = decode_request(frame)["payload"]["points"]
    except TransportError:
        assert want is TypeError
        return
    assert want is not TypeError
    assert list(decoded) == [as_intvec(point) for point in points]


def test_the_typed_fill_keeps_no_object_per_point():
    points = [(x, y) for x in range(158) for y in range(158)]
    PointBatch.of(points)  # warm the packer
    gc.collect()
    gc.disable()
    try:
        before = gc.get_count()[0]
        PointBatch.of(points)
        grown = gc.get_count()[0] - before
    finally:
        gc.enable()
    assert grown < 100
    # Freed objects count back down, so the count above only shows what
    # the call kept.  What it held at once shows as young collections:
    # with a threshold of 100, one for every 100 tracked objects alive.
    collections = []

    def count(phase, info):
        if phase == "start":
            collections.append(info["generation"])

    threshold = gc.get_threshold()
    gc.collect()
    gc.set_threshold(100)
    gc.callbacks.append(count)
    try:
        PointBatch.of(points)
    finally:
        gc.callbacks.remove(count)
        gc.set_threshold(*threshold)
    assert len(collections) < 10
