"""Validated point windows and injective integer keys for them.

A :class:`PointBatch` is the one form in which a window of lattice
points enters the engine: an ``(n, d)`` int64 array, its tight bounding
box, and a ``dense`` flag that says the points fill that box exactly
once.  Inputs are validated once, when the batch is built, under
:func:`~repro.utils.vectors.as_intvec`'s rule; every kernel downstream
takes the batch as it is.

A :class:`BoxEncoder` maps every point of the axis-aligned bounding box of
a window to ``sum((x[i] - lo[i]) * stride[i])`` with row-major strides.
Two properties make this the engine's workhorse:

* the map is a bijection between the box and ``range(box volume)``, so a
  sorted key array plus binary search replaces hash-set membership; and
* key order equals lexicographic point order inside the box, so the
  ``y > x`` deduplication of collision pairs becomes a comparison of keys
  (and a candidate offset ``delta`` contributes pairs at all iff
  ``delta`` is lexicographically positive).
"""

from __future__ import annotations

import functools
import math
import struct
from collections.abc import Callable, Iterable, Iterator, Sequence
from itertools import chain, starmap

import numpy as np

from repro.utils.vectors import IntVec, as_intvec, bounding_box, box_points

__all__ = ["BoxEncoder", "PointBatch"]

# Keys are kept below 2**62 so the numpy path can use int64 arithmetic
# without overflow; windows larger than that fall back to tuple hashing.
_MAX_VOLUME = 2 ** 62

# Coordinates beyond int64 keep no array: the batch then carries only its
# tuples.  Below int64 but at or beyond this bound, the array is kept but
# the grid and key kernels decline it (no headroom for offsets and keys).
_MAX_KEYED_COORD = 2 ** 62


class PointBatch:
    """One validated window of lattice points.

    Build it with :meth:`of` (any point collection, validated) or
    :meth:`box` (every point of a closed box, no validation needed).
    The bounding box and the dense flag are derived on first use, so a
    batch that only feeds a slot lookup never pays for them.

    Attributes:
        array: ``(n, d)`` int64 coordinates, or ``None`` when some
            coordinate lies beyond int64 reach (the batch then serves
            its points as tuples only).
        magnitude: the largest absolute coordinate (0 when empty).
        keyed: True when int64 keys and offsets cannot overflow on this
            batch (``|x| < 2**62``) — the condition of the grid and
            sorted-key kernels.
        lo, hi: corners of the tight bounding box (``()`` when empty).
        dense: True when the points fill their bounding box exactly
            once — ``n`` equals the box volume and no point repeats —
            in any order.  Dense batches can be laid out on the box
            grid (:meth:`on_grid`).
    """

    __slots__ = ("array", "_points", "_box", "_dense", "_grid_index",
                 "_magnitude")

    def __init__(self, array: np.ndarray | None,
                 points: list[IntVec] | None = None, *,
                 box: tuple[IntVec, IntVec] | None = None,
                 dense: bool | None = None) -> None:
        self.array = array
        self._points = points
        self._box = box
        self._dense = dense
        #: Box-grid position of each point; ``None`` for row-major order.
        self._grid_index: np.ndarray | None = None
        self._magnitude: int | None = None

    # -- construction --------------------------------------------------
    @classmethod
    def box(cls, lo: Sequence[int], hi: Sequence[int]) -> PointBatch:
        """Every point of the closed box ``[lo, hi]``, in row-major order.

        Raises:
            ValueError: when the corners differ in dimension or
                ``lo > hi`` on some axis.
        """
        lo_vec, hi_vec = as_intvec(lo), as_intvec(hi)
        if not lo_vec or len(lo_vec) != len(hi_vec) \
                or any(l > h for l, h in zip(lo_vec, hi_vec)):
            raise ValueError(
                f"box corners must satisfy lo <= hi per dimension; got "
                f"lo={lo_vec}, hi={hi_vec}")
        if max(map(abs, lo_vec + hi_vec)) >= _MAX_KEYED_COORD:
            return cls(None, list(box_points(lo_vec, hi_vec)),
                       box=(lo_vec, hi_vec), dense=False)
        dims = tuple(h - l + 1 for l, h in zip(lo_vec, hi_vec))
        grid = np.indices(dims, dtype=np.int64).reshape(len(dims), -1)
        grid += np.asarray(lo_vec, dtype=np.int64)[:, None]
        return cls(grid.T, box=(lo_vec, hi_vec), dense=True)

    @classmethod
    def of(cls, points: Iterable[Sequence[int]] | np.ndarray) -> PointBatch:
        """Validate a point collection once.

        Accepts a batch (returned as is), an ``(n, d)`` numpy array of
        integers or integral floats, or any iterable of coordinate
        sequences.  Coordinates follow
        :func:`~repro.utils.vectors.as_intvec`: ints, numpy integers
        and integral floats are accepted exactly.

        Points of plain ints take one typed fill (:func:`_typed_fill`,
        which also reads a 0-d integer array through ``__index__``);
        whatever that fill refuses goes point by point through
        ``as_intvec``, which converts what its rule accepts and words
        the refusal of the rest.

        Raises:
            TypeError: for a boolean, non-integral or non-numeric
                coordinate.
            ValueError: when the points differ in dimension.
        """
        if isinstance(points, PointBatch):
            return points
        if isinstance(points, np.ndarray):
            return cls._of_array(points)
        items = points if isinstance(points, (list, tuple)) \
            else list(points)
        if not items:
            return cls(np.empty((0, 0), dtype=np.int64), [])
        array = _typed_fill(items)
        if array is not None:
            return cls(array)
        # A bare array conversion would truncate 1.5 to 1 and parse "1"
        # as 1: the refused points go through as_intvec one by one.
        tuples = [as_intvec(p) for p in items]
        lengths = set(map(len, tuples))
        if len(lengths) != 1:
            raise ValueError("points have mismatched dimensions")
        if 0 in lengths:
            raise ValueError("points need at least one coordinate")
        flat = list(chain.from_iterable(tuples))
        try:
            array = np.fromiter(flat, dtype=np.int64, count=len(flat))
        except OverflowError:
            return cls(None, tuples, dense=False)
        return cls(array.reshape(len(tuples), -1), tuples)

    @classmethod
    def concat(cls, batches: Sequence[PointBatch]) -> PointBatch:
        """Every point of ``batches``, in order, as one batch.

        The arrays are joined as they are; batches without one (beyond
        int64) or of differing dimensions go through :meth:`of`.
        """
        arrays = [batch.array for batch in batches if len(batch)]
        if not arrays:
            return cls.of([])
        if all(array is not None and array.shape[1] == arrays[0].shape[1]
               for array in arrays):
            return cls(np.concatenate(arrays))
        return cls.of([point for batch in batches for point in batch])

    @classmethod
    def _of_array(cls, array: np.ndarray) -> PointBatch:
        if array.ndim != 2:
            if array.size == 0:
                return cls.of([])
            raise ValueError(
                f"a point array must have shape (n, d); got {array.shape}")
        kind = array.dtype.kind
        if kind == "b":
            raise TypeError("boolean is not a valid coordinate")
        if kind == "f":
            integral = np.isfinite(array) & (array == np.round(array))
            if not integral.all():
                bad = array[~integral][0]
                raise TypeError(f"coordinate is not an integer: {bad!r}")
        if len(array) == 0:
            return cls.of([])
        if array.shape[1] == 0:
            raise ValueError("points need at least one coordinate")
        if kind not in "iuf" or (kind != "i" and float(np.abs(array).max())
                                 >= 2 ** 63):
            return cls.of(array.tolist())
        return cls(array.astype(np.int64))

    # -- views ---------------------------------------------------------
    def __len__(self) -> int:
        if self.array is not None:
            return len(self.array)
        return len(self._points)

    def __iter__(self) -> Iterator[IntVec]:
        return iter(self.points)

    @property
    def points(self) -> list[IntVec]:
        """The points as integer tuples, in batch order (built once)."""
        if self._points is None:
            self._points = list(zip(*self.array.T.tolist()))
        return self._points

    @property
    def magnitude(self) -> int:
        if self._magnitude is None:
            if self.array is None:
                corners = self.lo + self.hi
            elif self.array.size:
                corners = (int(self.array.min()), int(self.array.max()))
            else:
                corners = ()
            self._magnitude = max(map(abs, corners), default=0)
        return self._magnitude

    @property
    def keyed(self) -> bool:
        return self.array is not None and self.magnitude < _MAX_KEYED_COORD

    @property
    def lo(self) -> IntVec:
        return self._bounds()[0]

    @property
    def hi(self) -> IntVec:
        return self._bounds()[1]

    @property
    def dimension(self) -> int:
        if self.array is not None:
            return self.array.shape[1]
        return len(self._points[0]) if self._points else 0

    @property
    def dims(self) -> tuple[int, ...]:
        """Extent of the bounding box along each axis."""
        return tuple(h - l + 1 for l, h in zip(self.lo, self.hi))

    def _bounds(self) -> tuple[IntVec, IntVec]:
        if self._box is None:
            if not len(self):
                self._box = ((), ())
            elif self.array is None:
                self._box = bounding_box(self._points)
            else:
                self._box = (tuple(self.array.min(axis=0).tolist()),
                             tuple(self.array.max(axis=0).tolist()))
        return self._box

    @property
    def dense(self) -> bool:
        if self._dense is None:
            self._dense = self._fills_box()
        return self._dense

    def _fills_box(self) -> bool:
        n = len(self)
        if not n or not self.keyed or n != math.prod(self.dims):
            return False
        keys = self.array[:, -1] - self.lo[-1]
        stride = 1
        for axis in range(self.dimension - 2, -1, -1):
            stride *= self.dims[axis + 1]
            keys += (self.array[:, axis] - self.lo[axis]) * stride
        if keys[0] == 0 and (np.diff(keys) == 1).all():
            return True  # row-major order
        seen = np.zeros(n, dtype=bool)
        seen[keys] = True
        if not seen.all():
            return False
        self._grid_index = keys
        return True

    @property
    def row_major(self) -> bool:
        """True for a dense batch whose order is the box's row-major
        order (as :meth:`box` builds it): point ``k`` then sits at flat
        grid position ``k``."""
        return self.dense and self._grid_index is None

    def on_grid(self, values: np.ndarray) -> np.ndarray:
        """Per-point ``values`` laid out on the box grid (dense only)."""
        if not self.dense:
            raise ValueError("only a dense batch has a box grid")
        if self._grid_index is None:
            return values.reshape(self.dims)
        grid = np.empty(len(values), dtype=values.dtype)
        grid[self._grid_index] = values
        return grid.reshape(self.dims)

    def __repr__(self) -> str:
        return f"PointBatch(n={len(self)}, lo={self.lo}, hi={self.hi})"


#: Up to this many coordinates, the boolean check of :func:`_typed_fill`
#: reads every coordinate's type; above it, only those that hold 0 or 1
#: (numpy's fixed cost per call outweighs a short scan).
_TYPE_SCAN_LIMIT = 16


@functools.cache
def _packer(dimension: int) -> Callable[..., bytes]:
    """Pack one point of ``dimension`` coordinates as native int64s."""
    return struct.Struct(f"{dimension}q").pack


def _typed_fill(items: Sequence[Sequence[int]]) -> np.ndarray | None:
    """``items`` as an ``(n, d)`` int64 array in one typed pass, or
    ``None`` when the fill refuses them.

    ``struct`` packs each point into one buffer: a point of another
    length than the first, a float, a string, ``None``, a ``numpy.bool_``
    or a value past int64 is refused there.  A ``bool`` packs as 0 or
    1, so only the coordinates holding those need their type read;
    such a coordinate is read back by index, which only a ``tuple`` or
    a ``list`` is sure to answer as its iteration did, so a 0 or 1 in
    any other kind of point sends the points to ``as_intvec``.
    The packer reads a non-``int`` through ``__index__``: a numpy
    integer is taken exactly, as ``as_intvec`` takes it, and so is an
    object that has ``__index__`` without being a ``numbers.Integral``
    (a 0-d integer array), which ``as_intvec`` refuses.
    """
    try:
        dimension = len(items[0])
        buffer = bytearray().join(starmap(_packer(dimension), items))
    except (struct.error, TypeError):
        return None
    if not dimension:
        return None
    array = np.ndarray((len(items), dimension), np.int64, buffer)
    if array.size <= _TYPE_SCAN_LIMIT:
        if bool in map(type, chain.from_iterable(items)):
            return None
    else:
        suspects = (array.reshape(-1).view(np.uint64) < 2).nonzero()[0]
        for k in suspects.tolist():
            point = items[k // dimension]
            if type(point) not in (tuple, list) \
                    or type(point[k % dimension]) is bool:
                return None
    return array


def _row_major_strides(dims: Sequence[int]) -> list[int]:
    strides = [1] * len(dims)
    for i in range(len(dims) - 2, -1, -1):
        strides[i] = strides[i + 1] * dims[i + 1]
    return strides


class BoxEncoder:
    """Row-major linear keys for the bounding box of a point window.

    Args:
        points: the window (a :class:`PointBatch` brings its box along);
            its tight bounding box anchors the keys.
        pad: optional per-coordinate padding.  Enlarging the box by the
            span of a set of offsets makes ``position(x) +
            offset_key(delta)`` equal ``position(x + delta)`` for *every*
            in-box ``x`` — even when ``x + delta`` leaves the tight box —
            so shifted-key membership needs no per-coordinate validity
            mask (a shifted point outside the tight box gets a key no
            window point can have).
    """

    def __init__(self, points: Sequence[IntVec],
                 pad: Sequence[int] | None = None):
        if isinstance(points, PointBatch):
            self.lo, self.hi = points.lo, points.hi
        else:
            self.lo, self.hi = bounding_box(points)
        if pad is not None:
            self.lo = tuple(l - p for l, p in zip(self.lo, pad))
            self.hi = tuple(h + p for h, p in zip(self.hi, pad))
        dimension = len(self.lo)
        dims = [h - l + 1 for l, h in zip(self.lo, self.hi)]
        strides = _row_major_strides(dims)
        self.dimension = dimension
        self.dims = tuple(dims)
        self.strides = tuple(strides)
        self.volume = strides[0] * dims[0]

    @property
    def fits_int64(self) -> bool:
        """True when every key (and key difference) fits in int64."""
        return self.volume < _MAX_VOLUME

    def position(self, point: IntVec) -> int | None:
        """The linear key of ``point``, or ``None`` when it lies outside
        the closed box ``[lo, hi]`` (or has another dimension)."""
        if len(point) != self.dimension:
            return None
        key = 0
        for x, low, n, stride in zip(point, self.lo, self.dims,
                                     self.strides):
            i = x - low
            if i < 0 or i >= n:
                return None
            key += i * stride
        return key

    def offset_key(self, delta: IntVec) -> int:
        """Key difference ``position(x + delta) - position(x)`` for
        in-box pairs."""
        return sum(d * s for d, s in zip(delta, self.strides))

    def keys_array(self, array):
        """Keys of an ``(n, d)`` int64 numpy array of in-box points."""
        lo = np.asarray(self.lo, dtype=np.int64)
        strides = np.asarray(self.strides, dtype=np.int64)
        return (array - lo) @ strides

    def __repr__(self) -> str:
        return f"BoxEncoder(lo={self.lo}, hi={self.hi}, volume={self.volume})"
