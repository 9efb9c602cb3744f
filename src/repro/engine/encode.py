"""Injective integer keys for lattice points of a finite window.

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

from collections.abc import Sequence

import numpy as np

from repro.utils.vectors import IntVec, bounding_box

__all__ = ["BoxEncoder"]

# Keys are kept below 2**62 so the numpy path can use int64 arithmetic
# without overflow; windows larger than that fall back to tuple hashing.
_MAX_VOLUME = 2 ** 62


class BoxEncoder:
    """Row-major linear keys for the bounding box of a point window.

    Args:
        points: the window; its tight bounding box anchors the keys.
        pad: optional per-coordinate padding.  Enlarging the box by the
            span of a set of offsets makes ``key(x) + offset_key(delta)``
            equal ``key(x + delta)`` for *every* in-box ``x`` — even when
            ``x + delta`` leaves the tight box — so shifted-key membership
            needs no per-coordinate validity mask (a shifted point outside
            the tight box gets a key no window point can have).
    """

    def __init__(self, points: Sequence[IntVec],
                 pad: Sequence[int] | None = None):
        self.lo, self.hi = bounding_box(points)
        if pad is not None:
            self.lo = tuple(l - p for l, p in zip(self.lo, pad))
            self.hi = tuple(h + p for h, p in zip(self.hi, pad))
        dimension = len(self.lo)
        dims = [h - l + 1 for l, h in zip(self.lo, self.hi)]
        strides = [1] * dimension
        for i in range(dimension - 2, -1, -1):
            strides[i] = strides[i + 1] * dims[i + 1]
        self.dimension = dimension
        self.dims = tuple(dims)
        self.strides = tuple(strides)
        self.volume = strides[0] * dims[0]

    @property
    def fits_int64(self) -> bool:
        """True when every key (and key difference) fits in int64."""
        return self.volume < _MAX_VOLUME

    def contains(self, point: IntVec) -> bool:
        """Membership in the closed box ``[lo, hi]``."""
        return all(l <= x <= h
                   for l, x, h in zip(self.lo, point, self.hi))

    def key(self, point: IntVec) -> int:
        """The linear key of an in-box point."""
        return sum((x - l) * s
                   for x, l, s in zip(point, self.lo, self.strides))

    def offset_key(self, delta: IntVec) -> int:
        """Key difference ``key(x + delta) - key(x)`` for in-box pairs."""
        return sum(d * s for d, s in zip(delta, self.strides))

    def keys_array(self, array):
        """Keys of an ``(n, d)`` int64 numpy array of in-box points."""
        lo = np.asarray(self.lo, dtype=np.int64)
        strides = np.asarray(self.strides, dtype=np.int64)
        return (array - lo) @ strides

    def __repr__(self) -> str:
        return f"BoxEncoder(lo={self.lo}, hi={self.hi}, volume={self.volume})"
