"""Exact integer vector algebra on plain tuples.

Every lattice point in this library is represented as a ``tuple`` of Python
integers (``IntVec``).  Tuples are hashable, immutable, and support exact
arithmetic through the helpers below, which keeps the combinatorial core of
the reproduction (tilings, schedules, difference sets) free of floating
point error.  Real-valued geometry lives in :mod:`repro.lattice.lattice`,
which maps integer coordinates through an embedding basis.
"""

from __future__ import annotations

import itertools
import math
import numbers
from collections.abc import Iterable, Sequence

IntVec = tuple[int, ...]

__all__ = [
    "IntVec",
    "as_intvec",
    "zero",
    "vadd",
    "vsub",
    "vneg",
    "vscale",
    "vdot",
    "linf_norm",
    "l1_norm",
    "l2_norm_sq",
    "chebyshev_distance",
    "manhattan_distance",
    "bounding_box",
    "box_points",
    "minkowski_sum",
    "difference_set",
    "translate_set",
    "rotate90",
    "reflect_x",
    "lex_min",
]


def as_intvec(values: Iterable[int]) -> IntVec:
    """Coerce an iterable of integers into a canonical ``IntVec`` tuple.

    Raises:
        TypeError: if any coordinate is not an integral number.  Floats with
            integral values (``2.0``) and numpy integer scalars are
            accepted and converted exactly; booleans and strings are not.
    """
    if type(values) is tuple and all(type(v) is int for v in values):
        return values
    result = []
    for value in values:
        if isinstance(value, bool):
            raise TypeError(f"boolean is not a valid coordinate: {value!r}")
        if isinstance(value, int):
            result.append(value)
        elif isinstance(value, float) and value.is_integer():
            result.append(int(value))
        elif isinstance(value, numbers.Integral):
            result.append(int(value))
        else:
            raise TypeError(f"coordinate is not an integer: {value!r}")
    return tuple(result)


def zero(dimension: int) -> IntVec:
    """Return the origin of ``Z^dimension``."""
    if dimension < 1:
        raise ValueError(f"dimension must be positive, got {dimension}")
    return (0,) * dimension


def vadd(a: IntVec, b: IntVec) -> IntVec:
    """Componentwise sum ``a + b``."""
    return tuple(x + y for x, y in zip(a, b, strict=True))


def vsub(a: IntVec, b: IntVec) -> IntVec:
    """Componentwise difference ``a - b``."""
    return tuple(x - y for x, y in zip(a, b, strict=True))


def vneg(a: IntVec) -> IntVec:
    """Componentwise negation ``-a``."""
    return tuple(-x for x in a)


def vscale(scalar: int, a: IntVec) -> IntVec:
    """Scalar multiple ``scalar * a``."""
    return tuple(scalar * x for x in a)


def vdot(a: IntVec, b: IntVec) -> int:
    """Exact inner product of two integer vectors."""
    return sum(x * y for x, y in zip(a, b, strict=True))


def linf_norm(a: IntVec) -> int:
    """Chebyshev (``l-infinity``) norm."""
    return max(abs(x) for x in a)


def l1_norm(a: IntVec) -> int:
    """Manhattan (``l1``) norm."""
    return sum(abs(x) for x in a)


def l2_norm_sq(a: IntVec) -> int:
    """Squared Euclidean norm (exact integer)."""
    return sum(x * x for x in a)


def chebyshev_distance(a: IntVec, b: IntVec) -> int:
    """Chebyshev distance between two points."""
    return linf_norm(vsub(a, b))


def manhattan_distance(a: IntVec, b: IntVec) -> int:
    """Manhattan distance between two points."""
    return l1_norm(vsub(a, b))


def bounding_box(points: Iterable[IntVec]) -> tuple[IntVec, IntVec]:
    """Return ``(lo, hi)`` corners of the tight axis-aligned bounding box.

    Raises:
        ValueError: if ``points`` is empty.
    """
    iterator = iter(points)
    try:
        first = next(iterator)
    except StopIteration:
        raise ValueError("bounding_box of an empty point set") from None
    lo = list(first)
    hi = list(first)
    for point in iterator:
        for i, coordinate in enumerate(point):
            if coordinate < lo[i]:
                lo[i] = coordinate
            if coordinate > hi[i]:
                hi[i] = coordinate
    return tuple(lo), tuple(hi)


def box_points(lo: IntVec, hi: IntVec) -> Iterable[IntVec]:
    """Iterate all integer points of the closed box ``[lo, hi]``.

    Coordinates iterate in row-major (lexicographic) order.
    """
    if len(lo) != len(hi):
        raise ValueError("box corners have mismatched dimensions")
    ranges = []
    for low, high in zip(lo, hi):
        if low > high:
            return
        ranges.append(range(low, high + 1))
    yield from itertools.product(*ranges)


def minkowski_sum(a: Iterable[IntVec], b: Sequence[IntVec]) -> frozenset[IntVec]:
    """Minkowski sum ``A + B = {x + y : x in A, y in B}``."""
    return frozenset(vadd(x, y) for x in a for y in b)


def difference_set(points: Iterable[IntVec]) -> frozenset[IntVec]:
    """Difference set ``P - P = {x - y : x, y in P}``.

    Two sensors with neighborhood ``N`` placed at ``s`` and ``t`` have
    intersecting interference ranges exactly when ``t - s`` lies in
    ``N - N``; this set is the collision kernel used throughout the
    scheduling core.  ``points`` may be any iterable, including a
    one-shot generator: it is materialized before the double loop.
    """
    point_list = list(points)
    return frozenset(vsub(x, y) for x in point_list for y in point_list)


def translate_set(points: Iterable[IntVec], offset: IntVec) -> frozenset[IntVec]:
    """Translate every point of a set by ``offset``."""
    return frozenset(vadd(p, offset) for p in points)


def rotate90(a: IntVec) -> IntVec:
    """Rotate a 2-D integer vector by 90 degrees counterclockwise."""
    if len(a) != 2:
        raise ValueError(f"rotate90 requires a 2-D vector, got dimension {len(a)}")
    x, y = a
    return (-y, x)


def reflect_x(a: IntVec) -> IntVec:
    """Reflect a 2-D integer vector across the x-axis."""
    if len(a) != 2:
        raise ValueError(f"reflect_x requires a 2-D vector, got dimension {len(a)}")
    x, y = a
    return (x, -y)


def lex_min(points: Iterable[IntVec]) -> IntVec:
    """Lexicographically smallest point of a non-empty collection."""
    return min(points)


def l2_norm(a: IntVec) -> float:
    """Euclidean norm as a float (use :func:`l2_norm_sq` for exactness)."""
    return math.sqrt(l2_norm_sq(a))
