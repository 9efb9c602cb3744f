"""Brute-force reference answers, straight from the paper's definitions.

Klappenecker, Lee and Welch (PODC 2008, §2): the sensor at ``x`` sends
in slot ``slot_of(x)`` and interferes with the points of its
neighbourhood ``N(x)``.  Two sensors *collide* when they share a slot
and their neighbourhoods intersect.  In one slot a sensor receives a
transmission unless it transmits itself (rule 1) or two or more
transmitters reach it (rule 2).

Each function states one of those definitions with dicts and sets and
nothing else: no integer keys, no arrays, no sharding, nothing from
:mod:`repro.engine`.  The test suite and the scenario and chaos oracles
hold the numpy kernels to these answers.  They are meant for small
windows.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Iterable, Mapping, Sequence

from repro.utils.vectors import IntVec

__all__ = ["reference_collisions", "reference_receptions", "reference_slots"]


def _point(point: Sequence[int]) -> IntVec:
    return tuple(int(coordinate) for coordinate in point)


def reference_slots(slot_of: Callable[[IntVec], int],
                    points: Iterable[Sequence[int]]) -> list[int]:
    """``slot_of`` asked once per point, in input order."""
    return [int(slot_of(_point(point))) for point in points]


def reference_collisions(points: Iterable[Sequence[int]],
                         slot_of: Callable[[IntVec], int],
                         neighborhood_of: Callable[[IntVec], Iterable[IntVec]],
                         ) -> list[tuple[IntVec, IntVec]]:
    """Every colliding pair ``(x, y)`` of distinct sensors, ``x < y``, sorted.

    Builds a dict from point to slot, then tests each pair within
    conflict reach directly: same slot, and ``N(x) & N(y)`` nonempty.
    Two neighbourhoods can only meet when their sensors are at most
    ``r(x) + r(y)`` apart in every coordinate, ``r`` being a
    neighbourhood's Chebyshev radius about its sensor, so probing the
    box of half-width ``2 * max r`` around each sensor finds every pair.
    """
    slot = {_point(point): 0 for point in points}
    for point in slot:
        slot[point] = int(slot_of(point))
    hood = {point: frozenset(map(_point, neighborhood_of(point)))
            for point in slot}
    reach = 2 * max((abs(a - b) for point, cells in hood.items()
                     for cell in cells for a, b in zip(cell, point)),
                    default=0)
    dimension = len(next(iter(slot), ()))
    zero = (0,) * dimension
    deltas = [delta for delta in itertools.product(
        range(-reach, reach + 1), repeat=dimension) if delta > zero]
    pairs = []
    for x in slot:
        for delta in deltas:
            y = tuple(a + b for a, b in zip(x, delta))
            if y in slot and slot[y] == slot[x] and hood[x] & hood[y]:
                pairs.append((x, y))
    return sorted(pairs)


def reference_receptions(transmitters: Iterable[IntVec],
                         receivers_of: Mapping[IntVec, Iterable[IntVec]],
                         ) -> dict[IntVec, tuple[frozenset[IntVec],
                                                 frozenset[IntVec]]]:
    """Who hears, and who loses, each transmission of one slot.

    ``receivers_of[s]`` holds the sensors in ``s``'s range, ``s`` itself
    excluded.  A receiver ``r`` of ``s`` loses the message when ``r``
    transmits too (rule 1) or another transmitter also reaches ``r``
    (rule 2).  Returns ``{s: (heard, lost)}`` per transmitter.
    """
    sending = set(transmitters)
    reached: dict[IntVec, int] = {}
    for sender in sending:
        for receiver in receivers_of[sender]:
            reached[receiver] = reached.get(receiver, 0) + 1
    outcome = {}
    for sender in sending:
        receivers = frozenset(receivers_of[sender])
        heard = frozenset(r for r in receivers
                          if r not in sending and reached[r] == 1)
        outcome[sender] = (heard, receivers - heard)
    return outcome
