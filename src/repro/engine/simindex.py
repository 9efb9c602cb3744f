"""Dense-id adjacency for sensor networks (the simulator fast path).

The slotted simulator needs, every slot: who hears a given transmitter
(receiver lists), and how many transmitters cover a given sensor
(coverage counts).  The tuple-keyed dict-of-frozensets in
:class:`repro.net.model.Network` answers both, but rebuilding Python set
intersections per slot dominates the runtime on large networks.

:class:`AdjacencyIndex` freezes the topology once into integer form:
positions get dense ids ``0..n-1`` (sorted order), receiver lists become
tuples of ids, and the whole reception relation is additionally stored in
CSR/COO form — parallel ``edge_senders``/``edge_receivers`` arrays, one
entry per (sender, receiver) pair — which is what the numpy kernels in
:class:`repro.net.simulator.BroadcastSimulator` consume.  Edge ``s -> r``
means ``r`` lies in ``s``'s interference range, i.e. ``s`` covers ``r``.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

import numpy as np

from repro.utils.vectors import IntVec

__all__ = ["AdjacencyIndex"]


class AdjacencyIndex:
    """Reception topology of a network over dense integer ids."""

    def __init__(self, positions: Sequence[IntVec],
                 receivers_by_position: Mapping[IntVec, frozenset[IntVec]]):
        self.positions = tuple(positions)
        self.index_of = {p: i for i, p in enumerate(self.positions)}
        receivers = []
        edge_senders: list[int] = []
        edge_receivers: list[int] = []
        for sender_id, position in enumerate(self.positions):
            ids = tuple(sorted(self.index_of[receiver]
                               for receiver in receivers_by_position[position]))
            receivers.append(ids)
            edge_senders.extend([sender_id] * len(ids))
            edge_receivers.extend(ids)
        self.receivers = tuple(receivers)
        self.edge_senders = tuple(edge_senders)
        self.edge_receivers = tuple(edge_receivers)
        self.num_edges = len(edge_senders)
        self._edge_arrays = (np.asarray(edge_senders, dtype=np.intp),
                             np.asarray(edge_receivers, dtype=np.intp))

    def __len__(self) -> int:
        return len(self.positions)

    def coverers(self) -> tuple[tuple[int, ...], ...]:
        """Transpose adjacency: ids of the senders covering each sensor."""
        covering: list[list[int]] = [[] for _ in self.positions]
        for sender, receiver in zip(self.edge_senders, self.edge_receivers):
            covering[receiver].append(sender)
        return tuple(tuple(ids) for ids in covering)

    def edge_arrays(self):
        """``(edge_senders, edge_receivers)`` as numpy arrays."""
        return self._edge_arrays

    def __repr__(self) -> str:
        return (f"AdjacencyIndex({len(self.positions)} sensors, "
                f"{self.num_edges} edges)")
