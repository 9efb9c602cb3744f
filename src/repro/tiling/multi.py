"""Multi-prototile tilings (Section 4): conditions GT1/GT2 and deployment D1.

A :class:`MultiTiling` holds prototiles ``N_1, ..., N_n`` with pairwise
disjoint translate sets ``T_1, ..., T_n`` (each periodic under a shared
period sublattice) such that the translates cover the lattice exactly once
(GT1) and never overlap (GT2).  Deployment rule D1 — every sensor inside
the tile ``t_k + N_k`` has neighborhood type ``N_k`` — is exposed through
:meth:`neighborhood_of`, which the simulator and the conflict-graph
machinery consume.

The *respectable* case (``N_1`` contains every other prototile) is what
Theorem 2 needs for optimality; :meth:`respectable_index` finds a
respectable prototile if one exists.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

from repro.engine.slots import CosetTable
from repro.lattice.sublattice import Sublattice
from repro.tiles.prototile import Prototile
from repro.utils.vectors import IntVec, as_intvec, box_points, vadd, vsub
from repro.utils.validation import require

__all__ = ["MultiTiling"]


class MultiTiling:
    """A tiling of ``Z^d`` with translates of several prototiles.

    Args:
        prototiles: the prototiles ``N_1, ..., N_n`` (each contains 0).
        anchor_sets: for each prototile, its anchor translates; the full
            translate set is ``T_k = anchor_sets[k] + period``.
        period: shared period sublattice.

    Raises:
        ValueError: if the data violates GT1, GT2 or the pairwise
            disjointness of the ``T_k``.
    """

    def __init__(self, prototiles: Sequence[Prototile],
                 anchor_sets: Sequence[Iterable[Sequence[int]]],
                 period: Sublattice):
        require(len(prototiles) > 0, "need at least one prototile")
        require(len(prototiles) == len(anchor_sets),
                "one anchor set per prototile is required")
        dimension = prototiles[0].dimension
        for tile in prototiles:
            require(tile.dimension == dimension,
                    "prototiles have mixed dimensions")
        require(period.dimension == dimension,
                "period dimension differs from the prototiles")

        canonical_anchor_sets: list[frozenset[IntVec]] = []
        all_anchors: dict[IntVec, int] = {}
        for k, anchors in enumerate(anchor_sets):
            representatives = set()
            for anchor in anchors:
                representative = period.canonical_representative(
                    as_intvec(anchor))
                if representative in all_anchors:
                    raise ValueError(
                        f"anchor {anchor} of prototile {k} coincides with a "
                        f"translate of prototile {all_anchors[representative]}; "
                        f"the T_k must be pairwise disjoint")
                if representative in representatives:
                    raise ValueError(
                        f"anchor {anchor} of prototile {k} duplicates a "
                        f"period coset")
                representatives.add(representative)
                all_anchors[representative] = k
            require(len(representatives) > 0,
                    f"anchor set {k} must be nonempty")
            canonical_anchor_sets.append(frozenset(representatives))

        expected = sum(len(anchors) * tile.size for anchors, tile
                       in zip(canonical_anchor_sets, prototiles))
        if period.index != expected:
            raise ValueError(
                f"period index {period.index} != total covered cells "
                f"{expected}; GT1/GT2 cannot hold")

        cover: dict[IntVec, tuple[int, IntVec, IntVec]] = {}
        for k, (tile, anchors) in enumerate(zip(prototiles,
                                                canonical_anchor_sets)):
            for anchor in sorted(anchors):
                for cell in tile.sorted_cells():
                    covered = period.canonical_representative(
                        vadd(anchor, cell))
                    if covered in cover:
                        ok, oa, oc = cover[covered]
                        raise ValueError(
                            f"tiles overlap: prototile {ok} at {oa} (cell "
                            f"{oc}) and prototile {k} at {anchor} (cell "
                            f"{cell}); GT2 fails")
                    cover[covered] = (k, anchor, cell)
        if len(cover) != period.index:
            raise ValueError("translates do not cover the lattice; GT1 fails")

        self._prototiles = list(prototiles)
        self._anchor_sets = canonical_anchor_sets
        self._period = period
        self._cover = cover
        self.dimension = dimension
        self._entry_table: CosetTable | None = None
        self._entries: list[tuple[int, IntVec, IntVec]] = []
        self._entry_kinds: np.ndarray | None = None

    # ------------------------------------------------------------------
    @property
    def prototiles(self) -> list[Prototile]:
        """The prototiles ``N_1, ..., N_n``."""
        return list(self._prototiles)

    @property
    def period(self) -> Sublattice:
        """The shared period sublattice."""
        return self._period

    def anchor_set(self, index: int) -> frozenset[IntVec]:
        """Canonical anchors of ``T_index`` within the fundamental domain."""
        return self._anchor_sets[index]

    @property
    def num_prototiles(self) -> int:
        return len(self._prototiles)

    # ------------------------------------------------------------------
    # Decomposition and deployment (rule D1)
    # ------------------------------------------------------------------
    def decompose(self, point: Sequence[int]) -> tuple[int, IntVec, IntVec]:
        """Unique ``(k, t, n)`` with ``point = t + n``, ``t in T_k``,
        ``n in N_k``."""
        point = as_intvec(point)
        representative = self._period.canonical_representative(point)
        k, _, cell = self._cover[representative]
        return k, vsub(point, cell), cell

    def prototile_index_of(self, point: Sequence[int]) -> int:
        """Index ``k`` of the prototile whose translate covers the point."""
        return self.decompose(point)[0]

    # ------------------------------------------------------------------
    # Batch operations (engine hooks)
    # ------------------------------------------------------------------
    def _cover_table(self) -> CosetTable:
        if self._entry_table is None:
            entries: list[tuple[int, IntVec, IntVec]] = []
            values: dict[IntVec, int] = {}
            for representative, entry in self._cover.items():
                values[representative] = len(entries)
                entries.append(entry)
            self._entries = entries
            self._entry_kinds = np.array([k for k, _, _ in entries],
                                         dtype=np.intp)
            self._entry_table = CosetTable(self._period, values)
        return self._entry_table

    def decompose_batch(self, points: Iterable[Sequence[int]],
                        ) -> list[tuple[int, IntVec, IntVec]]:
        """Vectorized :meth:`decompose` over many points at once."""
        point_list = [as_intvec(p) for p in points]
        table = self._cover_table()
        entries = self._entries
        result = []
        for point, entry_index in zip(point_list, table.lookup(point_list)):
            k, _, cell = entries[entry_index]
            result.append((k, vsub(point, cell), cell))
        return result

    def prototile_indices(self, points: Iterable[Sequence[int]]) -> list[int]:
        """Prototile index of each point — the D1 neighborhood *types*."""
        return self.prototile_index_array(points).tolist()

    def prototile_index_array(self, points) -> np.ndarray:
        """:meth:`prototile_indices` as an intp array.

        One cover-table pass over the whole batch array — the shape ids
        of a collision scan.
        """
        table = self._cover_table()
        return self._entry_kinds[table.lookup_array(points)]

    def prototile_key_table(self) -> tuple[CosetTable, np.ndarray]:
        """The cover coset table and the prototile index of each of its
        reduced keys: ``kinds[table.box_keys(...)]`` classifies a whole
        box (:meth:`CosetTable.box_keys`)."""
        table = self._cover_table()
        return table, self._entry_kinds[table.key_values]

    def coset_structure(self) -> tuple[Sublattice, dict[IntVec, IntVec]]:
        """Period sublattice plus the representative -> cell map.

        Mirrors :meth:`repro.tiling.base.Tiling.coset_structure` so the
        Theorem 2 schedule can build its slot table the same way the
        Theorem 1 schedule does.
        """
        return self._period, {representative: cell
                              for representative, (_, _, cell)
                              in self._cover.items()}

    def neighborhood_of(self, point: Sequence[int]) -> frozenset[IntVec]:
        """Interference set ``point + N_k`` under deployment rule D1."""
        k, _, _ = self.decompose(point)
        return self._prototiles[k].translate(as_intvec(point))

    def contains_translation(self, index: int,
                             vector: Sequence[int]) -> bool:
        """True when ``vector`` belongs to ``T_index``."""
        representative = self._period.canonical_representative(
            as_intvec(vector))
        return representative in self._anchor_sets[index]

    def translations_in_box(self, index: int, lo: Sequence[int],
                            hi: Sequence[int]) -> list[IntVec]:
        """All translates of ``T_index`` inside the closed box ``[lo, hi]``."""
        return [point for point in box_points(tuple(lo), tuple(hi))
                if self.contains_translation(index, point)]

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    def union_prototile(self) -> Prototile:
        """The union ``N = N_1 | ... | N_n`` (contains 0, so a prototile).

        Theorem 2's schedule enumerates this union; its size is the slot
        count of the generalized schedule.
        """
        cells: set[IntVec] = set()
        for tile in self._prototiles:
            cells |= tile.cells
        return Prototile(cells, name="union")

    def respectable_index(self) -> int | None:
        """Index of a prototile containing all others, or ``None``.

        The paper calls the tiling *respectable* when ``N_1`` contains
        every other prototile; any container qualifies here (order is
        immaterial for the theorem).
        """
        for j, candidate in enumerate(self._prototiles):
            if all(candidate.contains_prototile(other)
                   for other in self._prototiles):
                return j
        return None

    def is_respectable(self) -> bool:
        """True when some prototile contains all the others."""
        return self.respectable_index() is not None

    def anchor_differences(self, k: int, l: int,
                           chebyshev_bound: int) -> set[IntVec]:
        """All differences ``t_l - t_k`` with Chebyshev norm <= bound.

        Used by the optimal-schedule search to enumerate how instances of
        prototile ``l`` sit relative to instances of prototile ``k``;
        conflicts between slot variables only arise within a bounded
        difference, so a finite enumeration suffices.
        """
        period_points = self._period.points_near_origin(
            chebyshev_bound + 2 * self._max_anchor_norm())
        differences: set[IntVec] = set()
        for a in self._anchor_sets[k]:
            for b in self._anchor_sets[l]:
                base = vsub(b, a)
                for p in period_points:
                    candidate = vadd(base, p)
                    if all(abs(x) <= chebyshev_bound for x in candidate):
                        differences.add(candidate)
        return differences

    def _max_anchor_norm(self) -> int:
        return max((max(abs(x) for x in anchor) if anchor != () else 0)
                   for anchors in self._anchor_sets
                   for anchor in anchors)

    def __repr__(self) -> str:
        names = ", ".join(tile.name for tile in self._prototiles)
        return (f"MultiTiling([{names}], period_index={self._period.index}, "
                f"respectable={self.is_respectable()})")
