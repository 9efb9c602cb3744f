"""Vectorized coset reduction: many points -> small ints in one shot.

Every tiling schedule in this library answers ``slot_of(x)`` by reducing
``x`` to the canonical representative of its coset modulo a sublattice
(the tiling's translate set or period) and looking the representative up
in a finite table.  :class:`CosetTable` packages that two-step lookup for
*batches* of points: it runs the same Hermite-normal-form reduction as
:meth:`repro.utils.intlin.CosetSpace.canonical`, but one coordinate at
a time over an ``(n, d)`` int64 array — ``d`` passes of vectorized
floor division instead of ``n`` Python loops — then resolves
representatives through a dense ``index``-sized table of precomputed
values.

Batches the int64 kernel cannot represent (coordinates of ``2**40`` or
more) take the exact path instead: one ``canonical_representative``
call per point, exactly what ``slot_of`` does.  Both give the same
values.  Points arrive as a validated
:class:`~repro.engine.encode.PointBatch` (any other collection is
validated into one first), so the bound is checked once per batch.

:func:`coset_keys` runs the same reduction against a stack of bases:
one call reduces a point set modulo many sublattices at once (the
Theorem 1 tiling search tests a block of candidate sublattices this
way, :mod:`repro.tiles.exactness`).

A whole box needs no point array at all: :meth:`CosetTable.box_keys`
runs the same reduction on broadcast ``np.arange`` open grids, one per
axis.  Coordinate ``i`` of the reduction depends only on axes ``0..i``
(the basis is lower triangular), so the early steps work on small
arrays and only the last ones on the full grid; a diagonal period
(``[4, 2]``) is one ``%`` per axis and a broadcast sum.  The key grid
serves any table on the same period with one gather each — slots and
shape ids of a streamed slab share one reduction.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

import numpy as np

from repro.engine.encode import PointBatch
from repro.engine.parallel import plan_shards, run_sharded, shard_workers
from repro.utils.vectors import IntVec

__all__ = ["CosetTable", "coset_keys"]

#: Batch sizes below this stay serial even with workers enabled — the
#: reduction is a handful of array passes: on 2 threads an int64 batch
#: gains from 2^14 points, a tuple batch (whose conversion stays
#: serial) breaks even from 2^15.
_MIN_PARALLEL_POINTS = 1 << 15


def _lookup_shard(payload, span):
    """Serial lookup of one row span (runs on a shard thread)."""
    table, rows, reducible = payload
    lo, hi = span
    return table._lookup_rows(rows[lo:hi], reducible)

# Coordinate bound for the int64 fast path.  The HNF reduction subtracts
# ``(x[i] // diag[i]) * column[i]``; with |x| < 2**40 and the modest
# diagonals/columns of real tilings every intermediate stays far inside
# int64.  Larger coordinates silently use the exact path.
_MAX_COORD = 2 ** 40


def coset_keys(points: np.ndarray, bases: np.ndarray) -> np.ndarray:
    """Reduced coset keys of ``points`` modulo each of ``bases``.

    ``points`` is an ``(n, d)`` int64 array and ``bases`` a ``(k, d, d)``
    int64 stack of lower-triangular HNF matrices (column ``j`` of basis
    ``b`` is ``bases[b, :, j]``, positive diagonal).  Returns the
    ``(k, n)`` int64 keys: row ``b`` holds, for every point, the
    mixed-radix key of its canonical representative modulo basis ``b``
    — the same floor-division steps as
    :meth:`~repro.utils.intlin.CosetSpace.canonical`, so two points
    share a key iff they share a coset.  Keys lie in
    ``range(index)``.  The caller keeps every intermediate inside
    int64 (see ``_MAX_COORD``).  Each coordinate is its own ``(k, n)``
    plane, so every step is a contiguous array pass.
    """
    dimension = points.shape[1]
    reduced = [points[:, axis] for axis in range(dimension)]
    keys = np.zeros((len(bases), len(points)), dtype=np.int64)
    for i in range(dimension):
        diagonal = bases[:, i, i, None]
        quotient = reduced[i] // diagonal
        for axis in range(i + 1, dimension):
            reduced[axis] = reduced[axis] - quotient * bases[:, axis, i, None]
        keys *= diagonal
        keys += reduced[i] - quotient * diagonal
    return keys


class CosetTable:
    """Maps lattice points to small integers through canonical cosets.

    Args:
        sublattice: the reducing sublattice (translate set or period);
            anything exposing ``dimension``, ``index``, ``basis`` and
            ``canonical_representative`` works.
        values: one integer per canonical coset representative — a slot
            number, a prototile index, a cover-entry index...  Must cover
            every coset (tilings guarantee this by construction).

    Point batches go through :meth:`lookup_array`; a whole box inside
    the int64 bound through the box kernel, :meth:`box_keys` (reduced
    keys on open grids, no point array).  ``key_values[keys]`` turns
    keys into values, so tables on the same period
    (:meth:`shares_reduction`) read one key grid.
    """

    def __init__(self, sublattice, values: Mapping[IntVec, int]):
        self._sublattice = sublattice
        self._values = dict(values)
        dimension = sublattice.dimension
        basis = sublattice.basis  # HNF columns, lower triangular
        diagonal = [basis[i][i] for i in range(dimension)]
        strides = [1] * dimension
        for i in range(dimension - 2, -1, -1):
            strides[i] = strides[i + 1] * diagonal[i + 1]
        if len(self._values) != sublattice.index:
            raise ValueError(
                f"need one value per coset: got {len(self._values)} values "
                f"for index {sublattice.index}")
        table = [0] * sublattice.index
        for representative, value in self._values.items():
            key = sum(r * s for r, s in zip(representative, strides))
            table[key] = value
        self.dimension = dimension
        self._basis = tuple(tuple(column) for column in basis)
        self._diagonal = diagonal
        self._stride_list = strides
        self._table = np.asarray(table, dtype=np.int64)
        self._table.setflags(write=False)

    @property
    def key_values(self) -> np.ndarray:
        """The value of each reduced key (read-only): ``key_values[k]``
        is the value of the coset whose reduced key is ``k``."""
        return self._table

    def shares_reduction(self, other: CosetTable) -> bool:
        """True when ``other`` reduces by the same basis, so one key
        grid serves both tables."""
        return self._basis == other._basis

    # ------------------------------------------------------------------
    def value_of(self, point: Sequence[int]) -> int:
        """Scalar lookup (identical to the per-point schedule path)."""
        return self._values[self._sublattice.canonical_representative(point)]

    def lookup(self, points) -> list[int]:
        """Values for a batch of points, as a list of ints.

        Accepts a :class:`~repro.engine.encode.PointBatch`, a list of
        integer tuples or a ready-made ``(n, d)`` integer numpy array.
        See :meth:`lookup_array`.
        """
        return self.lookup_array(points).tolist()

    def lookup_array(self, points) -> np.ndarray:
        """Values for a batch of points, as an int64 array.

        Falls back to the exact path for batches the int64 kernel
        cannot represent.  Large batches shard across the engine's
        thread pool when workers are enabled
        (:mod:`repro.engine.parallel`); the rows partition, so the
        concatenated shard outputs equal the serial answer exactly.
        """
        batch = PointBatch.of(points)
        if not len(batch):
            return np.zeros(0, dtype=np.int64)
        reducible = (batch.array is not None
                     and batch.dimension == self.dimension
                     and batch.magnitude < _MAX_COORD)
        rows = batch.array if reducible else batch.points
        workers = shard_workers()
        if workers > 1 and len(batch) >= _MIN_PARALLEL_POINTS:
            spans = plan_shards(len(batch), workers)
            if len(spans) > 1:
                parts = run_sharded(_lookup_shard, (self, rows, reducible),
                                    spans, workers)
                return np.concatenate(parts)
        return self._lookup_rows(rows, reducible)

    def _lookup_rows(self, rows, reducible: bool) -> np.ndarray:
        if reducible:
            return self._lookup_numpy(rows)
        return np.asarray(self._lookup_exact(rows), dtype=np.int64)

    def _lookup_exact(self, points: Sequence[Sequence[int]]) -> list[int]:
        canonical = self._sublattice.canonical_representative
        values = self._values
        return [values[canonical(p)] for p in points]

    def box_keys(self, lo: Sequence[int], dims: Sequence[int]) -> np.ndarray:
        """Reduced keys of the box with corner ``lo`` and extents
        ``dims``, as an int64 grid of shape ``dims``.

        The caller keeps the box inside ``|x| < 2**40`` (the bound of
        the int64 kernel); ``key_values[box_keys(...)]`` is then the
        box's :meth:`lookup_array` on the grid.  Each HNF step reduces
        one coordinate on open grids, skipping the zero entries of its
        column, so a coordinate's array only spans the axes it depends
        on.
        """
        d = self.dimension
        keys = self._reduce([np.arange(low, low + n, dtype=np.int64).reshape(
                                 [n if axis == i else 1 for axis in range(d)])
                             for i, (low, n) in enumerate(zip(lo, dims))])
        dims = tuple(dims)
        if keys is None:
            return np.zeros(dims, dtype=np.int64)
        if keys.shape != dims:  # an axis no key coordinate depends on
            keys = np.broadcast_to(keys, dims)
        return keys

    def _reduce(self, reduced: list[np.ndarray]) -> np.ndarray | None:
        """Reduced keys of broadcastable coordinate arrays (one per
        axis; consumed), or ``None`` when every key is 0 (index 1).

        Shared by :meth:`box_keys` (open grids) and the point lookup
        (the columns of an ``(n, d)`` array); each step skips the zero
        entries of its column and the remainder of a unit diagonal.
        """
        d = self.dimension
        keys = None
        for i in range(d):
            diagonal = self._diagonal[i]
            column = self._basis[i]
            coordinate = reduced[i]
            updates = [k for k in range(i + 1, d) if column[k]]
            if updates:
                quotient = (coordinate if diagonal == 1
                            else coordinate // diagonal)
                for k in updates:
                    reduced[k] = reduced[k] - quotient * column[k]
            if diagonal == 1:
                continue  # the remainder is 0 and adds nothing
            term = coordinate % diagonal
            if self._stride_list[i] != 1:
                term *= self._stride_list[i]
            keys = term if keys is None else keys + term
        return keys

    def _lookup_numpy(self, array) -> np.ndarray:
        keys = self._reduce([array[:, axis] for axis in range(self.dimension)])
        if keys is None:
            return np.full(len(array), self._table[0])
        return self._table[keys]
