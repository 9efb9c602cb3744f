"""Deciding exactness: when does a prototile admit a tiling? (Section 3.)

The paper's question Q1 asks when a prototile ``N`` is *exact*, i.e. when
some translate set ``T`` satisfies the tiling conditions T1 and T2.  This
module implements the decision procedures:

* **Sublattice search** (:func:`find_sublattice_tiling`): enumerate all
  sublattices of ``Z^d`` of index ``|N|`` and test whether the elements of
  ``N`` represent every coset exactly once.  Complete for *lattice*
  tilings in any dimension; by Beauquier–Nivat, for polyominoes a lattice
  tiling exists iff any tiling exists, so the search is a full exactness
  decider for polyominoes (and, by Szegedy's theorem, for prototiles of
  prime cardinality or cardinality 4 — see :mod:`repro.tiles.szegedy`).

  The candidates are read as one memoised ``(k, d, d)`` int64 array of
  HNF bases, in enumeration order.  Blocks of up to :data:`_SEARCH_BLOCK`
  candidates are tested at a time: one batched coset reduction of the
  cells against every basis of the block
  (:func:`repro.engine.slots.coset_keys`), then a per-row check for a
  repeated key.  Only a passing candidate becomes a
  :class:`~repro.lattice.sublattice.Sublattice`, so the search returns
  exactly what testing :func:`tiles_by_sublattice` one candidate at a
  time returns.  Prototiles whose reduction could leave int64 take
  that scalar loop itself.

* **Boundary-word criterion** (via :mod:`repro.tiles.bn`): polynomial in
  the boundary length for polyominoes, and constructive.

The torus backtracking search for general periodic (non-lattice) tilings
lives in :mod:`repro.tiling.search`, layered above this module.
"""

from __future__ import annotations

from collections.abc import Iterator
from functools import lru_cache

import numpy as np

from repro.engine.slots import _MAX_COORD, coset_keys
from repro.lattice.sublattice import Sublattice, all_sublattices_of_index
from repro.tiles.bn import find_bn_factorization
from repro.tiles.boundary import boundary_word
from repro.tiles.prototile import Prototile
from repro.utils.intlin import enumerate_hnf_matrices, matrix_columns

__all__ = [
    "tiles_by_sublattice",
    "find_sublattice_tiling",
    "all_sublattice_tilings",
    "is_exact_lattice",
    "is_exact",
]


def tiles_by_sublattice(prototile: Prototile, sublattice: Sublattice) -> bool:
    """Check whether ``prototile + sublattice`` tiles ``Z^d``.

    Conditions T1 and T2 hold together iff the sublattice has index
    ``|N|`` and the cells of ``N`` fall into pairwise distinct cosets —
    then ``N`` is a complete set of coset representatives, so every lattice
    point is covered exactly once.
    """
    if sublattice.index != prototile.size:
        return False
    representatives = {
        sublattice.canonical_representative(cell) for cell in prototile.cells
    }
    return len(representatives) == prototile.size


#: Candidate sublattices per batched reduction, and the cap on the
#: keys (candidates x cells) of one block: the working arrays stay
#: small for large prototiles while the numpy calls are amortised.
_SEARCH_BLOCK = 128
_SEARCH_KEYS = 1 << 16


@lru_cache(maxsize=128)
def _candidate_bases(dimension: int, index: int) -> np.ndarray:
    """The HNF bases of every index-``index`` sublattice of ``Z^d``, as
    a read-only ``(k, d, d)`` int64 array in enumeration order (the
    order of :func:`~repro.lattice.sublattice.all_sublattices_of_index`).
    """
    bases = np.array(list(enumerate_hnf_matrices(dimension, index)),
                     dtype=np.int64).reshape(-1, dimension, dimension)
    bases.setflags(write=False)
    return bases


def find_sublattice_tiling(prototile: Prototile) -> Sublattice | None:
    """Find some sublattice ``T`` with ``N + T = Z^d`` a tiling, or ``None``.

    Tests every sublattice of index ``|N|`` (there are finitely many;
    ``sigma(|N|)`` in two dimensions) in enumeration order, a block of
    candidates per batched coset reduction, and returns the first that
    tiles — the same ``Sublattice`` as the first hit of
    :func:`tiles_by_sublattice` over
    :func:`~repro.lattice.sublattice.all_sublattices_of_index`.
    """
    return next(all_sublattice_tilings(prototile), None)


def all_sublattice_tilings(prototile: Prototile) -> Iterator[Sublattice]:
    """Iterate *every* sublattice that tiles with the prototile, in
    enumeration order.

    Useful for studying how many essentially different lattice tilings a
    neighborhood admits (the paper's Theorem 1 holds for each of them).
    """
    dimension, size = prototile.dimension, prototile.size
    cells = prototile.sorted_cells()
    magnitude = max(abs(c) for cell in cells for c in cell)
    # Each reduction step can grow a coordinate by a factor of at most
    # index + 1 (sub-diagonal HNF entries are below their diagonal).
    if magnitude >= _MAX_COORD \
            or magnitude * (size + 1) ** dimension >= 2 ** 62:
        for sublattice in all_sublattices_of_index(dimension, size):
            if tiles_by_sublattice(prototile, sublattice):
                yield sublattice
        return
    points = np.array(cells, dtype=np.int64)
    bases = _candidate_bases(dimension, size)
    rows = max(1, min(_SEARCH_BLOCK, _SEARCH_KEYS // size))
    for start in range(0, len(bases), rows):
        block = bases[start:start + rows]
        keys = np.sort(coset_keys(points, block), axis=1)
        repeated = (keys[:, 1:] == keys[:, :-1]).any(axis=1)
        for hit in np.flatnonzero(~repeated).tolist():
            yield Sublattice(matrix_columns(block[hit].tolist()))


def is_exact_lattice(prototile: Prototile) -> bool:
    """True when the prototile admits a *lattice* tiling."""
    return find_sublattice_tiling(prototile) is not None


def is_exact(prototile: Prototile) -> bool:
    """Decide exactness of a prototile (question Q1).

    Strategy:

    1. If a sublattice tiling exists, the prototile is exact.
    2. Otherwise, if the prototile is a polyomino, Beauquier–Nivat is a
       complete decider: no pseudo-hexagon factorization means no tiling
       of any kind.

    For disconnected prototiles with no lattice tiling the function
    returns ``False`` with the caveat that exotic non-lattice tilings are
    not searched here; use :func:`repro.tiling.search.find_periodic_tiling`
    to hunt for those explicitly.
    """
    if is_exact_lattice(prototile):
        return True
    if prototile.is_polyomino():
        return find_bn_factorization(boundary_word(prototile)) is not None
    return False
