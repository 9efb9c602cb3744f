"""Property tests for the blocked Theorem 1 tiling search.

The search of :mod:`repro.tiles.exactness` tests candidate sublattices a
block at a time, in batched numpy coset reductions.  Its reference is the
scalar loop: :func:`tiles_by_sublattice` over
:func:`all_sublattices_of_index`, one candidate at a time.  Every answer
(the first hit, ``None``, the full ordered list) must be that loop's, for
random cell sets in one to three dimensions, Chebyshev balls, known
non-exact sets, and prototiles past the int64 bound, which take the
scalar loop itself.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lattice.sublattice import all_sublattices_of_index
from repro.tiles import exactness
from repro.tiles.exactness import (
    all_sublattice_tilings,
    find_sublattice_tiling,
    is_exact_lattice,
    tiles_by_sublattice,
)
from repro.tiles.prototile import Prototile
from repro.tiles.shapes import chebyshev_ball, u_pentomino

SETTINGS = dict(max_examples=40, deadline=None)


def scalar_tilings(prototile):
    """The reference: every tiling sublattice, one candidate at a time."""
    return [sublattice for sublattice in all_sublattices_of_index(
                prototile.dimension, prototile.size)
            if tiles_by_sublattice(prototile, sublattice)]


def scalar_first_tiling(prototile):
    """The reference's first hit, or ``None`` (stops at the hit)."""
    return next((sublattice for sublattice in all_sublattices_of_index(
                     prototile.dimension, prototile.size)
                 if tiles_by_sublattice(prototile, sublattice)), None)


def assert_same_as_scalar(prototile):
    want = scalar_tilings(prototile)
    got = list(all_sublattice_tilings(prototile))
    assert [s.hnf_matrix for s in got] == [s.hnf_matrix for s in want]
    first = find_sublattice_tiling(prototile)
    if want:
        assert first == want[0]
        assert first.hnf_matrix == want[0].hnf_matrix
    else:
        assert first is None
    assert is_exact_lattice(prototile) == bool(want)


@st.composite
def cell_sets(draw):
    """A random prototile: the origin plus up to 11 cells, d = 1..3."""
    dimension = draw(st.integers(1, 3))
    spread = 6 if dimension == 1 else 3
    cell = st.tuples(*[st.integers(-spread, spread)] * dimension)
    cells = draw(st.sets(cell, max_size=11))
    return Prototile(cells | {(0,) * dimension}, name="random")


class TestSearchEqualsScalarLoop:
    @given(cell_sets())
    @settings(**SETTINGS)
    def test_random_cell_sets(self, prototile):
        assert_same_as_scalar(prototile)

    @pytest.mark.parametrize("radius, dimension", [
        (1, 1), (2, 1), (1, 2), (2, 2), (1, 3)])
    def test_chebyshev_balls(self, radius, dimension):
        assert_same_as_scalar(chebyshev_ball(radius, dimension))

    def test_chebyshev_ball_radius_2_in_3d(self):
        ball = chebyshev_ball(2, 3)
        want = scalar_first_tiling(ball)
        assert find_sublattice_tiling(ball).hnf_matrix == want.hnf_matrix

    @pytest.mark.parametrize("prototile", [
        u_pentomino(),
        Prototile([(0, 0), (1, 0), (3, 0)]),
        Prototile([(0,), (1,), (3,)]),
        Prototile([(0, 0, 0), (1, 0, 0), (3, 0, 0)]),
    ], ids=["u-pentomino", "gapped-2d", "gapped-1d", "gapped-3d"])
    def test_known_non_exact_sets(self, prototile):
        assert scalar_tilings(prototile) == []
        assert_same_as_scalar(prototile)

    @pytest.mark.parametrize("block, keys", [
        (1, 1 << 16), (7, 1 << 16), (128, 1 << 16), (128, 100)])
    def test_any_block_size(self, monkeypatch, block, keys):
        # 1,210 candidates, 109 hits spread over every block
        monkeypatch.setattr(exactness, "_SEARCH_BLOCK", block)
        monkeypatch.setattr(exactness, "_SEARCH_KEYS", keys)
        assert_same_as_scalar(chebyshev_ball(1, 3))
        assert_same_as_scalar(u_pentomino())


class TestBeyondInt64:
    @pytest.fixture
    def no_kernel(self, monkeypatch):
        def refuse(*_):
            raise AssertionError("the batched reduction ran")
        monkeypatch.setattr(exactness, "coset_keys", refuse)

    @pytest.mark.parametrize("cells", [
        [(0,), (2 ** 62,)],
        [(0,), (2 ** 62 + 1,)],
        [(0, 0), (2 ** 62, 1), (1, 0)],
        [(0, 0), (1, 2 ** 62), (0, 1), (1, 1)],
        [(0, 0, 0), (0, 0, -2 ** 62), (1, 0, 0)],
    ])
    def test_takes_the_exact_path(self, no_kernel, cells):
        assert_same_as_scalar(Prototile(cells))

    def test_far_cells_answer_as_their_small_congruent_copy(self, no_kernel):
        # 2**62 + 1 is odd: the pair tiles by 2Z, like (0, 1).
        far = find_sublattice_tiling(Prototile([(0,), (2 ** 62 + 1,)]))
        assert far is not None and far.hnf_matrix == [[2]]
        assert find_sublattice_tiling(Prototile([(0,), (2 ** 62,)])) is None
