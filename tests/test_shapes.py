"""Tests for skew shapes, canonicalisation and tableaux."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from schurmzv.errors import PreconditionError
from schurmzv.shapes import (
    EMPTY_SHAPE,
    SkewShape,
    as_diagonal,
    content,
    content_set,
    corners,
    diagonal_tableau,
    from_cells,
    furthest_left,
    is_admissible,
    is_edge_connected,
    make_skew,
    tableau_from_entries,
    translate,
    translation_equivalent,
    transpose_shape,
    transpose_tableau,
    Tableau,
)


@st.composite
def partitions(draw, max_len=5, max_part=6):
    n = draw(st.integers(0, max_len))
    parts = draw(
        st.lists(st.integers(1, max_part), min_size=n, max_size=n).map(
            lambda xs: tuple(sorted(xs, reverse=True))
        )
    )
    return parts


@st.composite
def skew_shapes(draw):
    lam = draw(partitions())
    mu = tuple(draw(st.integers(0, l)) for l in lam)
    mu = tuple(sorted(mu, reverse=True))
    mu = tuple(min(m, l) for m, l in zip(mu, lam))
    return make_skew(lam, mu)


class TestMakeSkew:
    def test_basic_cells(self):
        s = make_skew((3, 2), (1,))
        assert s.cells == ((1, 2), (1, 3), (2, 1), (2, 2))
        assert s.n_cells == 4

    def test_empty(self):
        assert make_skew((), ()) == EMPTY_SHAPE
        assert make_skew((2, 2), (2, 2)) == EMPTY_SHAPE

    def test_not_contained(self):
        with pytest.raises(PreconditionError):
            make_skew((2, 1), (3,))

    def test_not_decreasing(self):
        with pytest.raises(PreconditionError):
            make_skew((1, 2))

    def test_non_integer_parts_rejected(self):
        # int() once truncated [2.6, 1.2] to the shape (2,1)/().
        for lam, mu in [((2.6, 1.2), ()), ((3, 2), (1.5,)), (("2", 1), ()), ((2, None), ())]:
            with pytest.raises(PreconditionError, match="non-integer"):
                make_skew(lam, mu)
        assert make_skew((3.0, 2), (np.int64(1),)) == make_skew((3, 2), (1,))

    def test_trailing_zeros_stripped(self):
        assert make_skew((3, 2, 0), (1, 0)) == make_skew((3, 2), (1,))

    def test_leading_empty_rows_kept(self):
        # Rows 1-2 carry no cells but anchor the contents of rows 3-5.
        s = make_skew((6, 6, 6, 5, 3), (6, 6, 4, 2))
        assert s.lam == (6, 6, 6, 5, 3)
        assert s.mu == (6, 6, 4, 2)
        assert content_set(s) == (-4, -3, -2, -1, 0, 1, 2, 3)

    def test_interior_empty_row_kept(self):
        # Row 2 is empty; its lam_2 = mu_2 width is pinned by row 3 below it.
        s = from_cells([(1, 3), (3, 1)])
        assert s.lam == (3, 1, 1)
        assert s.mu == (2, 1)
        assert content_set(s) == (-2, 2)


class TestFromCells:
    def test_roundtrip(self):
        for lam, mu in [((3, 2), (1,)), ((4, 4, 2), (2, 1)), ((5,), ()), ((2, 2, 1), ())]:
            s = make_skew(lam, mu)
            assert from_cells(s.cells) == s

    @given(skew_shapes())
    def test_roundtrip_random(self, s):
        assert from_cells(s.cells) == s

    @given(skew_shapes())
    def test_membership_matches_cells(self, s):
        box = range(0, len(s.lam) + 2)
        cols = range(0, (s.lam[0] if s.lam else 0) + 2)
        inside = {(i, j) for i in box for j in cols if (i, j) in s}
        assert inside == s.cell_set == set(s.cells)

    def test_non_contiguous_row(self):
        with pytest.raises(PreconditionError):
            from_cells([(1, 1), (1, 3)])

    def test_bad_overhang(self):
        # Row 2 sticking out further right than row 1 is not a skew diagram.
        with pytest.raises(PreconditionError):
            from_cells([(1, 1), (2, 1), (2, 2)])


class TestGeometry:
    def test_content(self):
        assert content((3, 5)) == 2
        assert content((4, 1)) == -3

    def test_corners(self):
        s = make_skew((3, 2), (1,))
        assert set(corners(s)) == {(1, 3), (2, 2)}

    def test_edge_connected(self):
        assert is_edge_connected(make_skew((3, 2), (1,)))
        assert not is_edge_connected(make_skew((2, 1), (1,)))
        assert is_edge_connected(EMPTY_SHAPE)

    def test_translate_preserves_contents(self):
        s = make_skew((3, 2), (1,))
        t = translate(s, 2)
        assert content_set(t) == content_set(s)
        assert t.n_cells == s.n_cells
        assert translation_equivalent(s, t)
        assert furthest_left(t) == s

    def test_transpose(self):
        s = make_skew((4, 3, 3, 2, 1), (1,))
        assert transpose_shape(s) == make_skew((5, 4, 3, 1), (1,))
        assert transpose_shape(transpose_shape(s)) == s

    @given(skew_shapes())
    def test_transpose_involution(self, s):
        assert transpose_shape(transpose_shape(s)) == s


class TestTableau:
    def test_entries(self):
        t = Tableau(make_skew((3, 2), (1,)), ((1, 3), (2, 2)))
        assert t.entry((1, 2)) == 1
        assert t.entry((2, 1)) == 2
        assert t.weight == 8

    def test_row_length_mismatch(self):
        with pytest.raises(PreconditionError):
            Tableau(make_skew((3, 2), (1,)), ((1, 3, 1), (2, 2)))

    def test_from_entries_roundtrip(self):
        s = make_skew((3, 2), (1,))
        t = Tableau(s, ((1, 3), (2, 2)))
        assert tableau_from_entries(s, dict(t.entries)) == t

    def test_admissible(self):
        s = make_skew((3, 2), (1,))
        assert is_admissible(Tableau(s, ((1, 2), (1, 3))))
        assert not is_admissible(Tableau(s, ((1, 1), (1, 3))))

    def test_transpose_tableau(self):
        s = make_skew((2, 1))
        t = Tableau(s, ((1, 2), (3,)))
        tt = transpose_tableau(t)
        assert tt.shape == make_skew((2, 1))
        assert tt.entry((1, 2)) == 3
        assert tt.entry((2, 1)) == 2


class TestDiagonalTableau:
    def test_values(self):
        s = make_skew((2, 2))
        d = diagonal_tableau(s, {-1: 2, 0: 1, 1: 3})
        t = d.to_tableau()
        assert t.entry((1, 1)) == 1
        assert t.entry((1, 2)) == 3
        assert t.entry((2, 1)) == 2
        assert t.entry((2, 2)) == 1

    def test_content_mismatch(self):
        with pytest.raises(PreconditionError):
            diagonal_tableau(make_skew((2,)), {0: 1})

    def test_as_diagonal(self):
        s = make_skew((2, 2))
        t = Tableau(s, ((1, 3), (2, 1)))
        assert as_diagonal(t).value_map == {-1: 2, 0: 1, 1: 3}
        bad = Tableau(s, ((1, 3), (2, 2)))
        with pytest.raises(PreconditionError):
            as_diagonal(bad)
