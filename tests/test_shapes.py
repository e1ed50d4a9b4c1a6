"""Tests for skew shapes, canonicalisation and tableaux."""

import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

import schurmzv
from schurmzv.errors import PreconditionError
from schurmzv.record import MEMO_SIZE
from schurmzv.shapes import (
    EMPTY_SHAPE,
    DiagonalTableau,
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
    Tableau,
)

from oracles import (
    corners_by_neighbours,
    edge_connected_by_search,
    transpose_shape,
    transpose_tableau,
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
def raw_skew_shapes(draw, max_len=5, max_part=6):
    """``lam/mu`` as drawn, not canonicalised: an empty row keeps the
    ``lam_i = mu_i`` it was drawn with, and ``mu`` may end in zeros."""
    lam = draw(partitions(max_len, max_part))
    mu = sorted((draw(st.integers(0, l)) for l in lam), reverse=True)
    return SkewShape._make(lam, tuple(min(m, l) for m, l in zip(mu, lam)))


def skew_shapes(max_len=5, max_part=6):
    return raw_skew_shapes(max_len, max_part).map(lambda s: make_skew(s.lam, s.mu))


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

    def test_class_call_checks_and_canonicalises(self):
        # the class call once gave n_cells == -2 for (1,2)/(5)
        for lam, mu in [((1, 2), (5,)), ((2,), (3,)), ((2.5,), ())]:
            with pytest.raises(PreconditionError):
                SkewShape(lam, mu)
        assert SkewShape([3, 2, 0], (1, 0)) is make_skew((3, 2), (1,))
        assert SkewShape((2, 2), (2, 2)) is EMPTY_SHAPE

    def test_leading_empty_rows_kept(self):
        # Rows 1-2 carry no cells but anchor the contents of rows 3-5.
        s = make_skew((6, 6, 6, 5, 3), (6, 6, 4, 2))
        assert s.lam == (6, 6, 6, 5, 3)
        assert s.mu == (6, 6, 4, 2)
        assert content_set(s) == (-4, -3, -2, -1, 0, 1, 2, 3)

    @given(raw_skew_shapes())
    def test_canonical_form_is_that_of_the_cells(self, s):
        assert make_skew(s.lam, s.mu) is from_cells(s.cells)

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
        assert from_cells(s.cells) is s

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

    def test_coordinates_follow_the_partition_rule(self):
        # int() once truncated (1, 1.5) to (1, 1) and parsed ("1", "1"); a
        # triple raised a bare ValueError
        for cells in ([(1, 1.5), (1, 2)], [("1", "1")], [(1, 2, 3)], [(1,)], [(1, None)]):
            with pytest.raises(PreconditionError):
                from_cells(cells)
        assert from_cells([(1.0, np.int64(1)), (1, 2), (2, 1)]) is make_skew((2, 1))


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

    def test_empty_interior_row(self):
        s = make_skew((3, 2, 2), (2, 2))
        assert s.lam[1] == s.mu[1]
        assert corners(s) == ((1, 3), (3, 2))
        assert not is_edge_connected(s)
        assert is_edge_connected(make_skew((3, 2, 2), (1, 1)))

    @given(st.one_of(skew_shapes(), raw_skew_shapes()))
    def test_corners_match_neighbour_scan(self, s):
        assert corners(s) == corners_by_neighbours(s)

    @given(st.one_of(skew_shapes(), raw_skew_shapes()))
    def test_edge_connected_matches_search(self, s):
        assert is_edge_connected(s) == edge_connected_by_search(s)

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
        assert list(t.entries.items()) == [((1, 2), 1), ((1, 3), 3), ((2, 1), 2), ((2, 2), 2)]
        for off_shape in ((1, 1), (2, 3), (3, 1), (0, 2)):
            with pytest.raises(KeyError):
                t.entry(off_shape)

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
        for by_content in ({0: 1, 1: 1, 2: 1}, {-1: 1, 0: 1}, {}):
            with pytest.raises(PreconditionError, match="do not match"):
                diagonal_tableau(make_skew((2,)), by_content)
        with pytest.raises(PreconditionError, match="do not match"):
            DiagonalTableau(make_skew((2,)), (1,))

    @pytest.mark.parametrize("bad", [0, -2, 2.0, 2.5, "2", None])
    def test_entries_must_be_positive_ints(self, bad):
        with pytest.raises(PreconditionError, match="positive integers"):
            diagonal_tableau(make_skew((2,)), {0: 1, 1: bad})
        with pytest.raises(PreconditionError, match="positive integers"):
            DiagonalTableau(make_skew((2,)), (bad, 1))

    @given(skew_shapes(), st.randoms(use_true_random=False))
    def test_views_round_trip(self, s, rng):
        by_content = {c: rng.randint(1, 4) for c in content_set(s)}
        d = diagonal_tableau(s, by_content)
        assert d.by_content == tuple(sorted(by_content.items()))
        assert d.value_map == by_content
        assert diagonal_tableau(s, dict(d.by_content)) == d
        assert diagonal_tableau(s, d.value_map) == d
        assert DiagonalTableau(s, d.values) == d
        t = d.to_tableau()
        assert t.entries == {c: by_content[content(c)] for c in s.cells}
        assert as_diagonal(t) == d

    def test_as_diagonal(self):
        s = make_skew((2, 2))
        t = Tableau(s, ((1, 3), (2, 1)))
        assert as_diagonal(t).value_map == {-1: 2, 0: 1, 1: 3}
        bad = Tableau(s, ((1, 3), (2, 2)))
        with pytest.raises(PreconditionError):
            as_diagonal(bad)


class TestDerivedMemo:
    """Equal shapes and equal diagonal tableaux are one instance;
    content_set is a slot derived once on it, while cells and value_map are
    built on each read, so a kept instance holds no copy of them."""

    def test_equal_shapes_keep_no_cells_copy(self):
        a, b = make_skew((3, 2), (1,)), SkewShape((3, 2), (1,))
        assert a is b and a.cells == b.cells
        assert not hasattr(a, "__dict__") and a._fields == ("lam", "mu")
        assert a.__slots__ == ("lam", "mu", "_content_set")

    def test_equal_tableaux_are_one_instance_with_a_read_only_value_map(self):
        s = make_skew((2, 2))
        a = diagonal_tableau(s, {-1: 2, 0: 1, 1: 3})
        b = diagonal_tableau(s, {1: 3, 0: 1, -1: 2})
        assert a is b and a.value_map == b.value_map == {-1: 2, 0: 1, 1: 3}
        assert [a.value_at(c) for c in (-1, 0, 1)] == [2, 1, 3]
        with pytest.raises(KeyError):
            a.value_at(2)
        assert a.values == (2, 1, 3)
        assert a is b and not hasattr(a, "__dict__")
        assert a._fields == ("shape", "values")
        with pytest.raises(TypeError):
            a.value_map[0] = 5

    def test_equal_shapes_are_one_instance(self):
        a = make_skew((3, 2), (1,))
        assert make_skew([3, 2, 0], (1, 0)) is a
        assert from_cells(reversed(a.cells)) is a
        assert content_set(make_skew((3, 2), (1,))) is content_set(a)
        # the empty rows above a nonempty one are anchored below
        assert make_skew((4, 2), (4,)) is make_skew((2, 2), (2,))
        assert make_skew((2, 1), (2, 1)) is EMPTY_SHAPE

    def test_empty_shape_after_clear_caches(self):
        schurmzv.clear_caches()
        assert make_skew((2, 1), (2, 1)) is EMPTY_SHAPE
        assert from_cells(()) is EMPTY_SHAPE
        assert make_skew((), ()) is EMPTY_SHAPE

    def test_diagonal_tableau_stores_values_by_content(self):
        s = make_skew((3, 1), (1,))  # contents -1, 1, 2: not consecutive
        d = diagonal_tableau(s, {2: 3, -1: 1, 1: 2})
        assert content_set(s) == (-1, 1, 2)
        assert d.values == (1, 2, 3)
        assert d.by_content == ((-1, 1), (1, 2), (2, 3))
        assert d.to_tableau().rows == ((2, 3), (1,))

    def test_tableau_memory_per_value(self):
        # a tableau keeps one values tuple beside its shared shape, not a
        # tuple of (content, value) pairs: about 45 B per value against 82
        rng = random.Random(5)
        shapes = []
        while len(shapes) < 20:
            lam = sorted((rng.randint(1, 4) for _ in range(rng.randint(1, 4))), reverse=True)
            if make_skew(lam) not in shapes:
                shapes.append(make_skew(lam))
        draws = [{c: rng.randint(1, 3) for c in content_set(s)} for s in shapes * 100]
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            kept = [diagonal_tableau(s, d) for s, d in zip(shapes * 100, draws)]
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        n_values = sum(len(k.values) for k in kept)
        assert retained < 64 * n_values, retained / n_values

    def test_memo_is_bounded(self):
        for n in range(2 * MEMO_SIZE):
            assert SkewShape((n + 1,), (n,)).cells == ((1, n + 1),)
        assert SkewShape.cache_info().currsize == MEMO_SIZE
        assert make_skew((2, 1)).cells == ((1, 1), (1, 2), (2, 1))

