"""Tests for ribbons, decompositions, and the subribbon table.

The 12-cell host (4,3,3,2,1)/(1) with the guide ribbon (6,6,6,5,3)/(6,6,4,2)
is the worked golden case: four pieces of sizes 1, 4, 6, 1.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from schurmzv import ribbons
from schurmzv.errors import PreconditionError
from schurmzv.ribbons import (
    RIGHT,
    UP,
    OutsideDecomposition,
    Ribbon,
    SubribbonStatus,
    anchored_ribbon,
    decomposition_from_ribbon,
    fill_subribbon,
    minimal_containing_ribbon,
    ribbon_matrix,
    ribbon_of,
    subribbon_of,
    fill_ribbon,
    subribbon_table,
)
from schurmzv.shapes import (
    SkewShape,
    content,
    content_set,
    diagonal_tableau,
    from_cells,
    furthest_left,
    is_edge_connected,
    make_skew,
    tableau_from_entries,
    translation_equivalent,
)

from oracles import fill_by_walk, pinned_guide

HOST = make_skew((4, 3, 3, 2, 1), (1,))
GUIDE = ribbon_of(make_skew((6, 6, 6, 5, 3), (6, 6, 4, 2)))


class TestRibbonBasics:
    def test_is_ribbon(self):
        assert ribbon_of(GUIDE.shape) == GUIDE
        assert ribbon_of(make_skew((1,))) == Ribbon((1, 1), ())
        for shape in (
            make_skew((2, 2)),  # 2x2 square
            make_skew(()),
            make_skew((2, 1), (1,)),  # corner-connected only
        ):
            with pytest.raises(PreconditionError, match="not a ribbon"):
                ribbon_of(shape)

    def test_guide_walk(self):
        assert GUIDE.start == (5, 1)
        assert GUIDE.end == (3, 6)
        assert GUIDE.cmin == -4 and GUIDE.cmax == 3
        assert GUIDE.steps == (RIGHT, RIGHT, UP, RIGHT, RIGHT, UP, RIGHT)

    def test_walk_roundtrip(self):
        r = Ribbon(GUIDE.start, GUIDE.steps)
        assert r.shape == make_skew((6, 6, 6, 5, 3), (6, 6, 4, 2))

    def test_anchored_is_furthest_left(self):
        r = anchored_ribbon(-4, GUIDE.steps)
        assert r.shape == GUIDE.shape
        # A single cell of content 2 sits at (1,3).
        assert anchored_ribbon(2, ()).shape.cells == ((1, 3),)
        # A single cell of content -2 sits at (3,1).
        assert anchored_ribbon(-2, ()).shape.cells == ((3, 1),)

    def test_equal_ribbons_are_one_instance(self):
        r = anchored_ribbon(-4, GUIDE.steps)
        assert anchored_ribbon(-4, list(GUIDE.steps)) is r
        assert ribbon_of(r.shape) is r
        assert subribbon_of(GUIDE, -4, 3) is r
        # the shape is derived once per ribbon, and is the shared shape of its lam/mu
        assert r.shape is Ribbon(r.start, r.steps).shape
        assert r.shape is make_skew(r.shape.lam, r.shape.mu)
        assert not hasattr(r, "__dict__") and "_rows" in Ribbon.__slots__
        # a ribbon built directly is the same instance
        assert Ribbon(r.start, r.steps) is r and Ribbon(list(r.start), r.steps) is r

    def test_subribbon_of(self):
        sub = subribbon_of(GUIDE, -4, 0)
        assert content_set(sub.shape) == (-4, -3, -2, -1, 0)
        assert sub.steps == (RIGHT, RIGHT, UP, RIGHT)
        with pytest.raises(PreconditionError):
            subribbon_of(GUIDE, -5, 0)


class TestDecomposeGolden:
    def test_pieces(self):
        theta = decomposition_from_ribbon(HOST, GUIDE)
        assert [p.n_cells for p in theta.pieces] == [1, 4, 6, 1]
        assert set(theta.pieces[0].shape.cells) == {(5, 1)}
        assert set(theta.pieces[1].shape.cells) == {(4, 1), (4, 2), (3, 2), (3, 3)}
        assert set(theta.pieces[2].shape.cells) == {
            (3, 1), (2, 1), (2, 2), (2, 3), (1, 3), (1, 4),
        }
        assert set(theta.pieces[3].shape.cells) == {(1, 2)}

    def test_minimal_ribbon_roundtrip(self):
        theta = decomposition_from_ribbon(HOST, GUIDE)
        assert minimal_containing_ribbon(theta).shape == GUIDE.shape

    def test_guide_stored_furthest_left(self):
        far = Ribbon((GUIDE.start[0] + 3, GUIDE.start[1] + 3), GUIDE.steps)
        theta = decomposition_from_ribbon(HOST, far)
        assert theta.guide == GUIDE
        assert theta == decomposition_from_ribbon(HOST, GUIDE)
        assert hash(theta) == hash(decomposition_from_ribbon(HOST, GUIDE))

    def test_content_mismatch_rejected(self):
        short = anchored_ribbon(-1, (UP,))  # 2-cell column, contents {-1,0}
        with pytest.raises(PreconditionError):
            decomposition_from_ribbon(make_skew((2, 2)), short)

    def test_disconnected_host_rejected(self):
        host = make_skew((2, 1), (1,))
        r = anchored_ribbon(-1, (UP, UP))
        with pytest.raises(PreconditionError):
            decomposition_from_ribbon(host, r)
        # Connectivity is checked before the contents, so it is named.
        with pytest.raises(PreconditionError, match="edge-connected"):
            OutsideDecomposition(host, r)

    def test_empty_host_rejected(self):
        with pytest.raises(PreconditionError):
            decomposition_from_ribbon(make_skew(()), anchored_ribbon(0, ()))
        with pytest.raises(PreconditionError, match="nonempty"):
            OutsideDecomposition(make_skew(()), anchored_ribbon(0, ()))

    def test_one_connectivity_check_per_decomposition(self, monkeypatch):
        calls = []

        def spy(shape):
            calls.append(shape)
            return is_edge_connected(shape)

        monkeypatch.setattr(ribbons, "is_edge_connected", spy)
        theta = decomposition_from_ribbon(HOST, GUIDE)
        ribbon_matrix(theta, lambda p, q, r: 1, 0, 1)
        assert calls == [HOST]

    def test_host_itself_a_ribbon(self):
        host = make_skew((3, 1))
        theta = decomposition_from_ribbon(host, ribbon_of(host))
        assert theta.n_pieces == 1
        assert theta.pieces[0].shape == host


class TestColumnRowDecompositions:
    def test_column_decomposition_of_square(self):
        host = make_skew((2, 2))
        col = anchored_ribbon(-1, (UP, UP))
        theta = decomposition_from_ribbon(host, col)
        assert [set(p.shape.cells) for p in theta.pieces] == [
            {(2, 1), (1, 1)},
            {(2, 2), (1, 2)},
        ]
        # The containing ribbon is the column of 3 spanning contents {-1,0,1}.
        r = minimal_containing_ribbon(theta)
        assert r.steps == (UP, UP)
        assert content_set(r.shape) == (-1, 0, 1)

    def test_row_decomposition_of_square(self):
        host = make_skew((2, 2))
        row = anchored_ribbon(-1, (RIGHT, RIGHT))
        theta = decomposition_from_ribbon(host, row)
        assert [set(p.shape.cells) for p in theta.pieces] == [
            {(2, 1), (2, 2)},
            {(1, 1), (1, 2)},
        ]
        assert minimal_containing_ribbon(theta).steps == (RIGHT, RIGHT)


class TestSubribbonTable:
    def test_golden_statuses(self):
        theta = decomposition_from_ribbon(HOST, GUIDE)
        table = subribbon_table(theta)
        assert table.n == 4
        # Content intervals: pieces span [-4,-4], [-3,0], [-2,3], [1,1].
        assert table.entry(2, 1).status is SubribbonStatus.EMPTY   # [-3,-4]
        assert table.entry(4, 2).status is SubribbonStatus.EMPTY   # [1,0]
        assert table.entry(3, 1).status is SubribbonStatus.UNDEFINED  # [-2,-4]
        assert table.entry(4, 1).status is SubribbonStatus.UNDEFINED  # [1,-4]
        assert table.count(SubribbonStatus.EMPTY) == 2
        assert table.count(SubribbonStatus.UNDEFINED) == 2
        assert table.count(SubribbonStatus.DEFINED) == 12

    def test_golden_defined_entries(self):
        theta = decomposition_from_ribbon(HOST, GUIDE)
        table = subribbon_table(theta)
        # (1,3) spans the full content range, so it is the whole ribbon.
        assert table.entry(1, 3).ribbon.shape == GUIDE.shape
        # Diagonal entries are translates of the pieces themselves.
        for i, p in enumerate(theta.pieces, start=1):
            assert translation_equivalent(table.entry(i, i).ribbon.shape, p.shape)
        # (1,2) spans [-4,0]: two rows of 2 and 3 cells.
        r12 = table.entry(1, 2).ribbon
        assert content_set(r12.shape) == (-4, -3, -2, -1, 0)
        assert r12.steps == (RIGHT, RIGHT, UP, RIGHT)
        # (4,3) spans [1,3]: an up-right staircase of 3 cells.
        r43 = table.entry(4, 3).ribbon
        assert content_set(r43.shape) == (1, 2, 3)
        assert r43.steps == (UP, RIGHT)

    def test_fill_golden(self):
        theta = decomposition_from_ribbon(HOST, GUIDE)
        table = subribbon_table(theta)
        k = diagonal_tableau(
            HOST,
            {-4: 3, -3: 7, -2: 4, -1: 6, 0: 3, 1: 2, 2: 1, 3: 5},
        )
        t12 = fill_subribbon(k, table.entry(1, 2))
        assert t12.rows[-2:] == ((6, 3), (3, 7, 4))
        t33 = fill_subribbon(k, table.entry(3, 3))
        assert t33.rows[-3:] == ((1, 5), (6, 3, 2), (4,))
        assert fill_subribbon(k, table.entry(2, 1)) is SubribbonStatus.EMPTY
        assert fill_subribbon(k, table.entry(4, 1)) is SubribbonStatus.UNDEFINED

    def test_ribbon_matrix_follows_the_table(self):
        theta = decomposition_from_ribbon(HOST, GUIDE)
        table = subribbon_table(theta)
        zero, one = object(), object()
        calls = []

        def entry(p, q, r):
            calls.append((p, q))
            assert r.shape == GUIDE.shape
            return subribbon_of(r, p, q)

        mat = ribbon_matrix(theta, entry, zero, one)
        assert len(mat) == 4 and all(len(row) == 4 for row in mat)
        for i in range(1, 5):
            for j in range(1, 5):
                e, got = table.entry(i, j), mat[i - 1][j - 1]
                if e.status is SubribbonStatus.EMPTY:
                    assert got is one
                elif e.status is SubribbonStatus.UNDEFINED:
                    assert got is zero
                else:
                    assert (got.cmin, got.cmax) == (e.ribbon.cmin, e.ribbon.cmax)
                    assert got.shape == e.ribbon.shape
        # once per distinct interval, in row-major order
        assert calls == [
            (p, q) for p in (-4, -3, -2, 1) for q in (-4, 0, 3, 1) if p <= q
        ]
        assert len(set(calls)) == len(calls) == table.count(SubribbonStatus.DEFINED)


def grow_connected_shape(n, pick):
    """Grow an edge-connected skew shape from (4, 4) in n - 1 tries.

    ``pick`` chooses each try's cell from the sorted frontier; a try that
    would leave the skew shapes or disconnect the cells is skipped.
    """
    cells = {(4, 4)}
    for _ in range(n - 1):
        frontier = sorted(
            {
                nb
                for (i, j) in cells
                for nb in ((i - 1, j), (i + 1, j), (i, j - 1), (i, j + 1))
                if nb not in cells and nb[0] > 0 and nb[1] > 0
            }
        )
        cand = cells | {pick(frontier)}
        try:
            s = from_cells(cand)
        except PreconditionError:
            continue
        if is_edge_connected(s):
            cells = cand
    return from_cells(cells)


@st.composite
def connected_skew_shapes(draw, max_cells=8):
    """Grow a random edge-connected skew shape cell by cell."""
    n = draw(st.integers(1, max_cells))
    return grow_connected_shape(n, lambda fr: fr[draw(st.integers(0, len(fr) - 1))])


def assert_outside_decomposition(theta):
    """The conditions the piece-list constructor used to check, and the
    direction pinning that found the guide from the pieces."""
    host, hs = theta.host, theta.host.cell_set
    assert pinned_guide(host, theta.pieces) == theta.guide
    # the pieces partition the host, each from the left or bottom perimeter
    # to the right or top perimeter
    got = sorted(c for p in theta.pieces for c in p.shape.cells)
    assert got == sorted(host.cells)
    for p in theta.pieces:
        (si, sj), (ei, ej) = p.start, p.end
        assert (si, sj - 1) not in hs or (si + 1, sj) not in hs
        assert (ei, ej + 1) not in hs or (ei - 1, ej) not in hs


class TestRoundTripProperty:
    @settings(max_examples=60, deadline=None)
    @given(connected_skew_shapes(), st.data())
    def test_decompose_then_reconstruct(self, host, data):
        span = content_set(host)
        steps = tuple(
            data.draw(st.sampled_from([UP, RIGHT]))
            for _ in range(span[-1] - span[0])
        )
        guide = anchored_ribbon(span[0], steps)
        theta = decomposition_from_ribbon(host, guide)
        assert minimal_containing_ribbon(theta) == theta.guide == guide
        assert_outside_decomposition(theta)

    @settings(max_examples=60, deadline=None)
    @given(connected_skew_shapes(), st.data())
    def test_each_defined_interval_occurs_once(self, host, data):
        # ribbon_matrix keeps no memo: it relies on the pieces starting on
        # distinct diagonals and ending on distinct diagonals.
        span = content_set(host)
        steps = tuple(
            data.draw(st.sampled_from([UP, RIGHT]))
            for _ in range(span[-1] - span[0])
        )
        theta = decomposition_from_ribbon(host, anchored_ribbon(span[0], steps))
        assert_outside_decomposition(theta)
        assert len({p.cmin for p in theta.pieces}) == theta.n_pieces
        assert len({p.cmax for p in theta.pieces}) == theta.n_pieces
        calls = []
        ribbon_matrix(theta, lambda p, q, r: calls.append((p, q)), 0, 1)
        assert len(set(calls)) == len(calls)
        assert len(calls) == subribbon_table(theta).count(SubribbonStatus.DEFINED)


def walk_cells(start, steps):
    """The cells a U/R walk visits, listed one by one (the oracle)."""
    cells = [start]
    for s in steps:
        i, j = cells[-1]
        cells.append((i - 1, j) if s == UP else (i, j + 1))
    return cells


def cell_ribbon(cells):
    """A ribbon through the validating path: from_cells, then ribbon_of."""
    return ribbon_of(from_cells(cells))


def assert_same_ribbon(got, want):
    assert got.shape == want.shape
    assert got.steps == want.steps
    assert (got.start, got.end) == (want.start, want.end)
    assert (got.cmin, got.cmax) == (want.cmin, want.cmax)
    assert got == want and hash(got) == hash(want)


def random_walks(seed, n):
    rng = random.Random(seed)
    for _ in range(n):
        steps = tuple(rng.choice((UP, RIGHT)) for _ in range(rng.randint(0, 10)))
        yield rng, rng.randint(-6, 6), steps


class TestWalkOracle:
    """Walk-built ribbons against the cell-set path they replace."""

    def test_walk_constructor(self):
        for rng, cmin, steps in random_walks(1201, 400):
            ups = steps.count(UP)
            i0 = max(ups + 1, 1 - cmin) + rng.randint(0, 3)
            start = (i0, i0 + cmin)
            assert_same_ribbon(
                Ribbon(start, steps), cell_ribbon(walk_cells(start, steps))
            )
            # rows above a top run below row 1 are padding
            assert Ribbon(start, steps).shape is from_cells(walk_cells(start, steps))

    def test_anchored_and_every_subribbon(self):
        for rng, cmin, steps in random_walks(1202, 150):
            far = (20, 20 + cmin)  # any legal start; the oracle slides it left
            r = anchored_ribbon(cmin, steps)
            assert_same_ribbon(r, ribbon_of(furthest_left(from_cells(walk_cells(far, steps)))))
            cells = sorted(walk_cells(far, steps), key=content)
            for p in range(r.cmin, r.cmax + 1):
                for q in range(p, r.cmax + 1):
                    sub = [c for c in cells if p <= content(c) <= q]
                    assert_same_ribbon(
                        subribbon_of(r, p, q), ribbon_of(furthest_left(from_cells(sub)))
                    )

    def test_decomposition_pieces_are_their_chains(self):
        rng = random.Random(1203)
        for _ in range(150):
            host = grow_connected_shape(rng.randint(1, 10), rng.choice)
            span = content_set(host)
            steps = tuple(rng.choice((UP, RIGHT)) for _ in range(span[-1] - span[0]))
            guide = anchored_ribbon(span[0], steps)
            # Follow the guide's direction on each diagonal from every host
            # cell that no host cell leads into.
            dirs = dict(zip(range(span[0], span[-1]), steps))
            succ = {}
            for c in host.cells:
                if content(c) in dirs:
                    nxt = walk_cells(c, (dirs[content(c)],))[1]
                    if nxt in host.cell_set:
                        succ[c] = nxt
            chains = []
            for c in sorted(set(host.cells) - set(succ.values())):
                chain = [c]
                while chain[-1] in succ:
                    chain.append(succ[chain[-1]])
                chains.append(chain)
            chains.sort(key=lambda ch: (content(ch[0]), -ch[0][0]))
            pieces = decomposition_from_ribbon(host, guide).pieces
            assert len(pieces) == len(chains)
            for piece, chain in zip(pieces, chains):
                assert_same_ribbon(piece, cell_ribbon(chain))

    def test_fill_ribbon_matches_cell_map(self):
        # empty rows below the cells: the shape is read off the walk,
        # in canonical form, without them
        extra = [ribbon_of(SkewShape._make((3, 2, 2), (1, 2, 2)))]
        assert extra[0].shape == SkewShape((3,), (1,))
        for rng, cmin, steps in random_walks(1204, 300):
            r = anchored_ribbon(cmin, steps)
            shifted = cell_ribbon(walk_cells((r.start[0] + 2, r.start[1] + 2), steps))
            for ribbon in [r, shifted] + extra:
                values = {c: rng.randint(1, 9) for c in range(ribbon.cmin, ribbon.cmax + 1)}
                k = diagonal_tableau(ribbon.shape, values)
                want = tableau_from_entries(
                    ribbon.shape, {c: values[content(c)] for c in ribbon.shape.cells}
                )
                assert fill_ribbon(k, ribbon) == want

    def test_fill_ribbon_missing_contents(self):
        r = anchored_ribbon(-1, (UP, RIGHT, RIGHT))
        k = diagonal_tableau(make_skew((1,)), {0: 2})
        with pytest.raises(PreconditionError, match=r"contents \[-1, 1, 2\]"):
            fill_ribbon(k, r)

    @pytest.mark.parametrize("lam", [(4, 1), (5, 1)])
    def test_fill_ribbon_refuses_a_gap_in_the_host(self, lam):
        # lam/(2) has contents -1 and 2..lam[0]-1: a ribbon over -1..2 lands
        # on host contents at both ends but not in between; on (5,1)/(2)
        # the host has as many contents from -1 on as the ribbon has cells
        shape = make_skew(lam, (2,))
        k = diagonal_tableau(shape, {c: 1 + 2 * (c % 2) for c in content_set(shape)})
        r = anchored_ribbon(-1, (RIGHT, UP, RIGHT))
        with pytest.raises(PreconditionError, match=r"contents \[0, 1\]$"):
            fill_ribbon(k, r)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_fill_ribbon_matches_the_walk(self, data):
        host = data.draw(connected_skew_shapes(max_cells=10))
        span = content_set(host)
        steps = data.draw(
            st.lists(st.sampled_from((UP, RIGHT)), min_size=len(span) - 1, max_size=len(span) - 1)
        )
        guide = anchored_ribbon(span[0], tuple(steps))
        values = data.draw(st.lists(st.integers(1, 9), min_size=len(span), max_size=len(span)))
        k = diagonal_tableau(host, dict(zip(span, values)))
        for p in span:
            for q in span[span.index(p):]:
                sub = subribbon_of(guide, p, q)
                assert fill_ribbon(k, sub) == fill_by_walk(k, sub)

    @pytest.mark.parametrize(
        "start, steps",
        [
            ((0, 2), ()),
            ((2, 0), (RIGHT,)),
            ((-1, -1), (RIGHT, RIGHT)),
            ((2, 1), (UP, UP)),
            ((3, 5), (RIGHT, UP, UP, UP)),
        ],
    )
    def test_walk_outside_the_quadrant(self, start, steps):
        with pytest.raises(PreconditionError):
            from_cells(walk_cells(start, steps))
        with pytest.raises(PreconditionError):
            Ribbon(start, steps)

    @pytest.mark.parametrize(
        "build",
        [
            # int() once moved this start to (2, 1)
            lambda: Ribbon((2.7, 1.2), (UP,)),
            # the third coordinate was dropped
            lambda: Ribbon((2, 1, 1), (UP,)),
            lambda: Ribbon((2,), (UP,)),
            lambda: Ribbon(("2", "1"), (UP,)),
            # the content was truncated to 0
            lambda: anchored_ribbon(0.5, (UP,)),
            lambda: anchored_ribbon("0", (UP,)),
            lambda: subribbon_of(GUIDE, 0.5, 2),
        ],
    )
    def test_coordinates_follow_the_partition_rule(self, build):
        with pytest.raises(PreconditionError):
            build()

    def test_integral_coordinates_are_read_as_ints(self):
        r = Ribbon((2, 1), (UP,))
        assert Ribbon((2.0, np.int64(1)), [UP]) is r
        assert type(r.start[0]) is int
        assert anchored_ribbon(np.int64(-1), (UP,)) is anchored_ribbon(-1, (UP,))
        sub = subribbon_of(GUIDE, np.int64(-2), np.int64(1))
        assert sub is subribbon_of(GUIDE, -2, 1)
        assert all(type(x) is int for x in sub.start)

    @pytest.mark.parametrize("steps", [("X",), (UP, "u"), (RIGHT, "UR")])
    def test_unknown_step_letter(self, steps):
        with pytest.raises(PreconditionError):
            Ribbon((5, 5), steps)
        with pytest.raises(PreconditionError):
            anchored_ribbon(0, steps)
