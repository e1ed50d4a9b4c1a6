import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from schurmzv import checkerboard as checkerboard_module
from schurmzv.checkerboard import (
    StairKind,
    _column_value,
    _stair_13,
    alpha,
    check_checkerboard,
    closed_form_12,
    closed_form_13,
    evaluate_checkerboard_13,
    evaluate_checkerboard_13_column,
    l12,
    reg13_formulas,
    stair_cut,
    stair_tableau,
    tessellation_check,
    zeta_13,
    zeta_3_13,
)
from schurmzv.errors import PreconditionError
from schurmzv.mzv import (
    EULER_GAMMA,
    expand_tableau,
    numeric_mzv,
    richardson_extrapolate,
    truncated_mzv_float,
)
from schurmzv.shapes import content_set, diagonal_tableau, is_edge_connected, make_skew
from schurmzv.stuffle import eval_tpoly, schur_regularize
from schurmzv.symbolic import (
    ZetaSymbolValue,
    numeric_value,
    sym_det,
)

from oracles import (
    alpha_by_bernoulli,
    checkerboard_value_is_consistent,
    g13,
    homogeneous_weight,
    is_checkerboard,
    parity_by_shape,
    pieces_walk_their_stairs,
    sstar13_bernoulli,
    zeta_four_block_star,
)
from test_ribbons import connected_skew_shapes

P = ZetaSymbolValue.P
T = ZetaSymbolValue.T
Z = ZetaSymbolValue.Z


def checkerboard(lam, mu=(), *, even=3, odd=1):
    """Diagonal tableau on lam/mu with the given values by content parity."""
    shape = make_skew(lam, mu)
    values = {c: (even if c % 2 == 0 else odd) for c in content_set(shape)}
    return diagonal_tableau(shape, values)


class TestStairKind:
    def test_rejects_unknown_kind(self):
        with pytest.raises(PreconditionError):
            StairKind("Q", 1, 3, 1)

    def test_rejects_negative_n(self):
        with pytest.raises(PreconditionError):
            StairKind("A", 1, 3, -1)

    @pytest.mark.parametrize(
        "fields",
        [
            # stair_tableau once filled this with (1.5, 3, 1.5)
            ("A", 1.5, 3, 1),
            ("A", 1, 3.0, 1),
            ("B", 1, "3", 1),
            # n_cells once read 4.0
            ("A", 1, 3, 1.5),
            ("A", 1, 3, "1"),
        ],
    )
    def test_entries_and_pair_count_are_integers(self, fields):
        with pytest.raises(PreconditionError):
            StairKind(*fields)

    def test_integral_pair_count_is_read_as_an_int(self):
        kind = StairKind("A", 1, 3, 2.0)
        assert kind == StairKind("A", 1, 3, 2) and type(kind.n) is int
        assert kind.n_cells == 5

    def test_cell_counts(self):
        assert StairKind("A", 1, 3, 2).n_cells == 5
        assert StairKind("S", 1, 3, 2).n_cells == 4


class TestCheckerboardPredicate:
    def test_accepts_alternation(self):
        assert is_checkerboard(checkerboard((3, 3, 3)))

    def test_rejects_repeated_neighbour(self):
        shape = make_skew((2, 1))
        t = diagonal_tableau(shape, {-1: 1, 0: 1, 1: 3})
        assert not is_checkerboard(t)
        with pytest.raises(PreconditionError):
            check_checkerboard(t)

    def test_value_pair(self):
        assert check_checkerboard(checkerboard((3, 3, 3))) == (1, 3)
        assert check_checkerboard(checkerboard((2, 2), even=2, odd=1)) == (1, 2)


class TestStairTableau:
    def test_a1_is_the_small_hook(self):
        t = stair_tableau(StairKind("A", 1, 3, 1))
        assert (t.shape.lam, t.shape.mu) == ((2, 2), (1,))
        assert dict(t.by_content) == {-1: 1, 0: 3, 1: 1}

    def test_b1_matches_the_displayed_hook(self):
        t = stair_tableau(StairKind("B", 1, 3, 1))
        assert (t.shape.lam, t.shape.mu) == ((2, 1), ())
        tab = t.to_tableau()
        assert tab.entry((1, 1)) == 1
        assert tab.entry((1, 2)) == 3
        assert tab.entry((2, 1)) == 3

    def test_s1_is_the_column(self):
        t = stair_tableau(StairKind("S", 1, 3, 1))
        assert (t.shape.lam, t.shape.mu) == ((1, 1), ())
        tab = t.to_tableau()
        assert (tab.entry((1, 1)), tab.entry((2, 1))) == (1, 3)

    def test_sstar1_is_the_row(self):
        t = stair_tableau(StairKind("SStar", 1, 3, 1))
        assert (t.shape.lam, t.shape.mu) == ((2,), ())
        tab = t.to_tableau()
        assert (tab.entry((1, 1)), tab.entry((1, 2))) == (1, 3)

    def test_degenerate_boxes(self):
        assert dict(stair_tableau(StairKind("A", 1, 3, 0)).by_content) == {0: 1}
        assert dict(stair_tableau(StairKind("B", 1, 3, 0)).by_content) == {0: 3}

    def test_empty_stairs_rejected(self):
        for kind in ("S", "SStar"):
            with pytest.raises(PreconditionError):
                stair_tableau(StairKind(kind, 1, 3, 0))


class TestClosedForm13:
    def test_goldens(self):
        assert closed_form_13(StairKind("B", 1, 3, 1)) == Z(7) * Fraction(1, 4)
        assert closed_form_13(StairKind("A", 1, 3, 2)) == Z(9) * Fraction(1, 8)
        assert closed_form_13(StairKind("SStar", 1, 3, 1)) == P() * Fraction(1, 72)
        assert closed_form_13(StairKind("A", 1, 3, 1)) == Z(5) * Fraction(1, 2)
        assert closed_form_13(StairKind("S", 1, 3, 1)) == P() * Fraction(1, 360)

    def test_degenerate_conventions(self):
        assert closed_form_13(StairKind("A", 1, 3, 0)) == T()
        assert closed_form_13(StairKind("B", 1, 3, 0)) == Z(3)
        assert closed_form_13(StairKind("S", 1, 3, 0)) == ZetaSymbolValue.one()
        assert closed_form_13(StairKind("SStar", 1, 3, 0)) == ZetaSymbolValue.one()

    def test_s_equals_quarter_star_blocks(self):
        for n in range(1, 5):
            expected = zeta_four_block_star(n) * Fraction(1, 4**n)
            assert closed_form_13(StairKind("S", 1, 3, n)) == expected

    def test_wrong_entries_rejected(self):
        with pytest.raises(PreconditionError):
            closed_form_13(StairKind("A", 1, 2, 1))


class TestSStarBernoulli:
    def test_matches_convolution_exactly(self):
        for n in range(1, 9):
            assert sstar13_bernoulli(n) == closed_form_13(StairKind("SStar", 1, 3, n))

    def test_n1_value(self):
        assert sstar13_bernoulli(1) == P() * Fraction(1, 72)

    def test_requires_positive_n(self):
        with pytest.raises(PreconditionError):
            sstar13_bernoulli(0)


class TestColumnFamilies:
    def test_zeta_13_values(self):
        assert zeta_13(0) == ZetaSymbolValue.one()
        assert zeta_13(1) == P() * Fraction(1, 360)
        assert zeta_13(2) == P() ** 2 * Fraction(2, math.factorial(10))

    def test_zeta_3_13_values(self):
        assert zeta_3_13(0) == Z(3)
        assert zeta_3_13(1) == Z(3) * Fraction(1, 360) * P() - Z(7) * Fraction(1, 4)

    def test_zeta_3_13_numeric(self):
        got = numeric_value(zeta_3_13(1))
        want = numeric_mzv((3, 1, 3))
        assert got == pytest.approx(want, abs=1e-8)


@pytest.mark.parametrize(
    "f", [zeta_13, zeta_3_13, reg13_formulas, l12, alpha], ids=lambda f: f.__name__
)
def test_pair_counts_follow_the_integer_rule(f):
    for bad in (1.5, "2"):
        with pytest.raises(PreconditionError):
            f(bad)
    # past the cache, where the pair count is read
    assert getattr(f, "__wrapped__", f)(2.0) == f(2)


class TestReg13Formulas:
    def test_n0(self):
        first, second = reg13_formulas(0)
        assert first == T()
        assert second == ZetaSymbolValue.one()

    def test_first_n1(self):
        first, _ = reg13_formulas(1)
        assert first == P() * Fraction(1, 360) * T() - Z(5) * Fraction(1, 2)

    def test_second_n1(self):
        _, second = reg13_formulas(1)
        assert second == Z(3) * T() - P() * Fraction(1, 72)

    @pytest.mark.parametrize("t_value", [0, 1])
    def test_first_tracks_column_regularization(self, t_value):
        # The 3-cell column holding 1, 3, 1 regularizes to the same
        # T-polynomial as the closed form, here compared numerically.
        first, _ = reg13_formulas(1)
        shape = make_skew((1, 1, 1))
        column = diagonal_tableau(shape, {0: 1, -1: 3, -2: 1})
        reg = schur_regularize(column.to_tableau())
        got = eval_tpoly(reg, t_value)
        want = numeric_value(first, t_value=float(t_value))
        assert got == pytest.approx(want, abs=1e-6)

    @pytest.mark.parametrize("t_value", [0, 1])
    def test_second_tracks_column_regularization(self, t_value):
        _, second = reg13_formulas(1)
        shape = make_skew((1, 1))
        column = diagonal_tableau(shape, {0: 3, -1: 1})
        reg = schur_regularize(column.to_tableau())
        got = eval_tpoly(reg, t_value)
        want = numeric_value(second, t_value=float(t_value))
        assert got == pytest.approx(want, abs=1e-6)

    def test_second_n2_numeric(self):
        # Depth-4 column (3,1,3,1): closed form against direct
        # regularization of the column tableau.
        _, second = reg13_formulas(2)
        shape = make_skew((1, 1, 1, 1))
        column = diagonal_tableau(shape, {0: 3, -1: 1, -2: 3, -3: 1})
        reg = schur_regularize(column.to_tableau())
        got = eval_tpoly(reg, 0)
        want = numeric_value(second, t_value=0.0)
        assert got == pytest.approx(want, abs=1e-6)


class TestClosedForm12:
    def test_a_family(self):
        assert closed_form_12(StairKind("A", 1, 2, 1)) == P() * Fraction(1, 30)
        assert closed_form_12(StairKind("A", 1, 2, 2)) == Z(7) * 3
        assert closed_form_12(StairKind("A", 1, 2, 0)) == T()

    def test_a_even_weight_rejected(self):
        with pytest.raises(PreconditionError, match="zeta\\(10\\)"):
            closed_form_12(StairKind("A", 1, 2, 3))

    def test_s_family(self):
        assert closed_form_12(StairKind("S", 1, 2, 0)) == ZetaSymbolValue.one()
        assert closed_form_12(StairKind("S", 1, 2, 1)) == Z(3)
        with pytest.raises(PreconditionError, match="zeta\\(6\\)"):
            closed_form_12(StairKind("S", 1, 2, 2))

    def test_sstar_family(self):
        assert closed_form_12(StairKind("SStar", 1, 2, 1)) == Z(3) * 2
        expected = Z(3) ** 3 * Fraction(4, 3) + Z(9) * Fraction(2, 3)
        assert closed_form_12(StairKind("SStar", 1, 2, 3)) == expected

    def test_b_rejected(self):
        with pytest.raises(PreconditionError, match="B stairs"):
            closed_form_12(StairKind("B", 1, 2, 1))

    def test_wrong_entries_rejected(self):
        with pytest.raises(PreconditionError):
            closed_form_12(StairKind("A", 1, 3, 1))


class TestL12:
    def test_goldens(self):
        assert l12(1) == {(4,): 3}
        assert l12(2) == {(3, 4): 3, (4, 3): 3}

    def test_requires_positive_n(self):
        with pytest.raises(PreconditionError):
            l12(0)

    def test_numeric_matches_a_stair(self):
        total = sum(
            mult * numeric_mzv(idx) for idx, mult in l12(1).items()
        )
        want = numeric_value(closed_form_12(StairKind("A", 1, 2, 1)))
        assert total == pytest.approx(want, abs=1e-8)


class TestTessellationCheck:
    def test_stair_is_its_own_tessellation(self):
        t = stair_tableau(StairKind("B", 1, 3, 2))
        ok, theta = tessellation_check(t, "B")
        assert ok
        assert theta.n_pieces == 1

    def test_square_is_not_a_tessellation(self):
        ok, _ = tessellation_check(checkerboard((3, 3, 3)), "A")
        assert not ok

    def test_a_family_member(self):
        t = checkerboard((6, 6, 6, 6, 5, 2), (5, 4, 3, 2, 1))
        ok, theta = tessellation_check(t, "A")
        assert ok
        kinds = stair_cut(t)[1]
        assert sorted((k.kind, k.n) for k in kinds) == [("A", 2), ("A", 5)]

    def test_unknown_kind_rejected(self):
        with pytest.raises(PreconditionError):
            tessellation_check(checkerboard((3, 3, 3)), "X")


class TestStairCut:
    # (value on even contents, value on odd contents): both colourings of
    # each value pair; a one-cell host is the single-valued case
    @settings(max_examples=200, deadline=None)
    @given(
        connected_skew_shapes(max_cells=10),
        st.sampled_from([(1, 3), (3, 1), (1, 2), (2, 1), (2, 3), (3, 2)]),
    )
    @example(make_skew((1,)), (2, 3))
    @example(make_skew((2,), (1,)), (1, 3))
    def test_every_piece_walks_its_stair(self, shape, colouring):
        even, odd = colouring
        t = checkerboard(shape.lam, shape.mu, even=even, odd=odd)
        theta, kinds = stair_cut(t)
        assert pieces_walk_their_stairs(theta, kinds)


# The displayed 3x3 determinant: entries frozen from the closed forms of
# the nine stair subribbons after the reading normalization.
SQUARE_DISPLAY = (
    (Z(3), P() * Fraction(1, 180), Z(7)),
    (P() * Fraction(1, 72), Z(5), P() ** 2 * Fraction(17, 90720)),
    (Z(7), P() ** 2 * Fraction(13, 226800), Z(11)),
)


class TestEvaluate13:
    def test_b1_stair(self):
        rep = evaluate_checkerboard_13(stair_tableau(StairKind("B", 1, 3, 1)))
        assert rep.value == Z(7) * Fraction(1, 4)
        assert rep.tessellated == "B"
        assert rep.admissible

    def test_a2_stair(self):
        rep = evaluate_checkerboard_13(stair_tableau(StairKind("A", 1, 3, 2)))
        assert rep.value == Z(9) * Fraction(1, 8)
        assert rep.tessellated == "A"

    def test_every_stair_reproduces_its_closed_form(self):
        for kind in ("A", "B", "S", "SStar"):
            for n in (1, 2):
                sk = StairKind(kind, 1, 3, n)
                rep = evaluate_checkerboard_13(stair_tableau(sk))
                assert rep.value == closed_form_13(sk)
                assert rep.tessellated == kind

    def test_square_value_and_display(self):
        rep = evaluate_checkerboard_13(checkerboard((3, 3, 3)))
        assert rep.admissible
        assert rep.tessellated is None
        assert [(k.kind, k.n) for k in rep.pieces] == [("B", 2), ("A", 1), ("B", 0)]
        assert rep.prefactor == Fraction(1, 32)
        assert rep.display_matrix == SQUARE_DISPLAY
        assert rep.value == sym_det(SQUARE_DISPLAY) * Fraction(1, 32)
        assert homogeneous_weight(rep.value) == 19
        gens = rep.value.generators()
        assert gens <= {"P", "Z3", "Z5", "Z7", "Z11"}

    def test_display_factorization_holds_generally(self):
        t = checkerboard((7, 6, 5, 4, 3, 2, 1), (4, 3, 1, 1))
        rep = evaluate_checkerboard_13(t)
        assert sym_det(rep.display_matrix) * rep.prefactor == rep.value

    def test_eight_by_eight_square_by_both_guides(self):
        t = checkerboard((8,) * 8)
        rep = evaluate_checkerboard_13(t)
        assert evaluate_checkerboard_13_column(t) == rep.value
        assert len(rep.value.terms) == 2998

    def test_family_supports(self):
        cases = [
            ((10, 9, 6, 5, 2), (6, 3, 2, 1), 1, "SStar", {"P"}),
            ((4, 4, 4, 4, 3, 2, 1), (3, 2, 1, 1, 1), 3, "S", {"P"}),
            (
                (6, 6, 6, 6, 5, 2),
                (5, 4, 3, 2, 1),
                3,
                "A",
                {"Z9", "Z13", "Z17", "Z21"},
            ),
            (
                (7, 6, 5, 4, 3, 2, 1),
                (4, 3, 1, 1),
                3,
                "B",
                {"Z3", "Z7", "Z11", "Z15", "Z19", "Z23", "Z27"},
            ),
        ]
        for lam, mu, even, kind, allowed in cases:
            t = checkerboard(lam, mu, even=even, odd=4 - even)
            rep = evaluate_checkerboard_13(t)
            assert rep.tessellated == kind
            assert rep.admissible
            gens = rep.value.generators()
            assert gens <= allowed

    def test_non_13_entries_rejected(self):
        with pytest.raises(PreconditionError):
            evaluate_checkerboard_13(checkerboard((2, 2), even=2))

    def test_three_stair_tracks_truncation(self):
        # Both colourings of the (3,2,2)/(1) stair are inadmissible, so the
        # value keeps T; the truncation to level M follows it at
        # T = log M + gamma up to O(log M / M).
        M = 2048
        t_value = math.log(M) + EULER_GAMMA
        for even in (3, 1):
            t = checkerboard((3, 2, 2), (1,), even=even, odd=4 - even)
            rep = evaluate_checkerboard_13(t)
            assert not rep.admissible
            assert "T" in rep.value.generators()
            truncated = sum(
                mult * truncated_mzv_float(idx, M)
                for idx, mult in expand_tableau(t.to_tableau()).items()
            )
            closed = numeric_value(rep.value, t_value=t_value)
            assert truncated == pytest.approx(closed, abs=1e-3)

    def test_values_are_consistent_in_a_5x5_box(self):
        # seeded edge-connected shapes lam/mu inside the 5x5 box, in both
        # colourings: admissible hosts and regularized ones
        rng = random.Random(2404)
        admissible = set()
        for _ in range(400):
            lam = sorted((rng.randint(1, 5) for _ in range(rng.randint(1, 5))), reverse=True)
            mu = []
            for part in lam:
                mu.append(rng.randint(0, min([part] + mu[-1:])))
            shape = make_skew(lam, [m for m in mu if m])
            if not shape.cells or not is_edge_connected(shape):
                continue
            for even in (1, 3):
                t = checkerboard(shape.lam, shape.mu, even=even, odd=4 - even)
                rep = evaluate_checkerboard_13(t)
                assert checkerboard_value_is_consistent(rep), (shape, even)
                admissible.add(rep.admissible)
        assert admissible == {True, False}

    def test_parity_is_read_off_the_shape(self):
        """The paper's third result on seeded admissible edge-connected
        checkerboards of a 5x5 box, in both colourings: the parity that
        tests/oracles.parity_by_shape reads off the stair cut is the
        parity of the generators of the exact value."""
        rng = random.Random(3406)
        seen = {"odd": 0, "even": 0, "mixed": 0}
        for _ in range(500):
            lam = sorted((rng.randint(1, 5) for _ in range(rng.randint(1, 5))), reverse=True)
            mu = sorted((m for m in (rng.randint(0, part) for part in lam) if m), reverse=True)
            shape = make_skew(lam, mu)
            if not shape.cells or not is_edge_connected(shape):
                continue
            for even in (1, 3):
                t = checkerboard(shape.lam, shape.mu, even=even, odd=4 - even)
                rep = evaluate_checkerboard_13(t)
                if not rep.admissible:
                    continue
                gens = rep.value.generators()
                odd = {g for g in gens if g.startswith("Z")}
                parity = parity_by_shape(t)
                want = "even" if gens == {"P"} else "odd" if gens == odd else "mixed"
                assert gens and "T" not in gens and (want != "mixed" or ("P" in gens and odd))
                assert parity == want, (shape, even, sorted(gens))
                seen[parity] += 1
        assert min(seen.values()) >= 5, seen

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_stair_and_column_guides_agree(self, data):
        shape = data.draw(connected_skew_shapes(max_cells=7))
        even = data.draw(st.sampled_from([1, 3]))
        values = {c: (even if c % 2 == 0 else 4 - even) for c in content_set(shape)}
        t = diagonal_tableau(shape, values)
        rep = evaluate_checkerboard_13(t)
        assert evaluate_checkerboard_13_column(t) == rep.value
        assert homogeneous_weight(rep.value) == rep.weight


class TestClosedFormVsTruncation:
    STAIRS = [
        StairKind("A", 1, 3, 1),
        StairKind("A", 1, 3, 2),
        StairKind("B", 1, 3, 1),
        StairKind("B", 1, 3, 2),
        StairKind("S", 1, 3, 1),
        StairKind("S", 1, 3, 2),
        StairKind("SStar", 1, 3, 1),
        StairKind("SStar", 1, 3, 2),
        StairKind("A", 1, 2, 1),
        StairKind("A", 1, 2, 2),
        StairKind("S", 1, 2, 1),
        StairKind("SStar", 1, 2, 1),
        StairKind("SStar", 1, 2, 2),
    ]

    @pytest.mark.parametrize(
        "kind", STAIRS, ids=lambda k: f"{k.kind}({k.a},{k.b},{k.n})"
    )
    def test_truncation_converges_to_closed_form(self, kind):
        closed = closed_form_13(kind) if kind.b == 3 else closed_form_12(kind)
        want = numeric_value(closed)
        combination = expand_tableau(stair_tableau(kind).to_tableau())
        points = []
        for M in (4096, 8192, 16384, 32768):
            value = sum(
                mult * truncated_mzv_float(idx, M)
                for idx, mult in combination.items()
            )
            points.append((M, value))
        accelerated = richardson_extrapolate(points)
        assert accelerated == pytest.approx(want, abs=1e-3 * max(1.0, abs(want)))


class TestG13AndAlpha:
    def test_g13_n1(self):
        expected = Z(3) * Z(5) * Fraction(1, 2) - P() ** 2 * Fraction(1, 25920)
        assert g13(1) == expected

    def test_alpha_table(self):
        assert alpha(1) == 70
        assert alpha(2) == 1074502
        assert alpha(3) == Fraction(9656199193420, 21)
        assert alpha(4) == 2222659435447178310
        assert alpha(5) == Fraction(766533703696349735861335868, 11)

    def test_alpha_matches_the_bernoulli_expression(self):
        for n in range(1, 41):
            assert alpha(n) == alpha_by_bernoulli(n), n

    def test_alpha_denominators(self):
        assert alpha(9).denominator == 133
        assert alpha(15).denominator == 1085
        assert alpha(23).denominator == 206283

    def test_alpha_ratio_identity_in_ring(self):
        # B(n-1) A(n) - G(n) collapses to alpha_n times the pure column
        # value; both sides expanded exactly in the symbol ring.
        for n in range(1, 5):
            lhs = closed_form_13(StairKind("B", 1, 3, n - 1)) * closed_form_13(
                StairKind("A", 1, 3, n)
            ) - g13(n)
            assert lhs == zeta_13(2 * n) * alpha(n)

    def test_requires_positive_n(self):
        with pytest.raises(PreconditionError):
            alpha(0)
        with pytest.raises(PreconditionError):
            g13(0)


#: Every span a 7x7 box cuts out: its length (at most 13 cells) and the
#: value at its smallest content.
BOX7_SPANS = [(length, low) for length in range(1, 14) for low in (1, 3)]


def stair_of(length, lowest):
    """The (1,3) stair of a span: A or B of odd length, SStar or S of even."""
    if length % 2:
        return StairKind("A" if lowest == 1 else "B", 1, 3, (length - 1) // 2)
    return StairKind("SStar" if lowest == 1 else "S", 1, 3, length // 2)


def column_of(length, bottom):
    """The builder value of the alternating {1,3} column of a span."""
    top = bottom if length % 2 else 4 - bottom
    if (top, bottom) == (1, 3):
        return zeta_13(length // 2)
    if (top, bottom) == (3, 3):
        return zeta_3_13((length - 1) // 2)
    if (top, bottom) == (1, 1):
        return reg13_formulas((length - 1) // 2)[0]
    return reg13_formulas(length // 2)[1]


ROUTE_MEMOS = (_stair_13, _column_value)


def memo_values():
    return [memo(*span) for memo in ROUTE_MEMOS for span in BOX7_SPANS]


def same_terms(a, b):
    """Equal, term for term and in the same term order."""
    return list(a.terms.items()) == list(b.terms.items())


class TestClosedFormCaches:
    """Each (1,3) route keeps one memo keyed by the span (length, value at
    its smallest content); a shared value must be what the plain builder
    makes and must stay unchanged."""

    @pytest.mark.parametrize("span", BOX7_SPANS, ids=repr)
    def test_stair_memo_matches_builder(self, span):
        cached = _stair_13(*span)
        assert cached is _stair_13(*span)
        assert same_terms(cached, closed_form_13(stair_of(*span)))

    @pytest.mark.parametrize("span", BOX7_SPANS, ids=repr)
    def test_column_memo_matches_builder(self, span):
        cached = _column_value(*span)
        assert cached is _column_value(*span)
        assert same_terms(cached, column_of(*span))

    def test_route_matrices_hold_the_memo_values(self):
        for even in (1, 3):
            k = checkerboard((7,) * 7, even=even, odd=4 - even)
            rep = evaluate_checkerboard_13(k)
            pieces = rep.decomposition.pieces
            for pi, row in zip(pieces, rep.matrix):
                for pj, entry in zip(pieces, row):
                    p, q = pi.cmin, pj.cmax
                    if p <= q:
                        assert entry is _stair_13(q - p + 1, k.value_map[p])
            misses = _column_value.cache_info().misses
            evaluate_checkerboard_13_column(k)
            assert _column_value.cache_info().misses == misses

    def test_arithmetic_leaves_cached_values_unchanged(self):
        values = memo_values()
        before = [list(v.terms.items()) for v in values]
        one = ZetaSymbolValue.one()
        for v in values:
            results = [
                v + v, v + 1, 2 + v, v - v, v - one, 1 - v, -v,
                v * 3, Fraction(1, 2) * v, v * 1, v * 0, v * v, v * one, one * v,
                sym_det([[v]]), sym_det([[v, one], [v, v]]), sym_det([[one, v], [v, one]]),
            ]
            # A result sharing its term dict with v would empty v here.
            for r in results:
                r.terms.clear()
        assert [list(v.terms.items()) for v in values] == before
        assert memo_values() == values

    def test_a_7x7_box_fills_the_memos_within_its_key_domain(self):
        for memo in ROUTE_MEMOS:
            memo.cache_clear()
        for even in (1, 3):
            k = checkerboard((7,) * 7, even=even, odd=4 - even)
            assert evaluate_checkerboard_13(k).value == evaluate_checkerboard_13_column(k)
        for memo in ROUTE_MEMOS:
            assert memo.cache_info().currsize <= len(BOX7_SPANS) == 2 * 13
        # asking for every span of the box adds the keys the box left out
        # and nothing else, so every key it filled is one of them
        memo_values()
        for memo in ROUTE_MEMOS:
            assert memo.cache_info().currsize == len(BOX7_SPANS)

    def test_stair_route_classifies_each_piece_once(self, monkeypatch):
        k = checkerboard((6,) * 6)
        evaluate_checkerboard_13(k)  # the memo holds every span of k now
        calls = []
        classify = checkerboard_module._classify_span
        monkeypatch.setattr(
            checkerboard_module,
            "_classify_span",
            lambda *args: calls.append(args) or classify(*args),
        )
        rep = evaluate_checkerboard_13(k)
        assert len(calls) == len(rep.pieces) == 6
