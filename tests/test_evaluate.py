"""Tests for SSYT enumeration, weighted sums, and the exact determinant identity."""

from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from schurmzv import evaluate
from schurmzv.errors import PreconditionError, ResourceLimitError
from schurmzv.evaluate import (
    det_fraction,
    enumerate_ssyt,
    jacobi_trudi_check_exact,
    s_f_m,
    schur_poly_check,
    truncated_schur_zeta,
)
from schurmzv.ribbons import (
    RIGHT,
    UP,
    Ribbon,
    anchored_ribbon,
    decomposition_from_ribbon,
)
from schurmzv.shapes import (
    Tableau,
    content_set,
    diagonal_tableau,
    make_skew,
    tableau_from_entries,
)

from test_ribbons import connected_skew_shapes

EMPTY_T = Tableau(make_skew(()), ())


def single(value):
    return Tableau(make_skew((1,)), ((value,),))


class TestEnumerate:
    def test_single_cell(self):
        fills = list(enumerate_ssyt(make_skew((1,)), 4))
        assert [f.values[(1, 1)] for f in fills] == [1, 2, 3]

    def test_column_too_tall(self):
        assert list(enumerate_ssyt(make_skew((1, 1, 1)), 3)) == []

    def test_square_count(self):
        assert len(list(enumerate_ssyt(make_skew((2, 2)), 4))) == 6

    def test_empty_shape_one_filling(self):
        fills = list(enumerate_ssyt(make_skew(()), 5))
        assert len(fills) == 1 and fills[0].values == {}

    def test_semistandard_conditions(self):
        for f in enumerate_ssyt(make_skew((3, 2), (1,)), 5):
            v = f.values
            for (i, j), m in v.items():
                if (i, j + 1) in v:
                    assert m <= v[(i, j + 1)]
                if (i + 1, j) in v:
                    assert m < v[(i + 1, j)]

    def test_cap(self, monkeypatch):
        monkeypatch.setattr(evaluate, "FILLING_CAP", 10)
        # C(5, 3) = 10 weakly increasing rows of three entries below 4.
        assert len(list(enumerate_ssyt(make_skew((3,)), 4))) == 10
        with pytest.raises(ResourceLimitError, match="more than 10 fillings"):
            list(enumerate_ssyt(make_skew((3,)), 9))


class TestSfm:
    def test_empty_is_one(self):
        assert s_f_m(EMPTY_T, 7, lambda m, d: Fraction(0)) == 1

    def test_schur_variable(self):
        # f(m, _) = x_m with x symbolicized as 10^m keeps terms distinguishable.
        val = s_f_m(single(1), 3, lambda m, d: 10**m)
        assert val == 110

    def test_zeta_weight(self):
        val = s_f_m(single(2), 3, lambda m, d: Fraction(1, m**d))
        assert val == Fraction(5, 4)


class TestTruncatedSchurZeta:
    def test_single_cell_entry_one(self):
        assert truncated_schur_zeta(single(1), 3) == Fraction(3, 2)

    def test_column_12(self):
        t = Tableau(make_skew((1, 1)), ((1,), (2,)))
        assert truncated_schur_zeta(t, 3) == Fraction(1, 4)

    def test_hook_all_ones(self):
        t = Tableau(make_skew((2, 1)), ((1, 1), (1,)))
        # Two fillings below 3: (1,1;2) -> 1/2 and (1,2;2) -> 1/4.
        assert truncated_schur_zeta(t, 3) == Fraction(3, 4)

    def test_m_one_is_zero(self):
        assert truncated_schur_zeta(single(2), 1) == 0

    def test_empty_is_one(self):
        assert truncated_schur_zeta(EMPTY_T, 9) == 1

    def test_cap(self, monkeypatch):
        monkeypatch.setattr(evaluate, "FILLING_CAP", 10)
        row = Tableau(make_skew((3,)), ((1, 2, 3),))
        assert truncated_schur_zeta(row, 4) == s_f_m(row, 4, lambda m, d: Fraction(1, m**d))
        with pytest.raises(ResourceLimitError, match="more than 10 fillings"):
            truncated_schur_zeta(row, 5)

    def test_matches_generic_path(self):
        t = Tableau(make_skew((2, 2), (1,)), ((3,), (1, 2)))
        for M in (2, 4, 6):
            assert truncated_schur_zeta(t, M) == s_f_m(
                t, M, lambda m, d: Fraction(1, m**d)
            )


def bareiss_det(matrix):
    """Oracle: fraction-free (Bareiss) elimination over the rationals.

    Rows are scaled integer-valued first; the Bareiss recurrence then stays
    in integers with exact divisions.
    """
    n = len(matrix)
    if n == 0:
        return Fraction(1)
    scale = Fraction(1)
    m = []
    for row in matrix:
        fr = [Fraction(a) for a in row]
        L = 1
        for a in fr:
            L = lcm(L, a.denominator)
        m.append([int(a * L) for a in fr])
        scale /= L
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for r in range(k + 1, n):
                if m[r][k] != 0:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return Fraction(0)
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * scale * m[n - 1][n - 1]


class TestDetFraction:
    def test_scalar(self):
        assert det_fraction([[Fraction(3, 7)]]) == Fraction(3, 7)

    def test_two_by_two(self):
        m = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 5), Fraction(1, 7)]]
        assert det_fraction(m) == Fraction(1, 14) - Fraction(1, 15)

    def test_singular(self):
        m = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
        assert det_fraction(m) == 0

    def test_pivoting(self):
        m = [
            [Fraction(0), Fraction(1), Fraction(2)],
            [Fraction(1), Fraction(0), Fraction(1)],
            [Fraction(2), Fraction(1), Fraction(0)],
        ]
        assert det_fraction(m) == 4

    @given(
        st.lists(
            st.lists(st.fractions(max_denominator=20), min_size=3, max_size=3),
            min_size=3,
            max_size=3,
        )
    )
    def test_against_cofactor(self, rows):
        a = [[Fraction(x) for x in r] for r in rows]
        cof = (
            a[0][0] * (a[1][1] * a[2][2] - a[1][2] * a[2][1])
            - a[0][1] * (a[1][0] * a[2][2] - a[1][2] * a[2][0])
            + a[0][2] * (a[1][0] * a[2][1] - a[1][1] * a[2][0])
        )
        assert det_fraction(a) == cof == bareiss_det(a)


class TestSchurPoly:
    def test_single_cell(self):
        assert schur_poly_check(make_skew((1,)), 3, [1, 1]) == 2

    def test_square_all_ones(self):
        assert schur_poly_check(make_skew((2, 2)), 4, [1, 1, 1]) == 6

    def test_hook_values(self):
        assert schur_poly_check(make_skew((2, 1)), 3, [1, 2]) == 6

    def test_skew_shape(self):
        # s_{(2,1)/(1)}(x) = (x1+x2)^2 has value 9 at x=(1,2).
        assert schur_poly_check(make_skew((2, 1), (1,)), 3, [1, 2]) == 9

    def test_bad_variable_count(self):
        with pytest.raises(PreconditionError):
            schur_poly_check(make_skew((1,)), 3, [1])


GOLDEN_HOST = make_skew((4, 3, 3, 2, 1), (1,))
GOLDEN_GUIDE = Ribbon(make_skew((6, 6, 6, 5, 3), (6, 6, 4, 2)))
GOLDEN_K = {-4: 3, -3: 7, -2: 4, -1: 6, 0: 3, 1: 2, 2: 1, 3: 5}


class TestJacobiTrudi:
    def test_golden_example(self):
        theta = decomposition_from_ribbon(GOLDEN_HOST, GOLDEN_GUIDE)
        k = diagonal_tableau(GOLDEN_HOST, GOLDEN_K)
        for M in (2, 3, 5):
            rep = jacobi_trudi_check_exact(k, theta, M)
            assert rep.equal, f"M={M}: {rep.lhs} != {rep.rhs}"

    def test_intro_stair(self):
        # The 3-stair with diagonal-constant entries and the up-up staircase
        # ribbon gives a 2x2 determinant.
        host = make_skew((3, 2, 2), (1,))
        guide = anchored_ribbon(-2, (RIGHT, UP, UP, RIGHT))
        theta = decomposition_from_ribbon(host, guide)
        assert theta.n_pieces == 2
        k = diagonal_tableau(host, {-2: 1, -1: 2, 0: 1, 1: 3, 2: 2})
        for M in range(2, 8):
            rep = jacobi_trudi_check_exact(k, theta, M)
            assert rep.n == 2 and rep.equal

    def test_single_piece_trivial(self):
        host = make_skew((2, 2, 1), (1,))
        assert content_set(host) == (-2, -1, 0, 1)
        guide = anchored_ribbon(-2, (UP, RIGHT, UP))
        theta = decomposition_from_ribbon(host, guide)
        k = diagonal_tableau(host, {-2: 2, -1: 1, 0: 3, 1: 2})
        rep = jacobi_trudi_check_exact(k, theta, 6)
        assert rep.equal

    def test_cap(self, monkeypatch):
        theta = decomposition_from_ribbon(GOLDEN_HOST, GOLDEN_GUIDE)
        k = diagonal_tableau(GOLDEN_HOST, GOLDEN_K)
        monkeypatch.setattr(evaluate, "FILLING_CAP", 10)
        with pytest.raises(ResourceLimitError, match="more than 10 fillings"):
            jacobi_trudi_check_exact(k, theta, 5)

    def test_host_mismatch_rejected(self):
        theta = decomposition_from_ribbon(GOLDEN_HOST, GOLDEN_GUIDE)
        other = diagonal_tableau(make_skew((1,)), {0: 2})
        with pytest.raises(PreconditionError):
            jacobi_trudi_check_exact(other, theta, 3)

    @settings(max_examples=40, deadline=None)
    @given(connected_skew_shapes(max_cells=7), st.data())
    def test_random_property(self, host, data):
        span = content_set(host)
        steps = tuple(
            data.draw(st.sampled_from([UP, RIGHT]))
            for _ in range(span[-1] - span[0])
        )
        theta = decomposition_from_ribbon(host, anchored_ribbon(span[0], steps))
        bc = {c: data.draw(st.integers(1, 3)) for c in span}
        k = diagonal_tableau(host, bc)
        M = data.draw(st.integers(2, 7))
        rep = jacobi_trudi_check_exact(k, theta, M)
        assert rep.equal, f"host={host} steps={steps} M={M}"
