"""Tests for SSYT enumeration, weighted sums, and the exact determinant identity."""

import math
import random
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from schurmzv import evaluate
from schurmzv.errors import PreconditionError, ResourceLimitError
from schurmzv.evaluate import (
    det_fraction,
    enumerate_ssyt,
    filling_count,
    jacobi_trudi_check_exact,
    ribbon_truncation,
    truncated_schur_zeta,
)
from schurmzv.mzv import truncated_mzv
from schurmzv.ribbons import (
    RIGHT,
    UP,
    anchored_ribbon,
    decomposition_from_ribbon,
    fill_ribbon,
    jacobi_trudi_sides,
    ribbon_matrix,
    ribbon_of,
    ribbon_tableau,
    subribbon_of,
)
from schurmzv.shapes import (
    Tableau,
    content_set,
    diagonal_tableau,
    is_edge_connected,
    make_skew,
)

from oracles import bareiss_det, s_f_m, schur_poly_check
from test_ribbons import connected_skew_shapes

EMPTY_T = Tableau(make_skew(()), ())


def single(value):
    return Tableau(make_skew((1,)), ((value,),))


class TestEnumerate:
    def test_single_cell(self):
        fills = list(enumerate_ssyt(make_skew((1,)), 4))
        assert [f[(1, 1)] for f in fills] == [1, 2, 3]

    def test_column_too_tall(self):
        assert list(enumerate_ssyt(make_skew((1, 1, 1)), 3)) == []

    def test_square_count(self):
        assert len(list(enumerate_ssyt(make_skew((2, 2)), 4))) == 6

    def test_empty_shape_one_filling(self):
        fills = list(enumerate_ssyt(make_skew(()), 5))
        assert len(fills) == 1 and fills[0] == {}

    def test_semistandard_conditions(self):
        for v in enumerate_ssyt(make_skew((3, 2), (1,)), 5):
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

    def test_refused_before_the_first_filling(self, monkeypatch):
        monkeypatch.setattr(evaluate, "FILLING_CAP", 10)
        with pytest.raises(ResourceLimitError, match="more than 10 fillings"):
            enumerate_ssyt(make_skew((3,)), 5)

    def test_deep_shapes_refused_at_the_call(self):
        assert len(list(enumerate_ssyt(make_skew((30,) * 30), 31))) == 1
        with pytest.raises(
            ResourceLimitError,
            match="a shape of 1024 cells needs a filling recursion deeper than 900 levels",
        ):
            enumerate_ssyt(make_skew((32,) * 32), 33)


class TestFillingCount:
    def test_matches_enumeration_on_seeded_shapes(self):
        # The fixed shapes: an empty middle row, a disconnected pair, one
        # row and one column.
        shapes = [
            make_skew((3, 2, 1), (2, 2)),
            make_skew((2, 1), (1,)),
            make_skew((4,)),
            make_skew((1, 1, 1, 1)),
        ]
        rng = random.Random(31)
        while len(shapes) < 24:
            lam = sorted((rng.randint(1, 4) for _ in range(rng.randint(1, 4))), reverse=True)
            mu = sorted((rng.randint(0, part) for part in lam), reverse=True)
            shape = make_skew(lam, [min(m, part) for m, part in zip(mu, lam)])
            if 1 <= shape.n_cells <= 6:
                shapes.append(shape)
        for shape in shapes:
            for M in range(-1, 13):
                assert filling_count(shape, M) == len(list(enumerate_ssyt(shape, M))), (shape, M)

    def test_empty_shape_has_one_filling(self):
        for M in range(-1, 13):
            assert filling_count(make_skew(()), M) == 1

    def test_large_level_at_once(self):
        assert filling_count(make_skew((2,)), 200_000) == math.comb(200_000, 2)
        assert filling_count(make_skew((1, 1)), 200_000) == math.comb(199_999, 2)

    def test_full_matrix_at_once(self):
        # A square's Jacobi-Trudi matrix has no zero entry.
        square = make_skew((30,) * 30)
        start = time.perf_counter()
        counts = [filling_count(square, M) for M in (30, 31, 32)]
        assert time.perf_counter() - start < 1.0
        assert counts == [0, 1, math.comb(60, 30)]


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

    def test_matches_enumeration_on_seeded_tableaux(self):
        # The fixed shapes: an empty middle row, a last cell with both a left
        # and an upper neighbour, one row and one column.
        shapes = [
            make_skew((3, 2, 1), (2, 2)),
            make_skew((3, 3), (1,)),
            make_skew((5,)),
            make_skew((1, 1, 1, 1)),
        ]
        rng = random.Random(29)
        while len(shapes) < 24:
            lam = sorted((rng.randint(1, 4) for _ in range(rng.randint(1, 4))), reverse=True)
            mu = sorted((rng.randint(0, part) for part in lam), reverse=True)
            shape = make_skew(lam, [min(m, part) for m, part in zip(mu, lam)])
            if 1 <= len(shape.cells) <= 7:
                shapes.append(shape)
        for shape in shapes:
            rows = tuple(
                tuple(rng.randint(1, 4) for _ in range(part - m))
                for part, m in zip(shape.lam, shape.padded_mu)
            )
            t = Tableau(shape, rows)
            for M in range(1, 10):
                want = s_f_m(t, M, lambda m, d: Fraction(1, m**d))
                assert truncated_schur_zeta(t, M) == want, (shape, rows, M)

    def test_cap_counts_every_filling(self, monkeypatch):
        t = Tableau(make_skew((3, 2), (1,)), ((2, 1), (1, 3)))
        n = len(list(enumerate_ssyt(t.shape, 6)))
        want = s_f_m(t, 6, lambda m, d: Fraction(1, m**d))
        monkeypatch.setattr(evaluate, "FILLING_CAP", n)
        assert truncated_schur_zeta(t, 6) == want
        monkeypatch.setattr(evaluate, "FILLING_CAP", n - 1)
        with pytest.raises(ResourceLimitError, match=f"more than {n - 1} fillings"):
            truncated_schur_zeta(t, 6)

    @pytest.mark.parametrize("e", [2, 3])
    def test_single_cell_is_the_partial_zeta_sum(self, e):
        assert truncated_schur_zeta(single(e), 300) == sum(
            Fraction(1, v**e) for v in range(1, 300)
        )

    # One shape per place of the last cell against the penultimate one,
    # which sets the shift of the one lower-bound rule: to its right
    # (under a cell of the first row), directly below it, and apart from
    # it (below the first cell of a longer row).
    @pytest.mark.parametrize(
        "shape, beside, under",
        [
            (make_skew((3, 2), (1,)), True, False),
            (make_skew((2, 1, 1)), False, True),
            (make_skew((3, 1)), False, False),
        ],
        ids=["beside", "under", "apart"],
    )
    def test_each_place_of_the_last_cell(self, shape, beside, under):
        cells, left, up, _ = evaluate._fill_plan(shape)
        last = len(cells) - 1
        assert (left[last] == last - 1, up[last] == last - 1) == (beside, under)
        rng = random.Random(30)
        for M in range(1, 13):
            rows = tuple(
                tuple(rng.randint(1, 4) for _ in range(part - m))
                for part, m in zip(shape.lam, shape.padded_mu)
            )
            t = Tableau(shape, rows)
            want = s_f_m(t, M, lambda m, d: Fraction(1, m**d))
            assert truncated_schur_zeta(t, M) == want, (rows, M)

    @pytest.mark.parametrize("a, b", [(1, 1), (1, 2), (2, 1), (2, 3), (3, 3)])
    def test_two_cells_are_truncated_mzvs(self, a, b):
        column = Tableau(make_skew((1, 1)), ((a,), (b,)))
        row = Tableau(make_skew((2,)), ((a, b),))
        assert truncated_schur_zeta(column, 64) == truncated_mzv((a, b), 64)
        assert truncated_schur_zeta(row, 64) == truncated_mzv((a, b), 64) + truncated_mzv(
            (a + b,), 64
        )

    # Three cells at a level the benchmark's draws reach; a first entry
    # equal to the middle one makes the first cell read the middle list.
    @pytest.mark.parametrize("a, b, c", [(1, 1, 1), (2, 2, 1), (1, 2, 3), (3, 1, 2)])
    def test_three_cells_are_truncated_mzvs(self, a, b, c):
        column = Tableau(make_skew((1, 1, 1)), ((a,), (b,), (c,)))
        row = Tableau(make_skew((3,)), ((a, b, c),))
        coarsenings = [(a, b, c), (a + b, c), (a, b + c), (a + b + c,)]
        assert truncated_schur_zeta(column, 256) == truncated_mzv((a, b, c), 256)
        assert truncated_schur_zeta(row, 256) == sum(truncated_mzv(i, 256) for i in coarsenings)

    def test_large_level_refused_with_little_memory(self):
        # The filling count is checked before the sum, so no factor is
        # computed and no weight slot is filled.
        row = Tableau(make_skew((2,)), ((1, 1),))
        tracemalloc.start()
        start = time.perf_counter()
        try:
            with pytest.raises(ResourceLimitError, match="more than 100000000 fillings enumerated"):
                truncated_schur_zeta(row, 200_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert time.perf_counter() - start < 5.0
        assert peak <= 64 * 2**20

    def test_first_cell_keeps_no_factor_table(self):
        # The first cell's loop reads each factor once: keeping them would
        # add about 3.3 MB of 720-byte factors to the weights' 2.9 MB.
        column = Tableau(make_skew((1, 1)), ((1,), (1,)))
        tracemalloc.start()
        try:
            value = truncated_schur_zeta(column, 4000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert value == truncated_mzv((1, 1), 4000)
        assert peak <= 4.5 * 2**20

    def test_long_sweep_refused_before_it_starts(self):
        start = time.perf_counter()
        with pytest.raises(
            ResourceLimitError,
            match=r"the last cell's sweep of 49999 values over lcm\(1\.\.49999\)\^2 "
            r"needs more than 1073741824 bit operations",
        ):
            truncated_schur_zeta(single(2), 50_000)
        assert time.perf_counter() - start < 1.0

    def test_deep_shapes(self):
        # The recursion takes one frame per cell: 1,024 cells once raised
        # RecursionError, which is no SchurMzvError.
        square = Tableau(make_skew((30,) * 30), ((1,) * 30,) * 30)
        assert truncated_schur_zeta(square, 31) == Fraction(1, math.factorial(30) ** 30)
        grid = Tableau(make_skew((32,) * 32), ((1,) * 32,) * 32)
        with pytest.raises(
            ResourceLimitError,
            match="a shape of 1024 cells needs a filling recursion deeper than 900 levels",
        ):
            truncated_schur_zeta(grid, 33)

    def test_lcm_from_prime_powers(self):
        for M in range(1, 401):
            assert evaluate._lcm_upto(M - 1) == math.lcm(*range(1, M))


def zeta_weight(m, d):
    return Fraction(1, m**d)


def coarsenings(index):
    """Every index made by summing runs of adjacent parts, the index itself
    included."""
    if len(index) <= 1:
        yield tuple(index)
        return
    for rest in coarsenings(index[1:]):
        yield (index[0],) + rest
        yield (index[0] + rest[0],) + rest[1:]


def seeded_hosts(seed, count, max_cells):
    """Edge-connected skew shapes of 1..max_cells cells from a seeded draw."""
    rng = random.Random(seed)
    hosts = []
    while len(hosts) < count:
        lam = sorted((rng.randint(1, 4) for _ in range(rng.randint(1, 4))), reverse=True)
        mu = sorted((rng.randint(0, part) for part in lam), reverse=True)
        shape = make_skew(lam, [min(m, part) for m, part in zip(mu, lam)])
        if 1 <= shape.n_cells <= max_cells and is_edge_connected(shape):
            hosts.append(shape)
    return hosts


class TestRibbonTruncation:
    def test_matches_enumeration_on_seeded_ribbons(self):
        rng = random.Random(32)
        walks = [(), (RIGHT,) * 3, (UP,) * 4, (RIGHT, UP) * 2, (UP, RIGHT) * 2]
        for _ in range(15):
            walks.append(tuple(rng.choice((UP, RIGHT)) for _ in range(rng.randint(1, 4))))
        for steps in walks:
            r = anchored_ribbon(rng.randint(-3, 3), steps)
            exps = tuple(rng.randint(1, 4) for _ in range(r.n_cells))
            t = ribbon_tableau(r, exps)
            for M in range(1, 13):
                assert ribbon_truncation(r, exps, M) == s_f_m(t, M, zeta_weight), (steps, exps, M)

    @pytest.mark.parametrize("exps", [(1, 2), (2, 1, 3), (1, 1, 1, 2)])
    def test_column_is_a_truncated_mzv(self, exps):
        # in content order a column runs upwards, through decreasing values
        column = anchored_ribbon(0, (UP,) * (len(exps) - 1))
        assert ribbon_truncation(column, exps, 256) == truncated_mzv(exps[::-1], 256)

    @pytest.mark.parametrize("exps", [(1, 2), (2, 1, 3), (1, 1, 1, 2)])
    def test_row_is_a_truncated_star_sum(self, exps):
        row = anchored_ribbon(0, (RIGHT,) * (len(exps) - 1))
        want = sum((truncated_mzv(index, 64) for index in coarsenings(exps)), Fraction(0))
        assert ribbon_truncation(row, exps, 64) == want

    def test_entries_match_the_filling_sum_on_seeded_hosts(self):
        # Each host with a seeded guide, and each ribbon host with its own
        # walk as guide, a decomposition of one piece.
        rng = random.Random(33)
        checked = one_piece = 0
        for host in seeded_hosts(34, 40, 7):
            span = content_set(host)
            guides = [anchored_ribbon(span[0], [rng.choice((UP, RIGHT)) for _ in span[1:]])]
            if host.n_cells == len(span):
                guides.append(ribbon_of(host))
            for guide in guides:
                theta = decomposition_from_ribbon(host, guide)
                k = diagonal_tableau(host, {c: rng.randint(1, 3) for c in span})
                M = rng.randint(1, 9)
                _, got = jacobi_trudi_sides(
                    k, theta, lambda t: None, lambda r, exps: ribbon_truncation(r, exps, M), 0, 1
                )
                want = ribbon_matrix(
                    theta,
                    lambda p, q, r: truncated_schur_zeta(fill_ribbon(k, subribbon_of(r, p, q)), M),
                    0,
                    1,
                )
                assert got == want, (host, guide.steps, M)
                rep = jacobi_trudi_check_exact(k, theta, M)
                assert rep.equal
                checked += 1
                one_piece += rep.n == 1
        assert checked > 40 and one_piece >= 5

    def test_two_cell_column_keeps_one_list(self):
        column = anchored_ribbon(0, (UP,))
        tracemalloc.start()
        try:
            value = ribbon_truncation(column, (1, 1), 4000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert value == truncated_mzv((1, 1), 4000)
        assert peak <= 4.5 * 2**20

    def test_filling_and_cell_caps_do_not_apply(self, monkeypatch):
        # A row of three cells has C(10, 3) = 120 fillings below 9.
        row = anchored_ribbon(0, (RIGHT, RIGHT))
        want = s_f_m(ribbon_tableau(row, (1, 2, 3)), 9, zeta_weight)
        monkeypatch.setattr(evaluate, "FILLING_CAP", 10)
        monkeypatch.setattr(evaluate, "CELLS_CAP", 2)
        assert ribbon_truncation(row, (1, 2, 3), 9) == want

    def test_denominator_and_sweep_caps(self):
        one = anchored_ribbon(0, ())
        with pytest.raises(ResourceLimitError, match=r"lcm\(1\.\.2\)\^99999999999999999999 needs"):
            ribbon_truncation(one, (99999999999999999999,), 3)
        with pytest.raises(ResourceLimitError, match="the last cell's sweep of 49999 values"):
            ribbon_truncation(one, (2,), 50_000)

    def test_exponents_checked(self):
        r = anchored_ribbon(0, (UP,))
        for exps in [(1,), (1, 2, 3), (1, 0), (1, 2.0)]:
            with pytest.raises(PreconditionError):
                ribbon_truncation(r, exps, 5)


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
GOLDEN_GUIDE = ribbon_of(make_skew((6, 6, 6, 5, 3), (6, 6, 4, 2)))
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

    def test_one_lcm_per_check(self):
        """The host and every defined entry share lcm(1..M-1): one check
        computes it once, and the next check at another M once more."""
        theta = decomposition_from_ribbon(GOLDEN_HOST, GOLDEN_GUIDE)
        k = diagonal_tableau(GOLDEN_HOST, GOLDEN_K)
        evaluate._lcm_upto.cache_clear()
        for calls, M in enumerate((5, 6), start=1):
            assert jacobi_trudi_check_exact(k, theta, M).equal
            info = evaluate._lcm_upto.cache_info()
            assert info.misses == calls and info.hits >= theta.n_pieces

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

    @pytest.mark.parametrize(
        "shape, values, M, cap",
        [
            ((1,), (99999999999999999999,), 3, None),  # the denominator's bits
            ((1,), (2,), 50_000, None),  # the last cell's sweep
            ((3, 2, 2), (1, 2, 1, 3, 2), 9, ("FILLING_CAP", 10)),
            ((3, 2, 2), (1, 2, 1, 3, 2), 5, ("CELLS_CAP", 4)),
        ],
        ids=["bits", "sweep", "fillings", "cells"],
    )
    def test_host_refused_first(self, monkeypatch, shape, values, M, cap):
        # Every entry's weight is at most the host's, so the host's bits and
        # sweep caps bound the entries; none is computed after a refusal.
        if cap:
            monkeypatch.setattr(evaluate, *cap)
        host = make_skew(shape)
        span = content_set(host)
        guide = anchored_ribbon(span[0], (RIGHT, UP, UP, RIGHT)[: len(span) - 1])
        theta = decomposition_from_ribbon(host, guide)
        k = diagonal_tableau(host, dict(zip(span, values)))
        with pytest.raises(ResourceLimitError) as want:
            truncated_schur_zeta(k.to_tableau(), M)

        def no_entry(*args):
            raise AssertionError("an entry was computed after the host's refusal")

        monkeypatch.setattr(evaluate, "ribbon_truncation", no_entry)
        with pytest.raises(ResourceLimitError) as got:
            jacobi_trudi_check_exact(k, theta, M)
        assert str(got.value) == str(want.value)

    def test_host_mismatch_rejected(self):
        theta = decomposition_from_ribbon(GOLDEN_HOST, GOLDEN_GUIDE)
        other = diagonal_tableau(make_skew((1,)), {0: 2})
        with pytest.raises(PreconditionError):
            jacobi_trudi_check_exact(other, theta, 3)
        # a host with the same contents: every subribbon could be filled
        hook = decomposition_from_ribbon(make_skew((2, 1)), anchored_ribbon(-1, (UP, RIGHT)))
        skew = diagonal_tableau(make_skew((2, 2), (1,)), {-1: 1, 0: 2, 1: 3})
        with pytest.raises(PreconditionError, match="host"):
            jacobi_trudi_check_exact(skew, hook, 3)

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
