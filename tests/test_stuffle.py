import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schurmzv import stuffle
from schurmzv.errors import PreconditionError
from schurmzv.mzv import (
    EULER_GAMMA,
    expand_tableau,
    numeric_mzv,
    truncated_mzv,
    truncated_mzv_float,
)
from schurmzv.ribbons import (
    RIGHT,
    UP,
    anchored_ribbon,
    decomposition_from_ribbon,
    fill_ribbon,
    ribbon_matrix,
    ribbon_of,
    subribbon_of,
)
from schurmzv.shapes import (
    Tableau,
    as_diagonal,
    content_set,
    diagonal_tableau,
    is_admissible,
    make_skew,
    tableau_from_entries,
)
from schurmzv.stuffle import (
    QSElement,
    TPoly,
    eval_tpoly,
    regularize,
    regularized_jt_check,
    schur_regularize,
    stuffle_product,
)
from schurmzv.symbolic import det

from oracles import admissible_support, qs_truncated
from test_acceptance import CRITERION_07_HOSTS, checkerboard, random_connected_shape, random_guide
from test_ribbons import connected_skew_shapes

ZETA3 = 1.2020569031595942854

indices = st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=3).map(tuple)


def qs(d):
    return QSElement({k: Fraction(v) for k, v in d.items()})


elements = st.dictionaries(
    st.lists(st.integers(min_value=1, max_value=3), max_size=3).map(tuple),
    st.fractions(min_value=-3, max_value=3, max_denominator=5),
    max_size=5,
).map(QSElement)


def chain_sum(polys):
    """Reference: fold TPoly + over the summands, as a running total."""
    total = TPoly.zero()
    for p in polys:
        total = total + p
    return total


def keyed(p):
    """Coefficients as ordered (index, coefficient) lists."""
    return [list(c.terms.items()) for c in p.coeffs]


class TestStuffleProduct:
    def test_depth_one(self):
        assert stuffle_product((2,), (3,)) == qs({(2, 3): 1, (3, 2): 1, (5,): 1})

    def test_unit(self):
        assert stuffle_product((4,), ()) == QSElement.from_index((4,))
        assert stuffle_product((), ()) == QSElement.one()

    def test_one_times_depth_two(self):
        assert stuffle_product((1,), (1, 2)) == qs(
            {(1, 1, 2): 2, (1, 2, 1): 1, (2, 2): 1, (1, 3): 1}
        )

    @settings(max_examples=30, deadline=None)
    @given(u=indices, v=indices)
    def test_commutative(self, u, v):
        assert stuffle_product(u, v) == stuffle_product(v, u)

    @settings(max_examples=20, deadline=None)
    @given(u=indices, v=indices, w=indices)
    def test_associative(self, u, v, w):
        uv = stuffle_product(u, v)
        vw = stuffle_product(v, w)
        assert uv * QSElement.from_index(w) == QSElement.from_index(u) * vw

    @settings(max_examples=100, deadline=None)
    @given(a=elements, b=elements)
    def test_stuffle_products_are_canonical(self, a, b):
        # stuffle_product skips the constructor; its results must still be
        # what the constructor would build, term order included.
        for r in (stuffle_product(u, v) for u in a.terms for v in b.terms):
            assert list(r.terms.items()) == list(QSElement(r.terms).terms.items())
            assert all(type(c) is Fraction and c for c in r.terms.values())
            assert all(type(idx) is tuple for idx in r.terms)

    @settings(max_examples=100, deadline=None)
    @given(a=elements, b=elements)
    def test_sum_keeps_insertion_order(self, a, b):
        # Reference: add with zeros kept in place, then filter them out.
        out = dict(a.terms)
        for idx, c in b.terms.items():
            out[idx] = out.get(idx, Fraction(0)) + c
        assert list((a + b).terms.items()) == [(i, c) for i, c in out.items() if c]

    @settings(max_examples=25, deadline=None)
    @given(u=indices, v=indices, M=st.integers(min_value=1, max_value=15))
    def test_truncated_homomorphism(self, u, v, M):
        lhs = truncated_mzv(u, M) * truncated_mzv(v, M)
        assert lhs == qs_truncated(stuffle_product(u, v), M)


class TestRegularize:
    def test_one(self):
        assert regularize((1,)) == TPoly((QSElement.zero(), QSElement.one()))

    def test_admissible_constant(self):
        assert regularize((3,)) == TPoly.constant(QSElement.from_index((3,)))
        assert regularize((1, 2)) == TPoly.constant(QSElement.from_index((1, 2)))

    def test_two_one(self):
        expected = TPoly((qs({(1, 2): -1, (3,): -1}), qs({(2,): 1})))
        assert regularize((2, 1)) == expected

    def test_one_one(self):
        # (T^2 - {(2)})/2
        expected = TPoly(
            (qs({(2,): Fraction(-1, 2)}), QSElement.zero(), qs({(): Fraction(1, 2)}))
        )
        assert regularize((1, 1)) == expected

    @pytest.mark.parametrize("idx", [(1, 1), (2, 1, 1), (1, 2, 1), (1, 1, 1, 1), (3, 1, 2, 1)])
    def test_matches_running_total(self, idx):
        # The recursion accumulates in place; a chain of TPoly +/- gives
        # the same terms in the same order.
        head = idx[:-1]
        prod = stuffle_product((1,), head)
        total = chain_sum(
            [regularize(head).shift()]
            + [-(regularize(t) * c) for t, c in prod.terms.items() if t != idx]
        )
        assert keyed(regularize(idx)) == keyed(total * Fraction(1, int(prod.terms[idx])))

    @pytest.mark.parametrize("bad", [(0,), (1, 0, 1), (2.5,), ("3",), (-1, 2)])
    def test_malformed_index_refused(self, monkeypatch, bad):
        # Once a bare KeyError, or silently truncated, parsed or accepted.
        for cache in ({}, {(2,): regularize((2,)), (1,): regularize((1,))}):
            monkeypatch.setattr(stuffle, "_regularize_cache", dict(cache))
            with pytest.raises(PreconditionError):
                regularize(bad)
            assert all(type(k) is int for idx in stuffle._regularize_cache for k in idx)

    def test_cache_keys_are_checked_indices(self, monkeypatch):
        monkeypatch.setattr(stuffle, "_regularize_cache", {})
        assert regularize([2.0, 1]) == regularize((2, 1))
        assert regularize([]) == TPoly.one()
        assert set(stuffle._regularize_cache) == {(2, 1), (2,), (1, 2), (3,), ()}

    def test_admissible_support_invariant(self):
        # every index of weight w <= 10: the cut points of 1..w-1 that a
        # bit mask selects
        for w in range(1, 11):
            for mask in range(1 << (w - 1)):
                cuts = [0] + [i for i in range(1, w) if mask >> (i - 1) & 1] + [w]
                idx = tuple(b - a for a, b in zip(cuts, cuts[1:]))
                assert admissible_support(regularize(idx)), idx

    @settings(max_examples=20, deadline=None)
    @given(u=indices, v=indices)
    def test_homomorphism(self, u, v):
        prod = stuffle_product(u, v)
        total = TPoly.zero()
        for idx, c in prod.terms.items():
            total = total + regularize(idx) * c
        assert total == regularize(u) * regularize(v)

    def test_tracks_truncation(self):
        # evaluating at log M + gamma approximates the truncated value
        for idx in [(2, 1), (1, 1), (3, 1, 1)]:
            M = 4096
            approx = eval_tpoly(regularize(idx), math.log(M) + EULER_GAMMA)
            exact = truncated_mzv_float(idx, M)
            assert approx == pytest.approx(exact, abs=5e-3)


class TestSchurRegularize:
    def test_single_cell_one(self):
        t = Tableau(make_skew((1,)), ((1,),))
        assert schur_regularize(t) == TPoly((QSElement.zero(), QSElement.one()))

    def test_admissible_column(self):
        t = Tableau(make_skew((1, 1)), ((1,), (3,)))
        assert schur_regularize(t) == TPoly.constant(QSElement.from_index((1, 3)))

    def test_column_three_one(self):
        t = Tableau(make_skew((1, 1)), ((3,), (1,)))
        expected = TPoly((qs({(1, 3): -1, (4,): -1}), qs({(3,): 1})))
        assert schur_regularize(t) == expected

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_matches_running_total(self, data):
        shape = data.draw(connected_skew_shapes(max_cells=5))
        entries = {
            cell: data.draw(st.integers(min_value=1, max_value=3), label=f"k{cell}")
            for cell in shape.cells
        }
        t = tableau_from_entries(shape, entries)
        total = chain_sum(regularize(idx) * m for idx, m in expand_tableau(t).items())
        assert keyed(schur_regularize(t)) == keyed(total)

    def test_asymptotics_of_row(self):
        """The truncation of a divergent row is its regularization at
        T = log M + gamma, up to O(log M / M).  The truncated side sums the
        chain expansion (equal to the filling sum exactly, see test_mzv)."""
        t = Tableau(make_skew((2,)), ((1, 2),))
        M = 2048
        approx = eval_tpoly(schur_regularize(t), math.log(M) + EULER_GAMMA)
        truncated = sum(
            mult * truncated_mzv_float(idx, M) for idx, mult in expand_tableau(t).items()
        )
        assert approx == pytest.approx(truncated, abs=5e-3)


class TestEvalTPoly:
    def test_constant(self):
        p = TPoly.constant(QSElement.from_index((2,)))
        assert eval_tpoly(p, 17.0) == pytest.approx(math.pi**2 / 6, abs=1e-7)

    def test_t_at_zero(self):
        p = TPoly((QSElement.zero(), QSElement.one()))
        assert eval_tpoly(p, 0.0) == 0.0

    def test_reg_two_one_at_zero(self):
        val = eval_tpoly(regularize((2, 1)), 0.0)
        assert val == pytest.approx(-2 * ZETA3, abs=1e-6)
        assert val == pytest.approx(-2.4041138, abs=1e-5)


class TestRegularizedJT:
    def test_trivial_column(self):
        shape = make_skew((1, 1))
        t = tableau_from_entries(shape, {(1, 1): 3, (2, 1): 1})
        theta = decomposition_from_ribbon(shape, ribbon_of(shape))
        rep = regularized_jt_check(as_diagonal(t), theta, [0.0, 1.0])
        # lhs and the 1x1 determinant evaluate the same polynomial; only
        # the determinant routine's rounding separates them
        assert rep.max_discrepancy <= 1e-12

    def test_intro_stair_admissible(self):
        host = make_skew((3, 2, 2), (1,))
        k = diagonal_tableau(host, {2: 3, 1: 1, 0: 1, -1: 3, -2: 1})
        guide = anchored_ribbon(-2, (RIGHT, UP, UP, RIGHT))
        theta = decomposition_from_ribbon(host, guide)
        rep = regularized_jt_check(k, theta, [0.0, 1.0])
        assert rep.admissible
        assert rep.max_discrepancy <= 1e-4
        assert rep.det_t_spread <= 1e-4

    def test_numeric_values_read_once_per_call(self, monkeypatch):
        # Coefficient values do not depend on T: more samples must not mean
        # more numeric_mzv calls.
        host = make_skew((3, 2, 2), (1,))
        k = diagonal_tableau(host, {2: 3, 1: 1, 0: 1, -1: 3, -2: 1})
        theta = decomposition_from_ribbon(host, anchored_ribbon(-2, (RIGHT, UP, UP, RIGHT)))
        calls = []

        def counted(idx):
            calls.append(idx)
            return numeric_mzv(idx)

        monkeypatch.setattr(stuffle, "numeric_mzv", counted)
        counts = []
        for samples in ([0.0], [0.0, 1.0], [0.0, 1.0, 2.0, -3.5]):
            calls.clear()
            regularized_jt_check(k, theta, samples)
            counts.append(len(calls))
        assert counts[0] > 0
        assert counts == [counts[0]] * 3

    def test_identity_holds_exactly(self):
        # det of the regularized ribbon-entry matrix, taken in the
        # quasi-shuffle algebra extended by T, equals the regularized
        # tableau term for term: no float comparison, no T samples.
        def column(k):
            span = content_set(k.shape)
            return anchored_ribbon(span[0], (UP,) * (span[-1] - span[0]))

        def stair(k):
            span = content_set(k.shape)
            steps = (RIGHT if k.value_at(c) == 1 else UP for c in range(span[0], span[-1]))
            return anchored_ribbon(span[0], tuple(steps))

        square = checkerboard((3, 3, 3))
        cases = [(k, column(k)) for k in CRITERION_07_HOSTS]
        cases += [(square, column(square)), (square, stair(square))]
        rng = random.Random(20261019)
        while len(cases) < 112:
            host = random_connected_shape(rng, 6)
            k = diagonal_tableau(host, {c: rng.choice((1, 2, 3)) for c in content_set(host)})
            if is_admissible(k.to_tableau()):
                cases.append((k, random_guide(rng, host)))
        zero, one = TPoly.zero(), TPoly.one()
        for k, guide in cases:
            theta = decomposition_from_ribbon(k.shape, guide)
            rows = ribbon_matrix(
                theta,
                lambda p, q, r: schur_regularize(fill_ribbon(k, subribbon_of(r, p, q))),
                zero,
                one,
            )
            assert det(rows, zero, one) == schur_regularize(k.to_tableau())

    def test_shape_mismatch(self):
        k = diagonal_tableau(make_skew((1, 1)), {-1: 2, 0: 2})
        column = make_skew((1, 1, 1))
        theta = decomposition_from_ribbon(column, ribbon_of(column))
        with pytest.raises(PreconditionError):
            regularized_jt_check(k, theta, [0.0])
        # a host with the same contents: every subribbon could be filled
        skew = diagonal_tableau(make_skew((2, 2), (1,)), {-1: 1, 0: 2, 1: 3})
        hook_shape = make_skew((2, 1))
        hook = decomposition_from_ribbon(hook_shape, ribbon_of(hook_shape))
        with pytest.raises(PreconditionError, match="host"):
            regularized_jt_check(skew, hook, [0.0])
