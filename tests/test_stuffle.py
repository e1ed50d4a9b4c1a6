import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schurmzv.errors import PreconditionError
from schurmzv.evaluate import truncated_schur_zeta
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
    Ribbon,
    anchored_ribbon,
    decomposition_from_ribbon,
    trivial_decomposition,
)
from schurmzv.shapes import (
    Tableau,
    as_diagonal,
    diagonal_tableau,
    make_skew,
    tableau_from_entries,
)
from schurmzv.stuffle import (
    QSElement,
    TPoly,
    eval_tpoly,
    qs_truncated,
    regularize,
    regularized_jt_check,
    schur_regularize,
    stuffle_product,
)

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
    @given(a=elements, b=elements, q=st.fractions(min_value=-2, max_value=2, max_denominator=3))
    def test_results_are_canonical(self, a, b, q):
        results = (a + b, a - b, a * b, -a, a * q, q * a, a + q, q + a, (a + b) - b, a - a)
        for r in results + tuple(stuffle_product(u, v) for u in a.terms for v in b.terms):
            assert list(r.terms.items()) == list(QSElement(r.terms).terms.items())
            assert all(type(c) is Fraction and c for c in r.terms.values())
            assert all(type(idx) is tuple for idx in r.terms)
        assert (a + b) - b == a
        assert a - a == QSElement.zero()

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

    def test_admissible_support_invariant(self):
        for idx in [(1, 1, 1), (2, 1, 1), (1, 2, 1), (3, 1)]:
            poly = regularize(idx)
            poly.check_admissible_support()  # raises on violation

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
            approx = eval_tpoly(regularize(idx), math.log(M) + EULER_GAMMA, 1e-9)
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
        t = Tableau(make_skew((2,)), ((1, 2),))
        M = 2048
        approx = eval_tpoly(schur_regularize(t), math.log(M) + EULER_GAMMA, 1e-9)
        exact = float(truncated_schur_zeta(t, M))
        assert approx == pytest.approx(exact, abs=5e-3)


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
        theta = trivial_decomposition(Ribbon(shape))
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
        import schurmzv.stuffle as stuffle_module

        host = make_skew((3, 2, 2), (1,))
        k = diagonal_tableau(host, {2: 3, 1: 1, 0: 1, -1: 3, -2: 1})
        theta = decomposition_from_ribbon(host, anchored_ribbon(-2, (RIGHT, UP, UP, RIGHT)))
        calls = []

        def counted(idx, tol):
            calls.append(idx)
            return numeric_mzv(idx, tol)

        monkeypatch.setattr(stuffle_module, "numeric_mzv", counted)
        counts = []
        for samples in ([0.0], [0.0, 1.0], [0.0, 1.0, 2.0, -3.5]):
            calls.clear()
            regularized_jt_check(k, theta, samples)
            counts.append(len(calls))
        assert counts[0] > 0
        assert counts == [counts[0]] * 3

    def test_shape_mismatch(self):
        k = diagonal_tableau(make_skew((1, 1)), {-1: 2, 0: 2})
        theta = trivial_decomposition(Ribbon(make_skew((1, 1, 1))))
        with pytest.raises(PreconditionError):
            regularized_jt_check(k, theta, [0.0])
