import importlib
import itertools
import math
import pkgutil
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import schurmzv
from schurmzv import checkerboard
from schurmzv.errors import PreconditionError, ResourceLimitError
from schurmzv.evaluate import det_fraction
from schurmzv.shapes import content_set, diagonal_tableau, is_edge_connected, make_skew
from schurmzv.stuffle import QSElement, TPoly
from schurmzv.symbolic import (
    EXPONENT_GUARD,
    FIELD_BITS,
    TermMap,
    ZetaSymbolValue,
    bernoulli_number,
    det,
    numeric_value,
    render,
    sym_det,
    to_json_dict,
    z4_power,
    z4_star_power,
    zeta_single,
)

from oracles import (
    GaussianRational,
    bareiss_det,
    bernoulli_poly,
    homogeneous_weight,
    zeta_four_block,
    zeta_four_block_star,
)

Sym = ZetaSymbolValue

GENS = ("P", "T", "Z3", "Z5", "Z11")


def _gen_sort_key(g):
    return (0, 0) if g == "P" else (1, 0) if g == "T" else (2, int(g[1:]))


def _mono_mul(m1, m2):
    """Oracle: product of two sorted (generator, exponent) monomials, by merging."""
    out = []
    i = j = 0
    while i < len(m1) and j < len(m2):
        (g1, e1), (g2, e2) = m1[i], m2[j]
        if g1 == g2:
            out.append((g1, e1 + e2))
            i += 1
            j += 1
        elif _gen_sort_key(g1) < _gen_sort_key(g2):
            out.append(m1[i])
            i += 1
        else:
            out.append(m2[j])
            j += 1
    return (*out, *m1[i:], *m2[j:])


def _normal_monomial(mono):
    """Oracle: sort (generator, exponent) pairs, merge a repeated generator by
    adding its exponents, and drop zero exponents."""
    out = []
    for g, e in sorted(mono, key=lambda p: _gen_sort_key(p[0])):
        if out and out[-1][0] == g:
            out[-1] = (g, out[-1][1] + e)
        else:
            out.append((g, e))
    return tuple((g, e) for g, e in out if e)


def pair_product(a, b):
    """Oracle: product of two term dicts keyed by sorted pair monomials."""
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            key = _mono_mul(m1, m2)
            out[key] = out.get(key, 0) + c1 * c2
    return {m: c for m, c in out.items() if c}


def _pair_text(g, e):
    if g == "P":
        return f"pi^{4 * e}"
    base = "T" if g == "T" else f"z{g[1:]}"
    return base if e == 1 else f"{base}^{e}"


def pair_render(terms):
    """Oracle: text of a pair-keyed term dict, by weight and then by the
    pairs, names compared as strings."""
    def weight(mono):
        return sum((4 if g == "P" else 1 if g == "T" else int(g[1:])) * e for g, e in mono)

    parts = []
    for mono, c in sorted(terms.items(), key=lambda kv: (weight(kv[0]), kv[0])):
        ms = "*".join(_pair_text(g, e) for g, e in mono)
        parts.append(str(c) if not mono else ms if c == 1 else f"-{ms}" if c == -1 else f"{c}*{ms}")
    return " + ".join(parts).replace("+ -", "- ") if parts else "0"


def random_pair_terms(rng):
    """One to four terms in P, T, Z3 ... Z15 with small rational coefficients,
    keyed by sorted pair monomials."""
    gens = ("P", "T") + tuple(f"Z{k}" for k in range(3, 16, 2))
    terms = {}
    for _ in range(rng.randint(1, 4)):
        pairs = ((g, rng.randint(1, 3)) for g in rng.sample(gens, rng.randint(0, 3)))
        mono = _normal_monomial(pairs)
        terms[mono] = terms.get(mono, 0) + Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 4))
    return {m: c for m, c in terms.items() if c}


def cofactor_det(rows, zero=Sym.zero(), one=Sym.one()):
    """Oracle: n! cofactor expansion along the first row, skipping zero entries."""
    n = len(rows)
    if n == 0:
        return one

    def rec(rs, cols):
        if len(cols) == 1:
            return rs[0][cols[0]]
        total = zero
        for pos, c in enumerate(cols):
            a = rs[0][c]
            if not a:
                continue
            term = a * rec(rs[1:], cols[:pos] + cols[pos + 1 :])
            total = total + (term if pos % 2 == 0 else -term)
        return total

    return rec(list(rows), tuple(range(n)))


def random_value(rng):
    """Zero a third of the time, else a sum of one to three monomials."""
    if rng.random() < 1 / 3:
        return Sym.zero()
    terms = {}
    for _ in range(rng.randint(1, 3)):
        mono = tuple((g, rng.randint(1, 2)) for g in rng.sample(GENS, rng.randint(0, 2)))
        terms[mono] = Fraction(rng.randint(-4, 4), rng.randint(1, 6))
    return Sym(terms)


def random_index_combination(rng):
    """Zero a third of the time, else one to three indices of length at most 1."""
    if rng.random() < 1 / 3:
        return QSElement.zero()
    return QSElement({
        tuple(rng.randint(1, 3) for _ in range(rng.randint(0, 1))):
            Fraction(rng.randint(-4, 4), rng.randint(1, 6))
        for _ in range(rng.randint(1, 3))
    })


def random_fraction(rng):
    """Zero a third of the time, else a small rational."""
    if rng.random() < 1 / 3:
        return Fraction(0)
    return Fraction(rng.randint(-9, 9), rng.randint(1, 6))


values = st.dictionaries(
    st.dictionaries(st.sampled_from(GENS), st.integers(0, 3), max_size=3).map(
        lambda d: tuple(d.items())
    ),
    st.fractions(min_value=-3, max_value=3, max_denominator=5),
    max_size=5,
).map(Sym)


def _is_index(k):
    return type(k) is tuple and all(type(p) is int and p >= 1 for p in k)


def _qs_elements(depth, size):
    return st.dictionaries(
        st.lists(st.integers(min_value=1, max_value=3), max_size=depth).map(tuple),
        st.fractions(min_value=-3, max_value=3, max_denominator=5),
        max_size=size,
    ).map(QSElement)

#: Per ring: a strategy for its elements, and the test of a canonical key.
RINGS = {
    ZetaSymbolValue: (
        values,
        lambda m: type(m) is int
        and m >= 0
        and all(
            m >> s & (1 << FIELD_BITS) - 1 < EXPONENT_GUARD
            for s in range(0, m.bit_length(), FIELD_BITS)
        ),
    ),
    QSElement: (_qs_elements(3, 5), _is_index),
    TPoly: (
        st.lists(_qs_elements(2, 3), max_size=3).map(TPoly),
        lambda k: type(k) is tuple and len(k) == 2 and type(k[0]) is int and k[0] >= 0
        and _is_index(k[1]),
    ),
    GaussianRational: (
        st.builds(
            GaussianRational.of,
            st.fractions(min_value=-3, max_value=3, max_denominator=5),
            st.fractions(min_value=-3, max_value=3, max_denominator=5),
        ),
        lambda k: k in ((), "i"),
    ),
}


def test_every_term_map_is_sampled():
    for info in pkgutil.iter_modules(schurmzv.__path__):
        importlib.import_module(f"schurmzv.{info.name}")
    ours = {c for c in TermMap.__subclasses__() if c.__module__.startswith("schurmzv.")}
    assert ours == {c for c in RINGS if c.__module__.startswith("schurmzv.")}


@pytest.mark.parametrize("cls", list(RINGS), ids=lambda c: c.__name__)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_ring_laws(cls, data):
    elements, canonical_key = RINGS[cls]
    a, b, c = (data.draw(elements) for _ in range(3))
    q = data.draw(st.fractions(min_value=-2, max_value=2, max_denominator=3))
    for r in (a + b, a - b, a * b, -a, a * q, q * a, a + q, q + a, q - a, (a + b) - b, a**2):
        assert type(r) is cls
        assert all(canonical_key(k) and type(v) is Fraction and v for k, v in r.terms.items())
    assert (a + b) - b == a
    assert a - a == cls.zero()
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert cls.one() * a == a
    constant = cls.one() * q
    assert constant == q and hash(constant) == hash(q)


class TestRing:
    def test_commutativity(self):
        p, z3 = Sym.P(), Sym.Z(3)
        assert p * z3 + z3 * p - 2 * (z3 * p) == Sym.zero()

    def test_unit_and_rational(self):
        assert Sym.one() * Sym.Z(5) == Sym.Z(5)
        assert Sym.rational(Fraction(2, 3)) * Sym.rational(Fraction(3, 2)) == 1

    def test_pow(self):
        assert Sym.P() ** 2 == Sym.P() * Sym.P()
        assert Sym.Z(3) ** 0 == Sym.one()

    def test_weight(self):
        v = Sym.P() * Sym.Z(3) * Sym.T()
        assert homogeneous_weight(v) == 8
        assert homogeneous_weight(Sym.zero()) is None
        with pytest.raises(PreconditionError, match="not weight-homogeneous"):
            homogeneous_weight(Sym.P() + Sym.Z(3))

    def test_even_generator_rejected(self):
        with pytest.raises(PreconditionError):
            Sym.Z(4)

    def test_constructor_merges_repeated_generators(self):
        assert Sym({(("P", 1), ("P", 2)): 1}) == Sym.P() ** 3
        assert Sym({(("Z3", 1), ("P", 1), ("Z3", 1)): 2}) == 2 * Sym.P() * Sym.Z(3) ** 2
        assert Sym({(("T", 2), ("T", -2)): 5}) == 5
        assert (Sym.P() ** 3).coefficient((("P", 2), ("P", 1))) == 1

    @pytest.mark.parametrize("name", ["Z4", "Z1", "Z0", "Z", "Z03", "Z-3", "z3", "X", "PT"])
    def test_constructor_refuses_unknown_generators(self, name):
        with pytest.raises(PreconditionError):
            Sym({((name, 1),): 1})
        with pytest.raises(PreconditionError):
            Sym.gen(name)

    def test_constructor_refuses_negative_exponents(self):
        for mono in ((("T", -1),), (("T", 1), ("T", -2)), (("P", 1), ("Z3", -1))):
            with pytest.raises(PreconditionError):
                Sym({mono: 1})
        with pytest.raises(PreconditionError):
            Sym.one().coefficient((("Z5", -1),))

    def test_exponents_stay_below_the_guard(self):
        """An exponent fills half its field at most: the constructor refuses
        one at the guard, and a product of in-range monomials that reaches
        it raises instead of carrying into the next generator."""
        top = EXPONENT_GUARD - 1
        assert Sym({(("P", top - 1),): 1}) * Sym.P() == Sym({(("P", top),): 1})
        refused = ((("T", EXPONENT_GUARD),), (("T", top), ("T", 1)), (("Z3", 1), ("Z11", 2 * top)))
        for mono in refused:
            with pytest.raises(PreconditionError):
                Sym({mono: 1})
        half = Sym({(("T", EXPONENT_GUARD // 2),): 1})
        for a, b in ((half, half), (Sym({(("P", top),): 1}), Sym.Z(3) + Sym.P()),
                     (Sym({(("Z11", top),): 1}), Sym.Z(11))):
            with pytest.raises(ResourceLimitError):
                a * b

    def test_generators(self):
        v = Sym.P() * Sym.Z(11) ** 2 + 3 * Sym.T()
        assert v.generators() == {"P", "T", "Z11"}
        assert Sym.one().generators() == set() == Sym.zero().generators()
        assert "Z11" in v.generators() and "Z3" not in v.generators()

    def test_products_match_pair_oracle(self):
        """The exponent-vector product against the merge of sorted pairs:
        same terms in the same order, and the same text."""
        rng = random.Random(20260101)
        for _ in range(200):
            a, b = random_pair_terms(rng), random_pair_terms(rng)
            got = Sym(a) * Sym(b)
            oracle = pair_product(a, b)
            assert list(got.terms.items()) == list(Sym(oracle).terms.items())
            assert render(got) == pair_render(oracle)

    def test_rings_do_not_mix(self):
        for a, b in itertools.permutations([cls.one() for cls in RINGS], 2):
            for op in (lambda: a + b, lambda: a - b, lambda: a * b):
                with pytest.raises(TypeError):
                    op()
            assert a != b and not a == b

    def test_constants_hash_like_their_scalar(self):
        assert 1 in {Sym.one()}
        assert 0 in {QSElement.zero()}
        assert Fraction(1, 2) in {Sym.rational(Fraction(1, 2))}
        assert Sym.one() in {1} and QSElement.from_index(()) in {1}
        assert GaussianRational.of(3) == 3 and 3 in {GaussianRational.of(3)}

    def test_substitute_t(self):
        v = Sym.Z(3) * Sym.T() + Sym.P()
        assert v.substitute_t(0) == Sym.P()
        assert v.substitute_t(2) == 2 * Sym.Z(3) + Sym.P()


class TestDet:
    def test_one_by_one(self):
        assert sym_det([[Sym.Z(3)]]) == Sym.Z(3)

    def test_two_by_two(self):
        m = [[Sym.Z(3), Sym.one()], [Sym.P(), Sym.Z(5)]]
        assert sym_det(m) == Sym.Z(3) * Sym.Z(5) - Sym.P()
        mixed = [[Sym.Z(3), 1], [Fraction(1, 2), Sym.Z(5)]]
        assert sym_det(mixed) == Sym.Z(3) * Sym.Z(5) - Fraction(1, 2)

    def test_empty(self):
        assert sym_det([]) == Sym.one()

    def test_non_square(self):
        with pytest.raises(PreconditionError):
            sym_det([[Sym.one(), Sym.one()]])

    def test_matches_cofactor_oracle(self):
        """The one determinant routine in all three exact rings.

        Over term-map rings the result must also list its terms in the
        oracle's order: numeric_value sums terms in dict order, so the same
        order keeps float companions of a determinant bit-identical.
        """
        rings = (
            (random_value, Sym.zero(), Sym.one(), sym_det, 7),
            (random_index_combination, QSElement.zero(), QSElement.one(),
             lambda m: det(m, QSElement.zero(), QSElement.one()), 5),
            (random_fraction, Fraction(0), Fraction(1), det_fraction, 7),
        )
        for draw, zero, one, determinant, sizes in rings:
            rng = random.Random(20190814)
            for n in range(sizes):
                for trial in range(12 if n < 6 else 4):
                    m = [[draw(rng) for _ in range(n)] for _ in range(n)]
                    if n and trial % 3 == 1:
                        m[rng.randrange(n)] = [zero] * n
                    if n and trial % 3 == 2:
                        c = rng.randrange(n)
                        for row in m:
                            row[c] = zero
                    got, oracle = determinant(m), cofactor_det(m, zero, one)
                    assert got == oracle
                    if isinstance(got, Fraction):
                        assert got == bareiss_det(m)
                    else:
                        assert list(got.terms) == list(oracle.terms)

    def test_integer_rows_match_fraction_path(self):
        """sym_det and det_fraction run det on rows cleared to int
        coefficients and divide once at the end.

        On seeded matrices with mixed denominators and signs, zero entries
        and, every other trial, an all-zero row, sym_det must equal det on
        the Fraction rows term for term, in the same order, with Fraction
        coefficients only; det_fraction must equal Bareiss elimination.
        """

        def mixed(rng):
            return Fraction(rng.choice((-1, 1)) * rng.randint(1, 40),
                            rng.choice((1, 2, 3, 4, 6, 9, 25, 36, 49, 128)))

        def value(rng):
            if rng.random() < 0.3:
                return Sym.zero()
            gens = ("P", "T", "Z3", "Z5", "Z7")
            return Sym({
                tuple((g, rng.randint(1, 2)) for g in rng.sample(gens, rng.randint(0, 2))): mixed(rng)
                for _ in range(rng.randint(1, 3))
            })

        def scalar(rng):
            return Fraction(0) if rng.random() < 0.3 else mixed(rng)

        rng = random.Random(1731)
        for n in range(8):
            for trial in range(6 if n < 6 else 2):
                m = [[value(rng) for _ in range(n)] for _ in range(n)]
                q = [[scalar(rng) for _ in range(n)] for _ in range(n)]
                if n and trial % 2:
                    r = rng.randrange(n)
                    m[r], q[r] = [Sym.zero()] * n, [Fraction(0)] * n
                got = sym_det(m)
                assert list(got.terms.items()) == list(det(m, Sym.zero(), Sym.one()).terms.items())
                assert all(type(c) is Fraction for c in got.terms.values())
                got = det_fraction(q)
                assert type(got) is Fraction and got == bareiss_det(q)

    def test_checkerboard_matrices_match_cofactor_oracle(self, monkeypatch):
        """det on the stair and column ribbon matrices of seeded (1,3)
        checkerboards in a 5x5 box (up to 6x6): the oracle's terms in the
        oracle's order, on the Fraction rows and through sym_det.

        The sample must hold a T entry, a column entry of several terms,
        and a minor in which a product cancels a term that an earlier
        entry put there, so that the kernel's zero rule is exercised.
        """
        matrices = []
        monkeypatch.setattr(checkerboard, "sym_det", lambda rows: matrices.append(rows) or Sym.one())
        rng = random.Random(3401)
        for _ in range(60):
            lam = sorted((rng.randint(1, 5) for _ in range(rng.randint(1, 5))), reverse=True)
            mu = [rng.randint(0, part) for part in lam]
            shape = make_skew(lam, sorted((m for m in mu if m), reverse=True))
            if not shape.cells or not is_edge_connected(shape):
                continue
            for even in (1, 3):
                t = diagonal_tableau(shape, {c: even if c % 2 == 0 else 4 - even for c in content_set(shape)})
                checkerboard.evaluate_checkerboard_13(t)
                checkerboard.evaluate_checkerboard_13_column(t)
        cancelled = []
        kernel = Sym._mul_into

        def watched(self, other, out, scale=1):
            before = set(out)
            kernel(self, other, out, scale)
            cancelled.append(bool(before - out.keys()))

        for rows in matrices:
            oracle = list(cofactor_det(rows).terms.items())
            monkeypatch.setattr(Sym, "_mul_into", watched)
            assert list(det(rows, Sym.zero(), Sym.one()).terms.items()) == oracle
            monkeypatch.setattr(Sym, "_mul_into", kernel)
            assert list(sym_det(rows).terms.items()) == oracle
        entries = [a for rows in matrices for row in rows for a in row]
        assert len(matrices) > 100 and any(cancelled)
        assert any("T" in a.generators() for a in entries)
        assert any(len(a.terms) > 1 for a in entries)

    def test_minor_reaching_the_exponent_guard_raises(self):
        """The guard is checked once per minor, before the next level reads
        it; a monomial that reached it and cancelled is gone, and nothing
        is multiplied by it."""
        half = Sym({(("T", EXPONENT_GUARD // 2),): 1})
        zero, one = Sym.zero(), Sym.one()
        with pytest.raises(ResourceLimitError, match=f"a product exponent reaches {EXPONENT_GUARD}"):
            sym_det([[one, zero, zero], [zero, half, zero], [zero, zero, half]])
        with pytest.raises(ResourceLimitError):
            sym_det([[half, one], [Sym.Z(3), half]])
        assert sym_det([[half, half], [half, half]]) == 0

    def test_matches_numeric(self):
        m = [
            [Sym.Z(3), Sym.rational(Fraction(1, 2)), Sym.P()],
            [Sym.one(), Sym.Z(5), Sym.Z(3)],
            [Sym.zero(), Sym.P(), Sym.Z(7)],
        ]
        sym = numeric_value(sym_det(m))
        import numpy as np

        num = float(np.linalg.det(np.array([[numeric_value(x) for x in row] for row in m])))
        assert sym == pytest.approx(num, rel=1e-9)


class TestRender:
    def test_text(self):
        v = Sym.rational(Fraction(1, 32)) * Sym.Z(3) * Sym.Z(5) * Sym.Z(11)
        assert render(v) == "1/32*z3*z5*z11"

    def test_pi_rendering(self):
        assert render(Sym.P()) == "pi^4"
        assert render(Sym.P() ** 2) == "pi^8"

    def test_zero(self):
        assert render(Sym.zero()) == "0"

    def test_json(self):
        v = Sym.P() + Sym.rational(Fraction(-1, 2)) * Sym.Z(3) * Sym.T()
        d = to_json_dict(v)
        assert d == {"T*z3": "-1/2", "pi^4": "1"}

    def test_order_at_tied_weights(self):
        """Equal weights sort on the generator names as strings, not on
        their indices: z11 before z3."""
        z = Sym.Z
        w14 = z(7) ** 2 + z(5) * z(9) + z(3) * z(11) + Sym.P() * z(3) * z(7)
        assert list(to_json_dict(w14)) == ["pi^4*z3*z7", "z3*z11", "z5*z9", "z7^2"]
        assert render(w14) == "pi^4*z3*z7 + z3*z11 + z5*z9 + z7^2"
        w24 = z(3) * z(21) + z(11) * z(13)
        assert list(to_json_dict(w24)) == ["z11*z13", "z3*z21"]


class TestBernoulli:
    def test_small(self):
        assert bernoulli_number(0) == 1
        assert bernoulli_number(1) == Fraction(-1, 2)
        assert bernoulli_number(2) == Fraction(1, 6)
        assert bernoulli_number(3) == 0
        assert bernoulli_number(12) == Fraction(-691, 2730)

    def test_von_staudt_clausen_denominator(self):
        # denominator of B_2n is the product of primes p with (p-1) | 2n
        for n2 in (2, 4, 6, 8, 10, 12, 16):
            primes = [p for p in range(2, n2 + 2) if all(p % q for q in range(2, p)) and n2 % (p - 1) == 0]
            expected = math.prod(primes)
            assert bernoulli_number(n2).denominator == expected

    def test_poly_half(self):
        assert bernoulli_poly(1, Fraction(1, 2)) == GaussianRational.of(0)

    @settings(max_examples=25, deadline=None)
    @given(
        k=st.integers(min_value=0, max_value=12),
        re=st.fractions(min_value=-3, max_value=3, max_denominator=6),
        im=st.fractions(min_value=-3, max_value=3, max_denominator=6),
    )
    def test_poly_symmetry(self, k, re, im):
        x = GaussianRational.of(re, im)
        lhs = bernoulli_poly(k, 1 - x)
        rhs = (-1) ** k * bernoulli_poly(k, x)
        assert lhs == rhs

    @settings(max_examples=25, deadline=None)
    @given(
        k=st.integers(min_value=0, max_value=10),
        re=st.fractions(min_value=-2, max_value=2, max_denominator=4),
        im=st.fractions(min_value=-2, max_value=2, max_denominator=4),
    )
    def test_poly_conjugation(self, k, re, im):
        x = GaussianRational.of(re, im)
        assert bernoulli_poly(k, x.conj()) == bernoulli_poly(k, x).conj()

    def test_b5_at_half_minus_half_i(self):
        x = GaussianRational.of(Fraction(1, 2), Fraction(-1, 2))
        v = bernoulli_poly(5, x)
        assert v.is_imaginary() and not v.is_real()


class TestGaussian:
    def test_arithmetic(self):
        i = GaussianRational.of(0, 1)
        assert i * i == GaussianRational.of(-1)
        assert (1 + i) * (1 - i) == GaussianRational.of(2)

    def test_conjugation_involution(self):
        x = GaussianRational.of(Fraction(2, 3), Fraction(-5, 7))
        assert x.conj().conj() == x

    def test_pow(self):
        i = GaussianRational.of(0, 1)
        assert i**4 == GaussianRational.of(1)
        assert (1 + i) ** 2 == GaussianRational.of(0, 2)


class TestZ4Series:
    def test_z4_small(self):
        assert z4_power(0) == 1
        assert z4_power(1) == Fraction(1, 90)
        assert z4_power(2) == Fraction(32, math.factorial(10))
        assert z4_power(2) == Fraction(1, 113400)

    def test_z4_pair_identity(self):
        # zeta({4}^2) = (zeta(4)^2 - zeta(8)) / 2
        z4 = Fraction(1, 90)
        z8 = Fraction(1, 9450)
        assert z4_power(2) == (z4**2 - z8) / 2

    def test_z4_star_small(self):
        assert z4_star_power(0) == 1
        assert z4_star_power(1) == Fraction(1, 90)
        assert z4_star_power(2) == Fraction(13, 113400)

    def test_inverse_series(self):
        # Z4(-t) * Z4star(t) = 1: sum_k (-1)^k z4(k) z4star(n-k) = [n == 0]
        for n in range(0, 7):
            acc = sum((-1) ** k * z4_power(k) * z4_star_power(n - k) for k in range(n + 1))
            assert acc == (1 if n == 0 else 0)

    def test_ring_elements(self):
        assert zeta_four_block(1) == Sym.rational(Fraction(1, 90)) * Sym.P()
        assert zeta_four_block_star(0) == Sym.one()
        assert homogeneous_weight(zeta_four_block_star(2)) == 8


class TestZetaSingle:
    def test_odd(self):
        assert zeta_single(3) == Sym.Z(3)
        assert zeta_single(11) == Sym.Z(11)

    def test_multiple_of_four(self):
        assert zeta_single(4) == Sym.rational(Fraction(1, 90)) * Sym.P()
        assert zeta_single(8) == Sym.rational(Fraction(1, 9450)) * Sym.P() ** 2

    def test_two_mod_four_refused(self):
        for k in (2, 6, 10):
            with pytest.raises(PreconditionError):
                zeta_single(k)

    def test_one_is_t(self):
        assert zeta_single(1) == Sym.T()

    def test_numeric_consistency(self):
        assert numeric_value(zeta_single(4)) == pytest.approx(math.pi**4 / 90, rel=1e-12)
        assert numeric_value(zeta_single(3)) == pytest.approx(1.2020569031595943, abs=1e-8)
