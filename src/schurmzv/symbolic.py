"""Exact closed-form zeta arithmetic: the ring Q[pi^4, z3, z5, ...][T].

Values here are sparse polynomials over exact rationals in the generators
P (standing for pi^4, weight 4), T (the regularization variable, weight 1),
and Zk = zeta(k) for odd k >= 3 (weight k).  No relations among generators
are assumed.  Even zetas never appear as generators: zeta(4l) is rewritten
as a rational multiple of P^l, and zeta(k) for k == 2 (mod 4) is refused,
since it does not lie in this ring.

A monomial is one non-negative int: generator slot i (P, T, Z3, Z5, ...)
holds its exponent in bits [16i, 16i + 16), so multiplying two monomials
adds two ints.  An exponent stays below 2^15, half its field, so the sum of
two never carries into the next slot: the constructor refuses a larger one
and a product that reaches it raises.  The constructor and ``coefficient``
take (generator, exponent) pairs, and ``render`` and ``to_json_dict``
order terms on those pairs.

The ring core of these values, TermMap, is shared with the quasi-shuffle
algebra (stuffle.QSElement) and its extension by T (stuffle.TPoly, keyed by
(j, idx) for T^j times the index); the tests build one more ring on it, the
Gaussian rationals of their Bernoulli oracles.  The class constant
``_unit`` names the key of the unit, ``()`` unless a subclass says
otherwise.  ``det`` is the one determinant routine, over any commutative
ring.  Public values always carry canonical Fraction coefficients; only
inside ``sym_det`` (and ``evaluate.det_fraction``) does ``det`` run on
rows cleared to int coefficients, which are divided back into Fractions
once at the end.  At load time this module imports nothing from the
package but ``errors``, so every other module can build on it without a
cycle.

Also provides Bernoulli numbers (B1 = -1/2) and the exact coefficient
sequences for zeta({4}^n) and its star variant.  All values are immutable
and safe to share.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache, reduce
from operator import or_
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple, TypeVar, Union

from .errors import PreconditionError, ResourceLimitError

Scalar = Union[int, Fraction]

#: a commutative ring element: Fraction, ZetaSymbolValue, QSElement, ...
R = TypeVar("R")

#: monomial: the exponent of generator slot i (P 0, T 1, Zk (k+1)/2) in
#: bits [FIELD_BITS * i, FIELD_BITS * (i + 1)); 0 is the unit
Monomial = int

FIELD_BITS = 16
#: every exponent stays below this, half its field, so that adding two
#: in-range exponents never carries into the next slot
EXPONENT_GUARD = 1 << (FIELD_BITS - 1)
_FIELD = (1 << FIELD_BITS) - 1

#: a monomial as (generator name, exponent) pairs, in any order
GeneratorPairs = Tuple[Tuple[str, int], ...]


def _slot(g: str) -> int:
    """Slot of generator g in a monomial; P, T and Zk for odd k >= 3 only."""
    if g == "P":
        return 0
    if g == "T":
        return 1
    k = g[1:] if isinstance(g, str) and g.startswith("Z") else ""
    if k.isascii() and k.isdigit() and k[0] != "0" and int(k) % 2 and int(k) >= 3:
        return (int(k) + 1) // 2
    raise PreconditionError(f"generators are P, T and Zk for odd k >= 3, got {g!r}")


def _gen_name(slot: int) -> str:
    return "P" if slot == 0 else "T" if slot == 1 else f"Z{2 * slot - 1}"


def _monomial(pairs: GeneratorPairs) -> Monomial:
    """Packed monomial of (generator, exponent) pairs; a repeated generator
    adds its exponents."""
    exps: Dict[int, int] = {}
    for g, e in pairs:
        i = _slot(g)
        exps[i] = exps.get(i, 0) + e
    if any(not 0 <= e < EXPONENT_GUARD for e in exps.values()):
        raise PreconditionError(f"exponents of {pairs!r} must lie in [0, {EXPONENT_GUARD})")
    return sum(e << FIELD_BITS * i for i, e in exps.items())


def _exponents(mono: Monomial) -> Iterator[Tuple[int, int]]:
    """(slot, exponent) of each generator of a monomial, in slot order."""
    i = 0
    while mono:
        if mono & _FIELD:
            yield i, mono & _FIELD
        mono >>= FIELD_BITS
        i += 1


def _pairs(mono: Monomial) -> GeneratorPairs:
    """(generator, exponent) pairs of a monomial, in slot order."""
    return tuple((_gen_name(i), e) for i, e in _exponents(mono))


def monomial_weight(mono: Monomial) -> int:
    return sum((4 if i == 0 else 2 * i - 1) * e for i, e in _exponents(mono))


class TermMap:
    """Sparse map key -> nonzero Fraction: the arithmetic of the exact rings.

    ZetaSymbolValue (keys are monomials), stuffle.QSElement (keys are
    indices) and stuffle.TPoly (keys are (power of T, index) pairs) share
    it.  A subclass supplies its constructor and ``_product``, the bilinear
    product of two elements as a term dict that may hold zeros; ``_unit``
    is the key of the unit.
    Rationals act as constants.  An operand of another subclass gets
    NotImplemented, so mixing rings raises TypeError and compares unequal.
    """

    __slots__ = ("terms",)

    #: the key of the ring unit; rationals are multiples of it
    _unit: object = ()

    @classmethod
    def _canonical(cls, terms: Dict) -> "TermMap":
        """Wrap terms that are already canonical: normalised keys, no zero
        coefficients, Fraction coefficients.  Skips the constructor's checks.

        The one exception is internal: ``sym_det`` wraps int coefficients
        for its row-cleared ``det`` and turns the result back into
        Fractions before it is returned (see :func:`_integer_rows`)."""
        v = object.__new__(cls)
        v.terms = terms
        return v

    @classmethod
    def zero(cls) -> "TermMap":
        return cls._canonical({})

    @classmethod
    def one(cls) -> "TermMap":
        return cls._canonical({cls._unit: Fraction(1)})

    def _coerce(self, other: object) -> Optional["TermMap"]:
        """other as an element of this ring, or None if it is foreign."""
        if isinstance(other, type(self)):
            return other
        if isinstance(other, (int, Fraction)):
            return self._canonical({self._unit: Fraction(other)} if other else {})
        return None

    @staticmethod
    def _accumulate(out: Dict, terms: Dict, scale: Scalar = 1) -> None:
        """out += scale * terms in place, dropping coefficients that cancel
        and zero terms, which a raw ``_product`` may hold.

        Surviving keys keep their first-insertion order, which is the order
        a chain of ``+`` would give; float sums over the terms (eval_tpoly,
        numeric_value) run in that order.
        """
        scaled = scale != 1
        for key, c in terms.items():
            if scaled:
                c = c * scale
            if key in out:
                s = out[key] + c
                if s:
                    out[key] = s
                else:
                    del out[key]
            elif c:
                out[key] = c

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other: object) -> bool:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self) -> int:
        # A constant equals its scalar, so it hashes like it.
        if self.terms.keys() <= {self._unit}:
            return hash(self.terms.get(self._unit, 0))
        return hash(frozenset(self.terms.items()))

    def __add__(self, other: object, scale: int = 1) -> "TermMap":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out = dict(self.terms)
        TermMap._accumulate(out, other.terms, scale)
        return self._canonical(out)

    __radd__ = __add__

    def __neg__(self) -> "TermMap":
        return self._canonical({k: -c for k, c in self.terms.items()})

    def __sub__(self, other: object) -> "TermMap":
        return self.__add__(other, -1)

    def __rsub__(self, other: object) -> "TermMap":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other: object) -> "TermMap":
        if isinstance(other, (int, Fraction)):
            if not other:
                return self.zero()
            return self._canonical({k: c * other for k, c in self.terms.items()})
        if not isinstance(other, type(self)):
            return NotImplemented
        return self._canonical({k: c for k, c in self._product(other).items() if c})

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "TermMap":
        if n < 0:
            raise PreconditionError("negative powers are not defined in this ring")
        acc = self.one()
        for _ in range(n):
            acc = acc * self
        return acc


class ZetaSymbolValue(TermMap):
    """Sparse polynomial in P, T, Z3, Z5, ... with Fraction coefficients.

    The constructor takes monomials as (generator, exponent) pairs; the
    keys of ``terms`` are packed ints (see Monomial).
    """

    __slots__ = ()

    _unit = 0

    def __init__(self, terms: Dict[GeneratorPairs, Scalar] | None = None):
        clean: Dict[Monomial, Fraction] = {}
        for pairs, c in (terms or {}).items():
            key = _monomial(pairs)
            c = Fraction(c)
            if c:
                clean[key] = clean.get(key, Fraction(0)) + c
        self.terms = {m: c for m, c in clean.items() if c}

    @classmethod
    def rational(cls, q: Scalar) -> "ZetaSymbolValue":
        return cls({(): Fraction(q)})

    @classmethod
    def gen(cls, name: str) -> "ZetaSymbolValue":
        return cls._canonical({1 << FIELD_BITS * _slot(name): Fraction(1)})

    @classmethod
    def P(cls) -> "ZetaSymbolValue":
        return cls.gen("P")

    @classmethod
    def T(cls) -> "ZetaSymbolValue":
        return cls.gen("T")

    @classmethod
    def Z(cls, k: int) -> "ZetaSymbolValue":
        return cls.gen(f"Z{k}")

    def _product(self, other: "ZetaSymbolValue") -> Dict[Monomial, Fraction]:
        """Term dict of self * other: every pair of monomials multiplied, by
        adding their packed ints.

        A sum of two exponents below EXPONENT_GUARD stays below twice it, so
        it sets at most its own field's top bit; one check of the output's
        top bits finds any exponent that reached the guard."""
        out: Dict[Monomial, Fraction] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                key = m1 + m2
                out[key] = out[key] + c1 * c2 if key in out else c1 * c2
        seen = reduce(or_, out, 0)
        ones = ((1 << FIELD_BITS * (seen.bit_length() // FIELD_BITS + 1)) - 1) // _FIELD
        if seen & ones * EXPONENT_GUARD:
            raise ResourceLimitError(f"a product exponent reaches {EXPONENT_GUARD}")
        return out

    def coefficient(self, pairs: GeneratorPairs) -> Fraction:
        return self.terms.get(_monomial(pairs), Fraction(0))

    def generators(self) -> Set[str]:
        """Names of the generators in the support."""
        return {_gen_name(i) for m in self.terms for i, _ in _exponents(m)}

    def substitute_t(self, t: Scalar) -> "ZetaSymbolValue":
        """Replace T by an exact rational."""
        t = Fraction(t)
        out: Dict[Monomial, Fraction] = {}
        for m, c in self.terms.items():
            c *= t ** (m >> FIELD_BITS & _FIELD)
            if c:
                TermMap._accumulate(out, {m & ~(_FIELD << FIELD_BITS): c})
        return self._canonical(out)

    def __repr__(self) -> str:
        return f"Sym<{render(self)}>"


def _render_mono(pairs: GeneratorPairs, sep: str) -> str:
    if not pairs:
        return "1"
    bits = []
    for g, e in pairs:
        if g == "P":
            bits.append(f"pi^{4 * e}")
        elif g == "T":
            bits.append("T" if e == 1 else f"T^{e}")
        else:
            base = f"z{g[1:]}"
            bits.append(base if e == 1 else f"{base}^{e}")
    return sep.join(bits)


def _display_order(v: ZetaSymbolValue) -> List[Tuple[GeneratorPairs, Fraction]]:
    """Terms as (pairs, coefficient), by weight and then by the pairs, whose
    names compare as strings: "Z11" sorts before "Z3"."""
    keyed = sorted((monomial_weight(m), _pairs(m), c) for m, c in v.terms.items())
    return [(pairs, c) for _, pairs, c in keyed]


def render(v: ZetaSymbolValue) -> str:
    """Human-readable text, e.g. "1/32*z3*z5*z11 + ...". """
    if not v.terms:
        return "0"
    parts = []
    for mono, c in _display_order(v):
        ms = _render_mono(mono, "*")
        if mono == ():
            parts.append(str(c))
        elif c == 1:
            parts.append(ms)
        elif c == -1:
            parts.append(f"-{ms}")
        else:
            parts.append(f"{c}*{ms}")
    text = " + ".join(parts)
    return text.replace("+ -", "- ")


def to_json_dict(v: ZetaSymbolValue) -> Dict[str, str]:
    """JSON-friendly map monomial -> coefficient, rationals as "p/q"."""
    return {_render_mono(m, "*"): str(c) for m, c in _display_order(v)}


def det(rows: Sequence[Sequence[R]], zero: R, one: R) -> R:
    """Determinant over any commutative ring, by Laplace expansion memoized
    on column subsets.

    Division-free.  Rows are expanded bottom to top: after k rows, a table
    maps each k-column bitmask to the minor of the last k rows on those
    columns, and the next level is built only from the masks reached, with
    zero entries and zero minors skipped.  That is at most 2^n subset
    minors, each a sum of at most n products: n * 2^(n-1) ring
    multiplications instead of the n! of a plain cofactor expansion.
    Each minor adds its terms in ascending column order, as a first-row
    cofactor expansion does, so over a term-map ring the result lists its
    terms in the same order, and float sums over them (numeric_value) come
    out the same.  Over a term-map ring a minor collects its signed
    products in one term dict, wrapped once; over numbers it uses + and -.

    Exact callers clear rows before they get here: ``sym_det`` and
    ``evaluate.det_fraction`` scale each row to int coefficients with
    :func:`_integer_rows` and divide the result once.  Float and T-poly
    callers pass their rows as they are.
    """
    n = len(rows)
    for r in rows:
        if len(r) != n:
            raise PreconditionError("determinant needs a square matrix")
    term_map = isinstance(one, TermMap)
    minors: Dict[int, R] = {0: one}
    for row in reversed(rows):
        entries = [(1 << c, one._coerce(a) if term_map else a) for c, a in enumerate(row) if a]
        level: Dict[int, R] = {}
        for key in {m | bit for m in minors for bit, _ in entries if not m & bit}:
            if not term_map:
                total = zero
                for bit, a in entries:
                    if key & bit and (key ^ bit) in minors:
                        term = a * minors[key ^ bit]
                        total = total - term if (key & (bit - 1)).bit_count() & 1 else total + term
            else:
                acc: Dict = {}
                for bit, a in entries:
                    if key & bit and (key ^ bit) in minors:
                        sign = -1 if (key & (bit - 1)).bit_count() & 1 else 1
                        TermMap._accumulate(acc, a._product(minors[key ^ bit]), sign)
                total = one._canonical(acc)
            if total:
                level[key] = total
        minors = level
    return minors.get((1 << n) - 1, zero)


def _integer_rows(rows: Sequence[Sequence[R]]) -> Tuple[List[List[R]], int]:
    """The rows scaled to int coefficients, and D, the product of the scales.

    An entry is a rational or a TermMap.  Row i is multiplied by d_i, the
    lcm of the denominators of its coefficients; a determinant is linear in
    each row, so det(rows) = det(scaled rows) / D.  Int arithmetic is far
    cheaper than Fraction arithmetic, and scaling by a nonzero integer
    leaves every product and sum zero exactly when it was, so ``det``
    builds the same minors and its result lists its terms in the same
    order.
    """
    out: List[List[R]] = []
    D = 1
    for row in rows:
        d = math.lcm(*(
            c.denominator
            for a in row
            for c in (a.terms.values() if isinstance(a, TermMap) else (a,))
        ))
        out.append([
            a._canonical({k: c.numerator * (d // c.denominator) for k, c in a.terms.items()})
            if isinstance(a, TermMap)
            else a.numerator * (d // a.denominator)
            for a in row
        ])
        D *= d
    return out, D


def sym_det(rows: Sequence[Sequence[ZetaSymbolValue]]) -> ZetaSymbolValue:
    """Determinant in the symbol ring; see :func:`det` and :func:`_integer_rows`."""
    int_rows, D = _integer_rows(rows)
    v = det(int_rows, ZetaSymbolValue.zero(), ZetaSymbolValue._canonical({0: 1}))
    return ZetaSymbolValue._canonical({m: Fraction(c, D) for m, c in v.terms.items()})


def _numeric_terms(v: ZetaSymbolValue, t_value: float) -> List[float]:
    """Float value of each term, in term order: P -> pi^4, T -> t_value,
    zk -> zeta(k) from numeric_mzv, at full precision."""
    from .mzv import numeric_mzv

    out = []
    for mono, c in v.terms.items():
        x = float(c)
        for i, e in _exponents(mono):
            if i == 0:
                x *= (math.pi**4) ** e
            elif i == 1:
                x *= t_value**e
            else:
                x *= numeric_mzv((2 * i - 1,)) ** e
        out.append(x)
    return out


def numeric_value(v: ZetaSymbolValue, t_value: float = 0.0) -> float:
    """Float evaluation, summing _numeric_terms left to right.

    The terms of a closed form can cancel heavily; numeric_abs_sum tells
    how far the rounding of this sum can reach.
    """
    total = 0.0
    for x in _numeric_terms(v, t_value):
        total += x
    return total


def numeric_abs_sum(v: ZetaSymbolValue, t_value: float = 0.0) -> float:
    """Sum of the absolute values of _numeric_terms.

    Summing n terms in floats can be off by up to about
    n * 2^-53 * numeric_abs_sum, so a numeric_value smaller than that
    carries no correct digit.
    """
    return math.fsum(abs(x) for x in _numeric_terms(v, t_value))


@lru_cache(maxsize=None)
def bernoulli_number(k: int) -> Fraction:
    """B_k with the B_1 = -1/2 convention."""
    if k < 0:
        raise PreconditionError("Bernoulli index must be nonnegative")
    if k == 0:
        return Fraction(1)
    # sum_{j=0}^{k} C(k+1, j) B_j = 0
    acc = Fraction(0)
    for j in range(k):
        acc += math.comb(k + 1, j) * bernoulli_number(j)
    return -acc / (k + 1)


@lru_cache(maxsize=None)
def z4_power(n: int) -> Fraction:
    """zeta({4}^n) = z4_power(n) * pi^(4n); equals 2^(2n+1)/(4n+2)!."""
    if n < 0:
        raise PreconditionError("n must be nonnegative")
    return Fraction(2 ** (2 * n + 1), math.factorial(4 * n + 2))


@lru_cache(maxsize=None)
def z4_star_power(n: int) -> Fraction:
    """zeta-star({4}^n) = z4_star_power(n) * pi^(4n), as the finite
    Bernoulli double-product sum."""
    if n < 0:
        raise PreconditionError("n must be nonnegative")
    total = Fraction(0)
    for j in range(0, 2 * n + 1):
        total += (
            (-1) ** j
            * (1 - Fraction(2) ** (2 * j - 1))
            * (1 - Fraction(2) ** (4 * n - 2 * j - 1))
            * math.comb(4 * n, 2 * j)
            * bernoulli_number(2 * j)
            * bernoulli_number(4 * n - 2 * j)
        )
    return Fraction(4, math.factorial(4 * n)) * total


def zeta_single(k: int) -> ZetaSymbolValue:
    """zeta(k) as a ring element.

    Odd k >= 3 are generators; k divisible by 4 becomes a rational multiple
    of P by the Bernoulli evaluation of zeta(even); k = 1 is the
    regularized value T.  Other even k (k == 2 mod 4) have no home in
    Q[pi^4, z3, z5, ...] and are refused.
    """
    if k < 1:
        raise PreconditionError("zeta argument must be a positive integer")
    if k == 1:
        return ZetaSymbolValue.T()
    if k % 2 == 1:
        return ZetaSymbolValue.Z(k)
    if k % 4 != 0:
        raise PreconditionError(
            f"zeta({k}) is a rational multiple of pi^{k} with {k} == 2 (mod 4), "
            "which lies outside Q[pi^4, zeta(odd)]"
        )
    l = k // 4
    coeff = -bernoulli_number(k) * Fraction(2**k, 2 * math.factorial(k))
    return ZetaSymbolValue({(("P", l),): coeff})
