"""Quasi-shuffle algebra on indices and harmonic regularization.

A QSElement is a formal rational combination of indices (a
symbolic.TermMap); multiplication is the quasi-shuffle (stuffle) product,
under which truncated evaluation is a ring homomorphism.  Divergent indices
(trailing parts equal to 1) acquire a polynomial regularization in a
variable T, normalized so the single part 1 maps to T; the truncated value
then tracks the polynomial at log M + gamma up to O(log^J M / M).  A TPoly
is a TermMap too, keyed by (j, idx) for T^j times the index, with
``_unit`` (0, ()).
Float values of the coefficients come from mzv.numeric_mzv, at full double
precision; it needs nothing from this module.

Symbolic operations here are pure.  Two module caches live here, both
unbounded and both keyed by index: ``stuffle_product`` is an lru_cache, and
``_regularize_cache`` maps an index to its T-polynomial.  Cached values are
shared with every caller and must not be mutated.  Concurrent threads may
compute an entry twice but always store the same value.  The third cache,
``mzv._numeric_cache``, and all three together are described in the README
section "Caches and threads".
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Dict, List, Sequence, Tuple

from .mzv import Index, check_index, expand_tableau, numeric_mzv
from .record import Record
from .ribbons import OutsideDecomposition, jacobi_trudi_sides, ribbon_tableau
from .shapes import DiagonalTableau, Tableau, is_admissible
from .symbolic import Scalar, TermMap, det


class QSElement(TermMap):
    """Finite map index -> rational; the empty index is the ring unit."""

    __slots__ = ()

    def __init__(self, terms: Dict[Index, Scalar] | None = None):
        clean: Dict[Index, Fraction] = {}
        for idx, c in (terms or {}).items():
            c = Fraction(c)
            if c:
                clean[tuple(idx)] = c
        self.terms = clean

    @classmethod
    def from_index(cls, idx: Sequence[int]) -> "QSElement":
        return cls._canonical({tuple(idx): Fraction(1)})

    def _product(self, other: "QSElement") -> Dict[Index, Fraction]:
        """Term dict of self * other: the stuffle of every pair of indices."""
        out: Dict[Index, Fraction] = {}
        for u, cu in self.terms.items():
            for v, cv in other.terms.items():
                cuv = cu * cv
                for w, cw in stuffle_product(u, v).terms.items():
                    out[w] = out[w] + cuv * cw if w in out else cuv * cw
        return out

    def __repr__(self) -> str:
        if not self.terms:
            return "QS<0>"
        bits = [f"{c}*z{idx}" for idx, c in sorted(self.terms.items())]
        return "QS<" + " + ".join(bits) + ">"


@lru_cache(maxsize=None)
def stuffle_product(u: Index, v: Index) -> QSElement:
    """Quasi-shuffle of two bare indices: interleave, optionally merging
    one part from each side by addition.  Recursion peels largest (last)
    variables."""
    if not u:
        return QSElement.from_index(v)
    if not v:
        return QSElement.from_index(u)
    out: Dict[Index, Fraction] = {}
    for sub, last in (
        (stuffle_product(u[:-1], v), u[-1]),
        (stuffle_product(u, v[:-1]), v[-1]),
        (stuffle_product(u[:-1], v[:-1]), u[-1] + v[-1]),
    ):
        for idx, c in sub.terms.items():
            key = idx + (last,)
            out[key] = out[key] + c if key in out else c
    return QSElement._canonical(out)


class TPoly(TermMap):
    """Polynomial in the regularization variable T with QSElement
    coefficients supported on admissible (or empty) indices.

    A key of ``terms`` is (j, idx), for T^j times the index; the unit is
    (0, ()).  ``coeffs`` lists the coefficient of each power of T.
    """

    __slots__ = ()

    _unit = (0, ())

    def __init__(self, coeffs: Sequence[QSElement]):
        self.terms = {(j, idx): c for j, q in enumerate(coeffs) for idx, c in q.terms.items()}

    @classmethod
    def constant(cls, elem: QSElement) -> "TPoly":
        return cls._canonical({(0, idx): c for idx, c in elem.terms.items()})

    @property
    def coeffs(self) -> Tuple[QSElement, ...]:
        """The coefficient of T^j for j = 0..degree, in that order."""
        out: List[Dict[Index, Fraction]] = [{} for _ in range(self.degree + 1)]
        for (j, idx), c in self.terms.items():
            out[j][idx] = c
        return tuple(QSElement._canonical(c) for c in out)

    @property
    def degree(self) -> int:
        return max((j for j, _ in self.terms), default=0)

    def shift(self) -> "TPoly":
        """Multiply by T."""
        return self._canonical({(j + 1, idx): c for (j, idx), c in self.terms.items()})

    def _product(self, other: "TPoly") -> Dict[Tuple[int, Index], Fraction]:
        """Term dict of self * other: powers of T add, indices stuffle."""
        out: Dict[Tuple[int, Index], Fraction] = {}
        for (i, u), cu in self.terms.items():
            for (j, v), cv in other.terms.items():
                cuv = cu * cv
                for w, cw in stuffle_product(u, v).terms.items():
                    key = (i + j, w)
                    out[key] = out[key] + cuv * cw if key in out else cuv * cw
        return out

    def __repr__(self) -> str:
        return "TPoly[" + "; ".join(repr(c) for c in self.coeffs) + "]"


_regularize_cache: Dict[Index, TPoly] = {}


def regularize(idx: Sequence[int]) -> TPoly:
    """The polynomial in T that the truncated value of idx tracks at
    T = log M + gamma.

    Admissible (and empty) indices map to constants; the single part 1 maps
    to T; the extension is a quasi-shuffle ring homomorphism.  Trailing 1s
    are eliminated by expanding (1)*(head) and solving for the target term,
    whose multiplicity is the number of trailing 1s.

    Every coefficient is supported on admissible (or empty) indices, by
    induction on the number of trailing 1s: every term of (1)*(head) other
    than idx has fewer of them.  The tests check this
    (``tests/oracles.admissible_support``); this function does not.

    A nonempty idx must pass mzv.check_index, or PreconditionError is
    raised.  A tuple is looked up in ``_regularize_cache`` before it is
    checked: every key is a checked index, so a hit needs no check.
    """
    if type(idx) is tuple:
        hit = _regularize_cache.get(idx)
        if hit is not None:
            return hit
    idx = check_index(idx) if len(idx) else ()
    if not idx or idx[-1] >= 2:
        result = TPoly.constant(QSElement.from_index(idx))
    else:
        head = idx[:-1]
        prod = stuffle_product((1,), head)
        acc = dict(regularize(head).shift().terms)
        for term, c in prod.terms.items():
            if term != idx:
                TermMap._accumulate(acc, regularize(term).terms, -c)
        result = TPoly._canonical(acc) * Fraction(1, int(prod.terms[idx]))
    _regularize_cache[idx] = result
    return result


def schur_regularize(k: Tableau) -> TPoly:
    """Regularize the tableau's expansion termwise and sum."""
    acc: Dict[Tuple[int, Index], Fraction] = {}
    for idx, mult in expand_tableau(k).items():
        TermMap._accumulate(acc, regularize(idx).terms, mult)
    return TPoly._canonical(acc)


def _coefficient_values(p: TPoly) -> Tuple[float, ...]:
    """The float value of each T-power's coefficient, in power order."""
    values = [0.0] * (p.degree + 1)
    for (j, idx), c in p.terms.items():
        values[j] += float(c) * numeric_mzv(idx) if idx else float(c)
    return tuple(values)


def _at(values: Sequence[float], t_value: float) -> float:
    """Sum the coefficient values against powers of T, lowest first."""
    total = 0.0
    for j, num in enumerate(values):
        total += num * t_value**j
    return total


def eval_tpoly(p: TPoly, t_value: float) -> float:
    """Substitute numeric values for admissible indices and T."""
    return _at(_coefficient_values(p), t_value)


class RegJTReport(Record):
    t_samples: Tuple[float, ...]
    lhs_values: Tuple[float, ...]
    det_values: Tuple[float, ...]
    max_discrepancy: float
    admissible: bool
    det_t_spread: float
    lhs_degree: int


def regularized_jt_check(
    k: DiagonalTableau,
    theta: OutsideDecomposition,
    t_samples: Sequence[float],
) -> RegJTReport:
    """Compare the regularized tableau value against the determinant of the
    regularized ribbon-entry matrix at each T sample.

    Entries come from the ribbon matrix of the decomposition: defined
    subribbons are filled from k's diagonals and regularized, empty ones
    contribute 1 and undefined ones 0.  Each polynomial's coefficients are
    evaluated once; each sample's determinant is symbolic.det over floats.
    For admissible k the spread of the determinant across samples measures
    the (expected) cancellation of T.
    """
    def value(t: Tableau) -> Tuple[float, ...]:
        return _coefficient_values(schur_regularize(t))

    lhs_coeffs, entry_coeffs = jacobi_trudi_sides(
        k, theta, value, lambda r, values: value(ribbon_tableau(r, values)), (0.0,), (1.0,)
    )

    lhs_vals: List[float] = []
    det_vals: List[float] = []
    for t in t_samples:
        lhs_vals.append(_at(lhs_coeffs, t))
        det_vals.append(det([[_at(c, t) for c in row] for row in entry_coeffs], 0.0, 1.0))
    disc = max(abs(a - b) for a, b in zip(lhs_vals, det_vals)) if t_samples else 0.0
    spread = (max(det_vals) - min(det_vals)) if det_vals else 0.0
    return RegJTReport(
        tuple(float(t) for t in t_samples),
        tuple(lhs_vals),
        tuple(det_vals),
        disc,
        is_admissible(k.to_tableau()),
        spread,
        len(lhs_coeffs) - 1,
    )
