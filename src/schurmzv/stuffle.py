"""Quasi-shuffle algebra on indices and harmonic regularization.

A QSElement is a formal rational combination of indices; multiplication is
the quasi-shuffle (stuffle) product, under which truncated evaluation is a
ring homomorphism.  Divergent indices (trailing parts equal to 1) acquire a
polynomial regularization in a variable T, normalized so the single part 1
maps to T; the truncated value then tracks the polynomial at log M + gamma
up to O(log^J M / M).

Symbolic operations here are pure.  Two module caches live here, both
unbounded and both keyed by index: ``stuffle_product`` is an lru_cache, and
``_regularize_cache`` maps an index to its T-polynomial.  Cached values are
shared with every caller and must not be mutated.  Concurrent threads may
compute an entry twice but always store the same value.  The third cache,
``mzv._numeric_cache``, and all three together are described in the README
section "Caches and threads".
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Dict, List, Sequence, Tuple, Union

from .errors import InternalCheckError, PreconditionError
from .mzv import (
    Index,
    expand_tableau,
    is_admissible_index,
    numeric_mzv,
    truncated_mzv,
)
from .ribbons import OutsideDecomposition, fill_ribbon, ribbon_matrix, subribbon_of
from .shapes import DiagonalTableau, Tableau, is_admissible

Scalar = Union[int, Fraction]


class QSElement:
    """Finite map index -> rational; the empty index is the ring unit."""

    __slots__ = ("terms",)

    def __init__(self, terms: Dict[Index, Scalar] | None = None):
        clean: Dict[Index, Fraction] = {}
        for idx, c in (terms or {}).items():
            c = Fraction(c)
            if c:
                clean[tuple(idx)] = c
        self.terms = clean

    @classmethod
    def _canonical(cls, terms: Dict[Index, Fraction]) -> "QSElement":
        """Wrap terms that are already canonical: tuple indices, nonzero
        Fraction coefficients.  Skips the constructor's checks."""
        v = object.__new__(cls)
        v.terms = terms
        return v

    @classmethod
    def from_index(cls, idx: Sequence[int]) -> "QSElement":
        return cls._canonical({tuple(idx): Fraction(1)})

    @classmethod
    def zero(cls) -> "QSElement":
        return cls._canonical({})

    @classmethod
    def one(cls) -> "QSElement":
        return cls._canonical({(): Fraction(1)})

    def is_admissible_support(self) -> bool:
        return all(idx == () or is_admissible_index(idx) for idx in self.terms)

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, QSElement):
            return self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self == QSElement({(): Fraction(other)})
        return NotImplemented

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def __add__(self, other: "QSElement") -> "QSElement":
        if isinstance(other, (int, Fraction)):
            other = QSElement({(): Fraction(other)})
        out = dict(self.terms)
        _accumulate(out, other.terms)
        return QSElement._canonical(out)

    __radd__ = __add__

    def __neg__(self) -> "QSElement":
        return QSElement._canonical({idx: -c for idx, c in self.terms.items()})

    def __sub__(self, other: "QSElement") -> "QSElement":
        return self + (-other)

    def __mul__(self, other: object) -> "QSElement":
        if isinstance(other, (int, Fraction)):
            if not other:
                return QSElement.zero()
            return QSElement._canonical({idx: c * other for idx, c in self.terms.items()})
        if isinstance(other, QSElement):
            out: Dict[Index, Fraction] = {}
            for u, cu in self.terms.items():
                for v, cv in other.terms.items():
                    cuv = cu * cv
                    for w, cw in stuffle_product(u, v).terms.items():
                        out[w] = out[w] + cuv * cw if w in out else cuv * cw
            return QSElement._canonical({w: c for w, c in out.items() if c})
        return NotImplemented

    __rmul__ = __mul__

    def __repr__(self) -> str:
        if not self.terms:
            return "QS<0>"
        bits = [f"{c}*z{idx}" for idx, c in sorted(self.terms.items())]
        return "QS<" + " + ".join(bits) + ">"


def _accumulate(out: Dict[Index, Fraction], terms: Dict[Index, Fraction], scale: Scalar = 1) -> None:
    """out += scale * terms in place, dropping coefficients that cancel.

    Surviving keys keep their first-insertion order, which is the order a
    chain of ``+`` would give; eval_tpoly sums floats in that order.
    """
    scaled = scale != 1
    for idx, c in terms.items():
        if scaled:
            c = c * scale
        if idx in out:
            s = out[idx] + c
            if s:
                out[idx] = s
            else:
                del out[idx]
        else:
            out[idx] = c


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


def qs_truncated(elem: QSElement, M: int) -> Fraction:
    """Linear extension of the truncated value to combinations."""
    total = Fraction(0)
    for idx, c in elem.terms.items():
        total += c * (Fraction(1) if idx == () else truncated_mzv(idx, M))
    return total


@dataclass(frozen=True)
class TPoly:
    """Polynomial in the regularization variable T with QSElement
    coefficients supported on admissible (or empty) indices."""

    coeffs: Tuple[QSElement, ...]

    def __post_init__(self):
        coeffs = tuple(self.coeffs) or (QSElement.zero(),)
        while len(coeffs) > 1 and not coeffs[-1]:
            coeffs = coeffs[:-1]
        object.__setattr__(self, "coeffs", coeffs)

    @classmethod
    def _from_terms(cls, coeffs: List[Dict[Index, Fraction]]) -> "TPoly":
        """Wrap per-power term maps built by _accumulate."""
        return cls(tuple(QSElement._canonical(c) for c in coeffs))

    def _add_to(self, acc: List[Dict[Index, Fraction]], scale: Scalar = 1) -> None:
        """acc += scale * self, in place, coefficient by coefficient."""
        acc.extend({} for _ in range(len(self.coeffs) - len(acc)))
        for out, c in zip(acc, self.coeffs):
            _accumulate(out, c.terms, scale)

    @classmethod
    def constant(cls, elem: QSElement) -> "TPoly":
        return cls((elem,))

    @classmethod
    def zero(cls) -> "TPoly":
        return cls((QSElement.zero(),))

    @classmethod
    def one(cls) -> "TPoly":
        return cls((QSElement.one(),))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1 if any(bool(c) for c in self.coeffs) else 0

    def is_constant(self) -> bool:
        return len(self.coeffs) == 1

    def shift(self) -> "TPoly":
        """Multiply by T."""
        return TPoly((QSElement.zero(),) + self.coeffs)

    def __add__(self, other: "TPoly") -> "TPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        a = self.coeffs + (QSElement.zero(),) * (n - len(self.coeffs))
        b = other.coeffs + (QSElement.zero(),) * (n - len(other.coeffs))
        return TPoly(tuple(x + y for x, y in zip(a, b)))

    def __neg__(self) -> "TPoly":
        return TPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "TPoly") -> "TPoly":
        return self + (-other)

    def __mul__(self, other: object) -> "TPoly":
        if isinstance(other, (int, Fraction, QSElement)):
            return TPoly(tuple(c * other for c in self.coeffs))
        if isinstance(other, TPoly):
            out: List[Dict[Index, Fraction]] = [
                {} for _ in range(len(self.coeffs) + len(other.coeffs) - 1)
            ]
            for i, a in enumerate(self.coeffs):
                if not a:
                    continue
                for j, b in enumerate(other.coeffs):
                    if b:
                        _accumulate(out[i + j], (a * b).terms)
            return TPoly._from_terms(out)
        return NotImplemented

    __rmul__ = __mul__

    def check_admissible_support(self) -> None:
        for j, c in enumerate(self.coeffs):
            if not c.is_admissible_support():
                raise InternalCheckError(
                    f"coefficient of T^{j} has non-admissible support: {c}"
                )

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
    """
    idx = tuple(int(k) for k in idx)
    hit = _regularize_cache.get(idx)
    if hit is not None:
        return hit
    if not idx or idx[-1] >= 2:
        result = TPoly.constant(QSElement.from_index(idx))
    else:
        head = idx[:-1]
        prod = stuffle_product((1,), head)
        s = prod.terms[idx]
        acc: List[Dict[Index, Fraction]] = []
        regularize(head).shift()._add_to(acc)
        for term, c in prod.terms.items():
            if term == idx:
                continue
            regularize(term)._add_to(acc, -c)
        result = TPoly._from_terms(acc) * Fraction(1, int(s))
    result.check_admissible_support()
    _regularize_cache[idx] = result
    return result


def schur_regularize(k: Tableau) -> TPoly:
    """Regularize the tableau's expansion termwise and sum."""
    acc: List[Dict[Index, Fraction]] = []
    for idx, mult in expand_tableau(k).items():
        regularize(idx)._add_to(acc, mult)
    return TPoly._from_terms(acc)


def _coefficient_values(p: TPoly, tol: float) -> Tuple[float, ...]:
    """The float value of each T-power's coefficient, in power order."""
    values = []
    for coeff in p.coeffs:
        num = 0.0
        for idx, c in coeff.terms.items():
            if idx == ():
                num += float(c)
            else:
                num += float(c) * numeric_mzv(idx, tol)
        values.append(num)
    return tuple(values)


def _at(values: Sequence[float], t_value: float) -> float:
    """Sum the coefficient values against powers of T, lowest first."""
    total = 0.0
    for j, num in enumerate(values):
        total += num * t_value**j
    return total


def eval_tpoly(p: TPoly, t_value: float, tol: float = 1e-8) -> float:
    """Substitute numeric values for admissible indices and T."""
    return _at(_coefficient_values(p, tol), t_value)


@dataclass(frozen=True)
class RegJTReport:
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
    tol: float = 1e-4,
    *,
    entry_tol: float = 1e-8,
) -> RegJTReport:
    """Compare the regularized tableau value against the determinant of the
    regularized ribbon-entry matrix at each T sample.

    Entries come from the ribbon matrix of the decomposition: defined
    subribbons are filled from k's diagonals and regularized, empty ones
    contribute 1 and undefined ones 0.  Each polynomial's coefficients are
    evaluated once; determinants are taken numerically per sample.  For
    admissible k the spread of the determinant across samples measures the
    (expected) cancellation of T.
    """
    import numpy as np

    if k.shape != theta.host:
        raise PreconditionError("tableau shape does not match the decomposition host")
    flat = k.to_tableau()
    lhs_poly = schur_regularize(flat)
    lhs_coeffs = _coefficient_values(lhs_poly, entry_tol)
    entry_coeffs = ribbon_matrix(
        theta,
        lambda p, q, r: _coefficient_values(
            schur_regularize(fill_ribbon(k, subribbon_of(r, p, q))), entry_tol
        ),
        (0.0,),
        (1.0,),
    )

    lhs_vals: List[float] = []
    det_vals: List[float] = []
    for t in t_samples:
        lhs_vals.append(_at(lhs_coeffs, t))
        mat = np.array(
            [[_at(c, t) for c in row] for row in entry_coeffs], dtype=np.float64
        )
        det_vals.append(float(np.linalg.det(mat)))
    disc = max(abs(a - b) for a, b in zip(lhs_vals, det_vals)) if t_samples else 0.0
    spread = (max(det_vals) - min(det_vals)) if det_vals else 0.0
    return RegJTReport(
        t_samples=tuple(float(t) for t in t_samples),
        lhs_values=tuple(lhs_vals),
        det_values=tuple(det_vals),
        max_discrepancy=disc,
        admissible=is_admissible(flat),
        det_t_spread=spread,
        lhs_degree=lhs_poly.degree,
    )
