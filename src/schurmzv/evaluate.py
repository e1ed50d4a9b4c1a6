"""Weighted sums over semistandard fillings and the determinant identity.

The central object is the generic sum over restricted semistandard Young
tableaux: rows weakly increase, columns strictly increase, all entries below
a bound M, and each filling contributes the product of a weight f(m, k) over
its cells.  Specializations give truncated Schur multiple zeta values
(f = m^-k) and skew Schur polynomials (f = x_m).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Callable, Dict, Iterator, List, Sequence

from .errors import InternalCheckError, PreconditionError, ResourceLimitError
from .ribbons import OutsideDecomposition, fill_ribbon, ribbon_matrix, subribbon_of
from .shapes import Cell, DiagonalTableau, SkewShape, Tableau
from .symbolic import det

#: The most fillings one call may enumerate; more raise ResourceLimitError.
#: Each call reads it once, into a local its leaf compares against.
FILLING_CAP = 10**8

WeightFunction = Callable[[int, int], object]


@dataclass
class SsytFilling:
    """One semistandard filling: cell -> summation variable m."""

    shape: SkewShape
    values: Dict[Cell, int]


def _fill_plan(shape: SkewShape):
    """Per-cell neighbour indices and below-chain lengths, in row-major order."""
    cells = shape.cells
    index = {c: t for t, c in enumerate(cells)}
    cs = shape.cell_set
    left = [index.get((i, j - 1)) for (i, j) in cells]
    up = [index.get((i - 1, j)) for (i, j) in cells]
    below = []
    for (i, j) in cells:
        d = 0
        while (i + d + 1, j) in cs:
            d += 1
        below.append(d)
    return cells, left, up, below


def enumerate_ssyt(shape: SkewShape, M: int) -> Iterator[SsytFilling]:
    """Yield every semistandard filling with entries < M, in lexicographic
    order of the row-reading word.

    The empty shape has exactly one (empty) filling.  Raises
    :class:`ResourceLimitError` when more than ``FILLING_CAP`` fillings are
    produced.
    """
    cap = FILLING_CAP
    cells, left, up, below = _fill_plan(shape)
    n = len(cells)
    vals = [0] * n
    count = 0

    def rec(t: int) -> Iterator[SsytFilling]:
        nonlocal count
        if t == n:
            count += 1
            if count > cap:
                raise ResourceLimitError(f"more than {cap} fillings enumerated")
            yield SsytFilling(shape, dict(zip(cells, vals)))
            return
        lo = 1
        if left[t] is not None:
            lo = vals[left[t]]
        if up[t] is not None:
            lo = max(lo, vals[up[t]] + 1)
        for v in range(lo, M - below[t]):
            vals[t] = v
            yield from rec(t + 1)

    return rec(0)


def s_f_m(k: Tableau, M: int, f: WeightFunction) -> object:
    """Sum of prod f(m_cell, k_cell) over all semistandard fillings < M.

    Generic over any commutative ring whose elements combine with the
    integers 0 and 1 under + and *; the empty shape gives 1.
    """
    total = 0
    entries = k.entries
    for filling in enumerate_ssyt(k.shape, M):
        term = 1
        for cell, m in filling.values.items():
            term = term * f(m, entries[cell])
        total = total + term
    return total


def truncated_schur_zeta(k: Tableau, M: int) -> Fraction:
    """Exact truncation of the nested zeta sum attached to the tableau.

    Equals s_f_m with f(m, d) = m^-d but accumulates one integer numerator
    over the common denominator lcm(1..M-1)^weight, which keeps the rational
    reductions out of the inner loop.  Raises :class:`ResourceLimitError`
    when more than ``FILLING_CAP`` fillings are summed.
    """
    cap = FILLING_CAP
    cells, left, up, below = _fill_plan(k.shape)
    if not cells:
        return Fraction(1)
    if M <= 1:
        return Fraction(0)
    entries = k.entries
    exps = [entries[c] for c in cells]
    D = lcm(*range(1, M)) ** sum(exps)
    n = len(cells)
    vals = [0] * n
    num = 0
    count = 0

    def rec(t: int, den: int) -> None:
        nonlocal num, count
        if t == n:
            num += D // den
            count += 1
            if count > cap:
                raise ResourceLimitError(f"more than {cap} fillings enumerated")
            return
        lo = 1
        if left[t] is not None:
            lo = vals[left[t]]
        if up[t] is not None:
            lo = max(lo, vals[up[t]] + 1)
        e = exps[t]
        for v in range(lo, M - below[t]):
            vals[t] = v
            rec(t + 1, den * v**e)

    rec(0, 1)
    return Fraction(num, D)


def det_fraction(matrix: Sequence[Sequence[Fraction]]) -> Fraction:
    """Exact determinant over the rationals; see :func:`symbolic.det`."""
    return det(matrix, Fraction(0), Fraction(1))


def _complete_homogeneous(x: Sequence[Fraction], kmax: int) -> List[Fraction]:
    h = [Fraction(1)] + [Fraction(0)] * kmax
    for xi in x:
        for kk in range(1, kmax + 1):
            h[kk] += xi * h[kk - 1]
    return h


def schur_poly_check(shape: SkewShape, M: int, x: Sequence[Fraction]) -> Fraction:
    """Skew Schur polynomial at x, cross-checked against its h-determinant.

    Evaluates the filling sum with weight f(m, _) = x[m-1] and compares it
    with det(h_{lam_i - mu_j - i + j}); a mismatch raises, since the two are
    theorems of each other.
    """
    if len(x) != M - 1:
        raise PreconditionError(f"need {M - 1} variable values, got {len(x)}")
    x = [Fraction(v) for v in x]
    ones = Tableau(
        shape,
        tuple(
            tuple(1 for _ in range(lo, hi + 1))
            for lo, hi in (shape.row_span(i) for i in range(1, len(shape.lam) + 1))
        ),
    )
    value = s_f_m(ones, M, lambda m, _d: x[m - 1])
    ell = len(shape.lam)
    mu = shape.padded_mu
    kmax = max([shape.lam[i] - mu[j] - i + j for i in range(ell) for j in range(ell)] + [0])
    h = _complete_homogeneous(x, max(kmax, 0))
    mat = [
        [
            h[shape.lam[i] - mu[j] - i + j]
            if 0 <= shape.lam[i] - mu[j] - i + j <= kmax
            else Fraction(0)
            for j in range(ell)
        ]
        for i in range(ell)
    ]
    det = det_fraction(mat)
    if Fraction(value) != det:
        raise InternalCheckError(
            f"filling sum {value} disagrees with h-determinant {det} for {shape}"
        )
    return det


@dataclass(frozen=True)
class JTReport:
    """Both sides of the determinant identity at one truncation level."""

    lhs: Fraction
    rhs: Fraction
    n: int

    @property
    def equal(self) -> bool:
        return self.lhs == self.rhs


def jacobi_trudi_check_exact(
    k: DiagonalTableau, theta: OutsideDecomposition, M: int
) -> JTReport:
    """Compare the tableau sum with its subribbon determinant at level M.

    The (i,j) matrix entry is the truncated value of the subribbon filled
    with the host's diagonal entries; empty subribbons contribute 1 and
    undefined ones 0 (see :func:`ribbon_matrix`).
    """
    if k.shape != theta.host:
        raise PreconditionError("diagonal tableau must live on the decomposition host")
    lhs = truncated_schur_zeta(k.to_tableau(), M)
    mat = ribbon_matrix(
        theta,
        lambda p, q, r: truncated_schur_zeta(fill_ribbon(k, subribbon_of(r, p, q)), M),
        Fraction(0),
        Fraction(1),
    )
    return JTReport(lhs=lhs, rhs=det_fraction(mat), n=len(mat))
