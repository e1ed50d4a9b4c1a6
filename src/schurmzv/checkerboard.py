"""Checkerboard diagonal tableaux: stairs, closed forms, and determinants.

A diagonal tableau is *checkerboard* when consecutive diagonals alternate
between two values ``a`` and ``b``.  Four staircase ribbons organise such
tableaux: the odd-length stairs ``A`` (lowest cell ``a``, 2n+1 cells) and
``B`` (lowest cell ``b``), and the even-length stairs ``S`` (lowest ``b``,
2n cells) and ``SStar`` (lowest ``a``).  In every one of them the cells
carrying ``a`` exit through a right-step and the cells carrying ``b``
through an up-step, so a single zigzag ribbon — direction chosen per
diagonal from the host's own colouring — serves as the cutting guide for
all four kinds at once.  Every guide-induced piece, and every defined
entry of the resulting subribbon table, is then automatically a complete
stair, classified by its length parity and its lowest value.

For ``(a, b) = (1, 3)`` all four stairs have closed forms in the symbol
ring Q[P, Z3, Z5, ...][T], which turns the ribbon determinant into a fully
closed evaluation of any {1,3} checkerboard value.  A column-guide variant
is kept alongside as an independent cross-check; its entries are the
column families (1,3,...), (3,1,...) resolved through the regularized
closed forms.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial
from typing import Dict, Optional, Sequence, Tuple

from .errors import InternalCheckError, PreconditionError
from .mzv import Index
from .ribbons import (
    RIGHT,
    UP,
    OutsideDecomposition,
    Ribbon,
    anchored_ribbon,
    decomposition_from_ribbon,
    ribbon_matrix,
)
from .shapes import (
    DiagonalTableau,
    content_set,
    diagonal_tableau,
    from_cells,
    is_admissible,
)
from .symbolic import (
    GaussianRational,
    ZetaSymbolValue,
    bernoulli_poly,
    sym_det,
    z4_power,
    z4_star_power,
    zeta_single,
)

#: A checkerboard tableau is an ordinary diagonal tableau whose values
#: alternate on consecutive contents; the alias marks intent in signatures.
CheckerboardTableau = DiagonalTableau

KIND_A = "A"
KIND_B = "B"
KIND_S = "S"
KIND_SSTAR = "SStar"
_KINDS = (KIND_A, KIND_B, KIND_S, KIND_SSTAR)

#: Guide preference when several tessellations succeed at once.
KIND_PREFERENCE = (KIND_S, KIND_SSTAR, KIND_A, KIND_B)


@dataclass(frozen=True)
class StairKind:
    """One of the four stair families, with entry values and pair count.

    ``n`` counts the (a, b) pairs: A and B stairs have ``2n + 1`` cells,
    S and SStar stairs have ``2n``.  The degenerate cases are ``A(0)`` and
    ``B(0)`` (a single box holding ``a`` resp. ``b``) and ``S(0)`` and
    ``SStar(0)`` (the empty diagram, value 1).
    """

    kind: str
    a: int
    b: int
    n: int

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise PreconditionError(
                f"unknown stair kind {self.kind!r}; use one of {_KINDS}"
            )
        if self.a < 1 or self.b < 1:
            raise PreconditionError("stair entries must be positive integers")
        if self.n < 0:
            raise PreconditionError("the pair count n must be nonnegative")

    @property
    def n_cells(self) -> int:
        return 2 * self.n + (1 if self.kind in (KIND_A, KIND_B) else 0)


def is_checkerboard(t: DiagonalTableau) -> bool:
    """Whether consecutive diagonals alternate between two values."""
    try:
        check_checkerboard(t)
    except PreconditionError:
        return False
    return True


def check_checkerboard(t: DiagonalTableau) -> Tuple[int, int]:
    """Validate alternation and return the value pair ``(a, b)``.

    With two distinct values present, ``a`` is the smaller one (both
    families treated here have ``a = 1``).  A single-diagonal tableau is
    trivially alternating; its lone value is taken as ``a`` when it is 1
    and as ``b`` otherwise, so that single boxes classify as A(0) or B(0).
    """
    contents = [c for c, _ in t.by_content]
    if not contents:
        raise PreconditionError("empty tableau is not a checkerboard")
    if contents != list(range(contents[0], contents[-1] + 1)):
        raise PreconditionError("checkerboard contents must be consecutive")
    values = t.value_map
    for c in contents[:-1]:
        if values[c] == values[c + 1]:
            raise PreconditionError(
                f"diagonals {c} and {c + 1} carry the same value {values[c]}"
            )
    distinct = sorted(set(values.values()))
    if len(distinct) > 2:
        raise InternalCheckError("alternating map with more than two values")
    if len(distinct) == 2:
        return distinct[0], distinct[1]
    v = distinct[0]
    return (v, v + 1) if v == 1 else (1, v)


def _stair_steps(kind: str, n: int) -> Tuple[str, ...]:
    if kind == KIND_A:
        return (RIGHT, UP) * n
    if kind == KIND_B:
        return (UP, RIGHT) * n
    if kind == KIND_S:
        return (UP,) + (RIGHT, UP) * (n - 1)
    return (RIGHT,) + (UP, RIGHT) * (n - 1)


def _stair_value(kind: str, offset: int, a: int, b: int) -> int:
    even = a if kind in (KIND_A, KIND_SSTAR) else b
    odd = b if kind in (KIND_A, KIND_SSTAR) else a
    return even if offset % 2 == 0 else odd


def stair_tableau(kind: StairKind) -> CheckerboardTableau:
    """The stair diagram of the given kind, filled with its alternation.

    A and B admit ``n = 0`` (a single box); the empty S and SStar stairs
    have no diagram, only the value convention 1, and are rejected here.
    """
    if kind.kind in (KIND_S, KIND_SSTAR) and kind.n == 0:
        raise PreconditionError(
            f"{kind.kind}(0) is the empty diagram (value 1); no tableau exists"
        )
    steps = _stair_steps(kind.kind, kind.n)
    cells = anchored_ribbon(0, steps).shape.cells
    mi = min(i for i, _ in cells)
    mj = min(j for _, j in cells)
    shape = from_cells([(i - mi + 1, j - mj + 1) for i, j in cells])
    c0 = content_set(shape)[0]
    by_content = {
        c0 + k: _stair_value(kind.kind, k, kind.a, kind.b)
        for k in range(kind.n_cells)
    }
    return diagonal_tableau(shape, by_content)


def zeta_13(n: int) -> ZetaSymbolValue:
    """The alternating column value ((1,3) repeated n times) as 2/(4n+2)! P^n."""
    if n < 0:
        raise PreconditionError("n must be nonnegative")
    return ZetaSymbolValue.P() ** n * Fraction(2, factorial(4 * n + 2))


def zeta_3_13(n: int) -> ZetaSymbolValue:
    """The column value (3, then (1,3) n times), expanded into single zetas.

    Equals the alternating sum of Z_{4k+3} against the pure (1,3) columns:
    sum over k of (-1/4)^k zeta(4k+3) zeta_13(n-k).
    """
    if n < 0:
        raise PreconditionError("n must be nonnegative")
    out = ZetaSymbolValue.zero()
    for k in range(n + 1):
        out = out + ZetaSymbolValue.Z(4 * k + 3) * zeta_13(n - k) * Fraction(
            (-1) ** k, 4**k
        )
    return out


def closed_form_13(kind: StairKind) -> ZetaSymbolValue:
    """Closed form of a (1,3) stair value in the symbol ring.

    A(n) = 2/4^n Z_{4n+1} for n >= 1 and A(0) = T (the regularized single
    1); B(n) = 1/4^n Z_{4n+3}; S(n) = 1/4^n zeta-star({4}^n), a rational
    multiple of P^n; SStar(n) is the convolution of those star blocks with
    the plain {4}-blocks, again a rational multiple of P^n.
    """
    if (kind.a, kind.b) != (1, 3):
        raise PreconditionError(
            f"closed_form_13 needs entries (1, 3), got ({kind.a}, {kind.b})"
        )
    n = kind.n
    if kind.kind == KIND_A:
        if n == 0:
            return ZetaSymbolValue.T()
        return ZetaSymbolValue.Z(4 * n + 1) * Fraction(2, 4**n)
    if kind.kind == KIND_B:
        return ZetaSymbolValue.Z(4 * n + 3) * Fraction(1, 4**n)
    if kind.kind == KIND_S:
        return ZetaSymbolValue.P() ** n * (z4_star_power(n) / Fraction(4**n))
    coeff = sum(
        (z4_star_power(k) / Fraction(4**k)) * z4_power(n - k) for k in range(n + 1)
    )
    return ZetaSymbolValue.P() ** n * coeff


def sstar13_bernoulli(n: int) -> ZetaSymbolValue:
    """SStar(1,3,n) through the Bernoulli polynomial at (1-i)/2.

    Evaluates 2 i B_{4n+1}((1-i)/2) 4^n / (4n+1)! and multiplies by P^n;
    the polynomial value is purely imaginary, so the product is a genuine
    rational, which is asserted.
    """
    if n < 1:
        raise PreconditionError("n must be at least 1")
    x = GaussianRational.of(Fraction(1, 2), Fraction(-1, 2))
    w = GaussianRational.of(0, 2) * bernoulli_poly(4 * n + 1, x) * Fraction(
        4**n, factorial(4 * n + 1)
    )
    if not w.is_real():
        raise InternalCheckError(
            f"Bernoulli stair value has nonzero imaginary part: {w!r}"
        )
    return ZetaSymbolValue.P() ** n * w.re


def reg13_formulas(n: int) -> Tuple[ZetaSymbolValue, ZetaSymbolValue]:
    """Closed forms of the two regularized alternating column families.

    First: the column ((1,3) n times, then 1) equals zeta_13(n) T plus
    1/2^{2n-1} times the alternating sum of Z_{4j+1} against the {4}
    blocks.  Second: the column ((3,1) n times) equals zeta_3_13(n-1) T
    plus the A-stair corrections against shorter (3,{1,3}) columns plus
    (-1)^n SStar(n).  Both are elements of Q[P, Z_odd][T]; n = 0 gives T
    and 1 respectively.
    """
    if n < 0:
        raise PreconditionError("n must be nonnegative")
    first = zeta_13(n) * ZetaSymbolValue.T()
    for j in range(1, n + 1):
        first = first + (
            ZetaSymbolValue.Z(4 * j + 1)
            * (z4_power(n - j) * Fraction((-1) ** j, 2 ** (2 * n - 1)))
            * ZetaSymbolValue.P() ** (n - j)
        )
    if n == 0:
        return first, ZetaSymbolValue.one()
    second = zeta_3_13(n - 1) * ZetaSymbolValue.T()
    for j in range(1, n):
        second = second + (
            closed_form_13(StairKind(KIND_A, 1, 3, j))
            * zeta_3_13(n - 1 - j)
            * Fraction((-1) ** j)
        )
    second = second + closed_form_13(StairKind(KIND_SSTAR, 1, 3, n)) * Fraction(
        (-1) ** n
    )
    return first, second


def closed_form_12(kind: StairKind) -> ZetaSymbolValue:
    """Closed form of a (1,2) stair value, where one exists.

    A(n) = 3 zeta(3n+1) for n >= 1 (A(0) = T); S(n) is the complete
    homogeneous block in the power sums zeta(3k), which for n >= 2 needs
    zeta(6) and is rejected since pi^6 lies outside the ring; SStar(n) is
    the partition sum generated by exp(2 sum zeta(3j) x^j / j, j odd),
    always a polynomial in odd zetas.  The B family has no closed form
    here and is rejected.
    """
    if (kind.a, kind.b) != (1, 2):
        raise PreconditionError(
            f"closed_form_12 needs entries (1, 2), got ({kind.a}, {kind.b})"
        )
    n = kind.n
    if kind.kind == KIND_A:
        if n == 0:
            return ZetaSymbolValue.T()
        return zeta_single(3 * n + 1) * 3
    if kind.kind == KIND_B:
        raise PreconditionError(
            "no closed form is available for the (1,2) B stairs"
        )
    if kind.kind == KIND_S:
        h = [ZetaSymbolValue.one()]
        for m in range(1, n + 1):
            acc = ZetaSymbolValue.zero()
            for k in range(1, m + 1):
                acc = acc + zeta_single(3 * k) * h[m - k]
            h.append(acc * Fraction(1, m))
        return h[n]
    q = [ZetaSymbolValue.one()]
    for m in range(1, n + 1):
        acc = ZetaSymbolValue.zero()
        for j in range(1, m + 1, 2):
            acc = acc + zeta_single(3 * j) * q[m - j] * 2
        q.append(acc * Fraction(1, m))
    return q[n]


def l12(n: int) -> Dict[Index, int]:
    """The weight-(3n+1) combination: 3 times each (3..3, 4, 3..3) index."""
    if n < 1:
        raise PreconditionError("n must be at least 1")
    return {(3,) * m + (4,) + (3,) * (n - 1 - m): 3 for m in range(n)}


def _roles_13(t: CheckerboardTableau, op: str) -> Tuple[int, int]:
    """Validate a {1,3} host and fix the value roles to a = 1, b = 3."""
    check_checkerboard(t)
    values = set(t.value_map.values())
    if not values <= {1, 3}:
        raise PreconditionError(f"{op} needs entries {{1, 3}}, got {sorted(values)}")
    return 1, 3


def _phase_guide(t: CheckerboardTableau, a: int) -> Ribbon:
    """The zigzag guide: a-diagonals step right, b-diagonals step up."""
    contents = content_set(t.shape)
    cmin, cmax = contents[0], contents[-1]
    steps = tuple(
        RIGHT if t.value_at(c) == a else UP for c in range(cmin, cmax)
    )
    return anchored_ribbon(cmin, steps)


def _classify_span(length: int, lowest: int, a: int, b: int) -> StairKind:
    """The unique stair kind matching a guide chunk of this length/phase."""
    if length % 2 == 1:
        kind = KIND_A if lowest == a else KIND_B
        return StairKind(kind, a, b, (length - 1) // 2)
    kind = KIND_SSTAR if lowest == a else KIND_S
    return StairKind(kind, a, b, length // 2)


def piece_kinds(
    t: CheckerboardTableau,
    theta: OutsideDecomposition,
    roles: Optional[Tuple[int, int]] = None,
) -> Tuple[StairKind, ...]:
    """Classify every piece of a guide decomposition as a complete stair."""
    a, b = roles if roles is not None else check_checkerboard(t)
    out = []
    for p in theta.pieces:
        sk = _classify_span(p.cmax - p.cmin + 1, t.value_at(p.cmin), a, b)
        expected = _stair_steps(sk.kind, sk.n)
        if p.steps != expected:
            raise InternalCheckError(
                f"piece on contents [{p.cmin},{p.cmax}] walks {p.steps}, "
                f"not the {sk.kind}({sk.n}) stair {expected}"
            )
        out.append(sk)
    return tuple(out)


def tessellation_check(
    t: CheckerboardTableau, kind: str
) -> Tuple[bool, OutsideDecomposition]:
    """Cut along the stair guide and test purity of the given kind.

    Builds the zigzag ribbon through the host's contents (the common shape
    of all four stair families under the host's colouring), decomposes,
    and reports whether every piece is a complete stair of the requested
    kind.  The decomposition is returned either way.
    """
    if kind not in _KINDS:
        raise PreconditionError(f"unknown stair kind {kind!r}; use one of {_KINDS}")
    a, _ = check_checkerboard(t)
    theta = decomposition_from_ribbon(t.shape, _phase_guide(t, a))
    kinds = piece_kinds(t, theta)
    return all(sk.kind == kind for sk in kinds), theta


@dataclass(frozen=True)
class CheckerboardReport:
    """Full record of one closed-form checkerboard evaluation.

    ``matrix`` holds the raw subribbon closed forms in piece order
    (smallest starting content first).  ``display_matrix`` is the same
    determinant re-expressed for reading: pieces relabelled largest-first
    and each row/column rescaled by powers of 2 so that diagonal A/B
    entries become unit-coefficient single zetas; ``prefactor`` collects
    the inverse scalings, so prefactor times det(display_matrix) equals
    ``value`` exactly.
    """

    value: ZetaSymbolValue
    weight: int
    admissible: bool
    guide: Ribbon
    decomposition: OutsideDecomposition
    pieces: Tuple[StairKind, ...]
    tessellated: Optional[str]
    matrix: Tuple[Tuple[ZetaSymbolValue, ...], ...]
    prefactor: Fraction
    display_matrix: Tuple[Tuple[ZetaSymbolValue, ...], ...]


def evaluate_checkerboard_13(t: CheckerboardTableau) -> CheckerboardReport:
    """Evaluate a {1,3} checkerboard value in closed form.

    Cuts along the phase-matched zigzag guide — the shape shared by all
    four stair tessellations, and the ribbon of choice even when no pure
    tessellation exists, since every subribbon entry is then itself a
    complete stair with a closed form.  Entries resolve through
    closed_form_13 (empty marker to 1, undefined to 0) and the exact
    symbolic determinant is returned with its full derivation record.
    The result is weight-homogeneous of the tableau's entry sum, and
    carries no T whenever the tableau is admissible; both are asserted.
    """
    a, b = _roles_13(t, "evaluate_checkerboard_13")
    guide = _phase_guide(t, a)
    theta = decomposition_from_ribbon(t.shape, guide)
    kinds = piece_kinds(t, theta, roles=(a, b))
    tessellated = next(
        (k for k in KIND_PREFERENCE if all(sk.kind == k for sk in kinds)), None
    )
    rows = ribbon_matrix(
        theta,
        lambda p, q, _r: closed_form_13(_classify_span(q - p + 1, t.value_at(p), a, b)),
        ZetaSymbolValue.zero(),
        ZetaSymbolValue.one(),
    )
    value = sym_det(rows)
    tab = t.to_tableau()
    weight = tab.weight
    if not value:
        raise InternalCheckError("checkerboard determinant vanished")
    if value.homogeneous_weight() != weight:
        raise InternalCheckError(
            f"determinant weight {value.homogeneous_weight()} does not match "
            f"the tableau weight {weight}"
        )
    admissible = is_admissible(tab)
    if admissible and value.has_generator("T"):
        raise InternalCheckError(
            "admissible checkerboard produced a T-dependent value"
        )
    prefactor, display = _display_form(rows, kinds)
    return CheckerboardReport(
        value=value,
        weight=weight,
        admissible=admissible,
        guide=guide,
        decomposition=theta,
        pieces=kinds,
        tessellated=tessellated,
        matrix=rows,
        prefactor=prefactor,
        display_matrix=display,
    )


def _display_form(
    rows: Sequence[Sequence[ZetaSymbolValue]], kinds: Sequence[StairKind]
) -> Tuple[Fraction, Tuple[Tuple[ZetaSymbolValue, ...], ...]]:
    """Reading form of the stair matrix: reversed order, rescaled rows/cols.

    Column j is scaled by 2^{n_j} and row i by 2^{n_i} (halved for A
    pieces with n >= 1), which turns each diagonal A/B entry into a
    unit-coefficient single zeta; the collected inverse is the prefactor.
    """
    rev = list(reversed(range(len(kinds))))
    col_scale = [Fraction(2) ** kinds[k].n for k in rev]
    row_scale = [
        Fraction(2) ** (kinds[k].n - (1 if kinds[k].kind == KIND_A and kinds[k].n else 0))
        for k in rev
    ]
    prefactor = Fraction(1)
    for r, c in zip(row_scale, col_scale):
        prefactor /= r * c
    display = tuple(
        tuple(
            rows[ri][ci] * (row_scale[i] * col_scale[j])
            for j, ci in enumerate(rev)
        )
        for i, ri in enumerate(rev)
    )
    return prefactor, display


def evaluate_checkerboard_13_column(t: CheckerboardTableau) -> ZetaSymbolValue:
    """Independent evaluation of a {1,3} checkerboard via the column guide.

    Every diagonal steps up, so the pieces are the host's columns and each
    defined subribbon is a column read top to bottom as an alternating
    index: (1,3,...) pairs give zeta_13, a leading 3 gives zeta_3_13, and
    the families ending in 1 resolve through reg13_formulas.  Must agree
    with the stair-guide evaluation exactly in the symbol ring.
    """
    _roles_13(t, "evaluate_checkerboard_13_column")
    contents = content_set(t.shape)
    guide = anchored_ribbon(contents[0], (UP,) * (len(contents) - 1))
    theta = decomposition_from_ribbon(t.shape, guide)
    return sym_det(
        ribbon_matrix(
            theta,
            lambda p, q, _r: _column_value(t.value_at(q), t.value_at(p), q - p + 1),
            ZetaSymbolValue.zero(),
            ZetaSymbolValue.one(),
        )
    )


def _column_value(top: int, bottom: int, length: int) -> ZetaSymbolValue:
    """Closed form of an alternating {1,3} column by its end values."""
    if top == 1 and bottom == 3:
        return zeta_13(length // 2)
    if top == 3 and bottom == 3:
        return zeta_3_13((length - 1) // 2)
    if top == 1 and bottom == 1:
        return reg13_formulas((length - 1) // 2)[0]
    return reg13_formulas(length // 2)[1]


def g13(n: int) -> ZetaSymbolValue:
    """The 2x2 stair determinant det[[A(n), S(n)], [SStar(n), B(n-1)]]."""
    if n < 1:
        raise PreconditionError("n must be at least 1")
    return sym_det(
        [
            [
                closed_form_13(StairKind(KIND_A, 1, 3, n)),
                closed_form_13(StairKind(KIND_S, 1, 3, n)),
            ],
            [
                closed_form_13(StairKind(KIND_SSTAR, 1, 3, n)),
                closed_form_13(StairKind(KIND_B, 1, 3, n - 1)),
            ],
        ]
    )


def alpha(n: int) -> Fraction:
    """The rational ratio S(n) SStar(n) / zeta_13(2n), by two routes.

    Route one multiplies out the Bernoulli-polynomial expression
    8 i (8n+1) C(8n,4n) B_{4n+1}((1-i)/2) times the alternating
    Bernoulli double sum; route two divides the closed-form product
    S(n) SStar(n) by the P^{2n} coefficient 2/(8n+2)!.  The two must
    agree exactly; a mismatch is a hard internal error.
    """
    if n < 1:
        raise PreconditionError("n must be at least 1")
    x = GaussianRational.of(Fraction(1, 2), Fraction(-1, 2))
    bsum = z4_star_power(n) * Fraction(factorial(4 * n), 4)
    w = (
        GaussianRational.of(0, 8)
        * bernoulli_poly(4 * n + 1, x)
        * Fraction((8 * n + 1) * comb(8 * n, 4 * n))
        * bsum
    )
    if not w.is_real():
        raise InternalCheckError(f"alpha({n}) came out non-real: {w!r}")
    s_coeff = z4_star_power(n) / Fraction(4**n)
    sstar_coeff = sum(
        (z4_star_power(k) / Fraction(4**k)) * z4_power(n - k) for k in range(n + 1)
    )
    by_ratio = s_coeff * sstar_coeff * Fraction(factorial(8 * n + 2), 2)
    if w.re != by_ratio:
        raise InternalCheckError(
            f"alpha({n}) disagrees between the Bernoulli formula ({w.re}) "
            f"and the stair-product ratio ({by_ratio})"
        )
    return w.re
