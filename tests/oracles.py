"""Independent routes that only the tests read.

Each one recomputes a library value a second way (a Bernoulli polynomial
over the Gaussian rationals, a product of ``{4}`` blocks, an
h-determinant, a determinant by Bareiss elimination, a decomposition's
guide from its pieces, a ribbon's rows from its walk, a shape's corners
and connectivity from its cell set), restates a theorem the library
relies on as a boolean check, or is a reference route no library route
reads (the generic weighted filling sum, transposes, the linear extension
of truncation to stuffle combinations, the 2x2 stair determinant G(n),
a value's weight, the parity of a checkerboard value read off its
shape); the tests compare the two.
"""

from fractions import Fraction
from itertools import chain
from math import comb, factorial, lcm
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from schurmzv.checkerboard import (
    KIND_A,
    KIND_B,
    KIND_S,
    KIND_SSTAR,
    CheckerboardReport,
    StairKind,
    _stair_steps,
    check_checkerboard,
    closed_form_13,
    stair_cut,
)
from schurmzv.errors import PreconditionError
from schurmzv.evaluate import det_fraction, enumerate_ssyt
from schurmzv.mzv import is_admissible_index, truncated_mzv
from schurmzv.ribbons import RIGHT, UP, OutsideDecomposition, Ribbon, anchored_ribbon, ribbon_matrix
from schurmzv.shapes import (
    Cell,
    DiagonalTableau,
    SkewShape,
    Tableau,
    content_set,
    from_cells,
    tableau_from_entries,
)
from schurmzv.stuffle import QSElement, TPoly
from schurmzv.symbolic import (
    Scalar,
    TermMap,
    ZetaSymbolValue,
    bernoulli_number,
    monomial_weight,
    sym_det,
    z4_power,
    z4_star_power,
)

WeightFunction = Callable[[int, int], object]


class GaussianRational(TermMap):
    """re + im*i, keyed by ``()`` for the real part and ``"i"`` for the
    imaginary part; a real value equals and hashes like its rational."""

    __slots__ = ()

    @classmethod
    def of(cls, re: Scalar, im: Scalar = 0) -> "GaussianRational":
        return cls._canonical({k: Fraction(c) for k, c in (((), re), ("i", im)) if c})

    @property
    def re(self) -> Fraction:
        return self.terms.get((), Fraction(0))

    @property
    def im(self) -> Fraction:
        return self.terms.get("i", Fraction(0))

    def _mul_into(self, other: "GaussianRational", out: Dict, scale: Scalar = 1) -> None:
        """out += scale * self * other, with i * i = -1."""
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                key, c = ((), -c1 * c2) if k1 and k2 else (k1 or k2, c1 * c2)
                TermMap._accumulate(out, {key: c}, scale)

    def conj(self) -> "GaussianRational":
        return self._canonical({k: -c if k else c for k, c in self.terms.items()})

    def is_real(self) -> bool:
        return "i" not in self.terms

    def is_imaginary(self) -> bool:
        return () not in self.terms

    def __repr__(self) -> str:
        return f"({self.re}{'+' if self.im >= 0 else ''}{self.im}i)"


def bernoulli_poly(k: int, x: Union[GaussianRational, Scalar]) -> GaussianRational:
    """B_k(x) = sum_j C(k,j) B_j x^(k-j) over Gaussian rationals, by Horner's rule."""
    if k < 0:
        raise PreconditionError("Bernoulli index must be nonnegative")
    total = GaussianRational.zero()
    for j in range(k + 1):
        total = total * x + comb(k, j) * bernoulli_number(j)
    return total


def alpha_by_bernoulli(n: int) -> Fraction:
    """alpha(n) by the paper's Bernoulli-polynomial expression:
    8 i (8n+1) C(8n,4n) B_{4n+1}((1-i)/2) times the alternating Bernoulli
    double sum, which is (4n)!/4 times ``z4_star_power(n)``.  The product
    is real, which is asserted."""
    if n < 1:
        raise PreconditionError("n must be at least 1")
    x = GaussianRational.of(Fraction(1, 2), Fraction(-1, 2))
    w = (
        GaussianRational.of(0, 8)
        * bernoulli_poly(4 * n + 1, x)
        * Fraction((8 * n + 1) * comb(8 * n, 4 * n))
        * (z4_star_power(n) * Fraction(factorial(4 * n), 4))
    )
    if not w.is_real():
        raise AssertionError(f"alpha({n}) came out non-real: {w!r}")
    return w.re


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


def homogeneous_weight(v: ZetaSymbolValue) -> Optional[int]:
    """Weight if homogeneous (None for 0); PreconditionError if mixed."""
    ws = {monomial_weight(m) for m in v.terms}
    if not ws:
        return None
    if len(ws) > 1:
        raise PreconditionError(f"value is not weight-homogeneous: weights {sorted(ws)}")
    return ws.pop()


def checkerboard_value_is_consistent(report: CheckerboardReport) -> bool:
    """Whether a (1,3) checkerboard value is what the paper proves it is:
    nonzero, weight-homogeneous of the tableau's weight, and free of T when
    the tableau is admissible."""
    v = report.value
    try:
        weight = homogeneous_weight(v)
    except PreconditionError:
        return False
    return (
        bool(v)
        and weight == report.weight
        and not (report.admissible and "T" in v.generators())
    )


def admissible_support(p: TPoly) -> bool:
    """Whether every coefficient of p is supported on admissible (or empty)
    indices."""
    return all(not idx or is_admissible_index(idx) for _, idx in p.terms)


def qs_truncated(elem: QSElement, M: int) -> Fraction:
    """Linear extension of the truncated value to combinations."""
    total = Fraction(0)
    for idx, c in elem.terms.items():
        total += c * (Fraction(1) if idx == () else truncated_mzv(idx, M))
    return total


def fill_by_walk(k: DiagonalTableau, ribbon: Ribbon) -> Tableau:
    """A ribbon decorated with the host's diagonal values, row by row along
    its walk: an up step starts the next row above, and the rows above the
    walk's last are empty."""
    values = k.value_map
    cmin, cmax = ribbon.cmin, ribbon.cmax
    missing = [c for c in range(cmin, cmax + 1) if c not in values]
    if missing:
        raise PreconditionError(
            f"host tableau has no diagonal values for contents {missing}"
        )
    runs = [[values[cmin]]]
    for c, s in enumerate(ribbon.steps, start=cmin + 1):
        if s == UP:
            runs.append([])
        runs[-1].append(values[c])
    above = ((),) * (ribbon.start[0] - len(runs))
    return Tableau(ribbon.shape, above + tuple(map(tuple, reversed(runs))))


def is_checkerboard(t: DiagonalTableau) -> bool:
    """Whether consecutive diagonals alternate between two values."""
    try:
        check_checkerboard(t)
    except PreconditionError:
        return False
    return True


def pieces_walk_their_stairs(
    theta: OutsideDecomposition, kinds: Sequence[StairKind]
) -> bool:
    """Whether there is one kind per piece and each piece walks the steps of
    its complete stair: A(n) (R U)^n, B(n) (U R)^n, S(n) U (R U)^(n-1) and
    SStar(n) R (U R)^(n-1)."""
    return len(kinds) == theta.n_pieces and all(
        p.steps == _stair_steps(sk.kind, sk.n) for p, sk in zip(theta.pieces, kinds)
    )


def parity_by_shape(t: DiagonalTableau) -> str:
    """"odd", "even" or "mixed": the parity of a (1,3) checkerboard value,
    read off the shape without the symbol ring.

    The lengths q - p + 1 of the defined entries of the :func:`stair_cut`
    ribbon matrix decide it.  All odd: every entry is an A or B stair, a
    rational multiple of one odd zeta (or T for A(0)), so the value lies in
    Q[T, zeta(odd)], and in Q[zeta(odd)] when the tableau is admissible.
    All even: every entry is an S or SStar stair, a rational multiple of a
    power of pi^4, so the value lies in Q[pi^4]; this happens exactly when
    every piece is an S or SStar stair.  These two pure cases are proved:
    they follow from the paper's theorems, its determinant formula and
    the stair closed forms.  That every other shape gives a mixed value,
    one with both pi^4 and odd zetas in its support, is not proved here:
    it rests only on evidence, the exhaustive check of the
    admissible edge-connected checkerboards of a 5x5 box in both
    colourings, a sample of the 6x6 box, and the seeded test that reads
    this oracle.
    """
    theta, _ = stair_cut(t)
    lengths = {n for row in ribbon_matrix(theta, lambda p, q, _r: q - p + 1, 0, 0) for n in row if n}
    if all(n % 2 for n in lengths):
        return "odd"
    if not any(n % 2 for n in lengths):
        return "even"
    return "mixed"


def corners_by_neighbours(shape: SkewShape) -> Tuple[Cell, ...]:
    """The cells, in row-major order, with no neighbour to the right and
    none below in the cell set."""
    cs = shape.cell_set
    return tuple(
        (i, j)
        for (i, j) in shape.cells
        if (i, j + 1) not in cs and (i + 1, j) not in cs
    )


def edge_connected_by_search(shape: SkewShape) -> bool:
    """Whether a depth-first search over horizontal and vertical neighbours
    from one cell reaches every cell."""
    cells = shape.cell_set
    if not cells:
        return True
    seen = set()
    stack = [next(iter(cells))]
    while stack:
        i, j = stack.pop()
        if (i, j) in seen:
            continue
        seen.add((i, j))
        for nb in ((i - 1, j), (i + 1, j), (i, j - 1), (i, j + 1)):
            if nb in cells and nb not in seen:
                stack.append(nb)
    return len(seen) == len(cells)


def transpose_shape(shape: SkewShape) -> SkewShape:
    """Reflect across the main diagonal (rows become columns)."""
    return from_cells([(j, i) for i, j in shape.cells])


def transpose_tableau(t: Tableau) -> Tableau:
    """Transpose the shape, carrying entries along."""
    flipped = {(j, i): v for (i, j), v in zip(t.shape.cells, chain.from_iterable(t.rows))}
    return tableau_from_entries(transpose_shape(t.shape), flipped)


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
        raise AssertionError(
            f"Bernoulli stair value has nonzero imaginary part: {w!r}"
        )
    return ZetaSymbolValue.P() ** n * w.re


def _p_power(n: int, coeff: Fraction) -> ZetaSymbolValue:
    return ZetaSymbolValue({(("P", n),): coeff})


def zeta_four_block(n: int) -> ZetaSymbolValue:
    """zeta({4}^n) as a ring element (rational times P^n)."""
    return _p_power(n, z4_power(n))


def zeta_four_block_star(n: int) -> ZetaSymbolValue:
    """zeta-star({4}^n) as a ring element."""
    return _p_power(n, z4_star_power(n))


def _complete_homogeneous(x: Sequence[Fraction], kmax: int) -> List[Fraction]:
    h = [Fraction(1)] + [Fraction(0)] * kmax
    for xi in x:
        for kk in range(1, kmax + 1):
            h[kk] += xi * h[kk - 1]
    return h


def s_f_m(k: Tableau, M: int, f: WeightFunction) -> object:
    """Sum of prod f(m_cell, k_cell) over all semistandard fillings < M.

    Generic over any commutative ring whose elements combine with the
    integers 0 and 1 under + and *; the empty shape gives 1.
    """
    total = 0
    exps = [e for row in k.rows for e in row]
    for filling in enumerate_ssyt(k.shape, M):
        term = 1
        for m, e in zip(filling.values(), exps):
            term = term * f(m, e)
        total = total + term
    return total


def schur_poly_check(shape: SkewShape, M: int, x: Sequence[Fraction]) -> Fraction:
    """Skew Schur polynomial at x, cross-checked against its h-determinant.

    Evaluates the filling sum with weight f(m, _) = x[m-1] and compares it
    with det(h_{lam_i - mu_j - i + j}); a mismatch raises, since the two are
    theorems of each other.
    """
    if len(x) != M - 1:
        raise PreconditionError(f"need {M - 1} variable values, got {len(x)}")
    x = [Fraction(v) for v in x]
    ones = tableau_from_entries(shape, dict.fromkeys(shape.cells, 1))
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
        raise AssertionError(
            f"filling sum {value} disagrees with h-determinant {det} for {shape}"
        )
    return det


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


def pinned_guide(host: SkewShape, pieces: Sequence[Ribbon]) -> Ribbon:
    """The furthest-left ribbon containing every piece, content-aligned.

    The pieces pin a direction on every diagonal: interior steps directly,
    and end/start cells through the host cells adjacent to them (an exit
    into the host rules out that direction's continuation).  For the
    pieces of an outside decomposition of an edge-connected host, every
    diagonal gets pinned, no two pins disagree, and every piece embeds in
    the result; anything else raises.
    """
    contents = content_set(host)
    cmin, cmax = contents[0], contents[-1]
    dirs: Dict[int, str] = {}

    def pin(c: int, d: str) -> None:
        if dirs.setdefault(c, d) != d:
            raise PreconditionError(
                f"pieces force both directions on diagonal {c}; they do not nest"
            )

    hs = host.cell_set
    for p in pieces:
        for k, s in enumerate(p.steps):
            pin(p.cmin + k, s)
        ei, ej = p.end
        if p.cmax < cmax:
            up_in, right_in = (ei - 1, ej) in hs, (ei, ej + 1) in hs
            if up_in and right_in:
                raise PreconditionError(
                    f"piece ending at {p.end} has both continuations inside the host"
                )
            if up_in:
                pin(p.cmax, RIGHT)
            if right_in:
                pin(p.cmax, UP)
        si, sj = p.start
        if p.cmin > cmin:
            if (si + 1, sj) in hs:
                pin(p.cmin - 1, RIGHT)
            if (si, sj - 1) in hs:
                pin(p.cmin - 1, UP)

    missing = [c for c in range(cmin, cmax) if c not in dirs]
    if missing:
        raise AssertionError(
            f"directions on diagonals {missing} left unpinned; host not edge-connected?"
        )
    r = anchored_ribbon(cmin, tuple(dirs[c] for c in range(cmin, cmax)))
    for p in pieces:
        if r.steps[p.cmin - cmin : p.cmax - cmin] != p.steps:
            raise AssertionError(
                f"piece with contents [{p.cmin},{p.cmax}] does not embed in the ribbon"
            )
    return r
