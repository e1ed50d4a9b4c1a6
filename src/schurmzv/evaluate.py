"""Truncated Schur multiple zeta values and the exact determinant identity.

A truncation sums over restricted semistandard Young tableaux: rows weakly
increase, columns strictly increase, all entries are below a bound M, and
a filling with summation variables m contributes the product of m^-k over
its cells, k the tableau's entry there.  The generic sum with any weight
f(m, k), which also gives skew Schur polynomials (f = x_m), is a test
oracle (``tests/oracles.s_f_m``).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, islice
from math import comb, prod
from operator import mul
from typing import Dict, Iterator, List, Sequence, Tuple

from .errors import PreconditionError, ResourceLimitError
from .record import Record
from .ribbons import UP, OutsideDecomposition, Ribbon, jacobi_trudi_sides
from .shapes import Cell, DiagonalTableau, SkewShape, Tableau, check_entries
from .symbolic import _integer_rows, det

#: The most cells a shape may have for one call to enumerate or sum its
#: fillings.  The recursion takes one frame per cell, so this leaves about
#: 100 of the interpreter's default limit of 1,000 frames to the callers;
#: more cells raise ResourceLimitError before the first filling.
CELLS_CAP = 900

#: The most fillings below M a shape may have for one call to enumerate or
#: sum them; more raise ResourceLimitError before the first is reached.
FILLING_CAP = 10**8

#: The most bits the common denominator of an exact truncation may need;
#: a larger one raises ResourceLimitError before it is built.
DENOMINATOR_BITS_CAP = 2**20

#: The most work the last cell's sweep of an exact truncation may take,
#: counted as the denominator's bits times the M - 1 values it may sweep;
#: more raise ResourceLimitError before any sum.
SWEEP_BITS_CAP = 2**30


def _fill_plan(shape: SkewShape):
    """Per-cell neighbour indices and below-chain lengths, in row-major order."""
    cells = shape.cells
    index = {c: t for t, c in enumerate(cells)}
    left = [index.get((i, j - 1)) for (i, j) in cells]
    up = [index.get((i - 1, j)) for (i, j) in cells]
    # mu only shrinks going down: column j reaches every row with lam_i >= j
    below = [sum(l >= j for l in shape.lam) - i for (i, j) in cells]
    return cells, left, up, below


def filling_count(shape: SkewShape, M: int) -> int:
    """The number of semistandard fillings of the shape with entries < M.

    Classical Jacobi–Trudi at M - 1 unit variables (Macdonald, *Symmetric
    Functions and Hall Polynomials*, I.5): ``s_{lam/mu}(1^(M-1))`` is the
    determinant of ``h_{lam_i - mu_j - i + j}``, where ``h_k(1^(M-1))`` is
    ``C(M - 2 + k, k)`` for k >= 0 and 0 below.  The empty shape has one
    filling at every M.

    The matrix is eliminated fraction-free over the ints (Bareiss), in
    O(rows^3) exact steps.  :func:`symbolic.det` would build up to 2^rows
    minors, and the matrix is full once the rows are about as long as the
    shape is tall, so a square of 30 rows would need about 2^30.
    """
    if M <= 1:
        return 0 if shape.n_cells else 1
    lam, mu = shape.lam, shape.padded_mu
    n = len(lam)

    def h(d: int) -> int:
        return comb(M - 2 + d, d) if d >= 0 else 0

    a = [[h(lam[i] - mu[j] - i + j) for j in range(n)] for i in range(n)]
    sign = prev = 1
    for k in range(n):
        p = next((r for r in range(k, n) if a[r][k]), None)
        if p is None:
            return 0
        if p != k:
            a[k], a[p], sign = a[p], a[k], -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * prev


def _check_fillings(shape: SkewShape, M: int) -> None:
    if shape.n_cells > CELLS_CAP:
        raise ResourceLimitError(
            f"a shape of {shape.n_cells} cells needs a filling recursion deeper than "
            f"{CELLS_CAP} levels"
        )
    # each cell takes one of M - 1 values, so the count is needed only
    # when (M - 1)^cells passes the cap
    if (M - 1) ** shape.n_cells > FILLING_CAP and filling_count(shape, M) > FILLING_CAP:
        raise ResourceLimitError(f"more than {FILLING_CAP} fillings enumerated")


def enumerate_ssyt(shape: SkewShape, M: int) -> Iterator[Dict[Cell, int]]:
    """Yield every semistandard filling with entries < M, as a map from
    cell to summation variable m, in lexicographic order of the row-reading
    word.

    The empty shape has exactly one (empty) filling.  Raises
    :class:`ResourceLimitError` at the call, before anything is yielded,
    when the shape has more than ``CELLS_CAP`` cells or more than
    ``FILLING_CAP`` fillings (see :func:`filling_count`).
    """
    _check_fillings(shape, M)
    cells, left, up, below = _fill_plan(shape)
    n = len(cells)
    vals = [0] * n

    def rec(t: int) -> Iterator[Dict[Cell, int]]:
        if t == n:
            yield dict(zip(cells, vals))
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


@lru_cache(maxsize=1)
def _lcm_upto(n: int) -> int:
    """lcm(1..n): the largest power up to n of each prime up to n, multiplied.

    Kept for the last n only: an exact Jacobi-Trudi check asks for the
    same n = M - 1 for its host and for every matrix entry, so it sieves
    once per check."""
    sieve = bytearray([1]) * (n + 1)
    powers = []
    for p in range(2, n + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, n + 1, p)))
            q = p
            while q * p <= n:
                q *= p
            powers.append(q)
    return prod(powers)


def _factors(L: int, e: int, M: int) -> Iterator[int]:
    """The shares ``L^e // m^e`` of ``m^-e`` for m = 1..M-1, lazily."""
    Le = L**e
    return (Le // m**e for m in range(1, M))


class _Unkept:
    """The first cell's shares ``L^e // v^e`` by value, as :func:`_factors`
    gives them, computed on each read and not kept."""

    __slots__ = ("Le", "e")

    def __init__(self, L: int, e: int):
        self.Le, self.e = L**e, e

    def __getitem__(self, v: int) -> int:
        return self.Le // v**self.e


def _denominator(exps: Sequence[int], M: int) -> Tuple[int, int, int]:
    """``L = lcm(1..M-1)``, the weight and a lower bound on the bits of
    ``L^weight``; refuses more than ``DENOMINATOR_BITS_CAP`` bits."""
    L, weight = _lcm_upto(M - 1), sum(exps)
    # L^weight has at least weight * (bits of L - 1) bits
    bits = weight * (L.bit_length() - 1)
    if bits > DENOMINATOR_BITS_CAP:
        raise ResourceLimitError(
            f"the common denominator lcm(1..{M - 1})^{weight} needs more than "
            f"{DENOMINATOR_BITS_CAP} bits"
        )
    return L, weight, bits


def _check_sweep(bits: int, weight: int, M: int) -> None:
    if bits * (M - 1) > SWEEP_BITS_CAP:
        raise ResourceLimitError(
            f"the last cell's sweep of {M - 1} values over lcm(1..{M - 1})^{weight} "
            f"needs more than {SWEEP_BITS_CAP} bit operations"
        )


def truncated_schur_zeta(k: Tableau, M: int) -> Fraction:
    """Exact truncation of the nested zeta sum attached to the tableau.

    Accumulates one integer numerator over the common denominator
    ``D = L^weight``, ``L = lcm(1..M-1)``, which keeps the rational
    reductions out of the inner loop.  A filling's share of D is the
    product of ``L^e // v^e`` (see :func:`_factors`) over its cells, exact
    since every v divides L; the recursion carries that product down the
    cells in row-major order and stops at the penultimate cell.  For each
    of its values v the last cell, in the bottom row, runs over
    ``[max(v + shift, c), M)``: shift is 1 when the last cell is directly
    under the penultimate one, 0 when it is beside it and -M when apart,
    and c is one more than the value of the cell above the last, or 1 when
    there is none or it is the penultimate cell.  So the penultimate loop
    adds each share to the weight of that lower bound, and the closing
    step is the path sum's right step (:func:`ribbon_truncation`): the
    sum over m of the prefix sum of the weights up to m times the last
    cell's ``L^e // m^e``.

    Memory: one weight slot per value below M, each a share of D of at
    most about ``bits(D)`` bits, and a one-byte sieve over ``1..M-1`` for
    L.  One list of M factors per distinct exponent of the cells strictly
    between the first and the last.  No factors kept for the first cell,
    whose loop runs once per call, unless a middle cell shares its
    exponent; none for the last cell, whose factors the closing step
    generates as it goes.

    Raises :class:`ResourceLimitError` before any sum, checked in this
    order: when D needs more than ``DENOMINATOR_BITS_CAP`` bits; when the
    shape has more than ``CELLS_CAP`` cells; when it has more than
    ``FILLING_CAP`` fillings below M (see
    :func:`filling_count`); when the sweep's work, ``bits(D) * (M - 1)``,
    passes ``SWEEP_BITS_CAP``.
    """
    cells, left, up, below = _fill_plan(k.shape)
    if not cells:
        return Fraction(1)
    if M <= 1:
        return Fraction(0)
    exps = [e for row in k.rows for e in row]
    L, weight, bits = _denominator(exps, M)
    _check_fillings(k.shape, M)
    _check_sweep(bits, weight, M)
    last = len(cells) - 1
    # weights[lo]: the summed shares of the fillings of the cells before
    # the last that leave it the range [lo, M), as it is in the bottom row
    weights = [0] * M
    if last == 0:
        weights[1] = 1
    else:
        # the first cell's loop runs once, so its factors are kept only for
        # a later cell that shares its exponent
        tables = {exps[0]: _Unkept(L, exps[0])}
        tables.update({e: [0, *_factors(L, e, M)] for e in set(exps[1:last])})
        factors = [tables[e] for e in exps[:last]]
        pen = last - 1
        vals = [0] * pen
        # the last cell starts at max(v + shift, c) for the penultimate
        # cell's value v: shift is 1 directly under it, 0 beside it and -M,
        # no bound, apart from it; c is one more than the value of the cell
        # above the last, if there is one and it is not the penultimate
        above = up[last]
        under = above == pen
        shift = 1 if under else 0 if left[last] == pen else -M

        def rec(t: int, share: int) -> None:
            lo = 1
            if left[t] is not None:
                lo = vals[left[t]]
            if up[t] is not None:
                lo = max(lo, vals[up[t]] + 1)
            f = factors[t]
            if t < pen:
                for v in range(lo, M - below[t]):
                    vals[t] = v
                    rec(t + 1, share * f[v])
                return
            c = 1 if under or above is None else vals[above] + 1
            for v in range(lo, M - below[t]):
                s = v + shift
                weights[s if s > c else c] += share * f[v]

        rec(0, 1)
    # the last cell at m takes every weight of a lower bound up to m
    starts = islice(accumulate(weights), 1, None)
    num = sum(map(mul, starts, _factors(L, exps[last], M)))
    return Fraction(num, L**weight)


def _path_sums(shares: List[int], up: bool) -> Iterator[int]:
    """For m = 1..M-1, the sum of ``shares`` over ``m' > m`` when ``up``,
    over ``m' <= m`` otherwise.  Lazy: the m-th sum reads the shares only
    up to m, so the caller may overwrite each share once it has its sum."""
    prefix = accumulate(shares)
    if not up:
        return prefix
    total = sum(shares)
    return (total - p for p in prefix)


def ribbon_truncation(ribbon: Ribbon, exps: Sequence[int], M: int) -> Fraction:
    """Exact truncation of the ribbon with ``exps`` on its cells, in
    increasing content, equal to :func:`truncated_schur_zeta` of that
    tableau.

    The cells c_1 .. c_n of a ribbon, by increasing content, form a path:
    c_(i+1) is right of c_i, so m_i <= m_(i+1), or above it, so
    m_(i+1) < m_i.  The truncation is then the sum over m < M of f_n(m),
    where f_1(m) = m^-k_1 and f_(i+1)(m) is m^-k_(i+1) times the sum of
    f_i(m') over m' <= m after a right step, over m' > m after an up step.
    On shares ``L^k // m^k`` of ``D = L^weight``, ``L = lcm(1..M-1)``, as
    in :func:`truncated_schur_zeta`, that is n sweeps over 1..M-1 of exact
    int adds and multiplies: O(n * M) of them, whatever the number of
    fillings.

    Memory: one list of M - 1 shares for the cells before the last, each
    of at most about ``bits(D)`` bits, overwritten in place from one cell
    to the next, and a one-byte sieve over ``1..M-1`` for L.  The last
    cell is summed as its sweep goes, so a one-cell ribbon keeps no list.
    No factor table: each sweep reads its factors from :func:`_factors`,
    which divides ``L^e`` by ``m^e`` as it goes; for large M that costs
    far less than raising ``L // m`` to the power e.

    Raises :class:`PreconditionError` unless there is one positive int
    exponent per cell, and :class:`ResourceLimitError` before any sum by
    the denominator and sweep caps of :func:`truncated_schur_zeta`, with
    the same messages.  It enumerates no filling, so ``FILLING_CAP`` and
    ``CELLS_CAP`` do not apply.
    """
    if len(exps) != ribbon.n_cells:
        raise PreconditionError(f"{len(exps)} exponents for a ribbon of {ribbon.n_cells} cells")
    check_entries(exps)
    if M <= 1:
        return Fraction(0)
    L, weight, bits = _denominator(exps, M)
    _check_sweep(bits, weight, M)
    last = len(exps) - 1
    if not last:
        return Fraction(sum(_factors(L, exps[0], M)), L**weight)
    shares = list(_factors(L, exps[0], M))  # f_1(m) at index m - 1
    for step, e in zip(ribbon.steps[: last - 1], exps[1:last]):
        for i, (s, f) in enumerate(zip(_path_sums(shares, step == UP), _factors(L, e, M))):
            shares[i] = s * f
    sums = _path_sums(shares, ribbon.steps[-1] == UP)
    return Fraction(sum(map(mul, sums, _factors(L, exps[last], M))), L**weight)


def det_fraction(matrix: Sequence[Sequence[Fraction]]) -> Fraction:
    """Exact determinant over the rationals; see :func:`symbolic.det`."""
    rows, D = _integer_rows(matrix)
    return Fraction(det(rows, 0, 1), D)


class JTReport(Record):
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

    The two sides come from two routes.  The lhs is the host's
    :func:`truncated_schur_zeta`, which sums its fillings and raises each
    of its refusals first.  Each defined (i,j) matrix entry is the
    :func:`ribbon_truncation` path sum of the subribbon filled with the
    host's diagonal entries; empty subribbons contribute 1 and undefined
    ones 0 (see :func:`ribbon_matrix`).  An entry's weight is at most the
    host's, so once the host passes the denominator and sweep caps every
    entry does.

    The identity is non-trivial when there are two or more pieces, or when
    the host is not a ribbon.  A one-piece decomposition of a ribbon host
    has a 1x1 matrix whose entry is the host itself, and then the check
    compares the two routes on one tableau.
    """
    lhs, mat = jacobi_trudi_sides(
        k,
        theta,
        lambda t: truncated_schur_zeta(t, M),
        lambda r, exps: ribbon_truncation(r, exps, M),
        Fraction(0),
        Fraction(1),
    )
    return JTReport(lhs, det_fraction(mat), len(mat))
