"""Multiple zeta values: exact truncations, tableau expansion, numerics.

Indices follow the increasing-variable convention: (k_1,...,k_r) sums over
0 < m_1 < ... < m_r, so admissibility means the *last* part is >= 2.  A
tableau's nested sum expands into an integer combination of plain indices
by enumerating its compatible total quasi-orders.

One recurrence of running sums serves both kinds of truncation, exact in
Fractions and in floats; a float truncation gives the same bits on every
CPU.  numeric_mzv sums a Hölder convolution of polylogarithms at 1/2
instead, in plain floats with a stated error bound, and gives the same
bits on every CPU too.
``_numeric_cache`` maps an admissible index to its value, which does not
depend on the tolerance asked for or on earlier calls; numeric_mzv looks a
tuple index up before checking it, and checks only on a miss.  It is
unbounded.  Its reads and writes are single dict operations, so threads
may share it; two threads may compute the same entry.  The README section
"Caches and threads" covers it with the two caches in ``stuffle``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate, chain, count, islice, product, repeat, tee
from operator import mul, truediv
from typing import Callable, Dict, Iterable, Iterator, List, Sequence, Tuple, TypeVar

from .errors import PreconditionError, ResourceLimitError
from .shapes import Partition, Tableau, int_parts

Index = Tuple[int, ...]
IndexCombination = Dict[Index, int]
Num = TypeVar("Num")

EULER_GAMMA = 0.5772156649015328606065

#: numeric_mzv refuses tolerances below this.
TOL_FLOOR = 1e-10

#: numeric_mzv refuses an index whose tables of n^-a hold more floats than this.
NUMERIC_TABLE_CAP = 10**6


def check_index(idx: Sequence[int]) -> Index:
    t = int_parts(idx, "index")
    if not t:
        raise PreconditionError("index must be nonempty")
    if any(k < 1 for k in t):
        raise PreconditionError(f"index parts must be positive: {t}")
    return t


def is_admissible_index(idx: Sequence[int]) -> bool:
    """Last part at least 2, so the defining series converges."""
    return bool(idx) and idx[-1] >= 2


def _truncations(
    idx: Sequence[int], Ms: Iterable[int], row: Callable[[int], Iterator[Num]],
    zero: Num, one: Num,
) -> List[Num]:
    """Truncations of idx at each cutoff in Ms, from one pass up to the largest.

    Depth j is the iterator of its sums over 0 < m_1 < ... < m_j < M for
    M = 1, 2, ...: a running sum of row(k_j)[m - 1] = m^-k_j times depth
    j-1 at M = m.  Pulling the last depth advances every depth by one, so
    a pass holds O(depth) numbers at any cutoff, and each distinct part's
    row is built once and shared through ``tee``.  The additions run left
    to right in m, so a float result is the same on every CPU whenever the
    row rounds correctly.  Below M = len(idx) + 1 every sum is ``zero``.
    """
    idx = check_index(idx)
    Ms = list(Ms)
    rows = {k: iter(tee(row(k), idx.count(k))) for k in set(idx)}
    sums = repeat(one)
    for k in idx:
        sums = accumulate(map(mul, next(rows[k]), sums), initial=zero)
    at: Dict[int, Num] = {}
    done = 0
    for top in sorted({max(M, 1) for M in Ms}):
        at[top] = next(islice(sums, top - done - 1, None))
        done = top
    return [at[max(M, 1)] for M in Ms]


def _float_row(k: int) -> Iterator[float]:
    """1 / m**k for m = 1, 2, ..., correctly rounded.  From m = 2^(1075 // k + 1)
    on, k (m.bit_length() - 1) > 1075, so m**k > 2^1075 and 1 / m**k, below
    half the least subnormal, rounds to 0.0: that tail never builds m**k."""
    rounded = map(truediv, repeat(1), map(pow, range(1, 1 << (1075 // k + 1)), repeat(k)))
    return chain(rounded, repeat(0.0))


def truncated_mzv(idx: Sequence[int], M: int) -> Fraction:
    """Exact sum over 0 < m_1 < ... < m_r < M of prod m_i^-k_i."""
    exact_row = lambda k: map(Fraction, repeat(1), map(pow, count(1), repeat(k)))
    return _truncations(idx, [M], exact_row, Fraction(0), Fraction(1))[0]


def truncated_mzv_float(idx: Sequence[int], M: int) -> float:
    """Float truncation: each m^-k is 1 / m**k, correctly rounded, and the
    sums add left to right, so the bits do not depend on the CPU."""
    return truncated_mzv_float_ladder(idx, [M])[0]


def truncated_mzv_float_ladder(idx: Sequence[int], Ms: Iterable[int]) -> List[float]:
    """Float truncations at several cutoffs from one pass up to the largest."""
    return _truncations(idx, Ms, _float_row, 0.0, 1.0)


def expand_tableau(k: Tableau) -> IndexCombination:
    """Write the tableau's nested sum as an integer combination of indices.

    Fillings are grouped by the total quasi-order of their values: cells
    merged by equality form blocks (only row-mates can merge; columns are
    strict), and blocks ordered by value read off a composition of the
    entries.  Blocks are peeled smallest-first, so the cells peeled so far
    form a partition nu between mu and lam, and the next block is a
    nonempty horizontal strip nu'/nu: row i takes columns nu_i + 1 ..
    min(lam_i, nu_{i-1}), and the block's part is the sum of their entries.
    The walk is memoized on nu; the keys come back in ascending order.
    """
    lam, mu = k.shape.lam, k.shape.padded_mu
    memo: Dict[Partition, IndexCombination] = {lam: {(): 1}}

    def rec(nu: Partition) -> IndexCombination:
        if nu in memo:
            return memo[nu]
        ends = [min(l, up) + 1 for l, up in zip(lam, (lam[0],) + nu)]
        out: IndexCombination = {}
        # the first nu' of the product is nu itself, the empty strip
        for nxt in islice(product(*map(range, nu, ends)), 1, None):
            part = sum(
                sum(row[a - m:b - m]) for row, m, a, b in zip(k.rows, mu, nu, nxt)
            )
            for suffix, mult in rec(nxt).items():
                key = (part,) + suffix
                out[key] = out.get(key, 0) + mult
        memo[nu] = out
        return out

    return dict(sorted(rec(mu).items()))


def _li_suffixes(
    parts: Sequence[int], inv: List[List[float]], terms: List[List[float]]
) -> List[float]:
    """out[j] = Li(parts(w[j:]); 1/2) for the word w of parts, j = 0..weight,
    from inv[a][n-1] = n^-a and terms[a][n-1] = 2^-n n^-a, n = 1..N."""
    L = sum(parts)
    out = [1.0] * (L + 1)
    # H[n-1] = sum over n > n_1 > ... of prod n_i^-a_i, for the blocks passed.
    # After the first block H holds one more entry, for n = N + 1, which
    # no product reads: map stops at the shorter list.
    H = [1.0] * len(inv[0])
    for s in reversed(parts):
        L -= s
        # w[L + s - a:] starts with the part a, for a = s..1.
        for a in range(1, s + 1):
            out[L + s - a] = math.fsum(map(mul, terms[a], H))
        if L:
            H = list(accumulate(map(mul, inv[s], H), initial=0.0))
    return out


_numeric_cache: Dict[Index, float] = {}


def _series_length(L: int, d: int) -> int:
    """numeric_mzv's cutoff N for weight L and larger depth d: the least N
    whose tail bound (see numeric_mzv) is at most 2^-53."""
    N = 0
    while N < (need := 54 + d + (d - 1) * math.log2(1 + math.log(N + 1)) + L * math.log2(d)):
        N = math.ceil(need)
    return N


def numeric_mzv(idx: Sequence[int], tol: float = 1e-8) -> float:
    """Float value of a convergent multiple zeta value, to full precision.

    Hölder convolution at 1/2 (Borwein, Bradley, Broadhurst and Lisoněk,
    Trans. AMS 353, 2001): with w = 0^(k_r - 1) 1 ... 0^(k_1 - 1) 1 the
    word of the index, L its length, the weight, and w' its dual (w
    reversed, 0 and 1 swapped),

        zeta(w) = sum_{j=0..L} Li(parts(w[j:]); 1/2) Li(parts(w'[L-j:]); 1/2),

    where Li(a_1..a_d; 1/2) sums 2^-n_1 prod n_i^-a_i over n_1 > ... > n_d
    > 0 and the empty word gives 1.  Every outer sum stops at n = N.

    Bound: with d the larger depth of w and w', inner sums are at most
    (1 + ln n)^(d-1) and each value is at least 2^-d d^-L, so the cut
    costs a relative 2^(1-N+d) (1+ln(N+1))^(d-1) d^L at most (the ratio of
    successive tail terms stays below 3/4); N is the least that makes this
    2^-53.  Each n^-a is 1 / n**a, correctly rounded, and 2^-n scales
    exactly; the H recurrences add left to right, and every dot product
    and the final sum is math.fsum, correctly rounded.  Every term is
    positive, so relative errors add along a chain: an H value after k
    blocks is within kN roundings, an Li value of a word within
    (depth - 1)N + 3, and the depths of w and w' add up to L.  So the
    result is within ((L-2)N + 9) 2^-53 of zeta, relatively, to first
    order, the cut included.  No step depends on the CPU or on the Python
    version.

    ``tol`` must be at least TOL_FLOOR; it does not change the value.
    An index whose tables would hold more than NUMERIC_TABLE_CAP floats
    raises ResourceLimitError before any table is built, and before its
    word is built when its largest part alone rules the tables out.
    A tuple index is looked up in ``_numeric_cache`` before it is checked:
    every key is a checked admissible index, so a hit needs no check.  Any
    other sequence is checked and computed.
    """
    if not tol >= TOL_FLOOR:  # also refuses nan
        raise PreconditionError(f"tolerance {tol} below the floor {TOL_FLOOR}")
    if type(idx) is tuple:
        cached = _numeric_cache.get(idx)
        if cached is not None:
            return cached
    idx = check_index(idx)
    if not is_admissible_index(idx):
        raise PreconditionError(f"index {idx} is not admissible (last part < 2)")
    # The tables have max(idx) + 1 rows or more of N > 54 floats: refuse a
    # large part before its word is built.
    if (max(idx) + 1) * 54 > NUMERIC_TABLE_CAP:
        raise ResourceLimitError(
            f"index {idx} needs more than {(max(idx) + 1) * 54} floats per table, "
            f"over the cap {NUMERIC_TABLE_CAP}"
        )
    w = "".join("0" * (k - 1) + "1" for k in reversed(idx))
    dual = w[::-1].translate(str.maketrans("01", "10"))
    # parts(): cut a word ending in 1 after each 1, run lengths outermost first.
    p, q = ([len(run) + 1 for run in x.split("1")[:-1]] for x in (w, dual))
    N = _series_length(len(w), max(len(p), len(q)))
    size = (max(p + q) + 1) * N
    if size > NUMERIC_TABLE_CAP:
        raise ResourceLimitError(
            f"index {idx} needs {size} floats per table, over the cap {NUMERIC_TABLE_CAP}"
        )
    inv = [[1 / n**a for n in range(1, N + 1)] for a in range(max(p + q) + 1)]
    # Scaling by 2^-n is exact, so these are 1 / (n**a << n), correctly rounded.
    half = [0.5**n for n in range(1, N + 1)]
    terms = [list(map(mul, row, half)) for row in inv]
    li_p, li_q = _li_suffixes(p, inv, terms), _li_suffixes(q, inv, terms)
    val = math.fsum(map(mul, li_p, reversed(li_q)))
    _numeric_cache[idx] = val
    return val


def richardson_extrapolate(points: Sequence[Tuple[int, float]]) -> float:
    """Polynomial extrapolation of (M, value) pairs to M = infinity in 1/M."""
    if not points:
        raise PreconditionError("need at least one point")
    if any(m <= 0 for m, _ in points):
        raise PreconditionError("cutoffs must be positive")
    hs = [1.0 / m for m, _ in points]
    if len(set(hs)) < len(hs):
        raise PreconditionError("cutoffs must be distinct")
    tab = [float(v) for _, v in points]
    n = len(tab)
    for j in range(1, n):
        nxt = tab[:]
        for i in range(n - 1, j - 1, -1):
            nxt[i] = (hs[i - j] * tab[i] - hs[i] * tab[i - 1]) / (hs[i - j] - hs[i])
        tab = nxt
    return tab[-1]
