"""Multiple zeta values: exact truncations, tableau expansion, numerics.

Indices follow the increasing-variable convention: (k_1,...,k_r) sums over
0 < m_1 < ... < m_r, so admissibility means the *last* part is >= 2.  The
star variant uses weak inequalities.  A tableau's nested sum expands into an
integer combination of plain indices by enumerating its compatible total
quasi-orders.

Float truncations come from one routine, a ladder of running sums.
numeric_mzv sums a Hölder convolution of polylogarithms at 1/2 instead,
with a stated error bound; numpy is imported only in these two.
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
from functools import lru_cache
from itertools import product
from typing import Dict, Iterable, List, Sequence, Tuple

from .errors import PreconditionError
from .shapes import Tableau, int_parts

Index = Tuple[int, ...]
IndexCombination = Dict[Index, int]

EULER_GAMMA = 0.5772156649015328606065

#: numeric_mzv refuses tolerances below this.
TOL_FLOOR = 1e-10


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


def truncated_mzv(idx: Sequence[int], M: int) -> Fraction:
    """Exact sum over 0 < m_1 < ... < m_r < M of prod m_i^-k_i."""
    idx = check_index(idx)
    A = [Fraction(1)] + [Fraction(0)] * len(idx)
    for m in range(1, M):
        prev = A[:]
        for j, k in enumerate(idx, start=1):
            A[j] = prev[j] + Fraction(1, m**k) * prev[j - 1]
    return A[len(idx)]


def truncated_mzsv(idx: Sequence[int], M: int) -> Fraction:
    """Exact sum over 0 < m_1 <= ... <= m_r < M of prod m_i^-k_i."""
    idx = check_index(idx)
    A = [Fraction(1)] + [Fraction(0)] * len(idx)
    for m in range(1, M):
        for j, k in enumerate(idx, start=1):
            # A[j-1] was already updated at this m, which makes the tie legal.
            A[j] = A[j] + Fraction(1, m**k) * A[j - 1]
    return A[len(idx)]


#: Cutoffs advance at most this many values of m per numpy pass, which caps
#: the ladder's working arrays at a few MB whatever the cutoff.
_CHUNK = 1 << 16


class _FloatLadder:
    """Float truncations of one index at a cutoff that only moves up.

    ``sums[j]`` is the sum over 0 < m_1 < ... < m_{j+1} < ``M`` for the
    first j+1 parts, so ``sums[-1]`` is the truncation at ``M``.  Each pass
    extends every depth by one cumulative sum whose first element is the
    running total so far, which keeps the additions sequential: the result
    is bit-identical to one cumulative sum over 1..M-1, at any chunking.
    """

    __slots__ = ("idx", "M", "sums")

    def __init__(self, idx: Index):
        self.idx = idx
        self.M = 1
        self.sums = [0.0] * len(idx)

    def advance(self, Ms: Sequence[int]) -> List[float]:
        """Extend the cutoff to max(Ms) and return the truncation at each
        cutoff in Ms, none of which may lie below the current one."""
        import numpy as np

        # Below M = len(idx) + 1 there are too few m for a chain: exactly 0.0.
        out = dict.fromkeys(Ms, 0.0)
        live = [M for M in out if M > len(self.idx)]
        out.update((M, self.sums[-1]) for M in live if M <= self.M)
        top = max(live, default=0)
        while self.M < top:
            lo, hi = self.M, min(top, self.M + _CHUNK)
            m = np.arange(lo, hi, dtype=np.float64)
            powers: Dict[int, np.ndarray] = {}
            # cum: one depth's sum at cutoff lo, then at each cutoff up to
            # hi.  Depth 0 is the empty product, 1.
            cum = np.ones(hi - lo + 1)
            for j, k in enumerate(self.idx):
                if k not in powers:
                    powers[k] = m ** (-float(k))
                acc = np.empty(hi - lo + 1)
                acc[0] = self.sums[j]
                np.multiply(powers[k], cum[:-1], out=acc[1:])
                cum = acc.cumsum()
                self.sums[j] = cum[-1]
            for M in live:
                if lo < M <= hi:
                    out[M] = cum[M - lo]
            self.M = hi
        return [float(out[M]) for M in Ms]


def truncated_mzv_float(idx: Sequence[int], M: int) -> float:
    """Float-precision truncation, linear time in M via cumulative sums."""
    return _FloatLadder(check_index(idx)).advance([M])[0]


def truncated_mzv_float_ladder(idx: Sequence[int], Ms: Iterable[int]) -> List[float]:
    """Truncations at several cutoffs from one pass up to the largest."""
    return _FloatLadder(check_index(idx)).advance(list(Ms))


def expand_tableau(k: Tableau) -> IndexCombination:
    """Write the tableau's nested sum as an integer combination of indices.

    Fillings are grouped by the total quasi-order of their values: cells
    merged by equality form blocks (only row-mates can merge; columns are
    strict), and blocks ordered by value read off a composition of the
    entries.  Blocks are peeled smallest-first, which means taking, in every
    row, a prefix of the cells whose upper neighbour is already gone.
    """
    shape = k.shape
    nrows = len(shape.lam)
    runs = [shape.row_span(i) for i in range(1, nrows + 1)]
    entries = k.entries
    psum: List[List[int]] = []
    for i in range(nrows):
        lo, hi = runs[i]
        acc = [0]
        for j in range(lo, hi + 1):
            acc.append(acc[-1] + entries[(i + 1, j)])
        psum.append(acc)

    @lru_cache(maxsize=None)
    def rec(removed: Tuple[int, ...]) -> Tuple[Tuple[Index, int], ...]:
        if all(removed[i] == runs[i][1] - runs[i][0] + 1 or runs[i][0] > runs[i][1]
               for i in range(nrows)):
            return (((), 1),)
        avail = []
        for i in range(nrows):
            lo, hi = runs[i]
            s_i = lo + removed[i]
            if i > 0:
                hi = min(hi, runs[i - 1][0] + removed[i - 1] - 1)
            avail.append(max(0, hi - s_i + 1))
        out: Dict[Index, int] = {}
        for take in product(*[range(a + 1) for a in avail]):
            if not any(take):
                continue
            part = sum(
                psum[i][removed[i] + t] - psum[i][removed[i]]
                for i, t in enumerate(take)
            )
            nxt = tuple(r + t for r, t in zip(removed, take))
            for suffix, mult in rec(nxt):
                key = (part,) + suffix
                out[key] = out.get(key, 0) + mult
        return tuple(sorted(out.items()))

    result = dict(rec(tuple(0 for _ in range(nrows))))
    rec.cache_clear()
    return result


def _li_suffixes(parts: Sequence[int], powers, terms):
    """out[j] = Li(parts(w[j:]); 1/2) for the word w of parts, j = 0..weight,
    from powers[r, n-1] = n^-r and terms = 2^-n powers, n = 1..N."""
    import numpy as np

    L = sum(parts)
    out = np.empty(L + 1)
    out[L] = 1.0
    # H[n-1] = sum over n > n_1 > ... of prod n_i^-a_i, for the blocks passed.
    H = np.ones(powers.shape[1])
    step = np.empty(len(H) - 1)
    for s in reversed(parts):
        L -= s
        # w[L + s - a:] starts with the part a, for a = s..1.
        out[L:L + s] = np.dot(terms[s:0:-1], H)
        np.multiply(powers[s, :-1], H[:-1], out=step)
        np.add.accumulate(step, out=H[1:])
        H[0] = 0.0
    return out


_numeric_cache: Dict[Index, float] = {}


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
    2^-53.  Every term is positive and passes through at most
    2(d+1)(N+3) + L + 1 operations, each within one ulp, so the result is
    within (2(d+1)(N+3) + L + 2) 2^-52 of zeta, relatively, to first order.

    ``tol`` must be at least TOL_FLOOR; it does not change the value.
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
    import numpy as np

    w = "".join("0" * (k - 1) + "1" for k in reversed(idx))
    dual = w[::-1].translate(str.maketrans("01", "10"))
    # parts(): cut a word ending in 1 after each 1, run lengths outermost first.
    p, q = ([len(run) + 1 for run in x.split("1")[:-1]] for x in (w, dual))
    L, d = len(w), max(len(p), len(q))
    N = 0  # the least N that makes the tail bound above 2^-53
    while N < (need := 54 + d + (d - 1) * math.log2(1 + math.log(N + 1)) + L * math.log2(d)):
        N = math.ceil(need)
    n = np.arange(1, N + 1, dtype=np.float64)
    powers = n ** -np.arange(max(p + q) + 1, dtype=np.float64)[:, None]
    terms = powers * 0.5**n
    val = float(_li_suffixes(p, powers, terms) @ _li_suffixes(q, powers, terms)[::-1])
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
