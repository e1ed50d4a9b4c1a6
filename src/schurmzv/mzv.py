"""Multiple zeta values: exact truncations, tableau expansion, numerics.

Indices follow the increasing-variable convention: (k_1,...,k_r) sums over
0 < m_1 < ... < m_r, so admissibility means the *last* part is >= 2.  The
star variant uses weak inequalities.  A tableau's nested sum expands into an
integer combination of plain indices by enumerating its compatible total
quasi-orders.

Float truncations come from one routine, a ladder of running sums that
numeric_mzv extends as its cutoff doubles; numpy is imported only there.
``_numeric_cache`` maps an admissible index to the tolerance it was computed
at and its value.  It is unbounded, and a value computed at a tighter
tolerance answers later, looser requests.  Its reads and writes are single
dict operations, so threads may share it; two threads may compute the same
entry.  The README section "Caches and threads" covers it with the two
caches in ``stuffle``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import product
from typing import Dict, Iterable, List, Sequence, Tuple

from .errors import InternalCheckError, PreconditionError
from .shapes import Tableau

Index = Tuple[int, ...]
IndexCombination = Dict[Index, int]

EULER_GAMMA = 0.5772156649015328606065

#: numeric_mzv refuses tolerances below this.
TOL_FLOOR = 1e-10


def check_index(idx: Sequence[int]) -> Index:
    t = tuple(int(k) for k in idx)
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


def _em_tail(k: int, j: int, N: int) -> float:
    """Sum_{m=N}^inf m^-k (log m + gamma)^j by Euler-Maclaurin at N."""
    L = math.log(N) + EULER_GAMMA
    # I[b] = integral_N^inf x^-k (log x + gamma)^b dx, by parts.
    I = [N ** (1 - k) / (k - 1)]
    for b in range(1, j + 1):
        I.append((N ** (1 - k) * L**b + b * I[b - 1]) / (k - 1))
    # Correction terms need odd derivatives of g(x) = x^-k (log x + gamma)^j,
    # kept as {(a, b): c} term lists for c * x^-a * (log x + gamma)^b.
    def deriv(ts: Dict[Tuple[int, int], float]) -> Dict[Tuple[int, int], float]:
        out: Dict[Tuple[int, int], float] = {}
        for (a, b), c in ts.items():
            out[(a + 1, b)] = out.get((a + 1, b), 0.0) - a * c
            if b:
                out[(a + 1, b - 1)] = out.get((a + 1, b - 1), 0.0) + b * c
        return out

    def ev(ts: Dict[Tuple[int, int], float]) -> float:
        return sum(c * N ** (-a) * L**b for (a, b), c in ts.items())

    g: Dict[Tuple[int, int], float] = {(k, j): 1.0}
    d = [g]
    for _ in range(5):
        d.append(deriv(d[-1]))
    return I[j] + ev(g) / 2 - ev(d[1]) / 12 + ev(d[3]) / 720 - ev(d[5]) / 30240


_numeric_cache: Dict[Index, Tuple[float, float]] = {}


def numeric_mzv(idx: Sequence[int], tol: float = 1e-8) -> float:
    """Float value of a convergent multiple zeta value, to within tol.

    Sums exactly below an adaptive cutoff N and replaces the outer tail by
    the regularized asymptotic of the inner truncation: zeta_m(prefix) is a
    polynomial in log m + gamma up to O(log^J m / m), and the resulting
    tail sums have closed Euler-Maclaurin forms.  The cutoff doubles until
    two successive evaluations agree within tol/2.
    """
    idx = check_index(idx)
    if not is_admissible_index(idx):
        raise PreconditionError(f"index {idx} is not admissible (last part < 2)")
    if tol < TOL_FLOOR:
        raise PreconditionError(f"tolerance {tol} below the floor {TOL_FLOOR}")
    cached = _numeric_cache.get(idx)
    if cached is not None and cached[0] <= tol:
        return cached[1]

    k = idx[-1]
    if len(idx) == 1:
        rho = {0: 1.0}
    else:
        from .stuffle import regularize

        poly = regularize(idx[:-1])
        rho = {}
        for j, coeff in enumerate(poly.coeffs):
            val = 0.0
            for sub, q in coeff.terms.items():
                if sub == ():
                    val += float(q)
                else:
                    val += float(q) * numeric_mzv(sub, max(tol / 16, TOL_FLOOR))
            rho[j] = val

    ladder = _FloatLadder(idx)
    prev = None
    N = 128
    while N <= 2**22:
        val = ladder.advance([N])[0] + sum(
            c * _em_tail(k, j, N) for j, c in rho.items() if c
        )
        if prev is not None and abs(val - prev) <= max(tol / 2, 1e-14):
            _numeric_cache[idx] = (tol, val)
            return val
        prev = val
        N *= 2
    raise InternalCheckError(f"numeric evaluation of {idx} failed to stabilize")


def richardson_extrapolate(points: Sequence[Tuple[int, float]]) -> float:
    """Polynomial extrapolation of (M, value) pairs to M = infinity in 1/M."""
    if not points:
        raise PreconditionError("need at least one point")
    hs = [1.0 / m for m, _ in points]
    tab = [float(v) for _, v in points]
    n = len(tab)
    for j in range(1, n):
        nxt = tab[:]
        for i in range(n - 1, j - 1, -1):
            nxt[i] = (hs[i - j] * tab[i] - hs[i] * tab[i - 1]) / (hs[i - j] - hs[i])
        tab = nxt
    return tab[-1]
