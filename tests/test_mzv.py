import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schurmzv import mzv
from schurmzv.errors import InternalCheckError, PreconditionError
from schurmzv.evaluate import truncated_schur_zeta
from schurmzv.mzv import (
    _CHUNK,
    EULER_GAMMA,
    TOL_FLOOR,
    expand_tableau,
    is_admissible_index,
    numeric_mzv,
    richardson_extrapolate,
    truncated_mzsv,
    truncated_mzv,
    truncated_mzv_float,
    truncated_mzv_float_ladder,
)
from schurmzv.shapes import Tableau, make_skew, tableau_from_entries

from test_ribbons import connected_skew_shapes

PI = math.pi
ZETA3 = 1.2020569031595942854
ZETA5 = 1.0369277551433699263


def brute_mzv(idx, M):
    from itertools import combinations

    total = Fraction(0)
    for ms in combinations(range(1, M), len(idx)):
        term = Fraction(1)
        for m, k in zip(ms, idx):
            term *= Fraction(1, m**k)
        total += term
    return total


def whole_array(idx, M):
    """Oracle: arr[t] is the float truncation at cutoff t+2, from one
    cumulative sum per depth over the whole range 1..M-1."""
    m = np.arange(1, M, dtype=np.float64)
    prev = np.ones(M - 1)
    for j, k in enumerate(idx, start=1):
        shifted = np.empty(M - 1)
        shifted[0] = 1.0 if j == 1 else 0.0
        shifted[1:] = prev[:-1]
        prev = np.cumsum(m ** (-float(k)) * shifted)
    return prev


def _em_tail(k, j, N):
    """Sum_{m=N}^inf m^-k (log m + gamma)^j by Euler-Maclaurin at N."""
    L = math.log(N) + EULER_GAMMA
    # I[b] = integral_N^inf x^-k (log x + gamma)^b dx, by parts.
    I = [N ** (1 - k) / (k - 1)]
    for b in range(1, j + 1):
        I.append((N ** (1 - k) * L**b + b * I[b - 1]) / (k - 1))
    # Correction terms need odd derivatives of g(x) = x^-k (log x + gamma)^j,
    # kept as {(a, b): c} term lists for c * x^-a * (log x + gamma)^b.
    def deriv(ts):
        out = {}
        for (a, b), c in ts.items():
            out[(a + 1, b)] = out.get((a + 1, b), 0.0) - a * c
            if b:
                out[(a + 1, b - 1)] = out.get((a + 1, b - 1), 0.0) + b * c
        return out

    def ev(ts):
        return sum(c * N ** (-a) * L**b for (a, b), c in ts.items())

    g = {(k, j): 1.0}
    d = [g]
    for _ in range(5):
        d.append(deriv(d[-1]))
    return I[j] + ev(g) / 2 - ev(d[1]) / 12 + ev(d[3]) / 720 - ev(d[5]) / 30240


def restart_numeric_mzv(idx, tol):
    """Oracle: an independent series for an MZV to within tol.  It sums
    below a doubling cutoff, rebuilding the truncation from m = 1 each
    time, adds an Euler-Maclaurin tail whose coefficients recurse into
    itself, and stops when two cutoffs agree within tol/2."""
    from schurmzv.stuffle import regularize

    k = idx[-1]
    rho = {0: 1.0}
    if len(idx) > 1:
        for j, coeff in enumerate(regularize(idx[:-1]).coeffs):
            val = 0.0
            for sub, q in coeff.terms.items():
                if sub == ():
                    val += float(q)
                else:
                    val += float(q) * restart_numeric_mzv(sub, max(tol / 16, TOL_FLOOR))
            rho[j] = val
    prev = None
    N = 128
    while N <= 2**22:
        val = float(whole_array(idx, N)[N - 2]) + sum(
            c * _em_tail(k, j, N) for j, c in rho.items() if c
        )
        if prev is not None and abs(val - prev) <= max(tol / 2, 1e-14):
            return val
        prev = val
        N *= 2
    raise InternalCheckError(f"{idx} failed to stabilize")


class TestTruncated:
    def test_single(self):
        assert truncated_mzv((2,), 3) == Fraction(5, 4)

    def test_depth_two(self):
        assert truncated_mzv((1, 2), 3) == Fraction(1, 4)

    def test_matches_brute_force(self):
        for idx in [(1, 3), (2, 1, 2), (1, 1, 1), (4,)]:
            for M in (1, 2, 3, 6):
                assert truncated_mzv(idx, M) == brute_mzv(idx, M)

    def test_non_integer_parts_rejected(self):
        # int() once truncated these: [1.5, 2.5] summed as (1, 2).
        for bad in ([1.5, 2.5], [2.9], ["3"], ["abc"], [float("nan")], [float("inf")]):
            with pytest.raises(PreconditionError, match="non-integer"):
                truncated_mzv(bad, 4)
        assert truncated_mzv([1.0, np.int64(2)], 4) == truncated_mzv((1, 2), 4)

    def test_short_cutoff_is_zero(self):
        assert truncated_mzv((1, 2, 1), 3) == 0
        assert truncated_mzv((2,), 1) == 0

    def test_star_single(self):
        assert truncated_mzsv((2,), 3) == Fraction(5, 4)

    def test_star_pairs(self):
        # (1,1): pairs (1,1), (1,2), (2,2) -> 1 + 1/2 + 1/4
        assert truncated_mzsv((1, 1), 3) == Fraction(7, 4)

    def test_star_one_term(self):
        assert truncated_mzsv((4,), 2) == 1

    def test_star_dominates_strict(self):
        for idx in [(1, 2), (2, 2), (1, 1, 2)]:
            assert truncated_mzsv(idx, 8) >= truncated_mzv(idx, 8)

    def test_empty_index_rejected(self):
        with pytest.raises(PreconditionError):
            truncated_mzv((), 5)
        with pytest.raises(PreconditionError):
            truncated_mzv((0, 2), 5)

    def test_float_agrees_with_exact(self):
        for idx in [(2,), (1, 2), (3, 1, 2)]:
            for M in (2, 5, 30):
                assert truncated_mzv_float(idx, M) == pytest.approx(
                    float(truncated_mzv(idx, M)), abs=1e-12
                )

    def test_float_ladder(self):
        idx = (1, 2)
        Ms = [4, 16, 64]
        ladder = truncated_mzv_float_ladder(idx, Ms)
        for M, v in zip(Ms, ladder):
            assert v == pytest.approx(float(truncated_mzv(idx, M)), abs=1e-12)


class TestFloatLadder:
    # Cutoffs on both sides of the first and second chunk boundaries: the
    # ladder has summed m < M, so M = _CHUNK + 1 ends exactly one chunk.
    EDGES = (2, 3, _CHUNK - 1, _CHUNK, _CHUNK + 1, _CHUNK + 2,
             2 * _CHUNK, 2 * _CHUNK + 1, 2 * _CHUNK + 2, 2 * _CHUNK + 3)

    @pytest.mark.parametrize("idx", [(2,), (1,), (1, 2), (3, 1, 2), (1, 1, 1, 2), (4, 2)])
    def test_bit_identical_to_whole_array(self, idx):
        top = max(self.EDGES)
        arr = whole_array(idx, top)
        want = [float(arr[M - 2]) if M > len(idx) else 0.0 for M in self.EDGES]
        assert truncated_mzv_float_ladder(idx, self.EDGES) == want
        assert [truncated_mzv_float(idx, M) for M in self.EDGES] == want

    def test_ladder_order_and_repeats(self):
        rng = random.Random(4096)
        for _ in range(10):
            idx = tuple(rng.randint(1, 4) for _ in range(rng.randint(1, 4)))
            Ms = [rng.randint(1, 3 * _CHUNK) for _ in range(6)]
            Ms.append(Ms[0])
            arr = whole_array(idx, max(Ms))
            want = [float(arr[M - 2]) if M > len(idx) else 0.0 for M in Ms]
            assert truncated_mzv_float_ladder(idx, Ms) == want
            assert truncated_mzv_float_ladder(idx, iter(Ms)) == want

    def test_numeric_mzv_matches_restart_loop(self, monkeypatch):
        monkeypatch.setattr(mzv, "_numeric_cache", {})
        rng = random.Random(1908)
        # These four run the oracle's cutoffs past one or more chunks at 1e-8.
        seen = [(1, 1, 2), (2, 2), (1, 1, 1, 2), (2, 1, 1, 3)]
        while len(seen) < 16:
            idx = tuple(rng.randint(1, 3) for _ in range(rng.randint(0, 2))) + (rng.randint(2, 4),)
            if idx not in seen:
                seen.append(idx)
        for idx in seen:
            for tol in (1e-8, 1e-6):
                mzv._numeric_cache.clear()
                assert abs(numeric_mzv(idx, tol) - restart_numeric_mzv(idx, tol)) <= tol


class TestExpandTableau:
    def test_hook(self):
        t = Tableau(make_skew((2, 1)), ((1, 2), (3,)))
        assert expand_tableau(t) == {
            (1, 3, 2): 1,
            (1, 5): 1,
            (1, 2, 3): 1,
            (3, 3): 1,
        }

    def test_single_row_is_star_expansion(self):
        t = Tableau(make_skew((3,)), ((1, 2, 2),))
        comb = expand_tableau(t)
        assert sum(comb.values()) == 4  # 2^(r-1) compositions
        for M in (2, 4, 7):
            total = sum(mult * truncated_mzv(idx, M) for idx, mult in comb.items())
            assert total == truncated_mzsv((1, 2, 2), M)

    def test_single_column(self):
        t = Tableau(make_skew((1, 1, 1)), ((2,), (1,), (3,)))
        assert expand_tableau(t) == {(2, 1, 3): 1}

    def test_empty(self):
        t = Tableau(make_skew(()), ())
        assert expand_tableau(t) == {(): 1}

    def test_skew_disconnected_rows_commute(self):
        # (2,2)/(1,1)... actually two cells in one column is strict; use a
        # genuinely disconnected shape: (2,1)/(1) has cells (1,2) and (2,1).
        t = Tableau(make_skew((2, 1), (1,)), ((5,), (7,)))
        comb = expand_tableau(t)
        assert comb == {(5, 7): 1, (7, 5): 1, (12,): 1}

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_expansion_matches_schur_sum(self, data):
        shape = data.draw(connected_skew_shapes(max_cells=7))
        entries = {
            cell: data.draw(st.integers(min_value=1, max_value=3), label=f"k{cell}")
            for cell in shape.cells
        }
        t = tableau_from_entries(shape, entries)
        M = data.draw(st.integers(min_value=2, max_value=7), label="M")
        comb = expand_tableau(t)
        total = sum(mult * truncated_mzv(idx, M) for idx, mult in comb.items())
        assert total == truncated_schur_zeta(t, M)


class TestNumeric:
    def test_zeta2(self):
        assert numeric_mzv((2,), 1e-9) == pytest.approx(PI**2 / 6, abs=1e-8)

    def test_zeta3(self):
        assert numeric_mzv((3,), 1e-9) == pytest.approx(ZETA3, abs=1e-8)

    def test_euler_identity(self):
        # zeta(1,2) = zeta(3)
        assert numeric_mzv((1, 2), 1e-8) == pytest.approx(ZETA3, abs=1e-6)

    def test_depth_two_weight_four(self):
        assert numeric_mzv((1, 3), 1e-8) == pytest.approx(PI**4 / 360, abs=1e-6)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_exact_identities(self, n):
        cases = {
            (2,) * n: PI ** (2 * n) / math.factorial(2 * n + 1),
            (1, 3) * n: 2 * PI ** (4 * n) / math.factorial(4 * n + 2),
            (1,) * (n - 1) + (2,): (PI**2 / 6, ZETA3, PI**4 / 90, ZETA5)[n - 1],
            (1, 2): ZETA3,
        }
        for idx, want in cases.items():
            assert numeric_mzv(idx) == pytest.approx(want, rel=1e-14), idx

    def test_value_does_not_depend_on_earlier_calls(self, monkeypatch):
        monkeypatch.setattr(mzv, "_numeric_cache", {})
        first = numeric_mzv((1, 2), 1e-8)
        numeric_mzv((1, 2), 1e-10)
        assert numeric_mzv((1, 2), 1e-8) == first
        mzv._numeric_cache.clear()
        numeric_mzv((1, 2), 1e-10)
        assert numeric_mzv((1, 2), 1e-8) == first

    def test_interior_run_of_ones(self):
        # The reference is the convolution at 40 digits in mpmath, rounded.
        assert numeric_mzv((2, 1, 1, 1, 2, 2)) == pytest.approx(0.014231121868288644, rel=1e-15)

    def test_non_admissible_rejected(self):
        with pytest.raises(PreconditionError):
            numeric_mzv((2, 1))

    def test_tolerance_floor(self):
        for tol in (1e-12, float("nan")):
            with pytest.raises(PreconditionError):
                numeric_mzv((2,), tol)

    def test_non_integer_parts_rejected(self, monkeypatch):
        # int() once truncated [2.9] to (2,) and returned zeta(2).
        for cache in ({}, {(2,): numeric_mzv((2,))}):
            monkeypatch.setattr(mzv, "_numeric_cache", dict(cache))
            for bad in ([2.9], (2.9,), ("3",), ["abc"], (1.5, 2.5)):
                with pytest.raises(PreconditionError, match="non-integer"):
                    numeric_mzv(bad)
            # Integral values pass, and a warm hit agrees with a cold call.
            for good in ((2.0,), [np.int64(2)], (np.float64(2.0),)):
                assert numeric_mzv(good) == pytest.approx(PI**2 / 6, rel=1e-15)
            assert list(mzv._numeric_cache) == [(2,)]

    def test_cache_hit_matches_miss(self, monkeypatch):
        monkeypatch.setattr(mzv, "_numeric_cache", {})
        miss = numeric_mzv((2, 1, 3))
        assert mzv._numeric_cache == {(2, 1, 3): miss}
        assert numeric_mzv((2, 1, 3)) == miss
        assert numeric_mzv([2, 1, 3]) == miss
        for tol in (1e-12, float("nan")):
            with pytest.raises(PreconditionError):
                numeric_mzv((2, 1, 3), tol)
        for bad in ((2, 1), [2, 1], (0, 3), [2, 0, 3], ()):
            with pytest.raises(PreconditionError):
                numeric_mzv(bad)
        assert list(mzv._numeric_cache) == [(2, 1, 3)]


class TestRichardson:
    def test_constant(self):
        assert richardson_extrapolate([(10, 3.5), (20, 3.5)]) == pytest.approx(3.5)

    def test_linear_in_inverse_m(self):
        f = lambda M: 2.0 + 5.0 / M
        pts = [(M, f(M)) for M in (8, 16, 32)]
        assert richardson_extrapolate(pts) == pytest.approx(2.0, abs=1e-12)

    def test_accelerates_zeta2(self):
        Ms = [64, 128, 256, 512]
        vals = truncated_mzv_float_ladder((2,), Ms)
        raw_err = abs(vals[-1] - PI**2 / 6)
        acc_err = abs(richardson_extrapolate(list(zip(Ms, vals))) - PI**2 / 6)
        assert acc_err < raw_err / 100
        assert acc_err < 1e-9

    def test_empty_rejected(self):
        for points in ([], [(0, 1.0), (8, 2.0)], [(8, 1.0), (16, 2.0), (8, 1.5)]):
            with pytest.raises(PreconditionError):
                richardson_extrapolate(points)
