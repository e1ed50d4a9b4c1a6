import inspect
import json
import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schurmzv import mzv
from schurmzv.errors import PreconditionError, ResourceLimitError
from schurmzv.evaluate import truncated_schur_zeta
from schurmzv.mzv import (
    EULER_GAMMA,
    TOL_FLOOR,
    _series_length,
    check_index,
    expand_tableau,
    numeric_mzv,
    richardson_extrapolate,
    truncated_mzv,
    truncated_mzv_float,
    truncated_mzv_float_ladder,
)
from schurmzv.shapes import Tableau, make_skew, tableau_from_entries

from test_ribbons import connected_skew_shapes
from test_shapes import skew_shapes

PI = math.pi
ZETA3 = 1.2020569031595942854
ZETA5 = 1.0369277551433699263


def truncated_mzsv(idx, M):
    """Oracle: exact sum over 0 < m_1 <= ... <= m_r < M of prod m_i^-k_i."""
    idx = check_index(idx)
    A = [Fraction(1)] + [Fraction(0)] * len(idx)
    for m in range(1, M):
        for j, k in enumerate(idx, start=1):
            # A[j-1] was already updated at this m, which makes the tie legal.
            A[j] = A[j] + Fraction(1, m**k) * A[j - 1]
    return A[len(idx)]


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
    cumulative sum per depth over the whole range 1..M-1.

    Each m^-k is ``1 / m**k`` on Python ints, which is correctly rounded;
    numpy's vectorised pow is not on every CPU (on AVX-512 it gives 5^-5
    one ulp low)."""
    prev = np.ones(M - 1)
    for j, k in enumerate(idx, start=1):
        shifted = np.empty(M - 1)
        shifted[0] = 1.0 if j == 1 else 0.0
        shifted[1:] = prev[:-1]
        prev = np.cumsum(np.array([1 / m**k for m in range(1, M)]) * shifted)
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
    raise AssertionError(f"{idx} failed to stabilize")


def mp_mzv(idx):
    """Oracle: numeric_mzv's convolution in mpmath at 30 digits, with every
    sum cut where its tail bound falls below 2^-110 instead of 2^-53."""
    w = "".join("0" * (k - 1) + "1" for k in reversed(idx))
    dual = w[::-1].translate(str.maketrans("01", "10"))
    p, q = ([len(run) + 1 for run in x.split("1")[:-1]] for x in (w, dual))
    L, d = len(w), max(len(p), len(q))
    N = 0
    while N < (need := 111 + d + (d - 1) * math.log2(1 + math.log(N + 1)) + L * math.log2(d)):
        N = math.ceil(need)
    with mpmath.workdps(30):
        inv = [[mpmath.mpf(1) / n**a for n in range(1, N + 1)] for a in range(max(p + q) + 1)]
        half = [mpmath.mpf(2) ** -n for n in range(1, N + 1)]

        def li(parts):
            out = [mpmath.mpf(1)] * (sum(parts) + 1)
            at = len(out) - 1
            H = [mpmath.mpf(1)] * N
            for s in reversed(parts):
                at -= s
                G = [h * x for h, x in zip(half, H)]
                for a in range(1, s + 1):
                    out[at + s - a] = mpmath.fdot(inv[a], G)
                acc = [mpmath.mpf(0)]
                for x, h in zip(inv[s], H[:-1]):
                    acc.append(acc[-1] + x * h)
                H = acc
            return out

        return mpmath.fdot(li(p), li(q)[::-1])


def seeded_indices(n=300, seed=2026):
    """n random admissible indices of depth at most 6 and weight at most 18."""
    rng = random.Random(seed)
    out = []
    while len(out) < n:
        idx = tuple(rng.randint(1, 5) for _ in range(rng.randint(0, 5))) + (rng.randint(2, 5),)
        if sum(idx) <= 18:
            out.append(idx)
    return out


SRC = Path(__file__).resolve().parent.parent / "src"

BITS_PROBE = "import random\n" + inspect.getsource(seeded_indices) + """
import hashlib
from schurmzv.mzv import numeric_mzv
text = " ".join(float.hex(numeric_mzv(idx)) for idx in seeded_indices())
print(hashlib.sha256(text.encode()).hexdigest())
"""

#: sha256 of the space-separated float.hex values of numeric_mzv over
#: seeded_indices(), the same on every CPU.
BITS_PIN = "c83f1ad8c05bc5ebbd7c2be39f13553ace2907c1f2994eb2fd6444e3f0327ee0"

LADDER_PROBE = """
from schurmzv.mzv import truncated_mzv_float_ladder
for idx, Ms in (((5, 5, 5), (425,)), ((3, 3, 2, 5), (407,)), ((4, 6, 4, 5), (342,)),
                ((2,), (1024, 2048, 4096)), ((1, 2), (8, 64, 4096)), ((1, 3, 1, 3), (4096,))):
    print(*map(float.hex, truncated_mzv_float_ladder(idx, Ms)))
"""

#: What LADDER_PROBE prints on every CPU: each m^-k is 1 / m**k, correctly
#: rounded.  numpy's vectorised pow on an AVX-512 CPU once made the first
#: three one ulp low.
LADDER_PIN = """\
0x1.837c1d7a38337p-13
0x1.057801057c9fep-15
0x1.78851a56aeb97p-22
0x1.a4da5e2485d2ep+0 0x1.a4fa64251b28dp+0 0x1.a50a65a52dd54p+0
0x1.74bda12f684bep-1 0x1.1ca63dab774b1p+0 0x1.331baa43e7982p+0
0x1.56b89b2a68eb6p-8
"""


def run_probe(code, **env_vars):
    """Stdout of code run in a fresh interpreter on this checkout's src,
    with each of env_vars set to its value, or unset where that is None."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for name, value in env_vars.items():
        env.pop(name, None)
        if value is not None:
            env[name] = value
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


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
            for M in (-1, 0, 1, len(idx), len(idx) + 1, 2, 5, 30):
                exact, approx = truncated_mzv(idx, M), truncated_mzv_float(idx, M)
                assert approx == pytest.approx(float(exact), abs=1e-12)
                # Too few m below M for a chain: both are exactly zero.
                assert (exact == 0) == (approx == 0.0) == (M <= len(idx))

    def test_float_ladder(self):
        idx = (1, 2)
        Ms = [4, 16, 64]
        ladder = truncated_mzv_float_ladder(idx, Ms)
        for M, v in zip(Ms, ladder):
            assert v == pytest.approx(float(truncated_mzv(idx, M)), abs=1e-12)


class TestFloatLadder:
    # Two short cutoffs and long ones on both sides of 2^16 and 2^17.
    EDGES = (2, 3, (1 << 16) - 1, 1 << 16, (1 << 16) + 1, (1 << 16) + 2,
             2 * (1 << 16), 2 * (1 << 16) + 1, 2 * (1 << 16) + 2, 2 * (1 << 16) + 3)

    @pytest.mark.parametrize("idx", [(2,), (1,), (1, 2), (3, 1, 2), (1, 1, 1, 2), (4, 2), (5, 5, 5)])
    def test_bit_identical_to_whole_array(self, idx):
        top = max(self.EDGES)
        arr = whole_array(idx, top)
        want = [float(arr[M - 2]) if M > len(idx) else 0.0 for M in self.EDGES]
        assert truncated_mzv_float_ladder(idx, self.EDGES) == want
        assert [truncated_mzv_float(idx, M) for M in self.EDGES] == want

    @pytest.mark.parametrize("idx", [(216,), (269,), (359,), (538,), (1074,), (1075,),
                                     (1076,), (1, 1074), (1074, 1), (2, 359, 3)])
    def test_underflowing_terms(self, idx):
        # m^-k rounds to 0.0 from m = 2^(1075 // k + 1) on; the ladder
        # stops building m**k there and must still match 1 / m**k.
        Ms = list(range(1, 71))
        arr = whole_array(idx, max(Ms))
        want = [float(arr[M - 2]) if M > len(idx) else 0.0 for M in Ms]
        assert truncated_mzv_float_ladder(idx, Ms) == want

    def test_ladder_order_and_repeats(self):
        rng = random.Random(4096)
        for _ in range(10):
            idx = tuple(rng.randint(1, 4) for _ in range(rng.randint(1, 4)))
            Ms = [rng.randint(1, 3 * (1 << 16)) for _ in range(6)]
            # Cutoffs too short for a chain, unsorted and repeated.
            Ms[2:2] = [len(idx), -1, 1, 0, len(idx), -1]
            Ms.append(Ms[0])
            arr = whole_array(idx, max(Ms))
            want = [float(arr[M - 2]) if M > len(idx) else 0.0 for M in Ms]
            assert all(truncated_mzv(idx, M) == 0 for M in Ms if M <= len(idx))
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

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_expansion_matches_schur_sum(self, data):
        # connected shapes up to 7 rows or columns (long chains, hooks), and
        # any skew shape in a 4x4 box: disconnected ones, empty interior rows
        shape = data.draw(st.one_of(
            connected_skew_shapes(max_cells=7),
            skew_shapes(max_len=4, max_part=4).filter(lambda s: 1 <= s.n_cells <= 7),
        ))
        entries = {
            cell: data.draw(st.integers(min_value=1, max_value=3), label=f"k{cell}")
            for cell in shape.cells
        }
        t = tableau_from_entries(shape, entries)
        M = data.draw(st.integers(min_value=2, max_value=7), label="M")
        comb = expand_tableau(t)
        assert list(comb) == sorted(comb)
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

    @pytest.mark.parametrize("coretype", [None, "NEHALEM"])
    def test_bits_do_not_depend_on_the_cpu(self, coretype):
        # numpy's BLAS picks a kernel for the CPU at load, and a different
        # kernel once moved the last bits of dot products summed through it.
        assert run_probe(BITS_PROBE, OPENBLAS_CORETYPE=coretype) == BITS_PIN + "\n"

    @pytest.mark.parametrize("disabled", [None, "X86_V4 AVX512_ICL AVX512_SPR"])
    def test_ladder_bits_do_not_depend_on_the_cpu(self, disabled):
        # numpy picks its pow kernel for the CPU at load; with AVX-512
        # features disabled it picks another, with other last bits.
        assert run_probe(LADDER_PROBE, NPY_DISABLE_CPU_FEATURES=disabled) == LADDER_PIN

    def test_within_the_stated_bound(self):
        for idx in seeded_indices()[::10]:
            L, r = sum(idx), len(idx)
            N = _series_length(L, max(r, L - r))
            ref = mp_mzv(idx)
            with mpmath.workdps(30):
                err = abs(mpmath.mpf(numeric_mzv(idx)) - ref) / ref
                assert err <= ((L - 2) * N + 9) * mpmath.mpf(2) ** -53, idx

    @pytest.mark.parametrize("idx", [(3,), (2, 2), (1, 3)])
    def test_correctly_rounded(self, idx):
        assert numeric_mzv(idx) == float(mp_mzv(idx))

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

    def test_table_cap(self, monkeypatch):
        # (1000,) needs N = 14,414 terms for 1,001 powers: two tables of
        # about 14 million floats each.
        monkeypatch.setattr(mzv, "_numeric_cache", {})
        start = time.monotonic()
        with pytest.raises(ResourceLimitError, match="over the cap"):
            numeric_mzv((1000,))
        assert time.monotonic() - start < 1.0
        assert mzv._numeric_cache == {}

    def test_table_cap_on_the_command_line(self):
        # (3000,) would need about 9 GB of tables, and the word of a part
        # near 10^20 cannot be built at all; the child's address space and
        # run time are capped, so a missing guard fails without exhausting
        # the machine.
        for idx in ("3000", "99999999999999999999", "1000000000", "2,100000000"):
            proc = run_capped("mzv", "--index", idx)
            assert proc.returncode == 4, (idx, proc.stderr)
            assert "ResourceLimitError" in proc.stdout

    def test_huge_entry_on_the_command_line(self, tmp_path):
        # An exact truncation would build lcm(1, 2)^(10^20), and the
        # regularized check the word of zeta(10^20).
        (tmp_path / "one.tab").write_text("99999999999999999999\n")
        (tmp_path / "one.shape").write_text("x\n")
        tab, ribbon = str(tmp_path / "one.tab"), str(tmp_path / "one.shape")
        for argv in (
            ("eval", "-M", "3", tab),
            ("jt-check", "-M", "3", "--ribbon", ribbon, tab),
            ("jt-check", "--regularized", "--ribbon", ribbon, tab),
        ):
            proc = run_capped(*argv)
            assert proc.returncode == 4, (argv, proc.stderr)
            assert "ResourceLimitError" in proc.stdout

    def test_huge_entry_float_ladder(self, tmp_path):
        # At M = 2 the exact value is 1; the ladder's terms past m = 1
        # underflow to 0.0, and m**(10^20) is never built.
        (tmp_path / "one.tab").write_text("99999999999999999999\n")
        proc = run_capped("eval", "-M", "2", "--extrapolate", str(tmp_path / "one.tab"))
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout)["result"]
        assert result["value"] == "1"
        assert result["extrapolated_numeric"] == 1.0


def run_capped(*argv):
    """Run the command line in a child with 1 GB of address space and 10 s."""
    import resource

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "schurmzv.cli", *argv],
        capture_output=True, text=True, env=env, timeout=10, preexec_fn=cap_memory,
    )


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
