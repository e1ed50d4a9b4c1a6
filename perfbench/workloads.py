"""Seeded workloads of the schurmzv benchmark.

Each workload turns a seed into a list of operations, runs one operation
through the library's public functions, and checks a result against an
independent route.  The library only ever sees the generated inputs; the
seed stays here.

Operations are drawn in blocks, one block after another from one seeded
generator, so a run never replays an input.  Operation sizes are
heavy-tailed.  Where no library cache makes the cost of an operation depend
on its predecessors (``fillings``, ``closed_forms``), each block holds a
fixed number of operations per cost class, in proportion to how often the
unconstrained generator draws that class (``perfbench/quotas.py`` measures
it), spread evenly through the block, so that two seeds give lists of
about the same total cost, up to any point where a timed loop stops, and
the run-to-run spread reflects the program, not the draw.
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction
from math import comb
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from schurmzv import checkerboard as CB
from schurmzv import cli as CLI
from schurmzv import evaluate as EV
from schurmzv import mzv as MZ
from schurmzv import ribbons as RB
from schurmzv import shapes as SH
from schurmzv import stuffle as ST
from schurmzv import symbolic as SY
from schurmzv.errors import PreconditionError

Cell = Tuple[int, int]


# ---------------------------------------------------------------------------
# counting and drawing shapes, independent of the library's engines


def int_det(m: List[List[int]]) -> int:
    """Integer determinant by Bareiss elimination."""
    n = len(m)
    if n == 0:
        return 1
    m = [row[:] for row in m]
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for r in range(k + 1, n):
                if m[r][k]:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def fillings_count(lam: Sequence[int], mu: Sequence[int], M: int) -> int:
    """Semistandard fillings of lam/mu with entries in 1..M-1.

    The skew Jacobi-Trudi determinant det(h_{lam_i - mu_j - i + j}) at
    M - 1 unit variables, where h_k(1^{M-1}) = C(M - 2 + k, k).
    """
    if M <= 1:
        return 0 if sum(lam) > sum(mu) else 1
    ell = len(lam)
    mu = tuple(mu) + (0,) * (ell - len(mu))

    def h(k: int) -> int:
        return comb(M - 2 + k, k) if k >= 0 else 0

    return int_det([[h(lam[i] - mu[j] - i + j) for j in range(ell)] for i in range(ell)])


def cells_lam_mu(cells) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """lam/mu of a cell set that forms a skew shape, moved to the top-left."""
    mi = min(i for i, _ in cells)
    mj = min(j for _, j in cells)
    rows: Dict[int, List[int]] = {}
    for i, j in cells:
        rows.setdefault(i - mi + 1, []).append(j - mj + 1)
    lam = tuple(max(rows[i]) for i in sorted(rows))
    mu = tuple(min(rows[i]) - 1 for i in sorted(rows))
    return lam, mu


def ribbon_cells(steps: Sequence[str]) -> List[Cell]:
    cells = [(0, 0)]
    for s in steps:
        i, j = cells[-1]
        cells.append((i - 1, j) if s == RB.UP else (i, j + 1))
    return cells


def random_connected_shape(rng: random.Random, n: int) -> SH.SkewShape:
    """Grow an edge-connected skew shape towards n cells, one cell at a time."""
    cells = {(5, 5)}
    for _ in range(8 * n):
        if len(cells) >= n:
            break
        frontier = sorted(
            {
                nb
                for (i, j) in cells
                for nb in ((i - 1, j), (i + 1, j), (i, j - 1), (i, j + 1))
                if nb not in cells and nb[0] > 0 and nb[1] > 0
            }
        )
        cand = cells | {rng.choice(frontier)}
        try:
            shape = SH.from_cells(cand)
        except PreconditionError:
            continue
        if SH.is_edge_connected(shape):
            cells = cand
    return SH.from_cells(cells)


def random_guide(rng: random.Random, host: SH.SkewShape) -> RB.Ribbon:
    span = SH.content_set(host)
    steps = tuple(rng.choice((RB.UP, RB.RIGHT)) for _ in range(span[-1] - span[0]))
    return RB.anchored_ribbon(span[0], steps)


def line_shape(n: int, column: bool) -> SH.SkewShape:
    return SH.make_skew((1,) * n) if column else SH.make_skew((n,))


def random_partition(rng: random.Random, rows: int, cols: int) -> Tuple[int, ...]:
    parts = sorted((rng.randint(0, cols) for _ in range(rows)), reverse=True)
    return tuple(p for p in parts if p)


def block_quotas(counts: Sequence[int], size: int) -> Tuple[int, ...]:
    """Split ``size`` ops over the classes in proportion to ``counts``.

    Largest remainders: each class gets the floor of its share, and the ops
    left over go to the classes with the largest fractional parts.
    """
    total = sum(counts)
    exact = [size * c / total for c in counts]
    quotas = [int(x) for x in exact]
    by_remainder = sorted(range(len(counts)), key=lambda c: quotas[c] - exact[c])
    for c in by_remainder[: size - sum(quotas)]:
        quotas[c] += 1
    return tuple(quotas)


def stratified_block(
    rng: random.Random,
    quotas: Sequence[int],
    draw: Callable[[random.Random], Tuple[int, object]],
) -> List[object]:
    """One block with ``quotas[c]`` draws of cost class c, classes interleaved.

    ``draw`` returns (cost class, op); draws of a full or unknown class are
    thrown away.  The j-th op of a class with quota q sits at (j + u) / q
    for a random offset u, so every prefix of the block, like the part a
    timed loop ends in, holds each class within two ops of its share.
    """
    need = list(quotas)
    by_class: List[List[object]] = [[] for _ in quotas]
    while any(need):
        cls, op = draw(rng)
        if 0 <= cls < len(need) and need[cls]:
            need[cls] -= 1
            by_class[cls].append(op)
    keyed = []
    for ops in by_class:
        u = rng.random()
        keyed += [((j + u) / len(ops), len(keyed), op) for j, op in enumerate(ops)]
    return [op for _, _, op in sorted(keyed, key=lambda x: x[:2])]


# ---------------------------------------------------------------------------
# fillings: exact Jacobi-Trudi checks, dominated by the filling recursion

FILLINGS_CAP = 400_000  # largest estimated filling count of one op
# Cost classes by estimated fillings, finer at the top, where the time of
# an op grows in proportion to its fillings.
FILLINGS_BOUNDS = (100, 300, 1_000, 3_000, 10_000, 20_000, 30_000, 60_000, 100_000, 200_000, FILLINGS_CAP)
# Draws per class among 20000 unconstrained draws (perfbench/quotas.py);
# the 7.4% of draws above the cap are left out of the workload.
FILLINGS_COUNTS = (3986, 2320, 2950, 1995, 2304, 1178, 733, 1243, 566, 698, 550)
FILLINGS_BLOCK = 200
FILLINGS_QUOTAS = block_quotas(FILLINGS_COUNTS, FILLINGS_BLOCK)


class FillingsOp:
    __slots__ = ("host", "guide", "k", "M")

    def __init__(self, host, guide, k, M):
        self.host, self.guide, self.k, self.M = host, guide, k, M


def fillings_estimate(host: SH.SkewShape, guide: RB.Ribbon, M: int) -> int:
    """Fillings enumerated by one check: host plus each distinct matrix entry."""
    theta = RB.decomposition_from_ribbon(host, guide)
    total = fillings_count(host.lam, host.mu, M)
    steps, c0 = guide.steps, guide.cmin
    spans = {
        (pi.cmin, pj.cmax)
        for pi in theta.pieces
        for pj in theta.pieces
        if pi.cmin <= pj.cmax
    }
    for p, q in spans:
        lam, mu = cells_lam_mu(ribbon_cells(steps[p - c0 : q - c0]))
        total += fillings_count(lam, mu, M)
    return total


def draw_fillings(rng: random.Random) -> Tuple[int, FillingsOp]:
    if rng.random() < 0.15:  # deep: a short row or column at a high level
        host = line_shape(rng.randint(1, 3), rng.random() < 0.5)
        M = rng.randint(64, 256)
    else:
        host = random_connected_shape(rng, rng.randint(1, 8))
        M = rng.randint(6, 12)
    guide = random_guide(rng, host)
    k = SH.diagonal_tableau(host, {c: rng.choice((1, 2, 3)) for c in SH.content_set(host)})
    cost = fillings_estimate(host, guide, M)
    cls = next((c for c, b in enumerate(FILLINGS_BOUNDS) if cost < b), -1)
    return cls, FillingsOp(host, guide, k, M)


def fillings_run(op: FillingsOp):
    theta = RB.decomposition_from_ribbon(op.host, op.guide)
    return EV.jacobi_trudi_check_exact(op.k, theta, op.M)


def fillings_oracle(op: FillingsOp) -> Fraction:
    """The tableau sum through its chain expansion into truncated MZVs."""
    return sum(
        (MZ.truncated_mzv(idx, op.M) * mult for idx, mult in MZ.expand_tableau(op.k.to_tableau()).items()),
        Fraction(0),
    )


# ---------------------------------------------------------------------------
# closed_forms: (1,3) checkerboards in a 6x6 box, two determinant routes

# An op is left out when the two determinants together have 8192 or more
# cofactor-expansion terms (about 4% of the valid draws), as are 7x7 and
# larger boxes, so that no single op dominates a run: those take 0.2-2 s.
CLOSED_CAP = 8192
# Cost classes in factors of sqrt(2) of the predicted time of an op,
# ln t ~ 0.56 ln(det_terms) + 0.069 cells + const.  The fit (residual 0.32
# in ln t) is on 1117 ops timed on a 2-vCPU 2.0 GHz Xeon VM under Python
# 3.11; it only sorts ops into classes.  The top class also takes the rare ops predicted above it.
CLOSED_CLASSES = 19
# Draws per class among the kept ones of 20000 unconstrained draws
# (perfbench/quotas.py).
CLOSED_COUNTS = (0, 1261, 228, 265, 92, 344, 187, 252, 347, 377, 577, 739, 1080, 1217, 1445, 1624, 1404, 1013, 700)
CLOSED_BLOCK = 120
CLOSED_QUOTAS = block_quotas(CLOSED_COUNTS, CLOSED_BLOCK)


class CheckerOp:
    __slots__ = ("k",)

    def __init__(self, k):
        self.k = k


def guide_pieces(cells, right: Callable[[int], bool]) -> List[Tuple[int, int]]:
    """Content spans of the pieces cut by a guide stepping right where right(c)."""
    spans = []
    for i, j in cells:
        if ((i, j - 1) if right(j - i - 1) else (i + 1, j)) in cells:
            continue
        end = (i, j)
        while True:
            nxt = (end[0], end[1] + 1) if right(end[1] - end[0]) else (end[0] - 1, end[1])
            if nxt not in cells:
                break
            end = nxt
        spans.append((j - i, end[1] - end[0]))
    return sorted(spans)


def det_terms(spans: Sequence[Tuple[int, int]]) -> int:
    """Nodes of a cofactor expansion that skips zero entries.

    Entry (i, j) of a ribbon matrix is zero exactly when piece i starts more
    than one diagonal above the end of piece j.
    """
    n = len(spans)
    counts = {0: 1}
    total = 0
    for r in range(n):
        nxt: Dict[int, int] = {}
        for used, c in counts.items():
            for j in range(n):
                if not used >> j & 1 and spans[r][0] <= spans[j][1] + 1:
                    nxt[used | 1 << j] = nxt.get(used | 1 << j, 0) + c
        counts = nxt
        total += sum(counts.values())
    return total


def draw_checkerboard(rng: random.Random) -> Tuple[int, Optional[CheckerOp]]:
    lam = random_partition(rng, 6, 6)
    mu: Tuple[int, ...] = ()
    if lam and rng.random() < 0.5:
        mu = tuple(min(m, l) for m, l in zip(random_partition(rng, len(lam), lam[0]), lam))
        mu = tuple(sorted(mu, reverse=True))
    try:
        shape = SH.make_skew(lam, mu)
    except PreconditionError:
        return -1, None
    if not shape.cells or not SH.is_edge_connected(shape):
        return -1, None
    even = rng.choice((1, 3))
    k = SH.diagonal_tableau(shape, {c: even if c % 2 == 0 else 4 - even for c in SH.content_set(shape)})
    cells = shape.cell_set
    # the stair guide steps right on 1-diagonals; the column guide always steps up
    terms = det_terms(guide_pieces(cells, lambda c: k.value_map.get(c) == 1))
    terms += det_terms(guide_pieces(cells, lambda c: False))
    if terms >= CLOSED_CAP:
        return -1, CheckerOp(k)
    predicted = 0.56 * math.log2(terms) + 0.069 * len(cells) / math.log(2)
    return min(int(2 * predicted), CLOSED_CLASSES - 1), CheckerOp(k)


def closed_run(op: CheckerOp):
    return CB.evaluate_checkerboard_13(op.k).value, CB.evaluate_checkerboard_13_column(op.k)


# ---------------------------------------------------------------------------
# regularize: regularized checks in one interpreter, caches warming up

REG_T = (0.0, 1.0)
REG_TOL = 1e-4


class RegOp:
    __slots__ = ("host", "guide", "k")

    def __init__(self, host, guide, k):
        self.host, self.guide, self.k = host, guide, k


def draw_regularize(rng: random.Random) -> RegOp:
    while True:
        host = random_connected_shape(rng, rng.randint(1, 6))
        k = SH.diagonal_tableau(host, {c: rng.choice((1, 2, 3)) for c in SH.content_set(host)})
        if SH.is_admissible(k.to_tableau()):
            return RegOp(host, random_guide(rng, host), k)


def reg_run(op: RegOp):
    theta = RB.decomposition_from_ribbon(op.host, op.guide)
    return ST.regularized_jt_check(op.k, theta, REG_T)


# ---------------------------------------------------------------------------
# cli: one subprocess per call, a fixed mix of every subcommand

CLI_KINDS = (
    "eval",
    "eval_extrapolate",
    "expand",
    "regularize",
    "decompose",
    "jt-check",
    "jt-check_regularized",
    "mzv",
    "checkerboard_eval",
    "checkerboard_alpha",
    "checkerboard_tessellate",
)


class CliOp:
    """One CLI call: argv after the program name, plus what checks it."""

    __slots__ = ("kind", "argv", "data")

    def __init__(self, kind, argv, data):
        self.kind, self.argv, self.data = kind, argv, data


def _small_tableau(rng, max_cells, M=None, cap=20_000):
    while True:
        shape = random_connected_shape(rng, rng.randint(1, max_cells))
        if M is None or fillings_count(shape.lam, shape.mu, M) <= cap:
            return shape, {c: rng.choice((1, 2, 3)) for c in shape.cells}


def _small_diagonal(rng, max_cells, admissible=False):
    while True:
        shape = random_connected_shape(rng, rng.randint(1, max_cells))
        k = SH.diagonal_tableau(shape, {c: rng.choice((1, 2, 3)) for c in SH.content_set(shape)})
        if not admissible or SH.is_admissible(k.to_tableau()):
            return k


def make_cli_round(rng: random.Random, write: Callable[[str], str]) -> List[CliOp]:
    """One shuffled round of one call per kind; ``write`` stores an input file."""
    batch = []
    for kind in CLI_KINDS:
        if kind in ("eval", "jt-check"):
            M = rng.randint(4, 7)
            if kind == "eval":
                shape, vals = _small_tableau(rng, 7, M)
                batch.append(CliOp(kind, ["eval", "-M", str(M), write(CLI.render_grid(shape, vals))], (shape, vals, M)))
            else:
                while True:
                    k = _small_diagonal(rng, 7)
                    guide = random_guide(rng, k.shape)
                    if fillings_estimate(k.shape, guide, M) <= 20_000:
                        break
                vals = {c: k.value_at(c[1] - c[0]) for c in k.shape.cells}
                argv = ["jt-check", "-M", str(M), "--ribbon", write(CLI.render_grid(guide.shape)),
                        write(CLI.render_grid(k.shape, vals))]
                batch.append(CliOp(kind, argv, (k, guide, M)))
        elif kind == "eval_extrapolate":
            shape, vals = _small_tableau(rng, 4)
            M = rng.randint(4, 6)
            argv = ["eval", "-M", str(M), "--extrapolate", write(CLI.render_grid(shape, vals))]
            batch.append(CliOp(kind, argv, (shape, vals, M)))
        elif kind in ("expand", "regularize"):
            shape, vals = _small_tableau(rng, 9 if kind == "expand" else 5)
            batch.append(CliOp(kind, [kind, write(CLI.render_grid(shape, vals))], (shape, vals)))
        elif kind == "decompose":
            shape = random_connected_shape(rng, rng.randint(1, 9))
            guide = random_guide(rng, shape)
            argv = ["decompose", "--ribbon", write(CLI.render_grid(guide.shape)), write(CLI.render_grid(shape))]
            batch.append(CliOp(kind, argv, (shape, guide)))
        elif kind == "jt-check_regularized":
            k = _small_diagonal(rng, 5, admissible=True)
            guide = random_guide(rng, k.shape)
            vals = {c: k.value_at(c[1] - c[0]) for c in k.shape.cells}
            argv = ["jt-check", "--regularized", "--ribbon", write(CLI.render_grid(guide.shape)),
                    write(CLI.render_grid(k.shape, vals))]
            batch.append(CliOp(kind, argv, (k, guide)))
        elif kind == "mzv":
            depth = rng.randint(1, 4)
            idx = tuple(rng.randint(1, 3) for _ in range(depth - 1)) + (rng.randint(2, 4),)
            batch.append(CliOp(kind, ["mzv", "--index", ",".join(map(str, idx))], idx))
        elif kind == "checkerboard_eval":
            while True:
                _, op = draw_checkerboard(rng)
                if op is not None and op.k.shape.n_cells <= 9:
                    break
            vals = {c: op.k.value_at(c[1] - c[0]) for c in op.k.shape.cells}
            argv = ["checkerboard", "eval", write(CLI.render_grid(op.k.shape, vals))]
            batch.append(CliOp(kind, argv, op.k))
        elif kind == "checkerboard_alpha":
            lo = rng.randint(1, 3)
            hi = rng.randint(lo, 4)
            batch.append(CliOp(kind, ["checkerboard", "alpha", "--n", f"{lo}..{hi}"], (lo, hi)))
        else:
            shape = random_connected_shape(rng, rng.randint(1, 9))
            stair = rng.choice((CB.KIND_A, CB.KIND_B, CB.KIND_S, CB.KIND_SSTAR))
            argv = ["checkerboard", "tessellate", "--kind", stair, write(CLI.render_grid(shape))]
            batch.append(CliOp(kind, argv, (shape, stair)))
    rng.shuffle(batch)
    return batch


def _terms(qs) -> List[Dict[str, object]]:
    return [{"index": list(idx), "coefficient": str(qs.terms[idx])} for idx in sorted(qs.terms)]


def cli_check(op: CliOp, result: dict) -> Optional[str]:
    """Compare a CLI JSON result with the library's value for the same input.

    Returns a description of the first mismatch, or None.
    """
    kind, data = op.kind, op.data
    if kind in ("eval", "eval_extrapolate"):
        shape, vals, M = data
        tab = SH.tableau_from_entries(shape, vals)
        if result["value"] != str(EV.truncated_schur_zeta(tab, M)):
            return "truncated value"
        if kind == "eval_extrapolate":
            combo = MZ.expand_tableau(tab)
            ladder = CLI.DEFAULT_LADDER
            points = [
                (m, sum(mult * MZ.truncated_mzv_float(idx, m) for idx, mult in sorted(combo.items())))
                for m in ladder
            ]
            want = MZ.richardson_extrapolate(points)
            if not math.isclose(result["extrapolated_numeric"], want, rel_tol=1e-12, abs_tol=1e-15):
                return "extrapolated value"
    elif kind == "expand":
        shape, vals = data
        combo = MZ.expand_tableau(SH.tableau_from_entries(shape, vals))
        want = [{"index": list(idx), "multiplicity": combo[idx]} for idx in sorted(combo)]
        if result["terms"] != want:
            return "expansion"
    elif kind == "regularize":
        shape, vals = data
        poly = ST.schur_regularize(SH.tableau_from_entries(shape, vals))
        if result["coefficients"] != [_terms(c) for c in poly.coeffs]:
            return "T-polynomial"
    elif kind == "decompose":
        shape, guide = data
        theta = RB.decomposition_from_ribbon(shape, guide)
        want = [[list(c) for c in p.shape.cells] for p in theta.pieces]
        if [p["cells"] for p in result["pieces"]] != want:
            return "pieces"
    elif kind == "jt-check":
        k, guide, M = data
        lhs = EV.truncated_schur_zeta(k.to_tableau(), M)
        if result["lhs"] != str(lhs) or result["rhs"] != str(lhs) or result["equal"] is not True:
            return "determinant identity"
    elif kind == "jt-check_regularized":
        k, guide = data
        rep = ST.regularized_jt_check(k, RB.decomposition_from_ribbon(k.shape, guide), REG_T)
        if not (result["within_tolerance"] and result["max_discrepancy"] <= REG_TOL):
            return "regularized discrepancy"
        if any(abs(a - b) > 1e-7 for a, b in zip(result["lhs_numeric"], rep.lhs_values)):
            return "regularized values"
    elif kind == "mzv":
        if abs(result["value_numeric"] - MZ.numeric_mzv(data, CLI.DEFAULT_TOLERANCE)) > 1e-7:
            return "numeric value"
    elif kind == "checkerboard_eval":
        if result["symbolic"] != SY.to_json_dict(CB.evaluate_checkerboard_13_column(data)):
            return "closed form"
    elif kind == "checkerboard_alpha":
        lo, hi = data
        if result["alphas"] != [{"n": n, "alpha": str(CB.alpha(n))} for n in range(lo, hi + 1)]:
            return "alpha table"
    else:
        shape, stair = data
        want = False
        for even in (1, 3):
            t = SH.diagonal_tableau(shape, {c: even if c % 2 == 0 else 4 - even for c in SH.content_set(shape)})
            want = want or CB.tessellation_check(t, stair)[0]
        if result["tessellates"] != want:
            return "tessellation"
    return None


def parse_cli_output(stdout: bytes) -> dict:
    return json.loads(stdout.decode("utf-8"))["result"]
