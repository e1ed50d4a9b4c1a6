"""Command-line front end: grid parsing, dispatch, JSON reports.

Every command writes one JSON document ``{"command", "input", "result",
"diagnostics"}`` to stdout, or an indented human-readable account with
``--pretty``.  Exact rationals are serialized as strings ``"p/q"``; floating
point companions live in fields named ``*_numeric``.  The input echo holds
only the flags given.  Commands are pure: the same inputs and flags yield
byte-identical output.

Grid file format (shared by every command that reads a diagram): one line
per row, cells separated by whitespace; ``.`` marks a cell of ``mu`` (a
hole), anything else is a cell of the diagram.  Integer tokens give tableau
entries; any other token (conventionally ``x``) marks an entry-less cell
for the shape-only commands.  Row and column position inside the file fix
each cell's content, so a guiding ribbon should be drawn in the same frame
as its host; if its content range is offset, it is re-anchored onto the
host's diagonals and the shift is reported.

Numbers, in a grid and in every flag, are read by :func:`decimal_int` and
:func:`decimal_float` only, ASCII and finite; a refused value is a
:class:`ParseError` that names the flag, echoed as typed.

Flags: there is no config file.  Each subcommand takes only the flags it
reads, and a flag its chosen mode never reads is refused before any file is
opened: ``eval`` reads ``--ladder`` only with ``--extrapolate``, and
``jt-check`` reads ``-M`` only without ``--regularized``, ``--T`` and
``--check-tol`` only with it.  The filling budget is a fixed guard,
``evaluate.FILLING_CAP`` (10^8 fillings per truncated sum), reported as
``diagnostics.cap`` by ``eval`` and exact ``jt-check``.

Exit codes are the ``exit_code`` of the error types in
:mod:`schurmzv.errors`: 0 success, 2 malformed input, 3 precondition
violation, 4 resource limit.  Exit 4 is a fixed guard that refuses the work
before it starts (the filling budget; the cells of a filling recursion,
``evaluate.CELLS_CAP``; the common denominator's bits,
``evaluate.DENOMINATOR_BITS_CAP``; the last cell's sweep,
``evaluate.SWEEP_BITS_CAP``; the numeric tables, ``mzv.NUMERIC_TABLE_CAP``),
or an exact value with more digits than Python converts an integer to text,
``sys.get_int_max_str_digits()``.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

from .checkerboard import (
    KIND_A,
    KIND_B,
    KIND_S,
    KIND_SSTAR,
    alpha,
    evaluate_checkerboard_13,
    stair_cut,
)
from .errors import ParseError, ResourceLimitError, SchurMzvError
from .evaluate import FILLING_CAP, jacobi_trudi_check_exact, truncated_schur_zeta
from .mzv import (
    expand_tableau,
    numeric_mzv,
    richardson_extrapolate,
    truncated_mzv_float_ladder,
)
from .ribbons import (
    Ribbon,
    anchored_ribbon,
    decomposition_from_ribbon,
    ribbon_matrix,
    ribbon_of,
)
from .shapes import (
    Cell,
    SkewShape,
    Tableau,
    as_diagonal,
    content_set,
    diagonal_tableau,
    from_cells,
    tableau_from_entries,
)
from .stuffle import regularized_jt_check, schur_regularize
from .symbolic import numeric_abs_sum, numeric_value, render, to_json_dict

#: Changes no value; perfbench/workloads.py passes it to numeric_mzv.
DEFAULT_TOLERANCE = 1e-8
DEFAULT_LADDER = (1024, 2048, 4096)
DEFAULT_T_SAMPLES = "0,1"
DEFAULT_CHECK_TOL = 1e-4


# ---------------------------------------------------------------------------
# grid files


def decimal_int(tok: str) -> int:
    """An integer in ASCII decimal digits with an optional sign, else
    ValueError; ``int`` also reads ``1_0``, whitespace and non-ASCII digits."""
    digits = tok[1:] if tok[:1] in ("+", "-") else tok
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"{tok!r} is not a decimal integer")
    return int(tok)


def decimal_float(tok: str) -> float:
    """A finite float in ASCII decimal notation, else ValueError; ``float``
    also reads ``1_0``, whitespace, non-ASCII digits, ``nan``, ``inf`` and
    hex, and reads ``1e400`` as inf."""
    pattern = r"[+-]?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][+-]?[0-9]+)?"
    value = float(tok) if re.fullmatch(pattern, tok) else math.nan
    if not math.isfinite(value):
        raise ValueError(f"{tok!r} is not a finite decimal number")
    return value


N = TypeVar("N", int, float)


def _read(flag: str, text: str, reader: Callable[[str], N]) -> N:
    """One flag value through ``reader``, refused with a ParseError that
    names the flag."""
    try:
        return reader(text)
    except ValueError as exc:
        raise ParseError(f"{flag}: {exc}") from exc


def _read_list(flag: str, text: str, reader: Callable[[str], N]) -> Tuple[N, ...]:
    """A comma-separated flag value, each item through ``reader``."""
    return tuple(_read(flag, item, reader) for item in text.split(","))


def parse_grid(text: str) -> Tuple[SkewShape, Optional[Dict[Cell, int]]]:
    """Read a diagram (and its entries, when integral) from grid text.

    Returns the shape together with a cell-to-entry map, or ``None`` for the
    map when the cells carry non-integer markers.  Mixing markers and
    integers, right-of-cell holes, non-positive entries, and cell sets that
    fail to form a skew diagram are all rejected.
    """
    rows = [line.split() for line in text.splitlines()]
    rows = [r for r in rows if r]
    tokens: Dict[Cell, str] = {}
    for i, row in enumerate(rows, start=1):
        seen_cell = False
        for j, tok in enumerate(row, start=1):
            if tok == ".":
                if seen_cell:
                    raise ParseError(
                        f"row {i}: hole '.' to the right of a cell; "
                        "holes must be left-justified"
                    )
                continue
            seen_cell = True
            tokens[(i, j)] = tok
    if not tokens:
        raise ParseError("grid has no cells")
    try:
        shape = from_cells(tokens)
    except SchurMzvError as exc:
        raise ParseError(str(exc)) from exc

    def as_int(tok: str) -> Optional[int]:
        try:
            return decimal_int(tok)
        except ValueError:
            return None

    values = {cell: as_int(tok) for cell, tok in tokens.items()}
    if all(v is None for v in values.values()):
        return shape, None
    if None in values.values():
        raise ParseError("grid mixes integer entries with bare cell markers")
    for cell, v in values.items():
        if v < 1:
            raise ParseError(f"entry {v} at cell {cell} is not a positive integer")
    return shape, values


def render_grid(shape: SkewShape, entries: Optional[Dict[Cell, int]] = None) -> str:
    """Inverse of :func:`parse_grid`: one line per row, '.' for holes."""
    mu = shape.padded_mu
    lines = []
    for i, lam_i in enumerate(shape.lam, start=1):
        toks = ["."] * mu[i - 1]
        for j in range(mu[i - 1] + 1, lam_i + 1):
            toks.append(str(entries[(i, j)]) if entries else "x")
        lines.append(" ".join(toks))
    return "\n".join(lines) + "\n"


def _load_grid(path: str) -> Tuple[SkewShape, Optional[Dict[Cell, int]], List[str]]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    shape, entries = parse_grid(text)
    echo = [line for line in (ln.strip() for ln in text.splitlines()) if line]
    return shape, entries, echo


def _load_tableau(path: str) -> Tuple[Tableau, List[str]]:
    shape, entries, echo = _load_grid(path)
    if entries is None:
        raise ParseError(f"{path}: this command needs integer entries in every cell")
    return tableau_from_entries(shape, entries), echo


def _load_ribbon(path: str, host: SkewShape) -> Tuple[Ribbon, int]:
    """Read a ribbon grid and re-anchor it onto the host's diagonals."""
    shape, _, _ = _load_grid(path)
    r = ribbon_of(shape)
    host_cmin = content_set(host)[0]
    return anchored_ribbon(host_cmin, r.steps), host_cmin - r.cmin


# ---------------------------------------------------------------------------
# flags


def _ladder(args: argparse.Namespace) -> Tuple[int, ...]:
    """The ``--ladder`` levels, or DEFAULT_LADDER when the flag is absent."""
    if args.ladder is None:
        return DEFAULT_LADDER
    ladder = _read_list("--ladder", args.ladder, decimal_int)
    if any(m < 2 for m in ladder) or sorted(set(ladder)) != list(ladder):
        raise ParseError(f"ladder must be strictly increasing levels >= 2, got {ladder}")
    return ladder


def _t_samples(args: argparse.Namespace) -> Tuple[float, ...]:
    """The ``jt-check --T`` samples, or DEFAULT_T_SAMPLES when the flag is absent."""
    return _read_list("--T", DEFAULT_T_SAMPLES if args.T is None else args.T, decimal_float)


#: Flags a command reads in one mode only: (command, flag, mode flag,
#: whether the flag is read with that mode on).
_MODE_SETTINGS = (
    ("eval", "--ladder", "--extrapolate", True),
    ("jt-check", "-M", "--regularized", False),
    ("jt-check", "--T", "--regularized", True),
    ("jt-check", "--check-tol", "--regularized", True),
)


def _dest(flag: str) -> str:
    return flag.lstrip("-").replace("-", "_")


def check_flags(args: argparse.Namespace) -> None:
    """Refuse flags the chosen mode never reads, and read the numbers of
    ``-M``, ``--check-tol`` and ``checkerboard eval --T`` into ``args``,
    refusing malformed and out-of-range values, before any file is opened;
    ``--ladder`` and ``jt-check --T`` are checked, but left as typed."""
    for command, flag, mode, with_mode in _MODE_SETTINGS:
        if (
            args.command == command
            and getattr(args, _dest(flag)) is not None
            and getattr(args, _dest(mode)) != with_mode
        ):
            raise ParseError(
                f"{command} reads {flag} only "
                f"{'with' if with_mode else 'without'} {mode}"
            )
    if args.command == "eval":
        _ladder(args)
    if args.command == "jt-check":
        _t_samples(args)
    if getattr(args, "M", None) is not None:
        args.M = _read("-M", args.M, decimal_int)
        if args.M < 1:
            raise ParseError(f"-M must be at least 1, got {args.M}")
    if getattr(args, "check_tol", None) is not None:
        args.check_tol = _read("--check-tol", args.check_tol, decimal_float)
        if args.check_tol < 0:
            raise ParseError(f"--check-tol must not be negative, got {args.check_tol}")
    if args.command == "checkerboard" and getattr(args, "T", None) is not None:
        args.T = _read("--T", args.T, decimal_float)


# ---------------------------------------------------------------------------
# serialization helpers


def _frac(q: Fraction) -> str:
    """``q`` as ``"p/q"``; raises :class:`ResourceLimitError` when its
    numerator or denominator has more digits than Python converts to text
    (``sys.get_int_max_str_digits()``, 4300 by default)."""
    try:
        return str(q)
    except ValueError as exc:
        digits = int(math.log10(max(abs(q.numerator), q.denominator))) + 1
        raise ResourceLimitError(
            f"exact value has {digits} digits, more than the limit of "
            f"{sys.get_int_max_str_digits()} for converting an integer to text"
        ) from exc


def _index_terms(terms: Dict[Tuple[int, ...], Fraction]) -> List[Dict[str, object]]:
    out = []
    for idx in sorted(terms):
        out.append({"index": list(idx), "coefficient": _frac(terms[idx])})
    return out


def _shape_dict(shape: SkewShape) -> Dict[str, object]:
    return {"lam": list(shape.lam), "mu": list(shape.mu)}


# ---------------------------------------------------------------------------
# commands


def _cmd_eval(args: argparse.Namespace) -> Tuple[dict, dict, str]:
    tab, echo = _load_tableau(args.tableau)
    value = truncated_schur_zeta(tab, args.M)
    text = _frac(value)
    result: Dict[str, object] = {
        "M": args.M,
        "value": text,
        "value_numeric": float(value),
        "weight": tab.weight,
        "shape": _shape_dict(tab.shape),
    }
    diagnostics: Dict[str, object] = {"cap": FILLING_CAP}
    pretty = [
        f"truncated value at M={args.M}: {text} (~{float(value):.12g})",
        f"shape {tab.shape}, weight {tab.weight}",
    ]
    if args.extrapolate:
        ladder = _ladder(args)
        totals = [0.0] * len(ladder)
        for idx, mult in sorted(expand_tableau(tab).items()):
            values = truncated_mzv_float_ladder(idx, ladder)
            totals = [t + mult * v for t, v in zip(totals, values)]
        accelerated = richardson_extrapolate(list(zip(ladder, totals)))
        result["ladder"] = list(ladder)
        result["extrapolated_numeric"] = accelerated
        pretty.append(
            f"ladder {','.join(str(m) for m in ladder)} "
            f"extrapolates to ~{accelerated:.12g}"
        )
    return result, diagnostics, "\n".join(pretty)


def _cmd_expand(args: argparse.Namespace) -> Tuple[dict, dict, str]:
    tab, _ = _load_tableau(args.tableau)
    combination = expand_tableau(tab)
    terms = [
        {"index": list(idx), "multiplicity": combination[idx]}
        for idx in sorted(combination)
    ]
    result = {"n_terms": len(terms), "terms": terms, "shape": _shape_dict(tab.shape)}
    pretty_terms = " + ".join(
        f"{t['multiplicity']}*z{tuple(t['index'])}" for t in terms
    )
    return result, {}, f"{len(terms)} indices: {pretty_terms}"


def _cmd_regularize(args: argparse.Namespace) -> Tuple[dict, dict, str]:
    tab, _ = _load_tableau(args.tableau)
    coeffs = schur_regularize(tab).coeffs
    result = {
        "degree": len(coeffs) - 1,
        "coefficients": [_index_terms(c.terms) for c in coeffs],
        "shape": _shape_dict(tab.shape),
    }
    chunks = []
    for power, coeff in reversed(tuple(enumerate(coeffs))):
        if not coeff:
            continue
        body = " + ".join(
            f"{c}*z{idx}" for idx, c in sorted(coeff.terms.items())
        )
        suffix = "" if power == 0 else (" * T" if power == 1 else f" * T^{power}")
        chunks.append(f"({body}){suffix}")
    pretty = " + ".join(chunks) if chunks else "0"
    return result, {}, pretty


#: Pretty symbols for the subribbon table's empty and undefined entries.
_TABLE_MARKS = {"empty": "∅", "undefined": "×"}


def _cmd_decompose(args: argparse.Namespace) -> Tuple[dict, dict, str]:
    host, _, _ = _load_grid(args.shape)
    ribbon, shift = _load_ribbon(args.ribbon, host)
    theta = decomposition_from_ribbon(host, ribbon)
    words = ribbon_matrix(theta, lambda p, q, _r: f"[{p},{q}]", "undefined", "empty")
    owner = {
        cell: k
        for k, piece in enumerate(theta.pieces, start=1)
        for cell in piece.shape.cells
    }
    grid = render_grid(host, owner).splitlines()
    result = {
        "host": _shape_dict(host),
        "n_pieces": theta.n_pieces,
        "pieces": [
            {
                "piece": k,
                "contents": [piece.cmin, piece.cmax],
                "cells": [list(cell) for cell in piece.shape.cells],
            }
            for k, piece in enumerate(theta.pieces, start=1)
        ],
        "grid": grid,
        "table": words,
    }
    diagnostics = {"ribbon_shift": shift}
    marks = [[_TABLE_MARKS.get(w, w) for w in row] for row in words]
    width = max(len(m) for row in marks for m in row)
    pretty_lines = ["pieces by cell:"] + ["  " + line for line in grid]
    pretty_lines.append("subribbon table:")
    for row in marks:
        pretty_lines.append("  " + "  ".join(m.rjust(width) for m in row))
    return result, diagnostics, "\n".join(pretty_lines)


def _cmd_jt_check(args: argparse.Namespace) -> Tuple[dict, dict, str]:
    tab, _ = _load_tableau(args.tableau)
    diagonal = as_diagonal(tab)
    ribbon, shift = _load_ribbon(args.ribbon, tab.shape)
    theta = decomposition_from_ribbon(tab.shape, ribbon)
    diagnostics: Dict[str, object] = {"ribbon_shift": shift}
    if args.regularized:
        t_samples = _t_samples(args)
        check_tol = DEFAULT_CHECK_TOL if args.check_tol is None else args.check_tol
        report = regularized_jt_check(diagonal, theta, t_samples)
        within = report.max_discrepancy <= check_tol
        result = {
            "n": len(report.t_samples),
            "t_samples": list(report.t_samples),
            "lhs_numeric": list(report.lhs_values),
            "det_numeric": list(report.det_values),
            "max_discrepancy": report.max_discrepancy,
            "det_t_spread": report.det_t_spread,
            "admissible": report.admissible,
            "lhs_degree": report.lhs_degree,
            "within_tolerance": within,
        }
        diagnostics["comparison_tolerance"] = check_tol
        pretty = (
            f"regularized check at T in {list(report.t_samples)}: "
            f"max discrepancy {report.max_discrepancy:.3e} "
            f"({'within' if within else 'ABOVE'} {check_tol}), "
            f"determinant spread {report.det_t_spread:.3e}, "
            f"admissible={report.admissible}"
        )
        return result, diagnostics, pretty
    if args.M is None:
        raise ParseError("jt-check needs -M unless --regularized is given")
    report_exact = jacobi_trudi_check_exact(diagonal, theta, args.M)
    result = {
        "M": args.M,
        "n": report_exact.n,
        "lhs": _frac(report_exact.lhs),
        "rhs": _frac(report_exact.rhs),
        "equal": report_exact.equal,
    }
    diagnostics["cap"] = FILLING_CAP
    pretty = (
        f"M={args.M}: lhs {result['lhs']} "
        f"{'==' if report_exact.equal else '!='} det {result['rhs']} "
        f"({report_exact.n}x{report_exact.n})"
    )
    return result, diagnostics, pretty


def _kind_list(kinds) -> List[Dict[str, object]]:
    return [{"kind": k.kind, "a": k.a, "b": k.b, "n": k.n} for k in kinds]


def _cmd_checkerboard_eval(args: argparse.Namespace) -> Tuple[dict, dict, str]:
    tab, _ = _load_tableau(args.tableau)
    report = evaluate_checkerboard_13(as_diagonal(tab))
    display = report.display_matrix
    t_value = 0.0 if args.T is None else args.T
    numeric = numeric_value(report.value, t_value=t_value)
    result = {
        "symbolic": to_json_dict(report.value),
        "rendered": render(report.value),
        "weight": report.weight,
        "admissible": report.admissible,
        "tessellated": report.tessellated,
        "pieces": _kind_list(report.pieces),
        "prefactor": _frac(report.prefactor),
        "display_matrix": [[render(e) for e in row] for row in display],
        "value_numeric": numeric,
    }
    diagnostics = {
        "t_value_numeric": t_value,
        "value_numeric_abs_sum": numeric_abs_sum(report.value, t_value=t_value),
    }
    pretty_lines = [
        f"value = {render(report.value)}",
        f"      ~ {numeric:.12g}"
        + ("" if report.admissible else f"  (at T={t_value:g})"),
        f"weight {report.weight}, admissible={report.admissible}, "
        f"tessellated={report.tessellated}",
        "pieces: " + ", ".join(f"{k.kind}(n={k.n})" for k in report.pieces),
        f"determinant = {result['prefactor']} * det of:",
    ]
    for row in display:
        pretty_lines.append("  [ " + " | ".join(render(e) for e in row) + " ]")
    return result, diagnostics, "\n".join(pretty_lines)


def _parse_n_range(text: str) -> List[int]:
    try:
        lo_s, dots, hi_s = text.partition("..")
        lo, hi = decimal_int(lo_s), decimal_int(hi_s if dots else lo_s)
    except ValueError as exc:
        raise ParseError(f"--n expects N or LO..HI, got {text!r}") from exc
    if lo < 1 or hi < lo:
        raise ParseError(f"--n range must satisfy 1 <= lo <= hi, got {text!r}")
    return list(range(lo, hi + 1))


def _cmd_checkerboard_alpha(args: argparse.Namespace) -> Tuple[dict, dict, str]:
    ns = _parse_n_range(args.n)
    rows = [{"n": n, "alpha": _frac(alpha(n))} for n in ns]
    result = {"alphas": rows}
    pretty = "\n".join(f"alpha({row['n']}) = {row['alpha']}" for row in rows)
    return result, {}, pretty


def _cmd_checkerboard_tessellate(args: argparse.Namespace) -> Tuple[dict, dict, str]:
    shape, entries, _ = _load_grid(args.shape)
    if entries is None:
        candidates = []
        for even in (1, 3):
            values = {c: 4 - even if c % 2 else even for c in content_set(shape)}
            candidates.append((even, diagonal_tableau(shape, values)))
    else:
        candidates = [(None, as_diagonal(tableau_from_entries(shape, entries)))]
    attempts = []
    for even_value, t in candidates:
        theta, kinds = stair_cut(t)
        attempts.append(
            {
                "even_content_value": even_value,
                "tessellates": all(sk.kind == args.kind for sk in kinds),
                "n_pieces": theta.n_pieces,
                "pieces": _kind_list(kinds),
            }
        )
    overall = any(att["tessellates"] for att in attempts)
    result = {"kind": args.kind, "tessellates": overall, "attempts": attempts}
    pretty_lines = [f"kind {args.kind}: tessellates={overall}"]
    for att in attempts:
        phase = (
            ""
            if att["even_content_value"] is None
            else f" (even diagonals = {att['even_content_value']})"
        )
        pieces = ", ".join(f"{p['kind']}(n={p['n']})" for p in att["pieces"])
        pretty_lines.append(
            f"  {'yes' if att['tessellates'] else 'no'}{phase}: pieces {pieces}"
        )
    return result, {}, "\n".join(pretty_lines)


def _cmd_mzv(args: argparse.Namespace) -> Tuple[dict, dict, str]:
    idx = _read_list("--index", args.index, decimal_int)
    value = numeric_mzv(idx)
    result = {"index": list(idx), "value_numeric": value}
    return result, {}, f"z{idx} ~ {value:.12g}"


# ---------------------------------------------------------------------------
# parser and dispatch


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--pretty", action="store_true", help="human-readable output")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="schurmzv",
        description="Exact and closed-form Schur multiple zeta computations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="exact truncated value of a tableau")
    p.add_argument("-M", required=True, help="truncation level")
    p.add_argument("--extrapolate", action="store_true",
                   help="also report a Richardson estimate over the ladder")
    p.add_argument("--ladder", help="comma-separated truncation levels for "
                                    "--extrapolate (default "
                                    f"{','.join(map(str, DEFAULT_LADDER))})")
    p.add_argument("tableau", help="tableau grid file")
    _add_common(p)
    p.set_defaults(handler=_cmd_eval)

    p = sub.add_parser("expand", help="indices and multiplicities of a tableau sum")
    p.add_argument("tableau", help="tableau grid file")
    _add_common(p)
    p.set_defaults(handler=_cmd_expand)

    p = sub.add_parser("regularize", help="T-polynomial of a tableau")
    p.add_argument("tableau", help="tableau grid file")
    _add_common(p)
    p.set_defaults(handler=_cmd_regularize)

    p = sub.add_parser("decompose", help="cut a host shape along a ribbon")
    p.add_argument("--ribbon", required=True, help="ribbon grid file")
    p.add_argument("shape", help="host grid file (entries optional)")
    _add_common(p)
    p.set_defaults(handler=_cmd_decompose)

    p = sub.add_parser("jt-check", help="determinant identity at one truncation")
    p.add_argument("-M", help="truncation level (exact mode)")
    p.add_argument("--ribbon", required=True, help="ribbon grid file")
    p.add_argument("--regularized", action="store_true",
                   help="compare regularized values instead of exact truncations")
    p.add_argument("--T", help="comma-separated T samples for --regularized "
                               f"(default {DEFAULT_T_SAMPLES})")
    p.add_argument("--check-tol",
                   help="acceptance threshold for --regularized discrepancies "
                        f"(default {DEFAULT_CHECK_TOL:g})")
    p.add_argument("tableau", help="diagonal-constant tableau grid file")
    _add_common(p)
    p.set_defaults(handler=_cmd_jt_check)

    p = sub.add_parser("mzv", help="numeric multiple zeta value")
    p.add_argument("--index", required=True, help="comma-separated exponents")
    _add_common(p)
    p.set_defaults(handler=_cmd_mzv)

    p = sub.add_parser("checkerboard", help="two-valued diagonal tableaux")
    csub = p.add_subparsers(dest="subcommand", required=True)

    c = csub.add_parser("eval", help="closed-form value of a {1,3} checkerboard")
    c.add_argument("--T", help="T value for the numeric companion (default 0)")
    c.add_argument("tableau", help="tableau grid file")
    _add_common(c)
    c.set_defaults(handler=_cmd_checkerboard_eval)

    c = csub.add_parser("alpha", help="exact ratio constants")
    c.add_argument("--n", required=True, help="index N or range LO..HI")
    _add_common(c)
    c.set_defaults(handler=_cmd_checkerboard_alpha)

    c = csub.add_parser("tessellate", help="pure-stair tessellation test")
    c.add_argument("--kind", required=True,
                   choices=[KIND_A, KIND_B, KIND_S, KIND_SSTAR])
    c.add_argument("shape", help="grid file (entries optional; both "
                                 "colourings are tried when absent)")
    _add_common(c)
    c.set_defaults(handler=_cmd_checkerboard_tessellate)

    return parser


def _input_echo(args: argparse.Namespace) -> Dict[str, object]:
    skip = {"handler", "command", "subcommand", "pretty"}
    echo: Dict[str, object] = {}
    for key, value in sorted(vars(args).items()):
        if key not in skip and value is not None and value is not False:
            echo[key] = value
    return echo


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    command = args.command + (
        f" {args.subcommand}" if getattr(args, "subcommand", None) else ""
    )
    try:
        check_flags(args)
        result, diagnostics, pretty = args.handler(args)
    except SchurMzvError as exc:
        payload = {
            "command": command,
            "input": _input_echo(args),
            "error": {"type": type(exc).__name__, "message": str(exc)},
        }
        print(json.dumps(payload, indent=2))
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    payload = {
        "command": command,
        "input": _input_echo(args),
        "result": result,
        "diagnostics": diagnostics,
    }
    if args.pretty:
        print(pretty)
    else:
        print(json.dumps(payload, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
