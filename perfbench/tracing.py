"""Spans around the public functions of each schurmzv module.

The tracer replaces a function by a wrapper that records one span per call:
``[id, parent id, name, start, end, attrs]``.  Because ``from .x import f``
copies the binding, the wrapper is bound under every name, in every loaded
``schurmzv`` module, that held the original function; ``uninstall`` puts the
originals back.  Spans stay in memory until the caller writes them out.

Self time is a span's duration minus the durations of its direct children;
the calls are single-threaded, so children never overlap.
"""

from __future__ import annotations

import sys
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

LAYERS = ("shapes", "ribbons", "evaluate", "mzv", "stuffle", "symbolic", "checkerboard", "cli")


def _fillings_attrs(args, kwargs, out):
    k = args[0] if args else kwargs["k"]
    M = args[1] if len(args) > 1 else kwargs["M"]
    return [list(k.shape.lam), list(k.shape.mu), M]


def _expand_attrs(args, kwargs, out):
    return len(out)


def _det_attrs(args, kwargs, out):
    rows = args[0] if args else kwargs["rows"]
    return [len(rows), len(out.terms)]


# (module, function, attrs taken from (args, kwargs, result) after the call)
TARGETS: Tuple[Tuple[str, str, Optional[Callable]], ...] = (
    ("shapes", "make_skew", None),
    ("shapes", "from_cells", None),
    ("shapes", "content_set", None),
    ("shapes", "corners", None),
    ("shapes", "is_edge_connected", None),
    ("shapes", "tableau_from_entries", None),
    ("shapes", "diagonal_tableau", None),
    ("shapes", "as_diagonal", None),
    ("shapes", "is_admissible", None),
    ("shapes", "translation_equivalent", None),
    ("ribbons", "anchored_ribbon", None),
    ("ribbons", "decomposition_from_ribbon", None),
    ("ribbons", "minimal_containing_ribbon", None),
    ("ribbons", "subribbon_table", None),
    ("ribbons", "fill_subribbon", None),
    ("evaluate", "truncated_schur_zeta", _fillings_attrs),
    ("evaluate", "det_fraction", None),
    ("evaluate", "jacobi_trudi_check_exact", None),
    ("mzv", "expand_tableau", _expand_attrs),
    ("mzv", "numeric_mzv", None),
    ("mzv", "truncated_mzv_float", None),
    ("mzv", "richardson_extrapolate", None),
    ("stuffle", "regularize", None),
    ("stuffle", "schur_regularize", None),
    ("stuffle", "eval_tpoly", None),
    ("stuffle", "regularized_jt_check", None),
    ("symbolic", "sym_det", _det_attrs),
    ("symbolic", "numeric_value", None),
    ("symbolic", "render", None),
    ("checkerboard", "closed_form_13", None),
    ("checkerboard", "evaluate_checkerboard_13", None),
    ("checkerboard", "evaluate_checkerboard_13_column", None),
    ("checkerboard", "tessellation_check", None),
    ("checkerboard", "alpha", None),
    ("cli", "main", None),
)


class Tracer:
    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._rebound: List[Tuple[object, str, object]] = []

    def wrap(self, name: str, fn: Callable, attrs: Optional[Callable] = None) -> Callable:
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            rec = [len(spans), stack[-1] if stack else -1, name, 0.0, 0.0, None]
            spans.append(rec)
            stack.append(rec[0])
            rec[3] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[4] = perf_counter()
                stack.pop()
            if attrs is not None:
                rec[5] = attrs(args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def span(self, name: str, fn: Callable, *args):
        """Run fn(*args) inside a span of its own (the benchmark's op span)."""
        return self.wrap(name, fn)(*args)

    def install(self) -> None:
        """Rebind every loaded binding of each of TARGETS to its wrapper."""
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == "schurmzv" or n.startswith("schurmzv."))
        ]
        for mod_name, fn_name, attrs in TARGETS:
            home = sys.modules.get(f"schurmzv.{mod_name}")
            if home is None:
                continue
            orig = getattr(home, fn_name)
            wrapper = self.wrap(f"{mod_name}.{fn_name}", orig, attrs)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, key, wrapper)
                        self._rebound.append((m, key, orig))

    def uninstall(self) -> None:
        for m, key, orig in reversed(self._rebound):
            setattr(m, key, orig)
        self._rebound.clear()


def self_times(spans: Sequence[list]) -> List[float]:
    """Per span: duration minus the durations of its direct children."""
    out = [s[4] - s[3] for s in spans]
    for s in spans:
        if s[1] >= 0:
            out[s[1]] -= s[4] - s[3]
    return out


def busy_time(spans: Sequence[list], names: Callable[[str], bool]) -> float:
    """Time covered by spans whose name matches, counting nested ones once."""
    total = 0.0
    for s in spans:
        if not names(s[2]):
            continue
        p = s[1]
        while p >= 0 and not names(spans[p][2]):
            p = spans[p][1]
        if p < 0:
            total += s[4] - s[3]
    return total


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def summarize(span_sets: Sequence[Sequence[list]], fillings: Callable) -> Dict[str, float]:
    """Per-layer metrics of several independent span trees (one per process).

    ``fillings(lam, mu, M)`` counts the fillings of one truncated-sum call.
    """
    calls: Dict[str, int] = {}
    self_s: Dict[str, float] = {}
    layer_self = {layer: 0.0 for layer in LAYERS}
    busy: Dict[str, float] = {"decompose": 0.0, "table": 0.0, "shapes": 0.0}
    n_fill = n_idx = det_terms = det_max = 0
    for spans in span_sets:
        st = self_times(spans)
        for s, own in zip(spans, st):
            name = s[2]
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + own
            if layer_of(name) in layer_self:
                layer_self[layer_of(name)] += own
            if name == "evaluate.truncated_schur_zeta":
                n_fill += fillings(*s[5])
            elif name == "mzv.expand_tableau":
                n_idx += s[5]
            elif name == "symbolic.sym_det":
                det_max = max(det_max, s[5][0])
                det_terms += s[5][1]
        busy["decompose"] += busy_time(spans, lambda n: n == "ribbons.decomposition_from_ribbon")
        busy["table"] += busy_time(spans, lambda n: n == "ribbons.subribbon_table")
        busy["shapes"] += busy_time(spans, lambda n: n.startswith("shapes."))

    def c(name):
        return calls.get(name, 0)

    def t(name):
        return self_s.get(name, 0.0)

    out = {
        "evaluate.truncated.calls": c("evaluate.truncated_schur_zeta"),
        "evaluate.truncated.self_s": t("evaluate.truncated_schur_zeta"),
        "evaluate.det.self_s": t("evaluate.det_fraction"),
        "evaluate.fillings": n_fill,
        "ribbons.decompose.busy_s": busy["decompose"],
        "ribbons.table.busy_s": busy["table"],
        "ribbons.fill.calls": c("ribbons.fill_subribbon"),
        "shapes.busy_s": busy["shapes"],
        "symbolic.det.calls": c("symbolic.sym_det"),
        "symbolic.det.self_s": t("symbolic.sym_det"),
        "symbolic.det.max_n": det_max,
        "symbolic.det.output_terms": det_terms,
        "checkerboard.closed_form.self_s": t("checkerboard.closed_form_13"),
        "checkerboard.eval.self_s": t("checkerboard.evaluate_checkerboard_13"),
        "checkerboard.column.self_s": t("checkerboard.evaluate_checkerboard_13_column"),
        "mzv.expand.self_s": t("mzv.expand_tableau"),
        "mzv.expand.indices": n_idx,
        "mzv.numeric.calls": c("mzv.numeric_mzv"),
        "mzv.numeric.self_s": t("mzv.numeric_mzv"),
        "stuffle.regularize.self_s": t("stuffle.regularize"),
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = layer_self[layer]
    return out


def cache_sizes() -> Dict[str, int]:
    """Sizes of the library's module-level caches, with stuffle hit counts."""
    from schurmzv import mzv, stuffle

    info = stuffle.stuffle_product.cache_info()
    return {
        "mzv.numeric.cache_entries": len(mzv._numeric_cache),
        "stuffle.regularize.cache_entries": len(stuffle._regularize_cache),
        "stuffle.product.cache_entries": info.currsize,
        "stuffle.product.hits": info.hits,
        "stuffle.product.misses": info.misses,
    }
