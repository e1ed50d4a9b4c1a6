"""``schurmzv.clear_caches`` empties every module cache.

The caches are found by scanning the package, not by name: each
``lru_cache`` defined in a module and each module-level ``_*_cache`` dict.
An interned record class counts as one: it answers ``cache_info`` and
``cache_clear`` with its instance memo.  ``clear_caches`` finds them by the
same rule in the loaded modules, so a cache added later is cleared without
a line of its own; the inventory of 13 here changes only with a new cache.
"""

import functools
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import schurmzv
from schurmzv import mzv, record, ribbons, shapes, stuffle
from schurmzv.checkerboard import evaluate_checkerboard_13, evaluate_checkerboard_13_column
from schurmzv.shapes import diagonal_tableau, make_skew

SRC = Path(__file__).resolve().parent.parent / "src"


def cache_sizes():
    """Entries in each module cache, by qualified name."""
    sizes = {}
    for info in pkgutil.iter_modules(schurmzv.__path__):
        mod = importlib.import_module(f"schurmzv.{info.name}")
        for name, obj in vars(mod).items():
            if hasattr(obj, "cache_info") and obj.__module__ == mod.__name__:
                sizes[f"{mod.__name__}.{name}"] = obj.cache_info().currsize
            elif name.startswith("_") and name.endswith("_cache") and isinstance(obj, dict):
                sizes[f"{mod.__name__}.{name}"] = len(obj)
    return sizes


def warm():
    square = diagonal_tableau(make_skew((3, 3, 3)), {c: 3 if c % 2 == 0 else 1 for c in range(-2, 3)})
    assert square.value_map[0] == 3 and square.to_tableau().weight == 19
    assert ribbons.ribbon_of(make_skew((2, 1))).shape == make_skew((2, 1))
    assert evaluate_checkerboard_13(square).value == evaluate_checkerboard_13_column(square)
    stuffle.regularize((2, 1))
    mzv.numeric_mzv((1, 2))


def test_clear_caches_empties_every_cache():
    schurmzv.clear_caches()
    warm()
    before = cache_sizes()
    assert len(before) == 13 and all(before.values()), before
    schurmzv.clear_caches()
    assert set(cache_sizes().values()) == {0}
    warm()
    assert cache_sizes() == before


def test_clear_caches_finds_a_new_cache(monkeypatch):
    @functools.lru_cache(maxsize=None)
    def probe(n):
        return n

    probe.__module__ = shapes.__name__
    monkeypatch.setattr(shapes, "_probe", probe, raising=False)
    monkeypatch.setattr(shapes, "_probe_cache", {}, raising=False)
    probe(1)
    shapes._probe_cache[1] = 1
    schurmzv.clear_caches()
    assert probe.cache_info().currsize == 0
    assert shapes._probe_cache == {}


def test_value_memos_are_bounded():
    """The memos of the interned shapes, ribbons and diagonal tableaux hold
    at most ``MEMO_SIZE`` instances, least recently used dropped first."""
    schurmzv.clear_caches()
    for n in range(2 * record.MEMO_SIZE):
        shape = make_skew((n + 1,), (n,))
        assert shapes.content_set(shape) == (n,)
        assert diagonal_tableau(shape, {n: n + 1}).value_map == {n: n + 1}
        assert ribbons.anchored_ribbon(n, ()).shape.n_cells == 1
    memos = (shapes.SkewShape, shapes.DiagonalTableau, ribbons.Ribbon)
    for memo in memos:
        assert memo.cache_info().currsize == record.MEMO_SIZE, memo
    schurmzv.clear_caches()
    assert all(memo.cache_info().currsize == 0 for memo in memos)


def test_package_import_loads_no_module():
    """Neither ``import schurmzv`` nor ``clear_caches`` loads a submodule."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    code = (
        "import sys, schurmzv; schurmzv.clear_caches(); "
        "print(*[m for m in sys.modules if m.startswith('schurmzv.')])"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []
