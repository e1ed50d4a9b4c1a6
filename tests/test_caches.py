"""``schurmzv.clear_caches`` empties every module cache.

The caches are found by scanning the package, not by name: each
``lru_cache`` defined in a module and each module-level ``_*_cache`` dict.
So a cache added later without a line in ``clear_caches`` fails here.
"""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import schurmzv
from schurmzv import mzv, stuffle
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


def test_package_import_loads_no_module():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    code = "import sys, schurmzv; print(*[m for m in sys.modules if m.startswith('schurmzv.')])"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []
