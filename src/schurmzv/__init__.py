"""Exact arithmetic for Schur multiple zeta values.

Skew Young diagrams decorated with exponents define nested sums over
semistandard tableaux.  This package evaluates their truncations exactly,
decomposes diagrams into ribbons, verifies the associated determinant
identities, and produces closed forms for checkerboard-stair families.
"""

import sys

__version__ = "0.1.0"


def clear_caches() -> None:
    """Empty every module cache to free memory: each ``lru_cache`` and
    interned record class that a loaded ``schurmzv`` module defines, and
    each module-level ``_*_cache`` dict (the README lists them).

    No cached value changes a result, so calls before and after agree.  A
    module not yet imported has nothing cached, so none is imported here,
    and ``import schurmzv`` stays cheap.
    """
    for name, module in list(sys.modules.items()):
        if not name.startswith(__name__ + "."):
            continue
        for key, obj in vars(module).items():
            if hasattr(obj, "cache_clear") and getattr(obj, "__module__", None) == name:
                obj.cache_clear()
            elif key.startswith("_") and key.endswith("_cache") and isinstance(obj, dict):
                obj.clear()
