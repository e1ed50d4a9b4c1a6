"""Exact arithmetic for Schur multiple zeta values.

Skew Young diagrams decorated with exponents define nested sums over
semistandard tableaux.  This package evaluates their truncations exactly,
decomposes diagrams into ribbons, verifies the associated determinant
identities, and produces closed forms for checkerboard-stair families.
"""

__version__ = "0.1.0"


def clear_caches() -> None:
    """Empty every module cache (the README lists them) to free memory.

    No cached value changes a result, so calls before and after agree.
    The modules are imported here, not at package import, so ``import
    schurmzv`` stays cheap.
    """
    from . import checkerboard, mzv, ribbons, shapes, stuffle, symbolic

    mzv._numeric_cache.clear()
    stuffle._regularize_cache.clear()
    for memo in (
        shapes._cells,
        shapes.shared_shape,
        shapes._content_set,
        shapes._values,
        shapes._value_map,
        ribbons._ribbon,
        ribbons._walk_shape,
        stuffle.stuffle_product,
        symbolic.bernoulli_number,
        symbolic.z4_power,
        symbolic.z4_star_power,
        checkerboard.closed_form_13,
        checkerboard.zeta_13,
        checkerboard.zeta_3_13,
        checkerboard.reg13_formulas,
    ):
        memo.cache_clear()
