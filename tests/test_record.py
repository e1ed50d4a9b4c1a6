"""Every value and report type is a ``Record`` with frozen-dataclass semantics.

One sample instance per class, with the field names in declaration order,
pins construction, equality, hashing, repr and frozenness.  The trusted
constructor ``_make`` is checked against the public one on random values,
and the determinant routes are checked to build every derived value with
it, so that no value is checked twice.
"""

import copy
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from schurmzv.checkerboard import (
    CheckerboardReport,
    StairKind,
    evaluate_checkerboard_13,
    stair_cut,
    stair_tableau,
)
from schurmzv.errors import PreconditionError
from schurmzv.evaluate import JTReport, jacobi_trudi_check_exact
from schurmzv.record import Interned, Record
from schurmzv.ribbons import (
    RIGHT,
    UP,
    OutsideDecomposition,
    Ribbon,
    SubribbonEntry,
    SubribbonStatus,
    SubribbonTable,
    anchored_ribbon,
    decomposition_from_ribbon,
    fill_ribbon,
    ribbon_of,
    subribbon_of,
    subribbon_table,
)
from schurmzv.shapes import (
    DiagonalTableau,
    SkewShape,
    Tableau,
    content_set,
    diagonal_tableau,
    make_skew,
)
from schurmzv.stuffle import RegJTReport, regularized_jt_check

from test_shapes import skew_shapes

HOOK = make_skew((2, 1))
THETA = decomposition_from_ribbon(HOOK, anchored_ribbon(-1, ("U", "R")))
SQUARE = make_skew((2, 2))

SAMPLES = {
    SkewShape: (("lam", "mu"), HOOK),
    Tableau: (("shape", "rows"), Tableau(HOOK, ((1, 2), (3,)))),
    DiagonalTableau: (("shape", "values"), diagonal_tableau(HOOK, {-1: 1, 0: 2, 1: 3})),
    Ribbon: (("start", "steps"), ribbon_of(HOOK)),
    OutsideDecomposition: (("host", "guide"), THETA),
    SubribbonEntry: (("status", "ribbon"), SubribbonEntry(SubribbonStatus.DEFINED, ribbon_of(HOOK))),
    SubribbonTable: (("ribbon", "entries"), subribbon_table(THETA)),
    JTReport: (("lhs", "rhs", "n"), JTReport(Fraction(1, 2), Fraction(1, 2), 1)),
    RegJTReport: (
        ("t_samples", "lhs_values", "det_values", "max_discrepancy", "admissible",
         "det_t_spread", "lhs_degree"),
        RegJTReport((0.0, 1.0), (0.5, 1.5), (0.5, 1.5), 0.0, False, 1.0, 1),
    ),
    StairKind: (("kind", "a", "b", "n"), StairKind("A", 1, 3, 2)),
    CheckerboardReport: (
        ("value", "weight", "admissible", "decomposition", "pieces",
         "tessellated", "matrix"),
        evaluate_checkerboard_13(diagonal_tableau(SQUARE, {-1: 1, 0: 3, 1: 1})),
    ),
}


def test_every_record_class_is_sampled():
    ours = {c for c in Record.__subclasses__() if c.__module__.startswith("schurmzv.")}
    assert ours == set(SAMPLES)


@pytest.mark.parametrize("cls", list(SAMPLES), ids=lambda c: c.__name__)
def test_record_parity(cls):
    names, x = SAMPLES[cls]
    values = tuple(getattr(x, f) for f in names)
    assert type(x) is cls

    # construction: positional and keyword, fields stored in order
    for y in (cls(*values), cls(**dict(zip(names, values)))):
        assert y == x and not (y != x)
        assert y._fields == names == y.__slots__[: len(names)]
        assert not hasattr(y, "__dict__")

    # hashing: hash of the field tuple, or TypeError for an unhashable field
    try:
        expected = hash(values)
    except TypeError:
        with pytest.raises(TypeError):
            hash(x)
    else:
        assert hash(x) == expected

    # equality only between instances of one class
    twin = type("Twin", (Record,), {"__annotations__": dict.fromkeys(names, "object")})
    assert twin(*values) != x and x != twin(*values)
    assert x != values

    # repr, unless the class writes its own
    if "__repr__" not in vars(cls):
        shown = ", ".join(f"{f}={v!r}" for f, v in zip(names, values))
        assert repr(x) == f"{cls.__qualname__}({shown})"

    # frozen
    for name in (names[0], "extra"):
        with pytest.raises(AttributeError):
            setattr(x, name, values[0])
    with pytest.raises(AttributeError):
        delattr(x, names[0])
    assert tuple(getattr(x, f) for f in names) == values

    # copies and pickles go through the class call: an interned value
    # comes back as the instance in its memo
    for y in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
        assert y == x and (y is cls(*values)) == (type(cls) is Interned)

    # bad calls
    with pytest.raises(TypeError):
        cls(*values, values[0])
    with pytest.raises(TypeError):
        cls(*values[:-1], **{names[-1]: values[-1], "extra": 1})
    with pytest.raises(TypeError):
        cls(*values, **{names[0]: values[0]})


def test_repr_and_defaults():
    assert repr(StairKind("A", 1, 3, 2)) == "StairKind(kind='A', a=1, b=3, n=2)"
    assert repr(make_skew((2, 1))) == "SkewShape(lam=(2, 1), mu=())"
    assert SubribbonEntry(SubribbonStatus.EMPTY).ribbon is None
    assert SubribbonEntry(status=SubribbonStatus.EMPTY) == SubribbonEntry(SubribbonStatus.EMPTY, None)
    with pytest.raises(TypeError):
        StairKind("A", 1, 3)


@pytest.mark.parametrize(
    "build",
    [
        lambda: Tableau(HOOK, ((1, 2), (3, 4))),
        lambda: Tableau(HOOK, ((1, 0), (3,))),
        lambda: Ribbon((1, 1), ("U",)),
        lambda: OutsideDecomposition(SQUARE, anchored_ribbon(0, ())),
        lambda: StairKind("C", 1, 3, 2),
        lambda: StairKind("A", 0, 3, 2),
        lambda: StairKind(kind="A", a=1, b=3, n=-1),
        lambda: SubribbonEntry(SubribbonStatus.EMPTY, ribbon_of(HOOK)),
        lambda: DiagonalTableau(HOOK, (2, 3)),
    ],
)
def test_post_init_checks_still_run(build):
    with pytest.raises(PreconditionError):
        build()


def test_cached_properties_and_walk_built_ribbons():
    shape = make_skew((3, 2), (1,))
    assert shape.cells == ((1, 2), (1, 3), (2, 1), (2, 2))
    # cells is built on each read: no instance keeps a copy
    assert "cells" not in SkewShape.__slots__
    assert SkewShape((3, 2), (1,)) is shape
    r =anchored_ribbon(0, ("R", "U", "R"))
    assert r == ribbon_of(r.shape) and hash(r) == hash(ribbon_of(r.shape))
    assert r.steps == ribbon_of(r.shape).steps


walks = st.tuples(st.integers(-6, 6), st.lists(st.sampled_from("UR"), max_size=9).map(tuple))


@given(skew_shapes(), walks, st.data())
def test_make_is_the_public_constructor(shape, walk, data):
    """``_make`` on validated fields gives what the class call gives: the
    same instance for the three interned classes, an equal value for a
    tableau, on every route that uses it."""
    assert SkewShape._make(shape.lam, shape.mu) is shape is SkewShape(shape.lam, shape.mu)
    assert make_skew(shape.lam, shape.mu) is shape

    r = anchored_ribbon(*walk)
    assert Ribbon._make(r.start, r.steps) is r is Ribbon(list(r.start), list(r.steps))
    assert ribbon_of(r.shape) is r

    values = tuple(data.draw(st.integers(1, 4)) for _ in content_set(shape))
    k = DiagonalTableau._make(shape, values)
    assert k is DiagonalTableau(shape, list(values))
    assert k is diagonal_tableau(shape, dict(zip(content_set(shape), values)))
    t = k.to_tableau()
    assert t == Tableau(shape, t.rows)

    big = diagonal_tableau(r.shape, {c: 1 + c % 3 for c in content_set(r.shape)})
    p = data.draw(st.integers(r.cmin, r.cmax))
    q = data.draw(st.integers(p, r.cmax))
    sub = subribbon_of(r, p, q)
    assert sub is Ribbon(list(sub.start), list(sub.steps))
    filled = fill_ribbon(big, sub)
    assert filled == Tableau(sub.shape, filled.rows)
    sliced = big.values[p - r.cmin : q - r.cmin + 1]
    assert filled == DiagonalTableau(sub.shape, sliced).to_tableau()

    kind = StairKind(data.draw(st.sampled_from("ABS")), 1, 3, data.draw(st.integers(1, 4)))
    stair = stair_tableau(kind)
    assert stair is DiagonalTableau(stair.shape, stair.values)

    # the guide of a decomposition is re-anchored furthest left
    shifted = Ribbon((r.start[0] + 2, r.start[1] + 2), r.steps)
    guide = decomposition_from_ribbon(shifted.shape, shifted).guide
    assert guide is anchored_ribbon(shifted.cmin, shifted.steps) is r

    # the stair kinds of a checkerboard's pieces
    board = diagonal_tableau(r.shape, {c: 3 if c % 2 else 1 for c in content_set(r.shape)})
    kinds = stair_cut(board)[1]
    assert kinds == tuple(StairKind(k.kind, k.a, k.b, k.n) for k in kinds)


JT_HOST = make_skew((3, 3, 3))
JT_TABLEAU = diagonal_tableau(JT_HOST, {c: 1 if c % 2 else 3 for c in content_set(JT_HOST)})
JT_THETA = decomposition_from_ribbon(JT_HOST, anchored_ribbon(-2, (UP, RIGHT, UP, RIGHT)))
SQUARE_5 = make_skew((5,) * 5)
SQUARE_13 = diagonal_tableau(SQUARE_5, {c: 1 if c % 2 else 3 for c in content_set(SQUARE_5)})


@pytest.mark.parametrize(
    "route",
    [
        lambda: jacobi_trudi_check_exact(JT_TABLEAU, JT_THETA, 4),
        lambda: regularized_jt_check(JT_TABLEAU, JT_THETA, (0.0, 0.5)),
        lambda: evaluate_checkerboard_13(SQUARE_13),
    ],
    ids=["exact", "regularized", "checkerboard"],
)
def test_the_determinant_routes_check_nothing_twice(monkeypatch, route):
    """Every value a route derives from its checked inputs is built by
    ``_make``, so no ``__post_init__`` runs."""
    checks = dict.fromkeys((Ribbon, Tableau, DiagonalTableau, StairKind), 0)
    for cls in checks:

        def counted(self, cls=cls, check=cls.__post_init__):
            checks[cls] += 1
            check(self)

        monkeypatch.setattr(cls, "__post_init__", counted)
    route()
    assert checks == dict.fromkeys(checks, 0)
