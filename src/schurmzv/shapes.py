"""Skew Young diagrams and decorated tableaux in matrix coordinates.

Cells are pairs ``(i, j)`` with row ``i`` counted from the top and column
``j`` from the left, both starting at 1.  The content of a cell is ``j - i``.
A skew shape is stored as the pair of partitions ``lam/mu``; rows with
``lam[i] == mu[i]`` are legal and meaningful (they anchor the contents of the
rows below), so :func:`canonical_rows` keeps them, anchored at the row below.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import cached_property
from itertools import chain
from types import MappingProxyType
from typing import Dict, Iterable, Mapping, Sequence, Tuple

from .errors import PreconditionError
from .record import Interned, Record

Partition = Tuple[int, ...]
Cell = Tuple[int, int]


def int_parts(parts: Iterable, what: str) -> Tuple[int, ...]:
    """The parts as ints; refuses any part that differs from its ``int()``.

    So ``2.0`` and integer types outside the builtins pass, while ``2.9``
    and ``"3"`` raise :class:`PreconditionError` instead of being
    truncated or parsed.
    """
    given = tuple(parts)
    try:
        # Through a list: tuple() of an iterator without a length starts at
        # 10 slots and resizes, so each call would leave one more tuple of
        # its final size in CPython's tuple free lists.
        out = tuple([int(p) for p in given])
    except (TypeError, ValueError, OverflowError) as exc:
        raise PreconditionError(f"{what} has a non-integer part: {given}") from exc
    if out != given:
        raise PreconditionError(f"{what} has a non-integer part: {given}")
    return out


def check_partition(parts: Sequence[int], *, name: str = "partition") -> Partition:
    """Validate and normalise a partition given as a sequence of row lengths.

    Trailing zeros are stripped; the result is a weakly decreasing tuple of
    positive integers (possibly empty).
    """
    parts = int_parts(parts, name)
    while parts and parts[-1] == 0:
        parts = parts[:-1]
    if any(p <= 0 for p in parts):
        raise PreconditionError(f"{name} has non-positive part: {parts}")
    if any(a < b for a, b in zip(parts, parts[1:])):
        raise PreconditionError(f"{name} is not weakly decreasing: {parts}")
    return parts


def check_entries(entries: Iterable) -> None:
    """Refuses any entry that is not a positive ``int``, such as ``2.0``."""
    for v in entries:
        if not isinstance(v, int) or v < 1:
            raise PreconditionError(f"entries must be positive integers, got {v!r}")


def content(cell: Cell) -> int:
    """Content ``j - i`` of a cell."""
    return cell[1] - cell[0]


class SkewShape(Record, metaclass=Interned):
    """A skew diagram ``lam/mu``; the class call checks and canonicalises
    its fields as :func:`make_skew` does.  Interned; ``content_set`` is
    derived once per instance."""

    lam: Partition
    mu: Partition

    def __post_init__(self) -> None:
        lam, mu = _skew_rows(self.lam, self.mu)
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "mu", mu)

    def _kept(self) -> SkewShape:
        return self if self.lam else EMPTY_SHAPE  # the one empty shape, across clears

    @property
    def padded_mu(self) -> Partition:
        """``mu`` padded with zeros to the length of ``lam``."""
        return self.mu + (0,) * (len(self.lam) - len(self.mu))

    @property
    def cells(self) -> Tuple[Cell, ...]:
        """All cells in row-major order, built on each read."""
        rows = enumerate(zip(self.padded_mu, self.lam), start=1)
        # through a list, for the reason given in int_parts
        return tuple([(i, j) for i, (lo, hi) in rows for j in range(lo + 1, hi + 1)])

    @cached_property
    def _content_set(self) -> Tuple[int, ...]:
        return tuple(sorted({j - i for i, j in self.cells}))

    @property
    def cell_set(self) -> frozenset:
        return frozenset(self.cells)

    @property
    def n_cells(self) -> int:
        return sum(self.lam) - sum(self.mu)

    def __contains__(self, cell: Cell) -> bool:
        i, j = cell
        return 1 <= i <= len(self.lam) and self.padded_mu[i - 1] < j <= self.lam[i - 1]

    def __str__(self) -> str:
        mu = ",".join(str(p) for p in self.mu)
        lam = ",".join(str(p) for p in self.lam)
        return f"({lam})/({mu})"


EMPTY_SHAPE = SkewShape._build((), ())


def canonical_rows(lam: Sequence[int], mu: Sequence[int]) -> Tuple[Partition, Partition]:
    """The canonical, unvalidated ``(lam, mu)`` of rows ``mu_i < j <= lam_i``
    (``mu`` zero-padded): trailing empty rows are dropped, each empty row is
    anchored at the length of the row below, and ``mu``'s trailing zeros go."""
    lam, mu = list(lam), list(mu) + [0] * (len(lam) - len(mu))
    while lam and lam[-1] == mu[-1]:
        lam.pop()
        mu.pop()
    for i in range(len(lam) - 2, -1, -1):
        if lam[i] == mu[i]:
            lam[i] = mu[i] = lam[i + 1]
    while mu and mu[-1] == 0:
        mu.pop()
    return tuple(lam), tuple(mu)


def make_skew(lam: Sequence[int], mu: Sequence[int] = ()) -> SkewShape:
    """The shape of the canonical rows of ``lam/mu``, the instance
    :func:`from_cells` returns for its cells.

    Raises :class:`PreconditionError` unless both arguments are partitions
    with ``mu`` contained in ``lam``.
    """
    return SkewShape._make(*_skew_rows(lam, mu))


def _skew_rows(lam: Sequence[int], mu: Sequence[int]) -> Tuple[Partition, Partition]:
    """The canonical rows of ``lam/mu``, checked as :func:`make_skew` states."""
    lam = check_partition(lam, name="lam")
    mu = check_partition(mu, name="mu")
    if len(mu) > len(lam) or any(m > l for m, l in zip(mu, lam)):
        raise PreconditionError(f"mu={mu} is not contained in lam={lam}")
    return canonical_rows(lam, mu)


def from_cells(cells: Iterable[Cell]) -> SkewShape:
    """The shape of the canonical rows of a cell set.

    Rows must occupy contiguous column intervals that weakly shift left going
    down; an empty row between occupied ones is kept, anchored as
    ``lam_i == mu_i``, so that contents are preserved.  Raises
    :class:`PreconditionError` if the cells do not form a skew diagram.
    """
    cells = list(cells)
    try:
        given = [(i, j) for i, j in cells]
    except ValueError:
        given = [tuple(cell) for cell in cells]
        raise PreconditionError(f"cells must be pairs of positive integers: {given}") from None
    flat = list(chain.from_iterable(given))
    if set(map(type, flat)) <= {int}:  # builtin ints pass the integer rule as they are
        cell_list = sorted(set(given))
    else:
        flat = int_parts(flat, "cells")
        cell_list = sorted(set(zip(flat[::2], flat[1::2])))
    if min(flat, default=1) < 1:
        raise PreconditionError(f"cells must be pairs of positive integers: {given}")

    # by row, then column: each row's first cell gives mu_i and its last lam_i
    n_rows = cell_list[-1][0] if cell_list else 0
    lam, mu = [0] * n_rows, [0] * n_rows
    for i, j in cell_list:
        if not lam[i - 1]:
            mu[i - 1] = j - 1
        elif j != lam[i - 1] + 1:
            js = [c for r, c in cell_list if r == i]
            raise PreconditionError(f"row {i} is not contiguous: columns {js}")
        lam[i - 1] = j
    lam_t, mu_t = canonical_rows(lam, mu)
    if list(lam_t) != sorted(lam_t, reverse=True) or list(mu_t) != sorted(mu_t, reverse=True):
        raise PreconditionError(f"cells {cell_list} do not form a skew diagram")
    return SkewShape._make(lam_t, mu_t)


def content_set(shape: SkewShape) -> Tuple[int, ...]:
    """Sorted distinct contents of the shape's cells."""
    return shape._content_set


def corners(shape: SkewShape) -> Tuple[Cell, ...]:
    """Cells with no neighbour to the right and none below, top to bottom:
    the last cell ``(i, lam_i)`` of each nonempty row longer than the next
    (``mu`` only shrinks going down, so a row as long holds the cell below)."""
    lam, mu = shape.lam + (0,), shape.padded_mu
    return tuple(
        (i + 1, lam[i]) for i in range(len(mu)) if lam[i] > mu[i] and lam[i] > lam[i + 1]
    )


def is_edge_connected(shape: SkewShape) -> bool:
    """True if the cells form one component under horizontal/vertical adjacency:
    the nonempty rows are consecutive, and each nonempty row ``b`` below
    the first shares a column with the row ``a = b - 1`` above it,
    ``lam_b > mu_a``."""
    lam, mu = shape.lam, shape.padded_mu
    rows = [i for i in range(len(lam)) if lam[i] > mu[i]]
    return all(b == a + 1 and lam[b] > mu[a] for a, b in zip(rows, rows[1:]))


def translate(shape: SkewShape, t: int) -> SkewShape:
    """Shift every cell by ``(t, t)`` along its diagonal (contents unchanged)."""
    if not shape.cells:
        return shape
    return from_cells([(i + t, j + t) for i, j in shape.cells])


def furthest_left(shape: SkewShape) -> SkewShape:
    """The diagonal translate with the smallest legal coordinates."""
    return translate(shape, 1 - min(map(min, shape.cells), default=1))


def translation_equivalent(a: SkewShape, b: SkewShape) -> bool:
    """True if the shapes differ by a diagonal translation only."""
    return furthest_left(a) == furthest_left(b)


class Tableau(Record):
    """A skew shape with a positive integer written in every cell.

    Entries are exponents/decorations, not the summation variables, so no
    monotonicity is imposed on them.  ``rows[i]`` lists the entries of the
    ``i``-th row, left to right, covering exactly the cells of that row;
    read in order, the rows follow ``shape.cells``.  They are the only
    store: ``entries`` builds a new cell-to-entry mapping on each read.
    """

    shape: SkewShape
    rows: Tuple[Tuple[int, ...], ...]

    def __post_init__(self) -> None:
        widths = tuple(l - m for l, m in zip(self.shape.lam, self.shape.padded_mu))
        if tuple(len(r) for r in self.rows) != widths:
            raise PreconditionError(
                f"row lengths {tuple(len(r) for r in self.rows)} do not match "
                f"shape {self.shape} widths {widths}"
            )
        check_entries(chain.from_iterable(self.rows))

    @property
    def entries(self) -> Mapping[Cell, int]:
        """A new mapping from cell to entry, in row-major order."""
        return dict(zip(self.shape.cells, chain.from_iterable(self.rows)))

    def entry(self, cell: Cell) -> int:
        """The entry in ``cell``; raises ``KeyError`` off the shape."""
        if cell not in self.shape:
            raise KeyError(cell)
        i, j = cell
        return self.rows[i - 1][j - 1 - self.shape.padded_mu[i - 1]]

    @property
    def weight(self) -> int:
        """Sum of all entries."""
        return sum(v for row in self.rows for v in row)


def tableau_from_entries(shape: SkewShape, entries: Mapping[Cell, int]) -> Tableau:
    """Assemble a :class:`Tableau` from a complete cell-to-entry mapping."""
    if set(entries) != shape.cell_set:
        raise PreconditionError("entry mapping does not cover the shape exactly")
    mu = shape.padded_mu
    rows = tuple(
        tuple(entries[(i, j)] for j in range(mu[i - 1] + 1, shape.lam[i - 1] + 1))
        for i in range(1, len(shape.lam) + 1)
    )
    return Tableau(shape, rows)


def is_admissible(t: Tableau) -> bool:
    """True if every corner entry is at least 2 (convergence criterion)."""
    return all(t.rows[i - 1][-1] >= 2 for i, _ in corners(t.shape))


class DiagonalTableau(Record, metaclass=Interned):
    """A tableau whose entries are constant along diagonals.

    ``values[k]`` is the entry on the ``k``-th content of
    ``content_set(shape)``, in increasing order.  Interned: equal tableaux
    are one instance while in the class's memo.  ``by_content`` and
    ``value_map`` are read-only views of the two fields, built on each read.
    """

    shape: SkewShape
    values: Tuple[int, ...]

    def __post_init__(self) -> None:
        values, contents = tuple(self.values), content_set(self.shape)
        if len(values) != len(contents):
            raise PreconditionError(
                f"{len(values)} values do not match the shape's contents {contents}"
            )
        check_entries(values)
        object.__setattr__(self, "values", values)

    @property
    def by_content(self) -> Tuple[Tuple[int, int], ...]:
        """The ``(content, entry)`` pairs by increasing content."""
        return tuple(zip(content_set(self.shape), self.values))

    @property
    def value_map(self) -> Mapping[int, int]:
        """Read-only content -> entry map."""
        return MappingProxyType(dict(zip(content_set(self.shape), self.values)))

    def value_at(self, c: int) -> int:
        contents = content_set(self.shape)
        k = bisect_left(contents, c)
        if contents[k : k + 1] != (c,):
            raise KeyError(c)
        return self.values[k]

    def to_tableau(self) -> Tableau:
        """The tableau, each row sliced out of ``values``: a row's contents
        are consecutive, and so are their places in ``content_set``."""
        shape, values = self.shape, self.values
        contents = content_set(shape)
        rows = []
        for i, (l, m) in enumerate(zip(shape.lam, shape.padded_mu), start=1):
            k = bisect_left(contents, m + 1 - i)
            rows.append(values[k : k + l - m])
        return Tableau._make(shape, tuple(rows))


def diagonal_tableau(shape: SkewShape, by_content: Mapping[int, int]) -> DiagonalTableau:
    """Convenience constructor from a plain content-to-entry mapping, which
    must have exactly the shape's contents as keys."""
    contents = content_set(shape)
    got = tuple(sorted(by_content))
    if got != contents:
        raise PreconditionError(f"contents {got} do not match the shape's contents {contents}")
    return DiagonalTableau(shape, tuple(by_content[c] for c in contents))


def as_diagonal(t: Tableau) -> DiagonalTableau:
    """View a tableau as diagonal-constant; error if it is not."""
    seen: Dict[int, int] = {}
    for cell, v in zip(t.shape.cells, chain.from_iterable(t.rows)):
        c = content(cell)
        if seen.setdefault(c, v) != v:
            raise PreconditionError(f"entries differ along diagonal {c}")
    return DiagonalTableau._make(t.shape, tuple(v for _, v in sorted(seen.items())))
