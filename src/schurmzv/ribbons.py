"""Ribbons, outside decompositions, and subribbon tables.

A ribbon is an edge-connected skew shape with exactly one cell on each
diagonal; reading its cells by increasing content gives a walk of "up" and
"right" steps.  A :class:`Ribbon` is stored as that walk, its smallest-content
cell and its steps: a walk inside the positive quadrant is a ribbon by
construction, and ``lam/mu`` is read off the walk's row runs.
``ribbon_of(shape)`` reads the walk of a shape from outside, such as a
ribbon file, and refuses any shape that is not a ribbon.  An outside
decomposition of an edge-connected host is fixed by its guide, a ribbon
with one step per diagonal of the host: the pieces are the maximal chains
of host cells that follow the guide's direction on each diagonal.
``ribbon_matrix`` builds the matrix of the determinant identities from it:
entry (i, j) is the subribbon of the guide spanning
[min c(theta_i), max c(theta_j)], 1 when that interval is empty and 0 when
it is undefined, evaluated in whatever ring the caller's entry function
uses.  The subribbon table is that matrix with the subribbons themselves as
entries.
"""

from __future__ import annotations

from bisect import bisect_left
from enum import Enum
from functools import cached_property
from typing import Callable, Optional, Sequence, Tuple, TypeVar, Union

from .errors import PreconditionError
from .record import Interned, Record
from .shapes import (
    Cell,
    DiagonalTableau,
    SkewShape,
    Tableau,
    canonical_rows,
    content,
    content_set,
    int_parts,
    is_edge_connected,
)

UP = "U"
RIGHT = "R"

E = TypeVar("E")


class Ribbon(Record, metaclass=Interned):
    """A ribbon as its walk: the smallest-content cell and the steps from it.

    ``steps[k]`` moves from content cmin+k to cmin+k+1.  Raises
    :class:`PreconditionError` on an unknown step letter, a start other than
    two integers, or a walk that leaves the positive quadrant.  Interned:
    equal ribbons are one instance while in the class's memo.
    """

    start: Cell
    steps: Tuple[str, ...]

    def __post_init__(self) -> None:
        start, steps = int_parts(self.start, "start cell"), _checked_steps(self.steps)
        if len(start) != 2 or start[0] - steps.count(UP) < 1 or start[1] < 1:
            raise PreconditionError(
                f"walk from {start} with steps {''.join(steps)} does not stay on "
                "cells (i, j) of positive integers"
            )
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "steps", steps)

    @cached_property
    def _rows(self) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
        # row i spans the columns the walk visits there; rows above are empty
        (i0, j0), lam, mu = self.start, [], []  # bottom row first
        lo = j = j0
        for s in self.steps:
            if s == RIGHT:
                j += 1
            else:
                lam.append(j)
                mu.append(lo - 1)
                lo = j
        lam.append(j)
        mu.append(lo - 1)
        pad = [0] * (i0 - len(lam))
        return canonical_rows(pad + lam[::-1], pad + mu[::-1])

    @property
    def shape(self) -> SkewShape:
        """The shape ``from_cells`` returns for the cells, looked up on each read."""
        return SkewShape._make(*self._rows)

    @property
    def end(self) -> Cell:
        """The cell of largest content."""
        (i, j), ups = self.start, self.steps.count(UP)
        return i - ups, j + len(self.steps) - ups

    @property
    def cmin(self) -> int:
        return content(self.start)

    @property
    def cmax(self) -> int:
        return content(self.start) + len(self.steps)

    @property
    def n_cells(self) -> int:
        return len(self.steps) + 1


def ribbon_of(shape: SkewShape) -> Ribbon:
    """The ribbon with the shape's cells, read off them by increasing content.

    Raises :class:`PreconditionError` unless the shape is a ribbon: nonempty,
    and each cell but the last followed by the next content's cell directly
    above it or to its right.
    """
    cells = sorted(shape.cells, key=content)
    if not cells:
        raise PreconditionError(f"{shape} is not a ribbon")
    steps = []
    for (i, j), nxt in zip(cells, cells[1:]):
        if nxt == (i - 1, j):
            steps.append(UP)
        elif nxt == (i, j + 1):
            steps.append(RIGHT)
        else:
            raise PreconditionError(f"{shape} is not a ribbon")
    return Ribbon._make(cells[0], tuple(steps))


def _checked_steps(steps: Sequence[str]) -> Tuple[str, ...]:
    """The steps as a tuple, refusing any letter but UP and RIGHT."""
    steps = tuple(steps)
    if steps.count(UP) + steps.count(RIGHT) != len(steps):
        s = next(s for s in steps if s != UP and s != RIGHT)
        raise PreconditionError(f"unknown step {s!r}; use {UP!r} or {RIGHT!r}")
    return steps


def _anchored(cmin: int, steps: Tuple[str, ...]) -> Ribbon:
    """:func:`anchored_ribbon` of an int content and checked steps, built
    unchecked: a furthest-left walk stays in the positive quadrant."""
    i0 = max(steps.count(UP) + 1, 1 - cmin)
    return Ribbon._make((i0, i0 + cmin), steps)


def anchored_ribbon(cmin: int, steps: Sequence[str]) -> Ribbon:
    """The furthest-left ribbon with the given smallest content and steps."""
    return _anchored(*int_parts((cmin,), "content"), _checked_steps(steps))


def subribbon_of(r: Ribbon, p: int, q: int) -> Ribbon:
    """The furthest-left subribbon of ``r`` spanning contents ``[p, q]``."""
    p, q = int_parts((p, q), "content interval")
    if not (r.cmin <= p <= q <= r.cmax):
        raise PreconditionError(f"content interval [{p},{q}] not inside [{r.cmin},{r.cmax}]")
    return _anchored(p, r.steps[p - r.cmin : q - r.cmin])


class OutsideDecomposition(Record):
    """The cut of a host shape along a guide ribbon.

    Each diagonal of the host inherits the up/right direction that the
    guide takes there; the pieces are the maximal direction-following
    chains of host cells.  For an edge-connected host these are exactly
    its outside decompositions: each piece begins on the left or bottom
    perimeter and ends on the right or top perimeter, and the guide is
    their minimal containing ribbon.  The host must be nonempty and
    edge-connected, checked here once per decomposition, and the guide
    must span the host's contents.  The guide is stored furthest left, so
    equal cuts compare and hash equal.
    """

    host: SkewShape
    guide: Ribbon

    def __post_init__(self) -> None:
        host, r = self.host, self.guide
        if not host.n_cells or not is_edge_connected(host):
            raise PreconditionError("host must be a nonempty edge-connected skew shape")
        if content_set(host) != tuple(range(r.cmin, r.cmax + 1)):
            raise PreconditionError(
                f"ribbon contents [{r.cmin},{r.cmax}] do not match host contents "
                f"{content_set(host)}"
            )
        object.__setattr__(self, "guide", _anchored(r.cmin, r.steps))

    @cached_property
    def pieces(self) -> Tuple[Ribbon, ...]:
        """The pieces in host coordinates, ordered by smallest content,
        bottom-most first on ties."""
        r, cells = self.guide, self.host.cells
        host, succ = frozenset(cells), {}  # cell -> the host cell its guide step leads to
        for i, j in cells:
            if j - i < r.cmax:
                nxt = (i - 1, j) if r.steps[j - i - r.cmin] == UP else (i, j + 1)
                if nxt in host:
                    succ[(i, j)] = nxt
        pieces = []
        for s in sorted(host - set(succ.values()), key=lambda c: (content(c), -c[0])):
            end = s
            while end in succ:
                end = succ[end]
            pieces.append(Ribbon._make(s, r.steps[content(s) - r.cmin : content(end) - r.cmin]))
        return tuple(pieces)

    @property
    def n_pieces(self) -> int:
        return len(self.pieces)


def decomposition_from_ribbon(shape: SkewShape, r: Ribbon) -> OutsideDecomposition:
    """Cut ``shape`` along the per-diagonal directions of the ribbon ``r``."""
    return OutsideDecomposition(shape, r)


def minimal_containing_ribbon(theta: OutsideDecomposition) -> Ribbon:
    """The furthest-left ribbon containing every piece, content-aligned:
    the decomposition's guide."""
    return theta.guide


class SubribbonStatus(Enum):
    DEFINED = "defined"
    EMPTY = "empty"
    UNDEFINED = "undefined"


class SubribbonEntry(Record):
    """One cell of the subribbon table: a ribbon, or the empty/undefined marker."""

    status: SubribbonStatus
    ribbon: Optional[Ribbon] = None

    def __post_init__(self) -> None:
        if (self.ribbon is not None) != (self.status is SubribbonStatus.DEFINED):
            raise PreconditionError("ribbon present iff status is DEFINED")


class SubribbonTable(Record):
    """The n x n grid of subribbons for a decomposition, 1-based access."""

    ribbon: Ribbon
    entries: Tuple[Tuple[SubribbonEntry, ...], ...]

    @property
    def n(self) -> int:
        return len(self.entries)

    def entry(self, i: int, j: int) -> SubribbonEntry:
        return self.entries[i - 1][j - 1]

    def count(self, status: SubribbonStatus) -> int:
        return sum(1 for row in self.entries for e in row if e.status is status)


def ribbon_matrix(
    theta: OutsideDecomposition,
    entry: Callable[[int, int, Ribbon], E],
    zero: E,
    one: E,
) -> Tuple[Tuple[E, ...], ...]:
    """The n x n ribbon matrix of a decomposition, pieces in order.

    Entry (i, j) spans contents [p, q] = [min c(theta_i), max c(theta_j)].
    It is ``one`` when p = q + 1 (the empty subribbon), ``zero`` when
    p > q + 1 (undefined), and otherwise ``entry(p, q, r)``, where ``r`` is
    the guide, so ``subribbon_of(r, p, q)`` is the entry's subribbon.

    The pieces start on distinct diagonals (a diagonal's cells all but one
    have a predecessor in the host along the guide's direction) and end on
    distinct ones, so every defined interval occurs once and ``entry`` runs
    once per interval.
    """
    r = theta.guide
    rows = []
    for pi in theta.pieces:
        row = []
        for pj in theta.pieces:
            p, q = pi.cmin, pj.cmax
            if p == q + 1:
                row.append(one)
            elif p > q + 1:
                row.append(zero)
            else:
                row.append(entry(p, q, r))
        rows.append(tuple(row))
    return tuple(rows)


def subribbon_table(theta: OutsideDecomposition) -> SubribbonTable:
    """Table entry (i,j): the subribbon spanning [min c(theta_i), max c(theta_j)].

    The interval degenerates to the empty marker when min = max + 1 and to
    the undefined marker when min > max + 1 (see :func:`ribbon_matrix`).
    """
    entries = ribbon_matrix(
        theta,
        lambda p, q, r: SubribbonEntry(SubribbonStatus.DEFINED, subribbon_of(r, p, q)),
        SubribbonEntry(SubribbonStatus.UNDEFINED, None),
        SubribbonEntry(SubribbonStatus.EMPTY, None),
    )
    return SubribbonTable(theta.guide, entries)


def fill_ribbon(k: DiagonalTableau, ribbon: Ribbon) -> Tableau:
    """Decorate a ribbon with the host's diagonal values of equal content.

    The ribbon's contents are consecutive, so its values are one slice of
    ``k.values``, found in ``content_set(k.shape)``, and
    :meth:`~schurmzv.shapes.DiagonalTableau.to_tableau` cuts the rows.
    """
    contents = content_set(k.shape)
    lo = bisect_left(contents, ribbon.cmin)
    hi = lo + ribbon.n_cells
    # n sorted distinct ints from contents[lo] >= cmin up to cmax are cmin..cmax
    if hi > len(contents) or contents[hi - 1] != ribbon.cmax:
        missing = [c for c in range(ribbon.cmin, ribbon.cmax + 1) if c not in k.value_map]
        raise PreconditionError(f"host tableau has no diagonal values for contents {missing}")
    return ribbon_tableau(ribbon, k.values[lo:hi])


def ribbon_tableau(ribbon: Ribbon, values: Tuple[int, ...]) -> Tableau:
    """The ribbon with ``values`` on its cells by increasing content, which
    are taken as checked: one per cell, each a positive int."""
    return DiagonalTableau._make(ribbon.shape, values).to_tableau()


def jacobi_trudi_sides(
    k: DiagonalTableau,
    theta: OutsideDecomposition,
    value: Callable[[Tableau], E],
    entry: Callable[[Ribbon, Tuple[int, ...]], E],
    zero: E,
    one: E,
) -> Tuple[E, Tuple[Tuple[E, ...], ...]]:
    """Both sides of a determinant identity: ``value`` of ``k``, which must
    live on the host, and the :func:`ribbon_matrix` whose defined entries
    are ``entry(subribbon, values)``, ``values`` being ``k``'s diagonal
    values on the subribbon's contents in increasing order (the cells of
    :func:`fill_ribbon`).  The lhs comes first, so a refusal of the host
    is raised before any entry is computed."""
    if k.shape != theta.host:
        raise PreconditionError("diagonal tableau must live on the decomposition host")
    lhs = value(k.to_tableau())
    # the host's contents are the guide's, consecutive from its cmin
    values, c0 = k.values, theta.guide.cmin
    return lhs, ribbon_matrix(
        theta,
        lambda p, q, r: entry(subribbon_of(r, p, q), values[p - c0 : q - c0 + 1]),
        zero,
        one,
    )


def fill_subribbon(
    k: DiagonalTableau, entry: SubribbonEntry
) -> Union[Tableau, SubribbonStatus]:
    """Fill a table entry's subribbon with :func:`fill_ribbon`.

    Empty and undefined entries pass through as their status markers, to be
    mapped onto the ring elements 1 and 0 downstream.
    """
    if entry.status is not SubribbonStatus.DEFINED:
        return entry.status
    return fill_ribbon(k, entry.ribbon)
