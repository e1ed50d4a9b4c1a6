"""Ribbons, outside decompositions, and subribbon tables.

A ribbon is an edge-connected skew shape with exactly one cell on each
diagonal; reading its cells by increasing content gives a walk of "up" and
"right" steps.  Every ribbon the library builds (subribbons, pieces and
containing ribbons) comes from such a walk through ``ribbon_from_walk``,
which reads ``lam/mu`` off the walk's row runs: a walk inside the positive
quadrant is a ribbon by construction, so no cell set is listed or checked.
``Ribbon(shape)`` is the validating entry point for shapes from outside,
such as ribbon files and tests.  An outside decomposition cuts a host shape into ribbons that
all follow one direction per diagonal, and the minimal containing ribbon
records exactly those directions.  ``ribbon_matrix`` builds the matrix of
the determinant identities from it: entry (i, j) is the subribbon spanning
[min c(theta_i), max c(theta_j)], 1 when that interval is empty and 0 when
it is undefined, evaluated in whatever ring the caller's entry function
uses.  The subribbon table is that matrix with the subribbons themselves as
entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Callable, Dict, Optional, Tuple, TypeVar, Union

from .errors import InternalCheckError, PreconditionError
from .shapes import (
    Cell,
    DiagonalTableau,
    SkewShape,
    Tableau,
    content,
    content_set,
    is_edge_connected,
)

UP = "U"
RIGHT = "R"

E = TypeVar("E")


def is_ribbon(shape: SkewShape) -> bool:
    """True iff the shape is nonempty, edge-connected, and 2x2-free.

    For skew shapes this is equivalent to having exactly one cell on each
    diagonal of a contiguous content interval.
    """
    if not shape.cells:
        return False
    if not is_edge_connected(shape):
        return False
    contents = [content(c) for c in shape.cells]
    return len(set(contents)) == len(contents)


@dataclass(frozen=True)
class Ribbon:
    """A ribbon; exposes its walk by increasing content.

    ``Ribbon(shape)`` validates a shape from outside.  The library builds
    every other ribbon with :func:`ribbon_from_walk`, which skips that
    check because a walk is a ribbon by construction.
    """

    shape: SkewShape

    def __post_init__(self) -> None:
        if not is_ribbon(self.shape):
            raise PreconditionError(f"{self.shape} is not a ribbon")

    @cached_property
    def start(self) -> Cell:
        """The cell of smallest content."""
        return min(self.shape.cells, key=content)

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

    @cached_property
    def steps(self) -> Tuple[str, ...]:
        """The walk directions: steps[k] moves from content cmin+k to cmin+k+1."""
        out = []
        cells = sorted(self.shape.cells, key=content)
        for (i, j), nxt in zip(cells, cells[1:]):
            if nxt == (i - 1, j):
                out.append(UP)
            elif nxt == (i, j + 1):
                out.append(RIGHT)
            else:
                raise InternalCheckError(
                    f"consecutive-content cells {(i, j)} and {nxt} not adjacent"
                )
        return tuple(out)


def ribbon_from_walk(start: Cell, steps: Tuple[str, ...]) -> Ribbon:
    """Build a ribbon from its smallest-content cell and its step sequence.

    The walk's row runs give ``lam/mu`` directly, in the canonical form
    :func:`~schurmzv.shapes.from_cells` would return: row ``i`` spans the
    columns the walk visits there, and the empty rows above the top run
    are anchored at its right end.  Raises :class:`PreconditionError` on an
    unknown step letter or a walk that leaves the positive quadrant.
    """
    steps = tuple(steps)
    i0, j0 = int(start[0]), int(start[1])
    lam, mu = [], []  # bottom row first
    lo = j = j0
    for s in steps:
        if s == RIGHT:
            j += 1
        elif s == UP:
            lam.append(j)
            mu.append(lo - 1)
            lo = j
        else:
            raise PreconditionError(f"unknown step {s!r}; use {UP!r} or {RIGHT!r}")
    lam.append(j)
    mu.append(lo - 1)
    top = i0 - len(lam) + 1
    if top < 1 or j0 < 1:
        raise PreconditionError(
            f"walk from {(i0, j0)} with steps {''.join(steps)} leaves the "
            "positive quadrant; cells must have positive coordinates"
        )
    lam.reverse()
    mu.reverse()
    while mu and mu[-1] == 0:
        mu.pop()
    pad = (j,) * (top - 1)
    r = object.__new__(Ribbon)
    object.__setattr__(r, "shape", SkewShape(pad + tuple(lam), pad + tuple(mu)))
    r.__dict__.update(start=(i0, j0), steps=steps)
    return r


def anchored_ribbon(cmin: int, steps: Tuple[str, ...]) -> Ribbon:
    """The furthest-left ribbon with the given smallest content and steps."""
    steps = tuple(steps)
    i0 = max(steps.count(UP) + 1, 1 - cmin)
    return ribbon_from_walk((i0, i0 + cmin), steps)


def subribbon_of(r: Ribbon, p: int, q: int) -> Ribbon:
    """The furthest-left subribbon of ``r`` spanning contents ``[p, q]``."""
    if not (r.cmin <= p <= q <= r.cmax):
        raise PreconditionError(
            f"content interval [{p},{q}] not inside [{r.cmin},{r.cmax}]"
        )
    return anchored_ribbon(p, r.steps[p - r.cmin : q - r.cmin])


@dataclass(frozen=True)
class OutsideDecomposition:
    """An ordered cut of a host shape into perimeter-to-perimeter ribbons.

    Pieces keep host coordinates.  The host must be nonempty and
    edge-connected, which is checked here, once per decomposition.  Each
    piece must begin on the left or bottom perimeter of the host and end on
    the right or top perimeter.
    """

    host: SkewShape
    pieces: Tuple[Ribbon, ...]

    def __post_init__(self) -> None:
        hs = self.host.cell_set
        if not hs or not is_edge_connected(self.host):
            raise PreconditionError("host must be a nonempty edge-connected skew shape")
        covered = [c for p in self.pieces for c in p.shape.cells]
        if len(covered) != len(set(covered)) or set(covered) != hs:
            raise PreconditionError("pieces must partition the host cells")
        for p in self.pieces:
            si, sj = p.start
            if (si, sj - 1) in hs and (si + 1, sj) in hs:
                raise PreconditionError(
                    f"piece starting at {p.start} is not on the left/bottom perimeter"
                )
            ei, ej = p.end
            if (ei, ej + 1) in hs and (ei - 1, ej) in hs:
                raise PreconditionError(
                    f"piece ending at {p.end} is not on the right/top perimeter"
                )

    @property
    def n_pieces(self) -> int:
        return len(self.pieces)


def decomposition_from_ribbon(shape: SkewShape, r: Ribbon) -> OutsideDecomposition:
    """Cut ``shape`` along the per-diagonal directions of the ribbon ``r``.

    Each diagonal of the host inherits the up/right direction that ``r``
    takes there; maximal direction-following chains of host cells are the
    pieces.  Pieces are ordered by smallest content, bottom-most first on
    ties.  Requires c(host) = c(r) and an edge-connected host, which
    :class:`OutsideDecomposition` checks.
    """
    if content_set(shape) != tuple(range(r.cmin, r.cmax + 1)):
        raise PreconditionError(
            f"ribbon contents [{r.cmin},{r.cmax}] do not match host contents "
            f"{content_set(shape)}"
        )
    dirs = {r.cmin + k: s for k, s in enumerate(r.steps)}
    host = shape.cell_set

    def successor(cell: Cell) -> Optional[Cell]:
        d = dirs.get(content(cell))
        if d is None:
            return None
        i, j = cell
        nxt = (i - 1, j) if d == UP else (i, j + 1)
        return nxt if nxt in host else None

    def has_predecessor(cell: Cell) -> bool:
        d = dirs.get(content(cell) - 1)
        if d is None:
            return False
        i, j = cell
        prev = (i + 1, j) if d == UP else (i, j - 1)
        return prev in host

    starts = [c for c in shape.cells if not has_predecessor(c)]
    starts.sort(key=lambda c: (content(c), -c[0]))
    pieces = []
    covered = 0
    for s in starts:
        end = s
        while (nxt := successor(end)) is not None:
            end = nxt
        lo, hi = content(s) - r.cmin, content(end) - r.cmin
        pieces.append(ribbon_from_walk(s, r.steps[lo:hi]))
        covered += hi - lo + 1
    if covered != shape.n_cells:
        raise InternalCheckError("direction-following chains fail to cover the host")
    return OutsideDecomposition(shape, tuple(pieces))


def trivial_decomposition(r: Ribbon) -> OutsideDecomposition:
    """The one-piece decomposition of a ribbon-shaped host into itself."""
    return decomposition_from_ribbon(r.shape, r)


def minimal_containing_ribbon(theta: OutsideDecomposition) -> Ribbon:
    """The furthest-left ribbon containing every piece, content-aligned.

    The pieces pin a direction on every diagonal: interior steps directly,
    and end/start cells through the host cells adjacent to them (an exit
    into the host rules out that direction's continuation).  For an
    edge-connected host, which every decomposition has, every diagonal gets
    pinned.
    """
    host = theta.host
    contents = content_set(host)
    cmin, cmax = contents[0], contents[-1]
    dirs: Dict[int, str] = {}

    def pin(c: int, d: str) -> None:
        if dirs.setdefault(c, d) != d:
            raise PreconditionError(
                f"pieces force both directions on diagonal {c}; they do not nest"
            )

    hs = host.cell_set
    for p in theta.pieces:
        for k, s in enumerate(p.steps):
            pin(p.cmin + k, s)
        ei, ej = p.end
        if p.cmax < cmax:
            up_in, right_in = (ei - 1, ej) in hs, (ei, ej + 1) in hs
            if up_in and right_in:
                raise PreconditionError(
                    f"piece ending at {p.end} has both continuations inside the host"
                )
            if up_in:
                pin(p.cmax, RIGHT)
            if right_in:
                pin(p.cmax, UP)
        si, sj = p.start
        if p.cmin > cmin:
            if (si + 1, sj) in hs:
                pin(p.cmin - 1, RIGHT)
            if (si, sj - 1) in hs:
                pin(p.cmin - 1, UP)

    missing = [c for c in range(cmin, cmax) if c not in dirs]
    if missing:
        raise InternalCheckError(
            f"directions on diagonals {missing} left unpinned; host not edge-connected?"
        )
    r = anchored_ribbon(cmin, tuple(dirs[c] for c in range(cmin, cmax)))
    for p in theta.pieces:
        if r.steps[p.cmin - cmin : p.cmax - cmin] != p.steps:
            raise InternalCheckError(
                f"piece with contents [{p.cmin},{p.cmax}] does not embed in the ribbon"
            )
    return r


class SubribbonStatus(Enum):
    DEFINED = "defined"
    EMPTY = "empty"
    UNDEFINED = "undefined"


@dataclass(frozen=True)
class SubribbonEntry:
    """One cell of the subribbon table: a ribbon, or the empty/undefined marker."""

    status: SubribbonStatus
    ribbon: Optional[Ribbon] = None

    def __post_init__(self) -> None:
        if (self.ribbon is not None) != (self.status is SubribbonStatus.DEFINED):
            raise PreconditionError("ribbon present iff status is DEFINED")


@dataclass(frozen=True)
class SubribbonTable:
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
    the minimal containing ribbon, so ``subribbon_of(r, p, q)`` is the
    entry's subribbon.

    Building ``r`` validates the decomposition.  Its pieces then start on
    distinct diagonals (a diagonal's cells all but one have a predecessor
    in the host along r's direction) and end on distinct ones, so every
    defined interval occurs once and ``entry`` runs once per interval.
    """
    r = minimal_containing_ribbon(theta)
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
    containing = []

    def defined(p: int, q: int, r: Ribbon) -> SubribbonEntry:
        containing[:] = [r]
        return SubribbonEntry(SubribbonStatus.DEFINED, subribbon_of(r, p, q))

    entries = ribbon_matrix(
        theta,
        defined,
        SubribbonEntry(SubribbonStatus.UNDEFINED),
        SubribbonEntry(SubribbonStatus.EMPTY),
    )
    return SubribbonTable(containing[0], entries)


def fill_ribbon(k: DiagonalTableau, ribbon: Ribbon) -> Tableau:
    """Decorate a ribbon with the host's diagonal values of equal content.

    The rows are the walk's runs: an up step starts the next row above.
    """
    values = k.value_map
    cmin, cmax = ribbon.cmin, ribbon.cmax
    missing = [c for c in range(cmin, cmax + 1) if c not in values]
    if missing:
        raise PreconditionError(
            f"host tableau has no diagonal values for contents {missing}"
        )
    runs = [[values[cmin]]]
    for c, s in enumerate(ribbon.steps, start=cmin + 1):
        if s == UP:
            runs.append([])
        runs[-1].append(values[c])
    bottom = ribbon.start[0]
    above = ((),) * (bottom - len(runs))
    below = ((),) * (len(ribbon.shape.lam) - bottom)
    return Tableau(ribbon.shape, above + tuple(map(tuple, reversed(runs))) + below)


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
