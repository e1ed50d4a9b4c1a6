"""Skew Young diagrams and decorated tableaux in matrix coordinates.

Cells are pairs ``(i, j)`` with row ``i`` counted from the top and column
``j`` from the left, both starting at 1.  The content of a cell is ``j - i``.
A skew shape is stored as the pair of partitions ``lam/mu``; rows with
``lam[i] == mu[i]`` are legal and meaningful (they anchor the contents of the
rows below), so normalisation only strips trailing empty rows and trailing
zeros of ``mu``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Iterable, Mapping, Sequence, Tuple

from .errors import PreconditionError

Partition = Tuple[int, ...]
Cell = Tuple[int, int]


def int_parts(parts: Iterable, what: str) -> Tuple[int, ...]:
    """The parts as ints; refuses any part that differs from its ``int()``.

    So ``2.0`` and numpy integers pass, while ``2.9`` and ``"3"`` raise
    :class:`PreconditionError` instead of being truncated or parsed.
    """
    given = tuple(parts)
    try:
        out = tuple(map(int, given))
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


def content(cell: Cell) -> int:
    """Content ``j - i`` of a cell."""
    return cell[1] - cell[0]


@dataclass(frozen=True)
class SkewShape:
    """A skew diagram ``lam/mu``, canonicalised; build via :func:`make_skew`."""

    lam: Partition
    mu: Partition

    @cached_property
    def padded_mu(self) -> Partition:
        """``mu`` padded with zeros to the length of ``lam``."""
        return self.mu + (0,) * (len(self.lam) - len(self.mu))

    @cached_property
    def cells(self) -> Tuple[Cell, ...]:
        """All cells in row-major order."""
        out = []
        for i, (lo, hi) in enumerate(zip(self.padded_mu, self.lam), start=1):
            out.extend((i, j) for j in range(lo + 1, hi + 1))
        return tuple(out)

    @property
    def cell_set(self) -> frozenset:
        return frozenset(self.cells)

    @property
    def n_cells(self) -> int:
        return len(self.cells)

    def __contains__(self, cell: Cell) -> bool:
        i, j = cell
        return 1 <= i <= len(self.lam) and self.padded_mu[i - 1] < j <= self.lam[i - 1]

    def row_span(self, i: int) -> Tuple[int, int]:
        """Column interval ``(mu_i + 1, lam_i)`` occupied by row ``i``."""
        return self.padded_mu[i - 1] + 1, self.lam[i - 1]

    def __str__(self) -> str:
        mu = ",".join(str(p) for p in self.mu)
        lam = ",".join(str(p) for p in self.lam)
        return f"({lam})/({mu})"


EMPTY_SHAPE = SkewShape((), ())


def make_skew(lam: Sequence[int], mu: Sequence[int] = ()) -> SkewShape:
    """Build the canonical skew shape ``lam/mu``.

    Raises :class:`PreconditionError` unless both arguments are partitions
    with ``mu`` contained in ``lam``.
    """
    lam = check_partition(lam, name="lam")
    mu = check_partition(mu, name="mu")
    if len(mu) > len(lam) or any(m > l for m, l in zip(mu, lam)):
        raise PreconditionError(f"mu={mu} is not contained in lam={lam}")
    return from_cells(SkewShape(lam, mu).cells)


def from_cells(cells: Iterable[Cell]) -> SkewShape:
    """Reconstruct the canonical ``lam/mu`` presentation of a cell set.

    Rows must occupy contiguous column intervals that weakly shift left going
    down; empty rows between occupied ones are kept as ``lam_i == mu_i`` so
    that contents are preserved.  Raises :class:`PreconditionError` if the
    cells do not form a skew diagram.
    """
    cell_list = sorted(set((int(i), int(j)) for i, j in cells))
    if not cell_list:
        return EMPTY_SHAPE
    if any(i < 1 or j < 1 for i, j in cell_list):
        raise PreconditionError(f"cells must have positive coordinates: {cell_list}")

    by_row: Dict[int, list] = {}
    for i, j in cell_list:
        by_row.setdefault(i, []).append(j)
    n_rows = max(by_row)
    spans = {}
    for i, js in by_row.items():
        if js != list(range(js[0], js[0] + len(js))):
            raise PreconditionError(f"row {i} is not contiguous: columns {js}")
        spans[i] = (js[0], js[-1])

    lam = [0] * (n_rows + 1)
    mu = [0] * (n_rows + 1)
    for i in range(n_rows, 0, -1):
        if i in spans:
            lo, hi = spans[i]
            mu[i], lam[i] = lo - 1, hi
        else:
            mu[i] = lam[i] = lam[i + 1] if i < n_rows else 0
    lam_t, mu_t = tuple(lam[1:]), tuple(mu[1:])
    if any(a < b for a, b in zip(lam_t, lam_t[1:])) or any(
        a < b for a, b in zip(mu_t, mu_t[1:])
    ):
        raise PreconditionError(f"cells {cell_list} do not form a skew diagram")
    while mu_t and mu_t[-1] == 0:
        mu_t = mu_t[:-1]
    return SkewShape(lam_t, mu_t)


def content_set(shape: SkewShape) -> Tuple[int, ...]:
    """Sorted distinct contents of the shape's cells."""
    return tuple(sorted({content(c) for c in shape.cells}))


def corners(shape: SkewShape) -> Tuple[Cell, ...]:
    """Cells with no neighbour to the right and none below."""
    cs = shape.cell_set
    return tuple(
        (i, j)
        for (i, j) in shape.cells
        if (i, j + 1) not in cs and (i + 1, j) not in cs
    )


def is_edge_connected(shape: SkewShape) -> bool:
    """True if the cells form one component under horizontal/vertical adjacency."""
    cells = shape.cell_set
    if not cells:
        return True
    seen = set()
    stack = [next(iter(cells))]
    while stack:
        i, j = stack.pop()
        if (i, j) in seen:
            continue
        seen.add((i, j))
        for nb in ((i - 1, j), (i + 1, j), (i, j - 1), (i, j + 1)):
            if nb in cells and nb not in seen:
                stack.append(nb)
    return len(seen) == len(cells)


def translate(shape: SkewShape, t: int) -> SkewShape:
    """Shift every cell by ``(t, t)`` along its diagonal (contents unchanged)."""
    if not shape.cells:
        return shape
    return from_cells([(i + t, j + t) for i, j in shape.cells])


def furthest_left(shape: SkewShape) -> SkewShape:
    """The diagonal translate with the smallest legal coordinates."""
    if not shape.cells:
        return shape
    min_i = min(i for i, _ in shape.cells)
    min_j = min(j for _, j in shape.cells)
    return translate(shape, 1 - min(min_i, min_j))


def translation_equivalent(a: SkewShape, b: SkewShape) -> bool:
    """True if the shapes differ by a diagonal translation only."""
    return furthest_left(a) == furthest_left(b)


def transpose_shape(shape: SkewShape) -> SkewShape:
    """Reflect across the main diagonal (rows become columns)."""
    return from_cells([(j, i) for i, j in shape.cells])


@dataclass(frozen=True)
class Tableau:
    """A skew shape with a positive integer written in every cell.

    Entries are exponents/decorations, not the summation variables, so no
    monotonicity is imposed on them.  ``rows[i]`` lists the entries of the
    ``i``-th row, left to right, covering exactly the cells of that row.
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
        for row in self.rows:
            for v in row:
                if not isinstance(v, int) or v < 1:
                    raise PreconditionError(f"entries must be positive integers, got {v!r}")

    @cached_property
    def entries(self) -> Mapping[Cell, int]:
        """Mapping from cell to entry."""
        out = {}
        mu = self.shape.padded_mu
        for i, row in enumerate(self.rows, start=1):
            for off, v in enumerate(row):
                out[(i, mu[i - 1] + 1 + off)] = v
        return out

    def entry(self, cell: Cell) -> int:
        return self.entries[cell]

    @property
    def weight(self) -> int:
        """Sum of all entries."""
        return sum(v for row in self.rows for v in row)


EMPTY_TABLEAU = Tableau(EMPTY_SHAPE, ())


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
    return all(t.entry(c) >= 2 for c in corners(t.shape))


def transpose_tableau(t: Tableau) -> Tableau:
    """Transpose the shape, carrying entries along."""
    flipped = {(j, i): v for (i, j), v in t.entries.items()}
    return tableau_from_entries(transpose_shape(t.shape), flipped)


@dataclass(frozen=True)
class DiagonalTableau:
    """A tableau whose entries are constant along diagonals.

    ``by_content`` assigns one entry to each content occurring in the shape.
    """

    shape: SkewShape
    by_content: Tuple[Tuple[int, int], ...]

    def __post_init__(self) -> None:
        got = tuple(sorted(c for c, _ in self.by_content))
        if got != content_set(self.shape):
            raise PreconditionError(
                f"contents {got} do not match the shape's contents "
                f"{content_set(self.shape)}"
            )
        for _, v in self.by_content:
            if not isinstance(v, int) or v < 1:
                raise PreconditionError(f"entries must be positive integers, got {v!r}")

    @cached_property
    def value_map(self) -> Mapping[int, int]:
        return dict(self.by_content)

    def value_at(self, c: int) -> int:
        return self.value_map[c]

    def to_tableau(self) -> Tableau:
        return tableau_from_entries(
            self.shape, {cell: self.value_map[content(cell)] for cell in self.shape.cells}
        )


def diagonal_tableau(shape: SkewShape, by_content: Mapping[int, int]) -> DiagonalTableau:
    """Convenience constructor from a plain content-to-entry mapping."""
    return DiagonalTableau(shape, tuple(sorted(by_content.items())))


def as_diagonal(t: Tableau) -> DiagonalTableau:
    """View a tableau as diagonal-constant; error if it is not."""
    seen: Dict[int, int] = {}
    for cell, v in t.entries.items():
        c = content(cell)
        if seen.setdefault(c, v) != v:
            raise PreconditionError(f"entries differ along diagonal {c}")
    return diagonal_tableau(t.shape, seen)
