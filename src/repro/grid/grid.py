"""The MobiEyes grid over the universe of discourse.

Section 2.2 of the paper maps the universe of discourse (UoD)
``U = Rect(X, Y, W, H)`` onto a grid ``G(U, alpha)`` of ``alpha x alpha``
square cells ``A_{i,j}``, and defines ``Pmap`` taking a position to its grid
cell.  We use zero-based ``(i, j)`` indices with ``i`` the column (x-axis) and
``j`` the row (y-axis), computed with ``floor`` instead of the paper's
one-based ``ceil`` -- the two formulations induce the same partition of the
UoD into cells; zero-based floor is the natural Python phrasing.

Positions exactly on the far boundary of the UoD are clamped into the last
cell so that ``Pmap`` is total over the closed UoD rectangle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

from repro.geometry import Point, Rect

# A grid cell index: (column along x, row along y), zero-based.
CellIndex = tuple[int, int]


@dataclass(frozen=True, slots=True)
class CellRange:
    """An inclusive rectangular block of grid cells.

    Monitoring regions in MobiEyes are always contiguous rectangular blocks
    of cells (the cells intersecting a query's bounding box), so a compact
    ``[lo_i, hi_i] x [lo_j, hi_j]`` range represents them exactly and makes
    the frequent "does this cell lie in that monitoring region" test O(1).
    """

    lo_i: int
    hi_i: int
    lo_j: int
    hi_j: int

    def __post_init__(self) -> None:
        if self.lo_i > self.hi_i or self.lo_j > self.hi_j:
            raise ValueError(f"empty cell range: {self}")

    def contains(self, cell: CellIndex) -> bool:
        """Whether the point lies inside (or on the boundary of) the shape."""
        i, j = cell
        return self.lo_i <= i <= self.hi_i and self.lo_j <= j <= self.hi_j

    def intersects(self, other: "CellRange") -> bool:
        """Whether the two (inclusive) cell ranges overlap."""
        return (
            self.lo_i <= other.hi_i
            and other.lo_i <= self.hi_i
            and self.lo_j <= other.hi_j
            and other.lo_j <= self.hi_j
        )

    def union_cells(self, other: "CellRange") -> set[CellIndex]:
        """Exact set union of two ranges (possibly non-rectangular)."""
        return set(self) | set(other)

    def bounding_union(self, other: "CellRange") -> "CellRange":
        """Smallest range containing both ranges."""
        return CellRange(
            min(self.lo_i, other.lo_i),
            max(self.hi_i, other.hi_i),
            min(self.lo_j, other.lo_j),
            max(self.hi_j, other.hi_j),
        )

    @property
    def cell_count(self) -> int:
        """Number of grid cells."""
        return (self.hi_i - self.lo_i + 1) * (self.hi_j - self.lo_j + 1)

    def strips_outside(self, other: "CellRange") -> list[tuple[int, int, int]]:
        """This range's cells not in ``other`` as column strips ``(i, lo_j,
        hi_j)``, inclusive and non-empty, in this range's iteration order:
        walking them cell by cell visits exactly the cells of
        ``self - other``, in order, without testing the shared ones."""
        lo_j, hi_j = self.lo_j, self.hi_j
        below = min(hi_j, other.lo_j - 1)
        above = max(lo_j, other.hi_j + 1)
        strips: list[tuple[int, int, int]] = []
        for i in range(self.lo_i, self.hi_i + 1):
            if other.lo_i <= i <= other.hi_i:
                if below >= lo_j:
                    strips.append((i, lo_j, below))
                if above <= hi_j:
                    strips.append((i, above, hi_j))
            else:
                strips.append((i, lo_j, hi_j))
        return strips

    def __iter__(self) -> Iterator[CellIndex]:
        for i in range(self.lo_i, self.hi_i + 1):
            for j in range(self.lo_j, self.hi_j + 1):
                yield (i, j)

    def __contains__(self, cell: object) -> bool:
        if isinstance(cell, tuple) and len(cell) == 2:
            return self.contains(cell)  # type: ignore[arg-type]
        return False


@dataclass(frozen=True, slots=True)
class CellRangeUnion:
    """The union of two rectangular cell ranges, kept in range form.

    A focal object's monitoring-region refresh touches ``old | new`` --
    two overlapping rectangles.  Materializing the union as a ``set``
    loses the O(1) containment test and the hashability that the
    base-station cover memoization relies on; this pair keeps both.
    Iteration is deterministic: the first range in its native order,
    then the second range's cells not already covered by the first.
    """

    first: CellRange
    second: CellRange

    def contains(self, cell: CellIndex) -> bool:
        """Whether the point lies inside (or on the boundary of) the shape."""
        return self.first.contains(cell) or self.second.contains(cell)

    @property
    def cell_count(self) -> int:
        """Number of grid cells."""
        count = self.first.cell_count + self.second.cell_count
        if self.first.intersects(self.second):
            a, b = self.first, self.second
            count -= (min(a.hi_i, b.hi_i) - max(a.lo_i, b.lo_i) + 1) * (
                min(a.hi_j, b.hi_j) - max(a.lo_j, b.lo_j) + 1
            )
        return count

    def __iter__(self) -> Iterator[CellIndex]:
        yield from self.first
        first = self.first
        for cell in self.second:
            if not first.contains(cell):
                yield cell

    def __contains__(self, cell: object) -> bool:
        if isinstance(cell, tuple) and len(cell) == 2:
            return self.contains(cell)  # type: ignore[arg-type]
        return False


class Grid:
    """The grid ``G(U, alpha)`` over a universe of discourse.

    Args:
        uod: the universe of discourse rectangle ``Rect(X, Y, W, H)``.
        alpha: the grid cell side length (the paper's ``alpha`` parameter).

    Attributes:
        n_cols: number of columns ``N = ceil(W / alpha)``.
        n_rows: number of rows ``M = ceil(H / alpha)``.
    """

    __slots__ = ("uod", "alpha", "n_cols", "n_rows")

    def __init__(self, uod: Rect, alpha: float) -> None:
        if alpha <= 0:
            raise ValueError(f"grid cell size alpha must be positive, got {alpha}")
        if uod.w <= 0 or uod.h <= 0:
            raise ValueError("universe of discourse must have positive area")
        self.uod = uod
        self.alpha = float(alpha)
        self.n_cols = max(1, math.ceil(uod.w / alpha))
        self.n_rows = max(1, math.ceil(uod.h / alpha))

    def __repr__(self) -> str:
        return f"Grid(uod={self.uod!r}, alpha={self.alpha}, cols={self.n_cols}, rows={self.n_rows})"

    @property
    def cell_count(self) -> int:
        """Number of grid cells."""
        return self.n_cols * self.n_rows

    def contains(self, pos: Point) -> bool:
        """Whether ``pos`` lies inside the (closed) universe of discourse."""
        return self.uod.contains(pos)

    def cell_index(self, pos: Point) -> CellIndex:
        """``Pmap``: the grid cell containing ``pos``.

        Positions on the far UoD boundary clamp into the last row/column so
        the mapping is total over the closed UoD.

        Raises:
            ValueError: if ``pos`` is outside the universe of discourse.
        """
        if not self.uod.contains(pos):
            raise ValueError(f"position {pos} outside universe of discourse {self.uod}")
        i = min(int((pos.x - self.uod.lx) / self.alpha), self.n_cols - 1)
        j = min(int((pos.y - self.uod.ly) / self.alpha), self.n_rows - 1)
        return (i, j)

    def is_valid_cell(self, cell: CellIndex) -> bool:
        """Whether the index addresses a cell of this grid."""
        i, j = cell
        return 0 <= i < self.n_cols and 0 <= j < self.n_rows

    def cell_rect(self, cell: CellIndex) -> Rect:
        """The ``alpha x alpha`` rectangle of cell ``A_{i,j}``.

        Cells in the last row/column may extend past the UoD boundary when
        ``W`` or ``H`` is not a multiple of ``alpha``; this matches the
        paper's ``ceil`` in the grid dimensions.
        """
        if not self.is_valid_cell(cell):
            raise ValueError(f"cell {cell} outside grid ({self.n_cols} x {self.n_rows})")
        i, j = cell
        return Rect(
            self.uod.lx + i * self.alpha,
            self.uod.ly + j * self.alpha,
            self.alpha,
            self.alpha,
        )

    def clamp_cell(self, i: int, j: int) -> CellIndex:
        """Nearest valid cell index to an (unclamped) ``(i, j)``."""
        return (
            min(max(i, 0), self.n_cols - 1),
            min(max(j, 0), self.n_rows - 1),
        )

    def cells_intersecting(self, rect: Rect) -> CellRange:
        """All grid cells whose closed rects intersect the (closed) ``rect``.

        The result is clamped to the grid: portions of ``rect`` outside the
        UoD contribute no cells.  This is exactly the paper's
        ``{(i, j) : A_{i,j} intersect rect != empty}`` restricted to the grid.
        """
        lo_i = int(math.floor((rect.lx - self.uod.lx) / self.alpha))
        hi_i = int(math.floor((rect.ux - self.uod.lx) / self.alpha))
        lo_j = int(math.floor((rect.ly - self.uod.ly) / self.alpha))
        hi_j = int(math.floor((rect.uy - self.uod.ly) / self.alpha))
        # A rect whose edge exactly touches a cell boundary intersects the
        # neighbouring (closed) cell too.
        if (rect.lx - self.uod.lx) / self.alpha == lo_i and lo_i > 0:
            lo_i -= 1
        if (rect.ly - self.uod.ly) / self.alpha == lo_j and lo_j > 0:
            lo_j -= 1
        lo_i, lo_j = self.clamp_cell(lo_i, lo_j)
        hi_i, hi_j = self.clamp_cell(hi_i, hi_j)
        return CellRange(lo_i, hi_i, lo_j, hi_j)

    def neighbours(self, cell: CellIndex) -> list[CellIndex]:
        """The up-to-8 grid cells adjacent to ``cell``."""
        i, j = cell
        out: list[CellIndex] = []
        for di in (-1, 0, 1):
            for dj in (-1, 0, 1):
                if di == 0 and dj == 0:
                    continue
                ni, nj = i + di, j + dj
                if 0 <= ni < self.n_cols and 0 <= nj < self.n_rows:
                    out.append((ni, nj))
        return out

    def all_cells(self) -> Iterator[CellIndex]:
        """Iterate over every cell index of the grid."""
        for i in range(self.n_cols):
            for j in range(self.n_rows):
                yield (i, j)
