"""Base stations and the grid-cell-to-base-station mapping ``Bmap``.

The paper assumes the universe of discourse is covered by base stations with
circular coverage regions; a base station broadcasts to every object inside
its circle, and objects uplink to a covering station.  Table 1 parameterizes
the deployment by a *base station side length* ``alen``: we realize this as
a square lattice of stations, one per ``alen x alen`` tile, each with
coverage radius equal to the tile's circumradius ``alen * sqrt(2) / 2`` so
the union of circles covers the UoD.

``Bmap(i, j)`` maps a grid cell to the set of stations whose coverage circle
intersects the cell; the server uses it to pick a *minimal* set of stations
whose circles jointly cover a query's monitoring region (greedy set cover,
which is the standard polynomial approximation).

When the station side is a whole number ``p`` of grid cells, ``Bmap``
repeats every ``p`` cells away from the UoD's edges: a cell ``p`` columns
to the right maps to the stations ``tile_rows`` ids up, a cell ``p`` rows
up to the stations one id up.  The layout checks this cell by cell at
construction (the circles pass exactly through cell corners, where float
rounding could break it) and, where it holds, answers a region's cover
from the cover of its translate into the first interior tile, plus the id
shift: the greedy sees the same cells in the same order with every
candidate id shifted by one constant, and its ties break toward the
smaller id, so it picks the same stations, shifted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from repro.geometry import Circle, Point
from repro.grid import CellIndex, CellRange, CellRangeUnion, Grid

BaseStationId = int

# Entries `BaseStationLayout.minimal_cover` memoizes before it starts over.
# Off the phase interior every focal cell crossing keys a fresh
# ``CellRangeUnion(old, new)``, so the memo grows for as long as a run
# lasts; the cap is far above what the warm set of a paper-scale run
# reaches, so it only bounds a soak.
COVER_CACHE_MAX = 1 << 16


@dataclass(frozen=True, slots=True)
class BaseStation:
    """One base station: identifier and circular coverage region."""

    bsid: BaseStationId
    coverage: Circle

    def covers_point(self, point: Point) -> bool:
        """Whether the station's coverage circle contains the point."""
        return self.coverage.contains(point)


class BaseStationLayout:
    """A lattice deployment of base stations covering a grid's UoD.

    Args:
        grid: the MobiEyes grid (provides the UoD and cell geometry).
        side_length: the paper's ``alen``; one station per ``alen x alen``
            tile of the UoD.
    """

    def __init__(self, grid: Grid, side_length: float) -> None:
        if side_length <= 0:
            raise ValueError(f"base station side length must be positive, got {side_length}")
        self.grid = grid
        self.side_length = float(side_length)
        self.stations: list[BaseStation] = []
        self._build_lattice()
        self._bmap: dict[CellIndex, tuple[BaseStationId, ...]] = {}
        self._build_bmap()
        self._cover_cache: dict[object, list[BaseStationId]] = {}
        # The lattice phase ``p`` (0: no phase memo) and the last column and
        # row of the interior where ``Bmap`` was verified to repeat.
        self._phase = 0
        self._interior_hi_i = self._interior_hi_j = -1
        self._build_phase()

    def _build_lattice(self) -> None:
        uod = self.grid.uod
        self.tile_cols = max(1, math.ceil(uod.w / self.side_length))
        self.tile_rows = max(1, math.ceil(uod.h / self.side_length))
        cols, rows = self.tile_cols, self.tile_rows
        radius = self.side_length * math.sqrt(2.0) / 2.0
        bsid = 0
        for i in range(cols):
            for j in range(rows):
                center = Point(
                    uod.lx + (i + 0.5) * self.side_length,
                    uod.ly + (j + 0.5) * self.side_length,
                )
                self.stations.append(BaseStation(bsid, Circle.from_center(center, radius)))
                bsid += 1

    def _build_bmap(self) -> None:
        # Each station's circle only intersects nearby cells; restrict the
        # scan to the cells intersecting the circle's bounding rect.
        cell_sets: dict[CellIndex, list[BaseStationId]] = {}
        for station in self.stations:
            candidates = self.grid.cells_intersecting(station.coverage.bounding_rect())
            for cell in candidates:
                if station.coverage.intersects_rect(self.grid.cell_rect(cell)):
                    cell_sets.setdefault(cell, []).append(station.bsid)
        for cell in self.grid.all_cells():
            ids = cell_sets.get(cell)
            if not ids:
                raise RuntimeError(f"grid cell {cell} is not covered by any base station")
            self._bmap[cell] = tuple(sorted(ids))

    def _build_phase(self) -> None:
        """Turn the phase memo on if ``side_length / alpha`` is a whole
        number ``p`` and ``Bmap`` repeats with it on every cell of the
        interior: columns ``p`` up to the last but one tile column, rows
        likewise, where every cell's stations have all their neighbours."""
        ratio = self.side_length / self.grid.alpha
        p = int(ratio)
        hi_i = min(self.grid.n_cols, (self.tile_cols - 1) * p) - 1
        hi_j = min(self.grid.n_rows, (self.tile_rows - 1) * p) - 1
        if p < 1 or p != ratio or hi_i < p or hi_j < p:
            return
        bmap, rows = self._bmap, self.tile_rows
        for i in range(p, hi_i + 1):
            for j in range(p, hi_j + 1):
                shift = (i // p - 1) * rows + j // p - 1
                base = bmap[(p + i % p, p + j % p)]
                if bmap[(i, j)] != tuple(bsid + shift for bsid in base):
                    return
        self._phase = p
        self._interior_hi_i, self._interior_hi_j = hi_i, hi_j

    def __len__(self) -> int:
        return len(self.stations)

    def get(self, bsid: BaseStationId) -> BaseStation:
        """Look up a stored entry by its identifier."""
        return self.stations[bsid]

    def bmap(self, cell: CellIndex) -> tuple[BaseStationId, ...]:
        """``Bmap(i, j)``: stations whose coverage intersects the cell."""
        return self._bmap[cell]

    def tile_of_point(self, point: Point) -> tuple[int, int]:
        """The lattice tile (station tile) containing ``point``."""
        uod = self.grid.uod
        i = min(max(int((point.x - uod.lx) / self.side_length), 0), self.tile_cols - 1)
        j = min(max(int((point.y - uod.ly) / self.side_length), 0), self.tile_rows - 1)
        return (i, j)

    def station_at_tile(self, tile: tuple[int, int]) -> BaseStation:
        """The station deployed on the given lattice tile."""
        i, j = tile
        return self.stations[i * self.tile_rows + j]

    def station_covering(self, point: Point) -> BaseStation:
        """A station covering ``point`` (objects uplink through one).

        Picks the station of the point's lattice tile; its circumradius
        coverage circle always contains the tile.
        """
        station = self.station_at_tile(self.tile_of_point(point))
        if not station.covers_point(point):  # lattice guarantees this
            raise RuntimeError(f"no base station covers {point}")
        return station

    def minimal_cover(self, region: "CellRange | Iterable[CellIndex]") -> list[BaseStationId]:
        """Greedy minimal set of stations covering every cell of ``region``.

        This is the server's "minimum number of broadcasts" computation: one
        broadcast message per returned station.  ``region`` is any iterable
        of cell indices (a :class:`CellRange`, or the union of two ranges
        when a focal object's monitoring region moved).

        The greedy cover is a pure function of the region (the lattice and
        the Bmap are fixed at construction) and monitoring regions repeat
        heavily across steps, so results are memoized (up to
        :data:`COVER_CACHE_MAX` entries; on overflow the memo is cleared):
        a range or range pair inside the phase interior by the bounds of
        its translate into the first interior tile, with the stations of
        that translate (see the module docstring), anything else by itself.
        """
        phase = self._phase_key(region) if self._phase else None
        if phase is None:
            if not isinstance(region, (CellRange, CellRangeUnion)):
                region = tuple(region)
            key, shift = region, 0
        else:
            key, shift = phase
        cache = self._cover_cache
        cached = cache.get(key)
        if cached is not None:
            return [bsid + shift for bsid in cached]
        if len(cache) >= COVER_CACHE_MAX:
            cache.clear()
        chosen = self._greedy(region)
        cache[key] = [bsid - shift for bsid in chosen]
        return chosen

    def _phase_key(self, region: object) -> tuple[tuple[int, ...], int] | None:
        """The phase memo's key of ``region`` -- the bounds of its translate
        by whole tiles into the first interior tile -- and the station id
        shift back, or None unless ``region`` is a range or a range pair
        inside the interior."""
        p = self._phase
        if type(region) is CellRange:
            lo_i, hi_i, lo_j, hi_j = region.lo_i, region.hi_i, region.lo_j, region.hi_j
            if lo_i < p or lo_j < p or hi_i > self._interior_hi_i or hi_j > self._interior_hi_j:
                return None
            tile_i, tile_j = lo_i // p - 1, lo_j // p - 1
            di, dj = tile_i * p, tile_j * p
            key: tuple[int, ...] = (lo_i - di, hi_i - di, lo_j - dj, hi_j - dj)
        elif type(region) is CellRangeUnion:
            a, b = region.first, region.second
            lo_i, lo_j = min(a.lo_i, b.lo_i), min(a.lo_j, b.lo_j)
            if (
                lo_i < p
                or lo_j < p
                or max(a.hi_i, b.hi_i) > self._interior_hi_i
                or max(a.hi_j, b.hi_j) > self._interior_hi_j
            ):
                return None
            tile_i, tile_j = lo_i // p - 1, lo_j // p - 1
            di, dj = tile_i * p, tile_j * p
            key = (
                a.lo_i - di, a.hi_i - di, a.lo_j - dj, a.hi_j - dj,
                b.lo_i - di, b.hi_i - di, b.lo_j - dj, b.hi_j - dj,
            )
        else:
            return None
        return key, tile_i * self.tile_rows + tile_j

    def _greedy(self, region: "Iterable[CellIndex]") -> list[BaseStationId]:
        """The greedy cover of ``region``'s cells, ascending."""
        # Cells as bits of one int: the greedy rounds then run on integer
        # AND / popcount instead of set intersections.  The selection is
        # identical to the set formulation -- the gain is the same count
        # and ties break to the smallest station id either way.
        bit_of: dict[CellIndex, int] = {}
        for cell in region:
            if cell not in bit_of:
                bit_of[cell] = 1 << len(bit_of)
        if not bit_of:
            return []
        chosen: list[BaseStationId] = []
        # Candidate stations: anything appearing in the Bmap of a region cell.
        candidates: dict[BaseStationId, int] = {}
        for cell, bit in bit_of.items():
            for bsid in self._bmap[cell]:
                candidates[bsid] = candidates.get(bsid, 0) | bit
        uncovered = (1 << len(bit_of)) - 1
        while uncovered:
            best_id = -1
            best_gain = -1
            best_bits = 0
            for bsid, bits in candidates.items():
                gain = (bits & uncovered).bit_count()
                if gain > best_gain or (gain == best_gain and bsid < best_id):
                    best_id = bsid
                    best_gain = gain
                    best_bits = bits
            if best_gain == 0:
                raise RuntimeError("region cell not coverable; Bmap inconsistent")
            chosen.append(best_id)
            uncovered &= ~best_bits
            del candidates[best_id]
        chosen.sort()
        return chosen

    def stations_hearing(self, point: Point) -> list[BaseStationId]:
        """All stations whose coverage contains ``point`` (for broadcast
        reception accounting: an object hears a broadcast when any chosen
        station's circle covers it)."""
        return [s.bsid for s in self.stations if s.coverage.contains(point)]
