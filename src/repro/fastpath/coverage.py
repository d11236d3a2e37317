"""Array-backed coverage index (vectorized engine).

The reference :class:`~repro.core.transport.CoverageIndex` re-buckets every
object into per-cell dict lists each step and walks them per lookup (a
station's lookup tests the objects of the cells whose ``Bmap`` names it).
Positions are frozen between two ``rebuild`` calls, so the vectorized
index resolves the whole receiver geometry there, once per step, and keeps
it as plain Python lists:

- the population sorted by flattened cell key, plus one offset per cell: a
  cell's objects are a slice, and so is one column of a rectangular region;
- per base station, the ids inside its coverage circle, again as one slice
  behind one offset per station.

A lookup is then a ``set`` filled from list slices -- no numpy call.  At
the few dozen receivers of a typical broadcast the fixed cost of a single
array operation exceeds the whole slice-and-update, which is why the index
ends in lists rather than arrays.

Both sorts are *stable*, so each bucket's run stays in population order
(the order the reference index appends in).  Nothing observes the order of
a receiver set: ``SimulatedTransport.broadcast`` delivers over
``sorted(receivers)``, ledger charges are per object, and
``MessageLedger.total_energy`` is an ``fsum``.
"""

from __future__ import annotations

from typing import Iterable

from repro.fastpath.store import ObjectStateStore
from repro.grid import CellIndex, CellRange, CellRangeUnion, Grid
from repro.mobility.model import ObjectId
from repro.network.basestation import BaseStationId, BaseStationLayout


def _stable_order(np, keys, buckets: int):
    """Stable argsort of bucket keys drawn from ``range(buckets)``.

    Sorted in the narrowest unsigned dtype that holds them: numpy's stable
    sort is a radix sort for 16-bit keys (a 64 x 64 grid, a 32 x 32 station
    lattice), about ten times faster at 10,000 keys than the merge sort
    int64 gets, and the permutation is the same.
    """
    return np.argsort(keys.astype(np.min_scalar_type(buckets)), kind="stable")


def _offsets(np, keys, buckets: int) -> list[int]:
    """``start`` such that bucket ``k`` of the key-sorted population is the
    slice ``start[k] : start[k + 1]``."""
    start = np.zeros(buckets + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys, minlength=buckets), out=start[1:])
    return start.tolist()


class VectorizedCoverageIndex:
    """Drop-in for ``CoverageIndex`` backed by an :class:`ObjectStateStore`.

    ``rebuild`` ignores the ``positions`` iterable (the store already holds
    the positions) but keeps the signature so
    :meth:`~repro.core.transport.SimulatedTransport.begin_step` works
    unchanged.
    """

    def __init__(self, layout: BaseStationLayout, grid: Grid, store: ObjectStateStore) -> None:
        self.layout = layout
        self.grid = grid
        self.store = store
        np = store.np
        self._cell_rows = np.empty(0, dtype=np.int64)  # store rows in cell-sorted order
        self._cell_keys = self._cell_rows  # flattened cell keys, sorted
        self._cell_oids: list[ObjectId] = []
        self._cell_start = [0] * (grid.cell_count + 1)
        self._station_oids: list[ObjectId] = []
        self._station_start = [0] * (len(layout) + 1)
        # Station centres by lattice column / row and the common radius,
        # read from the station objects so the array test in `rebuild` is
        # `Circle.contains` bit for bit.  The `inf` padding stands for the
        # neighbours of an edge tile that lie off the lattice: they fail
        # every distance test, so no edge mask is needed.
        rows = layout.tile_rows
        circles = [station.coverage for station in layout.stations]
        self._col_cx = np.array([np.inf, *(c.cx for c in circles[::rows]), np.inf])
        self._row_cy = np.array([np.inf, *(c.cy for c in circles[:rows]), np.inf])
        self._r_sq = circles[0].r * circles[0].r

    def rebuild(self, positions: Iterable[tuple[ObjectId, object]] = ()) -> None:
        """Re-bucket the population and resolve every cell's and every
        station's receivers for the new step."""
        store = self.store
        np = store.np
        layout = self.layout
        store.refresh_derived(self.grid, layout)

        cell_key = store.cell_i * self.grid.n_rows + store.cell_j
        order = _stable_order(np, cell_key, self.grid.cell_count)
        self._cell_rows = order
        self._cell_keys = cell_key[order]
        self._cell_oids = store.oids[order].tolist()
        self._cell_start = _offsets(np, cell_key, self.grid.cell_count)

        # A station's circle reaches only its own tile and the eight around
        # it, so each object is tested against the (up to) nine stations of
        # its tile neighbourhood.  dx^2 depends only on the neighbour's
        # column offset and dy^2 only on its row offset: three rows of each
        # feed all nine tests.
        tile_rows = layout.tile_rows
        tile_key = store.tile_i * tile_rows + store.tile_j
        order = _stable_order(np, tile_key, len(layout))
        tile_key = tile_key[order]
        d = np.arange(3)[:, None]  # neighbour offset d - 1, through the padding
        dx = store.x[order] - self._col_cx[store.tile_i[order] + d]
        dy = store.y[order] - self._row_cy[store.tile_j[order] + d]
        di, dj, k = np.nonzero((dx * dx)[:, None] + (dy * dy)[None, :] <= self._r_sq)
        # Nine runs, one per (di, dj), each already sorted by station (tile
        # order plus a constant): the stable sort only has to merge them.
        station_key = tile_key[k] + ((di - 1) * tile_rows + dj - 1)
        k = k[_stable_order(np, station_key, len(layout))]
        self._station_oids = store.oids[order[k]].tolist()
        self._station_start = _offsets(np, station_key, len(layout))

    def cell_of(self, oid: ObjectId) -> CellIndex:
        """The grid cell an object was in at the last rebuild."""
        row = self.store.row_of[oid]
        return (int(self.store.cell_i[row]), int(self.store.cell_j[row]))

    # The three lookups below are separate call seams (the benchmark's
    # tracer wraps each by name), so they share the two private helpers and
    # never call one another.

    def covered_by_stations(self, station_ids: Iterable[BaseStationId]) -> set[ObjectId]:
        """Objects inside any of the stations' coverage circles."""
        out: set[ObjectId] = set()
        self._add_stations(out, station_ids)
        return out

    def in_cells(
        self, cells: "CellRange | CellRangeUnion | Iterable[CellIndex]"
    ) -> set[ObjectId]:
        """Objects currently located in the given grid cells."""
        out: set[ObjectId] = set()
        self._add_cells(out, cells)
        return out

    def receiver_mask(
        self,
        station_ids: Iterable[BaseStationId],
        region: "CellRange | CellRangeUnion | Iterable[CellIndex]",
    ) -> set[ObjectId]:
        """One broadcast's receivers, as an id set:
        ``covered_by_stations(station_ids) | in_cells(region)``."""
        out: set[ObjectId] = set()
        self._add_stations(out, station_ids)
        self._add_cells(out, region)
        return out

    def _add_stations(self, out: set[ObjectId], station_ids: Iterable[BaseStationId]) -> None:
        oids = self._station_oids
        start = self._station_start
        for bsid in station_ids:
            out.update(oids[start[bsid] : start[bsid + 1]])

    def _add_cells(
        self, out: set[ObjectId], region: "CellRange | CellRangeUnion | Iterable[CellIndex]"
    ) -> None:
        oids = self._cell_oids
        start = self._cell_start
        n_cols = self.grid.n_cols
        n_rows = self.grid.n_rows
        if type(region) is CellRange:
            rects = (region,)
        elif type(region) is CellRangeUnion:
            rects = (region.first, region.second)
        else:
            rects = (CellRange(i, i, j, j) for i, j in region)
        for rect in rects:
            # Cell keys are column-major: one column of a rectangle is one
            # contiguous run of the cell-sorted ids.
            lo = max(rect.lo_j, 0)
            hi = min(rect.hi_j, n_rows - 1) + 1
            if lo < hi:
                for i in range(max(rect.lo_i, 0), min(rect.hi_i, n_cols - 1) + 1):
                    out.update(oids[start[i * n_rows + lo] : start[i * n_rows + hi]])
