"""The vectorized coverage index against its spec, and its call seams.

``VectorizedCoverageIndex`` resolves every cell's and every station's
receivers once per ``rebuild``; its three reads must equal the reference
:class:`~repro.core.transport.CoverageIndex` for any population --
including points on tile edges and corners (a tile corner sits at exactly
the circumradius of four stations), on the UoD boundary and piled into one
cell -- after a first rebuild and again after the population moved.

The second half pins the seams the benchmark's tracer wraps by name: one
``receiver_mask`` per accepted fan-out broadcast, ``covered_by_stations`` +
``in_cells`` per declined one, never one read through another.  Skipped
without numpy."""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.transport import CoverageIndex
from repro.fastpath import numpy_available
from repro.fastpath.coverage import VectorizedCoverageIndex
from repro.fastpath.store import ObjectStateStore
from repro.geometry import Point, Rect
from repro.grid import CellRange, CellRangeUnion, Grid
from repro.network import BaseStationLayout
from tests.conftest import make_object, paper_system

pytestmark = pytest.mark.skipif(not numpy_available(), reason="numpy not installed")

# (UoD, alpha, station side): tiles are two cells wide.  One world the
# lattice tiles exactly; one it overhangs from an off-origin corner (last
# cells and tiles clamped), with a side whose squared circumradius is
# *exactly* the squared distance to a tile corner (24.5): ``<=`` vs ``<``.
WORLDS = {
    "exact": (Rect(0, 0, 60, 40), 5.0, 10.0),
    "ragged": (Rect(-7.5, 3.25, 57, 43), 3.5, 7.0),
}


def axis(lo: float, hi: float, alpha: float):
    """Coordinates in ``[lo, hi]``, weighted towards cell lines, tile lines
    (every second cell line) and the two UoD edges."""
    lines = [lo + k * alpha for k in range(int((hi - lo) / alpha) + 1)]
    return st.one_of(
        st.floats(lo, hi, allow_nan=False),
        st.sampled_from(lines),
        st.sampled_from(lines[::2]),
        st.sampled_from([lo, hi]),
    )


def points(uod: Rect, alpha: float):
    return st.tuples(axis(uod.lx, uod.ux, alpha), axis(uod.ly, uod.uy, alpha))


def populations(uod: Rect, alpha: float):
    """Scattered points plus a pile inside one cell."""
    offset = st.floats(0.0, alpha, allow_nan=False, exclude_max=True)
    pile = st.tuples(
        st.integers(0, int(uod.w / alpha) - 1),
        st.integers(0, int(uod.h / alpha) - 1),
        st.lists(st.tuples(offset, offset), max_size=12),
    ).map(
        lambda c: [(uod.lx + c[0] * alpha + dx, uod.ly + c[1] * alpha + dy) for dx, dy in c[2]]
    )
    return st.tuples(st.lists(points(uod, alpha), max_size=40), pile).map(lambda p: p[0] + p[1])


def cell_ranges(grid: Grid):
    """Rectangles of cells, now and then overhanging the grid by one."""
    i = st.integers(-1, grid.n_cols)
    j = st.integers(-1, grid.n_rows)
    return st.tuples(i, i, j, j).map(
        lambda b: CellRange(min(b[0], b[1]), max(b[0], b[1]), min(b[2], b[3]), max(b[2], b[3]))
    )


def assert_matches_reference(fast, reference, stations, rect, other, cells):
    station_lists = ([], stations, *([bsid] for bsid in range(len(fast.layout))))
    covered = [reference.covered_by_stations(ids) for ids in station_lists]
    for ids, expected in zip(station_lists, covered):
        assert fast.covered_by_stations(ids) == expected, ids
    for region in (rect, CellRangeUnion(rect, other), cells):
        located = reference.in_cells(region)
        assert fast.in_cells(region) == located, region
        for ids, heard in zip(station_lists, covered):
            assert fast.receiver_mask(ids, region) == heard | located, (ids, region)


@pytest.mark.parametrize("world", sorted(WORLDS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_three_reads_equal_the_reference_index(world, data):
    uod, alpha, side = WORLDS[world]
    grid = Grid(uod, alpha)
    layout = BaseStationLayout(grid, side)
    first = data.draw(populations(uod, alpha))
    objects = [make_object(oid, x, y) for oid, (x, y) in enumerate(first)]
    store = ObjectStateStore(objects)
    # The store's row views are the objects from here on: moving one
    # writes its row.
    objects = store.objects
    fast = VectorizedCoverageIndex(layout, grid, store)
    reference = CoverageIndex(layout, grid)
    moved = data.draw(
        st.lists(points(uod, alpha), min_size=len(objects), max_size=len(objects))
    )
    for positions in (first, moved):
        for obj, (x, y) in zip(objects, positions):
            obj.pos = Point(x, y)
        fast.rebuild()
        reference.rebuild((obj.oid, obj.pos) for obj in objects)
        assert_matches_reference(
            fast,
            reference,
            stations=data.draw(st.lists(st.integers(0, len(layout) - 1), max_size=4)),
            rect=data.draw(cell_ranges(grid)),
            other=data.draw(cell_ranges(grid)),
            cells=data.draw(
                st.lists(
                    st.tuples(
                        st.integers(-1, grid.n_cols), st.integers(-1, grid.n_rows)
                    ),
                    max_size=6,
                )
            ),
        )


@pytest.mark.parametrize("world", sorted(WORLDS))
def test_tile_and_uod_corners_are_heard_as_the_layout_says(world):
    """The deterministic worst case: a point on a shared tile corner is at
    exactly the circumradius of the four stations around it."""
    uod, alpha, side = WORLDS[world]
    grid = Grid(uod, alpha)
    layout = BaseStationLayout(grid, side)
    corners = [(uod.lx + 2 * side, uod.ly + 2 * side), (uod.lx, uod.ly), (uod.ux, uod.uy)]
    objects = [make_object(oid, x, y) for oid, (x, y) in enumerate(corners)]
    fast = VectorizedCoverageIndex(layout, grid, ObjectStateStore(objects))
    fast.rebuild()
    for obj in objects:
        heard_by = [b for b in range(len(layout)) if obj.oid in fast.covered_by_stations([b])]
        assert heard_by == layout.stations_hearing(obj.pos)


# ------------------------------------------------------------- call seams


def count_lookups(system) -> tuple[Counter, Counter]:
    """Wrap the index's three reads and the fan-out's dispatch on the
    *instances*, the way ``bench/tracing.py`` does."""
    lookups: Counter = Counter()
    outcomes: Counter = Counter()
    coverage = system.transport.coverage

    def counted(name, fn):
        def wrapper(*args):
            lookups[name] += 1
            return fn(*args)

        return wrapper

    for name in ("covered_by_stations", "in_cells", "receiver_mask"):
        setattr(coverage, name, counted(name, getattr(coverage, name)))
    fanout = system.transport.fanout
    try_broadcast = fanout.try_broadcast

    def dispatched(*args):
        accepted = try_broadcast(*args)
        outcomes["accepted" if accepted else "declined"] += 1
        return accepted

    fanout.try_broadcast = dispatched
    return lookups, outcomes


def test_accepted_fanout_broadcast_is_one_lookup():
    system = paper_system(engine="vectorized", shards=1, scale=0.03)
    lookups, outcomes = count_lookups(system)
    system.run(8)
    assert outcomes["accepted"] > 0 and outcomes["declined"] == 0
    assert lookups == {"receiver_mask": outcomes["accepted"]}


def test_declined_fanout_broadcast_is_two_lookups():
    system = paper_system(engine="vectorized", shards=1, scale=0.03, latency=1)
    lookups, outcomes = count_lookups(system)
    system.run(8)
    assert outcomes["declined"] > 0 and outcomes["accepted"] == 0
    assert lookups == {
        "covered_by_stations": outcomes["declined"],
        "in_cells": outcomes["declined"],
    }
