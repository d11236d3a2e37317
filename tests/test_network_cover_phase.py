"""Property tests for the base-station layout's lattice-phase cover memo.

When the station side is a whole number of grid cells, ``Bmap`` repeats
with the lattice away from the UoD's edges, and
``BaseStationLayout.minimal_cover`` answers an interior range (or range
pair) from the cover of its translate into the first interior tile plus
the station id shift.  Every cover it returns -- memo hit or miss,
interior or edge -- must equal a fresh greedy set cover computed here
from ``Bmap`` alone (largest gain first, ties to the smaller id), on the
paper's geometry, two scaled ones, a station side that is no whole number
of cells (memo off) and a UoD that is no multiple of the cell side."""

from __future__ import annotations

import functools

from hypothesis import given, settings, strategies as st

from repro.geometry import Rect
from repro.grid import CellRange, CellRangeUnion, Grid
from repro.network import BaseStationLayout
from repro.workload import paper_defaults


def _paper(scale):
    params = paper_defaults().scaled(scale) if scale != 1 else paper_defaults()
    return params.uod, params.alpha, params.base_station_side


# name -> (uod, alpha, station side, the phase the layout must verify)
GEOMETRIES = {
    "table1": (*_paper(1), 2),
    "scale0.5": (*_paper(0.5), 2),
    "scale0.2": (*_paper(0.2), 2),
    "side-not-whole": (Rect(0, 0, 120, 90), 5.0, 7.5, 0),
    "uod-not-multiple": (Rect(-3.5, 2.0, 103.0, 77.0), 5.0, 15.0, 3),
}


@functools.cache
def layout_of(name):
    """One layout per geometry, shared across examples so the memo fills
    up and later examples hit entries earlier ones made."""
    uod, alpha, side, _ = GEOMETRIES[name]
    return BaseStationLayout(Grid(uod, alpha), side)


def fresh_greedy(layout, region):
    """The greedy cover of ``region``'s cells from ``Bmap``, as sets."""
    cells = list(dict.fromkeys(region))
    reach: dict[int, set] = {}
    for cell in cells:
        for bsid in layout.bmap(cell):
            reach.setdefault(bsid, set()).add(cell)
    uncovered = set(cells)
    chosen = []
    while uncovered:
        best = min(reach, key=lambda bsid: (-len(reach[bsid] & uncovered), bsid))
        chosen.append(best)
        uncovered -= reach.pop(best)
    return sorted(chosen)


@st.composite
def cell_ranges(draw, grid, max_side=6):
    """A range anywhere on the grid, edges and corners included (hypothesis
    favours the bounds of the integer ranges)."""
    lo_i = draw(st.integers(0, grid.n_cols - 1))
    lo_j = draw(st.integers(0, grid.n_rows - 1))
    hi_i = min(grid.n_cols - 1, lo_i + draw(st.integers(0, max_side)))
    hi_j = min(grid.n_rows - 1, lo_j + draw(st.integers(0, max_side)))
    return CellRange(lo_i, hi_i, lo_j, hi_j)


@st.composite
def regions(draw, grid):
    """A range, or a pair of ranges: a monitoring region moved by a cell
    crossing (shifted by one cell, clamped), or any two ranges."""
    first = draw(cell_ranges(grid))
    kind = draw(st.sampled_from(["range", "crossing", "pair"]))
    if kind == "range":
        return first
    if kind == "pair":
        return CellRangeUnion(first, draw(cell_ranges(grid)))
    di, dj = draw(st.sampled_from([(1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, 1)]))
    last_i, last_j = grid.n_cols - 1, grid.n_rows - 1
    second = CellRange(
        min(max(first.lo_i + di, 0), last_i),
        min(max(first.hi_i + di, 0), last_i),
        min(max(first.lo_j + dj, 0), last_j),
        min(max(first.hi_j + dj, 0), last_j),
    )
    return CellRangeUnion(first, second)


def translated(region, di, dj):
    """``region`` moved by ``(di, dj)`` cells."""
    if isinstance(region, CellRangeUnion):
        return CellRangeUnion(
            translated(region.first, di, dj), translated(region.second, di, dj)
        )
    return CellRange(region.lo_i + di, region.hi_i + di, region.lo_j + dj, region.hi_j + dj)


def test_the_layouts_verify_the_phase_they_should():
    for name, (_, _, _, phase) in GEOMETRIES.items():
        assert layout_of(name)._phase == phase, name


def test_a_broken_repeat_switches_the_phase_memo_off():
    """One interior cell whose ``Bmap`` breaks the repeat (as float
    rounding on a circle through a cell corner could) turns the memo off."""
    uod, alpha, side, _ = GEOMETRIES["uod-not-multiple"]
    layout = BaseStationLayout(Grid(uod, alpha), side)
    assert layout._phase == 3
    cell = (7, 8)
    layout._bmap[cell] = layout._bmap[cell][:-1]
    layout._phase = 0
    layout._build_phase()
    assert layout._phase == 0


@settings(deadline=None)
@given(data=st.data(), name=st.sampled_from(sorted(GEOMETRIES)))
def test_the_cover_equals_a_fresh_greedy(data, name):
    layout = layout_of(name)
    grid = layout.grid
    region = data.draw(regions(grid))
    want = fresh_greedy(layout, region)
    assert layout.minimal_cover(region) == want
    assert layout.minimal_cover(region) == want  # now a memo hit
    # The same region one or more whole tiles away, where it fits: an
    # interior translate hits the entry the first lookup made.
    p = int(layout.side_length / grid.alpha) if layout._phase else 1
    bounds = [
        (r.lo_i, r.hi_i, r.lo_j, r.hi_j)
        for r in ((region.first, region.second) if isinstance(region, CellRangeUnion) else (region,))
    ]
    lo_i, lo_j = min(b[0] for b in bounds), min(b[2] for b in bounds)
    hi_i, hi_j = max(b[1] for b in bounds), max(b[3] for b in bounds)
    ti = data.draw(st.integers(-(lo_i // p), (grid.n_cols - 1 - hi_i) // p))
    tj = data.draw(st.integers(-(lo_j // p), (grid.n_rows - 1 - hi_j) // p))
    moved = translated(region, ti * p, tj * p)
    assert layout.minimal_cover(moved) == fresh_greedy(layout, moved)


@settings(deadline=None)
@given(data=st.data(), name=st.sampled_from(sorted(GEOMETRIES)))
def test_a_cell_list_keeps_its_own_memo(data, name):
    """A region given as cells (a broadcast over an exact cell set) takes
    the plain memo and the same greedy."""
    layout = layout_of(name)
    region = data.draw(regions(layout.grid))
    cells = sorted(set(region), reverse=data.draw(st.booleans()))
    assert layout.minimal_cover(cells) == fresh_greedy(layout, cells)
