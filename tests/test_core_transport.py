"""Tests for the simulated transport and coverage index."""

import functools
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.messages import MotionStateRequest
from repro.core.transport import CoverageIndex, SimulatedTransport
from repro.geometry import Point, Rect
from repro.grid import CellRange, Grid
from repro.network import BaseStationLayout, MessageLedger
from repro.sim import TraceLog


@pytest.fixture
def grid():
    return Grid(Rect(0, 0, 50, 50), alpha=5.0)


@pytest.fixture
def layout(grid):
    return BaseStationLayout(grid, side_length=10.0)


class FakeServer:
    def __init__(self):
        self.received = []

    def on_uplink(self, message):
        self.received.append(message)


class FakeClient:
    def __init__(self):
        self.received = []

    def on_downlink(self, message):
        self.received.append(message)


class SizedMessage:
    def __init__(self, oid=None, bits=100):
        self.oid = oid
        self.bits = bits


class TestCoverageIndex:
    def test_receivers_by_station(self, layout, grid):
        index = CoverageIndex(layout, grid)
        index.rebuild([(1, Point(5, 5)), (2, Point(45, 45))])
        station = layout.station_covering(Point(5, 5))
        receivers = index.covered_by_stations([station.bsid])
        assert 1 in receivers
        assert 2 not in receivers

    def test_in_cells(self, layout, grid):
        index = CoverageIndex(layout, grid)
        index.rebuild([(1, Point(2, 2)), (2, Point(27, 27))])
        assert index.in_cells([(0, 0)]) == {1}
        assert index.in_cells([(5, 5)]) == {2}
        assert index.in_cells([(9, 9)]) == set()

    def test_rebuild_replaces_state(self, layout, grid):
        index = CoverageIndex(layout, grid)
        index.rebuild([(1, Point(2, 2))])
        index.rebuild([(2, Point(2, 2))])
        assert index.in_cells([(0, 0)]) == {2}


# Geometries for the coverage property: Table 1's (alpha 5, stations every
# 10 miles, a UoD side that is a multiple of neither), one whose station
# side is not a multiple of alpha, and one whose UoD side is a multiple of
# both (its far edges clamp into the last cell).
COVERAGE_GEOMETRIES = {
    "table1": (Rect(0, 0, math.sqrt(100_000.0), math.sqrt(100_000.0)), 5.0, 10.0),
    "off_lattice": (Rect(0, 0, 61.7, 48.2), 5.0, 7.3),
    "exact": (Rect(0, 0, 50, 50), 5.0, 10.0),
}


@functools.cache
def coverage_geometry(name):
    uod, alpha, alen = COVERAGE_GEOMETRIES[name]
    grid = Grid(uod, alpha)
    return grid, BaseStationLayout(grid, alen)


def coordinate(extent, alpha, alen):
    """One coordinate in ``[0, extent]``: uniform, or on (or one ulp either
    side of) a cell line, a station tile line or the universe's edge."""
    lines = st.one_of(
        st.integers(0, math.ceil(extent / alpha)).map(lambda k: k * alpha),
        st.integers(0, math.ceil(extent / alen)).map(lambda k: k * alen),
        st.sampled_from([0.0, extent]),
    )
    near = st.tuples(lines, st.sampled_from([-math.inf, 0.0, math.inf])).map(
        lambda t: t[0] if t[1] == 0.0 else math.nextafter(t[0], t[1])
    )
    return st.one_of(st.floats(0.0, extent), near).map(lambda v: min(max(v, 0.0), extent))


@st.composite
def coverage_world(draw):
    """A geometry and 1-40 positions: random, on cell / tile lines, edges
    and corners, or on (one ulp off) a station's circle."""
    grid, layout = coverage_geometry(draw(st.sampled_from(sorted(COVERAGE_GEOMETRIES))))
    uod = grid.uod

    def clamped(x, y):
        return Point(min(max(x, 0.0), uod.w), min(max(y, 0.0), uod.h))

    @st.composite
    def on_circle(draw):
        circle = layout.get(draw(st.integers(0, len(layout) - 1))).coverage
        angle = draw(st.floats(0.0, 2 * math.pi))
        x = circle.cx + circle.r * math.cos(angle)
        y = circle.cy + circle.r * math.sin(angle)
        step = draw(st.sampled_from([-math.inf, 0.0, math.inf]))
        if step:
            x, y = math.nextafter(x, step), math.nextafter(y, -step)
        return clamped(x, y)

    on_lines = st.builds(
        Point, coordinate(uod.w, grid.alpha, layout.side_length),
        coordinate(uod.h, grid.alpha, layout.side_length),
    )
    corners = st.builds(Point, st.sampled_from([0.0, uod.w]), st.sampled_from([0.0, uod.h]))
    points = draw(st.lists(st.one_of(on_lines, corners, on_circle()), min_size=1, max_size=40))
    return grid, layout, points


def cell_span(n):
    return st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).map(sorted)


class TestCoverageIndexProperty:
    @given(coverage_world(), st.data())
    def test_lookups_equal_a_brute_force_scan(self, world, data):
        grid, layout, points = world
        index = CoverageIndex(layout, grid)
        index.rebuild(list(enumerate(points)))
        hearing = [set(layout.stations_hearing(pos)) for pos in points]
        near = sorted(set().union(*hearing))
        for bsid in near:
            assert index.covered_by_stations([bsid]) == {
                oid for oid, heard in enumerate(hearing) if bsid in heard
            }, bsid
        ids = data.draw(
            st.sets(st.one_of(st.sampled_from(near), st.integers(0, len(layout) - 1)))
        )
        assert index.covered_by_stations(ids) == {
            oid for oid, heard in enumerate(hearing) if heard & ids
        }
        cells = [grid.cell_index(pos) for pos in points]
        for oid, cell in enumerate(cells):
            assert index.cell_of(oid) == cell
        for cell in set(cells):
            assert index.in_cells([cell]) == {oid for oid, c in enumerate(cells) if c == cell}
        (lo_i, hi_i), (lo_j, hi_j) = data.draw(cell_span(grid.n_cols)), data.draw(
            cell_span(grid.n_rows)
        )
        region = CellRange(lo_i, hi_i, lo_j, hi_j)
        assert index.in_cells(region) == {oid for oid, c in enumerate(cells) if c in region}

    @given(
        st.sampled_from(sorted(COVERAGE_GEOMETRIES)),
        st.sampled_from(["left", "right", "below", "above"]),
        st.floats(1e-9, 1e6),
        st.floats(0.0, 1.0),
    )
    def test_a_position_outside_the_universe_is_refused(self, name, side, gap, along):
        grid, layout = coverage_geometry(name)
        uod = grid.uod
        index = CoverageIndex(layout, grid)
        x, y = uod.lx + along * uod.w, uod.ly + along * uod.h
        x = {"left": uod.lx - gap, "right": uod.ux + gap}.get(side, x)
        y = {"below": uod.ly - gap, "above": uod.uy + gap}.get(side, y)
        with pytest.raises(ValueError, match="outside universe"):
            grid.cell_index(Point(x, y))
        with pytest.raises(ValueError, match="outside universe"):
            index.rebuild([(0, Point(uod.w / 2, uod.h / 2)), (1, Point(x, y))])


class TestTransport:
    def make(self, layout, grid):
        trace = TraceLog()
        ledger = MessageLedger(trace=trace)
        transport = SimulatedTransport(layout, grid, ledger)
        server = FakeServer()
        transport.attach_server(server)
        return transport, ledger, server, trace

    def test_uplink_accounting_and_delivery(self, layout, grid):
        transport, ledger, server, trace = self.make(layout, grid)
        transport.uplink(SizedMessage(oid=7, bits=128))
        assert ledger.uplink_count == 1
        assert ledger.uplink_bits == 128
        assert len(server.received) == 1
        assert trace.count("uplink") == 1

    def test_uplink_without_server_raises(self, layout, grid):
        transport = SimulatedTransport(layout, grid, MessageLedger())
        with pytest.raises(RuntimeError):
            transport.uplink(SizedMessage(oid=1))

    def test_send_one_to_one(self, layout, grid):
        transport, ledger, _server, _trace = self.make(layout, grid)
        client = FakeClient()
        transport.attach_client(3, client)
        transport.send(3, MotionStateRequest(oid=3))
        assert ledger.downlink_count == 1
        assert len(client.received) == 1

    def test_send_to_detached_client_counts_message(self, layout, grid):
        transport, ledger, _server, _trace = self.make(layout, grid)
        transport.send(99, MotionStateRequest(oid=99))
        assert ledger.downlink_count == 1  # radio message still on the air

    def test_broadcast_delivers_to_region_and_overhearers(self, layout, grid):
        transport, ledger, _server, _trace = self.make(layout, grid)
        inside = FakeClient()
        nearby = FakeClient()
        far = FakeClient()
        transport.attach_client(1, inside)
        transport.attach_client(2, nearby)
        transport.attach_client(3, far)
        transport.begin_step(
            1, [(1, Point(2, 2)), (2, Point(12, 2)), (3, Point(48, 48))]
        )
        count = transport.broadcast(CellRange(0, 0, 0, 0), SizedMessage(bits=64))
        assert count >= 1
        assert len(inside.received) == 1  # in the target region
        assert len(far.received) == 0
        # Receivers pay energy; the message count equals stations used.
        assert ledger.downlink_count == count

    def test_broadcast_empty_region(self, layout, grid):
        transport, ledger, _server, _trace = self.make(layout, grid)
        assert transport.broadcast([], SizedMessage()) == 0
        assert ledger.downlink_count == 0

    def test_wide_region_uses_multiple_stations(self, layout, grid):
        transport, ledger, _server, _trace = self.make(layout, grid)
        transport.begin_step(1, [])
        count = transport.broadcast(CellRange(0, 9, 0, 9), SizedMessage(bits=64))
        assert count > 1
        assert ledger.downlink_count == count
